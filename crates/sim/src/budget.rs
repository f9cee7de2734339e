//! Budgeted exploration with graceful degradation.
//!
//! A production checking pipeline cannot run unbounded: one
//! state-exploding kernel must not stall the whole study. A
//! [`BudgetedExplorer`] holds a [`Budget`] (wall-clock deadline plus
//! schedule/step caps) and walks a degradation ladder — exhaustive
//! search, then the sleep-set reduction, then CHESS-style preemption
//! bounding, and finally PCT sampling — accepting the first level that
//! finishes inside its slice of the budget. Every [`BudgetReport`]
//! states the [`DegradeLevel`] used and a [`Confidence`] grade, so a
//! consumer can tell "proved correct" apart from "sampled and nothing
//! fell out".
//!
//! Each rung runs through [`run_rung`], the one rung runner: the ladder
//! walks its rungs with it, and `lfm serve` runs the single rung its
//! admission control picked with it, so a served report means the same
//! thing a budgeted one does.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{Event, NoopSink, Sink, Stopwatch, Value};

use crate::explore::{DeadlineClock, ExploreLimits, Explorer, OutcomeCounts, Truncation};
use crate::fault::FaultPlan;
use crate::outcome::Outcome;
use crate::program::Program;
use crate::random::PctScheduler;
use crate::schedule::Schedule;

/// PCT trials per batch; the deadline is re-checked between batches.
const PCT_BATCH: u64 = 32;
/// Preemption bound used by the [`DegradeLevel::PreemptionBounded`] rung
/// (the study's depth findings say two preemptions expose most bugs).
const PREEMPTION_BOUND: u32 = 2;
/// PCT priority-change depth.
const PCT_DEPTH: u32 = 3;
/// The ladder's PCT trial cap when no deadline is set. PCT is the
/// ladder's last resort for a whole check, so it samples 8x more than a
/// served PCT rung, which bounds one request's work under load.
const LADDER_PCT_TRIALS: u64 = 4_096;

/// Resource budget for a [`BudgetedExplorer`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock budget for the whole ladder. `None` lets the first
    /// ladder level run to its schedule cap.
    pub deadline: Option<Duration>,
    /// Per-execution visible-step cap (see [`ExploreLimits::max_steps`]).
    pub max_steps: usize,
    /// Schedule cap per ladder level (see
    /// [`ExploreLimits::max_schedules`]).
    pub max_schedules: u64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            deadline: None,
            max_steps: 5_000,
            max_schedules: 250_000,
        }
    }
}

impl Budget {
    /// A default budget with a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Budget {
        Budget {
            deadline: Some(deadline),
            ..Budget::default()
        }
    }
}

/// Size caps of one [`run_rung`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCaps {
    /// Per-execution step cap.
    pub max_steps: usize,
    /// Schedule cap of a DFS rung, and PCT's trial cap when a deadline
    /// bounds the rung.
    pub max_schedules: u64,
}

impl Default for LevelCaps {
    /// The per-request caps of `lfm serve`, smaller than
    /// [`Budget::default`]'s because one request must stay cheap.
    fn default() -> LevelCaps {
        LevelCaps {
            max_steps: 4_000,
            max_schedules: 50_000,
        }
    }
}

/// The ladder rung a budgeted exploration ended on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeLevel {
    /// Full DFS over all interleavings (with state dedup).
    Exhaustive,
    /// DFS with the sleep-set partial-order reduction (still complete
    /// for outcome kinds; skipped when a fault plan is active).
    SleepSet,
    /// DFS restricted to few-preemption schedules (CHESS).
    PreemptionBounded,
    /// Probabilistic sampling (PCT) — no coverage guarantee.
    PctSampling,
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeLevel::Exhaustive => "exhaustive",
            DegradeLevel::SleepSet => "sleep-set",
            DegradeLevel::PreemptionBounded => "preemption-bounded",
            DegradeLevel::PctSampling => "pct-sampling",
        })
    }
}

/// How much the accepted result actually covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// The full interleaving space (up to the step cap) was explored.
    Proved,
    /// Complete within a preemption bound — strong but not exhaustive.
    Bounded,
    /// Probabilistic sampling only.
    Sampled,
    /// The accepted level was itself cut short; results are a lower
    /// bound on the behaviours that exist.
    Partial,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Confidence::Proved => "proved",
            Confidence::Bounded => "bounded",
            Confidence::Sampled => "sampled",
            Confidence::Partial => "partial",
        })
    }
}

/// Result of [`BudgetedExplorer::run`] and of [`run_rung`].
#[derive(Debug, Clone)]
pub struct BudgetReport {
    /// Outcome histogram of the accepted level.
    pub counts: OutcomeCounts,
    /// Schedules run by the accepted level.
    pub schedules_run: u64,
    /// Witness of the first failure found at the accepted level.
    pub first_failure: Option<(Schedule, Outcome)>,
    /// The ladder rung whose results these are.
    pub level: DegradeLevel,
    /// Coverage grade of those results.
    pub confidence: Confidence,
    /// Why the accepted level stopped short, if it did.
    pub truncation: Option<Truncation>,
    /// Every rung attempted, in order (the last one was accepted).
    pub levels_tried: Vec<DegradeLevel>,
    /// Wall-clock time of the whole ladder (of the one rung, for
    /// [`run_rung`]).
    pub wall: Duration,
}

impl BudgetReport {
    /// `true` when at least one interleaving manifested a bug.
    pub fn found_failure(&self) -> bool {
        self.first_failure.is_some()
    }

    /// `true` when the program is proved correct within the step cap.
    pub fn proved_ok(&self) -> bool {
        self.confidence == Confidence::Proved
            && self.counts.failures() == 0
            && self.counts.step_limit == 0
    }
}

/// Runs `program` at exactly `level` and grades the result.
///
/// `deadline` is measured from this call against `clock`; its expiry
/// stops the rung with [`Truncation::WallDeadline`]. A DFS rung runs
/// with state dedup and fusion, up to `caps.max_schedules` schedules.
/// Under `chaos` the sleep-set rung runs as plain dedup, because fault
/// injection breaks the reduction (see [`Explorer::chaos`]). The PCT
/// rung samples in batches of 32 seeded trials, re-checking the
/// deadline between batches, and always runs at least one batch. Its
/// trial cap is `caps.max_schedules` under a deadline and
/// `pct_trials` (at most `caps.max_schedules`) without one; reaching
/// the cap reports [`Truncation::ScheduleBudget`].
///
/// The report's `levels_tried` is `[level]` and its `wall` covers this
/// rung only.
pub fn run_rung(
    program: &Program,
    level: DegradeLevel,
    caps: LevelCaps,
    pct_trials: u64,
    chaos: Option<FaultPlan>,
    deadline: Option<Duration>,
    clock: DeadlineClock,
) -> BudgetReport {
    let stopwatch = Stopwatch::start();
    let mut report = BudgetReport {
        counts: OutcomeCounts::default(),
        schedules_run: 0,
        first_failure: None,
        level,
        confidence: Confidence::Sampled,
        truncation: None,
        levels_tried: vec![level],
        wall: Duration::ZERO,
    };
    if level == DegradeLevel::PctSampling {
        let seed_base = chaos.map_or(0x5EED, |p| p.seed);
        let trial_cap = match deadline {
            Some(_) => caps.max_schedules,
            None => pct_trials.min(caps.max_schedules),
        };
        let mut batch = 0u64;
        let truncation = loop {
            let left = trial_cap.saturating_sub(report.schedules_run);
            let batch_trials = PCT_BATCH.min(left).max(1);
            let seed = seed_base ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut scheduler =
                PctScheduler::new(program, seed, PCT_DEPTH).max_steps(caps.max_steps);
            if let Some(plan) = chaos {
                scheduler = scheduler.with_faults(plan);
            }
            let r = scheduler.run_trials(batch_trials);
            let counts = &mut report.counts;
            counts.ok += r.counts.ok;
            counts.assert_failed += r.counts.assert_failed;
            counts.deadlock += r.counts.deadlock;
            counts.step_limit += r.counts.step_limit;
            counts.tx_retry_limit += r.counts.tx_retry_limit;
            counts.misuse += r.counts.misuse;
            report.schedules_run += r.trials;
            if report.first_failure.is_none() {
                report.first_failure = r.first_failure;
            }
            batch += 1;
            if report.schedules_run >= trial_cap {
                break Truncation::ScheduleBudget;
            }
            if deadline.is_some_and(|d| clock.elapsed(&stopwatch, report.schedules_run) >= d) {
                break Truncation::WallDeadline;
            }
        };
        report.truncation = Some(truncation);
    } else {
        let limits = ExploreLimits {
            max_steps: caps.max_steps,
            max_schedules: caps.max_schedules,
            max_preemptions: (level == DegradeLevel::PreemptionBounded).then_some(PREEMPTION_BOUND),
            stop_on_first_failure: false,
            dedup_states: true,
            sleep_sets: level == DegradeLevel::SleepSet && chaos.is_none(),
            dpor: false,
            fuse: true,
            deadline,
        };
        let mut explorer = Explorer::new(program).limits(limits).deadline_clock(clock);
        if let Some(plan) = chaos {
            explorer = explorer.chaos(plan);
        }
        let r = explorer.run();
        let complete = match level {
            DegradeLevel::PreemptionBounded => {
                matches!(r.truncation, None | Some(Truncation::PreemptionBound))
            }
            _ => r.truncation.is_none(),
        };
        report.confidence = match (level, complete) {
            (_, false) => Confidence::Partial,
            (DegradeLevel::PreemptionBounded, true) => Confidence::Bounded,
            (_, true) => Confidence::Proved,
        };
        report.counts = r.counts;
        report.schedules_run = r.schedules_run;
        report.first_failure = r.first_failure;
        report.truncation = r.truncation;
    }
    report.wall = stopwatch.elapsed();
    report
}

/// [`Explorer`] with a wall-clock budget and a degradation ladder.
#[derive(Debug)]
pub struct BudgetedExplorer<'p> {
    program: &'p Program,
    budget: Budget,
    fault: Option<FaultPlan>,
    sink: Arc<dyn Sink>,
    clock: DeadlineClock,
}

impl<'p> BudgetedExplorer<'p> {
    /// Creates a budgeted explorer with the default (unbounded) budget.
    pub fn new(program: &'p Program) -> BudgetedExplorer<'p> {
        BudgetedExplorer {
            program,
            budget: Budget::default(),
            fault: None,
            sink: Arc::new(NoopSink),
            clock: DeadlineClock::Wall,
        }
    }

    /// Replaces the budget.
    pub fn budget(mut self, budget: Budget) -> BudgetedExplorer<'p> {
        self.budget = budget;
        self
    }

    /// Measures the budget's deadline, and every rung's slice of it,
    /// against `clock` instead of the host's wall clock (see
    /// [`DeadlineClock`]).
    pub fn deadline_clock(mut self, clock: DeadlineClock) -> BudgetedExplorer<'p> {
        self.clock = clock;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every level. The
    /// sleep-set rung is skipped (see [`Explorer::chaos`]).
    pub fn chaos(mut self, plan: FaultPlan) -> BudgetedExplorer<'p> {
        self.fault = Some(plan);
        self
    }

    /// Streams `budget` scope events (start, degrade, report) to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> BudgetedExplorer<'p> {
        self.sink = sink;
        self
    }

    /// Runs the ladder and returns the first acceptable result.
    ///
    /// A DFS level is accepted when it finds a failure (definitive
    /// regardless of coverage) or finishes without hitting the wall
    /// deadline or the schedule cap; otherwise the ladder degrades. PCT,
    /// the last rung, always produces a result.
    pub fn run(&self) -> BudgetReport {
        let stopwatch = Stopwatch::start();
        self.emit_start();
        let caps = LevelCaps {
            max_steps: self.budget.max_steps,
            max_schedules: self.budget.max_schedules,
        };
        let mut levels_tried = Vec::new();
        // Schedules run by earlier rungs: what a per-schedule deadline
        // clock has spent.
        let mut spent = 0u64;

        // Deadline slices per DFS rung; PCT gets whatever remains, and
        // always runs.
        let ladder = [
            (DegradeLevel::Exhaustive, 0.40),
            (DegradeLevel::SleepSet, 0.25),
            (DegradeLevel::PreemptionBounded, 0.20),
            (DegradeLevel::PctSampling, 1.0),
        ];
        for (level, fraction) in ladder {
            let last = level == DegradeLevel::PctSampling;
            if level == DegradeLevel::SleepSet && self.fault.is_some() {
                continue;
            }
            let slice = self.budget.deadline.map(|total| {
                total
                    .mul_f64(fraction)
                    .min(total.saturating_sub(self.clock.elapsed(&stopwatch, spent)))
            });
            if !last && slice.is_some_and(|s| s.is_zero()) {
                continue;
            }
            let mut report = run_rung(
                self.program,
                level,
                caps,
                LADDER_PCT_TRIALS,
                self.fault,
                slice,
                self.clock,
            );
            levels_tried.push(level);
            spent += report.schedules_run;
            let out_of_budget = matches!(
                report.truncation,
                Some(Truncation::WallDeadline) | Some(Truncation::ScheduleBudget)
            );
            if last || report.found_failure() || !out_of_budget {
                report.levels_tried = levels_tried;
                report.wall = stopwatch.elapsed();
                return self.accept(report);
            }
            self.emit_degrade(level, report.truncation);
        }
        unreachable!("the PCT rung always accepts")
    }

    fn emit_start(&self) {
        if !self.sink.enabled() {
            return;
        }
        let mut fields = vec![("program", Value::Str(self.program.name()))];
        if let Some(d) = self.budget.deadline {
            fields.push(("deadline_ms", Value::U64(d.as_millis() as u64)));
        }
        if let Some(plan) = &self.fault {
            fields.push(("chaos_seed", Value::U64(plan.seed)));
        }
        self.sink.emit(&Event {
            scope: "budget",
            name: "start",
            fields: &fields,
        });
    }

    fn emit_degrade(&self, from: DegradeLevel, truncation: Option<Truncation>) {
        if !self.sink.enabled() {
            return;
        }
        let from = from.to_string();
        let why = truncation
            .map(|t| t.to_string())
            .unwrap_or_else(|| "none".to_owned());
        self.sink.emit(&Event {
            scope: "budget",
            name: "degrade",
            fields: &[
                ("program", Value::Str(self.program.name())),
                ("from_level", Value::Str(&from)),
                ("truncation", Value::Str(&why)),
            ],
        });
    }

    fn accept(&self, report: BudgetReport) -> BudgetReport {
        if self.sink.enabled() {
            let level = report.level.to_string();
            let confidence = report.confidence.to_string();
            let truncation = report
                .truncation
                .map(|t| t.to_string())
                .unwrap_or_else(|| "none".to_owned());
            self.sink.emit(&Event {
                scope: "budget",
                name: "report",
                fields: &[
                    ("program", Value::Str(self.program.name())),
                    ("level", Value::Str(&level)),
                    ("confidence", Value::Str(&confidence)),
                    ("truncation", Value::Str(&truncation)),
                    ("schedules", Value::U64(report.schedules_run)),
                    ("failures", Value::U64(report.counts.failures())),
                    ("levels_tried", Value::U64(report.levels_tried.len() as u64)),
                    ("wall_us", Value::U64(report.wall.as_micros() as u64)),
                ],
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;

    fn racy_counter() -> Program {
        let mut b = ProgramBuilder::new("racy");
        let v = b.var("counter", 0);
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "no lost update");
        b.build().unwrap()
    }

    fn locked_counter() -> Program {
        let mut b = ProgramBuilder::new("locked");
        let v = b.var("counter", 0);
        let m = b.mutex();
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::lock(m),
                    Stmt::read(v, "tmp"),
                    Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
                    Stmt::unlock(m),
                ],
            );
        }
        b.final_assert(Expr::shared(v).eq(Expr::lit(2)), "no lost update");
        b.build().unwrap()
    }

    #[test]
    fn unbounded_budget_stays_exhaustive() {
        let p = racy_counter();
        let report = BudgetedExplorer::new(&p).run();
        assert_eq!(report.level, DegradeLevel::Exhaustive);
        // Full coverage even though failures were found: the lost-update
        // interleavings are all of them.
        assert_eq!(report.confidence, Confidence::Proved);
        assert!(report.found_failure());
        assert!(!report.proved_ok());
    }

    #[test]
    fn correct_program_is_proved_at_level_one() {
        let p = locked_counter();
        let report = BudgetedExplorer::new(&p).run();
        assert_eq!(report.level, DegradeLevel::Exhaustive);
        assert_eq!(report.confidence, Confidence::Proved);
        assert!(report.proved_ok());
        assert_eq!(report.levels_tried, vec![DegradeLevel::Exhaustive]);
    }

    #[test]
    fn zero_deadline_falls_through_to_pct() {
        let p = locked_counter();
        let report = BudgetedExplorer::new(&p)
            .budget(Budget::with_deadline(Duration::ZERO))
            .run();
        assert_eq!(report.level, DegradeLevel::PctSampling);
        assert_eq!(report.confidence, Confidence::Sampled);
        assert!(report.schedules_run > 0, "at least one PCT batch runs");
        assert_eq!(report.levels_tried, vec![DegradeLevel::PctSampling]);
        assert_eq!(report.truncation, Some(Truncation::WallDeadline));
    }

    #[test]
    fn schedule_cap_degrades_down_the_ladder() {
        let p = locked_counter();
        let tiny = Budget {
            max_schedules: 2,
            ..Budget::default()
        };
        let report = BudgetedExplorer::new(&p).budget(tiny).run();
        // Every DFS rung truncates at 2 schedules; PCT takes over.
        assert_eq!(report.level, DegradeLevel::PctSampling);
        assert_eq!(
            report.levels_tried,
            vec![
                DegradeLevel::Exhaustive,
                DegradeLevel::SleepSet,
                DegradeLevel::PreemptionBounded,
                DegradeLevel::PctSampling,
            ]
        );
        assert!(report.schedules_run <= 2);
        assert_eq!(report.truncation, Some(Truncation::ScheduleBudget));
    }

    #[test]
    fn chaos_skips_the_sleep_set_rung() {
        let p = locked_counter();
        let tiny = Budget {
            max_schedules: 2,
            ..Budget::default()
        };
        let report = BudgetedExplorer::new(&p)
            .budget(tiny)
            .chaos(FaultPlan::new(42))
            .run();
        assert!(!report.levels_tried.contains(&DegradeLevel::SleepSet));
    }

    #[test]
    fn failure_found_is_accepted_immediately() {
        let p = racy_counter();
        let report = BudgetedExplorer::new(&p).run();
        assert!(report.found_failure());
        assert_eq!(report.level, DegradeLevel::Exhaustive);
    }

    #[test]
    fn pct_rung_reports_what_stopped_it() {
        let p = racy_counter();
        let caps = LevelCaps {
            max_steps: 100,
            max_schedules: 64,
        };
        let pct = |deadline, clock| {
            run_rung(
                &p,
                DegradeLevel::PctSampling,
                caps,
                512,
                None,
                deadline,
                clock,
            )
        };
        // The trial cap ends the run, with or without a deadline.
        for deadline in [None, Some(Duration::from_secs(60))] {
            let report = pct(deadline, DeadlineClock::Wall);
            assert_eq!(report.truncation, Some(Truncation::ScheduleBudget));
            assert_eq!(report.schedules_run, 64);
            assert_eq!(report.confidence, Confidence::Sampled);
        }
        // The deadline ends it after the first batch of 32 trials.
        let report = pct(
            Some(Duration::from_millis(1)),
            DeadlineClock::PerSchedule(Duration::from_millis(1)),
        );
        assert_eq!(report.truncation, Some(Truncation::WallDeadline));
        assert_eq!(report.schedules_run, 32);
        // Without a deadline the caller's trial cap applies.
        let report = run_rung(
            &p,
            DegradeLevel::PctSampling,
            LevelCaps::default(),
            40,
            None,
            None,
            DeadlineClock::Wall,
        );
        assert_eq!(report.schedules_run, 40);
        assert_eq!(report.truncation, Some(Truncation::ScheduleBudget));
    }

    #[test]
    fn levels_and_confidence_render() {
        assert_eq!(DegradeLevel::Exhaustive.to_string(), "exhaustive");
        assert_eq!(DegradeLevel::SleepSet.to_string(), "sleep-set");
        assert_eq!(
            DegradeLevel::PreemptionBounded.to_string(),
            "preemption-bounded"
        );
        assert_eq!(DegradeLevel::PctSampling.to_string(), "pct-sampling");
        assert_eq!(Confidence::Proved.to_string(), "proved");
        assert_eq!(Confidence::Bounded.to_string(), "bounded");
        assert_eq!(Confidence::Sampled.to_string(), "sampled");
        assert_eq!(Confidence::Partial.to_string(), "partial");
    }
}
