//! Exhaustive (optionally context-bounded) interleaving exploration.
//!
//! [`Explorer`] performs an iterative depth-first search over scheduling
//! choices, snapshotting the [`Executor`] at every branch point. Along
//! stretches where only one thread is enabled it advances without cloning.
//! This is the engine behind the study's "small-scope" manifestation
//! experiments: the finding that 92% of non-deadlock bugs deterministically
//! manifest once a specific order among at most four memory accesses is
//! enforced means exhaustive search at these tiny scopes is tractable.
//!
//! One DFS loop serves every mode. It is generic over a small reduction
//! policy that decides which children a branch point explores: classic
//! enumeration (sleep sets, preemption bound, state dedup) or source-set
//! DPOR. The loop can start from any branch frame and takes a split
//! hook for the frames at one depth, which is how
//! [`crate::ParExplorer`] cuts the tree into subtrees, searches them on
//! worker threads and splices their results back in serial order.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{
    eta_ms, Event, KnuthEstimator, NoopSink, Phase, PhaseProfiler, ProgressTracker, Sink,
    Stopwatch, Value,
};

use crate::dpor::Dpor;
use crate::exec::{Executor, RecordMode, ReplayDeviation};
use crate::fault::FaultPlan;
use crate::footprint::Footprint;
use crate::frontier::{self, Advance, EdgeLog, Mode, Sleepers};
use crate::ids::{thread_bit, thread_mask, ThreadId};
use crate::outcome::Outcome;
use crate::program::Program;
use crate::schedule::Schedule;
use crate::trace::Trace;

/// How often (in completed schedules) an enabled [`Sink`] receives an
/// `explore`/`progress` event during long sweeps.
pub(crate) const PROGRESS_EVERY: u64 = 25_000;

/// How often (in completed schedules) a progress-tracking run reads the
/// wall clock to decide whether a `progress_est` event is due. The
/// counter gate keeps clock reads off the per-schedule fast path.
pub(crate) const PROGRESS_CHECK_EVERY: u64 = 64;

/// Resource bounds for an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum visible operations per execution before classifying it
    /// [`Outcome::StepLimit`].
    pub max_steps: usize,
    /// Maximum number of complete schedules to run; exploration reports
    /// `truncated = true` when the bound is hit.
    pub max_schedules: u64,
    /// CHESS-style preemption bound: maximum number of *preemptive*
    /// context switches (switching away from a still-enabled thread).
    /// `None` explores all interleavings.
    pub max_preemptions: Option<u32>,
    /// Stop at the first failing outcome instead of exhausting the space.
    pub stop_on_first_failure: bool,
    /// Deduplicate branch states by [`Executor::state_key`]: branches
    /// whose state was already expanded are skipped. Collapses the
    /// retry-loop blowup of transactional programs; slightly approximate
    /// with preemption bounds (a state is only expanded with the first
    /// preemption budget it was reached at).
    pub dedup_states: bool,
    /// Sleep-set partial-order reduction (Godefroid): skip sibling
    /// choices whose operations commute with everything explored since —
    /// every Mazurkiewicz trace class is still visited once, so outcome
    /// *kinds* and reachable final states are preserved while the
    /// schedule count drops sharply. Intended for unbounded exploration;
    /// combining with a preemption bound may prune interleavings the
    /// bound alone would have kept. Silently disabled when a fault plan
    /// is installed: fault decisions are step-indexed, which breaks the
    /// commutativity argument the reduction relies on.
    pub sleep_sets: bool,
    /// Source-set dynamic partial-order reduction (Flanagan &
    /// Godefroid 2005; Abdulla et al. 2014): explore one schedule,
    /// detect races between dependent concurrent steps on the executed
    /// path, and add only the schedules that reverse them. Visits at
    /// least one representative of every Mazurkiewicz trace class, so
    /// outcome kinds and reachable final states match full enumeration
    /// while the schedule count drops by the degree of independence in
    /// the program. Composes with `sleep_sets` (backtrack candidates an
    /// ancestor sibling covers are skipped). Silently disabled when a
    /// fault plan is installed or a preemption bound is set — both
    /// break the equivalence-class argument — and silently disables
    /// `dedup_states`, which is unsound under DPOR (a state reached
    /// along a different prefix carries a different race log).
    pub dpor: bool,
    /// Invisible-step fusion (on by default): when a branch state's
    /// running thread has an *invisible* next op
    /// (`Footprint::is_invisible` — touches no
    /// shared variable, no sync object, and cannot produce an
    /// outcome-relevant effect), execute it immediately instead of
    /// creating a branch point. Invisible ops are global both-movers,
    /// so every outcome reachable by delaying them is reached through
    /// an equivalent trace; sound under plain DFS, dedup, sleep sets,
    /// and DPOR. Silently disabled when a fault plan is installed:
    /// fault decisions are step-indexed, which breaks the commutation
    /// argument (the same contract sleep sets and DPOR have).
    pub fuse: bool,
    /// Wall-clock budget for the whole exploration; the search stops with
    /// [`Truncation::WallDeadline`] once it elapses. `None` (the default)
    /// runs unbounded.
    pub deadline: Option<Duration>,
}

impl Default for ExploreLimits {
    fn default() -> ExploreLimits {
        ExploreLimits {
            max_steps: 5_000,
            max_schedules: 250_000,
            max_preemptions: None,
            stop_on_first_failure: false,
            dedup_states: false,
            sleep_sets: false,
            dpor: false,
            fuse: true,
            deadline: None,
        }
    }
}

/// Histogram of terminal outcomes over an exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Executions that finished with every assertion holding.
    pub ok: u64,
    /// Executions that failed an assertion.
    pub assert_failed: u64,
    /// Executions that deadlocked.
    pub deadlock: u64,
    /// Executions cut off by the step budget.
    pub step_limit: u64,
    /// Executions cut off by the transaction retry budget.
    pub tx_retry_limit: u64,
    /// Executions that crashed on a synchronization misuse.
    pub misuse: u64,
}

impl OutcomeCounts {
    /// Total executions classified.
    pub fn total(&self) -> u64 {
        self.ok
            + self.assert_failed
            + self.deadlock
            + self.step_limit
            + self.tx_retry_limit
            + self.misuse
    }

    /// Executions that manifested a bug (assert / deadlock / misuse).
    pub fn failures(&self) -> u64 {
        self.assert_failed + self.deadlock + self.misuse
    }

    pub(crate) fn add(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::AssertFailed { .. } => self.assert_failed += 1,
            Outcome::Deadlock { .. } => self.deadlock += 1,
            Outcome::StepLimit => self.step_limit += 1,
            Outcome::TxRetryLimit { .. } => self.tx_retry_limit += 1,
            Outcome::Misuse { .. } => self.misuse += 1,
        }
    }
}

impl fmt::Display for OutcomeCounts {
    /// One-line histogram, e.g.
    /// `ok=2 assert=1 deadlock=0 step-limit=0 tx-retry=0 misuse=0 total=3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ok={} assert={} deadlock={} step-limit={} tx-retry={} misuse={} total={}",
            self.ok,
            self.assert_failed,
            self.deadlock,
            self.step_limit,
            self.tx_retry_limit,
            self.misuse,
            self.total()
        )
    }
}

/// Why an exploration stopped short of the full interleaving space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// `max_schedules` was reached; whole subtrees remain unexplored.
    ScheduleBudget,
    /// At least one execution was cut by `max_steps`, so its suffix
    /// interleavings were never classified.
    StepBudget,
    /// The preemption bound pruned still-enabled scheduling choices.
    PreemptionBound,
    /// The wall-clock deadline elapsed mid-search.
    WallDeadline,
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Truncation::ScheduleBudget => "schedule budget",
            Truncation::StepBudget => "step budget",
            Truncation::PreemptionBound => "preemption bound",
            Truncation::WallDeadline => "wall deadline",
        })
    }
}

/// Operational metrics of one exploration, alongside the semantic results
/// in [`ExploreReport`]. Deterministic except for `wall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// States with more than one enabled thread that were expanded
    /// (pushed on the DFS stack).
    pub branch_points: u64,
    /// Executor snapshots taken (one clone per explored choice).
    pub snapshots: u64,
    /// Deepest DFS stack observed.
    pub max_depth: u64,
    /// Enabled choices skipped because the preemption budget was
    /// exhausted.
    pub preemption_limited: u64,
    /// Invisible steps fused into their parent edge instead of opening
    /// a branch point (see [`ExploreLimits::fuse`]). Always 0 with
    /// fusion off or under chaos.
    pub fused_steps: u64,
    /// Branch-point children that were their frame's *final survivor*
    /// (every remaining sibling provably pruned by the sleep set or
    /// the preemption bound), so the parent's executor was moved into
    /// the child and no snapshot clone was taken.
    pub snapshots_elided: u64,
    /// Wall-clock time of the whole exploration.
    pub wall: Duration,
}

/// Result of [`Explorer::run`]. Compare [`ExploreReport::without_wall`]
/// views to ask whether two runs reached the same search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Outcome histogram.
    pub counts: OutcomeCounts,
    /// Number of complete schedules executed.
    pub schedules_run: u64,
    /// Total visible steps across all executions.
    pub steps_total: u64,
    /// `true` when `max_schedules` cut the search short.
    pub truncated: bool,
    /// A witness for the first failure found, with its outcome.
    pub first_failure: Option<(Schedule, Outcome)>,
    /// A witness for the first clean execution found.
    pub first_ok: Option<Schedule>,
    /// Branches skipped by state deduplication.
    pub states_deduped: u64,
    /// Sibling choices skipped by the sleep-set reduction.
    pub sleep_pruned: u64,
    /// Branch children DPOR proved redundant without running them:
    /// enabled threads that never entered their branch point's
    /// backtrack set before it was exhausted. Always 0 outside DPOR
    /// mode.
    pub dpor_pruned: u64,
    /// Why the search was cut short, when it was: the schedule budget,
    /// the per-execution step budget, or the preemption bound. `None`
    /// means the explored space was exhausted.
    pub truncation: Option<Truncation>,
    /// Knuth-style estimate of the total number of schedules in the
    /// exploration tree (mean over enumerated leaves of the product of
    /// branching degrees along each root-to-leaf path). A pure function
    /// of the tree — identical across serial/parallel and
    /// observation-on/off runs; exact when the sweep completed
    /// un-truncated without pruning. 0.0 when no schedule ran.
    pub est_total_schedules: f64,
    /// Operational metrics (branch points, snapshots, depth, wall time).
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// `true` when at least one interleaving manifested a bug.
    pub fn found_failure(&self) -> bool {
        self.first_failure.is_some()
    }

    /// Completed schedules per second of wall time (0.0 when the
    /// exploration was too fast to time).
    pub fn schedules_per_sec(&self) -> f64 {
        per_sec(self.schedules_run, self.stats.wall)
    }

    /// Visible steps executed per second of wall time (0.0 when the
    /// exploration was too fast to time) — the explorer's throughput
    /// currency, independent of how long individual schedules are.
    pub fn states_per_sec(&self) -> f64 {
        per_sec(self.steps_total, self.stats.wall)
    }

    /// `true` when the space was exhausted with no failure — i.e. the
    /// program is correct within the explored bounds.
    pub fn proved_ok(&self) -> bool {
        !self.truncated && self.counts.failures() == 0 && self.counts.step_limit == 0
    }

    /// The report with `stats.wall` zeroed: everything the search
    /// decides and nothing a clock measures. Serial and parallel runs,
    /// and runs with observation on or off, must agree on this view.
    pub fn without_wall(&self) -> ExploreReport {
        let mut report = self.clone();
        report.stats.wall = Duration::ZERO;
        report
    }
}

/// `count` per second of `wall` (0.0 when `wall` is too short to time).
fn per_sec(count: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// What a run measures its deadline ([`ExploreLimits::deadline`],
/// [`crate::Budget::deadline`]) against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeadlineClock {
    /// Host wall-clock time since the run started.
    #[default]
    Wall,
    /// Simulated time in which every completed schedule costs the given
    /// duration and nothing else takes any: the deadline expires at the
    /// same schedule count on every host. For testing deadline handling
    /// without depending on host speed.
    PerSchedule(Duration),
}

impl DeadlineClock {
    /// Time used so far by this clock, for a run that started at
    /// `stopwatch` and has completed `schedules` schedules.
    pub fn elapsed(self, stopwatch: &Stopwatch, schedules: u64) -> Duration {
        match self {
            DeadlineClock::Wall => stopwatch.elapsed(),
            DeadlineClock::PerSchedule(cost) => Duration::from_nanos(
                u64::try_from(cost.as_nanos())
                    .unwrap_or(u64::MAX)
                    .saturating_mul(schedules),
            ),
        }
    }
}

/// The builder methods [`Explorer`] and [`crate::ParExplorer`] share,
/// each a plain edit of the explorer's [`Setup`].
macro_rules! shared_builders {
    () => {
        /// Replaces the resource bounds.
        pub fn limits(mut self, limits: ExploreLimits) -> Self {
            self.setup.limits = limits;
            self
        }

        /// Sets a CHESS-style preemption bound.
        pub fn preemption_bound(mut self, bound: u32) -> Self {
            self.setup.limits.max_preemptions = Some(bound);
            self
        }

        /// Stops at the first failure.
        pub fn stop_on_first_failure(mut self) -> Self {
            self.setup.limits.stop_on_first_failure = true;
            self
        }

        /// Enables state deduplication (see [`ExploreLimits::dedup_states`]).
        pub fn dedup_states(mut self) -> Self {
            self.setup.limits.dedup_states = true;
            self
        }

        /// Enables the sleep-set partial-order reduction
        /// (see [`ExploreLimits::sleep_sets`]).
        pub fn sleep_sets(mut self) -> Self {
            self.setup.limits.sleep_sets = true;
            self
        }

        /// Enables source-set dynamic partial-order reduction
        /// (see [`ExploreLimits::dpor`]).
        pub fn dpor(mut self) -> Self {
            self.setup.limits.dpor = true;
            self
        }

        /// Sets a wall-clock deadline for the exploration
        /// (see [`ExploreLimits::deadline`]).
        pub fn deadline(mut self, deadline: Duration) -> Self {
            self.setup.limits.deadline = Some(deadline);
            self
        }

        /// Measures the deadline against `clock` instead of the host's wall
        /// clock (see [`DeadlineClock`]).
        pub fn deadline_clock(mut self, clock: DeadlineClock) -> Self {
            self.setup.clock = clock;
            self
        }

        /// Disables invisible-step fusion (see [`ExploreLimits::fuse`]):
        /// every state with ≥2 enabled threads becomes a branch point, as
        /// before fusion existed. The escape hatch behind `--no-fuse` and
        /// the baseline side of the `fuse_equivalence` differential suite.
        pub fn no_fuse(mut self) -> Self {
            self.setup.limits.fuse = false;
            self
        }
    };
}
pub(crate) use shared_builders;

/// The builder state [`Explorer`] and [`crate::ParExplorer`] share.
#[derive(Debug)]
pub(crate) struct Setup<'p> {
    pub program: &'p Program,
    pub limits: ExploreLimits,
    pub sink: Arc<dyn Sink>,
    pub fault: Option<FaultPlan>,
    pub profile: Arc<PhaseProfiler>,
    pub progress_every: Option<Duration>,
    pub clock: DeadlineClock,
}

impl<'p> Setup<'p> {
    /// Default limits, the no-op sink, no faults, no profiling.
    pub fn new(program: &'p Program) -> Setup<'p> {
        Setup {
            program,
            limits: ExploreLimits::default(),
            sink: Arc::new(NoopSink),
            fault: None,
            profile: Arc::new(PhaseProfiler::disabled()),
            progress_every: None,
            clock: DeadlineClock::Wall,
        }
    }

    /// The effective reductions of this run.
    pub fn mode(&self) -> Mode {
        Mode::resolve(&self.limits, self.fault.is_some())
    }

    /// The root executor, under the fault plan when one is installed.
    /// Stall faults only bias samplers; for a systematic search they
    /// would *remove* interleavings (see [`FaultPlan::without_stalls`]),
    /// so they are stripped here.
    pub fn root(&self, record: RecordMode) -> Executor {
        let mut root = Executor::with_record(self.program, record);
        if let Some(plan) = self.fault {
            root.set_fault_plan(plan.without_stalls());
        }
        root
    }

    /// Emits an `explore` scope event.
    pub fn emit(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        self.sink.emit(&Event {
            scope: "explore",
            name,
            fields,
        });
    }

    /// Appends the optional deadline and chaos-seed fields every
    /// `explore` start and report event ends with.
    fn push_optional(&self, fields: &mut Vec<(&str, Value<'_>)>) {
        if let Some(d) = self.limits.deadline {
            fields.push(("deadline_ms", Value::U64(d.as_millis() as u64)));
        }
        if let Some(plan) = &self.fault {
            fields.push(("chaos_seed", Value::U64(plan.seed)));
        }
    }
}

/// A schedule [`Tally::terminal`] classified, as a [`Fragment`] keeps it.
#[derive(Debug)]
pub(crate) struct Leaf {
    pub outcome: Outcome,
    pub steps: u64,
    pub path_degree: f64,
}

/// One subtree searched on its own: its report, and its leaves in
/// preorder for a coordinator to replay through its own [`Tally`].
#[derive(Debug)]
pub(crate) struct Fragment {
    pub report: ExploreReport,
    pub leaves: Vec<Leaf>,
}

/// The report plumbing of every search: the `start` event, the loop-top
/// budget check, terminal classification with lazily produced
/// witnesses, the periodic progress events, and the final truncation
/// reason and `report` event. A coordinator that replays a subtree's
/// leaves through [`Tally::terminal`] in serial order therefore produces
/// the serial report and events.
pub(crate) struct Tally<'s, 'p> {
    setup: &'s Setup<'p>,
    /// The report under construction; drivers add their own counters.
    pub report: ExploreReport,
    estimator: KnuthEstimator,
    progress: Option<ProgressTracker>,
    stopwatch: Stopwatch,
    deadline_hit: bool,
    /// Ends the search at the next loop top once set.
    halt: Option<&'s AtomicBool>,
    /// Every classified schedule, kept only by a [`Fragment`] search.
    leaves: Option<Vec<Leaf>>,
}

impl<'s, 'p> Tally<'s, 'p> {
    /// Starts the run's clock and emits `explore`/`start`, with the
    /// driver's `extra` fields after the common ones.
    pub fn start(setup: &'s Setup<'p>, mode: Mode, extra: &[(&str, Value<'_>)]) -> Self {
        let tally = Tally {
            setup,
            report: ExploreReport {
                counts: OutcomeCounts::default(),
                schedules_run: 0,
                steps_total: 0,
                truncated: false,
                first_failure: None,
                first_ok: None,
                states_deduped: 0,
                sleep_pruned: 0,
                dpor_pruned: 0,
                truncation: None,
                est_total_schedules: 0.0,
                stats: ExploreStats::default(),
            },
            estimator: KnuthEstimator::new(),
            progress: setup.progress_every.map(ProgressTracker::new),
            stopwatch: Stopwatch::start(),
            deadline_hit: false,
            halt: None,
            leaves: None,
        };
        if setup.sink.enabled() {
            let mut fields = vec![
                ("program", Value::Str(setup.program.name())),
                ("threads", Value::U64(setup.program.n_threads() as u64)),
                ("max_schedules", Value::U64(setup.limits.max_schedules)),
                ("sleep_sets", Value::Bool(mode.sleep)),
                ("dedup_states", Value::Bool(mode.dedup)),
                ("fuse", Value::Bool(mode.fuse)),
            ];
            if mode.dpor {
                fields.push(("dpor", Value::Bool(true)));
            }
            fields.extend_from_slice(extra);
            setup.push_optional(&mut fields);
            setup.emit("start", &fields);
        }
        tally
    }

    /// A tally for a [`Fragment`] search of a run started at `started`
    /// (its wall deadline's origin): it keeps every leaf, stops once
    /// `halt` is set, and emits nothing if `setup` has the no-op sink.
    pub fn fragment(
        setup: &'s Setup<'p>,
        mode: Mode,
        halt: &'s AtomicBool,
        started: Stopwatch,
    ) -> Self {
        let mut tally = Tally::start(setup, mode, &[]);
        tally.halt = Some(halt);
        tally.leaves = Some(Vec::new());
        tally.stopwatch = started;
        tally
    }

    /// The fragment a [`Tally::fragment`] search recorded; its
    /// truncation is set only when the wall deadline ended it.
    pub fn into_fragment(mut self) -> Fragment {
        self.report.truncation = self.deadline_hit.then_some(Truncation::WallDeadline);
        Fragment {
            report: self.report,
            leaves: self.leaves.unwrap_or_default(),
        }
    }

    /// The run's clock.
    pub fn stopwatch(&self) -> Stopwatch {
        self.stopwatch
    }

    /// The schedule count at which the search stops on its schedule
    /// budget or on a [`DeadlineClock::PerSchedule`] deadline, whichever
    /// comes first.
    pub fn schedule_cap(&self) -> u64 {
        let limits = &self.setup.limits;
        let by_clock = match (limits.deadline, self.setup.clock) {
            (Some(deadline), DeadlineClock::PerSchedule(cost)) if !cost.is_zero() => {
                u64::try_from(deadline.as_nanos().div_ceil(cost.as_nanos())).unwrap_or(u64::MAX)
            }
            (Some(deadline), DeadlineClock::PerSchedule(_)) if deadline.is_zero() => 0,
            _ => u64::MAX,
        };
        limits.max_schedules.min(by_clock)
    }

    /// `true` once the wall deadline (if any) has elapsed.
    pub fn deadline_passed(&self) -> bool {
        self.setup.limits.deadline.is_some_and(|deadline| {
            self.setup
                .clock
                .elapsed(&self.stopwatch, self.report.schedules_run)
                >= deadline
        })
    }

    /// Ends the search on the wall deadline.
    pub fn trip_deadline(&mut self) {
        self.deadline_hit = true;
        self.report.truncated = true;
    }

    /// The loop-top check, in the one order every driver agrees on: the
    /// wall deadline first, then the schedule budget. `true` when the
    /// search must stop; the report is then marked truncated.
    pub fn stop(&mut self) -> bool {
        if self.deadline_passed() {
            self.trip_deadline();
        } else if self.report.schedules_run >= self.setup.limits.max_schedules
            || self.halt.is_some_and(|halt| halt.load(Ordering::Relaxed))
        {
            self.report.truncated = true;
        } else {
            return false;
        }
        true
    }

    /// Classifies one complete schedule whose leaf has Knuth degree
    /// product `path_degree`. `schedule` is called only when the
    /// schedule becomes the first failure or first clean witness.
    /// `true` when the search stops at its first failure.
    pub fn terminal(
        &mut self,
        path_degree: f64,
        frontier_depth: u64,
        outcome: &Outcome,
        steps: u64,
        schedule: impl FnOnce() -> Schedule,
    ) -> bool {
        self.estimator.record_leaf(path_degree);
        if let Some(leaves) = &mut self.leaves {
            leaves.push(Leaf {
                outcome: outcome.clone(),
                steps,
                path_degree,
            });
        }
        let report = &mut self.report;
        report.schedules_run += 1;
        report.steps_total += steps;
        report.counts.add(outcome);
        if self.setup.sink.enabled() && report.schedules_run.is_multiple_of(PROGRESS_EVERY) {
            self.setup.emit(
                "progress",
                &[
                    ("program", Value::Str(self.setup.program.name())),
                    ("schedules", Value::U64(report.schedules_run)),
                    ("steps", Value::U64(report.steps_total)),
                    ("failures", Value::U64(report.counts.failures())),
                ],
            );
        }
        let need_fail = outcome.is_failure() && report.first_failure.is_none();
        if need_fail || (outcome.is_ok() && report.first_ok.is_none()) {
            let schedule = schedule();
            if need_fail {
                report.first_failure = Some((schedule, outcome.clone()));
            } else {
                report.first_ok = Some(schedule);
            }
        }
        self.progress_tick(frontier_depth);
        self.setup.limits.stop_on_first_failure && self.report.first_failure.is_some()
    }

    /// Emits a periodic `explore`/`progress_est` event when progress
    /// tracking is on and the configured interval has elapsed. Runs
    /// after every classified schedule behind a counter gate, so the
    /// wall clock is read at most once per [`PROGRESS_CHECK_EVERY`]
    /// schedules.
    fn progress_tick(&mut self, frontier_depth: u64) {
        let report = &self.report;
        let Some(tracker) = self.progress.as_mut() else {
            return;
        };
        if !report.schedules_run.is_multiple_of(PROGRESS_CHECK_EVERY) {
            return;
        }
        let elapsed = self.stopwatch.elapsed();
        if !tracker.due(elapsed) {
            return;
        }
        let rate = tracker.sample(report.schedules_run, elapsed);
        if !self.setup.sink.enabled() {
            return;
        }
        let est_total = self.estimator.estimate();
        let mut fields = vec![
            ("program", Value::Str(self.setup.program.name())),
            ("schedules", Value::U64(report.schedules_run)),
            ("steps", Value::U64(report.steps_total)),
            ("failures", Value::U64(report.counts.failures())),
            ("frontier_depth", Value::U64(frontier_depth)),
            ("max_depth", Value::U64(report.stats.max_depth)),
            ("est_total", Value::F64(est_total)),
            ("fraction", Value::F64(self.estimator.fraction_done())),
            ("schedules_per_sec", Value::F64(rate)),
            (
                "states_per_sec",
                Value::F64(per_sec(report.steps_total, elapsed)),
            ),
        ];
        if let Some(ms) = eta_ms(est_total - report.schedules_run as f64, rate) {
            fields.push(("eta_ms", Value::U64(ms)));
        }
        self.setup.emit("progress_est", &fields);
    }

    /// Called once a DFS loop ends (a root that is already terminal
    /// never enters one). A search that spent its whole schedule budget
    /// counts as truncated even when its stack happened to drain
    /// exactly at the budget — eagerly popped frames must not make an
    /// exact-budget run look complete. Stopping at the first failure
    /// keeps precedence.
    pub fn end_walk(&mut self) {
        let r = &mut self.report;
        if r.schedules_run >= self.setup.limits.max_schedules
            && !(self.setup.limits.stop_on_first_failure && r.first_failure.is_some())
        {
            r.truncated = true;
        }
    }

    /// Derives the truncation reason, stamps the wall time and tree-size
    /// estimate, and emits `explore`/`report`, with the driver's `extra`
    /// fields after the common ones.
    pub fn finish(self, extra: &[(&str, Value<'_>)]) -> ExploreReport {
        let Tally {
            setup,
            mut report,
            estimator,
            stopwatch,
            deadline_hit,
            ..
        } = self;
        report.est_total_schedules = estimator.estimate();
        report.truncation = frontier::derive_truncation(
            deadline_hit,
            report.truncated,
            report.counts.step_limit,
            report.stats.preemption_limited,
        );
        report.stats.wall = stopwatch.elapsed();
        if setup.sink.enabled() {
            let r = &report;
            let truncation = r
                .truncation
                .map_or_else(|| "none".to_owned(), |t| t.to_string());
            let mut fields = vec![
                ("program", Value::Str(setup.program.name())),
                ("schedules", Value::U64(r.schedules_run)),
                ("steps", Value::U64(r.steps_total)),
                ("ok", Value::U64(r.counts.ok)),
                ("assert_failed", Value::U64(r.counts.assert_failed)),
                ("deadlock", Value::U64(r.counts.deadlock)),
                ("step_limit", Value::U64(r.counts.step_limit)),
                ("tx_retry_limit", Value::U64(r.counts.tx_retry_limit)),
                ("misuse", Value::U64(r.counts.misuse)),
                ("branch_points", Value::U64(r.stats.branch_points)),
                ("snapshots", Value::U64(r.stats.snapshots)),
                ("max_depth", Value::U64(r.stats.max_depth)),
                ("sleep_pruned", Value::U64(r.sleep_pruned)),
                ("dpor_pruned", Value::U64(r.dpor_pruned)),
                ("states_deduped", Value::U64(r.states_deduped)),
                ("preemption_limited", Value::U64(r.stats.preemption_limited)),
                ("truncation", Value::Str(&truncation)),
                ("schedules_per_sec", Value::F64(r.schedules_per_sec())),
                ("states_per_sec", Value::F64(r.states_per_sec())),
                ("fused_steps", Value::U64(r.stats.fused_steps)),
                ("snapshots_elided", Value::U64(r.stats.snapshots_elided)),
                ("est_total_schedules", Value::F64(r.est_total_schedules)),
                ("wall_us", Value::U64(r.stats.wall.as_micros() as u64)),
            ];
            fields.extend_from_slice(extra);
            setup.push_optional(&mut fields);
            setup.emit("report", &fields);
        }
        report
    }
}

/// The per-mode half of the DFS ([`dfs`]): which children a branch
/// point explores, what the forward run logs along an edge, and what
/// each step owes the reduction's bookkeeping. Implemented by
/// [`Classic`] and [`SourceDpor`]; the driver is generic over it, so
/// each mode compiles to its own loop.
pub(crate) trait Reduction {
    /// The reduction's state for one branch point.
    type Frame;
    /// What the forward run logs along an edge.
    type Edge: EdgeLog;

    /// Opens the root branch point. `exec` is mutable only so a dedup
    /// probe can repair its cached state key in place.
    fn root(&mut self, exec: &mut Executor, enabled: Vec<ThreadId>) -> Self::Frame;

    /// Picks the next child of `frame`, whose state is `exec`, counting
    /// every sibling it prunes on the way, and primes the edge log for
    /// it. Returns the choice and whether it is the frame's *final
    /// survivor* — the driver then moves the parent's executor into
    /// the child instead of cloning it. `None` when the frame is
    /// exhausted.
    fn select(
        &mut self,
        frame: &mut Self::Frame,
        exec: &Executor,
        report: &mut ExploreReport,
    ) -> Option<(ThreadId, bool)>;

    /// The log of the edge being run.
    fn edge(&mut self) -> &mut Self::Edge;

    /// The edge ended in the terminal state `exec`.
    fn terminal(&mut self, exec: &Executor);

    /// The edge ended at the branch state `exec`: its frame, or `None`
    /// when the state is redundant (the reason is counted). As in
    /// [`Reduction::root`], `exec` is mutable for the dedup probe only.
    fn branch(
        &mut self,
        exec: &mut Executor,
        enabled: Vec<ThreadId>,
        report: &mut ExploreReport,
    ) -> Option<Self::Frame>;

    /// `frame` was exhausted and popped.
    fn exhausted(&mut self, frame: Self::Frame, report: &mut ExploreReport);
}

/// One branch point on the DFS stack.
pub(crate) struct Frame<F> {
    exec: Executor,
    /// Logical branch depth of this frame (root = 1). Kept explicitly
    /// because the physical stack can be shorter: an exhausted frame is
    /// popped when its last child moves the snapshot out.
    pub depth: u64,
    /// Product of *full* branching degrees along the root-to-this-frame
    /// path (root = its own degree), so under any reduction the
    /// tree-size estimate keeps estimating the full space. Every
    /// terminal reached from this frame contributes this value as one
    /// Knuth tree-size sample.
    path_degree: f64,
    state: F,
}

impl<F> Frame<F> {
    fn new(exec: Executor, depth: u64, path_degree: f64, state: F) -> Frame<F> {
        Frame {
            exec,
            depth,
            path_degree,
            state,
        }
    }

    /// This frame over an [`Executor::detached`] copy of its executor,
    /// for a search on another thread.
    pub fn detached(self) -> Frame<F> {
        Frame {
            exec: self.exec.detached(),
            ..self
        }
    }
}

/// Classic DFS: every enabled thread is a child, in scheduler order,
/// minus what the sleep set and the preemption bound prune; branch
/// states already expanded are skipped under state dedup.
pub(crate) struct Classic<'a> {
    sleep_on: bool,
    bound: Option<u32>,
    /// Keys of the expanded branch states; `None` with dedup off.
    seen: Option<crate::fxhash::FxHashSet<u64>>,
    profile: &'a PhaseProfiler,
    /// The edge being run: the child's sleep set, which the forward
    /// run maintains, and its preemption count.
    edge: Sleepers,
    preemptions: u32,
}

/// A classic branch point: a cursor over the enabled threads. Without
/// dedup, the subtree below it is a pure function of this frame and its
/// executor, which is what lets [`crate::ParExplorer`] search it on
/// another thread.
pub(crate) struct Siblings {
    enabled: Vec<ThreadId>,
    next: usize,
    preemptions: u32,
    /// Sleep set (a thread mask): threads whose next op is covered by
    /// an already explored sibling subtree.
    sleep: u64,
}

impl<'a> Classic<'a> {
    /// The classic policy of `setup`'s run, whose effective reductions
    /// are `mode`.
    pub fn new(setup: &'a Setup<'_>, mode: Mode) -> Classic<'a> {
        Classic {
            sleep_on: mode.sleep,
            bound: setup.limits.max_preemptions,
            seen: mode.dedup.then(Default::default),
            profile: &setup.profile,
            edge: Sleepers(0),
            preemptions: 0,
        }
    }

    /// Probes the dedup table: `false` when `exec`'s state was already
    /// expanded. The only hot reader of the state key: it repairs the
    /// key's dirty components in place, so the children snapshotted
    /// from `exec` start with a clean cache.
    fn fresh(&mut self, exec: &mut Executor) -> bool {
        let Some(seen) = &mut self.seen else {
            return true;
        };
        let key = self.profile.time(Phase::Hash, || exec.refresh_state_key());
        self.profile.time(Phase::Dedup, || seen.insert(key))
    }
}

impl Reduction for Classic<'_> {
    type Frame = Siblings;
    type Edge = Sleepers;

    fn root(&mut self, exec: &mut Executor, enabled: Vec<ThreadId>) -> Siblings {
        self.fresh(exec);
        Siblings {
            enabled,
            next: 0,
            preemptions: 0,
            sleep: 0,
        }
    }

    fn select(
        &mut self,
        f: &mut Siblings,
        exec: &Executor,
        report: &mut ExploreReport,
    ) -> Option<(ThreadId, bool)> {
        let (choice, preemptions) = loop {
            let &choice = f.enabled.get(f.next)?;
            f.next += 1;
            if f.sleep & thread_bit(choice) != 0 {
                report.sleep_pruned += 1;
                continue;
            }
            match frontier::preemptions_after(exec, &f.enabled, f.preemptions, self.bound, choice) {
                Some(p) => break (choice, p),
                None => report.stats.preemption_limited += 1,
            }
        };
        self.preemptions = preemptions;
        self.edge = Sleepers(frontier::child_sleep(exec, f.sleep, choice));
        if self.sleep_on {
            // Siblings after this one must not redo this choice's
            // equivalence class.
            f.sleep |= thread_bit(choice);
        }
        // Lazy snapshot elision: when every remaining sibling is
        // provably doomed — asleep now, or pruned by the preemption
        // bound, both verdicts pure functions of this frame's frozen
        // state (the sleep set only grows above, and pruned siblings
        // never extend it) — this child is the frame's final survivor.
        // Consume the doomed tail's accounting eagerly, in sibling
        // order; an empty tail is the classic last-sibling move.
        let (mut asleep, mut bounded) = (0, 0);
        let last = f.enabled[f.next..].iter().all(|&s| {
            if f.sleep & thread_bit(s) != 0 {
                asleep += 1;
            } else if frontier::preemptions_after(exec, &f.enabled, f.preemptions, self.bound, s)
                .is_none()
            {
                bounded += 1;
            } else {
                return false;
            }
            true
        });
        if last {
            report.sleep_pruned += asleep;
            report.stats.preemption_limited += bounded;
            report.stats.snapshots_elided += 1;
            f.next = f.enabled.len();
        }
        Some((choice, last))
    }

    fn edge(&mut self) -> &mut Sleepers {
        &mut self.edge
    }

    fn terminal(&mut self, _: &Executor) {}

    fn branch(
        &mut self,
        exec: &mut Executor,
        enabled: Vec<ThreadId>,
        report: &mut ExploreReport,
    ) -> Option<Siblings> {
        if !self.fresh(exec) {
            report.states_deduped += 1;
            return None;
        }
        Some(Siblings {
            enabled,
            next: 0,
            preemptions: self.preemptions,
            sleep: self.edge.0,
        })
    }

    fn exhausted(&mut self, _: Siblings, _: &mut ExploreReport) {}
}

/// Source-set DPOR: a branch point's children come from its backtrack
/// set, grown by race detection over the executed path
/// ([`crate::dpor`]). No child is ever a final survivor — a frame's
/// backtrack set can grow after its latest child started — so every
/// snapshot is a clone.
struct SourceDpor {
    dpor: Dpor,
    sleep_on: bool,
    /// The edge being run: its frame (a [`Dpor`] frame index, equal to
    /// the stack position), its choice, and the steps the forward run
    /// took after the choice.
    frame: usize,
    choice: ThreadId,
    forced: Vec<(ThreadId, Footprint)>,
}

impl SourceDpor {
    /// Commits the edge to the race log in execution order; races it
    /// closes grow backtrack sets of the frames still below.
    fn commit(&mut self) {
        let fp = *self.dpor.fp_of(self.frame, self.choice);
        self.dpor.commit_step(self.choice, fp, Some(self.frame));
        for &(t, fp) in &self.forced {
            self.dpor.commit_step(t, fp, None);
        }
    }
}

impl Reduction for SourceDpor {
    type Frame = usize;
    type Edge = Vec<(ThreadId, Footprint)>;

    fn root(&mut self, exec: &mut Executor, enabled: Vec<ThreadId>) -> usize {
        let fps = frontier::next_footprints(exec, &enabled);
        self.dpor.push_frame(enabled, fps, 0)
    }

    fn select(
        &mut self,
        frame: &mut usize,
        _: &Executor,
        report: &mut ExploreReport,
    ) -> Option<(ThreadId, bool)> {
        let (skipped, choice) = self.dpor.select(*frame);
        report.sleep_pruned += skipped;
        let choice = choice?;
        if self.sleep_on {
            // Siblings selected after this one must not redo this
            // choice's equivalence class.
            self.dpor.sleep_after(*frame, choice);
        }
        self.frame = *frame;
        self.choice = choice;
        self.forced.clear();
        Some((choice, false))
    }

    fn edge(&mut self) -> &mut Self::Edge {
        &mut self.forced
    }

    fn terminal(&mut self, exec: &Executor) {
        self.commit();
        // Ops the terminal cut off before they could run (blocked in a
        // deadlock, or preempted by an abort) still race with the
        // executed path — without this an op that always deadlocks
        // first on the explored order would never grow a backtrack set.
        for (t, fp) in frontier::pending_ops(exec) {
            self.dpor.pending_race(t, &fp);
        }
    }

    fn branch(
        &mut self,
        exec: &mut Executor,
        enabled: Vec<ThreadId>,
        report: &mut ExploreReport,
    ) -> Option<usize> {
        self.commit();
        if enabled.is_empty() {
            // Unreachable in practice: a state with no enabled thread
            // carries a terminal outcome.
            return None;
        }
        let sleep = if self.sleep_on {
            self.dpor
                .child_sleep(self.frame, self.choice, &self.forced, &enabled)
        } else {
            0
        };
        if thread_mask(&enabled) & !sleep == 0 {
            // Every enabled thread is asleep: the whole subtree is
            // covered by explored siblings.
            report.sleep_pruned += 1;
            return None;
        }
        let fps = frontier::next_footprints(exec, &enabled);
        Some(self.dpor.push_frame(enabled, fps, sleep))
    }

    fn exhausted(&mut self, _: usize, report: &mut ExploreReport) {
        report.dpor_pruned += self.dpor.pop_frame();
    }
}

/// The terminal outcomes one search reached ([`Explorer::run_outcome_set`]).
/// An `Ok` or `Deadlock` execution is keyed by its outcome and final
/// [`Executor::state_key`]: every interleaving of a trace class ends in
/// the same state, so a sound reduction owes each one. An aborting
/// outcome is keyed by its display form alone (key 0): the state at the
/// cut depends on how far independent ops in other threads got, which
/// is exactly the order a reduction prunes.
pub type OutcomeSet = BTreeSet<(String, u64)>;

/// Depth-first interleaving explorer over a [`Program`].
#[derive(Debug)]
pub struct Explorer<'p> {
    setup: Setup<'p>,
    record: RecordMode,
}

impl<'p> Explorer<'p> {
    /// Creates an explorer with default limits and the no-op sink.
    pub fn new(program: &'p Program) -> Explorer<'p> {
        Explorer {
            setup: Setup::new(program),
            record: RecordMode::Off,
        }
    }

    shared_builders!();

    /// Streams `explore` scope events (start, periodic progress, final
    /// report) to `sink`. Observation only: exploration *results* are
    /// identical whatever the sink (enforced by the `obs_determinism`
    /// test).
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> Explorer<'p> {
        self.setup.sink = sink;
        self
    }

    /// Records every execution's events so `run_with_callback` observers
    /// can read [`Executor::events`] (e.g. for coverage measurement).
    /// Slows exploration; off by default.
    pub fn record_events(mut self) -> Explorer<'p> {
        self.record = RecordMode::Full;
        self
    }

    /// Attributes hot-path wall time to phases (snapshot, step, hash,
    /// dedup) on `profiler`. Write-only observation: the profiler is
    /// never read during the run, so reports stay bit-identical with
    /// profiling on, off, or sampling at any rate (the determinism
    /// suite pins this). Pass [`PhaseProfiler::sampling`] to enable.
    pub fn profile(mut self, profiler: Arc<PhaseProfiler>) -> Explorer<'p> {
        self.setup.profile = profiler;
        self
    }

    /// Emits periodic `explore`/`progress_est` events (frontier depth,
    /// estimated fraction explored, throughput trend, ETA) roughly
    /// every `every` of wall time. The wall clock is consulted only on
    /// a schedule-counter gate, and everything time-dependent lives in
    /// the events — never in the report.
    pub fn progress_every(mut self, every: Duration) -> Explorer<'p> {
        self.setup.progress_every = Some(every);
        self
    }

    /// Explores under a deterministic [`FaultPlan`]: spurious wakeups,
    /// forced try-lock failures, forced transaction aborts, and bounded
    /// stalls are injected into every execution. Identical plans yield
    /// bit-identical reports. Disables the sleep-set reduction for this
    /// run (fault decisions are step-indexed, so sibling operations no
    /// longer commute).
    pub fn chaos(mut self, plan: FaultPlan) -> Explorer<'p> {
        self.setup.fault = Some(plan);
        self
    }

    /// Runs the exploration.
    pub fn run(&self) -> ExploreReport {
        self.run_with_callback(|_, _| {})
    }

    /// Runs the exploration, invoking `on_terminal` with the executor and
    /// outcome of every terminal state (before it is discarded).
    pub fn run_with_callback(
        &self,
        mut on_terminal: impl FnMut(&Executor, &Outcome),
    ) -> ExploreReport {
        let mode = self.setup.mode();
        let mut tally = Tally::start(&self.setup, mode, &[]);
        search(&mut tally, mode, self.record, &mut on_terminal);
        tally.finish(&[])
    }

    /// Runs the exploration and collects its [`OutcomeSet`]. The set is
    /// `None` unless the search was complete (not truncated, and no
    /// execution cut by the step budget): a partial search is not
    /// closed under trace equivalence, so it owes no outcome set.
    pub fn run_outcome_set(&self) -> (ExploreReport, Option<OutcomeSet>) {
        let mut set = OutcomeSet::new();
        let report = self.run_with_callback(|exec, outcome| {
            let keyed = matches!(outcome, Outcome::Ok | Outcome::Deadlock { .. });
            set.insert((
                outcome.to_string(),
                if keyed { exec.state_key() } else { 0 },
            ));
        });
        let complete = !report.truncated && report.counts.step_limit == 0;
        (report, complete.then_some(set))
    }
}

/// The whole search of `tally`'s setup on the calling thread.
pub(crate) fn search(
    tally: &mut Tally<'_, '_>,
    mode: Mode,
    record: RecordMode,
    on_terminal: &mut impl FnMut(&Executor, &Outcome),
) {
    let setup = tally.setup;
    let root = setup.root(record);
    if let Some(outcome) = root.outcome().cloned() {
        // Program terminates without any scheduling choice: the tree is
        // a single leaf with an empty degree product.
        tally.terminal(1.0, 0, &outcome, root.steps() as u64, || {
            root.schedule_taken()
        });
        on_terminal(&root, &outcome);
        return;
    }
    if mode.dpor {
        let policy = SourceDpor {
            dpor: Dpor::new(setup.program.n_threads()),
            sleep_on: mode.sleep,
            frame: 0,
            choice: ThreadId::from_index(0),
            forced: Vec::new(),
        };
        search_from(tally, mode, policy, root, on_terminal);
    } else {
        search_from(tally, mode, Classic::new(setup, mode), root, on_terminal);
    }
}

/// [`search`] below a non-terminal root executor, under `policy`.
fn search_from<R: Reduction>(
    tally: &mut Tally<'_, '_>,
    mode: Mode,
    mut policy: R,
    root: Executor,
    on_terminal: &mut impl FnMut(&Executor, &Outcome),
) {
    let root = open_root(tally, &mut policy, root);
    let never = &mut never_split;
    dfs(tally, mode, &mut policy, root, u64::MAX, never, on_terminal);
}

/// Opens the branch frame of a non-terminal root executor and counts it.
pub(crate) fn open_root<R: Reduction>(
    tally: &mut Tally<'_, '_>,
    policy: &mut R,
    mut root: Executor,
) -> Frame<R::Frame> {
    let enabled = root.enabled();
    tally.report.stats.branch_points += 1;
    tally.report.stats.max_depth = tally.report.stats.max_depth.max(1);
    let degree = enabled.len() as f64;
    let state = policy.root(&mut root, enabled);
    Frame::new(root, 1, degree, state)
}

/// What a split hook does with a branch frame at the split depth.
pub(crate) enum Split<F> {
    /// Push the frame and search its subtree here.
    Descend(Box<Frame<F>>),
    /// The subtree is accounted for elsewhere: go on with its siblings.
    Cut,
    /// End the search.
    Stop,
}

/// The split hook of a search that never splits.
pub(crate) fn never_split<F>(_: &mut Tally<'_, '_>, frame: Frame<F>) -> Split<F> {
    Split::Descend(Box::new(frame))
}

/// The DFS: snapshots the executor at every branch point and runs each
/// child edge forward to its next branch point or terminal, with
/// `policy` deciding which children a branch point explores. Searches
/// the subtree of `root`, a frame already counted as a branch point.
///
/// Each branch frame at depth `split_depth` is counted, then handed to
/// `split` instead of being pushed; a search that never splits passes
/// `u64::MAX`.
pub(crate) fn dfs<'s, 'p, R: Reduction>(
    tally: &mut Tally<'s, 'p>,
    mode: Mode,
    policy: &mut R,
    root: Frame<R::Frame>,
    split_depth: u64,
    split: &mut impl FnMut(&mut Tally<'s, 'p>, Frame<R::Frame>) -> Split<R::Frame>,
    on_terminal: &mut impl FnMut(&Executor, &Outcome),
) {
    let setup = tally.setup;
    let mut stack = vec![root];
    while let Some(top) = stack.last_mut() {
        if tally.stop() {
            break;
        }
        let report = &mut tally.report;
        let Some((choice, last)) = policy.select(&mut top.state, &top.exec, report) else {
            let frame = stack.pop().expect("the top frame is on the stack");
            policy.exhausted(frame.state, report);
            continue;
        };
        let (depth, path_degree) = (top.depth, top.path_degree);
        let snap_guard = setup.profile.enter(Phase::Snapshot);
        let child = if last {
            // Safe because COW children share structure instead of
            // borrowing from the parent.
            stack.pop().expect("the top frame is on the stack").exec
        } else {
            top.exec.clone()
        };
        drop(snap_guard);
        report.stats.snapshots += 1;
        let step_guard = setup.profile.enter(Phase::Step);
        let next = frontier::advance(
            child,
            choice,
            setup.limits.max_steps,
            mode.fuse,
            policy.edge(),
            &mut report.stats.fused_steps,
        );
        drop(step_guard);
        match next {
            Advance::Terminal(exec, outcome) => {
                policy.terminal(&exec);
                let frontier_depth = stack.len() as u64;
                let steps = exec.steps() as u64;
                let witness = || exec.schedule_taken();
                let stop = tally.terminal(path_degree, frontier_depth, &outcome, steps, witness);
                on_terminal(&exec, &outcome);
                if stop {
                    break;
                }
            }
            Advance::Branch(mut exec, enabled) => {
                let degree = enabled.len() as f64;
                let Some(state) = policy.branch(&mut exec, enabled, report) else {
                    continue;
                };
                report.stats.branch_points += 1;
                report.stats.max_depth = report.stats.max_depth.max(depth + 1);
                let frame = Frame::new(exec, depth + 1, path_degree * degree, state);
                if depth + 1 != split_depth {
                    stack.push(frame);
                    continue;
                }
                match split(tally, frame) {
                    Split::Descend(frame) => stack.push(*frame),
                    Split::Cut => {}
                    Split::Stop => break,
                }
            }
            Advance::Redundant(_) => report.sleep_pruned += 1,
        }
    }
    tally.end_walk();
}

/// Re-executes one schedule with full recording and returns its trace.
pub fn trace_of(program: &Program, schedule: &Schedule, max_steps: usize) -> (Trace, Outcome) {
    let (trace, outcome, _) = trace_of_checked(program, schedule, max_steps);
    (trace, outcome)
}

/// [`trace_of`] plus the [`ReplayDeviation`] account: a trace rebuilt
/// from a schedule that named out-of-range or not-enabled threads is
/// not evidence about the schedule's original program, and this
/// variant lets the caller tell.
pub fn trace_of_checked(
    program: &Program,
    schedule: &Schedule,
    max_steps: usize,
) -> (Trace, Outcome, ReplayDeviation) {
    let mut exec = Executor::with_record(program, RecordMode::Full);
    let (outcome, deviation) = exec.replay_checked(schedule, max_steps);
    (exec.into_trace(), outcome, deviation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts() -> OutcomeCounts {
        OutcomeCounts {
            ok: 5,
            assert_failed: 4,
            deadlock: 3,
            step_limit: 2,
            tx_retry_limit: 1,
            misuse: 6,
        }
    }

    #[test]
    fn total_is_consistent_with_every_field() {
        let c = sample_counts();
        assert_eq!(c.total(), 5 + 4 + 3 + 2 + 1 + 6);
        assert_eq!(c.failures(), 4 + 3 + 6);
        // `add` must keep the invariant for every outcome kind.
        let mut c = OutcomeCounts::default();
        for (i, outcome) in [
            Outcome::Ok,
            Outcome::StepLimit,
            Outcome::AssertFailed {
                thread: None,
                msg: "m",
            },
        ]
        .iter()
        .enumerate()
        {
            c.add(outcome);
            assert_eq!(c.total(), i as u64 + 1);
        }
    }

    #[test]
    fn display_is_a_one_line_histogram() {
        let text = sample_counts().to_string();
        assert_eq!(
            text,
            "ok=5 assert=4 deadlock=3 step-limit=2 tx-retry=1 misuse=6 total=21"
        );
        assert!(!text.contains('\n'));
    }

    #[test]
    fn display_total_matches_total_method() {
        let c = sample_counts();
        let rendered = c.to_string();
        let total: u64 = rendered
            .rsplit_once("total=")
            .and_then(|(_, t)| t.parse().ok())
            .expect("display ends with total=N");
        assert_eq!(total, c.total());
    }

    #[test]
    fn truncation_reasons_render() {
        assert_eq!(Truncation::ScheduleBudget.to_string(), "schedule budget");
        assert_eq!(Truncation::StepBudget.to_string(), "step budget");
        assert_eq!(Truncation::PreemptionBound.to_string(), "preemption bound");
        assert_eq!(Truncation::WallDeadline.to_string(), "wall deadline");
    }
}
