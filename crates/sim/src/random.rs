//! Probabilistic schedulers: seeded random walks and PCT.
//!
//! The study's manifestation findings motivate *testing implications*:
//! naive stress testing (random scheduling) rarely hits the narrow buggy
//! windows, while bounded systematic or priority-based (PCT) scheduling
//! finds them quickly. These schedulers make that comparison measurable.

use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{Event, NoopSink, Sink, Stopwatch, Value};

use crate::exec::{Executor, RecordMode};
use crate::explore::OutcomeCounts;
use crate::fault::{FaultPlan, SplitMix64};
use crate::ids::ThreadId;
use crate::outcome::Outcome;
use crate::program::Program;
use crate::schedule::Schedule;
use crate::trace::Trace;

/// Report of a batch of randomized executions.
#[derive(Debug, Clone)]
pub struct RandomWalkReport {
    /// Outcome histogram over the trials.
    pub counts: OutcomeCounts,
    /// Number of trials run.
    pub trials: u64,
    /// Witness of the first failure, if any.
    pub first_failure: Option<(Schedule, Outcome)>,
    /// Wall-clock time of the batch.
    pub wall: Duration,
}

impl RandomWalkReport {
    /// Fraction of trials that manifested a bug.
    pub fn failure_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.counts.failures() as f64 / self.trials as f64
        }
    }
}

/// The one trial loop behind every sampler: runs `trials` executions
/// from fresh executors recording per `record`, asking `pick` (given
/// the trial index) which enabled thread to step, tallies each outcome
/// and hands the finished executor to `keep`.
fn run_trials(
    program: &Program,
    trials: u64,
    max_steps: usize,
    fault: Option<FaultPlan>,
    record: RecordMode,
    mut pick: impl FnMut(u64, &Executor, &[ThreadId]) -> ThreadId,
    mut keep: impl FnMut(Executor, Outcome),
) -> RandomWalkReport {
    let stopwatch = Stopwatch::start();
    let mut counts = OutcomeCounts::default();
    let mut first_failure = None;
    for trial in 0..trials {
        let mut exec = Executor::with_record(program, record);
        if let Some(plan) = fault {
            exec.set_fault_plan(plan);
        }
        let outcome = loop {
            if let Some(o) = exec.outcome().cloned() {
                break o;
            }
            if exec.steps() >= max_steps {
                break Outcome::StepLimit;
            }
            let enabled = exec.enabled();
            let choice = pick(trial, &exec, &enabled);
            exec.step(choice).expect("picker chose an enabled thread");
        };
        counts.add(&outcome);
        if outcome.is_failure() && first_failure.is_none() {
            first_failure = Some((exec.schedule_taken().clone(), outcome.clone()));
        }
        keep(exec, outcome);
    }
    RandomWalkReport {
        counts,
        trials,
        first_failure,
        wall: stopwatch.elapsed(),
    }
}

/// Emits the walker/PCT batch summary when the sink is listening.
fn emit_batch(sink: &dyn Sink, name: &str, program: &Program, report: &RandomWalkReport) {
    if !sink.enabled() {
        return;
    }
    sink.emit(&Event {
        scope: "randomwalk",
        name,
        fields: &[
            ("program", Value::Str(program.name())),
            ("trials", Value::U64(report.trials)),
            ("failures", Value::U64(report.counts.failures())),
            ("failure_rate", Value::F64(report.failure_rate())),
            ("wall_us", Value::U64(report.wall.as_micros() as u64)),
        ],
    });
}

/// Uniform random scheduling (naive stress testing).
#[derive(Debug, Clone)]
pub struct RandomWalker<'p> {
    program: &'p Program,
    seed: u64,
    max_steps: usize,
    sink: Arc<dyn Sink>,
    fault: Option<FaultPlan>,
}

impl<'p> RandomWalker<'p> {
    /// Creates a walker with the given seed.
    pub fn new(program: &'p Program, seed: u64) -> RandomWalker<'p> {
        RandomWalker {
            program,
            seed,
            max_steps: 5_000,
            sink: Arc::new(NoopSink),
            fault: None,
        }
    }

    /// Replaces the per-execution step budget.
    pub fn max_steps(mut self, max_steps: usize) -> RandomWalker<'p> {
        self.max_steps = max_steps;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every trial — ConTest
    /// style noise-making for the simulator.
    pub fn with_faults(mut self, plan: FaultPlan) -> RandomWalker<'p> {
        self.fault = Some(plan);
        self
    }

    /// Streams `randomwalk` scope batch summaries to `sink`. Observation
    /// only: trial outcomes are identical whatever the sink.
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> RandomWalker<'p> {
        self.sink = sink;
        self
    }

    /// Runs `trials` independent random-schedule executions.
    pub fn run_trials(&self, trials: u64) -> RandomWalkReport {
        let mut rng = SplitMix64::new(self.seed);
        let report = run_trials(
            self.program,
            trials,
            self.max_steps,
            self.fault,
            RecordMode::Off,
            move |_, _, enabled| enabled[rng.gen_range(0..enabled.len())],
            |_, _| {},
        );
        emit_batch(self.sink.as_ref(), "report", self.program, &report);
        report
    }

    /// Runs `trials` executions with full recording, returning each trace
    /// with its outcome — the input sampler for the dynamic detectors.
    pub fn collect_traces(&self, trials: u64) -> Vec<(Trace, Outcome)> {
        let mut rng = SplitMix64::new(self.seed);
        let mut out = Vec::with_capacity(trials as usize);
        run_trials(
            self.program,
            trials,
            self.max_steps,
            self.fault,
            RecordMode::Full,
            move |_, _, enabled| enabled[rng.gen_range(0..enabled.len())],
            |exec, outcome| out.push((exec.into_trace(), outcome)),
        );
        out
    }
}

/// PCT (probabilistic concurrency testing): random thread priorities with
/// `depth - 1` random priority-change points. Finds depth-`d` bugs with
/// probability ≥ 1/(n·k^(d-1)).
#[derive(Debug, Clone)]
pub struct PctScheduler<'p> {
    program: &'p Program,
    seed: u64,
    depth: u32,
    max_steps: usize,
    fault: Option<FaultPlan>,
}

impl<'p> PctScheduler<'p> {
    /// Creates a PCT scheduler targeting bugs of the given depth (the
    /// number of ordering constraints needed; the study's Finding says
    /// depth ≤ 4 covers 92% of non-deadlock bugs).
    pub fn new(program: &'p Program, seed: u64, depth: u32) -> PctScheduler<'p> {
        PctScheduler {
            program,
            seed,
            depth: depth.max(1),
            max_steps: 5_000,
            fault: None,
        }
    }

    /// Replaces the per-execution step budget.
    pub fn max_steps(mut self, max_steps: usize) -> PctScheduler<'p> {
        self.max_steps = max_steps;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every trial.
    pub fn with_faults(mut self, plan: FaultPlan) -> PctScheduler<'p> {
        self.fault = Some(plan);
        self
    }

    /// Runs `trials` PCT executions.
    pub fn run_trials(&self, trials: u64) -> RandomWalkReport {
        let n = self.program.n_threads();
        // Change points are sampled over the *expected* execution length
        // (PCT's `k`), approximated by the static visible-op count; using
        // `max_steps` would make change points almost never fire on short
        // kernels.
        let k_steps = self.program.static_visible_ops().max(2);
        let depth = self.depth;
        let mut rng = SplitMix64::new(self.seed);
        let mut drawn_for = None;
        let (mut priorities, mut change_points) = (Vec::new(), Vec::new());
        let (mut next_change, mut low_band) = (0usize, 0i64);
        let pick = move |trial, exec: &Executor, enabled: &[ThreadId]| {
            if drawn_for != Some(trial) {
                // A new trial: random initial priorities (a permutation,
                // higher is more urgent) and change points that drop the
                // running thread to the lowest band. Every trial starts
                // in the same state, so either all trials pick or none
                // does, and drawing at the first pick keeps the seed's
                // draw order.
                drawn_for = Some(trial);
                priorities = (0..n as i64).map(|i| i + depth as i64).collect();
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    priorities.swap(i, j);
                }
                change_points = (0..depth.saturating_sub(1))
                    .map(|_| rng.gen_range(0..k_steps))
                    .collect();
                change_points.sort_unstable();
                (next_change, low_band) = (0, 0);
            }
            let choice = *enabled
                .iter()
                .max_by_key(|t| priorities[t.index()])
                .expect("enabled set non-empty");
            if next_change < change_points.len() && exec.steps() >= change_points[next_change] {
                low_band -= 1;
                priorities[choice.index()] = low_band;
                next_change += 1;
            }
            choice
        };
        run_trials(
            self.program,
            trials,
            self.max_steps,
            self.fault,
            RecordMode::Off,
            pick,
            |_, _| {},
        )
    }
}
