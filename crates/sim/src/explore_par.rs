//! Parallel state-space exploration: subtree-parallel search over the
//! serial DFS driver (`explore::dfs`). Reports are **bit-identical** to
//! the serial [`Explorer`](crate::Explorer)'s, `stats.wall` aside.
//!
//! - **Split.** A frontier pass runs the driver level by level from the
//!   root and records the branch frames at depth `d` — the *subtree
//!   roots*, executor plus sibling cursor — in preorder. `d` is the
//!   smallest depth with at least `ROOTS_PER_JOB` × jobs roots.
//! - **Search.** `jobs - 1` worker threads claim roots in preorder from
//!   one counter and run the driver from each, recording a *fragment*:
//!   every leaf's outcome, steps and path degree in order, the first
//!   failing and first clean schedule, and the report counters.
//! - **Splice.** The coordinator (the calling thread) runs the driver from
//!   the real root with the same cut. At each root it adds the fragment's
//!   counters and replays its leaves through the report plumbing, so
//!   counts, witnesses, progress events and the tree-size estimate are
//!   the serial run's. It searches root 0 itself, and any root no worker
//!   has claimed yet; while it waits it searches unclaimed roots into
//!   fragments.
//! - **Descend.** A fragment that would reach the remaining schedule
//!   budget or a per-schedule deadline is not spliced: the coordinator
//!   searches that subtree itself, so truncation lands where the serial
//!   run's does. With `stop_on_first_failure` a fragment stops at its
//!   first failure, and so does the replay. A fragment cut by the wall
//!   deadline is spliced as far as it got, and the run stops.
//!
//! Without state dedup a subtree's search is a pure function of its
//! root. Dedup and DPOR searches carry state across subtrees (the seen
//! set, the race log), so they run on the calling thread, as do
//! `jobs == 1` and trees with fewer than `ROOTS_PER_JOB × jobs` roots at
//! every depth: the input and the mode decide, not an option. Every
//! dedup search of the kernel registry takes under a millisecond.
//! Parallel DPOR would have to send backtrack points found below the
//! split back to the frames above it (Simsa, Bryant, Gibson & Hickey,
//! "Scalable Dynamic Partial Order Reduction", RV 2012).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lfm_obs::{Phase, PhaseProfile, PhaseProfiler, Sink, Stopwatch, Value};

use crate::exec::RecordMode;
use crate::explore::{
    self, shared_builders, Classic, DeadlineClock, ExploreLimits, ExploreReport, Fragment, Frame,
    Setup, Siblings, Split, Tally, Truncation,
};
use crate::fault::FaultPlan;
use crate::frontier::Mode;
use crate::program::Program;

/// Subtree roots per thread the split depth must reach. On the
/// `deep_full` benchmark inputs, a preorder list schedule of 8 roots per
/// thread on 2 threads bounds the speedup at 1.70–2.00× (16: 1.80–2.00×).
const ROOTS_PER_JOB: usize = 8;

/// Operational statistics of a [`ParExplorer`] run, alongside the
/// deterministic [`ExploreReport`]. Everything here describes *how* the
/// work was scheduled, never *what* was found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Threads used, the calling thread included (1 unless split).
    pub jobs: usize,
    /// Subtree roots the tree was split into (0 when it was not).
    pub tasks_spawned: u64,
    /// Fragments searched but not spliced: the coordinator searched the
    /// subtree itself, or stopped before reaching it.
    pub wasted_expansions: u64,
    /// Phase profiles of the `jobs - 1` spawned threads (all-zero unless
    /// [`ParExplorer::profile`] got an enabled [`PhaseProfiler`], which
    /// is where the calling thread's own phases land).
    pub profiles: Vec<PhaseProfile>,
}

impl ParStats {
    /// Always 0: threads claim subtree roots from one shared counter,
    /// so the pool has no deques to steal from.
    pub fn total_steals(&self) -> u64 {
        0
    }
}

/// What the calling thread and the worker threads share.
struct Pool {
    /// The subtree roots, in preorder; each is searched once.
    roots: Mutex<Vec<Option<Frame<Siblings>>>>,
    /// The next root a thread may claim. Root 0 is the coordinator's.
    next: AtomicUsize,
    /// Set when the coordinator is done: searches stop at their next
    /// loop top, and nothing more is claimed.
    halt: AtomicBool,
    /// Each root's fragment, or the panic that ended its search.
    done: Mutex<Vec<Option<std::thread::Result<Fragment>>>>,
    ready: Condvar,
    /// Fragments published.
    published: AtomicU64,
    /// The run's clock, for the fragments' wall deadline.
    started: Stopwatch,
}

impl Pool {
    fn new(roots: Vec<Frame<Siblings>>, started: Stopwatch) -> Pool {
        let n = roots.len();
        Pool {
            roots: Mutex::new(roots.into_iter().map(Some).collect()),
            next: AtomicUsize::new(1),
            halt: AtomicBool::new(false),
            done: Mutex::new((0..n).map(|_| None).collect()),
            ready: Condvar::new(),
            published: AtomicU64::new(0),
            started,
        }
    }

    /// Claims the next root and publishes its fragment; `false` when the
    /// roots ran out or the pool was halted. Workers loop on this.
    fn search_next(&self, setup: &Setup<'_>, mode: Mode) -> bool {
        if self.halt.load(Ordering::Relaxed) {
            return false;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(root) = self
            .roots
            .lock()
            .expect("roots")
            .get_mut(i)
            .and_then(Option::take)
        else {
            return false;
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut tally = Tally::fragment(setup, mode, &self.halt, self.started);
            let mut policy = Classic::new(setup, mode);
            let (root, never) = (root.detached(), &mut explore::never_split);
            explore::dfs(
                &mut tally,
                mode,
                &mut policy,
                root,
                u64::MAX,
                never,
                &mut |_, _| {},
            );
            tally.into_fragment()
        }));
        self.done.lock().expect("fragments")[i] = Some(result);
        self.published.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
        true
    }

    /// Root `i`'s fragment, once some thread has claimed the root. Until
    /// it is published the calling thread searches unclaimed roots with
    /// `setup`, then waits. A worker's panic resumes here.
    fn fragment(&self, i: usize, setup: &Setup<'_>, mode: Mode) -> Fragment {
        loop {
            let published = self.done.lock().expect("fragments")[i].take();
            if let Some(result) = published {
                return result.unwrap_or_else(|panic| resume_unwind(panic));
            }
            if !self.search_next(setup, mode) {
                let _idle = setup.profile.enter(Phase::Idle);
                let done = self.done.lock().expect("fragments");
                drop(self.ready.wait_while(done, |done| done[i].is_none()));
            }
        }
    }
}

/// Sets the halt flag when dropped, so workers stop on every exit of
/// the coordinator, unwinding included, before the scope joins them.
struct Halt<'a>(&'a AtomicBool);

impl Drop for Halt<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Adds `fragment`'s counters to `tally` and replays at most `limit` of
/// its leaves through it, as leaves of the subtree root at `depth`.
/// `true` when the replay stopped at a first failure.
fn splice(tally: &mut Tally<'_, '_>, fragment: Fragment, depth: u64, limit: usize) -> bool {
    let Fragment {
        report: sub,
        leaves,
    } = fragment;
    let (report, stats) = (&mut tally.report, &sub.stats);
    report.sleep_pruned += sub.sleep_pruned;
    report.stats.branch_points += stats.branch_points;
    report.stats.snapshots += stats.snapshots;
    report.stats.max_depth = report.stats.max_depth.max(stats.max_depth);
    report.stats.preemption_limited += stats.preemption_limited;
    report.stats.fused_steps += stats.fused_steps;
    report.stats.snapshots_elided += stats.snapshots_elided;
    // A leaf becomes the run's first failing (clean) witness only when
    // no earlier leaf failed (passed), so it is the subtree's own first.
    let (mut failure, mut ok) = (sub.first_failure, sub.first_ok);
    for leaf in leaves.into_iter().take(limit) {
        let witness = || match leaf.outcome.is_failure() {
            true => failure.take().expect("the subtree's first failure").0,
            false => ok.take().expect("the subtree's first clean schedule"),
        };
        if tally.terminal(leaf.path_degree, depth, &leaf.outcome, leaf.steps, witness) {
            return true;
        }
    }
    false
}

/// The subtree roots of the smallest depth with at least
/// [`ROOTS_PER_JOB`] × `jobs` of them, in preorder, and that depth;
/// `None` when no depth has that many.
fn split(setup: &Setup<'_>, mode: Mode, jobs: usize) -> Option<(u64, Vec<Frame<Siblings>>)> {
    // The levels above the split, searched without stopping or events.
    let quiet = Setup {
        limits: ExploreLimits {
            max_schedules: u64::MAX,
            stop_on_first_failure: false,
            deadline: None,
            ..setup.limits.clone()
        },
        fault: setup.fault,
        ..Setup::new(setup.program)
    };
    let root = quiet.root(RecordMode::Off);
    if root.outcome().is_some() {
        return None;
    }
    let mut tally = Tally::start(&quiet, mode, &[]);
    let mut policy = Classic::new(&quiet, mode);
    let mut level = vec![explore::open_root(&mut tally, &mut policy, root)];
    let mut depth = 1;
    while level.len() < ROOTS_PER_JOB * jobs {
        depth += 1;
        let mut next = Vec::new();
        let cut = &mut |_: &mut Tally<'_, '_>, frame| {
            next.push(frame);
            Split::Cut
        };
        for frame in level {
            explore::dfs(
                &mut tally,
                mode,
                &mut policy,
                frame,
                depth,
                cut,
                &mut |_, _| {},
            );
        }
        if next.is_empty() {
            return None;
        }
        level = next;
    }
    Some((depth, level))
}

/// Parallel depth-first interleaving explorer over a [`Program`].
///
/// Produces reports bit-identical to [`Explorer`](crate::Explorer) for
/// the same program and [`ExploreLimits`] (see the module docs for how,
/// and for which searches use threads); `run_detailed` additionally
/// returns [`ParStats`].
#[derive(Debug)]
pub struct ParExplorer<'p> {
    setup: Setup<'p>,
    /// Threads; unset means one per available core, at most 8.
    jobs: Option<usize>,
}

impl<'p> ParExplorer<'p> {
    /// Creates a parallel explorer with default limits, the no-op sink,
    /// and one thread per available core, at most 8.
    pub fn new(program: &'p Program) -> ParExplorer<'p> {
        ParExplorer {
            setup: Setup::new(program),
            jobs: None,
        }
    }

    /// Sets the number of threads, the calling thread included (clamped
    /// to at least 1). The report is identical whatever the value; only
    /// wall time and [`ParStats`] change.
    pub fn jobs(mut self, jobs: usize) -> ParExplorer<'p> {
        self.jobs = Some(jobs.max(1));
        self
    }

    shared_builders!();

    /// Streams `explore` scope events to `sink` (start, periodic
    /// progress, final report). Observation only.
    pub fn with_sink(mut self, sink: Arc<dyn Sink>) -> ParExplorer<'p> {
        self.setup.sink = sink;
        self
    }

    /// Attributes hot-path wall time to `profiler`. The coordinator's
    /// phases land on this handle directly; each worker gets a fresh
    /// profiler with the same configuration (see [`PhaseProfiler::like`])
    /// whose snapshot is returned in [`ParStats::profiles`]. Observation
    /// only: reports are identical with profiling on or off.
    pub fn profile(mut self, profiler: Arc<PhaseProfiler>) -> ParExplorer<'p> {
        self.setup.profile = profiler;
        self
    }

    /// Emits periodic `explore`/`progress_est` events (tree-size
    /// estimate, schedule rate, ETA) at most once per `every`.
    /// Observation only.
    pub fn progress_every(mut self, every: Duration) -> ParExplorer<'p> {
        self.setup.progress_every = Some(every);
        self
    }

    /// Explores under a deterministic [`FaultPlan`]; like the serial
    /// explorer this strips stall faults and disables sleep sets.
    pub fn chaos(mut self, plan: FaultPlan) -> ParExplorer<'p> {
        self.setup.fault = Some(plan);
        self
    }

    /// Runs the exploration and returns the merged report.
    pub fn run(&self) -> ExploreReport {
        self.run_detailed().0
    }

    /// Runs the exploration, returning the merged report plus
    /// [`ParStats`].
    pub fn run_detailed(&self) -> (ExploreReport, ParStats) {
        let setup = &self.setup;
        let mode = setup.mode();
        // Read lazily: the host query costs more than a small search.
        let jobs = self
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)));
        let mut tally = Tally::start(setup, mode, &[("jobs", Value::U64(jobs as u64))]);
        let split = (jobs > 1 && !mode.dedup && !mode.dpor)
            .then(|| split(setup, mode, jobs))
            .flatten();
        let stats = match split {
            Some((depth, roots)) => self.pool(&mut tally, mode, jobs, depth, roots),
            None => {
                explore::search(&mut tally, mode, RecordMode::Off, &mut |_, _| {});
                ParStats {
                    jobs: 1,
                    ..ParStats::default()
                }
            }
        };
        let report = tally.finish(&[
            ("jobs", Value::U64(stats.jobs as u64)),
            ("tasks_spawned", Value::U64(stats.tasks_spawned)),
            ("wasted_expansions", Value::U64(stats.wasted_expansions)),
        ]);
        (report, stats)
    }

    /// The split search: workers search the subtrees below `depth` while
    /// the coordinator walks the tree above it and splices their
    /// fragments in preorder (see the module docs).
    fn pool(
        &self,
        tally: &mut Tally<'_, 'p>,
        mode: Mode,
        jobs: usize,
        depth: u64,
        roots: Vec<Frame<Siblings>>,
    ) -> ParStats {
        let setup = &self.setup;
        let n = roots.len() as u64;
        let cap = tally.schedule_cap();
        let pool = Pool::new(roots, tally.stopwatch());
        // Fragment searches emit nothing and stop at the cap: a fragment
        // that reaches it is never spliced. A wall deadline they measure
        // on the run's clock; a per-schedule one is part of the cap.
        let wall = setup.clock == DeadlineClock::Wall;
        let searcher = |profile| Setup {
            limits: ExploreLimits {
                max_schedules: cap,
                deadline: setup.limits.deadline.filter(|_| wall),
                ..setup.limits.clone()
            },
            fault: setup.fault,
            profile,
            ..Setup::new(setup.program)
        };
        // The calling thread is one of the `jobs` threads.
        let workers: Vec<Setup<'p>> = (1..jobs)
            .map(|_| searcher(Arc::new(setup.profile.like())))
            .collect();
        let helper = searcher(Arc::clone(&setup.profile));
        let mut spliced = 0;
        std::thread::scope(|scope| {
            let _halt = Halt(&pool.halt);
            for worker in &workers {
                let pool = &pool;
                scope.spawn(move || while pool.search_next(worker, mode) {});
            }
            let mut policy = Classic::new(setup, mode);
            let root = explore::open_root(tally, &mut policy, setup.root(RecordMode::Off));
            let relaxed = Ordering::Relaxed;
            let claim = |i| pool.next.compare_exchange(i, i + 1, relaxed, relaxed);
            let mut at = 0;
            let hook = &mut |tally: &mut Tally<'_, 'p>, frame: Frame<Siblings>| {
                let i = at;
                at += 1;
                // Root 0, and any root no worker has claimed yet, is
                // searched right here.
                if i == 0 || claim(i).is_ok() {
                    return Split::Descend(Box::new(frame));
                }
                let fragment = pool.fragment(i, &helper, mode);
                let _commit = setup.profile.enter(Phase::Commit);
                if fragment.report.truncation == Some(Truncation::WallDeadline) {
                    // The wall deadline passed inside this subtree: keep
                    // the schedules searched before it.
                    let room = cap.saturating_sub(tally.report.schedules_run);
                    splice(tally, fragment, depth, room as usize);
                    tally.trip_deadline();
                    spliced += 1;
                    return Split::Stop;
                }
                if tally.report.schedules_run + fragment.report.schedules_run >= cap {
                    return Split::Descend(Box::new(frame));
                }
                spliced += 1;
                match splice(tally, fragment, depth, usize::MAX) {
                    true => Split::Stop,
                    false => Split::Cut,
                }
            };
            explore::dfs(tally, mode, &mut policy, root, depth, hook, &mut |_, _| {});
        });
        ParStats {
            jobs,
            tasks_spawned: n,
            wasted_expansions: pool.published.into_inner() - spliced,
            profiles: workers.iter().map(|w| w.profile.snapshot()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::expr::Expr;
    use crate::generate::{generate, GenConfig};
    use crate::program::ProgramBuilder;
    use crate::stmt::Stmt;

    fn racy_counter(threads: usize, rounds: usize) -> Program {
        let mut b = ProgramBuilder::new("par-racy-counter");
        let counter = b.var("counter", 0);
        for t in 0..threads {
            let name: &'static str = Box::leak(format!("t{t}").into_boxed_str());
            let mut body = Vec::new();
            for _ in 0..rounds {
                body.push(Stmt::read(counter, "tmp"));
                body.push(Stmt::write(counter, Expr::local("tmp") + Expr::lit(1)));
            }
            b.thread(name, body);
        }
        b.final_assert(
            Expr::shared(counter).eq(Expr::lit((threads * rounds) as i64)),
            "all increments kept",
        );
        b.build().expect("valid program")
    }

    fn locked_counter(threads: usize, rounds: usize) -> Program {
        let mut b = ProgramBuilder::new("par-locked-counter");
        let counter = b.var("counter", 0);
        let lock = b.mutex();
        for t in 0..threads {
            let name: &'static str = Box::leak(format!("t{t}").into_boxed_str());
            let mut body = Vec::new();
            for _ in 0..rounds {
                body.push(Stmt::Lock(lock));
                body.push(Stmt::read(counter, "tmp"));
                body.push(Stmt::write(counter, Expr::local("tmp") + Expr::lit(1)));
                body.push(Stmt::Unlock(lock));
            }
            b.thread(name, body);
        }
        b.final_assert(
            Expr::shared(counter).eq(Expr::lit((threads * rounds) as i64)),
            "all increments kept",
        );
        b.build().expect("valid program")
    }

    fn configs() -> Vec<(&'static str, ExploreLimits)> {
        let base = ExploreLimits::default();
        vec![
            ("plain", base.clone()),
            (
                "dedup",
                ExploreLimits {
                    dedup_states: true,
                    ..base.clone()
                },
            ),
            (
                "sleep",
                ExploreLimits {
                    sleep_sets: true,
                    ..base.clone()
                },
            ),
            (
                "dedup+sleep",
                ExploreLimits {
                    dedup_states: true,
                    sleep_sets: true,
                    ..base.clone()
                },
            ),
            (
                "preemption2",
                ExploreLimits {
                    max_preemptions: Some(2),
                    ..base.clone()
                },
            ),
            (
                "dpor",
                ExploreLimits {
                    dpor: true,
                    ..base.clone()
                },
            ),
            (
                "dpor+sleep",
                ExploreLimits {
                    dpor: true,
                    sleep_sets: true,
                    ..base.clone()
                },
            ),
            (
                "nofuse",
                ExploreLimits {
                    fuse: false,
                    ..base.clone()
                },
            ),
            (
                "nofuse+sleep",
                ExploreLimits {
                    fuse: false,
                    sleep_sets: true,
                    ..base.clone()
                },
            ),
            (
                "budget7",
                ExploreLimits {
                    max_schedules: 7,
                    ..base
                },
            ),
        ]
    }

    #[test]
    fn parallel_report_is_bit_identical_to_serial_across_configs() {
        for program in [racy_counter(3, 2), locked_counter(2, 2)] {
            for (label, limits) in configs() {
                let serial = Explorer::new(&program).limits(limits.clone()).run();
                for jobs in [1, 2, 4] {
                    let par = ParExplorer::new(&program)
                        .limits(limits.clone())
                        .jobs(jobs)
                        .run();
                    let label = format!("{}/{label}/jobs={jobs}", program.name());
                    assert_eq!(serial.without_wall(), par.without_wall(), "{label}");
                }
            }
        }
    }

    #[test]
    fn observation_on_report_is_identical_to_observation_off() {
        let program = racy_counter(3, 2);
        let baseline = ParExplorer::new(&program).jobs(2).run();
        let profiler = Arc::new(PhaseProfiler::sampling(0));
        let (report, stats) = ParExplorer::new(&program)
            .jobs(2)
            .profile(Arc::clone(&profiler))
            .progress_every(Duration::from_millis(0))
            .run_detailed();
        assert_eq!(baseline.without_wall(), report.without_wall(), "obs-on");
        assert_eq!(stats.profiles.len(), 1, "one spawned worker");
        // The workers searched subtrees, so their profilers saw step
        // entries.
        let mut merged = PhaseProfile::empty();
        for p in &stats.profiles {
            merged.merge(p);
        }
        assert!(merged.get(Phase::Step).entries > 0, "worker step entries");
        // Coordinator phases land on the caller's handle.
        assert!(
            profiler.snapshot().get(Phase::Commit).entries > 0,
            "commit entries"
        );
    }

    #[test]
    fn parallel_matches_serial_on_generated_programs() {
        // Deterministic sweep over generator seeds; the property suite
        // in `tests/sim_properties.rs` widens this to random configs.
        for seed in 0..6u64 {
            let config = GenConfig {
                threads: 3,
                vars: 2,
                mutexes: 1,
                ops_per_thread: 4,
                locked_pct: 40,
                tx_pct: 0,
            };
            let program = generate(&config, seed);
            for (label, limits) in configs() {
                let serial = Explorer::new(&program).limits(limits.clone()).run();
                let par = ParExplorer::new(&program)
                    .limits(limits.clone())
                    .jobs(3)
                    .run();
                assert_eq!(
                    serial.without_wall(),
                    par.without_wall(),
                    "seed={seed}/{label}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_under_chaos() {
        let program = racy_counter(2, 2);
        for seed in [3u64, 42] {
            let plan = FaultPlan::new(seed);
            let serial = Explorer::new(&program).chaos(plan).run();
            for jobs in [1, 2, 4] {
                let par = ParExplorer::new(&program).chaos(plan).jobs(jobs).run();
                assert_eq!(
                    serial.without_wall(),
                    par.without_wall(),
                    "chaos={seed}/jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn stop_on_first_failure_matches_serial() {
        let program = racy_counter(3, 1);
        let serial = Explorer::new(&program).stop_on_first_failure().run();
        for jobs in [1, 2, 4] {
            let par = ParExplorer::new(&program)
                .stop_on_first_failure()
                .jobs(jobs)
                .run();
            assert_eq!(
                serial.without_wall(),
                par.without_wall(),
                "stop-first/jobs={jobs}"
            );
        }
        assert!(serial.found_failure());
    }

    #[test]
    fn zero_schedule_budget_truncates_like_serial() {
        let program = racy_counter(2, 1);
        let limits = ExploreLimits {
            max_schedules: 0,
            ..ExploreLimits::default()
        };
        let serial = Explorer::new(&program).limits(limits.clone()).run();
        let par = ParExplorer::new(&program).limits(limits).jobs(2).run();
        assert_eq!(serial.without_wall(), par.without_wall(), "budget=0");
        assert!(par.truncated);
        assert_eq!(par.schedules_run, 0);
        assert_eq!(par.truncation, Some(Truncation::ScheduleBudget));
    }

    #[test]
    fn wall_deadline_trips_and_stops_all_workers() {
        // Space far too large to exhaust in 5ms; the coordinator must
        // stop, set WallDeadline, and halt the pool without hanging.
        let program = racy_counter(3, 6);
        let (report, stats) = ParExplorer::new(&program)
            .deadline(Duration::from_millis(5))
            .jobs(4)
            .run_detailed();
        assert!(report.truncated);
        assert_eq!(report.truncation, Some(Truncation::WallDeadline));
        // Partial counts survive the stop: everything spliced before
        // the deadline is in the report.
        assert_eq!(report.counts.total(), report.schedules_run);
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.profiles.len(), 3, "the calling thread is the fourth");
    }

    #[test]
    fn wall_deadline_mid_parallel_run_reports_wall_deadline() {
        // Each schedule costs 100µs of simulated time, so the 4ms
        // deadline ends the search after 40 schedules on any host: the
        // coordinator descends into the subtree where that happens.
        let program = racy_counter(3, 6);
        let clock = DeadlineClock::PerSchedule(Duration::from_micros(100));
        let deadline = Duration::from_millis(4);
        let serial = Explorer::new(&program)
            .deadline(deadline)
            .deadline_clock(clock)
            .run();
        let (par, stats) = ParExplorer::new(&program)
            .deadline(deadline)
            .deadline_clock(clock)
            .jobs(4)
            .run_detailed();
        assert_eq!(
            serial.without_wall(),
            par.without_wall(),
            "per-schedule deadline"
        );
        assert_eq!(par.schedules_run, 40);
        assert_eq!(par.truncation, Some(Truncation::WallDeadline));
        assert!(par.found_failure());
        assert!(stats.tasks_spawned >= 32, "the tree was split");
    }

    #[test]
    fn stopped_workers_never_drop_partial_counts() {
        // Whatever the halt flag interrupts, every schedule spliced into
        // the report is fully classified: the histogram total always
        // equals the schedule count.
        let program = racy_counter(3, 6);
        for jobs in [1, 2, 4] {
            let report = ParExplorer::new(&program)
                .deadline(Duration::from_millis(8))
                .jobs(jobs)
                .run();
            assert_eq!(
                report.counts.total(),
                report.schedules_run,
                "jobs={jobs}: counts dropped on stop"
            );
            assert!(report.schedules_run > 0, "jobs={jobs}: no progress at all");
            assert_eq!(report.truncation, Some(Truncation::WallDeadline));
        }
    }

    #[test]
    fn terminal_root_needs_no_workers() {
        let mut b = ProgramBuilder::new("single");
        let v = b.var("v", 0);
        b.thread("only", vec![Stmt::write(v, Expr::lit(1))]);
        b.final_assert(Expr::shared(v).eq(Expr::lit(1)), "wrote");
        let program = b.build().expect("valid");
        let serial = Explorer::new(&program).run();
        let (par, stats) = ParExplorer::new(&program).jobs(4).run_detailed();
        assert_eq!(serial.without_wall(), par.without_wall(), "single-thread");
        assert_eq!(par.schedules_run, 1);
        assert_eq!((stats.jobs, stats.tasks_spawned), (1, 0));
    }

    #[test]
    fn only_dedup_off_searches_with_enough_roots_use_workers() {
        let program = racy_counter(3, 2);
        let (_, full) = ParExplorer::new(&program).jobs(2).run_detailed();
        assert_eq!(full.jobs, 2);
        assert!(full.tasks_spawned >= (2 * ROOTS_PER_JOB) as u64);
        assert_eq!(full.wasted_expansions, 0);
        assert_eq!(full.total_steals(), 0);
        let (_, dedup) = ParExplorer::new(&program)
            .jobs(2)
            .dedup_states()
            .run_detailed();
        let (_, dpor) = ParExplorer::new(&program).jobs(2).dpor().run_detailed();
        let (_, small) = ParExplorer::new(&racy_counter(2, 1)).jobs(2).run_detailed();
        for stats in [dedup, dpor, small] {
            assert_eq!((stats.jobs, stats.tasks_spawned), (1, 0));
        }
    }

    /// Two threads race on `x` while a third works on an unrelated
    /// `y`. The third thread's steps commute with everything, which is
    /// exactly the independence DPOR prunes — on an all-conflicting
    /// program (every op on one variable) the persistent set is every
    /// thread and no reduction is possible.
    fn racy_plus_independent() -> Program {
        let mut b = ProgramBuilder::new("racy-plus-independent");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        for name in ["a", "b"] {
            b.thread(
                name,
                vec![
                    Stmt::read(x, "tmp"),
                    Stmt::write(x, Expr::local("tmp") + Expr::lit(1)),
                ],
            );
        }
        b.thread(
            "c",
            vec![
                Stmt::read(y, "tmp"),
                Stmt::write(y, Expr::local("tmp") + Expr::lit(1)),
                Stmt::read(y, "tmp"),
                Stmt::write(y, Expr::local("tmp") + Expr::lit(1)),
            ],
        );
        b.final_assert(Expr::shared(x).eq(Expr::lit(2)), "no lost update");
        b.build().expect("valid program")
    }

    #[test]
    fn dpor_prunes_but_finds_both_outcomes() {
        let program = racy_plus_independent();
        let limits = ExploreLimits {
            dedup_states: false,
            ..ExploreLimits::default()
        };
        let full = Explorer::new(&program).limits(limits).run();
        let dpor = ParExplorer::new(&program).dpor().jobs(2).run();
        assert!(
            dpor.schedules_run * 2 <= full.schedules_run,
            "DPOR must prune at least 2x: {} vs {}",
            dpor.schedules_run,
            full.schedules_run
        );
        assert!(dpor.dpor_pruned > 0);
        // The outcome *kinds* survive the reduction.
        assert!(dpor.counts.ok > 0 && dpor.counts.assert_failed > 0);
        assert!(full.counts.ok > 0 && full.counts.assert_failed > 0);
    }

    #[test]
    fn dpor_with_stop_on_first_failure_matches_serial() {
        let program = racy_counter(3, 1);
        let serial = Explorer::new(&program).dpor().stop_on_first_failure().run();
        for jobs in [1, 2, 4] {
            let par = ParExplorer::new(&program)
                .dpor()
                .stop_on_first_failure()
                .jobs(jobs)
                .run();
            assert_eq!(
                serial.without_wall(),
                par.without_wall(),
                "dpor-stop-first/jobs={jobs}"
            );
        }
        assert!(serial.found_failure());
    }

    #[test]
    fn a_worker_panic_resumes_in_the_coordinator() {
        let program = racy_counter(2, 1);
        let setup = Setup::new(&program);
        let pool = Pool::new(Vec::new(), Stopwatch::start());
        pool.done
            .lock()
            .expect("fragments")
            .push(Some(Err(Box::new("boom"))));
        let payload = catch_unwind(AssertUnwindSafe(|| pool.fragment(0, &setup, setup.mode())))
            .expect_err("the coordinator panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The slots are not poisoned: a late worker can still publish.
        assert!(pool.done.lock().is_ok());
    }

    #[test]
    fn jobs_builder_clamps_to_one() {
        let program = racy_counter(2, 1);
        let (report, stats) = ParExplorer::new(&program).jobs(0).run_detailed();
        assert_eq!(stats.jobs, 1);
        assert!(report.counts.total() > 0);
    }
}
