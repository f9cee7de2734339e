//! The parallel explorer's determinism contract, differentially:
//!
//! for **every** kernel variant — all buggy programs and every fixed
//! variant — the parallel explorer's merged report must equal the
//! serial explorer's **field for field** (wall time excluded: a clock
//! writes that field, not the search) at 1, 2 and 4 workers, with and
//! without state deduplication, with sleep sets, and under a seeded
//! fault plan. Workers may finish subtrees in any order; the splice
//! order, and so *what* the search reports, never changes.
//!
//! Budgets are capped so dedup-off searches of the big state spaces
//! truncate rather than blow up; a truncated report is compared just
//! the same — both explorers must give up at the identical point.

use lfm_kernels::{registry, Variant};
use lfm_sim::{ExploreLimits, ExploreReport, Explorer, FaultPlan, ParExplorer, Program};

/// Worker counts the contract checks.
const JOBS: [usize; 3] = [1, 2, 4];

/// The chaos seed (same one the E-chaos experiment and CI smoke use).
const CHAOS_SEED: u64 = 42;

/// Shared caps: big enough that small kernels explore exhaustively,
/// small enough that dedup-off searches of the livelock/transaction
/// kernels truncate quickly instead of dominating the suite.
fn limits(dedup: bool, sleep: bool) -> ExploreLimits {
    ExploreLimits {
        max_steps: 4_000,
        max_schedules: 20_000,
        dedup_states: dedup,
        sleep_sets: sleep,
        ..ExploreLimits::default()
    }
}

fn serial(program: &Program, limits: ExploreLimits, chaos: Option<u64>) -> ExploreReport {
    let mut explorer = Explorer::new(program).limits(limits);
    if let Some(seed) = chaos {
        explorer = explorer.chaos(FaultPlan::new(seed));
    }
    explorer.run()
}

fn parallel(
    program: &Program,
    limits: ExploreLimits,
    chaos: Option<u64>,
    jobs: usize,
) -> ExploreReport {
    let mut explorer = ParExplorer::new(program).limits(limits).jobs(jobs);
    if let Some(seed) = chaos {
        explorer = explorer.chaos(FaultPlan::new(seed));
    }
    explorer.run()
}

/// One variant against one configuration at every worker count.
fn check(id: &str, variant: &str, program: &Program, config: &str, limits: ExploreLimits) {
    let baseline = serial(program, limits.clone(), None);
    for jobs in JOBS {
        let merged = parallel(program, limits.clone(), None, jobs);
        assert_eq!(
            baseline.without_wall(),
            merged.without_wall(),
            "{id}/{variant} [{config}, jobs={jobs}]"
        );
    }
}

#[test]
fn buggy_variants_match_serial_with_and_without_dedup() {
    for kernel in registry::all() {
        let program = kernel.buggy();
        check(kernel.id, "buggy", &program, "plain", limits(false, false));
        check(kernel.id, "buggy", &program, "dedup", limits(true, false));
    }
}

#[test]
fn buggy_variants_match_serial_with_sleep_sets() {
    for kernel in registry::all() {
        let program = kernel.buggy();
        check(
            kernel.id,
            "buggy",
            &program,
            "dedup+sleep",
            limits(true, true),
        );
    }
}

#[test]
fn fixed_variants_match_serial_with_and_without_dedup() {
    for kernel in registry::all() {
        for &fix in kernel.fixes {
            let program = kernel.build(Variant::Fixed(fix));
            let variant = format!("fixed:{fix}");
            check(kernel.id, &variant, &program, "plain", limits(false, false));
            check(kernel.id, &variant, &program, "dedup", limits(true, false));
        }
    }
}

#[test]
fn every_variant_matches_serial_under_chaos() {
    // Sleep sets are disabled automatically under chaos (step-keyed
    // fault decisions break the commutativity argument) — both
    // explorers apply the same rule, so the comparison is dedup-only.
    for kernel in registry::all() {
        let mut programs = vec![("buggy".to_string(), kernel.buggy())];
        for &fix in kernel.fixes {
            programs.push((format!("fixed:{fix}"), kernel.build(Variant::Fixed(fix))));
        }
        for (variant, program) in programs {
            let baseline = serial(&program, limits(true, false), Some(CHAOS_SEED));
            for jobs in JOBS {
                let merged = parallel(&program, limits(true, false), Some(CHAOS_SEED), jobs);
                assert_eq!(
                    baseline.without_wall(),
                    merged.without_wall(),
                    "{}/{variant} [chaos seed {CHAOS_SEED}, jobs={jobs}]",
                    kernel.id
                );
            }
        }
    }
}

/// The splice rule at every budget: on two split trees — `aba_problem`
/// buggy (259 schedules, 22 subtrees at 2 threads and 40 at 4) and
/// `toctou_flag` buggy under sleep sets (104 schedules, 20 and 36
/// subtrees) — every schedule budget from 0 to past the full count,
/// including each that lands exactly on a subtree boundary, gives the
/// serial report. A subtree whose fragment would reach the budget is
/// searched by the coordinator itself; splicing it would also count the
/// sleep-set prunes after its last leaf.
#[test]
fn every_schedule_budget_matches_serial_on_a_split_tree() {
    let cases = [
        ("aba_problem", false, 259, [22, 40]),
        ("toctou_flag", true, 104, [20, 36]),
    ];
    for (id, sleep_sets, full, roots) in cases {
        let program = registry::by_id(id).expect("kernel").buggy();
        let base = ExploreLimits {
            sleep_sets,
            ..ExploreLimits::default()
        };
        assert_eq!(serial(&program, base.clone(), None).schedules_run, full);
        for (jobs, roots) in [2, 4].into_iter().zip(roots) {
            let explorer = ParExplorer::new(&program).limits(base.clone());
            let (_, stats) = explorer.jobs(jobs).run_detailed();
            assert_eq!(stats.tasks_spawned, roots, "{id} jobs={jobs}: split");
        }
        for max_schedules in 0..=full + 1 {
            let limits = ExploreLimits {
                max_schedules,
                ..base.clone()
            };
            let baseline = serial(&program, limits.clone(), None);
            for jobs in [2, 4] {
                let merged = parallel(&program, limits.clone(), None, jobs);
                let label = format!("{id} [budget {max_schedules}, jobs={jobs}]");
                assert_eq!(baseline.without_wall(), merged.without_wall(), "{label}");
            }
        }
        let first = ExploreLimits {
            stop_on_first_failure: true,
            ..base
        };
        let baseline = serial(&program, first.clone(), None);
        assert!(baseline.found_failure());
        for jobs in [2, 4] {
            let merged = parallel(&program, first.clone(), None, jobs);
            let label = format!("{id} [stop at first failure, jobs={jobs}]");
            assert_eq!(baseline.without_wall(), merged.without_wall(), "{label}");
        }
    }
}

/// The pool really runs: `livelock_retry`'s full enumeration at 2 jobs
/// is split into at least 16 subtrees, searched by 2 workers, and every
/// fragment is spliced.
#[test]
fn full_enumeration_uses_the_worker_pool() {
    let program = registry::by_id("livelock_retry").expect("kernel").buggy();
    let (report, stats) = ParExplorer::new(&program).jobs(2).run_detailed();
    assert_eq!(report.schedules_run, 36_436);
    assert!(!report.truncated);
    assert!(stats.tasks_spawned >= 16, "{stats:?}");
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.wasted_expansions, 0);
    assert_eq!(
        Explorer::new(&program).run().without_wall(),
        report.without_wall(),
        "livelock_retry/buggy [full, jobs=2]"
    );
}
