//! The robustness contract under deterministic fault injection:
//!
//! 1. every fixed variant stays correct under every seeded fault plan —
//!    spurious wakeups, trylock failures, forced aborts, and stalls must
//!    not break a real fix;
//! 2. buggy variants still manifest (chaos may only make bugs *easier*
//!    to find, never hide them from the exhaustive search);
//! 3. an identical `FaultPlan` seed yields a bit-identical exploration
//!    report — chaos is reproducible, not noise;
//! 4. a wall deadline is honoured within 2x on every kernel, and the
//!    degradation level used is reported.

use std::time::Duration;

use lfm_kernels::{registry, Variant};
use lfm_sim::{
    Budget, BudgetedExplorer, DegradeLevel, ExploreLimits, ExploreReport, Explorer, FaultPlan,
};

/// The contract's fault plans: four distinct seeds over the default
/// mixed-fault rates.
const CHAOS_SEEDS: [u64; 4] = [3, 17, 42, 1984];

fn explore_chaos(program: &lfm_sim::Program, plan: FaultPlan) -> ExploreReport {
    // Sleep sets are disabled automatically under chaos (step-keyed
    // fault decisions break the commutativity argument), so this is a
    // dedup-only search of a larger space than the plain contract's.
    Explorer::new(program)
        .limits(ExploreLimits {
            max_steps: 4_000,
            max_schedules: 1_000_000,
            dedup_states: true,
            ..ExploreLimits::default()
        })
        .chaos(plan)
        .run()
}

#[test]
fn every_fixed_variant_survives_every_fault_plan() {
    let mut violations = Vec::new();
    for kernel in registry::all() {
        for &fix in kernel.fixes {
            let program = kernel.build(Variant::Fixed(fix));
            for seed in CHAOS_SEEDS {
                let report = explore_chaos(&program, FaultPlan::new(seed));
                if !report.proved_ok() {
                    violations.push(format!(
                        "{} fixed by {fix} under seed {seed}: {:?} truncation={:?}",
                        kernel.id, report.counts, report.truncation
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "fixed variants broke under chaos:\n{}",
        violations.join("\n")
    );
}

#[test]
fn every_buggy_variant_still_manifests_under_chaos() {
    let mut violations = Vec::new();
    for kernel in registry::all() {
        for seed in CHAOS_SEEDS {
            let mut plan = FaultPlan::new(seed);
            if kernel.id == "missed_signal" {
                // The one legitimate rescue: a spurious wakeup is
                // indistinguishable from the lost signal being delivered,
                // so injecting it can genuinely mask a missed-wakeup bug
                // (as it would in production). The remaining fault kinds
                // must still not hide it.
                plan.spurious_wakeup_pct = 0;
            }
            let report = explore_chaos(&kernel.buggy(), plan);
            if report.counts.failures() == 0 {
                violations.push(format!(
                    "{} under seed {seed}: no failure found ({:?})",
                    kernel.id, report.counts
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "chaos hid these bugs from the exhaustive search:\n{}",
        violations.join("\n")
    );
}

#[test]
fn identical_seeds_give_bit_identical_reports() {
    for kernel in registry::all() {
        let program = kernel.buggy();
        let plan = FaultPlan::new(42);
        let a = explore_chaos(&program, plan);
        let b = explore_chaos(&program, plan);
        let id = kernel.id;
        assert_eq!(a.without_wall(), b.without_wall(), "{id}");
    }
}

#[test]
fn wall_deadline_is_honoured_within_2x_on_every_kernel() {
    // Acceptance tolerance: a 200ms budget must finish within 400ms.
    // Each kernel is tiny, so individual rung slices always have room
    // to notice the deadline between schedules.
    let deadline = Duration::from_millis(200);
    for kernel in registry::all() {
        let program = kernel.buggy();
        let report = BudgetedExplorer::new(&program)
            .budget(Budget::with_deadline(deadline))
            .run();
        assert!(
            report.wall <= deadline * 2,
            "{}: wall {:?} blew the 2x tolerance on a {:?} budget",
            kernel.id,
            report.wall,
            deadline
        );
        // The degradation level used is always reported.
        assert!(matches!(
            report.level,
            DegradeLevel::Exhaustive
                | DegradeLevel::SleepSet
                | DegradeLevel::PreemptionBounded
                | DegradeLevel::PctSampling
        ));
    }
}
