//! Source-set DPOR's soundness contract, differentially:
//!
//! DPOR promises to visit at least one representative of every
//! Mazurkiewicz trace class, so the **set of reachable terminal
//! outcomes and final states** must equal full enumeration's — while
//! running no more (and usually far fewer) schedules. This harness
//! checks that promise on **every** kernel variant — all buggy
//! programs and every fixed variant — for plain DPOR and for DPOR
//! composed with sleep sets.
//!
//! Two more contracts ride along:
//!
//! * the parallel explorer under DPOR must reproduce the serial DPOR
//!   report **field for field** at 2 and 4 workers (the same
//!   serial-preorder commit contract `par_equivalence.rs` checks for
//!   the classic search), and
//! * under a seeded fault plan DPOR is unsound and must silently
//!   disable itself — a DPOR-requested chaos run must be bit-identical
//!   to a plain chaos run, with zero schedules claimed as pruned.
//!
//! Outcome sets are only compared when both searches ran to
//! completion: a truncated or step-capped search is not closed under
//! trace equivalence, so set equality is not owed there. The suite
//! asserts that the strong comparison actually covered most variants,
//! so cap creep cannot quietly hollow the test out.

use lfm_kernels::{registry, Variant};
use lfm_sim::{ExploreLimits, Explorer, FaultPlan, ParExplorer, Program};

/// Worker counts for the parallel bit-identity contract.
const JOBS: [usize; 2] = [2, 4];

/// The chaos seed (same one the E-chaos experiment and CI smoke use).
const CHAOS_SEED: u64 = 42;

/// Shared caps, mirroring `par_equivalence.rs`: big enough that small
/// kernels explore exhaustively, small enough that dedup-off full
/// enumerations of the livelock/transaction kernels truncate quickly.
fn limits(dpor: bool, sleep: bool) -> ExploreLimits {
    ExploreLimits {
        max_steps: 4_000,
        max_schedules: 20_000,
        dedup_states: false,
        sleep_sets: sleep,
        dpor,
        ..ExploreLimits::default()
    }
}

/// Every variant of one kernel: the buggy build plus each fix.
fn variants(kernel: &lfm_kernels::Kernel) -> Vec<(String, Program)> {
    let mut out = vec![("buggy".to_string(), kernel.buggy())];
    for &fix in kernel.fixes {
        out.push((format!("fixed:{fix}"), kernel.build(Variant::Fixed(fix))));
    }
    out
}

/// Compares DPOR's outcome set against full enumeration's for one
/// variant. Returns `true` when the strong comparison ran.
fn check_outcome_sets(label: &str, program: &Program, dpor_limits: ExploreLimits) -> bool {
    let (full, full_set) = Explorer::new(program)
        .limits(limits(false, false))
        .run_outcome_set();
    let (reduced, reduced_set) = Explorer::new(program).limits(dpor_limits).run_outcome_set();
    let (Some(full_set), Some(reduced_set)) = (full_set, reduced_set) else {
        return false;
    };
    assert_eq!(
        full_set, reduced_set,
        "{label}: DPOR outcome set diverged from full enumeration"
    );
    // DPOR explores a subset of the full tree's schedules; with the
    // all-enabled fallback it can match the count, never exceed it.
    assert!(
        reduced.schedules_run <= full.schedules_run,
        "{label}: DPOR ran {} schedules, full enumeration {}",
        reduced.schedules_run,
        full.schedules_run
    );
    true
}

/// Runs the outcome-set comparison over every variant and config,
/// asserting the strong check was not hollowed out by budget caps.
fn check_all_outcome_sets(sleep: bool) {
    let config = if sleep { "dpor+sleep" } else { "dpor" };
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for kernel in registry::all() {
        for (variant, program) in variants(&kernel) {
            let label = format!("{}/{variant} [{config}]", kernel.id);
            if check_outcome_sets(&label, &program, limits(true, sleep)) {
                compared += 1;
            } else {
                skipped += 1;
            }
        }
    }
    assert!(
        compared > skipped,
        "[{config}] only {compared} variants compared strongly, {skipped} skipped: \
         caps too small for the harness to mean anything"
    );
}

#[test]
fn dpor_outcome_sets_match_full_enumeration() {
    check_all_outcome_sets(false);
}

#[test]
fn dpor_with_sleep_sets_outcome_sets_match_full_enumeration() {
    check_all_outcome_sets(true);
}

#[test]
fn parallel_dpor_matches_serial_dpor_field_for_field() {
    for kernel in registry::all() {
        for (variant, program) in variants(&kernel) {
            for sleep in [false, true] {
                let config = if sleep { "dpor+sleep" } else { "dpor" };
                let baseline = Explorer::new(&program).limits(limits(true, sleep)).run();
                for jobs in JOBS {
                    let merged = ParExplorer::new(&program)
                        .limits(limits(true, sleep))
                        .jobs(jobs)
                        .run();
                    assert_eq!(
                        baseline.without_wall(),
                        merged.without_wall(),
                        "{}/{variant} [{config}, jobs={jobs}]",
                        kernel.id
                    );
                }
            }
        }
    }
}

#[test]
fn chaos_silently_disables_dpor_everywhere() {
    // Step-indexed fault decisions break the trace-equivalence argument,
    // so under a fault plan a DPOR request must resolve to the classic
    // search — bit-identical to never having asked, nothing "pruned".
    // Dedup stays on (it only yields to DPOR when DPOR actually runs),
    // keeping the big kernels cheap, same as par_equivalence's chaos leg.
    let chaos_limits = |dpor: bool| ExploreLimits {
        max_steps: 4_000,
        max_schedules: 20_000,
        dedup_states: true,
        sleep_sets: false,
        dpor,
        ..ExploreLimits::default()
    };
    for kernel in registry::all() {
        for (variant, program) in variants(&kernel) {
            let plain = Explorer::new(&program)
                .limits(chaos_limits(false))
                .chaos(FaultPlan::new(CHAOS_SEED))
                .run();
            let requested = Explorer::new(&program)
                .limits(chaos_limits(true))
                .chaos(FaultPlan::new(CHAOS_SEED))
                .run();
            let label = format!("{}/{variant} [chaos seed {CHAOS_SEED}]", kernel.id);
            assert_eq!(plain.without_wall(), requested.without_wall(), "{label}");
            assert_eq!(requested.dpor_pruned, 0, "{label}: claimed DPOR prunes");
        }
    }
}
