//! Invisible-step fusion's soundness contract, differentially:
//!
//! Fusion promises that executing an *invisible* operation immediately
//! — instead of making it a branch point — loses nothing, because an
//! op that touches no shared variable and no sync object is a global
//! both-mover: every outcome reachable by delaying it is reached
//! through an equivalent trace. So the **set of reachable terminal
//! outcomes and final states** with fusion on must equal the set with
//! fusion off, under every search mode fusion composes with: plain
//! DFS, state dedup, sleep sets, and source-set DPOR. This harness
//! checks that promise on **every** kernel variant — all buggy
//! programs and every fixed variant.
//!
//! Two more contracts ride along:
//!
//! * the parallel explorer with fusion on must reproduce the serial
//!   fused report **field for field** at 2 and 4 workers — including
//!   the `fused_steps` and `snapshots_elided` counters, which a racy
//!   merge would be the first to corrupt — and
//! * under a seeded fault plan fusion is unsound (fault decisions are
//!   step-indexed, so "invisible" ops can change the fault schedule)
//!   and must silently disable itself: a fused chaos run must be
//!   bit-identical to an unfused chaos run, with zero steps claimed
//!   as fused on either side.
//!
//! Outcome sets are only compared when both searches ran to
//! completion: a truncated or step-capped search is not closed under
//! trace equivalence, so set equality is not owed there. The suite
//! asserts that the strong comparison actually covered most variants
//! and that fusion actually fired somewhere, so cap creep cannot
//! quietly hollow the test out.

use lfm_kernels::{registry, Variant};
use lfm_sim::{ExploreLimits, Explorer, FaultPlan, ParExplorer, Program};

/// Worker counts for the parallel bit-identity contract.
const JOBS: [usize; 2] = [2, 4];

/// The chaos seed (same one the E-chaos experiment and CI smoke use).
const CHAOS_SEED: u64 = 42;

/// The search modes fusion claims to compose with. Dedup and DPOR are
/// exercised separately (DPOR silently disables dedup); sleep sets
/// ride on plain DFS.
#[derive(Clone, Copy)]
enum Mode {
    Plain,
    Dedup,
    Sleep,
    Dpor,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Plain, Mode::Dedup, Mode::Sleep, Mode::Dpor];

    fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Dedup => "dedup",
            Mode::Sleep => "sleep",
            Mode::Dpor => "dpor",
        }
    }
}

/// Shared caps, mirroring `dpor_equivalence.rs`: big enough that small
/// kernels explore exhaustively, small enough that unfused full
/// enumerations of the livelock/transaction kernels truncate quickly.
fn limits(mode: Mode, fuse: bool) -> ExploreLimits {
    ExploreLimits {
        max_steps: 4_000,
        max_schedules: 20_000,
        dedup_states: matches!(mode, Mode::Dedup),
        sleep_sets: matches!(mode, Mode::Sleep),
        dpor: matches!(mode, Mode::Dpor),
        fuse,
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

/// Compares the fused outcome set against the unfused one for one
/// variant under one mode. Returns the fused run's `fused_steps` when
/// the strong comparison ran, `None` when a budget cap skipped it.
fn check_outcome_sets(label: &str, program: &Program, mode: Mode) -> Option<u64> {
    let (base, base_set) = Explorer::new(program)
        .limits(limits(mode, false))
        .run_outcome_set();
    let (fused, fused_set) = Explorer::new(program)
        .limits(limits(mode, true))
        .run_outcome_set();
    let (Some(base_set), Some(fused_set)) = (base_set, fused_set) else {
        return None;
    };
    assert_eq!(
        base_set, fused_set,
        "{label}: fused outcome set diverged from unfused"
    );
    // Fusion only removes branch points; it can never add schedules.
    assert!(
        fused.schedules_run <= base.schedules_run,
        "{label}: fused search ran {} schedules, unfused {}",
        fused.schedules_run,
        base.schedules_run
    );
    Some(fused.stats.fused_steps)
}

#[test]
fn fused_outcome_sets_match_unfused_under_every_mode() {
    for mode in Mode::ALL {
        let mut compared = 0usize;
        let mut skipped = 0usize;
        let mut fused_steps = 0u64;
        for kernel in registry::all() {
            for (variant, program) in variants(&kernel) {
                let label = format!("{}/{variant} [{}]", kernel.id, mode.name());
                match check_outcome_sets(&label, &program, mode) {
                    Some(steps) => {
                        compared += 1;
                        fused_steps += steps;
                    }
                    None => skipped += 1,
                }
            }
        }
        assert!(
            compared > skipped,
            "[{}] only {compared} variants compared strongly, {skipped} skipped: \
             caps too small for the harness to mean anything",
            mode.name()
        );
        assert!(
            fused_steps > 0,
            "[{}] no steps were fused across any compared variant: \
             the differential suite is vacuous",
            mode.name()
        );
    }
}

#[test]
fn parallel_fused_search_matches_serial_field_for_field() {
    for kernel in registry::all() {
        for (variant, program) in variants(&kernel) {
            for mode in [Mode::Plain, Mode::Dpor] {
                let baseline = Explorer::new(&program).limits(limits(mode, true)).run();
                for jobs in JOBS {
                    let merged = ParExplorer::new(&program)
                        .limits(limits(mode, true))
                        .jobs(jobs)
                        .run();
                    assert_eq!(
                        baseline.without_wall(),
                        merged.without_wall(),
                        "{}/{variant} [{}, jobs={jobs}]",
                        kernel.id,
                        mode.name()
                    );
                }
            }
        }
    }
}

#[test]
fn chaos_silently_disables_fusion_everywhere() {
    // Fault decisions are step-indexed: fusing an "invisible" op shifts
    // every later step index, so the same plan would inject different
    // faults and the searches would genuinely diverge. A fused chaos
    // request must therefore resolve to the unfused search —
    // bit-identical to never having asked, zero steps claimed as fused.
    // Dedup stays on, keeping the big kernels cheap, same as
    // `dpor_equivalence.rs`'s chaos leg.
    let chaos_limits = |fuse: bool| ExploreLimits {
        max_steps: 4_000,
        max_schedules: 20_000,
        dedup_states: true,
        fuse,
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
            assert_eq!(
                requested.stats.fused_steps, 0,
                "{label}: claimed fused steps under chaos"
            );
            assert_eq!(
                plain.stats.fused_steps, 0,
                "{label}: unfused run claimed fused steps"
            );
        }
    }
}
