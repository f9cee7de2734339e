//! Property-based tests on the simulator's core invariants:
//! deterministic replay, vector-clock consistency, exploration
//! combinatorics, and transactional serializability.

use learning_from_mistakes::sim::{
    generate, Executor, ExploreLimits, Explorer, Expr, GenConfig, Outcome, ParExplorer,
    ProgramBuilder, RandomWalker, RecordMode, Schedule, Stmt,
};

mod support;

use support::check;

/// Cases run per property.
const CASES: u64 = 24;

/// n threads × k read-increment-write rounds on one counter.
fn racy_counter(n_threads: usize, rounds: usize) -> learning_from_mistakes::sim::Program {
    static NAMES: [&str; 4] = ["w0", "w1", "w2", "w3"];
    let mut b = ProgramBuilder::new("racy");
    let v = b.var("counter", 0);
    for name in NAMES.iter().take(n_threads) {
        let mut body = Vec::new();
        for _ in 0..rounds {
            body.push(Stmt::read(v, "tmp"));
            body.push(Stmt::write(v, Expr::local("tmp") + Expr::lit(1)));
        }
        b.thread(name, body);
    }
    b.build().expect("builds")
}

fn multinomial(counts: &[usize]) -> u64 {
    // (Σ counts)! / Π counts!  computed incrementally to stay in u64.
    let mut result = 1u64;
    let mut placed = 0usize;
    for &c in counts {
        for i in 1..=c {
            placed += 1;
            result = result * placed as u64 / i as u64;
        }
    }
    result
}

/// Replaying a recorded schedule reproduces outcome and final state.
#[test]
fn replay_is_deterministic() {
    check("replay_is_deterministic", CASES, |case| {
        let seed = case.draw(0u64..1_000);
        let threads = case.draw(2usize..=3);
        let rounds = case.draw(1usize..=2);
        let program = racy_counter(threads, rounds);
        let mut first = Executor::new(&program);
        // Drive with a seeded random picker.
        let mut state = seed;
        first.run_with(10_000, |enabled| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            enabled[(state >> 33) as usize % enabled.len()]
        });
        let schedule = first.schedule_taken().clone();
        let outcome = first.outcome().cloned().expect("finished");

        let mut second = Executor::new(&program);
        let replayed = second.replay(&schedule, 10_000);
        assert_eq!(&replayed, &outcome);
        assert_eq!(first.vars(), second.vars());
        assert_eq!(first.steps(), second.steps());
    });
}

/// The exhaustive explorer enumerates exactly the multinomial number
/// of interleavings for straight-line threads.
#[test]
fn explorer_counts_are_multinomial() {
    check("explorer_counts_are_multinomial", CASES, |case| {
        let threads = case.draw(2usize..=3);
        let rounds = case.draw(1usize..=2);
        let program = racy_counter(threads, rounds);
        let report = Explorer::new(&program).run();
        let ops_per_thread = 2 * rounds;
        let expected = multinomial(&vec![ops_per_thread; threads]);
        assert_eq!(report.schedules_run, expected);
        assert!(!report.truncated);
    });
}

/// Vector clocks respect program order: within one thread, event
/// clocks are monotonically increasing.
#[test]
fn clocks_respect_program_order() {
    check("clocks_respect_program_order", CASES, |case| {
        let seed = case.draw(0u64..500);
        let program = racy_counter(3, 2);
        let traces = RandomWalker::new(&program, seed).collect_traces(1);
        let (trace, _) = &traces[0];
        for tid in 0..trace.n_threads {
            let thread = learning_from_mistakes::sim::ThreadId::from_index(tid);
            let events: Vec<_> = trace.thread_events(thread).collect();
            for pair in events.windows(2) {
                assert!(
                    pair[0].clock.le(&pair[1].clock),
                    "program order violated in thread {tid}"
                );
            }
        }
    });
}

/// Happens-before is consistent with the execution's total order:
/// if a HB b then a appears before b in the trace.
#[test]
fn happens_before_embeds_in_total_order() {
    check("happens_before_embeds_in_total_order", CASES, |case| {
        let seed = case.draw(0u64..500);
        let mut b = ProgramBuilder::new("locked");
        let v = b.var("x", 0);
        let m = b.mutex();
        for name in ["a", "b", "c"] {
            b.thread(
                name,
                vec![
                    Stmt::lock(m),
                    Stmt::read(v, "t"),
                    Stmt::write(v, Expr::local("t") + Expr::lit(1)),
                    Stmt::unlock(m),
                ],
            );
        }
        let program = b.build().unwrap();
        let traces = RandomWalker::new(&program, seed).collect_traces(1);
        let (trace, outcome) = &traces[0];
        assert!(outcome.is_ok());
        for (i, e1) in trace.events.iter().enumerate() {
            for e2 in &trace.events[i + 1..] {
                // e1 precedes e2 in the total order, so e2 must not
                // *strictly* happen-before e1. (The initial ThreadStart
                // events all carry the zero clock, which is `le` both
                // ways without expressing an ordering — hence strict.)
                let strictly_before = e2.clock.le(&e1.clock) && e2.clock != e1.clock;
                assert!(
                    !(strictly_before && e1.thread != e2.thread),
                    "total order contradiction at {} vs {}",
                    e1.seq,
                    e2.seq
                );
            }
        }
    });
}

/// Counter increments under the in-sim transactions serialize for
/// every schedule the random walker produces.
#[test]
fn transactions_serialize_under_random_schedules() {
    check(
        "transactions_serialize_under_random_schedules",
        CASES,
        |case| {
            let seed = case.draw(0u64..300);
            let mut b = ProgramBuilder::new("tx");
            let v = b.var("x", 0);
            for name in ["a", "b", "c"] {
                b.thread(
                    name,
                    vec![
                        Stmt::TxBegin,
                        Stmt::read(v, "t"),
                        Stmt::write(v, Expr::local("t") + Expr::lit(1)),
                        Stmt::TxCommit,
                    ],
                );
            }
            b.final_assert(Expr::shared(v).eq(Expr::lit(3)), "tx increments serialize");
            let program = b.build().unwrap();
            let report = RandomWalker::new(&program, seed).run_trials(20);
            assert_eq!(report.counts.assert_failed, 0);
            assert_eq!(report.counts.deadlock, 0);
        },
    );
}

/// A schedule's context switches are bounded by its length.
#[test]
fn context_switch_bound() {
    check("context_switch_bound", CASES, |case| {
        let len = case.draw(0usize..40);
        let choices: Vec<usize> = (0..len).map(|_| case.draw(0usize..3)).collect();
        let schedule: Schedule = choices
            .iter()
            .map(|&i| learning_from_mistakes::sim::ThreadId::from_index(i))
            .collect();
        assert!(schedule.context_switches() <= schedule.len().saturating_sub(1));
    });
}

/// Splitting the frontier across workers covers exactly the serial
/// subtree: with dedup off, the parallel explorer runs the same
/// number of schedules (nothing explored twice, nothing dropped)
/// with identical outcome counts and step totals, whatever the
/// generated program or worker count.
#[test]
fn frontier_split_covers_exactly_the_serial_subtree() {
    check(
        "frontier_split_covers_exactly_the_serial_subtree",
        CASES,
        |case| {
            let seed = case.draw(0u64..2_000);
            let threads = case.draw(2usize..=3);
            let ops = case.draw(2usize..=4);
            let jobs = case.draw(1usize..=4);
            let config = GenConfig {
                threads,
                vars: 2,
                mutexes: 1,
                ops_per_thread: ops,
                locked_pct: 40,
                tx_pct: 0,
            };
            let program = generate(&config, seed);
            let limits = ExploreLimits {
                max_schedules: 50_000,
                ..ExploreLimits::default()
            };
            let serial = Explorer::new(&program).limits(limits.clone()).run();
            let par = ParExplorer::new(&program).limits(limits).jobs(jobs).run();
            assert_eq!(par.without_wall(), serial.without_wall());
        },
    );
}

/// The lazily repaired state fingerprint equals a from-scratch
/// recomputation after every step of any generated program: read
/// without repair (dirty components folded in on the fly), after a
/// dedup-style repair in place at random steps, and on a clone taken
/// mid-run, which inherits the parent's dirty bits and then diverges
/// from shared history.
#[test]
fn incremental_state_key_matches_recomputation() {
    check(
        "incremental_state_key_matches_recomputation",
        CASES,
        |case| {
            let seed = case.draw(0u64..2_000);
            let threads = case.draw(2usize..=3);
            let ops = case.draw(2usize..=5);
            let locked_pct = case.draw(0u8..=100);
            let tx_pct = case.draw(0u8..=40);
            let fork_at = case.draw(1usize..=6);
            let config = GenConfig {
                threads,
                vars: 2,
                mutexes: 1,
                ops_per_thread: ops,
                locked_pct,
                tx_pct,
            };
            let program = generate(&config, seed);
            let mut exec = Executor::new(&program);
            let mut forked: Option<Executor> = None;
            let mut state = seed;
            let mut next = |len: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % len
            };
            for step in 0..10_000 {
                assert_eq!(
                    exec.state_key(),
                    exec.state_key_recomputed(),
                    "key drifted at step {}",
                    step
                );
                if next(3) == 0 {
                    assert_eq!(
                        exec.refresh_state_key(),
                        exec.state_key_recomputed(),
                        "repaired key drifted at step {}",
                        step
                    );
                    assert_eq!(exec.state_key(), exec.state_key_recomputed());
                }
                let enabled = exec.enabled();
                if enabled.is_empty() {
                    break;
                }
                if step == fork_at {
                    // Branch point: the cheap clone shares history with the
                    // parent and inherits its dirty components; both must
                    // keep exact fingerprints afterwards, and repairing
                    // one side's cache must not disturb the other's.
                    let mut child = exec.clone();
                    assert_eq!(child.state_key(), exec.state_key());
                    assert_eq!(child.refresh_state_key(), exec.state_key_recomputed());
                    assert_eq!(exec.state_key(), exec.state_key_recomputed());
                    forked = Some(exec.clone());
                }
                let pick = enabled[next(enabled.len())];
                exec.step(pick).expect("enabled thread steps");
            }
            if let Some(mut child) = forked {
                for step in 0..10_000 {
                    assert_eq!(
                        child.state_key(),
                        child.state_key_recomputed(),
                        "forked key drifted at step {}",
                        step
                    );
                    let enabled = child.enabled();
                    if enabled.is_empty() {
                        break;
                    }
                    // Diverge from the parent's choices: pick the last
                    // enabled thread instead of a seeded one.
                    let pick = *enabled.last().unwrap();
                    child.step(pick).expect("enabled thread steps");
                }
            }
        },
    );
}

/// With dedup on, the parallel explorer must make exactly the serial
/// dedup decisions: same schedules, same dedup hits, same first
/// witnesses — at any worker count, locked or transactional. (Dedup
/// searches run the serial driver on the calling thread; there is
/// no shared seen-state set.)
#[test]
fn striped_dedup_matches_serial_decisions() {
    check("striped_dedup_matches_serial_decisions", CASES, |case| {
        let seed = case.draw(0u64..2_000);
        let locked_pct = case.draw(0u8..=100);
        let jobs = case.draw(1usize..=4);
        let config = GenConfig {
            threads: 3,
            vars: 2,
            mutexes: 1,
            ops_per_thread: 3,
            locked_pct,
            tx_pct: 20,
        };
        let program = generate(&config, seed);
        let limits = ExploreLimits {
            max_schedules: 50_000,
            dedup_states: true,
            sleep_sets: true,
            ..ExploreLimits::default()
        };
        let serial = Explorer::new(&program).limits(limits.clone()).run();
        let par = ParExplorer::new(&program).limits(limits).jobs(jobs).run();
        assert_eq!(par.without_wall(), serial.without_wall());
    });
}

/// Source-set DPOR visits at least one representative of every
/// Mazurkiewicz trace class: on any generated program the outcome
/// kinds — and, for executions that run to their natural end, the
/// final states — match full enumeration exactly, while never
/// running *more* schedules. Aborting outcomes (assert failures)
/// cut executions mid-class, so only their display form is owed,
/// not the machine state at the cut.
#[test]
fn dpor_outcome_set_equals_full_enumeration() {
    check("dpor_outcome_set_equals_full_enumeration", CASES, |case| {
        let seed = case.draw(0u64..2_000);
        let threads = case.draw(2usize..=3);
        let ops = case.draw(2usize..=4);
        let locked_pct = case.draw(0u8..=100);
        let sleep = case.draw(0u8..2) == 1;
        let config = GenConfig {
            threads,
            vars: 2,
            mutexes: 1,
            ops_per_thread: ops,
            locked_pct,
            tx_pct: 0,
        };
        let program = generate(&config, seed);
        let limits = |dpor: bool| ExploreLimits {
            max_schedules: 100_000,
            dedup_states: false,
            sleep_sets: dpor && sleep,
            dpor,
            ..ExploreLimits::default()
        };
        let terminals =
            |limits: ExploreLimits| Explorer::new(&program).limits(limits).run_outcome_set();
        let (full, full_set) = terminals(limits(false));
        let (reduced, dpor_set) = terminals(limits(true));
        assert!(
            full_set.is_some(),
            "generated straight-line programs explore exhaustively"
        );
        assert!(!reduced.truncated);
        assert_eq!(&dpor_set, &full_set);
        assert!(
            reduced.schedules_run <= full.schedules_run,
            "DPOR ran {} schedules, full enumeration {}",
            reduced.schedules_run,
            full.schedules_run
        );
    });
}

/// The parallel explorer's DPOR report (a DPOR search runs on the
/// calling thread): whatever the generated program, worker count, or
/// sleep-set composition, it equals the serial DPOR explorer's field
/// for field.
#[test]
fn parallel_dpor_is_bit_identical_to_serial() {
    check("parallel_dpor_is_bit_identical_to_serial", CASES, |case| {
        let seed = case.draw(0u64..2_000);
        let locked_pct = case.draw(0u8..=100);
        let jobs = case.draw(1usize..=4);
        let sleep = case.draw(0u8..2) == 1;
        let config = GenConfig {
            threads: 3,
            vars: 2,
            mutexes: 1,
            ops_per_thread: 3,
            locked_pct,
            tx_pct: 0,
        };
        let program = generate(&config, seed);
        let limits = ExploreLimits {
            max_schedules: 100_000,
            dedup_states: false,
            sleep_sets: sleep,
            dpor: true,
            ..ExploreLimits::default()
        };
        let serial = Explorer::new(&program).limits(limits.clone()).run();
        let par = ParExplorer::new(&program).limits(limits).jobs(jobs).run();
        assert_eq!(par.without_wall(), serial.without_wall());
    });
}

/// Invisible-step fusion never changes what is reachable: on racy
/// counters interleaved with yields (the invisible op), the fused
/// search reaches exactly the unfused outcome set — same outcome
/// kinds, same final states — while running no more (and, with
/// yields present, strictly fewer) schedules. Holds with and
/// without DPOR underneath, and the yields guarantee fusion
/// actually fired, so the property cannot pass vacuously.
#[test]
fn fused_outcome_set_equals_unfused() {
    check("fused_outcome_set_equals_unfused", CASES, |case| {
        let threads = case.draw(2usize..=3);
        let yields = case.draw(1usize..=2);
        let dpor = case.draw(0u8..2) == 1;
        static NAMES: [&str; 3] = ["w0", "w1", "w2"];
        let mut b = ProgramBuilder::new("yielding");
        let v = b.var("counter", 0);
        for name in NAMES.iter().take(threads) {
            let mut body = vec![Stmt::read(v, "tmp")];
            for _ in 0..yields {
                body.push(Stmt::Yield);
            }
            body.push(Stmt::write(v, Expr::local("tmp") + Expr::lit(1)));
            b.thread(name, body);
        }
        b.final_assert(
            Expr::shared(v).eq(Expr::lit(threads as i64)),
            "all increments kept",
        );
        let program = b.build().expect("builds");
        let limits = |fuse: bool| ExploreLimits {
            dpor,
            fuse,
            ..ExploreLimits::default()
        };
        let terminals =
            |limits: ExploreLimits| Explorer::new(&program).limits(limits).run_outcome_set();
        let (base, base_set) = terminals(limits(false));
        let (fused, fused_set) = terminals(limits(true));
        assert!(base_set.is_some());
        assert!(fused_set.is_some());
        assert_eq!(&fused_set, &base_set);
        assert!(
            fused.schedules_run < base.schedules_run,
            "fusion left the schedule count at {} despite {} yields per thread",
            fused.schedules_run,
            yields
        );
        assert!(fused.stats.fused_steps > 0, "no steps fused: vacuous run");
    });
}

#[test]
fn parallel_explorer_counts_are_multinomial_too() {
    // The straight-line combinatorics of `explorer_counts_are_multinomial`
    // survive frontier sharding: with dedup off every interleaving is
    // enumerated exactly once, so the closed-form count must match at
    // every worker count.
    for threads in 2..=3usize {
        let program = racy_counter(threads, 1);
        let expected = multinomial(&vec![2; threads]);
        for jobs in [1, 2, 4] {
            let report = ParExplorer::new(&program).jobs(jobs).run();
            assert_eq!(report.schedules_run, expected, "jobs={jobs}");
            assert!(!report.truncated);
        }
    }
}

#[test]
fn lost_update_bound_matches_thread_count() {
    // With n racing single-increment threads, the final counter is
    // between 1 and n across all interleavings — and both bounds are
    // attained.
    for n in 2..=3 {
        let program = racy_counter(n, 1);
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        Explorer::new(&program).run_with_callback(|exec, outcome| {
            assert!(matches!(outcome, Outcome::Ok), "no asserts in this program");
            min = min.min(exec.vars()[0]);
            max = max.max(exec.vars()[0]);
        });
        assert_eq!(min, 1, "maximal loss: everyone reads 0");
        assert_eq!(max, n as i64, "serial execution keeps all increments");
    }
}

#[test]
fn recording_does_not_change_outcomes() {
    let program = racy_counter(2, 2);
    let schedule: Schedule = {
        let mut e = Executor::new(&program);
        e.run_with(1000, |enabled| *enabled.last().unwrap());
        e.schedule_taken().clone()
    };
    let mut plain = Executor::new(&program);
    let out_plain = plain.replay(&schedule, 1000);
    let mut recorded = Executor::with_record(&program, RecordMode::Full);
    let out_recorded = recorded.replay(&schedule, 1000);
    assert_eq!(out_plain, out_recorded);
    assert_eq!(plain.vars(), recorded.vars());
}

#[test]
fn property_runner_reports_the_failing_case() {
    // Case `i` draws from the stream seeded with `i`, so a property that
    // rejects exactly case 3's first word fails at case 3, with that word
    // as its only draw.
    let poisoned = learning_from_mistakes::sim::SplitMix64::new(3).next_u64();
    let property = |case: &mut support::Case| assert_ne!(case.draw(0..=u64::MAX), poisoned);
    let failure = support::run(10, property).expect_err("case 3 fails");
    assert_eq!(failure.case, 3);
    assert_eq!(failure.drawn, [poisoned.to_string()]);
    assert!(support::run(3, property).is_ok());
}
