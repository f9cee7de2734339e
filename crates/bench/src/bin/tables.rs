//! The table/figure regenerator.
//!
//! ```text
//! cargo run -p lfm-bench --bin tables              # everything
//! cargo run -p lfm-bench --bin tables -- --only t3 # one artifact
//! cargo run -p lfm-bench --bin tables -- --markdown
//! cargo run -p lfm-bench --bin tables -- --json obs.json # metrics snapshot
//! cargo run -p lfm-bench --bin tables -- --bench-explore BENCH_explore.json
//! cargo run -p lfm-bench --bin tables -- --check-explore BENCH_explore.json
//! cargo run -p lfm-bench --bin tables -- --bench-serve BENCH_serve.json
//! cargo run -p lfm-bench --bin tables -- --check-serve BENCH_serve.json
//! ```
//!
//! `--bench-explore` runs the E-perf sweep and the reduction ledger
//! behind E-dpor and E-fuse (once each) at their reference budgets and
//! writes the `lfm-bench-explore/v1` document; CI uploads it as an
//! artifact. `--check-explore` reruns them and exits non-zero when the
//! DPOR gate fails (outcome-set divergence from full enumeration, or
//! less than the 2x schedule-reduction floor on the two deepest
//! kernels), when the fuse gate fails (fused outcome sets diverging
//! from unfused ones, fusion increasing any schedule count, or less
//! than the 1.5x fusion-alone reduction floor on `livelock_retry` /
//! `toctou_flag`)
//! — both deterministic, enforced on every host — or when serial
//! explorer throughput on the gate kernel regressed more than 30%
//! against the committed baseline (skipped on single-core hosts,
//! where the wall clock is too noisy to gate on).
//! `--bench-serve` / `--check-serve` do the same for the E-serve load
//! harness (`lfm-bench-serve/v1`): the check always enforces zero wrong
//! answers and clean drains, and on multi-core hosts additionally gates
//! the chaos-free scenario's requests/sec against the committed
//! baseline plus the tracing overhead — full tracing must keep at
//! least 90% of untraced throughput (best-of-2 each, same host). All
//! four modes run instead of the table regeneration.

use lfm_bench::Artifact;
use lfm_corpus::Corpus;

/// Fraction of the baseline's states/sec the gate kernel must still
/// reach: generous, so only a structural regression of the hot path
/// (not scheduler jitter) trips CI.
const CHECK_FLOOR: f64 = 0.70;

fn bench_explore(path: &str) -> ! {
    let report = lfm_bench::perf_measure(lfm_bench::PERF_BUDGET);
    let ledger = lfm_bench::Ledger::measure(lfm_bench::LEDGER_BUDGET);
    let doc = lfm_bench::perf_json(&report, &ledger);
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("cannot write explore benchmark to `{path}`: {e}");
        std::process::exit(1);
    }
    if let Some(r) = report.row(lfm_bench::PERF_GATE_KERNEL) {
        eprintln!("{}: {:.0} states/sec", r.kernel, r.states_per_sec);
    }
    let mut ok = true;
    for gate in [ledger.dpor_gate(), ledger.fuse_gate()] {
        for r in &gate.rows {
            let outcomes = match r.compared {
                Some(true) => ", outcomes compared",
                Some(false) => ", outcomes truncated",
                None => "",
            };
            eprintln!("{}: {} ({}{outcomes})", r.kernel, r.counts, r.reductions);
        }
        for f in &gate.failures {
            eprintln!("{} gate: {f}", gate.name);
        }
        ok &= gate.failures.is_empty();
    }
    eprintln!("explore benchmark written to {path}");
    std::process::exit(if ok { 0 } else { 1 });
}

fn check_explore(path: &str) -> ! {
    let baseline = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read explore baseline `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let kernel = lfm_bench::PERF_GATE_KERNEL;
    let Some(expected) = lfm_bench::baseline_states_per_sec(&baseline, kernel) else {
        eprintln!("baseline `{path}` has no states_per_sec for `{kernel}`");
        std::process::exit(1);
    };
    // The DPOR and fuse gates first: schedule counts and outcome sets
    // are deterministic, so unlike the throughput floor below they hold
    // on every host, single-core included.
    let ledger = lfm_bench::Ledger::measure(lfm_bench::LEDGER_BUDGET);
    for gate in [ledger.dpor_gate(), ledger.fuse_gate()] {
        for r in &gate.rows {
            let drift = match lfm_bench::baseline_gate_schedules(&baseline, gate.name, r.kernel) {
                Some(expected) if expected != r.schedules => format!(
                    " (baseline ran {expected} — search semantics drifted; \
                     regenerate with --bench-explore if intentional)"
                ),
                Some(_) => String::new(),
                None => format!(" (no {} baseline committed)", gate.name),
            };
            eprintln!("{}: {}, {}{drift}", r.kernel, r.counts, r.reductions);
        }
        if !gate.failures.is_empty() {
            for f in &gate.failures {
                eprintln!("{} gate: {f}", gate.name);
            }
            std::process::exit(1);
        }
        eprintln!("{} gate passed", gate.name);
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        eprintln!("single-core host: skipping the throughput gate (measured rates are noise here)");
        std::process::exit(0);
    }
    let report = lfm_bench::perf_measure(lfm_bench::PERF_BUDGET);
    let measured = report.row(kernel).map_or(0.0, |r| r.states_per_sec);
    let floor = expected * CHECK_FLOOR;
    eprintln!(
        "{kernel}: measured {measured:.0} states/sec, baseline {expected:.0}, floor {floor:.0}"
    );
    if measured < floor {
        eprintln!("serial explorer throughput regressed more than 30% — investigate the hot path");
        std::process::exit(1);
    }
    eprintln!("throughput gate passed");
    std::process::exit(0);
}

/// Fraction of the baseline's requests/sec the chaos-free load
/// scenario must still reach. Service throughput swings with the host
/// far more than the serial hot path (thread scheduling, loopback
/// latency), so the floor is very generous: only a structural
/// regression — an accidental serialization, an unbounded queue, a
/// cache that stopped hitting — trips it.
const SERVE_CHECK_FLOOR: f64 = 0.50;

/// Fraction of untraced requests/sec the fully-traced service must
/// keep (best-of-2 each, same host, same run). Tracing sells itself as
/// a strict observer; more than 10% throughput tax means it has grown
/// a lock, an allocation, or a syscall on the hot path.
const SERVE_TRACE_FLOOR: f64 = 0.90;

fn bench_serve(path: &str) -> ! {
    let report = lfm_bench::serve_measure();
    let doc = lfm_bench::serve_json(&report);
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("cannot write serve benchmark to `{path}`: {e}");
        std::process::exit(1);
    }
    for r in &report.rows {
        eprintln!(
            "{}: {}/{} ok, {} wrong, hit rate {:.2}, shed rate {:.2}, \
             p50 {} us, p99 {} us, {:.0} req/sec, drain {}",
            r.scenario,
            r.ok,
            r.requests,
            r.wrong,
            r.hit_rate,
            r.shed_rate,
            r.p50_us,
            r.p99_us,
            r.requests_per_sec,
            if r.clean_drain { "clean" } else { "UNCLEAN" }
        );
    }
    eprintln!("serve benchmark written to {path}");
    std::process::exit(if report.all_correct() { 0 } else { 1 });
}

fn check_serve(path: &str) -> ! {
    let baseline = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read serve baseline `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let scenario = lfm_bench::SERVE_GATE_SCENARIO;
    let Some(expected) = lfm_bench::baseline_requests_per_sec(&baseline, scenario) else {
        eprintln!("baseline `{path}` has no requests_per_sec for `{scenario}`");
        std::process::exit(1);
    };
    let report = lfm_bench::serve_measure();
    // The correctness half of the gate holds on every host, single-core
    // included: no wrong answers, no unclean drains, under load and
    // under chaos.
    for r in &report.rows {
        eprintln!(
            "{}: {}/{} ok, {} wrong, {:.0} req/sec, drain {}",
            r.scenario,
            r.ok,
            r.requests,
            r.wrong,
            r.requests_per_sec,
            if r.clean_drain { "clean" } else { "UNCLEAN" }
        );
    }
    if !report.all_correct() {
        eprintln!("serve correctness gate failed: wrong answers or an unclean drain");
        std::process::exit(1);
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        eprintln!("single-core host: skipping the serve throughput gate (rates are noise here)");
        std::process::exit(0);
    }
    let measured = report
        .row(scenario)
        .map(|r| r.requests_per_sec)
        .unwrap_or(0.0);
    let floor = expected * SERVE_CHECK_FLOOR;
    eprintln!(
        "{scenario}: measured {measured:.0} req/sec, baseline {expected:.0}, floor {floor:.0}"
    );
    if measured < floor {
        eprintln!("serve throughput regressed more than 50% — investigate the service path");
        std::process::exit(1);
    }
    // The tracing-overhead half: full tracing (span capture, ring,
    // slow gate at 0 ms) must keep >= SERVE_TRACE_FLOOR of the
    // untraced requests/sec. Both sides are measured best-of-2 in this
    // run on this host, so the ratio cancels the host out.
    let (traced, untraced) = lfm_bench::trace_overhead_measure();
    let ratio = if untraced > 0.0 {
        traced / untraced
    } else {
        0.0
    };
    eprintln!(
        "tracing overhead: traced {traced:.0} req/sec vs untraced {untraced:.0} \
         ({ratio:.2}x, floor {SERVE_TRACE_FLOOR:.2}x)"
    );
    if ratio < SERVE_TRACE_FLOOR {
        eprintln!("full tracing taxes throughput more than 10% — the observer is no longer cheap");
        std::process::exit(1);
    }
    eprintln!("serve gate passed");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let value = |flag: &str| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1)
    };
    let only = value("--only");
    let json_path = value("--json");
    if let Some(path) = value("--bench-explore") {
        bench_explore(path);
    }
    if let Some(path) = value("--check-explore") {
        check_explore(path);
    }
    if let Some(path) = value("--bench-serve") {
        bench_serve(path);
    }
    if let Some(path) = value("--check-serve") {
        check_serve(path);
    }

    if let Some(path) = json_path {
        let snapshot = lfm_bench::obs_snapshot();
        if let Err(e) = std::fs::write(path, snapshot) {
            eprintln!("cannot write metrics snapshot to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics snapshot written to {path}");
    }

    let corpus = Corpus::full();

    let artifacts: Vec<Artifact> = match only {
        Some(sel) => match Artifact::parse(sel) {
            Some(a) => vec![a],
            None => {
                eprintln!(
                    "unknown artifact `{sel}`; expected t1..t9, f1..f5, \
                     escope, edetect, etm, echaos, epar, eperf, edpor, efuse, \
                     ewit, eobs, eserve, or findings"
                );
                std::process::exit(2);
            }
        },
        None => Artifact::all(),
    };

    println!("LEARNING FROM MISTAKES — table & figure regenerator");
    println!(
        "corpus: {} bugs (74 non-deadlock, 31 deadlock)\n",
        corpus.len()
    );
    // Panic isolation: one broken generator degrades the run (non-zero
    // exit, FAILED marker) but every other artifact still regenerates.
    let mut failed = 0usize;
    for artifact in artifacts {
        match artifact.render_isolated(&corpus, markdown) {
            Ok(rendered) => println!("{rendered}"),
            Err(payload) => {
                failed += 1;
                eprintln!("FAILED {}: {payload}", artifact.id());
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} artifact(s) failed to render");
        std::process::exit(1);
    }
}
