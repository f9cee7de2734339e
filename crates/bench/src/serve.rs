//! E-serve: the model-checking service under a gated load harness.
//!
//! Two closed-loop load scenarios against an in-process [`lfm_serve`]
//! server, both fully seeded:
//!
//! 1. **no-chaos** — clients talk straight to the server; this is the
//!    throughput reference committed as `BENCH_serve.json` and gated by
//!    `--check-serve`;
//! 2. **chaos** — the same load behind a seeded [`ChaosProxy`]
//!    (drops, stalls, duplicates, truncations, mid-frame resets); the
//!    gate here is not speed but the robustness contract: **zero wrong
//!    answers**, explicit sheds instead of unbounded queues, and a
//!    clean drain.
//!
//! Like E-perf and E-par, the latency/throughput columns are host
//! properties recorded next to `host_parallelism`; the correctness
//! columns (`wrong`, `clean`) are the part that must hold everywhere.

use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{json, NoopSink};
use lfm_serve::{ChaosProxy, LevelCaps, LoadConfig, NetFaultPlan, Server, ServerConfig};
use lfm_study::Table;

/// Schema identifier embedded in the `BENCH_serve.json` document.
pub const BENCH_SERVE_SCHEMA: &str = "lfm-bench-serve/v1";

/// Load seed shared by the mix, the retry jitter, and the chaos proxy.
pub const SERVE_SEED: u64 = 42;

/// Client threads per scenario.
const SERVE_CLIENTS: usize = 8;

/// Requests each client issues.
const SERVE_REQUESTS_PER_CLIENT: usize = 15;

/// The scenario name whose throughput the CI gate watches: the
/// chaos-free run, where requests/sec measures the service rather than
/// the injected faults.
pub const SERVE_GATE_SCENARIO: &str = "no-chaos";

/// The chaos-free run with every tracing knob on (`trace` plus a
/// zero-threshold slow gate): the numerator of the tracing-overhead
/// gate. Tracing claims to be a strict observer; this row is where the
/// claim is priced.
pub const SERVE_TRACE_SCENARIO: &str = "traced";

/// One load scenario's measurement.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Scenario name (`no-chaos` or `chaos-<seed>`).
    pub scenario: String,
    /// Requests issued.
    pub requests: u64,
    /// Requests answered `ok` (possibly after retries).
    pub ok: u64,
    /// Requests that exhausted their retries.
    pub failed: u64,
    /// Wrong answers (must be 0 — see `lfm_serve::load`).
    pub wrong: u64,
    /// Cache hit rate over `ok` answers.
    pub hit_rate: f64,
    /// Fraction of attempts answered with a shed.
    pub shed_rate: f64,
    /// p50 request latency, microseconds (retries included).
    pub p50_us: u64,
    /// p99 request latency, microseconds (retries included).
    pub p99_us: u64,
    /// Completed requests per wall second.
    pub requests_per_sec: f64,
    /// Client-side retries across all requests (attempts beyond each
    /// request's first try).
    pub retries_total: u64,
    /// The worst single request's retry count.
    pub max_retries: u64,
    /// Server-side admissions per degrade level (exhaustive,
    /// sleep-set, preemption-bounded, pct-sampling).
    pub degrade: [u64; 4],
    /// Network faults the chaos proxy injected (0 without a proxy).
    pub faults_injected: u64,
    /// Whether the server drained cleanly at shutdown.
    pub clean_drain: bool,
}

/// The full E-serve measurement.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Load seed every scenario shares.
    pub seed: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Scenario rows: no-chaos first, then chaos.
    pub rows: Vec<ServeRow>,
}

impl ServeReport {
    /// The row for `scenario`, if measured.
    pub fn row(&self, scenario: &str) -> Option<&ServeRow> {
        self.rows.iter().find(|r| r.scenario == scenario)
    }

    /// `true` when every scenario upheld the robustness contract:
    /// zero wrong answers and a clean drain.
    pub fn all_correct(&self) -> bool {
        self.rows.iter().all(|r| r.wrong == 0 && r.clean_drain)
    }
}

/// A bench-sized server: small pool, small queue, small exploration
/// caps — enough to engage the cache, the ladder, and the shed path
/// without turning the measurement into an exploration benchmark.
fn bench_server_config(traced: bool) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_cap: 16,
        caps: LevelCaps {
            max_steps: 2_000,
            max_schedules: 2_000,
        },
        trace: traced,
        trace_slow_ms: if traced { Some(0) } else { None },
        ..ServerConfig::default()
    }
}

/// Runs one scenario: in-process server (fully traced when `traced`),
/// optional chaos proxy, closed load loop, graceful drain.
fn run_scenario(chaos_net: Option<u64>, seed: u64, traced: bool) -> std::io::Result<ServeRow> {
    let handle = Server::start(bench_server_config(traced), Arc::new(NoopSink))?;
    let proxy = match chaos_net {
        Some(chaos_seed) => Some(ChaosProxy::start(
            NetFaultPlan::new(chaos_seed),
            handle.addr(),
        )?),
        None => None,
    };
    let target = proxy.as_ref().map_or(handle.addr(), |p| p.addr());
    let load = LoadConfig {
        clients: SERVE_CLIENTS,
        requests_per_client: SERVE_REQUESTS_PER_CLIENT,
        seed,
        attempts: 10,
        timeout: Duration::from_secs(30),
        ..LoadConfig::default()
    };
    let report = lfm_serve::run_load(target, &load);
    let faults_injected = match proxy {
        Some(proxy) => {
            let stats = proxy.stats();
            proxy.stop();
            stats.total_injected()
        }
        None => 0,
    };
    let degrade = handle.stats().degrade_histogram();
    handle.request_shutdown();
    let summary = handle.wait();
    Ok(ServeRow {
        scenario: match (chaos_net, traced) {
            (Some(chaos_seed), _) => format!("chaos-{chaos_seed}"),
            (None, true) => SERVE_TRACE_SCENARIO.to_owned(),
            (None, false) => SERVE_GATE_SCENARIO.to_owned(),
        },
        requests: report.requests,
        ok: report.ok,
        failed: report.failed,
        wrong: report.wrong,
        hit_rate: report.hit_rate(),
        shed_rate: report.shed_rate(),
        p50_us: report.latency.p50(),
        p99_us: report.latency.p99(),
        requests_per_sec: report.requests_per_sec(),
        retries_total: report.retries_total,
        max_retries: report.max_retries,
        degrade,
        faults_injected,
        clean_drain: summary.clean,
    })
}

/// Runs the full E-serve measurement: the chaos-free reference, the
/// same load with full tracing on, then the chaos scenario at the
/// shared seed.
pub fn serve_measure() -> ServeReport {
    let mut rows = Vec::new();
    for (chaos_net, traced) in [(None, false), (None, true), (Some(SERVE_SEED), false)] {
        match run_scenario(chaos_net, SERVE_SEED, traced) {
            Ok(row) => rows.push(row),
            Err(e) => panic!("E-serve scenario failed to start: {e}"),
        }
    }
    ServeReport {
        seed: SERVE_SEED,
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        rows,
    }
}

/// Best-of-2 chaos-free requests/sec with full tracing on vs off —
/// the inputs of the `--check-serve` tracing-overhead gate. Best-of
/// rather than mean because the gate hunts a structural cost (a lock
/// on the hot path, an allocation per span), not scheduler weather.
pub fn trace_overhead_measure() -> (f64, f64) {
    let best = |traced: bool| -> f64 {
        (0..2)
            .map(|_| match run_scenario(None, SERVE_SEED, traced) {
                Ok(row) => row.requests_per_sec,
                Err(e) => panic!("E-serve overhead scenario failed to start: {e}"),
            })
            .fold(0.0, f64::max)
    };
    // Interleaving would be fairer under thermal drift, but the runs
    // are short; keep the order deterministic and obvious.
    let traced = best(true);
    let untraced = best(false);
    (traced, untraced)
}

/// Renders the measurement as the E-serve table.
pub fn serve_table() -> Table {
    let report = serve_measure();
    let mut t = Table::new(
        "E-serve",
        format!(
            "Model-checking service under load (seed {}, {} clients x {} requests, \
             host parallelism {})",
            report.seed, SERVE_CLIENTS, SERVE_REQUESTS_PER_CLIENT, report.host_parallelism
        ),
        vec![
            "scenario",
            "ok/requests",
            "wrong",
            "hit rate",
            "shed rate",
            "p50 us",
            "p99 us",
            "req/sec",
            "retries",
            "faults",
            "drain",
        ],
    );
    for r in &report.rows {
        t.row(vec![
            r.scenario.clone(),
            format!("{}/{}", r.ok, r.requests),
            r.wrong.to_string(),
            format!("{:.2}", r.hit_rate),
            format!("{:.2}", r.shed_rate),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            format!("{:.0}", r.requests_per_sec),
            format!("{} (max {})", r.retries_total, r.max_retries),
            r.faults_injected.to_string(),
            if r.clean_drain { "clean" } else { "UNCLEAN" }.to_string(),
        ]);
    }
    t.note(
        "closed-loop zipf load against an in-process lfm-serve server; the \
         chaos row rides a seeded fault-injecting proxy (drops, stalls, \
         duplicates, truncations, mid-frame resets); `wrong` counts fixed \
         variants reporting failures or buggy kernels falsely proved clean \
         and must be 0 in both rows",
    );
    t.note(
        "latency and req/sec are host properties (see BENCH_serve.json for \
         the committed reference run); wrong=0 and a clean drain are the \
         correctness claim and must hold everywhere",
    );
    t
}

/// Serializes the measurement as the `BENCH_serve.json` document
/// (`lfm-bench-serve/v1`).
pub fn serve_json(report: &ServeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema\":{},\"seed\":{},\"clients\":{},\"requests_per_client\":{},\
         \"host_parallelism\":{}",
        json::quote(BENCH_SERVE_SCHEMA),
        report.seed,
        SERVE_CLIENTS,
        SERVE_REQUESTS_PER_CLIENT,
        report.host_parallelism
    );
    out.push_str(",\"scenarios\":[");
    for (i, r) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"scenario\":{},\"requests\":{},\"ok\":{},\"failed\":{},\"wrong\":{},\
             \"hit_rate\":{},\"shed_rate\":{},\"p50_us\":{},\"p99_us\":{},\
             \"requests_per_sec\":{},\"retries_total\":{},\"max_retries\":{},\
             \"degrade\":[{},{},{},{}],\"faults_injected\":{},\
             \"clean_drain\":{}}}",
            json::quote(&r.scenario),
            r.requests,
            r.ok,
            r.failed,
            r.wrong,
            json::number_f64(r.hit_rate),
            json::number_f64(r.shed_rate),
            r.p50_us,
            r.p99_us,
            json::number_f64(r.requests_per_sec),
            r.retries_total,
            r.max_retries,
            r.degrade[0],
            r.degrade[1],
            r.degrade[2],
            r.degrade[3],
            r.faults_injected,
            r.clean_drain,
        );
    }
    out.push_str("]}");
    out
}

/// Extracts the gate throughput for `scenario` from a
/// `BENCH_serve.json` document. Returns `None` when the document, the
/// scenario or the field is missing or malformed.
pub fn baseline_requests_per_sec(doc: &str, scenario: &str) -> Option<f64> {
    crate::perf::baseline_field(
        doc,
        &["scenarios"],
        ("scenario", scenario),
        "requests_per_sec",
    )?
    .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full two-scenario measurement runs in the `tables` artifact
    // suite and the CI gate; the unit tests here keep to the cheap,
    // deterministic pieces plus one single-scenario smoke.

    #[test]
    fn single_scenario_upholds_the_contract() {
        let row = run_scenario(None, 7, false).expect("scenario runs");
        assert_eq!(row.scenario, SERVE_GATE_SCENARIO);
        assert_eq!(
            row.requests,
            (SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT) as u64
        );
        assert_eq!(row.wrong, 0, "wrong answers without chaos: {row:?}");
        assert!(row.clean_drain, "unclean drain: {row:?}");
        assert_eq!(row.ok + row.failed, row.requests);
        assert!(row.ok > 0);
        assert_eq!(row.faults_injected, 0);
        assert!(
            row.retries_total >= row.max_retries,
            "worst request outran the total: {row:?}"
        );
    }

    #[test]
    fn traced_scenario_is_named_and_upholds_the_contract() {
        let row = run_scenario(None, 7, true).expect("scenario runs");
        assert_eq!(row.scenario, SERVE_TRACE_SCENARIO);
        assert_eq!(row.wrong, 0, "tracing produced wrong answers: {row:?}");
        assert!(row.clean_drain, "unclean drain under tracing: {row:?}");
        assert!(row.ok > 0);
    }

    #[test]
    fn json_round_trips_the_gate_scenario() {
        let report = ServeReport {
            seed: SERVE_SEED,
            host_parallelism: 4,
            rows: vec![
                ServeRow {
                    scenario: SERVE_GATE_SCENARIO.to_owned(),
                    requests: 120,
                    ok: 118,
                    failed: 2,
                    wrong: 0,
                    hit_rate: 0.61,
                    shed_rate: 0.05,
                    p50_us: 900,
                    p99_us: 42_000,
                    requests_per_sec: 812.5,
                    retries_total: 3,
                    max_retries: 2,
                    degrade: [30, 0, 5, 2],
                    faults_injected: 0,
                    clean_drain: true,
                },
                ServeRow {
                    scenario: "chaos-42".to_owned(),
                    requests: 120,
                    ok: 110,
                    failed: 10,
                    wrong: 0,
                    hit_rate: 0.64,
                    shed_rate: 0.08,
                    p50_us: 1_400,
                    p99_us: 90_000,
                    requests_per_sec: 410.0,
                    retries_total: 41,
                    max_retries: 6,
                    degrade: [28, 0, 4, 1],
                    faults_injected: 77,
                    clean_drain: true,
                },
            ],
        };
        let doc = serve_json(&report);
        assert!(doc.starts_with("{\"schema\":\"lfm-bench-serve/v1\""));
        assert!(doc.contains("\"retries_total\":3"), "{doc}");
        assert!(doc.contains("\"max_retries\":6"), "{doc}");
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
        let parsed = baseline_requests_per_sec(&doc, SERVE_GATE_SCENARIO).expect("field extracted");
        assert!((parsed - 812.5).abs() < 0.01, "parsed {parsed}");
        let chaos = baseline_requests_per_sec(&doc, "chaos-42").expect("chaos row extracted");
        assert!((chaos - 410.0).abs() < 0.01, "parsed {chaos}");
        assert_eq!(baseline_requests_per_sec(&doc, "no-such-scenario"), None);
        assert_eq!(baseline_requests_per_sec("{}", SERVE_GATE_SCENARIO), None);
    }

    #[test]
    fn all_correct_rejects_wrong_answers_and_unclean_drains() {
        let mut report = ServeReport {
            seed: 1,
            host_parallelism: 1,
            rows: vec![ServeRow {
                scenario: "x".to_owned(),
                requests: 1,
                ok: 1,
                failed: 0,
                wrong: 0,
                hit_rate: 0.0,
                shed_rate: 0.0,
                p50_us: 1,
                p99_us: 1,
                requests_per_sec: 1.0,
                retries_total: 0,
                max_retries: 0,
                degrade: [1, 0, 0, 0],
                faults_injected: 0,
                clean_drain: true,
            }],
        };
        assert!(report.all_correct());
        report.rows[0].wrong = 1;
        assert!(!report.all_correct());
        report.rows[0].wrong = 0;
        report.rows[0].clean_drain = false;
        assert!(!report.all_correct());
    }
}
