//! E-perf: exploration hot-path throughput.
//!
//! The serial explorer's inner loop clones the executor once per
//! explored choice and probes the dedup set once per visited state.
//! Snapshots share heavy state through `Arc` (copy-on-write), and the
//! dedup key is a lazily repaired fingerprint. This experiment sweeps
//! every kernel's buggy variant under the explorer (dedup on, schedule
//! budget capped) and records states/second, wall time and depth per
//! kernel. The gate kernel's row keeps the fastest of a few runs, so
//! the CI throughput gate compares a stable figure.
//!
//! Throughput is a host property; like E-par, the numbers are recorded
//! next to `host_parallelism`. The speedup over the pre-copy-on-write
//! representation is a historical result (EXPERIMENTS.md, E-perf).

use lfm_kernels::registry;
use lfm_obs::json::{self, Json};
use lfm_sim::{ExploreLimits, Explorer};
use lfm_study::Table;

use crate::ledger::Ledger;

/// Schedule budget used for the committed `BENCH_explore.json`
/// baseline and the CI regression check (kept in one place so the two
/// always measure the same workload).
pub const PERF_BUDGET: u64 = 2_000;

/// Schema identifier embedded in the `BENCH_explore.json` document.
pub const BENCH_EXPLORE_SCHEMA: &str = "lfm-bench-explore/v1";

/// The kernel the CI regression gate watches: the largest state space
/// in the registry, so its exploration always exhausts the budget and
/// every run does the same amount of work.
pub const PERF_GATE_KERNEL: &str = "livelock_retry";

/// Timed runs of the gate kernel; its sweep row keeps the fastest (see
/// `perf_measure`).
const GATE_REPS: usize = 3;

/// One kernel's sweep measurement under the optimized explorer.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// The kernel's bug family.
    pub family: String,
    /// Schedules the exploration ran.
    pub schedules: u64,
    /// Total visible steps (states visited) across all executions.
    pub steps: u64,
    /// Wall-clock time of the exploration, microseconds.
    pub wall_us: u64,
    /// States visited per second (`steps / wall`).
    pub states_per_sec: f64,
    /// Deepest DFS stack observed.
    pub max_depth: u64,
}

/// The full E-perf measurement.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Schedule budget each exploration was capped at.
    pub budget: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Per-kernel sweep, in registry order.
    pub rows: Vec<PerfRow>,
}

impl PerfReport {
    /// The sweep row for `kernel`, if that kernel was measured.
    pub fn row(&self, kernel: &str) -> Option<&PerfRow> {
        self.rows.iter().find(|r| r.kernel == kernel)
    }
}

fn explore_limits(max_schedules: u64) -> ExploreLimits {
    ExploreLimits {
        max_schedules,
        dedup_states: true,
        ..ExploreLimits::default()
    }
}

/// Runs the E-perf sweep.
pub fn perf_measure(max_schedules: u64) -> PerfReport {
    let limits = explore_limits(max_schedules);

    let mut rows = Vec::new();
    for kernel in registry::all() {
        let program = kernel.buggy();
        // The gate kernel keeps its fastest of GATE_REPS runs: single
        // runs on a busy host swing by 2x and more, and the minimum is
        // the standard estimate of what the code costs rather than what
        // the scheduler did that millisecond.
        let reps = if kernel.id == PERF_GATE_KERNEL {
            GATE_REPS
        } else {
            1
        };
        let report = (0..reps)
            .map(|_| Explorer::new(&program).limits(limits.clone()).run())
            .min_by_key(|r| r.stats.wall)
            .expect("at least one run");
        let wall_us = report.stats.wall.as_micros() as u64;
        rows.push(PerfRow {
            kernel: kernel.id,
            family: kernel.family.to_string(),
            schedules: report.schedules_run,
            steps: report.steps_total,
            wall_us,
            states_per_sec: report.states_per_sec(),
            max_depth: report.stats.max_depth,
        });
    }

    PerfReport {
        budget: max_schedules,
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        rows,
    }
}

/// Renders the measurement as the E-perf table: one sweep row per
/// kernel.
pub fn perf_table(max_schedules: u64) -> Table {
    let report = perf_measure(max_schedules);
    let mut t = Table::new(
        "E-perf",
        format!(
            "Exploration hot-path throughput ({} kernels, budget {}, host parallelism {})",
            report.rows.len(),
            report.budget,
            report.host_parallelism
        ),
        vec!["kernel", "family", "schedules", "states/sec", "depth"],
    );
    for r in &report.rows {
        t.row(vec![
            r.kernel.to_string(),
            r.family.clone(),
            r.schedules.to_string(),
            format!("{:.0}", r.states_per_sec),
            r.max_depth.to_string(),
        ]);
    }
    t.note("states/sec = visible steps / wall");
    t.note(
        "throughput is a host property (see BENCH_explore.json for the \
         committed reference run)",
    );
    t
}

/// Serializes the measurement as the `BENCH_explore.json` document
/// (`lfm-bench-explore/v1`): the sweep rows, then the ledger's `dpor`
/// and `fuse` sections (see [`Ledger::write_json`]).
pub fn perf_json(report: &PerfReport, ledger: &Ledger) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":{},\"budget\":{},\"host_parallelism\":{}",
        json::quote(BENCH_EXPLORE_SCHEMA),
        report.budget,
        report.host_parallelism
    );
    out.push_str(",\"kernels\":[");
    for (i, r) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kernel\":{},\"family\":{},\"schedules\":{},\"steps\":{},\"wall_us\":{},\
             \"states_per_sec\":{},\"max_depth\":{}}}",
            json::quote(r.kernel),
            json::quote(&r.family),
            r.schedules,
            r.steps,
            r.wall_us,
            json::number_f64(r.states_per_sec),
            r.max_depth,
        );
    }
    out.push(']');
    ledger.write_json(&mut out);
    out.push('}');
    out
}

/// Extracts the gate throughput for `kernel` — its sweep row's
/// `"states_per_sec"` — from a `BENCH_explore.json` document. Returns
/// `None` when the document, the kernel or the field is missing or
/// malformed.
pub fn baseline_states_per_sec(doc: &str, kernel: &str) -> Option<f64> {
    baseline_field(doc, &["kernels"], ("kernel", kernel), "states_per_sec")?.as_f64()
}

/// Reads `field` of the row whose `key` member equals the given string
/// in the array at `path` of a committed baseline document. Shared by
/// the explore and serve baseline readers; `None` when the document
/// does not parse or lacks the array, the row or the field.
pub(crate) fn baseline_field(
    doc: &str,
    path: &[&str],
    (key, value): (&str, &str),
    field: &str,
) -> Option<Json> {
    let doc = Json::parse(doc).ok()?;
    let rows = path.iter().try_fold(&doc, |node, name| node.get(name))?;
    let row = rows
        .as_array()?
        .iter()
        .find(|row| row.get(key).and_then(Json::as_str) == Some(value))?;
    row.get(field).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Timing columns vary with the host, so the stable assertions are
    // the sweep coverage and the deterministic accounting columns.
    #[test]
    fn sweep_covers_every_kernel() {
        let report = perf_measure(150);
        assert_eq!(report.rows.len(), registry::all().len());
        for r in &report.rows {
            assert!(r.schedules > 0, "{}: no schedules", r.kernel);
            assert!(r.steps > 0, "{}: no steps", r.kernel);
        }
        assert!(report.row(PERF_GATE_KERNEL).is_some(), "gate kernel swept");
    }

    #[test]
    fn perf_table_has_expected_shape() {
        let t = perf_table(100);
        assert_eq!(t.id, "E-perf");
        assert_eq!(t.len(), registry::all().len(), "one row per kernel");
    }

    #[test]
    fn json_round_trips_the_gate_kernel() {
        use crate::ledger::baseline_gate_schedules;
        let report = perf_measure(100);
        let ledger = Ledger::measure(500);
        let doc = perf_json(&report, &ledger);
        assert!(doc.starts_with("{\"schema\":\"lfm-bench-explore/v1\""));
        let opens = doc.matches('{').count() + doc.matches('[').count();
        let closes = doc.matches('}').count() + doc.matches(']').count();
        assert_eq!(opens, closes);
        let expected = report
            .row(PERF_GATE_KERNEL)
            .expect("gate kernel measured")
            .states_per_sec;
        let parsed = baseline_states_per_sec(&doc, PERF_GATE_KERNEL).expect("field extracted");
        // number_f64 formats with finite precision; match loosely.
        let rel = (parsed - expected).abs() / expected.max(1.0);
        assert!(rel < 0.01, "parsed {parsed} vs measured {expected}");
        assert_eq!(baseline_states_per_sec(&doc, "no_such_kernel"), None);
        assert_eq!(baseline_states_per_sec("{}", PERF_GATE_KERNEL), None);
        // The dpor section round-trips exactly (counts are integers).
        let gate = ledger.row(PERF_GATE_KERNEL).expect("gate kernel measured");
        assert_eq!(
            baseline_gate_schedules(&doc, "dpor", PERF_GATE_KERNEL),
            Some(gate.dpor.schedules)
        );
        assert_eq!(
            baseline_gate_schedules(&doc, "dpor", "no_such_kernel"),
            None
        );
        assert_eq!(
            baseline_gate_schedules("{}", "dpor", PERF_GATE_KERNEL),
            None
        );
        // The fuse section round-trips exactly too.
        assert_eq!(
            baseline_gate_schedules(&doc, "fuse", PERF_GATE_KERNEL),
            Some(gate.full_fused.schedules)
        );
        assert_eq!(
            baseline_gate_schedules(&doc, "fuse", "no_such_kernel"),
            None
        );
        assert_eq!(
            baseline_gate_schedules("{}", "fuse", PERF_GATE_KERNEL),
            None
        );
        // The sweep extractor must not be confused by the dpor or fuse
        // rows that mention the same kernel ids further down the
        // document.
        assert!(baseline_states_per_sec(&doc, PERF_GATE_KERNEL).is_some());
    }
}
