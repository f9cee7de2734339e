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
use lfm_obs::json;
use lfm_sim::{ExploreLimits, ExploreReport, Explorer};
use lfm_study::Table;

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

/// Field-for-field report equality, ignoring only the measured wall
/// time.
pub(crate) fn reports_identical(a: &ExploreReport, b: &ExploreReport) -> bool {
    a.counts == b.counts
        && a.schedules_run == b.schedules_run
        && a.steps_total == b.steps_total
        && a.truncated == b.truncated
        && a.first_failure == b.first_failure
        && a.first_ok == b.first_ok
        && a.states_deduped == b.states_deduped
        && a.sleep_pruned == b.sleep_pruned
        && a.truncation == b.truncation
        && a.stats.branch_points == b.stats.branch_points
        && a.stats.snapshots == b.stats.snapshots
        && a.stats.max_depth == b.stats.max_depth
        && a.stats.preemption_limited == b.stats.preemption_limited
        && a.est_total_schedules.to_bits() == b.est_total_schedules.to_bits()
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
/// (`lfm-bench-explore/v1`). The `dpor` and `fuse` sections are
/// additive to the schema: older documents simply lack them, and
/// [`baseline_dpor_schedules`] / [`baseline_fused_schedules`] return
/// `None` on them.
pub fn perf_json(
    report: &PerfReport,
    dpor: &crate::dpor::DporReport,
    fuse: &crate::fuse::FuseReport,
) -> String {
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
    out.push_str("],\"dpor\":{");
    let _ = write!(
        out,
        "\"budget\":{},\"floor\":{},\"rows\":[",
        dpor.budget,
        json::number_f64(crate::dpor::DPOR_FLOOR),
    );
    for (i, r) in dpor.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kernel\":{},\"family\":{},\"max_depth\":{},\"full_schedules\":{},\
             \"full_complete\":{},\"dpor_schedules\":{},\"dpor_complete\":{},\
             \"reduction\":{},\"compared\":{},\"outcomes_match\":{}}}",
            json::quote(r.kernel),
            json::quote(&r.family),
            r.max_depth,
            r.full_schedules,
            r.full_complete,
            r.dpor_schedules,
            r.dpor_complete,
            json::number_f64(r.reduction),
            r.compared,
            r.outcomes_match,
        );
    }
    out.push_str("]},\"fuse\":{");
    let _ = write!(
        out,
        "\"budget\":{},\"floor\":{},\"rows\":[",
        fuse.budget,
        json::number_f64(crate::fuse::FUSE_FLOOR),
    );
    for (i, r) in fuse.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kernel\":{},\"family\":{},\"base_schedules\":{},\"base_complete\":{},\
             \"fused_schedules\":{},\"fused_complete\":{},\"fused_steps\":{},\
             \"reduction\":{},\"dpor_schedules\":{},\"dpor_complete\":{},\
             \"dpor_fused_schedules\":{},\"dpor_fused_complete\":{},\
             \"composed_reduction\":{},\"compared\":{},\"outcomes_match\":{},\
             \"dpor_compared\":{},\"dpor_outcomes_match\":{}}}",
            json::quote(r.kernel),
            json::quote(&r.family),
            r.base_schedules,
            r.base_complete,
            r.fused_schedules,
            r.fused_complete,
            r.fused_steps,
            json::number_f64(r.reduction),
            r.dpor_schedules,
            r.dpor_complete,
            r.dpor_fused_schedules,
            r.dpor_fused_complete,
            json::number_f64(r.composed_reduction),
            r.compared,
            r.outcomes_match,
            r.dpor_compared,
            r.dpor_outcomes_match,
        );
    }
    out.push_str("]}}");
    out
}

/// Extracts the committed DPOR schedule count for `kernel` from a
/// `BENCH_explore.json` document. Schedule counts are deterministic,
/// so `--check-explore` can flag drift against the baseline exactly —
/// drift means the search semantics changed, which is fine only when
/// it is intentional (regenerate with `--bench-explore`). Returns
/// `None` for documents predating the `dpor` section.
pub fn baseline_dpor_schedules(doc: &str, kernel: &str) -> Option<u64> {
    let dpor = doc.find("\"dpor\":")?;
    let tail = &doc[dpor..];
    let marker = format!("\"kernel\":{}", json::quote(kernel));
    let at = tail.find(&marker)?;
    object_field(&tail[at..], "dpor_schedules").map(|v| v as u64)
}

/// Extracts the committed fused schedule count for `kernel` from a
/// `BENCH_explore.json` document, for the same deterministic drift
/// check [`baseline_dpor_schedules`] gives DPOR. Returns `None` for
/// documents predating the `fuse` section.
pub fn baseline_fused_schedules(doc: &str, kernel: &str) -> Option<u64> {
    let fuse = doc.find("\"fuse\":")?;
    let tail = &doc[fuse..];
    let marker = format!("\"kernel\":{}", json::quote(kernel));
    let at = tail.find(&marker)?;
    object_field(&tail[at..], "fused_schedules").map(|v| v as u64)
}

/// Extracts the gate throughput for `kernel` — its sweep row's
/// `"states_per_sec"` — from a `BENCH_explore.json` document without a
/// JSON parser. The sweep rows come first in the document, so the
/// `dpor` and `fuse` rows naming the same kernel are never read.
/// Returns `None` when the kernel or field is missing or malformed.
pub fn baseline_states_per_sec(doc: &str, kernel: &str) -> Option<f64> {
    let at = doc.find(&format!("\"kernel\":{}", json::quote(kernel)))?;
    object_field(&doc[at..], "states_per_sec")
}

/// Reads `"name":<number>` inside the object fragment starting at
/// `rest` (everything up to the first `}`). Shared with the E-serve
/// baseline extractor, which reads the same committed-JSON shape.
pub(crate) fn object_field(rest: &str, name: &str) -> Option<f64> {
    let obj = &rest[..rest.find('}')?];
    let needle = format!("\"{name}\":");
    let field = obj.find(&needle)?;
    let val = &obj[field + needle.len()..];
    let end = val
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(val.len());
    val[..end].parse().ok()
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
        let report = perf_measure(100);
        let dpor = crate::dpor::dpor_measure(500);
        let fuse = crate::fuse::fuse_measure(500);
        let doc = perf_json(&report, &dpor, &fuse);
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
        let gate = dpor.row(PERF_GATE_KERNEL).expect("gate kernel measured");
        assert_eq!(
            baseline_dpor_schedules(&doc, PERF_GATE_KERNEL),
            Some(gate.dpor_schedules)
        );
        assert_eq!(baseline_dpor_schedules(&doc, "no_such_kernel"), None);
        assert_eq!(baseline_dpor_schedules("{}", PERF_GATE_KERNEL), None);
        // The fuse section round-trips exactly too.
        let fuse_gate = fuse.row(PERF_GATE_KERNEL).expect("gate kernel measured");
        assert_eq!(
            baseline_fused_schedules(&doc, PERF_GATE_KERNEL),
            Some(fuse_gate.fused_schedules)
        );
        assert_eq!(baseline_fused_schedules(&doc, "no_such_kernel"), None);
        assert_eq!(baseline_fused_schedules("{}", PERF_GATE_KERNEL), None);
        // The sweep extractor must not be confused by the dpor or fuse
        // rows that mention the same kernel ids further down the
        // document.
        assert!(baseline_states_per_sec(&doc, PERF_GATE_KERNEL).is_some());
    }
}
