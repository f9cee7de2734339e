//! The reduction ledger behind E-dpor and E-fuse.
//!
//! Two reductions prune the interleaving search: source-set DPOR keeps
//! one representative per Mazurkiewicz trace class plus the backtrack
//! points its race scan proves necessary, and step fusion keeps the
//! running thread moving through invisible ops (yields, asserts whose
//! local-only condition holds) instead of branching there. The ledger
//! runs every kernel's buggy variant once under each of the four
//! searches {full enumeration, DPOR} × {unfused, fused}, with dedup and
//! sleep sets off so the reductions are the only difference, and keeps
//! each search's schedules, completeness, depth, fused steps and
//! outcome set. This module owns the measurement and both
//! `BENCH_explore.json` sections; the experiments are views of it that
//! run no search of their own:
//!
//! - **E-dpor** ([`crate::dpor`]) compares unfused full enumeration
//!   with unfused DPOR;
//! - **E-fuse** ([`crate::fuse`]) compares unfused with fused, plainly
//!   and under DPOR, because the question for deep kernels is whether
//!   fusion's win *composes* with DPOR's rather than pruning the same
//!   schedules twice.
//!
//! Outcome sets come from [`Explorer::run_outcome_set`] and are compared
//! only when both searches completed. Full enumeration may truncate at
//! the budget, making the reduction a lower bound. Kernels with no
//! invisible op fuse nothing and show an honest 1.00x.
//!
//! Schedule counts are a property of the search, not the host, so both
//! gates ([`Ledger::dpor_gate`], [`Ledger::fuse_gate`]) hold on every
//! host, single-core runners included.

use std::fmt::Write as _;
#[cfg(test)]
use std::sync::OnceLock;

use lfm_kernels::registry;
use lfm_obs::json;
use lfm_sim::{ExploreLimits, Explorer, OutcomeSet, Program};

use crate::dpor::DPOR_FLOOR;
use crate::fuse::FUSE_FLOOR;

/// Schedule budget every ledger search is capped at, for the committed
/// `BENCH_explore.json` sections and the CI gates. Large enough that
/// DPOR and the fused searches finish every kernel exhaustively.
pub const LEDGER_BUDGET: u64 = 100_000;

/// One search's entry in the ledger.
#[derive(Debug, Clone)]
pub struct Search {
    /// Schedules the search ran (at most the budget).
    pub schedules: u64,
    /// Deepest DFS stack observed.
    pub max_depth: u64,
    /// Invisible steps executed without branching (0 unfused).
    pub fused_steps: u64,
    /// The outcome set, or `None` when the search did not complete
    /// (truncated at the budget, or an execution hit the step cap).
    pub outcomes: Option<OutcomeSet>,
}

impl Search {
    fn run(program: &Program, dpor: bool, fuse: bool, budget: u64) -> Search {
        let (report, outcomes) = Explorer::new(program)
            .limits(ExploreLimits {
                max_schedules: budget,
                dedup_states: false,
                sleep_sets: false,
                dpor,
                fuse,
                ..ExploreLimits::default()
            })
            .run_outcome_set();
        Search {
            schedules: report.schedules_run,
            max_depth: report.stats.max_depth,
            fused_steps: report.stats.fused_steps,
            outcomes,
        }
    }

    /// Whether the search finished exhaustively.
    pub fn exhaustive(&self) -> bool {
        self.outcomes.is_some()
    }

    /// `self.schedules / other.schedules`: how much `other` prunes.
    pub(crate) fn ratio(&self, other: &Search) -> f64 {
        self.schedules as f64 / other.schedules.max(1) as f64
    }

    /// Whether both searches completed, making their sets comparable.
    pub(crate) fn comparable(&self, other: &Search) -> bool {
        self.exhaustive() && other.exhaustive()
    }

    /// `true` when the outcome sets agree (vacuously when not
    /// comparable).
    pub(crate) fn agrees(&self, other: &Search) -> bool {
        !self.comparable(other) || self.outcomes == other.outcomes
    }

    /// The schedule count, `N+` when the search truncated.
    pub(crate) fn count(&self) -> String {
        if self.exhaustive() {
            self.schedules.to_string()
        } else {
            format!("{}+", self.schedules)
        }
    }

    /// `self / other` as a reduction, `>=` when `self` truncated.
    pub(crate) fn reduction(&self, other: &Search) -> String {
        let bound = if self.exhaustive() { "" } else { ">=" };
        format!("{bound}{:.2}x", self.ratio(other))
    }
}

/// One kernel's four searches.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// The kernel's bug family.
    pub family: String,
    /// Full enumeration, fusion off.
    pub full: Search,
    /// Full enumeration, fusion on.
    pub full_fused: Search,
    /// Source-set DPOR, fusion off.
    pub dpor: Search,
    /// Source-set DPOR, fusion on.
    pub dpor_fused: Search,
}

/// One deterministic gate over the ledger, ready to print.
#[derive(Debug, Clone)]
pub struct Gate {
    /// `dpor` or `fuse`: the gate's name and its `BENCH_explore.json`
    /// section.
    pub name: &'static str,
    /// The gated kernels, with the schedule count the drift check
    /// compares against the committed baseline and the summary line.
    pub rows: Vec<GateRow>,
    /// Human-readable failures; empty means the gate passed.
    pub failures: Vec<String>,
}

/// One gated kernel's summary.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Kernel id.
    pub kernel: &'static str,
    /// The reduced search's schedule count (DPOR for the DPOR gate,
    /// fused full enumeration for the fuse gate).
    pub schedules: u64,
    /// `"<n> full vs <m> dpor schedules"` or the unfused/fused form.
    pub counts: String,
    /// The reduction factors, comma-separated.
    pub reductions: String,
    /// Whether the outcome sets were compared (DPOR gate only).
    pub compared: Option<bool>,
}

/// The whole ledger: every kernel's buggy variant, four searches each.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Schedule budget every search was capped at.
    pub budget: u64,
    /// Per-kernel rows, in registry order.
    pub rows: Vec<LedgerRow>,
}

impl Ledger {
    /// Runs the four searches on every kernel's buggy variant at the
    /// given schedule budget.
    pub fn measure(budget: u64) -> Ledger {
        let rows = registry::all()
            .into_iter()
            .map(|kernel| {
                let program = kernel.buggy();
                LedgerRow {
                    kernel: kernel.id,
                    family: kernel.family.to_string(),
                    full: Search::run(&program, false, false, budget),
                    full_fused: Search::run(&program, false, true, budget),
                    dpor: Search::run(&program, true, false, budget),
                    dpor_fused: Search::run(&program, true, true, budget),
                }
            })
            .collect();
        Ledger { budget, rows }
    }

    /// The row for `kernel`, if that kernel was measured.
    pub fn row(&self, kernel: &str) -> Option<&LedgerRow> {
        self.rows.iter().find(|r| r.kernel == kernel)
    }

    /// Appends the `"dpor"` and `"fuse"` sections of the
    /// `BENCH_explore.json` document (each a member, led by a comma).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            ",\"dpor\":{{\"budget\":{},\"floor\":{},\"rows\":[",
            self.budget,
            json::number_f64(DPOR_FLOOR),
        );
        for (i, r) in self.rows.iter().enumerate() {
            let (full, dpor) = (&r.full, &r.dpor);
            let _ = write!(
                out,
                "{}{{\"kernel\":{},\"family\":{},\"max_depth\":{},\"full_schedules\":{},\
                 \"full_complete\":{},\"dpor_schedules\":{},\"dpor_complete\":{},\
                 \"reduction\":{},\"compared\":{},\"outcomes_match\":{}}}",
                if i > 0 { "," } else { "" },
                json::quote(r.kernel),
                json::quote(&r.family),
                dpor.max_depth,
                full.schedules,
                full.exhaustive(),
                dpor.schedules,
                dpor.exhaustive(),
                json::number_f64(full.ratio(dpor)),
                full.comparable(dpor),
                full.agrees(dpor),
            );
        }
        let _ = write!(
            out,
            "]}},\"fuse\":{{\"budget\":{},\"floor\":{},\"rows\":[",
            self.budget,
            json::number_f64(FUSE_FLOOR),
        );
        for (i, r) in self.rows.iter().enumerate() {
            let (base, fused) = (&r.full, &r.full_fused);
            let (dpor, dpor_fused) = (&r.dpor, &r.dpor_fused);
            let _ = write!(
                out,
                "{}{{\"kernel\":{},\"family\":{},\"base_schedules\":{},\"base_complete\":{},\
                 \"fused_schedules\":{},\"fused_complete\":{},\"fused_steps\":{},\
                 \"reduction\":{},\"dpor_schedules\":{},\"dpor_complete\":{},\
                 \"dpor_fused_schedules\":{},\"dpor_fused_complete\":{},\
                 \"composed_reduction\":{},\"compared\":{},\"outcomes_match\":{},\
                 \"dpor_compared\":{},\"dpor_outcomes_match\":{}}}",
                if i > 0 { "," } else { "" },
                json::quote(r.kernel),
                json::quote(&r.family),
                base.schedules,
                base.exhaustive(),
                fused.schedules,
                fused.exhaustive(),
                fused.fused_steps,
                json::number_f64(base.ratio(fused)),
                dpor.schedules,
                dpor.exhaustive(),
                dpor_fused.schedules,
                dpor_fused.exhaustive(),
                json::number_f64(dpor.ratio(dpor_fused)),
                base.comparable(fused),
                base.agrees(fused),
                dpor.comparable(dpor_fused),
                dpor.agrees(dpor_fused),
            );
        }
        out.push_str("]}");
    }
}

/// The committed schedule count of `kernel` in a gate's
/// `BENCH_explore.json` section (`dpor_schedules` in `dpor`,
/// `fused_schedules` in `fuse`). Counts are deterministic, so
/// `--check-explore` flags drift against the baseline exactly: drift
/// means the search semantics changed, which is fine only when it is
/// intentional (regenerate with `--bench-explore`). Returns `None` for
/// documents without the section or the kernel.
pub fn baseline_gate_schedules(doc: &str, gate: &str, kernel: &str) -> Option<u64> {
    let field = if gate == "dpor" {
        "dpor_schedules"
    } else {
        "fused_schedules"
    };
    crate::perf::baseline_field(doc, &[gate, "rows"], ("kernel", kernel), field)?.as_u64()
}

/// The `outcomes` column over the compared pairs of one row.
pub(crate) fn verdict(pairs: &[(&Search, &Search)]) -> String {
    if !pairs.iter().any(|(a, b)| a.comparable(b)) {
        "(truncated)".to_string()
    } else if pairs.iter().all(|(a, b)| a.agrees(b)) {
        "identical".to_string()
    } else {
        "DIVERGED".to_string()
    }
}

/// The ledger at [`LEDGER_BUDGET`], measured once and shared by the
/// E-dpor and E-fuse tests.
#[cfg(test)]
pub(crate) fn reference() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| Ledger::measure(LEDGER_BUDGET))
}
