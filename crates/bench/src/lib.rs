//! # lfm-bench — table regenerator and benchmark harness
//!
//! One entry point: the **`tables` binary** (`cargo run -p lfm-bench
//! --bin tables`) regenerates every table (T1–T9), figure demo (F1–F5)
//! and implication experiment (E-scope, E-detect, E-tm, E-chaos, E-par,
//! E-perf, E-dpor, E-fuse, E-wit, E-obs) of the study; pass `--only <id>`
//! to print one artifact, `--markdown` for Markdown. The same binary
//! writes and gates the explorer and service benchmarks
//! (`--bench-explore`, `--check-explore`, `--check-serve`) and, with
//! `--json <path>`, an `lfm-obs/v1` metrics snapshot (see [`snapshot`]).

#![warn(missing_docs)]

pub mod chaos;
pub mod dpor;
pub mod fuse;
pub mod ledger;
pub mod obs;
pub mod par;
pub mod perf;
pub mod serve;
pub mod snapshot;

pub use chaos::{chaos_comparison, chaos_table, ChaosRow};
pub use dpor::DPOR_FLOOR;
pub use fuse::{FUSE_FLOOR, FUSE_GATE_KERNELS};
pub use ledger::{baseline_gate_schedules, Ledger, LEDGER_BUDGET};
pub use obs::{obs_json, obs_measure, obs_table, ObsReport, ObsRow, OBS_BUDGET, OBS_TARGET_PCT};
pub use par::{par_scaling, par_table, ParRow, ParScaling};
pub use perf::{
    baseline_states_per_sec, perf_json, perf_measure, perf_table, PerfReport, PerfRow,
    BENCH_EXPLORE_SCHEMA, PERF_BUDGET, PERF_GATE_KERNEL,
};
pub use serve::{
    baseline_requests_per_sec, serve_json, serve_measure, serve_table, trace_overhead_measure,
    ServeReport, ServeRow, BENCH_SERVE_SCHEMA, SERVE_GATE_SCENARIO, SERVE_SEED,
    SERVE_TRACE_SCENARIO,
};
pub use snapshot::{obs_snapshot, SNAPSHOT_SCHEMA};

use std::panic::{catch_unwind, AssertUnwindSafe};

use lfm_corpus::Corpus;
use lfm_sim::ExploreLimits;
use lfm_study::experiments::{
    coverage_growth_table, coverage_table, scheduler_table, scope_table, tm_table, witness_table,
};
use lfm_study::figures;
use lfm_study::tables;
use lfm_study::Table;

/// Everything the harness can regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// One of the nine tables.
    Table(u8),
    /// One of the five figure demos.
    Figure(u8),
    /// E-scope.
    Scope,
    /// E-detect.
    Detect,
    /// E-test.
    SchedTest,
    /// E-cov.
    CoverageGrowth,
    /// E-tm.
    Tm,
    /// E-chaos.
    Chaos,
    /// E-par.
    Par,
    /// E-perf.
    Perf,
    /// E-dpor.
    Dpor,
    /// E-fuse.
    Fuse,
    /// E-wit.
    Witness,
    /// E-obs.
    Obs,
    /// E-serve.
    Serve,
    /// The findings checker.
    Findings,
}

impl Artifact {
    /// Parses an artifact selector like `t3`, `f1`, `escope`, `findings`.
    pub fn parse(s: &str) -> Option<Artifact> {
        let s = s.to_ascii_lowercase();
        match s.as_str() {
            "escope" | "e-scope" => Some(Artifact::Scope),
            "edetect" | "e-detect" => Some(Artifact::Detect),
            "etest" | "e-test" => Some(Artifact::SchedTest),
            "ecov" | "e-cov" => Some(Artifact::CoverageGrowth),
            "etm" | "e-tm" => Some(Artifact::Tm),
            "echaos" | "e-chaos" => Some(Artifact::Chaos),
            "epar" | "e-par" => Some(Artifact::Par),
            "eperf" | "e-perf" => Some(Artifact::Perf),
            "edpor" | "e-dpor" => Some(Artifact::Dpor),
            "efuse" | "e-fuse" => Some(Artifact::Fuse),
            "ewit" | "e-wit" => Some(Artifact::Witness),
            "eobs" | "e-obs" => Some(Artifact::Obs),
            "eserve" | "e-serve" => Some(Artifact::Serve),
            "findings" => Some(Artifact::Findings),
            _ if s.len() >= 2 => {
                let (kind, num) = s.split_at(1);
                let n: u8 = num.parse().ok()?;
                match kind {
                    "t" if (1..=9).contains(&n) => Some(Artifact::Table(n)),
                    "f" if (1..=5).contains(&n) => Some(Artifact::Figure(n)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// All artifacts in presentation order.
    pub fn all() -> Vec<Artifact> {
        let mut v = vec![Artifact::Findings];
        v.extend((1..=9).map(Artifact::Table));
        v.extend((1..=5).map(Artifact::Figure));
        v.extend([
            Artifact::Scope,
            Artifact::Detect,
            Artifact::SchedTest,
            Artifact::CoverageGrowth,
            Artifact::Tm,
            Artifact::Chaos,
            Artifact::Par,
            Artifact::Perf,
            Artifact::Dpor,
            Artifact::Fuse,
            Artifact::Witness,
            Artifact::Obs,
            Artifact::Serve,
        ]);
        v
    }

    /// The canonical selector for this artifact (the string [`parse`]
    /// accepts and the `LFM_INJECT_PANIC` hook matches against).
    ///
    /// [`parse`]: Artifact::parse
    pub fn id(&self) -> String {
        match self {
            Artifact::Table(n) => format!("t{n}"),
            Artifact::Figure(n) => format!("f{n}"),
            Artifact::Scope => "escope".to_string(),
            Artifact::Detect => "edetect".to_string(),
            Artifact::SchedTest => "etest".to_string(),
            Artifact::CoverageGrowth => "ecov".to_string(),
            Artifact::Tm => "etm".to_string(),
            Artifact::Chaos => "echaos".to_string(),
            Artifact::Par => "epar".to_string(),
            Artifact::Perf => "eperf".to_string(),
            Artifact::Dpor => "edpor".to_string(),
            Artifact::Fuse => "efuse".to_string(),
            Artifact::Witness => "ewit".to_string(),
            Artifact::Obs => "eobs".to_string(),
            Artifact::Serve => "eserve".to_string(),
            Artifact::Findings => "findings".to_string(),
        }
    }

    /// Renders the artifact (plain text or Markdown).
    pub fn render(&self, corpus: &Corpus, markdown: bool) -> String {
        let table = |t: Table| {
            if markdown {
                t.to_markdown()
            } else {
                t.to_string()
            }
        };
        match self {
            Artifact::Table(n) => {
                let t = match n {
                    1 => tables::table1(corpus),
                    2 => tables::table2(corpus),
                    3 => tables::table3(corpus),
                    4 => tables::table4(corpus),
                    5 => tables::table5(corpus),
                    6 => tables::table6(corpus),
                    7 => tables::table7(corpus),
                    8 => tables::table8(corpus),
                    9 => tables::table9(corpus),
                    _ => unreachable!("validated by parse"),
                };
                table(t)
            }
            Artifact::Figure(n) => {
                let f = match n {
                    1 => figures::figure1(),
                    2 => figures::figure2(),
                    3 => figures::figure3(),
                    4 => figures::figure4(),
                    5 => figures::figure5(),
                    _ => unreachable!("validated by parse"),
                };
                f.to_string()
            }
            Artifact::Scope => table(scope_table()),
            Artifact::Detect => table(coverage_table()),
            Artifact::SchedTest => table(scheduler_table(100)),
            Artifact::CoverageGrowth => table(coverage_growth_table()),
            Artifact::Tm => table(tm_table(corpus)),
            Artifact::Chaos => table(chaos::chaos_table(200)),
            Artifact::Par => table(par::par_table(ExploreLimits::default().max_schedules)),
            Artifact::Perf => table(perf::perf_table(perf::PERF_BUDGET)),
            Artifact::Dpor => table(Ledger::measure(LEDGER_BUDGET).dpor_table()),
            Artifact::Fuse => table(Ledger::measure(LEDGER_BUDGET).fuse_table()),
            Artifact::Witness => table(witness_table()),
            Artifact::Obs => table(obs::obs_table(obs::OBS_BUDGET)),
            Artifact::Serve => table(serve::serve_table()),
            Artifact::Findings => {
                let mut out = String::from("Findings (paper vs measured)\n");
                for f in lfm_study::check_all(corpus) {
                    out.push_str(&format!("{f}\n"));
                }
                out
            }
        }
    }

    /// [`render`](Artifact::render) under `catch_unwind`: a panicking
    /// generator becomes `Err(payload)` so the caller can report the
    /// failure, keep regenerating the other artifacts, and exit
    /// degraded instead of aborting.
    ///
    /// Setting `LFM_INJECT_PANIC=<artifact-id>` forces a panic inside
    /// this artifact's render — the test hook proving the containment
    /// path end to end.
    pub fn render_isolated(&self, corpus: &Corpus, markdown: bool) -> Result<String, String> {
        catch_unwind(AssertUnwindSafe(|| {
            if std::env::var("LFM_INJECT_PANIC").as_deref() == Ok(self.id().as_str()) {
                panic!("injected panic for artifact {}", self.id());
            }
            self.render(corpus, markdown)
        }))
        .map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_selectors() {
        assert_eq!(Artifact::parse("t1"), Some(Artifact::Table(1)));
        assert_eq!(Artifact::parse("T9"), Some(Artifact::Table(9)));
        assert_eq!(Artifact::parse("f5"), Some(Artifact::Figure(5)));
        assert_eq!(Artifact::parse("escope"), Some(Artifact::Scope));
        assert_eq!(Artifact::parse("e-tm"), Some(Artifact::Tm));
        assert_eq!(Artifact::parse("etest"), Some(Artifact::SchedTest));
        assert_eq!(Artifact::parse("echaos"), Some(Artifact::Chaos));
        assert_eq!(Artifact::parse("e-chaos"), Some(Artifact::Chaos));
        assert_eq!(Artifact::parse("epar"), Some(Artifact::Par));
        assert_eq!(Artifact::parse("e-par"), Some(Artifact::Par));
        assert_eq!(Artifact::parse("eperf"), Some(Artifact::Perf));
        assert_eq!(Artifact::parse("e-perf"), Some(Artifact::Perf));
        assert_eq!(Artifact::parse("edpor"), Some(Artifact::Dpor));
        assert_eq!(Artifact::parse("e-dpor"), Some(Artifact::Dpor));
        assert_eq!(Artifact::parse("efuse"), Some(Artifact::Fuse));
        assert_eq!(Artifact::parse("e-fuse"), Some(Artifact::Fuse));
        assert_eq!(Artifact::parse("ewit"), Some(Artifact::Witness));
        assert_eq!(Artifact::parse("e-wit"), Some(Artifact::Witness));
        assert_eq!(Artifact::parse("eobs"), Some(Artifact::Obs));
        assert_eq!(Artifact::parse("e-obs"), Some(Artifact::Obs));
        assert_eq!(Artifact::parse("eserve"), Some(Artifact::Serve));
        assert_eq!(Artifact::parse("e-serve"), Some(Artifact::Serve));
        assert_eq!(Artifact::parse("findings"), Some(Artifact::Findings));
        assert_eq!(Artifact::parse("t0"), None);
        assert_eq!(Artifact::parse("t10"), None);
        assert_eq!(Artifact::parse("x1"), None);
        assert_eq!(Artifact::parse(""), None);
    }

    #[test]
    fn all_lists_every_artifact() {
        let all = Artifact::all();
        assert_eq!(all.len(), 1 + 9 + 5 + 13);
    }

    #[test]
    fn every_artifact_id_round_trips_through_parse() {
        for artifact in Artifact::all() {
            assert_eq!(Artifact::parse(&artifact.id()), Some(artifact));
        }
    }

    #[test]
    fn render_isolated_succeeds_without_injection() {
        let corpus = Corpus::full();
        let out = Artifact::Table(2).render_isolated(&corpus, false);
        assert!(out.expect("T2 renders").contains("T2:"));
    }

    // The LFM_INJECT_PANIC side of render_isolated is exercised end to
    // end by the CLI's degraded-exit integration test (environment
    // variables are process-global, so the unit suite leaves them be).

    #[test]
    fn render_table_both_formats() {
        let corpus = Corpus::full();
        let plain = Artifact::Table(2).render(&corpus, false);
        assert!(plain.contains("T2:"));
        let md = Artifact::Table(2).render(&corpus, true);
        assert!(md.contains("### T2"));
        assert!(md.contains("|---|"));
    }

    #[test]
    fn render_findings() {
        let corpus = Corpus::full();
        let s = Artifact::Findings.render(&corpus, false);
        assert!(s.contains("F1-pattern"));
        assert!(!s.contains("MISMATCH"));
    }
}
