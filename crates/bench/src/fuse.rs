//! E-fuse: invisible-step fusion against unfused enumeration, plainly
//! and under DPOR, a view of the [reduction ledger](crate::ledger).
//!
//! The view compares each kernel's unfused and fused searches, with
//! DPOR off and on, so it shows both what fusion prunes by itself and
//! what it still removes after DPOR. Its gate holds fusion to
//! [`FUSE_FLOOR`] on the [`FUSE_GATE_KERNELS`].

use lfm_study::Table;

use crate::ledger::{verdict, Gate, GateRow, Ledger};

/// Minimum schedule-reduction factor fusion alone must show on the
/// gate kernels. Below this, fusion is not earning its complexity on
/// the state spaces it was built for.
pub const FUSE_FLOOR: f64 = 1.5;

/// The kernels the fusion floor applies to — the two deepest state
/// spaces, which are also the two with the most invisible ops
/// (`livelock_retry` yields in its back-off path; `toctou_flag`
/// re-checks a local-only assert in its retry loop).
pub const FUSE_GATE_KERNELS: [&str; 2] = ["livelock_retry", "toctou_flag"];

impl Ledger {
    /// The fuse gate: every compared outcome set — plain and DPOR —
    /// must agree, at least one pair must actually have been compared,
    /// fusion must never *increase* a schedule count, and on the
    /// [`FUSE_GATE_KERNELS`] the fused search must complete with at
    /// least [`FUSE_FLOOR`] reduction and the DPOR composition must
    /// complete without giving any of DPOR's win back.
    pub fn fuse_gate(&self) -> Gate {
        let mut failures = Vec::new();
        for r in &self.rows {
            if !r.full.agrees(&r.full_fused) {
                failures.push(format!(
                    "{}: fused outcome set diverged from the unfused baseline",
                    r.kernel
                ));
            }
            if !r.dpor.agrees(&r.dpor_fused) {
                failures.push(format!(
                    "{}: fused DPOR outcome set diverged from unfused DPOR",
                    r.kernel
                ));
            }
            if r.full_fused.schedules > r.full.schedules {
                failures.push(format!(
                    "{}: fusion increased schedules ({} fused vs {} unfused)",
                    r.kernel, r.full_fused.schedules, r.full.schedules
                ));
            }
            if r.dpor_fused.schedules > r.dpor.schedules {
                failures.push(format!(
                    "{}: fusion increased DPOR schedules ({} fused vs {} unfused)",
                    r.kernel, r.dpor_fused.schedules, r.dpor.schedules
                ));
            }
        }
        if !self
            .rows
            .iter()
            .any(|r| r.full.comparable(&r.full_fused) || r.dpor.comparable(&r.dpor_fused))
        {
            failures.push("no kernel completed both searches; outcome oracle never ran".into());
        }
        let mut rows = Vec::new();
        for kernel in FUSE_GATE_KERNELS {
            let Some(r) = self.row(kernel) else {
                failures.push(format!("{kernel}: gate kernel missing from the registry"));
                continue;
            };
            let reduction = r.full.ratio(&r.full_fused);
            let composed = r.dpor.ratio(&r.dpor_fused);
            if !r.full_fused.exhaustive() {
                failures.push(format!(
                    "{}: fused search truncated at budget {} — cannot bound the reduction",
                    r.kernel, self.budget
                ));
            } else if reduction < FUSE_FLOOR {
                failures.push(format!(
                    "{}: reduction {reduction:.2}x below the {FUSE_FLOOR:.1}x floor \
                     ({} unfused vs {} fused schedules)",
                    r.kernel, r.full.schedules, r.full_fused.schedules
                ));
            }
            if !r.dpor_fused.exhaustive() {
                failures.push(format!(
                    "{}: fused DPOR search truncated at budget {}",
                    r.kernel, self.budget
                ));
            } else if composed < 1.0 {
                failures.push(format!(
                    "{}: fuse x dpor composition {composed:.2}x lost ground \
                     ({} dpor vs {} dpor+fuse schedules)",
                    r.kernel, r.dpor.schedules, r.dpor_fused.schedules
                ));
            }
            rows.push(GateRow {
                kernel: r.kernel,
                schedules: r.full_fused.schedules,
                counts: format!(
                    "{} unfused vs {} fused schedules",
                    r.full.schedules, r.full_fused.schedules
                ),
                reductions: format!(
                    "reduction {}, dpor composition {composed:.2}x",
                    r.full.reduction(&r.full_fused)
                ),
                compared: None,
            });
        }
        Gate {
            name: "fuse",
            rows,
            failures,
        }
    }

    /// Renders the E-fuse view: unfused vs fused, plain and under DPOR.
    pub fn fuse_table(&self) -> Table {
        let mut t = Table::new(
            "E-fuse",
            format!(
                "Invisible-step fusion vs unfused enumeration ({} kernels, budget {})",
                self.rows.len(),
                self.budget
            ),
            vec![
                "kernel",
                "family",
                "nofuse",
                "fuse",
                "reduction",
                "fused",
                "dpor",
                "dpor+fuse",
                "composed",
                "outcomes",
            ],
        );
        for r in &self.rows {
            let gated = FUSE_GATE_KERNELS.contains(&r.kernel);
            t.row(vec![
                format!("{}{}", r.kernel, if gated { " *" } else { "" }),
                r.family.clone(),
                r.full.count(),
                r.full_fused.schedules.to_string(),
                r.full.reduction(&r.full_fused),
                r.full_fused.fused_steps.to_string(),
                r.dpor.count(),
                r.dpor_fused.schedules.to_string(),
                r.dpor.reduction(&r.dpor_fused),
                verdict(&[(&r.full, &r.full_fused), (&r.dpor, &r.dpor_fused)]),
            ]);
        }
        t.note(
            "all searches run with dedup and sleep sets off so fusion is the only \
             difference within a pair; `N+` marks a search truncated at the \
             budget, making the reduction a lower bound; `fused` counts invisible \
             steps executed without branching (0 means the kernel has no \
             invisible ops and its honest 1.00x); `composed` is what fusion still \
             removes after DPOR; `outcomes` compares {outcome kind, final state \
             for ok/deadlock} sets per pair and only when both sides completed",
        );
        t.note(format!(
            "* CI gate rows: fusion alone must reduce schedules by at least \
             {FUSE_FLOOR:.1}x and the dpor+fuse composition must never lose \
             ground; schedule counts are deterministic, so the gate holds on \
             every host"
        ));
        t
    }
}

#[cfg(test)]
mod tests {
    use lfm_kernels::registry;
    use lfm_sim::OutcomeSet;

    use super::*;
    use crate::ledger;

    #[test]
    fn gate_holds_at_the_reference_budget() {
        let ledger = ledger::reference();
        assert_eq!(ledger.rows.len(), registry::all().len());
        let gate = ledger.fuse_gate();
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!(gate.rows.len(), FUSE_GATE_KERNELS.len());
        for kernel in FUSE_GATE_KERNELS {
            let r = ledger.row(kernel).expect("gate kernel measured");
            assert!(
                r.full_fused.exhaustive(),
                "{kernel}: fused search truncated"
            );
            let reduction = r.full.ratio(&r.full_fused);
            assert!(
                reduction >= FUSE_FLOOR,
                "{kernel}: reduction {reduction:.2}"
            );
            assert!(r.full_fused.fused_steps > 0, "{kernel}: nothing fused");
        }
        // The oracle must actually fire on most kernels: only the very
        // deepest state spaces may outgrow the unfused budget.
        let compared = ledger
            .rows
            .iter()
            .filter(|r| r.full.comparable(&r.full_fused))
            .count();
        assert!(compared * 2 > ledger.rows.len(), "only {compared} compared");
        // And the DPOR pairs are cheap enough to always complete.
        assert!(ledger.rows.iter().all(|r| r.dpor.comparable(&r.dpor_fused)));
    }

    #[test]
    fn gate_failures_catch_divergence_and_regression() {
        let mut ledger = Ledger::measure(1); // everything truncates
        assert!(!ledger.fuse_gate().failures.is_empty(), "nothing compared");
        let one = |kind: &str| Some(OutcomeSet::from([(kind.to_string(), 0)]));
        ledger.rows[0].full.outcomes = one("ok");
        ledger.rows[0].full_fused.outcomes = one("deadlock");
        ledger.rows[1].full_fused.schedules = ledger.rows[1].full.schedules + 1;
        let failures = ledger.fuse_gate().failures;
        assert!(
            failures
                .iter()
                .any(|f| f.contains("fused outcome set diverged")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("increased schedules")),
            "{failures:?}"
        );
    }

    #[test]
    fn fuse_table_has_expected_shape() {
        let t = ledger::reference().fuse_table();
        assert_eq!(t.id, "E-fuse");
        assert_eq!(t.len(), registry::all().len());
        let rendered = t.to_string();
        assert!(rendered.contains(" *"), "gate rows are marked");
        assert!(rendered.contains("identical"));
        assert!(!rendered.contains("DIVERGED"));
    }
}
