//! E-dpor: source-set DPOR against full enumeration, a view of the
//! [reduction ledger](crate::ledger).
//!
//! The view compares each kernel's unfused full enumeration with its
//! unfused DPOR search: schedule counts, the reduction factor and
//! whether the outcome sets agree. Its gate holds DPOR to
//! [`DPOR_FLOOR`] on the two deepest kernels, where partial-order
//! reduction must earn its keep.

use std::cmp::Reverse;

use lfm_study::Table;

use crate::ledger::{verdict, Gate, GateRow, Ledger, LedgerRow};

/// Minimum schedule-reduction factor DPOR must show on the two deepest
/// kernels. The deepest state spaces are where partial-order reduction
/// earns its keep; anything under 2x there means the race scan has
/// effectively degraded to full enumeration.
pub const DPOR_FLOOR: f64 = 2.0;

impl Ledger {
    /// The two deepest kernels under unfused DPOR (ties broken by id),
    /// the rows the DPOR floor applies to.
    pub fn deepest(&self) -> Vec<&LedgerRow> {
        let mut rows: Vec<&LedgerRow> = self.rows.iter().collect();
        rows.sort_by_key(|r| (Reverse(r.dpor.max_depth), r.kernel));
        rows.truncate(2);
        rows
    }

    /// The DPOR gate: every compared row's outcome sets must agree, at
    /// least one row must actually have been compared, and the two
    /// deepest kernels must complete under DPOR with at least
    /// [`DPOR_FLOOR`] reduction.
    pub fn dpor_gate(&self) -> Gate {
        let mut failures = Vec::new();
        for r in &self.rows {
            if !r.full.agrees(&r.dpor) {
                failures.push(format!(
                    "{}: DPOR outcome set diverged from full enumeration",
                    r.kernel
                ));
            }
        }
        if !self.rows.iter().any(|r| r.full.comparable(&r.dpor)) {
            failures.push("no kernel completed both searches; outcome oracle never ran".into());
        }
        let mut rows = Vec::new();
        for r in self.deepest() {
            let reduction = r.full.ratio(&r.dpor);
            if !r.dpor.exhaustive() {
                failures.push(format!(
                    "{}: DPOR search truncated at budget {} — cannot bound the reduction",
                    r.kernel, self.budget
                ));
            } else if reduction < DPOR_FLOOR {
                failures.push(format!(
                    "{}: reduction {reduction:.2}x below the {DPOR_FLOOR:.1}x floor \
                     ({} full vs {} dpor schedules)",
                    r.kernel, r.full.schedules, r.dpor.schedules
                ));
            }
            rows.push(GateRow {
                kernel: r.kernel,
                schedules: r.dpor.schedules,
                counts: format!(
                    "{} full vs {} dpor schedules",
                    r.full.schedules, r.dpor.schedules
                ),
                reductions: format!("reduction {}", r.full.reduction(&r.dpor)),
                compared: Some(r.full.comparable(&r.dpor)),
            });
        }
        Gate {
            name: "dpor",
            rows,
            failures,
        }
    }

    /// Renders the E-dpor view: unfused full enumeration vs unfused
    /// DPOR.
    pub fn dpor_table(&self) -> Table {
        let deepest: Vec<&'static str> = self.deepest().iter().map(|r| r.kernel).collect();
        let mut t = Table::new(
            "E-dpor",
            format!(
                "Source-set DPOR vs full enumeration ({} kernels, budget {})",
                self.rows.len(),
                self.budget
            ),
            vec![
                "kernel",
                "family",
                "depth",
                "full",
                "dpor",
                "reduction",
                "outcomes",
            ],
        );
        for r in &self.rows {
            let gated = deepest.contains(&r.kernel);
            t.row(vec![
                format!("{}{}", r.kernel, if gated { " *" } else { "" }),
                r.family.clone(),
                r.dpor.max_depth.to_string(),
                r.full.count(),
                r.dpor.schedules.to_string(),
                r.full.reduction(&r.dpor),
                verdict(&[(&r.full, &r.dpor)]),
            ]);
        }
        t.note(
            "full enumeration and DPOR both run with dedup and sleep sets off; \
             `N+` marks a search truncated at the budget, making the reduction a \
             lower bound; `outcomes` compares {outcome kind, final state for \
             ok/deadlock} sets and only when both searches completed",
        );
        t.note(format!(
            "* CI gate rows (the two deepest kernels): DPOR must complete and \
             reduce schedules by at least {DPOR_FLOOR:.1}x; schedule counts are \
             deterministic, so unlike the throughput gates this holds on every \
             host"
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
        let gate = ledger.dpor_gate();
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);
        assert_eq!(gate.rows.len(), 2);
        let deepest = ledger.deepest();
        assert_eq!(deepest.len(), 2);
        assert_ne!(deepest[0].kernel, deepest[1].kernel);
        for r in deepest {
            assert!(r.dpor.exhaustive(), "{}: dpor truncated", r.kernel);
            let reduction = r.full.ratio(&r.dpor);
            assert!(
                reduction >= DPOR_FLOOR,
                "{}: reduction {reduction:.2}",
                r.kernel
            );
        }
        // The oracle must actually fire on most kernels: only the very
        // deepest state spaces may outgrow full enumeration's budget.
        let compared = ledger
            .rows
            .iter()
            .filter(|r| r.full.comparable(&r.dpor))
            .count();
        assert!(compared * 2 > ledger.rows.len(), "only {compared} compared");
    }

    #[test]
    fn gate_failures_catch_divergence_and_shallow_reduction() {
        let mut ledger = Ledger::measure(1); // everything truncates
        assert!(!ledger.dpor_gate().failures.is_empty(), "nothing compared");
        let one = |kind: &str| Some(OutcomeSet::from([(kind.to_string(), 0)]));
        ledger.rows[0].full.outcomes = one("ok");
        ledger.rows[0].dpor.outcomes = one("deadlock");
        let failures = ledger.dpor_gate().failures;
        assert!(
            failures
                .iter()
                .any(|f| f.contains("DPOR outcome set diverged")),
            "{failures:?}"
        );
    }

    #[test]
    fn dpor_table_has_expected_shape() {
        let t = ledger::reference().dpor_table();
        assert_eq!(t.id, "E-dpor");
        assert_eq!(t.len(), registry::all().len());
        let rendered = t.to_string();
        assert!(rendered.contains(" *"), "gate rows are marked");
        assert!(rendered.contains("identical"));
        assert!(!rendered.contains("DIVERGED"));
    }
}
