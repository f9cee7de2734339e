//! The served degrade levels.
//!
//! The admission controller picks a [`DegradeLevel`](lfm_sim::DegradeLevel)
//! from queue pressure, and the worker runs exactly that rung through
//! [`lfm_sim::run_rung`], the runner the budget ladder uses too, so a
//! served report means the same thing a budgeted one does. Unlike the
//! ladder, a service worker never climbs back up: the point is bounded
//! per-request work.

/// PCT trials a served check runs when no deadline bounds it. A served
/// PCT rung is picked under load, so it bounds one request's work at an
/// eighth of the budget ladder's last-resort 4 096 trials.
pub const SERVED_PCT_TRIALS: u64 = 512;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use lfm_kernels::registry;
    use lfm_sim::{
        run_rung, BudgetReport, Confidence, DeadlineClock, DegradeLevel, FaultPlan, LevelCaps,
        Program, Truncation,
    };

    /// One served check, as the worker runs it.
    fn served(
        program: &Program,
        level: DegradeLevel,
        caps: LevelCaps,
        chaos: Option<FaultPlan>,
        deadline: Option<Duration>,
    ) -> BudgetReport {
        run_rung(
            program,
            level,
            caps,
            SERVED_PCT_TRIALS,
            chaos,
            deadline,
            DeadlineClock::Wall,
        )
    }

    #[test]
    fn exhaustive_proves_a_fixed_kernel() {
        let kernel = registry::by_id("toctou_flag").expect("kernel exists");
        let fix = kernel.fixes[0];
        let program = kernel.build(lfm_kernels::Variant::Fixed(fix));
        let out = served(
            &program,
            DegradeLevel::Exhaustive,
            LevelCaps::default(),
            None,
            None,
        );
        assert_eq!(out.confidence, Confidence::Proved);
        assert_eq!(out.counts.failures(), 0);
        assert!(out.first_failure.is_none());
    }

    #[test]
    fn every_level_finds_the_toctou_bug() {
        let kernel = registry::by_id("toctou_flag").expect("kernel exists");
        let program = kernel.buggy();
        for level in [
            DegradeLevel::Exhaustive,
            DegradeLevel::SleepSet,
            DegradeLevel::PreemptionBounded,
            DegradeLevel::PctSampling,
        ] {
            let out = served(&program, level, LevelCaps::default(), None, None);
            assert_eq!(out.level, level);
            assert!(
                out.counts.failures() > 0,
                "{level} missed the bug: {}",
                out.counts
            );
            assert!(out.first_failure.is_some());
        }
    }

    #[test]
    fn outcome_is_deterministic_per_level() {
        let kernel = registry::by_id("abba").expect("kernel exists");
        let program = kernel.buggy();
        for level in [DegradeLevel::Exhaustive, DegradeLevel::PctSampling] {
            let a = served(&program, level, LevelCaps::default(), None, None);
            let b = served(&program, level, LevelCaps::default(), None, None);
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.schedules_run, b.schedules_run);
            assert_eq!(a.first_failure, b.first_failure);
        }
    }

    #[test]
    fn pct_trial_cap_truncates_with_schedule_budget() {
        let kernel = registry::by_id("toctou_flag").expect("kernel exists");
        let program = kernel.buggy();
        let caps = LevelCaps {
            max_schedules: 64,
            ..LevelCaps::default()
        };
        let deadline = Some(Duration::from_secs(60));
        let out = served(&program, DegradeLevel::PctSampling, caps, None, deadline);
        assert_eq!(out.schedules_run, 64);
        assert_eq!(out.truncation, Some(Truncation::ScheduleBudget));
        let body = crate::protocol::render_report("toctou_flag", "buggy", 0, &out);
        assert!(
            body.contains("\"truncation\":\"schedule-budget\""),
            "{body}"
        );
        // Without a deadline the served trial cap ends the run.
        let out = served(&program, DegradeLevel::PctSampling, caps, None, None);
        assert_eq!(out.schedules_run, 64.min(SERVED_PCT_TRIALS));
        assert_eq!(out.truncation, Some(Truncation::ScheduleBudget));
    }

    #[test]
    fn sleep_set_rung_under_chaos_runs_as_plain_dedup() {
        let mut reduced_without_chaos = 0;
        for id in ["toctou_flag", "abba", "counter_rmw", "livelock_retry"] {
            let kernel = registry::by_id(id).expect("kernel exists");
            let program = kernel.buggy();
            let check = |level, chaos| served(&program, level, LevelCaps::default(), chaos, None);
            let chaos = Some(FaultPlan::new(42));
            let sleep = check(DegradeLevel::SleepSet, chaos);
            let exhaustive = check(DegradeLevel::Exhaustive, chaos);
            assert_eq!(sleep.counts, exhaustive.counts, "{id}: counts");
            assert_eq!(
                sleep.schedules_run, exhaustive.schedules_run,
                "{id}: schedules"
            );
            assert_eq!(sleep.confidence, exhaustive.confidence, "{id}: confidence");
            let calm = check(DegradeLevel::SleepSet, None).schedules_run;
            if calm != check(DegradeLevel::Exhaustive, None).schedules_run {
                reduced_without_chaos += 1;
            }
        }
        // Not vacuous: without chaos the sleep-set rung does prune.
        assert!(reduced_without_chaos > 0);
    }

    #[test]
    fn tight_deadline_truncates_with_wall_deadline() {
        let kernel = registry::by_id("livelock_retry").expect("kernel exists");
        let program = kernel.buggy();
        let caps = LevelCaps {
            max_schedules: u64::MAX / 2,
            ..LevelCaps::default()
        };
        // Each schedule costs 100µs of simulated time, so the 1ms
        // deadline expires after 10 schedules on any host.
        let out = run_rung(
            &program,
            DegradeLevel::Exhaustive,
            caps,
            SERVED_PCT_TRIALS,
            None,
            Some(Duration::from_millis(1)),
            DeadlineClock::PerSchedule(Duration::from_micros(100)),
        );
        // The deepest kernel cannot be exhausted in 10 schedules: the
        // run must be truncated (the wall deadline, unless the step
        // budget happened to trip first) and downgraded to partial.
        assert!(
            matches!(
                out.truncation,
                Some(Truncation::WallDeadline) | Some(Truncation::StepBudget)
            ),
            "expected a truncated run, got {:?}",
            out.truncation
        );
        assert_eq!(out.confidence, Confidence::Partial);
    }
}
