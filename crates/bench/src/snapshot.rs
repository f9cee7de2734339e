//! Machine-readable metrics snapshots (`lfm-obs/v1`).
//!
//! [`obs_snapshot`] exercises each instrumented subsystem once —
//! exploration per kernel family, the detector pipeline, the TL2 STM,
//! and the table generators — and serializes the collected metrics as
//! one JSON document. The `tables` binary writes it with `--json <path>`
//! so benchmark runs leave a comparable artifact next to the tables.

use std::fmt::Write as _;

use lfm_kernels::{registry, Family};
use lfm_obs::{json, NoopSink};
use lfm_sim::{ExploreLimits, Explorer, RandomWalker};
use lfm_stm::tl2::TSpace;

/// Schema identifier embedded in every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "lfm-obs/v1";

fn push_field(out: &mut String, key: &str, value: impl std::fmt::Display) {
    let _ = write!(out, "{}:{}", json::quote(key), value);
}

/// Builds the full metrics snapshot as a JSON document.
///
/// Deliberately small budgets: the snapshot is a smoke-level profile of
/// every subsystem, not a benchmark — `tables --bench-explore` and the
/// repository benchmark under `perfbench/` own the real measurements.
pub fn obs_snapshot() -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    push_field(&mut out, "schema", json::quote(SNAPSHOT_SCHEMA));

    // Exploration, aggregated per kernel family over the buggy variants.
    out.push_str(",\"explore\":[");
    for (i, family) in Family::ALL.into_iter().enumerate() {
        let mut kernels = 0u64;
        let mut schedules = 0u64;
        let mut steps = 0u64;
        let mut failures = 0u64;
        let mut branch_points = 0u64;
        let mut snapshots = 0u64;
        let mut sleep_pruned = 0u64;
        let mut wall_us = 0u64;
        for kernel in registry::by_family(family) {
            let report = Explorer::new(&kernel.buggy())
                .limits(ExploreLimits {
                    max_schedules: 2_000,
                    sleep_sets: true,
                    ..ExploreLimits::default()
                })
                .run();
            kernels += 1;
            schedules += report.schedules_run;
            steps += report.steps_total;
            failures += report.counts.failures();
            branch_points += report.stats.branch_points;
            snapshots += report.stats.snapshots;
            sleep_pruned += report.sleep_pruned;
            wall_us += report.stats.wall.as_micros() as u64;
        }
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_field(&mut out, "family", json::quote(&family.to_string()));
        out.push(',');
        push_field(&mut out, "kernels", kernels);
        out.push(',');
        push_field(&mut out, "schedules", schedules);
        out.push(',');
        push_field(&mut out, "failures", failures);
        out.push(',');
        push_field(&mut out, "branch_points", branch_points);
        out.push(',');
        push_field(&mut out, "snapshots", snapshots);
        out.push(',');
        push_field(&mut out, "sleep_pruned", sleep_pruned);
        out.push(',');
        push_field(&mut out, "wall_us", wall_us);
        out.push(',');
        push_field(
            &mut out,
            "states_per_sec",
            json::number_f64(steps as f64 / (wall_us.max(1) as f64 / 1e6)),
        );
        out.push('}');
    }
    out.push(']');

    // The detector pipeline on a representative kernel's sampled traces.
    let kernel = registry::by_id("counter_rmw").expect("known kernel");
    let program = kernel.buggy();
    let sampled = RandomWalker::new(&program, 7).collect_traces(6);
    let (training, test): (Vec<_>, Vec<_>) = sampled.into_iter().partition(|(_, o)| o.is_ok());
    let training: Vec<_> = training.into_iter().map(|(t, _)| t).collect();
    let test: Vec<_> = test.into_iter().map(|(t, _)| t).collect();
    let (_, detect_stats) = lfm_detect::detect_all_with_stats(&training, &test, &NoopSink);
    out.push_str(",\"detect\":{\"passes\":[");
    for (i, pass) in detect_stats.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_field(&mut out, "detector", json::quote(&pass.kind.to_string()));
        out.push(',');
        push_field(&mut out, "events", pass.counts.events);
        out.push(',');
        push_field(&mut out, "candidates", pass.counts.candidates);
        out.push(',');
        push_field(&mut out, "reports", pass.reports);
        out.push(',');
        push_field(&mut out, "wall_us", pass.wall.as_micros() as u64);
        out.push('}');
    }
    out.push_str("],");
    push_field(
        &mut out,
        "training_wall_us",
        detect_stats.training_wall.as_micros() as u64,
    );
    out.push('}');

    // A short single-threaded TL2 workload: exact, deterministic counts.
    let space = TSpace::new(1);
    for _ in 0..100 {
        space.atomically(|tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1);
            Ok(())
        });
    }
    let stm = space.stats();
    out.push_str(",\"stm\":{");
    push_field(&mut out, "starts", stm.starts);
    out.push(',');
    push_field(&mut out, "commits", stm.commits);
    out.push(',');
    push_field(&mut out, "aborts", stm.aborts);
    out.push(',');
    push_field(&mut out, "body_retries", stm.body_retries);
    out.push(',');
    push_field(&mut out, "commit_rate", json::number_f64(stm.commit_rate()));
    out.push('}');

    // Minimized witnesses: the E-wit measurement, one record per kernel
    // plus the paper-band tallies the study table reports.
    let rows = lfm_study::experiments::witness_experiment();
    out.push_str(",\"witness\":{\"schema\":\"lfm-trace/v1\",\"kernels\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_field(&mut out, "kernel", json::quote(r.kernel));
        out.push(',');
        push_field(&mut out, "family", json::quote(&r.family.to_string()));
        out.push(',');
        push_field(&mut out, "threads", r.threads);
        out.push(',');
        push_field(&mut out, "switches", r.switches);
        out.push(',');
        push_field(&mut out, "conflicting_accesses", r.conflicting_accesses);
        out.push(',');
        push_field(&mut out, "conflict_objects", r.conflict_objects);
        out.push(',');
        push_field(&mut out, "schedule_before", r.schedule_before);
        out.push(',');
        push_field(&mut out, "schedule_after", r.schedule_after);
        out.push(',');
        push_field(&mut out, "replays", r.replays);
        out.push('}');
    }
    out.push_str("],");
    let nondead: Vec<_> = rows
        .iter()
        .filter(|r| r.family != Family::Deadlock)
        .collect();
    let dead: Vec<_> = rows
        .iter()
        .filter(|r| r.family == Family::Deadlock)
        .collect();
    push_field(
        &mut out,
        "nondeadlock_threads_le2",
        nondead.iter().filter(|r| r.threads <= 2).count(),
    );
    out.push(',');
    push_field(
        &mut out,
        "nondeadlock_accesses_le4",
        nondead
            .iter()
            .filter(|r| r.conflicting_accesses <= 4)
            .count(),
    );
    out.push(',');
    push_field(&mut out, "nondeadlock_total", nondead.len());
    out.push(',');
    push_field(
        &mut out,
        "deadlock_threads_le2",
        dead.iter().filter(|r| r.threads <= 2).count(),
    );
    out.push(',');
    push_field(
        &mut out,
        "deadlock_resources_le2",
        dead.iter().filter(|r| r.conflict_objects <= 2).count(),
    );
    out.push(',');
    push_field(&mut out, "deadlock_total", dead.len());
    out.push('}');

    // Parallel-exploration scaling: the E-par measurement. Speedup is a
    // host property (meaningless without `host_parallelism` next to
    // it); `reports_identical` is the determinism claim and must be
    // true on every host.
    let scaling = crate::par::par_scaling(ExploreLimits::default().max_schedules);
    out.push_str(",\"par\":{");
    push_field(&mut out, "kernel", json::quote(scaling.kernel));
    out.push(',');
    push_field(&mut out, "family", json::quote(&scaling.family));
    out.push(',');
    push_field(&mut out, "host_parallelism", scaling.host_parallelism);
    out.push(',');
    push_field(&mut out, "serial_schedules", scaling.serial_schedules);
    out.push(',');
    push_field(&mut out, "serial_wall_us", scaling.serial_wall_us);
    out.push(',');
    push_field(&mut out, "reports_identical", scaling.all_identical());
    out.push_str(",\"rows\":[");
    for (i, r) in scaling.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_field(&mut out, "jobs", r.jobs);
        out.push(',');
        push_field(&mut out, "schedules", r.schedules);
        out.push(',');
        push_field(&mut out, "wall_us", r.wall_us);
        out.push(',');
        push_field(&mut out, "speedup", json::number_f64(r.speedup));
        out.push(',');
        push_field(
            &mut out,
            "schedules_per_sec",
            json::number_f64(r.schedules_per_sec),
        );
        out.push('}');
    }
    out.push_str("],");
    push_field(
        &mut out,
        "speedup_at_4",
        json::number_f64(scaling.speedup_at(4).unwrap_or(0.0)),
    );
    out.push('}');

    // Exploration hot-path throughput: the E-perf sweep. Like E-par,
    // the rate is a host property. (Smoke budget here;
    // BENCH_explore.json carries the reference run at the full
    // PERF_BUDGET.)
    let perf = crate::perf::perf_measure(500);
    let gate = perf
        .row(crate::perf::PERF_GATE_KERNEL)
        .expect("the gate kernel is in the registry");
    out.push_str(",\"perf\":{");
    push_field(&mut out, "budget", perf.budget);
    out.push(',');
    push_field(&mut out, "kernel", json::quote(gate.kernel));
    out.push(',');
    push_field(
        &mut out,
        "states_per_sec",
        json::number_f64(gate.states_per_sec),
    );
    out.push('}');

    // Observability overhead: the E-obs measurement — profiler +
    // progress estimation + flight recorder against observation-off on
    // the two deepest kernels. The overhead percentage is a host
    // property; `reports_identical` must be true everywhere. (Smoke
    // budget, like the perf section above.)
    let obs = crate::obs::obs_measure(300);
    out.push_str(",\"obs\":");
    out.push_str(&crate::obs::obs_json(&obs));

    // Table-generator timings over the full corpus.
    let corpus = lfm_corpus::Corpus::full();
    let (_, timings) = lfm_study::profile_tables(&corpus, &NoopSink);
    out.push_str(",\"study\":{\"tables\":[");
    let mut total_us = 0u64;
    for (i, timing) in timings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us = timing.wall.as_micros() as u64;
        total_us += us;
        out.push('{');
        push_field(&mut out, "id", json::quote(&timing.id));
        out.push(',');
        push_field(&mut out, "wall_us", us);
        out.push('}');
    }
    out.push_str("],");
    push_field(&mut out, "total_wall_us", total_us);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_every_subsystem() {
        let snap = obs_snapshot();
        assert!(snap.starts_with('{') && snap.ends_with('}'));
        assert!(snap.contains("\"schema\":\"lfm-obs/v1\""));
        for family in Family::ALL {
            assert!(
                snap.contains(&json::quote(&family.to_string())),
                "missing family {family}"
            );
        }
        for key in [
            "\"detect\":",
            "\"stm\":",
            "\"par\":{\"kernel\":\"livelock_retry\"",
            "\"reports_identical\":true",
            "\"host_parallelism\":",
            "\"speedup_at_4\":",
            "\"perf\":{",
            "\"obs\":{",
            "\"target_overhead_pct\":",
            "\"top_phase\":",
            "\"states_per_sec\":",
            "\"study\":",
            "\"T9\"",
            "\"commits\":100",
            "\"witness\":{\"schema\":\"lfm-trace/v1\"",
            "\"nondeadlock_threads_le2\":",
            "\"deadlock_resources_le2\":",
        ] {
            assert!(snap.contains(key), "missing {key} in {snap}");
        }
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        let opens = snap.matches('{').count() + snap.matches('[').count();
        let closes = snap.matches('}').count() + snap.matches(']').count();
        assert_eq!(opens, closes);
    }
}
