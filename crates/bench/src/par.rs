//! E-par: serial-vs-parallel exploration scaling.
//!
//! The parallel explorer splits the search tree into subtrees, searches
//! them on worker threads and splices their results back in serial
//! order, so its report must be bit-identical to the serial explorer's
//! while (on a multi-core host) finishing sooner. Only full enumeration
//! (no state dedup, no DPOR) uses threads; dedup and DPOR searches run
//! on the calling thread. This experiment therefore times the full
//! enumeration of the largest kernel state space under both explorers
//! at 1/2/4/8 workers, checks the merged reports field-for-field
//! against the serial baseline, and tabulates wall-clock speedup and
//! schedule throughput.
//!
//! Speedup is a *host* property: on a single-core container every
//! worker count time-slices one CPU and the ratio hovers at or below
//! 1×. The report-equality column is the part that must hold
//! everywhere; `host_parallelism` is recorded next to the numbers so a
//! snapshot is interpretable after the fact.

use lfm_kernels::registry;
use lfm_sim::{ExploreLimits, Explorer, ParExplorer};
use lfm_study::Table;

/// The kernel the scaling experiment runs on: the largest state space
/// in the registry that full enumeration completes (a retry livelock:
/// 36 436 schedules with fusion on).
pub const PAR_KERNEL: &str = "livelock_retry";

/// Worker counts measured by the experiment.
pub const PAR_JOBS: [usize; 4] = [1, 2, 4, 8];

/// One worker-count measurement against the serial baseline.
#[derive(Debug, Clone)]
pub struct ParRow {
    /// Worker threads used.
    pub jobs: usize,
    /// Schedules the merged report counts (equal to the serial run's).
    pub schedules: u64,
    /// Wall-clock time of the parallel run, microseconds.
    pub wall_us: u64,
    /// `serial wall / parallel wall`.
    pub speedup: f64,
    /// Schedules per second of the parallel run.
    pub schedules_per_sec: f64,
    /// Whether the merged report matched the serial baseline
    /// field-for-field (everything except measured wall time).
    pub identical: bool,
}

/// The full E-par measurement: serial baseline plus one [`ParRow`] per
/// entry of [`PAR_JOBS`].
#[derive(Debug, Clone)]
pub struct ParScaling {
    /// Kernel id measured.
    pub kernel: &'static str,
    /// The kernel's bug family.
    pub family: String,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Schedules the serial baseline ran.
    pub serial_schedules: u64,
    /// Serial baseline wall time, microseconds.
    pub serial_wall_us: u64,
    /// Per-worker-count measurements.
    pub rows: Vec<ParRow>,
}

impl ParScaling {
    /// The speedup measured at `jobs` workers, if that count was run.
    pub fn speedup_at(&self, jobs: usize) -> Option<f64> {
        self.rows.iter().find(|r| r.jobs == jobs).map(|r| r.speedup)
    }

    /// `true` when every parallel report matched the serial baseline.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }
}

/// Runs the scaling comparison: one serial full enumeration of
/// [`PAR_KERNEL`] capped at `max_schedules`, then the parallel explorer
/// at each of [`PAR_JOBS`] under the same limits.
pub fn par_scaling(max_schedules: u64) -> ParScaling {
    let kernel = registry::by_id(PAR_KERNEL).expect("known kernel");
    let program = kernel.buggy();
    let limits = ExploreLimits {
        max_schedules,
        ..ExploreLimits::default()
    };

    let serial = Explorer::new(&program).limits(limits.clone()).run();
    let serial_wall_us = serial.stats.wall.as_micros() as u64;

    let rows = PAR_JOBS
        .into_iter()
        .map(|jobs| {
            let report = ParExplorer::new(&program)
                .limits(limits.clone())
                .jobs(jobs)
                .run();
            let wall_us = report.stats.wall.as_micros() as u64;
            ParRow {
                jobs,
                schedules: report.schedules_run,
                wall_us,
                speedup: serial_wall_us as f64 / (wall_us.max(1)) as f64,
                schedules_per_sec: report.schedules_per_sec(),
                identical: serial.without_wall() == report.without_wall(),
            }
        })
        .collect();

    ParScaling {
        kernel: PAR_KERNEL,
        family: kernel.family.to_string(),
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        serial_schedules: serial.schedules_run,
        serial_wall_us,
        rows,
    }
}

/// Renders the scaling measurement as the E-par table.
pub fn par_table(max_schedules: u64) -> Table {
    let scaling = par_scaling(max_schedules);
    let mut t = Table::new(
        "E-par",
        format!(
            "Parallel exploration scaling ({}, {} schedules, host parallelism {})",
            scaling.kernel, scaling.serial_schedules, scaling.host_parallelism
        ),
        vec![
            "explorer",
            "jobs",
            "schedules",
            "wall (us)",
            "speedup",
            "sched/sec",
            "report",
        ],
    );
    t.row(vec![
        "serial".to_string(),
        "1".to_string(),
        scaling.serial_schedules.to_string(),
        scaling.serial_wall_us.to_string(),
        "1.00x".to_string(),
        format!(
            "{:.0}",
            scaling.serial_schedules as f64 / (scaling.serial_wall_us.max(1) as f64 / 1e6)
        ),
        "baseline".to_string(),
    ]);
    for r in &scaling.rows {
        t.row(vec![
            "parallel".to_string(),
            r.jobs.to_string(),
            r.schedules.to_string(),
            r.wall_us.to_string(),
            format!("{:.2}x", r.speedup),
            format!("{:.0}", r.schedules_per_sec),
            if r.identical {
                "identical".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    t.note(
        "every parallel report is compared field-for-field against the serial \
         baseline (wall time excluded); `identical` is the determinism claim, \
         speedup is a property of the host",
    );
    if scaling.host_parallelism < 2 {
        t.note(
            "single-core host: worker threads time-slice one CPU, so speedup \
             at or below 1x is expected here; the >=1.5x target applies to \
             multi-core runners",
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // Structure-only assertions on the timing columns: wall time and
    // speedup vary with the host (and this container is single-core),
    // so the stable targets are the report-equality column and the
    // schedule counts.
    #[test]
    fn par_table_has_expected_shape() {
        let t = par_table(300);
        assert_eq!(t.id, "E-par");
        assert_eq!(t.len(), 1 + PAR_JOBS.len(), "serial row + one per jobs");
        let rendered = t.to_string();
        assert!(rendered.contains("livelock_retry"));
        assert!(rendered.contains("baseline"));
        assert!(!rendered.contains("DIVERGED"));
    }

    #[test]
    fn every_worker_count_reproduces_the_serial_report() {
        let scaling = par_scaling(250);
        assert_eq!(scaling.rows.len(), PAR_JOBS.len());
        assert!(scaling.all_identical());
        for r in &scaling.rows {
            assert_eq!(r.schedules, scaling.serial_schedules);
            assert!(r.speedup > 0.0);
        }
        assert!(scaling.speedup_at(4).is_some());
        assert!(scaling.speedup_at(3).is_none());
    }

    #[test]
    fn host_parallelism_is_recorded() {
        let scaling = par_scaling(100);
        assert!(scaling.host_parallelism >= 1);
        assert_eq!(scaling.kernel, PAR_KERNEL);
        assert_eq!(scaling.family, "other (non-deadlock)");
    }
}
