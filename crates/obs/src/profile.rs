//! Phase-attributed profiling for the explorer hot path.
//!
//! [`PhaseProfiler`] answers "where did the wall time go" without
//! perturbing exploration results: the explorer tags each hot-path
//! region with a [`Phase`] (snapshot cloning, interpreter stepping,
//! state hashing, dedup probes, the detector pass, and the parallel
//! explorer's splicing and waiting), and the profiler attributes
//! elapsed nanoseconds to that phase.
//!
//! # Sampling and determinism
//!
//! Reading a monotonic clock on *every* region entry would make the
//! profiler the hottest function in the trace it is trying to explain.
//! Instead the profiler is **sampling-gated**: every region entry
//! increments a relaxed atomic counter, but only one entry in
//! 2^`sample_shift` actually reads the clock. The total per phase is
//! then estimated as `nanos * entries / sampled` — an unbiased
//! estimate when region durations are independent of the sample index,
//! which holds here because the sampling counter is per-phase and the
//! explorer's work per region does not correlate with powers of two.
//!
//! Crucially, the profiler is *write-only* from the explorer's point of
//! view: no branch of the exploration ever reads profiler state, so
//! reports stay bit-identical whether profiling is disabled, enabled,
//! or sampling at a different rate. The determinism suite pins this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A hot-path region the explorer attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Snapshot work: the copy-on-write clone of a branch point's
    /// executor (unsharing what a child then writes is paid in `Step`).
    Snapshot,
    /// Interpreter stepping (`Exec::step` and the run-forward loop).
    Step,
    /// Repairing the lazy state key's dirty components for a dedup
    /// probe.
    Hash,
    /// Seen-set probe/insert for state dedup.
    Dedup,
    /// Detector pass over recorded events.
    Detect,
    /// Parallel explorer: splicing a finished subtree's results into
    /// the serial-order report.
    Commit,
    /// Parallel explorer: parked waiting for a subtree another thread
    /// is searching.
    Idle,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASES: usize = 7;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Snapshot,
        Phase::Step,
        Phase::Hash,
        Phase::Dedup,
        Phase::Detect,
        Phase::Commit,
        Phase::Idle,
    ];

    /// Stable lowercase name (used in events, metrics labels, tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Snapshot => "snapshot",
            Phase::Step => "step",
            Phase::Hash => "hash",
            Phase::Dedup => "dedup",
            Phase::Detect => "detect",
            Phase::Commit => "commit",
            Phase::Idle => "idle",
        }
    }
}

#[derive(Debug, Default)]
struct PhaseSlot {
    /// Region entries observed (every entry counts).
    entries: AtomicU64,
    /// Entries that actually read the clock.
    sampled: AtomicU64,
    /// Nanoseconds accumulated by sampled entries.
    nanos: AtomicU64,
}

/// Sampling profiler attributing wall time to explorer [`Phase`]s.
///
/// Construct with [`PhaseProfiler::disabled`] (every call is a single
/// branch) or [`PhaseProfiler::sampling`]. Thread-safe: the parallel
/// explorer hands one profiler per worker and merges snapshots.
#[derive(Debug)]
pub struct PhaseProfiler {
    enabled: bool,
    /// Sample when `entries % 2^shift == 0`.
    mask: u64,
    slots: [PhaseSlot; PHASES],
}

impl PhaseProfiler {
    /// A profiler that records nothing; `enter` is one branch.
    pub fn disabled() -> PhaseProfiler {
        PhaseProfiler {
            enabled: false,
            mask: 0,
            slots: Default::default(),
        }
    }

    /// A profiler sampling one region entry in `2^sample_shift`.
    ///
    /// `sample_shift = 0` times every entry (useful in tests);
    /// [`PhaseProfiler::DEFAULT_SHIFT`] (6, i.e. every 64th) keeps
    /// overhead low on hot kernels. Shifts above 63 are clamped.
    pub fn sampling(sample_shift: u32) -> PhaseProfiler {
        let shift = sample_shift.min(63);
        PhaseProfiler {
            enabled: true,
            mask: (1u64 << shift) - 1,
            slots: Default::default(),
        }
    }

    /// Default sampling shift: every 64th region entry reads the clock.
    pub const DEFAULT_SHIFT: u32 = 6;

    /// `true` when this profiler records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sampling shift this profiler was built with (0 when
    /// disabled).
    pub fn sample_shift(&self) -> u32 {
        self.mask.trailing_ones()
    }

    /// A fresh profiler with the same enablement and sampling shift —
    /// how the parallel explorer mints per-worker profilers that match
    /// the coordinator's configuration.
    pub fn like(&self) -> PhaseProfiler {
        if self.enabled {
            PhaseProfiler::sampling(self.sample_shift())
        } else {
            PhaseProfiler::disabled()
        }
    }

    /// Enters `phase`; drop the guard to close the region.
    ///
    /// Returns `None` (no clock read) when disabled or when this entry
    /// is not sampled.
    #[inline]
    pub fn enter(&self, phase: Phase) -> Option<PhaseGuard<'_>> {
        if !self.enabled {
            return None;
        }
        let slot = &self.slots[phase as usize];
        let n = slot.entries.fetch_add(1, Ordering::Relaxed);
        if n & self.mask != 0 {
            return None;
        }
        Some(PhaseGuard {
            slot,
            start: Instant::now(),
        })
    }

    /// Times `f` under `phase` and returns its result.
    #[inline]
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let guard = self.enter(phase);
        let out = f();
        drop(guard);
        out
    }

    /// Immutable snapshot of every phase's counters.
    pub fn snapshot(&self) -> PhaseProfile {
        PhaseProfile {
            phases: Phase::ALL.map(|p| {
                let slot = &self.slots[p as usize];
                PhaseStat {
                    phase: p,
                    entries: slot.entries.load(Ordering::Relaxed),
                    sampled: slot.sampled.load(Ordering::Relaxed),
                    nanos: slot.nanos.load(Ordering::Relaxed),
                }
            }),
        }
    }
}

/// RAII guard closing a sampled phase region.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    slot: &'a PhaseSlot,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let d = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.slot.sampled.fetch_add(1, Ordering::Relaxed);
        self.slot.nanos.fetch_add(d, Ordering::Relaxed);
    }
}

/// One phase's sampled counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Region entries observed.
    pub entries: u64,
    /// Entries that read the clock.
    pub sampled: u64,
    /// Nanoseconds accumulated by sampled entries.
    pub nanos: u64,
}

impl PhaseStat {
    /// Estimated total nanoseconds: `nanos * entries / sampled`.
    pub fn est_total_nanos(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        let scaled = (self.nanos as f64) * (self.entries as f64) / (self.sampled as f64);
        if scaled.is_finite() && scaled >= 0.0 {
            scaled.min(u64::MAX as f64) as u64
        } else {
            0
        }
    }
}

/// Snapshot of a [`PhaseProfiler`] — one [`PhaseStat`] per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    phases: [PhaseStat; PHASES],
}

impl PhaseProfile {
    /// An all-zero profile (identity for [`merge`](PhaseProfile::merge)).
    pub fn empty() -> PhaseProfile {
        PhaseProfile {
            phases: Phase::ALL.map(|phase| PhaseStat {
                phase,
                entries: 0,
                sampled: 0,
                nanos: 0,
            }),
        }
    }

    /// Stats per phase, in [`Phase::ALL`] order.
    pub fn phases(&self) -> &[PhaseStat] {
        &self.phases
    }

    /// The stat for one phase.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.phases[phase as usize]
    }

    /// Accumulates `other` into `self` (e.g. across workers).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.entries += theirs.entries;
            mine.sampled += theirs.sampled;
            mine.nanos += theirs.nanos;
        }
    }

    /// Sum of estimated totals across phases, in nanoseconds.
    pub fn est_grand_total_nanos(&self) -> u64 {
        self.phases
            .iter()
            .map(PhaseStat::est_total_nanos)
            .fold(0u64, u64::saturating_add)
    }

    /// `true` when no phase observed any entries.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|s| s.entries == 0)
    }

    /// Renders the profile as rows for a stats table: phase name,
    /// entries, sampled, estimated total, and share of the grand total.
    pub fn rows(&self) -> Vec<(String, String)> {
        let grand = self.est_grand_total_nanos();
        self.phases
            .iter()
            .filter(|s| s.entries > 0)
            .map(|s| {
                let est = s.est_total_nanos();
                let share = if grand > 0 {
                    100.0 * est as f64 / grand as f64
                } else {
                    0.0
                };
                (
                    format!("phase {}", s.phase.name()),
                    format!(
                        "{} ({share:.1}%, {} entries, {} sampled)",
                        crate::span::fmt_duration(std::time::Duration::from_nanos(est)),
                        s.entries,
                        s.sampled,
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = PhaseProfiler::disabled();
        assert!(!p.is_enabled());
        for _ in 0..100 {
            let g = p.enter(Phase::Step);
            assert!(g.is_none());
        }
        p.time(Phase::Hash, || ());
        let snap = p.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.est_grand_total_nanos(), 0);
        assert!(snap.rows().is_empty());
    }

    #[test]
    fn sampling_shift_zero_times_every_entry() {
        let p = PhaseProfiler::sampling(0);
        assert!(p.is_enabled());
        for _ in 0..10 {
            p.time(Phase::Snapshot, || std::hint::black_box(1 + 1));
        }
        let s = p.snapshot().get(Phase::Snapshot);
        assert_eq!(s.entries, 10);
        assert_eq!(s.sampled, 10);
        // est_total scales nanos by entries/sampled == 1.
        assert_eq!(s.est_total_nanos(), s.nanos);
    }

    #[test]
    fn sampling_gates_clock_reads() {
        let p = PhaseProfiler::sampling(2); // every 4th
        for _ in 0..16 {
            p.time(Phase::Dedup, || ());
        }
        let s = p.snapshot().get(Phase::Dedup);
        assert_eq!(s.entries, 16);
        assert_eq!(s.sampled, 4);
    }

    #[test]
    fn est_total_scales_by_sampling_ratio() {
        let s = PhaseStat {
            phase: Phase::Step,
            entries: 64,
            sampled: 4,
            nanos: 1_000,
        };
        assert_eq!(s.est_total_nanos(), 16_000);
        let zero = PhaseStat {
            phase: Phase::Step,
            entries: 64,
            sampled: 0,
            nanos: 0,
        };
        assert_eq!(zero.est_total_nanos(), 0);
    }

    #[test]
    fn merge_accumulates_across_profiles() {
        let a = PhaseProfiler::sampling(0);
        let b = PhaseProfiler::sampling(0);
        a.time(Phase::Commit, || ());
        b.time(Phase::Commit, || ());
        b.time(Phase::Idle, || ());
        let mut merged = PhaseProfile::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged.get(Phase::Commit).entries, 2);
        assert_eq!(merged.get(Phase::Idle).entries, 1);
        let rows = merged.rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0.contains("commit"));
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASES);
    }

    #[test]
    fn like_mirrors_enablement_and_shift() {
        let src = PhaseProfiler::sampling(3);
        let twin = src.like();
        assert!(twin.is_enabled());
        assert_eq!(twin.sample_shift(), 3);
        for _ in 0..16 {
            twin.time(Phase::Idle, || ());
        }
        assert_eq!(twin.snapshot().get(Phase::Idle).sampled, 2);
        let off = PhaseProfiler::disabled().like();
        assert!(!off.is_enabled());
    }

    #[test]
    fn extreme_shift_is_clamped() {
        let p = PhaseProfiler::sampling(200);
        p.time(Phase::Idle, || ());
        // First entry (index 0) is always sampled.
        assert_eq!(p.snapshot().get(Phase::Idle).sampled, 1);
    }
}
