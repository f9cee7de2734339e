//! Heap-allocation budget of the explorer's hot path.
//!
//! A full enumeration of a small kernel runs tens of thousands of
//! schedules, so any per-snapshot or per-step allocation multiplies
//! into most of the search's constant overhead. This suite counts the
//! allocator calls of whole searches with a counting global allocator
//! and pins them per schedule. Counts are per thread, so the test
//! harness running other tests concurrently cannot perturb them, and
//! they are a pure function of the search: the bounds hold on any host
//! at any speed.
//!
//! Each bound sits a little above what the current representation
//! needs (lazy state key, inline thread locals, flat schedule log).
//! Reintroducing a heap table per thread, an eager per-step rehash
//! buffer or a chunked schedule log breaks them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lfm_kernels::{registry, FixKind, Variant};
use lfm_sim::{ExploreReport, Explorer, Program};

/// Forwards to the system allocator, counting every allocation and
/// reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted
    // instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `search` and returns its report with the allocations it made
/// on this thread.
fn counted(search: impl FnOnce() -> ExploreReport) -> (ExploreReport, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let report = search();
    (report, ALLOCATIONS.with(Cell::get) - before)
}

fn livelock_retry() -> Program {
    registry::by_id("livelock_retry")
        .expect("registry kernel")
        .buggy()
}

/// Asserts an untruncated search stayed within `bound` allocations per
/// schedule.
fn assert_per_schedule(label: &str, report: &ExploreReport, allocations: u64, bound: f64) {
    assert!(!report.truncated, "{label}: search truncated");
    let per = allocations as f64 / report.schedules_run as f64;
    assert!(
        per <= bound,
        "{label}: {allocations} allocations over {} schedules = {per:.2} per schedule, \
         budget {bound}",
        report.schedules_run
    );
}

#[test]
fn full_enumeration_allocation_budget() {
    let program = livelock_retry();
    let (report, allocations) = counted(|| Explorer::new(&program).run());
    assert_eq!(report.schedules_run, 36_436, "the search itself changed");
    assert_per_schedule("full enumeration", &report, allocations, 8.0);
}

#[test]
fn dpor_allocation_budget() {
    let program = livelock_retry();
    let (report, allocations) = counted(|| Explorer::new(&program).dpor().run());
    assert_eq!(report.schedules_run, 4_940, "the search itself changed");
    assert_per_schedule("dpor", &report, allocations, 27.0);
}

/// One pass of the benchmark's `deep_full` workload: full enumeration
/// of its three deep inputs.
#[test]
fn deep_full_pass_allocation_budget() {
    let inputs = [
        ("livelock_retry", Variant::Buggy),
        ("aba_problem", Variant::Fixed(FixKind::Transaction)),
        ("toctou_flag", Variant::Buggy),
    ];
    let (mut schedules, mut allocations) = (0, 0);
    for (id, variant) in inputs {
        let program = registry::by_id(id).expect("registry kernel").build(variant);
        let (report, n) = counted(|| Explorer::new(&program).run());
        assert!(!report.truncated, "{id}: search truncated");
        schedules += report.schedules_run;
        allocations += n;
    }
    assert_eq!(schedules, 45_828, "the pass itself changed");
    assert!(
        allocations <= 430_000,
        "a deep_full pass made {allocations} allocations, budget 430000"
    );
}
