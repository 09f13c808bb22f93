//! The rate engine's step loop allocates nothing per grid step: a 200 ms
//! two-job run (40,000 steps of 5 µs) may allocate only for the iteration
//! records it pushes, never in proportion to its steps. A counting global
//! allocator measures.
//!
//! This file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use dcqcn::CcVariant;
use netsim::rate::{RateJob, RateSimConfig, RateSimulator};
use netsim::Engine;
use simtime::Dur;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workload::{JobSpec, Model};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn rate_steps_do_not_allocate() {
    let spec = JobSpec::reference(Model::ResNet50, 400);
    let jobs = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(spec, CcVariant::Fair),
    ];
    // The libtest harness keeps service threads that allocate at
    // unpredictable moments; a per-step allocation shows up in every
    // window, so the minimum over several isolates the engine's own cost.
    let (allocs, records, steps) = (0..5)
        .map(|_| {
            let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            sim.run_for(Dur::from_millis(200));
            let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
            let records = (0..2).map(|i| sim.progress(i).completed() as u64).sum();
            (allocs, records, sim.steps())
        })
        .min()
        .unwrap();
    assert_eq!(steps, 40_000);
    assert!(records > 0, "the run completed no iteration");
    // Each pushed iteration record may grow its job's record vector once.
    assert!(
        allocs <= records,
        "{allocs} allocations over {steps} steps that pushed {records} iteration records"
    );
}
