//! JSONL replay allocates nothing per line: parsing a traced `fig1` run
//! may allocate once per `scenario` line (the owned name) and once per
//! `job_path` line (the links vector), plus a few fixed buffers — never
//! in proportion to the event count. A counting global allocator
//! measures.
//!
//! This file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use mlcc::experiments::fig1::{self, Fig1Config};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::{BufferRecorder, Event};

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

/// Allocations any replay may make once: the output vector, the field
/// buffer, and the span-nesting map with one stack per job.
const FIXED: u64 = 16;

#[test]
fn replay_allocates_per_owned_value_not_per_line() {
    let mut rec = BufferRecorder::new();
    fig1::run_traced(
        &Fig1Config {
            iterations: 10,
            ..Fig1Config::default()
        },
        &mut rec,
    );
    let text = telemetry::export::jsonl(rec.events());
    assert!(!text.contains('\\'), "the stream must be escape-free");
    let owned = rec
        .events()
        .iter()
        .filter(|te| matches!(te.event, Event::Scenario { .. } | Event::JobPath { .. }))
        .count() as u64;
    // The libtest harness keeps service threads that allocate at
    // unpredictable moments; a per-line allocation shows up in every
    // window, so the minimum over several isolates the parser's own cost.
    let allocs = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let events = telemetry::parse_jsonl(&text).expect("replay parses");
            let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(events, rec.events());
            allocs
        })
        .min()
        .unwrap();
    let lines = rec.events().len() as u64;
    assert!(lines > 10_000, "only {lines} events: too short to tell");
    assert!(
        allocs <= owned + FIXED,
        "{allocs} allocations replaying {lines} lines with {owned} scenario/job_path lines"
    );
}
