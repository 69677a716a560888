//! The grid driver's memory at paper scale, enforced by a counting
//! allocator: one N = 20 ALL run over the paper's 6 h window, about
//! 86,000 jobs and 1.6 million submitted copies, peaks at a fraction of
//! what a table entry per submitted copy would take.
//!
//! A release build runs it in about a second, a debug build in minutes,
//! so it is ignored by default and run nightly:
//!
//! ```text
//! cargo test --release -p rbr-grid --test footprint_paper -- --ignored
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rbr_grid::{GridConfig, GridSim, Scheme};
use rbr_simcore::SeedSequence;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory. `realloc` is `System`'s, as
// in the benchmark's allocator, so a table that grows in place counts
// once.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The most live heap a paper-scale run may reach, build included.
const RUN_PEAK_BYTES: usize = 40 << 20;

#[test]
#[ignore = "paper scale: run nightly with --release -- --ignored"]
fn a_paper_scale_all_run_peaks_under_40_mib() {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let sim = GridSim::new(
        GridConfig::homogeneous(20, Scheme::All),
        SeedSequence::new(2006).child(0),
    );
    let built = LIVE.load(Ordering::SeqCst) - base;
    let jobs = sim.n_jobs();
    let result = sim.run();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    eprintln!(
        "{jobs} jobs, {} submits: built {:.1} MiB, run peak {:.1} MiB",
        result.submits,
        mib(built),
        mib(peak)
    );
    assert_eq!(result.records.len(), jobs);
    assert!(
        peak < RUN_PEAK_BYTES,
        "a paper-scale run of {jobs} jobs and {} submits peaked at {:.1} MiB, over {:.0} MiB",
        result.submits,
        mib(peak),
        mib(RUN_PEAK_BYTES)
    );
}
