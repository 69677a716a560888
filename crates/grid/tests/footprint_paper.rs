//! The grid driver's memory at paper scale, enforced by a counting
//! allocator that counts each thread's bytes apart. Two N = 20 ALL runs
//! over the paper's 6 h window, 86,192 jobs each:
//!
//! * with perfect middleware, about 1.6 million submitted copies, the
//!   run peaks at a fraction of what a table entry per submitted copy
//!   would take;
//! * behind faulty middleware (cancel loss 0.1, 30 s cancel delay), all
//!   1,723,840 planned copies are submitted and lost cancels leave
//!   zombies; the run peaks well under what a plan entry and a copy state
//!   for every planned copy, kept to the end, would take.
//!
//! A release build runs them in about 1 s and 6 s on a 2-vCPU host, a
//! debug build in minutes, so they are ignored by default and run
//! nightly:
//!
//! ```text
//! cargo test --release -p rbr-grid --test footprint_paper -- --ignored
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rbr_grid::{Delay, GridConfig, GridSim, RunResult, Scheme};
use rbr_simcore::{Duration, SeedSequence};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated and has not freed, and their peak
    /// since the last reset. A run allocates on the thread that calls
    /// it, so the other test of this binary, running beside it, is not
    /// counted.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Moves this thread's live count by `bytes` and its peak with it. A
/// thread being torn down has no local slot left and is not measured.
fn moved(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory, and their thread-locals are
// const-initialized without a destructor, so counting never allocates.
// `realloc` is `System`'s, as in the benchmark's allocator, so a table
// that grows in place counts once.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            moved(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The most live heap a paper-scale run may reach, build included.
const RUN_PEAK_BYTES: usize = 40 << 20;

/// The most live heap the paper-scale faulty run may reach, build
/// included. It peaks at 106.1 MiB; when the driver kept every job's
/// plan block and copy states until the run ended, it peaked at
/// 165.2 MiB.
const FAULTY_PEAK_BYTES: usize = 128 << 20;

/// Builds and runs N = 20 ALL over 6 h at `SeedSequence::new(2006)
/// .child(0)`, with `faults` applied to the configuration, and checks
/// that every job completed and the peak of this thread's live heap,
/// build included, stays under `limit`.
fn paper_run(label: &str, faults: impl FnOnce(&mut GridConfig), limit: usize) -> RunResult {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let mut config = GridConfig::homogeneous(20, Scheme::All);
    faults(&mut config);
    let sim = GridSim::new(config, SeedSequence::new(2006).child(0));
    let built = (LIVE.with(Cell::get) - base) as usize;
    let jobs = sim.n_jobs();
    let result = sim.run();
    let peak = (PEAK.with(Cell::get) - base) as usize;
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    eprintln!(
        "{label}: {jobs} jobs, {} submits: built {:.1} MiB, run peak {:.1} MiB",
        result.submits,
        mib(built),
        mib(peak)
    );
    assert_eq!(result.records.len(), jobs);
    assert!(
        peak < limit,
        "a paper-scale {label} run of {jobs} jobs and {} submits peaked at {:.1} MiB, over {:.0} MiB",
        result.submits,
        mib(peak),
        mib(limit)
    );
    result
}

#[test]
#[ignore = "paper scale: run nightly with --release -- --ignored"]
fn a_paper_scale_all_run_peaks_under_40_mib() {
    paper_run("perfect-middleware", |_| {}, RUN_PEAK_BYTES);
}

#[test]
#[ignore = "paper scale: run nightly with --release -- --ignored"]
fn a_paper_scale_faulty_all_run_peaks_under_128_mib() {
    let result = paper_run(
        "faulty",
        |config| {
            config.faults.cancel_loss = 0.1;
            config.faults.cancel_delay = Delay::Fixed(Duration::from_secs(30.0));
        },
        FAULTY_PEAK_BYTES,
    );
    assert_eq!(
        result.submits as usize,
        20 * result.records.len(),
        "a faulty run submits every planned copy once"
    );
}
