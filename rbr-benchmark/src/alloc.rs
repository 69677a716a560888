//! A counting global allocator: the peak of live heap bytes over a run.
//!
//! The kernel's high-water mark (`VmHWM`) of two runs of the same
//! grid-easy inputs differed by a third (52 vs 68 MB on a two-vCPU Xeon
//! VM), depending on which freed blocks the system allocator kept
//! mapped; the heap's own peak does not depend on that.
//!
//! Each thread batches its byte count and publishes it to the shared
//! total only every [`FLUSH`] bytes: one shared atomic updated on every
//! allocation made the two-lane campaign half again slower. The peak is
//! therefore exact to within `FLUSH` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes a thread may count privately before publishing.
const FLUSH: isize = 64 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes and their peak. The
/// counters are statistics that publish no other data, so `Relaxed`
/// suffices.
pub struct Counting;

fn publish(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn count(bytes: isize) {
    // A thread being torn down has no local slot left: publish directly.
    let due = PENDING.try_with(|p| {
        let pending = p.get() + bytes;
        let due = pending.abs() >= FLUSH;
        p.set(if due { 0 } else { pending });
        due.then_some(pending)
    });
    match due {
        Ok(None) => {}
        Ok(Some(pending)) => publish(pending),
        Err(_) => publish(bytes),
    }
}

/// A layout's size as a signed count; `Layout` caps sizes at
/// `isize::MAX`, so the conversion is exact.
fn size(bytes: usize) -> isize {
    bytes as isize
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Restarts the peak from the bytes live now (this thread's unpublished
/// count aside).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes so far, MB (0 unless [`Counting`] is the
/// global allocator).
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
