//! The zero-cost contract, enforced by a counting allocator: once a
//! metric handle exists, updating it never allocates — not with the
//! registry disabled (the default: one relaxed load and an untaken
//! branch) and not with it enabled (plain atomic updates on the
//! handle's interior). Detached trace emits are equally allocation-free,
//! and an attached sink allocates once per event record: its line.
//!
//! Registration (`counter()`/`gauge()`/`histogram()`) is allowed to
//! allocate — it interns the name and takes the registry lock — which
//! is why the instrumented hot paths in grid/exec/serve all resolve
//! their handles once, up front.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no local slot left; none of its
        // allocations is measured.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread. Metric updates and trace
/// emits run on the caller's thread, and the trace sink writes there too
/// (`SINK` in `rbr_obs::trace`), so every allocation they make is
/// counted, while another thread of the test process allocating at the
/// same moment is not.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn handle_updates_and_detached_emits_never_allocate_and_records_allocate_once() {
    // Registration allocates; do it before counting.
    let c = rbr_obs::metrics::counter("zero_alloc.counter");
    let g = rbr_obs::metrics::gauge("zero_alloc.gauge");
    let h = rbr_obs::metrics::histogram("zero_alloc.histogram");

    let hammer = |c: &rbr_obs::Counter, g: &rbr_obs::Gauge, h: &rbr_obs::Histogram| {
        for i in 0..1_000u64 {
            c.inc();
            c.add(3);
            g.set(i as f64);
            g.add(0.5);
            g.max(i as f64);
            h.observe(i);
        }
    };

    // Disabled — the default state every simulation runs in.
    rbr_obs::metrics::set_enabled(false);
    assert_eq!(
        allocs_during(|| hammer(&c, &g, &h)),
        0,
        "disabled metric updates must not allocate"
    );

    // Enabled — updates are atomic ops on the handle's interior.
    rbr_obs::metrics::set_enabled(true);
    let n = allocs_during(|| hammer(&c, &g, &h));
    rbr_obs::metrics::set_enabled(false);
    assert_eq!(n, 0, "enabled metric updates must not allocate");

    // Detached trace emits are a relaxed load and an untaken branch.
    assert!(!rbr_obs::trace::enabled());
    assert_eq!(
        allocs_during(|| {
            for _ in 0..1_000 {
                rbr_obs::trace::event(
                    rbr_obs::Clock::Sim,
                    1.5,
                    "zero_alloc.event",
                    &[("k", rbr_obs::trace::Field::U64(7))],
                );
                rbr_obs::trace::phase("zero_alloc", "phase", 0.25);
                assert!(rbr_obs::trace::span("zero_alloc.span").is_none());
            }
        }),
        0,
        "detached trace emits must not allocate"
    );

    // Attached, an event record shaped like the grid driver's
    // `grid.queue_depth` series (about 100 bytes) costs one allocation:
    // its line buffer. Integer fields are written into it in place.
    let path = std::env::temp_dir().join(format!("rbr-zero-alloc-{}.jsonl", std::process::id()));
    rbr_obs::trace::start_file(&path).expect("open trace file");
    let records = 1_000u64;
    let n = allocs_during(|| {
        for i in 0..records {
            rbr_obs::trace::event(
                rbr_obs::Clock::Sim,
                123_456.25 + i as f64,
                "grid.queue_depth",
                &[
                    ("target", rbr_obs::trace::Field::U64(i % 20)),
                    ("depth", rbr_obs::trace::Field::U64(10_000 + i)),
                ],
            );
        }
    });
    rbr_obs::trace::stop().expect("flush trace file");
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(text.lines().count() as u64, records, "every record written");
    assert!(
        text.lines().all(|l| l.len() <= 128),
        "records fit the line buffer"
    );
    assert!(
        n <= records,
        "{n} allocations for {records} attached trace records"
    );
}
