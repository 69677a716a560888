//! The grid driver's memory follows what the race uses, enforced by a
//! counting allocator: a built simulation holds only its inputs, and an
//! on-start race keeps a plan only for each copy it submits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rbr_grid::{ClusterSpec, GridConfig, GridSim, Scheme};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::LublinConfig;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward to `System` with the caller's layout
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory. `realloc` keeps its default,
// an `alloc`, a copy and a `dealloc`, so a growing table's old and new
// blocks both count toward the peak, as they are both live.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes a built simulation may hold per job: its job-table entry, with
/// the table's growth slack, and its arrival-lane slot.
const BUILT_BYTES_PER_JOB: usize = 96;

/// Bytes a run may add per job whatever it submits: the job's state and
/// its record.
const RUN_BYTES_PER_JOB: usize = 256;

/// Bytes a run may add per submitted copy: its plan and request entries,
/// with the tables' growth slack.
const RUN_BYTES_PER_SUBMIT: usize = 64;

/// Size of one stored copy plan.
const PLAN_BYTES: usize = 24;

/// Live heap bytes now.
fn live() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// Runs `f` and returns its value with the peak of live bytes above the
/// bytes live when it began (this binary holds exactly one test, so no
/// other thread is allocating concurrently).
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.store(base, Ordering::SeqCst);
    let value = f();
    (value, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn a_built_sim_holds_its_inputs_and_a_run_stores_only_submitted_copies() {
    // A built simulation holds the job table and the arrival lane, no
    // run state. Two paper-load clusters for an hour: about 1,400 jobs.
    let mut paper = GridConfig::homogeneous(2, Scheme::All);
    paper.window = Duration::from_hours(1);
    let before = live();
    let sim = GridSim::new(paper, SeedSequence::new(2006));
    let held = live() - before;
    let jobs = sim.n_jobs();
    assert!(
        held <= BUILT_BYTES_PER_JOB * jobs,
        "a built simulation of {jobs} jobs holds {held} B, {} B a job",
        held / jobs
    );
    drop(sim);

    // Light load on 20 clusters under ALL: each job plans 20 copies, but
    // most start on their first, so few copies are submitted.
    let mut light = GridConfig::homogeneous(20, Scheme::All);
    let workload = LublinConfig::paper_2006().with_mean_interarrival(120.0);
    light.clusters = vec![ClusterSpec::new(128, workload); 20];
    light.window = Duration::from_hours(2);
    let sim = GridSim::new(light, SeedSequence::new(2006));
    let jobs = sim.n_jobs();
    let (result, peak) = peak_during(|| sim.run());
    let submits = result.submits as usize;
    let planned = 20 * jobs;
    assert!(
        10 * submits < planned,
        "{submits} of {planned} planned copies submitted: the load is not light"
    );
    let bound = RUN_BYTES_PER_JOB * jobs + RUN_BYTES_PER_SUBMIT * submits;
    assert!(
        PLAN_BYTES * planned > bound,
        "a plan for every planned copy must break the bound by itself"
    );
    assert!(
        peak <= bound,
        "a run of {jobs} jobs and {submits} submitted copies peaked at {peak} B, \
         over its bound of {bound} B"
    );
}
