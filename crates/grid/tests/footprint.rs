//! The grid driver's memory follows the jobs in the system, enforced by a
//! counting allocator:
//!
//! * a built simulation holds only its inputs: each job's table entry and
//!   arrival-lane slot, with no growth slack, plus a fixed allowance for
//!   the schedulers and the engine;
//! * a run adds a fixed amount per job (its state and its record) and,
//!   for each plan block in the system at once, a fixed amount per
//!   planned copy (its plan entry and its scheduler-queue slot). No term
//!   grows with the copies a run submits: request ids name their copy,
//!   and a completed job's plan block is reused.
//!
//! The first bound fails when the job table keeps its growth slack (about
//! 61 B a job here), the others when the driver keeps a plan entry and a
//! request entry for every submitted copy (about 920 B a job on the
//! heavily redundant run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use rbr_grid::{ClusterSpec, GridConfig, GridSim, RunResult, Scheme};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::{JobSpec, LublinConfig};

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

/// Bytes a built simulation holds per job: its job-table entry and its
/// arrival-lane slot, exactly.
const BUILT_BYTES_PER_JOB: usize = size_of::<(JobSpec, usize)>() + size_of::<u32>();

/// Bytes a built simulation may hold whatever its job count: the
/// schedulers, the engine and the protocol's small tables.
const BUILT_FIXED_BYTES: usize = 1024;

/// Bytes a run may add per job whatever it submits: the job's state and
/// its record.
const RUN_BYTES_PER_JOB: usize = 192;

/// Bytes a run may add per planned copy of each plan block in the system
/// at once: the copy's plan entry and its slot in a scheduler queue, with
/// both tables' growth.
const RUN_BYTES_PER_BLOCK_COPY: usize = 80;

/// Clusters of the redundant runs; under ALL each job plans a copy on
/// every one, so each plan block has this many entries.
const CLUSTERS: usize = 20;

/// Size of one stored copy plan.
const PLAN_BYTES: usize = 24;

/// Size of one request-table entry, the per-submit table the driver no
/// longer keeps.
const REQUEST_ENTRY_BYTES: usize = 8;

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

/// The most jobs in the system at once: arrived, not yet completed. Each
/// holds one plan block. Arrivals win same-instant ties, as in the
/// driver, so a block is taken before a completion at that instant
/// returns one.
fn most_in_system(run: &RunResult) -> usize {
    let mut edges: Vec<_> = run
        .records
        .iter()
        .flat_map(|r| [(r.arrival, 1i64), (r.completion, -1)])
        .collect();
    edges.sort_unstable_by_key(|&(at, step)| (at, -step));
    let (mut now, mut most) = (0i64, 0i64);
    for (_, step) in edges {
        now += step;
        most = most.max(now);
    }
    most as usize
}

/// An ALL run on [`CLUSTERS`] 128-node clusters of `workload`, with the
/// run's job count, peak, bound and submitted copies.
struct Redundant {
    jobs: usize,
    submits: usize,
    peak: usize,
    bound: usize,
}

fn redundant_run(workload: LublinConfig, hours: u64) -> Redundant {
    let mut config = GridConfig::homogeneous(CLUSTERS, Scheme::All);
    config.clusters = vec![ClusterSpec::new(128, workload); CLUSTERS];
    config.window = Duration::from_hours(hours);
    let sim = GridSim::new(config, SeedSequence::new(2006));
    let jobs = sim.n_jobs();
    let (result, peak) = peak_during(|| sim.run());
    let blocks = most_in_system(&result);
    Redundant {
        jobs,
        submits: result.submits as usize,
        peak,
        bound: RUN_BYTES_PER_JOB * jobs + RUN_BYTES_PER_BLOCK_COPY * CLUSTERS * blocks,
    }
}

#[test]
fn a_built_sim_holds_its_inputs_and_a_run_holds_the_jobs_in_the_system() {
    // A built simulation holds the job table and the arrival lane, no
    // run state. Two paper-load clusters for an hour: about 1,400 jobs.
    let mut paper = GridConfig::homogeneous(2, Scheme::All);
    paper.window = Duration::from_hours(1);
    let before = live();
    let sim = GridSim::new(paper, SeedSequence::new(2006));
    let held = live() - before;
    let jobs = sim.n_jobs();
    assert!(
        held <= BUILT_BYTES_PER_JOB * jobs + BUILT_FIXED_BYTES,
        "a built simulation of {jobs} jobs holds {held} B, {} B a job",
        held / jobs
    );
    drop(sim);

    // Light load: each job plans 20 copies, but most start on their
    // first, so few copies are submitted and few jobs are in the system.
    let light = redundant_run(LublinConfig::paper_2006().with_mean_interarrival(120.0), 2);
    let planned = CLUSTERS * light.jobs;
    assert!(
        10 * light.submits < planned,
        "{} of {planned} planned copies submitted: the load is not light",
        light.submits
    );
    assert!(
        PLAN_BYTES * planned > light.bound,
        "a plan for every planned copy must break the bound by itself"
    );
    assert!(
        light.peak <= light.bound,
        "a light run of {} jobs peaked at {} B, over its bound of {} B",
        light.jobs,
        light.peak,
        light.bound
    );

    // Paper load: queues build up, and most jobs submit most of their
    // copies before one starts.
    let heavy = redundant_run(LublinConfig::paper_2006(), 1);
    assert!(
        heavy.submits >= 10 * heavy.jobs,
        "{} submits for {} jobs: the run is not heavily redundant",
        heavy.submits,
        heavy.jobs
    );
    assert!(
        heavy.peak <= heavy.bound,
        "a paper-load run of {} jobs and {} submits peaked at {} B, over its bound of {} B",
        heavy.jobs,
        heavy.submits,
        heavy.peak,
        heavy.bound
    );
    assert!(
        heavy.peak + REQUEST_ENTRY_BYTES * heavy.submits > heavy.bound,
        "an 8-byte entry per submit must break the bound by itself"
    );
}
