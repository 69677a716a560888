//! The grid driver's memory follows the jobs in the system, enforced by a
//! counting allocator that counts each thread's bytes apart, so tests
//! running beside each other do not see each other's allocations:
//!
//! * a built simulation holds only its inputs: each job's table entry and
//!   arrival-lane slot, with no growth slack, plus a fixed allowance for
//!   the schedulers and the engine;
//! * a run adds a fixed amount per job (its state and its record) and,
//!   for each plan block in the system at once, a fixed amount per
//!   planned copy (its plan entry and its scheduler-queue slot). No term
//!   grows with the copies a run submits: request ids name their copy,
//!   and a plan block is reused once nothing names its job;
//! * the same holds for runs that track every copy's state: one behind
//!   faulty middleware, where lost cancels leave zombies, and one
//!   completion race, where every copy is submitted. Their allowance per
//!   planned copy of a block held also covers the copy's state and the
//!   engine entries of its messages.
//!
//! The first bound fails when the job table keeps its growth slack (about
//! 61 B a job here), the others when the driver keeps a plan entry and a
//! request entry for every submitted copy (about 920 B a job on the
//! heavily redundant run), or a plan entry and a copy state for every
//! planned copy of a faulty or completion-race run (2,159 and 1,215 B a
//! job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use rbr_grid::redundancy::{self, RedundancyConfig};
use rbr_grid::{ClusterSpec, Delay, GridConfig, GridSim, RunResult, Scheme};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::{JobSpec, LublinConfig};

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated and has not freed (a block freed on
    /// another thread than the one that allocated it moves both counts),
    /// and their peak since the last reset. A simulation runs on the
    /// thread that calls it, so another test allocating on its own
    /// thread at the same moment is not counted.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's layout
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory, and their thread-locals are
// const-initialized without a destructor, so counting never allocates.
// `realloc` keeps its default, an `alloc`, a copy and a `dealloc`, so a
// growing table's old and new blocks both count toward the peak, as
// they are both live.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // A thread being torn down has no local slot left; none of
            // its allocations is measured.
            let _ = LIVE.try_with(|live| {
                let now = live.get() + layout.size() as isize;
                live.set(now);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
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

/// Bytes a run that tracks copy states may add per planned copy of each
/// plan block held at once: the on-start allowance, plus the copy's
/// state and the engine entries of its messages and its completion.
const TRACKED_BYTES_PER_BLOCK_COPY: usize = 240;

/// Clusters of the redundant runs; under ALL each job plans a copy on
/// every one, so each plan block has this many entries.
const CLUSTERS: usize = 20;

/// Copies per job of the completion race, each on its own server.
const RACE_COPIES: usize = 8;

/// Bytes the completion race's protocol holds per job, growth included:
/// its arrival instant and, per copy, a `u32` target and a runtime.
const RACE_TABLE_BYTES_PER_JOB: usize = 2 * (8 + RACE_COPIES * 12);

/// Size of one stored copy plan.
const PLAN_BYTES: usize = 24;

/// Size of one stored copy state.
const COPY_STATE_BYTES: usize = 16;

/// Size of one request-table entry, the per-submit table the driver no
/// longer keeps.
const REQUEST_ENTRY_BYTES: usize = 8;

/// Live heap bytes of this thread now.
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns its value with the peak of this thread's live
/// bytes above those live when it began.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.with(|peak| peak.set(base));
    let value = f();
    (value, (PEAK.with(Cell::get) - base) as usize)
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

/// The paper's workload at a 120 s mean interarrival: most copies start
/// on their first submission.
fn light_load() -> LublinConfig {
    LublinConfig::paper_2006().with_mean_interarrival(120.0)
}

/// ALL on [`CLUSTERS`] 128-node clusters of `workload` for `hours`.
fn all_config(workload: LublinConfig, hours: u64) -> GridConfig {
    let mut config = GridConfig::homogeneous(CLUSTERS, Scheme::All);
    config.clusters = vec![ClusterSpec::new(128, workload); CLUSTERS];
    config.window = Duration::from_hours(hours);
    config
}

/// Runs `config` at seed 2006, bounding it per job and by
/// `per_block_copy` bytes per planned copy of the jobs in the system.
fn redundant_run(config: GridConfig, per_block_copy: usize) -> Redundant {
    let sim = GridSim::new(config, SeedSequence::new(2006));
    let jobs = sim.n_jobs();
    let (result, peak) = peak_during(|| sim.run());
    let blocks = most_in_system(&result);
    Redundant {
        jobs,
        submits: result.submits as usize,
        peak,
        bound: RUN_BYTES_PER_JOB * jobs + per_block_copy * CLUSTERS * blocks,
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
    let held = (live() - before) as usize;
    let jobs = sim.n_jobs();
    assert!(
        held <= BUILT_BYTES_PER_JOB * jobs + BUILT_FIXED_BYTES,
        "a built simulation of {jobs} jobs holds {held} B, {} B a job",
        held / jobs
    );
    drop(sim);

    // Light load: each job plans 20 copies, but most start on their
    // first, so few copies are submitted and few jobs are in the system.
    let light = redundant_run(all_config(light_load(), 2), RUN_BYTES_PER_BLOCK_COPY);
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
    let heavy = redundant_run(
        all_config(LublinConfig::paper_2006(), 1),
        RUN_BYTES_PER_BLOCK_COPY,
    );
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

#[test]
fn faulty_and_completion_race_runs_hold_only_the_blocks_still_named() {
    // Light load behind faulty middleware: every planned copy is
    // submitted and most start at once; a tenth of the cancels, sent 30 s
    // later, are lost, so zombies run to completion. Zombies and late
    // cancels keep a block past its job's completion, which the
    // allowance per block copy absorbs.
    let mut config = all_config(light_load(), 2);
    config.faults.cancel_loss = 0.1;
    config.faults.cancel_delay = Delay::Fixed(Duration::from_secs(30.0));
    let faulty = redundant_run(config, TRACKED_BYTES_PER_BLOCK_COPY);
    let planned = CLUSTERS * faulty.jobs;
    assert_eq!(
        faulty.submits, planned,
        "a faulty run submits every planned copy once"
    );
    assert!(
        (PLAN_BYTES + COPY_STATE_BYTES) * planned > faulty.bound,
        "a plan entry and a copy state for every planned copy must break the bound by themselves"
    );
    assert!(
        faulty.peak <= faulty.bound,
        "a faulty run of {} jobs peaked at {} B, over its bound of {} B",
        faulty.jobs,
        faulty.peak,
        faulty.bound
    );

    // The completion race: every copy of every job is submitted and may
    // run, and a loser killed at the winner's completion leaves a stale
    // completion event behind. The protocol's own draw table is part of
    // the peak, so it is part of the allowance per job.
    let mut race = RedundancyConfig::new(RACE_COPIES, RACE_COPIES).with_load(0.4);
    race.window = Duration::from_hours(24);
    let (result, peak) = peak_during(|| redundancy::run(&race, SeedSequence::new(2006)));
    let jobs = result.records.len();
    let planned = RACE_COPIES * jobs;
    let bound = (RUN_BYTES_PER_JOB + RACE_TABLE_BYTES_PER_JOB) * jobs
        + TRACKED_BYTES_PER_BLOCK_COPY * RACE_COPIES * most_in_system(&result);
    assert_eq!(
        result.submits as usize, planned,
        "the completion race submits every planned copy once"
    );
    assert!(
        peak <= bound,
        "a completion race of {jobs} jobs peaked at {peak} B, over its bound of {bound} B"
    );
    assert!(
        peak + (PLAN_BYTES + COPY_STATE_BYTES) * planned > bound,
        "a plan entry and a copy state for every planned copy must break the bound"
    );
}
