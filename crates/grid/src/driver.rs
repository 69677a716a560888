//! The protocol-parameterized simulation core.
//!
//! Section 2 of the paper enumerates four ways to issue redundant batch
//! requests: to multiple clusters, to multiple queues of one cluster,
//! for multiple node counts, and combinations thereof. They differ only
//! in *where copies go* — the race itself (submit copies, first start
//! wins, cancel the losers, account the damage) is one protocol. This
//! module implements that race once:
//!
//! * [`SubmissionProtocol`] — the per-variant decision hooks: how many
//!   jobs, when each arrives, and which [`CopyPlan`]s (target, shape,
//!   estimate, runtime) a job submits;
//! * [`SimDriver`] — the event loop that owns the engine pump, the
//!   scheduler set, the copy/request bookkeeping, the faulty-middleware
//!   message layer, and the [`RunResult`] accounting.
//!
//! # Request ids and plan blocks
//!
//! A copy's [`RequestId`] names it: the job index in the high 32 bits,
//! the copy index in the next 16, and the copy's submission count in the
//! low 16. The count is above 0 only under faulty middleware, where a
//! copy is submitted again after an outage evaporated or killed it, or
//! after a stale cancel killed it as the winner, so ids are unique for
//! the run. The driver decodes a started or completing request with
//! shifts and keeps no table keyed by id.
//!
//! Each job's copy plans take one block of the plan arena, as many
//! entries as it plans copies, from a free list kept per block length.
//! The on-start race returns the block when the job completes: its
//! siblings were cancelled or revoked when it started, so no queue,
//! worklist or event names its copies any more. A run's plan memory
//! therefore follows the jobs in the system, not every copy it ever
//! submitted. Faulty and completion-race runs keep every block, because
//! a stale event can still name a killed copy.
//!
//! Targets are indices into a [`SchedulerSet`]: independent clusters for
//! the multi-cluster variant, priority queues for the dual-queue
//! variant, the same single cluster for every shape of a moldable job.
//!
//! # Perfect vs faulty middleware
//!
//! Under perfect middleware (no [`FaultModel`]), cancellation is the
//! zero-latency callback of placeholder scheduling: the instant a copy
//! is granted nodes, the job starts there and every sibling is
//! cancelled. Copies not yet submitted when the callback fires are never
//! submitted at all, and same-instant double grants are resolved by
//! deterministic event order (the losers' grants are revoked).
//!
//! With a [`FaultModel`], control traffic becomes messages that take
//! time and get lost, clusters suffer scheduled outages, and losing
//! copies may run anyway (zombies) — see the module docs of
//! [`crate::sim`] for the degraded protocol.
//!
//! # Adding a fourth protocol
//!
//! Implement [`SubmissionProtocol`] and hand it to [`SimDriver`] with a
//! scheduler set; everything else — winner commit, loser cancellation,
//! waste accounting, [`JobRecord`] synthesis — is inherited:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rbr_grid::driver::{CopyPlan, SimDriver, SubmissionProtocol};
//! use rbr_sched::{Algorithm, ClusterSet, SchedulerSet};
//! use rbr_simcore::{Duration, SeedSequence, SimTime};
//!
//! /// Option (i) taken to the extreme: every job races on every cluster.
//! struct Flood {
//!     arrivals: Vec<SimTime>,
//!     runtime: Duration,
//! }
//!
//! impl SubmissionProtocol for Flood {
//!     fn name(&self) -> &'static str {
//!         "flood"
//!     }
//!     fn n_jobs(&self) -> usize {
//!         self.arrivals.len()
//!     }
//!     fn arrival(&self, job: usize) -> SimTime {
//!         self.arrivals[job]
//!     }
//!     fn home(&self, job: usize) -> usize {
//!         job % 2
//!     }
//!     fn place_into(
//!         &mut self,
//!         job: usize,
//!         _now: SimTime,
//!         _rng: &mut StdRng,
//!         scheds: &dyn SchedulerSet,
//!         out: &mut Vec<CopyPlan>,
//!     ) {
//!         let home = self.home(job);
//!         // Home cluster first — copy 0 is the guaranteed submission.
//!         out.extend(
//!             (0..scheds.n_targets())
//!                 .map(|c| (c + home) % scheds.n_targets())
//!                 .map(|target| CopyPlan {
//!                     target,
//!                     nodes: 1,
//!                     estimate: self.runtime,
//!                     runtime: self.runtime,
//!                 }),
//!         );
//!     }
//! }
//!
//! let protocol = Flood {
//!     arrivals: vec![SimTime::ZERO, SimTime::from_secs(1.0)],
//!     runtime: Duration::from_secs(60.0),
//! };
//! let scheds = ClusterSet::new(Algorithm::Easy, Duration::ZERO, &[4, 4]);
//! let driver = SimDriver::new(
//!     protocol,
//!     Box::new(scheds),
//!     SeedSequence::new(1).rng(),
//!     None,  // perfect middleware
//!     false, // no wait predictions
//! );
//! let result = driver.run();
//! assert_eq!(result.records.len(), 2);
//! assert_eq!(result.zombie_starts, 0);
//! ```

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rbr_faults::FaultModel;
use rbr_sched::{Request, RequestId, SchedulerSet};
use rbr_simcore::{Duration, Engine, SimTime};

use crate::observe::{observer_from_factory, RunObserver};
use crate::record::{JobRecord, RunResult};

/// When a job's losing copies are cancelled.
///
/// The paper's placeholder-scheduling protocol cancels the instant one
/// copy starts; the post-2006 redundancy-d literature (Gardner et al.,
/// the Anton/Ayesta/Jonckheere/Verloop survey) studies the harsher
/// variant where every copy occupies its server until the first copy
/// *completes* — duplicated service becomes real work, which is exactly
/// what shrinks the stability region for identical copies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CancelMode {
    /// Cancel the losers the instant one copy is granted nodes (the
    /// zero-latency callback of placeholder scheduling; the paper's
    /// protocol and the default for every existing protocol).
    #[default]
    OnStart,
    /// Let every granted copy execute; the first *completion* wins the
    /// race, queued losers are cancelled and running losers are killed
    /// (their partial work is accounted as waste).
    OnCompletion,
}

/// One planned copy of a job: where it goes and what it asks for.
///
/// The multi-cluster variant plans identical copies on different
/// clusters (modulo remote estimate inflation); the moldable variant
/// plans different `(nodes, runtime)` shapes on the same cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyPlan {
    /// Submission target (index into the [`SchedulerSet`]).
    pub target: usize,
    /// Nodes requested.
    pub nodes: u32,
    /// Compute-time estimate handed to the scheduler.
    pub estimate: Duration,
    /// Actual runtime if this copy wins the race.
    pub runtime: Duration,
}

/// The decision hooks that distinguish one redundant-request variant
/// from another. Everything else — the race, the cancellation callback,
/// the faulty-middleware message layer, the accounting — lives in
/// [`SimDriver`].
///
/// See the [module docs](self) for a complete fourth-protocol example.
pub trait SubmissionProtocol {
    /// Protocol name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Number of jobs in the run.
    fn n_jobs(&self) -> usize;

    /// Arrival instant of job `job` — the instant the driver schedules
    /// its submission.
    fn arrival(&self, job: usize) -> SimTime;

    /// Arrival instant recorded in the job's [`JobRecord`]. Defaults to
    /// [`SubmissionProtocol::arrival`]; batched-submit protocols override
    /// it to keep the job's *true* arrival in the record while
    /// `arrival()` returns the transaction flush instant, so batch-fill
    /// latency shows up in wait and stretch.
    fn record_arrival(&self, job: usize) -> SimTime {
        self.arrival(job)
    }

    /// The job's home target, recorded in its [`JobRecord`].
    fn home(&self, job: usize) -> usize;

    /// When this protocol's losing copies are cancelled. Defaults to
    /// [`CancelMode::OnStart`] — the paper's zero-latency callback —
    /// which keeps every pre-existing protocol bit-identical. Queried
    /// once at driver construction.
    fn cancel_mode(&self) -> CancelMode {
        CancelMode::OnStart
    }

    /// Plans the copies job `job` submits on arrival by appending them to
    /// `out` in submission order (`out` is a driver-owned scratch buffer,
    /// already cleared — this hook runs once per job, so it must not
    /// allocate). At least one plan must be appended; the first entry is
    /// the home submission (under faulty middleware it is the one copy
    /// whose delivery escalates to guaranteed, so no job can vanish).
    ///
    /// This is the only hook that may draw randomness; the driver never
    /// touches `rng` itself, so a protocol's draw sequence is exactly
    /// its own.
    fn place_into(
        &mut self,
        job: usize,
        now: SimTime,
        rng: &mut StdRng,
        scheds: &dyn SchedulerSet,
        out: &mut Vec<CopyPlan>,
    );
}

/// Engine events.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A job arrives (index into the job table). Delivered from the
    /// driver's [`Arrivals`], never scheduled in the engine.
    Submit(usize),
    /// A running request finishes (its job and copy are decoded from
    /// the id; its target is recovered from the copy plan).
    Complete(RequestId),
    /// Faulty middleware: a submit message reaches its scheduler.
    DeliverSubmit {
        /// Job index.
        job: usize,
        /// Copy index within the job.
        copy: usize,
    },
    /// Faulty middleware: a cancel message reaches its scheduler.
    DeliverCancel {
        /// Job index.
        job: usize,
        /// Copy index within the job.
        copy: usize,
    },
    /// A scheduled target outage begins.
    OutageDown {
        /// Affected target.
        cluster: usize,
        /// Instant the target accepts traffic again.
        recover: SimTime,
    },
    /// Batched cancels: the open transaction's flush deadline expires.
    /// Stale if the batch already flushed on size (`serial` mismatch).
    CancelFlush {
        /// Serial of the batch this deadline belongs to.
        serial: u64,
    },
}

impl Event {
    /// The label [`RunObserver::on_event`] receives.
    fn kind(self) -> &'static str {
        match self {
            Event::Submit(_) => "submit",
            Event::Complete(_) => "complete",
            Event::DeliverSubmit { .. } => "deliver-submit",
            Event::DeliverCancel { .. } => "deliver-cancel",
            Event::OutageDown { .. } => "outage-down",
            Event::CancelFlush { .. } => "cancel-flush",
        }
    }
}

/// The request id of job `job`'s copy `copy` on its `count`-th
/// resubmission (0 for its first submission): job, copy and count packed
/// into 32, 16 and 16 bits.
///
/// # Panics
/// Panics, naming the field, if the job index does not fit in 32 bits or
/// the copy index in 16.
fn request_id(job: usize, copy: usize, count: u16) -> RequestId {
    let job = u32::try_from(job).expect("job index fits in 32 bits");
    let copy = u16::try_from(copy).expect("copy index fits in 16 bits");
    RequestId(u64::from(job) << 32 | u64::from(copy) << 16 | u64::from(count))
}

/// The job, copy and submission count a [`request_id`] packs.
fn unpack(rid: RequestId) -> (usize, usize, u16) {
    let id = rid.0;
    ((id >> 32) as usize, (id >> 16) as u16 as usize, id as u16)
}

/// Lifecycle of one copy under faulty middleware.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CopyPhase {
    /// Submit message travelling (or awaiting an outage recovery).
    InFlight,
    /// Waiting in a scheduler's queue.
    Queued,
    /// Granted nodes and executing since `start`.
    Running {
        /// Execution start instant.
        start: SimTime,
    },
    /// Cancel overtook the submit; discarded on delivery.
    Doomed,
    /// Cancelled, killed, dropped, or finished.
    Dead,
}

/// One copy of a job under faulty middleware or in the completion race.
#[derive(Clone, Copy, Debug)]
struct CopyState {
    phase: CopyPhase,
    /// Times the copy was submitted to its scheduler. While it is queued
    /// or running, it holds the request `request_id(job, copy, subs - 1)`.
    subs: u16,
}

/// A [`CopyPlan`] as the plan arena stores it: the target narrowed to
/// `u32`, so an entry takes 24 bytes instead of 32.
#[derive(Clone, Copy, Debug)]
struct PlanEntry {
    target: u32,
    nodes: u32,
    estimate: Duration,
    runtime: Duration,
}

impl From<CopyPlan> for PlanEntry {
    fn from(plan: CopyPlan) -> Self {
        PlanEntry {
            target: u32::try_from(plan.target).expect("target index fits in u32"),
            nodes: plan.nodes,
            estimate: plan.estimate,
            runtime: plan.runtime,
        }
    }
}

impl From<PlanEntry> for CopyPlan {
    fn from(entry: PlanEntry) -> Self {
        CopyPlan {
            target: entry.target as usize,
            nodes: entry.nodes,
            estimate: entry.estimate,
            runtime: entry.runtime,
        }
    }
}

/// Mutable per-job state, allocated by [`SimDriver::run`].
///
/// Per-job collections live in the driver's flat arenas (copy plans and
/// copy states share offsets), so a job's state is a fixed-size record
/// and the race/cancel/revoke path allocates nothing per copy.
#[derive(Clone, Copy, Debug, Default)]
struct JobState {
    started: Option<(usize, SimTime)>,
    redundant: bool,
    predicted_wait: Option<Duration>,
    done: bool,
    /// Index of the copy whose start committed the job (faulty runs).
    winner: Option<usize>,
    /// This job's block of the plan arena (and, in faulty and
    /// completion-race runs, of the copy-state arena: both are appended
    /// at arrival, so the offsets coincide), one entry per planned copy.
    plan_first: u32,
    block_len: u32,
    /// Copies submitted: in the on-start race the copies before the
    /// first start, elsewhere every planned copy.
    plan_len: u32,
}

/// The flat copy-plan arena, carved into per-job blocks. A returned
/// block goes on the free list for its length, and the next job that
/// plans as many copies takes it back.
#[derive(Default)]
struct PlanArena {
    entries: Vec<PlanEntry>,
    /// First entries of the free blocks, indexed by block length.
    free: Vec<Vec<u32>>,
}

impl PlanArena {
    /// Stores `plans` in a free block of their length, or in a new one
    /// at the end of the arena, and returns its first entry.
    fn take(&mut self, plans: &[CopyPlan]) -> u32 {
        let entries = plans.iter().map(|&plan| PlanEntry::from(plan));
        match self.free.get_mut(plans.len()).and_then(Vec::pop) {
            Some(first) => {
                let block = &mut self.entries[first as usize..][..plans.len()];
                for (slot, entry) in block.iter_mut().zip(entries) {
                    *slot = entry;
                }
                first
            }
            None => {
                let first = u32::try_from(self.entries.len()).expect("plan arena fits in u32");
                self.entries.extend(entries);
                first
            }
        }
    }

    /// Puts the block of `len` entries at `first` on its free list.
    fn give_back(&mut self, first: u32, len: u32) {
        let len = len as usize;
        if self.free.len() <= len {
            self.free.resize_with(len + 1, Vec::new);
        }
        self.free[len].push(first);
    }
}

/// Jobs not yet arrived, in reverse `(arrival, index)` order so the next
/// one is at the end: four bytes a job, released as the run drains.
///
/// Arrivals stay out of the engine's pending set, and each wins every
/// same-instant tie against it: the order that scheduling all arrivals
/// before any other event gives. [`SimDriver::next_event`] delivers the
/// next arrival unless the engine holds an event strictly earlier.
struct Arrivals {
    rev: Vec<u32>,
}

impl Arrivals {
    fn new(protocol: &impl SubmissionProtocol) -> Self {
        let n = u32::try_from(protocol.n_jobs()).expect("job count fits in u32");
        let mut rev: Vec<u32> = (0..n).collect();
        // The keys are unique, so the unstable sort is deterministic.
        rev.sort_unstable_by_key(|&j| Reverse((protocol.arrival(j as usize), j)));
        Arrivals { rev }
    }

    fn peek(&self) -> Option<usize> {
        self.rev.last().map(|&j| j as usize)
    }

    fn pop(&mut self) {
        self.rev.pop();
        if self.rev.len() < self.rev.capacity() / 4 {
            self.rev.shrink_to(self.rev.capacity() / 2);
        }
    }
}

/// The shared event loop: owns the engine pump, the scheduler set, the
/// request bookkeeping, and the [`RunResult`] accounting for every
/// [`SubmissionProtocol`].
///
/// A built driver holds only its inputs; the per-job tables (states,
/// records, plans) stay empty until [`SimDriver::run`] allocates them.
pub struct SimDriver<P: SubmissionProtocol> {
    protocol: P,
    engine: Engine<Event>,
    arrivals: Arrivals,
    scheds: Box<dyn SchedulerSet>,
    /// Copy-plan arena; job `j`'s plans are the block of `block_len`
    /// entries at `plan_first` recorded in its [`JobState`].
    plans: PlanArena,
    /// Flat copy-state arena (faulty and completion-race runs), sharing
    /// the plan arena's per-job offsets.
    copy_arena: Vec<CopyState>,
    /// Scratch handed to [`SubmissionProtocol::place_into`], reused
    /// across submits.
    plan_buf: Vec<CopyPlan>,
    states: Vec<JobState>,
    rng: StdRng,
    result: RunResult,
    records: Vec<Option<JobRecord>>,
    scratch: Vec<RequestId>,
    worklist: VecDeque<RequestId>,
    collect_predictions: bool,
    /// True when the protocol races to first *completion*
    /// ([`CancelMode::OnCompletion`]); cached at construction.
    cancel_on_completion: bool,
    /// Fault sampler on its own seed stream; `None` runs the original
    /// perfect-middleware protocol.
    faults: Option<FaultModel>,
    /// Per-target outage horizon: target `c` is down while
    /// `now < outage_until[c]`.
    outage_until: Vec<SimTime>,
    /// Pending batched cancels `(job, copy)` awaiting the open
    /// transaction's flush (empty when cancel batching is disabled).
    cancel_buf: Vec<(u32, u32)>,
    /// Serial of the open cancel batch; bumped on every flush so stale
    /// deadline events are recognized and ignored.
    cancel_serial: u64,
    /// Run-level observer (the invariant auditor); `None` in normal runs.
    observer: Option<Rc<RefCell<dyn RunObserver>>>,
    /// Wall-clock phase accumulators; `Some` only when a trace sink was
    /// attached at construction, which also enables the queue-depth
    /// series. Cached so the event loop pays one branch, not a relaxed
    /// load, per check.
    phases: Option<PhaseTimers>,
}

/// Events between two samples of the per-target queue-depth trace
/// series (tracing only) — coarse enough to keep a smoke trace in the
/// tens of kilobytes, fine enough to see a queue-growth trajectory.
const QUEUE_SAMPLE_EVERY: u64 = 256;

/// Phase timers read the wall clock on one event in this many, and
/// [`SimDriver::flush_obs`] scales the accumulated seconds back up.
/// Timing every event costs ~45% of the event loop in `Instant::now`
/// calls; sampling keeps the traced run within the BENCH_exec.json
/// `obs_overhead` budget while the per-phase shares — what the
/// breakdown is for — stay statistically faithful. Samples are keyed
/// to the engine's event count, never to time, and `protocol` is timed
/// inside the sampled events' handlers, so it is a part of `handler`.
const PHASE_SAMPLE_EVERY: u64 = 16;

/// Wall-clock phase accumulators for the event loop's sampled events.
#[derive(Default)]
struct PhaseTimers {
    /// Seconds taking the next event: the arrival merge and the engine
    /// pop (event-queue operations).
    queue_ops: f64,
    /// Seconds inside event handlers (protocol + placement).
    handler: f64,
    /// Seconds inside [`SubmissionProtocol::place_into`], a part of
    /// `handler`.
    protocol: f64,
}

impl<P: SubmissionProtocol> SimDriver<P> {
    /// Builds the driver: sorts the jobs by arrival into the arrival
    /// lane (four bytes a job) and (with faulty middleware) schedules
    /// the configured outages. Beyond that lane, a built driver holds
    /// only the protocol, the schedulers and the engine: every per-job
    /// table is allocated by [`SimDriver::run`].
    ///
    /// `rng` is handed to [`SubmissionProtocol::place_into`] untouched, so the
    /// protocol fully owns its draw sequence. `collect_predictions`
    /// records each request's scheduler wait forecast (the set must
    /// support prediction).
    pub fn new(
        protocol: P,
        mut scheds: Box<dyn SchedulerSet>,
        rng: StdRng,
        faults: Option<FaultModel>,
        collect_predictions: bool,
    ) -> Self {
        let n_targets = scheds.n_targets();
        let mut engine = Engine::new();
        if let Some(model) = &faults {
            for o in &model.spec().outages {
                engine.schedule(
                    o.down,
                    Event::OutageDown {
                        cluster: o.cluster,
                        recover: o.recover,
                    },
                );
            }
        }
        // An installed observer factory (see `crate::observe`) attaches a
        // fresh observer: the driver forwards its own milestones, and the
        // set wires the scheduler-level hooks to the same observer.
        let observer = observer_from_factory();
        if let Some(obs) = &observer {
            scheds.attach_observer(obs.clone());
        }
        SimDriver {
            result: RunResult {
                max_queue_len: vec![0; n_targets],
                pool_nodes: scheds.pool_nodes(),
                ..Default::default()
            },
            engine,
            arrivals: Arrivals::new(&protocol),
            scheds,
            plans: PlanArena::default(),
            copy_arena: Vec::new(),
            plan_buf: Vec::new(),
            states: Vec::new(),
            rng,
            records: Vec::new(),
            scratch: Vec::new(),
            worklist: VecDeque::new(),
            collect_predictions,
            cancel_on_completion: protocol.cancel_mode() == CancelMode::OnCompletion,
            faults,
            outage_until: vec![SimTime::ZERO; n_targets],
            cancel_buf: Vec::new(),
            cancel_serial: 0,
            observer,
            phases: rbr_obs::trace::enabled().then(PhaseTimers::default),
            protocol,
        }
    }

    /// Runs the simulation to completion and returns the results. The
    /// job states and records are allocated here, and the plan arena
    /// grows to the most jobs in the system at once: the on-start race
    /// reuses a completed job's block for a later job.
    ///
    /// # Panics
    /// Panics if any job fails to start or complete — that would be a
    /// scheduler bug, not a valid outcome.
    pub fn run(mut self) -> RunResult {
        let n_jobs = self.protocol.n_jobs();
        self.states = vec![JobState::default(); n_jobs];
        self.records = vec![None; n_jobs];
        loop {
            // With a trace attached, one event in PHASE_SAMPLE_EVERY
            // times the pop and the handler separately, splitting the
            // loop into queue-ops vs handler wall time; detached, no
            // clock is read.
            let sampled =
                self.phases.is_some() && self.engine.processed().is_multiple_of(PHASE_SAMPLE_EVERY);
            let pop_t0 = sampled.then(Instant::now);
            let Some((now, event)) = self.next_event() else {
                break;
            };
            let handler_t0 = sampled.then(Instant::now);
            if let Some(obs) = &self.observer {
                obs.borrow_mut().on_event(now, event.kind());
            }
            match event {
                Event::Submit(j) => self.handle_submit(now, j, sampled),
                Event::Complete(rid) => self.handle_complete(now, rid),
                Event::DeliverSubmit { job, copy } => self.handle_deliver_submit(now, job, copy),
                Event::DeliverCancel { job, copy } => self.handle_deliver_cancel(now, job, copy),
                Event::OutageDown { cluster, recover } => {
                    self.handle_outage_down(now, cluster, recover)
                }
                Event::CancelFlush { serial } => self.handle_cancel_flush(now, serial),
            }
            if let (Some(phases), Some(t0), Some(t1)) = (self.phases.as_mut(), pop_t0, handler_t0) {
                phases.queue_ops += (t1 - t0).as_secs_f64();
                phases.handler += t1.elapsed().as_secs_f64();
            }
            if self.phases.is_some() && self.engine.processed().is_multiple_of(QUEUE_SAMPLE_EVERY) {
                self.sample_queue_depths(now);
            }
        }
        self.result.events = self.engine.processed();
        self.result.backfills = self.scheds.backfills();
        let records = std::mem::take(&mut self.records);
        self.result.records = records
            .into_iter()
            .enumerate()
            .map(|(j, r)| r.unwrap_or_else(|| panic!("job {j} never completed")))
            .collect();
        if let Some(obs) = &self.observer {
            obs.borrow_mut().on_run_end(&self.result);
        }
        self.flush_obs();
        self.result
    }

    /// The next event in `(time, seq)` order: the next arrival, unless
    /// the engine holds an event strictly earlier.
    fn next_event(&mut self) -> Option<(SimTime, Event)> {
        let Some(j) = self.arrivals.peek() else {
            return self.engine.pop();
        };
        let at = self.protocol.arrival(j);
        if let Some(popped) = self.engine.pop_before(at) {
            return Some(popped);
        }
        self.arrivals.pop();
        self.engine.step_to(at);
        Some((at, Event::Submit(j)))
    }

    /// Emits one `grid.queue_depth` trace record per target at the
    /// current virtual instant (tracing only; sampled every
    /// [`QUEUE_SAMPLE_EVERY`] events by the caller).
    fn sample_queue_depths(&self, now: SimTime) {
        for c in 0..self.scheds.n_targets() {
            rbr_obs::trace::event(
                rbr_obs::Clock::Sim,
                now.as_secs(),
                "grid.queue_depth",
                &[
                    ("target", rbr_obs::trace::Field::U64(c as u64)),
                    (
                        "depth",
                        rbr_obs::trace::Field::U64(self.scheds.queue_len(c) as u64),
                    ),
                ],
            );
        }
    }

    /// End-of-run observability flush: phase records to the trace and
    /// per-protocol run counters to the metrics registry. Runs once per
    /// simulation; both sinks are pure side channels, so results are
    /// unaffected (names are formatted here, never on the hot path).
    fn flush_obs(&self) {
        if let Some(phases) = &self.phases {
            // Scale the sampled accumulators back to whole-run seconds.
            let scale = PHASE_SAMPLE_EVERY as f64;
            let placement = phases.handler - phases.protocol;
            rbr_obs::trace::phase("grid.run", "queue-ops", phases.queue_ops * scale);
            rbr_obs::trace::phase("grid.run", "protocol", phases.protocol * scale);
            rbr_obs::trace::phase("grid.run", "placement", placement * scale);
        }
        if !rbr_obs::metrics::enabled() {
            return;
        }
        let name = self.protocol.name();
        let count = |metric: &str, n: u64| {
            rbr_obs::metrics::counter(&format!("grid.{name}.{metric}")).add(n);
        };
        count("runs", 1);
        count("events", self.result.events);
        count("submits", self.result.submits);
        count("cancels", self.result.cancels);
        count("aborts", self.result.aborts);
        count("zombie_starts", self.result.zombie_starts);
        count("lost_submits", self.result.lost_submits);
        count("lost_cancels", self.result.lost_cancels);
        count("outage_kills", self.result.outage_kills);
        count("cancel_batches", self.result.cancel_batches);
        rbr_obs::metrics::gauge(&format!("grid.{name}.wasted_node_secs"))
            .add(self.result.wasted_node_secs);
        let depth_hwm = rbr_obs::metrics::histogram("grid.cluster_queue_hwm");
        for &hwm in &self.result.max_queue_len {
            depth_hwm.observe(hwm as u64);
        }
        let qs = self.engine.queue_stats();
        let sim = rbr_obs::metrics::counter("sim.queue.pushes");
        sim.add(qs.pushes);
        rbr_obs::metrics::counter("sim.queue.pops").add(qs.pops);
        rbr_obs::metrics::counter("sim.queue.resizes").add(qs.resizes);
        rbr_obs::metrics::counter("sim.queue.lap_rebuilds").add(qs.lap_rebuilds);
        rbr_obs::metrics::histogram("sim.queue.depth_hwm").observe(qs.depth_hwm);
    }

    /// The protocol driving this run.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The plan of job `j`'s copy `copy`.
    fn plan(&self, j: usize, copy: usize) -> CopyPlan {
        self.plans.entries[self.states[j].plan_first as usize + copy].into()
    }

    /// The copy state of job `j`'s copy `copy` (faulty runs).
    fn copy_state(&self, j: usize, copy: usize) -> CopyState {
        self.copy_arena[self.states[j].plan_first as usize + copy]
    }

    /// Mutable copy state of job `j`'s copy `copy` (faulty runs).
    fn copy_mut(&mut self, j: usize, copy: usize) -> &mut CopyState {
        &mut self.copy_arena[self.states[j].plan_first as usize + copy]
    }

    /// The request job `j`'s copy `copy` holds while queued or running
    /// (faulty and completion-race runs).
    fn copy_rid(&self, j: usize, copy: usize) -> RequestId {
        let subs = self.copy_state(j, copy).subs;
        debug_assert!(subs > 0, "copy {copy} of job {j} was never submitted");
        request_id(j, copy, subs - 1)
    }

    /// The phase of `rid`'s copy while the copy still holds `rid`, its
    /// latest submission; `None` once it was submitted again (faulty and
    /// completion-race runs). A `Complete` whose copy is not running
    /// under its id is stale: the copy was killed since.
    fn phase_under(&self, rid: RequestId) -> Option<CopyPhase> {
        let (j, copy, count) = unpack(rid);
        let cs = self.copy_state(j, copy);
        (cs.subs == count + 1).then_some(cs.phase)
    }

    fn handle_submit(&mut self, now: SimTime, j: usize, sampled: bool) {
        self.plan_buf.clear();
        let place_t0 = sampled.then(Instant::now);
        self.protocol.place_into(
            j,
            now,
            &mut self.rng,
            self.scheds.as_ref(),
            &mut self.plan_buf,
        );
        if let (Some(phases), Some(t0)) = (self.phases.as_mut(), place_t0) {
            phases.protocol += t0.elapsed().as_secs_f64();
        }
        debug_assert!(
            !self.plan_buf.is_empty(),
            "a job must submit at least one copy"
        );
        let planned = self.plan_buf.len() as u32;
        self.states[j].redundant = planned > 1;
        self.states[j].plan_first = self.plans.take(&self.plan_buf);
        self.states[j].block_len = planned;
        if self.faults.is_some() || self.cancel_on_completion {
            // These runs submit every copy; the on-start race below
            // counts each copy as it submits it.
            self.states[j].plan_len = planned;
        }

        if self.faults.is_some() {
            // Unreliable middleware: every copy becomes a message. No
            // zero-latency short-circuit — all copies are dispatched.
            self.dispatch_faulty_submits(now, j);
            return;
        }
        if self.cancel_on_completion {
            // Completion race: every copy is submitted and may execute,
            // so copy states live in the shared arena (as in faulty
            // runs) — per-copy phases matter even with perfect messaging.
            debug_assert_eq!(
                self.copy_arena.len(),
                self.states[j].plan_first as usize,
                "copy arena must share the plan arena's offsets"
            );
            for copy in 0..self.states[j].plan_len as usize {
                self.submit_copy(now, j, copy, 0);
                self.copy_arena.push(CopyState {
                    phase: CopyPhase::Queued,
                    subs: 1,
                });
            }
            self.commit_starts(now);
            return;
        }

        for copy in 0..self.plan_buf.len() {
            if self.states[j].started.is_some() {
                // The callback already fired: the remaining copies are
                // never submitted (they would be cancelled in the same
                // instant with no effect on any schedule).
                break;
            }
            self.states[j].plan_len += 1;
            self.submit_copy(now, j, copy, 0);
            self.commit_starts(now);
        }
    }

    /// Submits job `j`'s copy `copy` to its target under its `count`-th
    /// resubmission's id, queues the starts it triggers, and folds its
    /// wait forecast.
    fn submit_copy(&mut self, now: SimTime, j: usize, copy: usize, count: u16) {
        let plan = self.plan(j, copy);
        let rid = request_id(j, copy, count);
        let req = Request::new(rid, plan.nodes, plan.estimate, now);
        self.result.submits += 1;
        self.scratch.clear();
        self.scheds.submit(now, plan.target, req, &mut self.scratch);
        self.worklist.extend(self.scratch.drain(..));
        self.note_prediction(now, j, plan.target, rid);
        self.note_queue(plan.target);
    }

    /// Folds a just-submitted request's wait forecast into job `j`'s
    /// best (smallest) predicted wait, when predictions are collected.
    fn note_prediction(&mut self, now: SimTime, j: usize, target: usize, rid: RequestId) {
        if !self.collect_predictions {
            return;
        }
        let wait = self
            .scheds
            .predicted_start(now, target, rid)
            .map(|s| s.since(now))
            .expect("request just submitted must be known");
        let best = match self.states[j].predicted_wait {
            Some(prev) => prev.min(wait),
            None => wait,
        };
        self.states[j].predicted_wait = Some(best);
    }

    /// Frees a running request's nodes — a completion, a kill, or a
    /// revoked same-instant start — and queues the starts that follow.
    fn release(&mut self, now: SimTime, target: usize, rid: RequestId) {
        self.scratch.clear();
        self.scheds.complete(now, target, rid, &mut self.scratch);
        self.worklist.extend(self.scratch.drain(..));
    }

    /// Cancels a request if it is still queued at `target` (counting the
    /// cancel) and queues the starts that follow. A `false` return means
    /// the request is unknown there or was already granted nodes.
    fn cancel_queued(&mut self, now: SimTime, target: usize, rid: RequestId) -> bool {
        self.scratch.clear();
        let cancelled = self.scheds.cancel(now, target, rid, &mut self.scratch);
        if cancelled {
            self.result.cancels += 1;
        }
        self.worklist.extend(self.scratch.drain(..));
        self.note_queue(target);
        cancelled
    }

    /// Kills job `j`'s copy `copy`, running since `start`: the cancel is
    /// counted and its partial work is wasted. Its queued `Complete`
    /// event goes stale, as the copy no longer runs under its id.
    fn kill(&mut self, now: SimTime, j: usize, copy: usize, start: SimTime) {
        let plan = self.plan(j, copy);
        let rid = self.copy_rid(j, copy);
        self.result.cancels += 1;
        self.result.wasted_node_secs += plan.nodes as f64 * now.since(start).as_secs();
        self.copy_mut(j, copy).phase = CopyPhase::Dead;
        self.release(now, plan.target, rid);
        self.note_queue(plan.target);
    }

    /// Job `j` completed at `now` on `plan`, started at `start`: marks it
    /// done and synthesizes its [`JobRecord`], counting `copies` copies.
    fn record_job(&mut self, now: SimTime, j: usize, plan: CopyPlan, start: SimTime, copies: u32) {
        let state = &mut self.states[j];
        debug_assert!(!state.done, "job {j} completed twice");
        state.done = true;
        let rec = JobRecord {
            job: j,
            home: self.protocol.home(j),
            ran_on: plan.target,
            nodes: plan.nodes,
            arrival: self.protocol.record_arrival(j),
            start,
            completion: now,
            runtime: plan.runtime,
            redundant: state.redundant,
            copies,
            predicted_wait: state.predicted_wait,
        };
        if let Some(obs) = &self.observer {
            obs.borrow_mut().on_job_record(&rec);
        }
        self.records[j] = Some(rec);
    }

    fn handle_complete(&mut self, now: SimTime, rid: RequestId) {
        self.result.makespan = now;
        if self.faults.is_some() {
            self.handle_complete_faulty(now, rid);
            return;
        }
        if self.cancel_on_completion {
            self.handle_complete_racing(now, rid);
            return;
        }
        let (j, copy, _) = unpack(rid);
        let plan = self.plan(j, copy);
        let state = self.states[j];
        let (target, start) = state.started.expect("completing job must have started");
        debug_assert_eq!(target, plan.target);
        self.record_job(now, j, plan, start, state.plan_len);
        // The job's siblings were cancelled or revoked when it started,
        // so nothing names its copies any more: its block is free.
        self.plans.give_back(state.plan_first, state.block_len);
        self.release(now, plan.target, rid);
        self.commit_starts(now);
    }

    /// Perfect middleware, [`CancelMode::OnCompletion`]: the first copy
    /// of a job to finish wins; queued losers are cancelled, running
    /// losers are killed and their partial work accounted as waste.
    fn handle_complete_racing(&mut self, now: SimTime, rid: RequestId) {
        let Some(CopyPhase::Running { start }) = self.phase_under(rid) else {
            // A loser killed at the winner's completion; its engine
            // event is stale.
            return;
        };
        let (j, winner, _) = unpack(rid);
        let plan = self.plan(j, winner);
        self.copy_mut(j, winner).phase = CopyPhase::Dead;
        self.record_job(now, j, plan, start, self.states[j].plan_len);
        self.release(now, plan.target, rid);
        self.note_queue(plan.target);

        // The completion callback: cancel every surviving loser.
        for loser in 0..self.states[j].plan_len as usize {
            if loser == winner {
                continue;
            }
            let cs = self.copy_state(j, loser);
            match cs.phase {
                CopyPhase::Queued => {
                    let rid = self.copy_rid(j, loser);
                    // A false return means the grant raced this cancel:
                    // the copy is already in the worklist and will be
                    // revoked there (the job is done).
                    if self.cancel_queued(now, self.plan(j, loser).target, rid) {
                        self.copy_mut(j, loser).phase = CopyPhase::Dead;
                    }
                }
                CopyPhase::Running { start } => self.kill(now, j, loser, start),
                CopyPhase::Dead => {}
                phase => unreachable!("perfect racing copy in phase {phase:?}"),
            }
        }
        self.commit_starts(now);
    }

    /// Start worklist under the perfect-middleware completion race: every
    /// grant executes (no sibling cancellation, no zombie accounting —
    /// concurrent executions are the protocol), except grants that raced
    /// the winner's completion in the same instant, which are revoked.
    fn commit_starts_racing(&mut self, now: SimTime) {
        while let Some(rid) = self.worklist.pop_front() {
            debug_assert_eq!(
                self.phase_under(rid),
                Some(CopyPhase::Queued),
                "granted {rid}"
            );
            let (j, copy, _) = unpack(rid);
            let plan = self.plan(j, copy);
            if self.states[j].done {
                // Granted in the same instant the winner completed (the
                // cancel saw the grant already issued): revoke.
                self.result.aborts += 1;
                self.copy_mut(j, copy).phase = CopyPhase::Dead;
                self.release(now, plan.target, rid);
                self.note_queue(plan.target);
                continue;
            }
            self.copy_mut(j, copy).phase = CopyPhase::Running { start: now };
            if self.states[j].started.is_none() {
                self.states[j].started = Some((plan.target, now));
            }
            self.engine
                .schedule(now + plan.runtime, Event::Complete(rid));
            self.note_queue(plan.target);
        }
    }

    /// Faulty middleware: turns each copy of job `j` into a submit
    /// message routed through the [`FaultModel`].
    fn dispatch_faulty_submits(&mut self, now: SimTime, j: usize) {
        debug_assert_eq!(
            self.copy_arena.len(),
            self.states[j].plan_first as usize,
            "copy arena must share the plan arena's offsets"
        );
        for copy in 0..self.states[j].plan_len as usize {
            // Copy 0 is the home submission: it escalates to guaranteed
            // delivery after the retry budget, so no job can vanish.
            let plan = self
                .faults
                .as_mut()
                .expect("faulty dispatch requires a fault model")
                .plan_submit(now, copy == 0);
            self.result.lost_submits += plan.lost_attempts as u64;
            let phase = match plan.delivery {
                Some(at) => {
                    self.engine
                        .schedule(at, Event::DeliverSubmit { job: j, copy });
                    CopyPhase::InFlight
                }
                None => {
                    self.result.dropped_copies += 1;
                    CopyPhase::Dead
                }
            };
            self.copy_arena.push(CopyState { phase, subs: 0 });
        }
    }

    /// A submit message arrives at its scheduler (faulty runs only).
    fn handle_deliver_submit(&mut self, now: SimTime, j: usize, copy: usize) {
        let c = self.plan(j, copy).target;
        if now < self.outage_until[c] {
            // The target is down: the middleware holds the message and
            // re-delivers at recovery.
            self.engine
                .schedule(self.outage_until[c], Event::DeliverSubmit { job: j, copy });
            return;
        }
        match self.copy_state(j, copy).phase {
            CopyPhase::InFlight => {}
            CopyPhase::Doomed => {
                // The cancel overtook this submit; the broker discards it.
                self.copy_mut(j, copy).phase = CopyPhase::Dead;
                return;
            }
            CopyPhase::Dead => return,
            phase => unreachable!("submit delivered to copy in phase {phase:?}"),
        }
        if self.states[j].done {
            // The job finished while this (retried or delayed) submission
            // was in flight; the broker discards it on arrival.
            self.copy_mut(j, copy).phase = CopyPhase::Dead;
            return;
        }
        let subs = self.copy_state(j, copy).subs;
        self.submit_copy(now, j, copy, subs);
        *self.copy_mut(j, copy) = CopyState {
            phase: CopyPhase::Queued,
            subs: subs
                .checked_add(1)
                .expect("copy submission count fits in 16 bits"),
        };
        self.commit_starts(now);
    }

    /// A cancel message arrives at its scheduler (faulty runs only).
    fn handle_deliver_cancel(&mut self, now: SimTime, j: usize, copy: usize) {
        let target = self.plan(j, copy).target;
        let cs = self.copy_state(j, copy);
        if now < self.outage_until[target] {
            self.engine.schedule(
                self.outage_until[target],
                Event::DeliverCancel { job: j, copy },
            );
            return;
        }
        match cs.phase {
            CopyPhase::InFlight => {
                self.copy_mut(j, copy).phase = CopyPhase::Doomed;
            }
            CopyPhase::Queued => {
                let rid = self.copy_rid(j, copy);
                self.cancel_queued(now, target, rid);
                self.copy_mut(j, copy).phase = CopyPhase::Dead;
                self.commit_starts(now);
            }
            CopyPhase::Running { start } => {
                self.kill(now, j, copy, start);
                let stale_winner_killed =
                    self.states[j].winner == Some(copy) && !self.states[j].done;
                if stale_winner_killed {
                    // A stale cancel (sent before an outage restarted the
                    // race) caught up with the copy that is now the
                    // winner. The submitter notices the kill and
                    // resubmits this copy with guaranteed delivery.
                    self.states[j].started = None;
                    self.states[j].winner = None;
                    let plan = self
                        .faults
                        .as_mut()
                        .expect("faulty path has a fault model")
                        .plan_submit(now, true);
                    self.result.lost_submits += plan.lost_attempts as u64;
                    let at = plan.delivery.expect("guaranteed delivery");
                    self.copy_mut(j, copy).phase = CopyPhase::InFlight;
                    self.engine
                        .schedule(at, Event::DeliverSubmit { job: j, copy });
                }
                self.commit_starts(now);
            }
            CopyPhase::Doomed | CopyPhase::Dead => {}
        }
    }

    /// A running request finished under faulty middleware: the first copy
    /// of a job to finish completes the job; any later completion is a
    /// zombie whose execution was pure waste.
    fn handle_complete_faulty(&mut self, now: SimTime, rid: RequestId) {
        let Some(CopyPhase::Running { start }) = self.phase_under(rid) else {
            // Killed earlier (cancel or outage); stale engine event.
            return;
        };
        let (j, copy, _) = unpack(rid);
        let plan = self.plan(j, copy);
        self.copy_mut(j, copy).phase = CopyPhase::Dead;
        self.release(now, plan.target, rid);
        if self.states[j].done {
            // Zombie ran to natural completion: its whole execution is
            // wasted node-time.
            self.result.wasted_node_secs += plan.nodes as f64 * plan.runtime.as_secs();
        } else {
            self.record_job(now, j, plan, start, self.states[j].plan_len);
            if self.cancel_on_completion {
                // The completion race's cancellation callback: losers
                // are told to stand down only now, via the same lossy
                // message layer as everything else.
                self.send_cancels(now, j, copy);
            }
        }
        self.note_queue(plan.target);
        self.commit_starts(now);
    }

    /// A scheduled outage begins: the target's scheduler loses all
    /// state. Running copies are killed (the job restarts if the winner
    /// died), queued copies evaporate and are re-delivered at recovery.
    fn handle_outage_down(&mut self, now: SimTime, c: usize, recover: SimTime) {
        self.outage_until[c] = recover;
        self.scheds.restart(c);
        for j in 0..self.states.len() {
            for copy in 0..self.states[j].plan_len as usize {
                let plan = self.plan(j, copy);
                let cs = self.copy_state(j, copy);
                if plan.target != c {
                    continue;
                }
                match cs.phase {
                    CopyPhase::Queued => {
                        // Evaporated with the scheduler; the middleware
                        // notices at recovery and re-delivers.
                        self.result.outage_kills += 1;
                        self.copy_mut(j, copy).phase = CopyPhase::InFlight;
                        self.engine
                            .schedule(recover, Event::DeliverSubmit { job: j, copy });
                    }
                    CopyPhase::Running { start } => {
                        // Its `Complete` goes stale with the phase change.
                        self.result.outage_kills += 1;
                        self.result.wasted_node_secs +=
                            plan.nodes as f64 * now.since(start).as_secs();
                        if self.states[j].winner == Some(copy) && !self.states[j].done {
                            // The job itself died with the cluster; the
                            // submitter resubmits this copy at recovery.
                            self.states[j].started = None;
                            self.states[j].winner = None;
                            self.copy_mut(j, copy).phase = CopyPhase::InFlight;
                            self.engine
                                .schedule(recover, Event::DeliverSubmit { job: j, copy });
                        } else {
                            self.copy_mut(j, copy).phase = CopyPhase::Dead;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Faulty middleware's cancellation callback: fired once, when the
    /// first copy of job `j` starts. Per-op middleware sends each live
    /// sibling its own cancel message; with cancel batching enabled
    /// ([`rbr_faults::BatchSpec`]) the ops join the open transaction
    /// instead and travel together when it flushes.
    fn send_cancels(&mut self, now: SimTime, j: usize, winner_copy: usize) {
        let batch = self
            .faults
            .as_ref()
            .expect("faulty path has a fault model")
            .spec()
            .cancel_batch;
        for copy in 0..self.states[j].plan_len as usize {
            if copy == winner_copy {
                continue;
            }
            match self.copy_state(j, copy).phase {
                CopyPhase::InFlight | CopyPhase::Queued | CopyPhase::Running { .. } => {}
                CopyPhase::Doomed | CopyPhase::Dead => continue,
            }
            if !batch.is_disabled() {
                self.enqueue_cancel(now, j, copy, batch);
                continue;
            }
            let plan = self
                .faults
                .as_mut()
                .expect("faulty path has a fault model")
                .plan_cancel(now);
            match plan.delivery {
                Some(at) => {
                    self.engine
                        .schedule(at, Event::DeliverCancel { job: j, copy });
                }
                None => self.result.lost_cancels += 1,
            }
        }
    }

    /// Adds one cancel op to the open batched transaction, opening it
    /// (and arming its flush deadline) if empty, and flushing immediately
    /// once it reaches the configured size.
    fn enqueue_cancel(
        &mut self,
        now: SimTime,
        j: usize,
        copy: usize,
        batch: rbr_faults::BatchSpec,
    ) {
        if self.cancel_buf.is_empty() {
            self.engine.schedule(
                now + batch.deadline,
                Event::CancelFlush {
                    serial: self.cancel_serial,
                },
            );
        }
        self.cancel_buf.push((j as u32, copy as u32));
        if self.cancel_buf.len() >= batch.size as usize {
            self.flush_cancels(now);
        }
    }

    /// The open transaction's deadline expired. Stale once the batch
    /// already flushed on size (the serial moved on).
    fn handle_cancel_flush(&mut self, now: SimTime, serial: u64) {
        if serial == self.cancel_serial {
            self.flush_cancels(now);
        }
    }

    /// Dispatches the open cancel transaction as ONE middleware message:
    /// one loss coin, one delay sample, shared by every op it carries
    /// (that is the point of batching — and its failure mode: a lost
    /// transaction orphans the whole batch).
    fn flush_cancels(&mut self, now: SimTime) {
        self.cancel_serial += 1;
        if self.cancel_buf.is_empty() {
            return;
        }
        self.result.cancel_batches += 1;
        let plan = self
            .faults
            .as_mut()
            .expect("faulty path has a fault model")
            .plan_cancel(now);
        match plan.delivery {
            Some(at) => {
                for i in 0..self.cancel_buf.len() {
                    let (job, copy) = self.cancel_buf[i];
                    self.engine.schedule(
                        at,
                        Event::DeliverCancel {
                            job: job as usize,
                            copy: copy as usize,
                        },
                    );
                }
            }
            None => self.result.lost_cancels += self.cancel_buf.len() as u64,
        }
        self.cancel_buf.clear();
    }

    /// Faulty variant of the start worklist: a start commits the job if
    /// it is the first, otherwise the copy becomes a zombie (no
    /// zero-latency revocation — the cancellation callback travels as a
    /// message like everything else).
    fn commit_starts_faulty(&mut self, now: SimTime) {
        while let Some(rid) = self.worklist.pop_front() {
            debug_assert_eq!(
                self.phase_under(rid),
                Some(CopyPhase::Queued),
                "granted {rid}"
            );
            let (j, copy, _) = unpack(rid);
            let plan = self.plan(j, copy);
            self.copy_mut(j, copy).phase = CopyPhase::Running { start: now };
            self.engine
                .schedule(now + plan.runtime, Event::Complete(rid));
            if self.cancel_on_completion {
                // Completion race: concurrent executions are the
                // protocol, not zombies — cancels go out when the first
                // copy *finishes* (handle_complete_faulty). A start after
                // the job is done means a cancel was late or lost: that
                // execution is a zombie as usual.
                if self.states[j].done {
                    self.result.zombie_starts += 1;
                } else if self.states[j].started.is_none() {
                    self.states[j].started = Some((plan.target, now));
                    self.states[j].winner = Some(copy);
                }
            } else if self.states[j].started.is_none() && !self.states[j].done {
                self.states[j].started = Some((plan.target, now));
                self.states[j].winner = Some(copy);
                self.send_cancels(now, j, copy);
            } else {
                self.result.zombie_starts += 1;
            }
            self.note_queue(plan.target);
        }
    }

    /// Drains the start worklist: commits job starts, cancels siblings,
    /// revokes starts whose job already began elsewhere, and follows any
    /// cascade of new starts those actions release.
    fn commit_starts(&mut self, now: SimTime) {
        if self.faults.is_some() {
            self.commit_starts_faulty(now);
            return;
        }
        if self.cancel_on_completion {
            self.commit_starts_racing(now);
            return;
        }
        while let Some(rid) = self.worklist.pop_front() {
            let (j, copy, _) = unpack(rid);
            let plan = self.plan(j, copy);
            if self.states[j].started.is_some() {
                // Lost the same-instant race: revoke.
                self.result.aborts += 1;
                self.release(now, plan.target, rid);
                continue;
            }
            // Commit: the job starts here, now.
            self.states[j].started = Some((plan.target, now));
            self.engine
                .schedule(now + plan.runtime, Event::Complete(rid));
            // The callback: cancel every other submitted copy, in copy
            // order (cancels never add or remove requests).
            for sibling in 0..self.states[j].plan_len as usize {
                if sibling != copy {
                    let target = self.plan(j, sibling).target;
                    self.cancel_queued(now, target, request_id(j, sibling, 0));
                }
            }
        }
    }

    fn note_queue(&mut self, c: usize) {
        let len = self.scheds.queue_len(c);
        if len > self.result.max_queue_len[c] {
            self.result.max_queue_len[c] = len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_pack_job_copy_and_count_at_the_field_limits() {
        let (job, copy, count) = (u32::MAX as usize, u16::MAX as usize, u16::MAX);
        assert_eq!(request_id(job, copy, count), RequestId(u64::MAX));
        for fields in [
            (0, 0, 0),
            (job, 0, 0),
            (0, copy, 0),
            (0, 0, count),
            (job, copy, count),
            (7, 3, 1),
        ] {
            assert_eq!(unpack(request_id(fields.0, fields.1, fields.2)), fields);
        }
        // Each field has its own bits: one step in any field is a new id.
        let base = request_id(1, 1, 1);
        for other in [
            request_id(2, 1, 1),
            request_id(1, 2, 1),
            request_id(1, 1, 2),
        ] {
            assert_ne!(base, other);
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "job index fits in 32 bits")]
    fn a_job_index_past_32_bits_is_refused() {
        request_id(u32::MAX as usize + 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "copy index fits in 16 bits")]
    fn a_copy_index_past_16_bits_is_refused() {
        request_id(0, u16::MAX as usize + 1, 0);
    }

    #[test]
    fn returned_plan_blocks_are_reused_by_length() {
        let plan = |target| CopyPlan {
            target,
            nodes: 1,
            estimate: Duration::from_secs(1.0),
            runtime: Duration::from_secs(1.0),
        };
        let mut arena = PlanArena::default();
        let a = arena.take(&[plan(0), plan(1), plan(2)]);
        let b = arena.take(&[plan(3)]);
        assert_eq!((a, b), (0, 3));
        arena.give_back(a, 3);
        // A block of another length does not fit the freed one.
        assert_eq!(arena.take(&[plan(4), plan(5)]), 4);
        // One of the same length takes it, with its own plans.
        assert_eq!(arena.take(&[plan(6), plan(7), plan(8)]), a);
        let targets: Vec<u32> = arena.entries.iter().map(|e| e.target).collect();
        assert_eq!(targets, [6, 7, 8, 3, 4, 5]);
    }
}
