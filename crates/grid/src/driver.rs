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
    /// A running request finishes (dense request index; its target is
    /// recovered from the copy plan).
    Complete {
        /// Dense request index.
        req: u64,
    },
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
            Event::Complete { .. } => "complete",
            Event::DeliverSubmit { .. } => "deliver-submit",
            Event::DeliverCancel { .. } => "deliver-cancel",
            Event::OutageDown { .. } => "outage-down",
            Event::CancelFlush { .. } => "cancel-flush",
        }
    }
}

/// Which job (and which of its copies) a request belongs to. Packed to
/// eight bytes — there are two of these per job per run, and the
/// completion path reads them on every event.
#[derive(Clone, Copy, Debug)]
struct ReqInfo {
    job: u32,
    copy: u32,
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

/// One copy of a job under faulty middleware.
#[derive(Clone, Copy, Debug)]
struct CopyState {
    rid: Option<RequestId>,
    phase: CopyPhase,
}

/// Mutable per-job state during the run.
///
/// Per-job collections live in the driver's flat arenas (copy plans and
/// copy states share offsets; request ids are issued contiguously per
/// job), so a job's state is a fixed-size record and the race/cancel/
/// revoke path allocates nothing per copy.
#[derive(Clone, Copy, Debug, Default)]
struct JobState {
    started: Option<(usize, SimTime)>,
    redundant: bool,
    predicted_wait: Option<Duration>,
    done: bool,
    /// Index of the copy whose start committed the job (faulty runs).
    winner: Option<usize>,
    /// This job's slice of the plan arena (and, in faulty runs, of the
    /// copy-state arena — both are appended at arrival, so the offsets
    /// coincide). Zero-length until the job arrives.
    plan_first: u32,
    plan_len: u32,
    /// First request id issued for this job (on-start races; ids are
    /// issued contiguously during the job's single submit event).
    req_first: u64,
    /// How many requests this job issued.
    req_count: u32,
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
pub struct SimDriver<P: SubmissionProtocol> {
    protocol: P,
    engine: Engine<Event>,
    arrivals: Arrivals,
    scheds: Box<dyn SchedulerSet>,
    /// Flat copy-plan arena; job `j`'s plans are the `plan_first ..
    /// plan_first + plan_len` slice recorded in its [`JobState`].
    plan_arena: Vec<CopyPlan>,
    /// Flat copy-state arena (faulty runs), sharing the plan arena's
    /// per-job offsets.
    copy_arena: Vec<CopyState>,
    /// Scratch handed to [`SubmissionProtocol::place_into`], reused
    /// across submits.
    plan_buf: Vec<CopyPlan>,
    states: Vec<JobState>,
    reqs: Vec<ReqInfo>,
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
    /// Tombstones for killed requests whose `Complete` event is still in
    /// the engine (it has no cancellation API).
    dead: Vec<bool>,
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
    /// Builds the driver: sorts the jobs by arrival and (with faulty
    /// middleware) schedules the configured outages.
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
        let n_jobs = protocol.n_jobs();
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
            plan_arena: Vec::with_capacity(n_jobs * 2),
            copy_arena: Vec::new(),
            plan_buf: Vec::new(),
            states: vec![JobState::default(); n_jobs],
            reqs: Vec::with_capacity(n_jobs * 2),
            rng,
            records: vec![None; n_jobs],
            scratch: Vec::new(),
            worklist: VecDeque::new(),
            collect_predictions,
            cancel_on_completion: protocol.cancel_mode() == CancelMode::OnCompletion,
            faults,
            outage_until: vec![SimTime::ZERO; n_targets],
            dead: Vec::new(),
            cancel_buf: Vec::new(),
            cancel_serial: 0,
            observer,
            phases: rbr_obs::trace::enabled().then(PhaseTimers::default),
            protocol,
        }
    }

    /// Runs the simulation to completion and returns the results.
    ///
    /// # Panics
    /// Panics if any job fails to start or complete — that would be a
    /// scheduler bug, not a valid outcome.
    pub fn run(mut self) -> RunResult {
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
                Event::Complete { req } => self.handle_complete(now, req),
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
        self.plan_arena[self.states[j].plan_first as usize + copy]
    }

    /// The plan of one request's copy.
    fn plan_of(&self, rid: RequestId) -> CopyPlan {
        let ReqInfo { job, copy } = self.reqs[rid.0 as usize];
        self.plan(job as usize, copy as usize)
    }

    /// The copy state of job `j`'s copy `copy` (faulty runs).
    fn copy_state(&self, j: usize, copy: usize) -> CopyState {
        self.copy_arena[self.states[j].plan_first as usize + copy]
    }

    /// Mutable copy state of job `j`'s copy `copy` (faulty runs).
    fn copy_mut(&mut self, j: usize, copy: usize) -> &mut CopyState {
        &mut self.copy_arena[self.states[j].plan_first as usize + copy]
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
        self.states[j].redundant = self.plan_buf.len() > 1;
        self.states[j].plan_first = self.plan_arena.len() as u32;
        self.states[j].plan_len = self.plan_buf.len() as u32;
        self.plan_arena.extend_from_slice(&self.plan_buf);

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
                let rid = self.submit_copy(now, j, copy);
                self.copy_arena.push(CopyState {
                    rid: Some(rid),
                    phase: CopyPhase::Queued,
                });
            }
            self.commit_starts(now);
            return;
        }

        self.states[j].req_first = self.reqs.len() as u64;
        for copy in 0..self.states[j].plan_len as usize {
            if self.states[j].started.is_some() {
                // The callback already fired: the remaining copies are
                // never submitted (they would be cancelled in the same
                // instant with no effect on any schedule).
                break;
            }
            self.submit_copy(now, j, copy);
            self.commit_starts(now);
        }
    }

    /// Submits job `j`'s copy `copy` to its target under the next request
    /// id, queues the starts it triggers, and folds its wait forecast.
    fn submit_copy(&mut self, now: SimTime, j: usize, copy: usize) -> RequestId {
        let plan = self.plan(j, copy);
        let rid = RequestId(self.reqs.len() as u64);
        self.reqs.push(ReqInfo {
            job: j as u32,
            copy: copy as u32,
        });
        if self.faults.is_some() || self.cancel_on_completion {
            // Only these runs kill copies whose `Complete` is queued; the
            // on-start race never needs a tombstone.
            self.dead.push(false);
        }
        let req = Request::new(rid, plan.nodes, plan.estimate, now);
        self.result.submits += 1;
        self.states[j].req_count += 1;
        self.scratch.clear();
        self.scheds.submit(now, plan.target, req, &mut self.scratch);
        self.worklist.extend(self.scratch.drain(..));
        self.note_prediction(now, j, plan.target, rid);
        self.note_queue(plan.target);
        rid
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
    /// counted, its partial work is wasted, and its queued `Complete`
    /// event is tombstoned.
    fn kill(&mut self, now: SimTime, j: usize, copy: usize, start: SimTime) {
        let plan = self.plan(j, copy);
        let rid = self
            .copy_state(j, copy)
            .rid
            .expect("running copy has a request id");
        self.result.cancels += 1;
        self.result.wasted_node_secs += plan.nodes as f64 * now.since(start).as_secs();
        self.dead[rid.0 as usize] = true;
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

    fn handle_complete(&mut self, now: SimTime, req: u64) {
        self.result.makespan = now;
        if self.faults.is_some() {
            self.handle_complete_faulty(now, req);
            return;
        }
        if self.cancel_on_completion {
            self.handle_complete_racing(now, req);
            return;
        }
        let rid = RequestId(req);
        let j = self.reqs[req as usize].job as usize;
        let plan = self.plan_of(rid);
        let (target, start) = self.states[j]
            .started
            .expect("completing job must have started");
        debug_assert_eq!(target, plan.target);
        self.record_job(now, j, plan, start, self.states[j].req_count);
        self.release(now, plan.target, rid);
        self.commit_starts(now);
    }

    /// Perfect middleware, [`CancelMode::OnCompletion`]: the first copy
    /// of a job to finish wins; queued losers are cancelled, running
    /// losers are killed and their partial work accounted as waste.
    fn handle_complete_racing(&mut self, now: SimTime, req: u64) {
        if self.dead[req as usize] {
            // A loser killed at the winner's completion; its engine
            // event is stale.
            return;
        }
        let ReqInfo { job, copy } = self.reqs[req as usize];
        let (j, winner) = (job as usize, copy as usize);
        let plan = self.plan(j, winner);
        let CopyPhase::Running { start } = self.copy_state(j, winner).phase else {
            unreachable!(
                "completing copy must be running, was {:?}",
                self.copy_state(j, winner).phase
            )
        };
        self.copy_mut(j, winner).phase = CopyPhase::Dead;
        self.record_job(now, j, plan, start, self.states[j].req_count);
        self.release(now, plan.target, RequestId(req));
        self.note_queue(plan.target);

        // The completion callback: cancel every surviving loser.
        for loser in 0..self.states[j].plan_len as usize {
            if loser == winner {
                continue;
            }
            let cs = self.copy_state(j, loser);
            match cs.phase {
                CopyPhase::Queued => {
                    let rid = cs.rid.expect("queued copy has a request id");
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
            let ReqInfo { job, copy } = self.reqs[rid.0 as usize];
            let (j, copy) = (job as usize, copy as usize);
            let plan = self.plan(j, copy);
            debug_assert!(!self.dead[rid.0 as usize], "dead request started");
            debug_assert_eq!(self.copy_state(j, copy).phase, CopyPhase::Queued);
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
                .schedule(now + plan.runtime, Event::Complete { req: rid.0 });
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
            self.copy_arena.push(CopyState { rid: None, phase });
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
        let rid = self.submit_copy(now, j, copy);
        *self.copy_mut(j, copy) = CopyState {
            rid: Some(rid),
            phase: CopyPhase::Queued,
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
                let rid = cs.rid.expect("queued copy has a request id");
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
                    *self.copy_mut(j, copy) = CopyState {
                        rid: None,
                        phase: CopyPhase::InFlight,
                    };
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
    fn handle_complete_faulty(&mut self, now: SimTime, req: u64) {
        if self.dead[req as usize] {
            // Killed earlier (cancel or outage); stale engine event.
            return;
        }
        let ReqInfo { job, copy } = self.reqs[req as usize];
        let (j, copy) = (job as usize, copy as usize);
        let plan = self.plan(j, copy);
        let cs = self.copy_state(j, copy);
        let CopyPhase::Running { start } = cs.phase else {
            unreachable!("completing copy must be running, was {:?}", cs.phase)
        };
        self.copy_mut(j, copy).phase = CopyPhase::Dead;
        self.release(now, plan.target, RequestId(req));
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
                        *self.copy_mut(j, copy) = CopyState {
                            rid: None,
                            phase: CopyPhase::InFlight,
                        };
                        self.engine
                            .schedule(recover, Event::DeliverSubmit { job: j, copy });
                    }
                    CopyPhase::Running { start } => {
                        let rid = cs.rid.expect("running copy has a request id");
                        self.result.outage_kills += 1;
                        self.result.wasted_node_secs +=
                            plan.nodes as f64 * now.since(start).as_secs();
                        self.dead[rid.0 as usize] = true;
                        if self.states[j].winner == Some(copy) && !self.states[j].done {
                            // The job itself died with the cluster; the
                            // submitter resubmits this copy at recovery.
                            self.states[j].started = None;
                            self.states[j].winner = None;
                            *self.copy_mut(j, copy) = CopyState {
                                rid: None,
                                phase: CopyPhase::InFlight,
                            };
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
            let ReqInfo { job, copy } = self.reqs[rid.0 as usize];
            let (j, copy) = (job as usize, copy as usize);
            let plan = self.plan(j, copy);
            debug_assert!(!self.dead[rid.0 as usize], "dead request started");
            debug_assert_eq!(self.copy_state(j, copy).phase, CopyPhase::Queued);
            self.copy_mut(j, copy).phase = CopyPhase::Running { start: now };
            self.engine
                .schedule(now + plan.runtime, Event::Complete { req: rid.0 });
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
            let j = self.reqs[rid.0 as usize].job as usize;
            let plan = self.plan_of(rid);
            if self.states[j].started.is_some() {
                // Lost the same-instant race: revoke.
                self.result.aborts += 1;
                self.release(now, plan.target, rid);
                continue;
            }
            // Commit: the job starts here, now.
            self.states[j].started = Some((plan.target, now));
            self.engine
                .schedule(now + plan.runtime, Event::Complete { req: rid.0 });
            // The callback: cancel every sibling copy. The job's request
            // ids are contiguous, so the sibling set is just an id range —
            // no snapshot needed (cancels never add or remove requests).
            let first = self.states[j].req_first;
            let count = self.states[j].req_count as u64;
            for id2 in first..first + count {
                let rid2 = RequestId(id2);
                if rid2 == rid {
                    continue;
                }
                self.cancel_queued(now, self.plan_of(rid2).target, rid2);
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
