//! The runtime invariant auditor: a [`SchedObserver`]/[`RunObserver`]
//! that mirrors every scheduler's externally visible state and checks
//! each transition against the scheduling invariants the paper's
//! conclusions rest on.
//!
//! Checked on every hook event:
//!
//! * **Capacity conservation** — the free-node count per cluster never
//!   goes negative; since nodes are anonymous, this is also the
//!   no-two-jobs-on-the-same-nodes check. Double starts and releases of
//!   never-started requests are flagged separately.
//! * **FIFO order** — a [`StartKind::FifoHead`] start must belong to the
//!   globally lowest-ranked waiting request (priority queue first, then
//!   submission order).
//! * **EASY head guarantee** — once a blocked head's shadow is computed,
//!   the head must start no later than the *minimum* shadow observed
//!   while it stayed the head (backfilling must never delay it).
//! * **CBF reservation monotonicity** — a request's start never exceeds
//!   its first reservation, except through the documented
//!   overdue-compression cascade: a reservation anchored on a phantom
//!   requested-end may be re-anchored at `now` once its anchor has
//!   passed, and jobs it pushes at that same compression instant slip
//!   with it.
//! * **Non-negative waits** — no request starts before it was submitted,
//!   and no job record has `completion != start + runtime`.
//! * **Ledger consistency** — at run end, the node-seconds the schedulers
//!   were observed to be occupied must equal the driver's own
//!   `useful + wasted` accounting ([`RunResult::accounted_node_secs`]),
//!   unless a cluster outage wiped scheduler state mid-run.
//!
//! Every violation captures the trailing event trace, so a report names
//! not just the broken invariant but the decisions leading up to it.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use rbr_grid::record::{JobRecord, RunResult};
use rbr_grid::RunObserver;
use rbr_sched::{Request, RequestId, SchedObserver, StartKind};
use rbr_simcore::SimTime;

/// How many trailing trace lines a violation report carries.
const TRACE_LEN: usize = 48;

/// Relative tolerance for the floating-point occupancy ledger.
const LEDGER_TOLERANCE: f64 = 1e-6;

/// One detected invariant violation, with the offending event trace.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulation instant of the violating event.
    pub now: SimTime,
    /// Scheduler index the violation occurred on (the set target).
    pub sched: usize,
    /// Short machine-readable invariant name.
    pub kind: &'static str,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The trailing event trace, oldest first, ending at the violation.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] sched {} at {}: {}",
            self.kind, self.sched, self.now, self.message
        )?;
        writeln!(f, "  event trace (oldest first):")?;
        for line in &self.trace {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// A queued request as the auditor sees it.
#[derive(Clone, Copy, Debug)]
struct Waiting {
    queue: usize,
    seq: u64,
    submit: SimTime,
}

/// A running allocation as the auditor sees it.
#[derive(Clone, Copy, Debug)]
struct RunningObs {
    nodes: u32,
    start: SimTime,
}

/// CBF reservation history for one queued request.
#[derive(Clone, Copy, Debug)]
struct Reservation {
    first: SimTime,
    current: SimTime,
    /// A later re-reservation was excused by the overdue-compression rule.
    slipped: bool,
}

/// Mirror of one scheduler's externally visible state.
#[derive(Debug, Default)]
struct SchedState {
    name: String,
    total: u32,
    /// Signed so an oversubscribing scheduler is reported, not a panic.
    free: i64,
    waiting: HashMap<RequestId, Waiting>,
    running: HashMap<RequestId, RunningObs>,
    /// The EASY head under observation and the minimum shadow seen for it.
    head_bound: Option<(RequestId, SimTime)>,
    reservations: HashMap<RequestId, Reservation>,
    /// Instant of the most recent reservation event. CBF compression
    /// re-reserves the whole queue in submission order at one instant;
    /// any reservation after the first in such a burst may legally move
    /// later (an earlier-submitted request was re-placed over its slot).
    last_reserve_at: Option<SimTime>,
    /// Any request was ever observed on this scheduler.
    used: bool,
}

/// The invariant auditor. Attach one per run through a
/// [`rbr_grid::install_observer_factory`] factory, as
/// [`crate::sink::install`] does process-wide.
pub struct Auditor {
    scheds: Vec<SchedState>,
    seq: u64,
    trace: VecDeque<String>,
    violations: Vec<Violation>,
    /// Node-seconds of observed scheduler occupancy (finish-time sum).
    occupied_node_secs: f64,
    /// A scheduler was rebuilt mid-run (outage): occupancy undercounts.
    saw_restart: bool,
    /// Drain violations into the process-wide sink at run end.
    flush_to_sink: bool,
}

impl Default for Auditor {
    fn default() -> Self {
        Self::new()
    }
}

impl Auditor {
    /// An auditor keeping its violations local (read them back with
    /// [`Auditor::violations`] / [`Auditor::take_violations`]).
    pub fn new() -> Self {
        Auditor {
            scheds: Vec::new(),
            seq: 0,
            trace: VecDeque::with_capacity(TRACE_LEN),
            violations: Vec::new(),
            occupied_node_secs: 0.0,
            saw_restart: false,
            flush_to_sink: false,
        }
    }

    /// An auditor that drains its violations into [`crate::sink`] when
    /// the run ends — the factory-installed mode used by `rbr audit`.
    pub fn reporting_to_sink() -> Self {
        Auditor {
            flush_to_sink: true,
            ..Self::new()
        }
    }

    /// Violations detected so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Takes the detected violations, leaving none.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Node-seconds of scheduler occupancy observed so far.
    pub fn occupied_node_secs(&self) -> f64 {
        self.occupied_node_secs
    }

    fn state(&mut self, sched: usize) -> &mut SchedState {
        if sched >= self.scheds.len() {
            self.scheds.resize_with(sched + 1, SchedState::default);
        }
        &mut self.scheds[sched]
    }

    fn note(&mut self, line: String) {
        if self.trace.len() == TRACE_LEN {
            self.trace.pop_front();
        }
        self.trace.push_back(line);
    }

    fn violate(&mut self, sched: usize, now: SimTime, kind: &'static str, message: String) {
        let trace = self.trace.iter().cloned().collect();
        self.violations.push(Violation {
            now,
            sched,
            kind,
            message,
            trace,
        });
    }
}

impl SchedObserver for Auditor {
    fn on_attach(&mut self, sched: usize, total_nodes: u32, name: &str) {
        self.note(format!("attach sched {sched}: {name}, {total_nodes} nodes"));
        if self.state(sched).used {
            // The scheduler was rebuilt from scratch (cluster outage):
            // everything observed for it is void, and end-of-run
            // occupancy accounting can no longer balance.
            self.saw_restart = true;
        }
        *self.state(sched) = SchedState {
            name: name.to_string(),
            total: total_nodes,
            free: total_nodes as i64,
            ..SchedState::default()
        };
    }

    fn on_submit(&mut self, sched: usize, now: SimTime, queue: usize, req: &Request) {
        self.seq += 1;
        let seq = self.seq;
        self.note(format!(
            "t={now} sched {sched}: submit {} ({} nodes, est {}) to queue {queue}",
            req.id, req.nodes, req.estimate
        ));
        let (id, nodes, submit) = (req.id, req.nodes, req.submit);
        let state = self.state(sched);
        state.used = true;
        let total = state.total;
        let dup = state
            .waiting
            .insert(id, Waiting { queue, seq, submit })
            .is_some();
        if dup {
            self.violate(
                sched,
                now,
                "duplicate-submit",
                format!("request {id} submitted while already waiting"),
            );
        }
        if submit > now {
            self.violate(
                sched,
                now,
                "future-submit",
                format!("request {id} carries submit time {submit} later than now"),
            );
        }
        if nodes > total {
            self.violate(
                sched,
                now,
                "oversized-request",
                format!("request {id} wants {nodes} nodes on a {total}-node machine"),
            );
        }
    }

    fn on_start(&mut self, sched: usize, now: SimTime, req: &Request, kind: StartKind) {
        self.note(format!(
            "t={now} sched {sched}: start {} ({} nodes, {kind})",
            req.id, req.nodes
        ));
        let id = req.id;
        let state = self.state(sched);
        state.used = true;
        let entry = state.waiting.remove(&id);
        let free_after = state.free - req.nodes as i64;
        state.free = free_after;
        let already_running = state.running.contains_key(&id);
        if !already_running {
            state.running.insert(
                id,
                RunningObs {
                    nodes: req.nodes,
                    start: now,
                },
            );
        }

        // FIFO order: a head start must be the lowest-ranked waiter.
        let fifo_breaker = match (kind, entry) {
            (StartKind::FifoHead, Some(w)) => state
                .waiting
                .iter()
                .filter(|(_, o)| (o.queue, o.seq) < (w.queue, w.seq))
                .map(|(oid, o)| (o.queue, o.seq, *oid))
                .min()
                .map(|(q, _, oid)| (q, oid)),
            _ => None,
        };

        // EASY head guarantee: the tracked head must start by its bound.
        let mut head_violation = None;
        if kind == StartKind::FifoHead {
            if let Some((hid, bound)) = state.head_bound.take() {
                if hid == id && now > bound {
                    head_violation = Some(bound);
                }
                // A start of a different id displaces the tracked head
                // (priority arrival in a multi-queue set): tracking for
                // the old head is void either way.
            }
        }

        // CBF monotonicity: the start must not exceed the first
        // reservation, except through the overdue-compression cascade.
        let mut reservation_violation = None;
        if let Some(r) = state.reservations.remove(&id) {
            // A legitimate CBF start is always announced by a reservation
            // at the start instant first, so `current == now` here, and
            // any move past the first reservation went through an excused
            // slip (which set `slipped`). A start beyond the first
            // reservation without that history is a silently delayed job.
            let excused = r.slipped;
            if now > r.first && !excused {
                reservation_violation = Some(r.first);
            }
        }

        let negative_wait =
            entry.map(|w| w.submit > now).unwrap_or(false) || (entry.is_none() && req.submit > now);

        if entry.is_none() {
            self.violate(
                sched,
                now,
                "unknown-start",
                format!("request {id} started without ever being submitted"),
            );
        }
        if already_running {
            self.violate(
                sched,
                now,
                "duplicate-start",
                format!("request {id} started while already running"),
            );
        }
        if free_after < 0 {
            self.violate(
                sched,
                now,
                "capacity",
                format!(
                    "request {id} started with {} nodes but only {} were free \
                     on the {}-node {} machine (oversubscribed by {})",
                    req.nodes,
                    free_after + req.nodes as i64,
                    self.scheds[sched].total,
                    self.scheds[sched].name,
                    -free_after
                ),
            );
        }
        if let Some((q, oid)) = fifo_breaker {
            self.violate(
                sched,
                now,
                "fifo-order",
                format!(
                    "request {id} started as FIFO head while earlier-ranked \
                     request {oid} (queue {q}) was still waiting"
                ),
            );
        }
        if let Some(bound) = head_violation {
            self.violate(
                sched,
                now,
                "easy-head-delay",
                format!(
                    "head request {id} started at {now}, later than its \
                     guaranteed shadow bound {bound} — a backfill delayed it"
                ),
            );
        }
        if let Some(first) = reservation_violation {
            self.violate(
                sched,
                now,
                "cbf-reservation",
                format!(
                    "request {id} started at {now}, later than its first \
                     reservation {first}, with no excusing compression"
                ),
            );
        }
        if negative_wait {
            self.violate(
                sched,
                now,
                "negative-wait",
                format!(
                    "request {id} started at {now} before its submission at {}",
                    entry.map(|w| w.submit).unwrap_or(req.submit)
                ),
            );
        }
    }

    fn on_finish(&mut self, sched: usize, now: SimTime, id: RequestId, nodes: u32) {
        self.note(format!(
            "t={now} sched {sched}: finish {id} ({nodes} nodes)"
        ));
        let state = self.state(sched);
        state.used = true;
        match state.running.remove(&id) {
            Some(r) => {
                state.free += r.nodes as i64;
                self.occupied_node_secs += r.nodes as f64 * now.since(r.start).as_secs();
                if r.nodes != nodes {
                    self.violate(
                        sched,
                        now,
                        "node-mismatch",
                        format!(
                            "request {id} released {nodes} nodes but started with {}",
                            r.nodes
                        ),
                    );
                }
            }
            None => {
                self.violate(
                    sched,
                    now,
                    "unknown-finish",
                    format!("request {id} finished without being observed running"),
                );
            }
        }
    }

    fn on_cancel(&mut self, sched: usize, now: SimTime, id: RequestId) {
        self.note(format!("t={now} sched {sched}: cancel {id}"));
        let state = self.state(sched);
        state.used = true;
        let known = state.waiting.remove(&id).is_some();
        state.reservations.remove(&id);
        if state.head_bound.map(|(hid, _)| hid) == Some(id) {
            state.head_bound = None;
        }
        if !known {
            self.violate(
                sched,
                now,
                "unknown-cancel",
                format!("request {id} cancelled without being observed waiting"),
            );
        }
    }

    fn on_shadow(
        &mut self,
        sched: usize,
        now: SimTime,
        head: &Request,
        shadow: SimTime,
        extra: u32,
    ) {
        self.note(format!(
            "t={now} sched {sched}: shadow for head {} → {shadow} (extra {extra})",
            head.id
        ));
        let state = self.state(sched);
        state.used = true;
        state.head_bound = match state.head_bound {
            // Same head still blocked: the guarantee is the tightest
            // shadow ever computed for it.
            Some((hid, bound)) if hid == head.id => Some((hid, bound.min(shadow))),
            _ => Some((head.id, shadow)),
        };
        if shadow < now {
            self.violate(
                sched,
                now,
                "shadow-in-past",
                format!("shadow {shadow} for head {} precedes now", head.id),
            );
        }
    }

    fn on_reserve(&mut self, sched: usize, now: SimTime, id: RequestId, start: SimTime) {
        self.note(format!("t={now} sched {sched}: reserve {id} @ {start}"));
        let state = self.state(sched);
        state.used = true;
        let mut slip_violation = None;
        match state.reservations.get_mut(&id) {
            None => {
                state.reservations.insert(
                    id,
                    Reservation {
                        first: start,
                        current: start,
                        slipped: false,
                    },
                );
            }
            Some(r) => {
                if start > r.current {
                    // The reservation moved later. Legal only when its
                    // own anchor already passed (an overdue reservation
                    // is re-anchored at `now` by compression), or when an
                    // earlier reservation event fired at this same
                    // instant — then this is not the first re-reservation
                    // of a compression pass, and an earlier-*submitted*
                    // request may have been re-placed over its slot. The
                    // first re-reservation of a pass fits against a
                    // profile at least as free as the one its current
                    // slot was found in, so it can never move later.
                    let excused = r.current < now || state.last_reserve_at == Some(now);
                    if excused {
                        r.slipped = true;
                    } else {
                        slip_violation = Some((r.current, start));
                    }
                }
                r.current = start;
            }
        }
        state.last_reserve_at = Some(now);
        if start < now {
            self.violate(
                sched,
                now,
                "reservation-in-past",
                format!("request {id} reserved at {start}, before now"),
            );
        }
        if let Some((old, new)) = slip_violation {
            self.violate(
                sched,
                now,
                "cbf-reservation",
                format!(
                    "request {id} re-reserved later ({old} → {new}) with no \
                     overdue anchor and no compression cascade to excuse it"
                ),
            );
        }
    }
}

impl RunObserver for Auditor {
    fn on_event(&mut self, now: SimTime, kind: &str) {
        self.note(format!("t={now} engine: {kind}"));
    }

    fn on_job_record(&mut self, rec: &JobRecord) {
        if rec.start < rec.arrival {
            self.violate(
                rec.ran_on,
                rec.completion,
                "negative-wait",
                format!(
                    "job {} recorded start {} before arrival {}",
                    rec.job, rec.start, rec.arrival
                ),
            );
        }
        if rec.completion != rec.start + rec.runtime {
            self.violate(
                rec.ran_on,
                rec.completion,
                "record-inconsistent",
                format!(
                    "job {} recorded completion {} != start {} + runtime {}",
                    rec.job, rec.completion, rec.start, rec.runtime
                ),
            );
        }
    }

    fn on_run_end(&mut self, result: &RunResult) {
        for sched in 0..self.scheds.len() {
            if self.scheds[sched].running.is_empty() {
                continue;
            }
            let mut leftover: Vec<String> = self.scheds[sched]
                .running
                .keys()
                .map(|id| id.to_string())
                .collect();
            leftover.sort();
            self.violate(
                sched,
                result.makespan,
                "leftover-running",
                format!(
                    "requests still occupying nodes at run end: {}",
                    leftover.join(", ")
                ),
            );
        }
        if !self.saw_restart {
            let expected = result.accounted_node_secs();
            let tolerance = LEDGER_TOLERANCE * expected.max(1.0);
            if (self.occupied_node_secs - expected).abs() > tolerance {
                self.violate(
                    0,
                    result.makespan,
                    "ledger",
                    format!(
                        "observed scheduler occupancy {:.6} node-secs, but the \
                         driver accounts for {:.6} (useful {:.6} + wasted {:.6})",
                        self.occupied_node_secs,
                        expected,
                        result.total_work(),
                        result.wasted_node_secs
                    ),
                );
            }
        }
        if self.flush_to_sink {
            crate::sink::push(std::mem::take(&mut self.violations));
        }
    }
}
