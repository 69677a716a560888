//! Brute-force reference schedulers and the differential harness.
//!
//! The production FCFS and EASY schedulers in `rbr-sched` are built for
//! speed inside a discrete-event loop: incremental free-node accounting,
//! a single backfill sweep with a consumed `extra` budget. The reference
//! implementations here are deliberately naive — every scheduling pass
//! recomputes everything from scratch (the EASY shadow and spare-node
//! count are re-derived from the full running set before *each* backfill
//! candidate), with no state carried between passes beyond the queue and
//! the running list. Naive and production implementations share no code,
//! which is what makes agreement between them evidence.
//!
//! [`differential`] drives both through the same event loop (the engine's
//! `(time, insertion-seq)` order reproduced exactly), including cancels of
//! still-queued jobs, and compares start times job by job. [`shrink`]
//! greedily minimizes a failing workload to a smallest counterexample
//! schedule.

use std::fmt;

use rbr_sched::{Algorithm, Request, RequestId, Scheduler};
use rbr_simcore::{Duration, SimTime};

/// One job of an oracle workload. Jobs are identified by their index in
/// the workload slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleJob {
    /// Submission instant.
    pub arrival: SimTime,
    /// Nodes requested.
    pub nodes: u32,
    /// Requested compute time (what the scheduler plans with).
    pub estimate: Duration,
    /// Actual runtime (what the event loop completes with); at most
    /// `estimate`, as in the production driver.
    pub runtime: Duration,
    /// When the job is cancelled, if ever: no earlier than `arrival`, and
    /// a no-op unless the job is still queued then.
    pub cancel: Option<SimTime>,
}

/// A start-time disagreement between production and reference.
#[derive(Clone, Copy, Debug)]
pub struct Mismatch {
    /// Algorithm under test.
    pub alg: Algorithm,
    /// Index of the first disagreeing job.
    pub job: usize,
    /// When the production scheduler started it; `None` if it was
    /// cancelled while still queued.
    pub production: Option<SimTime>,
    /// When the brute-force reference started it, likewise.
    pub reference: Option<SimTime>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |start: Option<SimTime>| {
            start.map_or_else(
                || "was cancelled while queued".to_string(),
                |t| format!("started at {t}"),
            )
        };
        write!(
            f,
            "{}: job {} {} in production but {} in the brute-force \
             reference",
            self.alg,
            self.job,
            show(self.production),
            show(self.reference)
        )
    }
}

/// The slice of the [`Scheduler`] interface the oracle event loop needs.
trait Stepper {
    fn submit(&mut self, now: SimTime, req: Request, starts: &mut Vec<RequestId>);
    fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool;
    fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>);
}

impl Stepper for Box<dyn Scheduler> {
    fn submit(&mut self, now: SimTime, req: Request, starts: &mut Vec<RequestId>) {
        (**self).submit(now, req, starts);
    }
    fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool {
        (**self).cancel(now, id, starts)
    }
    fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) {
        (**self).complete(now, id, starts);
    }
}

/// The naive rebuild-everything reference scheduler: FCFS, optionally
/// with the EASY backfilling rule layered on top.
struct RefSched {
    easy: bool,
    total: u32,
    free: u32,
    /// Queued requests in submission order.
    waiting: Vec<Request>,
    /// Running allocations: `(id, nodes, requested_end)`.
    running: Vec<(RequestId, u32, SimTime)>,
}

impl RefSched {
    fn new(easy: bool, total: u32) -> Self {
        RefSched {
            easy,
            total,
            free: total,
            waiting: Vec::new(),
            running: Vec::new(),
        }
    }

    fn start(&mut self, now: SimTime, req: Request, starts: &mut Vec<RequestId>) {
        self.free -= req.nodes;
        self.running
            .push((req.id, req.nodes, req.end_if_started(now)));
        starts.push(req.id);
    }

    /// Recomputes the head's shadow instant and spare-node count from the
    /// full running set — no incremental state, no consumed budget.
    fn shadow_from_scratch(&self) -> (SimTime, u32) {
        let head = self.waiting[0];
        let mut ends: Vec<(SimTime, u32)> = self
            .running
            .iter()
            .map(|&(_, nodes, end)| (end, nodes))
            .collect();
        ends.sort_unstable();
        let mut avail = self.free;
        for (end, nodes) in ends {
            avail += nodes;
            if avail >= head.nodes {
                return (end, avail - head.nodes);
            }
        }
        unreachable!(
            "head ({} nodes) cannot fit even an idle {}-node machine",
            head.nodes, self.total
        );
    }

    fn pass(&mut self, now: SimTime, starts: &mut Vec<RequestId>) {
        // FCFS: start from the head while it fits.
        while let Some(&head) = self.waiting.first() {
            if head.nodes > self.free {
                break;
            }
            self.waiting.remove(0);
            self.start(now, head, starts);
        }
        if !self.easy || self.waiting.is_empty() {
            return;
        }
        // EASY: walk the queue behind the blocked head, re-deriving the
        // shadow before every candidate instead of keeping a budget.
        let mut i = 1;
        while i < self.waiting.len() {
            let (shadow, spare) = self.shadow_from_scratch();
            let cand = self.waiting[i];
            let fits = cand.nodes <= self.free;
            let ends_by_shadow = cand.end_if_started(now) <= shadow;
            if fits && (ends_by_shadow || cand.nodes <= spare) {
                self.waiting.remove(i);
                self.start(now, cand, starts);
            } else {
                i += 1;
            }
        }
    }
}

impl Stepper for RefSched {
    fn submit(&mut self, now: SimTime, req: Request, starts: &mut Vec<RequestId>) {
        assert!(
            req.nodes <= self.total,
            "oracle job wants {} nodes on a {}-node machine",
            req.nodes,
            self.total
        );
        self.waiting.push(req);
        self.pass(now, starts);
    }

    fn cancel(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) -> bool {
        let Some(pos) = self.waiting.iter().position(|r| r.id == id) else {
            return false;
        };
        self.waiting.remove(pos);
        self.pass(now, starts);
        true
    }

    fn complete(&mut self, now: SimTime, id: RequestId, starts: &mut Vec<RequestId>) {
        let pos = self
            .running
            .iter()
            .position(|&(rid, _, _)| rid == id)
            .expect("completion of a request the reference never started");
        let (_, nodes, _) = self.running.swap_remove(pos);
        self.free += nodes;
        self.pass(now, starts);
    }
}

#[derive(Clone, Copy)]
enum Ev {
    Arrive(usize),
    Cancel(usize),
    Finish(usize),
}

/// Drives `target` through the workload with the engine's event order —
/// minimum `(time, seq)`, arrivals seeded with seqs `0..n` in job order,
/// cancels with `n..2n`, completions numbered in start-commit order — and
/// returns each job's start instant, `None` for a job cancelled while
/// still queued.
///
/// A cancel must report exactly whether its job was still queued, so two
/// runs with equal start lists also agree on every cancel's result.
fn run_schedule<S: Stepper>(target: &mut S, jobs: &[OracleJob]) -> Vec<Option<SimTime>> {
    let n = jobs.len();
    let mut pending: Vec<(SimTime, u64, Ev)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.arrival, i as u64, Ev::Arrive(i)))
        .chain(
            jobs.iter()
                .enumerate()
                .filter_map(|(i, j)| j.cancel.map(|at| (at, (n + i) as u64, Ev::Cancel(i)))),
        )
        .collect();
    let mut seq = 2 * n as u64;
    let mut started: Vec<Option<SimTime>> = vec![None; n];
    while !pending.is_empty() {
        let k = (0..pending.len())
            .min_by_key(|&k| (pending[k].0, pending[k].1))
            .expect("pending is non-empty");
        let (now, _, ev) = pending.swap_remove(k);
        let mut starts = Vec::new();
        match ev {
            Ev::Arrive(i) => {
                let job = jobs[i];
                let req = Request::new(RequestId(i as u64 + 1), job.nodes, job.estimate, now);
                target.submit(now, req, &mut starts);
            }
            Ev::Cancel(i) => {
                let removed = target.cancel(now, RequestId(i as u64 + 1), &mut starts);
                assert_eq!(
                    removed,
                    started[i].is_none(),
                    "cancel of job {i} at {now} misreported whether it was queued"
                );
            }
            Ev::Finish(i) => target.complete(now, RequestId(i as u64 + 1), &mut starts),
        }
        for id in starts {
            let i = (id.0 - 1) as usize;
            assert!(started[i].is_none(), "job {i} started twice");
            started[i] = Some(now);
            pending.push((now + jobs[i].runtime, seq, Ev::Finish(i)));
            seq += 1;
        }
    }
    for (i, (s, j)) in started.iter().zip(jobs).enumerate() {
        assert!(s.is_some() || j.cancel.is_some(), "job {i} never started");
    }
    started
}

fn validate(alg: Algorithm, nodes: u32, jobs: &[OracleJob]) {
    assert!(
        matches!(alg, Algorithm::Fcfs | Algorithm::Easy),
        "no brute-force reference for {alg}: CBF start times depend on \
         reservation history, which a rebuild-everything oracle cannot \
         reproduce"
    );
    for (i, j) in jobs.iter().enumerate() {
        assert!(
            j.nodes >= 1 && j.nodes <= nodes,
            "oracle job {i} wants {} nodes on a {nodes}-node machine",
            j.nodes
        );
        assert!(!j.estimate.is_zero(), "oracle job {i} has a zero estimate");
        assert!(
            j.runtime <= j.estimate,
            "oracle job {i} runs longer than its request ({:?} > {:?})",
            j.runtime,
            j.estimate
        );
        assert!(
            j.cancel.is_none_or(|at| at >= j.arrival),
            "oracle job {i} is cancelled before it arrives"
        );
    }
}

/// Start times under the production scheduler (`None`: cancelled while
/// queued).
pub fn production_starts(alg: Algorithm, nodes: u32, jobs: &[OracleJob]) -> Vec<Option<SimTime>> {
    validate(alg, nodes, jobs);
    let mut sched = alg.build(nodes);
    run_schedule(&mut sched, jobs)
}

/// Start times under the brute-force reference (`None`: cancelled while
/// queued).
pub fn reference_starts(alg: Algorithm, nodes: u32, jobs: &[OracleJob]) -> Vec<Option<SimTime>> {
    validate(alg, nodes, jobs);
    let mut sched = RefSched::new(alg == Algorithm::Easy, nodes);
    run_schedule(&mut sched, jobs)
}

/// Runs the workload through both implementations and reports the first
/// job whose start times disagree.
pub fn differential(alg: Algorithm, nodes: u32, jobs: &[OracleJob]) -> Result<(), Mismatch> {
    let production = production_starts(alg, nodes, jobs);
    let reference = reference_starts(alg, nodes, jobs);
    for (job, (&p, &r)) in production.iter().zip(&reference).enumerate() {
        if p != r {
            return Err(Mismatch {
                alg,
                job,
                production: p,
                reference: r,
            });
        }
    }
    Ok(())
}

/// Greedily removes jobs while `fails` still holds, yielding a locally
/// minimal workload (removing any single remaining job makes it pass).
pub fn shrink_with(jobs: &[OracleJob], fails: impl Fn(&[OracleJob]) -> bool) -> Vec<OracleJob> {
    let mut current = jobs.to_vec();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if fails(&candidate) {
                current = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return current;
        }
    }
}

/// Minimizes a workload on which [`differential`] fails. Returns the
/// shrunk workload and its mismatch.
///
/// # Panics
/// Panics if the workload does not actually fail.
pub fn shrink(alg: Algorithm, nodes: u32, jobs: &[OracleJob]) -> (Vec<OracleJob>, Mismatch) {
    assert!(
        differential(alg, nodes, jobs).is_err(),
        "shrink called on a workload where both implementations agree"
    );
    let shrunk = shrink_with(jobs, |candidate| {
        differential(alg, nodes, candidate).is_err()
    });
    let mismatch = differential(alg, nodes, &shrunk).expect_err("shrunk workload must still fail");
    (shrunk, mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arrival: f64, nodes: u32, est: f64, run: f64) -> OracleJob {
        OracleJob {
            arrival: SimTime::from_secs(arrival),
            nodes,
            estimate: Duration::from_secs(est),
            runtime: Duration::from_secs(run),
            cancel: None,
        }
    }
    fn cancelled(at: f64, j: OracleJob) -> OracleJob {
        OracleJob {
            cancel: Some(SimTime::from_secs(at)),
            ..j
        }
    }
    fn t(s: f64) -> Option<SimTime> {
        Some(SimTime::from_secs(s))
    }

    #[test]
    fn reference_fcfs_blocks_behind_the_head() {
        // 10 nodes: an 8-node job runs; a 8-node head blocks; a 2-node
        // tail must NOT overtake under plain FCFS.
        let jobs = [
            job(0.0, 8, 100.0, 100.0),
            job(0.0, 8, 50.0, 50.0),
            job(0.0, 2, 10.0, 10.0),
        ];
        let starts = reference_starts(Algorithm::Fcfs, 10, &jobs);
        assert_eq!(starts, vec![t(0.0), t(100.0), t(100.0)]);
    }

    #[test]
    fn reference_easy_backfills_within_the_shadow() {
        // The canonical EASY scenario from the production test suite:
        // the 2-node job fits the head's spare nodes and jumps ahead.
        let jobs = [
            job(0.0, 8, 100.0, 100.0),
            job(0.0, 8, 50.0, 50.0),
            job(0.0, 2, 100.0, 100.0),
        ];
        let starts = reference_starts(Algorithm::Easy, 10, &jobs);
        assert_eq!(starts[2], t(0.0));
        assert_eq!(starts[1], t(100.0));
    }

    #[test]
    fn reference_easy_never_delays_the_head() {
        // A 5-node candidate outliving the shadow with spare = 0 must
        // wait, so the head starts exactly at the shadow instant.
        let jobs = [
            job(0.0, 10, 100.0, 100.0),
            job(0.0, 10, 100.0, 100.0),
            job(0.0, 5, 100.0, 100.0),
        ];
        let starts = reference_starts(Algorithm::Easy, 10, &jobs);
        assert_eq!(starts[1], t(100.0));
        assert_eq!(starts[2], t(200.0));
    }

    #[test]
    fn production_agrees_on_handcrafted_workloads() {
        let workloads: Vec<Vec<OracleJob>> = vec![
            vec![
                job(0.0, 8, 100.0, 100.0),
                job(0.0, 8, 50.0, 50.0),
                job(0.0, 2, 100.0, 100.0),
            ],
            // Early completion opens a backfill hole at t = 30.
            vec![
                job(0.0, 6, 100.0, 30.0),
                job(0.0, 8, 100.0, 100.0),
                job(0.0, 2, 500.0, 400.0),
                job(5.0, 2, 40.0, 40.0),
            ],
            // Staggered arrivals with ties.
            vec![
                job(0.0, 4, 60.0, 45.0),
                job(10.0, 4, 60.0, 60.0),
                job(10.0, 4, 60.0, 20.0),
                job(10.0, 2, 10.0, 10.0),
            ],
        ];
        for alg in [Algorithm::Fcfs, Algorithm::Easy] {
            for jobs in &workloads {
                differential(alg, 10, jobs).unwrap_or_else(|m| panic!("{m}"));
            }
        }
    }

    #[test]
    fn reference_cancel_drops_only_queued_jobs() {
        // The blocked head is cancelled at 10; the running job's cancel
        // at 50 is a no-op. The 4-node tail still waits for the release.
        let jobs = [
            cancelled(50.0, job(0.0, 8, 100.0, 100.0)),
            cancelled(10.0, job(0.0, 8, 50.0, 50.0)),
            job(0.0, 4, 500.0, 500.0),
        ];
        let starts = reference_starts(Algorithm::Easy, 10, &jobs);
        assert_eq!(starts, vec![t(0.0), None, t(100.0)]);
    }

    #[test]
    fn production_agrees_where_easy_resumes_its_sweep() {
        let workloads: Vec<(u32, Vec<OracleJob>)> = vec![
            // A cancel before the sweep's stopping point, then an early
            // completion at 10 that resumes the sweep.
            (
                10,
                vec![
                    job(0.0, 2, 50.0, 10.0),
                    job(0.0, 6, 100.0, 100.0),
                    job(0.0, 9, 100.0, 100.0),
                    cancelled(1.0, job(0.0, 2, 500.0, 500.0)),
                    job(0.0, 2, 50.0, 50.0),
                    job(0.0, 1, 10.0, 10.0),
                ],
            ),
            // A backfill ending exactly at the shadow raises the next
            // pass's recomputed spare count.
            (
                11,
                vec![
                    job(0.0, 1, 100.0, 100.0),
                    job(0.0, 1, 100.0, 100.0),
                    job(0.0, 4, 100.0, 100.0),
                    job(0.0, 6, 100.0, 100.0),
                    job(0.0, 1, 500.0, 500.0),
                    job(0.0, 4, 100.0, 100.0),
                    job(0.0, 1, 500.0, 500.0),
                ],
            ),
        ];
        for alg in [Algorithm::Fcfs, Algorithm::Easy] {
            for (nodes, jobs) in &workloads {
                differential(alg, *nodes, jobs).unwrap_or_else(|m| panic!("{m}"));
            }
        }
    }

    #[test]
    fn shrinker_minimizes_against_a_predicate() {
        let jobs = [
            job(0.0, 1, 10.0, 10.0),
            job(1.0, 7, 10.0, 10.0),
            job(2.0, 2, 10.0, 10.0),
            job(3.0, 7, 10.0, 10.0),
        ];
        // "Fails" iff it contains at least two 7-node jobs.
        let shrunk = shrink_with(&jobs, |ws| ws.iter().filter(|j| j.nodes == 7).count() >= 2);
        assert_eq!(shrunk.len(), 2);
        assert!(shrunk.iter().all(|j| j.nodes == 7));
    }

    #[test]
    #[should_panic(expected = "no brute-force reference")]
    fn cbf_has_no_oracle() {
        let _ = reference_starts(Algorithm::Cbf, 4, &[job(0.0, 1, 1.0, 1.0)]);
    }
}
