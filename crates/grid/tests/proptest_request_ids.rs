//! Property tests for the driver's request ids: over whole runs of every
//! protocol family, no id is submitted to a scheduler twice, and each id
//! decodes to the job and copy it was issued for.
//!
//! An id packs the job index into its high 32 bits, the copy index into
//! the next 16 and the copy's submission count into the low 16. A
//! recording observer (installed through the driver's observer factory)
//! logs every submit and start the schedulers see; the checks then hold
//! each decoded id to the run's records: its job exists and arrived by
//! the submit, its copy is one the job submitted, every submission of a
//! copy goes to the same target with the same request and counts up from
//! 0, and each job's recorded start is the start of one of its own ids.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;
use rbr_grid::dual_queue::{self, DualQueueConfig};
use rbr_grid::moldable::{self, MoldableConfig, ShapePolicy};
use rbr_grid::redundancy::{self, RedundancyConfig};
use rbr_grid::{
    install_observer_factory, CancelMode, Delay, FaultSpec, GridConfig, GridSim, Outage,
    RunObserver, RunResult, Scheme,
};
use rbr_sched::{Request, RequestId, SchedObserver, StartKind};
use rbr_simcore::{Duration, SeedSequence, SimTime};

/// A submit or a start, as a scheduler reported it. `target` is the
/// set's target: the scheduler of independent clusters, or the queue of
/// one shared pool (the other index is then 0).
#[derive(Clone, Copy, Debug)]
enum Seen {
    Submit {
        target: usize,
        now: SimTime,
        req: Request,
    },
    Start {
        now: SimTime,
        id: RequestId,
    },
}

thread_local! {
    /// What the observers built on this thread saw; each driver builds
    /// its observer on the thread that runs it.
    static SEEN: RefCell<Vec<Seen>> = const { RefCell::new(Vec::new()) };
}

struct Recorder;

impl SchedObserver for Recorder {
    fn on_submit(&mut self, sched: usize, now: SimTime, queue: usize, req: &Request) {
        let target = sched + queue;
        SEEN.with(|s| {
            s.borrow_mut().push(Seen::Submit {
                target,
                now,
                req: *req,
            })
        });
    }

    fn on_start(&mut self, _sched: usize, now: SimTime, req: &Request, _kind: StartKind) {
        SEEN.with(|s| s.borrow_mut().push(Seen::Start { now, id: req.id }));
    }
}

impl RunObserver for Recorder {}

/// Runs `run` with every driver it builds observed, and returns its
/// result with what the schedulers saw.
fn recorded(run: impl FnOnce() -> RunResult) -> (RunResult, Vec<Seen>) {
    install_observer_factory(Box::new(|| Rc::new(RefCell::new(Recorder))));
    SEEN.with(|s| s.borrow_mut().clear());
    let result = run();
    (result, SEEN.with(|s| s.take()))
}

/// The job, copy and submission count an id packs.
fn decode(id: RequestId) -> (usize, usize, u16) {
    (
        (id.0 >> 32) as usize,
        (id.0 >> 16) as u16 as usize,
        id.0 as u16,
    )
}

/// Checks every id of one run against its records; returns how many
/// submissions were resubmissions (count above 0).
///
/// `same_shape` says every copy of a job asks for the job's recorded
/// node count (false for moldable shapes); `resubmits` whether the run
/// may submit a copy more than once (faulty middleware).
fn check_ids(
    label: &str,
    run: &RunResult,
    seen: &[Seen],
    same_shape: bool,
    resubmits: bool,
) -> usize {
    // Each submitted id's target, and per (job, copy) its target, its
    // request shape and its submissions so far.
    let mut submitted: HashMap<RequestId, usize> = HashMap::new();
    let mut copies: HashMap<(usize, usize), (usize, u32, Duration, u16)> = HashMap::new();
    let mut resubmissions = 0;
    let mut won = vec![false; run.records.len()];
    for event in seen {
        match *event {
            Seen::Submit { target, now, req } => {
                assert!(
                    submitted.insert(req.id, target).is_none(),
                    "{label}: {} submitted twice",
                    req.id
                );
                let (job, copy, count) = decode(req.id);
                let rec = run
                    .records
                    .get(job)
                    .unwrap_or_else(|| panic!("{label}: {} names no job", req.id));
                assert!(
                    now >= rec.arrival,
                    "{label}: {} submitted before its job arrived",
                    req.id
                );
                assert!(
                    copy < rec.copies as usize,
                    "{label}: {} names copy {copy} of a job with {} copies",
                    req.id,
                    rec.copies
                );
                if same_shape {
                    assert_eq!(
                        req.nodes, rec.nodes,
                        "{label}: {} has another job's shape",
                        req.id
                    );
                }
                let expected = match copies.get(&(job, copy)) {
                    None => 0,
                    Some(&(first_target, nodes, estimate, subs)) => {
                        assert_eq!(
                            (first_target, nodes, estimate),
                            (target, req.nodes, req.estimate),
                            "{label}: {} is another copy than its earlier submissions",
                            req.id
                        );
                        subs
                    }
                };
                assert_eq!(
                    count, expected,
                    "{label}: {} out of submission order",
                    req.id
                );
                assert!(resubmits || count == 0, "{label}: {} resubmitted", req.id);
                resubmissions += usize::from(count > 0);
                copies.insert((job, copy), (target, req.nodes, req.estimate, count + 1));
            }
            Seen::Start { now, id } => {
                let target = *submitted
                    .get(&id)
                    .unwrap_or_else(|| panic!("{label}: {id} started unsubmitted"));
                let (job, _, _) = decode(id);
                let rec = &run.records[job];
                won[job] |= rec.start == now && rec.ran_on == target;
            }
        }
    }
    assert_eq!(
        submitted.len() as u64,
        run.submits,
        "{label}: a submit went unseen"
    );
    if let Some(job) = won.iter().position(|&w| !w) {
        panic!("{label}: no id of job {job} started where and when it ran");
    }
    resubmissions
}

/// ALL on 3 clusters behind faulty middleware with an outage of cluster
/// 1: the copies it evaporates or kills are submitted again.
fn faulty(seed: SeedSequence) -> RunResult {
    let mut cfg = GridConfig::homogeneous(3, Scheme::All);
    cfg.window = Duration::from_secs(1_200.0);
    cfg.faults = FaultSpec {
        submit_loss: 0.1,
        cancel_loss: 0.1,
        submit_delay: Delay::Fixed(Duration::from_secs(2.0)),
        cancel_delay: Delay::Exp {
            mean: Duration::from_secs(30.0),
        },
        outages: vec![Outage {
            cluster: 1,
            down: SimTime::from_secs(300.0),
            recover: SimTime::from_secs(500.0),
        }],
        ..FaultSpec::default()
    };
    GridSim::execute(cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn request_ids_are_unique_and_name_their_copy(seed in 0u64..1_000_000, frac in 0.0f64..=1.0) {
        let seed = SeedSequence::new(seed);

        let (run, seen) = recorded(|| {
            let mut cfg = GridConfig::homogeneous(3, Scheme::All);
            cfg.redundant_fraction = frac;
            cfg.window = Duration::from_secs(900.0);
            GridSim::execute(cfg, seed)
        });
        check_ids("multi-cluster", &run, &seen, true, false);

        let (run, seen) = recorded(|| {
            let mut cfg = DualQueueConfig::new(frac);
            cfg.window = Duration::from_secs(900.0);
            dual_queue::run(&cfg, seed).run
        });
        check_ids("dual-queue", &run, &seen, true, false);

        let (run, seen) = recorded(|| {
            let mut cfg = MoldableConfig::new(ShapePolicy::AllShapes);
            cfg.window = Duration::from_secs(900.0);
            moldable::run(&cfg, seed).run
        });
        check_ids("moldable", &run, &seen, false, false);

        let (run, seen) = recorded(|| {
            let mut cfg = RedundancyConfig::new(3, 3).with_load(1.0);
            cfg.cancel = CancelMode::OnCompletion;
            cfg.service_mean = 30.0;
            cfg.window = Duration::from_secs(900.0);
            redundancy::run(&cfg, seed)
        });
        check_ids("completion race", &run, &seen, true, false);

        let (run, seen) = recorded(|| faulty(seed));
        check_ids("faulty", &run, &seen, true, true);
    }
}

/// The faulty run submits copies again after its outage, under ids that
/// count the resubmissions.
#[test]
fn an_outage_resubmits_copies_under_new_ids() {
    let (run, seen) = recorded(|| faulty(SeedSequence::new(0)));
    assert!(
        run.outage_kills > 0,
        "the outage must hit queued or running copies"
    );
    let resubmissions = check_ids("faulty", &run, &seen, true, true);
    assert!(resubmissions > 0, "no copy was submitted twice");
}
