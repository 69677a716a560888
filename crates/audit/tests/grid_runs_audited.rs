//! End-to-end audits of real simulator runs: every grid protocol,
//! faultless and faulty, must complete with zero invariant violations —
//! including the occupancy-vs-ledger cross-check at run end.
//!
//! Everything lives in one `#[test]` because the observer factory and
//! violation sink are process-global: a second test thread would harvest
//! the first one's runs.

use rbr_audit::sink;
use rbr_grid::dual_queue::{self, DualQueueConfig};
use rbr_grid::moldable::{self, MoldableConfig, ShapePolicy};
use rbr_grid::redundancy::{self, CopyModel, RedundancyConfig};
use rbr_grid::{CancelMode, Delay, FaultSpec, GridConfig, GridSim, Outage, Scheme};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SeedSequence, SimTime};

fn assert_clean(label: &str) {
    let violations = sink::harvest();
    assert!(
        violations.is_empty(),
        "{label}: {} invariant violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_grid_protocol_passes_a_full_audit() {
    sink::install();

    // Faultless multi-cluster, all three algorithms, with redundancy.
    for algorithm in [Algorithm::Easy, Algorithm::Cbf, Algorithm::Fcfs] {
        let mut cfg = GridConfig::homogeneous(3, Scheme::All);
        cfg.algorithm = algorithm;
        cfg.window = Duration::from_secs(1_800.0);
        for seed in 0u64..2 {
            let _ = GridSim::execute(cfg.clone(), SeedSequence::new(seed));
            assert_clean(&format!("{algorithm} all3 seed {seed}"));
        }
    }

    // CBF with exact estimates puts reservations on running jobs'
    // requested ends, which are their completion instants: a submit
    // handled at such an instant, before the completion, once started a
    // reservation on nodes still held (the benchmark README's finding 1,
    // whose reproducer this is).
    let mut cfg = GridConfig::homogeneous(5, Scheme::Half);
    cfg.algorithm = Algorithm::Cbf;
    cfg.window = Duration::from_secs(5_400.0);
    let _ = GridSim::execute(cfg, SeedSequence::new(3).child(27).child(2));
    assert_clean("cbf half5 exact estimates, same-instant start");

    // The reservation-based predictor path (CBF + prediction collection).
    let mut cfg = GridConfig::homogeneous(2, Scheme::R(2));
    cfg.algorithm = Algorithm::Cbf;
    cfg.collect_predictions = true;
    cfg.window = Duration::from_secs(900.0);
    let _ = GridSim::execute(cfg, SeedSequence::new(0));
    assert_clean("cbf2 predictions");

    // Faulty middleware: lost messages, latency, and a mid-run outage
    // (which rebuilds a scheduler — the auditor must re-anchor, not
    // misfire on the vanished state).
    let mut cfg = GridConfig::homogeneous(3, Scheme::All);
    cfg.window = Duration::from_secs(1_200.0);
    cfg.faults = FaultSpec {
        submit_loss: 0.1,
        cancel_loss: 0.1,
        submit_delay: Delay::Fixed(Duration::from_secs(2.0)),
        cancel_delay: Delay::Exp {
            mean: Duration::from_secs(3.0),
        },
        outages: vec![Outage {
            cluster: 1,
            down: SimTime::from_secs(300.0),
            recover: SimTime::from_secs(500.0),
        }],
        ..FaultSpec::default()
    };
    for seed in 0u64..2 {
        let _ = GridSim::execute(cfg.clone(), SeedSequence::new(seed));
        assert_clean(&format!("faulty all3 seed {seed}"));
    }

    // The dual-queue protocol (two queues over one pool).
    let mut cfg = DualQueueConfig::new(0.4);
    cfg.window = Duration::from_secs(1_200.0);
    let _ = dual_queue::run(&cfg, SeedSequence::new(0));
    assert_clean("dual-queue");

    // Moldable shape racing, fixed and racing policies.
    for policy in [ShapePolicy::Fixed(0), ShapePolicy::AllShapes] {
        let mut cfg = MoldableConfig::new(policy);
        cfg.window = Duration::from_secs(1_200.0);
        let _ = moldable::run(&cfg, SeedSequence::new(0));
        assert_clean(&format!("moldable {policy:?}"));
    }

    // Redundancy-d across its axes. The completion race is the sharp
    // case for the occupancy ledger: killed losers' node-seconds must
    // land in `wasted_node_secs` exactly, or the run-end cross-check
    // fires.
    let redundancy_base = || {
        let mut cfg = RedundancyConfig::new(3, 2).with_load(0.8);
        cfg.service_mean = 30.0;
        cfg.window = Duration::from_secs(1_200.0);
        cfg
    };
    let _ = redundancy::run_single(&redundancy_base(), SeedSequence::new(0));
    assert_clean("redundancy single-submit");
    for cancel in [CancelMode::OnStart, CancelMode::OnCompletion] {
        for copies in [CopyModel::Iid, CopyModel::Identical] {
            let mut cfg = redundancy_base();
            cfg.cancel = cancel;
            cfg.copies = copies;
            for seed in 0u64..2 {
                let _ = redundancy::run(&cfg, SeedSequence::new(seed));
                assert_clean(&format!("redundancy {cancel:?} {copies:?} seed {seed}"));
            }
        }
    }

    // Redundancy-d under faulty middleware: lost/delayed messages alone,
    // then with a mid-run server outage (restart re-anchors the ledger).
    for cancel in [CancelMode::OnStart, CancelMode::OnCompletion] {
        let mut cfg = redundancy_base();
        cfg.cancel = cancel;
        cfg.faults = FaultSpec {
            submit_loss: 0.1,
            cancel_loss: 0.1,
            submit_delay: Delay::Fixed(Duration::from_secs(2.0)),
            cancel_delay: Delay::Exp {
                mean: Duration::from_secs(3.0),
            },
            ..FaultSpec::default()
        };
        let _ = redundancy::run(&cfg, SeedSequence::new(0));
        assert_clean(&format!("faulty redundancy {cancel:?}"));
        cfg.faults.outages = vec![Outage {
            cluster: 1,
            down: SimTime::from_secs(300.0),
            recover: SimTime::from_secs(500.0),
        }];
        let _ = redundancy::run(&cfg, SeedSequence::new(1));
        assert_clean(&format!("faulty redundancy {cancel:?} with outage"));
    }

    sink::uninstall();
}
