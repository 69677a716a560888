//! Golden determinism suite.
//!
//! The faultless multi-cluster path carries the paper's headline numbers,
//! so its output is locked down bit-for-bit: the snapshots under
//! `tests/golden/` were recorded from the pre-refactor simulator and every
//! subsequent rewrite of the event loop must reproduce them exactly for
//! seeds 0–3. Regenerate (only when a change is *supposed* to alter
//! results, with reviewer sign-off) via:
//!
//! ```text
//! RBR_BLESS=1 cargo test -p rbr-grid --test golden_determinism
//! ```
//!
//! The digest serializes integer microseconds and exact counters only —
//! no floating-point formatting is involved, so a digest match is a
//! bit-identical run. Faulty-middleware runs add a second footer line
//! with the fault counters ([`faulty_digest`]).

use std::fs;
use std::path::PathBuf;

use rbr_grid::{BatchSpec, Delay, FaultSpec, GridConfig, GridSim, Outage, RunResult, Scheme};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SeedSequence, SimTime};
use rbr_workload::EstimateModel;

/// Exact textual form of a run: one line per job record plus a footer of
/// run-level counters. Times are raw microseconds.
fn digest(result: &RunResult) -> String {
    let mut out = String::new();
    for r in &result.records {
        let predicted = match r.predicted_wait {
            Some(d) => d.as_micros().to_string(),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "job={} home={} ran_on={} nodes={} arrival={} start={} completion={} \
             runtime={} redundant={} copies={} predicted={}\n",
            r.job,
            r.home,
            r.ran_on,
            r.nodes,
            r.arrival.as_micros(),
            r.start.as_micros(),
            r.completion.as_micros(),
            r.runtime.as_micros(),
            r.redundant,
            r.copies,
            predicted,
        ));
    }
    out.push_str(&format!(
        "submits={} cancels={} aborts={} makespan={} events={} backfills={} \
         max_queue_len={:?} wasted_bits={}\n",
        result.submits,
        result.cancels,
        result.aborts,
        result.makespan.as_micros(),
        result.events,
        result.backfills,
        result.max_queue_len,
        result.wasted_node_secs.to_bits(),
    ));
    out
}

/// [`digest`] plus a second footer line of the fault counters, which
/// faultless runs leave at zero.
fn faulty_digest(result: &RunResult) -> String {
    let mut out = digest(result);
    out.push_str(&format!(
        "zombie_starts={} lost_submits={} lost_cancels={} outage_kills={} \
         dropped_copies={} cancel_batches={}\n",
        result.zombie_starts,
        result.lost_submits,
        result.lost_cancels,
        result.outage_kills,
        result.dropped_copies,
        result.cancel_batches,
    ));
    out
}

/// A 3-cluster ALL-scheme run under EASY: exercises redundancy, sibling
/// cancellation, and the same-instant abort path.
fn all3() -> GridConfig {
    let mut cfg = GridConfig::homogeneous(3, Scheme::All);
    cfg.window = Duration::from_secs(1_800.0);
    cfg
}

/// A 2-cluster R2 run under CBF with prediction collection: exercises the
/// reservation-based predictor and the `predicted_wait` plumbing.
fn cbf2() -> GridConfig {
    let mut cfg = GridConfig::homogeneous(2, Scheme::R(2));
    cfg.algorithm = Algorithm::Cbf;
    cfg.collect_predictions = true;
    cfg.window = Duration::from_secs(900.0);
    cfg
}

/// A 3-cluster ALL run under textbook CBF (compression on every early
/// completion and cancel) with real estimates: queues grow deep, so
/// compressions re-reserve dozens of requests on a profile that earlier
/// fits have already carved up.
fn cbf_deep() -> GridConfig {
    let mut cfg = GridConfig::homogeneous(3, Scheme::All);
    cfg.algorithm = Algorithm::Cbf;
    cfg.estimates = EstimateModel::paper_real();
    cfg.cbf_cycle = Duration::ZERO;
    cfg.window = Duration::from_secs(1_800.0);
    cfg
}

/// ALL on 3 clusters behind faulty middleware, as the audited grid runs
/// configure it: lost and delayed submits and cancels, and an outage of
/// cluster 1 that evaporates queued copies (re-delivered at recovery)
/// and kills running ones.
fn faulty_all3() -> GridConfig {
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
    cfg
}

/// ALL on 3 clusters with the cancellation callback's ops batched four
/// to a transaction (30 s deadline); a lost transaction orphans its
/// whole batch. Cancels take a minute on average and cluster 0 goes
/// down mid-run, so a cancel sent before the outage killed a winner can
/// reach the copy that won the restarted race, which is then resubmitted.
fn faulty_batch() -> GridConfig {
    let mut cfg = GridConfig::homogeneous(3, Scheme::All);
    cfg.window = Duration::from_secs(1_800.0);
    cfg.faults.cancel_loss = 0.2;
    cfg.faults.cancel_delay = Delay::Exp {
        mean: Duration::from_secs(60.0),
    };
    cfg.faults.cancel_batch = BatchSpec::of(4, Duration::from_secs(30.0));
    cfg.faults.outages = vec![Outage {
        cluster: 0,
        down: SimTime::from_secs(600.0),
        recover: SimTime::from_secs(900.0),
    }];
    cfg
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden_runs(label: &str, run_seed: impl Fn(u64) -> RunResult) {
    check_golden_digests(label, digest, run_seed);
}

fn check_golden_digests(
    label: &str,
    digest: fn(&RunResult) -> String,
    mut run_seed: impl FnMut(u64) -> RunResult,
) {
    for seed in 0u64..4 {
        let run = run_seed(seed);
        let got = digest(&run);
        let path = golden_path(&format!("{label}_s{seed}.txt"));
        if std::env::var_os("RBR_BLESS").is_some() {
            fs::create_dir_all(path.parent().expect("golden dir has a parent"))
                .expect("create golden dir");
            fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            got, want,
            "run diverged from recorded golden ({label}, seed {seed})"
        );
    }
}

fn check_golden(label: &str, make: fn() -> GridConfig) {
    check_golden_runs(label, |seed| {
        GridSim::execute(make(), SeedSequence::new(seed))
    });
}

#[test]
fn faultless_all_scheme_matches_pre_refactor_golden() {
    check_golden("all3", all3);
}

#[test]
fn faultless_cbf_predictions_match_pre_refactor_golden() {
    check_golden("cbf2", cbf2);
}

#[test]
fn textbook_cbf_deep_queues_match_recorded_golden() {
    check_golden("cbf_deep", cbf_deep);
}

/// Faulty middleware locked down with its fault counters. Summed over
/// seeds 0–3 the runs re-deliver copies an outage evaporated, kill
/// running copies, lose cancels (and so start zombies), and batch
/// cancels; these are the paths that re-submit a copy or meet a stale
/// completion.
#[test]
fn faulty_middleware_matches_recorded_golden() {
    let mut totals = RunResult::default();
    for (label, make) in [
        ("faulty_all3", faulty_all3 as fn() -> GridConfig),
        ("faulty_batch", faulty_batch),
    ] {
        check_golden_digests(label, faulty_digest, |seed| {
            let run = GridSim::execute(make(), SeedSequence::new(seed));
            totals.zombie_starts += run.zombie_starts;
            totals.lost_cancels += run.lost_cancels;
            totals.lost_submits += run.lost_submits;
            totals.outage_kills += run.outage_kills;
            totals.cancel_batches += run.cancel_batches;
            run
        });
    }
    assert!(totals.outage_kills > 0, "no outage kill or re-delivery");
    assert!(totals.zombie_starts > 0, "no zombie started");
    assert!(totals.lost_cancels > 0, "no cancel lost");
    assert!(totals.lost_submits > 0, "no submit lost");
    assert!(totals.cancel_batches > 0, "no cancel batch sent");
}

/// The dual-queue protocol locked down the same way: two queues over one
/// pool, short/long split at 0.4 of the estimate distribution.
#[test]
fn dual_queue_matches_recorded_golden() {
    use rbr_grid::dual_queue::{self, DualQueueConfig};
    let mut cfg = DualQueueConfig::new(0.4);
    cfg.window = Duration::from_secs(1_200.0);
    check_golden_runs("dual_queue", |seed| {
        dual_queue::run(&cfg, SeedSequence::new(seed)).run
    });
}

/// Moldable shape racing locked down for both policies: the fixed-shape
/// baseline and the all-shapes race.
#[test]
fn moldable_matches_recorded_golden() {
    use rbr_grid::moldable::{self, MoldableConfig, ShapePolicy};
    for (label, policy) in [
        ("moldable_fixed", ShapePolicy::Fixed(0)),
        ("moldable_race", ShapePolicy::AllShapes),
    ] {
        let mut cfg = MoldableConfig::new(policy);
        cfg.window = Duration::from_secs(1_200.0);
        check_golden_runs(label, |seed| {
            moldable::run(&cfg, SeedSequence::new(seed)).run
        });
    }
}

/// The redundancy-d family locked down across its axes: the single-submit
/// baseline, the cancel-on-start race, and the cancel-on-completion race
/// under i.i.d. and identical copies (the completion race exercises the
/// running-loser kill and waste accounting, so `wasted_bits` is part of
/// the lock).
#[test]
fn redundancy_matches_recorded_golden() {
    use rbr_grid::redundancy::{self, CopyModel, RedundancyConfig};
    use rbr_grid::CancelMode;
    let base = || {
        let mut cfg = RedundancyConfig::new(3, 2).with_load(0.8);
        cfg.service_mean = 30.0;
        cfg.window = Duration::from_secs(1_200.0);
        cfg
    };
    check_golden_runs("redundancy_single", |seed| {
        redundancy::run_single(&base(), SeedSequence::new(seed))
    });
    check_golden_runs("redundancy_start", |seed| {
        let mut cfg = base();
        cfg.cancel = CancelMode::OnStart;
        redundancy::run(&cfg, SeedSequence::new(seed))
    });
    check_golden_runs("redundancy_comp", |seed| {
        redundancy::run(&base(), SeedSequence::new(seed))
    });
    check_golden_runs("redundancy_comp_ident", |seed| {
        let mut cfg = base();
        cfg.copies = CopyModel::Identical;
        redundancy::run(&cfg, SeedSequence::new(seed))
    });
}

/// The observability contract, end-to-end: with the metrics registry
/// enabled AND a trace sink attached, every golden digest for seeds
/// 0–3 must still match byte-for-byte. Tracing and metrics write only
/// to side channels (registry atomics, the trace file) — they never
/// touch the rng, the event order, or the result — so turning them on
/// cannot move a single bit of the locked-down output.
#[test]
fn goldens_hold_with_observability_enabled() {
    let trace_path =
        std::env::temp_dir().join(format!("rbr-golden-obs-trace-{}.jsonl", std::process::id()));
    rbr_obs::metrics::set_enabled(true);
    rbr_obs::trace::start_file(&trace_path).expect("attach trace sink");
    check_golden("all3", all3);
    check_golden("cbf2", cbf2);
    rbr_obs::trace::stop().expect("detach trace sink");
    rbr_obs::metrics::set_enabled(false);
    // The side channels must actually have been exercised.
    let trace = fs::read_to_string(&trace_path).expect("trace file written");
    assert!(
        trace.lines().any(|l| l.contains("\"scope\":\"grid.run\"")),
        "traced runs must emit grid.run phase records"
    );
    let snap = rbr_obs::metrics::snapshot();
    assert!(
        snap.entries
            .iter()
            .any(|(name, _)| name == "sim.queue.pushes"),
        "metered runs must publish sim queue stats"
    );
    let _ = fs::remove_file(&trace_path);
}

/// Same seed twice → identical digest, for every seed in a small sweep.
#[test]
fn multicluster_same_seed_is_bit_identical() {
    for seed in [0u64, 1, 2, 3, 41] {
        let a = GridSim::execute(all3(), SeedSequence::new(seed));
        let b = GridSim::execute(all3(), SeedSequence::new(seed));
        assert_eq!(digest(&a), digest(&b), "seed {seed}");
    }
}

/// The dual-queue protocol runs on the same [`rbr_grid::SimDriver`] core,
/// so it inherits the same determinism contract: same seed → identical
/// digest, including the unified counters.
#[test]
fn dual_queue_same_seed_is_bit_identical() {
    use rbr_grid::dual_queue::{self, DualQueueConfig};
    let mut cfg = DualQueueConfig::new(0.4);
    cfg.window = Duration::from_secs(1_200.0);
    for seed in [0u64, 1, 2, 3] {
        let a = dual_queue::run(&cfg, SeedSequence::new(seed));
        let b = dual_queue::run(&cfg, SeedSequence::new(seed));
        assert_eq!(digest(&a.run), digest(&b.run), "seed {seed}");
    }
}

/// The pending-event set has two implementations (the binary heap the
/// simulator runs on by default, and the calendar queue); a whole grid
/// experiment must produce a byte-identical report on either. This is the
/// end-to-end check that the calendar queue's pop order — including FIFO
/// ties, which the race/cancel/abort protocol is exquisitely sensitive
/// to, and the driver's arrival merge through `pop_before` — matches the
/// heap's exactly.
#[test]
fn both_queue_kinds_produce_identical_reports() {
    use rbr_simcore::{with_queue_kind, QueueKind};
    for (label, make) in [("all3", all3 as fn() -> GridConfig), ("cbf2", cbf2)] {
        for seed in 0u64..4 {
            let cal = with_queue_kind(QueueKind::Calendar, || {
                GridSim::execute(make(), SeedSequence::new(seed))
            });
            let heap = with_queue_kind(QueueKind::Heap, || {
                GridSim::execute(make(), SeedSequence::new(seed))
            });
            assert_eq!(
                digest(&cal),
                digest(&heap),
                "queue implementations diverged ({label}, seed {seed})"
            );
        }
    }
}

/// Moldable shape racing draws shape order from the driver rng; same seed
/// → identical digest for both the fixed-shape and all-shapes policies.
#[test]
fn moldable_same_seed_is_bit_identical() {
    use rbr_grid::moldable::{self, MoldableConfig, ShapePolicy};
    for policy in [ShapePolicy::Fixed(0), ShapePolicy::AllShapes] {
        let mut cfg = MoldableConfig::new(policy);
        cfg.window = Duration::from_secs(1_200.0);
        for seed in [0u64, 1, 2, 3] {
            let a = moldable::run(&cfg, SeedSequence::new(seed));
            let b = moldable::run(&cfg, SeedSequence::new(seed));
            assert_eq!(digest(&a.run), digest(&b.run), "seed {seed} {policy:?}");
        }
    }
}
