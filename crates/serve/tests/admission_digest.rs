//! Pins the admission controller's decisions byte for byte.
//!
//! A socket-free replay: a fixed Lublin–Feitelson stream goes straight
//! through [`AdmissionController::decide`], in arrival order, on the
//! virtual clock `rbr serve` runs on (time is the latest arrival seen).
//! The joined `log_line`s are hashed with FNV-1a, once at the calibrated
//! rate and once at 16×. Twelve thousand submits cover the forecaster's
//! 59-wait warm-up, the window lengths where its bound exists, and many
//! wraps of its 512-wait window, so any change to a verdict, a
//! redundancy, a load, a wait estimate or a bound changes a digest.

use rbr_exec::hash::{fnv1a64, FNV_BASIS};
use rbr_serve::{AdmissionConfig, AdmissionController};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::{EstimateModel, LublinConfig, LublinModel};

const JOBS: usize = 12_000;
const SEED: u64 = 2006;

/// Replays the stream at `rate` times the calibrated arrival rate and
/// returns the digest of the newline-joined admission log and the
/// number of decisions that carried a forecast bound.
fn replay(rate: f64) -> (String, usize) {
    let mut admission = AdmissionController::new(AdmissionConfig {
        batch: 8,
        ..AdmissionConfig::default()
    });
    let model = LublinModel::new(LublinConfig::paper_2006());
    let estimates = EstimateModel::paper_real();
    let mut rng = SeedSequence::new(SEED).rng();
    let mut now = 0.0f64;
    let mut digest = FNV_BASIS;
    let mut bounded = 0;
    for (id, job) in model
        .stream(&mut rng, Duration::MAX, &estimates)
        .take(JOBS)
        .enumerate()
    {
        now = now.max(job.arrival.as_secs() / rate);
        let decision = admission.decide(id as u64, now, job.nodes, job.runtime.as_secs());
        bounded += usize::from(decision.bound_secs.is_some());
        digest = fnv1a64(digest, decision.log_line().as_bytes());
        digest = fnv1a64(digest, b"\n");
    }
    (format!("{digest:016x}"), bounded)
}

#[test]
fn admission_log_is_pinned_at_the_calibrated_rate() {
    let (digest, bounded) = replay(1.0);
    assert!(bounded > 0, "the forecaster never produced a bound");
    assert_eq!(digest, "07e1f526277f12ec");
}

#[test]
fn admission_log_is_pinned_at_sixteen_times_the_rate() {
    let (digest, bounded) = replay(16.0);
    assert!(bounded > 0, "the forecaster never produced a bound");
    assert_eq!(digest, "1e52d91668a89873");
}
