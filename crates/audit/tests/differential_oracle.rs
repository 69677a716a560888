//! Differential property tests: random workloads through the production
//! FCFS/EASY schedulers and the brute-force reference oracle must yield
//! identical start times, with about one job in five cancelled at a drawn
//! instant. On disagreement the workload is greedily shrunk to a minimal
//! counterexample schedule before failing.

use proptest::prelude::*;
use rbr_audit::oracle::{differential, shrink, OracleJob};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SimTime};

/// Machine size under test: small enough that queues form, big enough
/// for multi-job backfill interplay.
const NODES: u32 = 16;

/// One raw generated job: `(arrival_us, nodes, a_us, b_us, cancel_us)`; estimate is
/// the larger of the two duration draws and runtime the smaller, so
/// `runtime <= estimate` holds by construction (as in the production
/// driver, where jobs never outlive their request).
/// A drawn `cancel_us` cancels the job that long after its arrival.
type RawJob = (u64, u32, u64, u64, Option<u64>);

fn to_jobs(raw: &[RawJob]) -> Vec<OracleJob> {
    raw.iter()
        .map(|&(arrival, nodes, a, b, cancel)| OracleJob {
            arrival: SimTime::from_micros(arrival),
            nodes,
            estimate: Duration::from_micros(a.max(b)),
            runtime: Duration::from_micros(a.min(b)),
            cancel: cancel.map(|d| SimTime::from_micros(arrival + d)),
        })
        .collect()
}

/// A cancel instant for about one job in five, within ten simulated
/// minutes of its arrival.
fn cancel_strategy() -> impl Strategy<Value = Option<u64>> {
    prop::option::weighted(0.2, 0u64..=600_000_000)
}

fn check(alg: Algorithm, raw: &[RawJob]) -> Result<(), TestCaseError> {
    let jobs = to_jobs(raw);
    if differential(alg, NODES, &jobs).is_err() {
        let (minimal, mismatch) = shrink(alg, NODES, &jobs);
        return Err(TestCaseError::new(format!(
            "production {alg} disagrees with the brute-force oracle: \
             {mismatch}\nminimal counterexample schedule ({} of {} jobs):\n{:#?}",
            minimal.len(),
            jobs.len(),
            minimal
        )));
    }
    Ok(())
}

/// Arrivals within a 2-hour window, 1–16 nodes, durations up to ~10
/// simulated minutes — enough contention that FIFO blocking, backfill
/// holes, early completions and cancels of queued jobs all occur.
fn raw_job_strategy() -> impl Strategy<Value = Vec<RawJob>> {
    prop::collection::vec(
        (
            0u64..7_200_000_000,
            1u32..=NODES,
            1u64..=600_000_000,
            1u64..=600_000_000,
            cancel_strategy(),
        ),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn production_fcfs_matches_the_oracle(raw in raw_job_strategy()) {
        check(Algorithm::Fcfs, &raw)?;
    }

    #[test]
    fn production_easy_matches_the_oracle(raw in raw_job_strategy()) {
        check(Algorithm::Easy, &raw)?;
    }

    /// Heavy contention: mostly-wide jobs arriving in a burst, where a
    /// single misplaced backfill decision would reorder everything.
    #[test]
    fn easy_matches_the_oracle_under_burst_arrivals(raw in prop::collection::vec(
        (
            0u64..60_000_000,
            8u32..=NODES,
            1u64..=600_000_000,
            1u64..=600_000_000,
            cancel_strategy(),
        ),
        1..25,
    )) {
        check(Algorithm::Easy, &raw)?;
    }
}
