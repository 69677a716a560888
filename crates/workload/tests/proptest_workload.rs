//! Property tests for the workload substrate: the SWF parser never
//! panics, generated jobs always satisfy their invariants, and estimate
//! models never under-estimate.

use proptest::prelude::*;
use rand::SeedableRng;
use rbr_simcore::Duration;
use rbr_workload::{EstimateModel, LublinConfig, LublinModel, SwfTrace};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The text of an SWF line's field `i` (0-based) from a draw of `kind`
/// and `x`. Integer fields (job number, processor counts, status) hold
/// an integer, now and then one no `u32` counts or one with a fraction;
/// time fields (submit, wait, runtime, requested time) hold now and
/// then a value no simulated time holds or one under a microsecond;
/// the rest, and the other draws, hold `x` to two places.
fn soup_field((i, &(kind, x)): (usize, &(u8, f64))) -> String {
    let hostile_time = ["inf", "-inf", "NaN", "1e300", "-1e300", "1e-7"];
    match (i + 1, kind) {
        (1 | 5 | 8 | 11, 0) => "4294967297".to_string(),
        (1 | 5 | 8 | 11, 1) => "9223372036854775807".to_string(),
        (1 | 5 | 8 | 11, 2) => format!("{x:.2}"),
        (1, _) => format!("{:.0}", x.abs()),
        (5 | 8 | 11, _) => format!("{x:.0}"),
        (2..=4 | 9, k) if usize::from(k) < hostile_time.len() => {
            hostile_time[usize::from(k)].to_string()
        }
        _ => format!("{x:.2}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SWF parser returns Ok or Err but never panics, on arbitrary
    /// text including control characters and huge numbers.
    #[test]
    fn swf_parser_never_panics(text in ".{0,400}") {
        let _ = SwfTrace::parse(&text);
    }

    /// Structured-but-corrupt SWF lines (numeric soup) also never panic
    /// and any accepted job converts to a valid JobSpec stream.
    #[test]
    fn swf_numeric_soup_is_handled(
        fields in prop::collection::vec(prop::collection::vec((0u8..64, -1e9f64..1e9), 18), 0..8),
    ) {
        let text: String = fields
            .iter()
            .map(|f| {
                f.iter().enumerate().map(soup_field).collect::<Vec<_>>().join(" ") + "\n"
            })
            .collect();
        if let Ok(trace) = SwfTrace::parse(&text) {
            // Conversion must uphold JobSpec invariants (panics otherwise).
            let jobs = trace.to_jobs(128);
            for j in jobs {
                prop_assert!(j.nodes >= 1 && j.nodes <= 128);
                prop_assert!(j.estimate >= j.runtime);
            }
        }
    }

    /// Generated jobs always satisfy the scheduler-facing invariants for
    /// any cluster size and arrival rate.
    #[test]
    fn generated_jobs_are_always_valid(
        max_nodes in 1u32..512,
        mean_iat in 0.5f64..60.0,
        seed in 0u64..500,
    ) {
        let cfg = LublinConfig::paper_2006()
            .with_max_nodes(max_nodes)
            .with_mean_interarrival(mean_iat);
        let model = LublinModel::new(cfg);
        let jobs = model.generate(
            &mut rng(seed),
            Duration::from_secs(600.0),
            &EstimateModel::paper_real(),
        );
        let mut last = None;
        for j in &jobs {
            prop_assert!(j.nodes >= 1 && j.nodes <= max_nodes);
            prop_assert!(!j.runtime.is_zero());
            prop_assert!(j.estimate >= j.runtime);
            if let Some(prev) = last {
                prop_assert!(j.arrival >= prev, "arrivals sorted");
            }
            last = Some(j.arrival);
        }
    }

    /// Every estimate model produces factors ≥ 1 for arbitrary runtimes.
    #[test]
    fn estimates_never_undershoot(runtime_s in 0.001f64..100_000.0, phi in 0.01f64..1.0, seed in 0u64..500) {
        let rt = Duration::from_secs(runtime_s).max(Duration::from_micros(1));
        let mut r = rng(seed);
        for model in [
            EstimateModel::Exact,
            EstimateModel::paper_real(),
            EstimateModel::Phi { phi },
        ] {
            prop_assert!(model.estimate(rt, &mut r) >= rt);
        }
    }
}
