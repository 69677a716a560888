//! Property tests for the availability profile: `earliest_fit` always
//! returns a feasible slot, reservations never drive capacity negative or
//! above the machine size, and the fused `reserve_earliest` is exactly
//! `earliest_fit` followed by `reserve`.

use proptest::prelude::*;
use rbr_sched::Profile;
use rbr_simcore::{Duration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reserving at `earliest_fit` never panics and keeps every level in
    /// `[0, total]`, for arbitrary mixes of widths and durations.
    #[test]
    fn reserve_at_fit_is_always_feasible(
        total in 1u32..256,
        jobs in prop::collection::vec((1u32..256, 1u64..100_000), 1..80),
    ) {
        let mut p = Profile::new(SimTime::ZERO, total, total);
        for (nodes, dur_us) in jobs {
            let nodes = nodes.min(total).max(1);
            let dur = Duration::from_micros(dur_us);
            let start = p.earliest_fit(SimTime::ZERO, dur, nodes);
            // Feasibility: the returned window really has the capacity
            // (reserve panics otherwise, which would fail the test).
            p.reserve(start, dur, nodes);
        }
        for &(_, level) in p.steps() {
            prop_assert!(level <= total);
        }
    }

    /// earliest_fit is monotone in `not_before`: asking later never
    /// returns an earlier slot.
    #[test]
    fn fit_is_monotone_in_not_before(
        total in 2u32..128,
        occupied in prop::collection::vec((1u32..128, 1u64..50_000, 0u64..200_000), 0..30),
        nodes in 1u32..128,
        dur_us in 1u64..50_000,
        t1 in 0u64..100_000,
        dt in 0u64..100_000,
    ) {
        let mut p = Profile::new(SimTime::ZERO, total, total);
        for (w, d, s) in occupied {
            let w = w.min(total);
            let d = Duration::from_micros(d);
            // Place occupations at their earliest fit from `s` so the
            // profile stays feasible by construction.
            let anchor = p.earliest_fit(SimTime::from_micros(s), d, w);
            p.reserve(anchor, d, w);
        }
        let nodes = nodes.min(total);
        let dur = Duration::from_micros(dur_us);
        let early = p.earliest_fit(SimTime::from_micros(t1), dur, nodes);
        let late = p.earliest_fit(SimTime::from_micros(t1 + dt), dur, nodes);
        prop_assert!(late >= early);
        // And both results are at or after their respective lower bounds.
        prop_assert!(early >= SimTime::from_micros(t1));
        prop_assert!(late >= SimTime::from_micros(t1 + dt));
    }

    /// A wider or longer request never fits earlier than a smaller one.
    #[test]
    fn fit_is_monotone_in_demand(
        total in 2u32..128,
        occupied in prop::collection::vec((1u32..128, 1u64..50_000, 0u64..100_000), 0..30),
        nodes in 1u32..64,
        dur_us in 1u64..50_000,
    ) {
        let mut p = Profile::new(SimTime::ZERO, total, total);
        for (w, d, s) in occupied {
            let w = w.min(total);
            let d = Duration::from_micros(d);
            let anchor = p.earliest_fit(SimTime::from_micros(s), d, w);
            p.reserve(anchor, d, w);
        }
        let nodes = nodes.min(total - 1);
        let dur = Duration::from_micros(dur_us);
        let small = p.earliest_fit(SimTime::ZERO, dur, nodes);
        let wider = p.earliest_fit(SimTime::ZERO, dur, nodes + 1);
        let longer = p.earliest_fit(SimTime::ZERO, dur + Duration::from_micros(1), nodes);
        prop_assert!(wider >= small);
        prop_assert!(longer >= small);
    }

    /// Over a random sequence of fits on one profile, so that the fit
    /// floors earlier fits recorded are in place, `reserve_earliest`
    /// returns `earliest_fit`'s instant and leaves the step list that
    /// `reserve` leaves there. Narrow widths and a few estimates make
    /// floors hit often; `not_before` mostly advances like a clock but
    /// sometimes steps back, and releases now and then raise a level.
    #[test]
    fn reserve_earliest_is_fit_then_reserve(
        total in 1u32..64,
        running in prop::collection::vec((1u32..16, 1u64..200_000), 0..20),
        fits in prop::collection::vec((1u32..9, 1u64..12, 0u64..20_000, 0u32..16), 1..120),
    ) {
        let mut busy = 0;
        let mut releases = Vec::new();
        for (nodes, at) in running {
            let nodes = nodes.min(total - busy);
            busy += nodes;
            releases.push((SimTime::from_micros(at), nodes));
        }
        let mut fused = Profile::new(SimTime::ZERO, total, total - busy);
        for (at, nodes) in releases {
            fused.release_at(at, nodes);
        }
        let mut plain = fused.clone();
        let mut not_before = SimTime::ZERO;
        for (nodes, units, dt, roll) in fits {
            let nodes = nodes.min(total);
            let dur = Duration::from_micros(units * 10_000);
            not_before = match roll {
                0 => SimTime::from_micros(dt),
                _ => not_before + Duration::from_micros(dt),
            };
            if roll == 1 {
                // Release up to the headroom left above the later steps.
                let headroom = fused
                    .steps()
                    .iter()
                    .filter(|&&(at, _)| at >= not_before)
                    .map(|&(_, free)| total - free)
                    .chain([total - fused.free_at(not_before)])
                    .min()
                    .unwrap_or(0);
                fused.release_at(not_before, headroom.min(nodes));
                plain.release_at(not_before, headroom.min(nodes));
            }
            let want = plain.earliest_fit(not_before, dur, nodes);
            plain.reserve(want, dur, nodes);
            prop_assert_eq!(fused.reserve_earliest(not_before, dur, nodes), want);
            prop_assert_eq!(fused.steps(), plain.steps());
        }
    }
}
