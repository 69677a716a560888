//! The availability profile: free nodes as a piecewise-constant function
//! of future time.
//!
//! Both backfilling algorithms reason about the future: EASY computes the
//! head job's shadow time, CBF assigns every queued request a reservation.
//! The profile is the shared data structure: a sorted step list
//! `(time, free)` where entry `i` holds from `steps[i].0` until
//! `steps[i+1].0`, and the final entry extends to infinity.
//!
//! CBF places a whole queue of reservations on one profile, fit after fit,
//! through [`Profile::reserve_earliest`]. Between rebuilds such a profile
//! only loses capacity: reservations lower levels, and only
//! [`Profile::release_at`] raises one. So a fit that anchors at `a` rules
//! out every instant before `a` for its width and any longer estimate, and
//! the profile keeps those *fit floors* to start later fits of that width
//! past what is already ruled out. The floors are a cache: they change no
//! answer, and equality ignores them.

use rbr_simcore::{Duration, SimTime};

/// Piecewise-constant free-node timeline starting at some instant.
#[derive(Clone, Debug)]
pub struct Profile {
    /// `(start, free)` steps, strictly increasing in time; never empty.
    steps: Vec<(SimTime, u32)>,
    total: u32,
    /// Fit floors by width: `floors[w]` holds `(estimate, anchor)` pairs,
    /// strictly increasing in both, each recording that no instant in
    /// `[floors_from, anchor)` has `w` nodes free for `estimate` or
    /// longer. Empty until the first [`Profile::reserve_earliest`].
    floors: Vec<Vec<(Duration, SimTime)>>,
    /// The latest `not_before` a floor was recorded from.
    floors_from: SimTime,
}

/// Profiles are equal when their step lists are: the fit floors are a
/// cache of what the steps already imply.
impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.steps == other.steps
    }
}

impl Eq for Profile {}

impl Profile {
    /// A profile with `free` nodes available from `now` onwards, on a
    /// machine of `total` nodes.
    ///
    /// # Panics
    /// Panics if `free > total`.
    pub fn new(now: SimTime, total: u32, free: u32) -> Self {
        assert!(free <= total, "free nodes {free} exceed total {total}");
        Profile {
            steps: vec![(now, free)],
            total,
            floors: Vec::new(),
            floors_from: now,
        }
    }

    /// Rebuilds the profile in place from a pre-sorted step list — the
    /// fast path for
    /// [`ClusterCore::rebuild_profile`](crate::core::ClusterCore::rebuild_profile),
    /// which maintains its release times in sorted order and can therefore
    /// produce the whole step list in one pass instead of paying
    /// [`Profile::release_at`]'s insert-and-raise per allocation. `fill`
    /// pushes the steps into the emptied step buffer, whose allocation is
    /// kept; the fit floors are dropped. The result is element-for-element
    /// identical to the incremental build.
    ///
    /// # Panics
    /// Panics if `fill` pushes no step or the final level exceeds `total`
    /// (levels are non-decreasing in a release-only build, so checking
    /// the last suffices); strict time monotonicity is debug-asserted.
    pub(crate) fn rebuild(&mut self, total: u32, fill: impl FnOnce(&mut Vec<(SimTime, u32)>)) {
        self.steps.clear();
        self.clear_floors();
        fill(&mut self.steps);
        let &(_, last) = self
            .steps
            .last()
            .expect("a profile needs at least its origin");
        assert!(
            last <= total,
            "profile overflow: {last} free on a {total}-node machine"
        );
        debug_assert!(
            self.steps
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "release steps must be strictly increasing in time and \
             non-decreasing in level"
        );
        self.total = total;
    }

    /// Machine size.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The step list (for inspection/tests).
    pub fn steps(&self) -> &[(SimTime, u32)] {
        &self.steps
    }

    /// A compact rendering of the profile for panic messages: origin,
    /// machine size, and the step list — enough context to make an audit
    /// report or assertion failure actionable without a debugger.
    fn context(&self) -> String {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|&(t, f)| format!("{t}→{f}"))
            .collect();
        format!(
            "profile[origin {}, total {}, {} steps: {}]",
            self.steps[0].0,
            self.total,
            self.steps.len(),
            steps.join(", ")
        )
    }

    /// Free nodes at instant `t` (must not precede the profile origin).
    pub fn free_at(&self, t: SimTime) -> u32 {
        assert!(
            t >= self.steps[0].0,
            "free_at query at {t} precedes profile origin {}; {}",
            self.steps[0].0,
            self.context()
        );
        let i = self.steps.partition_point(|&(s, _)| s <= t);
        self.steps[i - 1].1
    }

    /// Declares that `nodes` nodes become free again at `release` — i.e. a
    /// running or reserved allocation occupies them from the profile
    /// origin until `release`.
    ///
    /// Used when building a profile from the running set: the origin
    /// profile starts with the machine's currently-free nodes, and each
    /// running job adds its nodes back at its (requested) end time. The
    /// only call that raises a level, so it drops the fit floors.
    pub fn release_at(&mut self, release: SimTime, nodes: u32) {
        if nodes == 0 {
            return;
        }
        self.clear_floors();
        let idx = self.ensure_step(release);
        for step in &mut self.steps[idx..] {
            step.1 += nodes;
            assert!(
                step.1 <= self.total,
                "profile overflow: {} free on a {}-node machine",
                step.1,
                self.total
            );
        }
    }

    /// Reserves `nodes` nodes over `[start, start + dur)`.
    ///
    /// # Panics
    /// Panics if the interval does not have `nodes` free throughout —
    /// callers must find the slot with [`Profile::earliest_fit`] first.
    pub fn reserve(&mut self, start: SimTime, dur: Duration, nodes: u32) {
        if nodes == 0 || dur.is_zero() {
            return;
        }
        let end = start + dur;
        let start = start.max(self.steps[0].0);
        if end <= start {
            return;
        }
        let i = self.steps.partition_point(|&(s, _)| s <= start) - 1;
        let j = i + self.steps[i..].partition_point(|&(s, _)| s < end);
        self.lower(start, i, end, j, nodes);
    }

    /// Earliest instant `t ≥ not_before` such that `nodes` nodes are free
    /// throughout `[t, t + dur)`.
    ///
    /// # Panics
    /// Panics if `nodes` exceeds the machine size (such a request can
    /// never be scheduled) or `not_before` precedes the profile origin.
    pub fn earliest_fit(&self, not_before: SimTime, dur: Duration, nodes: u32) -> SimTime {
        self.check_request(not_before, dur, nodes);
        if nodes == 0 || dur.is_zero() {
            return not_before;
        }
        self.scan(not_before, dur, nodes).0
    }

    /// Reserves `nodes` nodes for `dur` at their earliest fit from
    /// `not_before` and returns that instant: the answer of
    /// [`Profile::earliest_fit`], leaving the step list that
    /// [`Profile::reserve`] leaves there, in one scan.
    ///
    /// The scan starts at the fit floor of the longest recorded estimate
    /// not above `dur` at this width, when that is later than
    /// `not_before`. No instant before the floor fits (capacity has only
    /// fallen since it was recorded, and a longer window needs no less),
    /// and from the floor on the scan meets exactly the candidates a scan
    /// from `not_before` would meet, so it returns the same instant.
    ///
    /// # Panics
    /// As [`Profile::earliest_fit`].
    pub fn reserve_earliest(&mut self, not_before: SimTime, dur: Duration, nodes: u32) -> SimTime {
        self.check_request(not_before, dur, nodes);
        if nodes == 0 || dur.is_zero() {
            return not_before;
        }
        // Each floor holds from the `not_before` it was found from on; a
        // fit asked from earlier cannot use them.
        if not_before < self.floors_from {
            self.clear_floors();
        }
        self.floors_from = not_before;
        let w = nodes as usize;
        if self.floors.len() <= w {
            self.floors.resize_with(w + 1, Vec::new);
        }
        let stair = &self.floors[w];
        let slot = stair.partition_point(|&(d, _)| d <= dur);
        let from = slot
            .checked_sub(1)
            .map_or(not_before, |k| stair[k].1.max(not_before));
        let (anchor, i, j) = self.scan(from, dur, nodes);
        debug_assert_eq!(
            anchor,
            self.earliest_fit(not_before, dur, nodes),
            "fit of {nodes} nodes for {dur} from floor {from} diverged from \
             the scan from {not_before}"
        );
        raise_floor(&mut self.floors[w], slot, dur, anchor);
        self.lower(anchor, i, anchor + dur, j, nodes);
        anchor
    }

    /// The checks every fit makes before scanning.
    fn check_request(&self, not_before: SimTime, dur: Duration, nodes: u32) {
        assert!(
            nodes <= self.total,
            "request for {nodes} nodes on a {}-node machine \
             (fit from {not_before} for {dur}; {})",
            self.total,
            self.context()
        );
        assert!(
            not_before >= self.steps[0].0,
            "fit from {not_before} precedes profile origin {} \
             (request: {nodes} nodes for {dur}; {})",
            self.steps[0].0,
            self.context()
        );
    }

    /// The earliest instant `t ≥ from` with `nodes` nodes free throughout
    /// `[t, t + dur)`, with the index of the step holding `t` and the
    /// index of the first step at or after `t + dur` (`steps.len()` if
    /// none). Candidate anchors are `from` and every later step start.
    fn scan(&self, from: SimTime, dur: Duration, nodes: u32) -> (SimTime, usize, usize) {
        let steps = &self.steps;
        let mut anchor = from;
        let mut i = if from > steps[0].0 {
            steps.partition_point(|&(s, _)| s <= from) - 1
        } else {
            0
        };
        'outer: loop {
            // Check [anchor, anchor + dur) starting from step i.
            let end = anchor.saturating_add(dur);
            let mut j = i;
            while j < steps.len() && steps[j].0 < end {
                if steps[j].1 < nodes {
                    // Conflict: next candidate anchor is the first step
                    // after the conflict with enough free nodes. The
                    // final level has every allocation released, so one
                    // exists unless the caller built a profile that
                    // never frees nodes.
                    let Some(k) = steps[j + 1..].iter().position(|&(_, f)| f >= nodes) else {
                        let &(_, f) = steps.last().expect("profile never empty");
                        panic!(
                            "profile tail has {f} free nodes forever; request for \
                             {nodes} nodes for {dur} from {from} can never fit ({})",
                            self.context()
                        );
                    };
                    i = j + 1 + k;
                    anchor = steps[i].0;
                    continue 'outer;
                }
                j += 1;
            }
            return (anchor, i, j);
        }
    }

    /// Lowers `[start, end)` by `nodes`, where step `i` holds `start` and
    /// step `j` is the first at or after `end` (`steps.len()` if none):
    /// splits the two boundary steps, then lowers the window in place.
    ///
    /// # Panics
    /// Panics if some step in the window has fewer than `nodes` free.
    fn lower(&mut self, start: SimTime, mut i: usize, end: SimTime, mut j: usize, nodes: u32) {
        if self.steps.get(j).is_none_or(|&(s, _)| s > end) {
            self.steps.insert(j, (end, self.steps[j - 1].1));
        }
        if self.steps[i].0 < start {
            self.steps.insert(i + 1, (start, self.steps[i].1));
            i += 1;
            j += 1;
        }
        for k in i..j {
            let (at, free) = self.steps[k];
            assert!(
                free >= nodes,
                "reservation underflow at {at}: {free} free < {nodes} needed \
                 (reserving {nodes} nodes over [{start}, {end}) on {})",
                self.context()
            );
            self.steps[k].1 = free - nodes;
        }
    }

    /// Drops every fit floor, keeping the per-width buffers.
    fn clear_floors(&mut self) {
        self.floors.iter_mut().for_each(Vec::clear);
    }

    /// Ensures a step boundary exists exactly at `t` and returns its
    /// index. If `t` precedes the origin the origin index is returned.
    fn ensure_step(&mut self, t: SimTime) -> usize {
        if t <= self.steps[0].0 {
            return 0;
        }
        let i = self.steps.partition_point(|&(s, _)| s < t);
        if self.steps.get(i).is_some_and(|&(s, _)| s == t) {
            return i;
        }
        let level = self.steps[i - 1].1;
        self.steps.insert(i, (t, level));
        i
    }
}

/// Records in one width's staircase that no instant before `anchor` fits
/// `dur` or longer. `slot` is where `dur` sorts in the staircase; the floor
/// just below it, if any, is the one the fit started from, so its anchor is
/// no later than `anchor`. Longer estimates whose anchors are no later are
/// then dominated and dropped, which keeps anchors strictly increasing.
fn raise_floor(stair: &mut Vec<(Duration, SimTime)>, slot: usize, dur: Duration, anchor: SimTime) {
    let next = match slot.checked_sub(1) {
        Some(k) if stair[k].1 == anchor => return,
        Some(k) if stair[k].0 == dur => {
            stair[k].1 = anchor;
            slot
        }
        _ => {
            stair.insert(slot, (dur, anchor));
            slot + 1
        }
    };
    let stale = stair[next..]
        .iter()
        .take_while(|&&(_, a)| a <= anchor)
        .count();
    stair.drain(next..next + stale);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn empty_machine_fits_immediately() {
        let p = Profile::new(t(0.0), 128, 128);
        assert_eq!(p.earliest_fit(t(0.0), d(3600.0), 128), t(0.0));
    }

    #[test]
    fn release_raises_future_levels() {
        // 64 nodes busy until t=100.
        let mut p = Profile::new(t(0.0), 128, 64);
        p.release_at(t(100.0), 64);
        assert_eq!(p.free_at(t(0.0)), 64);
        assert_eq!(p.free_at(t(99.0)), 64);
        assert_eq!(p.free_at(t(100.0)), 128);
        // A 100-node job must wait for the release.
        assert_eq!(p.earliest_fit(t(0.0), d(50.0), 100), t(100.0));
        // A 64-node job fits now.
        assert_eq!(p.earliest_fit(t(0.0), d(50.0), 64), t(0.0));
    }

    #[test]
    fn reserve_consumes_capacity() {
        let mut p = Profile::new(t(0.0), 10, 10);
        p.reserve(t(0.0), d(100.0), 6);
        assert_eq!(p.free_at(t(0.0)), 4);
        assert_eq!(p.free_at(t(100.0)), 10);
        // 5 nodes cannot fit under the reservation; must wait until 100.
        assert_eq!(p.earliest_fit(t(0.0), d(10.0), 5), t(100.0));
        // 4 nodes fit alongside.
        assert_eq!(p.earliest_fit(t(0.0), d(10.0), 4), t(0.0));
    }

    #[test]
    fn fit_slides_past_busy_windows() {
        let mut p = Profile::new(t(0.0), 8, 8);
        p.reserve(t(10.0), d(20.0), 8); // machine fully busy [10, 30)
                                        // A long job starting now would overlap the busy window.
        assert_eq!(p.earliest_fit(t(0.0), d(15.0), 1), t(30.0));
        // A short job fits in the initial hole.
        assert_eq!(p.earliest_fit(t(0.0), d(10.0), 1), t(0.0));
        // Starting search inside the busy window jumps past it.
        assert_eq!(p.earliest_fit(t(15.0), d(1.0), 1), t(30.0));
    }

    #[test]
    fn fit_between_two_reservations() {
        let mut p = Profile::new(t(0.0), 4, 4);
        p.reserve(t(0.0), d(10.0), 4); // busy [0,10)
        p.reserve(t(20.0), d(10.0), 4); // busy [20,30)
                                        // 10-second hole at [10,20) fits a 10 s job exactly.
        assert_eq!(p.earliest_fit(t(0.0), d(10.0), 4), t(10.0));
        // An 11-second job cannot use the hole.
        assert_eq!(p.earliest_fit(t(0.0), d(11.0), 4), t(30.0));
    }

    #[test]
    fn zero_duration_fits_anywhere() {
        let mut p = Profile::new(t(0.0), 4, 0);
        p.release_at(t(100.0), 4);
        assert_eq!(p.earliest_fit(t(5.0), Duration::ZERO, 4), t(5.0));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn reserve_without_capacity_panics() {
        let mut p = Profile::new(t(0.0), 4, 2);
        p.reserve(t(0.0), d(10.0), 3);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn free_above_total_rejected() {
        let _ = Profile::new(t(0.0), 4, 5);
    }

    #[test]
    #[should_panic(expected = "never fit")]
    fn oversized_forever_request_detected() {
        // A profile whose tail never frees enough nodes: 2 of 4 nodes are
        // busy with no release recorded (a malformed caller profile).
        let p = Profile::new(t(0.0), 4, 2);
        let _ = p.earliest_fit(t(0.0), d(1.0), 3);
    }

    #[test]
    fn long_reservation_tail_recovers() {
        // reserve() records the release, so capacity reappears after even
        // a very long reservation and a wide job fits there.
        let mut p = Profile::new(t(0.0), 4, 4);
        p.reserve(t(0.0), Duration::from_hours(1_000_000), 2);
        let fit = p.earliest_fit(t(0.0), d(1.0), 3);
        assert_eq!(fit, t(0.0) + Duration::from_hours(1_000_000));
    }

    /// Regression: queries exactly at a step boundary must return the
    /// level *starting* at that boundary, not the level before it, for
    /// every query entry point.
    #[test]
    fn queries_exactly_at_step_boundaries() {
        let mut p = Profile::new(t(0.0), 8, 4);
        p.release_at(t(100.0), 4); // boundary at exactly t=100
                                   // free_at at the boundary sees the post-release level.
        assert_eq!(p.free_at(t(100.0)), 8);
        // free_at at the origin boundary sees the origin level.
        assert_eq!(p.free_at(t(0.0)), 4);
        // earliest_fit anchored exactly at the boundary fits immediately.
        assert_eq!(p.earliest_fit(t(100.0), d(10.0), 8), t(100.0));
        // earliest_fit for a job needing the boundary release lands on it.
        assert_eq!(p.earliest_fit(t(0.0), d(10.0), 8), t(100.0));
    }

    #[test]
    fn panic_messages_carry_profile_context() {
        let mut p = Profile::new(t(5.0), 8, 4);
        p.release_at(t(100.0), 4);
        // A query before the origin must name the origin, the query, and
        // the step list — the context an audit report needs.
        let err = std::panic::catch_unwind(|| p.free_at(t(1.0))).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("assert! panics with a String");
        assert!(msg.contains("precedes profile origin"), "{msg}");
        assert!(msg.contains("origin 5.000s"), "{msg}");
        assert!(msg.contains("2 steps"), "{msg}");
    }

    /// A level raise drops the fit floors: once capacity is released
    /// before a floor, a fit of the floored width and estimate finds the
    /// earlier slot.
    #[test]
    fn release_clears_fit_floors() {
        // 4 of 8 nodes come free at 100; the other 4 never do.
        let mut p = Profile::new(t(0.0), 8, 0);
        p.release_at(t(100.0), 4);
        assert_eq!(p.reserve_earliest(t(0.0), d(10.0), 2), t(100.0));
        // Two nodes come free at 20: a fit no longer waits for 100.
        p.release_at(t(20.0), 2);
        assert_eq!(p.reserve_earliest(t(0.0), d(10.0), 2), t(20.0));
        assert_eq!(p.free_at(t(20.0)), 0);
        assert_eq!(p.free_at(t(30.0)), 2);
    }

    /// A fit asked from before the instant earlier floors were found from
    /// cannot use them.
    #[test]
    fn floors_hold_only_from_where_they_were_found() {
        let mut p = Profile::new(t(0.0), 4, 4);
        p.reserve(t(50.0), d(50.0), 4); // busy [50,100)
        assert_eq!(p.reserve_earliest(t(60.0), d(10.0), 1), t(100.0));
        assert_eq!(p.reserve_earliest(t(0.0), d(10.0), 1), t(0.0));
    }

    #[test]
    fn ensure_step_is_idempotent() {
        let mut p = Profile::new(t(0.0), 8, 8);
        p.reserve(t(10.0), d(10.0), 4);
        p.reserve(t(10.0), d(10.0), 4);
        assert_eq!(p.free_at(t(15.0)), 0);
        assert_eq!(p.free_at(t(20.0)), 8);
        // Step list stays strictly increasing.
        for w in p.steps().windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}
