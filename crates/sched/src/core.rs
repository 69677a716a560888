//! Shared machinery: the node pool and the running set.
//!
//! All three scheduling algorithms share the same notion of "what is
//! running": an allocation of `nodes` until a *requested* end time (the
//! scheduler plans with estimates; actual completions arrive as events,
//! at or before the requested end).

use std::collections::HashMap;

use rbr_simcore::SimTime;

use crate::profile::Profile;
use crate::types::{Request, RequestId};

/// One running allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Running {
    /// The request occupying the nodes.
    pub request: Request,
    /// When it started.
    pub start: SimTime,
    /// When its *requested* compute time expires.
    pub requested_end: SimTime,
}

/// Node pool plus running set; the resource-accounting core of a cluster.
#[derive(Clone, Debug)]
pub struct ClusterCore {
    total: u32,
    free: u32,
    running: HashMap<RequestId, Running>,
    /// The running set's `(requested_end, nodes)` pairs, kept sorted —
    /// the incrementally maintained state behind [`ClusterCore::shadow`]
    /// and [`ClusterCore::profile`]. Updated only on [`ClusterCore::start`]
    /// and [`ClusterCore::remove`] (the reserve/release events), so the
    /// backfilling hot paths scan it without collecting or sorting.
    ///
    /// Equal pairs are interchangeable in every consumer (the shadow fold
    /// and the profile build both depend only on the sorted multiset), so
    /// this is behaviourally identical to the sort-per-call it replaces.
    ends: Vec<(SimTime, u32)>,
}

impl ClusterCore {
    /// An idle cluster of `total` nodes.
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "a cluster needs at least one node");
        ClusterCore {
            total,
            free: total,
            running: HashMap::new(),
            ends: Vec::new(),
        }
    }

    /// Machine size.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Currently idle nodes.
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Number of running allocations.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Whether the given request is currently running.
    pub fn is_running(&self, id: RequestId) -> bool {
        self.running.contains_key(&id)
    }

    /// True if `req` fits in the currently free nodes.
    pub fn fits_now(&self, req: &Request) -> bool {
        req.nodes <= self.free
    }

    /// Starts `req` at `now`, consuming nodes.
    ///
    /// # Panics
    /// Panics if the request does not fit, asks for more nodes than the
    /// machine has, or is already running.
    pub fn start(&mut self, now: SimTime, req: Request) {
        assert!(
            req.nodes <= self.total,
            "request {} wants {} nodes on a {}-node machine",
            req.id,
            req.nodes,
            self.total
        );
        assert!(
            req.nodes <= self.free,
            "request {} started without {} free nodes (have {})",
            req.id,
            req.nodes,
            self.free
        );
        self.free -= req.nodes;
        let requested_end = req.end_if_started(now);
        let prev = self.running.insert(
            req.id,
            Running {
                request: req,
                start: now,
                requested_end,
            },
        );
        assert!(prev.is_none(), "request {} started twice", req.id);
        let key = (requested_end, req.nodes);
        let i = self.ends.partition_point(|&e| e <= key);
        self.ends.insert(i, key);
    }

    /// Removes a running allocation (on completion or a revoked start),
    /// returning its record and freeing its nodes.
    ///
    /// # Panics
    /// Panics if the request is not running.
    pub fn remove(&mut self, id: RequestId) -> Running {
        let rec = self
            .running
            .remove(&id)
            .unwrap_or_else(|| panic!("request {id} is not running"));
        self.free += rec.request.nodes;
        debug_assert!(self.free <= self.total);
        let key = (rec.requested_end, rec.request.nodes);
        let i = self.ends.partition_point(|&e| e < key);
        debug_assert!(self.ends.get(i) == Some(&key), "ends out of sync");
        self.ends.remove(i);
        rec
    }

    /// Builds the availability profile implied by the running set: the
    /// currently free nodes now, plus each allocation's nodes released at
    /// its requested end.
    pub fn profile(&self, now: SimTime) -> Profile {
        let mut profile = Profile::new(now, self.total, self.free);
        self.rebuild_profile(now, &mut profile);
        profile
    }

    /// [`ClusterCore::profile`] in place: rebuilds `profile` into its
    /// existing step buffer and drops its fit floors.
    ///
    /// Because the release times are already kept sorted, the whole step
    /// list is produced in one pass — no per-allocation insertion into the
    /// profile. Releases are commutative additions, so the result equals
    /// the old build that replayed the running set in hash order.
    pub fn rebuild_profile(&self, now: SimTime, profile: &mut Profile) {
        profile.rebuild(self.total, |steps| {
            steps.reserve(self.ends.len() + 1);
            let mut level = self.free;
            steps.push((now, level));
            for &(end, nodes) in &self.ends {
                // Allocations whose requested end has passed (jobs running
                // into their last instants at exactly `now`) release "now".
                let release = end.max(now);
                level += nodes;
                let last = steps.last_mut().expect("steps never empty");
                if last.0 == release {
                    last.1 = level;
                } else {
                    steps.push((release, level));
                }
            }
        });
    }

    /// The EASY shadow computation: given the head request that cannot
    /// start now, returns `(shadow, extra)` where `shadow` is the earliest
    /// instant the head can start according to requested ends.
    ///
    /// `extra` is counted at the first release that covers the head: the
    /// free nodes plus the releases up to and including that one, in
    /// `(requested_end, nodes)` order, less the head's width. Later
    /// releases at the same instant are not counted, so `extra` can fall
    /// short of the nodes spare at `shadow` once the head starts. With 5
    /// nodes free, releases of 1, 1 and 4 nodes at `shadow` and a 6-node
    /// head, 5 nodes are spare but `extra` is 0.
    ///
    /// # Panics
    /// Panics if the head actually fits now (callers must start it
    /// instead) — except for the degenerate case of an unrunnable
    /// request, which is rejected by `start` anyway.
    pub fn shadow(&self, head: &Request) -> (SimTime, u32) {
        assert!(
            head.nodes > self.free,
            "shadow computed for a head request that fits now"
        );
        // Accumulate releases in end order until the head fits; the
        // sorted list is maintained incrementally, so this is a plain
        // prefix scan with no allocation.
        let mut avail = self.free;
        for &(end, nodes) in &self.ends {
            avail += nodes;
            if avail >= head.nodes {
                return (end, avail - head.nodes);
            }
        }
        unreachable!(
            "all allocations released but head ({} nodes) still does not fit on {} total",
            head.nodes, self.total
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbr_simcore::Duration;

    fn req(id: u64, nodes: u32, est: f64, submit: f64) -> Request {
        Request::new(
            RequestId(id),
            nodes,
            Duration::from_secs(est),
            SimTime::from_secs(submit),
        )
    }

    #[test]
    fn start_and_remove_account_nodes() {
        let mut c = ClusterCore::new(16);
        c.start(SimTime::ZERO, req(1, 10, 100.0, 0.0));
        assert_eq!(c.free(), 6);
        assert!(c.is_running(RequestId(1)));
        let rec = c.remove(RequestId(1));
        assert_eq!(rec.requested_end, SimTime::from_secs(100.0));
        assert_eq!(c.free(), 16);
    }

    #[test]
    #[should_panic(expected = "without")]
    fn overcommit_panics() {
        let mut c = ClusterCore::new(8);
        c.start(SimTime::ZERO, req(1, 6, 10.0, 0.0));
        c.start(SimTime::ZERO, req(2, 6, 10.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn remove_unknown_panics() {
        let mut c = ClusterCore::new(8);
        c.remove(RequestId(9));
    }

    #[test]
    fn profile_reflects_running_set() {
        let mut c = ClusterCore::new(10);
        c.start(SimTime::ZERO, req(1, 4, 100.0, 0.0));
        c.start(SimTime::ZERO, req(2, 3, 50.0, 0.0));
        let p = c.profile(SimTime::from_secs(10.0));
        assert_eq!(p.free_at(SimTime::from_secs(10.0)), 3);
        assert_eq!(p.free_at(SimTime::from_secs(50.0)), 6);
        assert_eq!(p.free_at(SimTime::from_secs(100.0)), 10);
    }

    #[test]
    fn profile_clamps_overdue_ends_to_now() {
        let mut c = ClusterCore::new(4);
        c.start(SimTime::ZERO, req(1, 2, 10.0, 0.0));
        // Query the profile after the requested end (the completion event
        // is processed at exactly the requested end in the worst case, but
        // a same-instant query must not underflow).
        let p = c.profile(SimTime::from_secs(10.0));
        assert_eq!(p.free_at(SimTime::from_secs(10.0)), 4);
    }

    #[test]
    fn shadow_accumulates_until_head_fits() {
        let mut c = ClusterCore::new(10);
        c.start(SimTime::ZERO, req(1, 4, 100.0, 0.0)); // ends 100
        c.start(SimTime::ZERO, req(2, 4, 50.0, 0.0)); // ends 50
                                                      // free = 2; head wants 8: needs release at 50 (free 6) then 100
                                                      // (free 10).
        let head = req(3, 8, 10.0, 0.0);
        let (shadow, extra) = c.shadow(&head);
        assert_eq!(shadow, SimTime::from_secs(100.0));
        assert_eq!(extra, 2);
    }

    /// The incrementally maintained end list must stay the sorted
    /// multiset of the running set's `(requested_end, nodes)` pairs
    /// through arbitrary start/remove churn, and the one-pass profile
    /// build must equal the replay-every-release build it replaced.
    #[test]
    fn ends_stay_in_sync_through_churn() {
        let mut c = ClusterCore::new(64);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut live: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let now = SimTime::from_micros(i * 7);
            if live.len() > 3 && x.is_multiple_of(3) {
                let id = live.remove((x as usize / 3) % live.len());
                c.remove(RequestId(id));
            } else {
                let nodes = 1 + (x % 4) as u32;
                // Duplicate (end, nodes) pairs on purpose: estimates from
                // a small set collide constantly.
                let est = [10.0, 10.0, 50.0][(x as usize >> 8) % 3];
                if nodes <= c.free() {
                    c.start(now, req(i, nodes, est, 0.0));
                    live.push(i);
                }
            }
            // The list is the sorted multiset of the running set.
            let mut expect: Vec<(SimTime, u32)> = live
                .iter()
                .map(|&id| {
                    let r = &c.running[&RequestId(id)];
                    (r.requested_end, r.request.nodes)
                })
                .collect();
            expect.sort_unstable();
            assert_eq!(c.ends, expect, "step {i}");
            // The fast profile build equals the incremental one.
            let now = SimTime::from_micros(i * 7);
            let mut slow = Profile::new(now, c.total(), c.free());
            for r in c.running.values() {
                slow.release_at(r.requested_end.max(now), r.request.nodes);
            }
            assert_eq!(c.profile(now), slow, "step {i}");
        }
    }

    #[test]
    fn shadow_extra_counts_leftover_nodes() {
        let mut c = ClusterCore::new(10);
        c.start(SimTime::ZERO, req(1, 9, 30.0, 0.0));
        let head = req(2, 5, 10.0, 0.0);
        let (shadow, extra) = c.shadow(&head);
        assert_eq!(shadow, SimTime::from_secs(30.0));
        assert_eq!(extra, 5); // 10 free at 30, head takes 5
    }
}
