//! The hot-kernel loops: event-queue churn, fragmented `earliest_fit`
//! probes, and one CBF compression burst. Each input stream is a
//! xorshift sequence from a seed, so a workload seed fixes the inputs.
//! Each loop returns a checksum so the work cannot be optimized away.

use rbr::sched::{CbfScheduler, Profile, Request, RequestId, Scheduler};
use rbr::sim::{Duration, EventQueue, QueueKind, SimTime};

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A non-zero xorshift state from a seed.
fn state(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

/// Steady-state event-queue churn at grid-realistic occupancy: a few
/// hundred pending events, monotone time advance, one push per pop,
/// with one event in eight landing at the current instant (the
/// race/cancel cascades of the grid driver).
pub fn queue_churn(kind: QueueKind, events: u64, seed: u64) -> u64 {
    let mut q = EventQueue::with_kind(kind);
    let mut x = state(seed);
    let mut now = 0u64;
    let mut acc = 0u64;
    for i in 0..512u64 {
        q.push(SimTime::from_micros(xorshift(&mut x) % 3_000_000), i);
    }
    for i in 0..events {
        let r = xorshift(&mut x);
        let gap = if r % 8 == 0 { 0 } else { r % 3_600_000_000 };
        q.push(SimTime::from_micros(now + gap), i);
        if let Some((t, v)) = q.pop() {
            now = t.as_micros();
            acc = acc.wrapping_mul(31).wrapping_add(v);
        }
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_mul(31).wrapping_add(v);
    }
    acc
}

/// A fragmented availability profile (staggered reservations leave
/// holes of varying widths) probed by `earliest_fit` with mixed shapes.
pub fn earliest_fit_fragmented(queries: u64, seed: u64) -> u64 {
    let mut p = Profile::new(SimTime::ZERO, 128, 128);
    let mut x = state(seed);
    for _ in 0..128u64 {
        let r = xorshift(&mut x);
        let start = SimTime::from_secs((r % 1_000) as f64 * 10.0);
        let dur = Duration::from_secs(300.0 + (r >> 16) as f64 % 13.0 * 700.0);
        let nodes = 1 + ((r >> 32) % 48) as u32;
        p.reserve(p.earliest_fit(start, dur, nodes), dur, nodes);
    }
    let mut acc = 0u64;
    for _ in 0..queries {
        let r = xorshift(&mut x);
        let dur = Duration::from_secs(60.0 + (r % 29) as f64 * 240.0);
        let nodes = 1 + ((r >> 32) % 96) as u32;
        acc = acc.wrapping_add(p.earliest_fit(SimTime::ZERO, dur, nodes).as_micros());
    }
    acc
}

/// One CBF compression burst: a full-machine blocker with `depth`
/// reservations queued behind it completes early, so the scheduler
/// rebuilds its profile and re-reserves the whole queue.
pub fn cbf_compression_burst(depth: u64, seed: u64) -> u64 {
    let mut s = CbfScheduler::new(128);
    let mut x = state(seed);
    let mut starts = Vec::new();
    let t0 = SimTime::ZERO;
    s.submit(
        t0,
        Request::new(RequestId(0), 128, Duration::from_secs(100_000.0), t0),
        &mut starts,
    );
    for i in 1..=depth {
        let r = xorshift(&mut x);
        let req = Request::new(
            RequestId(i),
            1 + (r % 64) as u32,
            Duration::from_secs(60.0 + ((r >> 32) % 17) as f64 * 600.0),
            t0,
        );
        s.submit(t0, req, &mut starts);
    }
    starts.clear();
    s.complete(SimTime::from_secs(1.0), RequestId(0), &mut starts);
    (starts.len() + s.queue_len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_pure_functions_of_their_seed() {
        assert_eq!(
            queue_churn(QueueKind::Calendar, 2_000, 3),
            queue_churn(QueueKind::Heap, 2_000, 3),
            "both queue kinds pop the same sequence"
        );
        assert_eq!(
            earliest_fit_fragmented(200, 3),
            earliest_fit_fragmented(200, 3)
        );
        assert_ne!(
            earliest_fit_fragmented(200, 3),
            earliest_fit_fragmented(200, 4)
        );
        // Every queued request either starts or stays queued.
        assert_eq!(cbf_compression_burst(50, 3), 50);
    }
}
