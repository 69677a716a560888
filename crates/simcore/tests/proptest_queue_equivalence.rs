//! Calendar-queue ↔ binary-heap equivalence, and the arrival-lane merge.
//!
//! The calendar queue is only admissible as a pending-event set if it
//! pops the *exact* sequence — timestamps and FIFO tie order — that the
//! reference `BinaryHeap` implementation produces for the same pushes.
//! These properties drive both implementations with identical schedules,
//! including interleaved pops, timestamp ties, past-of-cursor pushes, and
//! populations large enough to cross the calendar's resize thresholds.
//!
//! The last property checks the merge the grid driver relies on: a
//! presorted arrival stream kept outside the engine and merged in through
//! `Engine::pop_before` / `Engine::step_to` delivers what scheduling
//! every arrival before any other event delivers, on either kind.

use proptest::prelude::*;
use rbr_simcore::{with_queue_kind, Engine, EventQueue, QueueKind, SimTime};

/// One step of an interleaved schedule: push at a time offset, or pop.
#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    Pop,
}

fn op_strategy(max_t: u64) -> impl Strategy<Value = Op> {
    (0..max_t, 0u8..5).prop_map(|(t, k)| if k < 3 { Op::Push(t) } else { Op::Pop })
}

/// Runs a schedule against one queue kind, recording every observable:
/// pop results (with payload = push index), peeks, and lengths.
fn run_schedule(kind: QueueKind, ops: &[Op]) -> Vec<String> {
    let mut q = EventQueue::with_kind(kind);
    let mut trace = Vec::new();
    let mut pushed = 0u64;
    for op in ops {
        match op {
            Op::Push(t) => {
                q.push(SimTime::from_micros(*t), pushed);
                pushed += 1;
            }
            Op::Pop => {
                trace.push(format!("pop {:?}", q.pop()));
            }
        }
        trace.push(format!("peek {:?} len {}", q.peek_time(), q.len()));
    }
    while let Some((t, v)) = q.pop() {
        trace.push(format!("drain {} {}", t.as_micros(), v));
    }
    trace
}

/// A small simulation over a presorted arrival stream. `initial` events
/// are scheduled up front; the k-th item delivered schedules `spawn[k]`'s
/// `(count, gap)` follow-ups at `now + gap`. Arrival `i` carries payload
/// `i`; scheduled events carry ids from `arrivals.len()` up, in the order
/// they are scheduled. With `lane` the arrivals stay out of the engine
/// and are merged in; without it they are all scheduled first. Returns
/// every delivered `(time, payload)` and the engine's processed count.
fn run_arrivals(
    arrivals: &[u64],
    initial: &[u64],
    spawn: &[(u8, u64)],
    lane: bool,
) -> (Vec<(u64, u64)>, u64) {
    let mut eng: Engine<u64> = Engine::new();
    if !lane {
        for (i, &t) in arrivals.iter().enumerate() {
            eng.schedule(SimTime::from_micros(t), i as u64);
        }
    }
    let mut next_id = arrivals.len() as u64;
    for &t in initial {
        eng.schedule(SimTime::from_micros(t), next_id);
        next_id += 1;
    }
    let mut next_arrival = 0;
    let mut delivered = Vec::new();
    loop {
        let item = match arrivals.get(next_arrival) {
            Some(&at) if lane => {
                let at = SimTime::from_micros(at);
                eng.pop_before(at).or_else(|| {
                    eng.step_to(at);
                    next_arrival += 1;
                    Some((at, next_arrival as u64 - 1))
                })
            }
            _ => eng.pop(),
        };
        let Some((now, payload)) = item else {
            break;
        };
        if let Some(&(count, gap)) = spawn.get(delivered.len()) {
            for _ in 0..count {
                eng.schedule(SimTime::from_micros(now.as_micros() + gap), next_id);
                next_id += 1;
            }
        }
        delivered.push((now.as_micros(), payload));
    }
    (delivered, eng.processed())
}

proptest! {
    /// Arrivals presorted by `(time, index)` merged through `pop_before`
    /// pop exactly what scheduling them all first pops — arrivals winning
    /// every same-instant tie — on both queue kinds. Times are small
    /// multiples of `scale`, so ties are dense at every width.
    #[test]
    fn arrival_lane_merge_matches_scheduling_arrivals_first(
        arrivals in prop::collection::vec(0u64..60, 0..200),
        initial in prop::collection::vec(0u64..60, 0..40),
        spawn in prop::collection::vec((0u8..3, 0u64..4), 0..300),
        scale in 1u64..5_000,
    ) {
        let mut arrivals: Vec<u64> = arrivals.iter().map(|t| t * scale).collect();
        arrivals.sort_unstable();
        let initial: Vec<u64> = initial.iter().map(|t| t * scale).collect();
        let spawn: Vec<(u8, u64)> = spawn.iter().map(|&(n, g)| (n, g * scale)).collect();
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let merged = with_queue_kind(kind, || run_arrivals(&arrivals, &initial, &spawn, true));
            let first = with_queue_kind(kind, || run_arrivals(&arrivals, &initial, &spawn, false));
            prop_assert_eq!(merged, first, "{:?}", kind);
        }
    }

    /// Arbitrary interleaved push/pop schedules over a narrow time range
    /// (dense ties) observe identically on both implementations.
    #[test]
    fn dense_schedules_match(ops in prop::collection::vec(op_strategy(50), 0..400)) {
        prop_assert_eq!(
            run_schedule(QueueKind::Calendar, &ops),
            run_schedule(QueueKind::Heap, &ops)
        );
    }

    /// Wide time ranges (sparse calendar, far-future jumps, resizes) also
    /// match exactly.
    #[test]
    fn sparse_schedules_match(ops in prop::collection::vec(op_strategy(u64::MAX / 2), 0..400)) {
        prop_assert_eq!(
            run_schedule(QueueKind::Calendar, &ops),
            run_schedule(QueueKind::Heap, &ops)
        );
    }

    /// Engine-disciplined schedules: every push is at or after the last
    /// popped time (the only pattern a simulation can produce). This is
    /// the regime the cursor invariant is designed for, so drive it hard
    /// with steady churn at realistic occupancy.
    #[test]
    fn monotone_churn_matches(
        gaps in prop::collection::vec((0u64..20_000, 0u8..3), 1..500)
    ) {
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut now = 0u64;
        for (id, &(gap, pops)) in gaps.iter().enumerate() {
            let t = SimTime::from_micros(now.saturating_add(gap));
            cal.push(t, id as u64);
            heap.push(t, id as u64);
            for _ in 0..pops {
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_micros();
                }
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Bulk loads with heavy timestamp ties drain in identical order.
    #[test]
    fn tied_bulk_loads_match(times in prop::collection::vec(0u64..8, 0..600)) {
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        for (i, &t) in times.iter().enumerate() {
            cal.push(SimTime::from_micros(t), i);
            heap.push(SimTime::from_micros(t), i);
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
