//! The pending-event set.
//!
//! Events are totally ordered by `(time, sequence)`: the sequence number
//! breaks timestamp ties in insertion order, which makes event processing
//! a total order — the property that turns a simulation run into a pure
//! function of its inputs.
//!
//! Two implementations share that contract:
//!
//! * [`QueueKind::Heap`] (the default) — a `BinaryHeap` keyed on
//!   `(Reverse(time), Reverse(seq))`; O(log n) push and pop. It is also
//!   the reference implementation: the seeds 0–3 goldens were first cut
//!   on it, and the equivalence suite drives both kinds with identical
//!   schedules and demands identical pop sequences.
//! * [`QueueKind::Calendar`] — a calendar queue (Brown, CACM 1988): a
//!   circular array of day-buckets over a fixed time `width`, resized as
//!   the population grows and shrinks so the average bucket holds O(1)
//!   events. Push appends into a bucket; pop scans the current day's
//!   bucket for the `(time, seq)` minimum and only walks forward on
//!   empty days. It pays off on a large, evenly spread population. The
//!   grid driver keeps job arrivals out of the pending set, so what
//!   remains is small and bimodal (completions hours out, deliveries
//!   seconds out), its width heuristic goes stale, and the heap wins.
//!
//! Both deliver the exact same sequence for the same pushes — the
//! calendar queue selects the in-window minimum by `(time, seq)`, so
//! bucket-internal order (scrambled by `swap_remove`) never leaks into
//! pop order. [`with_queue_kind`] scopes a non-default choice to a
//! closure, which is how the determinism tests run one simulation on
//! each implementation and byte-compare the results.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Which pending-event-set implementation an [`EventQueue`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// Bucketed calendar queue; O(1) amortized push/pop while its width
    /// fits the population.
    Calendar,
    /// Binary heap — the default and the reference implementation;
    /// O(log n) push/pop.
    Heap,
}

thread_local! {
    static DEFAULT_KIND: Cell<QueueKind> = const { Cell::new(QueueKind::Heap) };
}

/// Runs `f` with every [`EventQueue::new`] on this thread defaulting to
/// `kind`, restoring the previous default afterwards (also on panic).
///
/// This is the hook the queue-equivalence tests use to run a whole
/// simulation — engine and all — on the calendar queue without threading
/// a type parameter through every layer.
pub fn with_queue_kind<R>(kind: QueueKind, f: impl FnOnce() -> R) -> R {
    struct Restore(QueueKind);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEFAULT_KIND.with(|k| k.set(self.0));
        }
    }
    let _restore = DEFAULT_KIND.with(|k| {
        let prev = k.get();
        k.set(kind);
        Restore(prev)
    });
    f()
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

// ---------------------------------------------------------------------
// Calendar queue.
// ---------------------------------------------------------------------

/// Smallest bucket count; always a power of two so the bucket index is a
/// mask, not a modulo.
const MIN_BUCKETS: usize = 4;

struct Calendar<E> {
    /// Day buckets; entries unordered within a bucket (pops select the
    /// `(time, seq)` minimum, so internal order is irrelevant).
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width in microseconds (≥ 1).
    width: u64,
    /// Live entries across all buckets.
    len: usize,
    /// Bucket the next pop examines first.
    cursor: usize,
    /// Exclusive upper time bound of the cursor bucket's current day.
    /// Invariant between pops: every live entry's time is at or after
    /// this day's start (`cursor_end - width`), or a push has reset the
    /// cursor to cover it.
    cursor_end: u64,
    /// Lifetime count of [`Calendar::resize`] calls (growth, shrink,
    /// and lap rebuilds).
    resizes: u64,
    /// Lifetime count of full-empty-lap rebuilds in
    /// [`Calendar::locate_min`] (each also counts as a resize).
    lap_rebuilds: u64,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1,
            len: 0,
            cursor: 0,
            cursor_end: 1,
            resizes: 0,
            lap_rebuilds: 0,
        }
    }

    fn bucket_of(&self, t: u64) -> usize {
        ((t / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// The exclusive end of the day containing `t`.
    fn day_end(&self, t: u64) -> u64 {
        (t / self.width)
            .saturating_add(1)
            .saturating_mul(self.width)
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: E) {
        if self.len + 1 > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        let t = time.as_micros();
        // A push before the cursor's day rewinds the cursor so the pop
        // scan still starts at or before the earliest event. A standalone
        // queue may push into the past; in a simulation this happens when
        // a declined `pop_before` left the cursor on a later day than the
        // clock's.
        if t < self.cursor_end.saturating_sub(self.width) {
            self.cursor = self.bucket_of(t);
            self.cursor_end = self.day_end(t);
        }
        let b = self.bucket_of(t);
        self.buckets[b].push(Entry { time, seq, payload });
        self.len += 1;
    }

    /// Index of the `(time, seq)`-minimum entry of `bucket` among entries
    /// strictly before `end`, if any.
    fn min_in_window(&self, bucket: usize, end: u64) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, e) in self.buckets[bucket].iter().enumerate() {
            if e.time.as_micros() < end {
                let key = (e.time, e.seq);
                if best.is_none_or(|(t, s, _)| key < (t, s)) {
                    best = Some((e.time, e.seq, i));
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Bucket and index of the global `(time, seq)` minimum.
    ///
    /// # Panics
    /// Panics if the queue is empty.
    fn global_min(&self) -> (usize, usize) {
        let mut best: Option<(SimTime, u64, usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                let key = (e.time, e.seq);
                if best.is_none_or(|(t, s, _, _)| key < (t, s)) {
                    best = Some((e.time, e.seq, b, i));
                }
            }
        }
        let (_, _, b, i) = best.expect("global_min on an empty calendar");
        (b, i)
    }

    fn take(&mut self, bucket: usize, idx: usize) -> (SimTime, E) {
        let e = self.buckets[bucket].swap_remove(idx);
        self.len -= 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        (e.time, e.payload)
    }

    /// Removes and returns the earliest entry if `ok` accepts its time.
    /// A refusal still leaves the cursor on the earliest entry's day,
    /// which keeps the cursor invariant.
    fn pop_if(&mut self, ok: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let (bucket, idx) = self.locate_min()?;
        ok(self.buckets[bucket][idx].time).then(|| self.take(bucket, idx))
    }

    /// Bucket and index of the `(time, seq)` minimum, with the cursor
    /// moved to its day; `None` when the calendar is empty.
    fn locate_min(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let mut bucket = self.cursor;
        let mut end = self.cursor_end;
        for _ in 0..self.buckets.len() {
            if let Some(idx) = self.min_in_window(bucket, end) {
                self.cursor = bucket;
                self.cursor_end = end;
                return Some((bucket, idx));
            }
            bucket = (bucket + 1) & (self.buckets.len() - 1);
            end = end.saturating_add(self.width);
        }
        // A full lap of empty days: the width (derived at the last
        // resize) has gone stale — the live population's span outgrew
        // one calendar lap. Re-derive the width from the live entries
        // and re-anchor the cursor at the earliest event; the scan of
        // its day is then a guaranteed hit, and subsequent pops are
        // local again until the span drifts another lap. The rebuild is
        // O(len), amortized over the pops that emptied the lap.
        self.lap_rebuilds += 1;
        self.resize(self.buckets.len());
        let bucket = self.cursor;
        let idx = self
            .min_in_window(bucket, self.cursor_end)
            .expect("resize anchors the cursor at the earliest event's day");
        Some((bucket, idx))
    }

    fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let mut bucket = self.cursor;
        let mut end = self.cursor_end;
        for _ in 0..self.buckets.len() {
            if let Some(idx) = self.min_in_window(bucket, end) {
                return Some(self.buckets[bucket][idx].time);
            }
            bucket = (bucket + 1) & (self.buckets.len() - 1);
            end = end.saturating_add(self.width);
        }
        let (b, i) = self.global_min();
        Some(self.buckets[b][i].time)
    }

    /// Rebuilds the calendar with `nbuckets` buckets and a width derived
    /// from the current population's time span (mean separation, doubled
    /// so a day comfortably holds a couple of events), then re-anchors
    /// the cursor at the earliest live event.
    fn resize(&mut self, nbuckets: usize) {
        self.resizes += 1;
        let entries: Vec<Entry<E>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        if entries.is_empty() {
            self.buckets = (0..MIN_BUCKETS).map(|_| Vec::new()).collect();
            self.width = 1;
            self.cursor = 0;
            self.cursor_end = 1;
            return;
        }
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in &entries {
            lo = lo.min(e.time.as_micros());
            hi = hi.max(e.time.as_micros());
        }
        let span = hi - lo;
        self.width = (span / entries.len() as u64).saturating_mul(2).max(1);
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        for e in entries {
            let b = self.bucket_of(e.time.as_micros());
            self.buckets[b].push(e);
        }
        self.cursor = self.bucket_of(lo);
        self.cursor_end = self.day_end(lo);
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
    }
}

// ---------------------------------------------------------------------
// The public queue.
// ---------------------------------------------------------------------

enum Pending<E> {
    Calendar(Calendar<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// Lifetime statistics of an [`EventQueue`] — always maintained (plain
/// integer bumps on fields the hot path already touches; no atomics, no
/// allocation) and read out once per run by the observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub pushes: u64,
    /// Events ever delivered.
    pub pops: u64,
    /// High-water mark of pending events.
    pub depth_hwm: u64,
    /// Calendar rebuilds (growth, shrink, and lap rebuilds); 0 for the
    /// heap implementation.
    pub resizes: u64,
    /// Calendar full-empty-lap rebuilds (stale-width recovery, a subset
    /// of `resizes`); 0 for the heap implementation.
    pub lap_rebuilds: u64,
}

/// A time-ordered queue of events of type `E`.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO within a timestamp), whichever [`QueueKind`]
/// backs the queue.
pub struct EventQueue<E> {
    pending: Pending<E>,
    next_seq: u64,
    pops: u64,
    depth_hwm: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue of the thread's default kind (the heap,
    /// unless overridden by [`with_queue_kind`]).
    pub fn new() -> Self {
        Self::with_kind(DEFAULT_KIND.with(|k| k.get()))
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        if let Pending::Heap(heap) = &mut q.pending {
            heap.reserve(cap);
        }
        q
    }

    /// Creates an empty queue backed by the given implementation.
    pub fn with_kind(kind: QueueKind) -> Self {
        let pending = match kind {
            QueueKind::Calendar => Pending::Calendar(Calendar::new()),
            QueueKind::Heap => Pending::Heap(BinaryHeap::new()),
        };
        EventQueue {
            pending,
            next_seq: 0,
            pops: 0,
            depth_hwm: 0,
        }
    }

    /// The implementation backing this queue.
    pub fn kind(&self) -> QueueKind {
        match &self.pending {
            Pending::Calendar(_) => QueueKind::Calendar,
            Pending::Heap(_) => QueueKind::Heap,
        }
    }

    /// Schedules `payload` at instant `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.pending {
            Pending::Calendar(c) => c.push(time, seq, payload),
            Pending::Heap(h) => h.push(Entry { time, seq, payload }),
        }
        let depth = self.len() as u64;
        if depth > self.depth_hwm {
            self.depth_hwm = depth;
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the earliest event if it is strictly before
    /// `limit`; `None` if the queue is empty or its earliest event is at
    /// or after `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_if(|t| t < limit)
    }

    fn pop_if(&mut self, ok: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let popped = match &mut self.pending {
            Pending::Calendar(c) => c.pop_if(ok),
            Pending::Heap(h) => match h.peek_mut() {
                Some(top) if ok(top.time) => {
                    let e = PeekMut::pop(top);
                    Some((e.time, e.payload))
                }
                _ => None,
            },
        };
        if popped.is_some() {
            self.pops += 1;
        }
        popped
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.pending {
            Pending::Calendar(c) => c.peek_time(),
            Pending::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.pending {
            Pending::Calendar(c) => c.len,
            Pending::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime statistics: pushes, pops, depth high-water mark, and
    /// (for the calendar) rebuild counts.
    pub fn stats(&self) -> QueueStats {
        let (resizes, lap_rebuilds) = match &self.pending {
            Pending::Calendar(c) => (c.resizes, c.lap_rebuilds),
            Pending::Heap(_) => (0, 0),
        };
        QueueStats {
            pushes: self.next_seq,
            pops: self.pops,
            depth_hwm: self.depth_hwm,
            resizes,
            lap_rebuilds,
        }
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        match &mut self.pending {
            Pending::Calendar(c) => c.clear(),
            Pending::Heap(h) => h.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> [QueueKind; 2] {
        [QueueKind::Calendar, QueueKind::Heap]
    }

    #[test]
    fn pops_in_time_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_secs(3.0), "c");
            q.push(SimTime::from_secs(1.0), "a");
            q.push(SimTime::from_secs(2.0), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_in_insertion_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_secs(5.0);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_secs(10.0), 10);
            q.push(SimTime::from_secs(1.0), 1);
            assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 1)));
            q.push(SimTime::from_secs(5.0), 5);
            assert_eq!(q.pop(), Some((SimTime::from_secs(5.0), 5)));
            assert_eq!(q.pop(), Some((SimTime::from_secs(10.0), 10)));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_secs(2.0), ());
            q.push(SimTime::from_secs(1.0), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
            q.pop();
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        }
    }

    #[test]
    fn len_and_clear() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..10 {
                q.push(SimTime::from_micros(i), i);
            }
            assert_eq!(q.len(), 10);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn default_kind_is_heap_and_override_scopes() {
        assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Heap);
        with_queue_kind(QueueKind::Calendar, || {
            assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Calendar);
            with_queue_kind(QueueKind::Heap, || {
                assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Heap);
            });
            assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Calendar);
        });
        assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Heap);
    }

    #[test]
    fn override_restored_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_queue_kind(QueueKind::Calendar, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Heap);
    }

    #[test]
    fn pop_before_takes_only_strictly_earlier_events() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.pop_before(SimTime::MAX), None, "{kind:?}");
            q.push(SimTime::from_micros(20), "b");
            q.push(SimTime::from_micros(10), "a");
            assert_eq!(q.pop_before(SimTime::from_micros(10)), None, "{kind:?}");
            assert_eq!(
                q.pop_before(SimTime::from_micros(11)),
                Some((SimTime::from_micros(10), "a")),
                "{kind:?}"
            );
            // A refusal leaves the queue intact, and a later push before
            // the refused event still pops first.
            assert_eq!(q.pop_before(SimTime::from_micros(15)), None, "{kind:?}");
            q.push(SimTime::from_micros(12), "c");
            assert_eq!(q.pop(), Some((SimTime::from_micros(12), "c")), "{kind:?}");
            assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")), "{kind:?}");
            assert_eq!(q.stats().pops, 3, "{kind:?}");
        }
    }

    /// A push into a day the cursor has already moved past (possible only
    /// for a standalone queue — the engine forbids scheduling in the
    /// past) still pops in global order.
    #[test]
    fn calendar_handles_past_pushes() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        for i in 0..64u64 {
            q.push(SimTime::from_micros(1_000 + i * 100), i);
        }
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        // Behind everything, including the popped event's day.
        q.push(SimTime::from_micros(0), 999);
        assert_eq!(q.pop(), Some((SimTime::from_micros(0), 999)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
    }

    /// Far-future events separated by much more than a full calendar lap
    /// exercise the sparse-queue jump.
    #[test]
    fn calendar_jumps_over_sparse_spans() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        q.push(SimTime::from_micros(3), "near");
        q.push(SimTime::from_micros(u64::MAX - 1), "far");
        q.push(SimTime::from_micros(1_000_000_000), "mid");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.pop(), None);
    }

    /// Growth and shrink thresholds: a large population pushed and fully
    /// drained in random-ish order stays totally ordered throughout.
    #[test]
    fn calendar_resizes_keep_order() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        let mut expect: Vec<u64> = Vec::new();
        for i in 0..2_000u64 {
            let t = (i.wrapping_mul(2_654_435_761)) % 50_000;
            q.push(SimTime::from_micros(t), i);
            expect.push(t);
        }
        expect.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn stats_track_churn_and_high_water() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..8u64 {
                q.push(SimTime::from_micros(i * 10), i);
            }
            for _ in 0..3 {
                q.pop();
            }
            q.push(SimTime::from_micros(1_000), 99);
            let stats = q.stats();
            assert_eq!(stats.pushes, 9, "{kind:?}");
            assert_eq!(stats.pops, 3, "{kind:?}");
            assert_eq!(stats.depth_hwm, 8, "{kind:?}");
            if kind == QueueKind::Heap {
                assert_eq!(stats.resizes, 0);
                assert_eq!(stats.lap_rebuilds, 0);
            }
        }
    }

    #[test]
    fn stats_count_calendar_lap_rebuilds() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        q.push(SimTime::from_micros(3), "near");
        q.push(SimTime::from_micros(u64::MAX - 1), "far");
        q.pop();
        q.pop();
        let stats = q.stats();
        assert!(
            stats.lap_rebuilds >= 1,
            "sparse span must trigger a lap rebuild: {stats:?}"
        );
        assert!(stats.resizes >= stats.lap_rebuilds);
    }

    /// Interleaved monotone pop/push churn at steady occupancy — the
    /// simulation's actual access pattern.
    #[test]
    fn calendar_steady_state_churn_matches_heap() {
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut clock = 0u64;
        let mut x = 88172645463325252u64;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = clock + x % 10_000;
            cal.push(SimTime::from_micros(t), i);
            heap.push(SimTime::from_micros(t), i);
            if i % 3 == 0 {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    clock = t.as_micros();
                }
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
