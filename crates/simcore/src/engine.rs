//! The simulation engine: a clock plus a pending-event set.
//!
//! `Engine` enforces the fundamental DES invariant — events may only be
//! scheduled at or after the current instant — and advances the clock as
//! events are popped. The domain layers (schedulers, grid, middleware)
//! drive their own event loops on top of this.
//!
//! A caller may also keep a presorted stream of events outside the
//! pending set and merge it in with [`Engine::pop_before`] and
//! [`Engine::step_to`]. The grid driver does this with job arrivals: a
//! run's whole arrival stream is known up front, so it never needs the
//! pending set's ordering, and keeping it out leaves the set holding
//! only in-flight events. The merge gives the stream every same-instant
//! tie, exactly as if its events had been scheduled before any other,
//! and [`Engine::processed`] counts both sources.

use crate::queue::{EventQueue, QueueStats};
use crate::time::{Duration, SimTime};

/// A discrete-event simulation engine carrying events of type `E`.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at `t = 0` with an empty event set.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime statistics of the pending-event set (pushes, pops,
    /// depth high-water mark, calendar rebuilds) — read by the
    /// observability layer at the end of a run.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at} < now {}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` after a relative delay from the current instant.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    ///
    /// Returns `None` when no events remain (simulation has drained).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        self.advance(t);
        Some((t, e))
    }

    /// Pops the earliest event if it is strictly before `limit`, advancing
    /// the clock to its timestamp. Returns `None`, with the clock
    /// unchanged, when the set is empty or its earliest event is at or
    /// after `limit`.
    ///
    /// With `limit` the time of a caller's next outside event, a `None`
    /// means that event goes next: deliver it with [`Engine::step_to`].
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop_before(limit)?;
        self.advance(t);
        Some((t, e))
    }

    /// Advances the clock to `at` and counts one processed event, for an
    /// event the caller delivers from outside the pending set (see
    /// [`Engine::pop_before`]).
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn step_to(&mut self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot step back in time: {at} < now {}",
            self.now
        );
        debug_assert!(
            self.queue.peek_time().is_none_or(|t| t >= at),
            "stepped over a pending event"
        );
        self.advance(at);
    }

    fn advance(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "event delivered from the past");
        self.now = t;
        self.processed += 1;
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs until the event set is empty or `handler` returns `false`,
    /// feeding each event to `handler` together with a mutable reference to
    /// the engine so handlers can schedule follow-up events.
    pub fn run_with<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E) -> bool,
    {
        while let Some((t, e)) = self.pop() {
            if !handler(self, t, e) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(5.0), 5);
        eng.schedule(SimTime::from_secs(2.0), 2);
        assert_eq!(eng.now(), SimTime::ZERO);
        assert_eq!(eng.pop(), Some((SimTime::from_secs(2.0), 2)));
        assert_eq!(eng.now(), SimTime::from_secs(2.0));
        assert_eq!(eng.pop(), Some((SimTime::from_secs(5.0), 5)));
        assert_eq!(eng.processed(), 2);
        assert_eq!(eng.pop(), None);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule(SimTime::from_secs(10.0), ());
        eng.pop();
        eng.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(SimTime::from_secs(3.0), "base");
        eng.pop();
        eng.schedule_after(Duration::from_secs(2.0), "later");
        assert_eq!(eng.pop(), Some((SimTime::from_secs(5.0), "later")));
    }

    #[test]
    fn run_with_processes_cascading_events() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(1.0), 0);
        let mut seen = Vec::new();
        eng.run_with(|eng, _t, depth| {
            seen.push(depth);
            if depth < 3 {
                eng.schedule_after(Duration::from_secs(1.0), depth + 1);
            }
            true
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(eng.now(), SimTime::from_secs(4.0));
    }

    #[test]
    fn pop_before_and_step_to_merge_an_outside_stream() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(SimTime::from_secs(2.0), "pending");
        assert_eq!(eng.pop_before(SimTime::from_secs(2.0)), None);
        assert_eq!(eng.now(), SimTime::ZERO);
        eng.step_to(SimTime::from_secs(2.0));
        assert_eq!((eng.now(), eng.processed()), (SimTime::from_secs(2.0), 1));
        assert_eq!(
            eng.pop_before(SimTime::from_secs(3.0)),
            Some((SimTime::from_secs(2.0), "pending"))
        );
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "step back in time")]
    fn stepping_into_the_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.step_to(SimTime::from_secs(10.0));
        eng.step_to(SimTime::from_secs(1.0));
    }

    #[test]
    fn run_with_can_stop_early() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(SimTime::from_micros(i), i as u32);
        }
        let mut count = 0;
        eng.run_with(|_, _, _| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
        assert_eq!(eng.pending(), 7);
    }
}
