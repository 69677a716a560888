//! # rbr-simcore
//!
//! A small, deterministic discrete-event simulation (DES) kernel.
//!
//! The original study was built on the SimGrid toolkit. Section 3 of the
//! paper deliberately models *no* network or processing overheads, so the
//! only SimGrid services the simulation actually needs are (a) a virtual
//! clock, (b) a totally ordered pending-event set, and (c) reproducible
//! random streams. This crate provides exactly those three, with two
//! properties the study depends on:
//!
//! * **Determinism** — simulated time is integer microseconds and events
//!   with equal timestamps are ordered by insertion sequence, so a run is a
//!   pure function of its seed.
//! * **Reproducible parallel replication** — independent random streams are
//!   derived from a master seed with a SplitMix64 mixer, so replication `k`
//!   of an experiment produces identical results whether replications run
//!   sequentially or as cells on the `rbr-exec` self-scheduling pool.
//!
//! ```
//! use rbr_simcore::{Engine, SimTime, Duration};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule(SimTime::from_secs(2.0), "second");
//! engine.schedule(SimTime::from_secs(1.0), "first");
//! let (t, ev) = engine.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_secs(1.0));
//! assert_eq!(engine.now(), SimTime::from_secs(1.0));
//! ```

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use queue::{with_queue_kind, EventQueue, QueueKind, QueueStats};
pub use rng::{derive_seed, stream_rng, unit, SeedSequence};
pub use time::{Duration, SimTime};
