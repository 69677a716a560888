//! # rbr-serve
//!
//! The online metascheduler service: the paper's batched-transaction
//! remedy, stood up as a long-running admission-controlled TCP daemon.
//!
//! Section 4 shows redundant batch requests are harmful because every
//! submit and cancel pays a full WS-GRAM transaction. This crate is the
//! constructive counterpart: a std-only socket service (no async
//! runtime) that
//!
//! * frames requests as length-prefixed JSON ([`wire`]), written and
//!   read with the workspace's one codec, [`rbr_obs::json`];
//! * coalesces admitted operations into size- or deadline-triggered
//!   transactions ([`batcher`] — the live twin of the simulator's
//!   `BatchedSubmit` protocol);
//! * picks each job's redundancy online from the batched capacity
//!   model, the measured arrival rate, and the Binomial-Method
//!   queue-wait bound ([`admission`]);
//! * runs on a wall or message-driven virtual clock ([`clock`]), so a
//!   fixed seed reproduces the admission log byte for byte;
//! * serves it all from a single-threaded non-blocking poll loop with
//!   per-connection backpressure and graceful drain ([`server`]);
//! * and replays Lublin–Feitelson arrivals against itself at
//!   configurable rate multiples ([`loadgen`]).
//!
//! The `rbr serve` / `rbr loadgen` CLI pair wraps [`server::serve`] and
//! [`loadgen::run`]; the service-smoke CI step byte-diffs two same-seed
//! runs' admission logs through exactly this path.

pub mod admission;
pub mod batcher;
pub mod clock;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionController, Decision};
pub use batcher::{Batcher, Transaction};
pub use clock::{Clock, ClockMode};
pub use loadgen::{LoadgenConfig, LoadgenStats};
pub use server::{serve, ServerConfig, ServerStats};
pub use wire::{Request, Response, Verdict};
