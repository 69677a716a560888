//! `rbr-exec` — the deterministic parallel campaign engine.
//!
//! Every figure and table in the paper is a sweep: replications × cluster
//! counts × schemes × load points. This crate turns those sweeps into
//! *cells* — independent units of work, each a pure function of a seed
//! derived from the master seed through the splittable
//! [`rbr_simcore`](rbr_simcore::rng::SeedSequence) RNG hierarchy — and
//! executes them on a self-scheduling thread pool, merging results in
//! cell order so the output is **bit-identical to the serial run for any
//! job count**.
//!
//! The layers:
//!
//! * [`pool`] — the self-scheduling pool. Its workers park on one queue
//!   of helpers; a fold queues a helper per spare worker, and the calling
//!   thread and every worker that takes a helper claim the next
//!   unclaimed cell index until none is left. The caller is always a
//!   lane, so one lane degenerates to a plain serial loop and nested
//!   fan-outs (an experiment's replications inside a campaign's
//!   experiments) cannot deadlock. Its one primitive is the fold:
//!   [`pool::map_fold`] / [`pool::fold_cells`] deliver each result to an
//!   in-order sink through a bounded reorder window, so arbitrarily wide
//!   fan-outs hold O(window) results in flight.
//!   [`pool::with_pool`] pins a scope to a specific pool, and
//!   [`pool::configure`] sizes the process-global one (`--jobs`).
//! * [`journal`] — the crash-safe, *segmented* campaign journal:
//!   fixed-size JSONL segments (`seg-00000.jsonl`, …) plus an appendable
//!   footer index (`journal.idx`) mapping each sealed cell to its byte
//!   range, so resuming a wide campaign seeks straight to payloads
//!   instead of rescanning everything. A truncated trailing record (a
//!   kill mid-write) is tolerated; a torn index tail degrades to a
//!   scan; a file cut before its header line is complete holds nothing;
//!   a corrupted *sealed* segment is a hard error.
//! * [`cache`] — the content-keyed cross-campaign cell cache
//!   (`--cache DIR`): an entry per `(manifest, cell key)` digest, each
//!   hit identity- and payload-verified before replaying the stored
//!   bytes.
//! * [`campaign`] — orchestration: [`campaign::run_streaming`]
//!   evaluates a cell list on the current pool, appends each completion
//!   to the journal, replays journalled cells on `--resume` (and
//!   identical cells from the cache), streams [`campaign::Progress`]
//!   events (done/total, cells/sec, ETA — replays excluded from the
//!   rate), and hands every [`campaign::CellOutcome`] to a
//!   [`campaign::CellSink`] in cell order as it lands, keeping campaign
//!   memory O(reorder window + accumulators) regardless of cell count.
//!   [`campaign::run`] is the collecting wrapper.
//!
//! Determinism contract: callers must derive every cell's randomness from
//! the cell index (`SeedSequence::child`/`path`), never from execution
//! order, shared mutable state, or wall-clock time. In return the engine
//! guarantees order-stable merges, so `--jobs 1` and `--jobs 64` produce
//! byte-identical reports and a resumed campaign matches an uninterrupted
//! one exactly.

pub mod cache;
pub mod campaign;
pub mod hash;
pub mod journal;
pub mod pool;

pub use campaign::{
    run, run_streaming, CampaignOptions, CampaignResult, CampaignStats, CellOutcome, CellSpec,
    Progress,
};
pub use journal::{Journal, Record};
pub use pool::{configure, fold_cells, map_fold, with_pool, Pool, PoolMetrics};
