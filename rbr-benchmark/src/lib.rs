//! `rbr-benchmark` — pinned workloads over the whole rbr stack, with
//! end-to-end metrics from untraced runs and per-layer metrics from
//! traced ones. See `README.md` for the workloads, the metrics and how
//! to run, trace and compare.

pub mod alloc;
mod campaign;
pub mod compare;
mod grid;
pub mod harness;
mod kernels;
mod reference;
mod serve;
mod service;
mod spans;
pub mod spec;
mod stats;

use harness::{Args, Outcome};

/// Runs one workload by name.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "grid-easy" => grid::run(grid::Kind::Easy, args),
        "grid-cbf" => grid::run(grid::Kind::Cbf, args),
        "grid-faults" => grid::run(grid::Kind::Faults, args),
        "campaign-sweep" => campaign::run(args),
        "serve-steady" => service::run(service::Kind::Steady, args),
        "serve-overload" => service::run(service::Kind::Overload, args),
        other => Err(format!("unknown workload {other:?}")),
    }
}
