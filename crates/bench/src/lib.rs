//! Shared helpers for the three ledger writers.
//!
//! Each bench target (`kernels`, `exec`, `serve`) is a plain
//! `harness = false` program that times one layer and writes its
//! `BENCH_*.json` file at the repository root. The figures and tables
//! themselves come from `rbr run <name>`; the end-to-end benchmark is
//! `rbr-benchmark/`.

/// Prints a written ledger body with a banner.
pub fn print_artifact(name: &str, body: &str) {
    println!("\n================ {name} ================");
    println!("{body}");
}
