//! Regenerates the beyond-the-paper extension studies (statistical
//! forecasting, moldable shape redundancy, dual-queue racing) and times
//! a moldable run. The forecaster's per-decision cost is a column of
//! `BENCH_kernel.json` (`kernels.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use rbr::sim::SeedSequence;
use rbr_bench::regenerate;

fn bench(c: &mut Criterion) {
    regenerate("forecast");
    regenerate("moldable");
    regenerate("dual-queue");

    let mut group = c.benchmark_group("extensions");
    // Kernel: one 20-minute moldable run.
    group.sample_size(10);
    let mut cfg =
        rbr::grid::moldable::MoldableConfig::new(rbr::grid::moldable::ShapePolicy::AllShapes);
    cfg.window = rbr::sim::Duration::from_secs(1_200.0);
    group.bench_function("moldable_all_shapes_20min", |b| {
        b.iter(|| rbr::grid::moldable::run(&cfg, SeedSequence::new(14)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
