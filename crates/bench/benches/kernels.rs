//! Microbenchmarks of the core kernels: event queue (calendar vs the
//! reference heap), availability profile, CBF schedule compression,
//! distribution sampling, and per-algorithm scheduler passes.
//!
//! Besides the criterion groups, this target writes `BENCH_kernel.json`
//! at the repository root: one self-timed number per hot kernel so the
//! perf trajectory is committed alongside the code (see TESTING.md for
//! how to regenerate).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rbr::dist::{Gamma, HyperGamma, Sample};
use rbr::forecast::QuantilePredictor;
use rbr::sched::{Algorithm, CbfScheduler, Profile, Request, RequestId, Scheduler};
use rbr::sim::{Duration, EventQueue, QueueKind, SeedSequence, SimTime};
use rbr_bench::print_artifact;

/// Steady-state event-queue churn at grid-realistic occupancy: a few
/// hundred pending events, monotone time advance, one push per 1–2 pops
/// — the regime the simulation drives the queue in. Returns a checksum
/// so the work cannot be optimized away.
fn queue_churn(kind: QueueKind, events: u64) -> u64 {
    let mut q = EventQueue::with_kind(kind);
    let mut x = 0x2545f4914f6cdd1du64;
    let mut now = 0u64;
    let mut acc = 0u64;
    // Pre-fill to typical occupancy.
    for i in 0..512u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.push(SimTime::from_micros(x % 3_000_000), i);
    }
    for i in 0..events {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Completion-style events land up to ~1h ahead; ~1/8 are
        // same-instant cascades (the race/cancel pattern).
        let gap = if x.is_multiple_of(8) {
            0
        } else {
            x % 3_600_000_000
        };
        q.push(SimTime::from_micros(now + gap), i);
        if let Some((t, v)) = q.pop() {
            now = t.as_micros();
            acc = acc.wrapping_add(v);
        }
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// A fragmented availability profile: staggered reservations leave holes
/// of varying widths, then `earliest_fit` probes it with mixed shapes.
fn earliest_fit_fragmented(queries: u64) -> u64 {
    let mut p = Profile::new(SimTime::ZERO, 128, 128);
    // 128 staggered reservations → a profile of ~250 steps with holes.
    for i in 0..128u64 {
        let start = SimTime::from_secs((i * 37 % 1_000) as f64 * 10.0);
        let dur = Duration::from_secs(300.0 + (i % 13) as f64 * 700.0);
        let nodes = 1 + (i % 48) as u32;
        p.reserve(p.earliest_fit(start, dur, nodes), dur, nodes);
    }
    let mut acc = 0u64;
    for i in 0..queries {
        let dur = Duration::from_secs(60.0 + (i % 29) as f64 * 240.0);
        let nodes = 1 + (i % 96) as u32;
        acc = acc.wrapping_add(p.earliest_fit(SimTime::ZERO, dur, nodes).as_micros());
    }
    acc
}

/// One CBF compression burst: a full-machine blocker with a deep queue
/// of reservations behind it completes early, forcing the scheduler to
/// rebuild the profile and re-reserve the whole queue.
fn cbf_compression_burst(queue_depth: u64) -> usize {
    let mut s = CbfScheduler::new(128);
    let mut starts = Vec::new();
    let t0 = SimTime::ZERO;
    s.submit(
        t0,
        Request::new(RequestId(0), 128, Duration::from_secs(100_000.0), t0),
        &mut starts,
    );
    for i in 1..=queue_depth {
        let req = Request::new(
            RequestId(i),
            1 + (i % 64) as u32,
            Duration::from_secs(60.0 + (i % 17) as f64 * 600.0),
            t0,
        );
        s.submit(t0, req, &mut starts);
    }
    starts.clear();
    // Early completion at t=1 compresses the entire queue.
    s.complete(SimTime::from_secs(1.0), RequestId(0), &mut starts);
    starts.len() + s.queue_len()
}

/// A forecaster with a full window of pseudo-random waits, as
/// admission holds it after its first 512 decisions.
fn full_forecaster() -> QuantilePredictor {
    let mut p = QuantilePredictor::qbets_default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..512 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        p.observe((x >> 40) as f64);
    }
    p
}

/// What admission pays the forecaster per decision: one `observe` and
/// one `predict` on a full window, `decisions` times.
fn forecast_observe_predict(full: &QuantilePredictor, decisions: u64) -> u64 {
    let mut p = full.clone();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for _ in 0..decisions {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.observe((x >> 40) as f64);
        acc = acc.wrapping_add(p.predict().map_or(1, f64::to_bits));
    }
    acc
}

/// Times `f` as ns per inner item: best of `reps` runs of `per_run`
/// items each (minimum filters scheduler noise on a busy host).
fn time_ns_per<F: FnMut() -> u64>(reps: u32, per_run: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        let ns = t.elapsed().as_nanos() as f64 / per_run as f64;
        best = best.min(ns);
    }
    assert!(sink != 1, "defeat dead-code elimination");
    best
}

/// Self-timed numbers for the four hot kernels, written to
/// `BENCH_kernel.json` at the repository root.
fn record_kernels() {
    const EVENTS: u64 = 200_000;
    let heap = time_ns_per(5, EVENTS, || queue_churn(QueueKind::Heap, EVENTS));
    let calendar = time_ns_per(5, EVENTS, || queue_churn(QueueKind::Calendar, EVENTS));

    const QUERIES: u64 = 20_000;
    let fit = time_ns_per(5, QUERIES, || earliest_fit_fragmented(QUERIES));

    const DEPTH: u64 = 400;
    let compress = time_ns_per(5, DEPTH, || cbf_compression_burst(DEPTH) as u64);

    const DECISIONS: u64 = 20_000;
    let full = full_forecaster();
    let forecast = time_ns_per(5, DECISIONS, || forecast_observe_predict(&full, DECISIONS));

    let body = format!(
        "{{\"event_queue_pop_push_ns\":{{\"heap\":{heap:.1},\"calendar\":{calendar:.1},\
         \"calendar_vs_heap\":{:.3}}},\
         \"earliest_fit_fragmented_ns\":{fit:.1},\
         \"cbf_compression_ns_per_queued\":{compress:.1},\
         \"forecast_observe_predict_ns\":{forecast:.1}}}\n",
        heap / calendar.max(1e-9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    std::fs::write(path, &body).expect("write BENCH_kernel.json");
    print_artifact("hot-kernel timings (BENCH_kernel.json)", &body);
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/event_queue");
    for kind in [QueueKind::Calendar, QueueKind::Heap] {
        group.bench_function(format!("{kind:?}_churn_10k"), |b| {
            b.iter(|| queue_churn(kind, 10_000))
        });
    }
    group.bench_function("push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1_024);
            for i in 0..1_000u64 {
                // Reversed times exercise real movement in either impl.
                q.push(SimTime::from_micros(1_000 - i), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
    group.finish();
}

fn bench_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/profile");
    group.bench_function("reserve_and_fit_256", |b| {
        b.iter(|| {
            let mut p = Profile::new(SimTime::ZERO, 128, 128);
            let mut acc = 0u64;
            for i in 0..256u64 {
                let dur = Duration::from_secs(60.0 + (i % 7) as f64 * 600.0);
                let nodes = 1 + (i % 64) as u32;
                let start = p.earliest_fit(SimTime::ZERO, dur, nodes);
                p.reserve(start, dur, nodes);
                acc = acc.wrapping_add(start.as_micros());
            }
            acc
        })
    });
    group.bench_function("earliest_fit_fragmented_1k", |b| {
        b.iter(|| earliest_fit_fragmented(1_000))
    });
    group.finish();
}

fn bench_cbf_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/cbf");
    group.sample_size(20);
    group.bench_function("compression_burst_q400", |b| {
        b.iter(|| cbf_compression_burst(400))
    });
    group.finish();
}

fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/dist");
    let gamma = Gamma::new(10.23, 0.49);
    let hyper = HyperGamma::new(100.0, 0.04, 100.0, 0.055, 0.7);
    let mut rng = SeedSequence::new(13).rng();
    group.bench_function("gamma_sample", |b| b.iter(|| gamma.sample(&mut rng)));
    group.bench_function("hyper_gamma_sample", |b| b.iter(|| hyper.sample(&mut rng)));
    group.finish();
}

fn bench_scheduler_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/scheduler");
    group.sample_size(20);
    for alg in Algorithm::all() {
        group.bench_function(format!("{alg}_submit_complete_churn"), |b| {
            b.iter(|| {
                let mut sched = alg.build_with_cycle(64, Duration::from_secs(30.0));
                let mut starts = Vec::new();
                let mut now = SimTime::ZERO;
                // 200 jobs of mixed widths through a busy machine.
                for i in 0..200u64 {
                    now += Duration::from_secs(3.0);
                    let req = Request::new(
                        RequestId(i),
                        1 + (i % 48) as u32,
                        Duration::from_secs(60.0 + (i % 11) as f64 * 120.0),
                        now,
                    );
                    sched.submit(now, req, &mut starts);
                    // Retire whatever started to keep the machine moving
                    // (run each started job for half its request).
                    let started: Vec<RequestId> = std::mem::take(&mut starts);
                    for id in started {
                        now += Duration::from_secs(1.0);
                        sched.complete(now, id, &mut starts);
                    }
                    starts.clear();
                }
                sched.queue_len()
            })
        });
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    record_kernels();
    bench_event_queue(c);
    bench_profile(c);
    bench_cbf_compression(c);
    bench_distributions(c);
    bench_scheduler_pass(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
