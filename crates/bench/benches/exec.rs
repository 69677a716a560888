//! The campaign engine's perf trajectory: times a registry campaign
//! serially and on a multi-lane pool, times a *wide* synthetic campaign
//! (10⁴–10⁵ cells) streaming vs materializing with peak-RSS deltas, and
//! writes the comparison to `BENCH_exec.json` at the repository root
//! (so later changes can track the speedup).

use std::time::Instant;

use rbr::experiments::campaign::{run, Plan, RunOptions};
use rbr::experiments::Registry;
use rbr::report::Format;
use rbr_bench::print_artifact;
use rbr_exec::{with_pool, CampaignOptions, CellOutcome, CellSpec, Pool};

/// Runs the campaign once on `pool`, returning (wall seconds, cells).
fn time_campaign(pool: &Pool, plan: &Plan<'_>) -> (f64, usize) {
    let started = Instant::now();
    let result = with_pool(pool, || run(plan, &RunOptions::default(), &|_| {}))
        .expect("unjournalled campaign cannot fail");
    assert!(result.complete);
    (started.elapsed().as_secs_f64(), result.outcomes.len())
}

/// Peak resident set (VmHWM, kB) of this process, from
/// `/proc/self/status`. `None` off Linux. Monotone over the process
/// lifetime, so the wide-campaign phases below run lightest-first and
/// the materializing phase — the only one whose footprint grows with
/// cell count — runs last.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A wide cell's payload: ~500 deterministic bytes, a pure function of
/// the cell index (an LCG stream), so journal replays and cache hits
/// can be checksum-verified against fresh execution.
fn wide_payload(i: usize) -> String {
    let mut body = format!("{{\"cell\":{i},\"stream\":[");
    let mut x = (i as u64).wrapping_mul(2).wrapping_add(1);
    for k in 0..24 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if k > 0 {
            body.push(',');
        }
        body.push_str(&x.to_string());
    }
    body.push_str("]}");
    body
}

/// FNV-1a over a payload, folded into `hash` — the streaming sink's
/// whole accumulator state, demonstrating fold-as-you-go.
fn fold_payload(hash: &mut u64, payload: &str) {
    for &b in payload.as_bytes() {
        *hash = (*hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// Times a wide synthetic campaign (10⁴ cells; 10⁵ under
/// `RBR_BENCH_QUICK=1`, the scale the ROADMAP's million-cell target is
/// anchored against) through the full journal + cache machinery, three
/// ways: streaming with a cold cache, streaming with a warm cache
/// (every cell a verified hit), and materializing via [`run`]'s
/// collecting sink. Records wall-clock per phase and the peak-RSS
/// trajectory — the streaming phases leave VmHWM at the baseline while
/// the materialized outcome vector shows up as a step — and returns the
/// JSON fields for `BENCH_exec.json`.
fn record_wide_campaign() -> String {
    let quick = std::env::var("RBR_BENCH_QUICK").as_deref() == Ok("1");
    let wide_cells: usize = if quick { 100_000 } else { 10_000 };
    let root = std::env::temp_dir().join(format!("rbr-bench-wide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cells: Vec<CellSpec> = (0..wide_cells)
        .map(|i| CellSpec::new(format!("wide-{i:06}")))
        .collect();
    let manifest = format!("bench wide campaign v1 cells={wide_cells}");
    let options = |journal: &str, cache: &str| CampaignOptions {
        dir: Some(root.join(journal)),
        resume: false,
        cell_budget: None,
        manifest: manifest.clone(),
        cache: Some(root.join(cache)),
        segment_records: None,
    };
    let pool = Pool::new(4);
    let rss_baseline_kb = peak_rss_kb();

    // Phase 1 — streaming, cold cache: executes every cell, folds each
    // payload into a 64-bit checksum, holds no outcome vector.
    let mut streamed_hash = 0xcbf2_9ce4_8422_2325u64;
    let started = Instant::now();
    let stats = with_pool(&pool, || {
        rbr_exec::run_streaming(
            &cells,
            &options("journal-stream", "cache"),
            |i, _| wide_payload(i),
            |outcome: CellOutcome| {
                fold_payload(&mut streamed_hash, &outcome.payload);
                Ok(())
            },
            &|_| {},
        )
    })
    .expect("wide streaming campaign");
    let streaming_secs = started.elapsed().as_secs_f64();
    assert!(stats.complete && stats.cache_hits == 0);
    let rss_streaming_kb = peak_rss_kb();

    // Phase 2 — streaming, warm cache: a fresh journal over the same
    // manifest, so every cell is a verified cache hit.
    let mut warm_hash = 0xcbf2_9ce4_8422_2325u64;
    let started = Instant::now();
    let warm = with_pool(&pool, || {
        rbr_exec::run_streaming(
            &cells,
            &options("journal-warm", "cache"),
            |i, _| wide_payload(i),
            |outcome: CellOutcome| {
                fold_payload(&mut warm_hash, &outcome.payload);
                Ok(())
            },
            &|_| {},
        )
    })
    .expect("wide warm-cache campaign");
    let warm_cache_secs = started.elapsed().as_secs_f64();
    assert!(warm.complete && warm.cache_hits == wide_cells);
    assert_eq!(warm_hash, streamed_hash, "cache hits must replay bytes");

    // Phase 3 — materializing (last: VmHWM is monotone, and only this
    // phase's footprint grows with cell count). Cold cache directory so
    // its wall-clock is apples-to-apples with phase 1.
    let started = Instant::now();
    let result = with_pool(&pool, || {
        rbr_exec::campaign::run(
            &cells,
            &options("journal-mat", "cache-mat"),
            |i, _| wide_payload(i),
            &|_| {},
        )
    })
    .expect("wide materializing campaign");
    let materialize_secs = started.elapsed().as_secs_f64();
    assert!(result.complete);
    let mut materialized_hash = 0xcbf2_9ce4_8422_2325u64;
    for outcome in &result.outcomes {
        fold_payload(&mut materialized_hash, &outcome.payload);
    }
    assert_eq!(materialized_hash, streamed_hash, "same cells, same bytes");
    let rss_materialize_kb = peak_rss_kb();
    drop(result);
    let _ = std::fs::remove_dir_all(&root);

    let kb = |v: Option<u64>| v.map_or("null".to_string(), |kb| kb.to_string());
    format!(
        "\"wide_cells\":{wide_cells},\
         \"wide_streaming_secs\":{streaming_secs:.3},\
         \"wide_warm_cache_secs\":{warm_cache_secs:.3},\
         \"wide_materialize_secs\":{materialize_secs:.3},\
         \"wide_rss_baseline_kb\":{},\
         \"wide_rss_streaming_kb\":{},\
         \"wide_rss_materialize_kb\":{}",
        kb(rss_baseline_kb),
        kb(rss_streaming_kb),
        kb(rss_materialize_kb),
    )
}

/// Alternating (plain, observed) serial campaigns behind `obs_overhead`;
/// odd, so the median is one pair's ratio.
const OBS_PAIRS: usize = 5;

/// Times the full-registry campaign serial and at 2/4 lanes, and records
/// the trajectory (plus the wide-campaign fields) in `BENCH_exec.json`.
fn record_speedup(wide: &str) {
    let registry = Registry::standard();
    // `RBR_SCALE`, smoke by default so the writer stays fast on one core.
    let scale = rbr::Scale::from_env(rbr::Scale::Smoke);
    let plan = Plan {
        experiments: registry.iter().collect(),
        scale,
        seed: None,
        reps: None,
        format: Format::Json,
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // The serial campaign, plain and observed (the metrics registry
    // enabled and a trace sink attached), in alternating pairs. Both
    // runs of a pair see the same host state, so the median of the
    // per-pair ratios is the observability tax, not the host's drift
    // between two separate series; rbr-benchmark computes
    // `bench.trace_overhead` the same way. The acceptance bar is
    // obs_overhead <= 0.05 (5%); the disabled path costs nothing by
    // construction (a relaxed load per call site), which the zero-alloc
    // test in rbr-obs pins. `serial_secs` and `obs_enabled_secs` are the
    // fastest run of each kind.
    let pool = Pool::new(1);
    let trace_path =
        std::env::temp_dir().join(format!("rbr-bench-obs-trace-{}.jsonl", std::process::id()));
    let (mut plain, mut observed, mut cells) = (Vec::new(), Vec::new(), 0);
    for _ in 0..OBS_PAIRS {
        let (secs, n) = time_campaign(&pool, &plan);
        plain.push(secs);
        cells = n;
        rbr_obs::trace::start_file(&trace_path).expect("attach trace sink");
        rbr_obs::metrics::set_enabled(true);
        observed.push(time_campaign(&pool, &plan).0);
        rbr_obs::metrics::set_enabled(false);
        rbr_obs::trace::stop().expect("detach trace sink");
    }
    let _ = std::fs::remove_file(&trace_path);
    let fastest = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
    let (serial_secs, obs_enabled_secs) = (fastest(&plain), fastest(&observed));
    let mut ratios: Vec<f64> = observed.iter().zip(&plain).map(|(o, p)| o / p).collect();
    ratios.sort_by(f64::total_cmp);
    let obs_overhead = ratios[OBS_PAIRS / 2] - 1.0;
    let (jobs2_secs, _) = time_campaign(&Pool::new(2), &plan);
    let (jobs4_secs, _) = time_campaign(&Pool::new(4), &plan);

    // Quick-scale trajectory (ROADMAP item 1): one 4-lane pass over the
    // full registry at quick fidelity. ~100x the smoke cost, so it only
    // runs when CI (or a curious dev) opts in via RBR_BENCH_QUICK=1.
    let quick_jobs4_secs = if std::env::var("RBR_BENCH_QUICK").as_deref() == Ok("1") {
        let quick_plan = Plan {
            experiments: registry.iter().collect(),
            scale: rbr::Scale::Quick,
            seed: None,
            reps: None,
            format: Format::Json,
        };
        let (secs, _) = time_campaign(&Pool::new(4), &quick_plan);
        format!("{secs:.3}")
    } else {
        "null".to_string()
    };

    let body = format!(
        "{{\"campaign\":\"run all\",\"scale\":\"{}\",\"cells\":{cells},\
         \"host_cpus\":{host_cpus},\
         \"serial_secs\":{serial_secs:.3},\
         \"obs_enabled_secs\":{obs_enabled_secs:.3},\
         \"obs_overhead\":{obs_overhead:.3},\
         \"jobs2_secs\":{jobs2_secs:.3},\"jobs4_secs\":{jobs4_secs:.3},\
         \"parallel_speedup_jobs2\":{:.3},\"parallel_speedup_jobs4\":{:.3},\
         \"quick_jobs4_secs\":{quick_jobs4_secs},{wide}}}\n",
        scale.name(),
        serial_secs / jobs2_secs.max(1e-9),
        serial_secs / jobs4_secs.max(1e-9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    std::fs::write(path, &body).expect("write BENCH_exec.json");
    print_artifact("campaign engine speedup (BENCH_exec.json)", &body);
}

fn main() {
    // Wide campaign first: its RSS columns need a VmHWM untouched by
    // the registry experiments' own allocations.
    let wide = record_wide_campaign();
    record_speedup(&wide);
}
