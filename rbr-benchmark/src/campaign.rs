//! `campaign-sweep`: the smoke-scale `run all` campaign through the
//! core experiments and the exec engine — a journal per seed and one
//! cell cache per pass, filled by a cold sweep and replayed by a warm
//! one. Report wall times are pinned (`RBR_FIXED_WALL_TIME=0`), so
//! payloads are byte-comparable.
//!
//! Two of the eighteen experiments are left out (see [`LEFT_OUT`]).
//!
//! The pool has one lane: on a shared two-vCPU host a two-lane sweep's
//! time swung by up to 28 % between runs whenever a neighbour took a
//! core, against 3 % for one lane.

use std::time::Instant;

use rbr::experiments::campaign::{self, Plan, RunOptions};
use rbr::report::{Format, Report};
use rbr::{Registry, Scale};
use rbr_exec::{with_pool, CampaignOptions, CampaignStats, CellOutcome, Pool};

use crate::harness::{self, Args, Outcome};
use crate::{serve, spans, stats};

/// Campaign seeds swept per pass.
const SEEDS_PER_PASS: u64 = 2;

/// Experiments the sweep leaves out. Both run CBF with exact estimates
/// and HALF, where the scheduler panics ("request … started without …
/// free nodes") for about one seed in 300–600 (README.md, finding 1):
/// with them, about one run in twelve of this workload crashed.
const LEFT_OUT: [&str; 2] = ["table1", "ablations"];

fn plan(registry: &Registry, seed: u64) -> Plan<'_> {
    Plan {
        experiments: registry
            .iter()
            .filter(|e| !LEFT_OUT.contains(&e.name()))
            .collect(),
        scale: Scale::Smoke,
        seed: Some(seed),
        reps: None,
        format: Format::Json,
    }
}

/// The core entry point, or — traced — the engine driven directly with
/// the same cell body wrapped in spans around `Experiment::run_with`
/// and `Report::render`, under the caller's open span.
fn sweep(
    plan: &Plan<'_>,
    options: &RunOptions,
    traced: bool,
    sink: impl FnMut(CellOutcome) -> Result<(), String> + Send,
) -> Result<CampaignStats, String> {
    if !traced {
        return campaign::run_streaming(plan, options, sink, &|_| {});
    }
    let parent = spans::current();
    let engine = CampaignOptions {
        dir: options.dir.clone(),
        resume: false,
        cell_budget: None,
        manifest: plan.manifest(),
        cache: options.cache.clone(),
        segment_records: None,
    };
    let execute = |i: usize, _: &rbr_exec::CellSpec| {
        let _cell = spans::open_under("bench.cell", i as u64, parent);
        let exp = plan.experiments[i];
        let seed = plan.seed.unwrap_or_else(|| exp.default_seed());
        let report = {
            let _s = spans::open("core.exp", i as u64);
            exp.run_with(plan.scale, seed, plan.reps)
        };
        let mut rendered = {
            let _s = spans::open("core.render", i as u64);
            report.render(plan.format)
        };
        if !rendered.ends_with('\n') {
            rendered.push('\n');
        }
        rendered
    };
    rbr_exec::run_streaming(&plan.cells(), &engine, execute, sink, &|_| {})
}

/// One pass: a cold sweep of its seeds into a fresh cache, then a warm
/// sweep replaying every cell from that cache.
struct Pass {
    cold_secs: f64,
    warm_secs: f64,
    /// Cold cells: `(key, payload)`.
    cells: Vec<(String, String)>,
    warm_hits: usize,
    digest: u64,
    failures: Vec<String>,
}

/// The campaign seeds pass `p` sweeps.
fn pass_seeds(args: &Args, p: usize) -> Vec<u64> {
    (0..SEEDS_PER_PASS)
        .map(|k| args.seed_seq().child(p as u64).child(k).seed())
        .collect()
}

fn run_pass(
    args: &Args,
    p: usize,
    registry: &Registry,
    pool: &Pool,
    traced: bool,
) -> Result<Pass, String> {
    let root = args.scratch(&format!("pass{p}"));
    harness::remove_tree(&root)?;
    let seeds = pass_seeds(args, p);
    let options = |phase: &str, k: usize| RunOptions {
        dir: Some(root.join(format!("{phase}-{k}"))),
        resume: false,
        cell_budget: None,
        cache: Some(root.join("cache")),
    };
    let mut out = Pass {
        cold_secs: 0.0,
        warm_secs: 0.0,
        cells: Vec::new(),
        warm_hits: 0,
        digest: 0,
        failures: Vec::new(),
    };

    let t = Instant::now();
    {
        let _pass = spans::open("bench.pass", p as u64);
        for (k, &seed) in seeds.iter().enumerate() {
            let plan = plan(registry, seed);
            let mut cells = Vec::new();
            let stats = with_pool(pool, || {
                sweep(&plan, &options("cold", k), traced, |o: CellOutcome| {
                    cells.push((o.key, o.payload));
                    Ok(())
                })
            })?;
            if !stats.complete || stats.cache_hits != 0 || cells.len() != stats.total {
                out.failures.push(format!(
                    "cold sweep of seed {seed} was not a clean cold run"
                ));
            }
            out.cells.extend(cells);
        }
    }
    out.cold_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut warm = Vec::new();
    {
        let _warm_span = spans::open("bench.warm_pass", p as u64);
        for (k, &seed) in seeds.iter().enumerate() {
            let plan = plan(registry, seed);
            let stats = with_pool(pool, || {
                campaign::run_streaming(
                    &plan,
                    &options("warm", k),
                    |o: CellOutcome| {
                        warm.push(o.payload);
                        Ok(())
                    },
                    &|_| {},
                )
            })?;
            out.warm_hits += stats.cache_hits;
        }
    }
    out.warm_secs = t.elapsed().as_secs_f64();
    harness::remove_tree(&root)?;

    if warm.len() != out.cells.len() || warm.iter().zip(&out.cells).any(|(w, c)| *w != c.1) {
        out.failures
            .push("warm pass did not replay the cold payloads byte for byte".to_string());
    }
    out.digest = harness::digest_lines(out.cells.iter().flat_map(|c| [&c.0, &c.1]));
    Ok(out)
}

/// Set-up: the registry, the pool, and each of the pass's seeds' plan
/// with its manifest and cell list — what a campaign builds before its
/// first cell. (Each pass creates its own journal and cache directories
/// inside the timed region.) Returns a checksum of what it built.
fn setup(seeds: &[u64]) -> usize {
    let registry = Registry::standard();
    let pool = Pool::new(1);
    let mut built = pool.jobs();
    for &seed in seeds {
        let plan = plan(&registry, seed);
        built += plan.manifest().len() + plan.cells().len();
    }
    built
}

/// Seconds one [`setup`] takes. One takes a few microseconds, so it is
/// repeated until the repetitions add up to 5 ms, and neither the
/// clock's resolution nor one stall sets the reading. (Repeated to 1 ms,
/// the medians of two sets of ten runs sat 15 % apart.)
fn setup_secs(seeds: &[u64]) -> f64 {
    let (mut total, mut reps) = (0.0, 0u32);
    while total < 5e-3 {
        let t = Instant::now();
        std::hint::black_box(setup(std::hint::black_box(seeds)));
        total += t.elapsed().as_secs_f64();
        reps += 1;
    }
    total / f64::from(reps)
}

/// Runs `campaign-sweep`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    std::env::set_var("RBR_FIXED_WALL_TIME", "0");
    let mut out = Outcome::default();
    let (registry, pool) = (Registry::standard(), Pool::new(1));

    if !args.trace {
        let passes = harness::for_seconds(
            args.seconds,
            3,
            |p| Ok(((), setup_secs(&pass_seeds(args, p)))),
            |p, ()| run_pass(args, p, &registry, &pool, false),
        )?;
        out.attempted = passes.iter().map(|m| 2 * m.pass.cells.len() as u64).sum();
        out.digest = Some(passes[0].pass.digest);
        for m in &passes {
            out.failures.extend(m.pass.failures.iter().cloned());
        }
        out.end_to_end(&passes, |p| p.cold_secs);
        return Ok(out);
    }

    let harness::Paired {
        plain,
        traced,
        spans: mut all,
        snapshot,
        phases,
        overhead,
    } = harness::paired(
        args,
        args.seconds,
        2,
        |p, traced| run_pass(args, p, &registry, &pool, traced),
        |p| p.cold_secs,
    )?;
    out.attempted = plain
        .iter()
        .chain(&traced)
        .map(|p| 2 * p.cells.len() as u64)
        .sum();
    out.digest = Some(plain[0].digest);
    for p in plain.iter().chain(&traced) {
        out.failures.extend(p.failures.iter().cloned());
    }
    out.check(
        plain.iter().zip(&traced).all(|(a, b)| a.digest == b.digest),
        || "the traced sweep rendered different payloads".to_string(),
    );
    out.set("bench.trace_overhead", overhead);
    let median = |f: fn(&Pass) -> f64| stats::median(&plain.iter().map(f).collect::<Vec<_>>());
    out.set(
        "exec.warm_pass_frac",
        median(|p| p.warm_secs) / median(|p| p.cold_secs),
    );

    // Counts from pass 0's reports.
    let (mut jobs, mut events) = (0u64, 0u64);
    for (key, payload) in &traced[0].cells {
        let report = Report::from_json(payload).map_err(|e| format!("{key}: {e}"))?;
        jobs += report.meta.jobs;
        events += report.meta.events;
    }
    out.set("simcore.events", events as f64);
    out.set("workload.jobs", jobs as f64);
    out.set("exec.cells", traced[0].cells.len() as f64);
    let warm_cells: usize = traced.iter().map(|p| p.cells.len()).sum();
    let hits: usize = traced.iter().map(|p| p.warm_hits).sum();
    out.set("exec.cache.hit_frac", hits as f64 / warm_cells as f64);
    // Time shares of the cell body: each experiment and the rendering.
    let names: Vec<&str> = plan(&registry, 0)
        .experiments
        .iter()
        .map(|e| e.name())
        .collect();
    let body: f64 = spans::total_secs(&all, "core.exp") + spans::total_secs(&all, "core.render");
    for (i, name) in names.iter().enumerate() {
        let secs: f64 = all
            .iter()
            .filter(|s| s.name == "core.exp" && s.request == i as u64)
            .map(spans::Span::secs)
            .sum();
        out.set(&format!("core.exp.{name}_frac"), secs / body);
    }
    out.set(
        "core.render_frac",
        spans::total_secs(&all, "core.render") / body,
    );
    harness::phase_shares(&mut out, &phases);
    harness::copy_obs_counters(&mut out, &snapshot);

    let records: Vec<(String, String)> = traced[0]
        .cells
        .iter()
        .enumerate()
        .map(|(i, (key, payload))| (format!("{i}-{key}"), payload.clone()))
        .collect();
    let stream = serve::request_stream(args.seed_seq().child(u64::MAX), 20_000, 1.0, 0.5);
    all.extend(harness::probe_acks(&mut out, &stream, 20_000.0)?);
    all.extend(harness::probe_layers(args, &mut out, &stream, &records)?);
    harness::write_spans(args, &all)?;
    Ok(out)
}
