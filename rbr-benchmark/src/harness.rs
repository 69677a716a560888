//! What every workload shares: the run's arguments, repeated set-up
//! timing, time-boxed pass loops, the paired traced passes, the probes
//! of every layer, and the result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rbr::sim::{QueueKind, SeedSequence};
use rbr_exec::cache::CellCache;
use rbr_exec::hash::{fnv1a64, FNV_BASIS};
use rbr_exec::{Journal, Record};

use crate::{kernels, reference, serve, spans, stats};

/// One run's arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run appends its spans (JSONL).
    pub spans: Option<PathBuf>,
}

impl Args {
    /// The root of this run's inputs.
    pub fn seed_seq(&self) -> SeedSequence {
        SeedSequence::new(self.seed)
    }

    /// A scratch directory inside the checkout, private to this run.
    pub fn scratch(&self, what: &str) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("{}-{}-{what}", self.workload, std::process::id()))
    }
}

/// A run's findings before they are printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, or submits + cancels).
    pub attempted: u64,
    /// Failed checks, each a one-line reason; any fails every operation.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra `name value unit` lines for the human-readable output.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Digest of pass 0's outputs, checked against the expected digest
    /// where `spec.json` pins one for the seed.
    pub digest: Option<u64>,
}

impl Outcome {
    /// Records a check; a false one fails the run.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Failed operations: all of them once any check failed.
    pub fn failed(&self) -> u64 {
        if self.failures.is_empty() {
            0
        } else {
            self.attempted
        }
    }

    /// The end-to-end metrics every workload reports, from its untraced
    /// passes and `secs`, the seconds of fixed work in a pass. Times are
    /// scaled by each pass's [`reference`] factor.
    ///
    /// `wall_s` is the mean over passes less the fastest and slowest
    /// tenth: across runs of one workload the mean read steadier than the
    /// median or a low quantile of the passes, and trimming drops the
    /// live service bursts that hit a scheduling stall. `peak_heap_mb` is
    /// the mean too: a service pass's peak is bimodal (its buffers grow
    /// or not with the timing), so the median flipped between runs.
    pub fn end_to_end<P>(&mut self, passes: &[Measured<P>], secs: impl Fn(&P) -> f64) {
        let pass_secs: Vec<f64> = passes.iter().map(|m| secs(&m.pass) * m.factor).collect();
        let setup: Vec<f64> = passes.iter().map(|m| m.setup_s * m.factor).collect();
        let heap: Vec<f64> = passes.iter().map(|m| m.heap_mb).collect();
        let factors: Vec<f64> = passes.iter().map(|m| m.factor).collect();
        self.set("wall_s", stats::trimmed_mean(&pass_secs, 0.1));
        self.set("setup_s", stats::median(&setup));
        self.set("peak_heap_mb", heap.iter().sum::<f64>() / heap.len() as f64);
        self.notes
            .push(("passes".into(), pass_secs.len() as f64, "count"));
        self.notes
            .push(("speed_factor".into(), stats::median(&factors), "ratio"));
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t = Instant::now();
    let made = f()?;
    Ok((made, t.elapsed().as_secs_f64()))
}

/// A pass with what was measured around it.
pub struct Measured<P> {
    /// The pass's own result.
    pub pass: P,
    /// The host-speed factor to scale the set-up's and the pass's
    /// timings by: [`reference::NOMINAL_SECS`] over the mean of the
    /// reference loop's times right before the set-up and right after
    /// the pass.
    pub factor: f64,
    /// Seconds of one set-up, timed right before the pass, unscaled.
    pub setup_s: f64,
    /// Its peak live heap, MB.
    pub heap_mb: f64,
}

/// Runs pass 0, 1, … until `seconds` have elapsed and at least `min`
/// passes ran. Pass `p` is `setup(p)`, which returns what it built and
/// the seconds one set-up took, then `pass(p, built)`. Set-up is thus
/// timed across the whole run, as the passes are, so a busy moment of
/// the host weighs on it no more than on them. Samples the host's speed
/// on both sides of each set-up and pass, and meters each pass's heap
/// peak.
pub fn for_seconds<S, P>(
    seconds: f64,
    min: usize,
    mut setup: impl FnMut(usize) -> Result<(S, f64), String>,
    mut pass: impl FnMut(usize, S) -> Result<P, String>,
) -> Result<Vec<Measured<P>>, String> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t.elapsed().as_secs_f64() < seconds {
        let before = reference::loop_secs();
        let (built, setup_s) = setup(out.len())?;
        crate::alloc::reset_peak();
        let pass = pass(out.len(), built)?;
        let heap_mb = crate::alloc::peak_mb();
        let after = reference::loop_secs();
        out.push(Measured {
            pass,
            factor: reference::NOMINAL_SECS / (0.5 * (before + after)),
            setup_s,
            heap_mb,
        });
    }
    Ok(out)
}

/// What a traced run's paired passes produced.
pub struct Paired<P> {
    /// Pass k untraced, for every k.
    pub plain: Vec<P>,
    /// Pass k traced, on the same inputs.
    pub traced: Vec<P>,
    /// The traced passes' spans.
    pub spans: Vec<spans::Span>,
    /// The rbr-obs registry after traced pass 0.
    pub snapshot: rbr_obs::Snapshot,
    /// The rbr-obs trace of traced pass 0, folded.
    pub phases: rbr_obs::report::TraceSummary,
    /// Median over k of traced over untraced seconds, minus one.
    pub overhead: f64,
}

/// A traced run's passes: each runs untraced, then again on the same
/// inputs traced — spans on, the rbr-obs registry enabled, and for pass
/// 0 its JSONL trace attached (the phase shares need one pass of it,
/// and its sampling slows the runs it watches). Alternating the two
/// keeps the overhead ratio clear of the host's drift. Runs for
/// `seconds` and at least `min` pairs; `pass(k, traced)`.
pub fn paired<P>(
    args: &Args,
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize, bool) -> Result<P, String>,
    secs: impl Fn(&P) -> f64,
) -> Result<Paired<P>, String> {
    let obs_file = args.scratch("obs.jsonl");
    std::fs::create_dir_all(obs_file.parent().expect("scratch has a parent"))
        .map_err(|e| format!("scratch dir: {e}"))?;
    rbr_obs::metrics::reset();
    spans::take();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pass0 = None;
    let t = Instant::now();
    while plain.len() < min || t.elapsed().as_secs_f64() < seconds {
        let k = plain.len();
        plain.push(pass(k, false)?);
        if k == 0 {
            rbr_obs::trace::start_file(&obs_file).map_err(|e| format!("obs trace: {e}"))?;
        }
        rbr_obs::metrics::set_enabled(true);
        spans::set_recording(true);
        let run = pass(k, true);
        spans::set_recording(false);
        rbr_obs::metrics::set_enabled(false);
        if k == 0 {
            rbr_obs::trace::stop().map_err(|e| format!("obs trace: {e}"))?;
            let file = std::fs::File::open(&obs_file).map_err(|e| format!("obs trace: {e}"))?;
            let phases = rbr_obs::report::fold_trace(std::io::BufReader::new(file))
                .map_err(|e| format!("obs trace: {e}"))?;
            std::fs::remove_file(&obs_file).map_err(|e| format!("obs trace: {e}"))?;
            pass0 = Some((rbr_obs::metrics::snapshot(), phases));
        }
        traced.push(run?);
    }
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(a, b)| secs(b) / secs(a))
        .collect();
    let (snapshot, phases) = pass0.expect("at least one pair ran");
    Ok(Paired {
        plain,
        traced,
        spans: spans::take(),
        snapshot,
        phases,
        overhead: stats::median(&ratios) - 1.0,
    })
}

/// Runs `body` with the rbr-obs registry zeroed and enabled; returns
/// its result and the registry's counts.
pub fn counted<R>(
    body: impl FnOnce() -> Result<R, String>,
) -> Result<(R, rbr_obs::Snapshot), String> {
    rbr_obs::metrics::reset();
    rbr_obs::metrics::set_enabled(true);
    let result = body();
    rbr_obs::metrics::set_enabled(false);
    Ok((result?, rbr_obs::metrics::snapshot()))
}

/// Sets the service's send→ack latency metrics from open-loop latencies
/// (ms).
pub fn set_ack_latency(out: &mut Outcome, ms: &[f64]) {
    out.set("serve.ack_p50_ms", stats::median(ms));
    out.set("serve.ack_p90_ms", stats::percentile(ms, 90.0));
}

/// The service's send→ack latency on a workload that does not drive it:
/// `stream` sent open-loop at `rate` submits/s through a live in-process
/// service. Returns the session's spans.
pub fn probe_acks(
    out: &mut Outcome,
    stream: &[rbr_serve::Request],
    rate: f64,
) -> Result<Vec<spans::Span>, String> {
    let (wire, ends) = serve::encode(stream);
    let due = serve::due_times(stream, rate);
    let jobs = stream
        .iter()
        .filter(|r| matches!(r, rbr_serve::Request::Submit { .. }))
        .count();
    let (ex, spans) = recorded(|| {
        let _s = spans::open("bench.step", 0);
        serve::connect()?.open_loop(&wire, &ends, &due, jobs)
    })?;
    set_ack_latency(out, &serve::latencies_ms(stream, &due, &ex, false));
    Ok(spans)
}

/// Runs `body` with spans on; returns its result and its spans.
pub fn recorded<R>(
    body: impl FnOnce() -> Result<R, String>,
) -> Result<(R, Vec<spans::Span>), String> {
    spans::set_recording(true);
    let result = body();
    spans::set_recording(false);
    Ok((result?, spans::take()))
}

/// A counter's value in a registry snapshot (0 when unregistered).
pub fn counter(snapshot: &rbr_obs::Snapshot, name: &str) -> u64 {
    snapshot
        .entries
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| match v {
            rbr_obs::metrics::Value::Counter(c) => *c,
            _ => 0,
        })
}

/// Copies the registry counters `BENCHMARK.json` names `obs.<counter>`.
pub fn copy_obs_counters(out: &mut Outcome, snapshot: &rbr_obs::Snapshot) {
    for m in crate::spec::load().per_layer {
        if let Some(name) = m.name.strip_prefix("obs.") {
            out.set(&m.name, counter(snapshot, name) as f64);
        }
    }
}

/// Shares of the driver's sampled phases (queue ops, placement,
/// protocol) in the folded rbr-obs trace.
pub fn phase_shares(out: &mut Outcome, summary: &rbr_obs::report::TraceSummary) {
    let phases = summary.phases.get("grid.run");
    let secs = |name: &str| phases.and_then(|p| p.get(name)).map_or(0.0, |a| a.secs);
    let (q, pl, pr) = (secs("queue-ops"), secs("placement"), secs("protocol"));
    let total = q + pl + pr;
    let share = |x: f64| if total > 0.0 { x / total } else { 0.0 };
    out.set("grid.phase.queue_ops_frac", share(q));
    out.set("grid.phase.placement_frac", share(pl));
    out.set("grid.phase.protocol_frac", share(pr));
}

/// Median of `reps` timings of `f`, per unit of `per` (ns).
fn median_ns_per(reps: usize, per: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut ns = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(f()));
        ns.push(t.elapsed().as_nanos() as f64 / per as f64);
    }
    std::hint::black_box(sink);
    stats::median(&ns)
}

/// The probes every traced run takes, so each layer's per-op cost is
/// measured on every workload — on the workload's own inputs where it
/// drives that layer (its records, its request stream), else on inputs
/// derived from its seed:
///
/// * the hot kernels (event-queue churn, `earliest_fit`, CBF burst);
/// * the service layers, replaying `stream` stage by stage, and the
///   forecaster over the replay's wait estimates;
/// * the journal and cell cache, replaying `records` in a scratch dir.
///
/// Runs after the traced passes; returns the probes' spans.
pub fn probe_layers(
    args: &Args,
    out: &mut Outcome,
    stream: &[rbr_serve::Request],
    records: &[(String, String)],
) -> Result<Vec<spans::Span>, String> {
    recorded(|| probes(args, out, stream, records)).map(|((), spans)| spans)
}

fn probes(
    args: &Args,
    out: &mut Outcome,
    stream: &[rbr_serve::Request],
    records: &[(String, String)],
) -> Result<(), String> {
    let seed = args.seed;
    let _probe = spans::open("bench.probes", seed);
    const EVENTS: u64 = 200_000;
    let queue = {
        let _s = spans::open("simcore.queue_churn", seed);
        median_ns_per(5, EVENTS, || {
            kernels::queue_churn(QueueKind::Calendar, EVENTS, seed)
        })
    };
    out.set("simcore.queue_pop_push_ns", queue);
    const QUERIES: u64 = 20_000;
    let fit = {
        let _s = spans::open("sched.earliest_fit", seed);
        median_ns_per(5, QUERIES, || {
            kernels::earliest_fit_fragmented(QUERIES, seed)
        })
    };
    out.set("sched.earliest_fit_ns", fit);
    const DEPTH: u64 = 400;
    let burst = {
        let _s = spans::open("sched.cbf_burst", seed);
        median_ns_per(5, DEPTH, || kernels::cbf_compression_burst(DEPTH, seed))
    };
    out.set("sched.cbf_compress_ns_per_queued", burst);

    let (wire, _) = serve::encode(stream);
    let replay = {
        let _s = spans::open("serve.replay", seed);
        serve::replay(&wire, &serve::server_config())?
    };
    out.set("serve.parse_ns", replay.parse_ns);
    out.set("serve.admit_ns", replay.admit_ns);
    out.set("serve.batch_ns", replay.batch_ns);
    out.set("serve.write_ns", replay.write_ns);
    let waits: Vec<f64> = replay.decisions.iter().map(|d| d.wait_est_secs).collect();
    let predict = {
        let _s = spans::open("forecast.predict", seed);
        median_ns_per(3, waits.len() as u64, || {
            let mut p = rbr::forecast::QuantilePredictor::qbets_default();
            let mut bounded = 0u64;
            for &w in &waits {
                p.observe(w);
                bounded += u64::from(p.predict().is_some());
            }
            bounded
        })
    };
    out.set("forecast.predict_ns", predict);

    replay_storage(args, out, records)
}

/// Replays `records` through `Journal::create` / `append` / `finish`
/// and `CellCache::store` / `lookup`, checking every lookup returns the
/// stored payload.
fn replay_storage(
    args: &Args,
    out: &mut Outcome,
    records: &[(String, String)],
) -> Result<(), String> {
    let root = args.scratch("storage");
    remove_tree(&root)?;
    let manifest = format!("rbr-benchmark {} seed={}", args.workload, args.seed);
    let records: Vec<Record> = records
        .iter()
        .enumerate()
        .map(|(i, (key, payload))| Record {
            cell: i as u64,
            key: key.clone(),
            elapsed_secs: 0.0,
            payload: payload.clone(),
        })
        .collect();
    let n = records.len().max(1);
    let mut journal = {
        let _s = spans::open("exec.journal.create", 0);
        Journal::create(&root.join("journal"), &manifest, records.len() as u64, 1024)?
    };
    let t = Instant::now();
    for r in &records {
        let _s = spans::open("exec.journal.append", r.cell);
        journal.append(r)?;
    }
    out.set(
        "exec.journal.append_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
    );
    let t = Instant::now();
    {
        let _s = spans::open("exec.journal.finish", 0);
        journal.finish()?;
    }
    out.set("exec.journal.finish_ms", t.elapsed().as_secs_f64() * 1e3);

    let cache = CellCache::open(&root.join("cache"))?;
    let t = Instant::now();
    for r in &records {
        let _s = spans::open("exec.cache.store", r.cell);
        cache.store(&manifest, r)?;
    }
    out.set(
        "exec.cache.store_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
    );
    let t = Instant::now();
    let mut intact = 0usize;
    for r in &records {
        let _s = spans::open("exec.cache.lookup", r.cell);
        intact += usize::from(
            cache
                .lookup(&manifest, &r.key)
                .is_some_and(|hit| hit.payload == r.payload),
        );
    }
    out.set(
        "exec.cache.lookup_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
    );
    out.check(intact == records.len(), || {
        format!(
            "cell cache returned {intact} of {} stored records",
            records.len()
        )
    });
    remove_tree(&root)
}

/// Appends the spans to the run's span file, if it has one.
pub fn write_spans(args: &Args, all: &[spans::Span]) -> Result<(), String> {
    match &args.spans {
        Some(path) => spans::append_jsonl(path, &args.workload, all)
            .map_err(|e| format!("span file {}: {e}", path.display())),
        None => Ok(()),
    }
}

/// FNV-1a digest of lines, each newline-terminated: how every workload
/// pins its outputs.
pub fn digest_lines<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    lines
        .into_iter()
        .fold(FNV_BASIS, |h, l| fnv1a64(fnv1a64(h, l.as_bytes()), b"\n"))
}

/// Removes a scratch directory tree, ignoring one that never existed.
pub fn remove_tree(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}
