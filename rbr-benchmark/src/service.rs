//! The service workloads: an in-process `rbr_serve::serve` on a
//! virtual clock, one client on one connection.
//!
//! * `serve-steady` — the Lublin stream at 1× with a 50 % chance per job
//!   of a cancel: the admitted path (r > 1, cancels) through
//!   parse/admit/batch/write. Nominal rate 20k jobs/s.
//! * `serve-overload` — submits only at 16×: about half are shed and
//!   skip the batcher. Nominal rate 10k jobs/s.
//!
//! The fixed work every run times is closed bursts through the live
//! service: a fresh service per pass, a 20k-job stream sent as fast as
//! the connection takes it, timed from the first write to the server's
//! exit after its drain report. Every run checks burst 0 against its
//! staged replay (see `serve::replay`) decision for decision and ack for
//! ack. A traced run pairs untraced and traced bursts, takes the
//! replay's parse/admit/batch/write split, and adds the live service
//! under open-loop load: the nominal step (each request at its due time;
//! latency counted from the due time, so a stall shows on every later
//! request) and the fixed-rate step sweep that gives goodput.

use std::time::Instant;

use rbr::sim::SeedSequence;
use rbr_serve::{Decision, Request, Verdict};

use crate::harness::{self, Args, Outcome};
use crate::serve::{self, Exchange, Replay, Session, StepSummary};
use crate::{spans, stats};

/// Which service workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve-steady`.
    Steady,
    /// `serve-overload`.
    Overload,
}

struct Shape {
    /// Arrival-rate multiple applied to the Lublin stream.
    rate_mult: f64,
    /// Chance that a job sends a cancel.
    cancel_p: f64,
    /// Offered submits per second of the nominal step.
    nominal_rate: f64,
    /// Jobs in the nominal step.
    nominal_jobs: usize,
}

/// Jobs per closed burst.
const BURST_JOBS: usize = 20_000;

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::Steady => Shape {
            rate_mult: 1.0,
            cancel_p: 0.5,
            nominal_rate: 20_000.0,
            nominal_jobs: 40_000,
        },
        Kind::Overload => Shape {
            rate_mult: 16.0,
            cancel_p: 0.0,
            nominal_rate: 10_000.0,
            nominal_jobs: 20_000,
        },
    }
}

/// A stream and its wire bytes.
struct Input {
    reqs: Vec<Request>,
    wire: Vec<u8>,
    ends: Vec<usize>,
    jobs: usize,
}

fn input(shape: &Shape, seed: SeedSequence, jobs: usize) -> Input {
    let reqs = serve::request_stream(seed, jobs, shape.rate_mult, shape.cancel_p);
    let (wire, ends) = serve::encode(&reqs);
    Input {
        reqs,
        wire,
        ends,
        jobs,
    }
}

/// Replays `input` through the service's layers, spanned.
fn replay(input: &Input, request: u64) -> Result<Replay, String> {
    let _s = spans::open("bench.replay", request);
    serve::replay(&input.wire, &serve::server_config())
}

/// Checks a live session against the replay of its stream, decision
/// for decision and ack for ack.
fn check_live(out: &mut Outcome, what: &str, replay: &Replay, ex: &Exchange) {
    let log: Vec<String> = replay.decisions.iter().map(Decision::log_line).collect();
    out.check(log == ex.stats.admission_log, || {
        format!("{what}: the replayed admission log differs from the live one")
    });
    out.check(
        replay.ack_digest == ex.ack_digest && replay.txns == ex.stats.transactions,
        || format!("{what}: the replayed acks differ from the live ones"),
    );
}

fn ops(ex: &Exchange) -> u64 {
    ex.stats.submits + ex.stats.cancels
}

/// One closed burst on `session`: every frame as fast as the connection
/// takes it.
fn burst(input: &Input, session: Session, request: u64) -> Result<Exchange, String> {
    let _s = spans::open("bench.burst", request);
    session.burst(&input.wire, input.jobs)
}

/// A timed burst: its seconds, ops, frames both ways and acks' digest.
struct BurstRun {
    secs: f64,
    ops: u64,
    frames: u64,
    acks: u64,
}

/// Times one closed burst on `session`, from the first write to the
/// service's exit.
fn timed_burst(input: &Input, session: Session, request: u64) -> Result<BurstRun, String> {
    let (ex, secs) = harness::timed(|| burst(input, session, request))?;
    Ok(BurstRun {
        secs,
        ops: ops(&ex),
        // Requests and the drain out; acks and the drain report in.
        frames: input.reqs.len() as u64 + 1 + ex.frames_in,
        acks: ex.ack_digest,
    })
}

/// One open-loop step at `rate` submits/s.
fn step(input: &Input, rate: f64, request: u64) -> Result<(Exchange, Vec<u64>), String> {
    let due = serve::due_times(&input.reqs, rate);
    let session = serve::connect()?;
    let _s = spans::open("bench.step", request);
    let ex = session.open_loop(&input.wire, &input.ends, &due, input.jobs)?;
    Ok((ex, due))
}

/// One step of the sweep, reduced to its latency summary.
struct StepRow {
    summary: StepSummary,
    ops: u64,
    p50_ms: f64,
    p90_ms: f64,
}

/// Runs the step at `rate` and summarizes it: tail latency with sheds
/// and missing acks as misses, and the backlog at its end.
fn sweep_step(input: &Input, rate: f64, request: u64) -> Result<StepRow, String> {
    let (ex, due) = step(input, rate, request)?;
    let with_misses = serve::latencies_ms(&input.reqs, &due, &ex, true);
    let admitted = serve::latencies_ms(&input.reqs, &due, &ex, false);
    let last_due = due.last().copied().unwrap_or(0);
    let last_ack = ex
        .submit_ack_ns
        .iter()
        .chain(&ex.cancel_ack_ns)
        .flatten()
        .max()
        .copied()
        .unwrap_or(0);
    Ok(StepRow {
        summary: StepSummary {
            rate,
            tail_ms: stats::percentile(&with_misses, 90.0),
            backlog_secs: last_ack.saturating_sub(last_due) as f64 * 1e-9,
            step_secs: last_due as f64 * 1e-9,
        },
        ops: ops(&ex),
        p50_ms: stats::median(&admitted),
        p90_ms: stats::percentile(&admitted, 90.0),
    })
}

/// Runs a service workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let spec = crate::spec::load();
    let shape = shape(kind);
    let seed = args.seed_seq();
    let mut out = Outcome::default();
    let started = Instant::now();

    let nominal = input(&shape, seed.child(0), shape.nominal_jobs);
    let burst_input = |b: usize| input(&shape, seed.child(1).child(b as u64), BURST_JOBS);

    // Every run checks burst 0 live against its replay; the nominal
    // stream's and burst 0's admission logs are the digest.
    let nominal_replay = replay(&nominal, 0)?;
    let nominal_log: Vec<String> = nominal_replay
        .decisions
        .iter()
        .map(Decision::log_line)
        .collect();
    let input0 = burst_input(0);
    let burst0 = burst(&input0, serve::connect()?, 0)?;
    check_live(&mut out, "burst 0", &replay(&input0, 0)?, &burst0);
    out.digest = Some(
        harness::digest_lines(&nominal_log)
            ^ harness::digest_lines(&burst0.stats.admission_log).rotate_left(1),
    );
    out.attempted = ops(&burst0);

    if !args.trace {
        // The passes' heap peaks should hold their own inputs only.
        drop((nominal, nominal_replay, nominal_log, input0, burst0));
        let remaining = args.seconds - started.elapsed().as_secs_f64();
        // Set-up is generating and encoding the pass's request stream,
        // then starting the service: bind, its thread, one connection.
        // The service's start alone, ~0.1 ms of system calls and a
        // thread, read from 0.08 to 0.18 ms across ten runs of the same
        // code as the host's load moved.
        let setup = |b: usize| harness::timed(|| Ok((burst_input(b), serve::connect()?)));
        let pass =
            |b: usize, (input, session): (Input, Session)| timed_burst(&input, session, b as u64);
        let passes = harness::for_seconds(remaining, 3, setup, pass)?;
        out.attempted += passes.iter().map(|m| m.pass.ops).sum::<u64>();
        out.end_to_end(&passes, |p| p.secs);
        return Ok(out);
    }

    let paired = harness::paired(
        args,
        args.seconds / 4.0,
        2,
        |b, _| timed_burst(&burst_input(b), serve::connect()?, b as u64),
        |p| p.secs,
    )?;
    out.check(
        paired
            .plain
            .iter()
            .zip(&paired.traced)
            .all(|(a, b)| a.acks == b.acks),
        || "a traced burst acked differently".to_string(),
    );
    out.set("bench.trace_overhead", paired.overhead);

    // The live service open-loop: the nominal step (counted in the
    // rbr-obs registry) and the fixed-rate sweep.
    let steps = &spec.steps[&args.workload];
    let step_secs = args.seconds / 3.0 / steps.len() as f64;
    let ((((nominal_ex, nominal_due), counts), sweep), live_spans) = harness::recorded(|| {
        let nominal_run = harness::counted(|| step(&nominal, shape.nominal_rate, 0))?;
        let mut sweep = Vec::new();
        for (i, &rate) in steps.iter().enumerate() {
            let jobs = (rate * step_secs).round() as usize;
            let input = input(&shape, seed.child(2).child(i as u64), jobs);
            sweep.push(sweep_step(&input, rate, i as u64 + 1)?);
        }
        Ok((nominal_run, sweep))
    })?;
    check_live(&mut out, "nominal step", &nominal_replay, &nominal_ex);
    let mut all = paired.spans;
    all.extend(live_spans);
    out.attempted += paired
        .plain
        .iter()
        .chain(&paired.traced)
        .map(|p| p.ops)
        .sum::<u64>()
        + ops(&nominal_ex)
        + sweep.iter().map(|s| s.ops).sum::<u64>();
    harness::set_ack_latency(
        &mut out,
        &serve::latencies_ms(&nominal.reqs, &nominal_due, &nominal_ex, false),
    );
    let frames: Vec<f64> = paired
        .plain
        .iter()
        .map(|b| b.frames as f64 / b.secs)
        .collect();
    out.set("serve.burst_frames_per_s", stats::median(&frames));

    // The fixed-rate sweep: latency at each rate, and goodput.
    for row in &sweep {
        let label = format!("serve.step.{}", row.summary.rate.round());
        out.notes
            .push((format!("{label}.p50_ms"), row.p50_ms, "ms"));
        out.notes
            .push((format!("{label}.p90_ms"), row.p90_ms, "ms"));
        out.notes
            .push((format!("{label}.backlog_s"), row.summary.backlog_secs, "s"));
        let meets = serve::step_passes(&row.summary, spec.limit_ms);
        out.notes.push((
            format!("{label}.meets_limit"),
            f64::from(u8::from(meets)),
            "bool",
        ));
    }
    let summaries: Vec<StepSummary> = sweep.iter().map(|r| r.summary.clone()).collect();
    out.set(
        "serve.goodput_jobs_per_s",
        serve::goodput(&summaries, spec.limit_ms),
    );

    // Counts from the nominal step.
    let s = &nominal_ex.stats;
    let decisions = &nominal_replay.decisions;
    out.set("serve.txns", s.transactions as f64);
    out.set(
        "serve.ops_per_txn",
        (s.submits - s.shed + s.cancels) as f64 / s.transactions as f64,
    );
    out.set("serve.shed_frac", s.shed as f64 / s.submits as f64);
    let redundant = decisions
        .iter()
        .filter(|d| d.verdict == Verdict::Redundant)
        .count();
    out.set("serve.redundant_frac", redundant as f64 / s.submits as f64);
    let bounded = decisions.iter().filter(|d| d.bound_secs.is_some()).count();
    out.set(
        "forecast.bound_frac",
        bounded as f64 / decisions.len() as f64,
    );
    let late = nominal_ex
        .late_ns
        .iter()
        .filter(|&&ns| ns > 1_000_000)
        .count();
    out.set(
        "serve.gen_late_frac",
        late as f64 / nominal_ex.late_ns.len() as f64,
    );
    harness::copy_obs_counters(&mut out, &counts);

    let records: Vec<(String, String)> = nominal_log
        .chunks(256)
        .enumerate()
        .map(|(i, lines)| (format!("log-{i}"), lines.join("\n")))
        .collect();
    all.extend(harness::probe_layers(
        args,
        &mut out,
        &nominal.reqs,
        &records,
    )?);
    harness::write_spans(args, &all)?;
    Ok(out)
}
