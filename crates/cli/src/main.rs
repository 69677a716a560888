//! `rbr` — the command-line interface to the reproduction.
//!
//! ```text
//! rbr list                          list every registered experiment
//! rbr run <name|all> [options]      run experiments through the registry
//!     --scale smoke|quick|paper     fidelity (default: quick)
//!     --seed N                      override the experiment's master seed
//!     --reps N                      override replications per configuration
//!     --format text|csv|json        output format (default: text)
//!     --jobs N                      parallel execution lanes (default:
//!                                   available parallelism; 1 = serial)
//!     --out DIR                     campaign directory: write <name>.<ext>
//!                                   files + a crash-safe journal there
//!     --resume DIR                  resume an interrupted campaign, replaying
//!                                   journalled cells and running the rest
//!     --cache DIR                   shared cell cache: reuse identical cells
//!                                   computed by any previous campaign
//! rbr audit <name|all> [options]    run experiments under the invariant
//!     --scale smoke|quick|paper     auditor and report any violations
//!     --seed N                      (default scale: smoke)
//! rbr obs trace <file>              fold a trace into a phase breakdown
//! rbr obs metrics <file> [--format] render a metrics snapshot
//! rbr capacity [--iat SECS]        the Section 4 capacity arithmetic
//! rbr swf-export <path> [--hours H] export a synthetic SWF trace
//! rbr throughput                   native scheduler submit/cancel rates
//! rbr serve [options]              run the batching metascheduler service
//!     --addr HOST:PORT              listen address (default 127.0.0.1:7206)
//!     --batch N                     ops per transaction (default 8)
//!     --deadline SECS               batch flush deadline (default 30)
//!     --clock virtual|wall          service clock (default virtual)
//!     --log PATH                    write the admission log here (default stdout)
//! rbr loadgen [options]            replay Lublin arrivals against the service
//!     --addr HOST:PORT              server address (default 127.0.0.1:7206)
//!     --jobs N                      jobs to replay (default 1000)
//!     --rate M                      arrival-rate multiple (default 1.0)
//!     --seed N                      workload seed (default 2006)
//! ```
//!
//! `run`, `audit`, and `serve` additionally accept the observability
//! flags `--trace FILE` (append JSONL trace records from `rbr-obs`) and
//! `--metrics FILE` (enable the metrics registry and write a JSON
//! snapshot at exit). Both are side channels: reports, admission logs,
//! and exit codes are byte-identical with or without them.
//!
//! Every experiment — name, description, seed, tables — comes from
//! [`Registry::standard`]; the CLI holds no experiment list of its own.
//! `run` executes on the `rbr-exec` campaign engine: experiments and
//! their replications become cells that the pool's lanes claim in index
//! order and merge in that order, so any `--jobs` count produces
//! byte-identical reports.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use rbr::experiments::campaign::{Plan, RunOptions};
use rbr::experiments::{fig5, Experiment, Registry};
use rbr::middleware::{max_redundancy, steady_state_load, SystemCapacity};
use rbr::report::{Format, Table};
use rbr::sched::Algorithm;
use rbr::sim::{Duration, SeedSequence};
use rbr::workload::{EstimateModel, LublinConfig, LublinModel, SwfTrace};
use rbr::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("list") => {
            let registry = Registry::standard();
            let mut t = Table::new(vec!["name", "section", "description"]);
            for e in registry.iter() {
                t.push(vec![e.name(), e.paper_section(), e.description()]);
            }
            print!("{}", t.render());
            println!("\nrun one with `rbr run <name>`, or everything with `rbr run all`");
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(name) = it.next() else {
                eprintln!(
                    "usage: rbr run <name|all> [--scale S] [--seed N] [--reps N] [--format F] \
                     [--jobs N] [--out DIR] [--resume DIR] [--cache DIR]"
                );
                return ExitCode::FAILURE;
            };
            exit_code(run_command(name, &args))
        }
        Some("audit") => {
            let Some(name) = it.next() else {
                eprintln!("usage: rbr audit <name|all> [--scale S] [--seed N]");
                return ExitCode::FAILURE;
            };
            exit_code(audit_command(name, &args))
        }
        Some("capacity") => {
            exit_code(parse_number(&args, "--iat", 5.0, false, f64::MAX).map(capacity))
        }
        Some("swf-export") => {
            let Some(path) = it.next() else {
                eprintln!("usage: rbr swf-export <path> [--hours H]");
                return ExitCode::FAILURE;
            };
            exit_code(swf_export(path, &args))
        }
        Some("throughput") => {
            throughput();
            ExitCode::SUCCESS
        }
        Some("obs") => exit_code(obs_command(&args)),
        Some("serve") => exit_code(serve_command(&args)),
        Some("loadgen") => exit_code(loadgen_command(&args)),
        Some("--help") | Some("-h") | None => {
            println!(
                "rbr — reproduction of 'On the Harmfulness of Redundant Batch Requests' (HPDC'06)\n\n\
                 commands:\n  \
                 list                           list registered experiments\n  \
                 run <name|all> [options]       run experiments via the registry\n    \
                 --scale smoke|quick|paper    fidelity (default: quick)\n    \
                 --seed N                     override the master seed\n    \
                 --reps N                     override replications per config\n    \
                 --format text|csv|json       output format (default: text)\n    \
                 --jobs N                     parallel lanes (default: available cores)\n    \
                 --out DIR                    campaign dir: <name>.<ext> files + journal\n    \
                 --resume DIR                 resume an interrupted campaign from its journal\n    \
                 --cache DIR                  shared cell cache across campaigns\n  \
                 audit <name|all> [options]     run experiments under the invariant auditor\n    \
                 --scale smoke|quick|paper    fidelity (default: smoke)\n    \
                 --seed N                     override the master seed\n  \
                 obs trace <file>               fold a --trace file into a phase breakdown\n  \
                 obs metrics <file> [--format]  render a --metrics snapshot (text|csv|json)\n  \
                 capacity [--iat SECS]          Section 4 capacity arithmetic\n  \
                 swf-export <path> [--hours H]  export a synthetic SWF trace\n  \
                 throughput                     native scheduler throughput sweep\n  \
                 serve [options]                batching metascheduler service\n    \
                 --addr HOST:PORT             listen address (default 127.0.0.1:7206)\n    \
                 --batch N                    ops per transaction (default 8)\n    \
                 --deadline SECS              batch flush deadline (default 30)\n    \
                 --clock virtual|wall         service clock (default virtual)\n    \
                 --log PATH                   admission log file (default stdout)\n  \
                 loadgen [options]              replay Lublin arrivals against serve\n    \
                 --addr HOST:PORT             server address (default 127.0.0.1:7206)\n    \
                 --jobs N                     jobs to replay (default 1000)\n    \
                 --rate M                     arrival-rate multiple (default 1.0)\n    \
                 --seed N                     workload seed (default 2006)\n\n\
                 run, audit, and serve also accept --trace FILE (JSONL trace records)\n\
                 and --metrics FILE (JSON metrics snapshot at exit); both are side\n\
                 channels that never change reports or exit codes."
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}; try `rbr --help`");
            ExitCode::FAILURE
        }
    }
}

/// Maps a command's result to the process exit code, printing the error.
fn exit_code(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Resolves the run flags and dispatches `name` (or every entry, for
/// `all`) through the registry, as one campaign on the `rbr-exec`
/// engine: each experiment is a cell, journalled under `--out`/`--resume`
/// and executed across `--jobs` lanes with a fixed merge order.
fn run_command(name: &str, args: &[String]) -> Result<(), String> {
    let obs_metrics = obs_setup(args)?;
    let scale = parse_scale(args)?;
    let format = parse_format(args)?;
    let seed = parse_seed(args)?;
    let reps = parse_reps(args)?;
    if let Some(jobs) = parse_jobs(args)? {
        if !rbr_exec::configure(jobs) {
            return Err("--jobs must be set before the execution pool starts".to_string());
        }
    }
    let (dir, resume) = campaign_dir(args)?;
    let cache = match flag_value(args, "--cache")? {
        None => None,
        Some(c) => {
            std::fs::create_dir_all(c).map_err(|e| format!("cannot create {c}: {e}"))?;
            Some(PathBuf::from(c))
        }
    };
    let registry = Registry::standard();

    let experiments: Vec<&dyn Experiment> = if name == "all" {
        registry.iter().collect()
    } else {
        match registry.get(name) {
            Some(e) => vec![e],
            None => return Err(format!("unknown experiment {name:?}; try `rbr list`")),
        }
    };
    let plan = Plan {
        experiments,
        scale,
        seed,
        reps,
        format,
    };
    let total = plan.experiments.len();
    eprintln!(
        "campaign: {total} experiment(s) at {} scale, {} lane(s){}",
        scale.name(),
        rbr_exec::pool::global().jobs(),
        match &dir {
            Some(d) if resume => format!(", resuming from {}", d.display()),
            Some(d) => format!(", journal in {}", d.display()),
            None => String::new(),
        }
    );

    let options = RunOptions {
        dir: dir.clone(),
        resume,
        cell_budget: None,
        cache: cache.clone(),
    };
    let before = rbr_exec::pool::global().metrics();
    // Stream the campaign: each cell's payload is written (or printed)
    // the moment it is delivered in cell order, so `rbr run` never holds
    // the full result set in memory.
    let stats = rbr::experiments::campaign::run_streaming(
        &plan,
        &options,
        |outcome: rbr_exec::CellOutcome| match &dir {
            None => {
                print!("{}", outcome.payload);
                Ok(())
            }
            Some(d) => {
                let path = d.join(format!("{}.{}", outcome.key, format.extension()));
                std::fs::write(&path, &outcome.payload)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
                Ok(())
            }
        },
        &|p| {
            if p.replayed {
                progress_line(format!(
                    "[{}/{}] {} replayed from journal",
                    p.done, p.total, p.key
                ));
            } else if p.cached {
                progress_line(format!(
                    "[{}/{}] {} served from cell cache",
                    p.done, p.total, p.key
                ));
            } else {
                progress_line(format!(
                    "[{}/{}] {} finished in {:.2}s ({:.2} cells/s, ETA {:.0}s)",
                    p.done, p.total, p.key, p.cell_secs, p.cells_per_sec, p.eta_secs
                ));
            }
        },
    )?;
    let after = rbr_exec::pool::global().metrics();

    if stats.replayed > 0 {
        eprintln!(
            "resume: {} cell(s) replayed ({} via footer index, {} by segment scan)",
            stats.replayed, stats.replay_indexed, stats.replay_scanned
        );
    }
    if cache.is_some() {
        eprintln!(
            "cell cache: {} hit(s), {} computed",
            stats.cache_hits,
            stats.executed - stats.cache_hits
        );
    }
    if after.jobs > 1 {
        after.publish();
        let busy = after.since(&before);
        eprintln!(
            "pool: {} lanes, {} cell(s) executed, {} replayed",
            after.jobs, stats.executed, stats.replayed
        );
        for (w, frac) in busy.iter().enumerate() {
            let cells = after.cells_executed.get(w).copied().unwrap_or(0)
                - before.cells_executed.get(w).copied().unwrap_or(0);
            eprintln!("  worker {w}: {:3.0}% busy, {cells} cell(s)", frac * 100.0);
        }
    }
    obs_finish(obs_metrics)
}

/// Resolves `--out`/`--resume` into the campaign directory and whether
/// to replay its journal. `--resume DIR` implies `--out DIR`; giving
/// both with different directories is an error.
fn campaign_dir(args: &[String]) -> Result<(Option<PathBuf>, bool), String> {
    let out = flag_value(args, "--out")?;
    let resume = flag_value(args, "--resume")?;
    match (out, resume) {
        (Some(o), Some(r)) if o != r => Err(format!(
            "--out {o} and --resume {r} name different directories; pass just --resume"
        )),
        (_, Some(r)) => {
            std::fs::create_dir_all(r).map_err(|e| format!("cannot create {r}: {e}"))?;
            Ok((Some(PathBuf::from(r)), true))
        }
        (Some(o), None) => {
            std::fs::create_dir_all(o).map_err(|e| format!("cannot create {o}: {e}"))?;
            Ok((Some(PathBuf::from(o)), false))
        }
        (None, None) => Ok((None, false)),
    }
}

/// Runs `name` (or every registry entry, for `all`) with the runtime
/// invariant auditor attached, printing any violations with their event
/// traces. Exits non-zero when any run is dirty. Audits default to smoke
/// scale: the auditor checks every scheduling decision, so the cheapest
/// fidelity already exercises every invariant.
fn audit_command(name: &str, args: &[String]) -> Result<(), String> {
    let obs_metrics = obs_setup(args)?;
    let scale = match flag_value(args, "--scale")? {
        None => Scale::Smoke,
        Some(s) => {
            Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?} (smoke|quick|paper)"))?
        }
    };
    let seed = parse_seed(args)?;
    let registry = Registry::standard();
    if name != "all" && registry.get(name).is_none() {
        return Err(format!("unknown experiment {name:?}; try `rbr list`"));
    }

    rbr_audit::sink::install();
    let mut total_violations = 0usize;
    for exp in registry.iter() {
        if name != "all" && registry.get(name).map(|e| e.name()) != Some(exp.name()) {
            continue;
        }
        let seed = seed.unwrap_or_else(|| exp.default_seed());
        eprintln!(
            "auditing {} at {} scale (seed {seed})...",
            exp.name(),
            scale.name()
        );
        let _ = exp.run_with(scale, seed, None);
        let violations = rbr_audit::sink::harvest();
        if violations.is_empty() {
            println!("{}: clean", exp.name());
        } else {
            total_violations += violations.len();
            println!(
                "{}: {} invariant violation(s)",
                exp.name(),
                violations.len()
            );
            for v in &violations {
                println!("{v}");
            }
        }
    }
    rbr_audit::sink::uninstall();
    obs_finish(obs_metrics)?;
    if total_violations > 0 {
        Err(format!(
            "{total_violations} invariant violation(s) detected"
        ))
    } else {
        Ok(())
    }
}

fn parse_scale(args: &[String]) -> Result<Scale, String> {
    match flag_value(args, "--scale")? {
        None => Ok(Scale::from_env(Scale::Quick)),
        Some(s) => {
            Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?} (smoke|quick|paper)"))
        }
    }
}

fn parse_format(args: &[String]) -> Result<Format, String> {
    match flag_value(args, "--format")? {
        None => Ok(Format::Text),
        Some(f) => Format::parse(f).ok_or_else(|| format!("unknown format {f:?} (text|csv|json)")),
    }
}

fn parse_seed(args: &[String]) -> Result<Option<u64>, String> {
    match flag_value(args, "--seed")? {
        None => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("bad seed {s:?}: {e}")),
    }
}

fn parse_reps(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--reps")? {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Err("--reps must be at least 1".to_string()),
            Ok(n) => Ok(Some(n)),
            Err(e) => Err(format!("bad rep count {s:?}: {e}")),
        },
    }
}

fn parse_jobs(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--jobs")? {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Err("--jobs must be at least 1".to_string()),
            Ok(n) => Ok(Some(n)),
            Err(e) => Err(format!("bad job count {s:?}: {e}")),
        },
    }
}

/// The token after `flag`, or `None` when `flag` is absent. A flag given
/// last, with no value after it, is an error rather than a silent default.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// The longest span the command line takes (`--hours`, `--deadline`):
/// 10⁸ hours, far inside what the simulated clock holds (u64
/// microseconds, about 5·10⁹ hours), so a span plus an instant cannot
/// overflow it.
const MAX_SPAN_SECS: f64 = 3.6e11;

/// The number after `flag`, or `default` when `flag` is absent. The value
/// must be finite, greater than 0 (at least 0 when `zero_ok`) and at most
/// `max`; anything else is an error that names the flag.
fn parse_number(
    args: &[String],
    flag: &str,
    default: f64,
    zero_ok: bool,
    max: f64,
) -> Result<f64, String> {
    let Some(s) = flag_value(args, flag)? else {
        return Ok(default);
    };
    let in_floor = |v: &f64| v.is_finite() && (*v > 0.0 || zero_ok && *v == 0.0);
    let floor = if zero_ok { "at least" } else { "above" };
    match s.parse::<f64>().ok().filter(in_floor) {
        Some(v) if v <= max => Ok(v),
        Some(_) => Err(format!("{flag} takes at most {max}, not {s:?}")),
        None => Err(format!("{flag} takes a finite number {floor} 0, not {s:?}")),
    }
}

/// Resolves the shared observability flags: `--trace FILE` attaches the
/// JSONL trace sink, `--metrics FILE` enables the metrics registry.
/// Returns the metrics path for [`obs_finish`] to snapshot into.
fn obs_setup(args: &[String]) -> Result<Option<PathBuf>, String> {
    if let Some(path) = flag_value(args, "--trace")? {
        rbr_obs::trace::start_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
    }
    let metrics = flag_value(args, "--metrics")?.map(PathBuf::from);
    if metrics.is_some() {
        rbr_obs::metrics::set_enabled(true);
    }
    Ok(metrics)
}

/// Detaches the trace sink and writes the metrics snapshot (as JSON,
/// the format `rbr obs metrics` reads back) if `--metrics` was given.
fn obs_finish(metrics: Option<PathBuf>) -> Result<(), String> {
    rbr_obs::trace::stop().map_err(|e| format!("cannot flush trace: {e}"))?;
    if let Some(path) = metrics {
        let snap = rbr_obs::metrics::snapshot();
        std::fs::write(&path, snap.render_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        progress_line(format!("wrote metrics snapshot to {}", path.display()));
    }
    Ok(())
}

/// `rbr obs trace <file>` folds a trace into a per-phase time
/// breakdown; `rbr obs metrics <file> [--format F]` renders a snapshot.
fn obs_command(args: &[String]) -> Result<(), String> {
    let usage = "usage: rbr obs trace <file> | rbr obs metrics <file> [--format text|csv|json]";
    let mut it = args.iter().skip(1);
    match (it.next().map(String::as_str), it.next()) {
        (Some("trace"), Some(path)) => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let summary = rbr_obs::report::fold_trace(std::io::BufReader::new(file))
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            print!("{}", summary.render());
            Ok(())
        }
        (Some("metrics"), Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let snap = rbr_obs::report::parse_snapshot(&text)
                .map_err(|e| format!("{path} is not a metrics snapshot: {e}"))?;
            match parse_format(args)? {
                Format::Text => print!("{}", snap.render_text()),
                Format::Csv => print!("{}", snap.render_csv()),
                Format::Json => print!("{}", snap.render_json()),
            }
            Ok(())
        }
        _ => Err(usage.to_string()),
    }
}

/// Emits one progress line as a single `write` syscall on the locked
/// stderr handle. `eprintln!` renders its format arguments piecewise,
/// so concurrent writers (campaign lanes, a piped `rbr serve`) can
/// interleave mid-line; staging the full line first keeps logs atomic.
fn progress_line(line: String) {
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(format!("{line}\n").as_bytes());
    let _ = err.flush();
}

/// Runs the batching metascheduler service until a client drains it.
fn serve_command(args: &[String]) -> Result<(), String> {
    let obs_metrics = obs_setup(args)?;
    let addr = flag_value(args, "--addr")?.unwrap_or("127.0.0.1:7206");
    let batch = match flag_value(args, "--batch")? {
        None => 8u32,
        Some(s) => match s.parse::<u32>() {
            Ok(0) => return Err("--batch must be at least 1".to_string()),
            Ok(n) => n,
            Err(e) => return Err(format!("bad batch size {s:?}: {e}")),
        },
    };
    let deadline = parse_number(args, "--deadline", 30.0, true, MAX_SPAN_SECS)?;
    if batch > 1 && deadline == 0.0 {
        return Err("--deadline must be positive when --batch > 1".to_string());
    }
    let clock = match flag_value(args, "--clock")? {
        None => rbr_serve::ClockMode::Virtual,
        Some(s) => rbr_serve::ClockMode::parse(s)
            .ok_or_else(|| format!("unknown clock {s:?} (virtual|wall)"))?,
    };
    let spec = if batch > 1 {
        rbr::grid::BatchSpec::of(batch, Duration::from_secs(deadline))
    } else {
        rbr::grid::BatchSpec::default()
    };
    let config = rbr_serve::ServerConfig {
        batch: spec,
        admission: rbr_serve::AdmissionConfig {
            batch,
            ..rbr_serve::AdmissionConfig::default()
        },
        clock,
    };
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    progress_line(format!(
        "serving on {local} (batch {batch}, deadline {deadline}s, {clock:?} clock, \
         {:.3} copies/s budget)",
        rbr_serve::AdmissionController::new(config.admission.clone()).rate()
    ));
    // A drain-leak error must still flush the trace and snapshot (the
    // leak count lives in the `serve.drain_leaks` metric).
    let stats = match rbr_serve::serve(listener, &config) {
        Ok(stats) => stats,
        Err(e) => {
            obs_finish(obs_metrics)?;
            return Err(e);
        }
    };
    progress_line(format!(
        "drained: {} submit(s), {} cancel(s), {} ack(s), {} transaction(s), {} shed, \
         {} protocol error(s) ({} ack(s) abandoned)",
        stats.submits,
        stats.cancels,
        stats.acks,
        stats.transactions,
        stats.shed,
        stats.protocol_errors,
        stats.abandoned_acks
    ));
    let log = stats.admission_log.join("\n") + "\n";
    match flag_value(args, "--log")? {
        None => print!("{log}"),
        Some(path) => {
            std::fs::write(path, log).map_err(|e| format!("cannot write {path}: {e}"))?;
            progress_line(format!("wrote admission log to {path}"));
        }
    }
    obs_finish(obs_metrics)
}

/// Replays a Lublin arrival stream against a running service.
fn loadgen_command(args: &[String]) -> Result<(), String> {
    let jobs = match flag_value(args, "--jobs")? {
        None => 1_000usize,
        Some(s) => match s.parse::<usize>() {
            Ok(0) => return Err("--jobs must be at least 1".to_string()),
            Ok(n) => n,
            Err(e) => return Err(format!("bad job count {s:?}: {e}")),
        },
    };
    let rate = parse_number(args, "--rate", 1.0, false, f64::MAX)?;
    let config = rbr_serve::LoadgenConfig {
        addr: flag_value(args, "--addr")?
            .unwrap_or("127.0.0.1:7206")
            .to_string(),
        jobs,
        rate,
        seed: parse_seed(args)?.unwrap_or(2006),
    };
    let stats = rbr_serve::loadgen::run(&config)?;
    progress_line(format!(
        "replayed {} job(s) at {rate}x: {} redundant, {} single, {} shed, \
         {} transaction(s), clean drain",
        stats.submits, stats.redundant, stats.single, stats.shed, stats.transactions
    ));
    Ok(())
}

fn capacity(iat: f64) {
    let sys = SystemCapacity::paper_2006();
    println!("interarrival time: {iat} s per cluster\n");
    let mut t = Table::new(vec!["component", "max sustainable redundancy r"]);
    for (component, r) in sys.max_redundancy_per_component(iat) {
        t.push(vec![format!("{component:?}"), format!("{r:.1}")]);
    }
    print!("{}", t.render());
    let (bottleneck, rate) = sys.bottleneck();
    println!("\nbottleneck: {bottleneck:?} ({rate:.2} submissions/s)");
    println!("system-wide: r < {:.1}", sys.max_redundancy(iat));
    println!();
    for r in [1.0, 3.0, 30.0] {
        let load = steady_state_load(r, iat);
        println!(
            "r = {r:2.0}: {:.2} submissions/s + {:.2} cancellations/s per cluster",
            load.submissions_per_sec, load.cancellations_per_sec
        );
    }
    let _ = max_redundancy(iat, 6.0);
}

fn swf_export(path: &str, args: &[String]) -> Result<(), String> {
    let hours = parse_number(args, "--hours", 1.0, false, MAX_SPAN_SECS / 3600.0)?;
    let model = LublinModel::new(LublinConfig::paper_2006());
    let jobs = model.generate(
        &mut SeedSequence::new(2006).rng(),
        Duration::from_secs(hours * 3600.0),
        &EstimateModel::paper_real(),
    );
    let trace = SwfTrace::from_jobs(
        &jobs,
        vec![
            "Synthetic trace from the calibrated Lublin model".to_string(),
            "Computer: rbr 128-node cluster".to_string(),
            format!("Hours: {hours}"),
        ],
    );
    std::fs::write(path, trace.to_swf()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {} jobs to {path}", jobs.len());
    Ok(())
}

fn throughput() {
    let mut t = Table::new(vec![
        "queue size",
        "EASY pairs/s",
        "CBF pairs/s",
        "FCFS pairs/s",
    ]);
    for q in [0usize, 1_000, 5_000, 10_000, 20_000] {
        let mut row = vec![q.to_string()];
        for alg in [Algorithm::Easy, Algorithm::Cbf, Algorithm::Fcfs] {
            row.push(format!("{:.0}", fig5::native_throughput(alg, q, 500, 7)));
        }
        t.push(row);
    }
    print!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_value_finds_following_token() {
        let a = args(&["run", "fig1", "--scale", "paper"]);
        assert_eq!(flag_value(&a, "--scale"), Ok(Some("paper")));
        assert_eq!(flag_value(&a, "--iat"), Ok(None));
        // A flag at the end with no value is an error, not a default.
        let b = args(&["capacity", "--iat"]);
        assert_eq!(
            flag_value(&b, "--iat"),
            Err("--iat needs a value".to_string())
        );
        assert!(parse_scale(&args(&["run", "fig1", "--scale"])).is_err());
    }

    #[test]
    fn parse_scale_accepts_all_levels() {
        assert_eq!(
            parse_scale(&args(&["--scale", "smoke"])).unwrap(),
            Scale::Smoke
        );
        assert_eq!(
            parse_scale(&args(&["--scale", "quick"])).unwrap(),
            Scale::Quick
        );
        assert_eq!(
            parse_scale(&args(&["--scale", "paper"])).unwrap(),
            Scale::Paper
        );
        assert!(parse_scale(&args(&["--scale", "huge"])).is_err());
    }

    #[test]
    fn parse_format_accepts_all_formats() {
        assert_eq!(parse_format(&args(&[])).unwrap(), Format::Text);
        assert_eq!(
            parse_format(&args(&["--format", "csv"])).unwrap(),
            Format::Csv
        );
        assert_eq!(
            parse_format(&args(&["--format", "json"])).unwrap(),
            Format::Json
        );
        assert!(parse_format(&args(&["--format", "xml"])).is_err());
    }

    #[test]
    fn parse_seed_accepts_integers_only() {
        assert_eq!(parse_seed(&args(&[])).unwrap(), None);
        assert_eq!(parse_seed(&args(&["--seed", "7"])).unwrap(), Some(7));
        assert!(parse_seed(&args(&["--seed", "x"])).is_err());
    }

    #[test]
    fn parse_reps_accepts_positive_integers_only() {
        assert_eq!(parse_reps(&args(&[])).unwrap(), None);
        assert_eq!(parse_reps(&args(&["--reps", "12"])).unwrap(), Some(12));
        assert!(parse_reps(&args(&["--reps", "0"])).is_err());
        assert!(parse_reps(&args(&["--reps", "x"])).is_err());
    }

    #[test]
    fn parse_number_parses_numbers_and_defaults_when_absent() {
        let iat = |a: &[&str]| parse_number(&args(a), "--iat", 5.0, false, f64::MAX);
        assert_eq!(iat(&["capacity", "--iat", "2.5"]), Ok(2.5));
        assert_eq!(iat(&["capacity"]), Ok(5.0));
        let deadline = |v| parse_number(&args(&["--deadline", v]), "--deadline", 30.0, true, 60.0);
        assert_eq!(deadline("0"), Ok(0.0));
        assert_eq!(deadline("60"), Ok(60.0));
    }

    #[test]
    fn parse_number_rejects_malformed_non_finite_and_out_of_range_values() {
        // Every rejection names the flag, so the user sees what to fix.
        let rejects = |flag: &str, v: &str, zero_ok: bool, max: f64| {
            let err = parse_number(&args(&["cmd", flag, v]), flag, 1.0, zero_ok, max).unwrap_err();
            assert!(err.starts_with(flag), "{flag} {v}: {err}");
        };
        for v in ["x", "", "2x", "nan", "NaN", "inf", "-inf", "0", "-0", "-1"] {
            rejects("--iat", v, false, f64::MAX);
            rejects("--rate", v, false, f64::MAX);
            rejects("--hours", v, false, 1e8);
        }
        for v in ["x", "nan", "inf", "-1", "1e300"] {
            rejects("--deadline", v, true, MAX_SPAN_SECS);
        }
        rejects("--hours", "1e9", false, 1e8);
        // A value flag given last has no value to parse.
        let err = parse_number(&args(&["capacity", "--iat"]), "--iat", 5.0, false, f64::MAX);
        assert_eq!(err, Err("--iat needs a value".to_string()));
    }

    #[test]
    fn commands_reject_bad_numbers_before_doing_anything() {
        let swf = std::env::temp_dir().join(format!("rbr-cli-bad-{}.swf", std::process::id()));
        let swf = swf.to_string_lossy().into_owned();
        for a in [
            &["swf-export", "--hours", "-1"][..],
            &["swf-export", "--hours"],
        ] {
            assert!(swf_export(&swf, &args(a)).is_err(), "{a:?}");
        }
        assert!(!std::path::Path::new(&swf).exists());
        for deadline in ["nan", "0", "-5"] {
            let a = args(&["serve", "--batch", "8", "--deadline", deadline]);
            assert!(serve_command(&a).is_err(), "--deadline {deadline}");
        }
        assert!(serve_command(&args(&["serve", "--addr"])).is_err());
        for a in [
            &["loadgen", "--rate", "nan"][..],
            &["loadgen", "--rate", "0"],
            &["loadgen", "--rate"],
        ] {
            assert!(loadgen_command(&args(a)).is_err(), "{a:?}");
        }
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs(&args(&[])).unwrap(), None);
        assert_eq!(parse_jobs(&args(&["--jobs", "4"])).unwrap(), Some(4));
        assert!(parse_jobs(&args(&["--jobs", "0"])).is_err());
        assert!(parse_jobs(&args(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn campaign_dir_resolves_out_and_resume() {
        let base = std::env::temp_dir().join(format!("rbr-cli-campaign-{}", std::process::id()));
        let dir = base.to_string_lossy().into_owned();
        assert_eq!(campaign_dir(&args(&[])).unwrap(), (None, false));
        assert_eq!(
            campaign_dir(&args(&["--out", &dir])).unwrap(),
            (Some(base.clone()), false)
        );
        assert_eq!(
            campaign_dir(&args(&["--resume", &dir])).unwrap(),
            (Some(base.clone()), true)
        );
        // --resume implies --out of the same directory; both is fine…
        assert_eq!(
            campaign_dir(&args(&["--out", &dir, "--resume", &dir])).unwrap(),
            (Some(base.clone()), true)
        );
        // …but two different directories is a contradiction.
        assert!(campaign_dir(&args(&["--out", &dir, "--resume", "/elsewhere"])).is_err());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_command_rejects_unknown_names() {
        assert!(run_command("nope", &args(&["run", "nope"])).is_err());
    }

    #[test]
    fn audit_command_rejects_unknown_names_and_scales() {
        assert!(audit_command("nope", &args(&["audit", "nope"])).is_err());
        assert!(audit_command("fig1", &args(&["audit", "fig1", "--scale", "huge"])).is_err());
    }

    #[test]
    fn the_old_cli_names_still_resolve() {
        // Every name the pre-registry CLI accepted must keep working.
        let registry = Registry::standard();
        for name in [
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "table1",
            "table2",
            "table3",
            "table4",
            "queue-growth",
            "conclusion",
            "ablations",
            "forecast",
            "moldable",
            "dual-queue",
            "trace-check",
        ] {
            assert!(
                registry.get(name).is_some(),
                "{name} fell out of the registry"
            );
        }
    }
}
