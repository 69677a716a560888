//! The `rbr-benchmark` command line.
//!
//! ```text
//! rbr-benchmark --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! rbr-benchmark run --seed N --out DIR [--trace FILE] [--runs R]
//! rbr-benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! The first form runs one workload and prints `workload metric value
//! unit` lines, then one JSON result line. `run` runs workloads one at a
//! time, each in a fresh child process, and writes each result line to
//! `DIR/<workload>/run-<k>.json` (`trace-<k>.json` for traced re-runs,
//! whose spans go to FILE). `compare` judges two such directories.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use rbr_benchmark::harness::Args;
use rbr_benchmark::{compare, compare::parse_result, run_workload, spec};

#[global_allocator]
static HEAP: rbr_benchmark::alloc::Counting = rbr_benchmark::alloc::Counting;

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(argv: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(argv, name).ok_or_else(|| format!("missing {name}"))
}

fn parse<T: std::str::FromStr>(argv: &[String], name: &str) -> Result<T, String> {
    let raw = required(argv, name)?;
    raw.parse().map_err(|_| format!("bad {name} {raw:?}"))
}

/// Runs one workload and prints its result.
fn single(argv: &[String]) -> Result<(), String> {
    let spec = spec::load();
    let workload = required(argv, "--workload")?.to_string();
    if !spec.workloads.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = parse(argv, "--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match required(argv, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let args = Args {
        workload,
        seed: parse(argv, "--seed")?,
        seconds,
        trace,
        spans: flag(argv, "--spans").map(PathBuf::from),
    };
    let mut outcome = run_workload(&args)?;
    let _ = std::fs::remove_dir(".bench_out");
    let w = &args.workload;

    if let (Some(d), Some(expected)) = (outcome.digest, spec.digests.get(&(w.clone(), args.seed))) {
        let got = format!("{d:016x}");
        outcome.check(&got == expected, || {
            format!("pass-0 digest {got} differs from the expected {expected}")
        });
    }
    let defined = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| !defined.iter().any(|m| &m.name == *k))
    {
        return Err(format!("{stray} is not a metric BENCHMARK.json defines"));
    }
    for (name, value, unit) in &outcome.notes {
        println!("{w} {name} {value} {unit}");
    }
    if let Some(d) = outcome.digest {
        println!("{w} digest {d:016x} hex");
    }
    let mut json = Vec::new();
    for m in defined {
        // A layer the workload does not drive reports zero work.
        let value = match outcome.metrics.get(&m.name) {
            Some(&v) => v,
            None if ["count", "ratio", "1/s"].contains(&m.unit.as_str()) => 0.0,
            None => return Err(format!("{} was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} measured {value}", m.name));
        }
        println!("{w} {} {value} {}", m.name, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    for f in &outcome.failures {
        eprintln!("{w}: check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty() && outcome.failed() == 0,
        outcome.attempted.max(1),
        outcome.failed(),
        json.join(", ")
    );
    Ok(())
}

/// Runs one child and files its result line; returns whether it ran
/// clean. A child that exits non-zero or prints no result line is filed
/// as [`compare::CRASHED`], so a crash reads as a failed run rather than
/// a missing one.
fn child(exe: &Path, flags: &[&str], file: &Path) -> Result<bool, String> {
    let output = Command::new(exe)
        .args(flags)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    let (result, correct) = match parse_result(last) {
        Ok(r) if output.status.success() => (last, r.correct),
        _ => {
            println!("{last}");
            eprintln!(
                "rbr-benchmark: {} {} crashed",
                exe.display(),
                flags.join(" ")
            );
            (compare::CRASHED, false)
        }
    };
    std::fs::create_dir_all(file.parent().expect("result files live in a directory"))
        .and_then(|()| std::fs::write(file, format!("{result}\n")))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(correct)
}

/// `run`: every workload, `--runs` times, each in a fresh child process,
/// one at a time, for `BENCHMARK.json`'s `run_seconds`.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let spec = spec::load();
    let seed = required(argv, "--seed")?;
    seed.parse::<u64>()
        .map_err(|_| format!("bad --seed {seed:?}"))?;
    let out = PathBuf::from(required(argv, "--out")?);
    let trace = flag(argv, "--trace");
    let seconds = spec.run_seconds.to_string();
    let runs: usize =
        flag(argv, "--runs").map_or(Ok(1), |r| r.parse().map_err(|_| "bad --runs"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    if let Some(file) = trace {
        std::fs::write(file, "").map_err(|e| format!("cannot create {file}: {e}"))?;
    }
    let mut clean = true;
    for k in 0..runs {
        for w in &spec.workloads {
            let base = ["--workload", w, "--seed", seed, "--seconds", &seconds];
            let file = out.join(w).join(format!("run-{k}.json"));
            clean &= child(&exe, &[&base[..], &["--trace", "0"]].concat(), &file)?;
            if let Some(spans) = trace {
                let file = out.join(w).join(format!("trace-{k}.json"));
                let flags = [&base[..], &["--trace", "1", "--spans", spans]].concat();
                clean &= child(&exe, &flags, &file)?;
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run_all(&argv[1..]),
        Some("compare") => match &argv[1..] {
            [parent, change] => {
                compare::compare(Path::new(parent), Path::new(change)).map(|regressed| !regressed)
            }
            _ => Err("usage: rbr-benchmark compare PARENT_DIR CHANGE_DIR".to_string()),
        },
        _ => single(&argv).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rbr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
