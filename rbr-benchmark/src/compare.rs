//! `compare PARENT_DIR CHANGE_DIR`: verdicts per (workload, metric)
//! between two sets of runs written by `run --out`.
//!
//! Run `k` of the parent pairs with run `k` of the change. A metric
//! **improved** when the change wins at least nine tenths of the pairs
//! (ties count for neither) and the medians differ by more than the
//! parent's interquartile range. Otherwise it **regressed** when the
//! change's median is worse by more than the metric's bound, even when
//! the runs are noisy; it is **unresolved** when the parent's own spread
//! is wider than the bound and not every change run beats every parent
//! run; and it is **no worse** otherwise. A change with a higher error
//! fraction than the parent always regresses, and so does a metric that
//! a change run lacks where its parent run has it (a crashed run).
//!
//! Both directories must hold the same number of runs of every
//! workload; anything else is an error, not a skipped workload.

use std::path::Path;

use rbr_obs::report::{parse_json, Json};

use crate::spec::{self, Metric};
use crate::stats;

/// A verdict on one (workload, metric) pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pairwise rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from the parent's and the change's runs (paired
/// by index).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let iqr = if parent.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(parent);
        q3 - q1
    } else {
        0.0
    };
    if pairs > 0 && 10 * wins >= 9 * pairs && better(cm, pm) && (cm - pm).abs() > iqr {
        return Verdict::Improved;
    }
    let worse_by = if lower_is_better { cm - pm } else { pm - cm };
    if worse_by > bound * pm.abs() {
        return Verdict::Regressed;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if iqr > bound * pm.abs() && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::NoWorse
    }
}

/// The result line `run` files for a child that crashed (exited
/// non-zero or printed no result): one operation, failed, no metrics.
pub const CRASHED: &str = r#"{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}"#;

/// One run's result as written by `run --out`.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Whether the run's outputs passed every check.
    pub correct: bool,
    /// Failed over attempted operations.
    pub error_frac: f64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Parses a result line (the benchmark's last output line).
pub fn parse_result(text: &str) -> Result<RunResult, String> {
    let root = parse_json(text.trim())?;
    let num = |k: &str| {
        root.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result lacks {k:?}"))
    };
    let attempted = num("attempted")?;
    let failed = num("failed")?;
    let Some(&Json::Bool(correct)) = root.get("correct") else {
        return Err("result lacks \"correct\"".to_string());
    };
    let Some(Json::Obj(metrics)) = root.get("metrics") else {
        return Err("result lacks \"metrics\"".to_string());
    };
    Ok(RunResult {
        correct,
        error_frac: failed / attempted.max(1.0),
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Loads every `DIR/<workload>/run-<k>.json`, in k order. The files must
/// be numbered 0, 1, … without a gap; a workload never run has none.
pub fn load_runs(dir: &Path, workload: &str) -> Result<Vec<RunResult>, String> {
    let wdir = dir.join(workload);
    let mut ks = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&wdir) {
        for entry in entries {
            let name = entry
                .map_err(|e| format!("{}: {e}", wdir.display()))?
                .file_name();
            let name = name.to_string_lossy();
            if let Some(k) = name
                .strip_prefix("run-")
                .and_then(|n| n.strip_suffix(".json"))
            {
                ks.push(
                    k.parse::<usize>()
                        .map_err(|_| format!("{}: stray {name}", wdir.display()))?,
                );
            }
        }
    }
    ks.sort_unstable();
    if ks.iter().enumerate().any(|(i, &k)| i != k) {
        return Err(format!(
            "{}: runs are not numbered 0..{}",
            wdir.display(),
            ks.len()
        ));
    }
    ks.iter()
        .map(|k| {
            let path = wdir.join(format!("run-{k}.json"));
            std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_result(&text))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Compares every workload `BENCHMARK.json` defines; prints one row per
/// (workload, metric). Returns whether any pairing regressed.
pub fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let spec = spec::load();
    let mut regressed = false;
    println!(
        "{:<15} {:<13} {:<11} {:>14} {:>14} {:>8} {:>9} {:>5}",
        "workload",
        "metric",
        "verdict",
        "parent_median",
        "change_median",
        "delta",
        "spread",
        "wins"
    );
    for w in &spec.workloads {
        let (p, c) = (load_runs(parent, w)?, load_runs(change, w)?);
        if p.is_empty() || p.len() != c.len() {
            return Err(format!(
                "{w}: {} parent run(s) against {} change run(s); both sides need the same number, at least one",
                p.len(),
                c.len()
            ));
        }
        let error = Metric {
            name: "error_frac".to_string(),
            unit: "ratio".to_string(),
            lower_is_better: true,
            bound: Some(0.0),
        };
        for m in spec.end_to_end.iter().chain(std::iter::once(&error)) {
            let runs: Vec<(Option<f64>, Option<f64>)> = if m.name == "error_frac" {
                p.iter()
                    .zip(&c)
                    .map(|(a, b)| (Some(a.error_frac), Some(b.error_frac)))
                    .collect()
            } else {
                p.iter()
                    .zip(&c)
                    .map(|(a, b)| (a.value(&m.name), b.value(&m.name)))
                    .collect()
            };
            // A change run that lost a value its parent run has crashed.
            let lost = runs.iter().any(|r| r.0.is_some() && r.1.is_none());
            let (pv, cv): (Vec<f64>, Vec<f64>) =
                runs.iter().filter_map(|&(a, b)| Some((a?, b?))).unzip();
            let v = if lost {
                Verdict::Regressed
            } else if pv.is_empty() {
                Verdict::Unresolved
            } else if m.name == "error_frac" {
                let worst = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
                if worst(&cv) > worst(&pv) {
                    Verdict::Regressed
                } else {
                    Verdict::NoWorse
                }
            } else {
                verdict(&pv, &cv, m.lower_is_better, m.bound.unwrap_or(0.0))
            };
            regressed |= v == Verdict::Regressed;
            let (pm, cm) = (stats::median(&pv), stats::median(&cv));
            let spread = if pv.len() >= 2 && pm != 0.0 {
                stats::spread(&pv)
            } else {
                0.0
            };
            let pairs = pv.len();
            let better = |a: f64, b: f64| if m.lower_is_better { a < b } else { a > b };
            let wins = (0..pairs).filter(|&i| better(cv[i], pv[i])).count();
            let delta = if pm != 0.0 {
                (cm - pm) / pm * 100.0
            } else {
                0.0
            };
            println!(
                "{w:<15} {:<13} {:<11} {pm:>14.6e} {cm:>14.6e} {delta:>7.2}% {spread:>9.4} {wins:>2}/{pairs}",
                m.name,
                v.label(),
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(xs: &[f64]) -> Vec<f64> {
        xs.to_vec()
    }

    #[test]
    fn verdicts_on_hand_built_runs() {
        let parent = runs(&[1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]);
        // Every pair faster, medians 20% apart: improved.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.05), Verdict::Improved);
        // Higher-is-better flips the reading.
        assert_eq!(verdict(&parent, &faster, false, 0.05), Verdict::Regressed);
        // 2% slower on a 5% bound: no worse.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.02).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.05), Verdict::NoWorse);
        // 10% slower: regressed.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.10).collect();
        assert_eq!(verdict(&parent, &slow, true, 0.05), Verdict::Regressed);
        // Wins 8 of 10 only: not improved, merely no worse.
        let mut mixed = faster.clone();
        mixed[0] = 1.5;
        mixed[1] = 1.5;
        assert_eq!(verdict(&parent, &mixed, true, 0.05), Verdict::NoWorse);
        // A parent noisier than the bound cannot resolve a small change.
        let noisy = runs(&[0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]);
        let nudged: Vec<f64> = noisy.iter().rev().map(|x| x * 1.01).collect();
        assert_eq!(verdict(&noisy, &nudged, true, 0.05), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let far = runs(&[0.1; 10]);
        assert_eq!(verdict(&noisy, &far, true, 0.05), Verdict::Improved);
        // A median worse by more than the bound regresses however noisy.
        let worse: Vec<f64> = noisy.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&noisy, &worse, true, 0.05), Verdict::Regressed);
    }

    #[test]
    fn result_lines_parse() {
        let r = parse_result(
            r#"{"correct": true, "attempted": 40, "failed": 2, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}"#,
        )
        .expect("parses");
        assert_eq!(r.error_frac, 0.05);
        assert!(r.correct);
        assert_eq!(r.metrics, vec![("wall_s".to_string(), 1.5)]);
        let crashed = parse_result(CRASHED).expect("parses");
        assert!(!crashed.correct);
        assert_eq!(crashed.error_frac, 1.0);
        assert!(crashed.metrics.is_empty());
    }

    /// Writes `runs` result lines for every workload under `dir`; a
    /// `None` line leaves that run's file out.
    fn write_set(dir: &Path, runs: &[Option<&str>]) {
        for w in spec::load().workloads {
            let wdir = dir.join(&w);
            std::fs::create_dir_all(&wdir).expect("mkdir");
            for (k, line) in runs.iter().enumerate() {
                if let Some(line) = line {
                    std::fs::write(wdir.join(format!("run-{k}.json")), line).expect("write");
                }
            }
        }
    }

    /// A clean result line with every end-to-end metric at `value`.
    fn clean(value: f64) -> String {
        let metrics: Vec<String> = spec::load()
            .end_to_end
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    #[test]
    fn compare_on_hand_built_directories() {
        let root =
            std::env::temp_dir().join(format!("rbr-benchmark-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (a, b, c, d) = (clean(1.0), clean(1.01), clean(0.99), clean(1.0));
        let parent = root.join("parent");
        write_set(&parent, &[Some(&a), Some(&b), Some(&c)]);

        // The same runs: nothing regressed.
        let same = root.join("same");
        write_set(&same, &[Some(&d), Some(&c), Some(&b)]);
        assert_eq!(compare(&parent, &same), Ok(false));

        // A crashed change run regresses, though its siblings are fine.
        let crashed = root.join("crashed");
        write_set(&crashed, &[Some(&d), Some(CRASHED), Some(&b)]);
        assert_eq!(compare(&parent, &crashed), Ok(true));

        // A change with fewer runs, or none, is an error, not a skip.
        let short = root.join("short");
        write_set(&short, &[Some(&d), Some(&c)]);
        assert!(compare(&parent, &short).is_err());
        assert!(compare(&parent, &root.join("absent")).is_err());

        // So is a gap in a side's run numbers.
        let gap = root.join("gap");
        write_set(&gap, &[Some(&d), None, Some(&b), Some(&c)]);
        assert!(load_runs(&gap, "grid-easy").is_err());
        assert!(compare(&parent, &gap).is_err());

        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
