//! The benchmark's definition: workloads, metric names, units and
//! bounds from the repository's `BENCHMARK.json`, and the pinned extras
//! (expected digests per seed, service rate steps, the latency limit,
//! the `run` / trace / `compare` command lines) from this package's
//! `spec.json`. Both are compiled in, so a run always checks against the
//! definition it was built with.

use std::collections::BTreeMap;

use rbr_obs::report::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const SPEC_JSON: &str = include_str!("../spec.json");

/// One metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Expected pass-0 digests: `(workload, seed) -> hex digest`.
    pub digests: BTreeMap<(String, u64), String>,
    /// Offered submit rates (jobs/s) of each service workload's steps.
    pub steps: BTreeMap<String, Vec<f64>>,
    /// The tail-latency limit (ms) a step must meet to count as goodput.
    pub limit_ms: f64,
}

fn metrics(root: &Json, key: &str) -> Vec<Metric> {
    let Some(Json::Arr(items)) = root.get(key) else {
        panic!("BENCHMARK.json lacks {key:?}");
    };
    items
        .iter()
        .map(|m| Metric {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric unit")
                .to_string(),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// Parses the compiled-in definition.
///
/// # Panics
/// Panics when either file is malformed — a build of this package
/// against a broken definition must not measure anything.
pub fn load() -> Spec {
    let bench = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let extra = parse_json(SPEC_JSON).expect("spec.json parses");
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let mut digests = BTreeMap::new();
    let mut steps = BTreeMap::new();
    let Some(Json::Arr(extras)) = extra.get("workloads") else {
        panic!("spec.json lacks workloads");
    };
    for w in extras {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        if let Some(Json::Obj(ds)) = w.get("digests") {
            for (seed, d) in ds {
                let seed: u64 = seed.parse().expect("digest seed");
                let d = d.as_str().expect("digest string").to_string();
                digests.insert((name.to_string(), seed), d);
            }
        }
        if let Some(Json::Arr(rates)) = w.get("steps") {
            let rates = rates
                .iter()
                .map(|r| r.as_f64().expect("step rate"))
                .collect();
            steps.insert(name.to_string(), rates);
        }
    }
    Spec {
        workloads: workloads
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect(),
        run_seconds: bench
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds"),
        end_to_end: metrics(&bench, "end_to_end"),
        per_layer: metrics(&bench, "per_layer"),
        digests,
        steps,
        limit_ms: extra
            .get("limit_ms")
            .and_then(Json::as_f64)
            .expect("limit_ms"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_is_consistent() {
        let spec = load();
        assert_eq!(spec.workloads.len(), 6);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        for w in ["serve-steady", "serve-overload"] {
            let steps = &spec.steps[w];
            assert!(steps
                .windows(2)
                .all(|s| s[1] > s[0] && s[1] <= 1.25 * s[0] + 1e-9));
        }
        for w in &spec.workloads {
            assert!(
                spec.digests.contains_key(&(w.clone(), 2006)),
                "{w} seed 2006"
            );
            assert!(spec.digests.contains_key(&(w.clone(), 7)), "{w} seed 7");
        }
        // spec.json extends BENCHMARK.json's workloads, in its order, and
        // names no other.
        let bench = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let extra = parse_json(SPEC_JSON).expect("spec.json parses");
        let Some(Json::Arr(extras)) = extra.get("workloads") else {
            panic!("spec.json lacks workloads");
        };
        let names: Vec<&str> = extras
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, spec.workloads);
        // The recorded command lines extend BENCHMARK.json's command.
        let Some(Json::Arr(base)) = bench.get("command") else {
            panic!("BENCHMARK.json lacks command");
        };
        for key in ["command", "trace_command", "compare_command"] {
            let Some(Json::Arr(cmd)) = extra.get(key) else {
                panic!("spec.json lacks {key}");
            };
            assert!(
                cmd.len() > base.len() && cmd[..base.len()] == base[..],
                "{key}"
            );
        }
    }
}
