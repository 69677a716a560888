//! The consumer side of observability: fold a JSONL trace into a
//! per-phase time breakdown, and parse a metrics snapshot back from its
//! JSON form — what the `rbr obs` subcommand serves.
//!
//! Both read through [`crate::json`]; [`parse_json`] and [`Json`] are
//! re-exported here for existing importers. Trace lines that do not
//! parse are skipped and counted, so a truncated trace degrades instead
//! of failing.

use std::collections::BTreeMap;
use std::io::{self, BufRead};

pub use crate::json::{parse as parse_json, Json};
use crate::metrics::{Snapshot, Value as MetricValue};

/// Aggregate of one named span or phase across a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeAgg {
    /// Records folded in.
    pub count: u64,
    /// Total seconds.
    pub secs: f64,
    /// Largest single record, seconds.
    pub max_secs: f64,
}

impl TimeAgg {
    fn fold(&mut self, secs: f64) {
        self.count += 1;
        self.secs += secs;
        if secs > self.max_secs {
            self.max_secs = secs;
        }
    }
}

/// Aggregate of one named event across a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventAgg {
    /// Records folded in.
    pub count: u64,
    /// Earliest `t` seen.
    pub first_t: f64,
    /// Latest `t` seen.
    pub last_t: f64,
}

/// The fold of a whole trace file: per-phase time per scope, span
/// aggregates, event counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Lines read.
    pub lines: u64,
    /// Lines that failed to parse or lacked a known `kind` (a
    /// truncated tail shows up here, not as an error).
    pub skipped: u64,
    /// `scope -> phase name -> aggregate`, the per-phase breakdown.
    pub phases: BTreeMap<String, BTreeMap<String, TimeAgg>>,
    /// `span name -> aggregate`.
    pub spans: BTreeMap<String, TimeAgg>,
    /// `(clock label, event name) -> aggregate`.
    pub events: BTreeMap<(String, String), EventAgg>,
}

/// Folds a JSONL trace into a [`TraceSummary`]. IO errors propagate;
/// malformed lines are counted in `skipped`.
pub fn fold_trace(reader: impl BufRead) -> io::Result<TraceSummary> {
    let mut summary = TraceSummary::default();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        summary.lines += 1;
        let Ok(record) = parse_json(&line) else {
            summary.skipped += 1;
            continue;
        };
        let kind = record.get("kind").and_then(Json::as_str);
        match kind {
            Some("phase") => {
                let (Some(scope), Some(name), Some(secs)) = (
                    record.get("scope").and_then(Json::as_str),
                    record.get("name").and_then(Json::as_str),
                    record.get("secs").and_then(Json::as_f64),
                ) else {
                    summary.skipped += 1;
                    continue;
                };
                summary
                    .phases
                    .entry(scope.to_string())
                    .or_default()
                    .entry(name.to_string())
                    .or_default()
                    .fold(secs);
            }
            Some("span") => {
                let (Some(name), Some(secs)) = (
                    record.get("name").and_then(Json::as_str),
                    record.get("secs").and_then(Json::as_f64),
                ) else {
                    summary.skipped += 1;
                    continue;
                };
                summary
                    .spans
                    .entry(name.to_string())
                    .or_default()
                    .fold(secs);
            }
            Some("event") => {
                let (Some(clock), Some(name), Some(t)) = (
                    record.get("clock").and_then(Json::as_str),
                    record.get("name").and_then(Json::as_str),
                    record.get("t").and_then(Json::as_f64),
                ) else {
                    summary.skipped += 1;
                    continue;
                };
                let agg = summary
                    .events
                    .entry((clock.to_string(), name.to_string()))
                    .or_default();
                if agg.count == 0 || t < agg.first_t {
                    agg.first_t = t;
                }
                if agg.count == 0 || t > agg.last_t {
                    agg.last_t = t;
                }
                agg.count += 1;
            }
            _ => summary.skipped += 1,
        }
    }
    Ok(summary)
}

impl TraceSummary {
    /// Renders the per-phase breakdown (with in-scope percentages),
    /// span table, and event counts as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} record(s), {} skipped\n",
            self.lines, self.skipped
        ));
        for (scope, phases) in &self.phases {
            let total: f64 = phases.values().map(|a| a.secs).sum();
            out.push_str(&format!(
                "\nphase breakdown [{scope}] — {total:.6}s total\n"
            ));
            let mut rows: Vec<(&String, &TimeAgg)> = phases.iter().collect();
            rows.sort_by(|a, b| b.1.secs.total_cmp(&a.1.secs).then(a.0.cmp(b.0)));
            for (name, agg) in rows {
                let pct = if total > 0.0 {
                    100.0 * agg.secs / total
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {name:<16} {secs:>12.6}s  {pct:>5.1}%  ({count} record(s))\n",
                    secs = agg.secs,
                    count = agg.count,
                ));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("\nspans\n");
            let mut rows: Vec<(&String, &TimeAgg)> = self.spans.iter().collect();
            rows.sort_by(|a, b| b.1.secs.total_cmp(&a.1.secs).then(a.0.cmp(b.0)));
            for (name, agg) in rows {
                let mean = if agg.count > 0 {
                    agg.secs / agg.count as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {name:<24} n={count:<8} total={secs:.6}s mean={mean:.9}s max={max:.9}s\n",
                    count = agg.count,
                    secs = agg.secs,
                    max = agg.max_secs,
                ));
            }
        }
        if !self.events.is_empty() {
            out.push_str("\nevents\n");
            for ((clock, name), agg) in &self.events {
                out.push_str(&format!(
                    "  {name:<24} n={count:<8} clock={clock} t=[{first:.3}, {last:.3}]\n",
                    count = agg.count,
                    first = agg.first_t,
                    last = agg.last_t,
                ));
            }
        }
        out
    }
}

/// Parses a snapshot previously written by
/// [`Snapshot::render_json`] back into a [`Snapshot`].
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let root = parse_json(text)?;
    let Some(Json::Arr(metrics)) = root.get("metrics") else {
        return Err("snapshot JSON lacks a \"metrics\" array".to_string());
    };
    let mut entries = Vec::with_capacity(metrics.len());
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?
            .to_string();
        let kind = m
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("metric without a kind")?;
        let value = match kind {
            "counter" => MetricValue::Counter(
                m.get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("counter {name} without an integer value"))?,
            ),
            "gauge" => MetricValue::Gauge(
                m.get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("gauge {name} without a numeric value"))?,
            ),
            "histogram" => {
                let count = m
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("histogram {name} without a count"))?;
                let sum = m
                    .get("sum")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("histogram {name} without a sum"))?;
                let mut buckets = Vec::new();
                if let Some(Json::Arr(pairs)) = m.get("buckets") {
                    for pair in pairs {
                        let Json::Arr(items) = pair else {
                            return Err(format!("histogram {name} bucket is not a pair"));
                        };
                        let (Some(floor), Some(n)) = (
                            items.first().and_then(Json::as_u64),
                            items.get(1).and_then(Json::as_u64),
                        ) else {
                            return Err(format!("histogram {name} bucket is not numeric"));
                        };
                        buckets.push((floor, n));
                    }
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                }
            }
            other => return Err(format!("metric {name} has unknown kind {other:?}")),
        };
        entries.push((name, value));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Snapshot { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fold_aggregates_phases_spans_events() {
        let trace = "\
{\"kind\":\"phase\",\"scope\":\"grid.run\",\"name\":\"queue-ops\",\"secs\":0.25}\n\
{\"kind\":\"phase\",\"scope\":\"grid.run\",\"name\":\"protocol\",\"secs\":0.75}\n\
{\"kind\":\"phase\",\"scope\":\"grid.run\",\"name\":\"queue-ops\",\"secs\":0.25}\n\
{\"kind\":\"span\",\"name\":\"exec.fold\",\"secs\":0.1}\n\
{\"kind\":\"span\",\"name\":\"exec.fold\",\"secs\":0.3}\n\
{\"kind\":\"event\",\"clock\":\"sim\",\"t\":5.0,\"name\":\"grid.queue_depth\"}\n\
{\"kind\":\"event\",\"clock\":\"sim\",\"t\":1.0,\"name\":\"grid.queue_depth\"}\n\
not json at all\n";
        let summary = fold_trace(Cursor::new(trace)).expect("fold");
        assert_eq!(summary.lines, 8);
        assert_eq!(summary.skipped, 1);
        let grid = &summary.phases["grid.run"];
        assert_eq!(grid["queue-ops"].count, 2);
        assert!((grid["queue-ops"].secs - 0.5).abs() < 1e-12);
        assert!((grid["protocol"].secs - 0.75).abs() < 1e-12);
        let fold = &summary.spans["exec.fold"];
        assert_eq!(fold.count, 2);
        assert!((fold.max_secs - 0.3).abs() < 1e-12);
        let depth = &summary.events[&("sim".to_string(), "grid.queue_depth".to_string())];
        assert_eq!(depth.count, 2);
        assert_eq!(depth.first_t, 1.0);
        assert_eq!(depth.last_t, 5.0);
        let rendered = summary.render();
        assert!(rendered.contains("phase breakdown [grid.run]"));
        assert!(rendered.contains("protocol"));
        assert!(
            rendered.contains("60.0%"),
            "protocol is 0.75 of 1.25s:\n{rendered}"
        );
    }

    #[test]
    fn snapshot_json_round_trips() {
        use crate::metrics::Value;
        let snap = Snapshot {
            entries: vec![
                ("a.count".to_string(), Value::Counter(42)),
                ("b.level".to_string(), Value::Gauge(2.25)),
                (
                    "c.hist".to_string(),
                    Value::Histogram {
                        count: 3,
                        sum: 7,
                        buckets: vec![(1, 1), (2, 2)],
                    },
                ),
            ],
        };
        let json = snap.render_json();
        let back = parse_snapshot(&json).expect("parse snapshot");
        assert_eq!(back, snap);
    }
}
