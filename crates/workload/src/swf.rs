//! Standard Workload Format (SWF) traces.
//!
//! The paper cross-checked its model-driven results against logs from the
//! Parallel Workloads Archive, which are distributed in SWF: one job per
//! line, 18 whitespace-separated fields, `;` comment/header lines. This
//! module parses, writes, and converts SWF traces to [`JobSpec`] streams
//! so every experiment can also be replayed from a real log.

use std::fmt::Write as _;
use std::str::FromStr;

use rbr_simcore::{Duration, SimTime};

use crate::job::JobSpec;

/// The largest magnitude, in seconds, of a time field [`SwfTrace::parse`]
/// accepts: about 31,700 years. A job's shifted arrival spans at most
/// two such values and its runtime or estimate one, so the three sum
/// far inside the simulator's `u64` microseconds (about 1.8e13 s).
const MAX_TIME_SECS: f64 = 1e12;

/// One SWF record (the subset of the 18 standard fields the simulator
/// uses, with the rest preserved for round-tripping).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwfJob {
    /// Field 1: job number.
    pub job_id: u64,
    /// Field 2: submit time (seconds since trace start).
    pub submit: f64,
    /// Field 3: wait time in seconds (−1 if unknown).
    pub wait: f64,
    /// Field 4: actual runtime in seconds.
    pub runtime: f64,
    /// Field 5: number of allocated processors.
    pub used_procs: i64,
    /// Field 8: requested number of processors.
    pub requested_procs: i64,
    /// Field 9: requested (estimated) runtime in seconds.
    pub requested_time: f64,
    /// Field 11: completion status.
    pub status: i64,
}

/// A parsed SWF trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwfTrace {
    /// Header comment lines (without the leading `;`).
    pub header: Vec<String>,
    /// Job records in file order.
    pub jobs: Vec<SwfJob>,
}

/// Errors from SWF parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than the 18 standard fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field is not a number of its type, or is a time that is not
    /// finite or lies beyond ±1e12 s.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 1-based field index.
        field: usize,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::TooFewFields { line, found } => {
                write!(f, "line {line}: expected 18 SWF fields, found {found}")
            }
            SwfError::BadField { line, field } => {
                write!(f, "line {line}: field {field} is not a number in range")
            }
        }
    }
}

impl std::error::Error for SwfError {}

impl SwfTrace {
    /// Parses a trace from SWF text. A time field (submit, wait,
    /// runtime, requested time) that is not finite or lies beyond
    /// ±1e12 s (about 31,700 years) is a [`SwfError::BadField`].
    pub fn parse(text: &str) -> Result<SwfTrace, SwfError> {
        let mut trace = SwfTrace::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix(';') {
                trace.header.push(comment.trim().to_string());
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 18 {
                return Err(SwfError::TooFewFields {
                    line: line_no,
                    found: fields.len(),
                });
            }
            fn num<T: FromStr>(fields: &[&str], line: usize, i: usize) -> Result<T, SwfError> {
                fields[i - 1]
                    .parse::<T>()
                    .map_err(|_| SwfError::BadField { line, field: i })
            }
            fn secs(fields: &[&str], line: usize, i: usize) -> Result<f64, SwfError> {
                let secs: f64 = num(fields, line, i)?;
                if secs.abs() <= MAX_TIME_SECS {
                    Ok(secs)
                } else {
                    Err(SwfError::BadField { line, field: i })
                }
            }
            trace.jobs.push(SwfJob {
                job_id: num(&fields, line_no, 1)?,
                submit: secs(&fields, line_no, 2)?,
                wait: secs(&fields, line_no, 3)?,
                runtime: secs(&fields, line_no, 4)?,
                used_procs: num(&fields, line_no, 5)?,
                requested_procs: num(&fields, line_no, 8)?,
                requested_time: secs(&fields, line_no, 9)?,
                status: num(&fields, line_no, 11)?,
            });
        }
        Ok(trace)
    }

    /// Renders the trace back to SWF text (unknown fields written as −1).
    pub fn to_swf(&self) -> String {
        let mut out = String::new();
        for h in &self.header {
            let _ = writeln!(out, "; {h}");
        }
        for j in &self.jobs {
            // SWF allows fractional seconds; six decimals keep the
            // simulator's microsecond resolution lossless.
            let _ = writeln!(
                out,
                "{} {:.6} {:.6} {:.6} {} -1 -1 {} {:.6} -1 {} -1 -1 -1 -1 -1 -1 -1",
                j.job_id,
                j.submit,
                j.wait,
                j.runtime,
                j.used_procs,
                j.requested_procs,
                j.requested_time,
                j.status,
            );
        }
        out
    }

    /// Converts to a [`JobSpec`] stream for the simulator.
    ///
    /// Jobs that cannot be simulated are skipped: a runtime that rounds
    /// to zero microseconds, or a non-positive processor count (cancelled
    /// or corrupted records). Requested runtime is floored at the actual
    /// runtime, node counts are capped at `max_nodes`, and arrivals are
    /// shifted so the first job with a positive runtime arrives at t = 0.
    pub fn to_jobs(&self, max_nodes: u32) -> Vec<JobSpec> {
        let t0 = self
            .jobs
            .iter()
            .filter(|j| j.runtime > 0.0)
            .map(|j| j.submit)
            .fold(f64::INFINITY, f64::min);
        if !t0.is_finite() {
            return Vec::new();
        }
        self.jobs
            .iter()
            .filter_map(|j| {
                let procs = if j.requested_procs > 0 {
                    j.requested_procs
                } else {
                    j.used_procs
                };
                let runtime = Duration::from_secs(j.runtime.max(0.0));
                if runtime.is_zero() || procs <= 0 || j.submit < t0 {
                    return None;
                }
                let estimate = if j.requested_time > 0.0 {
                    Duration::from_secs(j.requested_time).max(runtime)
                } else {
                    runtime
                };
                Some(JobSpec::new(
                    SimTime::from_secs(j.submit - t0),
                    u32::try_from(procs)
                        .unwrap_or(u32::MAX)
                        .min(max_nodes)
                        .max(1),
                    runtime,
                    estimate,
                ))
            })
            .collect()
    }

    /// Builds a trace from a [`JobSpec`] stream (the inverse of
    /// [`SwfTrace::to_jobs`], used to export generated workloads).
    pub fn from_jobs(jobs: &[JobSpec], header: Vec<String>) -> SwfTrace {
        SwfTrace {
            header,
            jobs: jobs
                .iter()
                .enumerate()
                .map(|(i, j)| SwfJob {
                    job_id: i as u64 + 1,
                    submit: j.arrival.as_secs(),
                    wait: -1.0,
                    runtime: j.runtime.as_secs(),
                    used_procs: j.nodes as i64,
                    requested_procs: j.nodes as i64,
                    requested_time: j.estimate.as_secs(),
                    status: 1,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: Example Cluster
; MaxNodes: 128
1 0 10 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1
2 5 0 50 1 -1 -1 1 60 -1 1 2 1 -1 1 -1 -1 -1
3 9 2 0 8 -1 -1 8 300 -1 0 3 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_header_and_jobs() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        assert_eq!(t.header.len(), 2);
        assert_eq!(t.jobs.len(), 3);
        assert_eq!(t.jobs[0].job_id, 1);
        assert_eq!(t.jobs[0].requested_procs, 4);
        assert_eq!(t.jobs[1].runtime, 50.0);
    }

    #[test]
    fn to_jobs_skips_unusable_records() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let jobs = t.to_jobs(128);
        // Job 3 has zero runtime → skipped.
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].nodes, 4);
        assert_eq!(jobs[0].estimate, Duration::from_secs(200.0));
        // So is a runtime that rounds to zero microseconds.
        let text = "1 0 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1\n\
                    2 0 0 1e-7 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1\n\
                    3 0 0 5e-7 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1\n";
        let jobs = SwfTrace::parse(text).unwrap().to_jobs(128);
        let runtimes: Vec<_> = jobs.iter().map(|j| j.runtime.as_micros()).collect();
        assert_eq!(runtimes, [60_000_000, 1]);
    }

    #[test]
    fn arrivals_shift_to_zero() {
        let text = "\
10 1000 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1
11 1030 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1
";
        let jobs = SwfTrace::parse(text).unwrap().to_jobs(64);
        assert_eq!(jobs[0].arrival, SimTime::ZERO);
        assert_eq!(jobs[1].arrival, SimTime::from_secs(30.0));
    }

    #[test]
    fn node_counts_capped() {
        // Counts past `u32::MAX` saturate before the cap.
        let text = "1 0 0 60 512 -1 -1 512 60 -1 1 1 1 -1 1 -1 -1 -1\n\
                    2 0 0 60 4294967297 -1 -1 -1 60 -1 1 1 1 -1 1 -1 -1 -1\n\
                    3 0 0 60 -1 -1 -1 9223372036854775807 60 -1 1 1 1 -1 1 -1 -1 -1\n";
        let trace = SwfTrace::parse(text).unwrap();
        let nodes: Vec<u32> = trace.to_jobs(128).iter().map(|j| j.nodes).collect();
        assert_eq!(nodes, [128, 128, 128]);
        let nodes: Vec<u32> = trace.to_jobs(u32::MAX).iter().map(|j| j.nodes).collect();
        assert_eq!(nodes, [512, u32::MAX, u32::MAX]);
    }

    #[test]
    fn estimate_floored_at_runtime() {
        let text = "1 0 0 100 4 -1 -1 4 50 -1 1 1 1 -1 1 -1 -1 -1\n";
        let jobs = SwfTrace::parse(text).unwrap().to_jobs(128);
        assert_eq!(jobs[0].estimate, jobs[0].runtime);
    }

    #[test]
    fn roundtrip_through_swf_text() {
        let t = SwfTrace::parse(SAMPLE).unwrap();
        let out = t.to_swf();
        let t2 = SwfTrace::parse(&out).unwrap();
        assert_eq!(t.jobs.len(), t2.jobs.len());
        assert_eq!(t.jobs[0].requested_time, t2.jobs[0].requested_time);
    }

    #[test]
    fn from_jobs_roundtrip() {
        let jobs = vec![
            JobSpec::new(
                SimTime::from_secs(0.0),
                4,
                Duration::from_secs(100.0),
                Duration::from_secs(150.0),
            ),
            JobSpec::new(
                SimTime::from_secs(7.0),
                1,
                Duration::from_secs(30.0),
                Duration::from_secs(30.0),
            ),
        ];
        let trace = SwfTrace::from_jobs(&jobs, vec!["generated".into()]);
        let back = SwfTrace::parse(&trace.to_swf()).unwrap().to_jobs(128);
        assert_eq!(back, jobs);
    }

    #[test]
    fn short_line_is_an_error() {
        let err = SwfTrace::parse("1 2 3\n").unwrap_err();
        assert_eq!(err, SwfError::TooFewFields { line: 1, found: 3 });
    }

    #[test]
    fn bad_number_is_an_error() {
        let err = SwfTrace::parse("x 0 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1\n").unwrap_err();
        assert_eq!(err, SwfError::BadField { line: 1, field: 1 });
        // A time that is not finite or lies beyond the bound, on the
        // line after a good one.
        let ok = "1 0 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1\n";
        for (line, field) in [
            ("2 5 0 inf 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1", 4),
            ("2 5 0 60 2 -1 -1 2 1e300 -1 1 1 1 -1 1 -1 -1 -1", 9),
            ("2 1e300 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1", 2),
            ("2 5 NaN 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1", 3),
            ("2 -inf 0 60 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1", 2),
            ("2 5 0 1.000001e12 2 -1 -1 2 60 -1 1 1 1 -1 1 -1 -1 -1", 4),
        ] {
            let err = SwfTrace::parse(&format!("{ok}{line}\n")).unwrap_err();
            assert_eq!(err, SwfError::BadField { line: 2, field }, "{line}");
        }
        // Times at the bound convert.
        let edge = format!("{ok}2 1e12 -1e12 1e12 2 -1 -1 2 1e12 -1 1 1 1 -1 1 -1 -1 -1\n");
        let jobs = SwfTrace::parse(&edge).unwrap().to_jobs(128);
        assert_eq!(jobs[1].arrival, SimTime::from_secs(MAX_TIME_SECS));
        assert_eq!(jobs[1].runtime, Duration::from_secs(MAX_TIME_SECS));
    }

    #[test]
    fn empty_trace_yields_no_jobs() {
        let t = SwfTrace::parse("; just a header\n").unwrap();
        assert!(t.to_jobs(128).is_empty());
    }
}
