//! The structured trace: self-contained JSONL records on a virtual or
//! wall clock.
//!
//! The sink follows the `ObserverSlot` precedent from `rbr-audit`: a
//! process-wide slot that is empty by default. Detached, every emit
//! call is one relaxed load and an untaken branch. Attached (via
//! [`start_file`], i.e. `--trace FILE` on the CLI), records are
//! serialized through a buffered writer. Emitting a record reads the
//! caller's state and writes bytes to the side channel — it never
//! touches an RNG, an event queue, or a report, which is why every
//! byte-identity gate in the workspace holds with tracing on.
//!
//! Three record kinds, one JSON object per line:
//!
//! * `event` — a point in (virtual or wall) time with free-form fields:
//!   `{"kind":"event","clock":"sim","t":12.5,"name":"grid.submit","fields":{...}}`
//! * `span` — one timed wall-clock region (from [`span`]):
//!   `{"kind":"span","name":"exec.fold","secs":0.0012}`
//! * `phase` — aggregated time attributed to a named phase of a scope
//!   (from [`phase`]), the input to `rbr obs trace`'s breakdown:
//!   `{"kind":"phase","scope":"grid.run","name":"queue-ops","secs":0.42}`

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{write_f64, write_str};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Which clock a trace record's `t` was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time of a simulation (deterministic).
    Sim,
    /// Wall-clock seconds since an arbitrary process epoch.
    Wall,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        }
    }
}

/// A field value on an [`event`] record.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field (non-finite renders as `0`).
    F64(f64),
    /// A string field (JSON-escaped).
    Str(&'a str),
}

/// True when a trace sink is attached; emit calls are no-ops otherwise.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Attaches the trace sink to `path` (truncating it). Subsequent
/// [`event`]/[`span`]/[`phase`] calls append records until [`stop`].
pub fn start_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    let mut sink = SINK.lock().expect("trace sink lock");
    *sink = Some(BufWriter::new(file));
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Detaches the sink, flushing buffered records. Harmless when already
/// detached.
pub fn stop() -> io::Result<()> {
    ENABLED.store(false, Ordering::Relaxed);
    let mut sink = SINK.lock().expect("trace sink lock");
    if let Some(mut writer) = sink.take() {
        writer.flush()?;
    }
    Ok(())
}

/// Flushes buffered records without detaching.
pub fn flush() -> io::Result<()> {
    let mut sink = SINK.lock().expect("trace sink lock");
    if let Some(writer) = sink.as_mut() {
        writer.flush()?;
    }
    Ok(())
}

fn write_line(line: &str) {
    let mut sink = SINK.lock().expect("trace sink lock");
    if let Some(writer) = sink.as_mut() {
        // A failed trace write must not abort the run it is observing;
        // drop the record and carry on.
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
    }
}

/// Emits an `event` record at time `t` on `clock` with `fields`.
/// No-op (one relaxed load) when no sink is attached.
pub fn event(clock: Clock, t: f64, name: &str, fields: &[(&str, Field<'_>)]) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(96);
    line.push_str("{\"kind\":\"event\",\"clock\":\"");
    line.push_str(clock.label());
    line.push_str("\",\"t\":");
    write_f64(&mut line, t, "0");
    line.push_str(",\"name\":");
    write_str(&mut line, name);
    if !fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_str(&mut line, key);
            line.push(':');
            match value {
                Field::U64(v) => line.push_str(&format!("{v}")),
                Field::I64(v) => line.push_str(&format!("{v}")),
                Field::F64(v) => write_f64(&mut line, *v, "0"),
                Field::Str(s) => write_str(&mut line, s),
            }
        }
        line.push('}');
    }
    line.push('}');
    write_line(&line);
}

/// Emits a `phase` record: `secs` of wall time attributed to phase
/// `name` of `scope`. Callers accumulate locally (plain `f64` adds)
/// and emit once, so the hot path pays timers, not serialization.
pub fn phase(scope: &str, name: &str, secs: f64) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(64);
    line.push_str("{\"kind\":\"phase\",\"scope\":");
    write_str(&mut line, scope);
    line.push_str(",\"name\":");
    write_str(&mut line, name);
    line.push_str(",\"secs\":");
    write_f64(&mut line, secs, "0");
    line.push('}');
    write_line(&line);
}

/// A wall-clock span guard from [`span`]; emits a `span` record with
/// the elapsed seconds when dropped.
pub struct SpanGuard {
    name: String,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let mut line = String::with_capacity(64);
        line.push_str("{\"kind\":\"span\",\"name\":");
        write_str(&mut line, &self.name);
        line.push_str(",\"secs\":");
        write_f64(&mut line, secs, "0");
        line.push('}');
        write_line(&line);
    }
}

/// Starts a wall-clock span named `name`. Returns `None` (for free)
/// when no sink is attached; hold the guard for the region's lifetime.
pub fn span(name: &str) -> Option<SpanGuard> {
    if !enabled() {
        return None;
    }
    Some(SpanGuard {
        name: name.to_string(),
        start: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The sink is process-global; serialize tests that attach it.
    static GATE: StdMutex<()> = StdMutex::new(());

    fn with_trace_file(name: &str, f: impl FnOnce()) -> String {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let path =
            std::env::temp_dir().join(format!("rbr-obs-test-{name}-{}.jsonl", std::process::id()));
        start_file(&path).expect("attach trace sink");
        f();
        stop().expect("detach trace sink");
        let out = std::fs::read_to_string(&path).expect("read trace back");
        let _ = std::fs::remove_file(&path);
        out
    }

    #[test]
    fn detached_emits_nothing_and_costs_nothing() {
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        event(Clock::Sim, 1.0, "noop", &[]);
        phase("x", "y", 0.5);
        assert!(span("z").is_none());
    }

    #[test]
    fn records_are_one_json_object_per_line() {
        let out = with_trace_file("records", || {
            event(
                Clock::Sim,
                12.5,
                "grid.submit",
                &[
                    ("cluster", Field::U64(3)),
                    ("proto", Field::Str("R2")),
                    ("load", Field::F64(0.75)),
                    ("delta", Field::I64(-2)),
                ],
            );
            phase("grid.run", "queue-ops", 0.042);
            let _s = span("exec.fold");
        });
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"kind\":\"event\",\"clock\":\"sim\",\"t\":12.5,\"name\":\"grid.submit\",\
             \"fields\":{\"cluster\":3,\"proto\":\"R2\",\"load\":0.75,\"delta\":-2}}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"phase\",\"scope\":\"grid.run\",\"name\":\"queue-ops\",\"secs\":0.042}"
        );
        assert!(lines[2].starts_with("{\"kind\":\"span\",\"name\":\"exec.fold\",\"secs\":"));
        assert!(lines[2].ends_with('}'));
    }

    #[test]
    fn strings_are_escaped() {
        let out = with_trace_file("escape", || {
            event(
                Clock::Wall,
                0.0,
                "weird\"name\\with\nnewline",
                &[("path", Field::Str("a\tb"))],
            );
        });
        assert!(out.contains("weird\\\"name\\\\with\\nnewline"));
        assert!(out.contains("a\\tb"));
    }
}
