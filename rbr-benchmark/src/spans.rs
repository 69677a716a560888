//! Spans around the calls into each layer, kept in per-thread memory
//! and written as JSONL when the run ends.
//!
//! A span records its name, start, end, parent and request id. While
//! recording is off (every untimed and every untraced run) opening a
//! span is one relaxed load. Self time is a span's duration minus the
//! part of its interval that its children cover, so parallel children
//! on pool workers are not subtracted twice.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

type Buffer = Arc<Mutex<Vec<Span>>>;

/// Every thread's buffer, so spans recorded on pool workers survive
/// their threads.
fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static ALL: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: Buffer = {
        let buffer = Buffer::default();
        buffers().lock().expect("span registry lock").push(Arc::clone(&buffer));
        buffer
    };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span. Times are nanoseconds since the process's span
/// epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// Enclosing span (on this thread, or passed across threads).
    pub parent: Option<u64>,
    /// Layer call, e.g. `grid.run`.
    pub name: &'static str,
    /// Request, cell or pass the span served.
    pub request: u64,
    /// Open instant.
    pub start_ns: u64,
    /// Close instant.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Starts or stops recording.
pub fn set_recording(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// An open span; closes when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The innermost span open on this thread, as a parent for spans
/// opened on other threads.
pub fn current() -> Option<u64> {
    OPEN.with(|o| o.borrow().last().copied())
}

/// Opens a span under the innermost open span of this thread.
pub fn open(name: &'static str, request: u64) -> Guard {
    open_under(name, request, current())
}

/// Opens a span under an explicit parent (a span on another thread).
pub fn open_under(name: &'static str, request: u64, parent: Option<u64>) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|o| o.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, name, request, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, request, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&x| x == id) {
                o.remove(pos);
            }
        });
        LOCAL.with(|b| {
            b.lock().expect("span buffer lock").push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            })
        });
    }
}

/// Removes and returns every span recorded so far, on every thread,
/// ordered by start.
pub fn take() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in buffers().lock().expect("span registry lock").iter() {
        all.append(&mut buffer.lock().expect("span buffer lock"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Self time of `span` in seconds: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_secs(span: &Span, all: &[Span]) -> f64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

/// Summed duration (seconds) of every span called `name`.
pub fn total_secs(all: &[Span], name: &str) -> f64 {
    all.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Appends the spans as JSONL records tagged with the workload.
pub fn append_jsonl(path: &std::path::Path, workload: &str, all: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in all {
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\
             \"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            (self_secs(s, all) * 1e9).round() as u64,
        ));
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Parent 0..100; children 10..30 and 20..50 overlap (parallel
        // workers), 90..120 spills past the parent's end; a grandchild
        // of child 2 must not count against the parent.
        let all = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 12, 14),
        ];
        let ns = |s: f64| (s * 1e9).round() as u64;
        // Covered: 10..50 (40) + 90..100 (10) = 50.
        assert_eq!(ns(self_secs(&all[0], &all)), 50);
        // Child 2 loses its own child's 2 ns.
        assert_eq!(ns(self_secs(&all[1], &all)), 18);
        // A leaf's self time is its duration.
        assert_eq!(ns(self_secs(&all[2], &all)), 30);
    }

    #[test]
    fn recording_nests_on_a_thread_and_links_across_threads() {
        set_recording(true);
        let outer = open("outer", 7);
        {
            let _inner = open("inner", 7);
        }
        let parent = current();
        std::thread::spawn(move || {
            let _remote = open_under("remote", 8, parent);
        })
        .join()
        .expect("span thread");
        drop(outer);
        set_recording(false);
        let _ignored = open("ignored", 9);
        let all: Vec<Span> = take()
            .into_iter()
            .filter(|s| ["outer", "inner", "remote", "ignored"].contains(&s.name))
            .collect();
        assert_eq!(all.len(), 3, "{all:?}");
        let outer = all.iter().find(|s| s.name == "outer").expect("outer");
        for name in ["inner", "remote"] {
            let kid = all.iter().find(|s| s.name == name).expect("child");
            assert_eq!(kid.parent, Some(outer.id));
            assert!(kid.start_ns >= outer.start_ns && kid.end_ns <= outer.end_ns);
        }
    }
}
