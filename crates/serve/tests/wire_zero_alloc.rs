//! The wire's hot path allocates nothing, enforced by a counting
//! allocator: canonical request frames are framed and read where they
//! lie, and responses are written and framed into buffers a connection
//! keeps from one message to the next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rbr_serve::wire::{encode_frame_into, FrameReader};
use rbr_serve::{Request, Response, Verdict};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation count attributable to `f` (this binary holds exactly one
/// test, so no other thread is allocating concurrently).
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn reading_requests_and_writing_responses_never_allocate() {
    let requests = [
        Request::Submit {
            id: u64::MAX,
            arrival_secs: 0.1 + 0.2,
            nodes: 32,
            runtime_secs: 600.0,
        },
        Request::Cancel {
            id: 7,
            arrival_secs: 1e21,
        },
        Request::Drain,
    ];
    let responses = [
        Response::Ack {
            id: 7,
            redundancy: 3,
            verdict: Verdict::Redundant,
            txn: 11,
        },
        Response::CancelAck { id: 7, txn: 12 },
        Response::Drained {
            submits: 100,
            acks: 130,
            transactions: 13,
            shed: 4,
        },
    ];
    // Buffers are filled or reserved before counting, as a connection's
    // are once warm.
    let mut stream = Vec::new();
    for req in &requests {
        encode_frame_into(&mut stream, &req.to_json());
    }
    let mut reader = FrameReader::new();
    reader.extend(&stream);
    let mut json = String::with_capacity(256);
    let mut wbuf = Vec::with_capacity(4096);
    let mut read = Vec::with_capacity(requests.len());

    let allocs = allocs_during(|| {
        while let Some(payload) = reader.next_frame().expect("a whole frame") {
            read.push(Request::from_json(payload).expect("a canonical request"));
        }
        for resp in &responses {
            json.clear();
            resp.write_json(&mut json);
            encode_frame_into(&mut wbuf, &json);
        }
    });
    assert_eq!(allocs, 0, "the wire's hot path allocated");
    assert_eq!(read, requests);
    let written: Vec<String> = responses.iter().map(Response::to_json).collect();
    let framed: Vec<u8> = written
        .iter()
        .flat_map(|j| format!("{}:{j}\n", j.len()).into_bytes())
        .collect();
    assert_eq!(wbuf, framed);
}
