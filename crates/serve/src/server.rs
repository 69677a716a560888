//! The metascheduler service: a single-threaded, non-blocking TCP poll
//! loop over the framing, batching, and admission layers.
//!
//! One thread is deliberate: requests are processed strictly in the
//! order they complete framing, so a single-connection client (like
//! `rbr loadgen`) observes admission decisions that are a pure function
//! of its request stream — the determinism the service-smoke CI gate
//! byte-diffs. Multiple connections are supported (each gets its own
//! frame reader, write buffer, and backpressure), but cross-connection
//! interleaving is then up to the kernel, as with any socket service.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration as StdDuration;

use rbr_faults::BatchSpec;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::batcher::{Batcher, OpKind, PendingOp, Transaction};
use crate::clock::{Clock, ClockMode};
use crate::wire::{encode_frame_into, FrameReader, Request, Response, Verdict};

/// A connection stops being read while its write buffer holds more than
/// this many bytes: the client must drain acks before sending more work.
const BACKPRESSURE_BYTES: usize = 256 * 1024;

/// Poll-loop sleep when nothing is readable.
const IDLE_SLEEP: StdDuration = StdDuration::from_millis(1);

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Transaction size and flush deadline for the batching layer.
    pub batch: BatchSpec,
    /// Admission-controller tuning.
    pub admission: AdmissionConfig,
    /// Wall or virtual clock.
    pub clock: ClockMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch: BatchSpec::default(),
            admission: AdmissionConfig::default(),
            clock: ClockMode::Virtual,
        }
    }
}

/// Lifetime totals, returned after a graceful drain.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Submissions received.
    pub submits: u64,
    /// Cancels received.
    pub cancels: u64,
    /// Acks written (submit acks + cancel acks).
    pub acks: u64,
    /// Transactions dispatched.
    pub transactions: u64,
    /// Submissions shed by the rate limiter.
    pub shed: u64,
    /// Connections closed for sending a malformed frame or request.
    pub protocol_errors: u64,
    /// Acks those connections were still owed when they were closed;
    /// they no longer count against a drain.
    pub abandoned_acks: u64,
    /// One admission log line per submission, in decision order.
    pub admission_log: Vec<String>,
}

/// Registry handles and trace flags, resolved once per [`serve`] call
/// so the poll loop never touches the registry lock. Registration is
/// harmless while metrics are disabled; every update is then one
/// relaxed load and an untaken branch.
struct ObsHandles {
    submits: rbr_obs::Counter,
    cancels: rbr_obs::Counter,
    acks: rbr_obs::Counter,
    transactions: rbr_obs::Counter,
    shed: rbr_obs::Counter,
    throttles: rbr_obs::Counter,
    drain_leaks: rbr_obs::Counter,
    batch_fill: rbr_obs::Histogram,
    trace_on: bool,
    trace_clock: rbr_obs::Clock,
}

impl ObsHandles {
    fn new(mode: ClockMode) -> ObsHandles {
        ObsHandles {
            submits: rbr_obs::metrics::counter("serve.submits"),
            cancels: rbr_obs::metrics::counter("serve.cancels"),
            acks: rbr_obs::metrics::counter("serve.acks"),
            transactions: rbr_obs::metrics::counter("serve.transactions"),
            shed: rbr_obs::metrics::counter("serve.shed"),
            throttles: rbr_obs::metrics::counter("serve.backpressure_throttles"),
            drain_leaks: rbr_obs::metrics::counter("serve.drain_leaks"),
            batch_fill: rbr_obs::metrics::histogram("serve.batch_fill"),
            trace_on: rbr_obs::trace::enabled(),
            trace_clock: match mode {
                ClockMode::Virtual => rbr_obs::Clock::Sim,
                ClockMode::Wall => rbr_obs::Clock::Wall,
            },
        }
    }
}

/// Framed responses awaiting the socket, behind a write cursor: a
/// partial write advances the cursor instead of shifting the unwritten
/// tail, so writing a buffer out takes time linear in its bytes.
#[derive(Debug, Default)]
struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already written.
    written: usize,
}

impl WriteBuf {
    /// Appends one framed response.
    fn frame(&mut self, json: &str) {
        encode_frame_into(&mut self.buf, json);
    }

    /// Bytes framed but not yet written.
    fn pending(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Writes as much of the buffer as `sink` will take. Returns `false`
    /// once the sink is closed or has failed.
    fn write_to(&mut self, sink: &mut impl Write) -> bool {
        while self.pending() > 0 {
            match sink.write(&self.buf[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Moves the cursor past `n` written bytes. A fully written buffer is
    /// cleared; the unwritten tail is moved to the front only once it is
    /// shorter than what precedes it, so the bytes moved never exceed
    /// the bytes written.
    fn advance(&mut self, n: usize) {
        self.written += n;
        if self.written == self.buf.len() {
            self.buf.clear();
            self.written = 0;
        } else if self.written > self.buf.len() / 2 {
            self.buf.drain(..self.written);
            self.written = 0;
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wbuf: WriteBuf,
    /// Scratch for the response being framed into `wbuf`.
    json: String,
    open: bool,
}

impl Conn {
    /// Closes the connection after a protocol error: its unread and
    /// unwritten bytes are dropped, and the acks it was still owed move
    /// from `acks_owed` to `stats.abandoned_acks`, so one client's
    /// garbage costs no other client its clean drain.
    fn close_on_protocol_error(
        &mut self,
        ci: usize,
        stats: &mut ServerStats,
        acks_owed: &mut Vec<(usize, u64)>,
    ) {
        stats.protocol_errors += 1;
        let owed = acks_owed.len();
        acks_owed.retain(|&(conn, _)| conn != ci);
        stats.abandoned_acks += (owed - acks_owed.len()) as u64;
        self.reader = FrameReader::new();
        self.wbuf = WriteBuf::default();
        self.open = false;
        // The peer may already be gone; either way it reads EOF.
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn throttled(&self) -> bool {
        self.wbuf.pending() > BACKPRESSURE_BYTES
    }

    fn queue(&mut self, resp: &Response) {
        self.json.clear();
        resp.write_json(&mut self.json);
        self.wbuf.frame(&self.json);
    }

    /// Writes as much of the buffer as the socket will take.
    fn pump(&mut self) {
        self.open = self.open && self.wbuf.write_to(&mut self.stream);
    }
}

/// Runs the service on an already-bound listener until a client sends
/// `drain`. Returns the lifetime stats on a clean drain; an `Err` means
/// acks were lost (a client vanished with receipts outstanding) or the
/// listener failed — callers should exit non-zero. A malformed frame or
/// request closes only the connection that sent it (see
/// [`ServerStats::protocol_errors`]).
pub fn serve(listener: TcpListener, config: &ServerConfig) -> Result<ServerStats, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let mut clock = Clock::new(config.clock);
    let mut batcher = Batcher::new(config.batch);
    let mut admission = AdmissionController::new(config.admission.clone());
    let mut conns: Vec<Conn> = Vec::new();
    let mut stats = ServerStats::default();
    let obs = ObsHandles::new(config.clock);
    // Every op owes exactly one ack until its transaction delivers; the
    // drain leak detector names whatever is still here.
    let mut acks_owed: Vec<(usize, u64)> = Vec::new();
    let mut drain_requested_by: Option<usize> = None;
    let mut rbuf = [0u8; 16 * 1024];

    loop {
        // Accept anything pending.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(true)
                        .map_err(|e| format!("accept: {e}"))?;
                    conns.push(Conn {
                        stream,
                        reader: FrameReader::new(),
                        wbuf: WriteBuf::default(),
                        json: String::new(),
                        open: true,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("accept: {e}")),
            }
        }

        // Read and process every connection that is not throttled.
        let mut progressed = false;
        for ci in 0..conns.len() {
            if !conns[ci].open || conns[ci].throttled() {
                continue;
            }
            match conns[ci].stream.read(&mut rbuf) {
                Ok(0) => {
                    conns[ci].open = false;
                }
                Ok(n) => {
                    progressed = true;
                    conns[ci].reader.extend(&rbuf[..n]);
                    loop {
                        let Ok(frame) = conns[ci].reader.next_frame() else {
                            conns[ci].close_on_protocol_error(ci, &mut stats, &mut acks_owed);
                            break;
                        };
                        let Some(payload) = frame else { break };
                        let Ok(req) = Request::from_json(payload) else {
                            conns[ci].close_on_protocol_error(ci, &mut stats, &mut acks_owed);
                            break;
                        };
                        handle_request(
                            ci,
                            req,
                            &mut clock,
                            &mut batcher,
                            &mut admission,
                            &mut conns,
                            &mut stats,
                            &mut acks_owed,
                            &mut drain_requested_by,
                            &obs,
                        );
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conns[ci].open = false;
                }
            }
        }

        // Wall-clock deadline flushes (virtual-clock deadlines fire from
        // arrival timestamps inside handle_request).
        if clock.mode() == ClockMode::Wall {
            if let Some(txn) = batcher.poll_deadline(clock.now_secs()) {
                deliver(
                    txn,
                    clock.now_secs(),
                    &mut conns,
                    &mut stats,
                    &mut acks_owed,
                    &obs,
                );
            }
        }

        for conn in &mut conns {
            conn.pump();
        }

        if let Some(ci) = drain_requested_by {
            // Everything is flushed by now (handle_request drains the
            // batcher synchronously); finish writing, report, and stop.
            let drained = Response::Drained {
                submits: stats.submits,
                acks: stats.acks,
                transactions: stats.transactions,
                shed: stats.shed,
            };
            if let Some(conn) = conns.get_mut(ci) {
                conn.queue(&drained);
            }
            for conn in &mut conns {
                while conn.wbuf.pending() > 0 && conn.open {
                    conn.pump();
                    if conn.wbuf.pending() > 0 {
                        std::thread::sleep(IDLE_SLEEP);
                    }
                }
            }
            let lost: usize = conns.iter().map(|c| c.wbuf.pending()).sum();
            if let Some(report) = leak_report(&acks_owed, lost) {
                obs.drain_leaks.add(acks_owed.len() as u64);
                return Err(report);
            }
            return Ok(stats);
        }

        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_request(
    ci: usize,
    req: Request,
    clock: &mut Clock,
    batcher: &mut Batcher,
    admission: &mut AdmissionController,
    conns: &mut [Conn],
    stats: &mut ServerStats,
    acks_owed: &mut Vec<(usize, u64)>,
    drain_requested_by: &mut Option<usize>,
    obs: &ObsHandles,
) {
    match req {
        Request::Submit {
            id,
            arrival_secs,
            nodes,
            runtime_secs,
        } => {
            // A later arrival first fires any deadline the open batch
            // crossed — the same order the simulator's flush_instants
            // pass uses.
            clock.advance_to(arrival_secs);
            if let Some(txn) = batcher.poll_deadline(clock.now_secs()) {
                deliver(txn, clock.now_secs(), conns, stats, acks_owed, obs);
            }
            stats.submits += 1;
            obs.submits.inc();
            let decision = admission.decide(id, clock.now_secs(), nodes, runtime_secs);
            stats.admission_log.push(decision.log_line());
            if decision.verdict == Verdict::Shed {
                stats.shed += 1;
                stats.acks += 1;
                obs.shed.inc();
                obs.acks.inc();
                conns[ci].queue(&Response::Ack {
                    id,
                    redundancy: 0,
                    verdict: Verdict::Shed,
                    txn: 0,
                });
                return;
            }
            acks_owed.push((ci, id));
            let flushed = batcher.push(
                PendingOp {
                    conn: ci,
                    id,
                    kind: OpKind::Submit,
                    redundancy: decision.redundancy,
                    verdict: decision.verdict,
                },
                clock.now_secs(),
            );
            if let Some(txn) = flushed {
                deliver(txn, clock.now_secs(), conns, stats, acks_owed, obs);
            }
        }
        Request::Cancel { id, arrival_secs } => {
            clock.advance_to(arrival_secs);
            if let Some(txn) = batcher.poll_deadline(clock.now_secs()) {
                deliver(txn, clock.now_secs(), conns, stats, acks_owed, obs);
            }
            stats.cancels += 1;
            obs.cancels.inc();
            acks_owed.push((ci, id));
            let flushed = batcher.push(
                PendingOp {
                    conn: ci,
                    id,
                    kind: OpKind::Cancel,
                    redundancy: 0,
                    verdict: Verdict::Redundant,
                },
                clock.now_secs(),
            );
            if let Some(txn) = flushed {
                deliver(txn, clock.now_secs(), conns, stats, acks_owed, obs);
            }
        }
        Request::Drain => {
            if let Some(txn) = batcher.flush() {
                deliver(txn, clock.now_secs(), conns, stats, acks_owed, obs);
            }
            *drain_requested_by = Some(ci);
        }
    }
}

/// Builds the drain-leak error, naming every op still owed an ack by
/// its connection and job id so the offender is identifiable from the
/// exit message alone. `None` means the drain was clean.
fn leak_report(acks_owed: &[(usize, u64)], lost_bytes: usize) -> Option<String> {
    if acks_owed.is_empty() && lost_bytes == 0 {
        return None;
    }
    let offenders = if acks_owed.is_empty() {
        "none".to_string()
    } else {
        acks_owed
            .iter()
            .map(|(conn, id)| format!("conn {conn} job {id}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    Some(format!(
        "drain leaked {} unacked op(s) [{offenders}] and {lost_bytes} unwritten byte(s)",
        acks_owed.len()
    ))
}

/// Turns a flushed transaction into acks on the owning connections.
fn deliver(
    txn: Transaction,
    now: f64,
    conns: &mut [Conn],
    stats: &mut ServerStats,
    acks_owed: &mut Vec<(usize, u64)>,
    obs: &ObsHandles,
) {
    stats.transactions += 1;
    obs.transactions.inc();
    obs.batch_fill.observe(txn.ops.len() as u64);
    if obs.trace_on {
        rbr_obs::trace::event(
            obs.trace_clock,
            now,
            "serve.txn",
            &[
                ("txn", rbr_obs::trace::Field::U64(txn.txn)),
                ("ops", rbr_obs::trace::Field::U64(txn.ops.len() as u64)),
            ],
        );
    }
    for op in &txn.ops {
        let resp = match op.kind {
            OpKind::Submit => Response::Ack {
                id: op.id,
                redundancy: op.redundancy,
                verdict: op.verdict,
                txn: txn.txn,
            },
            OpKind::Cancel => Response::CancelAck {
                id: op.id,
                txn: txn.txn,
            },
        };
        stats.acks += 1;
        obs.acks.inc();
        if let Some(pos) = acks_owed
            .iter()
            .position(|&(conn, id)| conn == op.conn && id == op.id)
        {
            acks_owed.remove(pos);
        }
        if let Some(conn) = conns.get_mut(op.conn) {
            if conn.open {
                let was_throttled = conn.throttled();
                conn.queue(&resp);
                if !was_throttled && conn.throttled() {
                    obs.throttles.inc();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use std::net::TcpStream as ClientStream;

    fn start(
        config: ServerConfig,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Result<ServerStats, String>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || serve(listener, &config));
        (addr, handle)
    }

    fn send(stream: &mut ClientStream, req: &Request) {
        stream
            .write_all(&encode_frame(&req.to_json()))
            .expect("write");
    }

    fn read_response(stream: &mut ClientStream, reader: &mut FrameReader) -> Response {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = reader.next_frame().expect("frame") {
                return Response::from_json(frame).expect("response");
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "server hung up early");
            reader.extend(&buf[..n]);
        }
    }

    /// Sends `bytes` on a fresh connection and waits for the server to
    /// close it.
    fn misbehave(addr: std::net::SocketAddr, bytes: &[u8]) {
        let mut peer = ClientStream::connect(addr).expect("connect");
        peer.set_read_timeout(Some(StdDuration::from_secs(10)))
            .expect("timeout");
        peer.write_all(bytes).expect("write");
        let mut buf = [0u8; 256];
        loop {
            match peer.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => return,
                Err(e) => panic!("the server kept a misbehaving peer open: {e}"),
            }
        }
    }

    /// Transactions of 8 with a 30 s deadline, so acks wait in open
    /// batches while other peers come and go.
    fn batched() -> ServerConfig {
        ServerConfig {
            batch: BatchSpec::of(8, rbr_simcore::Duration::from_secs(30.0)),
            ..ServerConfig::default()
        }
    }

    /// A well-behaved client: twelve submits, every third one cancelled,
    /// then a drain. Every op must be acked before the drain report.
    fn drain_good_client(addr: std::net::SocketAddr) {
        let mut stream = ClientStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(StdDuration::from_secs(10)))
            .expect("timeout");
        let mut reader = FrameReader::new();
        let mut expected = Vec::new();
        for id in 0..12u64 {
            send(
                &mut stream,
                &Request::Submit {
                    id,
                    arrival_secs: id as f64,
                    nodes: 4,
                    runtime_secs: 600.0,
                },
            );
            expected.push((id, false));
            if id % 3 == 2 {
                send(
                    &mut stream,
                    &Request::Cancel {
                        id,
                        arrival_secs: id as f64 + 0.5,
                    },
                );
                expected.push((id, true));
            }
        }
        send(&mut stream, &Request::Drain);
        let mut acked = Vec::new();
        loop {
            match read_response(&mut stream, &mut reader) {
                Response::Ack { id, .. } => acked.push((id, false)),
                Response::CancelAck { id, .. } => acked.push((id, true)),
                Response::Drained { .. } => break,
            }
        }
        acked.sort_unstable();
        expected.sort_unstable();
        assert_eq!(acked, expected, "the good client gets every ack");
    }

    /// The good client's admission log with no other peer connected.
    fn good_client_log_alone() -> Vec<String> {
        let (addr, handle) = start(batched());
        drain_good_client(addr);
        let stats = handle.join().expect("join").expect("clean drain");
        stats.admission_log
    }

    /// A submit frame whose JSON starts with `pad` spaces.
    fn padded_submit_frame(pad: usize) -> Vec<u8> {
        let submit = Request::Submit {
            id: 900,
            arrival_secs: 0.0,
            nodes: 1,
            runtime_secs: 60.0,
        };
        encode_frame(&format!("{}{}", " ".repeat(pad), submit.to_json()))
    }

    #[test]
    fn a_bad_peer_closes_only_its_own_connection() {
        let (addr, handle) = start(batched());

        // A payload that is not JSON, a length prefix past MAX_FRAME, and
        // a valid submit (its ack still pending in the batch) followed by
        // garbage.
        misbehave(addr, b"5:hello\n");
        misbehave(addr, b"99999999:");
        let mut owed = padded_submit_frame(0);
        owed.extend_from_slice(b"3:{{{\n");
        misbehave(addr, &owed);

        drain_good_client(addr);
        let stats = handle
            .join()
            .expect("join")
            .expect("the drain is clean for everyone else");
        assert_eq!(stats.protocol_errors, 3);
        assert_eq!(stats.abandoned_acks, 1, "the third peer's pending submit");
        assert_eq!(stats.submits, 13);
    }

    #[test]
    fn a_half_open_peer_does_not_hold_up_the_drain() {
        let (addr, handle) = start(batched());
        // Half a frame, then EOF on the peer's write side; the peer keeps
        // its read side open and never reads.
        let frame = padded_submit_frame(0);
        let mut peer = ClientStream::connect(addr).expect("connect");
        peer.write_all(&frame[..frame.len() / 2]).expect("write");
        peer.shutdown(Shutdown::Write).expect("half-close");

        drain_good_client(addr);
        let stats = handle
            .join()
            .expect("join")
            .expect("a torn frame owes no ack");
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!(stats.submits, 12);
        assert_eq!(stats.admission_log, good_client_log_alone());
        drop(peer);
    }

    #[test]
    fn a_slow_drip_peer_does_not_hold_up_the_drain() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Arc;

        let (addr, handle) = start(batched());
        // A byte every 3 ms of a 2 KB frame, never its last byte: the
        // frame is still arriving when the good client drains.
        let frame = padded_submit_frame(2_000);
        let stop = Arc::new(AtomicBool::new(false));
        let sent = Arc::new(AtomicUsize::new(0));
        let mut peer = ClientStream::connect(addr).expect("connect");
        let drip = {
            let (stop, sent) = (Arc::clone(&stop), Arc::clone(&sent));
            std::thread::spawn(move || {
                for &byte in &frame[..frame.len() - 1] {
                    if stop.load(Ordering::Relaxed) || peer.write_all(&[byte]).is_err() {
                        return;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(StdDuration::from_millis(3));
                }
            })
        };
        while sent.load(Ordering::Relaxed) < 8 {
            std::thread::sleep(IDLE_SLEEP);
        }

        drain_good_client(addr);
        let dripped = sent.load(Ordering::Relaxed);
        stop.store(true, Ordering::Relaxed);
        let stats = handle
            .join()
            .expect("join")
            .expect("a frame still arriving owes no ack");
        drip.join().expect("drip thread");
        assert!(dripped < 2_000, "the drip ended before the drain");
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!(stats.submits, 12);
        assert_eq!(stats.admission_log, good_client_log_alone());
    }

    #[test]
    fn leak_report_names_each_offending_op() {
        assert_eq!(leak_report(&[], 0), None);
        let report = leak_report(&[(0, 7), (2, 9)], 0).expect("two leaks");
        assert_eq!(
            report,
            "drain leaked 2 unacked op(s) [conn 0 job 7, conn 2 job 9] and 0 unwritten byte(s)"
        );
        // Lost bytes alone still fail the drain, with no ops to name.
        let report = leak_report(&[], 33).expect("lost bytes");
        assert_eq!(
            report,
            "drain leaked 0 unacked op(s) [none] and 33 unwritten byte(s)"
        );
    }

    /// A sink that takes 1 to 7 bytes a call and refuses every fifth.
    #[derive(Default)]
    struct Trickle {
        taken: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = bytes.len().min(1 + self.calls % 7);
            self.taken.extend_from_slice(&bytes[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_send_every_byte_once_and_in_order() {
        let mut wbuf = WriteBuf::default();
        let mut sink = Trickle::default();
        let mut framed = Vec::new();
        // Frames are queued faster than the sink takes them, so the
        // cursor is mid-buffer whenever one is appended; the drain that
        // follows moves it past half the buffer again and again.
        for i in 0..300 {
            let json = format!("{{\"seq\":{i},\"pad\":\"{}\"}}", "x".repeat(i % 23));
            wbuf.frame(&json);
            encode_frame_into(&mut framed, &json);
            assert!(wbuf.write_to(&mut sink), "the sink never closes");
            assert!(2 * wbuf.written <= wbuf.buf.len());
        }
        while wbuf.pending() > 0 {
            assert!(wbuf.write_to(&mut sink));
            assert!(2 * wbuf.written <= wbuf.buf.len());
        }
        assert_eq!(sink.taken, framed);
        assert_eq!((wbuf.buf.len(), wbuf.written), (0, 0));

        // A sink that takes nothing is closed: the bytes stay pending.
        wbuf.frame("{}");
        let mut closed: &mut [u8] = &mut [];
        assert!(!wbuf.write_to(&mut closed));
        assert_eq!(wbuf.pending(), 5);
    }

    #[test]
    fn submit_ack_drain_roundtrip() {
        let (addr, handle) = start(ServerConfig::default());
        let mut stream = ClientStream::connect(addr).expect("connect");
        let mut reader = FrameReader::new();
        send(
            &mut stream,
            &Request::Submit {
                id: 1,
                arrival_secs: 0.0,
                nodes: 8,
                runtime_secs: 60.0,
            },
        );
        // Default batch size is 1: the ack arrives without a drain.
        let ack = read_response(&mut stream, &mut reader);
        match ack {
            Response::Ack { id: 1, txn: 1, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        send(&mut stream, &Request::Drain);
        match read_response(&mut stream, &mut reader) {
            Response::Drained {
                submits: 1, acks, ..
            } => assert_eq!(acks, 1),
            other => panic!("unexpected {other:?}"),
        }
        let stats = handle.join().expect("join").expect("clean drain");
        assert_eq!(stats.admission_log.len(), 1);
    }

    #[test]
    fn drain_flushes_a_partial_batch() {
        let config = ServerConfig {
            batch: BatchSpec::of(64, rbr_simcore::Duration::from_secs(1e6)),
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config);
        let mut stream = ClientStream::connect(addr).expect("connect");
        let mut reader = FrameReader::new();
        for id in 0..5 {
            send(
                &mut stream,
                &Request::Submit {
                    id,
                    arrival_secs: id as f64,
                    nodes: 1,
                    runtime_secs: 60.0,
                },
            );
        }
        send(&mut stream, &Request::Drain);
        // All five acks must arrive (flushed by the drain), then the
        // drain report.
        let mut acks = 0;
        loop {
            match read_response(&mut stream, &mut reader) {
                Response::Ack { txn, .. } => {
                    assert_eq!(txn, 1, "one transaction for the whole batch");
                    acks += 1;
                }
                Response::Drained {
                    submits,
                    acks: reported,
                    transactions,
                    ..
                } => {
                    assert_eq!((submits, reported, transactions), (5, 5, 1));
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(acks, 5);
        handle.join().expect("join").expect("clean drain");
    }

    #[test]
    fn virtual_deadline_flushes_from_a_later_arrival() {
        let config = ServerConfig {
            batch: BatchSpec::of(64, rbr_simcore::Duration::from_secs(30.0)),
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config);
        let mut stream = ClientStream::connect(addr).expect("connect");
        let mut reader = FrameReader::new();
        send(
            &mut stream,
            &Request::Submit {
                id: 1,
                arrival_secs: 0.0,
                nodes: 1,
                runtime_secs: 60.0,
            },
        );
        // An arrival 100 virtual seconds later crosses the 30 s
        // deadline: job 1's ack must flush in txn 1 before job 2 is
        // even admitted.
        send(
            &mut stream,
            &Request::Submit {
                id: 2,
                arrival_secs: 100.0,
                nodes: 1,
                runtime_secs: 60.0,
            },
        );
        match read_response(&mut stream, &mut reader) {
            Response::Ack { id: 1, txn: 1, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        send(&mut stream, &Request::Drain);
        loop {
            if let Response::Drained { transactions, .. } = read_response(&mut stream, &mut reader)
            {
                assert_eq!(transactions, 2, "deadline flush plus drain flush");
                break;
            }
        }
        handle.join().expect("join").expect("clean drain");
    }
}
