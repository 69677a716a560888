//! The metascheduler service under load: the request-stream generator,
//! a one-connection client that drives an in-process `rbr_serve::serve`
//! open-loop (due times) or closed (a burst), the staged replay of a
//! stream through the service's own layers, and the goodput rule.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use rbr::sim::{unit, Duration, SeedSequence};
use rbr::workload::{EstimateModel, LublinConfig, LublinModel};
use rbr_exec::hash::{fnv1a64, FNV_BASIS};
use rbr_serve::batcher::{OpKind, PendingOp};
use rbr_serve::wire::{encode_frame, FrameReader};
use rbr_serve::{
    AdmissionConfig, AdmissionController, Batcher, Clock, ClockMode, Decision, Request, Response,
    ServerConfig, ServerStats, Transaction, Verdict,
};

/// A job's cancel follows this many submits after its own.
pub const CANCEL_LAG: usize = 8;

/// The service configuration CI runs: virtual clock, transactions of 8
/// ops with a 30 s deadline, admission credited for batches of 8.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        batch: rbr::grid::BatchSpec::of(8, Duration::from_secs(30.0)),
        admission: AdmissionConfig {
            batch: 8,
            ..AdmissionConfig::default()
        },
        clock: ClockMode::Virtual,
    }
}

/// A request stream: `jobs` Lublin submits with arrivals compressed by
/// `rate_mult`, where each job independently (probability `cancel_p`)
/// sends a cancel right after the submit of job `i + CANCEL_LAG`,
/// stamped with that submit's arrival. A pure function of `seed`.
pub fn request_stream(
    seed: SeedSequence,
    jobs: usize,
    rate_mult: f64,
    cancel_p: f64,
) -> Vec<Request> {
    let model = LublinModel::new(LublinConfig::paper_2006());
    let estimates = EstimateModel::paper_real();
    let mut rng = seed.child(0).rng();
    let mut coin = seed.child(1).rng();
    let cancels: Vec<bool> = (0..jobs).map(|_| unit(&mut coin) < cancel_p).collect();
    let mut out = Vec::with_capacity(jobs + jobs / 2);
    for (i, job) in model
        .stream(&mut rng, Duration::MAX, &estimates)
        .take(jobs)
        .enumerate()
    {
        let arrival_secs = job.arrival.as_secs() / rate_mult;
        out.push(Request::Submit {
            id: i as u64,
            arrival_secs,
            nodes: job.nodes,
            runtime_secs: job.runtime.as_secs(),
        });
        if i >= CANCEL_LAG && cancels[i - CANCEL_LAG] {
            out.push(Request::Cancel {
                id: (i - CANCEL_LAG) as u64,
                arrival_secs,
            });
        }
    }
    out
}

fn arrival(req: &Request) -> f64 {
    match req {
        Request::Submit { arrival_secs, .. } | Request::Cancel { arrival_secs, .. } => {
            *arrival_secs
        }
        Request::Drain => 0.0,
    }
}

/// Wall due times (ns after the step starts): the workload arrivals
/// scaled so submits average `rate` per second, which keeps the
/// stream's bursts. A cancel is due with the submit it follows.
pub fn due_times(reqs: &[Request], rate: f64) -> Vec<u64> {
    let submits = reqs
        .iter()
        .filter(|r| matches!(r, Request::Submit { .. }))
        .count();
    let first = reqs.first().map_or(0.0, arrival);
    let last = reqs.last().map_or(0.0, arrival);
    let span_secs = (submits.saturating_sub(1)) as f64 / rate;
    let scale = if last > first {
        span_secs / (last - first)
    } else {
        0.0
    };
    reqs.iter()
        .map(|r| ((arrival(r) - first) * scale * 1e9).round() as u64)
        .collect()
}

/// The requests as wire bytes, one frame each, plus each frame's end
/// offset — the generated input the client sends.
pub fn encode(reqs: &[Request]) -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut ends = Vec::with_capacity(reqs.len());
    for r in reqs {
        wire.extend_from_slice(&encode_frame(&r.to_json()));
        ends.push(wire.len());
    }
    (wire, ends)
}

/// One client connection to a freshly started service.
pub struct Session {
    server: JoinHandle<Result<ServerStats, String>>,
    stream: TcpStream,
}

/// Binds an ephemeral port, starts the service on its own thread and
/// connects one client — the service's set-up.
pub fn connect() -> Result<Session, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let config = server_config();
    let server = std::thread::spawn(move || rbr_serve::serve(listener, &config));
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(Session { server, stream })
}

/// What the server and the client saw over one session.
pub struct Exchange {
    /// The server's lifetime totals and admission log.
    pub stats: ServerStats,
    /// Per submit id: ack instant (ns after the first send), `None` if
    /// never acked.
    pub submit_ack_ns: Vec<Option<u64>>,
    /// Per submit id: acked with a shed verdict.
    pub shed: Vec<bool>,
    /// Per cancelled job id: cancel-ack instant.
    pub cancel_ack_ns: Vec<Option<u64>>,
    /// Frames received (acks, cancel acks, the drain report).
    pub frames_in: u64,
    /// Digest of every ack payload in arrival order.
    pub ack_digest: u64,
    /// Per request, open loop only: how late it was sent (ns past its
    /// due time).
    pub late_ns: Vec<u64>,
}

/// The client's side of a session: frames acks as they arrive.
struct Acks {
    ex: Exchange,
    reader: FrameReader,
    drained: Option<(u64, u64, u64, u64)>,
}

impl Acks {
    fn new(jobs: usize) -> Acks {
        Acks {
            ex: Exchange {
                stats: ServerStats::default(),
                submit_ack_ns: vec![None; jobs],
                shed: vec![false; jobs],
                cancel_ack_ns: vec![None; jobs],
                frames_in: 0,
                ack_digest: FNV_BASIS,
                late_ns: Vec::new(),
            },
            reader: FrameReader::new(),
            drained: None,
        }
    }

    /// Takes bytes read at `at` (ns after the first send).
    fn feed(&mut self, bytes: &[u8], at: u64) -> Result<(), String> {
        self.reader.extend(bytes);
        while let Some(frame) = self.reader.next_frame()? {
            self.ex.frames_in += 1;
            let ex = &mut self.ex;
            let slot = |id: u64| {
                usize::try_from(id)
                    .ok()
                    .filter(|&i| i < ex.shed.len())
                    .ok_or_else(|| format!("ack for unknown job {id}"))
            };
            match Response::from_json(&frame)? {
                Response::Ack { id, verdict, .. } => {
                    let i = slot(id)?;
                    if ex.submit_ack_ns[i].replace(at).is_some() {
                        return Err(format!("job {id} acked twice"));
                    }
                    ex.shed[i] = verdict == Verdict::Shed;
                }
                Response::CancelAck { id, .. } => {
                    let i = slot(id)?;
                    if ex.cancel_ack_ns[i].replace(at).is_some() {
                        return Err(format!("cancel of job {id} acked twice"));
                    }
                }
                Response::Drained {
                    submits,
                    acks,
                    transactions,
                    shed,
                } => {
                    self.drained = Some((submits, acks, transactions, shed));
                    continue;
                }
            }
            ex.ack_digest = fnv1a64(ex.ack_digest, frame.as_bytes());
        }
        Ok(())
    }

    /// Joins the service and checks the drain.
    fn finish(self, server: JoinHandle<Result<ServerStats, String>>) -> Result<Exchange, String> {
        let mut ex = self.ex;
        ex.stats = server
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        let report = self.drained.ok_or("no drain report")?;
        check_drain(&ex, report)?;
        Ok(ex)
    }
}

/// The framed `drain` request that ends a stream.
fn drain_frame() -> Vec<u8> {
    encode_frame(&Request::Drain.to_json())
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl Session {
    /// Open loop: sends `wire`'s frames (ending at `ends`), each no
    /// earlier than its due time, spinning on a non-blocking socket so
    /// sends leave on time and acks are stamped as they land; then
    /// drains the service. `jobs` bounds the submit ids.
    pub fn open_loop(
        self,
        wire: &[u8],
        ends: &[usize],
        due_ns: &[u64],
        jobs: usize,
    ) -> Result<Exchange, String> {
        let Session { server, mut stream } = self;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        let mut acks = Acks::new(jobs);
        let mut late_ns = Vec::with_capacity(ends.len());
        let mut out: Vec<u8> = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let t0 = Instant::now();
        // One non-blocking round: write what the socket takes, read what
        // has arrived. Returns whether anything was read.
        let mut pump = |out: &mut Vec<u8>, acks: &mut Acks| -> Result<bool, String> {
            while !out.is_empty() {
                match stream.write(out) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(n) => drop(out.drain(..n)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            match stream.read(&mut buf) {
                Ok(0) => Err("server hung up before the drain report".to_string()),
                Ok(n) => acks.feed(&buf[..n], ns_since(t0)).map(|()| true),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    Ok(false)
                }
                Err(e) => Err(format!("read: {e}")),
            }
        };
        let mut start = 0;
        for (&end, &due) in ends.iter().zip(due_ns) {
            loop {
                pump(&mut out, &mut acks)?;
                let now = ns_since(t0);
                if now >= due {
                    late_ns.push(now - due);
                    break;
                }
                std::hint::spin_loop();
            }
            out.extend_from_slice(&wire[start..end]);
            start = end;
        }
        out.extend_from_slice(&drain_frame());
        while acks.drained.is_none() {
            if !pump(&mut out, &mut acks)? {
                std::thread::yield_now();
            }
        }
        acks.ex.late_ns = late_ns;
        acks.finish(server)
    }

    /// Closed burst: a helper thread writes every frame and the drain
    /// with blocking writes while this thread reads the acks, as
    /// `rbr loadgen` does — neither spins, so the service keeps a core.
    pub fn burst(self, wire: &[u8], jobs: usize) -> Result<Exchange, String> {
        let Session { server, mut stream } = self;
        let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut acks = Acks::new(jobs);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let sending = scope.spawn(move || {
                writer
                    .write_all(wire)
                    .and_then(|()| writer.write_all(&drain_frame()))
                    .map_err(|e| format!("write: {e}"))
            });
            let mut buf = vec![0u8; 64 * 1024];
            let read = (|| {
                while acks.drained.is_none() {
                    match stream.read(&mut buf) {
                        Ok(0) => return Err("server hung up before the drain report".to_string()),
                        Ok(n) => acks.feed(&buf[..n], ns_since(t0))?,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("read: {e}")),
                    }
                }
                Ok(())
            })();
            let sent = sending
                .join()
                .map_err(|_| "writer thread panicked".to_string())?;
            read.and(sent)
        })?;
        acks.finish(server)
    }
}

/// A clean drain: every op acked exactly once, and the server's report
/// agrees with what the client counted.
fn check_drain(ex: &Exchange, report: (u64, u64, u64, u64)) -> Result<(), String> {
    let submit_acks = ex.submit_ack_ns.iter().filter(|a| a.is_some()).count() as u64;
    let cancel_acks = ex.cancel_ack_ns.iter().filter(|a| a.is_some()).count() as u64;
    let shed = ex.shed.iter().filter(|&&s| s).count() as u64;
    let s = &ex.stats;
    let client = (submit_acks, submit_acks + cancel_acks, shed);
    if s.acks != s.submits + s.cancels
        || (s.submits, s.acks, s.shed) != client
        || report != (s.submits, s.acks, s.transactions, s.shed)
        || s.cancels != cancel_acks
        || s.admission_log.len() as u64 != s.submits
    {
        return Err(format!(
            "unclean drain: server {}/{}/{} submits/cancels/acks, client {client:?}, report {report:?}",
            s.submits, s.cancels, s.acks
        ));
    }
    Ok(())
}

/// Latencies (ms) of admitted ops, from due time to ack; sheds and
/// missing acks are `f64::INFINITY` when `misses` is set and left out
/// otherwise.
pub fn latencies_ms(reqs: &[Request], due_ns: &[u64], ex: &Exchange, misses: bool) -> Vec<f64> {
    let mut out = Vec::with_capacity(reqs.len());
    for (r, &due) in reqs.iter().zip(due_ns) {
        let (ack, shed) = match r {
            Request::Submit { id, .. } => (ex.submit_ack_ns[*id as usize], ex.shed[*id as usize]),
            Request::Cancel { id, .. } => (ex.cancel_ack_ns[*id as usize], false),
            Request::Drain => continue,
        };
        match ack {
            Some(at) if !shed => out.push(at.saturating_sub(due) as f64 * 1e-6),
            _ if misses => out.push(f64::INFINITY),
            _ => {}
        }
    }
    out
}

/// How one fixed-rate step went, for the goodput rule.
#[derive(Clone, Debug, PartialEq)]
pub struct StepSummary {
    /// Offered submits per second.
    pub rate: f64,
    /// Tail latency (ms) over every op, misses counted as infinite.
    pub tail_ms: f64,
    /// Seconds from the step's last due time to its last ack.
    pub backlog_secs: f64,
    /// The step's length (first to last due time), seconds.
    pub step_secs: f64,
}

/// A step meets the limit when its tail latency is within `limit_ms`
/// and its backlog stays bounded: the last ack lands within 10% of the
/// step length after the last due time.
pub fn step_passes(step: &StepSummary, limit_ms: f64) -> bool {
    step.tail_ms <= limit_ms && step.backlog_secs <= 0.1 * step.step_secs
}

/// Goodput: the highest offered rate among the steps that meet the
/// limit; 0 when none does.
pub fn goodput(steps: &[StepSummary], limit_ms: f64) -> f64 {
    steps
        .iter()
        .filter(|s| step_passes(s, limit_ms))
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

/// Per-op costs (ns) of the service layers over one replayed stream.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// `FrameReader` + `Request::from_json`, per request.
    pub parse_ns: f64,
    /// `AdmissionController::decide`, per submit.
    pub admit_ns: f64,
    /// `Batcher::poll_deadline` + `push` (+ the drain's `flush`), per op.
    pub batch_ns: f64,
    /// `Response::to_json` + `encode_frame`, per response.
    pub write_ns: f64,
    /// Every admission decision, in order.
    pub decisions: Vec<Decision>,
    /// Transactions flushed.
    pub txns: u64,
    /// Digest of every response payload, in the order the server
    /// writes them.
    pub ack_digest: u64,
}

enum Out {
    Shed(u64),
    Txn(Transaction),
}

fn per(elapsed: std::time::Duration, n: usize) -> f64 {
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

/// Replays `wire` (a stream; its end flushes the batcher as a `drain`
/// does) through the service's layers one stage at a time, in the order
/// `server.rs` calls them: frame and parse every request; advance the
/// virtual clock and decide admission; batch with deadline polls; render
/// and frame every response. Fed in the server's 16 KiB read chunks.
pub fn replay(wire: &[u8], config: &ServerConfig) -> Result<Replay, String> {
    let t = Instant::now();
    let mut reader = FrameReader::new();
    let mut reqs = Vec::new();
    for chunk in wire.chunks(16 * 1024) {
        reader.extend(chunk);
        while let Some(payload) = reader.next_frame()? {
            reqs.push(Request::from_json(&payload)?);
        }
    }
    let parse_ns = per(t.elapsed(), reqs.len());

    let mut clock = Clock::new(config.clock);
    let mut admission = AdmissionController::new(config.admission.clone());
    let t = Instant::now();
    let mut decisions = Vec::with_capacity(reqs.len());
    for r in &reqs {
        match *r {
            Request::Submit {
                id,
                arrival_secs,
                nodes,
                runtime_secs,
            } => {
                clock.advance_to(arrival_secs);
                decisions.push(admission.decide(id, clock.now_secs(), nodes, runtime_secs));
            }
            Request::Cancel { arrival_secs, .. } => clock.advance_to(arrival_secs),
            Request::Drain => {}
        }
    }
    let admit_ns = per(t.elapsed(), decisions.len());

    let mut clock = Clock::new(config.clock);
    let mut batcher = Batcher::new(config.batch);
    let mut outs = Vec::new();
    let mut next = decisions.iter();
    let mut pushed = 0usize;
    let t = Instant::now();
    for r in &reqs {
        let (id, kind, arrival_secs) = match *r {
            Request::Submit {
                id, arrival_secs, ..
            } => (id, OpKind::Submit, arrival_secs),
            Request::Cancel { id, arrival_secs } => (id, OpKind::Cancel, arrival_secs),
            Request::Drain => {
                outs.extend(batcher.flush().map(Out::Txn));
                continue;
            }
        };
        clock.advance_to(arrival_secs);
        outs.extend(batcher.poll_deadline(clock.now_secs()).map(Out::Txn));
        let (redundancy, verdict) = match kind {
            OpKind::Submit => {
                let d = next.next().ok_or("decision stream ran short")?;
                if d.verdict == Verdict::Shed {
                    outs.push(Out::Shed(id));
                    continue;
                }
                (d.redundancy, d.verdict)
            }
            OpKind::Cancel => (0, Verdict::Redundant),
        };
        pushed += 1;
        let op = PendingOp {
            conn: 0,
            id,
            kind,
            redundancy,
            verdict,
        };
        outs.extend(batcher.push(op, clock.now_secs()).map(Out::Txn));
    }
    outs.extend(batcher.flush().map(Out::Txn));
    let batch_ns = per(t.elapsed(), pushed);

    let t = Instant::now();
    let mut responses = 0usize;
    let mut ack_digest = FNV_BASIS;
    let mut txns = 0u64;
    let mut emit = |resp: Response| {
        let json = resp.to_json();
        std::hint::black_box(encode_frame(&json));
        ack_digest = fnv1a64(ack_digest, json.as_bytes());
        responses += 1;
    };
    for out in &outs {
        match out {
            Out::Shed(id) => emit(Response::Ack {
                id: *id,
                redundancy: 0,
                verdict: Verdict::Shed,
                txn: 0,
            }),
            Out::Txn(txn) => {
                txns += 1;
                for op in &txn.ops {
                    emit(match op.kind {
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
                    });
                }
            }
        }
    }
    let write_ns = per(t.elapsed(), responses);
    Ok(Replay {
        parse_ns,
        admit_ns,
        batch_ns,
        write_ns,
        decisions,
        txns,
        ack_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_cancels_trail_by_the_lag() {
        let seed = SeedSequence::new(2006);
        let a = request_stream(seed, 400, 1.0, 0.5);
        let b = request_stream(seed, 400, 1.0, 0.5);
        assert_eq!(encode(&a).0, encode(&b).0, "same seed, same bytes");
        assert_ne!(
            encode(&a).0,
            encode(&request_stream(SeedSequence::new(7), 400, 1.0, 0.5)).0
        );
        let mut cancels = 0;
        for (k, r) in a.iter().enumerate() {
            if let Request::Cancel { id, arrival_secs } = r {
                cancels += 1;
                // Right after the submit of job id + LAG, with its stamp.
                match &a[k - 1] {
                    Request::Submit {
                        id: sid,
                        arrival_secs: sa,
                        ..
                    } => {
                        assert_eq!(*sid, id + CANCEL_LAG as u64);
                        assert_eq!(sa, arrival_secs);
                    }
                    other => panic!("cancel follows {other:?}"),
                }
            }
        }
        // A fair coin over 392 eligible jobs.
        assert!((150..250).contains(&cancels), "{cancels} cancels");
        // Submits only, and compressed arrivals, at 16x.
        let fast = request_stream(seed, 400, 16.0, 0.0);
        assert_eq!(fast.len(), 400);
        assert!((arrival(&fast[399]) * 16.0 - arrival(&a[a.len() - 1])).abs() < 1e-6);
    }

    #[test]
    fn due_times_scale_arrivals_to_the_rate() {
        let reqs = request_stream(SeedSequence::new(1), 1_001, 1.0, 0.5);
        let due = due_times(&reqs, 2_000.0);
        assert_eq!(due[0], 0);
        // 1000 gaps at 2000 jobs/s: the last submit is due at 0.5 s.
        assert_eq!(*due.last().unwrap(), 500_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        for (k, r) in reqs.iter().enumerate() {
            if let Request::Cancel { .. } = r {
                assert_eq!(due[k], due[k - 1], "a cancel is due with its submit");
            }
        }
    }

    #[test]
    fn goodput_is_the_highest_step_meeting_latency_and_backlog() {
        let step = |rate: f64, tail_ms: f64, backlog_secs: f64| StepSummary {
            rate,
            tail_ms,
            backlog_secs,
            step_secs: 1.0,
        };
        let steps = [
            step(20_000.0, 1.0, 0.001),
            step(25_000.0, 2.0, 0.05),
            // Latency fine but the backlog outlives 10% of the step.
            step(31_250.0, 3.0, 0.2),
            // Within the backlog rule but over the limit.
            step(39_062.5, 80.0, 0.01),
            // Misses count as infinite latency.
            step(48_828.125, f64::INFINITY, 0.0),
        ];
        assert_eq!(goodput(&steps, 50.0), 25_000.0);
        assert!(
            step_passes(&step(1.0, 50.0, 0.1), 50.0),
            "limits are inclusive"
        );
        assert_eq!(goodput(&steps[2..], 50.0), 0.0);
    }

    #[test]
    fn replay_matches_a_live_session() {
        let config = server_config();
        let reqs = request_stream(SeedSequence::new(3), 2_000, 1.0, 0.5);
        let (wire, _) = encode(&reqs);
        let live = connect()
            .expect("start service")
            .burst(&wire, 2_000)
            .expect("clean burst");
        let replay = replay(&wire, &config).expect("replay");
        let log: Vec<String> = replay.decisions.iter().map(Decision::log_line).collect();
        assert_eq!(log, live.stats.admission_log);
        assert_eq!(replay.ack_digest, live.ack_digest);
        assert_eq!(replay.txns, live.stats.transactions);
    }
}
