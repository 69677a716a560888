//! The metascheduler service's sustained throughput: stands the
//! virtual-clock service up on an ephemeral port, replays the Lublin
//! arrival stream against it at increasing rate multiples with
//! `rbr-serve`'s own load generator, and records wall-clock frames/sec
//! to `BENCH_serve.json` at the repository root.

use std::time::Instant;

use rbr_bench::print_artifact;
use rbr_serve::{AdmissionConfig, ClockMode, LoadgenConfig, ServerConfig};

/// The rate multiples the committed artifact sweeps: calibrated load,
/// then 4x and 16x — the span where admission shifts from mostly
/// redundant verdicts to shedding.
const RATES: [f64; 3] = [1.0, 4.0, 16.0];

/// One serve + loadgen round trip at `rate`. Returns (wall secs,
/// frames), where frames counts every length-prefixed message crossing
/// the socket: submits and the drain in, acks and the drain report out.
fn time_replay(jobs: usize, rate: f64) -> (f64, u64) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let config = ServerConfig {
        batch: rbr::grid::BatchSpec::of(8, rbr::sim::Duration::from_secs(30.0)),
        admission: AdmissionConfig {
            batch: 8,
            ..AdmissionConfig::default()
        },
        clock: ClockMode::Virtual,
    };
    let server = std::thread::spawn(move || rbr_serve::serve(listener, &config));

    let started = Instant::now();
    let stats = rbr_serve::loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        jobs,
        rate,
        seed: 2006,
    })
    .expect("clean replay");
    let secs = started.elapsed().as_secs_f64();
    server
        .join()
        .expect("server thread")
        .expect("clean server drain");
    assert_eq!(stats.submits, jobs as u64);
    // submits + drain inbound, acks + drain report outbound.
    let frames = stats.submits + 1 + stats.acks + 1;
    (secs, frames)
}

/// Sweeps [`RATES`] and writes the frames/sec trajectory (with a
/// `host_cpus` honesty field — the service is single-threaded, but the
/// loadgen's reader thread and the kernel's loopback work share the
/// host) to `BENCH_serve.json`.
fn record_service_throughput() {
    let quick = std::env::var("RBR_BENCH_QUICK").as_deref() == Ok("1");
    let jobs: usize = if quick { 20_000 } else { 2_000 };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut columns = String::new();
    for rate in RATES {
        // Best of three: the committed number should reflect the
        // service, not one run's scheduler noise.
        let mut best_secs = f64::INFINITY;
        let mut best_frames = 0u64;
        for _ in 0..3 {
            let (secs, frames) = time_replay(jobs, rate);
            if secs < best_secs {
                (best_secs, best_frames) = (secs, frames);
            }
        }
        let label = if rate == rate.trunc() {
            format!("{}", rate as u64)
        } else {
            format!("{rate}")
        };
        columns.push_str(&format!(
            "\"rate{label}_secs\":{best_secs:.3},\
             \"rate{label}_frames\":{best_frames},\
             \"rate{label}_frames_per_sec\":{:.0},",
            best_frames as f64 / best_secs.max(1e-9)
        ));
    }

    let body = format!(
        "{{\"service\":\"serve + loadgen\",\"jobs\":{jobs},\
         \"host_cpus\":{host_cpus},{columns}\
         \"clock\":\"virtual\",\"batch\":8}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &body).expect("write BENCH_serve.json");
    print_artifact("service throughput (BENCH_serve.json)", &body);
}

fn main() {
    record_service_throughput();
}
