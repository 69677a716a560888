//! A fixed reference loop that tracks how fast the host is running.
//!
//! On a shared two-vCPU host the same work ran up to 1.6 times as slow
//! for minutes at a time while neighbours were busy, and code slowed
//! unevenly: a pass's grid configurations slowed twice as much as the
//! simulations built from them. The benchmark times this loop — code of
//! its own, which no change to the program can speed up — right before
//! and right after every pass and scales the pass's timings by
//! [`NOMINAL_SECS`] over the loop's mean time. The loop does what the
//! program's hot paths do: an event heap, hash-map entries, and short
//! vectors allocated and freed.
//!
//! Over eight interleaved rounds of all six workloads on such a host,
//! per-pass scaling by this loop held the run-to-run spread
//! (interquartile range over median) to 0.03–0.05 where raw times
//! spread 0.12–0.28. Random read-modify-writes over 2 MiB held 0.04–0.10,
//! and a loop of register arithmetic only 0.07–0.20: the neighbours slow
//! memory traffic more than the clock.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Once;
use std::time::Instant;

/// The loop's time on a quiet two-vCPU Xeon VM: scaled timings read as
/// seconds on such a host.
pub const NOMINAL_SECS: f64 = 0.006;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The loop: 60k pops and pushes on a 512-event heap, each event
/// appending to one of 4096 hash-map vectors (drained every eight), and
/// a short vector allocated and freed. Returns a checksum.
fn spin() -> u64 {
    let mut events = BinaryHeap::new();
    // A fixed hasher, so every run does the same work.
    let mut lists: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let (mut x, mut acc) = (0x2545_f491_4f6c_dd1du64, 0u64);
    for i in 0..512u64 {
        events.push(Reverse((xorshift(&mut x) % 1_000_000, i)));
    }
    for i in 0..60_000u64 {
        let r = xorshift(&mut x);
        let Reverse((t, id)) = events.pop().expect("the heap never empties");
        events.push(Reverse((t + r % 100_000, i)));
        let list = lists.entry(id % 4096).or_default();
        list.push(t);
        if list.len() > 8 {
            acc = acc.wrapping_add(list.iter().sum::<u64>());
            list.clear();
        }
        let scratch: Vec<u64> = Vec::with_capacity((r % 64) as usize + 1);
        acc = acc.wrapping_add(scratch.capacity() as u64);
    }
    acc
}

/// Seconds of one timed run of the loop. The process's first call runs
/// it once untimed beforehand, so no sample pays for first-touch page
/// faults.
pub fn loop_secs() -> f64 {
    static WARM: Once = Once::new();
    WARM.call_once(|| {
        std::hint::black_box(spin());
    });
    let t = Instant::now();
    std::hint::black_box(spin());
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_repeats_its_work() {
        assert_eq!(spin(), spin());
        assert!(loop_secs() > 0.0);
    }
}
