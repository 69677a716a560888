//! The journal and cache loaders against hostile bytes.
//!
//! A 7-cell journal at 3 records a segment (two sealed segments, the
//! active one and `journal.idx`) and one cell-cache entry are written
//! through the public API. Each seeded case then makes one change to one
//! file — a flipped bit, a truncation, an overwritten byte, or a
//! spliced-in run of 100,000 `[`, a huge or negative number, a newline
//! or junk bytes — and drives the loaders over the result:
//! `Journal::load`, `read_payload`, `reopen` + `append` + `finish`, and
//! `CellCache::lookup`. Each must answer with `Ok`, `Err` or `None`
//! within a time bound, never a panic, and a cache hit must return
//! exactly the record that was stored.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rbr_exec::cache::CellCache;
use rbr_exec::journal::{Journal, Record};

const CELLS: u64 = 7;
const SEGMENT_RECORDS: usize = 3;
/// Not ASCII, so some changes land inside a UTF-8 sequence.
const MANIFEST: &str = "scale=smoke seed=7 · π";
const JOURNAL_CASES: u64 = 3000;
const CACHE_CASES: u64 = 2000;
/// Far above a linear pass over the largest case (~100 kB) in a debug
/// build, far below a quadratic one.
const CASE_BOUND: Duration = Duration::from_secs(2);

fn record(cell: u64) -> Record {
    Record {
        cell,
        key: format!("cell{cell}"),
        elapsed_secs: 0.25 * cell as f64,
        payload: format!("{{\"cell\":{cell},\"s\":\"a\\nb · π\",\"n\":[1,-2.5e3]}}"),
    }
}

/// SplitMix64, so every run makes the same cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const NUMBERS: [&str; 7] = [
    "18446744073709551616",
    "99999999999999999999999999999999",
    "4294967296",
    "-1",
    "-9223372036854775809",
    "1e400",
    "-0",
];

/// Makes one change to `bytes` and describes it.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) -> String {
    let at = rng.below(bytes.len() + 1);
    let (what, with) = match rng.below(7) {
        0 if at < bytes.len() => {
            let bit = rng.below(8);
            bytes[at] ^= 1 << bit;
            return format!("bit {bit} of byte {at} flipped");
        }
        1 => {
            bytes.truncate(at);
            return format!("truncated to {at} bytes");
        }
        2 if at < bytes.len() => {
            let byte = rng.below(256) as u8;
            bytes[at] = byte;
            return format!("byte {at} overwritten with {byte:#04x}");
        }
        3 => ("100,000 `[`", vec![b'['; 100_000]),
        4 => {
            let number = NUMBERS[rng.below(NUMBERS.len())];
            // In place of the next number in the file, so that the
            // loaders read it as a value and not just as a syntax error.
            if let Some(start) = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) {
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                bytes.splice(start..end, number.bytes());
                return format!("the number at byte {start} replaced with {number}");
            }
            (number, number.as_bytes().to_vec())
        }
        5 => ("a newline", vec![b'\n']),
        _ => {
            let junk = (0..1 + rng.below(16))
                .map(|_| rng.below(256) as u8)
                .collect();
            ("junk", junk)
        }
    };
    bytes.splice(at..at, with);
    format!("{what} spliced in at byte {at}")
}

/// A directory's files: name → contents.
type Files = BTreeMap<String, Vec<u8>>;

fn read_files(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

fn write_files(dir: &Path, files: &Files) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rbr-exec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Runs `cases` seeded cases of `case`, and fails listing the ones that
/// panicked or overran [`CASE_BOUND`], and the first of the messages
/// `case` returned as `Err`.
fn run_cases(cases: u64, mut case: impl FnMut(&mut Rng) -> (String, Result<(), String>)) {
    let mut failures = Vec::new();
    for seed in 0..cases {
        let mut rng = Rng(seed);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| case(&mut rng)));
        let took = started.elapsed();
        match outcome {
            Err(_) => failures.push(format!("case {seed} panicked")),
            Ok((change, Err(e))) => failures.push(format!("case {seed} ({change}): {e}")),
            Ok((change, Ok(()))) if took > CASE_BOUND => {
                failures.push(format!("case {seed} ({change}) took {took:?}"))
            }
            Ok(_) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cases} cases fail; the first:\n{}",
        failures.len(),
        failures[..failures.len().min(8)].join("\n")
    );
}

#[test]
fn the_journal_loader_survives_hostile_bytes() {
    let root = scratch_root("hostile-journal");
    let origin = root.join("origin");
    let mut journal = Journal::create(&origin, MANIFEST, CELLS, SEGMENT_RECORDS).unwrap();
    for cell in 0..CELLS {
        journal.append(&record(cell)).unwrap();
    }
    drop(journal);
    let files = read_files(&origin);
    assert_eq!(
        files.keys().collect::<Vec<_>>(),
        [
            "journal.idx",
            "seg-00000.jsonl",
            "seg-00001.jsonl",
            "seg-00002.jsonl"
        ]
    );
    let dir = root.join("case");
    run_cases(JOURNAL_CASES, |rng| {
        let mut files = files.clone();
        let name = files.keys().nth(rng.below(files.len())).unwrap().clone();
        let change = mutate(files.get_mut(&name).unwrap(), rng);
        write_files(&dir, &files);
        // Any answer is fine but a panic: a damaged journal may load, or
        // fail to, and so may every step after it.
        if let Ok(Some(loaded)) = Journal::load(&dir) {
            for entry in &loaded.entries {
                let _ = loaded.read_payload(entry);
            }
            if let Ok(mut journal) = Journal::reopen(&dir, &loaded) {
                let _ = journal
                    .append(&record(CELLS))
                    .and_then(|()| journal.finish());
                let _ = Journal::load(&dir);
            }
        }
        (format!("{name}: {change}"), Ok(()))
    });
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_cache_hit_returns_the_stored_record_whatever_the_bytes() {
    let root = scratch_root("hostile-cache");
    let cache = CellCache::open(&root).unwrap();
    let stored = record(4);
    cache.store(MANIFEST, &stored).unwrap();
    let shard = std::fs::read_dir(&root)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let entry = std::fs::read_dir(&shard)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let bytes = std::fs::read(&entry).unwrap();
    assert_eq!(cache.lookup(MANIFEST, &stored.key), Some(stored.clone()));
    run_cases(CACHE_CASES, |rng| {
        let mut bytes = bytes.clone();
        let change = mutate(&mut bytes, rng);
        std::fs::write(&entry, &bytes).unwrap();
        let outcome = match cache.lookup(MANIFEST, &stored.key) {
            Some(hit) if hit != stored => Err(format!(
                "a hit returned cell {}, key {:?}, elapsed {} and a {}-byte payload",
                hit.cell,
                hit.key,
                hit.elapsed_secs,
                hit.payload.len()
            )),
            _ => Ok(()),
        };
        (change, outcome)
    });
    std::fs::remove_dir_all(&root).unwrap();
}
