//! Resume from every crash point of a campaign journal.
//!
//! A journal of 7 cells at 2 records a segment is written through the
//! public API, with a snapshot of its directory after `create`, after
//! each `append` and after `finish`. Consecutive snapshots give back the
//! ordered stream of writes, and a kill can land between any two of its
//! bytes. Every such crash state (each file just created, then each byte
//! prefix) is materialized and resumed two ways: through
//! `Journal::load`, `reopen`, `append` and `finish`, and through
//! `run_streaming` with `resume: true`. Both must end with every cell's
//! payload exactly as an uninterrupted run wrote it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rbr_exec::journal::{Journal, Record, INDEX_FILE};
use rbr_exec::{run_streaming, CampaignOptions, CellOutcome, CellSpec};

const CELLS: u64 = 7;
const SEGMENT_RECORDS: usize = 2;
/// Not ASCII, so some crash states cut a header inside a UTF-8 sequence.
const MANIFEST: &str = "scale=smoke seed=7 · π";

fn record(cell: u64) -> Record {
    Record {
        cell,
        key: format!("cell{cell}"),
        elapsed_secs: 0.25 * cell as f64,
        payload: format!("{{\"cell\":{cell},\"s\":\"a\\nb · π\"}}"),
    }
}

/// A campaign directory's files: name → contents.
type Snapshot = BTreeMap<String, Vec<u8>>;

fn snapshot(dir: &Path) -> Snapshot {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// One write of the journal: `bytes` appended to `file`, which the write
/// creates first when `created` holds.
struct Write {
    file: String,
    created: bool,
    bytes: Vec<u8>,
}

/// Rebuilds the ordered write stream from the snapshots taken after each
/// call, the first one after `create`.
fn write_stream(snapshots: &[Snapshot]) -> Vec<Write> {
    let empty = Snapshot::new();
    let mut writes = Vec::new();
    for (before, after) in std::iter::once(&empty).chain(snapshots).zip(snapshots) {
        let mut step: Vec<Write> = Vec::new();
        for (file, bytes) in after {
            let old = before.get(file).map_or(&[][..], Vec::as_slice);
            assert!(bytes.starts_with(old), "{file} is append-only");
            if !before.contains_key(file) || bytes.len() > old.len() {
                step.push(Write {
                    file: file.clone(),
                    created: !before.contains_key(file),
                    bytes: bytes[old.len()..].to_vec(),
                });
            }
        }
        // The writer's order within one call: at `create`, segment 0's
        // header before the index's; at a roll, the sealed index block
        // before the new segment.
        step.sort_by_key(|w| match (w.file == INDEX_FILE, w.created) {
            (true, false) => 0,
            (false, _) => 1,
            (true, true) => 2,
        });
        writes.extend(step);
    }
    writes
}

/// Every state a kill can leave, labelled: the empty directory, then each
/// file as it is created (empty), then each byte it gains.
fn crash_states(writes: &[Write]) -> Vec<(String, Snapshot)> {
    let mut state = Snapshot::new();
    let mut states = vec![("no files".to_string(), state.clone())];
    for w in writes {
        if w.created {
            state.insert(w.file.clone(), Vec::new());
            states.push((format!("{} created", w.file), state.clone()));
        }
        for &byte in &w.bytes {
            let bytes = state.get_mut(&w.file).unwrap();
            bytes.push(byte);
            let label = format!("{} at {} bytes", w.file, bytes.len());
            states.push((label, state.clone()));
        }
    }
    states
}

/// The crash states of a 7-cell journal, checked to pass through every
/// snapshot it was rebuilt from.
fn journal_crash_states(root: &Path) -> Vec<(String, Snapshot)> {
    let dir = root.join("origin");
    let mut journal = Journal::create(&dir, MANIFEST, CELLS, SEGMENT_RECORDS).unwrap();
    let mut snapshots = vec![snapshot(&dir)];
    for cell in 0..CELLS {
        journal.append(&record(cell)).unwrap();
        snapshots.push(snapshot(&dir));
    }
    journal.finish().unwrap();
    snapshots.push(snapshot(&dir));
    let states = crash_states(&write_stream(&snapshots));
    let mut rest = states.iter().map(|(_, state)| state);
    for snap in &snapshots {
        assert!(
            rest.any(|state| state == snap),
            "the stream skips a snapshot"
        );
    }
    assert_eq!(states.last().map(|(_, state)| state), snapshots.last());
    states
}

fn materialize(dir: &Path, state: &Snapshot) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (file, bytes) in state {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
}

fn scratch_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rbr-exec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Resumes every crash state in a fresh directory with `resume`, and
/// fails listing the states it could not resume.
fn resume_every_state(tag: &str, resume: impl Fn(&Path) -> Result<(), String>) {
    let root = scratch_root(tag);
    let states = journal_crash_states(&root);
    let dir = root.join("crash");
    let mut failures = Vec::new();
    for (label, state) in &states {
        materialize(&dir, state);
        if let Err(e) = resume(&dir) {
            failures.push(format!("{label}: {e}"));
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
    assert!(
        failures.is_empty(),
        "{} of {} crash states fail to resume; the first:\n{}",
        failures.len(),
        states.len(),
        failures[..failures.len().min(8)].join("\n")
    );
}

#[test]
fn the_journal_resumes_from_every_crash_point() {
    resume_every_state("crash-journal", |dir| {
        let loaded = Journal::load(dir)?;
        let mut journal = match &loaded {
            Some(loaded) => Journal::reopen(dir, loaded)?,
            None => Journal::create(dir, MANIFEST, CELLS, SEGMENT_RECORDS)?,
        };
        let done: Vec<u64> = loaded
            .iter()
            .flat_map(|l| &l.entries)
            .map(|e| e.cell)
            .collect();
        for cell in (0..CELLS).filter(|cell| !done.contains(cell)) {
            journal.append(&record(cell))?;
        }
        journal.finish()?;
        let reloaded = Journal::load(dir)?.ok_or("no journal after finish")?;
        let mut records = reloaded
            .entries
            .iter()
            .map(|e| {
                Ok(Record {
                    cell: e.cell,
                    key: e.key.clone(),
                    elapsed_secs: e.elapsed_secs,
                    payload: reloaded.read_payload(e)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        records.sort_by_key(|r| r.cell);
        if (reloaded.manifest.as_str(), reloaded.cells) != (MANIFEST, CELLS) {
            return Err(format!("reloaded as `{}`", reloaded.manifest));
        }
        if records != (0..CELLS).map(record).collect::<Vec<_>>() {
            return Err(format!("reloaded {records:?}"));
        }
        Ok(())
    });
}

#[test]
fn a_campaign_resumes_from_every_crash_point() {
    let cells: Vec<CellSpec> = (0..CELLS).map(|i| CellSpec::new(record(i).key)).collect();
    let run = |dir: Option<&Path>| {
        let options = CampaignOptions {
            dir: dir.map(Path::to_path_buf),
            resume: true,
            manifest: MANIFEST.to_string(),
            segment_records: Some(SEGMENT_RECORDS),
            ..CampaignOptions::default()
        };
        let mut payloads = Vec::new();
        let stats = run_streaming(
            &cells,
            &options,
            |i, _| record(i as u64).payload,
            |outcome: CellOutcome| {
                payloads.push(outcome.payload);
                Ok(())
            },
            &|_| {},
        )?;
        Ok::<_, String>((payloads, stats))
    };
    let (uninterrupted, _) = run(None).unwrap();
    resume_every_state("crash-campaign", |dir| {
        let (payloads, _) = run(Some(dir))?;
        if payloads != uninterrupted {
            return Err(format!("delivered {payloads:?}"));
        }
        let (_, again) = run(Some(dir))?;
        if (again.replayed, again.executed) != (CELLS as usize, 0) {
            return Err(format!(
                "a second resume replayed {} and executed {}",
                again.replayed, again.executed
            ));
        }
        Ok(())
    });
}
