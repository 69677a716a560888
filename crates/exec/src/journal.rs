//! The crash-safe, segmented campaign journal.
//!
//! A campaign directory holds fixed-size JSONL *segments* plus a compact
//! footer index:
//!
//! ```text
//! seg-00000.jsonl   header + up to `segment_records` cell records
//! seg-00001.jsonl   ...
//! journal.idx       index header + one block per sealed segment
//! ```
//!
//! Every segment starts with a header line naming the campaign manifest,
//! the declared cell count, and its own segment number; each completed
//! cell is appended (and flushed) to the active segment the moment it
//! finishes. When a segment fills, it is *sealed*: a block is appended
//! to `journal.idx` mapping each of its cells to `(segment, offset,
//! len)`, terminated by a commit line carrying the segment's record
//! count and byte length. [`Journal::load`] then recovers sealed
//! segments by seeking through the index — an O(index) operation that
//! never reads sealed payload bytes — and only linearly scans the
//! segments past the last committed block (normally just the active
//! one). [`Journal::finish`] seals the final partial segment of a
//! completed campaign so a later `--resume` replay is pure index seeks.
//!
//! Crash tolerance mirrors the writer's order: segment 0's header, then
//! the index header, then records, with each seal written before the
//! next segment is created. A kill mid-record leaves a truncated final
//! line in the active segment (tolerated and cut on reopen); a kill
//! mid-seal leaves a torn tail block in `journal.idx` (ignored — the
//! affected segment is recovered by scan instead); a kill before a
//! file's header line is complete leaves a file that holds nothing
//! (written afresh on reopen, and no journal at all when it is segment
//! 0 with no index beside it). A *disagreement* between a committed
//! index block and its segment file is an error, never a silent drop,
//! because sealed segments are immutable by construction.
//!
//! Every line is a flat object of string and number fields, written in
//! a fixed key order with [`rbr_obs::json`]'s writers and read with its
//! parser. A loader rejects a line with a missing, extra or mistyped
//! field, which is how a half-written record shows itself:
//!
//! ```text
//! {"campaign":"scale=smoke seed=default reps=- format=json","cells":16,"segment":0}
//! {"cell":0,"key":"fig1","elapsed_secs":0.41,"payload":"{\"meta\":..."}
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use rbr_obs::json::{self, Json};

use crate::hash;

/// Registry handle for successful cell appends (registered once; the
/// per-append cost is a relaxed load when metrics are off).
fn appends_counter() -> &'static rbr_obs::Counter {
    static C: OnceLock<rbr_obs::Counter> = OnceLock::new();
    C.get_or_init(|| rbr_obs::metrics::counter("exec.journal.appends"))
}

/// Registry handle for sealed index blocks.
fn seals_counter() -> &'static rbr_obs::Counter {
    static C: OnceLock<rbr_obs::Counter> = OnceLock::new();
    C.get_or_init(|| rbr_obs::metrics::counter("exec.journal.seals"))
}

/// File name of the footer index inside a campaign directory.
pub const INDEX_FILE: &str = "journal.idx";

/// Records per segment before it rolls and is sealed into the index.
pub const DEFAULT_SEGMENT_RECORDS: usize = 1024;

/// The file name of segment `segment`.
pub fn segment_file(segment: u64) -> String {
    format!("seg-{segment:05}.jsonl")
}

/// One completed cell, as recorded in the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Cell index within the campaign (its merge position).
    pub cell: u64,
    /// Stable cell key (the experiment's registry name).
    pub key: String,
    /// Wall-clock seconds the cell took when it originally ran.
    pub elapsed_secs: f64,
    /// The cell's rendered output, replayed verbatim on resume.
    pub payload: String,
}

/// One completed cell as the loader located it: metadata in memory,
/// payload fetched lazily via [`Loaded::read_payload`]. The writer holds
/// the active segment's cells in this form until the segment seals.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Cell index within the campaign.
    pub cell: u64,
    /// Stable cell key.
    pub key: String,
    /// Wall-clock seconds the cell took when it originally ran.
    pub elapsed_secs: f64,
    /// The record's bytes: `len` (newline included) from `offset` in
    /// segment `segment`.
    segment: u64,
    offset: u64,
    len: u64,
}

/// A parsed journal: the campaign identity plus the located cells.
#[derive(Debug)]
pub struct Loaded {
    /// The campaign manifest the journal was recorded under.
    pub manifest: String,
    /// Total cells the campaign declared.
    pub cells: u64,
    /// Every completed cell, in recovery order (index blocks first, then
    /// scanned segments in file order).
    pub entries: Vec<Entry>,
    /// True when a partial trailing line was dropped from the active
    /// segment.
    pub dropped_partial: bool,
    /// Cells located via the footer index (no payload bytes read).
    pub indexed: usize,
    /// Cells recovered by linearly scanning unindexed segments.
    pub scanned: usize,
    dir: PathBuf,
    /// Roll threshold recorded in the index header (the default when the
    /// index holds nothing).
    segment_records: usize,
    /// Valid length of `journal.idx`; reopen cuts a torn tail block.
    idx_len: u64,
    /// The segment new appends go into (it may not exist yet: every
    /// segment on disk was sealed) and its valid length. Reopen cuts a
    /// torn final line, and writes the segment afresh when this is 0.
    active_segment: u64,
    active_len: u64,
    /// One cached open segment handle for [`Loaded::read_payload`];
    /// replay reads arrive in cell order, which clusters by segment.
    reader: Mutex<Option<(u64, File)>>,
}

impl Loaded {
    /// Reads one cell's payload with a single seek and bounded read.
    pub fn read_payload(&self, entry: &Entry) -> Result<String, String> {
        let (segment, offset, len) = (entry.segment, entry.offset, entry.len);
        let mut reader = self
            .reader
            .lock()
            .expect("no read panics holding the reader");
        let file = match &mut *reader {
            Some((open, file)) if *open == segment => file,
            slot => {
                let path = self.dir.join(segment_file(segment));
                let file = File::open(&path)
                    .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                &mut slot.insert((segment, file)).1
            }
        };
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| format!("cannot seek segment {segment}: {e}"))?;
        // `load` bounds `len` by the segment's committed byte length.
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf)
            .map_err(|e| format!("cannot read segment {segment}: {e}"))?;
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let record = parse_record(line).map_err(|e| {
            format!("segment {segment} offset {offset}: indexed record is corrupt: {e}")
        })?;
        if record.cell != entry.cell {
            return Err(format!(
                "segment {segment} offset {offset}: index says cell {} but the \
                 record is cell {} — index/segment disagreement",
                entry.cell, record.cell
            ));
        }
        Ok(record.payload)
    }
}

/// An append handle on a campaign journal.
pub struct Journal {
    dir: PathBuf,
    /// Repeated in every segment header, so each segment file is
    /// self-describing.
    manifest: String,
    cells: u64,
    segment_records: usize,
    index: File,
    /// The active segment: its number, file and byte length.
    segment: u64,
    file: File,
    seg_bytes: u64,
    /// The active segment's cells, written to the index when it seals.
    pending: Vec<Entry>,
    finished: bool,
}

impl Journal {
    /// Starts a fresh journal (removing any previous one in `dir`) with
    /// headers declaring the manifest and cell count. `segment_records`
    /// is the roll threshold.
    pub fn create(
        dir: &Path,
        manifest: &str,
        cells: u64,
        segment_records: usize,
    ) -> Result<Journal, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create campaign dir {}: {e}", dir.display()))?;
        remove_existing_journal(dir)?;
        Journal::open(dir, manifest, cells, segment_records.max(1), 0, 0, 0)
    }

    /// Reopens a loaded journal for appending: cuts the torn tails `load`
    /// identified, writes afresh a file that holds nothing, and restores
    /// the active segment's pending index entries.
    pub fn reopen(dir: &Path, loaded: &Loaded) -> Result<Journal, String> {
        let mut journal = Journal::open(
            dir,
            &loaded.manifest,
            loaded.cells,
            loaded.segment_records,
            loaded.active_segment,
            loaded.active_len,
            loaded.idx_len,
        )?;
        // The active segment lies past the last committed block, so its
        // cells were all recovered by scan, with their byte ranges.
        journal.pending = loaded
            .entries
            .iter()
            .filter(|e| e.segment == loaded.active_segment)
            .cloned()
            .collect();
        Ok(journal)
    }

    /// Opens segment `segment`, then the index, each cut to its valid
    /// length. The order matters at `create`: `load` reads a headerless
    /// segment 0 with no index beside it as no journal at all.
    fn open(
        dir: &Path,
        manifest: &str,
        cells: u64,
        segment_records: usize,
        segment: u64,
        seg_len: u64,
        idx_len: u64,
    ) -> Result<Journal, String> {
        let (file, seg_bytes) = open_append(
            &dir.join(segment_file(segment)),
            seg_len,
            &segment_header(manifest, cells, segment),
        )?;
        let index_header = format!(
            "{{\"index\":\"rbr-journal-v1\",\"manifest_hash\":\"{}\",\
             \"cells\":{cells},\"segment_records\":{segment_records}}}\n",
            hash::digest64(manifest.as_bytes())
        );
        let (index, _) = open_append(&dir.join(INDEX_FILE), idx_len, &index_header)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            manifest: manifest.to_string(),
            cells,
            segment_records,
            index,
            segment,
            file,
            seg_bytes,
            pending: Vec::new(),
            finished: false,
        })
    }

    /// Appends one completed cell and flushes, so the record survives a
    /// kill immediately after. Rolls the active segment first when it is
    /// full: seals it, then creates the next one.
    pub fn append(&mut self, record: &Record) -> Result<(), String> {
        if self.finished {
            return Err("journal already finished".to_string());
        }
        if self.pending.len() >= self.segment_records {
            self.seal()?;
            self.segment += 1;
            (self.file, self.seg_bytes) = open_append(
                &self.dir.join(segment_file(self.segment)),
                0,
                &segment_header(&self.manifest, self.cells, self.segment),
            )?;
        }
        let line = record_line(record);
        let path = self.dir.join(segment_file(self.segment));
        write_flushed(&mut self.file, &path, &line)?;
        self.pending.push(Entry {
            cell: record.cell,
            key: record.key.clone(),
            elapsed_secs: record.elapsed_secs,
            segment: self.segment,
            offset: self.seg_bytes,
            len: line.len() as u64,
        });
        self.seg_bytes += line.len() as u64;
        appends_counter().inc();
        Ok(())
    }

    /// Seals the final (partial) segment of a completed campaign into
    /// the index, so a later `--resume` replays by pure index seeks. No
    /// further appends are accepted.
    pub fn finish(&mut self) -> Result<(), String> {
        if !self.finished && !self.pending.is_empty() {
            self.seal()?;
        }
        self.finished = true;
        Ok(())
    }

    /// Appends the active segment's block (cell lines, then the commit
    /// line that makes the block valid) to the footer index.
    fn seal(&mut self) -> Result<(), String> {
        let mut block = String::new();
        for e in &self.pending {
            block.push_str(&format!("{{\"cell\":{},\"key\":", e.cell));
            json::write_str(&mut block, &e.key);
            block.push_str(",\"elapsed_secs\":");
            json::write_f64(&mut block, e.elapsed_secs, "0");
            block.push_str(&format!(
                ",\"segment\":{},\"offset\":{},\"len\":{}}}\n",
                e.segment, e.offset, e.len
            ));
        }
        block.push_str(&format!(
            "{{\"segment\":{},\"records\":{},\"bytes\":{}}}\n",
            self.segment,
            self.pending.len(),
            self.seg_bytes
        ));
        write_flushed(&mut self.index, &self.dir.join(INDEX_FILE), &block)?;
        self.pending.clear();
        seals_counter().inc();
        Ok(())
    }

    /// Loads and validates the journal in `dir`.
    ///
    /// Returns `Ok(None)` when no journal exists. Sealed segments load
    /// through the footer index without reading payload bytes; segments
    /// past the last committed index block (or all of them, when the
    /// index holds nothing) are recovered by linear scan. A malformed or
    /// incomplete *final* line of the active segment is tolerated
    /// (dropped, and cut on reopen); a committed index block that
    /// disagrees with its segment file is an error.
    pub fn load(dir: &Path) -> Result<Option<Loaded>, String> {
        let idx_path = dir.join(INDEX_FILE);
        let index = match std::fs::read(&idx_path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("cannot read {}: {e}", idx_path.display())),
        };
        // Segment 0's header is the campaign's identity (the index only
        // carries a hash of it). It is written before the index exists,
        // so without an index a headerless segment 0 recorded no cell.
        let seg0_path = dir.join(segment_file(0));
        let mut head = Vec::new();
        match File::open(&seg0_path) {
            Ok(file) => BufReader::new(file)
                .read_until(b'\n', &mut head)
                .map_err(|e| format!("cannot read {}: {e}", seg0_path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && index.is_none() => {
                return Ok(None)
            }
            Err(e) => {
                return Err(format!(
                    "cannot open {}: {e} (index present without its first segment)",
                    seg0_path.display()
                ))
            }
        };
        let Some(head) = head.strip_suffix(b"\n") else {
            return match index {
                None => Ok(None),
                Some(_) => Err(format!("{}: missing segment header", seg0_path.display())),
            };
        };
        let (manifest, cells, seg0_num) = parse_segment_header(head)
            .map_err(|e| format!("{}: bad segment header: {e}", seg0_path.display()))?;
        if seg0_num != 0 {
            return Err(format!(
                "{}: header claims segment {seg0_num}, expected 0",
                seg0_path.display()
            ));
        }

        // Parse the footer index, tolerating a torn tail (a block whose
        // commit line never landed): everything from the first anomaly on
        // is ignored and the affected segments are recovered by scan
        // instead. An index with no complete header line holds nothing.
        let mut entries: Vec<Entry> = Vec::new();
        // The byte length of each committed segment, in segment order.
        let mut committed: Vec<u64> = Vec::new();
        let mut idx_len = 0u64;
        let mut segment_records = DEFAULT_SEGMENT_RECORDS;
        let idx_lines = index.as_deref().map(split_lines).unwrap_or_default();
        if let Some(&(header_end, header)) = idx_lines.first() {
            let idx_header = parse_index_header(header)
                .map_err(|e| format!("{}: bad index header: {e}", idx_path.display()))?;
            if idx_header.manifest_hash != hash::digest64(manifest.as_bytes()) {
                return Err(format!(
                    "{}: index manifest hash {} does not match segment manifest `{}`",
                    idx_path.display(),
                    idx_header.manifest_hash,
                    manifest
                ));
            }
            if idx_header.cells != cells {
                return Err(format!(
                    "{}: index declares {} cells but segments declare {}",
                    idx_path.display(),
                    idx_header.cells,
                    cells
                ));
            }
            segment_records = idx_header.segment_records;
            idx_len = header_end;
            let mut block_start = 0;
            for &(end, line) in &idx_lines[1..] {
                let next = committed.len() as u64;
                match parse_index_line(line) {
                    Ok(IndexLine::Cell(entry)) if entry.segment == next => entries.push(entry),
                    Ok(IndexLine::Commit {
                        segment,
                        records,
                        bytes,
                    }) if segment == next && records == entries.len() - block_start => {
                        // A committed cell must lie inside its segment, so
                        // no later read can ask for more than the file.
                        let block = &entries[block_start..];
                        if let Some(e) = block
                            .iter()
                            .find(|e| e.offset.checked_add(e.len).is_none_or(|stop| stop > bytes))
                        {
                            return Err(format!(
                                "index/segment disagreement: cell {} claims {} bytes at \
                                 offset {} of segment {segment}, which the index committed \
                                 at {bytes} bytes",
                                e.cell, e.len, e.offset
                            ));
                        }
                        committed.push(bytes);
                        idx_len = end;
                        block_start = entries.len();
                    }
                    // A line for the wrong segment, a count mismatch or a
                    // torn line: the torn tail starts here.
                    _ => break,
                }
            }
            entries.truncate(block_start);
        }
        let indexed = entries.len();

        // Committed blocks promise immutable, fully-sealed segment files:
        // verify each file's size exactly. Any disagreement is corruption —
        // erroring beats silently re-running (or worse, dropping) cells.
        for (s, &bytes) in committed.iter().enumerate() {
            let path = dir.join(segment_file(s as u64));
            let meta = std::fs::metadata(&path).map_err(|e| {
                format!(
                    "index/segment disagreement: committed segment {s} is missing ({}: {e})",
                    path.display()
                )
            })?;
            if meta.len() != bytes {
                return Err(format!(
                    "index/segment disagreement: segment {s} is {} bytes on disk but the \
                     index committed {bytes} — refusing to resume from a corrupt journal",
                    meta.len()
                ));
            }
        }

        // Scan everything past the last committed block: normally just the
        // active segment, plus any segment whose seal was torn away. When
        // every segment on disk is committed, appends resume into a fresh
        // next segment.
        let first_unindexed = committed.len() as u64;
        let mut end = first_unindexed;
        while dir.join(segment_file(end)).exists() {
            end += 1;
        }
        let active_segment = if end > first_unindexed {
            end - 1
        } else {
            first_unindexed
        };
        let (mut active_len, mut dropped_partial) = (0, false);
        for s in first_unindexed..end {
            (active_len, dropped_partial) =
                scan_segment(dir, s, &manifest, cells, s == active_segment, &mut entries)?;
        }

        Ok(Some(Loaded {
            manifest,
            cells,
            scanned: entries.len() - indexed,
            entries,
            dropped_partial,
            indexed,
            dir: dir.to_path_buf(),
            segment_records,
            idx_len,
            active_segment,
            active_len,
            reader: Mutex::new(None),
        }))
    }
}

/// Opens `path` for appending after cutting it to `valid_len` bytes. A
/// file with no valid bytes (missing, empty, or short of a complete
/// header line) holds nothing, so it is written afresh, starting with
/// `header`. Returns the handle, positioned at the end, and the file's
/// length. Each file has one writer, so writes at the cursor append.
fn open_append(path: &Path, valid_len: u64, header: &str) -> Result<(File, u64), String> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    file.set_len(valid_len)
        .and_then(|()| file.seek(SeekFrom::Start(valid_len)))
        .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
    if valid_len > 0 {
        return Ok((file, valid_len));
    }
    write_flushed(&mut file, path, header)?;
    Ok((file, header.len() as u64))
}

/// Writes all of `text` to `file` and flushes.
fn write_flushed(file: &mut File, path: &Path, text: &str) -> Result<(), String> {
    file.write_all(text.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Segment `segment`'s header line, newline included.
fn segment_header(manifest: &str, cells: u64, segment: u64) -> String {
    let mut header = String::from("{\"campaign\":");
    json::write_str(&mut header, manifest);
    header.push_str(&format!(",\"cells\":{cells},\"segment\":{segment}}}\n"));
    header
}

/// Removes every journal artifact in `dir`, the index first (a fresh run
/// must not see stale segments from a previous, longer campaign).
fn remove_existing_journal(dir: &Path) -> Result<(), String> {
    let remove = |path: &Path| {
        std::fs::remove_file(path).map_err(|e| format!("cannot remove {}: {e}", path.display()))
    };
    let index = dir.join(INDEX_FILE);
    if index.exists() {
        remove(&index)?;
    }
    let listing =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in listing {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("seg-") && name.ends_with(".jsonl") {
            remove(&entry.path())?;
        }
    }
    Ok(())
}

/// Splits `bytes` into its complete lines (newline stripped), each with
/// the offset just past its newline. Bytes after the last newline, a
/// torn write, form no line.
fn split_lines(bytes: &[u8]) -> Vec<(u64, &[u8])> {
    let mut end = 0u64;
    bytes
        .split_inclusive(|b| *b == b'\n')
        .filter_map(|line| {
            end += line.len() as u64;
            Some((end, line.strip_suffix(b"\n")?))
        })
        .collect()
}

/// Linearly scans segment `segment`, appending its cells to `entries`;
/// returns the segment's valid length and whether a partial final line
/// was dropped. Only the last segment may end torn, or hold no complete
/// header line (a kill before its header landed: it holds nothing).
/// Every segment before the last rolled before the kill, so damage
/// inside one is an error.
fn scan_segment(
    dir: &Path,
    segment: u64,
    manifest: &str,
    cells: u64,
    is_last: bool,
    entries: &mut Vec<Entry>,
) -> Result<(u64, bool), String> {
    let path = dir.join(segment_file(segment));
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let lines = split_lines(&bytes);
    let unterminated = lines.last().map_or(0, |line| line.0) < bytes.len() as u64;
    let Some(&(header_end, header)) = lines.first() else {
        if is_last {
            return Ok((0, unterminated));
        }
        return Err(format!("{}: missing segment header", path.display()));
    };
    let (seg_manifest, seg_cells, seg_num) = parse_segment_header(header)
        .map_err(|e| format!("{}: bad segment header: {e}", path.display()))?;
    if seg_manifest != manifest || seg_cells != cells || seg_num != segment {
        return Err(format!(
            "{}: segment header disagrees with the campaign \
             (manifest/cells/segment {seg_num})",
            path.display()
        ));
    }

    let mut valid_len = header_end;
    for (n, &(end, line)) in lines.iter().enumerate().skip(1) {
        match parse_record(line) {
            Ok(record) => {
                entries.push(Entry {
                    cell: record.cell,
                    key: record.key,
                    elapsed_secs: record.elapsed_secs,
                    segment,
                    offset: valid_len,
                    len: end - valid_len,
                });
                valid_len = end;
            }
            // A malformed final line: the writer was killed after the
            // '\n' of the previous record but the filesystem still
            // surfaced garbage (or a partial write that happened to
            // include a newline). Drop it.
            Err(_) if is_last && n + 1 == lines.len() && !unterminated => {
                return Ok((valid_len, true));
            }
            Err(e) => {
                return Err(format!(
                    "{}: corrupt journal record on line {}: {e}",
                    path.display(),
                    n + 1
                ));
            }
        }
    }
    if unterminated && !is_last {
        return Err(format!(
            "{}: sealed segment ends mid-record",
            path.display()
        ));
    }
    Ok((valid_len, unterminated))
}

/// A record's journal line, newline included: `cell`, `key`,
/// `elapsed_secs`, `payload`, in that order. Segments and cache entries
/// both store records this way.
pub(crate) fn record_line(record: &Record) -> String {
    let mut line = String::with_capacity(record.payload.len() + record.key.len() + 64);
    line.push_str(&format!("{{\"cell\":{},\"key\":", record.cell));
    json::write_str(&mut line, &record.key);
    line.push_str(",\"elapsed_secs\":");
    json::write_f64(&mut line, record.elapsed_secs, "0");
    line.push_str(",\"payload\":");
    json::write_str(&mut line, &record.payload);
    line.push_str("}\n");
    line
}

/// Parses one line (without its newline) as an object with exactly
/// `keys`.
pub(crate) fn parse_line(line: &[u8], keys: &[&str]) -> Result<Json, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("not UTF-8: {e}"))?;
    let value = json::parse(text)?;
    value.expect_keys(keys)?;
    Ok(value)
}

fn parse_segment_header(line: &[u8]) -> Result<(String, u64, u64), String> {
    let v = parse_line(line, &["campaign", "cells", "segment"])?;
    Ok((
        v.field("campaign", Json::as_str)?.to_string(),
        v.field("cells", Json::as_u64)?,
        v.field("segment", Json::as_u64)?,
    ))
}

struct IndexHeader {
    manifest_hash: String,
    cells: u64,
    segment_records: usize,
}

fn parse_index_header(line: &[u8]) -> Result<IndexHeader, String> {
    let v = parse_line(
        line,
        &["index", "manifest_hash", "cells", "segment_records"],
    )?;
    let version = v.field("index", Json::as_str)?;
    if version != "rbr-journal-v1" {
        return Err(format!("unknown index version {version:?}"));
    }
    Ok(IndexHeader {
        manifest_hash: v.field("manifest_hash", Json::as_str)?.to_string(),
        cells: v.field("cells", Json::as_u64)?,
        segment_records: (v.field("segment_records", Json::as_u64)? as usize).max(1),
    })
}

enum IndexLine {
    Cell(Entry),
    Commit {
        segment: u64,
        records: usize,
        bytes: u64,
    },
}

fn parse_index_line(line: &[u8]) -> Result<IndexLine, String> {
    if line.starts_with(b"{\"segment\":") {
        let v = parse_line(line, &["segment", "records", "bytes"])?;
        return Ok(IndexLine::Commit {
            segment: v.field("segment", Json::as_u64)?,
            records: v.field("records", Json::as_u64)? as usize,
            bytes: v.field("bytes", Json::as_u64)?,
        });
    }
    let v = parse_line(
        line,
        &["cell", "key", "elapsed_secs", "segment", "offset", "len"],
    )?;
    Ok(IndexLine::Cell(Entry {
        cell: v.field("cell", Json::as_u64)?,
        key: v.field("key", Json::as_str)?.to_string(),
        elapsed_secs: v.field("elapsed_secs", Json::as_f64)?,
        segment: v.field("segment", Json::as_u64)?,
        offset: v.field("offset", Json::as_u64)?,
        len: v.field("len", Json::as_u64)?,
    }))
}

pub(crate) fn parse_record(line: &[u8]) -> Result<Record, String> {
    let v = parse_line(line, &["cell", "key", "elapsed_secs", "payload"])?;
    Ok(Record {
        cell: v.field("cell", Json::as_u64)?,
        key: v.field("key", Json::as_str)?.to_string(),
        elapsed_secs: v.field("elapsed_secs", Json::as_f64)?,
        payload: v.field("payload", Json::as_str)?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rbr-exec-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(i: u64) -> Record {
        Record {
            cell: i,
            key: format!("exp{i}"),
            elapsed_secs: 0.5 + i as f64,
            payload: format!("{{\"meta\":\"exp{i}\",\"line\":\"a\\nb · π\"}}"),
        }
    }

    fn payloads(loaded: &Loaded) -> Vec<Record> {
        loaded
            .entries
            .iter()
            .map(|e| Record {
                cell: e.cell,
                key: e.key.clone(),
                elapsed_secs: e.elapsed_secs,
                payload: loaded.read_payload(e).unwrap(),
            })
            .collect()
    }

    #[test]
    fn round_trips_records() {
        let dir = tmp_dir("roundtrip");
        let mut j =
            Journal::create(&dir, "scale=smoke seed=7", 3, DEFAULT_SEGMENT_RECORDS).unwrap();
        for i in 0..3 {
            j.append(&sample(i)).unwrap();
        }
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.manifest, "scale=smoke seed=7");
        assert_eq!(loaded.cells, 3);
        assert!(!loaded.dropped_partial);
        assert_eq!(payloads(&loaded), (0..3).map(sample).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_none() {
        assert!(Journal::load(&tmp_dir("missing")).unwrap().is_none());
    }

    #[test]
    fn rolls_segments_and_loads_sealed_cells_from_the_index() {
        let dir = tmp_dir("roll");
        let mut j = Journal::create(&dir, "m", 10, 3).unwrap();
        for i in 0..10 {
            j.append(&sample(i)).unwrap();
        }
        // 10 records at 3 per segment: segments 0..2 sealed, segment 3
        // active with one record.
        assert!(dir.join(segment_file(3)).exists());
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.indexed, 9, "three sealed segments via the index");
        assert_eq!(loaded.scanned, 1, "only the active segment is scanned");
        assert_eq!(payloads(&loaded), (0..10).map(sample).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_seals_the_partial_segment_for_index_only_replay() {
        let dir = tmp_dir("finish");
        let mut j = Journal::create(&dir, "m", 5, 3).unwrap();
        for i in 0..5 {
            j.append(&sample(i)).unwrap();
        }
        j.finish().unwrap();
        assert!(
            j.append(&sample(9)).is_err(),
            "finished journals reject appends"
        );
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.indexed, 5, "every cell loads via the index");
        assert_eq!(loaded.scanned, 0);
        assert_eq!(payloads(&loaded), (0..5).map(sample).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerates_truncated_trailing_record() {
        let dir = tmp_dir("truncated");
        let mut j = Journal::create(&dir, "m", 4, DEFAULT_SEGMENT_RECORDS).unwrap();
        j.append(&sample(0)).unwrap();
        j.append(&sample(1)).unwrap();
        drop(j);
        let path = dir.join(segment_file(0));
        let full = std::fs::read(&path).unwrap();
        // Chop the file mid-way through the final record.
        std::fs::write(&path, &full[..full.len() - 17]).unwrap();
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert!(loaded.dropped_partial);
        assert_eq!(payloads(&loaded), vec![sample(0)]);
        // Reopening truncates the garbage so appends stay well-formed.
        let mut j = Journal::reopen(&dir, &loaded).unwrap();
        j.append(&sample(1)).unwrap();
        j.append(&sample(2)).unwrap();
        let reloaded = Journal::load(&dir).unwrap().unwrap();
        assert!(!reloaded.dropped_partial);
        assert_eq!(payloads(&reloaded), (0..3).map(sample).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_across_a_roll_keeps_sealing_later_segments() {
        let dir = tmp_dir("resume-roll");
        let mut j = Journal::create(&dir, "m", 8, 2).unwrap();
        for i in 0..3 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!((loaded.indexed, loaded.scanned), (2, 1));
        let mut j = Journal::reopen(&dir, &loaded).unwrap();
        for i in 3..8 {
            j.append(&sample(i)).unwrap();
        }
        j.finish().unwrap();
        let reloaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(reloaded.indexed, 8, "resumed appends keep sealing blocks");
        assert_eq!(payloads(&reloaded), (0..8).map(sample).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_index_falls_back_to_a_full_scan() {
        let dir = tmp_dir("noindex");
        let mut j = Journal::create(&dir, "m", 7, 2).unwrap();
        for i in 0..7 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.indexed, 0);
        assert_eq!(loaded.scanned, 7, "every segment recovered by scan");
        assert_eq!(payloads(&loaded), (0..7).map(sample).collect::<Vec<_>>());
        // And the journal still resumes (the index is recreated).
        let mut j = Journal::reopen(&dir, &loaded).unwrap();
        j.append(&sample(7)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_index_tail_is_ignored_and_recovered_by_scan() {
        let dir = tmp_dir("torn-idx");
        let mut j = Journal::create(&dir, "m", 6, 2).unwrap();
        for i in 0..6 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        // Tear the last committed block's commit line off the index, as
        // a kill mid-seal would.
        let idx = dir.join(INDEX_FILE);
        let text = std::fs::read_to_string(&idx).unwrap();
        let cut = text.rfind("{\"segment\":1,").unwrap();
        std::fs::write(&idx, &text[..cut]).unwrap();
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.indexed, 2, "only the first committed block survives");
        assert_eq!(loaded.scanned, 4, "the torn block's segments re-scan");
        assert_eq!(payloads(&loaded), (0..6).map(sample).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_sealed_segment_is_an_error_not_a_silent_drop() {
        let dir = tmp_dir("bad-seal");
        let mut j = Journal::create(&dir, "m", 6, 2).unwrap();
        for i in 0..6 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        // Corrupt a *sealed* segment behind the index's back.
        let seg = dir.join(segment_file(1));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
        let err = Journal::load(&dir).unwrap_err();
        assert!(err.contains("index/segment disagreement"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_sealed_segment_is_an_error() {
        let dir = tmp_dir("gone-seal");
        let mut j = Journal::create(&dir, "m", 6, 2).unwrap();
        for i in 0..6 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        std::fs::remove_file(dir.join(segment_file(0))).unwrap();
        let err = Journal::load(&dir).unwrap_err();
        assert!(err.contains("segment"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_corruption_before_the_tail() {
        let dir = tmp_dir("corrupt");
        let mut j = Journal::create(&dir, "m", 3, DEFAULT_SEGMENT_RECORDS).unwrap();
        for i in 0..3 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        let path = dir.join(segment_file(0));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"cell\":1", "\"cell\":oops")).unwrap();
        let err = Journal::load(&dir).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_missing_header() {
        let dir = tmp_dir("header");
        std::fs::create_dir_all(&dir).unwrap();
        // Segment 0's header lands before the index is created, so a
        // headerless segment 0 alone recorded no cell.
        std::fs::write(dir.join(segment_file(0)), "").unwrap();
        assert!(Journal::load(&dir).unwrap().is_none());
        // Beside an index it cannot be a torn create.
        Journal::create(&dir, "m", 2, 2).unwrap();
        std::fs::write(dir.join(segment_file(0)), "").unwrap();
        assert!(Journal::load(&dir).unwrap_err().contains("header"));
        std::fs::write(dir.join(segment_file(0)), "{\"nope\":1}\n").unwrap();
        assert!(Journal::load(&dir).unwrap_err().contains("header"));
        // Only the last segment may be headerless: the ones before it
        // rolled, so each got its header before the next was created.
        let mut j = Journal::create(&dir, "m", 5, 2).unwrap();
        for i in 0..5 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        std::fs::write(dir.join(segment_file(1)), "").unwrap();
        std::fs::write(dir.join(INDEX_FILE), "").unwrap();
        let err = Journal::load(&dir).unwrap_err();
        assert!(
            err.contains("seg-00001.jsonl: missing segment header"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_index_len_past_its_segment_is_an_error() {
        let dir = tmp_dir("bad-len");
        let mut j = Journal::create(&dir, "m", 3, 2).unwrap();
        for i in 0..3 {
            j.append(&sample(i)).unwrap();
        }
        j.finish().unwrap();
        let idx = dir.join(INDEX_FILE);
        let text = std::fs::read_to_string(&idx).unwrap();
        let start = text.find("\"len\":").unwrap() + "\"len\":".len();
        let end = start + text[start..].find('}').unwrap();
        // The first would have `read_payload` allocate 8 EiB; the second
        // overflows `offset + len`.
        for len in [i64::MAX as u64, u64::MAX] {
            let edited = format!("{}{len}{}", &text[..start], &text[end..]);
            std::fs::write(&idx, edited).unwrap();
            let err = Journal::load(&dir).unwrap_err();
            assert!(err.contains("index/segment disagreement"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_create_removes_stale_segments() {
        let dir = tmp_dir("stale");
        let mut j = Journal::create(&dir, "m", 9, 2).unwrap();
        for i in 0..9 {
            j.append(&sample(i)).unwrap();
        }
        drop(j);
        // A shorter fresh campaign in the same dir must not resurrect
        // cells from the old run's higher segments.
        let mut j = Journal::create(&dir, "m2", 2, 2).unwrap();
        j.append(&sample(0)).unwrap();
        drop(j);
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.manifest, "m2");
        assert_eq!(loaded.entries.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaders_reject_missing_extra_and_mistyped_fields() {
        let record = br#"{"cell":1,"key":"k","elapsed_secs":0.5,"payload":"p"}"#;
        assert_eq!(parse_record(record).unwrap().payload, "p");
        for bad in [
            r#"{"cell":1,"key":"k","elapsed_secs":0.5}"#,
            r#"{"cell":1,"key":"k","elapsed_secs":0.5,"payload":"p","x":0}"#,
            r#"{"cell":"1","key":"k","elapsed_secs":0.5,"payload":"p"}"#,
            r#"{"cell":-1,"key":"k","elapsed_secs":0.5,"payload":"p"}"#,
            r#"{"cell":1.5,"key":"k","elapsed_secs":0.5,"payload":"p"}"#,
            r#"{"cell":1,"key":2,"elapsed_secs":0.5,"payload":"p"}"#,
            r#"{"cell":1,"key":"k","elapsed_secs":null,"payload":"p"}"#,
            r#"{"cell":1,"cell":1,"key":"k","elapsed_secs":0.5,"payload":"p"}"#,
            r#"[1,"k",0.5,"p"]"#,
        ] {
            assert!(parse_record(bad.as_bytes()).is_err(), "{bad}");
        }
        assert!(parse_segment_header(br#"{"campaign":"m","cells":2,"segment":0}"#).is_ok());
        assert!(parse_segment_header(br#"{"campaign":"m","cells":2}"#).is_err());
        let header =
            r#"{"index":"rbr-journal-v1","manifest_hash":"h","cells":1,"segment_records":4}"#;
        assert!(parse_index_header(header.as_bytes()).is_ok());
        let newer = header.replace("v1", "v2");
        assert!(parse_index_header(newer.as_bytes()).is_err());
        assert!(parse_index_line(br#"{"segment":0,"records":1,"bytes":9}"#).is_ok());
        assert!(parse_index_line(br#"{"segment":0,"records":1}"#).is_err());
        let cell = r#"{"cell":0,"key":"k","elapsed_secs":1,"segment":0,"offset":1,"len":2}"#;
        assert!(parse_index_line(cell.as_bytes()).is_ok());
        assert!(parse_index_line(cell.replace(":1,\"len", ":1.5,\"len").as_bytes()).is_err());
    }

    #[test]
    fn segment_and_index_bytes_are_pinned() {
        let dir = tmp_dir("pinned");
        let mut j = Journal::create(&dir, "scale=smoke \"q\" seed=7", 2, 4).unwrap();
        j.append(&Record {
            cell: 1,
            key: "fig1 \"x\"".to_string(),
            elapsed_secs: 0.1 + 0.2,
            payload: "{\"meta\":1,\"s\":\"a\\nb\\u0001 · π\"}\n\t\u{1}".to_string(),
        })
        .unwrap();
        j.finish().unwrap();
        let segment = std::fs::read_to_string(dir.join(segment_file(0))).unwrap();
        let index = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
        assert_eq!(
            segment,
            "{\"campaign\":\"scale=smoke \\\"q\\\" seed=7\",\"cells\":2,\"segment\":0}\n{\"cell\":1,\"key\":\"fig1 \\\"x\\\"\",\"elapsed_secs\":0.30000000000000004,\"payload\":\"{\\\"meta\\\":1,\\\"s\\\":\\\"a\\\\nb\\\\u0001 · π\\\"}\\n\\t\\u0001\"}\n"
        );
        assert_eq!(
            index,
            "{\"index\":\"rbr-journal-v1\",\"manifest_hash\":\"3e37f62b123716f5\",\"cells\":2,\"segment_records\":4}\n{\"cell\":1,\"key\":\"fig1 \\\"x\\\"\",\"elapsed_secs\":0.30000000000000004,\"segment\":0,\"offset\":62,\"len\":129}\n{\"segment\":0,\"records\":1,\"bytes\":191}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
