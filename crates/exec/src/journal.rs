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
//! Crash tolerance mirrors the writer's append order. A kill mid-record
//! leaves a truncated final line in the active segment (tolerated and
//! cut on reopen, exactly as the single-file format did); a kill
//! mid-seal leaves a torn tail block in `journal.idx` (ignored — the
//! affected segment is recovered by scan instead); a *disagreement*
//! between a committed index block and its segment file is an error,
//! never a silent drop, because sealed segments are immutable by
//! construction. Journals written by the pre-segmented single-file
//! format (`journal.jsonl`) still load via the original linear scan.
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

/// File name of the legacy single-file journal inside a campaign
/// directory (still loadable; new journals are segmented).
pub const JOURNAL_FILE: &str = "journal.jsonl";

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

/// Where a loaded cell's payload lives.
#[derive(Clone, Debug)]
enum Loc {
    /// Legacy single-file journal: the linear scan already decoded the
    /// payload, so it is held in memory (the status quo for old dirs).
    Inline(String),
    /// Segmented journal: the payload is fetched on demand with one
    /// seek + bounded read, so resume memory stays O(index).
    Seek { segment: u64, offset: u64, len: u64 },
}

/// One completed cell as the loader located it: metadata in memory,
/// payload fetched lazily via [`Loaded::read_payload`].
#[derive(Clone, Debug)]
pub struct Entry {
    /// Cell index within the campaign.
    pub cell: u64,
    /// Stable cell key.
    pub key: String,
    /// Wall-clock seconds the cell took when it originally ran.
    pub elapsed_secs: f64,
    loc: Loc,
}

/// How to continue appending after a load, per format.
#[derive(Debug)]
enum Resume {
    Legacy {
        /// Byte length of the valid prefix; anything past this is a
        /// truncated trailing record and must be cut before appending.
        valid_len: u64,
    },
    Segmented {
        /// The segment new appends go into. May not exist yet on disk
        /// (every existing segment was already sealed).
        active_segment: u64,
        /// Truncate the active segment to this before appending, when it
        /// exists (`None` = create it fresh, with a header).
        active_valid_len: Option<u64>,
        /// Records already in the active segment.
        active_records: usize,
        /// Truncate `journal.idx` to this before appending (cuts a torn
        /// tail block).
        idx_valid_len: u64,
        /// Roll threshold recorded in the index header (the default when
        /// the index was missing).
        segment_records: usize,
    },
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
    /// segment (or the legacy file).
    pub dropped_partial: bool,
    /// Cells located via the footer index (no payload bytes read).
    pub indexed: usize,
    /// Cells recovered by linearly scanning unindexed segments.
    pub scanned: usize,
    dir: PathBuf,
    resume: Resume,
    /// One cached open segment handle for [`Loaded::read_payload`];
    /// replay reads arrive in cell order, which clusters by segment.
    reader: Mutex<Option<(u64, File)>>,
}

impl Loaded {
    /// Reads one cell's payload: a clone for legacy journals, a single
    /// seek + bounded read for segmented ones.
    pub fn read_payload(&self, entry: &Entry) -> Result<String, String> {
        match &entry.loc {
            Loc::Inline(payload) => Ok(payload.clone()),
            Loc::Seek {
                segment,
                offset,
                len,
            } => {
                let mut reader = self.reader.lock().unwrap();
                if reader.as_ref().map(|(s, _)| *s) != Some(*segment) {
                    let path = self.dir.join(segment_file(*segment));
                    let file = File::open(&path)
                        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                    *reader = Some((*segment, file));
                }
                let (_, file) = reader.as_mut().unwrap();
                file.seek(SeekFrom::Start(*offset))
                    .map_err(|e| format!("cannot seek segment {segment}: {e}"))?;
                let mut buf = vec![0u8; *len as usize];
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
    }
}

/// A sealed-cell index entry held for the active segment until it rolls.
struct IndexEntry {
    cell: u64,
    key: String,
    elapsed_secs: f64,
    offset: u64,
    len: u64,
}

/// Append state of a segmented journal.
struct Segmented {
    dir: PathBuf,
    cells: u64,
    segment_records: usize,
    index: File,
    segment: u64,
    file: File,
    seg_bytes: u64,
    seg_records: usize,
    /// Index entries for the active segment, written out when it seals.
    pending: Vec<IndexEntry>,
    finished: bool,
}

/// An append handle on a campaign journal.
pub struct Journal {
    store: Store,
}

enum Store {
    Legacy { file: File, path: PathBuf },
    Segmented(Segmented),
}

impl Journal {
    /// Starts a fresh segmented journal (removing any previous journal
    /// in `dir`, legacy or segmented) with headers declaring the
    /// manifest and cell count. `segment_records` is the roll threshold.
    pub fn create(
        dir: &Path,
        manifest: &str,
        cells: u64,
        segment_records: usize,
    ) -> Result<Journal, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create campaign dir {}: {e}", dir.display()))?;
        remove_existing_journal(dir)?;
        let segment_records = segment_records.max(1);
        let (file, seg_bytes) = create_segment(dir, manifest, cells, 0)?;
        let idx_path = dir.join(INDEX_FILE);
        let mut index = File::create(&idx_path)
            .map_err(|e| format!("cannot create {}: {e}", idx_path.display()))?;
        let header = format!(
            "{{\"index\":\"rbr-journal-v1\",\"manifest_hash\":\"{}\",\
             \"cells\":{cells},\"segment_records\":{segment_records}}}\n",
            hash::digest64(manifest.as_bytes())
        );
        index
            .write_all(header.as_bytes())
            .and_then(|()| index.flush())
            .map_err(|e| format!("cannot write {}: {e}", idx_path.display()))?;
        Ok(Journal {
            store: Store::Segmented(Segmented {
                dir: dir.to_path_buf(),
                cells,
                segment_records,
                index,
                segment: 0,
                file,
                seg_bytes,
                seg_records: 0,
                pending: Vec::new(),
                finished: false,
            }),
        })
    }

    /// Reopens a loaded journal for appending: truncates the torn tails
    /// `load` identified (active segment and/or index) and restores the
    /// active segment's pending index entries.
    pub fn reopen(dir: &Path, loaded: &Loaded) -> Result<Journal, String> {
        match &loaded.resume {
            Resume::Legacy { valid_len } => {
                let path = dir.join(JOURNAL_FILE);
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                file.set_len(*valid_len)
                    .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| format!("cannot reopen {}: {e}", path.display()))?;
                Ok(Journal {
                    store: Store::Legacy { file, path },
                })
            }
            Resume::Segmented {
                active_segment,
                active_valid_len,
                active_records,
                idx_valid_len,
                segment_records,
            } => {
                let idx_path = dir.join(INDEX_FILE);
                let index = match OpenOptions::new().write(true).open(&idx_path) {
                    Ok(f) => {
                        f.set_len(*idx_valid_len)
                            .map_err(|e| format!("cannot truncate {}: {e}", idx_path.display()))?;
                        OpenOptions::new()
                            .append(true)
                            .open(&idx_path)
                            .map_err(|e| format!("cannot reopen {}: {e}", idx_path.display()))?
                    }
                    // The index never made it to disk (kill between the
                    // first segment's creation and the index header):
                    // recreate it so future seals have somewhere to go.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        let mut f = File::create(&idx_path)
                            .map_err(|e| format!("cannot create {}: {e}", idx_path.display()))?;
                        let header = format!(
                            "{{\"index\":\"rbr-journal-v1\",\"manifest_hash\":\"{}\",\
                             \"cells\":{},\"segment_records\":{segment_records}}}\n",
                            hash::digest64(loaded.manifest.as_bytes()),
                            loaded.cells
                        );
                        f.write_all(header.as_bytes())
                            .and_then(|()| f.flush())
                            .map_err(|e| format!("cannot write {}: {e}", idx_path.display()))?;
                        f
                    }
                    Err(e) => return Err(format!("cannot open {}: {e}", idx_path.display())),
                };
                let (file, seg_bytes, seg_records) = match active_valid_len {
                    Some(valid_len) => {
                        let path = dir.join(segment_file(*active_segment));
                        let f = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                        f.set_len(*valid_len)
                            .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
                        let f = OpenOptions::new()
                            .append(true)
                            .open(&path)
                            .map_err(|e| format!("cannot reopen {}: {e}", path.display()))?;
                        (f, *valid_len, *active_records)
                    }
                    None => {
                        let (f, bytes) =
                            create_segment(dir, &loaded.manifest, loaded.cells, *active_segment)?;
                        (f, bytes, 0)
                    }
                };
                // The active segment's cells must re-enter the pending
                // list so the block written at its eventual seal is
                // complete. They were all recovered by scan (the active
                // segment is past the last committed block by
                // definition), so their seek locations are known.
                let pending = loaded
                    .entries
                    .iter()
                    .filter_map(|e| match &e.loc {
                        Loc::Seek {
                            segment,
                            offset,
                            len,
                        } if segment == active_segment => Some(IndexEntry {
                            cell: e.cell,
                            key: e.key.clone(),
                            elapsed_secs: e.elapsed_secs,
                            offset: *offset,
                            len: *len,
                        }),
                        _ => None,
                    })
                    .collect();
                Ok(Journal {
                    store: Store::Segmented(Segmented {
                        dir: dir.to_path_buf(),
                        cells: loaded.cells,
                        segment_records: *segment_records,
                        index,
                        segment: *active_segment,
                        file,
                        seg_bytes,
                        seg_records,
                        pending,
                        finished: false,
                    }),
                })
            }
        }
    }

    /// Appends one completed cell and flushes, so the record survives a
    /// kill immediately after. Rolls (and seals) the active segment
    /// first when it is full.
    pub fn append(&mut self, record: &Record) -> Result<(), String> {
        let line = record_line(record);
        let appended = match &mut self.store {
            Store::Legacy { file, path } => file
                .write_all(line.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| format!("cannot append to {}: {e}", path.display())),
            Store::Segmented(seg) => {
                if seg.finished {
                    return Err("journal already finished".to_string());
                }
                if seg.seg_records >= seg.segment_records {
                    seg.roll()?;
                }
                let path = seg.dir.join(segment_file(seg.segment));
                seg.file
                    .write_all(line.as_bytes())
                    .and_then(|()| seg.file.flush())
                    .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
                seg.pending.push(IndexEntry {
                    cell: record.cell,
                    key: record.key.clone(),
                    elapsed_secs: record.elapsed_secs,
                    offset: seg.seg_bytes,
                    len: line.len() as u64,
                });
                seg.seg_bytes += line.len() as u64;
                seg.seg_records += 1;
                Ok(())
            }
        };
        if appended.is_ok() {
            appends_counter().inc();
        }
        appended
    }

    /// Seals the final (partial) segment of a completed campaign into
    /// the index, so a later `--resume` replays by pure index seeks. No
    /// further appends are accepted. A no-op for legacy journals.
    pub fn finish(&mut self) -> Result<(), String> {
        if let Store::Segmented(seg) = &mut self.store {
            if !seg.finished && !seg.pending.is_empty() {
                seg.seal()?;
            }
            seg.finished = true;
        }
        Ok(())
    }

    /// Loads and validates the journal in `dir`, whichever format it is.
    ///
    /// Returns `Ok(None)` when no journal exists. Sealed segments load
    /// through the footer index without reading payload bytes; segments
    /// past the last committed index block (or all of them, when the
    /// index is missing) are recovered by linear scan. A malformed or
    /// incomplete *final* line of the active segment is tolerated
    /// (dropped, and cut on reopen); a committed index block that
    /// disagrees with its segment file is an error.
    pub fn load(dir: &Path) -> Result<Option<Loaded>, String> {
        let seg0 = dir.join(segment_file(0));
        let idx = dir.join(INDEX_FILE);
        if seg0.exists() || idx.exists() {
            return load_segmented(dir).map(Some);
        }
        load_legacy(dir)
    }
}

impl Segmented {
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
                self.segment, e.offset, e.len
            ));
        }
        block.push_str(&format!(
            "{{\"segment\":{},\"records\":{},\"bytes\":{}}}\n",
            self.segment,
            self.pending.len(),
            self.seg_bytes
        ));
        let idx_path = self.dir.join(INDEX_FILE);
        self.index
            .write_all(block.as_bytes())
            .and_then(|()| self.index.flush())
            .map_err(|e| format!("cannot append to {}: {e}", idx_path.display()))?;
        self.pending.clear();
        seals_counter().inc();
        Ok(())
    }

    /// Seals the full active segment and opens the next one.
    fn roll(&mut self) -> Result<(), String> {
        self.seal()?;
        // Re-derive the manifest for the next segment's header from the
        // pending-free state: segment headers repeat the manifest so any
        // single segment file is self-describing.
        let manifest = read_manifest(&self.dir, self.segment)?;
        self.segment += 1;
        let (file, bytes) = create_segment(&self.dir, &manifest, self.cells, self.segment)?;
        self.file = file;
        self.seg_bytes = bytes;
        self.seg_records = 0;
        Ok(())
    }
}

/// Reads the manifest back out of segment `segment`'s header line.
fn read_manifest(dir: &Path, segment: u64) -> Result<String, String> {
    let path = dir.join(segment_file(segment));
    let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut line = String::new();
    BufReader::new(file)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (manifest, _, _) = parse_segment_header(line.trim_end_matches('\n').as_bytes())
        .map_err(|e| format!("{}: bad segment header: {e}", path.display()))?;
    Ok(manifest)
}

/// Creates segment file `segment` with its header line.
fn create_segment(
    dir: &Path,
    manifest: &str,
    cells: u64,
    segment: u64,
) -> Result<(File, u64), String> {
    let path = dir.join(segment_file(segment));
    let mut file =
        File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut header = String::from("{\"campaign\":");
    json::write_str(&mut header, manifest);
    header.push_str(&format!(",\"cells\":{cells},\"segment\":{segment}}}\n"));
    file.write_all(header.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((file, header.len() as u64))
}

/// Removes every journal artifact in `dir` (a fresh run must not see
/// stale segments from a previous, longer campaign).
fn remove_existing_journal(dir: &Path) -> Result<(), String> {
    for name in [JOURNAL_FILE, INDEX_FILE] {
        let path = dir.join(name);
        if path.exists() {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        }
    }
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("cannot list {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("seg-") && name.ends_with(".jsonl") {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("cannot remove {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// One committed index block's summary.
struct CommittedSegment {
    bytes: u64,
}

/// Loads a segmented journal: index blocks first, then a linear scan of
/// everything past the last committed block.
fn load_segmented(dir: &Path) -> Result<Loaded, String> {
    // The first segment's header is the campaign's identity (the index
    // only carries a hash of it).
    let seg0_path = dir.join(segment_file(0));
    let seg0_head = {
        let file = match File::open(&seg0_path) {
            Ok(f) => f,
            Err(e) => {
                return Err(format!(
                    "cannot open {}: {e} (index present without its first segment)",
                    seg0_path.display()
                ))
            }
        };
        let mut line = String::new();
        BufReader::new(file)
            .read_line(&mut line)
            .map_err(|e| format!("cannot read {}: {e}", seg0_path.display()))?;
        line
    };
    let (manifest, cells, seg0_num) =
        parse_segment_header(seg0_head.trim_end_matches('\n').as_bytes())
            .map_err(|e| format!("{}: bad segment header: {e}", seg0_path.display()))?;
    if seg0_num != 0 {
        return Err(format!(
            "{}: header claims segment {seg0_num}, expected 0",
            seg0_path.display()
        ));
    }

    // Parse the footer index, tolerating a torn tail (a block whose
    // commit line never landed): everything from the first anomaly on is
    // ignored and the affected segments are recovered by scan instead.
    let idx_path = dir.join(INDEX_FILE);
    let mut entries: Vec<Entry> = Vec::new();
    let mut committed: Vec<CommittedSegment> = Vec::new();
    let mut idx_valid_len = 0u64;
    let mut segment_records = DEFAULT_SEGMENT_RECORDS;
    match std::fs::read(&idx_path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot read {}: {e}", idx_path.display())),
        Ok(bytes) => {
            let mut lines: Vec<(usize, &[u8])> = Vec::new();
            let mut start = 0usize;
            for (i, b) in bytes.iter().enumerate() {
                if *b == b'\n' {
                    lines.push((i + 1, &bytes[start..i]));
                    start = i + 1;
                }
            }
            let mut it = lines.iter();
            if let Some((header_end, header)) = it.next() {
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
                idx_valid_len = *header_end as u64;
                let mut block: Vec<Entry> = Vec::new();
                for (end, line) in it {
                    match parse_index_line(line) {
                        Ok(IndexLine::Cell(entry)) => {
                            let in_segment = match &entry.loc {
                                Loc::Seek { segment, .. } => *segment,
                                Loc::Inline(_) => unreachable!("index lines carry seek locs"),
                            };
                            if in_segment != committed.len() as u64 {
                                // A cell line for the wrong segment:
                                // treat as a torn tail and fall back to
                                // scanning from here on.
                                break;
                            }
                            block.push(entry);
                        }
                        Ok(IndexLine::Commit {
                            segment,
                            records,
                            bytes,
                        }) => {
                            if segment != committed.len() as u64 || records != block.len() {
                                break;
                            }
                            entries.append(&mut block);
                            committed.push(CommittedSegment { bytes });
                            idx_valid_len = *end as u64;
                        }
                        Err(_) => break,
                    }
                }
            }
        }
    }
    let indexed = entries.len();

    // Committed blocks promise immutable, fully-sealed segment files:
    // verify each file's size exactly. Any disagreement is corruption —
    // erroring beats silently re-running (or worse, dropping) cells.
    for (s, c) in committed.iter().enumerate() {
        let path = dir.join(segment_file(s as u64));
        let meta = std::fs::metadata(&path).map_err(|e| {
            format!(
                "index/segment disagreement: committed segment {s} is missing ({}: {e})",
                path.display()
            )
        })?;
        if meta.len() != c.bytes {
            return Err(format!(
                "index/segment disagreement: segment {s} is {} bytes on disk but the \
                 index committed {} — refusing to resume from a corrupt journal",
                meta.len(),
                c.bytes
            ));
        }
    }

    // Scan everything past the last committed block: normally just the
    // active segment, plus any segment whose seal was torn away.
    let first_unindexed = committed.len() as u64;
    let mut last_existing = None;
    let mut probe = first_unindexed;
    while dir.join(segment_file(probe)).exists() {
        last_existing = Some(probe);
        probe += 1;
    }
    let mut scanned = 0usize;
    let mut dropped_partial = false;
    let mut active_valid_len = None;
    let mut active_records = 0usize;
    let active_segment = match last_existing {
        // Every segment on disk is sealed and committed: appends resume
        // into a fresh next segment.
        None => first_unindexed,
        Some(last) => {
            for s in first_unindexed..=last {
                let is_last = s == last;
                let scan = scan_segment(dir, s, &manifest, cells, is_last)?;
                scanned += scan.entries.len();
                if is_last {
                    dropped_partial = scan.dropped_partial;
                    active_valid_len = Some(scan.valid_len);
                    active_records = scan.entries.len();
                }
                entries.extend(scan.entries);
            }
            last
        }
    };

    Ok(Loaded {
        manifest,
        cells,
        entries,
        dropped_partial,
        indexed,
        scanned,
        dir: dir.to_path_buf(),
        resume: Resume::Segmented {
            active_segment,
            active_valid_len,
            active_records,
            idx_valid_len,
            segment_records,
        },
        reader: Mutex::new(None),
    })
}

/// A scanned segment's contents.
struct ScannedSegment {
    entries: Vec<Entry>,
    valid_len: u64,
    dropped_partial: bool,
}

/// Linearly scans one segment file. Only the final (active) segment may
/// carry a truncated tail; a sealed-but-unindexed segment rolled before
/// the kill, so corruption inside it is an error.
fn scan_segment(
    dir: &Path,
    segment: u64,
    manifest: &str,
    cells: u64,
    tolerate_tail: bool,
) -> Result<ScannedSegment, String> {
    let path = dir.join(segment_file(segment));
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut lines: Vec<(usize, &[u8])> = Vec::new();
    let mut start = 0usize;
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'\n' {
            lines.push((i + 1, &bytes[start..i]));
            start = i + 1;
        }
    }
    let unterminated = start < bytes.len();

    let mut it = lines.iter();
    let Some((header_end, header)) = it.next() else {
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

    let mut entries = Vec::new();
    let mut valid_len = *header_end as u64;
    let mut dropped_partial = unterminated;
    let total = lines.len();
    for (n, (end, line)) in it.enumerate() {
        match parse_record(line) {
            Ok(record) => {
                entries.push(Entry {
                    cell: record.cell,
                    key: record.key,
                    elapsed_secs: record.elapsed_secs,
                    loc: Loc::Seek {
                        segment,
                        offset: valid_len,
                        len: (*end as u64) - valid_len,
                    },
                });
                valid_len = *end as u64;
            }
            // `n` counts record lines (header excluded); the last
            // terminated line is record index total - 2.
            Err(e) if tolerate_tail && n + 2 == total && !unterminated => {
                // A malformed final line: the writer was killed after
                // the '\n' of the previous record but the filesystem
                // still surfaced garbage (or a partial write that
                // happened to include a newline). Drop it.
                let _ = e;
                dropped_partial = true;
                break;
            }
            Err(e) => {
                return Err(format!(
                    "{}: corrupt journal record on line {}: {e}",
                    path.display(),
                    n + 2
                ));
            }
        }
    }
    if unterminated && !tolerate_tail {
        return Err(format!(
            "{}: sealed segment ends mid-record",
            path.display()
        ));
    }
    Ok(ScannedSegment {
        entries,
        valid_len,
        dropped_partial,
    })
}

/// Loads a legacy single-file journal (`journal.jsonl`), the
/// pre-segmented format: one linear scan, payloads held inline.
fn load_legacy(dir: &Path) -> Result<Option<Loaded>, String> {
    let path = dir.join(JOURNAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    // Split into lines, keeping track of each line's end offset so a
    // valid prefix length can be reported. A well-formed journal ends
    // with '\n'; anything after the last '\n' is a partial record by
    // construction.
    let mut lines: Vec<(usize, &[u8])> = Vec::new();
    let mut start = 0usize;
    for (i, b) in bytes.iter().enumerate() {
        if *b == b'\n' {
            lines.push((i + 1, &bytes[start..i]));
            start = i + 1;
        }
    }
    let unterminated = start < bytes.len();

    let mut it = lines.iter();
    let Some((header_end, header)) = it.next() else {
        return Err(format!("{}: missing journal header", path.display()));
    };
    let (manifest, cells) = parse_legacy_header(header)
        .map_err(|e| format!("{}: bad journal header: {e}", path.display()))?;

    let mut entries = Vec::new();
    let mut valid_len = *header_end as u64;
    let mut dropped_partial = unterminated;
    let total = lines.len();
    for (n, (end, line)) in it.enumerate() {
        match parse_record(line) {
            Ok(record) => {
                entries.push(Entry {
                    cell: record.cell,
                    key: record.key,
                    elapsed_secs: record.elapsed_secs,
                    loc: Loc::Inline(record.payload),
                });
                valid_len = *end as u64;
            }
            Err(e) if n + 2 == total && !unterminated => {
                let _ = e;
                dropped_partial = true;
                break;
            }
            Err(e) => {
                return Err(format!(
                    "{}: corrupt journal record on line {}: {e}",
                    path.display(),
                    n + 2
                ));
            }
        }
    }
    let scanned = entries.len();
    Ok(Some(Loaded {
        manifest,
        cells,
        entries,
        dropped_partial,
        indexed: 0,
        scanned,
        dir: dir.to_path_buf(),
        resume: Resume::Legacy { valid_len },
        reader: Mutex::new(None),
    }))
}

/// A record's journal line, newline included: `cell`, `key`,
/// `elapsed_secs`, `payload`, in that order. Segments, legacy journals
/// and cache entries all store records this way.
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

fn parse_legacy_header(line: &[u8]) -> Result<(String, u64), String> {
    let v = parse_line(line, &["campaign", "cells"])?;
    Ok((
        v.field("campaign", Json::as_str)?.to_string(),
        v.field("cells", Json::as_u64)?,
    ))
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
        loc: Loc::Seek {
            segment: v.field("segment", Json::as_u64)?,
            offset: v.field("offset", Json::as_u64)?,
            len: v.field("len", Json::as_u64)?,
        },
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
        std::fs::write(dir.join(segment_file(0)), "").unwrap();
        assert!(Journal::load(&dir).unwrap_err().contains("header"));
        std::fs::write(dir.join(segment_file(0)), "{\"nope\":1}\n").unwrap();
        assert!(Journal::load(&dir).unwrap_err().contains("header"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loads_legacy_single_file_journals() {
        let dir = tmp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // The pre-segmented format, byte for byte as older checkouts
        // wrote it.
        let text = r#"{"campaign":"scale=smoke seed=1","cells":3}
{"cell":0,"key":"exp0","elapsed_secs":0.5,"payload":"{\"meta\":\"exp0\",\"line\":\"a\\nb · π\"}"}
{"cell":1,"key":"exp1","elapsed_secs":1.5,"payload":"{\"meta\":\"exp1\",\"line\":\"a\\nb · π\"}"}
"#;
        std::fs::write(dir.join(JOURNAL_FILE), text).unwrap();
        let loaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(loaded.manifest, "scale=smoke seed=1");
        assert_eq!(loaded.indexed, 0);
        assert_eq!(loaded.scanned, 2);
        assert_eq!(payloads(&loaded), (0..2).map(sample).collect::<Vec<_>>());
        // Legacy journals stay appendable in place.
        let mut j = Journal::reopen(&dir, &loaded).unwrap();
        j.append(&sample(2)).unwrap();
        let reloaded = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(payloads(&reloaded), (0..3).map(sample).collect::<Vec<_>>());
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
        assert!(parse_legacy_header(br#"{"campaign":"m","cells":2,"segment":0}"#).is_err());
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
