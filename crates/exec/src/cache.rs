//! The content-keyed cross-campaign cell cache (`rbr run --cache DIR`).
//!
//! A campaign cell is a pure function of its identity: the campaign
//! manifest (experiment set, scale, seed, reps, format — everything that
//! feeds the seed hierarchy) plus the cell's stable key. Two campaigns
//! that share a cell therefore compute byte-identical payloads, so the
//! payload can be stored once under a content key and replayed anywhere:
//!
//! ```text
//! <cache-dir>/23/abcdef...32-hex...0123.json
//! ```
//!
//! The key is [`hash::digest128`] of `manifest ++ "\n" ++ cell key`
//! (FNV-1a under two bases), and its last two hex digits name the shard
//! directory. FNV is not collision-resistant, so every cache file
//! records the full identity next to the payload, with a digest of the
//! stored record, and [`CellCache::lookup`] verifies both on hit — a
//! colliding or corrupt entry degrades to a miss, never a wrong payload.
//! Writes go through a temp file + rename so concurrent campaigns
//! sharing one cache dir never observe a torn entry.
//!
//! Each entry is two JSON lines, written and read with
//! [`rbr_obs::json`]: an identity header (`rbr-cell-v2`: tag, manifest,
//! key, and [`hash::digest128`] of the record line), then the cell's
//! [`Record`] as the journal writes it (including the original
//! `elapsed_secs`, so a cache-hit replay journals exactly what the
//! original run journalled). Entries of another tag read as misses.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use rbr_obs::json::{self, Json};

use crate::hash;
use crate::journal::{parse_line, parse_record, record_line, Record};

/// Registry handles for cache traffic (registered once each; per-call
/// cost is a relaxed load while metrics are off).
fn cache_counter(which: &'static str) -> &'static rbr_obs::Counter {
    static HITS: OnceLock<rbr_obs::Counter> = OnceLock::new();
    static MISSES: OnceLock<rbr_obs::Counter> = OnceLock::new();
    static STORES: OnceLock<rbr_obs::Counter> = OnceLock::new();
    let (slot, name) = match which {
        "hits" => (&HITS, "exec.cache.hits"),
        "misses" => (&MISSES, "exec.cache.misses"),
        _ => (&STORES, "exec.cache.stores"),
    };
    slot.get_or_init(|| rbr_obs::metrics::counter(name))
}

/// A handle on a shared cell-cache directory.
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Opens (creating if needed) the cache rooted at `dir`.
    pub fn open(dir: &Path) -> Result<CellCache, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(CellCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The stable content key of `(manifest, key)`.
    pub fn content_key(manifest: &str, key: &str) -> String {
        let mut bytes = Vec::with_capacity(manifest.len() + 1 + key.len());
        bytes.extend_from_slice(manifest.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(key.as_bytes());
        hash::digest128(&bytes)
    }

    fn entry_path(&self, content_key: &str) -> PathBuf {
        // The shard is the key's last byte, not its first: FNV-1a's top
        // byte barely moves between inputs that differ only in their
        // last characters, such as a campaign's consecutive cell keys,
        // so sharding by it crowds neighbouring cells, which lanes
        // claim and store together, into a few shared directories.
        self.dir
            .join(&content_key[30..])
            .join(format!("{content_key}.json"))
    }

    /// Looks up the cell `(manifest, key)`. Returns the stored record on
    /// a verified hit; any mismatch, corruption, or absence is a miss.
    pub fn lookup(&self, manifest: &str, key: &str) -> Option<Record> {
        let found = self.lookup_inner(manifest, key);
        cache_counter(if found.is_some() { "hits" } else { "misses" }).inc();
        found
    }

    fn lookup_inner(&self, manifest: &str, key: &str) -> Option<Record> {
        let path = self.entry_path(&Self::content_key(manifest, key));
        let bytes = std::fs::read(&path).ok()?;
        let mut lines = bytes.split(|b| *b == b'\n');
        let identity = parse_line(lines.next()?, &["cache", "campaign", "key", "record"]).ok()?;
        let field = |k| identity.get(k).and_then(Json::as_str);
        let line = lines.next()?;
        if field("cache")? != "rbr-cell-v2"
            || field("campaign")? != manifest
            || field("key")? != key
            || field("record")? != hash::digest128(line)
        {
            return None;
        }
        let record = parse_record(line).ok()?;
        if record.key != key {
            return None;
        }
        Some(record)
    }

    /// Stores a completed cell. Atomic (temp file + rename), so a
    /// concurrent reader sees either nothing or the whole entry; two
    /// concurrent writers of the same cell write identical bytes.
    pub fn store(&self, manifest: &str, record: &Record) -> Result<(), String> {
        let content_key = Self::content_key(manifest, &record.key);
        let path = self.entry_path(&content_key);
        let parent = path.parent().unwrap();
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;

        let line = record_line(record);
        let mut text = String::from("{\"cache\":\"rbr-cell-v2\",\"campaign\":");
        json::write_str(&mut text, manifest);
        text.push_str(",\"key\":");
        json::write_str(&mut text, &record.key);
        text.push_str(",\"record\":\"");
        text.push_str(&hash::digest128(line.trim_end_matches('\n').as_bytes()));
        text.push_str("\"}\n");
        text.push_str(&line);

        let tmp = parent.join(format!(".{content_key}.{}.tmp", std::process::id()));
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        drop(file);
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
        cache_counter("stores").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rbr-exec-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> Record {
        Record {
            cell: 4,
            key: "fig1 scale=smoke".to_string(),
            elapsed_secs: 1.25,
            payload: "{\"meta\":\"fig1\",\"text\":\"a\\nπ\"}".to_string(),
        }
    }

    #[test]
    fn round_trips_and_misses_on_other_manifests() {
        let dir = tmp_dir("roundtrip");
        let cache = CellCache::open(&dir).unwrap();
        assert!(cache.lookup("m1", "fig1 scale=smoke").is_none());
        cache.store("m1", &record()).unwrap();
        let hit = cache.lookup("m1", "fig1 scale=smoke").unwrap();
        assert_eq!(hit, record());
        // A different manifest is a different cell, even with one key.
        assert!(cache.lookup("m2", "fig1 scale=smoke").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let cache = CellCache::open(&dir).unwrap();
        cache.store("m1", &record()).unwrap();
        let path = cache.entry_path(&CellCache::content_key("m1", "fig1 scale=smoke"));
        std::fs::write(&path, "garbage\n").unwrap();
        assert!(cache.lookup("m1", "fig1 scale=smoke").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verifies_identity_against_hash_collisions() {
        let dir = tmp_dir("collide");
        let cache = CellCache::open(&dir).unwrap();
        cache.store("m1", &record()).unwrap();
        // Forge a colliding file: same path, different recorded identity.
        let path = cache.entry_path(&CellCache::content_key("m1", "fig1 scale=smoke"));
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"campaign\":\"m1\"", "\"campaign\":\"mX\"");
        std::fs::write(&path, text).unwrap();
        assert!(cache.lookup("m1", "fig1 scale=smoke").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_bytes_are_pinned() {
        let dir = tmp_dir("pinned");
        let cache = CellCache::open(&dir).unwrap();
        cache.store("scale=smoke \"q\"\tseed=7", &record()).unwrap();
        let path = cache.entry_path(&CellCache::content_key(
            "scale=smoke \"q\"\tseed=7",
            "fig1 scale=smoke",
        ));
        assert_eq!(
            path.strip_prefix(&dir).unwrap(),
            Path::new("be/cac0fc5fcdc07cf307a3858bc1b098be.json")
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"cache\":\"rbr-cell-v2\",\"campaign\":\"scale=smoke \\\"q\\\"\\tseed=7\",\"key\":\"fig1 scale=smoke\",\"record\":\"c8b319c35b045e8930aaa0339d5cebb0\"}\n{\"cell\":4,\"key\":\"fig1 scale=smoke\",\"elapsed_secs\":1.25,\"payload\":\"{\\\"meta\\\":\\\"fig1\\\",\\\"text\\\":\\\"a\\\\nπ\\\"}\"}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_keys_are_stable_and_distinct() {
        let k = CellCache::content_key("m", "fig1");
        assert_eq!(k, CellCache::content_key("m", "fig1"));
        assert_eq!(k.len(), 32);
        assert_ne!(k, CellCache::content_key("m", "fig2"));
        // The separator keeps (manifest, key) unambiguous.
        assert_ne!(
            CellCache::content_key("ab", "c"),
            CellCache::content_key("a", "bc")
        );
    }
}
