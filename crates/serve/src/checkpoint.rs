//! Append-only, CRC-guarded campaign checkpoints.
//!
//! One file per campaign id, `<ckpt_dir>/<id>.ckpt`. Every line is
//!
//! ```text
//! <crc32-ieee, 8 lowercase hex digits> <flat JSON object>
//! ```
//!
//! with the CRC computed over the JSON bytes. The first line is a
//! header naming the campaign, the scenario fingerprint and the grid
//! shape; each subsequent line records one finished chunk with its
//! exact CSV rows:
//!
//! ```text
//! {"type":"header","campaign":"...","fingerprint":"<16 hex>",
//!  "cells":N,"runs":N,"chunk_size":C}
//! {"type":"chunk","chunk":K,"lo":A,"hi":B,"failed":F,"rows":[...]}
//! ```
//!
//! Appends are flushed and `fsync`'d line-at-a-time, so a crash leaves
//! at most one truncated line at the tail. The loader verifies each
//! line's CRC and silently *skips* (but counts) any line that is
//! truncated, corrupt or unparsable — the corresponding chunk simply
//! re-runs on resume, which is always safe because chunks are
//! deterministic. A bad or missing header invalidates the whole file.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::json::{self, ObjectBuilder};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The checkpoint header: identity and grid shape of the campaign the
/// chunk lines below it belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Campaign id the file belongs to.
    pub campaign: String,
    /// Scenario fingerprint (16 lowercase hex digits) at write time.
    pub fingerprint: String,
    /// Grid cells in the campaign.
    pub cells: usize,
    /// Simulator runs (cells × seeds) — a second structural guard.
    pub runs: usize,
    /// Cells per chunk used when the file was created. Resume reuses
    /// this so chunk boundaries line up with the recorded ranges.
    pub chunk_size: usize,
}

/// One finished chunk: its cell range and the exact CSV rows streamed
/// for it, in grid order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Chunk index (`lo = chunk * chunk_size`).
    pub chunk: usize,
    /// First cell index (inclusive).
    pub lo: usize,
    /// Last cell index (exclusive).
    pub hi: usize,
    /// Failed cells inside the chunk.
    pub failed: usize,
    /// One `CsvSink` row per cell, `hi - lo` of them.
    pub rows: Vec<String>,
}

/// A checkpoint file loaded for resume.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The validated header.
    pub header: Header,
    /// Finished chunks by chunk index. Duplicate entries for a chunk
    /// keep the last (re-runs append, never rewrite).
    pub chunks: HashMap<usize, ChunkEntry>,
    /// Lines dropped by CRC/parse validation — their chunks re-run.
    pub corrupt_lines: usize,
}

fn encode_line(payload: &str) -> String {
    format!("{:08x} {payload}\n", crc32(payload.as_bytes()))
}

fn decode_line(line: &str) -> Option<&str> {
    let (crc_hex, payload) = line.split_once(' ')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(payload.as_bytes()) == want).then_some(payload)
}

fn header_line(h: &Header) -> String {
    let mut b = ObjectBuilder::frame("header");
    b.push_str("campaign", &h.campaign)
        .push_str("fingerprint", &h.fingerprint)
        .push_u64("cells", h.cells as u64)
        .push_u64("runs", h.runs as u64)
        .push_u64("chunk_size", h.chunk_size as u64);
    encode_line(&b.finish())
}

fn chunk_line(e: &ChunkEntry) -> String {
    let mut b = ObjectBuilder::frame("chunk");
    b.push_u64("chunk", e.chunk as u64)
        .push_u64("lo", e.lo as u64)
        .push_u64("hi", e.hi as u64)
        .push_u64("failed", e.failed as u64)
        .push_str_list("rows", &e.rows);
    encode_line(&b.finish())
}

/// An open checkpoint file accepting chunk appends.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Create (truncating any previous run) a checkpoint for a fresh
    /// campaign and durably write its header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from create/write/sync.
    pub fn create(path: &Path, header: &Header) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(path)?;
        let mut w = Self { file };
        w.append_raw(&header_line(header))?;
        Ok(w)
    }

    /// Open an existing checkpoint for appending (resume path — the
    /// header is already on disk and validated by the loader).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from open.
    pub fn open_append(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self { file })
    }

    /// Durably record one finished chunk: the line is written, flushed
    /// and `fsync`'d before this returns. The server sends the chunk's
    /// `record` frames only after that, so a kill after the client
    /// received them can never lose the chunk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from write/sync.
    pub fn append_chunk(&mut self, entry: &ChunkEntry) -> io::Result<()> {
        self.append_raw(&chunk_line(entry))
    }

    fn append_raw(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// Load a checkpoint for resume.
///
/// Returns `Ok(None)` when the file does not exist or its header line
/// is missing/corrupt (nothing to resume — the campaign starts fresh).
/// Corrupt or truncated *chunk* lines are counted in
/// [`LoadedCheckpoint::corrupt_lines`] and their chunks are simply
/// absent from the map, so only they re-run.
///
/// # Errors
///
/// Propagates filesystem read errors other than "not found".
pub fn load(path: &Path) -> io::Result<Option<LoadedCheckpoint>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = BufReader::new(file).lines();
    let header = match lines.next() {
        Some(Ok(first)) => match decode_line(&first).and_then(parse_header) {
            Some(h) => h,
            None => return Ok(None),
        },
        _ => return Ok(None),
    };
    let mut chunks = HashMap::new();
    let mut corrupt_lines = 0usize;
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        match decode_line(&line).and_then(|p| parse_chunk(p, &header)) {
            Some(entry) => {
                chunks.insert(entry.chunk, entry);
            }
            None => corrupt_lines += 1,
        }
    }
    Ok(Some(LoadedCheckpoint {
        header,
        chunks,
        corrupt_lines,
    }))
}

fn parse_header(payload: &str) -> Option<Header> {
    let obj = json::parse_object(payload).ok()?;
    if obj.str_field("type").ok()? != "header" {
        return None;
    }
    Some(Header {
        campaign: obj.str_field("campaign").ok()?.to_string(),
        fingerprint: obj.str_field("fingerprint").ok()?.to_string(),
        cells: obj.u64_field("cells").ok()? as usize,
        runs: obj.u64_field("runs").ok()? as usize,
        chunk_size: (obj.u64_field("chunk_size").ok()? as usize).max(1),
    })
}

fn parse_chunk(payload: &str, header: &Header) -> Option<ChunkEntry> {
    let obj = json::parse_object(payload).ok()?;
    if obj.str_field("type").ok()? != "chunk" {
        return None;
    }
    let entry = ChunkEntry {
        chunk: obj.u64_field("chunk").ok()? as usize,
        lo: obj.u64_field("lo").ok()? as usize,
        hi: obj.u64_field("hi").ok()? as usize,
        failed: obj.u64_field("failed").ok()? as usize,
        rows: obj.str_list_field("rows").ok()?.to_vec(),
    };
    // Structural sanity: the range must match the header's chunking and
    // carry one row per cell, else replaying it would corrupt output.
    let lo = entry.chunk.checked_mul(header.chunk_size)?;
    let hi = lo.saturating_add(header.chunk_size).min(header.cells);
    (entry.lo == lo && entry.hi == hi && entry.rows.len() == hi - lo && hi > lo).then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("acs-serve-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("c.ckpt")
    }

    fn header() -> Header {
        Header {
            campaign: "demo".into(),
            fingerprint: "00aabbccddeeff11".into(),
            cells: 5,
            runs: 10,
            chunk_size: 2,
        }
    }

    fn entry(chunk: usize) -> ChunkEntry {
        let lo = chunk * 2;
        let hi = (lo + 2).min(5);
        ChunkEntry {
            chunk,
            lo,
            hi,
            failed: 0,
            rows: (lo..hi).map(|i| format!("set,cpu,row {i}")).collect(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn round_trips_header_and_chunks() {
        let path = tmp("roundtrip");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.append_chunk(&entry(0)).unwrap();
        w.append_chunk(&entry(2)).unwrap();
        let loaded = load(&path).unwrap().expect("checkpoint should load");
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.corrupt_lines, 0);
        assert_eq!(loaded.chunks.len(), 2);
        assert_eq!(loaded.chunks[&0], entry(0));
        assert_eq!(loaded.chunks[&2], entry(2));
        assert!(!loaded.chunks.contains_key(&1));
    }

    #[test]
    fn reopen_appends_without_clobbering() {
        let path = tmp("reopen");
        CheckpointWriter::create(&path, &header())
            .unwrap()
            .append_chunk(&entry(0))
            .unwrap();
        CheckpointWriter::open_append(&path)
            .unwrap()
            .append_chunk(&entry(1))
            .unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.chunks.len(), 2);
    }

    #[test]
    fn corrupt_chunk_line_is_skipped_and_counted() {
        let path = tmp("corrupt");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.append_chunk(&entry(0)).unwrap();
        w.append_chunk(&entry(1)).unwrap();
        drop(w);
        // Flip one byte inside chunk 0's payload: its CRC now fails.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("row 0", "row !"); // same length, new bytes
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.corrupt_lines, 1, "the tampered line must be dropped");
        assert!(!loaded.chunks.contains_key(&0), "chunk 0 must re-run");
        assert_eq!(loaded.chunks[&1], entry(1), "chunk 1 survives untouched");
    }

    #[test]
    fn truncated_tail_line_only_loses_its_own_chunk() {
        let path = tmp("truncated");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        w.append_chunk(&entry(0)).unwrap();
        w.append_chunk(&entry(1)).unwrap();
        drop(w);
        // Simulate a crash mid-append: cut the file mid-way through the
        // final line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.corrupt_lines, 1);
        assert_eq!(loaded.chunks.len(), 1);
        assert!(loaded.chunks.contains_key(&0));
    }

    #[test]
    fn missing_or_headerless_files_mean_fresh_start() {
        let path = tmp("fresh");
        assert!(load(&path).unwrap().is_none(), "missing file");
        std::fs::write(&path, "garbage with no checksum\n").unwrap();
        assert!(load(&path).unwrap().is_none(), "corrupt header");
    }

    #[test]
    fn chunk_lines_with_wrong_geometry_are_rejected() {
        let path = tmp("geometry");
        let mut w = CheckpointWriter::create(&path, &header()).unwrap();
        // A forged line whose CRC is valid but whose range disagrees
        // with the header's chunk size.
        let bad = ChunkEntry {
            chunk: 0,
            lo: 0,
            hi: 3,
            failed: 0,
            rows: vec!["a".into(); 3],
        };
        w.append_raw(&chunk_line(&bad)).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.corrupt_lines, 1);
        assert!(loaded.chunks.is_empty());
    }
}
