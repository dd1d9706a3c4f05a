//! The append-only on-disk job journal: length-prefixed, checksummed
//! records with torn-tail recovery on open.
//!
//! ## Format
//!
//! The file starts with the 8-byte magic `FTESJOB1`, followed by zero or
//! more records, each framed as
//!
//! ```text
//! u32 LE payload length | u64 LE fnv1a64(payload) | payload
//! ```
//!
//! Payloads carry one [`JournalRecord`]: a job **acceptance** (id plus
//! the encoded [`JobRequest`]), a **progress row** (the job's streamed
//! row at a given index — the resume watermark), or a **terminal result**
//! (completed / failed / cancelled, with the rendered result or error
//! message). Every append is flushed through the `File` handle, so a
//! `kill -9` of the process loses at most the record being written —
//! never an earlier one.
//!
//! ## Crash-safety invariant
//!
//! [`Journal::open`] scans the longest valid prefix of well-framed,
//! checksummed, decodable records and **truncates** anything after it (a
//! torn tail from a crash mid-append). Replaying the surviving records
//! reconstructs exactly the executor state whose appends reached disk:
//! accepted-but-unfinished jobs re-enqueue, journaled rows become the
//! watermark below which a resumed job re-emits nothing, and terminal
//! results replay byte-identically.

use crate::request::JobRequest;
use ftes::model::fnv1a64;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Leading magic bytes of a journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"FTESJOB1";

/// Upper bound on one record's payload, as a corruption tripwire: a
/// torn length field must not make the scanner trust a multi-gigabyte
/// phantom record. Real payloads (a spec, a progress row, a rendered
/// result document) sit far below this.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

const TYPE_ACCEPT: u8 = 1;
const TYPE_ROW: u8 = 2;
const TYPE_DONE: u8 = 3;

/// Terminal status vocabulary of a [`JournalRecord::Done`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalStatus {
    /// The job ran to completion; the record carries the rendered result.
    Completed,
    /// The job failed; the record carries the error message.
    Failed,
    /// The job was cancelled; the record carries nothing.
    Cancelled,
}

impl TerminalStatus {
    fn as_byte(self) -> u8 {
        match self {
            TerminalStatus::Completed => 0,
            TerminalStatus::Failed => 1,
            TerminalStatus::Cancelled => 2,
        }
    }

    fn from_byte(b: u8) -> Option<TerminalStatus> {
        Some(match b {
            0 => TerminalStatus::Completed,
            1 => TerminalStatus::Failed,
            2 => TerminalStatus::Cancelled,
            _ => return None,
        })
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job was accepted into the queue.
    Accept {
        /// The assigned job id.
        id: u64,
        /// The validated request, encoded losslessly.
        request: JobRequest,
    },
    /// A progress row reached the in-order callback.
    Row {
        /// The job id.
        id: u64,
        /// The row's position in the job's row stream (dense from 0).
        index: u64,
        /// The row text.
        row: String,
    },
    /// The job reached a terminal state.
    Done {
        /// The job id.
        id: u64,
        /// How it ended.
        status: TerminalStatus,
        /// The rendered result (completed), the error message (failed) or
        /// empty (cancelled).
        result: String,
    },
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    let len = take_u32(bytes, at)? as usize;
    let end = at.checked_add(len).filter(|&e| e <= bytes.len()).ok_or("string overruns record")?;
    let s = std::str::from_utf8(&bytes[*at..end]).map_err(|_| "string is not UTF-8")?;
    *at = end;
    Ok(s.to_string())
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let end = at.checked_add(4).ok_or("truncated u32")?;
    let arr: [u8; 4] =
        bytes.get(*at..end).and_then(|s| s.try_into().ok()).ok_or("truncated u32")?;
    *at = end;
    Ok(u32::from_le_bytes(arr))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, String> {
    let end = at.checked_add(8).ok_or("truncated u64")?;
    let arr: [u8; 8] =
        bytes.get(*at..end).and_then(|s| s.try_into().ok()).ok_or("truncated u64")?;
    *at = end;
    Ok(u64::from_le_bytes(arr))
}

impl JournalRecord {
    /// Encodes the record payload (without the length/checksum frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            JournalRecord::Accept { id, request } => {
                out.push(TYPE_ACCEPT);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&request.encode());
            }
            JournalRecord::Row { id, index, row } => {
                out.push(TYPE_ROW);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&index.to_le_bytes());
                push_str(&mut out, row);
            }
            JournalRecord::Done { id, status, result } => {
                out.push(TYPE_DONE);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(status.as_byte());
                push_str(&mut out, result);
            }
        }
        out
    }

    /// Decodes one record payload.
    ///
    /// # Errors
    ///
    /// Returns a description when the payload is malformed — the journal
    /// scanner treats that as the torn tail and truncates there.
    pub fn decode(bytes: &[u8]) -> Result<JournalRecord, String> {
        let mut at = 0usize;
        let kind = *bytes.first().ok_or("empty record")?;
        at += 1;
        let record = match kind {
            TYPE_ACCEPT => {
                let id = take_u64(bytes, &mut at)?;
                let request = JobRequest::decode(&bytes[at..])?;
                return Ok(JournalRecord::Accept { id, request });
            }
            TYPE_ROW => {
                let id = take_u64(bytes, &mut at)?;
                let index = take_u64(bytes, &mut at)?;
                let row = take_str(bytes, &mut at)?;
                JournalRecord::Row { id, index, row }
            }
            TYPE_DONE => {
                let id = take_u64(bytes, &mut at)?;
                let status = *bytes.get(at).ok_or("truncated status byte")?;
                at += 1;
                let status = TerminalStatus::from_byte(status)
                    .ok_or_else(|| "bad status byte".to_string())?;
                let result = take_str(bytes, &mut at)?;
                JournalRecord::Done { id, status, result }
            }
            other => return Err(format!("unknown record type {other}")),
        };
        if at != bytes.len() {
            return Err(format!("{} trailing bytes after record", bytes.len() - at));
        }
        Ok(record)
    }
}

/// An open, append-positioned journal file.
pub struct Journal {
    file: File,
    bytes: u64,
    appends: u64,
    append_nanos: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays it, truncates any
    /// torn tail and positions the handle for appends.
    ///
    /// Returns the journal handle, the surviving records in append order,
    /// and whether a torn tail was discarded.
    ///
    /// # Errors
    ///
    /// I/O failures, and a refusal to touch a file that is neither empty
    /// nor magic-prefixed — a foreign file is never silently truncated
    /// into a journal.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<JournalRecord>, bool)> {
        // `truncate(false)`: an existing journal is recovered, never wiped.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < JOURNAL_MAGIC.len() {
            // Empty (fresh) or torn during creation: (re)write the magic.
            if !JOURNAL_MAGIC.starts_with(&bytes[..]) {
                return Err(foreign_file(path));
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(JOURNAL_MAGIC)?;
            file.flush()?;
            let bytes = JOURNAL_MAGIC.len() as u64;
            return Ok((Journal { file, bytes, appends: 0, append_nanos: 0 }, Vec::new(), false));
        }
        if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(foreign_file(path));
        }

        // Scan the longest valid prefix of framed, checksummed, decodable
        // records; everything after it is a torn tail from a crash.
        let mut records = Vec::new();
        let mut at = JOURNAL_MAGIC.len();
        while at.checked_add(12).filter(|&e| e <= bytes.len()).is_some() {
            let mut cursor = at;
            let Ok(len) = take_u32(&bytes, &mut cursor) else {
                break;
            };
            if len > MAX_RECORD_BYTES {
                break;
            }
            let Ok(checksum) = take_u64(&bytes, &mut cursor) else {
                break;
            };
            let header_end = cursor;
            let Some(end) = header_end.checked_add(len as usize).filter(|&e| e <= bytes.len())
            else {
                break;
            };
            let payload = &bytes[header_end..end];
            if fnv1a64(payload) != checksum {
                break;
            }
            let Ok(record) = JournalRecord::decode(payload) else {
                break;
            };
            records.push(record);
            at = end;
        }

        let truncated = at < bytes.len();
        if truncated {
            file.set_len(at as u64)?;
        }
        file.seek(SeekFrom::Start(at as u64))?;
        Ok((Journal { file, bytes: at as u64, appends: 0, append_nanos: 0 }, records, truncated))
    }

    /// Appends one record and flushes it to the OS. A `kill -9` after
    /// [`append`](Journal::append) returns cannot lose the record (the
    /// page cache survives the process); only a host power loss could,
    /// and the torn-tail scan contains even that to the final record.
    ///
    /// # Errors
    ///
    /// Propagates write failures (disk full, journal directory removed).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let _span = ftes_obs::span(ftes_obs::names::JOURNAL_APPEND);
        // ftes-lint: allow(determinism) reason="append-latency metric feeds /metrics only, never result bytes"
        let started = std::time::Instant::now();
        let payload = record.encode();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.bytes += frame.len() as u64;
        self.appends += 1;
        self.append_nanos += started.elapsed().as_nanos() as u64;
        ftes_obs::counter(ftes_obs::names::JOURNAL_BYTES, frame.len() as u64);
        Ok(())
    }

    /// Current journal size in bytes (magic plus every surviving and
    /// appended record).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended (and flushed) through this handle's lifetime.
    /// Replayed records don't count — only writes this process paid for.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Cumulative microseconds spent inside [`append`](Journal::append) —
    /// encode, frame, `write_all` and the flush to the OS. With
    /// [`appends`](Journal::appends) this yields the mean append (fsync
    /// path) latency for `/metrics`.
    pub fn append_micros(&self) -> u64 {
        self.append_nanos / 1_000
    }
}

fn foreign_file(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{} exists but is not an ftes job journal", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Accept {
                id: 1,
                request: JobRequest::Synthesize { spec: "nodes 2\n".to_string() },
            },
            JournalRecord::Row { id: 1, index: 0, row: "a,b,c".to_string() },
            JournalRecord::Row { id: 1, index: 1, row: String::new() },
            JournalRecord::Done {
                id: 1,
                status: TerminalStatus::Completed,
                result: "{\"ok\":true}".to_string(),
            },
            JournalRecord::Done { id: 2, status: TerminalStatus::Failed, result: "boom".into() },
            JournalRecord::Done { id: 3, status: TerminalStatus::Cancelled, result: String::new() },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let bytes = record.encode();
            assert_eq!(JournalRecord::decode(&bytes).unwrap(), record, "{record:?}");
            // Trailing garbage is malformed, not silently ignored.
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(JournalRecord::decode(&longer).is_err(), "{record:?}");
        }
        assert!(JournalRecord::decode(&[]).is_err());
        assert!(JournalRecord::decode(&[99]).is_err());
    }

    #[test]
    fn open_create_append_reopen() {
        let dir = std::env::temp_dir().join(format!("ftes-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.journal");
        let _ = std::fs::remove_file(&path);

        let (mut journal, records, truncated) = Journal::open(&path).unwrap();
        assert!(records.is_empty());
        assert!(!truncated);
        assert_eq!(journal.bytes(), JOURNAL_MAGIC.len() as u64);
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        let size = journal.bytes();
        drop(journal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);

        let (journal, records, truncated) = Journal::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert!(!truncated);
        assert_eq!(journal.bytes(), size);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_offset() {
        // The satellite contract: truncate the file at every byte offset
        // inside the *final* record; open() must recover exactly the
        // records before it and truncate the tail.
        let dir = std::env::temp_dir().join(format!("ftes-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let _ = std::fs::remove_file(&path);

        let (mut journal, _, _) = Journal::open(&path).unwrap();
        let records = sample_records();
        for record in &records[..records.len() - 1] {
            journal.append(record).unwrap();
        }
        let before_last = journal.bytes();
        journal.append(records.last().unwrap()).unwrap();
        let full = journal.bytes();
        drop(journal);
        let full_bytes = std::fs::read(&path).unwrap();
        assert_eq!(full_bytes.len() as u64, full);

        for cut in before_last..full {
            std::fs::write(&path, &full_bytes[..cut as usize]).unwrap();
            let (journal, recovered, truncated) = Journal::open(&path).unwrap();
            assert_eq!(recovered, records[..records.len() - 1], "cut at {cut}");
            assert_eq!(truncated, cut != before_last, "cut at {cut}");
            assert_eq!(journal.bytes(), before_last, "cut at {cut}");
            drop(journal);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), before_last, "cut at {cut}");
        }

        // A journal truncated into the magic itself is a torn creation:
        // reopened as fresh.
        std::fs::write(&path, &full_bytes[..4]).unwrap();
        let (_, recovered, truncated) = Journal::open(&path).unwrap();
        assert!(recovered.is_empty());
        assert!(!truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_or_garbage_type_stops_the_scan() {
        let dir = std::env::temp_dir().join(format!("ftes-journal-cksum-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cksum.journal");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _, _) = Journal::open(&path).unwrap();
        let records = sample_records();
        for record in &records {
            journal.append(record).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the final record: its checksum fails,
        // the scan stops, the earlier records survive.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovered, truncated) = Journal::open(&path).unwrap();
        assert_eq!(recovered, records[..records.len() - 1]);
        assert!(truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_are_refused() {
        let dir = std::env::temp_dir().join(format!("ftes-journal-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.bin");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(Journal::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
