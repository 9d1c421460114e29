//! Crash-safe write-ahead journal for interactive sessions.
//!
//! Each edit applied to an [`InteractiveSession`](crate::InteractiveSession)
//! is framed and fsync'd to an append-only file, so a `kill -9` mid-session
//! loses at most the edit being written; `--resume` replays the journal
//! through the incremental `MetricsEngine` to restore exact engine state.
//!
//! ## Frame format (`DESIGN.md` §9 is the normative spec)
//!
//! ```text
//! file   := magic frame*
//! magic  := "OREJRNL1"                      (8 bytes)
//! frame  := len:u32-LE crc:u32-LE payload   (len = payload byte count)
//! ```
//!
//! The payload is the canonical text of one replay op (the same syntax
//! `--edits` scripts use: `reassign 3 1`, `undo`, ...), UTF-8, no
//! trailing newline. `crc` is CRC-32 (IEEE, reflected) over the payload
//! only. Append order is the apply order; recovery replays frames
//! front-to-back and *stops at the first bad frame* (short header, short
//! payload, CRC mismatch, oversized length): everything before it is the
//! surviving prefix, everything from it on is the torn tail a crashed
//! writer left behind. Recovery truncates the tail by default so the next
//! append starts from a clean end-of-file.
//!
//! Durability: each append issues `sync_data`. Journalling is for
//! interactive sessions (human-paced edits), so one fsync per edit is
//! the right trade — the journal is behind the applied state, never
//! ahead, and a crash between apply and append loses exactly that edit.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a session journal, version 1.
pub const MAGIC: &[u8; 8] = b"OREJRNL1";

/// Upper bound on one frame's payload. Real records are tens of bytes;
/// anything bigger is a corrupt length field, and bounding it keeps
/// recovery from allocating garbage-length buffers.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the ubiquitous
/// `crc32` with check value `crc32(b"123456789") == 0xCBF43926`.
/// Bitwise implementation: journal payloads are tens of bytes, so a
/// table buys nothing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Journal I/O failure, with the path for operator-grade messages.
#[derive(Debug)]
pub struct JournalError {
    /// The journal file involved.
    pub path: PathBuf,
    /// What went wrong.
    pub kind: JournalErrorKind,
}

/// Classified journal failures.
#[derive(Debug)]
pub enum JournalErrorKind {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file exists but does not start with [`MAGIC`].
    BadMagic,
    /// An append was asked to frame a payload larger than
    /// [`MAX_FRAME_LEN`].
    Oversized(usize),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let path = self.path.display();
        match &self.kind {
            JournalErrorKind::Io(e) => write!(f, "journal {path}: {e}"),
            JournalErrorKind::BadMagic => {
                write!(f, "journal {path}: not a session journal (bad magic)")
            }
            JournalErrorKind::Oversized(n) => {
                write!(f, "journal {path}: record of {n} bytes exceeds frame limit")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// An open, append-only session journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    fn err(path: &Path, kind: JournalErrorKind) -> JournalError {
        JournalError {
            path: path.to_path_buf(),
            kind,
        }
    }

    fn io(path: &Path, e: std::io::Error) -> JournalError {
        Journal::err(path, JournalErrorKind::Io(e))
    }

    /// Creates (or truncates) a journal at `path` and writes the magic.
    /// The parent directory is fsync'd too: on POSIX filesystems the new
    /// directory entry is metadata of the *directory*, so without it a
    /// power-loss crash can leave a fully-synced file that simply isn't
    /// reachable by name.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Journal::io(path, e))?;
        file.write_all(MAGIC).map_err(|e| Journal::io(path, e))?;
        file.sync_data().map_err(|e| Journal::io(path, e))?;
        sync_parent_dir(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing journal for appending, validating the magic and
    /// seeking to the end. Run [`recover`] first if the file may hold a
    /// torn tail from a crashed writer.
    pub fn open_append(path: &Path) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Journal::io(path, e))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|e| Journal::io(path, e))?;
        if &magic != MAGIC {
            return Err(Journal::err(path, JournalErrorKind::BadMagic));
        }
        file.seek(SeekFrom::End(0)).map_err(|e| Journal::io(path, e))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one framed record and fsyncs. Call *after* the edit has
    /// been applied: the journal holds exactly the edits the engine has
    /// seen, and a crash between apply and append loses only that edit.
    pub fn append(&mut self, record: &str) -> Result<(), JournalError> {
        let payload = record.as_bytes();
        if payload.len() > MAX_FRAME_LEN as usize {
            return Err(Journal::err(
                &self.path,
                JournalErrorKind::Oversized(payload.len()),
            ));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| Journal::io(&self.path, e))?;
        self.file.sync_data().map_err(|e| Journal::io(&self.path, e))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Fsyncs the directory containing `path`, making the directory entry
/// itself durable. `sync_data` on the file covers its *contents*; the
/// name→inode link lives in the parent directory and needs its own
/// fsync after create/truncate, or a crash can forget the file exists.
fn sync_parent_dir(path: &Path) -> Result<(), JournalError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        // a bare filename means the CWD; `.` opens it
        _ => Path::new("."),
    };
    let dir = File::open(parent).map_err(|e| Journal::io(path, e))?;
    dir.sync_all().map_err(|e| Journal::io(path, e))
}

/// Replaces the file at `path` with `bytes` so that a crash at any point
/// leaves either the old contents or the new, never a mixture: write a
/// sibling temp file, fsync it, rename it over `path`, fsync the parent
/// directory. Session sidecars that must stay readable across a crash are
/// written this way.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), JournalError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp).map_err(|e| Journal::io(&tmp, e))?;
    file.write_all(bytes).map_err(|e| Journal::io(&tmp, e))?;
    file.sync_all().map_err(|e| Journal::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| Journal::io(path, e))?;
    sync_parent_dir(path)
}

/// The outcome of [`recover`]: the surviving records plus an account of
/// any torn tail.
#[derive(Debug)]
pub struct JournalRecovery {
    /// Payloads of every intact frame, in append order.
    pub records: Vec<String>,
    /// Bytes of torn tail found after the last intact frame (0 = the
    /// journal was clean).
    pub torn_bytes: u64,
    /// Whether the torn tail was truncated away.
    pub truncated: bool,
}

/// Reads a journal, returning every intact record and stopping at the
/// first torn/corrupt frame. With `truncate` set, the torn tail is cut
/// off so subsequent appends continue from a clean frame boundary —
/// the standard crash-recovery path (`--resume`).
pub fn recover(path: &Path, truncate: bool) -> Result<JournalRecovery, JournalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(truncate)
        .open(path)
        .map_err(|e| Journal::io(path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| Journal::io(path, e))?;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(Journal::err(path, JournalErrorKind::BadMagic));
    }

    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    let good_end = loop {
        if pos == bytes.len() {
            break pos; // clean end-of-file
        }
        if pos + 8 > bytes.len() {
            break pos; // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            break pos; // corrupt length field
        }
        let body_start = pos + 8;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            break pos; // torn payload
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            break pos; // bit rot or a frame torn exactly at a boundary
        }
        match std::str::from_utf8(payload) {
            Ok(s) => records.push(s.to_string()),
            Err(_) => break pos, // valid CRC but not UTF-8: treat as corrupt
        }
        pos = body_end;
    };

    let torn_bytes = (bytes.len() - good_end) as u64;
    let mut truncated = false;
    if torn_bytes > 0 && truncate {
        file.set_len(good_end as u64)
            .map_err(|e| Journal::io(path, e))?;
        file.sync_data().map_err(|e| Journal::io(path, e))?;
        // the truncated length is inode metadata, but sync the parent
        // too so a repaired-then-crashed journal can't resurface with
        // the stale directory entry of a rename-based editor
        sync_parent_dir(path)?;
        truncated = true;
    }
    Ok(JournalRecovery {
        records,
        torn_bytes,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oregami-journal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn crc32_matches_the_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"reassign 3 1"), crc32(b"reassign 3 2"));
    }

    #[test]
    fn round_trip_append_and_recover() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.append("reassign 3 1").unwrap();
        j.append("undo").unwrap();
        j.append("fault proc:2").unwrap();
        drop(j);
        let rec = recover(&path, true).unwrap();
        assert_eq!(rec.records, vec!["reassign 3 1", "undo", "fault proc:2"]);
        assert_eq!(rec.torn_bytes, 0);
        assert!(!rec.truncated);
        // append after recovery continues the same journal
        let mut j = Journal::open_append(&path).unwrap();
        j.append("reroute 0 1 0 1").unwrap();
        drop(j);
        let rec = recover(&path, false).unwrap();
        assert_eq!(rec.records.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn");
        let mut j = Journal::create(&path).unwrap();
        j.append("reassign 1 0").unwrap();
        j.append("reassign 2 1").unwrap();
        drop(j);
        let full = std::fs::metadata(&path).unwrap().len();
        // simulate kill -9 mid-append: cut the last frame in half
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let rec = recover(&path, true).unwrap();
        assert_eq!(rec.records, vec!["reassign 1 0"]);
        assert!(rec.torn_bytes > 0);
        assert!(rec.truncated);
        // after truncation the journal is clean and appendable
        let mut j = Journal::open_append(&path).unwrap();
        j.append("reassign 2 1").unwrap();
        drop(j);
        let rec = recover(&path, true).unwrap();
        assert_eq!(rec.records, vec!["reassign 1 0", "reassign 2 1"]);
        assert_eq!(rec.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_stops_recovery_at_the_frame() {
        let path = tmp("crc");
        let mut j = Journal::create(&path).unwrap();
        j.append("reassign 1 0").unwrap();
        j.append("reassign 2 1").unwrap();
        drop(j);
        // flip one payload byte of the second frame
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rec = recover(&path, false).unwrap();
        assert_eq!(rec.records, vec!["reassign 1 0"]);
        assert!(rec.torn_bytes > 0);
        assert!(!rec.truncated, "truncate=false must leave the file alone");
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, bytes.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"#!/bin/sh\necho no\n").unwrap();
        assert!(matches!(
            recover(&path, false),
            Err(JournalError {
                kind: JournalErrorKind::BadMagic,
                ..
            })
        ));
        assert!(Journal::open_append(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(recover(&path, false).is_err(), "missing file is an error");
    }

    #[test]
    fn oversized_record_is_refused() {
        let path = tmp("oversize");
        let mut j = Journal::create(&path).unwrap();
        let big = "x".repeat(MAX_FRAME_LEN as usize + 1);
        let err = j.append(&big).unwrap_err();
        assert!(matches!(err.kind, JournalErrorKind::Oversized(_)));
        assert!(err.to_string().contains("frame limit"));
        // the refused record wrote nothing
        drop(j);
        assert_eq!(recover(&path, false).unwrap().records.len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_and_truncate_sync_the_parent_directory() {
        // Regression: `create` and the truncating `recover` path fsync'd
        // the file but never its parent directory, so a freshly created
        // (or repaired) journal could vanish after a power-loss crash.
        // A unit test can't cut the power, but it can pin the behaviour
        // that used to be missing: both paths must succeed on a journal
        // living in a brand-new directory (where the parent-dir fsync
        // actually runs), including the corner case of a parentless
        // relative path resolving to the CWD.
        let mut dir = std::env::temp_dir();
        dir.push(format!("oregami-journal-dirsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.jrnl");

        let mut j = Journal::create(&path).unwrap();
        j.append("reassign 1 0").unwrap();
        j.append("reassign 2 1").unwrap();
        drop(j);

        // tear the tail, then recover with truncation — the repair path
        // must also sync the directory and leave an appendable journal
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let rec = recover(&path, true).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.records, vec!["reassign 1 0"]);
        Journal::open_append(&path).unwrap().append("undo").unwrap();
        assert_eq!(recover(&path, false).unwrap().records.len(), 2);

        // a parentless path maps to "." and must not error
        assert!(sync_parent_dir(Path::new("bare-filename.jrnl")).is_ok());

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn corrupt_length_field_is_a_torn_tail() {
        let path = tmp("len");
        let mut j = Journal::create(&path).unwrap();
        j.append("undo").unwrap();
        drop(j);
        // append garbage that decodes as an absurd length
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        std::fs::write(&path, &bytes).unwrap();
        let rec = recover(&path, true).unwrap();
        assert_eq!(rec.records, vec!["undo"]);
        assert_eq!(rec.torn_bytes, 8);
        assert!(rec.truncated);
        std::fs::remove_file(&path).ok();
    }
}
