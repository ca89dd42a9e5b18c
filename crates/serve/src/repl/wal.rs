//! The replication write-ahead log: length-prefixed, checksummed
//! records of mutating ops, replayable in LSN order.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! header:  magic [8] = "SNKLWAL\0" | version u32 | base_lsn u64
//! record:  len u32 | crc u64 | body[len]
//! body:    lsn u64 | gen_after u64 | op
//! op:      tag u8 | payload            (see [`Op`])
//! ```
//!
//! `crc` is FNV-1a-64 over `body`. `base_lsn` is the LSN *before* the
//! first record, so a log created against a snapshot taken at LSN `n`
//! carries records `n+1, n+2, …`. `gen_after` is the server generation
//! *after* the op applied — replicas verify it after replay, which turns
//! any nondeterminism into a typed divergence error instead of silent
//! drift.
//!
//! Recovery ([`scan`]) distinguishes two failure shapes:
//!
//! * a **torn tail** — the file ends mid-record (crash during append).
//!   The partial record is dropped and the file truncated back to the
//!   last complete record; this is normal operation, not an error.
//! * **corruption** — a complete record whose checksum, LSN sequence,
//!   generation monotonicity, or op grammar is wrong. This is a typed
//!   [`WalError`], never a panic and never a silently-replayed guess.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use snorkel_matrix::Fnv1a;

use crate::frame::IngestRow;
use crate::protocol::{LfSpec, SuiteEdit};
use crate::snap::SnapError;
use crate::wire::{Reader, Writer};

/// First eight bytes of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"SNKLWAL\0";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Fixed header size: magic + version + base LSN.
pub const WAL_HEADER_BYTES: usize = 20;
/// Per-record prefix: `len u32 | crc u64`.
pub const RECORD_PREFIX_BYTES: usize = 12;
/// Sanity cap on one record body; a length field above this is
/// corruption, not a large batch.
pub const MAX_RECORD_BYTES: u32 = 1 << 24;

const OP_TAG_REFRESH: u8 = 1;
const OP_TAG_INGEST: u8 = 2;
const OP_TAG_SEAL: u8 = 3;

const EDIT_TAG_NONE: u8 = 0;
const EDIT_TAG_ADD: u8 = 1;
const EDIT_TAG_EDIT: u8 = 2;
const EDIT_TAG_REMOVE: u8 = 3;

/// Typed WAL failure — the replication counterpart of
/// [`crate::snap::SnapError`].
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// The file's version is not one this build can replay.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// The header itself is incomplete (shorter than
    /// [`WAL_HEADER_BYTES`]).
    TruncatedHeader,
    /// A complete record failed its checksum.
    ChecksumMismatch {
        /// Byte offset of the record's length prefix.
        offset: u64,
    },
    /// A structurally invalid record: bad op grammar, LSN gap, or
    /// generation regression.
    Corrupt {
        /// What was being decoded.
        context: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadMagic => write!(f, "not a WAL file (bad magic)"),
            WalError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported WAL version {found} (this build reads <= {supported})"
                )
            }
            WalError::TruncatedHeader => write!(f, "truncated WAL header"),
            WalError::ChecksumMismatch { offset } => {
                write!(f, "WAL record checksum mismatch at byte offset {offset}")
            }
            WalError::Corrupt { context } => write!(f, "corrupt WAL: {context}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

fn corrupt(context: impl Into<String>) -> WalError {
    WalError::Corrupt {
        context: context.into(),
    }
}

fn from_snap(e: SnapError) -> WalError {
    corrupt(e.into_detail())
}

/// One mutating operation, exactly as the leader applied it. Replaying
/// the ops of a log in LSN order through the same
/// [`IncrementalSession`](snorkel_incr::IncrementalSession) entry
/// points reproduces the leader's state bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A `REFRESH` (optionally with a suite edit). LF specs travel as
    /// their canonical text, so replay rebuilds the identical
    /// content-tagged LF.
    Refresh(Option<SuiteEdit>),
    /// An `INGEST` batch (text verb or binary `OP_INGEST` frame).
    Ingest(Vec<IngestRow>),
    /// Log seal written by `PROMOTE`: applies as a no-op and marks the
    /// point where a follower took over as leader.
    Seal,
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// This record's log sequence number (`base_lsn + ordinal`).
    pub lsn: u64,
    /// Server generation immediately after the op applied.
    pub gen_after: u64,
    /// The operation itself.
    pub op: Op,
}

/// Encode a record body (`lsn | gen_after | op`) — the unit the
/// checksum covers and the unit shipped over `OP_LOG_SUBSCRIBE`.
pub fn encode_body(lsn: u64, gen_after: u64, op: &Op) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(&lsn);
    w.put(&gen_after);
    match op {
        Op::Refresh(edit) => {
            w.put(&OP_TAG_REFRESH);
            match edit {
                None => w.put(&EDIT_TAG_NONE),
                Some(SuiteEdit::Add(spec)) => {
                    w.put(&EDIT_TAG_ADD);
                    w.put_str(&spec.canonical());
                }
                Some(SuiteEdit::Edit(spec)) => {
                    w.put(&EDIT_TAG_EDIT);
                    w.put_str(&spec.canonical());
                }
                Some(SuiteEdit::Remove(name)) => {
                    w.put(&EDIT_TAG_REMOVE);
                    w.put_str(name);
                }
            }
        }
        // The same `u32`-counted rows an `OP_INGEST` frame carries.
        Op::Ingest(rows) => {
            w.put(&OP_TAG_INGEST);
            w.put_batch(rows);
        }
        Op::Seal => w.put(&OP_TAG_SEAL),
    }
    w.into_bytes()
}

/// Frame a body for the file: `len | crc | body`.
pub fn frame_body(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_PREFIX_BYTES + body.len());
    out.extend_from_slice(
        &u32::try_from(body.len())
            .expect("record fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&Fnv1a::of(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

impl Record {
    /// Decode a record body previously produced by [`encode_body`].
    /// Every structural failure is a typed [`WalError::Corrupt`].
    pub fn decode_body(body: &[u8]) -> Result<Record, WalError> {
        let mut r = Reader::new(body);
        let lsn = r.get("record lsn").map_err(from_snap)?;
        let gen_after = r.get("record generation").map_err(from_snap)?;
        let op = match r.get::<u8>("op tag").map_err(from_snap)? {
            OP_TAG_REFRESH => {
                let edit = match r.get::<u8>("edit tag").map_err(from_snap)? {
                    EDIT_TAG_NONE => None,
                    EDIT_TAG_ADD => Some(SuiteEdit::Add(decode_spec(&mut r)?)),
                    EDIT_TAG_EDIT => Some(SuiteEdit::Edit(decode_spec(&mut r)?)),
                    EDIT_TAG_REMOVE => {
                        Some(SuiteEdit::Remove(r.get("LF name").map_err(from_snap)?))
                    }
                    other => return Err(corrupt(format!("unknown edit tag {other}"))),
                };
                Op::Refresh(edit)
            }
            OP_TAG_INGEST => Op::Ingest(r.batch("ingest row count").map_err(from_snap)?),
            OP_TAG_SEAL => Op::Seal,
            other => return Err(corrupt(format!("unknown op tag {other}"))),
        };
        r.end("record body").map_err(corrupt)?;
        Ok(Record { lsn, gen_after, op })
    }
}

fn decode_spec(r: &mut Reader<'_>) -> Result<LfSpec, WalError> {
    let canonical: String = r.get("LF spec").map_err(from_snap)?;
    LfSpec::parse(&canonical).map_err(|e| corrupt(format!("bad LF spec in record: {e}")))
}

/// Result of scanning a WAL byte image: the decoded records plus the
/// clean length a recovering process should truncate the file to.
#[derive(Debug)]
pub struct WalScan {
    /// LSN before the first record (from the header).
    pub base_lsn: u64,
    /// Every complete, checksum-valid record, in LSN order.
    pub records: Vec<Record>,
    /// Byte length of the clean prefix (header + complete records).
    pub clean_len: u64,
    /// Bytes of torn tail dropped past `clean_len` (0 on a clean file).
    pub dropped_bytes: u64,
}

/// Scan a WAL byte image. A torn final record is dropped (reported via
/// [`WalScan::dropped_bytes`]); everything else invalid is a typed
/// [`WalError`].
pub fn scan(bytes: &[u8]) -> Result<WalScan, WalError> {
    if bytes.len() < WAL_HEADER_BYTES {
        return Err(WalError::TruncatedHeader);
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version == 0 || version > WAL_VERSION {
        return Err(WalError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let base_lsn = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_BYTES;
    let mut expected_lsn = base_lsn;
    let mut last_gen: Option<u64> = None;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < RECORD_PREFIX_BYTES {
            break; // torn tail: prefix itself is incomplete
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return Err(corrupt(format!(
                "record length {len} at offset {pos} exceeds the {MAX_RECORD_BYTES}-byte cap"
            )));
        }
        let total = RECORD_PREFIX_BYTES + len as usize;
        if total > remaining {
            break; // torn tail: body extends past EOF
        }
        let crc = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let body = &bytes[pos + RECORD_PREFIX_BYTES..pos + total];
        if Fnv1a::of(body) != crc {
            return Err(WalError::ChecksumMismatch { offset: pos as u64 });
        }
        let rec = Record::decode_body(body)?;
        if rec.lsn != expected_lsn + 1 {
            return Err(corrupt(format!(
                "LSN gap: record at offset {pos} has lsn {}, expected {}",
                rec.lsn,
                expected_lsn + 1
            )));
        }
        if last_gen.is_some_and(|g| rec.gen_after < g) {
            return Err(corrupt(format!(
                "generation regression at lsn {}: {} after {}",
                rec.lsn,
                rec.gen_after,
                last_gen.unwrap_or(0)
            )));
        }
        expected_lsn = rec.lsn;
        last_gen = Some(rec.gen_after);
        records.push(rec);
        pos += total;
    }
    Ok(WalScan {
        base_lsn,
        records,
        clean_len: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
    })
}

/// An open WAL file positioned for appending.
///
/// Appends are `write_all` + `flush`; there is no per-record `fsync`
/// (the torn-tail recovery path makes a lost tail safe, and a follower
/// re-fetches anything past its durable prefix from the leader).
#[derive(Debug)]
pub struct WalFile {
    file: File,
    base_lsn: u64,
    next_lsn: u64,
}

impl WalFile {
    /// Open an existing WAL (recovering its clean prefix and truncating
    /// any torn tail in place) or create a fresh one with
    /// `base_if_new` as its base LSN.
    pub fn open_or_create(path: &Path, base_if_new: u64) -> Result<(WalFile, WalScan), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            header.extend_from_slice(&base_if_new.to_le_bytes());
            file.write_all(&header)?;
            file.flush()?;
            return Ok((
                WalFile {
                    file,
                    base_lsn: base_if_new,
                    next_lsn: base_if_new + 1,
                },
                WalScan {
                    base_lsn: base_if_new,
                    records: Vec::new(),
                    clean_len: WAL_HEADER_BYTES as u64,
                    dropped_bytes: 0,
                },
            ));
        }
        let scan = scan(&bytes)?;
        if scan.dropped_bytes > 0 {
            file.set_len(scan.clean_len)?;
        }
        file.seek(SeekFrom::Start(scan.clean_len))?;
        let next_lsn = scan.records.last().map_or(scan.base_lsn, |r| r.lsn) + 1;
        Ok((
            WalFile {
                file,
                base_lsn: scan.base_lsn,
                next_lsn,
            },
            scan,
        ))
    }

    /// Append an already-encoded record body. `lsn` must be exactly
    /// [`Self::next_lsn`] — the caller (who assigned it under the write
    /// lock) is re-checked here so a file can never hold a gap.
    pub fn append_body(&mut self, lsn: u64, body: &[u8]) -> Result<u64, WalError> {
        if lsn != self.next_lsn {
            return Err(corrupt(format!(
                "append out of order: lsn {lsn}, WAL expects {}",
                self.next_lsn
            )));
        }
        let framed = frame_body(body);
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.next_lsn = lsn + 1;
        Ok(framed.len() as u64)
    }

    /// Make everything appended so far durable (`fsync`).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// The LSN before the first record of this file.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// The LSN the next append must carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Refresh(None),
            Op::Refresh(Some(SuiteEdit::Add(
                LfSpec::parse("lf_causes KEYWORD 1 -1 causes,caused").unwrap(),
            ))),
            Op::Ingest(vec![
                ((0, 1), (2, 3), "magnesium causes weakness".into()),
                ((0, 2), (3, 4), "low iron level treats nothing".into()),
            ]),
            Op::Refresh(Some(SuiteEdit::Remove("lf_causes".into()))),
            Op::Seal,
        ]
    }

    fn build_log(base: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&base.to_le_bytes());
        for (i, op) in sample_ops().iter().enumerate() {
            let body = encode_body(base + 1 + i as u64, i as u64, op);
            bytes.extend_from_slice(&frame_body(&body));
        }
        bytes
    }

    #[test]
    fn bodies_round_trip() {
        for (i, op) in sample_ops().iter().enumerate() {
            let body = encode_body(7 + i as u64, 3, op);
            let rec = Record::decode_body(&body).unwrap();
            assert_eq!(rec.lsn, 7 + i as u64);
            assert_eq!(rec.gen_after, 3);
            assert_eq!(&rec.op, op);
        }
    }

    #[test]
    fn scan_round_trips() {
        let bytes = build_log(4);
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.base_lsn, 4);
        assert_eq!(scan.records.len(), sample_ops().len());
        assert_eq!(scan.dropped_bytes, 0);
        assert_eq!(scan.clean_len, bytes.len() as u64);
        assert_eq!(scan.records[2].lsn, 7);
    }

    #[test]
    fn torn_tail_is_dropped_not_an_error() {
        let bytes = build_log(0);
        let clean = scan(&bytes).unwrap();
        // The final (Seal) record occupies the last 29 bytes; every cut
        // strictly inside it leaves a torn tail that must be dropped.
        let seal_bytes = RECORD_PREFIX_BYTES + encode_body(5, 4, &Op::Seal).len();
        for cut in (bytes.len() - seal_bytes + 1)..bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            assert_eq!(s.records.len(), sample_ops().len() - 1, "cut at {cut}");
            assert!(s.dropped_bytes > 0);
            assert!(s.clean_len < clean.clean_len);
        }
    }

    #[test]
    fn checksum_flip_is_typed() {
        let mut bytes = build_log(0);
        // Flip one bit in the first record's body.
        let pos = WAL_HEADER_BYTES + RECORD_PREFIX_BYTES;
        bytes[pos] ^= 0x40;
        assert!(matches!(
            scan(&bytes),
            Err(WalError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn lsn_gap_is_typed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&frame_body(&encode_body(1, 0, &Op::Seal)));
        bytes.extend_from_slice(&frame_body(&encode_body(3, 0, &Op::Seal)));
        assert!(matches!(scan(&bytes), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn header_failures_are_typed() {
        assert!(matches!(scan(&[]), Err(WalError::TruncatedHeader)));
        assert!(matches!(
            scan(&[0u8; WAL_HEADER_BYTES]),
            Err(WalError::BadMagic)
        ));
        let mut bytes = build_log(0);
        bytes[8..12].copy_from_slice(&(WAL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            scan(&bytes),
            Err(WalError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn file_recovery_truncates_torn_tail_and_resumes() {
        let dir = std::env::temp_dir().join(format!("snorkel_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let mut bytes = build_log(0);
        bytes.truncate(bytes.len() - 3); // tear the Seal record
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, scan) = WalFile::open_or_create(&path, 0).unwrap();
        assert_eq!(scan.records.len(), sample_ops().len() - 1);
        assert!(scan.dropped_bytes > 0);
        assert_eq!(wal.next_lsn(), sample_ops().len() as u64);

        // Appending after recovery produces a clean, gap-free log.
        let lsn = wal.next_lsn();
        wal.append_body(lsn, &encode_body(lsn, 9, &Op::Seal))
            .unwrap();
        assert!(matches!(
            wal.append_body(lsn + 2, &encode_body(lsn + 2, 9, &Op::Seal)),
            Err(WalError::Corrupt { .. })
        ));
        drop(wal);
        let reread = std::fs::read(&path).unwrap();
        let s = scan_ok(&reread);
        assert_eq!(s.records.len(), sample_ops().len());
        assert_eq!(s.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn scan_ok(bytes: &[u8]) -> WalScan {
        scan(bytes).unwrap()
    }
}
