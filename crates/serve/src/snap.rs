//! The versioned, checksummed snapshot file format.
//!
//! A snapshot captures a frozen [`IncrementalSession`] plus the
//! [`TrainConfig`] that produced its model, so a restarted process
//! warm-starts in milliseconds instead of re-running LFs and re-fitting
//! from scratch. The format is hand-rolled (this workspace vendors
//! offline — no serde) and designed so that *any* single-bit corruption
//! or truncation is detected and reported as a typed [`SnapError`],
//! never a panic or a silent misread.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "SNKLSNAP"
//! 8       4     format version (u32 LE, [`FORMAT_VERSION`])
//! 12      4     section count (u32 LE)
//! 16      28×k  section table: tag (u32), offset (u64), len (u64),
//!               FNV-1a checksum of the section bytes (u64)
//! …       8     FNV-1a checksum of everything above (u64)
//! …       —     section payloads, contiguous, in table order
//! ```
//!
//! Sections are required to tile the rest of the file exactly (first
//! payload starts at the header's end, each next payload at the previous
//! one's end, the last ends at EOF), so every byte of the file is
//! covered by exactly one checksum — the header's or a section's.
//! Within a section, all integers are little-endian, floats are raw
//! IEEE-754 bits (bit-exact round trips), and sequences are
//! length-prefixed with the length validated against the bytes remaining
//! before anything is allocated.
//!
//! | tag    | contents                                         | presence |
//! |--------|--------------------------------------------------|----------|
//! | `SESS` | candidates, version counters, suite layout, last-refresh fingerprint layout and Λ's row count, strategy | always |
//! | `CACH` | the LF-result cache, LRU-first (thaw rebuilds Λ from the columns of the last refresh, then its pattern index from Λ) | always |
//! | `TCFG` | the [`TrainConfig`]                              | always   |
//! | `MODL` | the label model, backend-tagged — weights + structure for the generative/moment backends, shape only for majority vote | if trained |
//! | `DISC` | the distilled serving model: refresh/disc generation counters, featurizer + distill config, sparse per-class weights | if distilled |
//! | `STRM` | the streaming plane: drift config, frozen reference window, drift scores, lifetime ingest counters (the running moment totals are folded from the rebuilt index on thaw) | if streaming |
//! | `REPL` | the replication mark: the op-log LSN and server generation the snapshot was taken at, so a follower bootstrapped from it resumes tailing exactly where the image ends | if replicated |
//!
//! ## Versioning
//!
//! This build reads and writes exactly one format, [`FORMAT_VERSION`].
//! A file claiming any other version — older or newer — is refused
//! with [`SnapError::UnsupportedVersion`] before anything else is
//! decoded. A snapshot is only ever re-read by the build that wrote it
//! (restart, follower bootstrap), so a format change replaces this
//! format and bumps the number; it does not add a decode branch.
//!
//! `MODL` opens with a backend tag byte (1 = generative,
//! 2 = majority-vote, 3 = moment). Unknown tags are a typed
//! [`SnapError::UnknownBackend`]; structurally invalid model parameters
//! are a typed [`SnapError::Model`].
//!
//! The normative format specification — section payload layouts,
//! checksum rules, and the compatibility policy — is
//! `docs/SNAPSHOT_FORMAT.md`.
//!
//! [`IncrementalSession`]: snorkel_incr::IncrementalSession

use std::io::Write as _;
use std::path::Path;

use snorkel_core::model::{ParamsError, TrainConfig};
use snorkel_incr::FrozenSession;
use snorkel_matrix::Fnv1a;

use crate::repl::ReplMark;
use crate::wire::{Reader, Writer};

mod sections;

use sections::*;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"SNKLSNAP";

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 11;

const TAG_SESS: u32 = u32::from_le_bytes(*b"SESS");
const TAG_CACH: u32 = u32::from_le_bytes(*b"CACH");
const TAG_TCFG: u32 = u32::from_le_bytes(*b"TCFG");
const TAG_MODL: u32 = u32::from_le_bytes(*b"MODL");
const TAG_DISC: u32 = u32::from_le_bytes(*b"DISC");
const TAG_STRM: u32 = u32::from_le_bytes(*b"STRM");
const TAG_REPL: u32 = u32::from_le_bytes(*b"REPL");

fn tag_name(tag: u32) -> String {
    let b = tag.to_le_bytes();
    if b.iter().all(|c| c.is_ascii_uppercase()) {
        String::from_utf8_lossy(&b).into_owned()
    } else {
        format!("{tag:#010x}")
    }
}

/// Why a snapshot could not be written or read. Every decode failure is
/// typed; readers never panic on hostile bytes.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem error while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The version this build supports ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The model section names a label-model backend this build does
    /// not know.
    UnknownBackend {
        /// The unrecognized backend tag byte.
        tag: u8,
    },
    /// The model section decoded but its parameters violate a
    /// structural invariant.
    Model(ParamsError),
    /// The file ends before a field it promises.
    Truncated {
        /// The field being read when bytes ran out.
        context: &'static str,
    },
    /// A checksum did not match its bytes.
    ChecksumMismatch {
        /// Which checksum failed (`"header"` or a section tag).
        section: String,
    },
    /// Structurally invalid contents (bad lengths, out-of-range
    /// references, non-tiling sections, …).
    Corrupt {
        /// What was violated.
        context: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section's tag.
        section: String,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format v{found} (this build reads v{supported})"
                )
            }
            SnapError::UnknownBackend { tag } => {
                write!(f, "unknown label-model backend tag {tag}")
            }
            SnapError::Model(e) => write!(f, "invalid model section: {e}"),
            SnapError::Truncated { context } => write!(f, "truncated while reading {context}"),
            SnapError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section}")
            }
            SnapError::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
            SnapError::MissingSection { section } => {
                write!(f, "required section {section} is missing")
            }
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            SnapError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamsError> for SnapError {
    fn from(e: ParamsError) -> Self {
        SnapError::Model(e)
    }
}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e)
    }
}

impl SnapError {
    /// The message without the snapshot wording of [`SnapError::Corrupt`]
    /// — how the WAL and frame decoders, which share this error type
    /// through the wire codec, report a decode failure in their own
    /// terms.
    pub(crate) fn into_detail(self) -> String {
        match self {
            SnapError::Corrupt { context } => context,
            e => e.to_string(),
        }
    }
}

fn corrupt(context: impl Into<String>) -> SnapError {
    SnapError::Corrupt {
        context: context.into(),
    }
}

/// A durable image of a labeling session: the frozen session state plus
/// the training configuration its model was fitted with.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The frozen session (see [`FrozenSession`] for what thawing needs
    /// beyond this — the corpus and the LF code).
    pub session: FrozenSession,
    /// Training configuration, persisted so a restarted service refits
    /// with identical hyperparameters.
    pub train: TrainConfig,
    /// The replication mark: the op-log LSN and server generation this
    /// image was taken at. `None` on non-replicated servers.
    pub repl: Option<ReplMark>,
}

impl Snapshot {
    /// Serialize to the on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();
        sections.push((TAG_SESS, enc_session_meta(&self.session)));
        sections.push((TAG_CACH, enc_cache(&self.session.cache)));
        sections.push((TAG_TCFG, enc_train(&self.train)));
        if let Some(model) = &self.session.model {
            sections.push((TAG_MODL, enc_model(model)));
        }
        if let Some(disc) = &self.session.disc {
            sections.push((TAG_DISC, enc_disc(disc)));
        }
        if let Some(stream) = &self.session.stream {
            sections.push((TAG_STRM, enc_stream(stream)));
        }
        if let Some(repl) = &self.repl {
            sections.push((TAG_REPL, enc_repl(repl)));
        }

        let header_end = 16 + 28 * sections.len() + 8;
        let mut head = Writer::new();
        for b in MAGIC {
            head.put(&b);
        }
        head.put(&FORMAT_VERSION);
        head.put(&(sections.len() as u32));
        let mut offset = header_end as u64;
        for (tag, payload) in &sections {
            head.put(tag);
            head.put(&offset);
            head.put(&(payload.len() as u64));
            head.put(&Fnv1a::of(payload));
            offset += payload.len() as u64;
        }
        let mut out = head.into_bytes();
        let checksum = Fnv1a::of(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        debug_assert_eq!(out.len(), header_end);
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Deserialize from the on-disk byte format, verifying magic,
    /// version, both checksum layers, and every structural invariant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapError> {
        if bytes.len() < 16 {
            return Err(SnapError::Truncated { context: "header" });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let header_end = 16usize
            .checked_add(
                count
                    .checked_mul(28)
                    .ok_or_else(|| corrupt("section count"))?,
            )
            .and_then(|v| v.checked_add(8))
            .ok_or_else(|| corrupt("section count"))?;
        if bytes.len() < header_end {
            return Err(SnapError::Truncated {
                context: "section table",
            });
        }
        let stored = u64::from_le_bytes(
            bytes[header_end - 8..header_end]
                .try_into()
                .expect("8 bytes"),
        );
        if Fnv1a::of(&bytes[..header_end - 8]) != stored {
            return Err(SnapError::ChecksumMismatch {
                section: "header".into(),
            });
        }

        // Sections must tile the remainder of the file exactly.
        let mut next_offset = header_end as u64;
        let mut parsed: Vec<(u32, &[u8])> = Vec::with_capacity(count);
        for s in 0..count {
            let at = 16 + 28 * s;
            let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(bytes[at + 20..at + 28].try_into().expect("8 bytes"));
            if offset != next_offset {
                return Err(corrupt(format!(
                    "section {} does not start where the previous ended",
                    tag_name(tag)
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("section {} length overflows", tag_name(tag))))?;
            if end > bytes.len() as u64 {
                return Err(SnapError::Truncated {
                    context: "section payload",
                });
            }
            let payload = &bytes[offset as usize..end as usize];
            if Fnv1a::of(payload) != checksum {
                return Err(SnapError::ChecksumMismatch {
                    section: tag_name(tag),
                });
            }
            if parsed.iter().any(|(t, _)| *t == tag) {
                return Err(corrupt(format!("duplicate section {}", tag_name(tag))));
            }
            parsed.push((tag, payload));
            next_offset = end;
        }
        if next_offset != bytes.len() as u64 {
            return Err(corrupt("trailing bytes beyond the last section"));
        }

        for (tag, _) in &parsed {
            if ![
                TAG_SESS, TAG_CACH, TAG_TCFG, TAG_MODL, TAG_DISC, TAG_STRM, TAG_REPL,
            ]
            .contains(tag)
            {
                return Err(corrupt(format!("unknown section {}", tag_name(*tag))));
            }
        }

        let mut session = require(&parsed, TAG_SESS, dec_session_meta)?;
        session.cache = require(&parsed, TAG_CACH, dec_cache)?;
        let train = require(&parsed, TAG_TCFG, dec_train)?;
        session.model = decode(&parsed, TAG_MODL, dec_model)?;
        session.disc = decode(&parsed, TAG_DISC, dec_disc)?;
        if let Some(disc) = &session.disc {
            if disc.generation > session.refresh_generation {
                return Err(corrupt(format!(
                    "disc generation {} ahead of refresh generation {}",
                    disc.generation, session.refresh_generation
                )));
            }
        }
        session.stream = decode(&parsed, TAG_STRM, dec_stream)?;
        let repl = decode(&parsed, TAG_REPL, dec_repl)?;
        Ok(Snapshot {
            session,
            train,
            repl,
        })
    }

    /// Write atomically to `path`: serialize, write to a sibling
    /// temporary file, fsync, and rename into place — a crash mid-write
    /// leaves the previous snapshot intact. The temporary name is unique
    /// per process *and* per call, so concurrent writers (the periodic
    /// auto-snapshotter racing a `SNAPSHOT` request) each rename a
    /// complete file instead of interleaving writes into a shared temp.
    /// Returns the byte count.
    pub fn write_file(&self, path: &Path) -> Result<u64, SnapError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let bytes = self.to_bytes();
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("snap-tmp-{}-{seq}", std::process::id()));
        let write = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if write.is_err() {
            // Best-effort cleanup; the error is what matters.
            let _ = std::fs::remove_file(&tmp);
        }
        write?;
        Ok(bytes.len() as u64)
    }

    /// Read and fully validate a snapshot file.
    pub fn read_file(path: &Path) -> Result<Snapshot, SnapError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }
}

/// Decode the section tagged `tag`, if the file has one, and reject any
/// bytes its decoder left unread.
fn decode<T>(
    parsed: &[(u32, &[u8])],
    tag: u32,
    dec: fn(&mut Reader<'_>) -> Result<T, SnapError>,
) -> Result<Option<T>, SnapError> {
    let Some(&(_, payload)) = parsed.iter().find(|(t, _)| *t == tag) else {
        return Ok(None);
    };
    let mut r = Reader::new(payload);
    let value = dec(&mut r)?;
    r.end(&tag_name(tag)).map_err(corrupt)?;
    Ok(Some(value))
}

/// [`decode`] for a section every snapshot carries.
fn require<T>(
    parsed: &[(u32, &[u8])],
    tag: u32,
    dec: fn(&mut Reader<'_>) -> Result<T, SnapError>,
) -> Result<T, SnapError> {
    decode(parsed, tag, dec)?.ok_or_else(|| SnapError::MissingSection {
        section: tag_name(tag),
    })
}
