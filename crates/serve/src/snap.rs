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
//! 8       4     format version (u32 LE, currently 6)
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
//! | `SESS` | candidates, version counters, suite layout, last-refresh bookkeeping, strategy | always |
//! | `CACH` | the LF-result cache, LRU-first                   | always   |
//! | `TCFG` | the [`TrainConfig`]                              | always   |
//! | `LMTX` | the label matrix (raw CSR)                       | if built |
//! | `PLAN` | the sharded pattern index                        | with `LMTX` |
//! | `MODL` | the label model, backend-tagged — weights + structure for the generative/moment backends, shape only for majority vote | if trained |
//! | `DISC` | the distilled serving model: refresh/disc generation counters, featurizer + distill config, sparse per-class weights | if distilled |
//! | `STRM` | the streaming plane: running moment sufficient statistics, drift config, frozen reference window, drift scores, lifetime ingest counters | if streaming |
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

use snorkel_core::label_model::{LabelModel, MajorityVoteModel, MomentModel, MomentStatsParts};
use snorkel_core::model::{
    ClassBalance, GenerativeModel, LabelScheme, ModelParams, ParamsError, TrainConfig,
};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_disc::{DiscModelParts, DistillConfig, TextFeaturizer};
use snorkel_incr::{Fingerprint, FrozenCache, FrozenColumn, FrozenDisc, FrozenSession};
use snorkel_matrix::{LabelMatrix, PatternIndexParts, ShardedMatrixParts};
use snorkel_stream::{DriftConfig, FrozenStream, StreamState, WindowStats};

use snorkel_context::CandidateId;

use crate::repl::ReplMark;
use crate::wire::{fnv1a, Reader, Writer};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"SNKLSNAP";

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 6;

/// Backend tag bytes of the `MODL` section.
const MODEL_TAG_GENERATIVE: u8 = 1;
const MODEL_TAG_MAJORITY_VOTE: u8 = 2;
const MODEL_TAG_MOMENT: u8 = 3;

const TAG_SESS: u32 = u32::from_le_bytes(*b"SESS");
const TAG_CACH: u32 = u32::from_le_bytes(*b"CACH");
const TAG_TCFG: u32 = u32::from_le_bytes(*b"TCFG");
const TAG_LMTX: u32 = u32::from_le_bytes(*b"LMTX");
const TAG_PLAN: u32 = u32::from_le_bytes(*b"PLAN");
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
        if let Some(lambda) = &self.session.lambda {
            sections.push((TAG_LMTX, enc_matrix(lambda)));
        }
        if let Some(plan) = &self.session.plan {
            sections.push((TAG_PLAN, enc_plan(plan)));
        }
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
            head.put_u8(b);
        }
        head.put_u32(FORMAT_VERSION);
        head.put_u32(sections.len() as u32);
        let mut offset = header_end as u64;
        for (tag, payload) in &sections {
            head.put_u32(*tag);
            head.put_u64(offset);
            head.put_u64(payload.len() as u64);
            head.put_u64(fnv1a(payload));
            offset += payload.len() as u64;
        }
        let mut out = head.into_bytes();
        let checksum = fnv1a(&out);
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
        if fnv1a(&bytes[..header_end - 8]) != stored {
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
            if fnv1a(payload) != checksum {
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

        let find = |tag: u32| parsed.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p);
        let require = |tag: u32| {
            find(tag).ok_or_else(|| SnapError::MissingSection {
                section: tag_name(tag),
            })
        };
        for (tag, _) in &parsed {
            if ![
                TAG_SESS, TAG_CACH, TAG_TCFG, TAG_LMTX, TAG_PLAN, TAG_MODL, TAG_DISC, TAG_STRM,
                TAG_REPL,
            ]
            .contains(tag)
            {
                return Err(corrupt(format!("unknown section {}", tag_name(*tag))));
            }
        }

        let mut session = dec_session_meta(&mut Reader::new(require(TAG_SESS)?))?;
        session.cache = dec_cache(&mut Reader::new(require(TAG_CACH)?))?;
        let train = dec_train(&mut Reader::new(require(TAG_TCFG)?))?;
        session.lambda = match find(TAG_LMTX) {
            Some(p) => Some(dec_matrix(&mut Reader::new(p))?),
            None => None,
        };
        session.plan = match find(TAG_PLAN) {
            Some(p) => Some(dec_plan(&mut Reader::new(p))?),
            None => None,
        };
        session.model = match find(TAG_MODL) {
            Some(p) => Some(dec_model(&mut Reader::new(p))?),
            None => None,
        };
        if let Some(p) = find(TAG_DISC) {
            let disc = dec_disc(&mut Reader::new(p))?;
            if disc.generation > session.refresh_generation {
                return Err(corrupt(format!(
                    "disc generation {} ahead of refresh generation {}",
                    disc.generation, session.refresh_generation
                )));
            }
            session.disc = Some(disc);
        }
        if let Some(p) = find(TAG_STRM) {
            session.stream = Some(dec_stream(&mut Reader::new(p))?);
        }
        let repl = match find(TAG_REPL) {
            Some(p) => Some(dec_repl(&mut Reader::new(p))?),
            None => None,
        };
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

// ----------------------------------------------------------------------
// Section encoders/decoders
// ----------------------------------------------------------------------

fn enc_session_meta(s: &FrozenSession) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(s.candidates.len());
    for id in &s.candidates {
        w.put_u32(id.index() as u32);
    }
    w.put_usize(s.versions.len());
    for (name, v) in &s.versions {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_usize(s.suite.len());
    for (name, fp) in &s.suite {
        w.put_str(name);
        w.put_u64(fp.0);
    }
    w.put_usize(s.last_fingerprints.len());
    for fp in &s.last_fingerprints {
        w.put_u64(fp.0);
    }
    w.put_usize(s.last_rows);
    match &s.last_gm_strategy {
        None => w.put_u8(0),
        Some((strategy, layout)) => {
            match strategy {
                ModelingStrategy::MajorityVote => w.put_u8(1),
                ModelingStrategy::MomentMatching => w.put_u8(3),
                ModelingStrategy::GenerativeModel {
                    epsilon,
                    correlations,
                    strengths,
                } => {
                    w.put_u8(2);
                    w.put_f64(*epsilon);
                    w.put_usize(correlations.len());
                    for &(a, b) in correlations {
                        w.put_usize(a);
                        w.put_usize(b);
                    }
                    w.put_usize(strengths.len());
                    for &v in strengths {
                        w.put_f64(v);
                    }
                }
            }
            w.put_usize(layout.len());
            for name in layout {
                w.put_str(name);
            }
        }
    }
    // The refresh-generation counter (disc staleness anchor).
    w.put_u64(s.refresh_generation);
    w.into_bytes()
}

fn dec_session_meta(r: &mut Reader<'_>) -> Result<FrozenSession, SnapError> {
    let n = r.len(4, "candidate count")?;
    let mut candidates = Vec::with_capacity(n);
    for _ in 0..n {
        candidates.push(CandidateId::from_index(r.u32("candidate id")? as usize));
    }
    let n = r.len(9, "version count")?;
    let mut versions = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("version name")?;
        versions.push((name, r.u64("version counter")?));
    }
    let n = r.len(9, "suite size")?;
    let mut suite = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("LF name")?;
        suite.push((name, Fingerprint(r.u64("LF fingerprint")?)));
    }
    let n = r.len(8, "fingerprint layout")?;
    let mut last_fingerprints = Vec::with_capacity(n);
    for _ in 0..n {
        last_fingerprints.push(Fingerprint(r.u64("layout fingerprint")?));
    }
    let last_rows = r.usize("last row count")?;
    let last_gm_strategy = match r.u8("strategy tag")? {
        0 => None,
        tag @ 1..=3 => {
            let strategy = if tag == 1 {
                ModelingStrategy::MajorityVote
            } else if tag == 3 {
                ModelingStrategy::MomentMatching
            } else {
                let epsilon = r.f64("strategy epsilon")?;
                let n = r.len(16, "correlation count")?;
                let mut correlations = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = r.usize("correlation a")?;
                    correlations.push((a, r.usize("correlation b")?));
                }
                let n = r.len(8, "strength count")?;
                let mut strengths = Vec::with_capacity(n);
                for _ in 0..n {
                    strengths.push(r.f64("correlation strength")?);
                }
                ModelingStrategy::GenerativeModel {
                    epsilon,
                    correlations,
                    strengths,
                }
            };
            let n = r.len(8, "layout size")?;
            let mut layout = Vec::with_capacity(n);
            for _ in 0..n {
                layout.push(r.str("layout name")?);
            }
            Some((strategy, layout))
        }
        tag => return Err(corrupt(format!("unknown strategy tag {tag}"))),
    };
    let refresh_generation = r.u64("refresh generation")?;
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in SESS"));
    }
    Ok(FrozenSession {
        candidates,
        versions,
        suite,
        cache: FrozenCache {
            capacity: 1,
            stats: Default::default(),
            columns: Vec::new(),
        },
        lambda: None,
        plan: None,
        model: None,
        last_fingerprints,
        last_rows,
        last_gm_strategy,
        refresh_generation,
        disc: None,
        stream: None,
    })
}

fn enc_cache(c: &FrozenCache) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(c.capacity);
    w.put_u64(c.stats.hits);
    w.put_u64(c.stats.misses);
    w.put_u64(c.stats.extensions);
    w.put_u64(c.stats.evictions);
    w.put_usize(c.columns.len());
    for col in &c.columns {
        w.put_u64(col.fingerprint.0);
        w.put_usize(col.rows);
        w.put_usize(col.entries.len());
        for &(row, vote) in &col.entries {
            w.put_u32(row);
            w.put_i8(vote);
        }
    }
    w.into_bytes()
}

fn dec_cache(r: &mut Reader<'_>) -> Result<FrozenCache, SnapError> {
    let capacity = r.usize("cache capacity")?;
    let stats = snorkel_incr::CacheStats {
        hits: r.u64("cache hits")?,
        misses: r.u64("cache misses")?,
        extensions: r.u64("cache extensions")?,
        evictions: r.u64("cache evictions")?,
    };
    let n = r.len(24, "cache column count")?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let fingerprint = Fingerprint(r.u64("column fingerprint")?);
        let rows = r.usize("column rows")?;
        let k = r.len(5, "column entry count")?;
        let mut entries = Vec::with_capacity(k);
        for _ in 0..k {
            let row = r.u32("entry row")?;
            entries.push((row, r.i8("entry vote")?));
        }
        columns.push(FrozenColumn {
            fingerprint,
            rows,
            entries,
        });
    }
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in CACH"));
    }
    Ok(FrozenCache {
        capacity,
        stats,
        columns,
    })
}

fn enc_matrix(m: &LabelMatrix) -> Vec<u8> {
    let p = m.csr_parts();
    let mut w = Writer::new();
    w.put_usize(p.num_points);
    w.put_usize(p.num_lfs);
    w.put_u8(p.cardinality);
    w.put_usize(p.row_ptr.len());
    for &v in p.row_ptr {
        w.put_usize(v);
    }
    w.put_usize(p.col_idx.len());
    for &c in p.col_idx {
        w.put_u32(c);
    }
    w.put_usize(p.votes.len());
    for &v in p.votes {
        w.put_i8(v);
    }
    w.into_bytes()
}

fn dec_matrix(r: &mut Reader<'_>) -> Result<LabelMatrix, SnapError> {
    let num_points = r.usize("matrix rows")?;
    let num_lfs = r.usize("matrix cols")?;
    let cardinality = r.u8("matrix cardinality")?;
    let n = r.len(8, "row_ptr length")?;
    let mut row_ptr = Vec::with_capacity(n);
    for _ in 0..n {
        row_ptr.push(r.usize("row_ptr entry")?);
    }
    let n = r.len(4, "col_idx length")?;
    let mut col_idx = Vec::with_capacity(n);
    for _ in 0..n {
        col_idx.push(r.u32("col_idx entry")?);
    }
    let n = r.len(1, "votes length")?;
    let mut votes = Vec::with_capacity(n);
    for _ in 0..n {
        votes.push(r.i8("vote entry")?);
    }
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in LMTX"));
    }
    LabelMatrix::from_csr_parts(num_points, num_lfs, cardinality, row_ptr, col_idx, votes)
        .map_err(corrupt)
}

fn enc_plan(p: &ShardedMatrixParts) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(p.num_lfs);
    w.put_usize(p.shards.len());
    for shard in &p.shards {
        w.put_usize(shard.start);
        w.put_usize(shard.sig_cols.len());
        for &c in &shard.sig_cols {
            w.put_u32(c);
        }
        w.put_usize(shard.sig_votes.len());
        for &v in &shard.sig_votes {
            w.put_i8(v);
        }
        w.put_usize(shard.pat_bounds.len());
        for &(off, len) in &shard.pat_bounds {
            w.put_usize(off);
            w.put_usize(len);
        }
        w.put_usize(shard.counts.len());
        for &c in &shard.counts {
            w.put_usize(c);
        }
        w.put_usize(shard.row_pattern.len());
        for &p in &shard.row_pattern {
            w.put_u32(p);
        }
    }
    w.into_bytes()
}

fn dec_plan(r: &mut Reader<'_>) -> Result<ShardedMatrixParts, SnapError> {
    let num_lfs = r.usize("plan LF count")?;
    let n = r.len(48, "shard count")?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.usize("shard start")?;
        let k = r.len(4, "sig_cols length")?;
        let mut sig_cols = Vec::with_capacity(k);
        for _ in 0..k {
            sig_cols.push(r.u32("sig col")?);
        }
        let k = r.len(1, "sig_votes length")?;
        let mut sig_votes = Vec::with_capacity(k);
        for _ in 0..k {
            sig_votes.push(r.i8("sig vote")?);
        }
        let k = r.len(16, "pat_bounds length")?;
        let mut pat_bounds = Vec::with_capacity(k);
        for _ in 0..k {
            let off = r.usize("pattern offset")?;
            pat_bounds.push((off, r.usize("pattern length")?));
        }
        let k = r.len(8, "counts length")?;
        let mut counts = Vec::with_capacity(k);
        for _ in 0..k {
            counts.push(r.usize("pattern count")?);
        }
        let k = r.len(4, "row_pattern length")?;
        let mut row_pattern = Vec::with_capacity(k);
        for _ in 0..k {
            row_pattern.push(r.u32("row pattern")?);
        }
        shards.push(PatternIndexParts {
            start,
            sig_cols,
            sig_votes,
            pat_bounds,
            counts,
            row_pattern,
        });
    }
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in PLAN"));
    }
    Ok(ShardedMatrixParts { num_lfs, shards })
}

/// The model payload: backend tag byte, then the backend's state.
fn enc_model(m: &LabelModel) -> Vec<u8> {
    let mut w = Writer::new();
    match m {
        LabelModel::Generative(gm) => {
            w.put_u8(MODEL_TAG_GENERATIVE);
            enc_model_params(&mut w, &gm.to_params());
        }
        LabelModel::MajorityVote(_) => {
            w.put_u8(MODEL_TAG_MAJORITY_VOTE);
            w.put_u8(m.scheme().cardinality());
            w.put_usize(m.num_lfs());
        }
        LabelModel::Moment(mm) => {
            w.put_u8(MODEL_TAG_MOMENT);
            enc_model_params(&mut w, &mm.to_params());
        }
    }
    w.into_bytes()
}

fn enc_model_params(w: &mut Writer, m: &ModelParams) {
    w.put_u8(m.cardinality);
    w.put_usize(m.num_lfs);
    let put_f64s = |w: &mut Writer, xs: &[f64]| {
        w.put_usize(xs.len());
        for &x in xs {
            w.put_f64(x);
        }
    };
    put_f64s(w, &m.w_lab);
    put_f64s(w, &m.w_acc);
    w.put_usize(m.corr_pairs.len());
    for &(a, b) in &m.corr_pairs {
        w.put_usize(a);
        w.put_usize(b);
    }
    put_f64s(w, &m.w_corr);
    put_f64s(w, &m.corr_strength);
    put_f64s(w, &m.b_class);
}

/// Decode the (tagged) model section into the model it encodes,
/// validating it on the way. Unknown backend tags and invalid
/// parameters are typed errors.
fn dec_model(r: &mut Reader<'_>) -> Result<LabelModel, SnapError> {
    Ok(match r.u8("model backend tag")? {
        MODEL_TAG_GENERATIVE => {
            LabelModel::Generative(GenerativeModel::from_params(dec_model_params(r)?)?)
        }
        MODEL_TAG_MAJORITY_VOTE => {
            let cardinality = r.u8("model cardinality")?;
            let num_lfs = r.usize("model LF count")?;
            if !r.is_exhausted() {
                return Err(corrupt("trailing bytes in MODL"));
            }
            if cardinality < 2 {
                return Err(ParamsError::BadCardinality { found: cardinality }.into());
            }
            LabelModel::MajorityVote(MajorityVoteModel::new(
                num_lfs,
                LabelScheme::from_cardinality(cardinality),
            ))
        }
        MODEL_TAG_MOMENT => LabelModel::Moment(MomentModel::from_params(dec_model_params(r)?)?),
        tag => return Err(SnapError::UnknownBackend { tag }),
    })
}

fn dec_model_params(r: &mut Reader<'_>) -> Result<ModelParams, SnapError> {
    let cardinality = r.u8("model cardinality")?;
    let num_lfs = r.usize("model LF count")?;
    let f64s = |r: &mut Reader<'_>, context| -> Result<Vec<f64>, SnapError> {
        let n = r.len(8, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.f64(context)?);
        }
        Ok(out)
    };
    let w_lab = f64s(r, "w_lab")?;
    let w_acc = f64s(r, "w_acc")?;
    let n = r.len(16, "corr pair count")?;
    let mut corr_pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let a = r.usize("corr pair a")?;
        corr_pairs.push((a, r.usize("corr pair b")?));
    }
    let w_corr = f64s(r, "w_corr")?;
    let corr_strength = f64s(r, "corr_strength")?;
    let b_class = f64s(r, "b_class")?;
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in MODL"));
    }
    Ok(ModelParams {
        cardinality,
        num_lfs,
        w_lab,
        w_acc,
        corr_pairs,
        w_corr,
        corr_strength,
        b_class,
    })
}

fn enc_train(t: &TrainConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(t.epochs);
    w.put_f64(t.lr_decay);
    w.put_usize(t.cd_epochs);
    w.put_f64(t.cd_learning_rate);
    w.put_f64(t.l2);
    w.put_u64(t.seed);
    w.put_usize(t.gibbs_steps);
    w.put_usize(t.batch_size);
    w.put_f64(t.tol);
    w.put_f64(t.init_acc_weight);
    w.put_u8(t.init_from_majority_vote as u8);
    match &t.class_balance {
        ClassBalance::Uniform => w.put_u8(0),
        ClassBalance::FromMajorityVote => w.put_u8(1),
        ClassBalance::Fixed(p) => {
            w.put_u8(2);
            w.put_usize(p.len());
            for &x in p {
                w.put_f64(x);
            }
        }
    }
    w.put_u8(t.clamp_nonadversarial as u8);
    w.into_bytes()
}

fn dec_train(r: &mut Reader<'_>) -> Result<TrainConfig, SnapError> {
    let epochs = r.usize("epochs")?;
    let lr_decay = r.f64("lr_decay")?;
    let cd_epochs = r.usize("cd_epochs")?;
    let cd_learning_rate = r.f64("cd_learning_rate")?;
    let l2 = r.f64("l2")?;
    let seed = r.u64("seed")?;
    let gibbs_steps = r.usize("gibbs_steps")?;
    let batch_size = r.usize("batch_size")?;
    let tol = r.f64("tol")?;
    let init_acc_weight = r.f64("init_acc_weight")?;
    let init_from_majority_vote = match r.u8("init_from_majority_vote")? {
        0 => false,
        1 => true,
        v => return Err(corrupt(format!("bad bool {v}"))),
    };
    let class_balance = match r.u8("class_balance tag")? {
        0 => ClassBalance::Uniform,
        1 => ClassBalance::FromMajorityVote,
        2 => {
            let n = r.len(8, "class balance length")?;
            let mut p = Vec::with_capacity(n);
            for _ in 0..n {
                p.push(r.f64("class balance entry")?);
            }
            ClassBalance::Fixed(p)
        }
        v => return Err(corrupt(format!("unknown class-balance tag {v}"))),
    };
    let clamp_nonadversarial = match r.u8("clamp_nonadversarial")? {
        0 => false,
        1 => true,
        v => return Err(corrupt(format!("bad bool {v}"))),
    };
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in TCFG"));
    }
    Ok(TrainConfig {
        epochs,
        lr_decay,
        cd_epochs,
        cd_learning_rate,
        l2,
        seed,
        gibbs_steps,
        batch_size,
        tol,
        init_acc_weight,
        init_from_majority_vote,
        class_balance,
        clamp_nonadversarial,
    })
}

/// The `DISC` section: the disc model's trained-at generation
/// (staleness survives restarts — `SESS` carries the live counter), the
/// self-contained distillation configuration, and the sparse per-class
/// weights.
fn enc_disc(disc: &FrozenDisc) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(disc.generation);
    w.put_u32(disc.config.featurizer.buckets);
    w.put_usize(disc.config.featurizer.window);
    w.put_u8(disc.config.featurizer.bigrams as u8);
    w.put_u32(disc.config.train.dim);
    w.put_usize(disc.config.train.epochs);
    w.put_f64(disc.config.train.learning_rate);
    w.put_f64(disc.config.train.l2);
    w.put_usize(disc.config.train.batch_size);
    w.put_u64(disc.config.train.seed);
    w.put_f64(disc.config.train.min_confidence);
    w.put_u32(disc.model.dim);
    w.put_usize(disc.model.class_weights.len());
    for class in &disc.model.class_weights {
        w.put_usize(class.len());
        for &(idx, val) in class {
            w.put_u32(idx);
            w.put_f64(val);
        }
    }
    w.put_usize(disc.model.bias.len());
    for &b in &disc.model.bias {
        w.put_f64(b);
    }
    w.into_bytes()
}

/// The `STRM` section: the streaming plane's persistent state. The
/// running moment totals travel as raw f64 bits (they are exact sums
/// of integer counts, so bit-exactness preserves the online-equals-
/// batch invariant across a restart); the diagnostic window ring is
/// deliberately not persisted.
fn enc_stream(s: &FrozenStream) -> Vec<u8> {
    let mut w = Writer::new();
    let put_f64s = |w: &mut Writer, xs: &[f64]| {
        w.put_usize(xs.len());
        for &x in xs {
            w.put_f64(x);
        }
    };
    let put_u64s = |w: &mut Writer, xs: &[u64]| {
        w.put_usize(xs.len());
        for &x in xs {
            w.put_u64(x);
        }
    };
    w.put_usize(s.stats.num_lfs);
    w.put_u8(s.stats.cardinality);
    w.put_f64(s.stats.rows);
    put_f64s(&mut w, &s.stats.votes);
    put_f64s(&mut w, &s.stats.mv_class);
    put_f64s(&mut w, &s.stats.agree_mv);
    put_f64s(&mut w, &s.stats.total_mv);
    put_f64s(&mut w, &s.stats.both);
    put_f64s(&mut w, &s.stats.agree);
    w.put_usize(s.config.window_rows);
    w.put_usize(s.config.ring_windows);
    w.put_f64(s.config.threshold);
    match &s.reference {
        None => w.put_u8(0),
        Some(win) => {
            w.put_u8(1);
            w.put_u64(win.rows);
            put_u64s(&mut w, &win.votes);
            put_u64s(&mut w, &win.agree_mv);
            put_u64s(&mut w, &win.total_mv);
        }
    }
    w.put_u64(s.batches);
    w.put_u64(s.rows);
    w.put_u64(s.auto_refits);
    w.put_f64(s.drift_score);
    put_f64s(&mut w, &s.per_lf_scores);
    w.into_bytes()
}

fn dec_stream(r: &mut Reader<'_>) -> Result<FrozenStream, SnapError> {
    let f64s = |r: &mut Reader<'_>, context| -> Result<Vec<f64>, SnapError> {
        let n = r.len(8, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.f64(context)?);
        }
        Ok(out)
    };
    let u64s = |r: &mut Reader<'_>, context| -> Result<Vec<u64>, SnapError> {
        let n = r.len(8, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.u64(context)?);
        }
        Ok(out)
    };
    let num_lfs = r.usize("stream LF count")?;
    let cardinality = r.u8("stream cardinality")?;
    let rows = r.f64("stream weighted rows")?;
    let stats = MomentStatsParts {
        num_lfs,
        cardinality,
        rows,
        votes: f64s(r, "stream votes")?,
        mv_class: f64s(r, "stream mv_class")?,
        agree_mv: f64s(r, "stream agree_mv")?,
        total_mv: f64s(r, "stream total_mv")?,
        both: f64s(r, "stream both")?,
        agree: f64s(r, "stream agree")?,
    };
    let config = DriftConfig {
        window_rows: r.usize("drift window_rows")?,
        ring_windows: r.usize("drift ring_windows")?,
        threshold: r.f64("drift threshold")?,
    };
    let reference = match r.u8("reference window tag")? {
        0 => None,
        1 => Some(WindowStats {
            rows: r.u64("window rows")?,
            votes: u64s(r, "window votes")?,
            agree_mv: u64s(r, "window agree_mv")?,
            total_mv: u64s(r, "window total_mv")?,
        }),
        v => return Err(corrupt(format!("bad reference window tag {v}"))),
    };
    let frozen = FrozenStream {
        stats,
        config,
        reference,
        batches: r.u64("ingested batches")?,
        rows: r.u64("ingested rows")?,
        auto_refits: r.u64("auto refits")?,
        drift_score: r.f64("drift score")?,
        per_lf_scores: f64s(r, "per-LF drift scores")?,
    };
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in STRM"));
    }
    // Every structural invariant (count consistency, score ranges,
    // window sanity) is enforced by the stream crate's own thaw path —
    // run it here so a corrupt STRM is a typed snapshot error, not a
    // later session-thaw surprise.
    StreamState::thaw(frozen.clone()).map_err(|e| corrupt(format!("STRM: {e}")))?;
    Ok(frozen)
}

fn dec_disc(r: &mut Reader<'_>) -> Result<FrozenDisc, SnapError> {
    let generation = r.u64("disc generation")?;
    let buckets = r.u32("featurizer buckets")?;
    let window = r.usize("featurizer window")?;
    let bigrams = match r.u8("featurizer bigrams")? {
        0 => false,
        1 => true,
        v => return Err(corrupt(format!("bad bool {v}"))),
    };
    let dim = r.u32("distill dim")?;
    let epochs = r.usize("distill epochs")?;
    let learning_rate = r.f64("distill learning_rate")?;
    let l2 = r.f64("distill l2")?;
    let batch_size = r.usize("distill batch_size")?;
    let seed = r.u64("distill seed")?;
    let min_confidence = r.f64("distill min_confidence")?;
    let model_dim = r.u32("disc model dim")?;
    let k = r.len(8, "disc class count")?;
    let mut class_weights = Vec::with_capacity(k);
    for _ in 0..k {
        let n = r.len(12, "disc weight count")?;
        let mut class = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u32("disc weight bucket")?;
            class.push((idx, r.f64("disc weight value")?));
        }
        class_weights.push(class);
    }
    let n = r.len(8, "disc bias count")?;
    let mut bias = Vec::with_capacity(n);
    for _ in 0..n {
        bias.push(r.f64("disc bias")?);
    }
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in DISC"));
    }
    // The hyperparameters retrain the model after thaw — a NaN learning
    // rate or an out-of-range confidence floor would poison the first
    // warm refit silently; refuse it here, typed, like every other
    // structurally invalid snapshot field.
    if buckets == 0 || dim == 0 {
        return Err(corrupt("disc config: zero hash buckets"));
    }
    if !(learning_rate.is_finite() && learning_rate > 0.0) {
        return Err(corrupt(format!(
            "disc config: bad learning rate {learning_rate}"
        )));
    }
    if !(l2.is_finite() && l2 >= 0.0) {
        return Err(corrupt(format!("disc config: bad l2 {l2}")));
    }
    if !(min_confidence.is_finite() && (0.0..1.0).contains(&min_confidence)) {
        return Err(corrupt(format!(
            "disc config: bad confidence floor {min_confidence}"
        )));
    }
    let model = DiscModelParts {
        dim: model_dim,
        class_weights,
        bias,
    };
    model
        .validate()
        .map_err(|e| corrupt(format!("disc model: {e}")))?;
    let disc = FrozenDisc {
        config: DiscTrainerConfig {
            featurizer: TextFeaturizer {
                buckets,
                window,
                bigrams,
            },
            train: DistillConfig {
                dim,
                epochs,
                learning_rate,
                l2,
                batch_size,
                seed,
                min_confidence,
            },
        },
        model,
        generation,
    };
    Ok(disc)
}

/// The `REPL` section: a fixed 16-byte replication mark — the op-log
/// LSN this image reflects and the server generation at that LSN. A
/// replica restarting from the snapshot resumes its WAL (or its leader
/// subscription) at `applied_lsn + 1` instead of replaying history.
fn enc_repl(mark: &ReplMark) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(mark.applied_lsn);
    w.put_u64(mark.generation);
    w.into_bytes()
}

fn dec_repl(r: &mut Reader<'_>) -> Result<ReplMark, SnapError> {
    let applied_lsn = r.u64("repl applied lsn")?;
    let generation = r.u64("repl generation")?;
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes in REPL"));
    }
    Ok(ReplMark {
        applied_lsn,
        generation,
    })
}
