//! The leader's in-memory op log — the buffer `OP_LOG_SUBSCRIBE`
//! streams tail from.
//!
//! Bodies are appended in LSN order, each once the WAL sync that covers
//! it has returned (appends are serialized by the node's journal lock);
//! readers only need the log's own lock held long enough to clone one
//! `Arc`, so tail pumping never contends with request handling for more
//! than an index lookup.

use std::sync::{Arc, Mutex};

use super::ReplMark;

/// An append-only, in-memory sequence of encoded record bodies,
/// addressed by LSN.
///
/// The log holds every record since `base_lsn` (the position of the
/// snapshot the process booted from). Followers whose resume point
/// predates `base_lsn` are refused and must bootstrap from a newer
/// snapshot — the refusal is typed, never a silent partial replay.
#[derive(Debug)]
pub struct OpLog {
    base_lsn: u64,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    records: Vec<Arc<[u8]>>,
    /// The server generation after the newest record (the base
    /// mark's generation while empty).
    tip_generation: u64,
}

impl OpLog {
    /// An empty log at `base`: its first record will carry
    /// `base.applied_lsn + 1`.
    pub fn new(base: ReplMark) -> OpLog {
        OpLog {
            base_lsn: base.applied_lsn,
            inner: Mutex::new(Inner {
                records: Vec::new(),
                tip_generation: base.generation,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The LSN before the first record this log can serve.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// The oldest LSN this log can serve (`base_lsn + 1`).
    pub fn first_lsn(&self) -> u64 {
        self.base_lsn + 1
    }

    /// The newest LSN in the log and the server generation after it —
    /// one consistent pair (the base mark while empty). This is what
    /// the node can serve, so it is what a subscription ack or a
    /// heartbeat advertises.
    pub fn tip(&self) -> ReplMark {
        let inner = self.lock();
        ReplMark {
            applied_lsn: self.base_lsn + inner.records.len() as u64,
            generation: inner.tip_generation,
        }
    }

    /// Append one encoded body whose record left the server at
    /// `gen_after`, returning the LSN it was assigned. Callers
    /// serialize appends; the log itself only guarantees readers see a
    /// consistent tip.
    pub fn append(&self, body: Arc<[u8]>, gen_after: u64) -> u64 {
        let mut inner = self.lock();
        inner.records.push(body);
        inner.tip_generation = gen_after;
        self.base_lsn + inner.records.len() as u64
    }

    /// The body at `lsn`, or `None` when it is outside
    /// `(base_lsn, tip]`.
    pub fn get(&self, lsn: u64) -> Option<Arc<[u8]>> {
        if lsn <= self.base_lsn {
            return None;
        }
        self.lock()
            .records
            .get((lsn - self.base_lsn - 1) as usize)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_addressing() {
        let mark = |applied_lsn, generation| ReplMark {
            applied_lsn,
            generation,
        };
        let log = OpLog::new(mark(10, 3));
        assert_eq!(log.tip(), mark(10, 3));
        assert_eq!(log.first_lsn(), 11);
        assert!(log.get(10).is_none());
        assert!(log.get(11).is_none());
        assert_eq!(log.append(Arc::from(&b"a"[..]), 3), 11);
        assert_eq!(log.append(Arc::from(&b"b"[..]), 4), 12);
        assert_eq!(log.tip(), mark(12, 4));
        assert_eq!(log.get(11).unwrap().as_ref(), b"a");
        assert_eq!(log.get(12).unwrap().as_ref(), b"b");
        assert!(log.get(13).is_none());
    }
}
