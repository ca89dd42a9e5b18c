//! Binary framing v2: length-prefixed frames with batched verbs.
//!
//! The text protocol pays one round trip, one request parse, and one
//! float formatting pass per labeled candidate. At deployment scale
//! (Snorkel DryBell's regime) those costs dominate the posterior lookup
//! itself, so v2 adds a compact binary plane on the **same port**: the
//! first byte of every request disambiguates — `0xF5` ([`FRAME_MAGIC`],
//! not a printable ASCII verb byte) starts a binary frame, anything
//! else is a text line. A connection may interleave both planes freely;
//! requests on one connection are answered strictly in order.
//!
//! ## Frame layout
//!
//! ```text
//! request:  magic(1) opcode(1) payload_len(u32 LE) payload
//! response: magic(1) status(1) payload_len(u32 LE) payload
//! ```
//!
//! `status` is [`STATUS_OK`] or [`STATUS_ERR`]. An OK payload begins
//! with the request's opcode echoed back (so a pipelining client can
//! cross-check), an ERR payload is a length-prefixed UTF-8 message.
//! Payloads are encoded with the snapshot format's little-endian
//! `Writer`/`Reader` primitives: floats travel as raw IEEE-754
//! bits (replies are bit-identical to what the server computed — the
//! text plane's shortest-round-trip formatting guarantees the same,
//! so the two planes agree to the bit), and every sequence length is
//! validated against the bytes actually remaining before anything is
//! allocated, exactly as when decoding a snapshot.
//!
//! ## Batched verbs
//!
//! Every binary verb is inherently batched: a [`OP_MARGINAL`] frame
//! carries N vote rows, a [`OP_PREDICT`] frame N feature vectors, and
//! one reply carries N posterior rows. The server executes a whole
//! batch under **one** state read-lock acquisition and one posterior-
//! memo pass, so a batch of 32 costs one syscall round trip and one
//! lock hand-off instead of 32 of each. A batch is atomic: any invalid
//! row fails the whole frame with one error frame and no partial
//! reply.
//!
//! The normative spec (opcode table, encodings, limits) lives in
//! `docs/PROTOCOL.md`; this module implements it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use snorkel_lf::Vote;

use crate::verbs::Verb;
use crate::wire::{Reader, Writer};

/// First byte of every binary frame. Chosen outside the ASCII range a
/// text request can start with (verbs start `A`–`Z`), so one peek at a
/// connection's next unread byte routes it to the right parser.
pub const FRAME_MAGIC: u8 = 0xF5;

/// Bytes before the payload: magic, opcode/status, `u32` payload
/// length.
pub const FRAME_HEADER_BYTES: usize = 6;

/// Largest accepted payload (16 MiB) — the binary counterpart of the
/// text plane's `MAX_LINE_BYTES`, bounding per-connection memory
/// against a corrupt or hostile length prefix.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;

/// Liveness probe. Empty request payload; reply carries the server
/// generation.
pub const OP_PING: u8 = 0x01;

/// Batched label-model posterior: N sparse vote rows in, N posterior
/// rows out (the binary, batched form of the text `MARGINAL` verb).
pub const OP_MARGINAL: u8 = 0x02;

/// Batched distilled-model prediction: N feature vectors in, N
/// posterior rows out (the binary, batched form of the text `PREDICT`
/// verb).
pub const OP_PREDICT: u8 = 0x03;

/// Batched streaming ingest: N two-span candidates in, one ingest
/// summary out (the binary, batched form of the text `INGEST` verb).
/// Refused with [`STATUS_ERR`] `backpressure` when the server's ingest
/// gate is full.
pub const OP_INGEST: u8 = 0x04;

/// Subscribe to the replication op log from a resume LSN. The OK reply
/// acknowledges the subscription; the server then *pushes*
/// [`OP_LOG_RECORD`] and [`OP_LOG_HEARTBEAT`] frames on the same
/// connection until it closes. Refused when the server has no
/// replication log or the resume LSN is outside the log's range.
pub const OP_LOG_SUBSCRIBE: u8 = 0x05;

/// Server-push frame carrying one encoded WAL record body (see
/// `docs/REPLICATION.md` for the body grammar). Never valid as a
/// request.
pub const OP_LOG_RECORD: u8 = 0x06;

/// Server-push liveness frame on an idle subscription: carries the
/// log tip and server generation so a follower can measure lag. Never
/// valid as a request.
pub const OP_LOG_HEARTBEAT: u8 = 0x07;

/// Response status byte: the request succeeded.
pub const STATUS_OK: u8 = 0x00;

/// Response status byte: the whole frame failed; payload is a message.
pub const STATUS_ERR: u8 = 0x01;

/// One sparse vote row: LF columns (strictly increasing) and their
/// non-abstain votes, parallel arrays.
pub type VoteRow = (Vec<u32>, Vec<Vote>);

/// One ingest row: two token-range spans plus the sentence text — the
/// binary counterpart of the text `INGEST` grammar.
pub type IngestRow = ((usize, usize), (usize, usize), String);

/// A decoded binary request.
#[derive(Clone, Debug, PartialEq)]
pub enum BinRequest {
    /// [`OP_PING`].
    Ping,
    /// [`OP_MARGINAL`]: one batch of vote rows.
    Marginal(Vec<VoteRow>),
    /// [`OP_PREDICT`]: one batch of feature vectors.
    Predict(Vec<Vec<String>>),
    /// [`OP_INGEST`]: one batch of candidates to stream in.
    Ingest(Vec<IngestRow>),
    /// [`OP_LOG_SUBSCRIBE`]: tail the replication log starting at this
    /// LSN.
    LogSubscribe {
        /// First LSN the subscriber wants (its applied LSN + 1).
        from: u64,
    },
}

/// A decoded binary reply.
#[derive(Clone, Debug, PartialEq)]
pub enum BinReply {
    /// OK reply to [`OP_PING`].
    Pong {
        /// Server generation.
        gen: u64,
    },
    /// OK reply to [`OP_MARGINAL`]: one posterior row per request row.
    Marginal {
        /// Server generation the batch was answered at.
        gen: u64,
        /// Posterior rows, parallel to the request's vote rows.
        probs: Vec<Vec<f64>>,
    },
    /// OK reply to [`OP_PREDICT`]: one posterior row per feature
    /// vector.
    Predict {
        /// Server generation the batch was answered at.
        gen: u64,
        /// Refresh generation the serving distilled model was trained
        /// on.
        disc_gen: u64,
        /// Posterior rows, parallel to the request's feature vectors.
        probs: Vec<Vec<f64>>,
    },
    /// OK reply to [`OP_INGEST`]: one summary for the whole batch.
    Ingest {
        /// Server generation after the ingest (bumped when the online
        /// moment solve or an auto-refit ran).
        gen: u64,
        /// Rows ingested by this frame.
        rows: u64,
        /// Total corpus rows after the ingest.
        total: u64,
        /// Whether the online moment fast path re-solved the model
        /// (no pass over Λ).
        online: bool,
        /// Overall drift score after the batch (max over LFs).
        drift_score: f64,
        /// Whether drift crossed the threshold and triggered an
        /// automatic warm refit.
        auto_refit: bool,
    },
    /// OK reply to [`OP_LOG_SUBSCRIBE`]: the subscription is live.
    SubAck {
        /// First LSN the server will push (the requested resume point).
        next: u64,
        /// Log tip at subscription time.
        tip: u64,
        /// Server generation at subscription time.
        gen: u64,
    },
    /// Server-push [`OP_LOG_RECORD`]: one encoded WAL record body.
    LogRecord {
        /// The record body (`lsn | gen_after | op`), exactly the bytes
        /// whose checksum the leader's WAL holds.
        body: Vec<u8>,
    },
    /// Server-push [`OP_LOG_HEARTBEAT`] on an idle subscription.
    Heartbeat {
        /// Log tip at send time — `tip - applied_lsn` is the
        /// follower's lag in records.
        tip: u64,
        /// Server generation at send time.
        gen: u64,
    },
    /// Error frame: the whole request frame was rejected.
    Err {
        /// Human-readable reason, as on the text plane's `ERR` lines.
        message: String,
    },
}

/// The metric label / trace-span name for an opcode (`None` for an
/// opcode the protocol does not define).
pub fn opcode_name(opcode: u8) -> Option<&'static str> {
    Verb::from_opcode(opcode).map(|verb| verb.row().name)
}

fn finish(kind: u8, tag: u8, payload: Writer) -> Vec<u8> {
    let body = payload.into_bytes();
    debug_assert!(body.len() <= MAX_FRAME_BYTES as usize);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.push(kind);
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn request_frame(opcode: u8, payload: Writer) -> Vec<u8> {
    finish(FRAME_MAGIC, opcode, payload)
}

fn reply_frame(status: u8, payload: Writer) -> Vec<u8> {
    finish(FRAME_MAGIC, status, payload)
}

/// Encode an [`OP_PING`] request frame.
pub fn encode_ping() -> Vec<u8> {
    request_frame(OP_PING, Writer::new())
}

/// Encode an [`OP_MARGINAL`] request frame over a batch of vote rows.
pub fn encode_marginal(rows: &[VoteRow]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(rows.len() as u32);
    for (cols, votes) in rows {
        w.put_u32(cols.len() as u32);
        for (&c, &v) in cols.iter().zip(votes) {
            w.put_u32(c);
            w.put_i8(v);
        }
    }
    request_frame(OP_MARGINAL, w)
}

/// Encode an [`OP_PREDICT`] request frame over a batch of feature
/// vectors.
pub fn encode_predict(rows: &[Vec<String>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(rows.len() as u32);
    for feats in rows {
        w.put_u32(feats.len() as u32);
        for f in feats {
            w.put_str(f);
        }
    }
    request_frame(OP_PREDICT, w)
}

/// Encode an [`OP_INGEST`] request frame over a batch of candidate
/// rows.
pub fn encode_ingest(rows: &[IngestRow]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(rows.len() as u32);
    for (span1, span2, text) in rows {
        w.put_usize(span1.0);
        w.put_usize(span1.1);
        w.put_usize(span2.0);
        w.put_usize(span2.1);
        w.put_str(text);
    }
    request_frame(OP_INGEST, w)
}

/// Encode an [`OP_LOG_SUBSCRIBE`] request frame.
pub fn encode_log_subscribe(from: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(from);
    request_frame(OP_LOG_SUBSCRIBE, w)
}

/// Encode the OK reply to [`OP_LOG_SUBSCRIBE`].
pub fn encode_sub_ack(next: u64, tip: u64, gen: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_LOG_SUBSCRIBE);
    w.put_u64(next);
    w.put_u64(tip);
    w.put_u64(gen);
    reply_frame(STATUS_OK, w)
}

/// Append an [`OP_LOG_RECORD`] push frame carrying one record body.
pub fn encode_log_record_into(body: &[u8], out: &mut Vec<u8>) {
    let len_at = begin_reply_into(STATUS_OK, out);
    out.push(OP_LOG_RECORD);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    end_reply_into(len_at, out);
}

/// Append an [`OP_LOG_HEARTBEAT`] push frame.
pub fn encode_heartbeat_into(tip: u64, gen: u64, out: &mut Vec<u8>) {
    let len_at = begin_reply_into(STATUS_OK, out);
    out.push(OP_LOG_HEARTBEAT);
    out.extend_from_slice(&tip.to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
    end_reply_into(len_at, out);
}

/// Encode an error reply frame.
pub fn encode_err(message: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(message);
    reply_frame(STATUS_ERR, w)
}

/// Encode the OK reply to [`OP_PING`].
pub fn encode_pong(gen: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_PING);
    w.put_u64(gen);
    reply_frame(STATUS_OK, w)
}

fn put_prob_rows(w: &mut Writer, probs: &[Vec<f64>]) {
    w.put_u32(probs.len() as u32);
    for row in probs {
        w.put_u32(row.len() as u32);
        for &p in row {
            w.put_f64(p);
        }
    }
}

/// Encode the OK reply to [`OP_MARGINAL`].
pub fn encode_marginal_reply(gen: u64, probs: &[Vec<f64>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_MARGINAL);
    w.put_u64(gen);
    put_prob_rows(&mut w, probs);
    reply_frame(STATUS_OK, w)
}

/// Encode the OK reply to [`OP_PREDICT`].
pub fn encode_predict_reply(gen: u64, disc_gen: u64, probs: &[Vec<f64>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_PREDICT);
    w.put_u64(gen);
    w.put_u64(disc_gen);
    put_prob_rows(&mut w, probs);
    reply_frame(STATUS_OK, w)
}

/// Encode the OK reply to [`OP_INGEST`].
pub fn encode_ingest_reply(
    gen: u64,
    rows: u64,
    total: u64,
    online: bool,
    drift_score: f64,
    auto_refit: bool,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(OP_INGEST);
    w.put_u64(gen);
    w.put_u64(rows);
    w.put_u64(total);
    w.put_u8(u8::from(online));
    w.put_f64(drift_score);
    w.put_u8(u8::from(auto_refit));
    reply_frame(STATUS_OK, w)
}

/// Open an OK reply frame directly in `out`, returning the offset of
/// the 4-byte length field for [`end_reply_into`] to backpatch. With
/// [`put_prob_rows_flat`] this is the allocation-free encode path: the
/// reply is appended to the connection's (capacity-retaining) output
/// buffer instead of assembled in a fresh `Writer`.
fn begin_reply_into(status: u8, out: &mut Vec<u8>) -> usize {
    out.push(FRAME_MAGIC);
    out.push(status);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    len_at
}

/// Backpatch the payload length opened by [`begin_reply_into`].
fn end_reply_into(len_at: usize, out: &mut [u8]) {
    let len = (out.len() - len_at - 4) as u32;
    debug_assert!(len <= MAX_FRAME_BYTES);
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Append the posterior-rows section for a batch whose rows all share
/// one width (`flat[i*width..(i+1)*width]` is row `i`) — byte-identical
/// to [`put_prob_rows`] over the equivalent `Vec<Vec<f64>>`.
fn put_prob_rows_flat(flat: &[f64], width: usize, out: &mut Vec<u8>) {
    assert!(width > 0, "posterior rows have at least one class");
    assert_eq!(flat.len() % width, 0, "flat buffer is whole rows");
    let rows = flat.len() / width;
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    for row in flat.chunks_exact(width) {
        out.extend_from_slice(&(width as u32).to_le_bytes());
        for &p in row {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
}

/// Append the OK reply to [`OP_MARGINAL`] for uniform-width posterior
/// rows stored flat. Byte-identical to [`encode_marginal_reply`] over
/// the same values; appending to `out` (instead of returning a fresh
/// `Vec`) is what keeps the steady-state batch path allocation-free.
pub fn encode_marginal_reply_flat_into(gen: u64, flat: &[f64], width: usize, out: &mut Vec<u8>) {
    let len_at = begin_reply_into(STATUS_OK, out);
    out.push(OP_MARGINAL);
    out.extend_from_slice(&gen.to_le_bytes());
    put_prob_rows_flat(flat, width, out);
    end_reply_into(len_at, out);
}

/// Append the OK reply to [`OP_PREDICT`] for uniform-width posterior
/// rows stored flat — the allocation-free counterpart of
/// [`encode_predict_reply`].
pub fn encode_predict_reply_flat_into(
    gen: u64,
    disc_gen: u64,
    flat: &[f64],
    width: usize,
    out: &mut Vec<u8>,
) {
    let len_at = begin_reply_into(STATUS_OK, out);
    out.push(OP_PREDICT);
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&disc_gen.to_le_bytes());
    put_prob_rows_flat(flat, width, out);
    end_reply_into(len_at, out);
}

/// `Reader` errors become wire error messages (the reader's
/// length-vs-remaining validation is what rejects corrupt counts
/// before any allocation).
macro_rules! rd {
    ($e:expr) => {
        $e.map_err(|e| format!("bad frame: {e}"))?
    };
}

/// A `Reader` error in wire-message form — the function behind the
/// `rd!` macro, shared with the zero-copy decoders in
/// [`crate::hotpath`] so both decode paths reject a malformed frame
/// with the identical message.
pub(crate) fn wire_err(e: crate::snap::SnapError) -> String {
    format!("bad frame: {e}")
}

/// Read a batch count, rejecting empty batches (a zero-row batch is a
/// protocol error, mirroring the text plane's "needs a vote list" /
/// "needs at least one feature").
pub(crate) fn batch_len(
    r: &mut Reader,
    min_elem_bytes: usize,
    what: &str,
) -> Result<usize, String> {
    let n = u32_len(r, min_elem_bytes, "batch count")?;
    if n == 0 {
        return Err(format!("empty batch of {what}"));
    }
    Ok(n)
}

/// Read a `u32` count and validate it against the bytes remaining,
/// like `Reader::len` does for `u64` prefixes.
pub(crate) fn u32_len(
    r: &mut Reader,
    min_elem_bytes: usize,
    context: &'static str,
) -> Result<usize, String> {
    let n = rd!(r.u32(context)) as usize;
    if n.checked_mul(min_elem_bytes.max(1))
        .is_none_or(|bytes| bytes > r.remaining())
    {
        return Err(format!(
            "bad frame: {context} {n} exceeds the bytes remaining"
        ));
    }
    Ok(n)
}

/// Decode a request frame's payload. Rejects unknown opcodes, torn or
/// trailing bytes, empty batches, unsorted columns, and abstain votes
/// — everything the text parser would reject, so the two planes admit
/// the same request space.
pub fn decode_request(opcode: u8, payload: &[u8]) -> Result<BinRequest, String> {
    let mut r = Reader::new(payload);
    let req = match opcode {
        OP_PING => BinRequest::Ping,
        OP_MARGINAL => {
            // A row is at least 4 bytes (its count); an entry 5.
            let n = batch_len(&mut r, 4, "vote rows")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let k = u32_len(&mut r, 5, "vote-row length")?;
                if k == 0 {
                    return Err("empty vote row".into());
                }
                let mut cols = Vec::with_capacity(k);
                let mut votes = Vec::with_capacity(k);
                for _ in 0..k {
                    let col = rd!(r.u32("vote column"));
                    let vote = rd!(r.i8("vote"));
                    if cols.last().is_some_and(|&prev| prev >= col) {
                        return Err("columns must be strictly increasing".into());
                    }
                    if vote == 0 {
                        return Err("votes in requests must be non-abstain".into());
                    }
                    cols.push(col);
                    votes.push(vote);
                }
                rows.push((cols, votes));
            }
            BinRequest::Marginal(rows)
        }
        OP_PREDICT => {
            let n = batch_len(&mut r, 4, "feature vectors")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let k = u32_len(&mut r, 8, "feature-vector length")?;
                if k == 0 {
                    return Err("PREDICT needs at least one feature".into());
                }
                let mut feats = Vec::with_capacity(k);
                for _ in 0..k {
                    feats.push(rd!(r.str("feature name")));
                }
                rows.push(feats);
            }
            BinRequest::Predict(rows)
        }
        OP_INGEST => {
            // A row is at least four 8-byte span bounds plus an 8-byte
            // string length prefix.
            let n = batch_len(&mut r, 40, "ingest rows")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let span1 = (rd!(r.usize("span1 start")), rd!(r.usize("span1 end")));
                let span2 = (rd!(r.usize("span2 start")), rd!(r.usize("span2 end")));
                let text = rd!(r.str("sentence text"));
                if text.trim().is_empty() {
                    return Err("INGEST missing sentence text".into());
                }
                rows.push((span1, span2, text));
            }
            BinRequest::Ingest(rows)
        }
        OP_LOG_SUBSCRIBE => BinRequest::LogSubscribe {
            from: rd!(r.u64("resume LSN")),
        },
        other => {
            return Err(match Verb::from_opcode(other) {
                Some(verb) if verb.row().push_only => {
                    format!("opcode 0x{other:02x} is server-push only, not a request")
                }
                _ => format!("unknown opcode 0x{other:02x}"),
            })
        }
    };
    if !r.is_exhausted() {
        return Err(format!("{} trailing bytes in frame", r.remaining()));
    }
    Ok(req)
}

fn prob_rows(r: &mut Reader) -> Result<Vec<Vec<f64>>, String> {
    let n = u32_len(r, 4, "posterior batch count")?;
    let mut probs = Vec::with_capacity(n);
    for _ in 0..n {
        let k = u32_len(r, 8, "posterior row length")?;
        let mut row = Vec::with_capacity(k);
        for _ in 0..k {
            row.push(rd!(r.f64("posterior")));
        }
        probs.push(row);
    }
    Ok(probs)
}

/// Decode a reply frame's payload given its status byte.
pub fn decode_reply(status: u8, payload: &[u8]) -> Result<BinReply, String> {
    let mut r = Reader::new(payload);
    let reply = match status {
        STATUS_ERR => BinReply::Err {
            message: rd!(r.str("error message")),
        },
        STATUS_OK => {
            let opcode = rd!(r.u8("opcode echo"));
            match opcode {
                OP_PING => BinReply::Pong {
                    gen: rd!(r.u64("generation")),
                },
                OP_MARGINAL => BinReply::Marginal {
                    gen: rd!(r.u64("generation")),
                    probs: prob_rows(&mut r)?,
                },
                OP_PREDICT => BinReply::Predict {
                    gen: rd!(r.u64("generation")),
                    disc_gen: rd!(r.u64("disc generation")),
                    probs: prob_rows(&mut r)?,
                },
                OP_INGEST => BinReply::Ingest {
                    gen: rd!(r.u64("generation")),
                    rows: rd!(r.u64("ingested rows")),
                    total: rd!(r.u64("total rows")),
                    online: rd!(r.u8("online flag")) != 0,
                    drift_score: rd!(r.f64("drift score")),
                    auto_refit: rd!(r.u8("auto-refit flag")) != 0,
                },
                OP_LOG_SUBSCRIBE => BinReply::SubAck {
                    next: rd!(r.u64("next LSN")),
                    tip: rd!(r.u64("log tip")),
                    gen: rd!(r.u64("generation")),
                },
                OP_LOG_RECORD => BinReply::LogRecord {
                    body: rd!(r.bytes("record body")).to_vec(),
                },
                OP_LOG_HEARTBEAT => BinReply::Heartbeat {
                    tip: rd!(r.u64("log tip")),
                    gen: rd!(r.u64("generation")),
                },
                other => return Err(format!("unknown opcode echo 0x{other:02x}")),
            }
        }
        other => return Err(format!("unknown status byte 0x{other:02x}")),
    };
    if !r.is_exhausted() {
        return Err(format!("{} trailing bytes in reply", r.remaining()));
    }
    Ok(reply)
}

/// Minimal blocking binary-plane client for tests, benches, and the CI
/// smoke script — the [`FrameClient`] counterpart of the text
/// [`Client`]. One frame out, one frame back, strictly
/// in order; [`Self::send_raw`] lets callers pipeline several frames
/// in one write and drain the replies with [`Self::read_reply`].
pub struct FrameClient {
    stream: TcpStream,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl FrameClient {
    /// Connect to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<FrameClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FrameClient { stream })
    }

    /// Write pre-encoded frame bytes (one frame or several,
    /// back-to-back) without reading anything.
    pub fn send_raw(&mut self, frames: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frames)?;
        self.stream.flush()
    }

    /// Read exactly one reply frame (blocking).
    pub fn read_reply(&mut self) -> std::io::Result<BinReply> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        self.stream.read_exact(&mut header)?;
        if header[0] != FRAME_MAGIC {
            return Err(invalid(format!("bad reply magic 0x{:02x}", header[0])));
        }
        let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(invalid(format!(
                "reply payload {len} exceeds the frame cap"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.stream.read_exact(&mut payload)?;
        decode_reply(header[1], &payload).map_err(invalid)
    }

    fn round_trip(&mut self, frame: &[u8]) -> std::io::Result<BinReply> {
        self.send_raw(frame)?;
        self.read_reply()
    }

    /// `OP_PING` round trip.
    pub fn ping(&mut self) -> std::io::Result<BinReply> {
        self.round_trip(&encode_ping())
    }

    /// Batched `OP_MARGINAL` round trip.
    pub fn marginal(&mut self, rows: &[VoteRow]) -> std::io::Result<BinReply> {
        self.round_trip(&encode_marginal(rows))
    }

    /// Batched `OP_PREDICT` round trip.
    pub fn predict(&mut self, rows: &[Vec<String>]) -> std::io::Result<BinReply> {
        self.round_trip(&encode_predict(rows))
    }

    /// Batched `OP_INGEST` round trip.
    pub fn ingest(&mut self, rows: &[IngestRow]) -> std::io::Result<BinReply> {
        self.round_trip(&encode_ingest(rows))
    }

    /// `OP_LOG_SUBSCRIBE` round trip: request a tail from `from` and
    /// read the acknowledgement (or error). On success the server
    /// starts pushing frames — drain them with [`Self::read_reply`].
    pub fn subscribe(&mut self, from: u64) -> std::io::Result<BinReply> {
        self.round_trip(&encode_log_subscribe(from))
    }

    /// Bound every subsequent read (`None` removes the bound) — a
    /// tailing follower uses this to notice a silent leader inside one
    /// heartbeat interval or two instead of blocking forever.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

impl From<TcpStream> for FrameClient {
    /// Wrap an already-connected stream (e.g. one opened with
    /// `TcpStream::connect_timeout`).
    fn from(stream: TcpStream) -> FrameClient {
        FrameClient { stream }
    }
}

/// Minimal blocking client for tests, examples, and the CI smoke
/// script: one request line out, one response line back.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request line, read one response line (without the
    /// trailing newline).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send one request line and read a multi-line reply (`METRICS`,
    /// `SLOWLOG`): the header's `lines=<k>` field says how many payload
    /// lines follow. Returns `(header, payload_lines)`; a reply without
    /// a `lines=` field (e.g. an `ERR`) comes back with no payload.
    pub fn request_lines(&mut self, line: &str) -> std::io::Result<(String, Vec<String>)> {
        let header = self.request(line)?;
        let count = header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("lines="))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut payload = String::new();
            if self.reader.read_line(&mut payload)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            lines.push(payload.trim_end().to_string());
        }
        Ok((header, lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(frame: &[u8]) -> (u8, &[u8]) {
        assert_eq!(frame[0], FRAME_MAGIC);
        let len = u32::from_le_bytes(frame[2..6].try_into().unwrap()) as usize;
        assert_eq!(
            frame.len(),
            FRAME_HEADER_BYTES + len,
            "length prefix honest"
        );
        (frame[1], &frame[FRAME_HEADER_BYTES..])
    }

    #[test]
    fn requests_round_trip() {
        let rows: Vec<VoteRow> = vec![(vec![0, 3], vec![1, -1]), (vec![2], vec![1])];
        let frame = encode_marginal(&rows);
        let (op, body) = payload(&frame);
        assert_eq!(
            decode_request(op, body).unwrap(),
            BinRequest::Marginal(rows)
        );

        let feats = vec![vec!["btw=cause".to_string(), "u=x".to_string()]];
        let frame = encode_predict(&feats);
        let (op, body) = payload(&frame);
        assert_eq!(
            decode_request(op, body).unwrap(),
            BinRequest::Predict(feats)
        );

        let frame = encode_ping();
        let (op, body) = payload(&frame);
        assert_eq!(decode_request(op, body).unwrap(), BinRequest::Ping);

        let rows: Vec<IngestRow> = vec![
            ((0, 1), (2, 3), "a causes b".into()),
            ((1, 2), (3, 4), "x treats y".into()),
        ];
        let frame = encode_ingest(&rows);
        let (op, body) = payload(&frame);
        assert_eq!(decode_request(op, body).unwrap(), BinRequest::Ingest(rows));
    }

    #[test]
    fn replies_round_trip_bit_exactly() {
        let probs = vec![
            vec![0.1, 0.9],
            vec![f64::from_bits(0x7FF8_0000_0000_1234), -0.0],
        ];
        let frame = encode_marginal_reply(7, &probs);
        let (status, body) = payload(&frame);
        match decode_reply(status, body).unwrap() {
            BinReply::Marginal { gen, probs: back } => {
                assert_eq!(gen, 7);
                let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                    rows.iter()
                        .map(|r| r.iter().map(|p| p.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&back), bits(&probs), "NaN payloads included");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let frame = encode_err("nope");
        let (status, body) = payload(&frame);
        assert_eq!(
            decode_reply(status, body).unwrap(),
            BinReply::Err {
                message: "nope".into()
            }
        );

        // Ingest reply, drift score bit-exact.
        let score = f64::from_bits(0x3FD5_5555_5555_5555);
        let frame = encode_ingest_reply(9, 32, 1024, true, score, false);
        let (status, body) = payload(&frame);
        match decode_reply(status, body).unwrap() {
            BinReply::Ingest {
                gen,
                rows,
                total,
                online,
                drift_score,
                auto_refit,
            } => {
                assert_eq!((gen, rows, total), (9, 32, 1024));
                assert!(online && !auto_refit);
                assert_eq!(drift_score.to_bits(), score.to_bits());
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn flat_reply_encoders_match_the_writer_encoders_byte_for_byte() {
        let probs = vec![
            vec![0.25, 0.75],
            vec![f64::from_bits(0x7FF8_0000_0000_1234), -0.0],
            vec![1.0, 0.0],
        ];
        let flat: Vec<f64> = probs.iter().flatten().copied().collect();

        let reference = encode_marginal_reply(42, &probs);
        let mut appended = vec![0xAB, 0xCD]; // pre-existing bytes survive
        encode_marginal_reply_flat_into(42, &flat, 2, &mut appended);
        assert_eq!(&appended[..2], &[0xAB, 0xCD]);
        assert_eq!(&appended[2..], &reference[..]);

        let reference = encode_predict_reply(7, 5, &probs);
        let mut appended = Vec::new();
        encode_predict_reply_flat_into(7, 5, &flat, 2, &mut appended);
        assert_eq!(appended, reference);
    }

    #[test]
    fn replication_frames_round_trip() {
        let frame = encode_log_subscribe(42);
        let (op, body) = payload(&frame);
        assert_eq!(
            decode_request(op, body).unwrap(),
            BinRequest::LogSubscribe { from: 42 }
        );

        let frame = encode_sub_ack(42, 99, 7);
        let (status, body) = payload(&frame);
        assert_eq!(
            decode_reply(status, body).unwrap(),
            BinReply::SubAck {
                next: 42,
                tip: 99,
                gen: 7
            }
        );

        let mut frame = Vec::new();
        encode_log_record_into(&[1, 2, 3, 0xFF], &mut frame);
        let (status, body) = payload(&frame);
        assert_eq!(
            decode_reply(status, body).unwrap(),
            BinReply::LogRecord {
                body: vec![1, 2, 3, 0xFF]
            }
        );

        let mut frame = Vec::new();
        encode_heartbeat_into(12, 3, &mut frame);
        let (status, body) = payload(&frame);
        assert_eq!(
            decode_reply(status, body).unwrap(),
            BinReply::Heartbeat { tip: 12, gen: 3 }
        );

        // Push opcodes are not valid requests.
        for op in [OP_LOG_RECORD, OP_LOG_HEARTBEAT] {
            assert!(decode_request(op, &[])
                .unwrap_err()
                .contains("server-push only"));
        }
    }

    #[test]
    fn invalid_requests_are_rejected() {
        // Unknown opcode.
        assert!(decode_request(0x7E, &[]).is_err());
        // Empty batch.
        let frame = encode_marginal(&[]);
        let (op, body) = payload(&frame);
        assert!(decode_request(op, body)
            .unwrap_err()
            .contains("empty batch"));
        // Unsorted columns.
        let frame = encode_marginal(&[(vec![3, 0], vec![1, 1])]);
        let (op, body) = payload(&frame);
        assert!(decode_request(op, body)
            .unwrap_err()
            .contains("strictly increasing"));
        // Abstain vote.
        let frame = encode_marginal(&[(vec![0], vec![0])]);
        let (op, body) = payload(&frame);
        assert!(decode_request(op, body)
            .unwrap_err()
            .contains("non-abstain"));
        // A count field larger than the bytes behind it is rejected
        // before allocation (the Reader::len-style validation).
        let mut w = Writer::new();
        w.put_u32(1_000_000);
        let body = w.into_bytes();
        assert!(decode_request(OP_MARGINAL, &body)
            .unwrap_err()
            .contains("exceeds the bytes remaining"));
        // Trailing garbage after a complete request.
        let frame = encode_ping();
        let (op, _) = payload(&frame);
        assert!(decode_request(op, &[0xAA])
            .unwrap_err()
            .contains("trailing bytes"));
        // Empty ingest batch / blank sentence text.
        let frame = encode_ingest(&[]);
        let (op, body) = payload(&frame);
        assert!(decode_request(op, body)
            .unwrap_err()
            .contains("empty batch"));
        let frame = encode_ingest(&[((0, 1), (2, 3), "  ".into())]);
        let (op, body) = payload(&frame);
        assert!(decode_request(op, body)
            .unwrap_err()
            .contains("missing sentence text"));
    }
}
