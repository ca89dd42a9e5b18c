//! The load generator: one blocking connection per client thread that
//! speaks both wire planes through the public `frame` codecs, a closed
//! loop, and an open (paced) loop that times each request from the
//! instant it was due.
//!
//! `FrameClient`/`Client` are not used: neither can interleave the two
//! planes on one connection (connection B of `replicated_mixed` does),
//! and neither exposes the boundary between waiting for reply bytes and
//! decoding them, which the traced run records as separate spans.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use snorkel_serve::frame::{self, BinReply, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES};

use crate::gen::{Request, Stream};
use crate::trace::Tracer;

/// A decoded reply from either plane.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Bin(BinReply),
    Line(String),
}

impl Reply {
    /// Whether this is the success reply `request` should get: the
    /// matching variant with one answer per row, or an `OK` line.
    pub fn answers(&self, request: &Request) -> bool {
        match (request, self) {
            (Request::Marginal(rows), Reply::Bin(BinReply::Marginal { probs, .. })) => {
                probs.len() == rows.len()
            }
            (Request::Predict(rows), Reply::Bin(BinReply::Predict { probs, .. })) => {
                probs.len() == rows.len()
            }
            (Request::Ingest(rows), Reply::Bin(BinReply::Ingest { rows: n, .. })) => {
                *n == rows.len() as u64
            }
            (Request::Text(_), Reply::Line(line)) => line.starts_with("OK"),
            _ => false,
        }
    }
}

/// One client connection.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Raw bytes of the last reply (frame header included).
    raw: Vec<u8>,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            raw: Vec::new(),
        })
    }

    pub fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Block until one whole reply (frame or line) has arrived.
    pub fn read_raw(&mut self, binary: bool) -> std::io::Result<()> {
        self.raw.clear();
        if !binary {
            if self.reader.read_until(b'\n', &mut self.raw)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            return Ok(());
        }
        self.raw.resize(FRAME_HEADER_BYTES, 0);
        self.reader.read_exact(&mut self.raw)?;
        let len = u32::from_le_bytes(self.raw[2..6].try_into().expect("4 bytes"));
        if self.raw[0] != FRAME_MAGIC || len > MAX_FRAME_BYTES {
            return Err(std::io::Error::other("bad reply frame header"));
        }
        self.raw.resize(FRAME_HEADER_BYTES + len as usize, 0);
        self.reader.read_exact(&mut self.raw[FRAME_HEADER_BYTES..])
    }

    /// Decode the reply [`Self::read_raw`] left behind.
    pub fn decode(&self, binary: bool) -> Result<Reply, String> {
        if binary {
            frame::decode_reply(self.raw[1], &self.raw[FRAME_HEADER_BYTES..]).map(Reply::Bin)
        } else {
            let line = std::str::from_utf8(&self.raw).map_err(|e| e.to_string())?;
            Ok(Reply::Line(line.trim_end().to_string()))
        }
    }

    /// Raw bytes of the last reply.
    pub fn raw(&self) -> &[u8] {
        &self.raw
    }

    /// Encode, send, wait, decode — each under its own span, all under
    /// one span named for the request kind. Any I/O or decode error
    /// comes back as `Err`; an error *reply* comes back as `Ok`.
    pub fn round_trip(
        &mut self,
        request: &Request,
        tracer: &mut Tracer,
        req: u64,
    ) -> Result<Reply, String> {
        let binary = !matches!(request, Request::Text(_));
        tracer.open(request.kind(), req);
        let bytes = tracer.scope("client.encode", req, || request.encode());
        let reply = (|| {
            tracer.open("client.write", req);
            let wrote = self.write(&bytes);
            tracer.close();
            wrote.map_err(|e| e.to_string())?;
            tracer.open("client.wait_read", req);
            let read = self.read_raw(binary);
            tracer.close();
            read.map_err(|e| e.to_string())?;
            tracer.scope("client.decode", req, || self.decode(binary))
        })();
        tracer.close();
        reply
    }

    /// Untraced text request for control traffic (setup, probes).
    pub fn line(&mut self, request: &str) -> Result<String, String> {
        let mut off = Tracer::new("control", Instant::now(), false);
        match self.round_trip(&Request::Text(request.to_string()), &mut off, 0)? {
            Reply::Line(line) => Ok(line),
            Reply::Bin(_) => unreachable!("text requests get text replies"),
        }
    }
}

/// What one load thread measured.
#[derive(Default)]
pub struct LoopStats {
    /// Per request, in send order: kind, latency, when the reply was
    /// fully read (ns since the window began), and the rows it was
    /// answered for (0 when it failed).
    pub kinds: Vec<&'static str>,
    pub lat_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub rows_each: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Every `sample_every`-th exchange, kept for the bit-identity check
    /// (an odd `sample_every` samples both kinds of an alternating mix).
    pub samples: Vec<(Request, Reply)>,
    /// This thread's measured window.
    pub window_s: f64,
}

impl LoopStats {
    /// Requests of `kind` sent.
    pub fn count(&self, kind: &str) -> u64 {
        self.kinds.iter().filter(|k| **k == kind).count() as u64
    }

    /// Rows answered over the whole window.
    pub fn rows(&self) -> u64 {
        self.rows_each.iter().map(|n| u64::from(*n)).sum()
    }

    /// Account one finished exchange.
    pub fn record(
        &mut self,
        request: &Request,
        reply: Result<Reply, String>,
        lat_ns: u64,
        done_ns: u64,
        sample_every: u64,
    ) {
        self.attempted += 1;
        self.kinds.push(request.kind());
        self.lat_ns.push(lat_ns);
        self.done_ns.push(done_ns);
        match reply {
            Ok(reply) if reply.answers(request) => {
                self.rows_each.push(request.rows() as u32);
                if sample_every > 0 && self.attempted % sample_every == 1 {
                    self.samples.push((request.clone(), reply));
                }
            }
            other => {
                self.rows_each.push(0);
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(format!("{}: {other:?}", request.kind()));
                }
            }
        }
    }
}

/// Length of the slices throughput is taken over.
pub const SLICE_NS: u64 = 100_000_000;

/// Rows completed by all `threads` in each full 100 ms slice of the
/// window, as rows per second, ascending.
///
/// Why slices and not rows ÷ wall-clock: on a 2-core VM the serve loop
/// runs in one of several modes from second to second — client and
/// worker sharing a core or not, and a slow mode in which a worker that
/// found no input for 16 passes sleeps `IDLE_SLEEP` per pass (3 000
/// instead of 30 000 req/s, for seconds at a time). How a run divides
/// among them is chance, so the mean rate moves ±15 % between runs of
/// the same code. A quantile of the slice rates does not.
pub fn slice_rates(threads: &[&LoopStats]) -> Vec<f64> {
    let window_ns = threads
        .iter()
        .map(|t| (t.window_s * 1e9) as u64)
        .min()
        .unwrap_or(0);
    let mut rows = vec![0u64; ((window_ns / SLICE_NS) as usize).max(1)];
    for t in threads {
        for (done, n) in t.done_ns.iter().zip(&t.rows_each) {
            if let Some(slot) = rows.get_mut((done / SLICE_NS) as usize) {
                *slot += u64::from(*n);
            }
        }
    }
    let mut rates: Vec<f64> = rows
        .iter()
        .map(|r| *r as f64 * 1e9 / SLICE_NS as f64)
        .collect();
    rates.sort_by(f64::total_cmp);
    rates
}

/// Share of slices running at under half the best slice's rate.
pub fn stalled_share(rates: &[f64]) -> f64 {
    let best = rates.last().copied().unwrap_or(0.0);
    rates.iter().filter(|r| **r * 2.0 < best).count() as f64 / rates.len().max(1) as f64
}

/// Closed loop: the next request goes out only when the previous reply
/// is in, until `deadline`. Latency runs from before encoding to after
/// decoding — what a caller of a client library waits.
pub fn closed_loop(
    wire: &mut Wire,
    stream: &mut Stream,
    deadline: Instant,
    tracer: &mut Tracer,
    sample_every: u64,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    tracer.open("window", 0);
    loop {
        let req = stats.attempted;
        let request = stream.next();
        let t = Instant::now();
        let reply = wire.round_trip(request, tracer, req);
        let done = Instant::now();
        stats.record(
            request,
            reply,
            (done - t).as_nanos() as u64,
            (done - start).as_nanos() as u64,
            sample_every,
        );
        if done >= deadline {
            break;
        }
    }
    tracer.close();
    stats.window_s = start.elapsed().as_secs_f64();
    stats
}

/// How close to a due time the pacer stops sleeping and starts
/// spinning: `sleep` overshoots by tens of microseconds, and a yield on
/// a busy box can cost a whole scheduler quantum.
const SPIN_MARGIN: Duration = Duration::from_micros(100);

/// Open loop: request `k` is due at `start + k·interval` whether or not
/// earlier replies are in. `op(k, tracer)` performs one exchange and
/// returns when its reply is read; the sample is the time from the
/// *due* instant to that return, so a stall charges every request it
/// delayed, not only the one it hit. Runs until `stop()`; returns
/// `(latency from due, lateness of the generator)` per request, in ns.
/// The generator is late by however long after *it could have sent* —
/// the later of the due time and the previous reply — it did send;
/// waiting for a slow reply is the system's lateness, not its own.
pub fn paced_loop(
    start: Instant,
    interval: Duration,
    stop: impl Fn() -> bool,
    tracer: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer),
) -> (Vec<u64>, Vec<u64>) {
    let mut from_due = Vec::new();
    let mut late = Vec::new();
    let mut free_at = start;
    tracer.open("window", 0);
    for k in 0u64.. {
        if stop() {
            break;
        }
        let due = start + interval * k as u32;
        tracer.open("gen.idle", k);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if due - now > SPIN_MARGIN {
                std::thread::sleep(due - now - SPIN_MARGIN);
            } else {
                std::hint::spin_loop();
            }
        }
        tracer.close();
        late.push((Instant::now() - due.max(free_at)).as_nanos() as u64);
        op(k, tracer);
        free_at = Instant::now();
        from_due.push((free_at - due).as_nanos() as u64);
    }
    tracer.close();
    (from_due, late)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // A fake server that answers in ~0 except request 3, where it
        // stalls for 40 ms: at a 5 ms interval requests 4..=10 were all
        // due during the stall and must be charged the wait.
        let interval = Duration::from_millis(5);
        let calls = Cell::new(0u64);
        let mut tracer = Tracer::new("reader", Instant::now(), false);
        let (from_due, late) = paced_loop(
            Instant::now(),
            interval,
            || calls.get() >= 20,
            &mut tracer,
            |k, _| {
                calls.set(calls.get() + 1);
                if k == 3 {
                    std::thread::sleep(Duration::from_millis(40));
                }
            },
        );
        assert_eq!(from_due.len(), 20);
        let ms = |ns: u64| ns as f64 / 1e6;
        assert!(ms(from_due[2]) < 5.0, "before the stall: {from_due:?}");
        assert!(ms(from_due[3]) >= 40.0);
        // Request 4 was due 5 ms into the stall, request 5 10 ms in.
        assert!(ms(from_due[4]) >= 34.0, "{from_due:?}");
        assert!(ms(from_due[5]) >= 29.0, "{from_due:?}");
        assert!(
            late.iter().all(|l| ms(*l) < 5.0),
            "waiting for the stalled reply is not the generator's lateness: {late:?}"
        );
        // Once the backlog drains the samples are small again.
        assert!(ms(from_due[19]) < 5.0, "{from_due:?}");
    }

    #[test]
    fn slice_rates_count_rows_per_100_ms_across_threads() {
        // Thread a: 10 rows every ms, except slices 3..=5 where it
        // crawls at a tenth of that. Thread b: steady. One second each.
        let thread = |crawl: bool| {
            let mut s = LoopStats {
                window_s: 1.0,
                ..LoopStats::default()
            };
            let mut t = 0u64;
            while t < 1_000_000_000 {
                let slow = crawl && (3..=5).contains(&(t / SLICE_NS));
                t += if slow { 10_000_000 } else { 1_000_000 };
                s.done_ns.push(t - 1);
                s.rows_each.push(10);
            }
            s
        };
        let rates = slice_rates(&[&thread(true), &thread(false)]);
        // 100 requests × 10 rows per thread-slice; the crawl does 10.
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[..3], [11_000.0; 3]);
        assert_eq!(rates[3..], [20_000.0; 7]);
        assert_eq!(crate::stats::quantile(&rates, 0.9), 20_000.0);
        assert_eq!(stalled_share(&rates), 0.0);
        assert!((stalled_share(&slice_rates(&[&thread(true)])) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn replies_are_matched_to_their_requests() {
        let marginal = Request::Marginal(vec![(vec![0], vec![1])]);
        let ok = Reply::Bin(BinReply::Marginal {
            gen: 1,
            probs: vec![vec![0.5, 0.5]],
        });
        let short = Reply::Bin(BinReply::Marginal {
            gen: 1,
            probs: vec![],
        });
        let err = Reply::Bin(BinReply::Err {
            message: "busy".into(),
        });
        assert!(ok.answers(&marginal));
        assert!(!short.answers(&marginal));
        assert!(!err.answers(&marginal));
        let stats = Request::Text("STATS".into());
        assert!(Reply::Line("OK gen=1".into()).answers(&stats));
        assert!(!Reply::Line("ERR backpressure".into()).answers(&stats));
        assert!(!ok.answers(&stats));
    }
}
