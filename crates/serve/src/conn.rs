//! The socket layer: the accept loop, the worker pump, and one
//! connection's buffers.
//!
//! This layer knows bytes, not verbs: it moves them between nonblocking
//! sockets and each connection's input/output buffers, and hands the
//! buffers to the connection's [`Proto`] state machine — which decides
//! what they mean and when the connection is done.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::core::{lock_unpoisoned, Core, Proto};
use crate::hotpath::ReadScratch;

/// One inbox per worker: the accept thread deals accepted sockets
/// round-robin and each worker adopts its inbox every pass.
pub(crate) type Inboxes = Vec<Mutex<Vec<TcpStream>>>;

/// Nonblocking accept loop: enforce the connection cap, configure the
/// socket, deal it to a worker. Runs until the shutdown flag is set.
pub(crate) fn accept_loop(
    core: &Core,
    listener: &TcpListener,
    inboxes: &Inboxes,
    max_conns: usize,
) {
    let mut next_worker = 0usize;
    while !core.is_shutdown() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if core.open_conns.load(Ordering::Relaxed) >= max_conns as i64 {
                    // Refuse, never queue: the client gets a reply it
                    // can parse, the gauge stays honest, and no memory
                    // accrues per rejected connection. The accepted
                    // socket is still blocking here (accept does not
                    // inherit the listener's nonblocking flag), so this
                    // one-line write goes out before the drop closes it.
                    core.obs.connections_rejected.inc();
                    let _ = stream.set_nodelay(true);
                    let _ = stream.write_all(b"ERR busy\n");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                core.conns_changed(1);
                let idx = next_worker % inboxes.len();
                next_worker = next_worker.wrapping_add(1);
                lock_unpoisoned(&inboxes[idx]).push(stream);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Consecutive empty passes a worker spins (yielding) before switching
/// to sleeping between passes.
const IDLE_SPINS: u32 = 16;

/// How long an idle worker sleeps between passes once past
/// [`IDLE_SPINS`] — the ceiling on added latency for a request arriving
/// at an idle server.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Worker-label values for the `snorkel_serve_scratch_bytes` gauge
/// (static strings — gauge resolution wants `'static` label values).
/// Workers beyond the table share the last label; the default pool is
/// clamped to 8 anyway.
const WORKER_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

/// One worker: adopt inbox sockets, pump every connection, back off
/// when nothing moved. Exits when the shutdown flag is set, after a
/// best-effort flush of pending replies (so the client that sent
/// `SHUTDOWN` sees its `OK bye`).
///
/// The worker owns its [`ReadScratch`] arena: every request it
/// services decodes into and computes out of these buffers, which grow
/// to the worker's traffic high-water mark and are then reused
/// allocation-free. The high water is published on the per-worker
/// `snorkel_serve_scratch_bytes` gauge whenever it moves.
pub(crate) fn worker_loop(core: &Core, inbox: &Mutex<Vec<TcpStream>>, idx: usize) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = ReadScratch::new();
    let scratch_gauge = snorkel_obs::global().gauge(
        "snorkel_serve_scratch_bytes",
        &[("worker", WORKER_LABELS[idx.min(WORKER_LABELS.len() - 1)])],
    );
    let mut scratch_bytes = 0u64;
    let mut idle = 0u32;
    loop {
        conns.extend(lock_unpoisoned(inbox).drain(..).map(Conn::new));
        if core.is_shutdown() {
            for conn in &mut conns {
                conn.final_flush();
                conn.proto.release(core);
            }
            core.conns_changed(-(conns.len() as i64));
            return;
        }
        let mut progressed = false;
        conns.retain_mut(|conn| {
            let pump = conn.pump(core, &mut scratch);
            progressed |= pump.progressed;
            if !pump.keep {
                core.conns_changed(-1);
                conn.proto.release(core);
            }
            pump.keep
        });
        if progressed {
            idle = 0;
            let bytes = scratch.bytes() as u64;
            if bytes != scratch_bytes {
                scratch_bytes = bytes;
                scratch_gauge.set(bytes.min(i64::MAX as u64) as i64);
                core.scratch_high.fetch_max(bytes, Ordering::Relaxed);
            }
        } else {
            idle = idle.saturating_add(1);
            if idle < IDLE_SPINS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

/// Most bytes one pump reads from one socket before servicing what it
/// has — keeps a fire-hosing client from starving its worker's other
/// connections.
const READ_BUDGET: usize = 256 * 1024;

struct PumpResult {
    keep: bool,
    progressed: bool,
}

/// One multiplexed connection: the socket, unread request bytes,
/// unwritten reply bytes, whether the peer has half-closed, and the
/// protocol state that interprets them.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    saw_eof: bool,
    proto: Proto,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            saw_eof: false,
            proto: Proto::default(),
        }
    }

    fn fully_flushed(&self) -> bool {
        self.outpos == self.outbuf.len()
    }

    /// Write as much pending output as the socket will take right now.
    /// Returns bytes written; `Err` only on a hard socket error.
    fn flush_pending(&mut self) -> std::io::Result<usize> {
        let mut written = 0;
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outpos += n;
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.fully_flushed() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        Ok(written)
    }

    /// Bounded best-effort drain on shutdown: retry `WouldBlock` briefly
    /// so the final replies (`OK bye`) reach the peer, but never wedge
    /// the worker on a stalled client.
    fn final_flush(&mut self) {
        for _ in 0..50 {
            match self.flush_pending() {
                Ok(_) if self.fully_flushed() => return,
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                Err(_) => return,
            }
        }
    }

    /// One scheduling quantum for this connection: flush, read, let the
    /// protocol service what arrived, flush. Returns whether to keep
    /// the connection and whether any bytes moved (the worker's idle
    /// detector).
    fn pump(&mut self, core: &Core, scratch: &mut ReadScratch) -> PumpResult {
        let closed = |progressed| PumpResult {
            keep: false,
            progressed,
        };
        let mut progressed = false;
        match self.flush_pending() {
            Ok(n) => progressed |= n > 0,
            Err(_) => return closed(true),
        }
        if self.proto.close_after_flush {
            return PumpResult {
                keep: !self.fully_flushed(),
                progressed,
            };
        }
        if !self.saw_eof {
            let mut chunk = [0u8; 16 * 1024];
            let mut budget = READ_BUDGET;
            while budget > 0 {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        if !self.proto.discard_input {
                            self.inbuf.extend_from_slice(&chunk[..n]);
                        }
                        progressed = true;
                        budget = budget.saturating_sub(n);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return closed(true),
                }
            }
        }
        let now = Instant::now();
        self.proto.service(
            core,
            &mut self.inbuf,
            self.saw_eof,
            &mut self.outbuf,
            now,
            scratch,
        );
        progressed |= self
            .proto
            .pump_tail(core, &mut self.outbuf, self.outpos, now);
        match self.flush_pending() {
            Ok(n) => progressed |= n > 0,
            Err(_) => return closed(true),
        }
        // After the peer's half-close the protocol has serviced all it
        // ever can, so a drained connection is finished either way.
        if self.fully_flushed() && (self.proto.close_after_flush || self.saw_eof) {
            return closed(progressed);
        }
        PumpResult {
            keep: true,
            progressed,
        }
    }
}
