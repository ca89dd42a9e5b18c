//! In-process replay of the server's read path: the public functions a
//! worker calls for one `OP_MARGINAL` or `OP_PREDICT` frame — decode,
//! compute, encode — run here on the same request bytes against a twin
//! session, each under its own span. This is how the traced run prices
//! the layers inside a `client.wait_read` it cannot see into.

use std::sync::Mutex;

use snorkel_incr::IncrementalSession;
use snorkel_serve::frame::{self, FRAME_HEADER_BYTES};
use snorkel_serve::hotpath::{self, ReadScratch, SigMemo};

use crate::gen::Request;
use crate::trace::{StageTable, Tracer};

/// Accumulated cost of replayed frames of one kind.
#[derive(Clone, Copy, Default)]
pub struct ReadCost {
    pub frames: u64,
    pub decode_ns: u64,
    pub compute_ns: u64,
    pub encode_ns: u64,
}

impl ReadCost {
    /// Split `track`'s `<kind> > client.wait_read` row into this cost's
    /// mean decode, compute and encode times × `calls` (spread over
    /// `threads` client threads) and `serve.server.io_residual`; returns
    /// the residual's seconds per thread.
    pub fn attribute(
        &self,
        table: &mut StageTable,
        track: &str,
        kind: &str,
        calls: u64,
        threads: usize,
    ) -> f64 {
        let (decode, compute, encode) = self.mean_ns();
        let secs = |ns: f64| ns * calls as f64 / threads as f64 / 1e9;
        let stage = format!("{kind} > client.wait_read");
        table.attribute(
            track,
            &stage,
            &[
                ("serve.hotpath.decode (replayed)", secs(decode), calls),
                ("serve.hotpath.compute (replayed)", secs(compute), calls),
                ("serve.frame.encode (replayed)", secs(encode), calls),
            ],
            "serve.server.io_residual",
        );
        table.seconds(track, &format!("{stage} = "))
    }

    /// Mean `(decode, compute, encode)` nanoseconds per frame.
    pub fn mean_ns(&self) -> (f64, f64, f64) {
        let n = self.frames.max(1) as f64;
        (
            self.decode_ns as f64 / n,
            self.compute_ns as f64 / n,
            self.encode_ns as f64 / n,
        )
    }
}

/// A worker's read-path state: scratch arenas, reply buffer, memo.
pub struct ReadReplay {
    pub memo: Mutex<SigMemo>,
    scratch: ReadScratch,
    out: Vec<u8>,
}

impl ReadReplay {
    pub fn new() -> ReadReplay {
        ReadReplay {
            memo: Mutex::new(SigMemo::new()),
            scratch: ReadScratch::new(),
            out: Vec::new(),
        }
    }

    /// Replay one binary read frame at `generation`, adding to `cost`.
    pub fn frame(
        &mut self,
        twin: &IncrementalSession,
        generation: u64,
        request: &Request,
        tracer: &mut Tracer,
        req: u64,
        cost: &mut ReadCost,
    ) {
        let bytes = request.encode();
        let payload = &bytes[FRAME_HEADER_BYTES..];
        let (scratch, out, memo) = (&mut self.scratch, &mut self.out, &self.memo);
        out.clear();
        cost.frames += 1;
        let predict = matches!(request, Request::Predict(_));
        cost.decode_ns += tracer
            .timed("serve.hotpath.decode", req, || {
                if predict {
                    hotpath::decode_predict(payload, scratch)
                } else {
                    hotpath::decode_marginal(payload, scratch)
                }
                .expect("generated frames are valid");
            })
            .1;
        let (width, ns) = tracer.timed("serve.hotpath.compute", req, || {
            if predict {
                hotpath::compute_predict(twin, payload, scratch)
                    .expect("the twin has a distilled model")
                    .width
            } else {
                hotpath::compute_marginal(twin, generation, memo, scratch)
                    .expect("generated rows are valid")
                    .width
            }
        });
        cost.compute_ns += ns;
        cost.encode_ns += tracer
            .timed("serve.frame.encode", req, || {
                if predict {
                    let probs = scratch.probs();
                    frame::encode_predict_reply_flat_into(
                        generation, generation, probs, width, out,
                    );
                } else {
                    frame::encode_marginal_reply_flat_into(generation, scratch.probs(), width, out);
                }
            })
            .1;
        std::hint::black_box(&self.out);
    }
}
