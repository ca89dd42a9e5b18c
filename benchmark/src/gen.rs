//! Seeded input generators. Everything the system under test sees is
//! produced here from `--seed`: the serving corpus and LF suite, vote
//! signatures, feature rows, ingest batches, LF-edit scripts and the
//! per-connection request streams. Same seed, same bytes on the wire.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snorkel_context::Corpus;
use snorkel_nlp::tokenize;
use snorkel_serve::frame::{self, IngestRow, VoteRow};

/// LFs in the serving suite; vote signatures live in a 3^20 space.
pub const NUM_LFS: usize = 20;
/// Rows in the serving corpus the session is primed on.
pub const SERVE_ROWS: usize = 2_000;
/// Rows per `OP_MARGINAL` / `OP_PREDICT` batch on the read workloads.
pub const READ_BATCH: usize = 32;
/// Distinct vote signatures `read_hot` cycles over.
pub const HOT_SIGNATURES: usize = 64;
/// Rows per `OP_INGEST` batch on `replicated_mixed`.
pub const INGEST_BATCH: usize = 16;
/// Rows per `OP_MARGINAL` batch on the follower connection.
pub const FOLLOWER_BATCH: usize = 8;
/// A `REFRESH EDIT` replaces every this-many-th writer op.
pub const REFRESH_EVERY: usize = 2_000;
/// Writer ops per requested second: `--seconds 20` scripts 7 000 ops,
/// sized so the script runs for about that long at the baseline commit.
/// The script is a fixed length, never a fixed duration, so corpus
/// growth is identical on both sides of any comparison.
pub const WRITER_OPS_PER_SECOND: usize = 350;
/// Open-loop request rate on the follower connection.
pub const FOLLOWER_RATE_HZ: u64 = 100;
/// Candidates in the `pipeline_dev` CDR corpus: one cold `Pipeline::run`
/// with distillation takes about 1.6 s, so six fit in half a 20 s run.
pub const PIPELINE_CANDIDATES: usize = 2_000;

/// Independent, reproducible stream `stream` of seed `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Vote LF `j` casts on a forward-ordered candidate.
fn polarity(j: usize) -> i8 {
    if j.is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// Planted accuracy of LF `j`, 0.90 down to 0.62.
fn accuracy(j: usize) -> f64 {
    0.90 - 0.28 * j as f64 / (NUM_LFS - 1) as f64
}

/// The serving suite as wire-expressible specs: one KEYWORD LF per cue
/// word. `variant` changes the keyword list (and so the content tag)
/// without changing the votes, which is what a `REFRESH EDIT` submits.
pub fn lf_spec(j: usize, variant: u64) -> String {
    let p = polarity(j);
    let extra = if variant == 0 {
        String::new()
    } else {
        format!(",alt{variant}")
    };
    format!("lf_kw{j:02} KEYWORD {p} {} cue{j:02}{extra}", -p)
}

/// One candidate sentence from the planted model: a hidden label, a
/// span order, then each cue word present with a probability that makes
/// its LF right `accuracy(j)` of the time.
pub fn sentence(rng: &mut StdRng) -> IngestRow {
    let y: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
    let forward = rng.gen_bool(0.7);
    let dir: i8 = if forward { 1 } else { -1 };
    let mut words = vec![format!("chem{}", rng.gen_range(0..50u32))];
    words.push(format!("fill{}", rng.gen_range(0..30u32)));
    for j in 0..NUM_LFS {
        let right = polarity(j) * dir == y;
        let acc = accuracy(j);
        if rng.gen_bool(0.4 * if right { acc } else { 1.0 - acc }) {
            words.push(format!("cue{j:02}"));
        }
        if rng.gen_bool(0.1) {
            words.push(format!("fill{}", rng.gen_range(0..30u32)));
        }
    }
    words.push(format!("dis{}", rng.gen_range(0..40u32)));
    let last = words.len() - 1;
    let (a, b) = ((0, 1), (last, last + 1));
    let text = words.join(" ");
    if forward {
        (a, b, text)
    } else {
        (b, a, text)
    }
}

/// The corpus a serving session is primed on.
pub fn serve_corpus(seed: u64) -> Corpus {
    let mut rng = rng(seed, 1);
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("bench");
    for _ in 0..SERVE_ROWS {
        let (s1, s2, text) = sentence(&mut rng);
        let sent = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(sent, s1.0, s1.1, None);
        let b = corpus.add_span(sent, s2.0, s2.1, None);
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

/// A uniformly drawn non-empty vote signature over the 20-LF suite.
pub fn signature(rng: &mut StdRng) -> VoteRow {
    loop {
        let mut cols = Vec::new();
        let mut votes = Vec::new();
        for j in 0..NUM_LFS as u32 {
            if rng.gen_bool(0.4) {
                cols.push(j);
                votes.push(if rng.gen_bool(0.5) { 1 } else { -1 });
            }
        }
        if !cols.is_empty() {
            return (cols, votes);
        }
    }
}

/// The fixed working set of `read_hot`: 64 distinct signatures.
pub fn hot_signatures(seed: u64) -> Vec<VoteRow> {
    let mut rng = rng(seed, 2);
    let mut sigs: Vec<VoteRow> = Vec::with_capacity(HOT_SIGNATURES);
    while sigs.len() < HOT_SIGNATURES {
        let sig = signature(&mut rng);
        if !sigs.contains(&sig) {
            sigs.push(sig);
        }
    }
    sigs
}

/// Feature names shaped like `TextFeaturizer`'s for one sentence.
pub fn feature_row(rng: &mut StdRng) -> Vec<String> {
    let (a, _, text) = sentence(rng);
    let words: Vec<&str> = text.split(' ').collect();
    let mut names: Vec<String> = words.iter().map(|w| format!("u={w}")).collect();
    names.extend(words[1..words.len() - 1].iter().map(|w| format!("btw={w}")));
    names.push(format!("order={}", a.0 == 0));
    names
}

/// One request as the load generator holds it before encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Binary `OP_MARGINAL` batch.
    Marginal(Vec<VoteRow>),
    /// Binary `OP_PREDICT` batch.
    Predict(Vec<Vec<String>>),
    /// Binary `OP_INGEST` batch.
    Ingest(Vec<IngestRow>),
    /// One text-plane request line (no newline).
    Text(String),
}

impl Request {
    /// The bytes that go on the wire.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Marginal(rows) => frame::encode_marginal(rows),
            Request::Predict(rows) => frame::encode_predict(rows),
            Request::Ingest(rows) => frame::encode_ingest(rows),
            Request::Text(line) => format!("{line}\n").into_bytes(),
        }
    }

    /// Rows the server answers (or ingests) for this request; control
    /// verbs (`STATS`, `REFRESH`, `SNAPSHOT`) carry none.
    pub fn rows(&self) -> usize {
        match self {
            Request::Marginal(rows) => rows.len(),
            Request::Predict(rows) => rows.len(),
            Request::Ingest(rows) => rows.len(),
            Request::Text(_) => match self.kind() {
                "text.MARGINAL" | "text.APPLY" | "text.PREDICT_TEXT" => 1,
                _ => 0,
            },
        }
    }

    /// Stage-table label: the verb, with a `bin.`/`text.` plane prefix.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Marginal(_) => "bin.MARGINAL",
            Request::Predict(_) => "bin.PREDICT",
            Request::Ingest(_) => "bin.INGEST",
            Request::Text(line) => match line.split(' ').next().unwrap_or("") {
                "MARGINAL" => "text.MARGINAL",
                "APPLY" => "text.APPLY",
                "PREDICT_TEXT" => "text.PREDICT_TEXT",
                "STATS" => "text.STATS",
                "REFRESH" => "text.REFRESH",
                "SNAPSHOT" => "text.SNAPSHOT",
                _ => "text.OTHER",
            },
        }
    }
}

/// A pre-generated request pool and the order it is cycled in. Pools
/// are built during set-up so that generating a request costs the load
/// thread an index increment, not string formatting — the measured loop
/// should spend its time in the system, not in the generator.
pub struct Stream {
    pool: Vec<Request>,
    schedule: Vec<u32>,
    at: usize,
}

impl Stream {
    fn in_order(pool: Vec<Request>) -> Stream {
        let schedule = (0..pool.len() as u32).collect();
        Stream {
            pool,
            schedule,
            at: 0,
        }
    }

    /// The next request; wraps around at the end of the schedule.
    pub fn next(&mut self) -> &Request {
        let request = &self.pool[self.schedule[self.at] as usize];
        self.at = (self.at + 1) % self.schedule.len();
        request
    }
}

/// Distinct `OP_MARGINAL` and `OP_PREDICT` batches per `read_cold`
/// connection. 2 × 8 192 × 32 rows is 8× `MEMO_CAP`, and the memo never
/// evicts, so cycling the pool stays all-miss.
pub const COLD_MARGINAL_BATCHES: usize = 8_192;
pub const COLD_PREDICT_BATCHES: usize = 1_024;

/// Requests in the follower connection's pool (a multiple of the
/// 40-request verb cycle, so wrapping keeps the pattern).
pub const FOLLOWER_POOL: usize = 4_000;

fn marginal_batch(rng: &mut StdRng, rows: usize) -> Request {
    Request::Marginal((0..rows).map(|_| signature(rng)).collect())
}

/// `read_hot`, connection `conn`: batches of 32 rows sliding over the
/// 64 hot signatures, starting at a seed-drawn offset.
pub fn read_hot_stream(seed: u64, conn: u64) -> Stream {
    let sigs = hot_signatures(seed);
    let first = rng(seed, 10 + conn).gen_range(0..HOT_SIGNATURES);
    Stream::in_order(
        (0..HOT_SIGNATURES)
            .map(|b| {
                Request::Marginal(
                    (0..READ_BATCH)
                        .map(|i| sigs[(first + b + i) % HOT_SIGNATURES].clone())
                        .collect(),
                )
            })
            .collect(),
    )
}

/// `read_cold`, connection `conn`: seed-drawn signatures from the 3^20
/// space alternating with hashed-feature `OP_PREDICT` batches.
pub fn read_cold_stream(seed: u64, conn: u64) -> Stream {
    let mut rng = rng(seed, 20 + conn);
    let mut pool: Vec<Request> = (0..COLD_MARGINAL_BATCHES)
        .map(|_| marginal_batch(&mut rng, READ_BATCH))
        .collect();
    pool.extend(
        (0..COLD_PREDICT_BATCHES)
            .map(|_| Request::Predict((0..READ_BATCH).map(|_| feature_row(&mut rng)).collect())),
    );
    let schedule = (0..COLD_MARGINAL_BATCHES)
        .flat_map(|m| [m, COLD_MARGINAL_BATCHES + m % COLD_PREDICT_BATCHES])
        .map(|i| i as u32)
        .collect();
    Stream {
        pool,
        schedule,
        at: 0,
    }
}

/// `read_cold` warm-up for connection `conn`: signatures from a stream
/// of its own, enough (with the other connection's) to fill the memo to
/// its cap with entries the measured pool will not repeat.
pub fn cold_warmup(seed: u64, conn: u64, batches: usize) -> Vec<Request> {
    let mut rng = rng(seed, 25 + conn);
    (0..batches)
        .map(|_| marginal_batch(&mut rng, READ_BATCH))
        .collect()
}

/// `MARGINAL` text line for one signature.
fn marginal_line((cols, votes): &VoteRow) -> String {
    let entries: Vec<String> = cols
        .iter()
        .zip(votes)
        .map(|(c, v)| format!("{c}:{v}"))
        .collect();
    format!("MARGINAL {}", entries.join(","))
}

fn spans_and_text(((s1, e1), (s2, e2), text): &IngestRow) -> String {
    format!("{s1} {e1} {s2} {e2} {text}")
}

/// `replicated_mixed`, connection B (follower): the pooled read mix.
pub fn follower_stream(seed: u64) -> Stream {
    Stream::in_order(follower_requests(seed, FOLLOWER_POOL))
}

/// The first `n` requests of the follower read mix: four verbs cycling,
/// a `STATS` lag probe as every 10th request.
pub fn follower_requests(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = rng(seed, 30);
    let mut verb = 0u64;
    (1..=n)
        .map(|k| {
            if k.is_multiple_of(10) {
                return Request::Text("STATS".into());
            }
            verb += 1;
            match verb % 4 {
                1 => marginal_batch(&mut rng, FOLLOWER_BATCH),
                2 => Request::Text(marginal_line(&signature(&mut rng))),
                3 => Request::Text(format!("APPLY {}", spans_and_text(&sentence(&mut rng)))),
                _ => Request::Text(format!(
                    "PREDICT_TEXT {}",
                    spans_and_text(&sentence(&mut rng))
                )),
            }
        })
        .collect()
}

/// `replicated_mixed`, connection A (leader): the fixed writer script.
/// `ops` requests: `OP_INGEST` batches of 16, a `REFRESH EDIT` as every
/// 2 000th op, one `SNAPSHOT <path>` at the midpoint.
pub fn writer_script(seed: u64, ops: usize, snapshot_path: &str) -> Vec<Request> {
    let mut rng = rng(seed, 40);
    (1..=ops)
        .map(|k| {
            if k == ops / 2 {
                Request::Text(format!("SNAPSHOT {snapshot_path}"))
            } else if k.is_multiple_of(REFRESH_EVERY) {
                let j = rng.gen_range(0..NUM_LFS);
                Request::Text(format!("REFRESH EDIT {}", lf_spec(j, k as u64)))
            } else {
                ingest_batch(&mut rng)
            }
        })
        .collect()
}

/// One `OP_INGEST` batch of 16 generated sentences.
pub fn ingest_batch(rng: &mut StdRng) -> Request {
    Request::Ingest((0..INGEST_BATCH).map(|_| sentence(rng)).collect())
}

/// One step of the `pipeline_dev` dev loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Replace LF `lf` by a refinement abstaining on a `salt`-chosen tenth.
    Edit { lf: usize, salt: u64 },
    /// Add a refined copy of LF `lf` under a new name.
    Add { lf: usize, salt: u64 },
    /// Remove the LF the last `Add` added.
    Remove,
}

/// The dev-loop script: three in-place edits, an add, three edits, a
/// remove, repeating, over seed-chosen LFs. The run cycles through it
/// for as long as it has time.
pub fn edit_script(seed: u64, num_lfs: usize, len: usize) -> Vec<EditOp> {
    let mut rng = rng(seed, 50);
    (0..len)
        .map(|k| {
            let lf = rng.gen_range(0..num_lfs);
            let salt = rng.gen_range(0..u64::MAX);
            match k % 8 {
                3 => EditOp::Add { lf, salt },
                7 => EditOp::Remove,
                _ => EditOp::Edit { lf, salt },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mut stream: Stream, n: usize) -> Vec<u8> {
        (0..n).flat_map(|_| stream.next().encode()).collect()
    }

    fn script_bytes(seed: u64) -> Vec<u8> {
        writer_script(seed, 4_100, "mid.snap")
            .iter()
            .flat_map(Request::encode)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_and_different_seeds_differ() {
        for (a, b, other) in [
            (
                take(read_hot_stream(7, 0), 200),
                take(read_hot_stream(7, 0), 200),
                take(read_hot_stream(8, 0), 200),
            ),
            (
                take(read_cold_stream(7, 1), 200),
                take(read_cold_stream(7, 1), 200),
                take(read_cold_stream(8, 1), 200),
            ),
            (
                take(follower_stream(7), 200),
                take(follower_stream(7), 200),
                take(follower_stream(8), 200),
            ),
            (script_bytes(7), script_bytes(7), script_bytes(8)),
        ] {
            assert_eq!(a, b, "same seed must give byte-identical requests");
            assert_ne!(a, other, "different seeds must differ");
        }
        assert_eq!(edit_script(7, 33, 64), edit_script(7, 33, 64));
        assert_ne!(edit_script(7, 33, 64), edit_script(8, 33, 64));
        let corpus = |seed| {
            let c = serve_corpus(seed);
            c.candidate_ids()
                .map(|id| c.candidate(id).sentence().text().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(corpus(7), corpus(7));
        assert_ne!(corpus(7), corpus(8));
    }

    #[test]
    fn the_two_connections_of_a_workload_send_different_streams() {
        assert_ne!(
            take(read_cold_stream(7, 0), 50),
            take(read_cold_stream(7, 1), 50)
        );
    }

    #[test]
    fn writer_script_has_the_fixed_shape() {
        let script = writer_script(3, 6_000, "mid.snap");
        assert_eq!(script.len(), 6_000);
        let kinds: Vec<&str> = script.iter().map(Request::kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "text.REFRESH").count(), 3);
        assert_eq!(kinds[2_999], "text.SNAPSHOT");
        assert_eq!(kinds.iter().filter(|k| **k == "text.SNAPSHOT").count(), 1);
        assert!(script
            .iter()
            .all(|r| !matches!(r, Request::Ingest(rows) if rows.len() != INGEST_BATCH)));
    }

    #[test]
    fn hot_signatures_are_distinct_and_edit_specs_change_the_tag() {
        let sigs = hot_signatures(5);
        assert_eq!(sigs.len(), HOT_SIGNATURES);
        for (i, s) in sigs.iter().enumerate() {
            assert!(!sigs[..i].contains(s));
        }
        let base = snorkel_serve::LfSpec::parse(&lf_spec(4, 0)).expect("spec parses");
        let edit = snorkel_serve::LfSpec::parse(&lf_spec(4, 9)).expect("spec parses");
        assert_eq!(base.name(), edit.name());
        assert_ne!(base.content_tag(), edit.content_tag());
    }
}
