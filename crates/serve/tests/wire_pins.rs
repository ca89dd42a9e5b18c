//! Byte pins for every binary encoding the serve layer emits: a
//! hand-built snapshot carrying all seven sections, one WAL record body
//! per op shape, and every `frame::encode_*` request and reply.
//!
//! Each encoding is pinned by its FNV-1a digest and length. The inputs
//! are fixed values — nothing is trained or sized by the core count —
//! so a moved pin means the byte layout changed: a snapshot change
//! takes a `FORMAT_VERSION` bump, a WAL change a `WAL_VERSION` bump and
//! a frame change a `docs/PROTOCOL.md` revision.

use snorkel_context::CandidateId;
use snorkel_core::label_model::LabelModel;
use snorkel_core::model::{ClassBalance, GenerativeModel, ModelParams, TrainConfig};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_disc::{DiscModelParts, DistillConfig, TextFeaturizer};
use snorkel_incr::{CacheStats, Fingerprint, FrozenCache, FrozenColumn, FrozenDisc, FrozenSession};
use snorkel_serve::frame::{self, IngestRow, VoteRow};
use snorkel_serve::repl::wal::{self, Op};
use snorkel_serve::{LfSpec, ReplMark, Snapshot, SuiteEdit};
use snorkel_stream::{DriftConfig, FrozenStream, WindowStats};

/// FNV-1a 64, reimplemented so the pins do not lean on the code under
/// test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Assert every `(name, bytes, digest, len)` pin, reporting all the
/// moved ones at once.
fn check_pins(pins: &[(&str, Vec<u8>, u64, usize)]) {
    let moved: Vec<String> = pins
        .iter()
        .filter(|(_, bytes, digest, len)| fnv1a(bytes) != *digest || bytes.len() != *len)
        .map(|(name, bytes, _, _)| format!("{name}: {:#018x}, {}", fnv1a(bytes), bytes.len()))
        .collect();
    assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
}

/// A session image with every optional part present, over two LFs and
/// three binary candidates.
fn full_snapshot() -> Snapshot {
    let model = GenerativeModel::from_params(ModelParams {
        cardinality: 2,
        num_lfs: 2,
        w_lab: vec![-1.25, 0.75],
        w_acc: vec![1.5, -0.125],
        corr_pairs: vec![(0, 1)],
        w_corr: vec![0.625],
        corr_strength: vec![0.5],
        b_class: vec![0.375, -0.375],
    })
    .expect("valid generative params");
    let disc = FrozenDisc {
        config: DiscTrainerConfig {
            featurizer: TextFeaturizer {
                buckets: 16,
                window: 3,
                bigrams: true,
            },
            train: DistillConfig {
                dim: 16,
                epochs: 4,
                learning_rate: 0.125,
                l2: 0.0625,
                batch_size: 8,
                seed: 99,
                min_confidence: 0.5,
            },
        },
        model: DiscModelParts {
            dim: 16,
            class_weights: vec![vec![(1, 0.5), (7, -0.25)]],
            bias: vec![0.125],
        },
        generation: 2,
    };
    let stream = FrozenStream {
        config: DriftConfig {
            window_rows: 64,
            ring_windows: 4,
            threshold: 0.25,
        },
        reference: Some(WindowStats {
            rows: 3,
            votes: vec![1, 2],
            agree_mv: vec![1, 1],
            total_mv: vec![1, 2],
        }),
        batches: 2,
        rows: 3,
        auto_refits: 1,
        drift_score: 0.375,
        per_lf_scores: vec![0.25, 0.375],
    };
    Snapshot {
        session: FrozenSession {
            candidates: [0, 1, 5].map(CandidateId::from_index).to_vec(),
            versions: vec![("lf_a".into(), 2), ("lf_b".into(), 1)],
            suite: vec![
                ("lf_a".into(), Fingerprint(0xA1)),
                ("lf_b".into(), Fingerprint(0xB2)),
            ],
            cache: FrozenCache {
                capacity: 8,
                stats: CacheStats {
                    hits: 5,
                    misses: 2,
                    extensions: 1,
                    evictions: 0,
                },
                columns: vec![
                    FrozenColumn {
                        fingerprint: Fingerprint(0xA1),
                        rows: 3,
                        entries: vec![(0, 1)],
                    },
                    FrozenColumn {
                        fingerprint: Fingerprint(0xB2),
                        rows: 3,
                        entries: vec![(0, -1), (1, 1)],
                    },
                ],
            },
            lambda_rows: 3,
            model: Some(LabelModel::Generative(model)),
            last_fingerprints: vec![Fingerprint(0xA1), Fingerprint(0xB2)],
            last_gm_strategy: Some((
                ModelingStrategy::GenerativeModel {
                    epsilon: 0.5,
                    correlations: vec![(0, 1)],
                    strengths: vec![0.75],
                },
                vec!["lf_a".into(), "lf_b".into()],
            )),
            refresh_generation: 3,
            disc: Some(disc),
            stream: Some(stream),
        },
        train: TrainConfig {
            class_balance: ClassBalance::Fixed(vec![0.25, 0.75]),
            ..TrainConfig::default()
        },
        repl: Some(ReplMark {
            applied_lsn: 17,
            generation: 4,
        }),
    }
}

#[test]
fn snapshot_with_every_section_is_pinned() {
    let bytes = full_snapshot().to_bytes();
    assert_eq!(
        u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
        7,
        "all seven sections present"
    );
    check_pins(&[("snapshot", bytes.clone(), 0x7a2f_0889_3417_3204, 1123)]);
    let back = Snapshot::from_bytes(&bytes).expect("pinned bytes parse");
    assert_eq!(back.to_bytes(), bytes, "re-encodes to the same bytes");
}

#[test]
fn wal_bodies_are_pinned() {
    let spec = |text: &str| LfSpec::parse(text).expect("valid LF spec");
    let rows: Vec<IngestRow> = vec![
        ((0, 1), (2, 3), "magnesium causes weakness".into()),
        ((1, 2), (4, 5), "low iron level treats nothing".into()),
    ];
    let ops = [
        ("refresh", Op::Refresh(None), 0x0f5a_4976_7f92_967a, 18),
        (
            "refresh add",
            Op::Refresh(Some(SuiteEdit::Add(spec(
                "lf_causes KEYWORD 1 -1 causes,caused",
            )))),
            0x6563_37e1_05ff_dadb,
            62,
        ),
        (
            "refresh edit",
            Op::Refresh(Some(SuiteEdit::Edit(spec("lf_causes KEYWORD 1 -1 causes")))),
            0xfebc_9bd5_5342_17ae,
            55,
        ),
        (
            "refresh remove",
            Op::Refresh(Some(SuiteEdit::Remove("lf_causes".into()))),
            0x9e76_e922_0bf3_b6f1,
            35,
        ),
        ("ingest", Op::Ingest(rows), 0x8e9b_2af1_48d2_bf9e, 155),
        ("seal", Op::Seal, 0x078a_515f_9c3f_4b38, 17),
    ];
    let pins: Vec<_> = ops
        .iter()
        .map(|(name, op, digest, len)| {
            let body = wal::encode_body(41, 7, op);
            let back = wal::Record::decode_body(&body).expect("own body decodes");
            assert_eq!(&back.op, op, "{name} round trip");
            (*name, body, *digest, *len)
        })
        .collect();
    check_pins(&pins);
}

#[test]
fn frames_are_pinned() {
    let votes: Vec<VoteRow> = vec![(vec![0, 3], vec![1, -1]), (vec![2], vec![1])];
    let feats = vec![
        vec!["btw=cause".to_string(), "u=x".to_string()],
        vec!["héllo".to_string()],
    ];
    let ingest: Vec<IngestRow> = vec![((0, 1), (2, 3), "a causes b".into())];
    let probs = vec![
        vec![0.25, 0.75],
        vec![f64::from_bits(0x7FF8_0000_0000_1234), -0.0],
    ];
    let flat: Vec<f64> = probs.iter().flatten().copied().collect();
    let into = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut out = Vec::new();
        f(&mut out);
        out
    };
    check_pins(&[
        ("ping", frame::encode_ping(), 0x3d08_ce29_976c_43b3, 6),
        (
            "marginal",
            frame::encode_marginal(&votes),
            0xd41a_70c9_7cbb_9b0e,
            33,
        ),
        (
            "predict",
            frame::encode_predict(&feats),
            0x3ba0_a7d4_a72b_e750,
            60,
        ),
        (
            "ingest",
            frame::encode_ingest(&ingest),
            0x65ec_bad9_91d4_82ae,
            60,
        ),
        (
            "log subscribe",
            frame::encode_log_subscribe(42),
            0x84e6_ce20_418d_7e3d,
            14,
        ),
        ("pong", frame::encode_pong(9), 0x7604_e0c3_71ad_fed1, 15),
        (
            "marginal reply",
            frame::encode_marginal_reply(7, &probs),
            0xe809_5923_dadb_2323,
            59,
        ),
        (
            "predict reply",
            frame::encode_predict_reply(7, 5, &probs),
            0xc0b5_464b_5a88_3915,
            67,
        ),
        (
            "ingest reply",
            frame::encode_ingest_reply(9, 32, 1024, true, 0.375, false),
            0x54f0_27dd_737c_5096,
            41,
        ),
        (
            "sub ack",
            frame::encode_sub_ack(42, 99, 7),
            0x32a6_492c_b414_6c3a,
            31,
        ),
        ("err", frame::encode_err("nope"), 0x93f3_9351_046f_caaf, 18),
        (
            "log record",
            into(&|out| frame::encode_log_record_into(&[1, 2, 3, 0xFF], out)),
            0x60df_bf9a_235e_9eac,
            19,
        ),
        (
            "heartbeat",
            into(&|out| frame::encode_heartbeat_into(12, 3, out)),
            0x6218_8976_d8b1_010d,
            23,
        ),
        (
            "marginal reply flat",
            into(&|out| frame::encode_marginal_reply_flat_into(7, &flat, 2, out)),
            0xe809_5923_dadb_2323,
            59,
        ),
        (
            "predict reply flat",
            into(&|out| frame::encode_predict_reply_flat_into(7, 5, &flat, 2, out)),
            0xc0b5_464b_5a88_3915,
            67,
        ),
    ]);
}
