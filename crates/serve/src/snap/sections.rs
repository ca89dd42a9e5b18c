//! One encode/decode pair per snapshot section. The container in
//! [`super`] frames the payloads, checksums them and rejects trailing
//! bytes after each decoder returns; the layouts are specified in
//! `docs/SNAPSHOT_FORMAT.md`.

use snorkel_context::CandidateId;
use snorkel_core::label_model::{LabelModel, MajorityVoteModel, MomentModel};
use snorkel_core::model::{
    ClassBalance, GenerativeModel, LabelScheme, ModelParams, ParamsError, TrainConfig,
};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_disc::{DiscModelParts, DistillConfig, TextFeaturizer};
use snorkel_incr::{CacheStats, Fingerprint, FrozenCache, FrozenColumn, FrozenDisc, FrozenSession};
use snorkel_matrix::Vote;
use snorkel_stream::{DriftConfig, FrozenStream, WindowStats};

use super::{corrupt, SnapError};
use crate::repl::ReplMark;
use crate::wire::{Field, Reader, Writer};

/// Backend tag bytes of the `MODL` section.
const MODEL_TAG_GENERATIVE: u8 = 1;
const MODEL_TAG_MAJORITY_VOTE: u8 = 2;
const MODEL_TAG_MOMENT: u8 = 3;

/// A candidate row travels as its `u32` index.
impl Field for CandidateId {
    const MIN_BYTES: usize = u32::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        (self.index() as u32).put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        Ok(CandidateId::from_index(u32::get(r, context)? as usize))
    }
}

impl Field for Fingerprint {
    const MIN_BYTES: usize = u64::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, SnapError> {
        Ok(Fingerprint(u64::get(r, context)?))
    }
}

impl Field for FrozenColumn {
    const MIN_BYTES: usize =
        Fingerprint::MIN_BYTES + usize::MIN_BYTES + Vec::<(u32, Vote)>::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        w.put(&self.fingerprint);
        w.put(&self.rows);
        w.put(&self.entries);
    }

    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, SnapError> {
        Ok(FrozenColumn {
            fingerprint: r.get("column fingerprint")?,
            rows: r.get("column rows")?,
            entries: r.get("column entries")?,
        })
    }
}

/// `SESS`: candidates, version counters, suite layout, last-refresh
/// fingerprint layout, Λ's row count and strategy, and the
/// refresh-generation counter
/// (the disc staleness anchor). The container fills in the other
/// sections' parts.
pub(super) fn enc_session_meta(s: &FrozenSession) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(&s.candidates);
    w.put(&s.versions);
    w.put(&s.suite);
    w.put(&s.last_fingerprints);
    w.put(&s.lambda_rows);
    match &s.last_gm_strategy {
        None => w.put(&0u8),
        Some((strategy, layout)) => {
            match strategy {
                ModelingStrategy::MajorityVote => w.put(&1u8),
                ModelingStrategy::MomentMatching => w.put(&3u8),
                ModelingStrategy::GenerativeModel {
                    epsilon,
                    correlations,
                    strengths,
                } => {
                    w.put(&2u8);
                    w.put(epsilon);
                    w.put(correlations);
                    w.put(strengths);
                }
            }
            w.put(layout);
        }
    }
    w.put(&s.refresh_generation);
    w.into_bytes()
}

pub(super) fn dec_session_meta(r: &mut Reader<'_>) -> Result<FrozenSession, SnapError> {
    let candidates = r.get("candidates")?;
    let versions = r.get("version counters")?;
    let suite = r.get("suite layout")?;
    let last_fingerprints = r.get("fingerprint layout")?;
    let lambda_rows = r.get("lambda rows")?;
    let last_gm_strategy = match r.get::<u8>("strategy tag")? {
        0 => None,
        tag @ 1..=3 => {
            let strategy = match tag {
                1 => ModelingStrategy::MajorityVote,
                3 => ModelingStrategy::MomentMatching,
                _ => ModelingStrategy::GenerativeModel {
                    epsilon: r.get("strategy epsilon")?,
                    correlations: r.get("correlations")?,
                    strengths: r.get("correlation strengths")?,
                },
            };
            Some((strategy, r.get("strategy layout")?))
        }
        tag => return Err(corrupt(format!("unknown strategy tag {tag}"))),
    };
    Ok(FrozenSession {
        candidates,
        versions,
        suite,
        cache: FrozenCache {
            capacity: 1,
            stats: Default::default(),
            columns: Vec::new(),
        },
        lambda_rows,
        model: None,
        last_fingerprints,
        last_gm_strategy,
        refresh_generation: r.get("refresh generation")?,
        disc: None,
        stream: None,
    })
}

/// `CACH`: the LF-result cache, LRU-first.
pub(super) fn enc_cache(c: &FrozenCache) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(&c.capacity);
    w.put(&c.stats.hits);
    w.put(&c.stats.misses);
    w.put(&c.stats.extensions);
    w.put(&c.stats.evictions);
    w.put(&c.columns);
    w.into_bytes()
}

pub(super) fn dec_cache(r: &mut Reader<'_>) -> Result<FrozenCache, SnapError> {
    Ok(FrozenCache {
        capacity: r.get("cache capacity")?,
        stats: CacheStats {
            hits: r.get("cache hits")?,
            misses: r.get("cache misses")?,
            extensions: r.get("cache extensions")?,
            evictions: r.get("cache evictions")?,
        },
        columns: r.get("cache columns")?,
    })
}

/// `MODL`: backend tag byte, then the backend's state.
pub(super) fn enc_model(m: &LabelModel) -> Vec<u8> {
    let mut w = Writer::new();
    match m {
        LabelModel::Generative(gm) => {
            w.put(&MODEL_TAG_GENERATIVE);
            enc_model_params(&mut w, &gm.to_params());
        }
        LabelModel::MajorityVote(_) => {
            w.put(&MODEL_TAG_MAJORITY_VOTE);
            w.put(&m.scheme().cardinality());
            w.put(&m.num_lfs());
        }
        LabelModel::Moment(mm) => {
            w.put(&MODEL_TAG_MOMENT);
            enc_model_params(&mut w, &mm.to_params());
        }
    }
    w.into_bytes()
}

fn enc_model_params(w: &mut Writer, m: &ModelParams) {
    w.put(&m.cardinality);
    w.put(&m.num_lfs);
    w.put(&m.w_lab);
    w.put(&m.w_acc);
    w.put(&m.corr_pairs);
    w.put(&m.w_corr);
    w.put(&m.corr_strength);
    w.put(&m.b_class);
}

/// Decode the (tagged) model section into the model it encodes,
/// validating it on the way. Unknown backend tags and invalid
/// parameters are typed errors.
pub(super) fn dec_model(r: &mut Reader<'_>) -> Result<LabelModel, SnapError> {
    Ok(match r.get::<u8>("model backend tag")? {
        MODEL_TAG_GENERATIVE => {
            LabelModel::Generative(GenerativeModel::from_params(dec_model_params(r)?)?)
        }
        MODEL_TAG_MAJORITY_VOTE => {
            let cardinality = r.get("model cardinality")?;
            let num_lfs = r.get("model LF count")?;
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
    Ok(ModelParams {
        cardinality: r.get("model cardinality")?,
        num_lfs: r.get("model LF count")?,
        w_lab: r.get("w_lab")?,
        w_acc: r.get("w_acc")?,
        corr_pairs: r.get("corr pairs")?,
        w_corr: r.get("w_corr")?,
        corr_strength: r.get("corr_strength")?,
        b_class: r.get("b_class")?,
    })
}

/// `TCFG`: the training configuration.
pub(super) fn enc_train(t: &TrainConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(&t.epochs);
    w.put(&t.lr_decay);
    w.put(&t.cd_epochs);
    w.put(&t.cd_learning_rate);
    w.put(&t.l2);
    w.put(&t.seed);
    w.put(&t.gibbs_steps);
    w.put(&t.batch_size);
    w.put(&t.tol);
    w.put(&t.init_acc_weight);
    w.put(&t.init_from_majority_vote);
    match &t.class_balance {
        ClassBalance::Uniform => w.put(&0u8),
        ClassBalance::FromMajorityVote => w.put(&1u8),
        ClassBalance::Fixed(p) => {
            w.put(&2u8);
            w.put(p);
        }
    }
    w.put(&t.clamp_nonadversarial);
    w.into_bytes()
}

pub(super) fn dec_train(r: &mut Reader<'_>) -> Result<TrainConfig, SnapError> {
    Ok(TrainConfig {
        epochs: r.get("epochs")?,
        lr_decay: r.get("lr_decay")?,
        cd_epochs: r.get("cd_epochs")?,
        cd_learning_rate: r.get("cd_learning_rate")?,
        l2: r.get("l2")?,
        seed: r.get("seed")?,
        gibbs_steps: r.get("gibbs_steps")?,
        batch_size: r.get("batch_size")?,
        tol: r.get("tol")?,
        init_acc_weight: r.get("init_acc_weight")?,
        init_from_majority_vote: r.get("init_from_majority_vote")?,
        class_balance: match r.get::<u8>("class_balance tag")? {
            0 => ClassBalance::Uniform,
            1 => ClassBalance::FromMajorityVote,
            2 => ClassBalance::Fixed(r.get("class balance")?),
            v => return Err(corrupt(format!("unknown class-balance tag {v}"))),
        },
        clamp_nonadversarial: r.get("clamp_nonadversarial")?,
    })
}

/// `DISC`: the disc model's trained-at generation (staleness survives
/// restarts — `SESS` carries the live counter), the self-contained
/// distillation configuration, and the sparse per-class weights.
pub(super) fn enc_disc(disc: &FrozenDisc) -> Vec<u8> {
    let (f, t) = (&disc.config.featurizer, &disc.config.train);
    let mut w = Writer::new();
    w.put(&disc.generation);
    w.put(&f.buckets);
    w.put(&f.window);
    w.put(&f.bigrams);
    w.put(&t.dim);
    w.put(&t.epochs);
    w.put(&t.learning_rate);
    w.put(&t.l2);
    w.put(&t.batch_size);
    w.put(&t.seed);
    w.put(&t.min_confidence);
    w.put(&disc.model.dim);
    w.put(&disc.model.class_weights);
    w.put(&disc.model.bias);
    w.into_bytes()
}

pub(super) fn dec_disc(r: &mut Reader<'_>) -> Result<FrozenDisc, SnapError> {
    let disc = FrozenDisc {
        generation: r.get("disc generation")?,
        config: DiscTrainerConfig {
            featurizer: TextFeaturizer {
                buckets: r.get("featurizer buckets")?,
                window: r.get("featurizer window")?,
                bigrams: r.get("featurizer bigrams")?,
            },
            train: DistillConfig {
                dim: r.get("distill dim")?,
                epochs: r.get("distill epochs")?,
                learning_rate: r.get("distill learning_rate")?,
                l2: r.get("distill l2")?,
                batch_size: r.get("distill batch_size")?,
                seed: r.get("distill seed")?,
                min_confidence: r.get("distill min_confidence")?,
            },
        },
        model: DiscModelParts {
            dim: r.get("disc model dim")?,
            class_weights: r.get("disc class weights")?,
            bias: r.get("disc bias")?,
        },
    };
    // The hyperparameters retrain the model after thaw — a NaN learning
    // rate or an out-of-range confidence floor would poison the first
    // warm refit silently; refuse it here, typed, like every other
    // structurally invalid snapshot field.
    let t = &disc.config.train;
    if disc.config.featurizer.buckets == 0 || t.dim == 0 {
        return Err(corrupt("disc config: zero hash buckets"));
    }
    if !(t.learning_rate.is_finite() && t.learning_rate > 0.0) {
        return Err(corrupt(format!(
            "disc config: bad learning rate {}",
            t.learning_rate
        )));
    }
    if !(t.l2.is_finite() && t.l2 >= 0.0) {
        return Err(corrupt(format!("disc config: bad l2 {}", t.l2)));
    }
    if !(t.min_confidence.is_finite() && (0.0..1.0).contains(&t.min_confidence)) {
        return Err(corrupt(format!(
            "disc config: bad confidence floor {}",
            t.min_confidence
        )));
    }
    disc.model
        .validate()
        .map_err(|e| corrupt(format!("disc model: {e}")))?;
    Ok(disc)
}

/// `STRM`: the streaming plane's persistent state. The running moment
/// totals are not in it — thawing folds them from Λ's index — and the
/// diagnostic window ring is deliberately not persisted.
pub(super) fn enc_stream(s: &FrozenStream) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(&s.config.window_rows);
    w.put(&s.config.ring_windows);
    w.put(&s.config.threshold);
    match &s.reference {
        None => w.put(&0u8),
        Some(win) => {
            w.put(&1u8);
            w.put(&win.rows);
            w.put(&win.votes);
            w.put(&win.agree_mv);
            w.put(&win.total_mv);
        }
    }
    w.put(&s.batches);
    w.put(&s.rows);
    w.put(&s.auto_refits);
    w.put(&s.drift_score);
    w.put(&s.per_lf_scores);
    w.into_bytes()
}

pub(super) fn dec_stream(r: &mut Reader<'_>) -> Result<FrozenStream, SnapError> {
    let frozen = FrozenStream {
        config: DriftConfig {
            window_rows: r.get("drift window_rows")?,
            ring_windows: r.get("drift ring_windows")?,
            threshold: r.get("drift threshold")?,
        },
        reference: match r.get::<u8>("reference window tag")? {
            0 => None,
            1 => Some(WindowStats {
                rows: r.get("window rows")?,
                votes: r.get("window votes")?,
                agree_mv: r.get("window agree_mv")?,
                total_mv: r.get("window total_mv")?,
            }),
            v => return Err(corrupt(format!("bad reference window tag {v}"))),
        },
        batches: r.get("ingested batches")?,
        rows: r.get("ingested rows")?,
        auto_refits: r.get("auto refits")?,
        drift_score: r.get("drift score")?,
        per_lf_scores: r.get("per-LF drift scores")?,
    };
    // Every invariant the section holds by itself (drift config,
    // reference window, score ranges) is checked here, so a corrupt
    // STRM is a typed snapshot error; its per-LF lengths are checked
    // against Λ when the session thaws.
    frozen
        .validate()
        .map_err(|e| corrupt(format!("STRM: {e}")))?;
    Ok(frozen)
}

/// `REPL`: a fixed 16-byte replication mark — the op-log LSN this image
/// reflects and the server generation at that LSN. A replica restarting
/// from the snapshot resumes its WAL (or its leader subscription) at
/// `applied_lsn + 1` instead of replaying history.
pub(super) fn enc_repl(mark: &ReplMark) -> Vec<u8> {
    let mut w = Writer::new();
    w.put(&mark.applied_lsn);
    w.put(&mark.generation);
    w.into_bytes()
}

pub(super) fn dec_repl(r: &mut Reader<'_>) -> Result<ReplMark, SnapError> {
    Ok(ReplMark {
        applied_lsn: r.get("repl applied lsn")?,
        generation: r.get("repl generation")?,
    })
}
