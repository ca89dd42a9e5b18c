//! # snorkel-bench
//!
//! Harness utilities shared by the per-table / per-figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation section (see DESIGN.md §4 for the index); this
//! library holds the evaluation plumbing they share: the four training
//! arms of Table 3 (distant supervision, generative model, noise-aware
//! discriminative model, hand supervision), the unweighted-average arm
//! of Table 5, and small Markdown/TSV printers.

#![forbid(unsafe_code)]
// The experiment helpers mirror the paper's table columns; bundling their
// eight knobs into config structs would only rename the problem.
#![allow(clippy::too_many_arguments)]

pub mod experiments;
pub mod report;

use snorkel_core::model::{ClassBalance, TrainConfig};
use snorkel_core::optimizer::OptimizerConfig;
use snorkel_core::pipeline::{Pipeline, PipelineConfig};
use snorkel_datasets::RelationTask;
use snorkel_disc::metrics::{precision_recall_f1, Prf};
use snorkel_disc::{LogRegConfig, LogisticRegression, TextFeaturizer};
use snorkel_lf::Vote;
use snorkel_matrix::LabelMatrix;

/// Feature-hash bucket count used by every text model in the harness.
pub const TEXT_BUCKETS: u32 = 1 << 16;

/// Default logistic-regression config for the harness.
pub fn logreg_config() -> LogRegConfig {
    LogRegConfig {
        dim: TEXT_BUCKETS,
        epochs: 12,
        learning_rate: 0.05,
        ..LogRegConfig::default()
    }
}

/// The per-task evaluation of Table 3 (plus the Table 5 arm).
#[derive(Clone, Debug)]
pub struct TextTaskEval {
    /// Task name.
    pub name: String,
    /// Distant-supervision baseline (disc model on DS-derived labels).
    pub distant_supervision: Prf,
    /// Snorkel (Gen.): generative-model predictions on test.
    pub generative: Prf,
    /// Snorkel (Disc.): disc model on the generative model's labels.
    pub discriminative: Prf,
    /// Disc model trained on the *unweighted* LF average (Table 5 arm).
    pub unweighted_disc: Prf,
    /// Hand supervision: disc model on gold training labels.
    pub hand_supervision: Prf,
    /// Training label density.
    pub label_density: f64,
}

/// Classic distant-supervision labels for a task: positive iff any
/// positive-voting DS labeling function fires, else negative. (This is
/// how a KB is used *without* Snorkel — heuristic alignment only.)
pub fn distant_supervision_labels(task: &RelationTask, rows: &[usize]) -> Vec<Vote> {
    let ds = task.lf_indices_of(&[snorkel_datasets::LfType::DistantSupervision]);
    // EHR has no KB; its prior art is the legacy regex labeler.
    let ds = if ds.is_empty() {
        task.lf_indices_of(&[snorkel_datasets::LfType::WeakClassifier])
    } else {
        ds
    };
    let lambda = task.label_matrix_with_lfs(rows, &ds);
    (0..lambda.num_points())
        .map(|i| {
            let (_, votes) = lambda.row(i);
            if votes.contains(&1) {
                1
            } else {
                -1
            }
        })
        .collect()
}

/// Soft labels from the unweighted average of LF outputs (Table 5's
/// "Disc. Model on Unweighted LFs" arm): `p = (mean vote + 1) / 2` over
/// the non-abstaining LFs, 0.5 when everything abstained.
pub fn unweighted_soft_labels(lambda: &LabelMatrix) -> Vec<f64> {
    (0..lambda.num_points())
        .map(|i| {
            let (_, votes) = lambda.row(i);
            if votes.is_empty() {
                0.5
            } else {
                let mean: f64 = votes.iter().map(|&v| v as f64).sum::<f64>() / votes.len() as f64;
                (mean + 1.0) / 2.0
            }
        })
        .collect()
}

/// Pick the decision threshold maximizing F1 on dev scores — the
/// paper's protocol ("hyperparameters selected … using a small labeled
/// development set"); on imbalanced tasks the F1-optimal threshold sits
/// well below 0.5.
pub fn best_f1_threshold(scores: &[f64], gold: &[Vote]) -> f64 {
    let mut best = (0.5, -1.0);
    for i in 1..40 {
        let thr = i as f64 / 40.0;
        let pred: Vec<Vote> = scores
            .iter()
            .map(|&s| if s > thr { 1 } else { -1 })
            .collect();
        let f1 = snorkel_disc::metrics::f1_score(&pred, gold);
        if f1 > best.1 {
            best = (thr, f1);
        }
    }
    best.0
}

/// Hard predictions from scores at a threshold.
pub fn predict_at(scores: &[f64], thr: f64) -> Vec<Vote> {
    scores
        .iter()
        .map(|&s| if s > thr { 1 } else { -1 })
        .collect()
}

/// Run the full four-arm evaluation of one relation-extraction task.
/// Every arm's decision threshold is tuned for F1 on the dev split —
/// the paper's protocol for hyperparameter selection.
pub fn eval_text_task(task: &RelationTask) -> TextTaskEval {
    let featurizer = TextFeaturizer::with_buckets(TEXT_BUCKETS);
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let dev_ids: Vec<_> = task.dev.iter().map(|&r| task.candidates[r]).collect();
    let test_ids: Vec<_> = task.test.iter().map(|&r| task.candidates[r]).collect();
    let x_train = featurizer.featurize_all(&task.corpus, &train_ids);
    let x_dev = featurizer.featurize_all(&task.corpus, &dev_ids);
    let x_test = featurizer.featurize_all(&task.corpus, &test_ids);
    let gold_dev = task.gold_of(&task.dev);
    let gold_test = task.gold_of(&task.test);
    let gold_train = task.gold_of(&task.train);

    let lambda_train = task.train_matrix();
    let lambda_dev = task.label_matrix(&task.dev);
    let lambda_test = task.label_matrix(&task.test);

    // A linear model evaluated with a dev-tuned threshold.
    let eval_model = |model: &LogisticRegression| {
        let thr = best_f1_threshold(&model.predict_proba_all(&x_dev), &gold_dev);
        precision_recall_f1(
            &predict_at(&model.predict_proba_all(&x_test), thr),
            &gold_test,
        )
    };

    // Arm 1: distant supervision.
    let ds_labels = distant_supervision_labels(task, &task.train);
    let mut ds_model = LogisticRegression::new(TEXT_BUCKETS);
    ds_model.fit_hard(&x_train, &ds_labels, &logreg_config());
    let ds_prf = eval_model(&ds_model);

    // Arm 2: Snorkel generative — pipeline chooses the strategy. The
    // label model runs with the paper's uniform class prior; the class
    // imbalance is handled by the dev-tuned decision threshold instead
    // (a fixed informative prior compresses the posteriors of one-sided
    // LFs under the symmetric accuracy factor — see model docs).
    let train_cfg = TrainConfig {
        class_balance: ClassBalance::Uniform,
        ..TrainConfig::default()
    };
    let pipe = Pipeline::new(PipelineConfig {
        optimizer: OptimizerConfig::default(),
        train: train_cfg,
        ..PipelineConfig::default()
    });
    let (soft_rows, report) = pipe.run_from_matrix(&lambda_train);
    let soft: Vec<f64> = soft_rows.iter().map(|r| r[0]).collect();
    // Label-model predictions on test rows (same weights, test votes),
    // thresholded on dev posteriors. Any weighted backend (generative,
    // moment) has real posteriors to threshold; the MV backend does not
    // — score it as the hard majority vote, like the paper.
    let gen_prf = if report.backend == snorkel_core::label_model::BACKEND_MAJORITY_VOTE {
        precision_recall_f1(&snorkel_core::vote::majority_vote(&lambda_test), &gold_test)
    } else {
        let prob_positive = |lambda: &LabelMatrix| -> Vec<f64> {
            report
                .model
                .marginals(lambda, None)
                .into_iter()
                .map(|p| p[0])
                .collect()
        };
        let thr = best_f1_threshold(&prob_positive(&lambda_dev), &gold_dev);
        precision_recall_f1(&predict_at(&prob_positive(&lambda_test), thr), &gold_test)
    };

    // Arm 3: Snorkel discriminative.
    let mut disc = LogisticRegression::new(TEXT_BUCKETS);
    disc.fit(&x_train, &soft, &logreg_config());
    let disc_prf = eval_model(&disc);

    // Table 5 arm: unweighted LF average.
    let unweighted = unweighted_soft_labels(&lambda_train);
    let mut unw_model = LogisticRegression::new(TEXT_BUCKETS);
    unw_model.fit(&x_train, &unweighted, &logreg_config());
    let unw_prf = eval_model(&unw_model);

    // Arm 4: hand supervision (gold training labels).
    let mut hand = LogisticRegression::new(TEXT_BUCKETS);
    hand.fit_hard(&x_train, &gold_train, &logreg_config());
    let hand_prf = eval_model(&hand);

    TextTaskEval {
        name: task.name.clone(),
        distant_supervision: ds_prf,
        generative: gen_prf,
        discriminative: disc_prf,
        unweighted_disc: unw_prf,
        hand_supervision: hand_prf,
        label_density: lambda_train.label_density(),
    }
}

/// Render a Markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Format a PRF triple as `P / R / F1` percentages.
pub fn fmt_prf(p: &Prf) -> String {
    format!(
        "{:.1} / {:.1} / {:.1}",
        100.0 * p.precision,
        100.0 * p.recall,
        100.0 * p.f1
    )
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_soft_labels_map_votes() {
        let mut b = snorkel_matrix::LabelMatrixBuilder::new(3, 2);
        b.set(0, 0, 1);
        b.set(0, 1, 1);
        b.set(1, 0, 1);
        b.set(1, 1, -1);
        let lambda = b.build();
        let soft = unweighted_soft_labels(&lambda);
        assert_eq!(soft, vec![1.0, 0.5, 0.5]);
    }

    #[test]
    fn markdown_is_well_formed() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
