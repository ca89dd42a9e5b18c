//! The iterative LF-development loop (paper §2.1, appendix C), run on
//! the incremental engine: grow and edit a labeling-function suite
//! inside an [`snorkel::incr::IncrementalSession`], and watch each
//! `refresh()` recompute only what the edit touched — cached columns,
//! delta Λ patches and structure-sweep reuse; the exact fit is cold, so
//! the edit step prints `warm-start false` — while the optimizer
//! (Algorithm 1) decides on every turn whether generative training is
//! worth it yet.
//!
//! Run with: `cargo run --release --example interactive_dev_loop`

use snorkel::core::optimizer::{ModelingStrategy, OptimizerConfig};
use snorkel::datasets::{cdr, TaskConfig};
use snorkel::incr::{IncrementalSession, SessionConfig};
use snorkel::lf::{lf, LfExecutor};
use snorkel::matrix::stats::{empirical_accuracies, matrix_stats};

fn main() {
    let task = cdr::build(TaskConfig {
        num_candidates: 1200,
        seed: 1,
    });
    let train_ids: Vec<_> = task.train.iter().map(|&r| task.candidates[r]).collect();
    let dev_ids: Vec<_> = task.dev.iter().map(|&r| task.candidates[r]).collect();
    let dev_gold = task.gold_of(&task.dev);

    // Per-LF diagnostics on the dev split — computed up front, before the
    // corpus and suite move into the session; printed at the end. (This
    // is what a user reads before deciding which LF to refine next.)
    let lambda_dev = LfExecutor::new().apply(&task.lfs[..12], &task.corpus, &dev_ids);
    let dev_stats = matrix_stats(&lambda_dev);
    let dev_accs = empirical_accuracies(&lambda_dev, &dev_gold);
    let dev_names: Vec<String> = task.lfs[..12]
        .iter()
        .map(|f| f.name().to_string())
        .collect();

    let mut session = IncrementalSession::new(
        task.corpus,
        SessionConfig {
            optimizer: OptimizerConfig {
                skip_structure_search: true,
                ..OptimizerConfig::default()
            },
            ..SessionConfig::default()
        },
    );
    session.ingest_candidates(&train_ids);

    // Simulate development: start with 3 LFs, grow the suite in stages.
    // Each refresh only executes the columns added since the last one.
    let mut lfs = task.lfs.into_iter();
    let mut suite_size = 0usize;
    println!("-- growing the suite (each refresh executes only the new columns):");
    for stage in [3usize, 8, 15, 23, 33] {
        for (j, f) in (&mut lfs).take(stage - suite_size).enumerate() {
            session.add_lf_tagged(f, (suite_size + j) as u64);
        }
        suite_size = stage;
        let (_, report) = session.refresh();
        let stats = matrix_stats(session.label_matrix().expect("refreshed"));
        println!(
            "   {stage:2} LFs: coverage {:3.0}%, conflicts {:2.0}%, density {:5.2}, A~* {:.3} → {:24} | {} col(s) executed, {} cached, {:?}",
            100.0 * stats.coverage,
            100.0 * stats.conflict_rate,
            stats.label_density,
            report.predicted_advantage,
            match report.strategy {
                ModelingStrategy::MajorityVote => "majority vote is enough",
                ModelingStrategy::MomentMatching => "moment-match the accuracies",
                ModelingStrategy::GenerativeModel { .. } => "train the generative model",
            },
            report.columns_recomputed,
            report.columns_reused,
            report.timings.total,
        );
    }

    // The edit loop: refine one LF; only its column re-executes and
    // training restarts warm from the previous model.
    println!("\n-- editing one LF out of {suite_size}:");
    let name = session.lf_names()[4].to_string();
    session.edit_lf(lf(name.clone(), |x| {
        if x.words_between(0, 1).contains(&"induced") {
            1
        } else {
            0
        }
    }));
    let (_, report) = session.refresh();
    println!(
        "   edited {name:?}: {} column re-executed, {} served from cache, warm-start {}, {} train iters, refresh {:?}",
        report.columns_recomputed,
        report.columns_reused,
        report.warm_started,
        report.fit_epochs,
        report.timings.total,
    );
    let s = session.cache_stats();
    println!(
        "   cache: {} hits, {} misses, {} extensions so far",
        s.hits, s.misses, s.extensions
    );

    println!("\nper-LF dev diagnostics (first 12 LFs):");
    println!(
        "{:26} {:>6} {:>8} {:>8} {:>8}",
        "LF", "votes", "coverage", "conflict", "dev acc"
    );
    for (j, name) in dev_names.iter().enumerate() {
        println!(
            "{:26} {:>6} {:>7.1}% {:>7.1}% {:>8}",
            name,
            dev_stats.lfs[j].num_votes,
            100.0 * dev_stats.lfs[j].coverage,
            100.0 * dev_stats.lfs[j].conflict,
            dev_accs[j].map_or("-".to_string(), |a| format!("{:.0}%", 100.0 * a)),
        );
    }
}
