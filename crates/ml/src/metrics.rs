//! Evaluation metrics: accuracy, log-loss, AUC and Pearson correlation.

use serde::{Deserialize, Serialize};

use simdc_data::Dataset;

use crate::model::LrModel;

/// Metrics of a model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EvalMetrics {
    /// Fraction of examples classified correctly at threshold 0.5.
    pub accuracy: f64,
    /// Mean cross-entropy.
    pub log_loss: f64,
    /// Area under the ROC curve (0.5 for a random / constant scorer).
    pub auc: f64,
    /// Number of evaluated examples.
    pub n_examples: usize,
}

/// Evaluates `model` on `data`.
///
/// Returns default (all-zero) metrics for an empty dataset.
#[must_use]
pub fn evaluate(model: &LrModel, data: &Dataset) -> EvalMetrics {
    if data.is_empty() {
        return EvalMetrics::default();
    }
    let mut correct = 0usize;
    let mut loss_sum = 0.0f64;
    let mut scored: Vec<(f64, bool)> = Vec::with_capacity(data.len());
    for example in data.iter() {
        let p = f64::from(model.predict(&example.features));
        let predicted = p >= 0.5;
        if predicted == example.label {
            correct += 1;
        }
        let pc = p.clamp(1e-12, 1.0 - 1e-12);
        loss_sum += if example.label {
            -pc.ln()
        } else {
            -(1.0 - pc).ln()
        };
        scored.push((p, example.label));
    }
    EvalMetrics {
        accuracy: correct as f64 / data.len() as f64,
        log_loss: loss_sum / data.len() as f64,
        auc: auc(&mut scored),
        n_examples: data.len(),
    }
}

/// Rank-based AUC with midrank tie handling.
///
/// Returns 0.5 when either class is absent (an undefined AUC, reported as
/// chance level).
fn auc(scored: &mut [(f64, bool)]) -> f64 {
    let n_pos = scored.iter().filter(|(_, y)| *y).count();
    let n_neg = scored.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // `total_cmp` orders a diverged model's NaN scores instead of
    // panicking; finite scores sort as before, and a tie group's midrank
    // does not depend on the order within it.
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    // Assign midranks to tied scores.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < scored.len() {
        let mut j = i;
        while j + 1 < scored.len() && scored[j + 1].0 == scored[i].0 {
            j += 1;
        }
        // ranks i+1 ..= j+1 share the midrank
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        for item in scored.iter().take(j + 1).skip(i) {
            if item.1 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let n_pos_f = n_pos as f64;
    let n_neg_f = n_neg as f64;
    (rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg_f)
}

/// Pearson correlation coefficient between two equal-length series.
///
/// This is the similarity measure Table II reports between user-defined
/// traffic curves and DeviceFlow's actual dispatch amounts. Re-exported
/// from [`simdc_simrt`] so non-ML crates share one implementation.
pub use simdc_simrt::pearson_correlation;

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_data::{Example, FeatureVec};

    fn dataset() -> Dataset {
        (0..100)
            .map(|i| {
                Example::new(
                    FeatureVec::from_indices(vec![if i % 2 == 0 { 0 } else { 1 }]),
                    i % 2 == 0,
                )
            })
            .collect()
    }

    fn good_model() -> LrModel {
        let mut m = LrModel::zeros(2);
        m.weights_mut()[0] = 4.0;
        m.weights_mut()[1] = -4.0;
        m
    }

    #[test]
    fn perfect_model_scores_perfectly() {
        let m = evaluate(&good_model(), &dataset());
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.auc, 1.0);
        assert!(m.log_loss < 0.05);
        assert_eq!(m.n_examples, 100);
    }

    #[test]
    fn zero_model_is_chance_level() {
        let m = evaluate(&LrModel::zeros(2), &dataset());
        assert_eq!(m.auc, 0.5);
        assert!((m.log_loss - (2.0f64).ln().abs()).abs() < 1e-9);
        // p = 0.5 → predicted positive for all; accuracy = positive rate.
        assert_eq!(m.accuracy, 0.5);
    }

    #[test]
    fn inverted_model_has_auc_zero() {
        let mut m = LrModel::zeros(2);
        m.weights_mut()[0] = -4.0;
        m.weights_mut()[1] = 4.0;
        let metrics = evaluate(&m, &dataset());
        assert_eq!(metrics.auc, 0.0);
        assert_eq!(metrics.accuracy, 0.0);
    }

    #[test]
    fn a_diverged_model_evaluates_without_panicking() {
        let mut m = LrModel::zeros(2);
        m.weights_mut()[0] = f32::NAN;
        let metrics = evaluate(&m, &dataset());
        assert_eq!(metrics.n_examples, 100);
        assert!(metrics.log_loss.is_nan());
        assert!((0.0..=1.0).contains(&metrics.auc));
    }

    #[test]
    fn empty_dataset_gives_default_metrics() {
        let m = evaluate(&LrModel::zeros(2), &Dataset::new());
        assert_eq!(m, EvalMetrics::default());
    }

    #[test]
    fn auc_single_class_is_half() {
        let ds: Dataset = (0..5)
            .map(|_| Example::new(FeatureVec::from_indices(vec![0]), true))
            .collect();
        assert_eq!(evaluate(&LrModel::zeros(1), &ds).auc, 0.5);
    }

    #[test]
    fn pearson_of_identical_series_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson_correlation(&xs, &xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_negated_series_is_minus_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [-1.0, -2.0, -3.0];
        assert!((pearson_correlation(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_is_scale_invariant() {
        let xs = [0.0, 1.0, 4.0, 9.0];
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 + 7.0 * x).collect();
        assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson_correlation(&[], &[]), 0.0);
        assert_eq!(pearson_correlation(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn pearson_length_mismatch_panics() {
        let _ = pearson_correlation(&[1.0], &[1.0, 2.0]);
    }
}
