//! FedAvg aggregation.
//!
//! The paper aggregates with FedAvg (§VI-A): the global model is the
//! sample-count-weighted mean of client models,
//! `w = Σ_k p_k w_k` with `p_k = n_k / Σ n`.
//!
//! The weights depend only on the sample counts, so the arithmetic is one
//! fold ([`FedAvgFold`]): declare the counts, then add each update as it is
//! fetched, in order. [`FedAvg::aggregate`] and [`FedAvg::weighted_loss`]
//! are that fold over a slice.

use simdc_types::{Result, SimdcError};

use crate::model::LrModel;
use crate::train::LocalUpdate;

/// The FedAvg aggregator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl FedAvg {
    /// Aggregates client updates into a new global model.
    ///
    /// Updates with zero samples contribute nothing (but are tolerated);
    /// if *all* updates have zero samples, clients are weighted equally.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InvalidConfig`] when `updates` is empty or the
    /// models disagree on dimension.
    pub fn aggregate(updates: &[LocalUpdate]) -> Result<LrModel> {
        Self::fold(updates).into_model()
    }

    /// Sample-weighted mean of the clients' reported final losses — the
    /// "training loss" series Fig 9(a) plots per aggregation round.
    #[must_use]
    pub fn weighted_loss(updates: &[LocalUpdate]) -> f64 {
        Self::fold(updates).loss()
    }

    fn fold(updates: &[LocalUpdate]) -> FedAvgFold {
        let mut fold = FedAvgFold::new(updates.iter().map(|u| u.n_samples));
        for u in updates {
            fold.add(u);
        }
        fold
    }
}

/// FedAvg as a fold over updates that arrive one at a time.
///
/// The sample counts are declared up front ([`FedAvgFold::new`]), which
/// fixes every weight; each [`FedAvgFold::add`] then folds one update in
/// and the caller may drop it. Adding the declared updates in order gives
/// the same bits as [`FedAvg::aggregate`] and [`FedAvg::weighted_loss`]
/// over the slice.
#[derive(Debug, Clone)]
pub struct FedAvgFold {
    /// Updates declared.
    declared: usize,
    /// Samples declared; zero means equal weights.
    total: u64,
    /// Updates added so far.
    added: usize,
    /// Weighted sum of the weight vectors (sized by the first update).
    acc: Vec<f64>,
    bias: f64,
    /// Weighted sum of the losses, or their plain sum under equal weights.
    /// Starts at `-0.0`, as `Iterator::sum` does.
    loss: f64,
    /// The first update whose dimension disagreed with the first one's.
    mismatch: Option<u32>,
}

impl FedAvgFold {
    /// A fold over updates with these sample counts, in the order they
    /// will be added.
    #[must_use]
    pub fn new(sample_counts: impl IntoIterator<Item = u64>) -> Self {
        let (declared, total) = sample_counts
            .into_iter()
            .fold((0, 0u64), |(n, total), s| (n + 1, total + s));
        FedAvgFold {
            declared,
            total,
            added: 0,
            acc: Vec::new(),
            bias: 0.0,
            loss: -0.0,
            mismatch: None,
        }
    }

    /// Folds in the next declared update.
    pub fn add(&mut self, update: &LocalUpdate) {
        debug_assert!(self.added < self.declared, "more updates than declared");
        let p = if self.total == 0 {
            1.0 / self.declared as f64
        } else {
            update.n_samples as f64 / self.total as f64
        };
        self.loss += if self.total == 0 {
            update.final_loss
        } else {
            update.final_loss * p
        };
        if self.added == 0 {
            self.acc = vec![0.0; update.model.dim() as usize];
        }
        self.added += 1;
        if self.acc.len() != update.model.dim() as usize {
            self.mismatch.get_or_insert(update.model.dim());
            return;
        }
        for (a, &w) in self.acc.iter_mut().zip(update.model.weights()) {
            *a += p * f64::from(w);
        }
        self.bias += p * f64::from(update.model.bias());
    }

    /// The sample-weighted mean loss of the updates added (`-0.0` when
    /// none were declared).
    #[must_use]
    pub fn loss(&self) -> f64 {
        if self.total == 0 {
            self.loss / self.declared.max(1) as f64
        } else {
            self.loss
        }
    }

    /// The aggregated model.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InvalidConfig`] when no update was added or
    /// the models disagree on dimension.
    pub fn into_model(self) -> Result<LrModel> {
        debug_assert_eq!(self.added, self.declared, "declared updates missing");
        if self.added == 0 {
            return Err(SimdcError::InvalidConfig(
                "cannot aggregate an empty update set".into(),
            ));
        }
        if let Some(dim) = self.mismatch {
            return Err(SimdcError::InvalidConfig(format!(
                "model dimension mismatch: {dim} vs {}",
                self.acc.len()
            )));
        }
        let weights = self.acc.iter().map(|&a| a as f32).collect();
        Ok(LrModel::from_parts(weights, self.bias as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(weights: Vec<f32>, bias: f32, n: u64, loss: f64) -> LocalUpdate {
        LocalUpdate {
            model: LrModel::from_parts(weights, bias),
            n_samples: n,
            final_loss: loss,
        }
    }

    /// FedAvg as the slice arithmetic stated it before the fold: weights
    /// first, then one pass per update; losses through `Iterator::sum`.
    pub(super) fn slice_reference(updates: &[LocalUpdate]) -> (f64, Option<LrModel>) {
        let total: u64 = updates.iter().map(|u| u.n_samples).sum();
        let loss = if total == 0 {
            updates.iter().map(|u| u.final_loss).sum::<f64>() / updates.len().max(1) as f64
        } else {
            updates
                .iter()
                .map(|u| u.final_loss * (u.n_samples as f64 / total as f64))
                .sum()
        };
        let Some(first) = updates.first() else {
            return (loss, None);
        };
        let weights: Vec<f64> = if total == 0 {
            vec![1.0 / updates.len() as f64; updates.len()]
        } else {
            updates
                .iter()
                .map(|u| u.n_samples as f64 / total as f64)
                .collect()
        };
        let mut acc = vec![0.0f64; first.model.dim() as usize];
        let mut bias_acc = 0.0f64;
        for (update, &p) in updates.iter().zip(&weights) {
            for (a, &w) in acc.iter_mut().zip(update.model.weights()) {
                *a += p * f64::from(w);
            }
            bias_acc += p * f64::from(update.model.bias());
        }
        let weights = acc.iter().map(|&a| a as f32).collect();
        (loss, Some(LrModel::from_parts(weights, bias_acc as f32)))
    }

    /// Every bit of a round's outputs: its loss and its model.
    pub(super) fn bits(loss: f64, model: Option<&LrModel>) -> (u64, Option<(Vec<u32>, u32)>) {
        let model = model.map(|m| {
            let weights = m.weights().iter().map(|w| w.to_bits()).collect();
            (weights, m.bias().to_bits())
        });
        (loss.to_bits(), model)
    }

    /// The fold, fed one update at a time, and the slice entry points
    /// give the old arithmetic's bits on its edge cases.
    #[test]
    fn the_fold_reproduces_the_slice_arithmetic_bit_for_bit() {
        let cases: Vec<(&str, Vec<LocalUpdate>)> = vec![
            (
                "zero-sample updates among weighted ones",
                vec![
                    update(vec![0.1, -0.3, 0.7], 0.2, 13, 0.61),
                    update(vec![100.0, 5.0, -2.0], 50.0, 0, 0.9),
                    update(vec![-0.4, 0.25, 1e-3], -0.1, 7, 0.33),
                    update(vec![0.3, 0.3, 0.3], 0.0, 0, 0.0),
                ],
            ),
            (
                "all zero samples: equal weights",
                vec![
                    update(vec![0.1, 0.2, 0.3], 0.7, 0, 0.41),
                    update(vec![-0.3, 0.9, 0.0], -0.2, 0, 0.27),
                    update(vec![1.5, -1.0, 0.1], 0.05, 0, 0.11),
                ],
            ),
            (
                "a single update",
                vec![update(vec![0.25, -0.5, 3.0], 0.125, 7, 0.3)],
            ),
            ("an empty inclusion", vec![]),
        ];
        for (name, updates) in cases {
            let (loss, model) = slice_reference(&updates);
            let expected = bits(loss, model.as_ref());

            let mut fold = FedAvgFold::new(updates.iter().map(|u| u.n_samples));
            for u in &updates {
                fold.add(u);
            }
            let streamed = fold.loss();
            let streamed_model = if updates.is_empty() {
                None
            } else {
                Some(fold.into_model().unwrap())
            };
            assert_eq!(bits(streamed, streamed_model.as_ref()), expected, "{name}");

            let sliced = FedAvg::aggregate(&updates).ok();
            let sliced_loss = FedAvg::weighted_loss(&updates);
            assert_eq!(bits(sliced_loss, sliced.as_ref()), expected, "{name}");
        }
        // An empty round reports the loss `Iterator::sum` gives: -0.0.
        assert_eq!(FedAvg::weighted_loss(&[]).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn equal_weights_average() {
        let updates = vec![
            update(vec![1.0, 0.0], 1.0, 10, 0.5),
            update(vec![0.0, 1.0], 3.0, 10, 0.7),
        ];
        let global = FedAvg::aggregate(&updates).unwrap();
        assert_eq!(global.weights(), &[0.5, 0.5]);
        assert_eq!(global.bias(), 2.0);
        assert!((FedAvg::weighted_loss(&updates) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn weighting_follows_sample_counts() {
        let updates = vec![
            update(vec![1.0], 0.0, 30, 1.0),
            update(vec![0.0], 0.0, 10, 0.0),
        ];
        let global = FedAvg::aggregate(&updates).unwrap();
        assert!((global.weights()[0] - 0.75).abs() < 1e-6);
        assert!((FedAvg::weighted_loss(&updates) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_update_is_identity() {
        let u = update(vec![0.25, -0.5, 3.0], 0.125, 7, 0.3);
        let global = FedAvg::aggregate(std::slice::from_ref(&u)).unwrap();
        assert_eq!(global, u.model);
    }

    #[test]
    fn empty_set_is_an_error() {
        assert!(FedAvg::aggregate(&[]).is_err());
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let updates = vec![
            update(vec![1.0], 0.0, 1, 0.0),
            update(vec![1.0, 2.0], 0.0, 1, 0.0),
        ];
        assert!(FedAvg::aggregate(&updates).is_err());
    }

    #[test]
    fn all_zero_samples_fall_back_to_uniform() {
        let updates = vec![
            update(vec![2.0], 0.0, 0, 0.4),
            update(vec![4.0], 0.0, 0, 0.8),
        ];
        let global = FedAvg::aggregate(&updates).unwrap();
        assert_eq!(global.weights(), &[3.0]);
        assert!((FedAvg::weighted_loss(&updates) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_sample_update_contributes_nothing() {
        let updates = vec![
            update(vec![1.0], 0.0, 10, 0.0),
            update(vec![100.0], 50.0, 0, 0.0),
        ];
        let global = FedAvg::aggregate(&updates).unwrap();
        assert_eq!(global.weights(), &[1.0]);
        assert_eq!(global.bias(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The aggregate of arbitrary updates stays inside the per-weight
        /// min/max envelope (a weighted mean can never extrapolate).
        #[test]
        fn aggregate_is_a_convex_combination(
            weights in proptest::collection::vec(
                proptest::collection::vec(-10.0f32..10.0, 4),
                1..8
            ),
            samples in proptest::collection::vec(0u64..1_000, 8),
        ) {
            let updates: Vec<LocalUpdate> = weights
                .iter()
                .zip(&samples)
                .map(|(w, &n)| LocalUpdate {
                    model: LrModel::from_parts(w.clone(), 0.0),
                    n_samples: n,
                    final_loss: 0.0,
                })
                .collect();
            let global = FedAvg::aggregate(&updates).unwrap();
            for i in 0..4 {
                let lo = updates
                    .iter()
                    .map(|u| u.model.weights()[i])
                    .fold(f32::INFINITY, f32::min);
                let hi = updates
                    .iter()
                    .map(|u| u.model.weights()[i])
                    .fold(f32::NEG_INFINITY, f32::max);
                let g = global.weights()[i];
                prop_assert!(
                    g >= lo - 1e-4 && g <= hi + 1e-4,
                    "weight {i}: {g} outside [{lo}, {hi}]"
                );
            }
        }

        /// The fold gives the slice arithmetic's bits on arbitrary
        /// updates, zero-sample ones included.
        #[test]
        fn fold_matches_the_slice_arithmetic(
            updates in proptest::collection::vec(
                (
                    proptest::collection::vec(-10.0f32..10.0, 3),
                    -1.0f32..1.0,
                    prop_oneof![0u64..1, 1u64..1_000],
                    0.0f64..2.0,
                ),
                1..8
            ),
        ) {
            let updates: Vec<LocalUpdate> = updates
                .into_iter()
                .map(|(weights, bias, n_samples, final_loss)| LocalUpdate {
                    model: LrModel::from_parts(weights, bias),
                    n_samples,
                    final_loss,
                })
                .collect();
            let (loss, model) = tests::slice_reference(&updates);
            let expected = tests::bits(loss, model.as_ref());
            let mut fold = FedAvgFold::new(updates.iter().map(|u| u.n_samples));
            for u in &updates {
                fold.add(u);
            }
            let streamed = fold.loss();
            let streamed_model = fold.into_model().unwrap();
            prop_assert_eq!(tests::bits(streamed, Some(&streamed_model)), expected);
        }

        /// Aggregation is invariant to uniformly scaling sample counts.
        #[test]
        fn weights_are_scale_invariant(
            w1 in -5.0f32..5.0,
            w2 in -5.0f32..5.0,
            n1 in 1u64..500,
            n2 in 1u64..500,
            factor in 2u64..10,
        ) {
            let mk = |w: f32, n: u64| LocalUpdate {
                model: LrModel::from_parts(vec![w], 0.0),
                n_samples: n,
                final_loss: 0.0,
            };
            let a = FedAvg::aggregate(&[mk(w1, n1), mk(w2, n2)]).unwrap();
            let b = FedAvg::aggregate(&[mk(w1, n1 * factor), mk(w2, n2 * factor)]).unwrap();
            prop_assert!((a.weights()[0] - b.weights()[0]).abs() < 1e-5);
        }
    }
}
