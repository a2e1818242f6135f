//! The logistic-regression model.

use serde::{Deserialize, Serialize};

use simdc_data::FeatureVec;

/// A sparse-input logistic-regression model: one weight per hashed feature
/// index plus a bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LrModel {
    weights: Vec<f32>,
    bias: f32,
}

impl LrModel {
    /// Creates a zero-initialized model of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn zeros(dim: u32) -> Self {
        assert!(dim > 0, "model dimension must be positive");
        LrModel {
            weights: vec![0.0; dim as usize],
            bias: 0.0,
        }
    }

    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    #[must_use]
    pub fn from_parts(weights: Vec<f32>, bias: f32) -> Self {
        assert!(!weights.is_empty(), "model dimension must be positive");
        LrModel { weights, bias }
    }

    /// Feature dimension.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.weights.len() as u32
    }

    /// The weight vector.
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable weight vector (used by training kernels).
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// The bias term.
    #[must_use]
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Sets the bias term.
    pub fn set_bias(&mut self, bias: f32) {
        self.bias = bias;
    }

    /// Raw margin `w·x + b` for a sparse binary feature vector.
    #[must_use]
    pub fn margin(&self, features: &FeatureVec) -> f32 {
        let mut sum = self.bias;
        for &idx in features.indices() {
            sum += self.weights[idx as usize];
        }
        sum
    }

    /// Predicted click probability.
    #[must_use]
    pub fn predict(&self, features: &FeatureVec) -> f32 {
        sigmoid(self.margin(features))
    }

    /// L2 norm of the parameter vector (weights + bias), for diagnostics.
    #[must_use]
    pub fn l2_norm(&self) -> f64 {
        let sum: f64 = self
            .weights
            .iter()
            .map(|&w| f64::from(w) * f64::from(w))
            .sum::<f64>()
            + f64::from(self.bias) * f64::from(self.bias);
        sum.sqrt()
    }

    /// Size in bytes of the model on the wire — little-endian `dim`, bias,
    /// then weights — for bandwidth accounting.
    #[must_use]
    pub fn serialized_size(&self) -> u64 {
        Self::wire_size(self.dim())
    }

    /// Wire size of any model of dimension `dim`
    /// ([`LrModel::serialized_size`]).
    #[must_use]
    pub fn wire_size(dim: u32) -> u64 {
        8 + u64::from(dim) * 4
    }
}

/// Numerically stable logistic function in `f32`.
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_predicts_half() {
        let m = LrModel::zeros(16);
        let x = FeatureVec::from_indices(vec![1, 5]);
        assert_eq!(m.predict(&x), 0.5);
        assert_eq!(m.dim(), 16);
    }

    #[test]
    fn margin_sums_active_weights() {
        let mut m = LrModel::zeros(8);
        m.weights_mut()[2] = 0.5;
        m.weights_mut()[3] = -0.25;
        m.set_bias(0.1);
        let x = FeatureVec::from_indices(vec![2, 3]);
        assert!((m.margin(&x) - 0.35).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(100.0), 1.0);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-30);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-9);
        // Symmetry.
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_norm_matches_hand_computation() {
        let m = LrModel::from_parts(vec![3.0, 4.0], 0.0);
        assert!((m.l2_norm() - 5.0).abs() < 1e-9);
    }
}
