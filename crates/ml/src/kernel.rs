//! Training kernels: two floating-point implementations of the same SGD
//! update.
//!
//! The paper's logical simulation uses PyMNN operators while phones run the
//! C++ MNN operators shipped in business SDKs (§VI-B.2): functionally
//! identical, numerically different. [`ServerKernel`] and [`MobileKernel`]
//! reproduce that split — both perform per-example SGD on the logistic loss,
//! but the server kernel accumulates in `f64` while the mobile kernel stays
//! in `f32` with a fused multiply order, so long training runs drift apart
//! by a fraction of a percent, exactly the effect Fig 6 quantifies.

use serde::{Deserialize, Serialize};

use simdc_data::Example;

use crate::model::LrModel;

/// Which operator implementation a simulated device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// PyMNN-analog: `f64` accumulation (logical simulation).
    Server,
    /// MNN-C++-analog: `f32` fused updates (device simulation).
    Mobile,
}

impl KernelKind {
    /// Returns the kernel implementation for this kind.
    #[must_use]
    pub fn kernel(self) -> &'static dyn TrainKernel {
        match self {
            KernelKind::Server => &ServerKernel,
            KernelKind::Mobile => &MobileKernel,
        }
    }
}

/// One pass of per-example SGD over a dataset.
///
/// Implementations must visit examples in order (determinism) and update
/// the model in place. The trait is object-safe so heterogeneous clusters
/// can mix kernels at runtime.
pub trait TrainKernel {
    /// Runs one epoch of SGD at learning rate `lr`, returning the mean
    /// training loss *before* each example's update (the usual online
    /// estimate).
    fn sgd_epoch(&self, model: &mut LrModel, data: &[Example], lr: f32) -> f64;

    /// Human-readable kernel name.
    fn name(&self) -> &'static str;
}

/// `f64`-accumulating kernel (the PyMNN/server analog).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerKernel;

impl TrainKernel for ServerKernel {
    fn sgd_epoch(&self, model: &mut LrModel, data: &[Example], lr: f32) -> f64 {
        let mut loss_sum = 0.0f64;
        let lr = f64::from(lr);
        for example in data {
            // Margin in f64.
            let mut margin = f64::from(model.bias());
            for &idx in example.features.indices() {
                margin += f64::from(model.weights()[idx as usize]);
            }
            let p = 1.0 / (1.0 + (-margin).exp());
            let y = f64::from(u8::from(example.label));
            loss_sum += logistic_loss(p, example.label);
            let grad = p - y;
            let step = (lr * grad) as f32;
            for &idx in example.features.indices() {
                model.weights_mut()[idx as usize] -= step;
            }
            model.set_bias(model.bias() - step);
        }
        mean_loss(loss_sum, data.len())
    }

    fn name(&self) -> &'static str {
        "server-f64"
    }
}

/// `f32` fused kernel (the MNN-C++/mobile analog).
///
/// Differences from [`ServerKernel`]: the margin accumulates in `f32`, the
/// activation uses the fast Padé-approximant sigmoid common in mobile
/// inference kernels (max error ≈ 5e-4 on the probability), the gradient
/// step is computed and applied in `f32`, and the bias is updated *before*
/// the weights. All changes are functionally neutral implementations of
/// the same operator — numerically they drift by a fraction of a percent,
/// which is exactly the Fig 6 effect.
#[derive(Debug, Clone, Copy, Default)]
pub struct MobileKernel;

/// Fast sigmoid via the Padé(3,2) tanh approximant
/// `tanh(y) ≈ y·(27 + y²) / (27 + 9y²)`, clamped to the saturation region.
#[must_use]
pub fn fast_sigmoid(x: f32) -> f32 {
    if x >= 8.0 {
        return 1.0;
    }
    if x <= -8.0 {
        return 0.0;
    }
    let y = x * 0.5;
    let y2 = y * y;
    let tanh = y * (27.0 + y2) / (27.0 + 9.0 * y2);
    0.5 * (1.0 + tanh.clamp(-1.0, 1.0))
}

impl TrainKernel for MobileKernel {
    fn sgd_epoch(&self, model: &mut LrModel, data: &[Example], lr: f32) -> f64 {
        let mut loss_sum = 0.0f64;
        for example in data {
            let margin = model.margin(&example.features); // f32 path
            let p = fast_sigmoid(margin);
            let y = u8::from(example.label) as f32;
            loss_sum += logistic_loss(f64::from(p), example.label);
            let step = lr * (p - y);
            model.set_bias(model.bias() - step);
            for &idx in example.features.indices() {
                model.weights_mut()[idx as usize] -= step;
            }
        }
        mean_loss(loss_sum, data.len())
    }

    fn name(&self) -> &'static str {
        "mobile-f32"
    }
}

/// Clamped cross-entropy of a single prediction.
fn logistic_loss(p: f64, label: bool) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    if label {
        -p.ln()
    } else {
        -(1.0 - p).ln()
    }
}

fn mean_loss(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_data::FeatureVec;

    fn toy_data() -> Vec<Example> {
        // Feature 0 active → positive, feature 1 active → negative.
        let mut data = Vec::new();
        for i in 0..50 {
            data.push(Example::new(
                FeatureVec::from_indices(vec![0, 2 + (i % 3)]),
                true,
            ));
            data.push(Example::new(
                FeatureVec::from_indices(vec![1, 2 + (i % 3)]),
                false,
            ));
        }
        data
    }

    #[test]
    fn both_kernels_learn_the_separator() {
        for kind in [KernelKind::Server, KernelKind::Mobile] {
            let mut model = LrModel::zeros(8);
            let data = toy_data();
            let mut last = f64::INFINITY;
            for _ in 0..20 {
                last = kind.kernel().sgd_epoch(&mut model, &data, 0.5);
            }
            assert!(last < 0.1, "{}: loss {last}", kind.kernel().name());
            assert!(model.weights()[0] > 0.5);
            assert!(model.weights()[1] < -0.5);
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut model = LrModel::zeros(8);
        let data = toy_data();
        let l1 = ServerKernel.sgd_epoch(&mut model, &data, 0.1);
        let l5 = (0..4)
            .map(|_| ServerKernel.sgd_epoch(&mut model, &data, 0.1))
            .last()
            .unwrap();
        assert!(l5 < l1);
    }

    #[test]
    fn kernels_agree_approximately_but_not_exactly() {
        let data = toy_data();
        let mut server = LrModel::zeros(8);
        let mut mobile = LrModel::zeros(8);
        for _ in 0..10 {
            ServerKernel.sgd_epoch(&mut server, &data, 0.3);
            MobileKernel.sgd_epoch(&mut mobile, &data, 0.3);
        }
        // Same direction, same approximate magnitude. The tolerance is
        // loose in the saturated regime: the fast sigmoid's gradient
        // reaches exactly zero at |margin| ≥ 6, so the mobile kernel stops
        // growing weights slightly earlier than the server kernel.
        for i in 0..8 {
            let (s, m) = (server.weights()[i], mobile.weights()[i]);
            assert!(
                (s - m).abs() < 0.05f32.max(0.2 * s.abs()),
                "weight {i} diverged: {s} vs {m}"
            );
            assert_eq!(s.signum(), m.signum(), "weight {i} flipped sign");
        }
        // ...but not identical (that's the point of the dual kernels).
        assert_ne!(server.weights(), mobile.weights());
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut model = LrModel::zeros(4);
        let loss = ServerKernel.sgd_epoch(&mut model, &[], 0.1);
        assert_eq!(loss, 0.0);
        assert_eq!(model, LrModel::zeros(4));
    }

    #[test]
    fn kernel_kind_dispatch() {
        assert_eq!(KernelKind::Server.kernel().name(), "server-f64");
        assert_eq!(KernelKind::Mobile.kernel().name(), "mobile-f32");
    }
}
