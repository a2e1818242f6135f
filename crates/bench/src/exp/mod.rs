//! One module per table/figure of the paper's evaluation (§VI).
//!
//! Each module exposes `run(&ExpOptions)`, prints the paper-table analog to
//! stdout and writes a machine-readable JSON result under `results/`.

pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use crate::ExpOptions;
use simdc_core::{AggregationTrigger, GradeRequirement, TaskSpec};
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_types::{DeviceGrade, SimDuration, TaskId};

/// Entry point of one experiment: runs it and writes its JSON result.
pub type ExpRunner = fn(&ExpOptions);

/// Every experiment of the paper's evaluation, in presentation order.
///
/// The single source of truth for "what does the suite contain":
/// `simdc-bench all`, its by-name lookup ([`find`]) and the registry smoke
/// test all read this slice, so a new experiment module is either wired in
/// here (and thereby runnable, smoke-tested and listed) or it does not
/// exist as far as the suite is concerned. The name doubles as the JSON
/// result stem under `--out`.
pub const ALL: &[(&str, ExpRunner)] = &[
    ("table1", |opts| {
        table1::run(opts);
    }),
    ("fig5", |opts| {
        fig5::run(opts);
    }),
    ("fig6", |opts| {
        fig6::run(opts);
    }),
    ("fig7", |opts| {
        fig7::run(opts);
    }),
    ("fig8", |opts| {
        fig8::run(opts);
    }),
    ("fig9", |opts| {
        fig9::run(opts);
    }),
    ("fig10", |opts| {
        fig10::run(opts);
    }),
    ("table2", |opts| {
        table2::run(opts);
    }),
    ("fig11", |opts| {
        fig11::run(opts);
    }),
];

/// Looks an experiment up by its [`ALL`] name.
#[must_use]
pub fn find(name: &str) -> Option<ExpRunner> {
    ALL.iter()
        .find(|(known, _)| *known == name)
        .map(|(_, run)| *run)
}

/// Standard two-grade dataset used by the platform experiments.
///
/// Uses a balanced per-device CTR prior (`Beta(2, 2)`) so that test
/// accuracy is an informative learning signal rather than being dominated
/// by the majority class — the paper's accuracy-based figures (6, 9, 11)
/// all need visible learning dynamics.
#[must_use]
pub fn standard_dataset(n_devices: usize, seed: u64) -> CtrDataset {
    CtrDataset::generate(&GeneratorConfig {
        n_devices,
        n_test_devices: (n_devices / 10).clamp(5, 200),
        mean_records_per_device: 20.0,
        feature_dim: 1 << 12,
        ctr_alpha: 2.0,
        ctr_beta: 2.0,
        seed,
        ..GeneratorConfig::default()
    })
}

/// Local training hyper-parameters that show learning progress within ~10
/// federated rounds on 20-example shards (the paper's 1e-3 × 10 epochs is
/// calibrated for its 2M-record Avazu subset).
#[must_use]
pub fn visible_train_config() -> simdc_ml::TrainConfig {
    simdc_ml::TrainConfig {
        learning_rate: 0.3,
        epochs: 5,
    }
}

/// The standard two-grade task of the §VI-B experiments: `n` devices per
/// grade, `q` benchmark phones per grade, paper-like resource requests.
#[must_use]
pub fn two_grade_spec(id: u64, n_per_grade: u64, benchmark_per_grade: u64) -> TaskSpec {
    let total = 2 * n_per_grade;
    TaskSpec::builder(TaskId(id))
        .rounds(1)
        .grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: n_per_grade,
            benchmark_phones: benchmark_per_grade,
            logical_unit_bundles: 48,
            units_per_device: 8,
            phones: 12,
        })
        .grade(GradeRequirement {
            grade: DeviceGrade::Low,
            total_devices: n_per_grade,
            benchmark_phones: benchmark_per_grade,
            logical_unit_bundles: 24,
            units_per_device: 2,
            phones: 8,
        })
        .trigger(AggregationTrigger::DeviceThreshold { min_devices: total })
        .round_timeout(SimDuration::from_mins(240))
        .train(visible_train_config())
        .build()
        .expect("standard spec is valid")
}
