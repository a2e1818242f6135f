//! Workload files: `workloads/<name>.json`, turned into the inputs a run
//! feeds the simulator. The benchmark's `--seed` replaces the seed in the
//! file, so every stochastic input (arrivals, templates, churn, fleet,
//! dataset, message stream) is a function of it.

use std::sync::Arc;

use serde::Deserialize;
use serde_json::Value;
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_deviceflow::Dropout;
use simdc_phone::FleetSpec;
use simdc_workload::{CompiledScenario, ScenarioSpec};

use crate::registry::Workload;

/// Horizon factor of `--quick` runs.
const QUICK_HORIZON_SCALE: f64 = 0.05;
/// Fleet cap of `--quick` runs.
const QUICK_MAX_FLEET: usize = 20_000;
/// Messages per phase of `--quick` runs.
const QUICK_MESSAGES: u64 = 50_000;

/// Shape of the synthetic CTR dataset every task of a scenario trains on.
#[derive(Debug, Clone, Copy, Deserialize)]
pub struct DatasetShape {
    /// Training devices.
    pub n_devices: usize,
    /// Feature-hash dimension: the size of every model and update payload.
    pub feature_dim: u32,
}

impl DatasetShape {
    /// Generates the dataset with the bench suite's `standard_dataset`
    /// constants (Beta(2, 2) device CTRs, 20 records per device).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Arc<CtrDataset> {
        Arc::new(CtrDataset::generate(&GeneratorConfig {
            n_devices: self.n_devices,
            n_test_devices: (self.n_devices / 10).clamp(5, 200),
            mean_records_per_device: 20.0,
            feature_dim: self.feature_dim,
            ctr_alpha: 2.0,
            ctr_beta: 2.0,
            seed,
            ..GeneratorConfig::default()
        }))
    }
}

#[derive(Deserialize)]
struct ScenarioFile {
    dataset: DatasetShape,
    spec: Value,
}

/// A scenario workload, loaded and compiled.
#[derive(Debug, Clone)]
pub struct ScenarioWorkload {
    /// Dataset shape.
    pub dataset: DatasetShape,
    /// The spec as loaded, seed and quick scaling applied.
    pub spec: ScenarioSpec,
    /// The spec lowered to what the engine runs.
    pub compiled: CompiledScenario,
}

/// Parses a scenario workload file, strict-loads its spec through
/// [`ScenarioSpec::from_json_str`], applies `seed`, `threads` and the quick
/// scaling, and compiles it.
///
/// # Errors
///
/// Returns a message naming the workload when the file does not parse or
/// the spec is rejected.
pub fn load_scenario(
    workload: &Workload,
    seed: u64,
    threads: usize,
    quick: bool,
) -> Result<ScenarioWorkload, String> {
    let named = |e: String| format!("workload {}: {e}", workload.name);
    let file: ScenarioFile =
        serde_json::from_str(workload.file).map_err(|e| named(e.to_string()))?;
    let spec_text = serde_json::to_string(&file.spec).map_err(|e| named(e.to_string()))?;
    let mut spec = ScenarioSpec::from_json_str(&spec_text).map_err(|e| named(e.to_string()))?;
    if spec.name != workload.name {
        return Err(named(format!(
            "spec.name is `{}`; it is the RNG stream label and must equal the workload name",
            spec.name
        )));
    }
    spec.seed = seed;
    spec.threads = threads;
    if quick {
        spec = spec.with_horizon_scale(QUICK_HORIZON_SCALE);
        if spec.fleet.total() > QUICK_MAX_FLEET {
            spec.fleet = FleetSpec::scaled_paper(QUICK_MAX_FLEET);
        }
    }
    let compiled = spec.compile().map_err(|e| named(e.to_string()))?;
    Ok(ScenarioWorkload {
        dataset: file.dataset,
        spec,
        compiled,
    })
}

/// How one `traffic_shaping` phase releases its messages.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum Shape {
    /// `TimeInterval` following a right-tailed normal curve over this many
    /// seconds.
    Interval {
        /// Length of the dispatch interval, seconds.
        seconds: u64,
    },
    /// `TimePoints`: `(seconds after round completion, share of the
    /// messages)` bursts.
    Points(Vec<(u64, f64)>),
}

/// One phase of the `traffic_shaping` workload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Phase {
    /// Phase name in reports.
    pub name: String,
    /// Release shape.
    pub shape: Shape,
    /// Dropout applied at every dispatch point.
    pub dropout: Dropout,
}

/// The `traffic_shaping` workload file.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct TrafficWorkload {
    /// Messages ingested per phase.
    pub messages: u64,
    /// The phases, run one after another on fresh harnesses.
    pub phases: Vec<Phase>,
}

/// Parses the `traffic_shaping` workload file.
///
/// # Errors
///
/// Returns a message when the file does not parse or a phase is malformed.
pub fn load_traffic(workload: &Workload, quick: bool) -> Result<TrafficWorkload, String> {
    let named = |e: String| format!("workload {}: {e}", workload.name);
    let mut file: TrafficWorkload =
        serde_json::from_str(workload.file).map_err(|e| named(e.to_string()))?;
    if file.messages == 0 || file.phases.is_empty() {
        return Err(named("needs at least one message and one phase".into()));
    }
    for phase in &file.phases {
        phase.dropout.validate().map_err(|e| named(e.to_string()))?;
        match &phase.shape {
            Shape::Interval { seconds: 0 } => {
                return Err(named(format!("phase {}: zero interval", phase.name)));
            }
            Shape::Points(points) => {
                let total: f64 = points.iter().map(|(_, share)| share).sum();
                if points.is_empty() || (total - 1.0).abs() > 1e-9 {
                    return Err(named(format!(
                        "phase {}: burst shares must sum to 1, got {total}",
                        phase.name
                    )));
                }
            }
            Shape::Interval { .. } => {}
        }
    }
    if quick {
        file.messages = file.messages.min(QUICK_MESSAGES);
    }
    Ok(file)
}

/// The one-line reason of every workload, from its file.
///
/// # Errors
///
/// Returns a message when a workload file does not parse.
pub fn whys() -> Result<Vec<(&'static str, String)>, String> {
    #[derive(Deserialize)]
    struct Why {
        why: String,
    }
    crate::registry::WORKLOADS
        .iter()
        .map(|w| {
            let file: Why =
                serde_json::from_str(w.file).map_err(|e| format!("workload {}: {e}", w.name))?;
            Ok((w.name, file.why))
        })
        .collect()
}
