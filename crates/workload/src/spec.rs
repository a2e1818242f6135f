//! The declarative scenario DSL: serde-backed [`ScenarioSpec`]s, the
//! compiler to runnable [`CompiledScenario`]s, and the greedy [`shrink`]er
//! the fuzz harness minimizes failing specs with.
//!
//! Every named scenario is a spec committed as JSON under `fixtures/` at
//! the repository root and embedded by [`crate::scenario()`] /
//! [`crate::library()`]; the files are the only definition, and
//! `tests/byte_identity.rs` pins a digest of each one's run summary. The
//! spec grammar is exactly the struct tree below — arrival mixes compose
//! as [`ArrivalProcess`] trees, fleet composition rides [`FleetSpec`],
//! injector schedules ride [`FleetDynamics`], and the elastic tier rides
//! an optional [`ClusterConfig`] override.
//!
//! # Compiler guarantees
//!
//! * **Byte-identity** — `compile` introduces no stochastic choice of its
//!   own: the compiled scenario replays through the same engine as a
//!   [`Scenario`] built field by field, so spec + seed ⇒ byte-identical
//!   [`ScenarioSummary`] JSON.
//! * **Typed rejection** — [`ScenarioSpec::from_json_str`] never panics
//!   on malformed input: parse errors and unknown enum variants surface
//!   as [`SimdcError::Serialization`], unknown keys and semantic
//!   violations (malformed arrival trees, zero-phone fleets, negative
//!   budgets) as [`SimdcError::InvalidConfig`] with pinned messages.
//! * **Unknown keys are errors** — a typo'd field would otherwise be
//!   silently ignored and the run would quietly diverge from the author's
//!   intent; the loader walks the raw document against the canonical
//!   re-serialization and rejects any key it does not know.
//!
//! # Examples
//!
//! ```
//! use simdc_workload::{scenario, ScenarioSpec};
//!
//! // Load a committed spec, turn its knobs, compile.
//! let mut spec = scenario("flash_crowd").unwrap().with_horizon_scale(0.5);
//! spec.seed = 7;
//! let compiled = spec.compile().unwrap();
//! assert_eq!(compiled.config.seed, 7);
//! assert_eq!(compiled.scenario.horizon, spec.horizon);
//! // JSON round trip is lossless and loads back through the validator.
//! let reloaded = ScenarioSpec::from_json_str(&spec.to_json_string_pretty()).unwrap();
//! assert_eq!(reloaded, spec);
//! ```

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simdc_cluster::ClusterConfig;
use simdc_core::{Platform, PlatformConfig};
use simdc_data::CtrDataset;
use simdc_phone::FleetSpec;
use simdc_types::{Result, SimDuration, SimdcError};

use crate::arrival::ArrivalProcess;
use crate::fleet::FleetDynamics;
use crate::scenario::{Scenario, ScenarioSummary};
use crate::template::TaskTemplate;

/// The largest [`ScenarioSpec::threads`] a spec may carry.
pub const MAX_THREADS: usize = 64;

/// A complete, self-contained scenario description: everything a run
/// needs beyond the dataset. Field order is the JSON schema — it is
/// pinned by the committed fixtures, so reordering fields is a visible,
/// reviewed change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (doubles as the RNG stream label).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// Arrival horizon: tasks arrive in `[0, horizon)`; the run then
    /// drains.
    pub horizon: SimDuration,
    /// Period of the pacing dispatch event.
    pub dispatch_interval: SimDuration,
    /// Task arrival mix — a composable tree of Poisson / diurnal /
    /// bursty / superposed processes.
    pub arrivals: ArrivalProcess,
    /// Task generator.
    pub template: TaskTemplate,
    /// Injector schedule: phone churn, reboot latency and stragglers.
    pub fleet_dynamics: FleetDynamics,
    /// Elastic cloud tier override (`None` keeps the platform default).
    pub cluster: Option<ClusterConfig>,
    /// Phone-fleet composition the platform is built with.
    pub fleet: FleetSpec,
    /// Root seed: platform seed and scenario seed alike (same seed ⇒
    /// byte-identical summary JSON).
    pub seed: u64,
    /// A dead input: accepted, range-checked against [`MAX_THREADS`] and
    /// otherwise ignored — the platform admits tasks serially on one
    /// thread. It survives only because `benchmark/workloads/*.json` and
    /// `benchmark/src/{workload,rep,driver}.rs` still write it.
    pub threads: usize,
}

impl ScenarioSpec {
    /// The scenario half of the spec (no validation — use
    /// [`ScenarioSpec::compile`] for the checked path).
    #[must_use]
    pub fn to_scenario(&self) -> Scenario {
        Scenario {
            name: self.name.clone(),
            description: self.description.clone(),
            horizon: self.horizon,
            dispatch_interval: self.dispatch_interval,
            arrivals: self.arrivals.clone(),
            template: self.template.clone(),
            fleet: self.fleet_dynamics,
            cluster: self.cluster.clone(),
        }
    }

    /// Validates the spec: the scenario half (name, horizon, arrival
    /// tree, template, injectors, cluster override) plus the
    /// platform-side knobs (fleet composition, the `threads` range).
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        self.to_scenario().validate()?;
        if self.fleet.total() == 0 {
            return Err(SimdcError::InvalidConfig(
                "fleet must contain at least one phone".into(),
            ));
        }
        if self.fleet.total() > u32::MAX as usize {
            return Err(SimdcError::InvalidConfig(format!(
                "fleet must contain at most {} phones (ids are 32-bit), got {}",
                u32::MAX,
                self.fleet.total()
            )));
        }
        if self.threads > MAX_THREADS {
            return Err(SimdcError::InvalidConfig(format!(
                "threads must be at most {MAX_THREADS}, got {}",
                self.threads
            )));
        }
        Ok(())
    }

    /// Compiles the spec into a runnable scenario + platform config pair.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::validate`] errors.
    pub fn compile(&self) -> Result<CompiledScenario> {
        self.validate()?;
        Ok(CompiledScenario {
            scenario: self.to_scenario(),
            config: PlatformConfig {
                fleet: self.fleet,
                seed: self.seed,
                ..PlatformConfig::default()
            },
        })
    }

    /// Loads a spec from JSON text with full typed rejection: parse
    /// errors, unknown keys and semantic violations all surface as
    /// errors, never panics.
    ///
    /// # Errors
    ///
    /// * [`SimdcError::Serialization`] — malformed JSON or a document
    ///   that does not deserialize (e.g. an unknown enum variant);
    /// * [`SimdcError::InvalidConfig`] — an unknown key anywhere in the
    ///   document (path-qualified, e.g. `` `$.template.bogus` ``), or a
    ///   spec failing [`ScenarioSpec::validate`].
    pub fn from_json_str(text: &str) -> Result<Self> {
        let raw: serde_json::Value =
            serde_json::from_str(text).map_err(|e| SimdcError::Serialization(e.to_string()))?;
        let spec: ScenarioSpec =
            Deserialize::from_value(&raw).map_err(|e| SimdcError::Serialization(e.to_string()))?;
        // The vendored serde ignores unknown fields; walking the raw
        // document against the canonical re-serialization recovers the
        // strictness of `deny_unknown_fields`.
        reject_unknown_keys(&raw, &spec.to_value(), "$")?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec as pretty JSON — the committed fixture format.
    ///
    /// # Panics
    ///
    /// Never panics in practice (the data model is infallible to write).
    #[must_use]
    pub fn to_json_string_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// Returns a copy with every rate in the arrival tree scaled by
    /// `factor` — the sweep runner's load axis.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    #[must_use]
    pub fn with_rate_scale(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate scale must be positive and finite, got {factor}"
        );
        scale_arrival_rates(&mut self.arrivals, factor);
        self
    }

    /// Returns a copy with the horizon scaled by `factor` (quick-profile
    /// runs shrink scenarios this way).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    #[must_use]
    pub fn with_horizon_scale(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1], got {factor}"
        );
        self.horizon = self.horizon.mul_f64(factor);
        self
    }
}

/// A validated spec lowered to what the engine actually runs: the
/// [`Scenario`] plus the [`PlatformConfig`] it executes against.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// The scenario half (arrivals, template, injectors, cluster).
    pub scenario: Scenario,
    /// The platform half (fleet composition, seed); the seed
    /// doubles as the scenario seed, exactly like the bench suite runs
    /// the library.
    pub config: PlatformConfig,
}

impl CompiledScenario {
    /// Executes the compiled scenario and returns its summary.
    #[must_use]
    pub fn run(&self, dataset: &Arc<CtrDataset>) -> ScenarioSummary {
        self.scenario
            .run(self.config.clone(), dataset, self.config.seed)
    }

    /// Like [`CompiledScenario::run`], but also hands back the drained
    /// platform so callers can interrogate the invariant oracles
    /// ([`Platform::invariant_violations`]) and task states. The run
    /// takes each task's report as the task completes, so the platform
    /// holds none; a caller that wants reports builds a [`Platform`] and
    /// drives it itself.
    #[must_use]
    pub fn run_detailed(&self, dataset: &Arc<CtrDataset>) -> (ScenarioSummary, Platform) {
        self.scenario
            .run_detailed(self.config.clone(), dataset, self.config.seed)
    }
}

/// Scales every rate in an arrival tree by `factor`, preserving the tree
/// shape (burst multipliers and periods are shapes, not rates, and stay).
pub fn scale_arrival_rates(process: &mut ArrivalProcess, factor: f64) {
    match process {
        ArrivalProcess::Poisson { rate_per_min } => *rate_per_min *= factor,
        ArrivalProcess::Diurnal {
            mean_per_min,
            amplitude_per_min,
            ..
        } => {
            *mean_per_min *= factor;
            *amplitude_per_min *= factor;
        }
        ArrivalProcess::Bursty { base_per_min, .. } => *base_per_min *= factor,
        ArrivalProcess::Superpose(children) => {
            for child in children {
                scale_arrival_rates(child, factor);
            }
        }
    }
}

/// Walks the raw document against the canonical re-serialization of what
/// it deserialized to; any key present in the input but absent from the
/// canonical form was silently ignored by the deserializer and is
/// rejected here with its `$.`-rooted path.
fn reject_unknown_keys(
    input: &serde_json::Value,
    canonical: &serde_json::Value,
    path: &str,
) -> Result<()> {
    use serde_json::Value;
    match (input, canonical) {
        (Value::Object(input_fields), Value::Object(known_fields)) => {
            for (key, value) in input_fields {
                match known_fields.iter().find(|(known, _)| known == key) {
                    Some((_, known_value)) => {
                        reject_unknown_keys(value, known_value, &format!("{path}.{key}"))?;
                    }
                    None => {
                        return Err(SimdcError::InvalidConfig(format!(
                            "unknown key `{path}.{key}` in scenario spec"
                        )));
                    }
                }
            }
            Ok(())
        }
        (Value::Array(input_items), Value::Array(known_items)) => {
            for (index, (item, known)) in input_items.iter().zip(known_items).enumerate() {
                reject_unknown_keys(item, known, &format!("{path}[{index}]"))?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Greedily minimizes a failing spec: repeatedly tries the candidate
/// simplifications of [`shrink`]'s catalog (halve the horizon, prune the
/// arrival tree, calm the fleet, drop the cluster override, shrink the
/// fleet and template, reset `threads` to 1) and keeps any candidate
/// for which `fails` still returns `true`, until no candidate fails —
/// the returned spec is a local minimum that still exhibits the failure.
///
/// The vendored proptest stand-in generates but does not shrink, so the
/// fuzz harness calls this instead after a property fails; `fails` is
/// typically "compile, run, and check the invariant oracles".
pub fn shrink(spec: &ScenarioSpec, fails: impl Fn(&ScenarioSpec) -> bool) -> ScenarioSpec {
    let mut current = spec.clone();
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&current) {
            if fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// One round of candidate simplifications, most aggressive first. Each
/// candidate changes exactly one axis, so the accepted sequence is a
/// readable delta trail from the original failure to the minimum.
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let one_min = SimDuration::from_mins(1);
    let mut candidates = Vec::new();

    if spec.horizon > one_min {
        let mut c = spec.clone();
        let halved = c.horizon.mul_f64(0.5);
        c.horizon = if halved < one_min { one_min } else { halved };
        if c.dispatch_interval > c.horizon {
            c.dispatch_interval = c.horizon;
        }
        candidates.push(c);
    }

    for arrivals in shrink_arrivals(&spec.arrivals) {
        let mut c = spec.clone();
        c.arrivals = arrivals;
        candidates.push(c);
    }

    if spec.fleet_dynamics != FleetDynamics::calm() {
        let mut c = spec.clone();
        c.fleet_dynamics = FleetDynamics::calm();
        candidates.push(c);
    }

    if spec.cluster.is_some() {
        let mut c = spec.clone();
        c.cluster = None;
        candidates.push(c);
    }

    let halved_fleet = FleetSpec {
        local: simdc_types::PerGrade::from_parts(
            spec.fleet.local.high / 2,
            spec.fleet.local.low / 2,
        ),
        msp: simdc_types::PerGrade::from_parts(spec.fleet.msp.high / 2, spec.fleet.msp.low / 2),
    };
    if halved_fleet.total() > 0 && halved_fleet != spec.fleet {
        let mut c = spec.clone();
        c.fleet = halved_fleet;
        candidates.push(c);
    }

    if spec.template.rounds != (1, 1) {
        let mut c = spec.clone();
        c.template.rounds = (1, 1);
        candidates.push(c);
    }
    if spec.template.devices_per_grade.1 > spec.template.devices_per_grade.0 {
        let mut c = spec.clone();
        c.template.devices_per_grade.1 = c.template.devices_per_grade.0;
        candidates.push(c);
    }

    if spec.threads > 1 {
        let mut c = spec.clone();
        c.threads = 1;
        candidates.push(c);
    }

    candidates
}

/// Arrival-tree simplifications: drop superpose branches (or unwrap a
/// singleton), and collapse shaped processes to plain Poisson at their
/// base rate. Iterating these converges every tree to a single Poisson
/// leaf.
fn shrink_arrivals(process: &ArrivalProcess) -> Vec<ArrivalProcess> {
    match process {
        ArrivalProcess::Superpose(children) if children.len() == 1 => vec![children[0].clone()],
        ArrivalProcess::Superpose(children) => children
            .iter()
            .enumerate()
            .map(|(drop, _)| {
                ArrivalProcess::Superpose(
                    children
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != drop)
                        .map(|(_, c)| c.clone())
                        .collect(),
                )
            })
            .chain(children.iter().cloned())
            .collect(),
        ArrivalProcess::Diurnal { mean_per_min, .. } => vec![ArrivalProcess::Poisson {
            rate_per_min: *mean_per_min,
        }],
        ArrivalProcess::Bursty { base_per_min, .. } => vec![ArrivalProcess::Poisson {
            rate_per_min: *base_per_min,
        }],
        ArrivalProcess::Poisson { .. } => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{library, scenario};

    fn steady_spec() -> ScenarioSpec {
        let mut spec = scenario("steady_poisson").unwrap();
        spec.seed = 7;
        spec
    }

    #[test]
    fn json_round_trip_is_lossless_for_every_library_scenario() {
        for spec in library() {
            let reloaded = ScenarioSpec::from_json_str(&spec.to_json_string_pretty()).unwrap();
            assert_eq!(reloaded, spec, "{}", spec.name);
        }
    }

    #[test]
    fn compile_reproduces_the_scenario_and_platform_knobs() {
        let spec = steady_spec();
        let compiled = spec.compile().unwrap();
        assert_eq!(compiled.scenario, spec.to_scenario());
        assert_eq!(compiled.scenario.name, "steady_poisson");
        assert_eq!(compiled.scenario.fleet, spec.fleet_dynamics);
        assert_eq!(compiled.config.seed, 7);
        assert_eq!(compiled.config.fleet, FleetSpec::paper_default());
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_path() {
        let mut json = steady_spec().to_json_string_pretty();
        json = json.replacen("\"name\"", "\"frequency\": 3,\n  \"name\"", 1);
        let err = ScenarioSpec::from_json_str(&json).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: unknown key `$.frequency` in scenario spec"
        );
    }

    #[test]
    fn rate_scale_walks_the_whole_tree() {
        let mut tree = ArrivalProcess::Superpose(vec![
            ArrivalProcess::Poisson { rate_per_min: 1.0 },
            ArrivalProcess::Bursty {
                base_per_min: 0.5,
                burst_multiplier: 4.0,
                burst_every: SimDuration::from_mins(10),
                burst_len: SimDuration::from_mins(1),
            },
        ]);
        scale_arrival_rates(&mut tree, 2.0);
        match tree {
            ArrivalProcess::Superpose(children) => {
                assert_eq!(children[0], ArrivalProcess::Poisson { rate_per_min: 2.0 });
                match children[1] {
                    ArrivalProcess::Bursty {
                        base_per_min,
                        burst_multiplier,
                        ..
                    } => {
                        assert_eq!(base_per_min, 1.0);
                        assert_eq!(burst_multiplier, 4.0, "shape must not scale");
                    }
                    ref other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shrink_converges_to_a_minimal_failing_spec() {
        // "Fails whenever any arrivals exist at all" — the shrinker must
        // walk everything else down to its floor without losing failure.
        let mut spec = scenario("mega_fleet").unwrap();
        spec.threads = 4;
        let minimal = shrink(&spec, |s| s.arrivals.peak_rate_per_min() > 0.0);
        assert!(minimal.horizon <= SimDuration::from_mins(1));
        assert!(matches!(minimal.arrivals, ArrivalProcess::Poisson { .. }));
        assert_eq!(minimal.fleet_dynamics, FleetDynamics::calm());
        assert_eq!(minimal.threads, 1);
        assert_eq!(minimal.template.rounds, (1, 1));
        assert!(minimal.fleet.total() >= 1);
    }

    #[test]
    fn validate_rejects_platform_side_violations() {
        let mut spec = steady_spec();
        spec.fleet = FleetSpec {
            local: simdc_types::PerGrade::from_parts(0, 0),
            msp: simdc_types::PerGrade::from_parts(0, 0),
        };
        assert_eq!(
            spec.validate().unwrap_err().to_string(),
            "invalid configuration: fleet must contain at least one phone"
        );
        // One past the id space (`segments` used to truncate the count to
        // u32), and counts whose sum wraps a usize.
        for high in [u32::MAX as usize + 1, usize::MAX] {
            let mut spec = steady_spec();
            spec.fleet.msp.high = high;
            let err = spec.validate().unwrap_err().to_string();
            assert!(
                err.starts_with("invalid configuration: fleet must contain at most 4294967295"),
                "{high}: {err}"
            );
        }
        let mut spec = steady_spec();
        spec.threads = MAX_THREADS + 1;
        assert!(spec.validate().is_err());
    }
}
