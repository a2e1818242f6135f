//! Task design specifications (§III-A).
//!
//! A task is the core operational unit of SimDC: a unique id, a number of
//! rounds in which every simulated device loads its shard, trains locally
//! and uploads its update, per-grade device populations with explicit
//! resource requests, a scheduling priority, an optional DeviceFlow
//! strategy and a cloud aggregation trigger.

use serde::{Deserialize, Serialize};
use simdc_deviceflow::DispatchStrategy;
use simdc_ml::TrainConfig;
use simdc_types::{DeviceGrade, Result, SimDuration, SimdcError, TaskId};

use crate::cloud::AggregationTrigger;

/// Per-grade device population and resource request (the paper's `N`, `q`,
/// `f`, `k`, `m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GradeRequirement {
    /// The grade.
    pub grade: DeviceGrade,
    /// Devices to simulate (`N`).
    pub total_devices: u64,
    /// Benchmarking phones reserved exclusively for performance
    /// measurement (`q`); requested *on top of* [`GradeRequirement::phones`].
    pub benchmark_phones: u64,
    /// Unit resource bundles requested in Logical Simulation (`f`).
    pub logical_unit_bundles: u64,
    /// Unit bundles per simulated device (`k`).
    pub units_per_device: u64,
    /// Computation phones requested in Device Simulation (`m`).
    pub phones: u64,
}

impl GradeRequirement {
    /// A sensible default request for `n` devices of `grade`: bundles for
    /// ten parallel actors, the paper's `k` per grade (8 for High, 1 for
    /// Low — 4 cores/12 GB vs 1 core/6 GB rounded to unit bundles), and a
    /// small phone allotment.
    #[must_use]
    pub fn sized(grade: DeviceGrade, n: u64) -> Self {
        let k = match grade {
            DeviceGrade::High => 8,
            DeviceGrade::Low => 2,
        };
        GradeRequirement {
            grade,
            total_devices: n,
            benchmark_phones: 0,
            logical_unit_bundles: k * 10,
            units_per_device: k,
            phones: 4,
        }
    }

    /// Validates the requirement.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for zero `k` or a benchmark count exceeding
    /// either the device population or the phone allotment.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.units_per_device == 0 {
            return Err(InvalidConfig("units_per_device (k) must be > 0".into()));
        }
        if self.benchmark_phones > self.total_devices {
            return Err(InvalidConfig(format!(
                "benchmark phones ({}) exceed devices ({})",
                self.benchmark_phones, self.total_devices
            )));
        }
        Ok(())
    }
}

/// How the task's devices are split across hybrid resources.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Use the hybrid allocation optimizer (§IV-B).
    Optimized,
    /// Fixed split: this fraction of splittable devices goes to Logical
    /// Simulation (the paper's Type 1–5 ratios: 1.0, 0.75, 0.5, 0.25, 0).
    FixedLogicalFraction(f64),
}

impl AllocationPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for fractions outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if let AllocationPolicy::FixedLogicalFraction(f) = self {
            if !(0.0..=1.0).contains(f) {
                return Err(SimdcError::InvalidConfig(format!(
                    "logical fraction must be in [0, 1], got {f}"
                )));
            }
        }
        Ok(())
    }
}

/// A complete task specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique task id.
    pub id: TaskId,
    /// Scheduling priority (higher runs first; the "expected benefit" the
    /// greedy scheduler maximizes).
    pub priority: u32,
    /// Rounds of load → train → upload (multi-round device-cloud
    /// collaboration).
    pub rounds: u32,
    /// Per-grade populations and resource requests.
    pub grades: Vec<GradeRequirement>,
    /// DeviceFlow strategy (None = bypass DeviceFlow, deliver directly).
    pub strategy: Option<DispatchStrategy>,
    /// Cloud aggregation trigger.
    pub trigger: AggregationTrigger,
    /// Per-round timeout if the trigger never fires.
    pub round_timeout: SimDuration,
    /// Local training hyper-parameters.
    pub train: TrainConfig,
    /// Allocation policy.
    pub allocation: AllocationPolicy,
    /// Task-level RNG seed.
    pub seed: u64,
}

impl TaskSpec {
    /// Starts a builder for task `id`.
    #[must_use]
    pub fn builder(id: TaskId) -> TaskSpecBuilder {
        TaskSpecBuilder::new(id)
    }

    /// Total devices across grades.
    #[must_use]
    pub fn total_devices(&self) -> u64 {
        self.grades.iter().map(|g| g.total_devices).sum()
    }

    /// The requirement of a grade, if present.
    #[must_use]
    pub fn grade(&self, grade: DeviceGrade) -> Option<&GradeRequirement> {
        self.grades.iter().find(|g| g.grade == grade)
    }

    /// Validates the full specification.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` describing the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.rounds == 0 {
            return Err(InvalidConfig("rounds must be > 0".into()));
        }
        if self.grades.is_empty() {
            return Err(InvalidConfig("at least one grade requirement".into()));
        }
        for (i, g) in self.grades.iter().enumerate() {
            if self.grades[..i].iter().any(|h| h.grade == g.grade) {
                return Err(InvalidConfig(format!(
                    "duplicate grade requirement for {}",
                    g.grade
                )));
            }
            g.validate()?;
        }
        if self.round_timeout.is_zero() {
            return Err(InvalidConfig("round_timeout must be positive".into()));
        }
        if let Some(s) = &self.strategy {
            s.validate()
                .map_err(|e| InvalidConfig(format!("strategy: {e}")))?;
        }
        self.trigger.validate()?;
        self.train.validate()?;
        self.allocation.validate()?;
        Ok(())
    }
}

/// Builder for [`TaskSpec`] (`C-BUILDER`).
#[derive(Debug, Clone)]
pub struct TaskSpecBuilder {
    spec: TaskSpec,
}

impl TaskSpecBuilder {
    fn new(id: TaskId) -> Self {
        TaskSpecBuilder {
            spec: TaskSpec {
                id,
                priority: 0,
                rounds: 1,
                grades: Vec::new(),
                strategy: None,
                trigger: AggregationTrigger::DeviceThreshold { min_devices: 1 },
                round_timeout: SimDuration::from_mins(30),
                train: TrainConfig::default(),
                allocation: AllocationPolicy::Optimized,
                seed: 0,
            },
        }
    }

    /// Sets the scheduling priority.
    pub fn priority(&mut self, priority: u32) -> &mut Self {
        self.spec.priority = priority;
        self
    }

    /// Sets the number of rounds.
    pub fn rounds(&mut self, rounds: u32) -> &mut Self {
        self.spec.rounds = rounds;
        self
    }

    /// Adds a grade requirement.
    pub fn grade(&mut self, requirement: GradeRequirement) -> &mut Self {
        self.spec.grades.push(requirement);
        self
    }

    /// Routes messages through DeviceFlow with this strategy.
    pub fn strategy(&mut self, strategy: DispatchStrategy) -> &mut Self {
        self.spec.strategy = Some(strategy);
        self
    }

    /// Sets the aggregation trigger.
    pub fn trigger(&mut self, trigger: AggregationTrigger) -> &mut Self {
        self.spec.trigger = trigger;
        self
    }

    /// Sets the per-round timeout.
    pub fn round_timeout(&mut self, timeout: SimDuration) -> &mut Self {
        self.spec.round_timeout = timeout;
        self
    }

    /// Sets the training hyper-parameters.
    pub fn train(&mut self, train: TrainConfig) -> &mut Self {
        self.spec.train = train;
        self
    }

    /// Sets the allocation policy.
    pub fn allocation(&mut self, policy: AllocationPolicy) -> &mut Self {
        self.spec.allocation = policy;
        self
    }

    /// Sets the task seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.spec.seed = seed;
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSpec::validate`].
    pub fn build(&self) -> Result<TaskSpec> {
        self.spec.validate()?;
        Ok(self.spec.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> TaskSpec {
        TaskSpec::builder(TaskId(1))
            .grade(GradeRequirement::sized(DeviceGrade::High, 10))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_default() {
        let spec = minimal();
        assert_eq!(spec.rounds, 1);
        assert_eq!(spec.total_devices(), 10);
        assert!(spec.grade(DeviceGrade::High).is_some());
        assert!(spec.grade(DeviceGrade::Low).is_none());
    }

    #[test]
    fn spec_rejects_bad_rounds_and_grades() {
        let mut b = TaskSpec::builder(TaskId(1));
        b.grade(GradeRequirement::sized(DeviceGrade::High, 10));
        assert!(b.rounds(0).build().is_err());
        b.rounds(1);
        // Duplicate grade.
        b.grade(GradeRequirement::sized(DeviceGrade::High, 5));
        assert!(b.build().is_err());
    }

    #[test]
    fn grade_requirement_validation() {
        let mut g = GradeRequirement::sized(DeviceGrade::High, 10);
        g.units_per_device = 0;
        assert!(g.validate().is_err());
        let mut g = GradeRequirement::sized(DeviceGrade::High, 10);
        g.benchmark_phones = 20;
        assert!(g.validate().is_err());
        // Benchmark phones come on top of compute phones, so exceeding the
        // compute allotment is fine.
        let mut g = GradeRequirement::sized(DeviceGrade::High, 10);
        g.benchmark_phones = 5;
        g.phones = 3;
        assert!(g.validate().is_ok());
    }

    #[test]
    fn allocation_policy_validation() {
        assert!(AllocationPolicy::Optimized.validate().is_ok());
        assert!(AllocationPolicy::FixedLogicalFraction(0.75)
            .validate()
            .is_ok());
        assert!(AllocationPolicy::FixedLogicalFraction(1.5)
            .validate()
            .is_err());
        assert!(AllocationPolicy::FixedLogicalFraction(-0.1)
            .validate()
            .is_err());
    }

    #[test]
    fn spec_propagates_substrategy_validation() {
        let mut b = TaskSpec::builder(TaskId(1));
        b.grade(GradeRequirement::sized(DeviceGrade::High, 10))
            .strategy(DispatchStrategy::RealTimeAccumulated {
                thresholds: vec![],
                failure_prob: 0.0,
            });
        assert!(b.build().is_err());
        let mut b = TaskSpec::builder(TaskId(1));
        b.grade(GradeRequirement::sized(DeviceGrade::High, 10))
            .trigger(AggregationTrigger::SampleThreshold { min_samples: 0 });
        assert!(b.build().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let spec = minimal();
        let json = serde_json::to_string(&spec).unwrap();
        let back: TaskSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
