//! Task templates: randomized but bounded [`TaskSpec`] generation.
//!
//! A template describes a *population* of tasks — ranges for rounds,
//! per-grade device counts and priorities plus a fixed resource-request
//! scheme per grade — and stamps out concrete specs from an [`RngStream`].
//! Same stream state ⇒ same spec, which is what keeps whole scenarios
//! seed-deterministic.

use serde::{Deserialize, Serialize};
use simdc_core::{AggregationTrigger, AllocationPolicy, GradeRequirement, TaskSpec};
use simdc_ml::TrainConfig;
use simdc_simrt::RngStream;
use simdc_types::{DeviceGrade, Result, SimDuration, SimdcError, TaskId};

/// The most simulated devices a task may draw per grade
/// ([`TaskTemplate::devices_per_grade`]). A task's devices are trained one
/// by one every round, so the bound keeps a spec's work finite; a range
/// near `u64::MAX` would overflow the device total.
pub const MAX_DEVICES_PER_GRADE: u64 = 100_000;

/// Per-grade resource-request scheme (the paper's `f`, `k`, `m` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GradeScheme {
    /// Unit bundles requested in Logical Simulation (`f`).
    pub unit_bundles: u64,
    /// Unit bundles per simulated device (`k`).
    pub units_per_device: u64,
    /// Computation phones requested (`m`).
    pub phones: u64,
}

impl GradeScheme {
    /// The default High-grade scheme (mirrors the §VI-B experiments at a
    /// size that lets two tasks run concurrently on the paper platform).
    #[must_use]
    pub fn high_default() -> Self {
        GradeScheme {
            unit_bundles: 48,
            units_per_device: 8,
            phones: 4,
        }
    }

    /// The default Low-grade scheme.
    #[must_use]
    pub fn low_default() -> Self {
        GradeScheme {
            unit_bundles: 24,
            units_per_device: 2,
            phones: 3,
        }
    }
}

/// A generator of task specifications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTemplate {
    /// Inclusive range of federated rounds per task.
    pub rounds: (u32, u32),
    /// Inclusive range of simulated devices per participating grade, in
    /// `[1, MAX_DEVICES_PER_GRADE]`.
    pub devices_per_grade: (u64, u64),
    /// Priorities are drawn uniformly from `0..priority_levels`.
    pub priority_levels: u32,
    /// Benchmark phones requested per participating grade.
    pub benchmark_phones: u64,
    /// Probability that a task spans both grades (otherwise one grade is
    /// picked uniformly).
    pub both_grades_prob: f64,
    /// Resource scheme for High-grade participation.
    pub high: GradeScheme,
    /// Resource scheme for Low-grade participation.
    pub low: GradeScheme,
    /// Per-round timeout stamped on every generated spec.
    pub round_timeout: SimDuration,
    /// Hybrid allocation policy stamped on every generated spec
    /// (`Optimized` routes small tasks fully logical; a fixed fraction
    /// forces phone-cluster participation, which is what lets fleet
    /// perturbations bite).
    pub allocation: AllocationPolicy,
}

impl Default for TaskTemplate {
    fn default() -> Self {
        TaskTemplate {
            rounds: (1, 3),
            devices_per_grade: (8, 24),
            priority_levels: 10,
            benchmark_phones: 0,
            both_grades_prob: 0.5,
            high: GradeScheme::high_default(),
            low: GradeScheme::low_default(),
            round_timeout: SimDuration::from_mins(240),
            allocation: AllocationPolicy::Optimized,
        }
    }
}

impl TaskTemplate {
    /// Validates the template's ranges.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` for inverted ranges, zero rounds/devices,
    /// more than [`MAX_DEVICES_PER_GRADE`] devices, zero priority levels or
    /// a probability outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if self.rounds.0 == 0 || self.rounds.0 > self.rounds.1 {
            return Err(InvalidConfig(format!(
                "rounds range must satisfy 1 <= lo <= hi, got {:?}",
                self.rounds
            )));
        }
        if self.devices_per_grade.0 == 0 || self.devices_per_grade.0 > self.devices_per_grade.1 {
            return Err(InvalidConfig(format!(
                "device range must satisfy 1 <= lo <= hi, got {:?}",
                self.devices_per_grade
            )));
        }
        if self.devices_per_grade.1 > MAX_DEVICES_PER_GRADE {
            return Err(InvalidConfig(format!(
                "devices_per_grade must be at most {MAX_DEVICES_PER_GRADE}, got {}",
                self.devices_per_grade.1
            )));
        }
        if self.priority_levels == 0 {
            return Err(InvalidConfig("priority_levels must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.both_grades_prob) {
            return Err(InvalidConfig(format!(
                "both_grades_prob must be in [0, 1], got {}",
                self.both_grades_prob
            )));
        }
        if self.high.units_per_device == 0 || self.low.units_per_device == 0 {
            return Err(InvalidConfig("units_per_device (k) must be > 0".into()));
        }
        if self.round_timeout.is_zero() {
            return Err(InvalidConfig("round_timeout must be positive".into()));
        }
        self.allocation.validate()
    }

    /// Stamps out one concrete spec for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the template fails [`TaskTemplate::validate`] (generated
    /// specs from a valid template always pass [`TaskSpec::validate`]).
    #[must_use]
    pub fn instantiate(&self, id: TaskId, rng: &mut RngStream) -> TaskSpec {
        self.validate().expect("task template must be valid");
        let draw =
            |rng: &mut RngStream, lo: u64, hi: u64| lo + rng.index((hi - lo + 1) as usize) as u64;
        let rounds = draw(rng, u64::from(self.rounds.0), u64::from(self.rounds.1)) as u32;
        let priority = rng.index(self.priority_levels as usize) as u32;
        let grades: Vec<DeviceGrade> = if rng.chance(self.both_grades_prob) {
            vec![DeviceGrade::High, DeviceGrade::Low]
        } else if rng.chance(0.5) {
            vec![DeviceGrade::High]
        } else {
            vec![DeviceGrade::Low]
        };

        let mut builder = TaskSpec::builder(id);
        builder
            .priority(priority)
            .rounds(rounds)
            .round_timeout(self.round_timeout)
            .allocation(self.allocation)
            .train(TrainConfig {
                learning_rate: 0.3,
                epochs: 3,
            })
            .seed(rng.next_u64());
        let mut total_devices = 0u64;
        for grade in &grades {
            let n = draw(rng, self.devices_per_grade.0, self.devices_per_grade.1);
            total_devices += n;
            let scheme = match grade {
                DeviceGrade::High => self.high,
                DeviceGrade::Low => self.low,
            };
            builder.grade(GradeRequirement {
                grade: *grade,
                total_devices: n,
                benchmark_phones: self.benchmark_phones.min(n),
                logical_unit_bundles: scheme.unit_bundles,
                units_per_device: scheme.units_per_device,
                phones: scheme.phones,
            });
        }
        builder.trigger(AggregationTrigger::DeviceThreshold {
            min_devices: total_devices,
        });
        builder.build().expect("template-generated spec is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_are_valid_and_in_range() {
        let template = TaskTemplate::default();
        let mut rng = RngStream::named(11, "template");
        for i in 0..50u64 {
            let spec = template.instantiate(TaskId(i), &mut rng);
            assert!(spec.validate().is_ok());
            assert!((1..=3).contains(&spec.rounds));
            assert!(spec.priority < 10);
            assert!(!spec.grades.is_empty() && spec.grades.len() <= 2);
            for g in &spec.grades {
                assert!((8..=24).contains(&g.total_devices));
            }
        }
    }

    #[test]
    fn instantiation_is_deterministic_per_stream_state() {
        let template = TaskTemplate::default();
        let mut a = RngStream::named(4, "template");
        let mut b = RngStream::named(4, "template");
        for i in 0..10u64 {
            assert_eq!(
                template.instantiate(TaskId(i), &mut a),
                template.instantiate(TaskId(i), &mut b)
            );
        }
        let mut c = RngStream::named(5, "template");
        let differs = (0..10u64).any(|i| {
            template.instantiate(TaskId(i), &mut c)
                != template.instantiate(TaskId(i), &mut RngStream::named(4, "template"))
        });
        assert!(differs, "different seeds should generate different specs");
    }

    #[test]
    fn single_grade_template_stays_single() {
        let template = TaskTemplate {
            both_grades_prob: 0.0,
            ..TaskTemplate::default()
        };
        let mut rng = RngStream::named(8, "template");
        for i in 0..20u64 {
            assert_eq!(template.instantiate(TaskId(i), &mut rng).grades.len(), 1);
        }
        let template = TaskTemplate {
            both_grades_prob: 1.0,
            ..TaskTemplate::default()
        };
        for i in 0..20u64 {
            assert_eq!(template.instantiate(TaskId(i), &mut rng).grades.len(), 2);
        }
    }

    #[test]
    fn benchmark_phones_clamped_to_devices() {
        let template = TaskTemplate {
            benchmark_phones: 100,
            devices_per_grade: (2, 4),
            ..TaskTemplate::default()
        };
        let mut rng = RngStream::named(9, "template");
        let spec = template.instantiate(TaskId(1), &mut rng);
        for g in &spec.grades {
            assert!(g.benchmark_phones <= g.total_devices);
        }
    }

    #[test]
    fn validation_rejects_bad_templates() {
        let bad_rounds = TaskTemplate {
            rounds: (0, 3),
            ..TaskTemplate::default()
        };
        assert!(bad_rounds.validate().is_err());
        let inverted = TaskTemplate {
            rounds: (3, 1),
            ..TaskTemplate::default()
        };
        assert!(inverted.validate().is_err());
        let no_devices = TaskTemplate {
            devices_per_grade: (0, 4),
            ..TaskTemplate::default()
        };
        assert!(no_devices.validate().is_err());
        let bad_prob = TaskTemplate {
            both_grades_prob: 1.5,
            ..TaskTemplate::default()
        };
        assert!(bad_prob.validate().is_err());
        let no_priorities = TaskTemplate {
            priority_levels: 0,
            ..TaskTemplate::default()
        };
        assert!(no_priorities.validate().is_err());
    }
}
