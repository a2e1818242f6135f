//! Resource bundles.
//!
//! The logical-simulation cluster emulates devices with *unit resource
//! bundles* — e.g. `{CPU: 1 core, memory: 1 GB}` — and a grade-`g` device
//! needs `k_g` such units (§IV-B). [`ResourceBundle`] sizes a node and the
//! unit; everything above it counts in units.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An amount of compute resources: CPU, memory and (optionally) GPU.
///
/// CPU is measured in millicores (1 core = 1000) and GPU in milli-GPUs so
/// that fractional allocations stay in integer arithmetic; memory is in MiB.
///
/// ```
/// use simdc_types::ResourceBundle;
/// let unit = ResourceBundle::new(1_000, 1_024, 0);
/// let node = ResourceBundle::new(8_000, 32_768, 0);
/// assert!(node.contains(&unit));
/// assert_eq!(node.max_bundles(&unit), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceBundle {
    /// CPU in millicores (1 physical core = 1000).
    pub cpu_millicores: u64,
    /// Memory in MiB.
    pub memory_mib: u64,
    /// GPU in milli-GPUs (1 full accelerator = 1000).
    pub gpu_millis: u64,
}

impl ResourceBundle {
    /// The empty bundle.
    pub const ZERO: ResourceBundle = ResourceBundle {
        cpu_millicores: 0,
        memory_mib: 0,
        gpu_millis: 0,
    };

    /// Creates a bundle from explicit quantities.
    #[must_use]
    pub const fn new(cpu_millicores: u64, memory_mib: u64, gpu_millis: u64) -> Self {
        ResourceBundle {
            cpu_millicores,
            memory_mib,
            gpu_millis,
        }
    }

    /// Convenience constructor for CPU-only bundles, in whole cores and GiB.
    ///
    /// The paper's unit bundle `{CPU: 1 core, memory: 1 GB}` is
    /// `ResourceBundle::cores_gib(1, 1)`.
    #[must_use]
    pub const fn cores_gib(cores: u64, gib: u64) -> Self {
        ResourceBundle {
            cpu_millicores: cores * 1_000,
            memory_mib: gib * 1_024,
            gpu_millis: 0,
        }
    }

    /// Whether every component of `other` fits inside `self`.
    #[must_use]
    pub const fn contains(&self, other: &ResourceBundle) -> bool {
        self.cpu_millicores >= other.cpu_millicores
            && self.memory_mib >= other.memory_mib
            && self.gpu_millis >= other.gpu_millis
    }

    /// Whether the bundle is all zeros.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.cpu_millicores == 0 && self.memory_mib == 0 && self.gpu_millis == 0
    }

    /// How many copies of `unit` fit in `self` simultaneously.
    ///
    /// Returns `u64::MAX` only when `unit` is the zero bundle and `self`
    /// is non-empty in every dimension requested (a zero unit fits
    /// unboundedly); callers should validate units beforehand.
    #[must_use]
    pub fn max_bundles(&self, unit: &ResourceBundle) -> u64 {
        fn ratio(avail: u64, unit: u64) -> u64 {
            avail.checked_div(unit).unwrap_or(u64::MAX)
        }
        ratio(self.cpu_millicores, unit.cpu_millicores)
            .min(ratio(self.memory_mib, unit.memory_mib))
            .min(ratio(self.gpu_millis, unit.gpu_millis))
    }
}

impl fmt::Display for ResourceBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{cpu: {:.1} cores, mem: {} MiB",
            self.cpu_millicores as f64 / 1_000.0,
            self.memory_mib
        )?;
        if self.gpu_millis > 0 {
            write!(f, ", gpu: {:.1}", self.gpu_millis as f64 / 1_000.0)?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_gib_matches_paper_unit() {
        let unit = ResourceBundle::cores_gib(1, 1);
        assert_eq!(unit.cpu_millicores, 1_000);
        assert_eq!(unit.memory_mib, 1_024);
    }

    #[test]
    fn contains_is_component_wise() {
        let big = ResourceBundle::new(4_000, 12_288, 0);
        assert!(big.contains(&ResourceBundle::new(4_000, 12_288, 0)));
        assert!(!big.contains(&ResourceBundle::new(4_001, 1, 0)));
        assert!(!big.contains(&ResourceBundle::new(1, 1, 1)));
    }

    #[test]
    fn max_bundles_limited_by_scarcest_dimension() {
        let node = ResourceBundle::new(200_000, 300 * 1_024, 0);
        let high = ResourceBundle::cores_gib(4, 12);
        // 200 cores / 4 = 50 actors by CPU; 300 GiB / 12 GiB = 25 by memory.
        assert_eq!(node.max_bundles(&high), 25);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(
            ResourceBundle::cores_gib(1, 1).to_string(),
            "{cpu: 1.0 cores, mem: 1024 MiB}"
        );
        assert!(!format!("{}", ResourceBundle::ZERO).is_empty());
    }
}
