//! Example and dataset containers.

use serde::{Deserialize, Serialize};
use simdc_types::DeviceId;

use crate::features::FeatureVec;

/// One labelled CTR example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Hashed sparse features.
    pub features: FeatureVec,
    /// Click label.
    pub label: bool,
}

impl Example {
    /// Creates an example.
    #[must_use]
    pub fn new(features: FeatureVec, label: bool) -> Self {
        Example { features, label }
    }
}

/// An ordered collection of examples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    examples: Vec<Example>,
}

impl Dataset {
    /// Creates an empty dataset.
    #[must_use]
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset has no examples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// The examples in order.
    #[must_use]
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Appends an example.
    pub fn push(&mut self, example: Example) {
        self.examples.push(example);
    }

    /// Iterates over examples.
    pub fn iter(&self) -> impl Iterator<Item = &Example> {
        self.examples.iter()
    }

    /// Fraction of positive labels (0 for an empty dataset).
    #[must_use]
    pub fn positive_rate(&self) -> f64 {
        if self.examples.is_empty() {
            return 0.0;
        }
        self.examples.iter().filter(|e| e.label).count() as f64 / self.examples.len() as f64
    }
}

impl FromIterator<Example> for Dataset {
    fn from_iter<I: IntoIterator<Item = Example>>(iter: I) -> Self {
        Dataset {
            examples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Example> for Dataset {
    fn extend<I: IntoIterator<Item = Example>>(&mut self, iter: I) {
        self.examples.extend(iter);
    }
}

impl IntoIterator for Dataset {
    type Item = Example;
    type IntoIter = std::vec::IntoIter<Example>;
    fn into_iter(self) -> Self::IntoIter {
        self.examples.into_iter()
    }
}

/// A device's local shard plus device-level metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceDataset {
    /// The owning device.
    pub device: DeviceId,
    /// Ground-truth click-through rate of this device (drives non-IID-ness
    /// and, in Fig 9 scenarios, upload latency).
    pub ctr: f64,
    /// The local training shard.
    pub data: Dataset,
}

impl DeviceDataset {
    /// Creates a device dataset.
    #[must_use]
    pub fn new(device: DeviceId, ctr: f64, data: Dataset) -> Self {
        DeviceDataset { device, ctr, data }
    }

    /// Number of local examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the local shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureVec;

    fn ex(label: bool) -> Example {
        Example::new(FeatureVec::from_indices(vec![1, 2]), label)
    }

    #[test]
    fn positive_rate_counts_labels() {
        let ds: Dataset = vec![ex(true), ex(false), ex(true), ex(true)]
            .into_iter()
            .collect();
        assert_eq!(ds.positive_rate(), 0.75);
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn empty_dataset_rate_is_zero() {
        assert_eq!(Dataset::new().positive_rate(), 0.0);
        assert!(Dataset::new().is_empty());
    }

    #[test]
    fn extend_and_collect() {
        let mut ds = Dataset::new();
        ds.extend(vec![ex(true); 3]);
        ds.push(ex(false));
        assert_eq!(ds.len(), 4);
        let back: Dataset = ds.clone().into_iter().collect();
        assert_eq!(back, ds);
    }

    #[test]
    fn device_dataset_len_delegates() {
        let dd = DeviceDataset::new(
            DeviceId(3),
            0.2,
            vec![ex(true), ex(false)].into_iter().collect(),
        );
        assert_eq!(dd.len(), 2);
        assert!(!dd.is_empty());
    }
}
