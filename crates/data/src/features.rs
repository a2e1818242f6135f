//! Feature hashing for categorical fields.
//!
//! Categorical `(field, value)` pairs are hashed into a fixed-dimension
//! sparse binary vector (the standard "hashing trick" used for CTR models).
//! Values are implicitly `1.0`, so a feature vector is just a sorted list of
//! active indices.

use serde::{Deserialize, Serialize};

/// A sparse binary feature vector: sorted, deduplicated active indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureVec {
    indices: Box<[u32]>,
}

impl FeatureVec {
    /// Creates a feature vector from raw indices (sorted and deduplicated).
    #[must_use]
    pub fn from_indices(mut indices: Vec<u32>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        FeatureVec {
            indices: indices.into_boxed_slice(),
        }
    }

    /// The active indices, ascending.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of active features.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether no feature is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Hashes `(field, value)` pairs into `[0, dim)`.
///
/// ```
/// use simdc_data::FeatureHasher;
/// let hasher = FeatureHasher::new(1 << 12);
/// let a = hasher.index("banner_pos", 3);
/// assert!(a < (1 << 12));
/// assert_eq!(a, hasher.index("banner_pos", 3));
/// assert_ne!(a, hasher.index("banner_pos", 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureHasher {
    dim: u32,
}

impl FeatureHasher {
    /// Creates a hasher with output dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn new(dim: u32) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        FeatureHasher { dim }
    }

    /// The output dimension.
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Hashes one `(field, value)` pair to an index in `[0, dim)`.
    #[must_use]
    pub fn index(&self, field: &str, value: u32) -> u32 {
        // FNV-1a over the field name, then the value bytes, finished with a
        // splitmix-style avalanche so low-cardinality fields spread out.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in field.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        for b in value.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % u64::from(self.dim)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_sorted_and_deduped() {
        let v = FeatureVec::from_indices(vec![9, 3, 3, 1]);
        assert_eq!(v.indices(), &[1, 3, 9]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn hashing_is_deterministic_and_in_range() {
        let h = FeatureHasher::new(4096);
        for value in 0..200 {
            let idx = h.index("device_model", value);
            assert!(idx < 4096);
            assert_eq!(idx, h.index("device_model", value));
        }
    }

    #[test]
    fn different_fields_rarely_collide() {
        let h = FeatureHasher::new(1 << 16);
        let collisions = (0..500u32)
            .filter(|&v| h.index("c14", v) == h.index("c17", v))
            .count();
        assert!(
            collisions < 5,
            "too many cross-field collisions: {collisions}"
        );
    }

    #[test]
    fn values_spread_across_dimension() {
        let h = FeatureHasher::new(1 << 14);
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..1_000u32 {
            seen.insert(h.index("c14", v));
        }
        assert!(seen.len() > 950, "hash should be near-injective here");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = FeatureHasher::new(0);
    }
}
