//! Placement groups: all-or-nothing reservations of actors.

use serde::{Deserialize, Serialize};
use simdc_types::{NodeId, Result};

use crate::node::NodePool;

/// Identifier of a placement group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PlacementGroupId(pub u64);

impl std::fmt::Display for PlacementGroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pg-{}", self.0)
    }
}

/// A placed group: which node each actor landed on.
///
/// Ray semantics: the group is created atomically — if any actor cannot be
/// placed, none are, and the pool is left untouched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementGroup {
    id: PlacementGroupId,
    units: u64,
    placements: Vec<NodeId>,
}

impl PlacementGroup {
    /// Atomically places `count` actors of `units` unit bundles each onto
    /// the pool ([`NodePool::place`]).
    ///
    /// # Errors
    ///
    /// Returns [`simdc_types::SimdcError::ResourceExhausted`] if the full
    /// group does not fit; in that case no resources are reserved.
    pub fn create(
        id: PlacementGroupId,
        pool: &mut NodePool,
        units: u64,
        count: usize,
    ) -> Result<Self> {
        Ok(PlacementGroup {
            id,
            units,
            placements: pool.place(units, count)?,
        })
    }

    /// Group id.
    #[must_use]
    pub fn id(&self) -> PlacementGroupId {
        self.id
    }

    /// Unit bundles per actor (`k`).
    #[must_use]
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Node of each placed actor, in actor order.
    #[must_use]
    pub fn placements(&self) -> &[NodeId] {
        &self.placements
    }

    /// Number of actors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether the group holds no actors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Releases every actor's units back to the pool.
    pub fn release(&self, pool: &mut NodePool) {
        for &node in &self.placements {
            if let Some(n) = pool.node_mut(node) {
                n.release(self.units);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::ResourceBundle;

    fn pool() -> NodePool {
        NodePool::new(
            ResourceBundle::cores_gib(4, 8),
            ResourceBundle::cores_gib(1, 1),
            2,
            2,
        )
    }

    #[test]
    fn create_and_release() {
        let mut pool = pool();
        let pg = PlacementGroup::create(PlacementGroupId(1), &mut pool, 2, 3).unwrap();
        assert_eq!(pg.len(), 3);
        assert_eq!(pg.placements(), [NodeId(0), NodeId(0), NodeId(1)]);
        assert_eq!(pool.placeable(), 2);
        pg.release(&mut pool);
        assert_eq!(pool.placeable(), pool.unit_capacity());
    }

    #[test]
    fn create_is_atomic_on_failure() {
        let mut pool = pool();
        // 5 actors of 2 units need 10 units; the pool has 8.
        let result = PlacementGroup::create(PlacementGroupId(2), &mut pool, 2, 5);
        assert!(result.is_err());
        assert_eq!(pool.placeable(), 8, "failed create must roll back");
    }

    #[test]
    fn zero_count_group_is_empty() {
        let mut pool = pool();
        let pg = PlacementGroup::create(PlacementGroupId(3), &mut pool, 1, 0).unwrap();
        assert!(pg.is_empty());
    }

    #[test]
    fn display_id() {
        assert_eq!(PlacementGroupId(7).to_string(), "pg-7");
    }
}
