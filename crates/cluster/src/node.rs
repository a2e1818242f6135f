//! Worker nodes and the elastic node pool.
//!
//! The pool is *time-aware*: scaling up does not hand out capacity at the
//! call instant. A freshly requested node enters [`NodeState::Booting`] and
//! only becomes visible to placement once the virtual clock — advanced by
//! the owner through [`NodePool::advance_to`] — passes its ready instant.
//! Scaling in is *drain-then-retire*: a draining node stops accepting new
//! bundles immediately but is only removed once its last allocation is
//! released. Both halves are what lets the platform interleave node
//! lifecycle events with task completions on one timeline.

use serde::{Deserialize, Serialize};
use simdc_types::{NodeId, ResourceBundle, Result, SimInstant, SimdcError};

/// Lifecycle state of a worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Requested from the elastic substrate; capacity is invisible to
    /// placement until the virtual clock reaches `ready_at`.
    Booting {
        /// Instant at which the node finishes booting.
        ready_at: SimInstant,
    },
    /// Up and accepting placements.
    Ready,
    /// Marked for retirement: accepts no new placements and is removed by
    /// [`NodePool::advance_to`] once its allocation drains to zero.
    Draining,
}

/// One worker node: total capacity, the amount currently allocated, and
/// its lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerNode {
    id: NodeId,
    capacity: ResourceBundle,
    allocated: ResourceBundle,
    state: NodeState,
}

impl WorkerNode {
    /// Creates an empty, ready node with the given capacity.
    #[must_use]
    pub fn new(id: NodeId, capacity: ResourceBundle) -> Self {
        WorkerNode {
            id,
            capacity,
            allocated: ResourceBundle::ZERO,
            state: NodeState::Ready,
        }
    }

    /// Node identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> ResourceBundle {
        self.capacity
    }

    /// Currently allocated resources.
    #[must_use]
    pub fn allocated(&self) -> ResourceBundle {
        self.allocated
    }

    /// Lifecycle state.
    #[must_use]
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Whether the node is up and accepting placements.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state == NodeState::Ready
    }

    /// Whether the node is still booting.
    #[must_use]
    pub fn is_booting(&self) -> bool {
        matches!(self.state, NodeState::Booting { .. })
    }

    /// Whether the node is draining toward retirement.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state == NodeState::Draining
    }

    /// Remaining free resources.
    #[must_use]
    pub fn free(&self) -> ResourceBundle {
        self.capacity.saturating_sub(&self.allocated)
    }

    /// Whether `bundle` currently fits on this node (capacity only; the
    /// pool additionally requires [`WorkerNode::is_ready`] for placement).
    #[must_use]
    pub fn fits(&self, bundle: &ResourceBundle) -> bool {
        self.free().contains(bundle)
    }

    /// Reserves `bundle` on this node.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] if it does not fit or the
    /// node is not ready (booting or draining nodes accept no placements).
    pub fn reserve(&mut self, bundle: &ResourceBundle) -> Result<()> {
        if !self.is_ready() || !self.fits(bundle) {
            return Err(SimdcError::ResourceExhausted {
                requested: bundle.to_string(),
                available: self.free().to_string(),
            });
        }
        self.allocated += *bundle;
        Ok(())
    }

    /// Releases a previously reserved bundle.
    ///
    /// Release must pair with a reservation: debug builds assert the
    /// bundle fits inside the current allocation, so a double release (or
    /// releasing on the wrong node) cannot silently zero-clamp and mask an
    /// accounting bug — mirroring the platform's lease-pairing invariant.
    /// Release builds keep the saturating subtraction as a safety net.
    pub fn release(&mut self, bundle: &ResourceBundle) {
        debug_assert!(
            self.allocated.contains(bundle),
            "release of {bundle} exceeds allocation {} on node {} (double release?)",
            self.allocated,
            self.id
        );
        self.allocated = self.allocated.saturating_sub(bundle);
    }

    /// Whether nothing is allocated.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.allocated.is_zero()
    }
}

/// An elastically scalable pool of identical worker nodes (the k8s layer).
///
/// Scale-up charges boot latency: [`NodePool::scale_up`] adds *booting*
/// nodes whose capacity placement cannot see until
/// [`NodePool::advance_to`] passes their ready instant.
/// Scale-in is drain-then-retire via [`NodePool::drain`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePool {
    template: ResourceBundle,
    max_nodes: usize,
    nodes: Vec<WorkerNode>,
    next_id: u32,
    /// Lifetime counters for elasticity reporting.
    booted_total: u64,
    retired_total: u64,
    peak_nodes: usize,
}

impl NodePool {
    /// Creates a pool of `initial` *ready* nodes of size `template`,
    /// allowed to grow to `max_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `template` is the zero bundle, `initial` is zero, or
    /// `initial > max_nodes`.
    #[must_use]
    pub fn new(template: ResourceBundle, initial: usize, max_nodes: usize) -> Self {
        assert!(!template.is_zero(), "node template must be non-empty");
        assert!(initial > 0, "pool needs at least one node");
        assert!(initial <= max_nodes, "initial nodes exceed max_nodes");
        let mut pool = NodePool {
            template,
            max_nodes,
            nodes: Vec::new(),
            next_id: 0,
            booted_total: 0,
            retired_total: 0,
            peak_nodes: 0,
        };
        for _ in 0..initial {
            pool.add_node(NodeState::Ready);
        }
        pool
    }

    fn add_node(&mut self, state: NodeState) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let mut node = WorkerNode::new(id, self.template);
        node.state = state;
        self.nodes.push(node);
        self.booted_total += 1;
        self.peak_nodes = self.peak_nodes.max(self.nodes.len());
        id
    }

    /// The per-node capacity template.
    #[must_use]
    pub fn template(&self) -> ResourceBundle {
        self.template
    }

    /// The elastic ceiling.
    #[must_use]
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// The nodes currently in the pool (every lifecycle state).
    #[must_use]
    pub fn nodes(&self) -> &[WorkerNode] {
        &self.nodes
    }

    /// Mutable node access by id: how placement groups reserve and
    /// release.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Option<&mut WorkerNode> {
        self.nodes.iter_mut().find(|n| n.id() == id)
    }

    /// Number of nodes in any state (physical footprint — what the cost
    /// meter bills).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool holds no nodes at all (possible once every node
    /// has drained and retired).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of ready nodes.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_ready()).count()
    }

    /// Number of booting nodes.
    #[must_use]
    pub fn booting_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_booting()).count()
    }

    /// Number of draining nodes.
    #[must_use]
    pub fn draining_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_draining()).count()
    }

    /// Nodes ever booted (including the initial set).
    #[must_use]
    pub fn booted_total(&self) -> u64 {
        self.booted_total
    }

    /// Nodes ever retired.
    #[must_use]
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Largest physical footprint the pool ever reached.
    #[must_use]
    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    /// Total capacity across *ready* nodes — the capacity placement (and
    /// the Resource Manager's total) can actually count on. Booting nodes
    /// are excluded until they come up; draining nodes accept no new work.
    #[must_use]
    pub fn total_capacity(&self) -> ResourceBundle {
        self.nodes
            .iter()
            .filter(|n| n.is_ready())
            .map(WorkerNode::capacity)
            .sum()
    }

    /// Total free resources across ready nodes.
    #[must_use]
    pub fn total_free(&self) -> ResourceBundle {
        self.nodes
            .iter()
            .filter(|n| n.is_ready())
            .map(WorkerNode::free)
            .sum()
    }

    /// How many `unit` bundles the ready nodes could hold at full capacity
    /// (ignoring current allocations), respecting per-node boundaries.
    #[must_use]
    pub fn unit_capacity(&self, unit: &ResourceBundle) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.is_ready())
            .map(|n| n.capacity().max_bundles(unit))
            .sum()
    }

    /// Fraction of ready-node CPU capacity currently allocated, in
    /// `[0, 1]`. Allocations still held on *draining* nodes count toward
    /// the numerator (they are real usage) but draining capacity is not in
    /// the denominator — so a pool whose busy nodes are all draining reads
    /// as over-utilized, which is exactly the pressure signal the
    /// autoscaler should see.
    #[must_use]
    pub fn cpu_utilization(&self) -> f64 {
        let cap = self.total_capacity().cpu_millicores;
        if cap == 0 {
            return if self.nodes.iter().any(|n| !n.is_idle()) {
                1.0
            } else {
                0.0
            };
        }
        let used: u64 = self
            .nodes
            .iter()
            .filter(|n| n.is_ready() || n.is_draining())
            .map(|n| n.allocated().cpu_millicores)
            .sum();
        (used as f64 / cap as f64).min(1.0)
    }

    /// Adds up to `count` booting nodes that become ready at `ready_at`.
    /// Returns how many were actually added (capped at `max_nodes`).
    ///
    /// The new capacity is *not* usable at the call instant: placement
    /// ignores booting nodes until [`NodePool::advance_to`] reaches
    /// `ready_at` — scale-up charges its boot latency.
    pub fn scale_up(&mut self, count: usize, ready_at: SimInstant) -> usize {
        let mut added = 0;
        while added < count && self.nodes.len() < self.max_nodes {
            self.add_node(NodeState::Booting { ready_at });
            added += 1;
        }
        added
    }

    /// Unit bundles the pool could hold once every booting node is up:
    /// current free capacity on ready nodes plus the full capacity of
    /// booting nodes.
    #[must_use]
    pub fn prospective_units(&self, unit: &ResourceBundle) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.state() {
                NodeState::Ready => n.free().max_bundles(unit),
                NodeState::Booting { .. } => n.capacity().max_bundles(unit),
                NodeState::Draining => 0,
            })
            .sum()
    }

    /// Marks up to `count` nodes as draining, preferring idle nodes and
    /// newer nodes first. Idle draining nodes are removed by the next
    /// [`NodePool::advance_to`]; busy ones retire once their allocations
    /// release. Booting nodes are never drained (cancel the boot instead
    /// is not supported — they come up and drain later if still surplus).
    /// Returns how many nodes were marked.
    pub fn drain(&mut self, count: usize) -> usize {
        let mut marked = 0;
        // Idle ready nodes first (retire immediately at next advance),
        // newest first so long-lived nodes keep their ids stable.
        for pass_busy in [false, true] {
            if marked >= count {
                break;
            }
            for node in self.nodes.iter_mut().rev() {
                if marked >= count {
                    break;
                }
                if node.is_ready() && (pass_busy || node.is_idle()) {
                    node.state = NodeState::Draining;
                    marked += 1;
                }
            }
        }
        marked
    }

    /// Returns up to `count` draining nodes to ready service (demand came
    /// back before they retired). Returns how many were reclaimed.
    pub fn cancel_drain(&mut self, count: usize) -> usize {
        let mut reclaimed = 0;
        for node in &mut self.nodes {
            if reclaimed >= count {
                break;
            }
            if node.is_draining() {
                node.state = NodeState::Ready;
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Advances the pool's lifecycle clock to `now`: booting nodes whose
    /// ready instant has passed become ready, and idle draining nodes are
    /// retired (removed).
    pub fn advance_to(&mut self, now: SimInstant) {
        for node in &mut self.nodes {
            if let NodeState::Booting { ready_at } = node.state {
                if ready_at <= now {
                    node.state = NodeState::Ready;
                }
            }
        }
        let before = self.nodes.len();
        self.nodes.retain(|n| !(n.is_draining() && n.is_idle()));
        self.retired_total += (before - self.nodes.len()) as u64;
    }

    /// How many bundles of size `unit` fit on the ready nodes right now,
    /// respecting per-node boundaries. Booting and draining capacity is
    /// invisible.
    #[must_use]
    pub fn placeable(&self, unit: &ResourceBundle) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.is_ready())
            .map(|n| n.free().max_bundles(unit))
            .sum()
    }

    /// Whether every `(bundle, count)` request could be placed together on
    /// the ready nodes right now — a side-effect-free trial of the same
    /// first-fit the real placement uses.
    #[must_use]
    pub fn can_place_all(&self, requests: &[(ResourceBundle, u64)]) -> bool {
        let mut free: Vec<ResourceBundle> = self
            .nodes
            .iter()
            .filter(|n| n.is_ready())
            .map(WorkerNode::free)
            .collect();
        Self::trial_fit(&mut free, requests)
    }

    /// Whether `(bundle, count)` requests could ever be placed on a fully
    /// scaled-out, empty pool of `ceiling` nodes — the admission-time
    /// feasibility ceiling (fragmentation included).
    #[must_use]
    pub fn could_ever_place(&self, requests: &[(ResourceBundle, u64)], ceiling: usize) -> bool {
        let mut free = vec![self.template; ceiling];
        Self::trial_fit(&mut free, requests)
    }

    fn trial_fit(free: &mut [ResourceBundle], requests: &[(ResourceBundle, u64)]) -> bool {
        for (bundle, count) in requests {
            for _ in 0..*count {
                let Some(slot) = free.iter_mut().find(|f| f.contains(bundle)) else {
                    return false;
                };
                *slot = slot.saturating_sub(bundle);
            }
        }
        true
    }

    /// First-fit placement of one bundle onto a ready node; returns the
    /// node it landed on.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] when no ready node can
    /// hold the bundle.
    pub fn place(&mut self, bundle: &ResourceBundle) -> Result<NodeId> {
        for node in &mut self.nodes {
            if node.is_ready() && node.fits(bundle) {
                node.reserve(bundle)?;
                return Ok(node.id());
            }
        }
        Err(SimdcError::ResourceExhausted {
            requested: bundle.to_string(),
            available: self.total_free().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::SimDuration;

    fn unit() -> ResourceBundle {
        ResourceBundle::cores_gib(1, 1)
    }

    fn pool() -> NodePool {
        // 4-core/8-GiB nodes, 2 initial, max 5.
        NodePool::new(ResourceBundle::cores_gib(4, 8), 2, 5)
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut node = WorkerNode::new(NodeId(0), ResourceBundle::cores_gib(2, 2));
        assert!(node.is_idle());
        node.reserve(&unit()).unwrap();
        assert!(!node.is_idle());
        assert_eq!(node.free(), ResourceBundle::cores_gib(1, 1));
        node.release(&unit());
        assert!(node.is_idle());
    }

    #[test]
    fn reserve_rejects_overcommit() {
        let mut node = WorkerNode::new(NodeId(0), unit());
        node.reserve(&unit()).unwrap();
        assert!(node.reserve(&unit()).is_err());
    }

    #[test]
    fn booting_node_rejects_placements() {
        let mut pool = pool();
        pool.scale_up(1, t(30));
        let node = pool.node_mut(NodeId(2)).unwrap();
        assert!(node.is_booting());
        assert!(node.reserve(&unit()).is_err());
    }

    /// Debug builds trap the unpaired release instead of letting the
    /// saturating subtraction absorb it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn unpaired_release_panics_in_debug() {
        let mut node = WorkerNode::new(NodeId(0), unit());
        node.release(&unit());
    }

    /// Release builds keep the zero-clamp as a safety net.
    #[test]
    #[cfg(not(debug_assertions))]
    fn unpaired_release_saturates_in_release() {
        let mut node = WorkerNode::new(NodeId(0), unit());
        node.release(&unit());
        assert!(node.is_idle());
        assert_eq!(node.free(), unit());
    }

    #[test]
    fn placeable_respects_node_boundaries() {
        let pool = pool();
        // Each 4c/8g node fits 4 one-core-one-GiB units → 8 total.
        assert_eq!(pool.placeable(&unit()), 8);
        // A 3-core/6-GiB bundle fits once per node.
        assert_eq!(pool.placeable(&ResourceBundle::cores_gib(3, 6)), 2);
        // A 5-core bundle fits nowhere even though total CPU is 8.
        assert_eq!(pool.placeable(&ResourceBundle::cores_gib(5, 1)), 0);
    }

    #[test]
    fn place_first_fit() {
        let mut pool = pool();
        let n1 = pool.place(&ResourceBundle::cores_gib(3, 3)).unwrap();
        let n2 = pool.place(&ResourceBundle::cores_gib(3, 3)).unwrap();
        assert_eq!(n1, NodeId(0));
        assert_eq!(n2, NodeId(1)); // does not fit next to the first
        assert!(pool.place(&ResourceBundle::cores_gib(3, 3)).is_err());
    }

    /// The boot-latency regression: scale-up must NOT make capacity usable
    /// at the call instant — placement sees it only after the virtual
    /// clock passes the ready instant.
    #[test]
    fn scale_up_charges_boot_latency_before_capacity_is_placeable() {
        let mut pool = pool();
        assert_eq!(pool.placeable(&unit()), 8);
        assert_eq!(pool.scale_up(3, t(30)), 3);
        assert_eq!(pool.len(), 5);
        // Capacity is *not* visible at the call instant.
        assert_eq!(pool.placeable(&unit()), 8, "booting capacity leaked");
        assert_eq!(pool.booting_count(), 3);
        // Not visible one tick before boot completes either.
        pool.advance_to(t(29));
        assert_eq!(pool.placeable(&unit()), 8);
        assert_eq!(pool.booting_count(), 3);
        // Visible exactly at the ready instant.
        pool.advance_to(t(30));
        assert_eq!(pool.booting_count(), 0);
        assert_eq!(pool.ready_count(), 5);
        assert_eq!(pool.placeable(&unit()), 20);
        // Capped at max_nodes.
        assert_eq!(pool.scale_up(100, t(60)), 0);
    }

    #[test]
    fn prospective_units_count_booting_capacity() {
        let mut pool = pool();
        pool.scale_up(2, t(30));
        assert_eq!(pool.prospective_units(&unit()), 16);
        assert_eq!(pool.placeable(&unit()), 8);
    }

    #[test]
    fn drain_then_retire_spares_busy_nodes_until_release() {
        let mut pool = pool();
        pool.scale_up(1, t(0));
        pool.advance_to(t(0));
        assert_eq!(pool.ready_count(), 3);
        let busy_node = pool.place(&unit()).unwrap();
        // Drain everything: the busy node drains but survives.
        assert_eq!(pool.drain(3), 3);
        pool.advance_to(t(10));
        assert_eq!(pool.len(), 1, "only idle nodes retire");
        assert_eq!(pool.retired_total(), 2);
        assert_eq!(pool.draining_count(), 1);
        // A draining node accepts no new placements.
        assert!(pool.place(&unit()).is_err());
        assert_eq!(pool.placeable(&unit()), 0);
        // Releasing its allocation lets the next advance retire it.
        pool.node_mut(busy_node).unwrap().release(&unit());
        pool.advance_to(t(20));
        assert!(pool.is_empty());
        assert_eq!(pool.retired_total(), 3);
    }

    #[test]
    fn cancel_drain_reclaims_nodes() {
        let mut pool = pool();
        pool.drain(2);
        assert_eq!(pool.ready_count(), 0);
        assert_eq!(pool.cancel_drain(1), 1);
        assert_eq!(pool.ready_count(), 1);
        assert_eq!(pool.placeable(&unit()), 4);
    }

    #[test]
    fn utilization_tracks_cpu() {
        let mut pool = pool();
        assert_eq!(pool.cpu_utilization(), 0.0);
        pool.place(&ResourceBundle::cores_gib(4, 4)).unwrap();
        assert!((pool.cpu_utilization() - 0.5).abs() < 1e-12);
        // Booting capacity does not dilute utilization.
        pool.scale_up(3, t(30));
        assert!((pool.cpu_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trial_placement_matches_real_placement() {
        let pool = pool();
        let three = ResourceBundle::cores_gib(3, 3);
        assert!(pool.can_place_all(&[(three, 2)]));
        assert!(!pool.can_place_all(&[(three, 3)]));
        // Mixed requests share nodes the way first-fit would.
        assert!(pool.can_place_all(&[(three, 1), (unit(), 5)]));
        assert!(!pool.can_place_all(&[(three, 2), (ResourceBundle::cores_gib(2, 2), 1)]));
        // Full-scale feasibility uses empty nodes at the ceiling.
        assert!(pool.could_ever_place(&[(three, 5)], 5));
        assert!(!pool.could_ever_place(&[(three, 6)], 5));
        assert!(!pool.could_ever_place(&[(ResourceBundle::cores_gib(5, 1), 1)], 5));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_initial_nodes_rejected() {
        let _ = NodePool::new(unit(), 0, 3);
    }
}
