//! Worker nodes and the elastic node pool.
//!
//! The pool is *time-aware*: scaling up does not hand out capacity at the
//! call instant. A freshly requested node enters [`NodeState::Booting`] and
//! only becomes visible to placement once the virtual clock — advanced by
//! the owner through [`NodePool::advance_to`] — passes its ready instant.
//! Scaling in is *drain-then-retire*: a draining node stops accepting new
//! actors immediately but is only removed once its last allocation is
//! released. Both halves are what lets the platform interleave node
//! lifecycle events with task completions on one timeline.
//!
//! The pool counts in the cluster's one *unit* bundle (§IV-B): a node
//! holds `units_per_node = template.max_bundles(unit)` units, computed
//! once, and an actor of `k` units fits a node iff `k` is at most the
//! node's free units. Every actor bundle is `k` units, and floor
//! division nests, so that is exactly whether `k · unit` fits the node's
//! free bundle.

use serde::{Deserialize, Serialize};
use simdc_types::{NodeId, ResourceBundle, Result, SimInstant, SimdcError};

use crate::runner::MAX_POOL_UNITS;

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

/// One worker node: the units currently allocated on it and its
/// lifecycle state (its capacity is the pool's `units_per_node`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerNode {
    id: NodeId,
    allocated: u64,
    state: NodeState,
}

impl WorkerNode {
    /// Node identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Units currently allocated.
    #[must_use]
    pub fn allocated(&self) -> u64 {
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

    /// Releases `units` previously reserved on this node.
    ///
    /// Release must pair with a reservation: debug builds assert the
    /// units fit inside the current allocation, so a double release (or
    /// releasing on the wrong node) cannot silently zero-clamp and mask an
    /// accounting bug — mirroring the platform's lease-pairing invariant.
    /// Release builds keep the saturating subtraction as a safety net.
    pub(crate) fn release(&mut self, units: u64) {
        debug_assert!(
            self.allocated >= units,
            "release of {units} units exceeds allocation {} on node {} (double release?)",
            self.allocated,
            self.id
        );
        self.allocated = self.allocated.saturating_sub(units);
    }

    /// Whether nothing is allocated.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.allocated == 0
    }
}

/// An elastically scalable pool of identical worker nodes (the k8s layer),
/// counted in units of the cluster's unit bundle.
///
/// Scale-up charges boot latency: [`NodePool::scale_up`] adds *booting*
/// nodes whose capacity placement cannot see until
/// [`NodePool::advance_to`] passes their ready instant.
/// Scale-in is drain-then-retire via [`NodePool::drain`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePool {
    template: ResourceBundle,
    unit: ResourceBundle,
    units_per_node: u64,
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
    /// counted in `unit` bundles and allowed to grow to `max_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` does not fit on a node, `initial` is zero,
    /// `initial > max_nodes`, or the pool at `max_nodes` would hold more
    /// than [`MAX_POOL_UNITS`] units (a zero `unit` fits unboundedly).
    #[must_use]
    pub fn new(
        template: ResourceBundle,
        unit: ResourceBundle,
        initial: usize,
        max_nodes: usize,
    ) -> Self {
        assert!(initial > 0, "pool needs at least one node");
        assert!(initial <= max_nodes, "initial nodes exceed max_nodes");
        let units_per_node = template.max_bundles(&unit);
        assert!(units_per_node > 0, "unit bundle must fit on a node");
        assert!(
            (max_nodes as u64).saturating_mul(units_per_node) <= MAX_POOL_UNITS,
            "pool units exceed MAX_POOL_UNITS"
        );
        let mut pool = NodePool {
            template,
            unit,
            units_per_node,
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
        self.nodes.push(WorkerNode {
            id,
            allocated: 0,
            state,
        });
        self.booted_total += 1;
        self.peak_nodes = self.peak_nodes.max(self.nodes.len());
        id
    }

    /// Unit bundles one node holds.
    #[must_use]
    pub fn units_per_node(&self) -> u64 {
        self.units_per_node
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

    /// Mutable node access by id: how placement groups release.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Option<&mut WorkerNode> {
        self.nodes.iter_mut().find(|n| n.id() == id)
    }

    fn free_units(&self, node: &WorkerNode) -> u64 {
        self.units_per_node - node.allocated
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

    /// Units the *ready* nodes hold at full capacity (ignoring current
    /// allocations) — the capacity placement, and the Resource Manager's
    /// total, can count on. Booting nodes are excluded until they come
    /// up; draining nodes accept no new work.
    #[must_use]
    pub fn unit_capacity(&self) -> u64 {
        self.ready_count() as u64 * self.units_per_node
    }

    /// Fraction of ready-node CPU capacity currently allocated, in
    /// `[0, 1]`. Allocations still held on *draining* nodes count toward
    /// the numerator (they are real usage) but draining capacity is not in
    /// the denominator — so a pool whose busy nodes are all draining reads
    /// as over-utilized, which is exactly the pressure signal the
    /// autoscaler should see.
    #[must_use]
    pub fn cpu_utilization(&self) -> f64 {
        // A booting node holds nothing, so this is the ready and draining
        // allocation.
        let allocated: u64 = self.nodes.iter().map(WorkerNode::allocated).sum();
        let cap = u128::from(self.template.cpu_millicores) * self.ready_count() as u128;
        if cap == 0 {
            return if allocated > 0 { 1.0 } else { 0.0 };
        }
        let used = u128::from(self.unit.cpu_millicores) * u128::from(allocated);
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

    /// Units the pool could hold once every booting node is up: current
    /// free units on ready nodes plus the full capacity of booting nodes.
    #[must_use]
    pub fn prospective_units(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.state() {
                NodeState::Ready => self.free_units(n),
                NodeState::Booting { .. } => self.units_per_node,
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

    /// Free units on the ready nodes right now. Booting and draining
    /// capacity is invisible.
    #[must_use]
    pub fn placeable(&self) -> u64 {
        self.ready_free_units().map(|(_, free)| free).sum()
    }

    /// Each ready node's index and free units, in node order.
    fn ready_free_units(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_ready())
            .map(|(i, n)| (i, self.free_units(n)))
    }

    /// Whether every `(units per actor, actors)` request could be placed
    /// together on the ready nodes right now — a side-effect-free trial
    /// of the first-fit [`NodePool::place`] runs.
    #[must_use]
    pub fn can_place_all(&self, requests: &[(u64, u64)]) -> bool {
        let mut free: Vec<u64> = self.ready_free_units().map(|(_, free)| free).collect();
        first_fit(&mut free, requests, |_, _| {})
    }

    /// Whether `(units per actor, actors)` requests could ever be placed
    /// on a fully scaled-out, empty pool of `ceiling` nodes — the
    /// admission-time feasibility ceiling (fragmentation included). The
    /// trial needs no more nodes than actors: first-fit fills a prefix of
    /// the empty nodes, each holding at least one actor.
    #[must_use]
    pub fn could_ever_place(&self, requests: &[(u64, u64)], ceiling: usize) -> bool {
        let actors = requests.iter().fold(0u64, |sum, r| sum.saturating_add(r.1));
        let nodes = usize::try_from(actors).map_or(ceiling, |actors| actors.min(ceiling));
        first_fit(&mut vec![self.units_per_node; nodes], requests, |_, _| {})
    }

    /// Atomically places `count` actors of `units` units each onto the
    /// ready nodes, first-fit in node order; returns the node of each
    /// actor, in actor order.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::ResourceExhausted`] when the ready nodes
    /// cannot hold every actor; nothing is then reserved.
    pub fn place(&mut self, units: u64, count: usize) -> Result<Vec<NodeId>> {
        let (ready, mut free): (Vec<usize>, Vec<u64>) = self.ready_free_units().unzip();
        let mut landed = Vec::new();
        if !first_fit(&mut free, &[(units, count as u64)], |slot, actors| {
            landed.push((ready[slot], actors));
        }) {
            return Err(SimdcError::ResourceExhausted {
                requested: format!("{count} actors of {units} units"),
                available: format!("{} free units on ready nodes", self.placeable()),
            });
        }
        let mut placements = Vec::with_capacity(count);
        for (i, actors) in landed {
            let node = &mut self.nodes[i];
            node.allocated += actors * units;
            placements.extend(std::iter::repeat_n(node.id, actors as usize));
        }
        Ok(placements)
    }
}

/// The pool's one first-fit: places each `(units per actor, actors)`
/// request in order over the `free` unit counts, each actor on the first
/// slot with room. An actor only moves on from a slot that cannot hold
/// it, and slots only shrink, so a request fills each slot as far as it
/// can before the next. `land(slot, actors)` hears each run of actors
/// placed on one slot. Returns whether every actor landed; `free` is
/// left holding what remains.
fn first_fit(free: &mut [u64], requests: &[(u64, u64)], mut land: impl FnMut(usize, u64)) -> bool {
    for &(units, mut actors) in requests {
        for (slot, left) in free.iter_mut().enumerate() {
            if actors == 0 {
                break;
            }
            // A zero-unit actor fits anywhere, as the zero bundle does.
            let fit = left.checked_div(units).unwrap_or(u64::MAX).min(actors);
            if fit > 0 {
                *left -= fit * units;
                actors -= fit;
                land(slot, fit);
            }
        }
        if actors > 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::SimDuration;

    fn pool() -> NodePool {
        // 4-core/8-GiB nodes of 1-core/1-GiB units (4 each), 2 initial,
        // max 5.
        NodePool::new(
            ResourceBundle::cores_gib(4, 8),
            ResourceBundle::cores_gib(1, 1),
            2,
            5,
        )
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn units_per_node_is_the_scarcest_dimension() {
        assert_eq!(pool().units_per_node(), 4);
        let memory_bound = NodePool::new(
            ResourceBundle::cores_gib(200, 300),
            ResourceBundle::cores_gib(4, 12),
            1,
            1,
        );
        assert_eq!(memory_bound.units_per_node(), 25);
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut pool = pool();
        let nodes = pool.place(1, 1).unwrap();
        assert_eq!(nodes, [NodeId(0)]);
        assert_eq!(pool.placeable(), 7);
        pool.node_mut(NodeId(0)).unwrap().release(1);
        assert!(pool.nodes().iter().all(WorkerNode::is_idle));
        assert_eq!(pool.placeable(), 8);
    }

    #[test]
    fn reserve_rejects_overcommit() {
        let mut pool = pool();
        // 5 actors of 2 units need 10 units; the pool has 8.
        assert!(pool.place(2, 5).is_err());
        assert_eq!(pool.placeable(), 8, "a failed place must reserve nothing");
        assert_eq!(pool.place(2, 4).unwrap().len(), 4);
        assert!(pool.place(1, 1).is_err());
    }

    #[test]
    fn booting_node_rejects_placements() {
        let mut pool = pool();
        pool.scale_up(1, t(30));
        assert!(pool.nodes()[2].is_booting());
        pool.place(4, 2).unwrap();
        assert!(pool.place(1, 1).is_err(), "booting capacity leaked");
    }

    /// Debug builds trap the unpaired release instead of letting the
    /// saturating subtraction absorb it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn unpaired_release_panics_in_debug() {
        let mut pool = pool();
        pool.node_mut(NodeId(0)).unwrap().release(1);
    }

    /// Release builds keep the zero-clamp as a safety net.
    #[test]
    #[cfg(not(debug_assertions))]
    fn unpaired_release_saturates_in_release() {
        let mut pool = pool();
        pool.node_mut(NodeId(0)).unwrap().release(1);
        assert!(pool.nodes()[0].is_idle());
        assert_eq!(pool.placeable(), 8);
    }

    #[test]
    fn placeable_respects_node_boundaries() {
        let pool = pool();
        // Each 4-unit node holds 4 one-unit actors → 8 in total.
        assert_eq!(pool.placeable(), 8);
        // A 3-unit actor fits once per node.
        assert!(pool.can_place_all(&[(3, 2)]));
        assert!(!pool.can_place_all(&[(3, 3)]));
        // A 5-unit actor fits nowhere even though 8 units are free.
        assert!(!pool.can_place_all(&[(5, 1)]));
    }

    #[test]
    fn place_first_fit() {
        let mut pool = pool();
        assert_eq!(pool.place(3, 1).unwrap(), [NodeId(0)]);
        // Does not fit next to the first.
        assert_eq!(pool.place(3, 1).unwrap(), [NodeId(1)]);
        assert!(pool.place(3, 1).is_err());
        // One-unit actors fill the gaps in node order.
        assert_eq!(pool.place(1, 2).unwrap(), [NodeId(0), NodeId(1)]);
    }

    /// The boot-latency regression: scale-up must NOT make capacity usable
    /// at the call instant — placement sees it only after the virtual
    /// clock passes the ready instant.
    #[test]
    fn scale_up_charges_boot_latency_before_capacity_is_placeable() {
        let mut pool = pool();
        assert_eq!(pool.placeable(), 8);
        assert_eq!(pool.scale_up(3, t(30)), 3);
        assert_eq!(pool.len(), 5);
        // Capacity is *not* visible at the call instant.
        assert_eq!(pool.placeable(), 8, "booting capacity leaked");
        assert_eq!(pool.unit_capacity(), 8);
        assert_eq!(pool.booting_count(), 3);
        // Not visible one tick before boot completes either.
        pool.advance_to(t(29));
        assert_eq!(pool.placeable(), 8);
        assert_eq!(pool.booting_count(), 3);
        // Visible exactly at the ready instant.
        pool.advance_to(t(30));
        assert_eq!(pool.booting_count(), 0);
        assert_eq!(pool.ready_count(), 5);
        assert_eq!(pool.placeable(), 20);
        assert_eq!(pool.unit_capacity(), 20);
        // Capped at max_nodes.
        assert_eq!(pool.scale_up(100, t(60)), 0);
    }

    #[test]
    fn prospective_units_count_booting_capacity() {
        let mut pool = pool();
        pool.place(1, 1).unwrap();
        pool.scale_up(2, t(30));
        assert_eq!(pool.prospective_units(), 15);
        assert_eq!(pool.placeable(), 7);
    }

    #[test]
    fn drain_then_retire_spares_busy_nodes_until_release() {
        let mut pool = pool();
        pool.scale_up(1, t(0));
        pool.advance_to(t(0));
        assert_eq!(pool.ready_count(), 3);
        let busy_node = pool.place(1, 1).unwrap()[0];
        // Drain everything: the busy node drains but survives.
        assert_eq!(pool.drain(3), 3);
        pool.advance_to(t(10));
        assert_eq!(pool.len(), 1, "only idle nodes retire");
        assert_eq!(pool.retired_total(), 2);
        assert_eq!(pool.draining_count(), 1);
        // A draining node accepts no new placements.
        assert!(pool.place(1, 1).is_err());
        assert_eq!(pool.placeable(), 0);
        assert_eq!(pool.prospective_units(), 0);
        // Releasing its allocation lets the next advance retire it.
        pool.node_mut(busy_node).unwrap().release(1);
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
        assert_eq!(pool.placeable(), 4);
    }

    #[test]
    fn utilization_tracks_cpu() {
        let mut pool = pool();
        assert_eq!(pool.cpu_utilization(), 0.0);
        pool.place(4, 1).unwrap();
        assert!((pool.cpu_utilization() - 0.5).abs() < 1e-12);
        // Booting capacity does not dilute utilization.
        pool.scale_up(3, t(30));
        assert!((pool.cpu_utilization() - 0.5).abs() < 1e-12);
        // Draining capacity leaves the denominator, not the numerator.
        pool.drain(4);
        assert_eq!(pool.cpu_utilization(), 1.0);
    }

    #[test]
    fn trial_placement_matches_real_placement() {
        let pool = pool();
        // Mixed requests share nodes the way first-fit would.
        assert!(pool.can_place_all(&[(3, 1), (1, 5)]));
        assert!(!pool.can_place_all(&[(3, 2), (2, 1)]));
        assert!(pool.can_place_all(&[(3, 0), (0, 9)]));
        let mut placed = pool.clone();
        assert_eq!(
            placed.place(3, 1).and_then(|_| placed.place(1, 5)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(1), NodeId(1), NodeId(1)]
        );
        // Full-scale feasibility uses empty nodes at the ceiling.
        assert!(pool.could_ever_place(&[(3, 5)], 5));
        assert!(!pool.could_ever_place(&[(3, 6)], 5));
        assert!(!pool.could_ever_place(&[(5, 1)], 5));
        assert!(pool.could_ever_place(&[(4, 4), (1, 0)], 5));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_initial_nodes_rejected() {
        let _ = NodePool::new(
            ResourceBundle::cores_gib(1, 1),
            ResourceBundle::cores_gib(1, 1),
            0,
            3,
        );
    }

    #[test]
    #[should_panic(expected = "unit bundle must fit on a node")]
    fn a_unit_larger_than_a_node_is_rejected() {
        let _ = NodePool::new(
            ResourceBundle::cores_gib(1, 1),
            ResourceBundle::cores_gib(2, 1),
            1,
            3,
        );
    }
}
