//! Property tests of the elastic-tier accounting: however the node pool
//! is scaled up, drained, retired and advanced — interleaved with
//! Resource Manager freezes and releases resynced against the pool's
//! ready capacity — free capacity never exceeds total capacity, at
//! either layer.
//!
//! This is the lease-vs-lifecycle contract the platform relies on:
//! [`ResourceManager::set_total_bundles`] derives free from the
//! outstanding leases (`free = total − frozen`, saturating), so a
//! scale-in below the frozen amount followed by a later scale-out can
//! never mint capacity a lease already owns.
//!
//! The second property checks the node pool's unit counts against the
//! bundle model they replace: a [`BundlePool`] kept here stores each
//! node's allocated `ResourceBundle`, converts with `max_bundles` per
//! node and first-fits with `contains` over copied free bundles. Every
//! answer of the real pool must equal the model's.

use proptest::prelude::*;
use simdc_cluster::{NodePool, NodeState, PlacementGroup, PlacementGroupId};
use simdc_core::{ResourceClaim, ResourceManager};
use simdc_types::{NodeId, PerGrade, ResourceBundle, SimDuration, SimInstant, TaskId};

/// One step of the random schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Freeze a lease of this many unit bundles (may be refused).
    Freeze(u64),
    /// Release the lease at this index (modulo the live set).
    Release(usize),
    /// Boot this many nodes (capacity invisible until the boot elapses).
    ScaleUp(usize),
    /// Drain this many nodes (retire once idle).
    Drain(usize),
    /// Reclaim this many draining nodes.
    CancelDrain(usize),
    /// Advance virtual time by this many seconds (boots complete, idle
    /// draining nodes retire).
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..250).prop_map(Op::Freeze),
        (0usize..8).prop_map(Op::Release),
        (0usize..5).prop_map(Op::ScaleUp),
        (0usize..5).prop_map(Op::Drain),
        (0usize..5).prop_map(Op::CancelDrain),
        (0u64..120).prop_map(Op::Advance),
    ]
}

const BOOT: SimDuration = SimDuration::from_secs(45);

proptest! {
    /// `free <= total` at both layers, and `free = total − frozen`
    /// exactly, across arbitrary interleavings of lease traffic and node
    /// lifecycle events.
    #[test]
    fn free_never_exceeds_total_over_random_elastic_schedules(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        // 50-unit nodes, 4 initial, elastic to 16 — the paper platform.
        let unit = ResourceBundle::cores_gib(1, 1);
        let mut pool = NodePool::new(ResourceBundle::cores_gib(50, 75), unit, 4, 16);
        let mut rm = ResourceManager::new(pool.unit_capacity(), PerGrade::new(10u64));
        let mut now = SimInstant::EPOCH;
        let mut live: Vec<TaskId> = Vec::new();
        let mut frozen: u64 = 0;
        let mut next_task = 0u64;

        for op in ops {
            match op {
                Op::Freeze(bundles) => {
                    let id = TaskId(next_task);
                    next_task += 1;
                    let claim = ResourceClaim {
                        unit_bundles: bundles,
                        phones: PerGrade::new(0),
                    };
                    if rm.freeze(id, claim).is_ok() {
                        live.push(id);
                        frozen += bundles;
                    }
                }
                Op::Release(i) => {
                    if !live.is_empty() {
                        let id = live.remove(i % live.len());
                        let claim = rm.release(id).expect("live lease");
                        frozen -= claim.unit_bundles;
                    }
                }
                Op::ScaleUp(n) => {
                    pool.scale_up(n, now + BOOT);
                }
                Op::Drain(n) => {
                    pool.drain(n);
                }
                Op::CancelDrain(n) => {
                    pool.cancel_drain(n);
                }
                Op::Advance(secs) => {
                    now += SimDuration::from_secs(secs);
                    pool.advance_to(now);
                }
            }
            // The platform's per-pass resync.
            rm.set_total_bundles(pool.unit_capacity());

            // Layer 1: the Resource Manager never reports more free than
            // total, and free is exactly total − frozen (saturating).
            prop_assert!(rm.free_bundles() <= rm.total_bundles(),
                "free {} > total {}", rm.free_bundles(), rm.total_bundles());
            prop_assert_eq!(
                rm.free_bundles(),
                rm.total_bundles().saturating_sub(frozen),
                "free must equal total - frozen"
            );

            // Layer 2: the pool never reports more placeable units than
            // its ready capacity.
            prop_assert!(pool.placeable() <= pool.unit_capacity());
            // Lifecycle conservation: booted = present + retired.
            prop_assert_eq!(
                pool.booted_total(),
                pool.len() as u64 + pool.retired_total()
            );
        }
    }
}

/// One step of the pool-versus-model schedule.
#[derive(Debug, Clone)]
enum PoolOp {
    /// Place a group of this many actors of this many units (may fail).
    Acquire(u64, usize),
    /// Release the group at this index (modulo the live set).
    Release(usize),
    /// Boot this many nodes.
    ScaleUp(usize),
    /// Drain this many nodes.
    Drain(usize),
    /// Reclaim this many draining nodes.
    CancelDrain(usize),
    /// Advance virtual time by this many seconds.
    Advance(u64),
    /// Ask both trials about these `(units, actors)` requests, the
    /// elastic one at this ceiling.
    Query(Vec<(u64, u64)>, usize),
}

fn pool_op_strategy() -> impl Strategy<Value = PoolOp> {
    let request = (0u64..8, 0u64..6);
    prop_oneof![
        (0u64..8, 0usize..6).prop_map(|(k, n)| PoolOp::Acquire(k, n)),
        (0u64..8, 0usize..6).prop_map(|(k, n)| PoolOp::Acquire(k, n)),
        (0usize..8).prop_map(PoolOp::Release),
        (0usize..4).prop_map(PoolOp::ScaleUp),
        (0usize..4).prop_map(PoolOp::Drain),
        (0usize..4).prop_map(PoolOp::CancelDrain),
        (0u64..90).prop_map(PoolOp::Advance),
        (proptest::collection::vec(request, 0..4), 0usize..10)
            .prop_map(|(requests, ceiling)| PoolOp::Query(requests, ceiling)),
    ]
}

/// A node shape and its unit: each dimension of the node is
/// `m · unit + r` with `m ≥ 1` and `r < unit`, so the node holds the unit
/// and any dimension may be the scarcest. Half the units ask for no GPU.
fn shape_strategy() -> impl Strategy<Value = (ResourceBundle, ResourceBundle)> {
    (
        (100u64..4_000, 1u64..7, 0u64..4_000),
        (64u64..8_192, 1u64..7, 0u64..8_192),
        (0u64..2_000, 1u64..7, 0u64..2_000),
    )
        .prop_map(|((cu, cm, cr), (mu, mm, mr), (gu, gm, gr))| {
            let gu = gu.saturating_sub(1_000);
            let dim = |u: u64, m: u64, r: u64| if u == 0 { r } else { u * m + r % u };
            let unit = ResourceBundle::new(cu, mu, gu);
            let node = ResourceBundle::new(dim(cu, cm, cr), dim(mu, mm, mr), dim(gu, gm, gr));
            (node, unit)
        })
}

fn plus(a: ResourceBundle, b: ResourceBundle) -> ResourceBundle {
    ResourceBundle::new(
        a.cpu_millicores + b.cpu_millicores,
        a.memory_mib + b.memory_mib,
        a.gpu_millis + b.gpu_millis,
    )
}

fn minus(a: ResourceBundle, b: ResourceBundle) -> ResourceBundle {
    ResourceBundle::new(
        a.cpu_millicores.saturating_sub(b.cpu_millicores),
        a.memory_mib.saturating_sub(b.memory_mib),
        a.gpu_millis.saturating_sub(b.gpu_millis),
    )
}

fn times(a: ResourceBundle, k: u64) -> ResourceBundle {
    ResourceBundle::new(a.cpu_millicores * k, a.memory_mib * k, a.gpu_millis * k)
}

struct BundleNode {
    id: NodeId,
    allocated: ResourceBundle,
    state: NodeState,
}

/// The node pool as it was before it counted in units: each node holds
/// its allocated bundle, and each query converts with `max_bundles`.
struct BundlePool {
    template: ResourceBundle,
    unit: ResourceBundle,
    max_nodes: usize,
    nodes: Vec<BundleNode>,
    next_id: u32,
}

impl BundlePool {
    fn new(template: ResourceBundle, unit: ResourceBundle, initial: usize, max: usize) -> Self {
        let mut pool = BundlePool {
            template,
            unit,
            max_nodes: max,
            nodes: Vec::new(),
            next_id: 0,
        };
        for _ in 0..initial {
            pool.add(NodeState::Ready);
        }
        pool
    }

    fn add(&mut self, state: NodeState) {
        self.nodes.push(BundleNode {
            id: NodeId(self.next_id),
            allocated: ResourceBundle::ZERO,
            state,
        });
        self.next_id += 1;
    }

    fn free(&self, node: &BundleNode) -> ResourceBundle {
        minus(self.template, node.allocated)
    }

    fn ready(&self) -> impl Iterator<Item = &BundleNode> {
        self.nodes.iter().filter(|n| n.state == NodeState::Ready)
    }

    fn placeable(&self) -> u64 {
        self.ready()
            .map(|n| self.free(n).max_bundles(&self.unit))
            .sum()
    }

    fn unit_capacity(&self) -> u64 {
        self.ready()
            .map(|_| self.template.max_bundles(&self.unit))
            .sum()
    }

    fn prospective_units(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.state {
                NodeState::Ready => self.free(n).max_bundles(&self.unit),
                NodeState::Booting { .. } => self.template.max_bundles(&self.unit),
                NodeState::Draining => 0,
            })
            .sum()
    }

    fn cpu_utilization(&self) -> f64 {
        let cap: u64 = self.ready().map(|_| self.template.cpu_millicores).sum();
        if cap == 0 {
            return if self.nodes.iter().any(|n| !n.allocated.is_zero()) {
                1.0
            } else {
                0.0
            };
        }
        let used: u64 = self
            .nodes
            .iter()
            .filter(|n| !matches!(n.state, NodeState::Booting { .. }))
            .map(|n| n.allocated.cpu_millicores)
            .sum();
        (used as f64 / cap as f64).min(1.0)
    }

    /// First-fit of every actor, one at a time, over copied free bundles.
    fn trial(&self, free: &mut [ResourceBundle], requests: &[(u64, u64)]) -> bool {
        for &(k, count) in requests {
            let bundle = times(self.unit, k);
            for _ in 0..count {
                let Some(slot) = free.iter_mut().find(|f| f.contains(&bundle)) else {
                    return false;
                };
                *slot = minus(*slot, bundle);
            }
        }
        true
    }

    fn can_place_all(&self, requests: &[(u64, u64)]) -> bool {
        let mut free: Vec<ResourceBundle> = self.ready().map(|n| self.free(n)).collect();
        self.trial(&mut free, requests)
    }

    fn could_ever_place(&self, requests: &[(u64, u64)], ceiling: usize) -> bool {
        self.trial(&mut vec![self.template; ceiling], requests)
    }

    /// Places each actor's bundle on the first ready node it fits, and
    /// rolls every placement back when one fails.
    fn acquire(&mut self, k: u64, count: usize) -> Option<Vec<NodeId>> {
        let bundle = times(self.unit, k);
        let mut placed: Vec<usize> = Vec::new();
        for _ in 0..count {
            let template = self.template;
            let slot = self.nodes.iter().position(|n| {
                n.state == NodeState::Ready && minus(template, n.allocated).contains(&bundle)
            });
            let Some(i) = slot else {
                for &i in &placed {
                    self.nodes[i].allocated = minus(self.nodes[i].allocated, bundle);
                }
                return None;
            };
            self.nodes[i].allocated = plus(self.nodes[i].allocated, bundle);
            placed.push(i);
        }
        Some(placed.iter().map(|&i| self.nodes[i].id).collect())
    }

    fn release(&mut self, placements: &[NodeId], k: u64) {
        let bundle = times(self.unit, k);
        for id in placements {
            if let Some(node) = self.nodes.iter_mut().find(|n| n.id == *id) {
                node.allocated = minus(node.allocated, bundle);
            }
        }
    }

    fn scale_up(&mut self, count: usize, ready_at: SimInstant) {
        for _ in 0..count {
            if self.nodes.len() < self.max_nodes {
                self.add(NodeState::Booting { ready_at });
            }
        }
    }

    fn drain(&mut self, count: usize) {
        let mut marked = 0;
        for pass_busy in [false, true] {
            for node in self.nodes.iter_mut().rev() {
                if marked < count
                    && node.state == NodeState::Ready
                    && (pass_busy || node.allocated.is_zero())
                {
                    node.state = NodeState::Draining;
                    marked += 1;
                }
            }
        }
    }

    fn cancel_drain(&mut self, count: usize) {
        for node in self
            .nodes
            .iter_mut()
            .filter(|n| n.state == NodeState::Draining)
            .take(count)
        {
            node.state = NodeState::Ready;
        }
    }

    fn advance_to(&mut self, now: SimInstant) {
        for node in &mut self.nodes {
            if let NodeState::Booting { ready_at } = node.state {
                if ready_at <= now {
                    node.state = NodeState::Ready;
                }
            }
        }
        self.nodes
            .retain(|n| !(n.state == NodeState::Draining && n.allocated.is_zero()));
    }
}

proptest! {
    /// The unit pool answers every query as the bundle model does, and
    /// every group lands on the nodes the model picks, over random
    /// placement traffic, lifecycle events and node shapes.
    #[test]
    fn the_unit_pool_answers_as_the_bundle_model(
        (template, unit) in shape_strategy(),
        (max_nodes, initial) in (1usize..9, 0usize..8),
        ops in proptest::collection::vec(pool_op_strategy(), 1..80)
    ) {
        let initial = 1 + initial % max_nodes;
        let mut pool = NodePool::new(template, unit, initial, max_nodes);
        let mut model = BundlePool::new(template, unit, initial, max_nodes);
        let mut groups: Vec<PlacementGroup> = Vec::new();
        let mut now = SimInstant::EPOCH;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                PoolOp::Acquire(k, count) => {
                    let id = PlacementGroupId(step as u64);
                    let placed = PlacementGroup::create(id, &mut pool, k, count).ok();
                    let expected = model.acquire(k, count);
                    prop_assert_eq!(
                        placed.as_ref().map(|g| g.placements().to_vec()),
                        expected,
                        "group of {} × {} units", count, k
                    );
                    groups.extend(placed);
                }
                PoolOp::Release(i) => {
                    if !groups.is_empty() {
                        let group = groups.remove(i % groups.len());
                        group.release(&mut pool);
                        model.release(group.placements(), group.units());
                    }
                }
                PoolOp::ScaleUp(n) => {
                    pool.scale_up(n, now + BOOT);
                    model.scale_up(n, now + BOOT);
                }
                PoolOp::Drain(n) => {
                    pool.drain(n);
                    model.drain(n);
                }
                PoolOp::CancelDrain(n) => {
                    pool.cancel_drain(n);
                    model.cancel_drain(n);
                }
                PoolOp::Advance(secs) => {
                    now += SimDuration::from_secs(secs);
                    pool.advance_to(now);
                    model.advance_to(now);
                }
                PoolOp::Query(requests, ceiling) => {
                    prop_assert_eq!(
                        pool.can_place_all(&requests),
                        model.can_place_all(&requests),
                        "can_place_all {:?}", requests
                    );
                    prop_assert_eq!(
                        pool.could_ever_place(&requests, ceiling),
                        model.could_ever_place(&requests, ceiling),
                        "could_ever_place {:?} at {}", requests, ceiling
                    );
                }
            }
            let nodes: Vec<(NodeId, NodeState, ResourceBundle)> = pool
                .nodes()
                .iter()
                .map(|n| (n.id(), n.state(), times(unit, n.allocated())))
                .collect();
            let expected: Vec<(NodeId, NodeState, ResourceBundle)> =
                model.nodes.iter().map(|n| (n.id, n.state, n.allocated)).collect();
            prop_assert_eq!(nodes, expected, "nodes after step {}", step);
            prop_assert_eq!(pool.placeable(), model.placeable());
            prop_assert_eq!(pool.unit_capacity(), model.unit_capacity());
            prop_assert_eq!(pool.prospective_units(), model.prospective_units());
            prop_assert_eq!(
                pool.cpu_utilization().to_bits(),
                model.cpu_utilization().to_bits()
            );
        }
    }
}
