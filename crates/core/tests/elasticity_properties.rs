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

use proptest::prelude::*;
use simdc_cluster::NodePool;
use simdc_core::{ResourceClaim, ResourceManager};
use simdc_types::{PerGrade, ResourceBundle, SimDuration, SimInstant, TaskId};

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
        let unit = ResourceBundle::cores_gib(1, 1);
        // 50-unit nodes, 4 initial, elastic to 16 — the paper platform.
        let mut pool = NodePool::new(ResourceBundle::cores_gib(50, 75), 4, 16);
        let mut rm = ResourceManager::new(pool.unit_capacity(&unit), PerGrade::new(10u64));
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
            rm.set_total_bundles(pool.unit_capacity(&unit));

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
            // its ready capacity, and total free fits total capacity.
            prop_assert!(pool.placeable(&unit) <= pool.unit_capacity(&unit));
            prop_assert!(
                pool.total_capacity().contains(&pool.total_free()),
                "pool free {} exceeds capacity {}",
                pool.total_free(),
                pool.total_capacity()
            );
            // Lifecycle conservation: booted = present + retired.
            prop_assert_eq!(
                pool.booted_total(),
                pool.len() as u64 + pool.retired_total()
            );
        }
    }
}
