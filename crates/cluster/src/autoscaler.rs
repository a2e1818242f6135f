//! The elastic-tier autoscaler: target-utilization scaling with
//! hysteresis and a cost-budget cap.
//!
//! The paper's logical simulation runs on *elastic* k8s nodes (§IV-A);
//! this module supplies the policy that decides, at every scheduling
//! pass, whether the [`crate::NodePool`] should boot more nodes (queue
//! pressure above the target utilization), drain some (sustained
//! under-utilization, guarded by a hysteresis band and a cooldown), or
//! hold. Scale-out is demand-driven and immediate — blocked placements
//! should wait for one boot latency, not for a timer — while scale-in is
//! deliberately sluggish so bursty arrivals do not thrash the pool.
//!
//! The budget cap prices nodes with
//! [`crate::CostModel::node_hourly_cost`]: when
//! [`AutoscalerConfig::max_hourly_cost`] is set, the pool never holds
//! more nodes than that spend rate affords, however deep the queue gets.
//!
//! # Examples
//!
//! ```
//! use simdc_cluster::{Autoscaler, AutoscalerConfig, NodePool, ScalingAction};
//! use simdc_types::{ResourceBundle, SimDuration, SimInstant};
//!
//! let mut pool = NodePool::new(ResourceBundle::cores_gib(4, 4), 1, 8);
//! let mut scaler = Autoscaler::new(AutoscalerConfig::default());
//! let unit = ResourceBundle::cores_gib(1, 1);
//!
//! // 12 unit bundles of queued demand against 4 free units: boot nodes.
//! let action = scaler.assess(
//!     &mut pool,
//!     &unit,
//!     12,
//!     SimDuration::from_secs(45),
//!     1.0, // node_hourly_cost
//!     SimInstant::EPOCH,
//! );
//! let ScalingAction::ScaleUp { nodes, ready_at, .. } = action else {
//!     panic!("queue pressure must trigger a scale-up");
//! };
//! assert!(nodes >= 2);
//! // The capacity is only placeable after the boot latency elapses.
//! assert_eq!(pool.placeable(&unit), 4);
//! pool.advance_to(ready_at);
//! assert!(pool.placeable(&unit) >= 12);
//! ```

use serde::{Deserialize, Serialize};
use simdc_types::{ResourceBundle, Result, SimDuration, SimInstant, SimdcError};

use crate::node::NodePool;

/// Tunables of the autoscaling policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerConfig {
    /// Utilization the pool is scaled *toward*: scale-out provisions
    /// enough nodes that `(used + queued demand) / capacity` lands at this
    /// fraction, leaving headroom for jitter.
    pub target_utilization: f64,
    /// Scale-in only triggers while utilization sits *below* this
    /// fraction — the lower edge of the hysteresis band. Must be below
    /// [`AutoscalerConfig::target_utilization`].
    pub scale_in_threshold: f64,
    /// Minimum virtual time between scale-in decisions (scale-out is
    /// never delayed: demand waits on the boot latency only).
    pub scale_in_cooldown: SimDuration,
    /// Spend-rate budget: with `Some(c)`, the pool never holds more nodes
    /// than `c / node_hourly_cost` affords. `None` means uncapped (the
    /// node-count ceiling still applies).
    pub max_hourly_cost: Option<f64>,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            target_utilization: 0.70,
            scale_in_threshold: 0.30,
            scale_in_cooldown: SimDuration::from_mins(3),
            max_hourly_cost: None,
        }
    }
}

impl AutoscalerConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` when the thresholds leave no hysteresis
    /// band (`0 < scale_in_threshold < target_utilization <= 1`) or the
    /// budget is not a positive finite number.
    pub fn validate(&self) -> Result<()> {
        use SimdcError::InvalidConfig;
        if !(self.target_utilization > 0.0 && self.target_utilization <= 1.0) {
            return Err(InvalidConfig(format!(
                "target_utilization must be in (0, 1], got {}",
                self.target_utilization
            )));
        }
        if !(self.scale_in_threshold >= 0.0 && self.scale_in_threshold < self.target_utilization) {
            return Err(InvalidConfig(format!(
                "scale_in_threshold must be in [0, target_utilization), got {}",
                self.scale_in_threshold
            )));
        }
        if let Some(budget) = self.max_hourly_cost {
            if !budget.is_finite() || budget <= 0.0 {
                return Err(InvalidConfig(format!(
                    "max_hourly_cost must be positive and finite, got {budget}"
                )));
            }
        }
        Ok(())
    }
}

/// What one [`Autoscaler::assess`] pass decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingAction {
    /// Booted `nodes` new nodes; their capacity becomes placeable at
    /// `ready_at`. `reclaimed` draining nodes additionally returned to
    /// ready service *immediately* — their capacity is placeable now, so
    /// the platform should re-run placement without waiting for
    /// `ready_at`.
    ScaleUp {
        /// Nodes that started booting.
        nodes: usize,
        /// Draining nodes returned to ready service right now.
        reclaimed: usize,
        /// When the booting nodes become ready.
        ready_at: SimInstant,
    },
    /// Returned `nodes` draining nodes to ready service with no boot
    /// needed: capacity reappeared *at this instant*. The platform must
    /// re-run placement immediately — treating this as a hold delays
    /// admission by a full dispatch tick.
    Reclaim {
        /// Draining nodes returned to ready service.
        nodes: usize,
    },
    /// Began draining `nodes` nodes (idle ones retire at the next
    /// lifecycle advance; busy ones once their allocations release).
    ScaleIn {
        /// Nodes marked draining.
        nodes: usize,
    },
    /// No change.
    Hold,
}

/// Accrues the running cost of the pool: every node-second — booting,
/// ready or draining — is billed at the model's hourly rate, pro rata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostMeter {
    accrued: f64,
    node_seconds: f64,
    last_at: SimInstant,
}

impl CostMeter {
    /// A meter starting at zero spend from `start`.
    #[must_use]
    pub fn new(start: SimInstant) -> Self {
        CostMeter {
            accrued: 0.0,
            node_seconds: 0.0,
            last_at: start,
        }
    }

    /// Bills `nodes` nodes for the wall of virtual time since the last
    /// accrual, then moves the accrual cursor to `now`. Instants before
    /// the cursor are ignored (time never rolls back).
    pub fn accrue(&mut self, nodes: usize, hourly_rate: f64, now: SimInstant) {
        if now <= self.last_at {
            return;
        }
        let secs = now.duration_since(self.last_at).as_secs_f64();
        self.node_seconds += nodes as f64 * secs;
        self.accrued += nodes as f64 * hourly_rate * (secs / 3_600.0);
        self.last_at = now;
    }

    /// Total spend so far.
    #[must_use]
    pub fn accrued(&self) -> f64 {
        self.accrued
    }

    /// Total billed node-seconds so far (the quantity `accrued()` prices).
    #[must_use]
    pub fn node_seconds(&self) -> f64 {
        self.node_seconds
    }
}

/// The stateful policy: remembers the floor it must keep and its last
/// scale-in instant (the cooldown anchor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    /// Never drain below this many nodes (the pool's initial size).
    min_nodes: usize,
    last_scale_in: Option<SimInstant>,
}

impl Autoscaler {
    /// Creates a policy with a floor of one node (set the real floor with
    /// [`Autoscaler::with_min_nodes`]).
    #[must_use]
    pub fn new(config: AutoscalerConfig) -> Self {
        Autoscaler {
            config,
            min_nodes: 1,
            last_scale_in: None,
        }
    }

    /// Sets the node floor scale-in may never cross.
    #[must_use]
    pub fn with_min_nodes(mut self, min_nodes: usize) -> Self {
        self.min_nodes = min_nodes.max(1);
        self
    }

    /// The policy configuration.
    #[must_use]
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// The most nodes the budget allows the pool to hold, also capped by
    /// the pool's `max_nodes` ceiling.
    #[must_use]
    pub fn node_cap(&self, pool: &NodePool, node_hourly_cost: f64) -> usize {
        let mut cap = pool.max_nodes();
        if let Some(budget) = self.config.max_hourly_cost {
            if node_hourly_cost > 0.0 {
                cap = cap.min((budget / node_hourly_cost).floor() as usize);
            }
        }
        cap.max(self.min_nodes.min(pool.max_nodes()))
    }

    /// One policy pass: reacts to `demand_units` of queued unit-bundle
    /// demand (claims of pending tasks that could not be admitted) given
    /// the pool's current state, and applies the decision to the pool.
    ///
    /// Scale-out first reclaims draining nodes, then boots new ones with
    /// `boot_latency` charged before the capacity is placeable. Scale-in
    /// drains surplus nodes only when there is no queued demand, the
    /// utilization is below the hysteresis threshold and the cooldown has
    /// elapsed.
    pub fn assess(
        &mut self,
        pool: &mut NodePool,
        unit: &ResourceBundle,
        demand_units: u64,
        boot_latency: SimDuration,
        node_hourly_cost: f64,
        now: SimInstant,
    ) -> ScalingAction {
        let per_node = pool.template().max_bundles(unit);
        if per_node == 0 {
            return ScalingAction::Hold;
        }
        let cap = self.node_cap(pool, node_hourly_cost);

        if demand_units > 0 {
            // Capacity the queue will see once in-flight boots finish.
            let prospective = pool.prospective_units(unit);
            if demand_units > prospective {
                let deficit = demand_units - prospective;
                // Provision toward the target utilization, not 100%.
                let target_per_node = ((per_node as f64) * self.config.target_utilization).max(1.0);
                let mut need = (deficit as f64 / target_per_node).ceil() as usize;
                let reclaimed = pool.cancel_drain(need);
                need -= reclaimed;
                let headroom = cap.saturating_sub(pool.len());
                let booted = pool.scale_up(need.min(headroom), now + boot_latency);
                if booted > 0 {
                    return ScalingAction::ScaleUp {
                        nodes: booted,
                        reclaimed,
                        ready_at: now + boot_latency,
                    };
                }
                if reclaimed > 0 {
                    // The whole deficit was covered by reclaiming draining
                    // nodes: that capacity is placeable *now*, and the
                    // caller must re-run placement on it. (Previously this
                    // fell through to `Hold` and admission stalled for a
                    // dispatch tick.)
                    return ScalingAction::Reclaim { nodes: reclaimed };
                }
            } else if demand_units > (pool.booting_count() as u64).saturating_mul(per_node) {
                // Units fit in aggregate (demand <= prospective) yet
                // placement is still blocked: the demand is fragmented
                // across nodes. One extra node breaks the deadlock —
                // reclaiming a draining node if one exists, else booting
                // (bounded by the same caps). The guard fires whenever the
                // in-flight boots alone cannot cover the blocked demand;
                // gating on `booting_count() == 0` instead would stall
                // fragmented demand for a full boot latency even though
                // the nodes coming up can never satisfy it.
                if pool.cancel_drain(1) == 1 {
                    return ScalingAction::Reclaim { nodes: 1 };
                }
                if pool.len() < cap {
                    let booted = pool.scale_up(1, now + boot_latency);
                    if booted > 0 {
                        return ScalingAction::ScaleUp {
                            nodes: booted,
                            reclaimed: 0,
                            ready_at: now + boot_latency,
                        };
                    }
                }
            }
            return ScalingAction::Hold;
        }

        // No queued demand: consider scale-in, guarded by hysteresis and
        // cooldown.
        let utilization = pool.cpu_utilization();
        if utilization >= self.config.scale_in_threshold {
            return ScalingAction::Hold;
        }
        if let Some(last) = self.last_scale_in {
            if now.duration_since(last) < self.config.scale_in_cooldown {
                return ScalingAction::Hold;
            }
        }
        let ready = pool.ready_count();
        let free_units = pool.placeable(unit);
        let used_units = pool.unit_capacity(unit).saturating_sub(free_units);
        let desired = ((used_units as f64 / ((per_node as f64) * self.config.target_utilization))
            .ceil() as usize)
            .max(self.min_nodes)
            .min(cap);
        if ready > desired {
            let drained = pool.drain(ready - desired);
            if drained > 0 {
                self.last_scale_in = Some(now);
                return ScalingAction::ScaleIn { nodes: drained };
            }
        }
        ScalingAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> ResourceBundle {
        ResourceBundle::cores_gib(1, 1)
    }

    fn pool() -> NodePool {
        // 4-unit nodes, 2 initial, max 8.
        NodePool::new(ResourceBundle::cores_gib(4, 4), 2, 8)
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    const BOOT: SimDuration = SimDuration::from_secs(45);

    #[test]
    fn default_config_validates() {
        AutoscalerConfig::default().validate().unwrap();
    }

    #[test]
    fn inverted_hysteresis_band_rejected() {
        let bad = AutoscalerConfig {
            target_utilization: 0.3,
            scale_in_threshold: 0.5,
            ..AutoscalerConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = AutoscalerConfig {
            max_hourly_cost: Some(0.0),
            ..AutoscalerConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn queue_pressure_boots_nodes_with_latency() {
        let mut pool = pool();
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(2);
        let action = scaler.assess(&mut pool, &unit(), 20, BOOT, 1.0, t(0));
        let ScalingAction::ScaleUp {
            nodes,
            reclaimed,
            ready_at,
        } = action
        else {
            panic!("expected scale-up, got {action:?}");
        };
        assert_eq!(reclaimed, 0, "nothing was draining");
        assert!(nodes >= 4, "20 units over 8 free at 0.7 target: {nodes}");
        assert_eq!(ready_at, SimInstant::EPOCH + BOOT);
        assert_eq!(pool.placeable(&unit()), 8, "boot latency not charged");
        // A second pass at the same instant sees the in-flight boots and
        // holds instead of double-booting.
        assert_eq!(
            scaler.assess(&mut pool, &unit(), 20, BOOT, 1.0, t(0)),
            ScalingAction::Hold
        );
    }

    #[test]
    fn budget_caps_the_fleet() {
        let mut pool = pool();
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            max_hourly_cost: Some(3.0),
            ..AutoscalerConfig::default()
        })
        .with_min_nodes(2);
        assert_eq!(scaler.node_cap(&pool, 1.0), 3);
        // Huge demand still only affords one extra node at 1.0/h each.
        let action = scaler.assess(&mut pool, &unit(), 1_000, BOOT, 1.0, t(0));
        assert_eq!(
            action,
            ScalingAction::ScaleUp {
                nodes: 1,
                reclaimed: 0,
                ready_at: SimInstant::EPOCH + BOOT
            }
        );
        assert_eq!(pool.len(), 3);
        // At the cap, further pressure holds.
        assert_eq!(
            scaler.assess(&mut pool, &unit(), 1_000, BOOT, 1.0, t(60)),
            ScalingAction::Hold
        );
    }

    #[test]
    fn idle_pool_scales_in_with_hysteresis_and_cooldown() {
        let mut pool = pool();
        pool.scale_up(4, t(0));
        pool.advance_to(t(0));
        assert_eq!(pool.ready_count(), 6);
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(2);
        // Idle and under-utilized: drain down to the floor.
        let action = scaler.assess(&mut pool, &unit(), 0, BOOT, 1.0, t(600));
        assert_eq!(action, ScalingAction::ScaleIn { nodes: 4 });
        pool.advance_to(t(600));
        assert_eq!(pool.len(), 2);
        // Within the cooldown nothing further happens even if still idle.
        pool.scale_up(2, t(601));
        pool.advance_to(t(601));
        assert_eq!(
            scaler.assess(&mut pool, &unit(), 0, BOOT, 1.0, t(610)),
            ScalingAction::Hold
        );
        // After the cooldown the surplus drains again.
        assert!(matches!(
            scaler.assess(&mut pool, &unit(), 0, BOOT, 1.0, t(601 + 200)),
            ScalingAction::ScaleIn { .. }
        ));
    }

    #[test]
    fn busy_pool_does_not_scale_in() {
        let mut pool = pool();
        pool.place(&ResourceBundle::cores_gib(4, 4)).unwrap();
        // 50% utilization is above the 30% threshold: hold.
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(1);
        assert_eq!(
            scaler.assess(&mut pool, &unit(), 0, BOOT, 1.0, t(600)),
            ScalingAction::Hold
        );
    }

    #[test]
    fn demand_reclaims_draining_nodes_before_booting() {
        let mut pool = pool();
        pool.scale_up(2, t(0));
        pool.advance_to(t(0));
        pool.drain(2);
        assert_eq!(pool.ready_count(), 2);
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(2);
        let action = scaler.assess(&mut pool, &unit(), 12, BOOT, 1.0, t(10));
        // 12 units over 8 free: 2 more nodes at 0.7 target; both come from
        // the draining set, no boot needed — and the caller is *told* so,
        // rather than getting a `Hold` that hides the reappeared capacity.
        assert_eq!(pool.draining_count(), 0);
        assert_eq!(action, ScalingAction::Reclaim { nodes: 2 });
        assert_eq!(pool.booting_count(), 0, "reclaim needs no boot");
        assert!(pool.placeable(&unit()) >= 12);
    }

    #[test]
    fn partial_reclaim_is_reported_alongside_the_boot() {
        let mut pool = pool();
        pool.scale_up(1, t(0));
        pool.advance_to(t(0));
        pool.drain(1);
        assert_eq!(pool.draining_count(), 1);
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(2);
        // 30 units over 8 free: the one draining node is reclaimed *and*
        // fresh nodes boot; both facts surface in the action.
        let action = scaler.assess(&mut pool, &unit(), 30, BOOT, 1.0, t(10));
        let ScalingAction::ScaleUp {
            nodes, reclaimed, ..
        } = action
        else {
            panic!("expected scale-up, got {action:?}");
        };
        assert_eq!(reclaimed, 1);
        assert!(nodes >= 1);
        assert_eq!(pool.draining_count(), 0);
    }

    #[test]
    fn fragmentation_breaker_fires_while_boots_cannot_cover_demand() {
        // Two ready 4-unit nodes with 3 units placed each (1 free unit
        // apiece) and one node already booting. A fragmented 5-unit
        // request fits the prospective aggregate (2 free + 4 booting = 6)
        // but the in-flight boot alone (4 units) cannot cover it — the
        // breaker must fire *now*, not after the 45 s boot latency.
        let mut pool = pool();
        pool.place(&ResourceBundle::cores_gib(3, 3)).unwrap();
        pool.place(&ResourceBundle::cores_gib(3, 3)).unwrap();
        pool.scale_up(1, t(0) + BOOT);
        assert_eq!(pool.booting_count(), 1);
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(2);
        let action = scaler.assess(&mut pool, &unit(), 5, BOOT, 1.0, t(0));
        assert_eq!(
            action,
            ScalingAction::ScaleUp {
                nodes: 1,
                reclaimed: 0,
                ready_at: t(0) + BOOT
            },
            "blocked fragmented demand beyond the in-flight boots must break out"
        );
        // Demand the booting node *can* absorb keeps holding: no thrash.
        assert_eq!(
            scaler.assess(&mut pool, &unit(), 3, BOOT, 1.0, t(1)),
            ScalingAction::Hold
        );
    }

    #[test]
    fn fragmentation_breaker_prefers_reclaiming_a_draining_node() {
        let mut pool = pool();
        pool.scale_up(1, t(0));
        pool.advance_to(t(0));
        pool.drain(1);
        // Fill both remaining ready nodes to 1 free unit each.
        pool.place(&ResourceBundle::cores_gib(3, 3)).unwrap();
        pool.place(&ResourceBundle::cores_gib(3, 3)).unwrap();
        let mut scaler = Autoscaler::new(AutoscalerConfig::default()).with_min_nodes(2);
        // 2 units, 2 free in aggregate, but fragmented 1+1: reclaim the
        // draining node instead of booting a fresh one.
        let action = scaler.assess(&mut pool, &unit(), 2, BOOT, 1.0, t(10));
        assert_eq!(action, ScalingAction::Reclaim { nodes: 1 });
        assert_eq!(pool.draining_count(), 0);
        assert_eq!(pool.booting_count(), 0);
    }

    #[test]
    fn cost_meter_accrues_node_hours() {
        let mut meter = CostMeter::new(SimInstant::EPOCH);
        meter.accrue(4, 2.0, t(1_800)); // 4 nodes × 0.5 h × 2.0/h
        assert!((meter.accrued() - 4.0).abs() < 1e-9);
        assert!((meter.node_seconds() - 4.0 * 1_800.0).abs() < 1e-9);
        // Time never rolls back.
        meter.accrue(100, 2.0, t(900));
        assert!((meter.accrued() - 4.0).abs() < 1e-9);
        meter.accrue(1, 2.0, t(3_600)); // +1 node × 0.5 h × 2.0/h
        assert!((meter.accrued() - 5.0).abs() < 1e-9);
    }
}
