//! Fig 8 — scalability of popular simulators: single-round time of SimDC
//! vs FedScale-like and FederatedScope-like baselines, 100 → 100,000
//! devices on a 200-core cluster.
//!
//! The paper's shape: below ~1,000 devices SimDC is *slower* (its actors
//! pay placement-group setup and per-round data/model downloads, and
//! results flow through shared storage and cloud messaging — the realism
//! overhead); at ≥10,000 devices SimDC and FederatedScope converge, while
//! FedScale stays fastest because it skips device-cloud communication
//! entirely.
//!
//! Neither baseline framework is available here, so each is a cost curve
//! of its standalone simulation mode — a fixed per-round overhead plus a
//! per-client cost:
//!
//! * FedScale keeps data and models in memory and only swaps tensors
//!   between buffers when switching clients (§VI-B.4: it "does not use
//!   device-cloud communication during simulations"), so its per-client
//!   cost is tiny and it "appears faster" while deviating most from real
//!   deployments;
//! * FederatedScope's standalone mode simulates clients one after another
//!   on a single resource instance and keeps the device-cloud messages, so
//!   each client pays a per-message cost; at large scales its round time
//!   converges to SimDC's, since both grow linearly per device.

use serde::Serialize;
use simdc_cluster::{ClusterConfig, CostModel, JobSpec, LogicalCluster};
use simdc_simrt::RngStream;
use simdc_types::{DeviceGrade, DeviceId, PerGrade, ResourceBundle, RoundId, SimDuration, TaskId};

use crate::{f, render_table, ExpOptions};

/// One `(framework, scale)` measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Framework name.
    pub framework: String,
    /// Number of simulated devices.
    pub devices: u64,
    /// Single-round time, seconds.
    pub round_secs: f64,
}

/// A baseline simulator's single-round cost curve.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Framework name as the figure's legend prints it.
    pub name: &'static str,
    /// Cost of simulating one client.
    pub per_client: SimDuration,
    /// Fixed per-round overhead (server setup, aggregation).
    pub round_overhead: SimDuration,
}

impl Baseline {
    /// Virtual time of one round with `n` participating devices.
    #[must_use]
    pub fn round_time(&self, n: u64) -> SimDuration {
        self.round_overhead.saturating_add(self.per_client * n)
    }
}

/// FedScale's standalone mode: in-memory client switching.
pub const FEDSCALE: Baseline = Baseline {
    name: "FedScale",
    per_client: SimDuration::from_millis(5),
    round_overhead: SimDuration::from_millis(500),
};

/// FederatedScope's standalone mode: one client after another, with
/// device-cloud messages.
pub const FEDERATED_SCOPE: Baseline = Baseline {
    name: "FederatedScope",
    per_client: SimDuration::from_millis(80),
    round_overhead: SimDuration::from_secs(2),
};

/// Cloud-side per-round overhead of SimDC (storage sync + DeviceFlow +
/// aggregation service), added on top of the cluster makespan.
const CLOUD_OVERHEAD: SimDuration = SimDuration::from_millis(2_500);

/// SimDC single-round time at scale `n` on a 200-core logical cluster
/// (single grade, one unit bundle per device, as in §VI-B.4).
///
/// # Panics
///
/// Panics if the fixed-capacity cluster rejects the job (a bug).
#[must_use]
pub fn simdc_round_time(n: u64, seed: u64) -> SimDuration {
    let config = ClusterConfig {
        // One big 200-core pool; no elastic growth — Fig 8 fixes capacity.
        node_template: ResourceBundle::cores_gib(200, 300),
        initial_nodes: 1,
        max_nodes: 1,
        cost: CostModel {
            jitter_frac: 0.0,
            compute_per_device: PerGrade::new(SimDuration::from_secs(16)),
            ..CostModel::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = LogicalCluster::new(config);
    let job = JobSpec {
        task: TaskId(1),
        round: RoundId(0),
        grade: DeviceGrade::High,
        devices: (0..n).map(DeviceId).collect(),
        unit_bundles: 200,
        units_per_device: 1,
        payload_mib: 4.0,
    };
    let mut rng = RngStream::named(seed, "fig8");
    let plan = cluster.submit_job(&job, &mut rng).expect("job fits");
    plan.makespan.saturating_add(CLOUD_OVERHEAD)
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the fixed-capacity cluster rejects a job (a bug).
pub fn run(opts: &ExpOptions) -> Vec<Point> {
    let scales: &[u64] = if opts.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 316, 1_000, 3_162, 10_000, 31_623, 100_000]
    };
    let mut points = Vec::new();
    for &n in scales {
        points.push(Point {
            framework: "SimDC".into(),
            devices: n,
            round_secs: simdc_round_time(n, opts.seed).as_secs_f64(),
        });
        for baseline in [FEDSCALE, FEDERATED_SCOPE] {
            points.push(Point {
                framework: baseline.name.into(),
                devices: n,
                round_secs: baseline.round_time(n).as_secs_f64(),
            });
        }
    }

    let table = render_table(
        &["Devices", "SimDC (s)", "FedScale (s)", "FederatedScope (s)"],
        &scales
            .iter()
            .map(|&n| {
                let t = |name: &str| {
                    points
                        .iter()
                        .find(|p| p.devices == n && p.framework == name)
                        .expect("both frameworks measured at every scale")
                        .round_secs
                };
                vec![
                    n.to_string(),
                    f(t("SimDC"), 1),
                    f(t("FedScale"), 1),
                    f(t("FederatedScope"), 1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Fig 8 — scalability of popular simulators (single-round time)\n{table}");
    opts.write_json("fig8", &points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(points: &[Point], name: &str, n: u64) -> f64 {
        points
            .iter()
            .find(|p| p.framework == name && p.devices == n)
            .unwrap()
            .round_secs
    }

    #[test]
    fn shape_matches_paper() {
        let opts = ExpOptions {
            quick: false,
            out_dir: std::env::temp_dir().join("simdc-fig8-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let points = run(&opts);
        // Below 1k devices SimDC is slower than both baselines.
        for n in [100u64, 316] {
            assert!(get(&points, "SimDC", n) > get(&points, "FedScale", n));
            assert!(get(&points, "SimDC", n) > get(&points, "FederatedScope", n));
        }
        // At ≥10k devices SimDC and FederatedScope are comparable
        // (within 2×) while FedScale stays far below both.
        for n in [10_000u64, 100_000] {
            let simdc = get(&points, "SimDC", n);
            let fscope = get(&points, "FederatedScope", n);
            let fscale = get(&points, "FedScale", n);
            let ratio = simdc / fscope;
            assert!((0.5..2.0).contains(&ratio), "n={n}: ratio {ratio}");
            assert!(fscale < 0.2 * simdc, "FedScale stays fastest at {n}");
        }
        // Everything grows with scale.
        assert!(get(&points, "SimDC", 100_000) > get(&points, "SimDC", 100));
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
