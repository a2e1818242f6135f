//! Scenario fuzzer: samples bounded random [`ScenarioSpec`]s and asserts
//! the platform's invariant-oracle catalog (see ARCHITECTURE.md,
//! "Scenario DSL & invariant oracles") after every run:
//!
//! 1. freeze/release pairing — every bundle and phone is free again at
//!    idle, and no lease outlives the drain;
//! 2. capacity bounds — free never exceeds total (enforced continuously
//!    by debug asserts inside the event loop, so a violation aborts the
//!    run it happens in, not just the post-run check);
//! 3. no terminal-state clobber — completed/failed tasks are never
//!    transitioned again;
//! 4. billing reconciliation — reported cloud cost equals accumulated
//!    node-seconds times the hourly rate.
//!
//! The summaries of all accepted specs are also pinned by one digest
//! ([`SUMMARIES_DIGEST`]).
//!
//! The generator is deterministic ([`TestRng::deterministic`]), so a
//! failure reproduces exactly; the companion shrinker test proves an
//! injected terminal-clobber fault is caught and minimized.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::{BoxedStrategy, Just, TestRng};
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_phone::FleetSpec;
use simdc_types::{PerGrade, SimDuration};
use simdc_workload::{scenario, shrink, ArrivalProcess, FleetDynamics, ScenarioSpec, TaskTemplate};

/// Accepted random specs per fuzz run (the PR's floor is 64).
const CASES: usize = 64;

/// FNV-1a 64-bit over the summary JSON of every accepted spec, in
/// acceptance order. Taken on the batched prepare → compute → merge
/// admission that serial admission replaced; no pass of these 64 runs
/// admits more than one task.
const SUMMARIES_DIGEST: u64 = 14_318_390_005_140_018_454;

/// FNV-1a 64-bit, continued from `hash` over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn dataset() -> Arc<CtrDataset> {
    Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 40,
        n_test_devices: 8,
        mean_records_per_device: 15.0,
        feature_dim: 1 << 12,
        seed: 55,
        ..GeneratorConfig::default()
    }))
}

/// Depth-≤1 arrival trees with small rates, every variant reachable.
fn arrivals() -> BoxedStrategy<ArrivalProcess> {
    prop_oneof![
        (0.2f64..1.2).prop_map(|rate_per_min| ArrivalProcess::Poisson { rate_per_min }),
        ((0.4f64..1.0), (0.0f64..0.9), (2u64..5)).prop_map(|(mean, frac, mins)| {
            ArrivalProcess::Diurnal {
                mean_per_min: mean,
                amplitude_per_min: mean * frac,
                period: SimDuration::from_mins(mins),
            }
        }),
        ((0.2f64..0.8), (2.0f64..4.0)).prop_map(|(base_per_min, burst_multiplier)| {
            ArrivalProcess::Bursty {
                base_per_min,
                burst_multiplier,
                burst_every: SimDuration::from_mins(3),
                burst_len: SimDuration::from_mins(1),
            }
        }),
        ((0.2f64..0.6), (0.2f64..0.6)).prop_map(|(a, b)| {
            ArrivalProcess::Superpose(vec![
                ArrivalProcess::Poisson { rate_per_min: a },
                ArrivalProcess::Poisson { rate_per_min: b },
            ])
        }),
    ]
    .boxed()
}

/// Mostly-default templates with small task shapes so every run is fast.
fn templates() -> BoxedStrategy<TaskTemplate> {
    ((1u32..3), (1u64..4), (2u64..7), (0.0f64..1.0))
        .prop_map(
            |(rounds_max, dev_high, dev_low, both_grades_prob)| TaskTemplate {
                rounds: (1, rounds_max),
                devices_per_grade: (dev_high, dev_low),
                both_grades_prob,
                ..TaskTemplate::default()
            },
        )
        .boxed()
}

/// Calm, churning or straggler-laced fleets.
fn fleet_dynamics() -> BoxedStrategy<FleetDynamics> {
    prop_oneof![
        Just(FleetDynamics::calm()),
        (2u64..5).prop_map(|mins| FleetDynamics {
            mean_time_between_crashes: Some(SimDuration::from_mins(mins)),
            ..FleetDynamics::calm()
        }),
        (0.1f64..0.4).prop_map(|straggler_frac| FleetDynamics {
            straggler_frac,
            straggler_slowdown: 1.5,
            ..FleetDynamics::calm()
        }),
    ]
    .boxed()
}

/// Bounded random specs: short horizons, small fleets, optionally the
/// budget-capped library cluster so the billing oracle sees real cost.
fn specs() -> BoxedStrategy<ScenarioSpec> {
    let budget_capped = scenario("budget_capped").unwrap().cluster;
    let cluster = prop_oneof![Just(None), Just(budget_capped),];
    (
        (2u64..5),
        arrivals(),
        templates(),
        fleet_dynamics(),
        cluster,
        ((1usize..4), (1usize..4), (1usize..4), (1usize..4)),
        (0u64..1_000_000),
    )
        .prop_map(
            |(
                horizon_mins,
                arrivals,
                template,
                fleet_dynamics,
                cluster,
                (lh, ll, mh, ml),
                seed,
            )| {
                ScenarioSpec {
                    name: "fuzz_case".into(),
                    description: "bounded random spec".into(),
                    horizon: SimDuration::from_mins(horizon_mins),
                    dispatch_interval: SimDuration::from_mins(1),
                    arrivals,
                    template,
                    fleet_dynamics,
                    cluster,
                    fleet: FleetSpec {
                        local: PerGrade::from_parts(lh, ll),
                        msp: PerGrade::from_parts(mh, ml),
                    },
                    seed,
                    threads: 1,
                }
            },
        )
        .boxed()
}

/// The fuzz loop: 64 accepted specs, all four oracles per spec, and the
/// summaries' digest.
#[test]
fn random_specs_uphold_every_platform_oracle() {
    let data = dataset();
    let strategy = specs();
    let mut rng = TestRng::deterministic();
    let mut accepted = 0usize;
    let mut draws = 0usize;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    while accepted < CASES {
        draws += 1;
        assert!(draws < CASES * 20, "generator rejects too often");
        let Some(spec) = strategy.generate(&mut rng) else {
            continue;
        };
        if spec.validate().is_err() {
            continue;
        }
        accepted += 1;

        let (summary, platform) = spec
            .compile()
            .expect("validated spec compiles")
            .run_detailed(&data);
        // Oracles 1–4 — lease pairing, capacity bounds, terminal
        // clobber, billing — over the drained platform.
        let violations = platform.invariant_violations();
        assert!(
            violations.is_empty(),
            "case {accepted} violated invariants: {violations:?}\nspec: {}",
            spec.to_json_string_pretty()
        );

        digest = fnv1a(digest, serde_json::to_string(&summary).unwrap().as_bytes());
    }
    assert_eq!(
        digest, SUMMARIES_DIGEST,
        "fuzz summaries changed (observed digest {digest})"
    );
}

/// Fault-injection round trip: a deliberately injected terminal-state
/// clobber must (a) be caught by the oracle and (b) shrink to a minimal
/// spec that still reproduces it — proving the shrinker preserves the
/// failure while stripping every accidental feature of the original.
#[test]
fn injected_terminal_clobber_is_caught_and_shrunk() {
    let data = dataset();
    let fails = |spec: &ScenarioSpec| {
        let Ok(compiled) = spec.compile() else {
            return false;
        };
        let (_, mut platform) = compiled.run_detailed(&data);
        platform.inject_terminal_clobber_fault();
        platform
            .invariant_violations()
            .iter()
            .any(|v| matches!(v, simdc_core::InvariantViolation::TerminalClobber { .. }))
    };

    // A deliberately over-featured starting point: cloud tier, a
    // superposed bursty arrival tree, churn, stragglers, `threads = 2`
    // — everything the shrinker should strip. The base rates
    // stay high enough that every simplification still submits tasks,
    // so the clobber fault has terminal states to collide with.
    let mut original = scenario("budget_capped").unwrap();
    original.seed = 0xFA_17;
    original.threads = 2;
    original.arrivals = ArrivalProcess::Superpose(vec![
        ArrivalProcess::Bursty {
            base_per_min: 3.0,
            burst_multiplier: 4.0,
            burst_every: SimDuration::from_mins(3),
            burst_len: SimDuration::from_mins(1),
        },
        ArrivalProcess::Poisson { rate_per_min: 1.0 },
    ]);
    original.fleet_dynamics = FleetDynamics {
        mean_time_between_crashes: Some(SimDuration::from_mins(4)),
        straggler_frac: 0.2,
        straggler_slowdown: 1.5,
        ..FleetDynamics::calm()
    };
    assert!(
        original.cluster.is_some(),
        "starting spec carries a cloud tier"
    );
    assert!(fails(&original), "fault injection must trip the oracle");

    let minimal = shrink(&original, fails);
    assert!(fails(&minimal), "shrinking must preserve the failure");
    assert!(
        matches!(minimal.arrivals, ArrivalProcess::Poisson { .. }),
        "bursty arrivals are incidental to the fault"
    );
    assert!(minimal.cluster.is_none(), "the cloud tier is incidental");
    assert_eq!(minimal.threads, 1, "thread count is incidental");
    assert_eq!(
        minimal.fleet_dynamics,
        FleetDynamics::calm(),
        "churn and stragglers are incidental"
    );
    assert!(
        minimal.horizon < original.horizon,
        "the shrinker tightens the horizon"
    );
    // The one thing shrinking must keep: at least one task reaching a
    // terminal state for the injected clobber to collide with.
    let (summary, _) = minimal.compile().unwrap().run_detailed(&data);
    assert!(summary.completed + summary.failed > 0);
}
