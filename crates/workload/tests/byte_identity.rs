//! Cross-build byte-identity pins for the determinism-critical scenarios.
//!
//! The in-module scenario tests assert that *two runs in the same build*
//! agree byte for byte; this suite goes further and pins a digest of the
//! summary JSON, so a change that is internally consistent but alters the
//! bytes — e.g. swapping an ordered map for a hash map on a
//! determinism-relevant path, exactly what `clippy.toml`'s ban guards —
//! fails here even though both runs of the new build still match each
//! other.
//!
//! If a PR changes simulation behavior *on purpose*, update the pinned
//! digests below (the assertion message prints the observed value) and
//! say why in the PR description, the same contract as the golden
//! fixtures under `crates/bench/tests/golden/`.

use std::sync::Arc;

use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_phone::FleetSpec;
use simdc_workload::{scenario, scenario_names};

/// FNV-1a 64-bit, dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
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

#[test]
fn mega_fleet_summary_digest_is_pinned() {
    let mut spec = scenario("mega_fleet").unwrap().with_horizon_scale(0.1);
    spec.fleet = FleetSpec::scaled_paper(1_500);
    // Seed 21 seeds the scenario's streams and the platform; the platform
    // seed draws only benchmark-phone measurement noise, which no summary
    // reads.
    spec.seed = 21;
    let summary = spec.compile().unwrap().run(&dataset());
    let json = serde_json::to_string(&summary).expect("summary serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        MEGA_FLEET_DIGEST,
        "mega_fleet summary bytes changed; if intentional, re-pin the digest"
    );
}

#[test]
fn cloud_surge_summary_digest_is_pinned() {
    let mut spec = scenario("cloud_surge").unwrap();
    spec.seed = 42;
    let summary = spec.compile().unwrap().run(&dataset());
    let json = serde_json::to_string(&summary).expect("summary serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        CLOUD_SURGE_DIGEST,
        "cloud_surge summary bytes changed; if intentional, re-pin the digest"
    );
}

/// Pinned over the BTreeMap-converted (PR 6) platform state; stable since.
const MEGA_FLEET_DIGEST: u64 = 6_374_329_799_801_503_195;
/// Re-pinned when autoscaler reclaim started waking the platform: reclaim
/// wake events change `node_ready_events` counts (and downstream cost
/// accounting) on purpose. See the autoscaler's reclaimed-drain tests.
const CLOUD_SURGE_DIGEST: u64 = 3_823_498_095_159_712_412;

/// One digest per committed fixture, run as committed (own seed and
/// fleet) over a quarter of its horizon. The fixtures are the
/// only definition of these scenarios, so this table is what notices a
/// changed number in one of them: the values were computed at commit
/// 982e39a from the Rust constructors the fixtures replaced.
const FIXTURE_DIGESTS: [(&str, u64); 9] = [
    ("steady_poisson", 725_234_810_578_719_306),
    ("diurnal_cycle", 7_080_658_034_164_661_726),
    ("flash_crowd", 9_134_386_795_400_198_249),
    ("phone_churn", 10_700_523_633_044_712_341),
    ("straggler_fleet", 12_961_877_579_008_572_782),
    ("benchmark_outage", 10_415_723_095_383_677_127),
    ("cloud_surge", 2_261_098_036_470_469_209),
    ("budget_capped", 17_636_529_294_267_511_877),
    ("mega_fleet", 8_262_754_466_434_464_817),
];

#[test]
fn every_fixture_summary_digest_is_pinned() {
    assert_eq!(
        scenario_names().collect::<Vec<_>>(),
        FIXTURE_DIGESTS.map(|(name, _)| name),
        "every embedded scenario has a pinned digest"
    );
    let data = dataset();
    let mut drifted = Vec::new();
    for (name, pinned) in FIXTURE_DIGESTS {
        let mut spec = scenario(name).unwrap().with_horizon_scale(0.25);
        if name == "mega_fleet" {
            // Its own 100,000 phones are a release-build size; the
            // library tests pin that field directly.
            spec.fleet = FleetSpec::scaled_paper(1_500);
        }
        let summary = spec.compile().unwrap().run(&data);
        let json = serde_json::to_string(&summary).expect("summary serializes");
        let observed = fnv1a(json.as_bytes());
        if observed != pinned {
            drifted.push((name, observed));
        }
    }
    assert!(
        drifted.is_empty(),
        "fixture summary bytes changed (name, observed digest): {drifted:?}; \
         if intentional, re-pin"
    );
}
