//! The scenario library: the committed JSON specs under `fixtures/` at
//! the repository root, embedded at compile time.
//!
//! The files are the only definition of each scenario — there is no Rust
//! copy to keep in sync. To add one, commit
//! `fixtures/scenarios/<name>.json`, add its name to `LIBRARY` below, and
//! pin its run digest in `tests/byte_identity.rs`.

use simdc_types::{Result, SimdcError};

use crate::spec::ScenarioSpec;

/// Pairs each scenario name with the text of its committed fixture.
macro_rules! embed {
    ($($name:literal),* $(,)?) => {
        [$((
            $name,
            include_str!(concat!("../../../fixtures/scenarios/", $name, ".json")),
        )),*]
    };
}

/// The scenarios [`library`] returns, in suite order. Each stresses a
/// different axis over the paper-default fleet: steady load, time-varying
/// load, flash crowds, fleet churn, stragglers, benchmark-phone outages,
/// elastic scale-out and scale-out under a cost budget.
const LIBRARY: [(&str, &str); 8] = embed![
    "steady_poisson",
    "diurnal_cycle",
    "flash_crowd",
    "phone_churn",
    "straggler_fleet",
    "benchmark_outage",
    "cloud_surge",
    "budget_capped",
];

/// `mega_fleet`: loadable by name, not part of [`library`] — superposed
/// bursty arrivals of phone-heavy tasks over the 100,000-phone fleet the
/// `scale` bench drives. Kept in `fixtures/scale/` because whatever walks
/// `fixtures/scenarios/` (the benchmark package's parity test does, in a
/// debug build) runs every spec there at full size.
const SCALE: [(&str, &str); 1] = [(
    "mega_fleet",
    include_str!("../../../fixtures/scale/mega_fleet.json"),
)];

/// Names of every embedded scenario: the eight of [`library`], then
/// `mega_fleet`.
pub fn scenario_names() -> impl Iterator<Item = &'static str> {
    LIBRARY.iter().chain(&SCALE).map(|(name, _)| *name)
}

/// Parses one embedded fixture; only a broken commit fails (see `tests/fixtures.rs`).
fn load((name, text): &(&str, &str)) -> ScenarioSpec {
    ScenarioSpec::from_json_str(text)
        .unwrap_or_else(|e| panic!("committed fixture {name}.json must load: {e}"))
}

/// Loads an embedded scenario by name; adjust the returned spec's knobs
/// (`seed`, `fleet`, `threads`, [`ScenarioSpec::with_horizon_scale`],
/// [`ScenarioSpec::with_rate_scale`]) before [`ScenarioSpec::compile`].
///
/// # Errors
///
/// Returns [`SimdcError::InvalidConfig`] listing the known names when
/// `name` is not one of [`scenario_names`].
pub fn scenario(name: &str) -> Result<ScenarioSpec> {
    LIBRARY
        .iter()
        .chain(&SCALE)
        .find(|(known, _)| *known == name)
        .map(load)
        .ok_or_else(|| {
            SimdcError::InvalidConfig(format!(
                "unknown scenario `{name}` (known: {})",
                scenario_names().collect::<Vec<_>>().join(", ")
            ))
        })
}

/// The built-in scenario suite the `scenarios` bench exercises, in a
/// fixed order.
#[must_use]
pub fn library() -> Vec<ScenarioSpec> {
    LIBRARY.iter().map(load).collect()
}
