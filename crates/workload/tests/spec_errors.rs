//! Table-driven contract test for [`ScenarioSpec::from_json_str`]
//! rejection: every malformed or invalid document surfaces as a typed
//! error with a pinned `Display` message — never a panic. The messages
//! are part of the public surface (CI logs, sweep tooling) and changing
//! one is a reviewed diff here.

use simdc_workload::ScenarioSpec;

fn steady() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/scenarios/steady_poisson.json"
    ))
    .expect("steady_poisson fixture")
}

fn diurnal() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/scenarios/diurnal_cycle.json"
    ))
    .expect("diurnal_cycle fixture")
}

fn budget_capped() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/scenarios/budget_capped.json"
    ))
    .expect("budget_capped fixture")
}

/// Patches `from -> to` exactly once; panics if the needle is missing so
/// a fixture edit cannot silently turn a case into a no-op.
fn patch(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "patch needle `{from}` not in fixture");
    text.replacen(from, to, 1)
}

#[test]
fn every_malformed_spec_yields_its_pinned_error() {
    let cases: Vec<(&str, String, &str)> = vec![
        (
            "malformed json",
            "{ not json".into(),
            "serialization error: json error: expected `\"` at byte 2",
        ),
        (
            "unknown arrival variant",
            patch(&steady(), "\"Poisson\"", "\"Pareto\""),
            "serialization error: serde error: field `arrivals`: serde error: \
             unknown variant `Pareto` of enum ArrivalProcess",
        ),
        (
            "negative poisson rate",
            patch(&steady(), "\"rate_per_min\": 0.7", "\"rate_per_min\": -1.0"),
            "invalid configuration: poisson rate must be positive, got -1",
        ),
        (
            "diurnal amplitude above mean",
            patch(&diurnal(), "\"mean_per_min\": 0.6", "\"mean_per_min\": 0.4"),
            "invalid configuration: diurnal amplitude (0.5) exceeds mean (0.4)",
        ),
        (
            "zero-phone fleet",
            patch(
                &steady(),
                "\"local\": {\n      \"high\": 4,\n      \"low\": 6\n    },\n    \
                 \"msp\": {\n      \"high\": 13,\n      \"low\": 7\n    }",
                "\"local\": {\n      \"high\": 0,\n      \"low\": 0\n    },\n    \
                 \"msp\": {\n      \"high\": 0,\n      \"low\": 0\n    }",
            ),
            "invalid configuration: fleet must contain at least one phone",
        ),
        (
            "negative autoscaler budget",
            patch(
                &budget_capped(),
                "\"max_hourly_cost\": 6",
                "\"max_hourly_cost\": -3",
            ),
            "invalid configuration: max_hourly_cost must be positive and finite, got -3",
        ),
        (
            "unknown top-level key",
            patch(
                &steady(),
                "{\n  \"name\"",
                "{\n  \"frequency\": 3,\n  \"name\"",
            ),
            "invalid configuration: unknown key `$.frequency` in scenario spec",
        ),
        (
            "unknown nested key",
            patch(
                &steady(),
                "\"template\": {\n    \"rounds\"",
                "\"template\": {\n    \"bogus\": true,\n    \"rounds\"",
            ),
            "invalid configuration: unknown key `$.template.bogus` in scenario spec",
        ),
        (
            "straggler slowdown above the cap",
            patch(
                &steady(),
                "\"straggler_slowdown\": 1\n",
                "\"straggler_slowdown\": 1e6\n",
            ),
            "invalid configuration: straggler_slowdown must be at most 1000, got 1000000",
        ),
        (
            "devices per grade above the cap",
            patch(
                &steady(),
                "\"devices_per_grade\": [\n      8,\n      24\n    ]",
                "\"devices_per_grade\": [\n      18446744073709551615,\n      \
                 18446744073709551615\n    ]",
            ),
            "invalid configuration: devices_per_grade must be at most 100000, \
             got 18446744073709551615",
        ),
        (
            "crash schedule above the cap",
            patch(
                &steady(),
                "\"mean_time_between_crashes\": null",
                "\"mean_time_between_crashes\": 1",
            ),
            "invalid configuration: expected crashes (horizon / mean_time_between_crashes) \
             must be at most 1000000, got 1800000000",
        ),
        (
            "too many threads",
            patch(&steady(), "\"threads\": 1", "\"threads\": 65"),
            "invalid configuration: threads must be at most 64, got 65",
        ),
    ];
    for (label, text, expected) in cases {
        let err = ScenarioSpec::from_json_str(&text)
            .expect_err(&format!("case `{label}` should be rejected"));
        assert_eq!(err.to_string(), expected, "case `{label}`");
    }
}

/// The loader stays total on garbage: a sweep of truncations of a valid
/// fixture never panics — every prefix parses or errors cleanly.
#[test]
fn truncated_documents_error_instead_of_panicking() {
    let full = steady();
    for end in (0..full.len()).step_by(37) {
        let prefix = &full[..end];
        let _ = ScenarioSpec::from_json_str(prefix);
    }
    assert!(ScenarioSpec::from_json_str(&full).is_ok());
}

/// Deep nesting is a typed error, not a stack overflow: the JSON parser
/// stops at 128 levels, long before a million open brackets could
/// exhaust the test thread's stack.
#[test]
fn deeply_nested_documents_error_instead_of_overflowing() {
    let err = ScenarioSpec::from_json_str(&"[".repeat(1_000_000)).unwrap_err();
    assert!(
        matches!(err, simdc_types::SimdcError::Serialization(_)),
        "{err}"
    );
    assert!(
        err.to_string().contains("recursion limit exceeded"),
        "{err}"
    );
}
