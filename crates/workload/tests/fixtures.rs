//! The scenario-fixture contract: every spec committed under
//! `fixtures/scenarios/` (the library) and `fixtures/scale/` (`mega_fleet`)
//! at the repository root is embedded in the crate, loads through the
//! strict loader, and is in canonical form — re-serializing the loaded
//! spec reproduces the file byte for byte, so the JSON schema (field
//! names, order, value encoding) cannot drift without a reviewed diff.
//!
//! The fixtures are the only definition of each scenario; what their
//! numbers *do* is pinned by the per-fixture digests in
//! `byte_identity.rs`.

use std::path::PathBuf;

use simdc_workload::{scenario_names, ScenarioSpec};

/// The spec files under `fixtures/<dir>/`, sorted.
fn committed(dir: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(dir);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", dir.display()))
        .map(|entry| entry.expect("readable entry").path())
        // The summary JSON-schema golden shares the scenarios directory.
        .filter(|path| !path.to_string_lossy().ends_with(".schema.json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_committed_fixture_is_embedded_and_canonical() {
    let (library, scale) = (committed("scenarios"), committed("scale"));
    assert_eq!((library.len(), scale.len()), (8, 1));

    let stem = |path: &PathBuf| path.file_stem().unwrap().to_string_lossy().into_owned();
    let mut on_disk: Vec<String> = library.iter().chain(&scale).map(stem).collect();
    let mut embedded: Vec<&str> = scenario_names().collect();
    on_disk.sort();
    embedded.sort_unstable();
    assert_eq!(on_disk, embedded, "fixture files vs embedded names");

    for path in library.iter().chain(&scale) {
        let text = std::fs::read_to_string(path).expect("fixture readable");
        let spec = ScenarioSpec::from_json_str(&text).unwrap_or_else(|e| {
            panic!(
                "{} must load through the strict loader: {e}",
                path.display()
            )
        });
        assert_eq!(
            spec.to_json_string_pretty() + "\n",
            text,
            "{} is not in canonical form",
            path.display()
        );
    }
}
