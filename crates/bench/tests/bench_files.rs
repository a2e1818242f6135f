//! The committed benchmark evidence keeps its shape. Every `BENCH_*.json`
//! at the repository root is either a full result set, as
//! `simdc-benchmark run --out` writes it, or the trajectory
//! (`BENCH_trajectory.json`) that `simdc-bench ab` appends to. A hand
//! edit that drops a field, breaks a type, disorders a quartile or
//! misstates a ratio fails here.

use std::path::{Path, PathBuf};

use serde::Deserialize;
use simdc_bench::ab::{read_trajectory, END_TO_END, WORKLOADS};

/// One metric of a result set.
#[derive(Debug, Deserialize)]
struct Metric {
    name: String,
    value: f64,
    min: f64,
    max: f64,
    median: f64,
    samples: u64,
}

/// One workload's results in a result set.
#[derive(Debug, Deserialize)]
struct WorkloadResult {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    output_digest: String,
    metrics: Vec<Metric>,
}

/// A full result set.
#[derive(Debug, Deserialize)]
struct ResultSet {
    seed: u64,
    seconds: f64,
    host_cpus: u64,
    end_to_end: Vec<WorkloadResult>,
    per_layer: Vec<WorkloadResult>,
}

/// `BENCHMARK.json`'s metric lists.
#[derive(Debug, Deserialize)]
struct Manifest {
    end_to_end: Vec<Bounded>,
    per_layer: Vec<Named>,
}

#[derive(Debug, Deserialize)]
struct Bounded {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read<T: Deserialize>(path: &Path) -> T {
    let text = std::fs::read_to_string(path).unwrap();
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed `BENCH_*.json` files other than the trajectory.
fn result_sets() -> Vec<(String, ResultSet)> {
    let mut sets = Vec::new();
    for entry in std::fs::read_dir(root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && name != "BENCH_trajectory.json"
        {
            sets.push((name, read(&path)));
        }
    }
    sets.sort_by(|a, b| a.0.cmp(&b.0));
    sets
}

fn check_results(set: &str, results: &[WorkloadResult], metrics: &[String]) {
    let workloads: Vec<&str> = results.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(workloads, WORKLOADS, "{set}");
    for r in results {
        let at = format!("{set} {}", r.workload);
        assert!(r.correct && r.failed <= r.attempted, "{at}");
        assert_eq!(r.output_digest.len(), 16, "{at}");
        assert!(
            r.output_digest.bytes().all(|b| b.is_ascii_hexdigit()),
            "{at}"
        );
        for m in &r.metrics {
            assert!(metrics.contains(&m.name), "{at}: unknown metric {}", m.name);
            // A metric the workload never reaches is all zeros.
            let unreached = [m.value, m.min, m.max, m.median] == [0.0; 4];
            assert!(m.samples > 0 || unreached, "{at} {}", m.name);
            let ordered = m.min <= m.median && m.median <= m.max;
            let inside = m.min <= m.value && m.value <= m.max;
            assert!(ordered && inside, "{at} {}: {m:?}", m.name);
        }
    }
}

#[test]
fn every_committed_result_set_has_the_benchmark_s_shape() {
    let manifest: Manifest = read(&root().join("BENCHMARK.json"));
    let names = |list: &[Named]| list.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let rules: Vec<(&str, bool, f64)> = manifest
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.better == "higher", m.bound))
        .collect();
    assert_eq!(
        rules, END_TO_END,
        "`simdc-bench ab` reads BENCHMARK.json's rules"
    );
    let end_to_end: Vec<String> = manifest.end_to_end.iter().map(|m| m.name.clone()).collect();
    let sets = result_sets();
    assert!(!sets.is_empty());
    for (name, set) in &sets {
        assert!(
            set.seed > 0 && set.seconds > 0.0 && set.host_cpus > 0,
            "{name}"
        );
        check_results(name, &set.end_to_end, &end_to_end);
        check_results(name, &set.per_layer, &names(&manifest.per_layer));
        for r in &set.end_to_end {
            let metrics: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(metrics, end_to_end, "{name} {}", r.workload);
        }
    }
}

/// Every trajectory row passes `TrajectoryRow::check`, labels are unique,
/// and a result-set row whose file is still committed carries that
/// file's end-to-end values and digests exactly.
#[test]
fn every_trajectory_row_has_its_shape_and_matches_its_set() {
    let trajectory = read_trajectory(&root().join("BENCH_trajectory.json")).unwrap();
    let rows = &trajectory.rows;
    assert!(rows.iter().any(|r| !r.set.is_empty()));
    assert!(rows.iter().any(|r| !r.ab.is_empty()));
    for (i, row) in rows.iter().enumerate() {
        assert!(
            rows[..i].iter().all(|earlier| earlier.label != row.label),
            "{}",
            row.label
        );
    }
    let mut matched = 0;
    for (file, set) in result_sets() {
        let Some(row) = rows
            .iter()
            .find(|r| !r.set.is_empty() && file_of(&r.label) == file)
        else {
            continue;
        };
        matched += 1;
        let values: Vec<(&str, &str, f64)> = set
            .end_to_end
            .iter()
            .flat_map(|r| {
                r.metrics
                    .iter()
                    .map(|m| (r.workload.as_str(), m.name.as_str(), m.value))
            })
            .collect();
        let row_values: Vec<(&str, &str, f64)> = row
            .set
            .iter()
            .map(|v| (v.workload.as_str(), v.metric.as_str(), v.value))
            .collect();
        assert_eq!(row_values, values, "{file}");
        let digests: Vec<(&str, &str)> = set
            .end_to_end
            .iter()
            .map(|r| (r.workload.as_str(), r.output_digest.as_str()))
            .collect();
        let row_digests: Vec<(&str, &str)> = row
            .digests
            .iter()
            .map(|d| (d.workload.as_str(), d.output.as_str()))
            .collect();
        assert_eq!(row_digests, digests, "{file}");
        assert_eq!(
            (row.seeds.as_slice(), row.host_cpus),
            (&[set.seed][..], set.host_cpus)
        );
    }
    assert!(
        matched >= 2,
        "the baseline and the latest set are back-filled"
    );
}

/// The result-set file a back-filled row came from: `PR <n>` rows from
/// `BENCH_pr<n>.json`, the baseline row from `BENCH_baseline.json`.
fn file_of(label: &str) -> String {
    match label.strip_prefix("PR ") {
        Some(n) => format!("BENCH_pr{n}.json"),
        None => format!(
            "BENCH_{}.json",
            label.split_whitespace().next().unwrap_or("")
        ),
    }
}
