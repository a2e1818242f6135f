//! The one command, end to end, on shrunk workloads: every workload runs
//! untraced and traced, every registered metric is printed, every output
//! check (traced parity and the two-thread repetition included) holds, and
//! a quick run writes no result set.

use std::process::Command;
use std::time::Instant;

use simdc_benchmark::registry::{per_layer, END_TO_END, WORKLOADS};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simdc-benchmark"))
}

#[test]
fn quick_run_of_everything_is_correct_and_writes_nothing() {
    let out =
        std::env::temp_dir().join(format!("simdc-benchmark-quick-{}.json", std::process::id()));
    #[allow(clippy::disallowed_methods)] // host time is what this test bounds
    let started = Instant::now();
    let output = bin()
        .args(["run", "--quick", "--seconds", "0", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    let elapsed = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{stdout}");
    assert!(!out.exists(), "--quick must not write a result set");
    assert!(
        !stdout.contains("INCORRECT") && !stdout.contains("PROBLEM"),
        "{stdout}"
    );
    for w in &WORKLOADS {
        assert_eq!(
            stdout.matches(&format!("{}: correct", w.name)).count(),
            2,
            "{stdout}"
        );
    }
    for name in END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .chain(per_layer().into_iter().map(|m| m.name))
    {
        assert!(
            stdout.contains(&format!("  {name} ")),
            "{name} is not printed"
        );
    }
    // The smoke run is for quick feedback: about three seconds.
    assert!(elapsed < 10.0, "quick run took {elapsed:.1} s");
}

#[test]
fn result_line_carries_exactly_the_registered_metrics() {
    for (trace, expected) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|m| m.name.to_string())
                .collect::<Vec<_>>(),
        ),
        ("1", per_layer().into_iter().map(|m| m.name).collect()),
    ] {
        let output = bin()
            .args([
                "run",
                "--workload",
                "churn_storm",
                "--seed",
                "3",
                "--seconds",
                "0",
            ])
            .args(["--quick", "--trace", trace])
            .output()
            .expect("binary runs");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line: serde_json::Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
        let serde_json::Value::Object(fields) = line else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, serde_json::Value::Bool(true));
        assert_eq!(fields[2].1, serde_json::Value::U64(0));
        let serde_json::Value::Object(metrics) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(names, expected);
    }
}

#[test]
fn the_seed_decides_the_inputs() {
    // The first report line ends with the digest of the run's output.
    let digest = |seed: u64, trace: &str| {
        let output = bin()
            .args([
                "run",
                "--workload",
                "traffic_shaping",
                "--quick",
                "--seconds",
                "0",
            ])
            .args(["--seed", &seed.to_string(), "--trace", trace])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let first = stdout.lines().next().expect("a report").to_string();
        first
            .rsplit("output ")
            .next()
            .expect("a digest")
            .to_string()
    };
    assert_eq!(digest(5, "0"), digest(5, "1"), "same seed, same output");
    assert_ne!(digest(5, "0"), digest(6, "0"), "another seed, other inputs");
}
