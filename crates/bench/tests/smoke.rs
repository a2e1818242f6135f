//! Smoke test for the experiment registry.
//!
//! Runs every figure/table experiment in `exp::ALL` — the same slice
//! `simdc-bench all` iterates — at the `--quick` scale (few devices, 1–2
//! rounds) so the registry cannot silently rot: a panic, a missing output
//! file or malformed JSON in any experiment fails `cargo test` long before
//! anyone re-renders the paper's evaluation.

use simdc_bench::{exp, ExpOptions};

#[test]
fn quick_registry_runs_and_writes_parseable_results() {
    let out_dir = std::env::temp_dir().join(format!("simdc-bench-smoke-{}", std::process::id()));
    let opts = ExpOptions {
        seed: 7,
        quick: true,
        out_dir: out_dir.clone(),
    };

    assert!(
        !exp::ALL.is_empty(),
        "experiment registry must not be empty"
    );
    for (name, run) in exp::ALL {
        assert!(exp::find(name).is_some(), "{name} resolves by its own name");
        run(&opts);
        let path = out_dir.join(format!("{name}.json"));
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("experiment {name} wrote no result file: {e}"));
        serde_json::from_str::<serde_json::Value>(&content)
            .unwrap_or_else(|e| panic!("experiment {name} wrote malformed JSON: {e}"));
    }

    // The CLI's lookup: `BENCH_` is optional, unknown names miss.
    assert!(exp::find("sweep").is_some());
    for missing in ["scale", "elasticity", "run_all", ""] {
        assert!(exp::find(missing).is_none(), "{missing}");
    }

    std::fs::remove_dir_all(&out_dir).ok();
}
