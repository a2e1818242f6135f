//! Golden-trace regression tests.
//!
//! `table1`, `fig5` and `fig8` run at `--quick` scale with the default seed and
//! their JSON results are byte-compared against fixtures committed under
//! `tests/golden/`. Any change to the simulation pipeline that silently
//! shifts experiment outputs — a reordered RNG draw, a tweaked profile
//! constant, a float reassociation — fails here instead of drifting into
//! the paper comparison unnoticed.
//!
//! When an output change is *intended*, regenerate the fixtures:
//!
//! ```sh
//! cargo run --release -p simdc-bench -- table1 --quick --out crates/bench/tests/golden
//! cargo run --release -p simdc-bench -- fig5   --quick --out crates/bench/tests/golden
//! cargo run --release -p simdc-bench -- fig8   --quick --out crates/bench/tests/golden
//! mv crates/bench/tests/golden/table1.json crates/bench/tests/golden/table1_quick.json
//! mv crates/bench/tests/golden/fig5.json   crates/bench/tests/golden/fig5_quick.json
//! mv crates/bench/tests/golden/fig8.json   crates/bench/tests/golden/fig8_quick.json
//! ```
//!
//! and call the drift out in the PR.
//!
//! Note on the event-driven platform core: rebuilding the platform loop
//! (completions as events, per-completion admission) left these fixtures
//! byte-identical on purpose. Both experiments submit a single task to an
//! idle platform, so admission still happens at the same clock instant,
//! and the runner's plan→commit split preserves the exact operation and
//! RNG-draw order of the old single-shot execution. Multi-task queueing
//! delays did change (they shrank — that was the point), but nothing
//! golden-pinned measures those.
//!
//! Re-pinned when each benchmark sample got a noise stream of its own,
//! seeded by (fleet seed, phone, instant), in place of one per-phone
//! stream carried across samples and runs; every field that reads no
//! noise draw (timestamps, stages, durations, sample counts, `comm_kb`)
//! stayed byte-identical.

use simdc_bench::ExpOptions;

fn golden_check(name: &str, fixture: &str, run: impl FnOnce(&ExpOptions)) {
    let out_dir = std::env::temp_dir().join(format!("simdc-golden-{name}-{}", std::process::id()));
    let opts = ExpOptions {
        quick: true,
        out_dir: out_dir.clone(),
        ..ExpOptions::default()
    };
    opts.create_out_dir().unwrap();
    run(&opts);
    let produced = std::fs::read_to_string(out_dir.join(format!("{name}.json")))
        .unwrap_or_else(|e| panic!("{name} wrote no result: {e}"));
    std::fs::remove_dir_all(&out_dir).ok();
    assert_eq!(
        produced, fixture,
        "{name} --quick output drifted from tests/golden/{name}_quick.json; \
         if the change is intended, regenerate the fixture (see module docs)"
    );
}

#[test]
fn table1_quick_matches_golden_fixture() {
    golden_check("table1", include_str!("golden/table1_quick.json"), |opts| {
        simdc_bench::exp::table1::run(opts);
    });
}

#[test]
fn fig5_quick_matches_golden_fixture() {
    golden_check("fig5", include_str!("golden/fig5_quick.json"), |opts| {
        simdc_bench::exp::fig5::run(opts);
    });
}

#[test]
fn fig8_quick_matches_golden_fixture() {
    golden_check("fig8", include_str!("golden/fig8_quick.json"), |opts| {
        simdc_bench::exp::fig8::run(opts);
    });
}
