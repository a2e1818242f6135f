//! The traced driver against the function it replicates: for every
//! committed scenario fixture, `layers::run_traced` must build the very
//! bytes `CompiledScenario::run_detailed` builds. Runs in debug, so the
//! simulator's own debug assertions are armed too.

use std::path::Path;
use std::sync::Arc;

use simdc_benchmark::layers::{run_traced, span_capacity, ENGINE_SPAN, ROOT_SPAN};
use simdc_benchmark::spans::{aggregate, Tracer, NO_PARENT};
use simdc_benchmark::workload::DatasetShape;
use simdc_workload::ScenarioSpec;

#[test]
fn traced_driver_reproduces_run_detailed_on_every_fixture() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../fixtures/scenarios");
    let dataset = DatasetShape {
        n_devices: 40,
        feature_dim: 1 << 12,
    }
    .generate(55);
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures/scenarios exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| !p.to_string_lossy().ends_with(".schema.json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("fixture reads");
        let compiled = ScenarioSpec::from_json_str(&text)
            .and_then(|spec| spec.compile())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (summary, platform) = compiled.run_detailed(&dataset);
        let expected = serde_json::to_string(&summary).unwrap();
        assert!(platform.invariant_violations().is_empty());

        let tracer = Tracer::with_capacity(span_capacity(&compiled));
        let run = run_traced(&compiled, &Arc::clone(&dataset), tracer);
        assert_eq!(run.summary_json, expected, "{} drifted", path.display());
        assert_eq!(run.summary, summary);
        assert!(run.platform.invariant_violations().is_empty());

        // One root, everything else under it, and the engine span present.
        assert_eq!(run.spans[0].name, ROOT_SPAN);
        assert_eq!(run.spans[0].parent, NO_PARENT);
        assert!(run.spans[1..].iter().all(|s| s.parent != NO_PARENT));
        let stats = aggregate(&run.spans);
        assert_eq!(stats[ENGINE_SPAN].count, 1);
        assert_eq!(stats["core.submit"].count, summary.arrivals);
        assert_eq!(stats["core.admit_now"].count, summary.arrivals);
        let crash_spans = stats.get("phone.inject_crash").map_or(0, |s| s.count);
        assert_eq!(crash_spans, summary.crashes);
        let total_self: u64 = stats.values().map(|s| s.self_ns).sum();
        assert_eq!(
            total_self, stats[ROOT_SPAN].busy_ns,
            "self times partition the run"
        );
        checked += 1;
    }
    assert_eq!(checked, 8, "all eight scenario fixtures");
}
