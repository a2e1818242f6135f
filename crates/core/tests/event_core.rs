//! Integration tests for the event-driven platform core.
//!
//! The wave-based loop made a task arriving mid-run wait for the whole
//! admission wave to drain; the event core admits it at the first
//! completion instant that frees its claim. These tests pin that
//! behaviour down, and property-test the freeze/release pairing invariant
//! (free capacity equals total capacity whenever the platform is idle)
//! across random schedules.

#[expect(
    clippy::disallowed_types,
    reason = "reviewed interior-mutability exception to the clippy.toml ban: \
              test-only memoisation of a deterministic dataset — the cell's content \
              is a pure function of its fixed seed, so init order cannot matter"
)]
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use simdc_core::{
    AggregationTrigger, GradeRequirement, Platform, PlatformConfig, SubmissionSource, TaskSpec,
    TaskState,
};
use simdc_data::{CtrDataset, GeneratorConfig};
use simdc_types::{DeviceGrade, PerGrade, SimDuration, SimInstant, TaskId};

#[expect(
    clippy::disallowed_types,
    reason = "reviewed: see the `OnceLock` import"
)]
fn dataset() -> Arc<CtrDataset> {
    static DATA: OnceLock<Arc<CtrDataset>> = OnceLock::new();
    DATA.get_or_init(|| {
        Arc::new(CtrDataset::generate(&GeneratorConfig {
            n_devices: 24,
            n_test_devices: 6,
            mean_records_per_device: 10.0,
            feature_dim: 1 << 10,
            seed: 4242,
            ..GeneratorConfig::default()
        }))
    })
    .clone()
}

/// A purely logical (no phones) spec: `bundles` gates concurrency,
/// `rounds` stretches the virtual run time.
fn logical_spec(id: u64, bundles: u64, rounds: u32, priority: u32) -> TaskSpec {
    TaskSpec::builder(TaskId(id))
        .priority(priority)
        .rounds(rounds)
        .grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: 8,
            benchmark_phones: 0,
            logical_unit_bundles: bundles,
            units_per_device: 8,
            phones: 0,
        })
        .trigger(AggregationTrigger::DeviceThreshold { min_devices: 8 })
        .seed(id)
        .build()
        .unwrap()
}

struct Timed {
    items: std::vec::IntoIter<(SimInstant, TaskSpec, Arc<CtrDataset>)>,
}

impl SubmissionSource for Timed {
    fn next_submission(&mut self) -> Option<(SimInstant, TaskSpec, Arc<CtrDataset>)> {
        self.items.next()
    }
}

fn completed_span(platform: &Platform, id: u64) -> (SimInstant, SimInstant) {
    match platform.task_state(TaskId(id)) {
        Some(TaskState::Completed {
            started_at,
            finished_at,
        }) => (*started_at, *finished_at),
        other => panic!("task {id} not completed: {other:?}"),
    }
}

/// The acceptance-criterion regression: a submission arriving while a
/// long task runs is admitted at the first completion that frees its
/// claim — strictly before the long task finishes — not at wave end.
#[test]
fn mid_run_arrival_starts_at_first_freeing_completion() {
    let data = dataset();
    let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
    // 200-bundle platform: long (120) and short (80) run concurrently
    // from t=0; the late task (80) arriving at t=1 fits only once the
    // short task's bundles come back.
    let long = logical_spec(1, 120, 5, 0);
    let short = logical_spec(2, 80, 1, 0);
    let late = logical_spec(3, 80, 1, 0);
    let mut source = Timed {
        items: vec![
            (t(0), long, data.clone()),
            (t(0), short, data.clone()),
            (t(1), late, data.clone()),
        ]
        .into_iter(),
    };
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = platform.run_from_source(&mut source);
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);

    let (long_start, long_finish) = completed_span(&platform, 1);
    let (short_start, short_finish) = completed_span(&platform, 2);
    let (late_start, late_finish) = completed_span(&platform, 3);
    assert_eq!(long_start, t(0));
    assert_eq!(short_start, t(0));
    assert!(
        short_finish < long_finish,
        "1-round task must finish before the 5-round task"
    );
    // The heart of the matter: admission happens at the completion
    // instant that freed the claim, while the long task is still running.
    assert_eq!(
        late_start, short_finish,
        "late task must start the instant the short task's lease releases"
    );
    assert!(
        late_start < long_finish,
        "late task must not wait for the long task (wave barrier is gone)"
    );
    assert!(late_finish >= late_start);

    // Idle platform ⇒ every freeze was paired with a release.
    let status = platform.status();
    assert_eq!(status.free_bundles, 200);
    assert_eq!(status.pending, 0);
    assert_eq!(status.running, 0);
}

/// Same-instant arrivals are admitted in one scheduler pass: priority
/// order, not source order.
#[test]
fn simultaneous_arrivals_admit_by_priority() {
    let data = dataset();
    let t0 = SimInstant::EPOCH;
    // Only one of the two 150-bundle tasks fits; the higher-priority one
    // (submitted second) must win the pass.
    let low = logical_spec(1, 150, 1, 1);
    let high = logical_spec(2, 150, 1, 9);
    let mut source = Timed {
        items: vec![(t0, low, data.clone()), (t0, high, data.clone())].into_iter(),
    };
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = platform.run_from_source(&mut source);
    assert_eq!(stats.completed, 2);
    let (high_start, high_finish) = completed_span(&platform, 2);
    let (low_start, _) = completed_span(&platform, 1);
    assert_eq!(high_start, t0, "high priority admitted first");
    assert_eq!(low_start, high_finish, "low priority waits for the lease");
}

/// `run_until` never runs ahead of the deadline: completions planned
/// later stay queued, and the clock lands exactly on the deadline.
#[test]
fn run_until_respects_the_deadline() {
    let data = dataset();
    let mut platform = Platform::new(PlatformConfig::default());
    platform.submit(logical_spec(1, 120, 3, 0), data).unwrap();
    let completed = platform.run_until(SimInstant::EPOCH + SimDuration::from_secs(1));
    assert_eq!(completed, 0, "task admitted but its completion is later");
    let status = platform.status();
    assert_eq!(status.now, SimInstant::EPOCH + SimDuration::from_secs(1));
    assert_eq!(status.running, 1);
    assert!(status.free_bundles < 200, "lease held while running");
    // Admission happened at the submission-time clock, not quantized to
    // the deadline.
    match platform.task_state(TaskId(1)) {
        Some(TaskState::Running { started_at }) => assert_eq!(*started_at, SimInstant::EPOCH),
        other => panic!("task not running: {other:?}"),
    }
    // Draining finishes the task and returns every resource.
    assert_eq!(platform.run_until_idle(), 1);
    assert_eq!(platform.status().free_bundles, 200);
}

/// A high-priority task arriving at *exactly* a completion instant must
/// win that instant's capacity over a lower-priority task already
/// pending: the lease releases first, but admission waits for the
/// arrival, so one scheduler pass sees both and priority decides.
#[test]
fn arrival_at_completion_instant_beats_pending_lower_priority() {
    let data = dataset();
    let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
    // Dry run to learn when the 200-bundle task finishes.
    let mut probe = Platform::new(PlatformConfig::default());
    probe
        .submit(logical_spec(1, 200, 1, 0), data.clone())
        .unwrap();
    probe.run_until_idle();
    let (_, first_finish) = completed_span(&probe, 1);
    assert!(first_finish > t(1));

    // Real run: the blocker, a pending low-priority task, and a
    // high-priority task arriving exactly when the blocker completes.
    let mut source = Timed {
        items: vec![
            (t(0), logical_spec(1, 200, 1, 0), data.clone()),
            (t(1), logical_spec(2, 200, 1, 1), data.clone()),
            (first_finish, logical_spec(3, 200, 1, 9), data.clone()),
        ]
        .into_iter(),
    };
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = platform.run_from_source(&mut source);
    assert_eq!(stats.completed, 3);
    let (high_start, high_finish) = completed_span(&platform, 3);
    let (low_start, _) = completed_span(&platform, 2);
    assert_eq!(
        high_start, first_finish,
        "high priority takes the freed capacity at the tie instant"
    );
    assert_eq!(low_start, high_finish, "low priority waits its turn");
}

/// Phones registered through `phones_mut` mid-run become schedulable at
/// the next completion-triggered pass, not only at the next submission:
/// dispatch resyncs fleet totals every pass.
#[test]
fn fleet_growth_is_visible_to_completion_triggered_passes() {
    use simdc_phone::{PhoneDevice, Provenance};
    let data = dataset();
    let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
    let mut platform = Platform::new(PlatformConfig::default());
    let high_total = platform.phones().count(DeviceGrade::High, None) as u64;

    // Task 1 computes on every High phone for several rounds.
    let all_phones = TaskSpec::builder(TaskId(1))
        .rounds(4)
        .grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: 8,
            benchmark_phones: 0,
            logical_unit_bundles: 20,
            units_per_device: 8,
            phones: high_total,
        })
        .trigger(AggregationTrigger::DeviceThreshold { min_devices: 8 })
        .seed(1)
        .build()
        .unwrap();
    // Task 2 needs 5 High phones — pending until capacity appears.
    let needs_five = TaskSpec::builder(TaskId(2))
        .rounds(1)
        .grade(GradeRequirement {
            grade: DeviceGrade::High,
            total_devices: 8,
            benchmark_phones: 0,
            logical_unit_bundles: 20,
            units_per_device: 8,
            phones: 5,
        })
        .trigger(AggregationTrigger::DeviceThreshold { min_devices: 8 })
        .seed(2)
        .build()
        .unwrap();
    platform.submit(all_phones, data.clone()).unwrap();
    platform.submit(needs_five, data).unwrap();
    platform.run_until(t(1));
    assert_eq!(platform.status().running, 1, "no phones free for task 2");
    assert_eq!(platform.status().pending, 1);

    // Grow the fleet mid-run; no further submission happens.
    for i in 0..5u64 {
        platform
            .phones_mut()
            .register(PhoneDevice::new(
                simdc_types::PhoneId(900 + i as u32),
                DeviceGrade::High,
                Provenance::Local,
                77,
            ))
            .unwrap();
    }
    platform.run_until(t(2));
    assert_eq!(
        platform.status().running,
        2,
        "task 2 admitted on the new phones while task 1 still runs"
    );
    assert_eq!(platform.run_until_idle(), 2);
    // Idle again: free capacity must equal the *grown* totals.
    let status = platform.status();
    assert_eq!(*status.free_phones.get(DeviceGrade::High), high_total + 5);
}

/// A benchmark phone that crashes *and reboots* mid-run (reboot wipes its
/// assigned run) must not fail the task at commit: training already
/// completed, so the task completes with that measurement missing.
#[test]
fn rebooted_benchmark_phone_degrades_to_a_missing_report() {
    let data = dataset();
    let mut spec = logical_spec(1, 80, 2, 0);
    spec.grades[0].benchmark_phones = 1;
    let mut platform = Platform::new(PlatformConfig::default());
    platform.submit(spec, data).unwrap();
    // Start the task, then crash + reboot every phone while it runs.
    platform.run_until(SimInstant::EPOCH + SimDuration::from_secs(1));
    assert_eq!(platform.status().running, 1);
    let mid = SimInstant::EPOCH + SimDuration::from_secs(2);
    let ids: Vec<_> = platform.phones().phones().iter().map(|p| p.id()).collect();
    for id in ids {
        let phone = platform.phones_mut().phone_mut(id).unwrap();
        if !phone.is_crashed(mid) {
            phone.inject_crash(mid);
        }
        phone.reboot();
    }
    assert_eq!(platform.run_until_idle(), 1, "task must still complete");
    assert!(matches!(
        platform.task_state(TaskId(1)),
        Some(TaskState::Completed { .. })
    ));
    let report = platform.report(TaskId(1)).unwrap();
    assert!(
        report.benchmark_reports.is_empty(),
        "wiped run yields no report, not a failure"
    );
    assert_eq!(platform.status().free_bundles, 200, "lease released");
}

/// FNV-1a 64-bit, continued from `hash` over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of every schedule's per-task states and reports in
/// [`freeze_release_pairing_holds_for_random_schedules`], taken on the
/// batched prepare → compute → merge admission that serial admission
/// replaced.
const SCHEDULES_DIGEST: u64 = 4_678_879_794_264_064_817;

/// Freeze/release pairing across random schedules: whatever mix of
/// concurrent, queued, rejected and plan-failed tasks a schedule
/// produces, an idle platform always ends with free capacity equal to
/// total capacity and no lease outstanding. (The platform's own debug
/// assertion checks the same invariant at every idle point; running
/// under `cargo test` keeps it armed.)
///
/// The same schedules pin admission order. About one in ten has a pass
/// that admits several tasks at once, and all but `healthy_high` of the
/// High phones are crashed up front — which the lease arithmetic does not
/// see — so tasks of one pass contend for benchmark phones. Every
/// schedule's per-task states and reports feed [`SCHEDULES_DIGEST`].
#[test]
fn freeze_release_pairing_holds_for_random_schedules() {
    let schedules = (
        proptest::collection::vec(
            (
                10u64..260, // bundles: some won't ever fit (260 > 200 capacity)
                1u32..3,    // rounds
                0u32..10,   // priority
                0u64..120,  // arrival offset seconds
                0u64..3,    // benchmark phones (may fail planning under contention)
            ),
            1..7,
        ),
        0usize..18, // healthy High phones
    );
    let data = dataset();
    let mut rng = proptest::TestRng::deterministic();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut accepted = 0;
    while accepted < proptest::DEFAULT_CASES {
        let Some((tasks, healthy_high)) = schedules.generate(&mut rng) else {
            continue;
        };
        accepted += 1;
        let mut items: Vec<(SimInstant, TaskSpec, Arc<CtrDataset>)> = tasks
            .iter()
            .enumerate()
            .map(|(i, &(bundles, rounds, priority, offset, bench))| {
                let spec = TaskSpec::builder(TaskId(i as u64 + 1))
                    .priority(priority)
                    .rounds(rounds)
                    .grade(GradeRequirement {
                        grade: DeviceGrade::High,
                        total_devices: 8,
                        benchmark_phones: bench,
                        logical_unit_bundles: bundles,
                        units_per_device: 8,
                        phones: 0,
                    })
                    .trigger(AggregationTrigger::DeviceThreshold { min_devices: 8 })
                    .seed(i as u64)
                    .build()
                    .unwrap();
                (
                    SimInstant::EPOCH + SimDuration::from_secs(offset),
                    spec,
                    data.clone(),
                )
            })
            .collect();
        items.sort_by_key(|(at, spec, _)| (*at, spec.id));
        let total = items.len();

        let mut source = Timed {
            items: items.into_iter(),
        };
        let mut platform = Platform::new(PlatformConfig::default());
        let crashed: Vec<_> = platform
            .phones()
            .phones()
            .iter()
            .filter(|p| p.grade() == DeviceGrade::High)
            .map(|p| p.id())
            .skip(healthy_high)
            .collect();
        for id in crashed {
            platform
                .phones_mut()
                .inject_crash(id, SimInstant::EPOCH)
                .unwrap();
        }
        let stats = platform.run_from_source(&mut source);
        assert_eq!(stats.submitted + stats.rejected, total);

        let status = platform.status();
        assert_eq!(status.pending, 0);
        assert_eq!(status.running, 0);
        // With the elastic tier, an idle platform's capacity equals the
        // cluster's *ready* capacity (scale-ups for big tasks may not have
        // drained back yet if the scale-in cooldown is running) — the leak
        // invariant is free == total, never less.
        assert_eq!(
            status.free_bundles,
            platform.cluster().ready_unit_capacity(),
            "bundle lease leaked"
        );
        assert!(status.free_bundles >= 200, "scale-in went below the floor");
        let fleet_totals = PerGrade::from_fn(|g| platform.phones().count(g, None) as u64);
        assert_eq!(status.free_phones, fleet_totals, "phone lease leaked");

        digest = fnv1a(digest, format!("{stats:?}").as_bytes());
        for id in 1..=total as u64 {
            let task = format!(
                "{:?} {:?}",
                platform.task_state(TaskId(id)),
                platform.report(TaskId(id))
            );
            digest = fnv1a(digest, task.as_bytes());
        }
    }
    assert_eq!(
        digest, SCHEDULES_DIGEST,
        "per-task states or reports changed (observed digest {digest})"
    );
}
