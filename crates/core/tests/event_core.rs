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
    AggregationTrigger, GradeRequirement, Platform, PlatformConfig, TaskSpec, TaskState,
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

/// What [`drive`] counted: submissions accepted, submissions rejected at
/// the door, and tasks that ran to completion.
#[derive(Debug)]
struct SourceRunStats {
    submitted: usize,
    rejected: usize,
    completed: usize,
}

/// Feeds `items`, sorted by arrival instant, to `platform` the way the
/// scenario loop does — at each instant `sync_to_arrival`, then every
/// submission due, then one `admit_now` — and then drains it.
fn drive(
    platform: &mut Platform,
    items: Vec<(SimInstant, TaskSpec, Arc<CtrDataset>)>,
) -> SourceRunStats {
    let mut stats = SourceRunStats {
        submitted: 0,
        rejected: 0,
        completed: 0,
    };
    let mut items = items.into_iter().peekable();
    while let Some(&(at, ..)) = items.peek() {
        stats.completed += platform.sync_to_arrival(at);
        while let Some((_, spec, data)) = items.next_if(|item| item.0 == at) {
            match platform.submit(spec, data) {
                Ok(_) => stats.submitted += 1,
                Err(_) => stats.rejected += 1,
            }
        }
        platform.admit_now();
    }
    stats.completed += platform.run_until_idle();
    stats
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
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = drive(
        &mut platform,
        vec![
            (t(0), long, data.clone()),
            (t(0), short, data.clone()),
            (t(1), late, data.clone()),
        ],
    );
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
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = drive(
        &mut platform,
        vec![(t0, low, data.clone()), (t0, high, data)],
    );
    assert_eq!(stats.completed, 2);
    let (high_start, high_finish) = completed_span(&platform, 2);
    let (low_start, _) = completed_span(&platform, 1);
    assert_eq!(high_start, t0, "high priority admitted first");
    assert_eq!(low_start, high_finish, "low priority waits for the lease");
}

/// Arrivals queue over time: none starts before it arrived, and the clock
/// ends no earlier than the last arrival.
#[test]
fn arrivals_start_no_earlier_than_they_arrive() {
    let data = dataset();
    let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = drive(
        &mut platform,
        vec![
            (t(10), logical_spec(1, 24, 2, 0), data.clone()),
            (t(10), logical_spec(2, 24, 2, 0), data.clone()),
            (t(20), logical_spec(3, 24, 2, 0), data),
        ],
    );
    assert_eq!(
        (stats.submitted, stats.rejected, stats.completed),
        (3, 0, 3)
    );
    for (id, arrival) in [(1, t(10)), (2, t(10)), (3, t(20))] {
        let (started_at, _) = completed_span(&platform, id);
        assert!(started_at >= arrival, "task {id} started before arrival");
    }
    assert!(platform.status().now >= t(20));
}

/// A claim beyond the elastic ceiling is rejected at the door and counted
/// as such; nothing runs.
#[test]
fn rejected_arrivals_are_counted() {
    let mut platform = Platform::new(PlatformConfig::default());
    let infeasible = logical_spec(1, 10_000, 1, 0);
    let stats = drive(
        &mut platform,
        vec![(SimInstant::EPOCH, infeasible, dataset())],
    );
    assert_eq!(
        (stats.submitted, stats.rejected, stats.completed),
        (0, 1, 0)
    );
}

/// The same tied workload admits identically whether [`drive`] paces the
/// platform or a loop over `run_until` / `advance_clock_to` / `admit_now`
/// does, and priority decides each tie. Capacity is oversubscribed, so
/// late admissions land on completion instants, exercising
/// completion-vs-pending ordering too.
#[test]
fn tied_arrivals_admit_identically_across_drivers() {
    let t = |secs: u64| SimInstant::EPOCH + SimDuration::from_secs(secs);
    // Three waves; within each every task shares an arrival instant and
    // priorities are deliberately out of submission order.
    let workload = || -> Vec<(SimInstant, TaskSpec, Arc<CtrDataset>)> {
        let waves = [
            (10u64, 2u32),
            (10, 7),
            (10, 5),
            (10, 9),
            (40, 1),
            (40, 8),
            (40, 8),
            (70, 3),
            (70, 6),
        ];
        let data = dataset();
        (1u64..)
            .zip(waves)
            .map(|(id, (secs, prio))| {
                // Phones, not bundles, run out: the elastic tier stays idle.
                let mut spec = logical_spec(id, 24, 2, prio);
                spec.grades[0].benchmark_phones = 1;
                spec.grades[0].phones = 4;
                (t(secs), spec, data.clone())
            })
            .collect()
    };
    let states = |platform: &Platform| -> Vec<String> {
        (1..=9)
            .map(|id| format!("{:?}", platform.task_state(TaskId(id)).unwrap()))
            .collect()
    };

    let mut driven = Platform::new(PlatformConfig::default());
    assert_eq!(drive(&mut driven, workload()).completed, 9);
    // Priority decides the wave-one tie, not submission order: task 4
    // (priority 9) starts no later than its wave-mates 1..=3.
    for id in [1, 2, 3] {
        assert!(
            completed_span(&driven, 4).0 <= completed_span(&driven, id).0,
            "priority lost the tie to task {id}"
        );
    }

    let mut manual = Platform::new(PlatformConfig::default());
    let mut items = workload().into_iter().peekable();
    let mut completed = 0;
    while let Some(&(at, ..)) = items.peek() {
        completed += manual.run_until(at);
        manual.advance_clock_to(at);
        while let Some((_, spec, data)) = items.next_if(|item| item.0 == at) {
            manual.submit(spec, data).unwrap();
        }
        manual.admit_now();
    }
    assert_eq!(completed + manual.run_until_idle(), 9);
    assert_eq!(states(&manual), states(&driven), "manual driver diverged");
}

/// What the primitives do for a caller that gives each arrival its own
/// `sync_to_arrival` → `submit` → `admit_now` (the benchmark's traced
/// replica does): of the same two tasks at one instant the first submitted
/// is admitted in its own pass, before the higher-priority one is even
/// submitted. The scenario loop instead submits both before one pass
/// ([`simultaneous_arrivals_admit_by_priority`]).
#[test]
fn per_arrival_admission_admits_in_sampling_order() {
    let data = dataset();
    let t0 = SimInstant::EPOCH;
    let mut platform = Platform::new(PlatformConfig::default());
    for spec in [logical_spec(1, 150, 1, 1), logical_spec(2, 150, 1, 9)] {
        platform.sync_to_arrival(t0);
        platform.submit(spec, data.clone()).unwrap();
        platform.admit_now();
    }
    assert_eq!(platform.run_until_idle(), 2);
    let (low_start, low_finish) = completed_span(&platform, 1);
    let (high_start, _) = completed_span(&platform, 2);
    assert_eq!(low_start, t0, "the first arrival's own pass admits it");
    assert_eq!(high_start, low_finish, "high priority waits for the lease");
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
    let mut platform = Platform::new(PlatformConfig::default());
    let stats = drive(
        &mut platform,
        vec![
            (t(0), logical_spec(1, 200, 1, 0), data.clone()),
            (t(1), logical_spec(2, 200, 1, 1), data.clone()),
            (first_finish, logical_spec(3, 200, 1, 9), data),
        ],
    );
    assert_eq!(stats.completed, 3);
    let (high_start, high_finish) = completed_span(&platform, 3);
    let (low_start, _) = completed_span(&platform, 2);
    assert_eq!(
        high_start, first_finish,
        "high priority takes the freed capacity at the tie instant"
    );
    assert_eq!(low_start, high_finish, "low priority waits its turn");
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
        let phones = platform.phones_mut();
        if !phones.phone(id).unwrap().is_crashed(mid) {
            phones.inject_crash(id, mid).unwrap();
        }
        phones.reboot(id).unwrap();
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
/// replaced. Re-pinned twice: when `PerfReport` stopped keeping a CPU and a
/// memory series beside its samples (the old `Debug` strings with those
/// two fields removed hash to the old value), and when each benchmark
/// sample got a noise stream of its own (with the noise-valued fields
/// `current_ua`, `voltage_mv`, `cpu_pct`, `mem_kb` and `power_mah`
/// masked, the old and new strings hash alike).
const SCHEDULES_DIGEST: u64 = 1_853_197_818_148_455_754;

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
        let stats = drive(&mut platform, items);
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
