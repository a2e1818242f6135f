//! Differential property tests for the phone roster and its availability
//! index.
//!
//! The [`PhoneMgr`] answers `select` / `available` / `count` /
//! `effective_profile` from per-segment bitset free sets and integer
//! profile sums, and `phone(id)` from the slot the fleet build put it in.
//! The oracle here is a model the test owns —
//! a `BTreeMap<PhoneId, ModelPhone>` holding grade, provenance, the two
//! profile durations, the run end and the crash onset, sharing no storage
//! with the subject and never read back from it. A script of the
//! manager's write operations — run submission, future-dated crashes,
//! reboots, slowdowns and resets to nominal — interleaved with the passing
//! of time is applied to the model and to a manager built by
//! `with_fleet`, under a monotonically advancing clock. After every step
//! the manager must give the model's answers to every query, resolve every
//! model id to that phone, and hold exactly the model's ids. (Debug builds
//! additionally self-check inside the manager; this suite is the external
//! oracle and also runs in release mode, where that self-check is
//! compiled out.)

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::TestRng;
use simdc_phone::{FleetSpec, PhoneDevice, PhoneMgr, PhoneProfile, Provenance, RunPlan};
use simdc_types::{DeviceGrade, PhoneId, SimDuration, SimInstant, TaskId};

const SEED: u64 = 17;

/// One scripted operation: `(opcode, phone pick, small duration knob)`.
type Op = (u8, u8, u16);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..6, 0u8..64, 1u16..120), 1..48)
}

/// Everything the queries under test depend on, for one phone.
#[derive(Debug, Clone, Copy)]
struct ModelPhone {
    grade: DeviceGrade,
    provenance: Provenance,
    train: SimDuration,
    startup: SimDuration,
    run_end: Option<SimInstant>,
    crash_at: Option<SimInstant>,
}

impl ModelPhone {
    fn fresh(grade: DeviceGrade, provenance: Provenance) -> Self {
        let nominal = PhoneProfile::for_grade(grade);
        ModelPhone {
            grade,
            provenance,
            train: nominal.train_duration,
            startup: nominal.framework_startup,
            run_end: None,
            crash_at: None,
        }
    }

    fn is_free(&self, now: SimInstant) -> bool {
        let crashed = self.crash_at.is_some_and(|t| now >= t);
        let busy = self.run_end.is_some_and(|end| now < end);
        !crashed && !busy
    }

    fn profile(&self) -> PhoneProfile {
        let mut profile = PhoneProfile::for_grade(self.grade);
        profile.train_duration = self.train;
        profile.framework_startup = self.startup;
        profile
    }
}

type Model = BTreeMap<PhoneId, ModelPhone>;

/// The model's idle set in the contract order: local before MSP, ids
/// ascending.
fn model_selection(model: &Model, grade: DeviceGrade, now: SimInstant) -> Vec<PhoneId> {
    let of = |provenance| {
        model
            .iter()
            .filter(move |(_, p)| p.grade == grade && p.provenance == provenance && p.is_free(now))
            .map(|(&id, _)| id)
    };
    of(Provenance::Local).chain(of(Provenance::Msp)).collect()
}

/// The model's mean `(train, startup)` over a grade, rounded half-up to
/// the microsecond; `None` for an empty grade.
fn model_mean_profile(model: &Model, grade: DeviceGrade) -> Option<(SimDuration, SimDuration)> {
    let (mut n, mut train, mut startup) = (0u128, 0u128, 0u128);
    for p in model.values().filter(|p| p.grade == grade) {
        n += 1;
        train += u128::from(p.train.as_micros());
        startup += u128::from(p.startup.as_micros());
    }
    let mean = |sum: u128| SimDuration::from_micros(((sum + n / 2) / n) as u64);
    (n > 0).then(|| (mean(train), mean(startup)))
}

/// Every comparison between the manager and the model at `now`.
fn assert_agrees(mgr: &mut PhoneMgr, model: &Model, now: SimInstant) {
    // (a) The index-backed queries.
    for grade in DeviceGrade::ALL {
        let expected = model_selection(model, grade, now);
        assert_eq!(
            mgr.available(grade, now),
            expected.len(),
            "available({grade}) diverged at {now}"
        );
        for provenance in [None, Some(Provenance::Local), Some(Provenance::Msp)] {
            let want = model
                .values()
                .filter(|p| p.grade == grade && provenance.is_none_or(|v| p.provenance == v))
                .count();
            assert_eq!(
                mgr.count(grade, provenance),
                want,
                "count({grade}, {provenance:?})"
            );
        }
        // Selection returns the model's prefix, in order; a zero-count
        // request is satisfied trivially.
        assert!(mgr.select(grade, 0, now).unwrap().is_empty());
        let want = expected.len().min(3);
        if want > 0 {
            let picked = mgr.select(grade, want, now).expect("enough free phones");
            assert_eq!(picked[..], expected[..want], "selection order diverged");
        }
        assert!(
            mgr.select(grade, expected.len() + 1, now).is_err(),
            "select past the free count must exhaust"
        );
        let effective = mgr
            .try_effective_profile(grade)
            .map(|p| (p.train_duration, p.framework_startup));
        assert_eq!(
            effective,
            model_mean_profile(model, grade),
            "effective profile of {grade} diverged"
        );
    }
    // (b) Lookup by id: every model phone resolves to itself.
    for (&id, want) in model {
        let phone = mgr
            .phone(id)
            .unwrap_or_else(|| panic!("phone {id} is lost"));
        assert_eq!(phone.id(), id, "phone({id}) resolved to another phone");
        assert_eq!(phone.grade(), want.grade, "grade of {id}");
        assert_eq!(phone.provenance(), want.provenance, "provenance of {id}");
        assert_eq!(*phone.profile(), want.profile(), "profile of {id}");
        assert_eq!(phone.run().map(RunPlan::end), want.run_end, "run of {id}");
        assert_eq!(phone.crashed_at(), want.crash_at, "crash of {id}");
    }
    // (c) The roster holds exactly the model's ids, once each, in order.
    assert!(
        mgr.phones()
            .iter()
            .map(PhoneDevice::id)
            .eq(model.keys().copied()),
        "roster ids diverged from the model"
    );
    assert_eq!(mgr.total(), model.len());
}

/// Runs `script` from the `fleet` starting state against the model and the
/// manager, comparing after every operation.
fn check_script(fleet: FleetSpec, script: Vec<Op>) {
    let mut mgr = PhoneMgr::with_fleet(fleet, SimDuration::from_secs(1), SEED);
    let mut model = Model::new();
    for seg in fleet.segments() {
        for id in (seg.start..).take(seg.count).map(PhoneId) {
            model.insert(id, ModelPhone::fresh(seg.grade, seg.provenance));
        }
    }
    let mut now = SimInstant::EPOCH;
    let mut task_seq = 1u64;

    for (op, sel, dt) in script {
        // A model phone picked by both knobs, so large fleets are reached
        // everywhere.
        let nth = (sel as usize * 120 + dt as usize) % model.len();
        let id = *model.keys().nth(nth).expect("nth < len");
        let dt = SimDuration::from_secs(u64::from(dt));
        let grade = DeviceGrade::ALL[sel as usize % 2];
        match op {
            // Let virtual time pass: pending run-ends and scheduled crash
            // onsets between `now` and `now + dt` must surface.
            0 => now += dt,
            // Submit a run to the cheapest free phone of a grade.
            1 => {
                if let Some(&id) = model_selection(&model, grade, now).first() {
                    let phone = model.get_mut(&id).expect("selected from the model");
                    let rounds = 1 + sel as usize % 3;
                    let plan = RunPlan::new(
                        TaskId(task_seq),
                        id,
                        now,
                        &vec![phone.train; rounds],
                        &vec![dt; rounds - 1],
                    )
                    .expect("positive durations");
                    task_seq += 1;
                    phone.run_end = Some(plan.end());
                    assert_eq!(
                        mgr.plan_for(id, plan.task, now, rounds, dt).unwrap(),
                        plan,
                        "plan_for({id}) read another profile than the model's"
                    );
                    mgr.submit_run(id, plan).expect("the model says idle");
                }
            }
            // Crash with a (possibly future) onset.
            2 => {
                model.get_mut(&id).expect("picked").crash_at = Some(now + dt);
                mgr.inject_crash(id, now + dt).unwrap();
            }
            3 => {
                let phone = model.get_mut(&id).expect("picked");
                (phone.run_end, phone.crash_at) = (None, None);
                mgr.reboot(id).unwrap();
            }
            // Straggler-style slowdown, and (5) back to nominal.
            _ => {
                let phone = model.get_mut(&id).expect("picked");
                if op == 4 {
                    phone.train = phone.train.mul_f64(1.5);
                    phone.startup = phone.startup.mul_f64(1.25);
                } else {
                    *phone = ModelPhone {
                        run_end: phone.run_end,
                        crash_at: phone.crash_at,
                        ..ModelPhone::fresh(phone.grade, phone.provenance)
                    };
                }
                mgr.set_phone_profile(id, phone.profile()).unwrap();
            }
        }

        assert_agrees(&mut mgr, &model, now);
    }
}

proptest! {
    /// The paper's 30-phone fleet, small enough that scripts busy or crash
    /// whole grades: after any operation sequence every answer agrees
    /// with a brute-force scan of the model.
    #[test]
    fn index_matches_brute_force_rescan(script in ops()) {
        check_script(FleetSpec::paper_default(), script);
    }
}

/// A 600-phone fleet: most phones stay untouched, and segments of 80 to 260
/// phones end inside a word, so the script's picks reach past the first
/// word of each free set and up to its masked tail. Fewer scripts than
/// `proptest!` would run — in debug builds every query also pays the
/// manager's own walk over the 600 phones.
#[test]
fn scaled_fleet_matches_the_model() {
    let mut rng = TestRng::deterministic();
    for _ in 0..64 {
        let script = ops()
            .generate(&mut rng)
            .expect("no filter to reject a draw");
        check_script(FleetSpec::scaled_paper(600), script);
    }
}
