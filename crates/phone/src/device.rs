//! One emulated physical phone.

use serde::{Deserialize, Serialize};
use simdc_simrt::{derive_seed, RngStream, SplitMix64};
use simdc_types::{DeviceGrade, PhoneId, Result, SimDuration, SimInstant, SimdcError};

use crate::profile::PhoneProfile;
use crate::stage::{RunPlan, Stage};

/// Where a phone comes from: the local rack or the remote Mobile Service
/// Platform (MSP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// Locally racked phone.
    Local,
    /// Remote phone rented through the Mobile Service Platform.
    Msp,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Local => f.write_str("local"),
            Provenance::Msp => f.write_str("MSP"),
        }
    }
}

/// What a phone carries only once something has happened to it: a run, a
/// crash or a re-profile. A fleet is mostly phones nothing ever happens
/// to, and those hold no `Cold` at all; a reboot that leaves the cold part
/// empty releases it again.
#[derive(Debug, Clone, PartialEq)]
struct Cold {
    /// `Some` only while the profile differs from the grade's nominal one.
    profile: Option<PhoneProfile>,
    run: Option<RunPlan>,
    crashed_at: Option<SimInstant>,
}

/// The cold state of a phone that has none.
static UNTOUCHED: Cold = Cold {
    profile: None,
    run: None,
    crashed_at: None,
};

/// Where an instant falls inside a run: the active stage and the training
/// progress up to it, resolved in one walk over the plan's windows — what
/// [`RunPlan::stage_at`], [`RunPlan::training_elapsed_at`] and
/// [`RunPlan::round_progress_at`] each rescan the plan for.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunPosition {
    stage: Stage,
    /// Active training time up to the instant.
    training_elapsed: SimDuration,
    /// Training rounds completed before the instant.
    completed: u32,
    /// Fraction of the running round done (0 outside training).
    progress: f64,
}

impl RunPosition {
    /// `None` outside the plan. Windows are contiguous and time-ordered,
    /// so the walk stops at the one holding `now`.
    fn locate(run: &RunPlan, now: SimInstant) -> Option<Self> {
        let mut training_elapsed = SimDuration::ZERO;
        let mut completed = 0;
        for w in run.windows() {
            let training = w.stage == Stage::Training;
            if now >= w.end() {
                if training {
                    training_elapsed += w.duration;
                    completed += 1;
                }
                continue;
            }
            if now < w.start {
                return None;
            }
            let mut progress = 0.0;
            if training {
                let into = now.duration_since(w.start);
                training_elapsed += into;
                progress = into.as_secs_f64() / w.duration.as_secs_f64();
            }
            return Some(RunPosition {
                stage: w.stage,
                training_elapsed,
                completed,
                progress,
            });
        }
        None
    }
}

/// One measurement of a phone inside its run, as typed values (see
/// [`PhoneDevice::reading_at`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reading {
    /// Stage of the run the instant falls in.
    pub(crate) stage: Stage,
    /// Discharge current, whole µA.
    pub(crate) current_ua: i64,
    /// Battery voltage, whole µV.
    pub(crate) voltage_uv: i64,
    /// The training process: `Some` exactly while the APK runs.
    pub(crate) process: Option<ProcessReading>,
    /// Cumulative network bytes (rx + tx) since APK launch.
    pub(crate) net_bytes: u64,
}

/// The training process's share of a [`Reading`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProcessReading {
    /// CPU usage, %, to one decimal.
    pub(crate) cpu_pct: f64,
    /// PSS memory, whole KB.
    pub(crate) pss_kb: u64,
}

/// An emulated Android phone: stage-driven power/CPU/memory/network models,
/// measured through one typed reading per instant.
///
/// The record itself is 16 bytes — identity and a pointer to a boxed cold
/// part (run, crash, custom profile), which exists only for phones
/// something has happened to. Measuring a phone reads it and changes
/// nothing.
#[derive(Debug, Clone)]
pub struct PhoneDevice {
    cold: Option<Box<Cold>>,
    id: PhoneId,
    grade: DeviceGrade,
    provenance: Provenance,
}

impl PartialEq for PhoneDevice {
    /// Observable state: an untouched phone equals one whose cold part was
    /// materialised and emptied again (a re-profile undone).
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.grade, self.provenance) == (other.id, other.grade, other.provenance)
            && self.cold() == other.cold()
    }
}

impl PhoneDevice {
    /// Creates an idle phone with the default profile of its grade.
    #[must_use]
    pub(crate) fn new(id: PhoneId, grade: DeviceGrade, provenance: Provenance) -> Self {
        PhoneDevice {
            cold: None,
            id,
            grade,
            provenance,
        }
    }

    fn cold(&self) -> &Cold {
        self.cold.as_deref().unwrap_or(&UNTOUCHED)
    }

    fn cold_mut(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(|| Box::new(UNTOUCHED.clone()))
    }

    /// Phone identifier.
    #[must_use]
    pub fn id(&self) -> PhoneId {
        self.id
    }

    /// Performance grade.
    #[must_use]
    pub fn grade(&self) -> DeviceGrade {
        self.grade
    }

    /// Local or MSP.
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// The behaviour profile: the grade's shared nominal one until
    /// [`crate::PhoneMgr::set_phone_profile`] stores a different one.
    #[must_use]
    pub fn profile(&self) -> &PhoneProfile {
        match &self.cold().profile {
            Some(own) => own,
            None => PhoneProfile::nominal(self.grade),
        }
    }

    /// Replaces the behaviour profile (e.g. for custom calibrations).
    ///
    /// # Errors
    ///
    /// Returns `InvalidConfig` if the profile fails validation or its grade
    /// differs from the phone's.
    pub(crate) fn set_profile(&mut self, profile: PhoneProfile) -> Result<()> {
        profile.validate()?;
        if profile.grade != self.grade {
            return Err(SimdcError::InvalidConfig(format!(
                "profile grade {} does not match phone grade {}",
                profile.grade, self.grade
            )));
        }
        if profile != *PhoneProfile::nominal(self.grade) {
            self.cold_mut().profile = Some(profile);
        } else if let Some(cold) = &mut self.cold {
            cold.profile = None;
        }
        Ok(())
    }

    /// The active run plan, if any.
    #[must_use]
    pub fn run(&self) -> Option<&RunPlan> {
        self.cold().run.as_ref()
    }

    /// Whether the phone is executing (or scheduled to execute) work at
    /// `now`.
    #[must_use]
    pub fn is_busy(&self, now: SimInstant) -> bool {
        !self.is_crashed(now) && self.run().is_some_and(|r| now < r.end())
    }

    /// Whether the phone has crashed (ADB unreachable) as of `now`.
    #[must_use]
    pub fn is_crashed(&self, now: SimInstant) -> bool {
        self.crashed_at().is_some_and(|t| now >= t)
    }

    /// The instant an injected crash takes (or took) effect, if any — the
    /// availability index schedules the offline transition from this.
    #[must_use]
    pub fn crashed_at(&self) -> Option<SimInstant> {
        self.cold().crashed_at
    }

    /// Assigns a run plan.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::PhoneUnavailable`] if the phone is busy at the
    /// plan's start or has crashed.
    pub(crate) fn assign_run(&mut self, plan: RunPlan) -> Result<()> {
        if self.is_crashed(plan.start()) || self.is_busy(plan.start()) {
            return Err(SimdcError::PhoneUnavailable(self.id));
        }
        self.cold_mut().run = Some(plan);
        Ok(())
    }

    /// Reboots a crashed phone: clears the crash state and any stale run so
    /// the device becomes selectable again, and drops the cold part if that
    /// left it empty.
    pub(crate) fn reboot(&mut self) {
        if let Some(cold) = &mut self.cold {
            cold.crashed_at = None;
            cold.run = None;
        }
        self.cold.take_if(|cold| **cold == UNTOUCHED);
    }

    /// Injects a crash at `at`: from then on the device drops off ADB until
    /// [`PhoneDevice::reboot`] is called.
    pub(crate) fn inject_crash(&mut self, at: SimInstant) {
        self.cold_mut().crashed_at = Some(at);
    }

    fn noisy(&self, noise: &mut RngStream, value: f64) -> f64 {
        let frac = self.profile().noise_frac;
        if frac == 0.0 {
            return value;
        }
        value * noise.uniform_range(1.0 - frac, 1.0 + frac)
    }

    /// Battery discharge current in µA during `stage`.
    fn current_ua_in(&self, noise: &mut RngStream, stage: Stage) -> f64 {
        let ma = self.profile().stage_current(stage);
        self.noisy(noise, ma * 1_000.0)
    }

    /// One battery-voltage draw in µV; PhoneMgr converts to the mV the
    /// paper reports. Voltage wobbles far less than current, and is drawn
    /// even when the profile's `noise_frac` is zero.
    fn voltage_uv(&self, noise: &mut RngStream) -> f64 {
        let base = self.profile().voltage_mv * 1_000.0;
        base * noise.uniform_range(0.995, 1.005)
    }

    /// CPU usage of the training process, in percent.
    ///
    /// During training the load is a slow sine around the profile base
    /// (Fig 5's 4–13% band); the other stages sit at the idle floor, two
    /// points above it during APK launch.
    fn cpu_pct_in(&self, noise: &mut RngStream, pos: RunPosition) -> f64 {
        let p = self.profile();
        let value = match pos.stage {
            Stage::Training => {
                let t = pos.training_elapsed.as_secs_f64();
                // 20 s oscillation plus a short ramp-in at round start.
                let osc = (t / 20.0 * std::f64::consts::TAU).sin();
                let ramp = (pos.progress * 8.0).min(1.0);
                p.cpu_idle_pct
                    + ramp
                        * (p.cpu_train_base_pct - p.cpu_idle_pct
                            + p.cpu_train_amp_pct * 0.5 * (1.0 + osc))
            }
            Stage::ApkLaunch => p.cpu_idle_pct + 2.0,
            _ => p.cpu_idle_pct,
        };
        self.noisy(noise, value).clamp(0.0, 100.0)
    }

    /// PSS memory of the live training process in KB.
    ///
    /// Ramps from the launch footprint to the training plateau over
    /// `mem_ramp` of *active training time* and stays there across waiting
    /// gaps, matching Fig 5's 10→50 MB envelope. A zero footprint takes no
    /// noise draw.
    fn mem_kb_in(&self, noise: &mut RngStream, pos: RunPosition) -> f64 {
        let p = self.profile();
        let active = pos.training_elapsed.as_secs_f64();
        let ramp = (active / p.mem_ramp.as_secs_f64()).min(1.0);
        let mb = p.mem_launch_mb + ramp * (p.mem_train_peak_mb - p.mem_launch_mb);
        let value = mb * 1_024.0;
        if value == 0.0 {
            0.0
        } else {
            self.noisy(noise, value)
        }
    }

    /// Cumulative network bytes (rx + tx) of the training process since APK
    /// launch.
    ///
    /// Each round transfers `comm_kb_per_round`, spread uniformly over the
    /// training window (model download at the start, update upload at the
    /// end, gradients in between).
    fn net_bytes_in(&self, pos: RunPosition) -> u64 {
        let kb = self.profile().comm_kb_per_round * (f64::from(pos.completed) + pos.progress);
        (kb * 1_024.0).round() as u64
    }

    /// Measures the phone at `now`; `None` when it is crashed or `now` is
    /// outside its run (no stage to report). This is the one statement of
    /// the phone model: `PhoneMgr::poll` and `measure_run` read nothing
    /// else.
    ///
    /// A reading is a pure function of the phone, its noise `key` (see
    /// [`noise_key`]) and `now`: its noise draws come from a stream of
    /// their own, seeded by the key and the instant, so what the phone
    /// served or reported before does not move them. The draws come in a
    /// fixed order: current (none when `noise_frac` is zero), voltage,
    /// then, while the APK runs, `%CPU` and PSS. `%CPU` is rounded to one
    /// decimal as `(x * 10.0).round() / 10.0`.
    pub(crate) fn reading_at(&self, key: u64, now: SimInstant) -> Option<Reading> {
        if self.is_crashed(now) {
            return None;
        }
        let pos = RunPosition::locate(self.run()?, now)?;
        let noise = &mut sample_noise(key, now);
        let current_ua = self.current_ua_in(noise, pos.stage).round() as i64;
        let voltage_uv = self.voltage_uv(noise).round() as i64;
        let process = pos.stage.apk_running().then(|| ProcessReading {
            cpu_pct: (self.cpu_pct_in(noise, pos) * 10.0).round() / 10.0,
            pss_kb: self.mem_kb_in(noise, pos).round() as u64,
        });
        Some(Reading {
            stage: pos.stage,
            current_ua,
            voltage_uv,
            process,
            net_bytes: self.net_bytes_in(pos),
        })
    }
}

/// The measurement-noise key of phone `id` in a fleet built under `seed`:
/// the `"phone/{id}"` label derived once, so no sample formats a string.
/// Ids are unique within a fleet, so no two phones share a key.
pub(crate) fn noise_key(seed: u64, id: PhoneId) -> u64 {
    derive_seed(seed, &format!("phone/{}", id.0))
}

/// The noise stream of one sample: the phone's key and the instant in µs,
/// mixed through SplitMix64.
pub(crate) fn sample_noise(key: u64, now: SimInstant) -> RngStream {
    RngStream::from_seed(SplitMix64::new(key ^ now.as_micros()).next_value())
}

#[cfg(test)]
impl PhoneDevice {
    /// Whether the cold part has been materialised.
    pub(crate) fn is_touched(&self) -> bool {
        self.cold.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdc_types::{SimDuration, TaskId};

    /// A noise key, as `PhoneMgr` derives one per phone.
    const KEY: u64 = 7;

    fn phone() -> PhoneDevice {
        PhoneDevice::new(PhoneId(1), DeviceGrade::High, Provenance::Local)
    }

    fn plan(start_secs: u64) -> RunPlan {
        RunPlan::new(
            TaskId(1),
            PhoneId(1),
            SimInstant::EPOCH + SimDuration::from_secs(start_secs),
            &[SimDuration::from_secs(16), SimDuration::from_secs(16)],
            &[SimDuration::from_secs(20)],
        )
        .unwrap()
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(secs)
    }

    /// The process share of the reading at `secs`, which must fall in a
    /// stage where the APK runs.
    fn process(p: &PhoneDevice, secs: u64) -> ProcessReading {
        p.reading_at(KEY, t(secs))
            .and_then(|r| r.process)
            .expect("APK running")
    }

    #[test]
    fn idle_phone_reports_idle_readings() {
        let p = phone();
        assert!(!p.is_busy(t(0)));
        assert_eq!(p.reading_at(KEY, t(0)), None);
        assert!(!p.is_touched(), "reading an idle phone draws nothing");
    }

    #[test]
    fn busy_phone_rejects_second_run() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        assert!(p.is_busy(t(10)));
        assert!(matches!(
            p.assign_run(plan(0)),
            Err(SimdcError::PhoneUnavailable(_))
        ));
    }

    #[test]
    fn run_after_completion_is_allowed() {
        let mut p = phone();
        let first = plan(0);
        let end = first.end();
        p.assign_run(first).unwrap();
        assert!(!p.is_busy(end));
        let second = RunPlan::new(
            TaskId(2),
            PhoneId(1),
            end,
            &[SimDuration::from_secs(5)],
            &[],
        )
        .unwrap();
        p.assign_run(second).unwrap();
    }

    #[test]
    fn training_current_matches_profile_band() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        // Training starts at 30 s (two 15 s measurement windows first).
        let reading = p.reading_at(KEY, t(35)).unwrap();
        assert_eq!(reading.stage, Stage::Training);
        let ua = reading.current_ua as f64;
        let expected = 40.0 * 1_000.0;
        assert!(
            (ua - expected).abs() / expected < 0.06,
            "training current {ua} vs {expected}"
        );
    }

    #[test]
    fn cpu_rises_during_training() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let busy = process(&p, 40).cpu_pct;
        let settled = process(&p, 90).cpu_pct; // post-training
        assert!(busy > settled + 3.0, "busy {busy} vs settled {settled}");
        assert!(busy < 16.0, "Fig 5 band is ~4-13%: {busy}");
    }

    #[test]
    fn memory_ramps_and_persists_through_waiting() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let early = process(&p, 31).pss_kb;
        let late = process(&p, 30 + 16 + 5).pss_kb; // waiting gap
        assert!(late > early, "memory should grow: {early} → {late}");
        assert!(late > 10 * 1024 && late < 55 * 1024);
    }

    #[test]
    fn net_bytes_accumulate_per_round() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let after_r1 = p.reading_at(KEY, t(30 + 16 + 1)).unwrap().net_bytes;
        let expected_r1 = (33.1 * 1024.0) as u64;
        assert!((after_r1 as i64 - expected_r1 as i64).unsigned_abs() < 200);
        let last = p.run().unwrap().end() - SimDuration::from_secs(1);
        let total = p.reading_at(KEY, last).unwrap().net_bytes;
        assert!((total as i64 - 2 * expected_r1 as i64).unsigned_abs() < 400);
    }

    /// `%CPU` is the clamped model value rounded to one decimal as
    /// `(x * 10.0).round() / 10.0`. With no noise and an idle floor of
    /// 1.25 %, APK launch sits at 3.25 and post-training at 1.25 — exact
    /// binary ties, which this rule rounds away from zero (3.3, 1.3) where
    /// printing with `{:.1}` would round them half to even (3.2, 1.2). A
    /// training base of 99 % pushes the sine past the 100 % clamp.
    #[test]
    fn cpu_reading_is_clamped_and_rounded_to_a_tenth() {
        let mut p = phone();
        let mut profile = PhoneProfile::high();
        profile.noise_frac = 0.0;
        profile.cpu_idle_pct = 1.25;
        profile.cpu_train_base_pct = 99.0;
        p.set_profile(profile).unwrap();
        p.assign_run(plan(0)).unwrap();
        let mut seen = std::collections::BTreeMap::new();
        let mut now = t(0);
        while let Some(reading) = p.reading_at(KEY, now) {
            if let Some(process) = reading.process {
                let cpu = process.cpu_pct;
                match reading.stage {
                    Stage::ApkLaunch => assert_eq!(cpu, 3.3, "at {now}"),
                    Stage::PostTraining => assert_eq!(cpu, 1.3, "at {now}"),
                    Stage::Training => assert!(cpu <= 100.0, "{cpu} at {now}"),
                    _ => {}
                }
                let top = seen.entry(reading.stage.label()).or_insert(cpu);
                *top = cpu.max(*top);
            }
            now += SimDuration::from_millis(250);
        }
        assert_eq!(seen.len(), 4, "every stage with a process: {seen:?}");
        assert_eq!(seen["Training"], 100.0, "the clamp is reached");
    }

    #[test]
    fn crash_takes_device_offline() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        p.inject_crash(t(35));
        assert!(p.is_busy(t(34)));
        assert!(!p.is_busy(t(36)));
        assert!(p.is_crashed(t(36)));
        assert!(p.reading_at(KEY, t(34)).is_some());
        assert_eq!(p.reading_at(KEY, t(40)), None);
        // Crashed phones reject new work until rebooted.
        let end = plan(0).end();
        let next = RunPlan::new(
            TaskId(3),
            PhoneId(1),
            end,
            &[SimDuration::from_secs(5)],
            &[],
        )
        .unwrap();
        assert!(p.assign_run(next.clone()).is_err());
        p.reboot();
        assert!(!p.is_crashed(end));
        p.assign_run(next).unwrap();
    }

    #[test]
    fn run_position_agrees_with_the_plan_scans() {
        let run = RunPlan::new(
            TaskId(1),
            PhoneId(1),
            t(3),
            &[SimDuration::from_secs(16), SimDuration::from_millis(7_300)],
            &[SimDuration::from_secs(5)],
        )
        .unwrap();
        let mut now = t(1);
        while now < run.end() + SimDuration::from_secs(2) {
            let pos = RunPosition::locate(&run, now);
            assert_eq!(pos.map(|p| p.stage), run.stage_at(now), "stage at {now}");
            if let Some(pos) = pos {
                assert_eq!(pos.training_elapsed, run.training_elapsed_at(now));
                assert_eq!((pos.completed, pos.progress), run.round_progress_at(now));
            }
            now += SimDuration::from_millis(137);
        }
    }

    /// The training process exists from APK launch until the APK exits.
    #[test]
    fn pid_visible_only_while_apk_runs() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let alive = |secs| {
            p.reading_at(KEY, t(secs))
                .expect("inside the run")
                .process
                .is_some()
        };
        assert!(!alive(5)); // stage 1: no APK
        assert!(alive(20)); // APK launch
        assert!(alive(40)); // training
        assert!(!alive(111)); // APK closed
        let end = p.run().unwrap().end();
        assert_eq!(p.reading_at(KEY, end), None);
    }

    /// `poll` reports no CPU or memory exactly when the reading carries no
    /// process, so that must be exactly when the training process has a
    /// pid, which is while the APK runs.
    #[test]
    fn reading_and_pgrep_agree_on_when_a_pid_exists() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let mut alive_in = std::collections::BTreeMap::new();
        // One instant inside each window, and both edges of the run.
        for secs in [0, 7, 15, 22, 30, 40, 46, 60, 66, 80, 82, 90, 97, 111] {
            let stage = p.run().unwrap().stage_at(t(secs)).expect("inside the run");
            let reading = p.reading_at(KEY, t(secs)).expect("inside the run");
            assert_eq!(reading.stage, stage);
            assert_eq!(
                reading.process.is_some(),
                stage.apk_running(),
                "{stage} at {secs} s"
            );
            alive_in.insert(stage.label(), reading.process.is_some());
        }
        assert_eq!(alive_in.len(), 6, "every stage visited: {alive_in:?}");
        assert_eq!(alive_in.values().filter(|&&alive| alive).count(), 4);
        // Outside the run, and once crashed, there is nothing to read.
        assert!(p.reading_at(KEY, t(112)).is_none());
        p.inject_crash(t(40));
        assert!(p.reading_at(KEY, t(40)).is_none());
        assert!(p.reading_at(KEY, t(39)).is_some());
    }

    #[test]
    fn profile_swap_validates_grade() {
        let mut p = phone();
        assert!(p.set_profile(PhoneProfile::low()).is_err());
        assert!(p.set_profile(PhoneProfile::high()).is_ok());
    }
}
