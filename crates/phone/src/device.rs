//! One emulated physical phone.

use serde::{Deserialize, Serialize};
use simdc_simrt::RngStream;
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
/// crash, a re-profile or a measurement draw. A fleet is mostly phones
/// nothing ever happens to, and those hold no `Cold` at all.
#[derive(Debug, Clone, PartialEq)]
struct Cold {
    /// `Some` only while the profile differs from the grade's nominal one.
    profile: Option<PhoneProfile>,
    run: Option<RunPlan>,
    train_pid: Option<u32>,
    crashed_at: Option<SimInstant>,
    /// Seeded on the first draw (see [`PhoneDevice::noise`]).
    noise: Option<RngStream>,
}

/// The cold state of a phone that has none.
static UNTOUCHED: Cold = Cold {
    profile: None,
    run: None,
    train_pid: None,
    crashed_at: None,
    noise: None,
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

/// One measurement of a phone inside its run, as typed values: exactly the
/// numbers the [`crate::adb`] command battery prints at the same instant
/// (and [`crate::measure`]'s parsers read back), without the text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reading {
    /// Stage of the run the instant falls in.
    pub(crate) stage: Stage,
    /// Discharge current in µA, rounded as sysfs `current_now` reports it.
    pub(crate) current_ua: i64,
    /// Battery voltage in µV, rounded as sysfs `voltage_now` reports it.
    pub(crate) voltage_uv: i64,
    /// The training process: `Some` exactly when `pgrep -f` prints a pid.
    pub(crate) process: Option<ProcessReading>,
    /// Cumulative wlan0 bytes, rx + tx.
    pub(crate) net_bytes: u64,
}

/// The training process's share of a [`Reading`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProcessReading {
    /// `top`'s `%CPU` column: one decimal.
    pub(crate) cpu_pct: f64,
    /// `dumpsys`' `TOTAL PSS`, whole KB.
    pub(crate) pss_kb: u64,
}

/// An emulated Android phone: stage-driven power/CPU/memory/network models
/// behind a virtual sysfs/procfs, addressable through
/// [`PhoneDevice::adb_shell`].
///
/// The record itself is 24 bytes — identity, the noise seed and a pointer
/// to a boxed cold part (run, crash, custom profile, noise stream), which
/// exists only for phones something has happened to.
#[derive(Debug, Clone)]
pub struct PhoneDevice {
    cold: Option<Box<Cold>>,
    seed: u64,
    id: PhoneId,
    grade: DeviceGrade,
    provenance: Provenance,
}

impl PartialEq for PhoneDevice {
    /// Observable state: an untouched phone equals one whose cold part was
    /// materialised and emptied again (a crash followed by a reboot).
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.grade, self.provenance, self.seed)
            == (other.id, other.grade, other.provenance, other.seed)
            && self.cold() == other.cold()
    }
}

impl PhoneDevice {
    /// Creates an idle phone with the default profile of its grade.
    #[must_use]
    pub fn new(id: PhoneId, grade: DeviceGrade, provenance: Provenance, seed: u64) -> Self {
        PhoneDevice {
            cold: None,
            seed,
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

    /// The measurement-noise stream, seeded on its first use from the same
    /// `(seed, "phone/{id}")` label an eagerly built stream would carry.
    fn noise(&mut self) -> &mut RngStream {
        // Labelled by phone id, which PhoneMgr::register keeps unique — no
        // two phones can share a noise stream.
        let (seed, id) = (self.seed, self.id);
        self.cold_mut()
            .noise
            .get_or_insert_with(|| RngStream::named(seed, &format!("phone/{}", id.0)))
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
    /// [`PhoneDevice::set_profile`] stores a different one.
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
    pub fn set_profile(&mut self, profile: PhoneProfile) -> Result<()> {
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
    pub fn assign_run(&mut self, plan: RunPlan) -> Result<()> {
        if self.is_crashed(plan.start()) || self.is_busy(plan.start()) {
            return Err(SimdcError::PhoneUnavailable(self.id));
        }
        // Deterministic fake pid derived from the phone id and task.
        let pid = 10_000 + (self.id.0 * 13 + plan.task.0 as u32 * 7) % 20_000;
        let cold = self.cold_mut();
        cold.train_pid = Some(pid);
        cold.run = Some(plan);
        Ok(())
    }

    /// Reboots a crashed phone: clears the crash state and any stale run so
    /// the device becomes selectable again.
    pub fn reboot(&mut self) {
        if let Some(cold) = &mut self.cold {
            cold.crashed_at = None;
            cold.run = None;
            cold.train_pid = None;
        }
    }

    /// Injects a crash at `at`: from then on the device drops off ADB until
    /// [`PhoneDevice::reboot`] is called.
    pub fn inject_crash(&mut self, at: SimInstant) {
        self.cold_mut().crashed_at = Some(at);
    }

    /// The lifecycle stage at `now` ([`Stage::ApkClosed`] outside any run
    /// is reported as `None` — the phone is simply idle).
    #[must_use]
    pub fn stage_at(&self, now: SimInstant) -> Option<Stage> {
        if self.is_crashed(now) {
            return None;
        }
        self.run().and_then(|r| r.stage_at(now))
    }

    /// Pid of the training process if the APK is alive at `now`.
    #[must_use]
    pub fn train_pid_at(&self, now: SimInstant) -> Option<u32> {
        self.stage_at(now)
            .and_then(|stage| self.train_pid_in(stage))
    }

    fn train_pid_in(&self, stage: Stage) -> Option<u32> {
        if stage.apk_running() {
            self.cold().train_pid
        } else {
            None
        }
    }

    /// The position as the plan's own scans give it. The public `*_at`
    /// accessors — and through them the ADB shell — resolve it this way,
    /// which keeps the shell an independent reference for
    /// [`RunPosition::locate`], the single walk [`PhoneDevice::reading_at`]
    /// takes.
    fn position_at(&self, now: SimInstant) -> Option<RunPosition> {
        let stage = self.stage_at(now)?;
        let run = self.run()?;
        let (completed, progress) = run.round_progress_at(now);
        Some(RunPosition {
            stage,
            training_elapsed: run.training_elapsed_at(now),
            completed,
            progress,
        })
    }

    fn noisy(&mut self, value: f64) -> f64 {
        let frac = self.profile().noise_frac;
        if frac == 0.0 {
            return value;
        }
        value * self.noise().uniform_range(1.0 - frac, 1.0 + frac)
    }

    /// Instantaneous battery discharge current in µA.
    #[must_use]
    pub fn current_ua_at(&mut self, now: SimInstant) -> f64 {
        let stage = self.stage_at(now);
        self.current_ua_in(stage)
    }

    fn current_ua_in(&mut self, stage: Option<Stage>) -> f64 {
        let ma = match stage {
            Some(stage) => self.profile().stage_current(stage),
            None => 20.0, // deep idle
        };
        self.noisy(ma * 1_000.0)
    }

    /// Instantaneous battery voltage in µV (the sysfs unit; PhoneMgr
    /// converts to the mV the paper reports).
    #[must_use]
    pub fn voltage_uv_at(&mut self, _now: SimInstant) -> f64 {
        let base = self.profile().voltage_mv * 1_000.0;
        // Voltage wobbles far less than current.
        base * self.noise().uniform_range(0.995, 1.005)
    }

    /// Instantaneous CPU usage of the training process, in percent.
    ///
    /// During training the load is a slow sine around the profile base
    /// (Fig 5's 4–13% band); idle stages sit near the idle floor.
    #[must_use]
    pub fn cpu_pct_at(&mut self, now: SimInstant) -> f64 {
        let pos = self.position_at(now);
        self.cpu_pct_in(pos)
    }

    fn cpu_pct_in(&mut self, pos: Option<RunPosition>) -> f64 {
        let p = self.profile();
        let value = match pos {
            Some(RunPosition {
                stage: Stage::Training,
                training_elapsed,
                progress,
                ..
            }) => {
                let t = training_elapsed.as_secs_f64();
                // 20 s oscillation plus a short ramp-in at round start.
                let osc = (t / 20.0 * std::f64::consts::TAU).sin();
                let ramp = (progress * 8.0).min(1.0);
                p.cpu_idle_pct
                    + ramp
                        * (p.cpu_train_base_pct - p.cpu_idle_pct
                            + p.cpu_train_amp_pct * 0.5 * (1.0 + osc))
            }
            Some(RunPosition {
                stage: Stage::ApkLaunch,
                ..
            }) => p.cpu_idle_pct + 2.0,
            Some(_) => p.cpu_idle_pct,
            None => 0.3,
        };
        self.noisy(value).clamp(0.0, 100.0)
    }

    /// Instantaneous PSS memory of the training process in KB.
    ///
    /// Ramps from the launch footprint to the training plateau over
    /// `mem_ramp` of *active training time* and stays there across waiting
    /// gaps, matching Fig 5's 10→50 MB envelope.
    #[must_use]
    pub fn mem_kb_at(&mut self, now: SimInstant) -> f64 {
        let pos = self.position_at(now);
        self.mem_kb_in(pos)
    }

    fn mem_kb_in(&mut self, pos: Option<RunPosition>) -> f64 {
        let p = self.profile();
        let value = match pos {
            Some(pos) if pos.stage.apk_running() => {
                let active = pos.training_elapsed.as_secs_f64();
                let ramp = (active / p.mem_ramp.as_secs_f64()).min(1.0);
                let mb = p.mem_launch_mb + ramp * (p.mem_train_peak_mb - p.mem_launch_mb);
                mb * 1_024.0
            }
            _ => 0.0, // process not alive
        };
        if value == 0.0 {
            0.0
        } else {
            self.noisy(value)
        }
    }

    /// Cumulative network bytes (rx + tx) of the training process since APK
    /// launch.
    ///
    /// Each round transfers `comm_kb_per_round`, spread uniformly over the
    /// training window (model download at the start, update upload at the
    /// end, gradients in between).
    #[must_use]
    pub fn net_bytes_at(&self, now: SimInstant) -> u64 {
        let Some(run) = self.run() else {
            return 0;
        };
        if self.is_crashed(now) {
            return 0;
        }
        let (completed, progress) = run.round_progress_at(now);
        self.net_bytes_in(completed, progress)
    }

    fn net_bytes_in(&self, completed: u32, progress: f64) -> u64 {
        let kb = self.profile().comm_kb_per_round * (f64::from(completed) + progress);
        (kb * 1_024.0).round() as u64
    }

    /// Split of [`PhoneDevice::net_bytes_at`] into (rx, tx): downloads
    /// dominate (60/40).
    #[must_use]
    pub fn net_rx_tx_at(&self, now: SimInstant) -> (u64, u64) {
        let total = self.net_bytes_at(now);
        let rx = (total as f64 * 0.6).round() as u64;
        (rx, total - rx)
    }

    /// Measures the phone at `now`; `None` when it is crashed or `now` is
    /// outside its run (no stage to report).
    ///
    /// The noise draws are made in the order the shell battery makes them —
    /// current, voltage, then for a live process `%CPU`, `top`'s RES column
    /// and `dumpsys`' PSS — because the stream's position carries from one
    /// sample of a phone to the next.
    pub(crate) fn reading_at(&mut self, now: SimInstant) -> Option<Reading> {
        if self.is_crashed(now) {
            return None;
        }
        let pos = RunPosition::locate(self.run()?, now)?;
        let current_ua = self.current_ua_in(Some(pos.stage)).round() as i64;
        let voltage_uv = self.voltage_uv_at(now).round() as i64;
        let process = self.train_pid_in(pos.stage).map(|_pid| {
            let cpu = self.cpu_pct_in(Some(pos));
            // `top` takes a memory reading of its own for RES / SHR / %MEM.
            // Nobody reads those columns, but the draw happened.
            let _top_res = self.mem_kb_in(Some(pos));
            ProcessReading {
                // `{:.1}` rounds the exact binary value to the nearest
                // decimal tenth, which arithmetic on `cpu * 10.0` does not
                // reproduce — so go through the same text `top` prints.
                cpu_pct: format!("{cpu:.1}")
                    .parse()
                    .expect("a formatted float parses back"),
                pss_kb: self.mem_kb_in(Some(pos)).round() as u64,
            }
        });
        Some(Reading {
            stage: pos.stage,
            current_ua,
            voltage_uv,
            process,
            net_bytes: self.net_bytes_in(pos.completed, pos.progress),
        })
    }

    /// Executes an ADB shell command against this phone at virtual time
    /// `now`. See [`crate::adb`] for the supported command surface.
    ///
    /// # Errors
    ///
    /// Returns [`SimdcError::AdbCommand`] for unknown commands, missing
    /// files/processes, or a crashed device.
    pub fn adb_shell(&mut self, cmd: &str, now: SimInstant) -> Result<String> {
        if self.is_crashed(now) {
            return Err(SimdcError::AdbCommand(format!(
                "device {} offline",
                self.id
            )));
        }
        crate::adb::exec(self, cmd, now)
    }
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

    fn phone() -> PhoneDevice {
        PhoneDevice::new(PhoneId(1), DeviceGrade::High, Provenance::Local, 7)
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

    #[test]
    fn idle_phone_reports_idle_readings() {
        let mut p = phone();
        assert!(!p.is_busy(t(0)));
        assert_eq!(p.stage_at(t(0)), None);
        assert_eq!(p.net_bytes_at(t(0)), 0);
        assert_eq!(p.mem_kb_at(t(0)), 0.0);
        assert!(p.cpu_pct_at(t(0)) < 1.0);
        let ua = p.current_ua_at(t(0));
        assert!((15_000.0..25_000.0).contains(&ua), "idle current {ua}");
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
        let ua = p.current_ua_at(t(35));
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
        let idle = p.cpu_pct_at(t(2));
        let busy = p.cpu_pct_at(t(40));
        assert!(busy > idle + 3.0, "busy {busy} vs idle {idle}");
        assert!(busy < 16.0, "Fig 5 band is ~4-13%: {busy}");
    }

    #[test]
    fn memory_ramps_and_persists_through_waiting() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let early = p.mem_kb_at(t(31));
        let late = p.mem_kb_at(t(30 + 16 + 5)); // waiting gap
        assert!(late > early, "memory should grow: {early} → {late}");
        assert!(late > 10.0 * 1024.0 && late < 55.0 * 1024.0);
    }

    #[test]
    fn net_bytes_accumulate_per_round() {
        let p = {
            let mut p = phone();
            p.assign_run(plan(0)).unwrap();
            p
        };
        let after_r1 = p.net_bytes_at(t(30 + 16 + 1));
        let expected_r1 = (33.1 * 1024.0) as u64;
        assert!((after_r1 as i64 - expected_r1 as i64).unsigned_abs() < 200);
        let end = p.run().unwrap().end();
        let total = p.net_bytes_at(end);
        assert!((total as i64 - 2 * expected_r1 as i64).unsigned_abs() < 400);
        let (rx, tx) = p.net_rx_tx_at(end);
        assert_eq!(rx + tx, total);
        assert!(rx > tx);
    }

    #[test]
    fn crash_takes_device_offline() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        p.inject_crash(t(35));
        assert!(p.is_busy(t(34)));
        assert!(!p.is_busy(t(36)));
        assert!(p.is_crashed(t(36)));
        assert!(p
            .adb_shell("cat /sys/class/power_supply/battery/current_now", t(40))
            .is_err());
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
    fn pid_visible_only_while_apk_runs() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        assert_eq!(p.train_pid_at(t(5)), None); // stage 1: no APK
        assert!(p.train_pid_at(t(20)).is_some()); // APK launch
        assert!(p.train_pid_at(t(40)).is_some()); // training
        let end = p.run().unwrap().end();
        assert_eq!(p.train_pid_at(end), None);
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

    /// `poll` reports no CPU or memory exactly when the reading carries no
    /// process, so that must be exactly when `pgrep` finds no pid.
    #[test]
    fn reading_and_pgrep_agree_on_when_a_pid_exists() {
        let mut p = phone();
        p.assign_run(plan(0)).unwrap();
        let mut alive_in = std::collections::BTreeMap::new();
        // One instant inside each window, and both edges of the run.
        for secs in [0, 7, 15, 22, 30, 40, 46, 60, 66, 80, 82, 90, 97, 111] {
            let stage = p.stage_at(t(secs)).expect("inside the run");
            let pid = p.adb_shell("pgrep -f com.simdc.train", t(secs)).unwrap();
            let reading = p.reading_at(t(secs)).expect("inside the run");
            assert_eq!(reading.stage, stage);
            assert_eq!(
                reading.process.is_some(),
                !pid.is_empty(),
                "{stage} at {secs} s: pgrep printed '{pid}'"
            );
            assert_eq!(pid.parse().ok(), p.train_pid_at(t(secs)));
            alive_in.insert(stage.label(), reading.process.is_some());
        }
        assert_eq!(alive_in.len(), 6, "every stage visited: {alive_in:?}");
        assert_eq!(alive_in.values().filter(|&&alive| alive).count(), 4);
        // Outside the run, and once crashed, there is nothing to read.
        assert!(p.reading_at(t(112)).is_none());
        p.inject_crash(t(40));
        assert!(p.reading_at(t(40)).is_none());
        assert!(p.reading_at(t(39)).is_some());
    }

    #[test]
    fn profile_swap_validates_grade() {
        let mut p = phone();
        assert!(p.set_profile(PhoneProfile::low()).is_err());
        assert!(p.set_profile(PhoneProfile::high()).is_ok());
    }
}
