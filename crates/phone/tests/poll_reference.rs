//! Differential oracle for benchmark-phone measurement.
//!
//! [`PhoneMgr::poll`] and [`PhoneMgr::measure_run`] read a phone's typed
//! reading of itself. The reference here is the route they replaced, kept
//! verbatim: issue the paper's ADB command battery through
//! [`PhoneDevice::adb_shell`](simdc_phone::PhoneDevice::adb_shell), `grep`
//! the dumps and parse one number out of each ([`poll_via_shell`],
//! [`measure_run_via_shell`]). Two identically seeded managers are driven
//! through the same script — one sampled typed, one through the shell —
//! and every [`PerfSample`], every error, every [`PerfReport`] and the
//! phones' next noise draw afterwards must be equal, `==` on the `f64`s.
//!
//! A script is two runs on one phone: an instant-by-instant `poll` sweep
//! that starts before the run and ends after it, then a `measure_run` of
//! the same run, optionally cut short by an injected crash; a reboot; and
//! the same again for a second run, so the noise stream's position carries
//! from run to run. Cases vary the grade, the poll interval (250 ms / 1 s),
//! 1–3 rounds with and without waiting gaps, an unaligned start, and the
//! profile (nominal, straggler-slowed, noiseless with a `%CPU` that sits
//! exactly on a decimal tie, and one whose training load crosses the 100 %
//! clamp).

use proptest::prelude::*;
use simdc_phone::measure::{
    aggregate_stages, parse_current_ua, parse_pss_kb, parse_top_cpu, parse_voltage_mv,
    parse_wlan_bytes,
};
use simdc_phone::{
    FleetSpec, PerfReport, PerfSample, PhoneMgr, PhoneProfile, Stage, TRAIN_PROCESS,
};
use simdc_simrt::TimeSeries;
use simdc_types::{DeviceGrade, PhoneId, Result, SimDuration, SimInstant, SimdcError, TaskId};

/// `PhoneMgr::poll` as it was before the typed reading (the phone is
/// reached through `phone_mut`, the public accessor).
fn poll_via_shell(mgr: &mut PhoneMgr, id: PhoneId, now: SimInstant) -> Result<PerfSample> {
    let phone = mgr.phone_mut(id).ok_or(SimdcError::PhoneUnavailable(id))?;
    let stage = phone
        .stage_at(now)
        .ok_or_else(|| SimdcError::AdbCommand(format!("phone {id} has no active run at {now}")))?;

    let current_ua = parse_current_ua(
        &phone.adb_shell("cat /sys/class/power_supply/battery/current_now", now)?,
    )?;
    let voltage_mv = parse_voltage_mv(
        &phone.adb_shell("cat /sys/class/power_supply/battery/voltage_now", now)?,
    )?;

    let pid_out = phone.adb_shell(&format!("pgrep -f {TRAIN_PROCESS}"), now)?;
    let (cpu_pct, mem_kb, net_bytes) = if pid_out.trim().is_empty() {
        // Process not alive (stages 1 and 5): nothing to measure.
        (0.0, 0.0, phone.net_bytes_at(now))
    } else {
        let pid = pid_out.trim();
        let cpu = parse_top_cpu(&phone.adb_shell(&format!("top -b -n 1 -p {pid}"), now)?)?;
        let mem =
            parse_pss_kb(&phone.adb_shell(&format!("dumpsys {TRAIN_PROCESS} | grep PSS"), now)?)?;
        let net = parse_wlan_bytes(
            &phone.adb_shell(&format!("cat /proc/{pid}/net/dev | grep wlan"), now)?,
        )?;
        (cpu, mem, net)
    };

    Ok(PerfSample {
        phone: id,
        at: now,
        stage,
        current_ua,
        voltage_mv,
        cpu_pct,
        mem_kb,
        net_bytes,
    })
}

/// `PhoneMgr::measure_run` as it was, over [`poll_via_shell`].
fn measure_run_via_shell(mgr: &mut PhoneMgr, id: PhoneId) -> Result<PerfReport> {
    let (start, end, grade) = {
        let phone = mgr.phone(id).ok_or(SimdcError::PhoneUnavailable(id))?;
        let run = phone
            .run()
            .ok_or_else(|| SimdcError::InvalidConfig(format!("phone {id} has no assigned run")))?;
        (run.start(), run.end(), phone.grade())
    };

    let mut samples = Vec::new();
    let mut cpu_series = TimeSeries::new(format!("{id}/cpu_pct"));
    let mut mem_series = TimeSeries::new(format!("{id}/mem_mb"));
    let mut t = start;
    while t < end {
        match poll_via_shell(mgr, id, t) {
            Ok(sample) => {
                if sample.stage != Stage::Waiting && sample.stage.apk_running() {
                    cpu_series.record(t, sample.cpu_pct);
                    mem_series.record(t, sample.mem_kb / 1_024.0);
                }
                samples.push(sample);
            }
            Err(SimdcError::AdbCommand(_)) => break, // crashed mid-run
            Err(other) => return Err(other),
        }
        t += mgr.poll_interval();
    }

    let stages = aggregate_stages(&samples, mgr.poll_interval());
    Ok(PerfReport {
        phone: id,
        grade,
        stages,
        cpu_series,
        mem_series,
        samples,
    })
}

/// One generated script.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    grade: DeviceGrade,
    interval: SimDuration,
    rounds: usize,
    gap: SimDuration,
    /// 0 nominal, 1 straggler, 2 noiseless on a `%CPU` tie, 3 hot.
    profile: u8,
    /// Crash onset of the first run, in thousandths of its length.
    crash_permille: Option<u64>,
    start: SimInstant,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        0u64..1_000,
        0usize..2,
        0u8..2,
        1usize..4,
        0usize..4,
        0u8..4,
        0u64..2_000,
        1_000_000u64..6_000_000,
    )
        .prop_map(
            |(seed, grade, fast, rounds, gap, profile, crash, start)| Case {
                seed,
                grade: DeviceGrade::ALL[grade],
                interval: SimDuration::from_millis(if fast == 1 { 250 } else { 1_000 }),
                rounds,
                gap: SimDuration::from_millis([0, 0, 1_300, 9_000][gap]),
                profile,
                crash_permille: (crash < 1_000).then_some(crash),
                start: SimInstant::from_micros(start),
            },
        )
}

fn profile_of(case: &Case) -> PhoneProfile {
    let mut p = PhoneProfile::for_grade(case.grade);
    match case.profile {
        0 => {}
        // What the straggler injector does to a phone.
        1 => p.train_duration = p.train_duration.mul_f64(2.0),
        // No noise, and an idle load of 1.25 %: `top` prints 1.2 (and 3.2
        // during APK launch) — exact decimal ties, rounded half to even.
        2 => {
            p.noise_frac = 0.0;
            p.cpu_idle_pct = 1.25;
        }
        // Training load around the upper clamp.
        _ => p.cpu_train_base_pct = 99.0,
    }
    p
}

/// Everything observable from one script: each polled instant's outcome,
/// the measured reports, and the voltage draw that follows.
type Trace = (
    Vec<std::result::Result<PerfSample, String>>,
    Vec<PerfReport>,
    f64,
);

fn drive(
    case: &Case,
    poll: fn(&mut PhoneMgr, PhoneId, SimInstant) -> Result<PerfSample>,
    measure_run: fn(&mut PhoneMgr, PhoneId) -> Result<PerfReport>,
) -> Trace {
    let mut mgr = PhoneMgr::with_fleet(FleetSpec::paper_default(), case.interval, case.seed);
    let id = mgr.select(case.grade, 1, case.start).expect("idle fleet")[0];
    mgr.set_phone_profile(id, profile_of(case))
        .expect("valid profile of the phone's grade");

    let mut polled = Vec::new();
    let mut reports = Vec::new();
    let mut start = case.start;
    for (task, crash_permille) in [(1, case.crash_permille), (2, None)] {
        let plan = mgr
            .plan_for(id, TaskId(task), start, case.rounds, case.gap)
            .expect("positive durations");
        let end = plan.end();
        mgr.submit_run(id, plan).expect("the phone is idle");
        if let Some(permille) = crash_permille {
            let onset = end.duration_since(start).as_micros() * permille / 1_000;
            mgr.inject_crash(id, start + SimDuration::from_micros(onset))
                .expect("registered");
        }
        // From one interval before the run to one after it: instants
        // outside the run and past the crash must fail the same way.
        let mut t = start - case.interval;
        while t < end + case.interval * 2 {
            polled.push(poll(&mut mgr, id, t).map_err(|e| e.to_string()));
            t += case.interval;
        }
        reports.push(measure_run(&mut mgr, id).expect("the phone holds a run"));
        mgr.reboot(id).expect("registered");
        start = end + case.interval * 3;
    }
    let next_draw = mgr.phone_mut(id).expect("registered").voltage_uv_at(start);
    (polled, reports, next_draw)
}

proptest! {
    #[test]
    fn typed_sampling_equals_the_shell_route(case in cases()) {
        let typed = drive(&case, PhoneMgr::poll, PhoneMgr::measure_run);
        let shell = drive(&case, poll_via_shell, measure_run_via_shell);
        prop_assert_eq!(typed.0.len(), shell.0.len());
        for (a, b) in typed.0.iter().zip(&shell.0) {
            prop_assert_eq!(a, b, "poll diverged from the shell route in {:?}", case);
        }
        prop_assert_eq!(&typed.1, &shell.1, "measure_run diverged in {:?}", case);
        prop_assert_eq!(
            typed.2.to_bits(),
            shell.2.to_bits(),
            "noise streams are at different positions after {:?}",
            case
        );
    }
}
