//! The emulated ADB shell.
//!
//! Supports exactly the command surface §IV-C of the paper uses for
//! performance measurement, including `| grep …` post-filtering:
//!
//! * `cat /sys/class/power_supply/battery/current_now` — µA integer
//! * `cat /sys/class/power_supply/battery/voltage_now` — µV integer
//! * `pgrep -f <name>` — pid of the training process (empty if absent)
//! * `top -b -n 1 -p <pid>` — batch-mode snapshot with a `%CPU` column
//! * `dumpsys <name>` — meminfo dump containing a `TOTAL PSS:` line (KB)
//! * `cat /proc/<pid>/net/dev` — interface counters (wlan0 carries the
//!   training traffic)
//!
//! Outputs deliberately include the header/noise lines real tools print, so
//! the post-processing in [`crate::measure`] (the "extract valid data" step
//! of the paper) has something to extract from. PhoneMgr itself does not
//! go through this text: it samples [`PhoneDevice`]'s typed reading, and
//! `tests/poll_reference.rs` pins that reading to what these commands
//! print. The shell is the rendered view of a phone — for
//! `examples/phone_benchmarking.rs` and for that oracle.

use simdc_types::{Result, SimInstant, SimdcError};

use crate::device::PhoneDevice;
use crate::TRAIN_PROCESS;

/// Executes `cmd` against `phone` at virtual time `now`.
///
/// # Errors
///
/// Returns [`SimdcError::AdbCommand`] for unsupported commands, unknown
/// paths, missing processes, or malformed pipelines.
pub fn exec(phone: &mut PhoneDevice, cmd: &str, now: SimInstant) -> Result<String> {
    let mut segments = cmd.split('|').map(str::trim);
    let first = segments
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| SimdcError::AdbCommand("empty command".into()))?;

    let mut output = run_primary(phone, first, now)?;
    for filter in segments {
        output = apply_filter(&output, filter)?;
    }
    Ok(output)
}

fn run_primary(phone: &mut PhoneDevice, cmd: &str, now: SimInstant) -> Result<String> {
    let tokens: Vec<&str> = cmd.split_whitespace().collect();
    match tokens.as_slice() {
        ["cat", path] => cat(phone, path, now),
        ["pgrep", "-f", name] => Ok(pgrep(phone, name, now)),
        ["top", "-b", "-n", "1", "-p", pid] => top(phone, pid, now),
        ["dumpsys", name] => dumpsys(phone, name, now),
        _ => Err(SimdcError::AdbCommand(format!(
            "unsupported command: {cmd}"
        ))),
    }
}

fn apply_filter(input: &str, filter: &str) -> Result<String> {
    let tokens: Vec<&str> = filter.split_whitespace().collect();
    match tokens.as_slice() {
        ["grep", pattern] => Ok(input
            .lines()
            .filter(|l| l.contains(pattern))
            .collect::<Vec<_>>()
            .join("\n")),
        _ => Err(SimdcError::AdbCommand(format!(
            "unsupported pipeline stage: {filter}"
        ))),
    }
}

fn cat(phone: &mut PhoneDevice, path: &str, now: SimInstant) -> Result<String> {
    match path {
        "/sys/class/power_supply/battery/current_now" => {
            // Negative sign: discharging, as most kernels report it.
            Ok(format!("-{}", phone.current_ua_at(now).round() as i64))
        }
        "/sys/class/power_supply/battery/voltage_now" => {
            Ok(format!("{}", phone.voltage_uv_at(now).round() as i64))
        }
        _ if path.starts_with("/proc/") && path.ends_with("/net/dev") => {
            let pid_str = &path["/proc/".len()..path.len() - "/net/dev".len()];
            let pid: u32 = pid_str
                .parse()
                .map_err(|_| SimdcError::AdbCommand(format!("cat: {path}: invalid pid")))?;
            match phone.train_pid_at(now) {
                Some(p) if p == pid => Ok(net_dev(phone, now)),
                _ => Err(SimdcError::AdbCommand(format!(
                    "cat: {path}: No such file or directory"
                ))),
            }
        }
        _ => Err(SimdcError::AdbCommand(format!(
            "cat: {path}: No such file or directory"
        ))),
    }
}

fn pgrep(phone: &PhoneDevice, name: &str, now: SimInstant) -> String {
    if name == TRAIN_PROCESS {
        match phone.train_pid_at(now) {
            Some(pid) => pid.to_string(),
            None => String::new(),
        }
    } else {
        String::new()
    }
}

fn top(phone: &mut PhoneDevice, pid_str: &str, now: SimInstant) -> Result<String> {
    let pid: u32 = pid_str
        .parse()
        .map_err(|_| SimdcError::AdbCommand(format!("top: bad pid '{pid_str}'")))?;
    let Some(actual) = phone.train_pid_at(now) else {
        return Err(SimdcError::AdbCommand(format!(
            "top: no process found for pid {pid}"
        )));
    };
    if actual != pid {
        return Err(SimdcError::AdbCommand(format!(
            "top: no process found for pid {pid}"
        )));
    }
    let cpu = phone.cpu_pct_at(now);
    let mem_kb = phone.mem_kb_at(now);
    let mem_pct = mem_kb / (6.0 * 1024.0 * 1024.0) * 100.0;
    Ok(format!(
        "Tasks: 1 total, 1 running, 0 sleeping, 0 stopped, 0 zombie\n\
         Mem:   5873664K total,  3985312K used,  1888352K free,   184320K buffers\n\
         400%cpu  57%user   0%nice  41%sys 299%idle   0%iow   3%irq   0%sirq\n\
         \x20 PID USER         PR  NI VIRT  RES  SHR S [%CPU] %MEM     TIME+ ARGS\n\
         {pid:5} u0_a217      10 -10 1.9G {res}M {shr}M S  {cpu:.1} {mem_pct:.1}   0:42.17 {proc}",
        res = (mem_kb / 1024.0).round() as u64,
        shr = (mem_kb / 2048.0).round() as u64,
        cpu = cpu,
        mem_pct = mem_pct,
        proc = TRAIN_PROCESS,
    ))
}

fn dumpsys(phone: &mut PhoneDevice, name: &str, now: SimInstant) -> Result<String> {
    if name != TRAIN_PROCESS {
        return Err(SimdcError::AdbCommand(format!(
            "dumpsys: can't find service: {name}"
        )));
    }
    let Some(pid) = phone.train_pid_at(now) else {
        return Err(SimdcError::AdbCommand(format!(
            "dumpsys: no process found for {name}"
        )));
    };
    let pss_kb = phone.mem_kb_at(now).round() as u64;
    let private = (pss_kb as f64 * 0.8).round() as u64;
    Ok(format!(
        "Applications Memory Usage (in Kilobytes):\n\
         Uptime: 86042113 Realtime: 214673122\n\n\
         ** MEMINFO in pid {pid} [{name}] **\n\
         \x20                  Pss  Private  Private  SwapPss      Rss     Heap\n\
         \x20                Total    Dirty    Clean    Dirty    Total     Size\n\
         \x20 Native Heap  {nh:8} {nhd:8}        0        0 {nhr:8}    20480\n\
         \x20       TOTAL PSS: {pss_kb} kB   TOTAL Private: {private} kB   TOTAL RSS: {rss} kB\n",
        nh = pss_kb / 3,
        nhd = pss_kb / 4,
        nhr = pss_kb / 2,
        rss = pss_kb * 2,
    ))
}

fn net_dev(phone: &PhoneDevice, now: SimInstant) -> String {
    let (rx, tx) = phone.net_rx_tx_at(now);
    format!(
        "Inter-|   Receive                                                |  Transmit\n\
         \x20face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n\
         \x20   lo:    4820      52    0    0    0     0          0         0     4820      52    0    0    0     0       0          0\n\
         \x20rmnet0:       0       0    0    0    0     0          0         0        0       0    0    0    0     0       0          0\n\
         \x20wlan0: {rx:8} {rxp:7}    0    0    0     0          0         0 {tx:8} {txp:7}    0    0    0     0       0          0",
        rx = rx,
        rxp = rx / 900 + 1,
        tx = tx,
        txp = tx / 900 + 1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Provenance;
    use crate::stage::RunPlan;
    use simdc_types::{DeviceGrade, PhoneId, SimDuration, TaskId};

    fn busy_phone() -> PhoneDevice {
        let mut p = PhoneDevice::new(PhoneId(2), DeviceGrade::Low, Provenance::Msp, 11);
        let plan = RunPlan::new(
            TaskId(9),
            PhoneId(2),
            SimInstant::EPOCH,
            &[SimDuration::from_secs(22)],
            &[],
        )
        .unwrap();
        p.assign_run(plan).unwrap();
        p
    }

    fn training_time() -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(35)
    }

    #[test]
    fn current_is_negative_integer_microamps() {
        let mut p = busy_phone();
        let out = p
            .adb_shell(
                "cat /sys/class/power_supply/battery/current_now",
                training_time(),
            )
            .unwrap();
        let value: i64 = out.parse().unwrap();
        assert!(value < 0, "discharging current is negative: {out}");
        // Low-grade training ≈ 110 mA = 110 000 µA.
        assert!((-value - 110_000).abs() < 10_000, "{out}");
    }

    #[test]
    fn voltage_is_microvolts() {
        let mut p = busy_phone();
        let out = p
            .adb_shell(
                "cat /sys/class/power_supply/battery/voltage_now",
                training_time(),
            )
            .unwrap();
        let uv: i64 = out.parse().unwrap();
        assert!((3_700_000..3_900_000).contains(&uv), "{uv}");
    }

    #[test]
    fn pgrep_finds_training_process_only_when_alive() {
        let mut p = busy_phone();
        let pid = p
            .adb_shell("pgrep -f com.simdc.train", training_time())
            .unwrap();
        assert!(pid.parse::<u32>().is_ok(), "pid output: {pid}");
        // Stage 1 (t=5s): APK not yet launched.
        let early = p
            .adb_shell(
                "pgrep -f com.simdc.train",
                SimInstant::EPOCH + SimDuration::from_secs(5),
            )
            .unwrap();
        assert!(early.is_empty());
        // Unknown process name.
        let other = p
            .adb_shell("pgrep -f com.example.other", training_time())
            .unwrap();
        assert!(other.is_empty());
    }

    #[test]
    fn top_contains_cpu_column_with_junk_lines() {
        let mut p = busy_phone();
        let pid = p
            .adb_shell("pgrep -f com.simdc.train", training_time())
            .unwrap();
        let out = p
            .adb_shell(&format!("top -b -n 1 -p {pid}"), training_time())
            .unwrap();
        assert!(out.lines().count() >= 5, "top prints headers: {out}");
        assert!(out.contains("%CPU"));
        assert!(out.contains(TRAIN_PROCESS));
    }

    #[test]
    fn top_rejects_wrong_pid() {
        let mut p = busy_phone();
        assert!(p.adb_shell("top -b -n 1 -p 1", training_time()).is_err());
    }

    #[test]
    fn dumpsys_grep_pss_isolates_the_total_line() {
        let mut p = busy_phone();
        let out = p
            .adb_shell("dumpsys com.simdc.train | grep PSS", training_time())
            .unwrap();
        assert_eq!(out.lines().count(), 1, "grep leaves one line: {out}");
        assert!(out.contains("TOTAL PSS:"));
    }

    #[test]
    fn net_dev_grep_wlan() {
        let mut p = busy_phone();
        let pid = p
            .adb_shell("pgrep -f com.simdc.train", training_time())
            .unwrap();
        let out = p
            .adb_shell(
                &format!("cat /proc/{pid}/net/dev | grep wlan"),
                training_time(),
            )
            .unwrap();
        assert_eq!(out.lines().count(), 1);
        assert!(out.trim_start().starts_with("wlan0:"));
    }

    #[test]
    fn unknown_commands_fail() {
        let mut p = busy_phone();
        assert!(p.adb_shell("reboot", training_time()).is_err());
        assert!(p.adb_shell("cat /etc/passwd", training_time()).is_err());
        assert!(p.adb_shell("", training_time()).is_err());
        assert!(p
            .adb_shell("dumpsys com.simdc.train | sort", training_time())
            .is_err());
    }

    #[test]
    fn proc_net_dev_requires_live_matching_pid() {
        let mut p = busy_phone();
        assert!(p
            .adb_shell("cat /proc/99999/net/dev", training_time())
            .is_err());
        assert!(p
            .adb_shell("cat /proc/abc/net/dev", training_time())
            .is_err());
    }
}
