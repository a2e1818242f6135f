//! What the kernel says about this process: peak resident set and user CPU
//! time, read from `/proc/self` because no libc binding is available.

use std::fs;

/// Scheduler ticks per second. `sysconf(_SC_CLK_TCK)` needs libc; every
/// mainstream Linux build fixes `USER_HZ` at 100.
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` cannot be read or parsed.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kib / 1024.0)
}

/// User-mode CPU time of this process so far, all threads, seconds.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` cannot be read or parsed.
pub fn user_cpu_secs() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis, and utime is field 14.
    let after_comm = stat
        .rsplit_once(')')
        .ok_or("no command field in /proc/self/stat")?
        .1;
    let ticks: f64 = after_comm
        .split_whitespace()
        .nth(11)
        .and_then(|v| v.parse().ok())
        .ok_or("no utime field in /proc/self/stat")?;
    Ok(ticks / TICKS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_memory_and_a_clock() {
        assert!(peak_rss_mib().unwrap() > 0.5);
        assert!(user_cpu_secs().unwrap() >= 0.0);
    }
}
