//! `compare A.json B.json`: applies every end-to-end metric's bound to two
//! sets of runs, one row per (workload, metric).
//!
//! A row is `ok` when B's value is no worse than A's by more than the
//! bound, `worse` when it is and the two sets' ranges are disjoint, and
//! `unresolved` when it is but the ranges overlap: the spread between
//! repetitions is then wider than the difference, and neither "regressed"
//! nor "unchanged" is shown. A set's range runs from its best repetition to
//! its median one; the worse half is what the host's co-tenants did to the
//! run, not what the program did. Every ratio is printed with its base.

use crate::driver::{ResultSet, Sampled, WorkloadResult};
use crate::registry::{Better, END_TO_END};

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Beyond the bound, but the repetitions' ranges overlap.
    Unresolved,
    /// Beyond the bound with disjoint ranges.
    Worse,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Share of `a` by which `b` is worse; negative when `b` is better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A sample set's range from its best repetition to its median one.
fn better_half(better: Better, m: &Sampled) -> (f64, f64) {
    match better {
        Better::Lower => (m.min, m.median),
        Better::Higher => (m.median, m.max),
    }
}

/// Judges one metric of B against the same metric of A.
#[must_use]
pub fn judge(better: Better, bound: f64, a: &Sampled, b: &Sampled) -> Verdict {
    let (a_range, b_range) = (better_half(better, a), better_half(better, b));
    if worse_by(better, a.value, b.value) <= bound {
        Verdict::Ok
    } else if a_range.0 <= b_range.1 && b_range.0 <= a_range.1 {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn failed_share(result: &WorkloadResult) -> f64 {
    result.failed as f64 / result.attempted.max(1) as f64
}

/// Compares two result sets. Returns the report and whether any row is
/// `worse`.
#[must_use]
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "A: seed {}, {} s per run, {} CPUs; B: seed {}, {} s per run, {} CPUs",
        a.seed, a.seconds, a.host_cpus, b.seed, b.seconds, b.host_cpus
    );
    for ra in &a.end_to_end {
        let Some(rb) = b.end_to_end.iter().find(|r| r.workload == ra.workload) else {
            let _ = writeln!(out, "{:<16} missing from B: worse", ra.workload);
            any_worse = true;
            continue;
        };
        for metric in &END_TO_END {
            let find =
                |r: &WorkloadResult| r.metrics.iter().find(|m| m.name == metric.name).cloned();
            let (Some(ma), Some(mb)) = (find(ra), find(rb)) else {
                let _ = writeln!(
                    out,
                    "{:<16} {:<14} missing: worse",
                    ra.workload, metric.name
                );
                any_worse = true;
                continue;
            };
            let verdict = judge(metric.better, metric.bound, &ma, &mb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<16} {:<14} {:<10} B/A = {:.6} / {:.6} = {:.4} {} (bound {:.0} %, {} is better; \
                 best to median: A [{:.6}, {:.6}] n {}, B [{:.6}, {:.6}] n {})",
                ra.workload,
                metric.name,
                verdict.as_str(),
                mb.value,
                ma.value,
                mb.value / ma.value,
                metric.unit,
                metric.bound * 100.0,
                metric.better.as_str(),
                better_half(metric.better, &ma).0,
                better_half(metric.better, &ma).1,
                ma.samples,
                better_half(metric.better, &mb).0,
                better_half(metric.better, &mb).1,
                mb.samples,
            );
        }
        // failed_share has no tolerance: any rise is a regression.
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<16} {:<14} {:<10} B {} / {} = {fb}, A {} / {} = {fa} (any rise is worse)",
            ra.workload,
            "failed_share",
            verdict.as_str(),
            rb.failed,
            rb.attempted,
            ra.failed,
            ra.attempted,
        );
        // Simulated statistics are not metrics: a change to the simulator's
        // speed must leave every one of them identical.
        let same_inputs = a.seed == b.seed;
        let verdict = match (ra.correct && rb.correct, same_inputs) {
            (false, _) => Verdict::Worse,
            (true, true) if ra.output_digest != rb.output_digest => Verdict::Worse,
            _ => Verdict::Ok,
        };
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<16} {:<14} {:<10} A {} ({}), B {} ({}){}",
            ra.workload,
            "output",
            verdict.as_str(),
            ra.output_digest,
            if ra.correct { "correct" } else { "incorrect" },
            rb.output_digest,
            if rb.correct { "correct" } else { "incorrect" },
            if same_inputs {
                ""
            } else {
                " (seeds differ, digests not compared)"
            },
        );
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample set whose reported value is its median.
    fn sampled(value: f64, min: f64, max: f64) -> Sampled {
        Sampled {
            name: "wall_s".into(),
            unit: "s".into(),
            value,
            min,
            max,
            median: value,
            samples: 5,
        }
    }

    #[test]
    fn within_bound_is_ok_in_both_directions() {
        let a = sampled(1.0, 0.98, 1.02);
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sampled(1.09, 1.08, 1.10)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(0.91, 0.90, 0.92)),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sampled(0.5, 0.5, 0.5)),
            Verdict::Ok,
            "an improvement is never a regression"
        );
    }

    #[test]
    fn beyond_bound_is_worse_only_with_disjoint_ranges() {
        let a = sampled(1.0, 0.9, 1.3);
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sampled(1.2, 0.95, 1.4)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sampled(1.2, 1.15, 1.4)),
            Verdict::Worse,
            "A's slow repetitions are noise, not overlap"
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &sampled(1.5, 1.4, 1.6)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &sampled(0.5, 0.4, 0.6)),
            Verdict::Worse
        );
    }
}
