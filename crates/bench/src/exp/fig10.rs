//! Fig 10 — rule-based dispatch strategies end to end.
//!
//! (a/b) specific time-point dispatching: bursts at user-set points, with
//! the single-threaded rate cap spilling overflow into subsequent seconds;
//! the cloud's cumulative intake forms the staircase of Fig 10(b).
//! (c/d) specific time-interval dispatching: a right-tailed `N(0,1)` curve
//! scaled to 1 minute / 10,000 messages; per-second send amounts track the
//! curve and the cloud receives all 10,000 within the interval.

use serde::Serialize;
use simdc_deviceflow::{
    DeviceFlow, DispatchStrategy, Dropout, FlowHarness, TimePointRule, TimeSpec, TrafficFunction,
};
use simdc_simrt::{pearson_correlation, RngStream};
use simdc_types::{
    DeviceId, Message, MessageId, RoundId, SimDuration, SimInstant, StorageKey, TaskId,
};

use crate::{f, render_table, ExpOptions};

/// The four panels.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// (a) `(second, amount)` sends of the time-point strategy.
    pub point_sends: Vec<(f64, u64)>,
    /// (b) `(second, cumulative received)` at the cloud.
    pub point_cumulative: Vec<(f64, u64)>,
    /// (c) `(second, amount)` sends of the time-interval strategy.
    pub interval_sends: Vec<(f64, u64)>,
    /// (d) `(second, cumulative received)` at the cloud.
    pub interval_cumulative: Vec<(f64, u64)>,
    /// Pearson r between (c) and the user curve.
    pub interval_correlation: f64,
}

fn message(i: u64, at: SimInstant) -> Message {
    Message::model_update(
        MessageId(i),
        TaskId(1),
        DeviceId(i),
        RoundId(0),
        1,
        StorageKey::for_update(TaskId(1), RoundId(0), DeviceId(i)),
        at,
    )
}

/// `(second, amount)` series: per-event sends and the cumulative intake.
type SendSeries = (Vec<(f64, u64)>, Vec<(f64, u64)>);

fn run_strategy(strategy: DispatchStrategy, volume: u64, seed: u64) -> SendSeries {
    let mut flow = DeviceFlow::new();
    flow.register_task(TaskId(1), strategy)
        .expect("valid strategy");
    let mut harness = FlowHarness::new(flow, RngStream::named(seed, "fig10"));
    let t0 = SimInstant::EPOCH;
    for i in 0..volume {
        harness.ingest_at(t0, message(i, t0));
    }
    harness.round_completed_at(t0 + SimDuration::from_micros(1), TaskId(1), RoundId(0));
    harness.run();

    let sends: Vec<(f64, u64)> = harness
        .delivered()
        .iter()
        .map(|b| (b.at.as_secs_f64(), b.messages.len() as u64))
        .collect();
    let mut cumulative = Vec::with_capacity(sends.len());
    let mut total = 0u64;
    for &(t, n) in &sends {
        total += n;
        cumulative.push((t, total));
    }
    (sends, cumulative)
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on invalid strategies (a bug in the fixture).
pub fn run(opts: &ExpOptions) -> Fig10 {
    let volume = if opts.quick { 3_000 } else { 10_000 };

    // (a/b): three bursts at 10/25/40 s; the middle one exceeds the 700/s
    // cap so it spills into following seconds.
    let point = DispatchStrategy::TimePoints {
        points: vec![
            TimePointRule {
                at: TimeSpec::Relative(SimDuration::from_secs(10)),
                count: volume / 5,
                dropout: Dropout::NONE,
            },
            TimePointRule {
                at: TimeSpec::Relative(SimDuration::from_secs(25)),
                count: volume / 2,
                dropout: Dropout::NONE,
            },
            TimePointRule {
                at: TimeSpec::Relative(SimDuration::from_secs(40)),
                count: volume - volume / 5 - volume / 2,
                dropout: Dropout::NONE,
            },
        ],
    };
    let (point_sends, point_cumulative) = run_strategy(point, volume, opts.seed);

    // (c/d): right-tailed N(0,1) scaled to a 1-minute interval.
    let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
    let interval = DispatchStrategy::TimeInterval {
        function: function.clone(),
        domain,
        start: TimeSpec::Relative(SimDuration::ZERO),
        interval: SimDuration::from_secs(60),
        dropout: Dropout::NONE,
    };
    let (interval_sends, interval_cumulative) = run_strategy(interval, volume, opts.seed + 1);

    let xs: Vec<f64> = interval_sends
        .iter()
        .map(|&(t, _)| function.eval(domain.lerp(t / 60.0)))
        .collect();
    let ys: Vec<f64> = interval_sends.iter().map(|&(_, n)| n as f64).collect();
    let interval_correlation = pearson_correlation(&xs, &ys);

    let result = Fig10 {
        point_sends,
        point_cumulative,
        interval_sends,
        interval_cumulative,
        interval_correlation,
    };

    println!("Fig 10 — rule-based dispatch strategies");
    let rows: Vec<Vec<String>> = vec![
        vec![
            "time-point".into(),
            result.point_sends.len().to_string(),
            result
                .point_cumulative
                .last()
                .map_or(0, |&(_, n)| n)
                .to_string(),
        ],
        vec![
            "time-interval".into(),
            result.interval_sends.len().to_string(),
            result
                .interval_cumulative
                .last()
                .map_or(0, |&(_, n)| n)
                .to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(&["Mechanism", "Dispatch events", "Total received"], &rows)
    );
    println!(
        "  interval dispatch ↔ N(0,1) curve correlation: r = {}",
        f(result.interval_correlation, 4)
    );
    opts.write_json("fig10", &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_match_paper_shape() {
        let opts = ExpOptions {
            quick: false,
            out_dir: std::env::temp_dir().join("simdc-fig10-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let r = run(&opts);

        // (a) sends cluster around the three points, capped at 700.
        assert!(r.point_sends.iter().all(|&(_, n)| n <= 700));
        // The 5,000-message burst at t=25 spills over several seconds
        // (Fig 10(b): "receives the full messages over a period spanning
        // the designated time point and subsequent certain intervals").
        let spill: Vec<_> = r
            .point_sends
            .iter()
            .filter(|&&(t, _)| (25.0..35.0).contains(&t))
            .collect();
        assert!(spill.len() >= 7, "5000 msgs / 700 per s: {}", spill.len());
        // (b) everything arrives.
        assert_eq!(r.point_cumulative.last().unwrap().1, 10_000);

        // (c) tracks the curve.
        assert!(
            r.interval_correlation > 0.99,
            "r = {}",
            r.interval_correlation
        );
        // (d) full volume within the minute (+ small spill tolerance).
        assert_eq!(r.interval_cumulative.last().unwrap().1, 10_000);
        assert!(r.interval_cumulative.last().unwrap().0 <= 61.0);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
