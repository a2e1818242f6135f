//! Pins DeviceFlow's exact output: for five strategies at fixed seeds, an
//! FNV-1a digest over every released batch (release µs, the message ids in
//! order, the dropped count) and over the task's final statistics.
//!
//! Any change to the RNG draw order, the discard's removal order, the
//! capacity spill or the event push order moves the digest. The assertion
//! message prints the observed value.

use simdc_deviceflow::{
    DeviceFlow, DispatchStrategy, Dropout, FlowHarness, TimePointRule, TimeSpec, TrafficFunction,
};
use simdc_simrt::RngStream;
use simdc_types::{
    DeviceId, Message, MessageId, RoundId, SimDuration, SimInstant, StorageKey, TaskId,
};

const TASK: TaskId = TaskId(1);
const ROUND: RoundId = RoundId(0);

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn msg(i: u64, at: SimInstant) -> Message {
    Message::model_update(
        MessageId(i),
        TASK,
        DeviceId(i),
        ROUND,
        1 + i % 7,
        StorageKey::for_update(TASK, ROUND, DeviceId(i)),
        at,
    )
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn interval(dropout: Dropout) -> DispatchStrategy {
    let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
    DispatchStrategy::TimeInterval {
        function,
        domain,
        start: TimeSpec::Relative(SimDuration::ZERO),
        interval: secs(60),
        dropout,
    }
}

/// One run: `messages` ingested 10 ms apart from the epoch; a real-time
/// strategy gets its round start first, a rule-based one its completion
/// after the last ingest. The flow is then drained.
fn run(strategy: DispatchStrategy, messages: u64, seed: u64, digest: &mut Fnv) {
    let realtime = strategy.activates_at_round_start();
    let mut flow = DeviceFlow::new();
    flow.register_task(TASK, strategy).unwrap();
    let mut harness = FlowHarness::new(flow, RngStream::from_seed(seed));
    if realtime {
        harness.round_started(TASK, ROUND);
    }
    let at = |i: u64| SimInstant::EPOCH + SimDuration::from_millis(10 * i);
    for i in 0..messages {
        harness.ingest_at(at(i), msg(i, at(i)));
    }
    if !realtime {
        harness.round_completed_at(at(messages), TASK, ROUND);
    }
    harness.run();
    for batch in harness.delivered() {
        digest.write(batch.at.duration_since(SimInstant::EPOCH).as_micros());
        digest.write(batch.messages.len() as u64);
        for m in &batch.messages {
            digest.write(m.id.0);
        }
        digest.write(batch.dropped);
    }
    let stats = harness.flow().stats(TASK).unwrap();
    digest.write(stats.received);
    digest.write(stats.dispatched);
    digest.write(stats.dropped);
}

#[test]
fn deviceflow_output_is_pinned() {
    let mut digest = Fnv::default();
    run(
        DispatchStrategy::RealTimeAccumulated {
            thresholds: vec![20, 100, 50],
            failure_prob: 0.3,
        },
        700,
        11,
        &mut digest,
    );
    // 1 500 at one point is over the 700/s capacity: it spills over the
    // next two seconds, each spill batch under the same dropout.
    run(
        DispatchStrategy::TimePoints {
            points: vec![
                TimePointRule {
                    at: TimeSpec::Relative(secs(2)),
                    count: 1_500,
                    dropout: Dropout {
                        probability: 0.0,
                        random_discard: 5,
                    },
                },
                TimePointRule {
                    at: TimeSpec::Relative(secs(10)),
                    count: 400,
                    dropout: Dropout {
                        probability: 0.1,
                        random_discard: 3,
                    },
                },
            ],
        },
        1_800,
        12,
        &mut digest,
    );
    run(
        interval(Dropout {
            probability: 0.2,
            random_discard: 100,
        }),
        10_000,
        13,
        &mut digest,
    );
    run(interval(Dropout::NONE), 10_000, 14, &mut digest);
    // One absolute point still ahead of the completion, one already past
    // it (released at the completion instant).
    run(
        DispatchStrategy::TimePoints {
            points: vec![
                TimePointRule {
                    at: TimeSpec::Absolute(SimInstant::EPOCH + secs(30)),
                    count: 60,
                    dropout: Dropout::NONE,
                },
                TimePointRule {
                    at: TimeSpec::Absolute(SimInstant::EPOCH),
                    count: 25,
                    dropout: Dropout::NONE,
                },
            ],
        },
        100,
        15,
        &mut digest,
    );
    assert_eq!(
        format!("{:016x}", digest.0),
        "2ca738866eee96e9",
        "DeviceFlow output digest moved"
    );
}
