//! The `traffic_shaping` workload: the paper's DeviceFlow traffic
//! controller, which no scenario reaches (`TaskTemplate` never sets a
//! dispatch strategy), driven directly through `FlowHarness`.
//!
//! Wider surface used than the scenario path: `DeviceFlow::{new,
//! register_task, stats}`, `FlowHarness::{new, ingest_at, round_completed_at,
//! run, delivered, flow}`, `DispatchStrategy`, `TrafficFunction`,
//! `Message::model_update`, `RngStream`.

use serde::Serialize;
use simdc_deviceflow::{
    DeviceFlow, DispatchStrategy, FlowHarness, TimePointRule, TimeSpec, TrafficFunction,
};
use simdc_simrt::RngStream;
use simdc_types::{
    DeviceId, Message, MessageId, RoundId, SimDuration, SimInstant, StorageKey, TaskId,
};

use crate::spans::{span_if, Tracer};
use crate::stats::Fnv64;
use crate::workload::{Phase, Shape, TrafficWorkload};

const TASK: TaskId = TaskId(1);
const ROUND: RoundId = RoundId(0);

/// What one phase delivered: the phase's output, pinned in
/// `expected/traffic_shaping.phases.json` at the default seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PhaseOutcome {
    /// Phase name.
    pub name: String,
    /// Messages ingested.
    pub received: u64,
    /// Messages delivered downstream.
    pub delivered: u64,
    /// Messages dropped by the dropout rule.
    pub dropped: u64,
    /// Batches released.
    pub batches: u64,
    /// FNV-1a digest of the `(release time, size, dropped)` sequence.
    pub digest: String,
}

impl PhaseOutcome {
    /// Messages neither delivered nor dropped by rule: the phase's failures.
    #[must_use]
    pub fn unaccounted(&self) -> u64 {
        self.received
            .saturating_sub(self.delivered)
            .saturating_sub(self.dropped)
    }
}

fn strategy(phase: &Phase, messages: u64) -> DispatchStrategy {
    match &phase.shape {
        Shape::Interval { seconds } => {
            let (function, domain) = TrafficFunction::right_tailed_normal(1.0);
            DispatchStrategy::TimeInterval {
                function,
                domain,
                start: TimeSpec::Relative(SimDuration::ZERO),
                interval: SimDuration::from_secs(*seconds),
                dropout: phase.dropout,
            }
        }
        Shape::Points(bursts) => {
            // Shares become counts; the last burst takes the rounding
            // remainder so the counts always sum to `messages`.
            let mut left = messages;
            let points = bursts
                .iter()
                .enumerate()
                .map(|(i, (secs, share))| {
                    let count = if i + 1 == bursts.len() {
                        left
                    } else {
                        ((messages as f64 * share).round() as u64).min(left)
                    };
                    left -= count;
                    TimePointRule {
                        at: TimeSpec::Relative(SimDuration::from_secs(*secs)),
                        count,
                        dropout: phase.dropout,
                    }
                })
                .collect();
            DispatchStrategy::TimePoints { points }
        }
    }
}

/// Runs one phase: a fresh harness with one registered task, every message
/// ingested at `t0`, the round completed one microsecond later, then the
/// flow drained. With a tracer, the ingest and drain calls are spans.
///
/// # Errors
///
/// Returns a message when the strategy is rejected.
pub fn run_phase(
    phase: &Phase,
    messages: u64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<PhaseOutcome, String> {
    let mut rng = RngStream::named(seed, &format!("traffic_shaping/{}", phase.name));
    let mut flow = DeviceFlow::new();
    flow.register_task(TASK, strategy(phase, messages))
        .map_err(|e| format!("phase {}: {e}", phase.name))?;
    let mut payload_rng = rng.fork("messages");
    let mut harness = FlowHarness::new(flow, rng);
    let t0 = SimInstant::EPOCH;

    span_if(tracer.as_deref_mut(), "deviceflow.ingest", || {
        for i in 0..messages {
            let device = DeviceId(i);
            let samples = 1 + payload_rng.index(64) as u64;
            harness.ingest_at(
                t0,
                Message::model_update(
                    MessageId(i),
                    TASK,
                    device,
                    ROUND,
                    samples,
                    StorageKey::for_update(TASK, ROUND, device),
                    t0,
                ),
            );
        }
        harness.round_completed_at(t0 + SimDuration::from_micros(1), TASK, ROUND);
    });
    span_if(tracer, "deviceflow.run", || harness.run());

    let mut digest = Fnv64::default();
    for batch in harness.delivered() {
        digest.write_u64(batch.at.duration_since(SimInstant::EPOCH).as_micros());
        digest.write_u64(batch.messages.len() as u64);
        digest.write_u64(batch.dropped);
    }
    let stats = harness
        .flow()
        .stats(TASK)
        .ok_or("registered task has no stats")?;
    Ok(PhaseOutcome {
        name: phase.name.clone(),
        received: stats.received,
        delivered: harness.delivered_messages(),
        dropped: stats.dropped,
        batches: harness.delivered().len() as u64,
        digest: digest.hex(),
    })
}

/// Runs every phase in order, each harness dropped before the next starts.
///
/// # Errors
///
/// Returns the first phase error.
pub fn run_phases(
    file: &TrafficWorkload,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<PhaseOutcome>, String> {
    file.phases
        .iter()
        .map(|phase| run_phase(phase, file.messages, seed, tracer.as_deref_mut()))
        .collect()
}

/// Checks the phases against what the rules allow, whatever the seed:
/// every message is delivered or dropped by rule, and a phase without
/// dropout delivers all of them.
#[must_use]
pub fn problems(file: &TrafficWorkload, outcomes: &[PhaseOutcome]) -> Vec<String> {
    let mut out = Vec::new();
    for (phase, outcome) in file.phases.iter().zip(outcomes) {
        if outcome.received != file.messages {
            out.push(format!(
                "{}: received {} of {} messages",
                phase.name, outcome.received, file.messages
            ));
        }
        if outcome.unaccounted() != 0 || outcome.delivered + outcome.dropped != outcome.received {
            out.push(format!(
                "{}: {} delivered + {} dropped != {} received",
                phase.name, outcome.delivered, outcome.dropped, outcome.received
            ));
        }
        let no_dropout = phase.dropout.probability == 0.0 && phase.dropout.random_discard == 0;
        if no_dropout && outcome.dropped != 0 {
            out.push(format!(
                "{}: dropped {} messages without a dropout rule",
                phase.name, outcome.dropped
            ));
        }
    }
    out
}
