//! Open-loop task arrivals: feed a sampled arrival process straight into
//! the platform.
//!
//! The scenario engine (`simdc-workload`) layers fleet dynamics and a
//! dispatch cadence on top of the event loop; when all you need is "tasks
//! arrive over time, run them", walk a sampled schedule with the same
//! three steps its loop takes at each arrival instant:
//! [`Platform::sync_to_arrival`], a [`Platform::submit`] per arrival due,
//! then one [`Platform::admit_now`], so priority decides tied arrivals.
//! Queueing delay shows up as `started_at - arrival` per task.
//!
//! ```sh
//! cargo run --release --example open_loop_arrivals
//! ```

use std::sync::Arc;

use simdc::prelude::*;
use simdc::simrt::RngStream;
use simdc::workload::ArrivalProcess;

fn main() -> Result<(), SimdcError> {
    let seed = 2025;
    let dataset = Arc::new(CtrDataset::generate(&GeneratorConfig {
        n_devices: 60,
        n_test_devices: 12,
        feature_dim: 1 << 12,
        seed,
        ..GeneratorConfig::default()
    }));

    // Sample 20 minutes of bursty traffic: light background load with a
    // 6x flash crowd every 8 minutes.
    let arrivals = ArrivalProcess::Bursty {
        base_per_min: 0.4,
        burst_multiplier: 6.0,
        burst_every: SimDuration::from_mins(8),
        burst_len: SimDuration::from_mins(1),
    };
    let mut rng = RngStream::named(seed, "open-loop/arrivals");
    let offsets = arrivals.sample(SimDuration::from_mins(20), &mut rng);

    let template = TaskTemplate::default();
    let mut template_rng = RngStream::named(seed, "open-loop/templates");
    let schedule: Vec<(SimInstant, TaskSpec)> = offsets
        .iter()
        .enumerate()
        .map(|(i, offset)| {
            (
                SimInstant::EPOCH + *offset,
                template.instantiate(TaskId(i as u64 + 1), &mut template_rng),
            )
        })
        .collect();
    println!("sampled {} arrivals over 20 min", schedule.len());

    let mut platform = Platform::paper_default();
    let (mut submitted, mut rejected, mut completed) = (0, 0, 0);
    let mut arrivals = schedule.iter().peekable();
    while let Some(&&(at, _)) = arrivals.peek() {
        completed += platform.sync_to_arrival(at);
        while let Some((_, spec)) = arrivals.next_if(|(t, _)| *t == at) {
            match platform.submit(spec.clone(), Arc::clone(&dataset)) {
                Ok(_) => submitted += 1,
                Err(_) => rejected += 1,
            }
        }
        platform.admit_now();
    }
    completed += platform.run_until_idle();
    println!("submitted {submitted}, rejected {rejected}, completed {completed}");

    for (arrival, spec) in &schedule {
        let Some(simdc::platform::TaskState::Completed {
            started_at,
            finished_at,
        }) = platform.task_state(spec.id)
        else {
            continue;
        };
        println!(
            "task {}: arrived {:>6.1}s  waited {:>6.1}s  ran {:>6.1}s",
            spec.id,
            arrival.duration_since(SimInstant::EPOCH).as_secs_f64(),
            started_at.duration_since(*arrival).as_secs_f64(),
            finished_at.duration_since(*started_at).as_secs_f64(),
        );
    }
    Ok(())
}
