//! Phone benchmarking: drive the emulated physical-device cluster the way
//! §IV-C does — select benchmarking phones, submit a run, poll them for
//! current, voltage, CPU, memory and traffic, and print a Table-I-style
//! stage report.
//!
//! ```sh
//! cargo run --example phone_benchmarking
//! ```

use simdc::phone::RunPlan;
use simdc::prelude::*;
use simdc::simrt::SeriesStats;

fn main() -> Result<(), SimdcError> {
    let mut mgr = PhoneMgr::paper_default(2024);
    println!(
        "fleet: {} phones ({} High / {} Low)",
        mgr.total(),
        mgr.count(DeviceGrade::High, None),
        mgr.count(DeviceGrade::Low, None),
    );

    // One poll per phone: the cleaned sample the paper's ADB battery yields.
    let high = mgr.select(DeviceGrade::High, 1, SimInstant::EPOCH)?[0];
    let low = mgr.select(DeviceGrade::Low, 1, SimInstant::EPOCH)?[0];
    for (label, phone) in [("High", high), ("Low", low)] {
        let plan = mgr.plan_for(
            phone,
            TaskId(1),
            SimInstant::EPOCH,
            2,
            SimDuration::from_secs(25),
        )?;
        mgr.submit_run(phone, plan)?;
        let t = SimInstant::EPOCH + SimDuration::from_secs(35); // mid-training
        let s = mgr.poll(phone, t)?;
        println!("\n[{label} {phone}] sample at {} ({}):", s.at, s.stage);
        println!("  current: {:.0} µA", s.current_ua);
        println!("  voltage: {:.3} mV", s.voltage_mv);
        println!("  cpu:     {:.1} %", s.cpu_pct);
        println!("  pss:     {:.0} KB", s.mem_kb);
        println!("  net:     {} bytes", s.net_bytes);
    }

    // Full measurement sessions, aggregated per stage.
    println!("\nTable-I-style stage report (2 training rounds each):");
    println!("grade | stage              | power mAh | duration min | comm KB");
    for phone in [high, low] {
        let report = mgr.measure_run(phone)?;
        for stage in [
            Stage::NoApk,
            Stage::ApkLaunch,
            Stage::Training,
            Stage::PostTraining,
            Stage::ApkClosed,
        ] {
            if let Some(m) = report.stage(stage) {
                println!(
                    "{:>5} | {:<18} | {:>9.2} | {:>12.2} | {:>7.2}",
                    report.grade.to_string(),
                    stage.label(),
                    m.power_mah,
                    m.duration_min,
                    m.comm_kb,
                );
            }
        }
        let cpu = SeriesStats::from_values(report.trace().map(|s| s.cpu_pct));
        let mem = SeriesStats::from_values(report.trace().map(|s| s.mem_mb()));
        println!(
            "      └ cpu {:.1}-{:.1}% (mean {:.1}), mem {:.1}-{:.1} MB over {} samples",
            cpu.min, cpu.max, cpu.mean, mem.min, mem.max, cpu.count
        );
    }

    // Failure injection: crash a phone mid-run and show the partial report.
    let victim = mgr.select(DeviceGrade::High, 1, SimInstant::EPOCH)?[0];
    let plan: RunPlan = mgr.plan_for(
        victim,
        TaskId(2),
        SimInstant::EPOCH,
        3,
        SimDuration::from_secs(20),
    )?;
    mgr.submit_run(victim, plan)?;
    mgr.inject_crash(victim, SimInstant::EPOCH + SimDuration::from_secs(50))?;
    let partial = mgr.measure_run(victim)?;
    println!(
        "\ncrash injection on {victim}: captured {} samples across {} stages before crashing",
        partial.samples.len(),
        partial.stages.len()
    );
    Ok(())
}
