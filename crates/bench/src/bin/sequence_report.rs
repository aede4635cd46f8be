//! End-to-end sequence report: runs the full SLAM pipeline on a
//! synthetic sequence and projects the per-frame workloads through the
//! three platform models (ARM / Intel i7 / eSLAM) under their respective
//! schedules — the sequence-level view of Table 3. Runs with full
//! telemetry and appends the measured per-stage latency percentiles
//! (see TELEMETRY.md).

use eslam_core::telemetry::{events, TelemetryMode};
use eslam_core::{run_sequence, Overrides, SlamConfig, Stage};
use eslam_dataset::sequence::SequenceSpec;

fn main() {
    // Harness binary: validate the ESLAM_* environment up front (it is
    // applied to the config below) and surface library warnings on
    // stderr as they happen.
    let overrides = Overrides::from_env();
    eprintln!("overrides: {}", overrides.report());
    events::mirror_to_stderr(true);

    let fast = std::env::args().any(|a| a == "--fast");
    let (frames, scale) = if fast { (10, 0.25) } else { (30, 0.5) };
    let spec = &SequenceSpec::paper_sequences(frames, scale)[2]; // fr1/desk
    println!(
        "sequence report: {} · {} frames at {}x resolution\n",
        spec.name, frames, scale
    );

    let seq = spec.build();
    let mut config = SlamConfig::scaled_for_tests(1.0 / scale);
    config.telemetry = config.telemetry.with_mode(TelemetryMode::Full);
    overrides.apply(&mut config);
    let result = run_sequence(&seq, config);

    let s = &result.stats;
    println!(
        "tracking   : {}/{} frames ok ({} keyframes, {} relocalizations)",
        s.tracked, s.frames, s.keyframes, s.relocalizations
    );
    println!(
        "workload   : mean M = {:.0} candidates, mean N = {:.0} kept, map {} (peak {})",
        s.mean_candidates, s.mean_kept, s.final_map_size, s.peak_map_size
    );
    println!(
        "matching   : mean {:.0} raw matches -> {:.0} inliers",
        s.mean_matches, s.mean_inliers
    );
    if let Some(ate) = result.ate_rmse_cm(Stage::Closed) {
        println!("accuracy   : ATE rmse {ate:.2} cm");
    }

    println!("\nplatform projection over this sequence (per-frame workloads through the models):");
    println!(
        "{:<10} {:>11} {:>12} {:>8} {:>12}",
        "platform", "total", "mean/frame", "fps", "energy"
    );
    for p in result.platform_timing() {
        println!(
            "{:<10} {:>9.1}ms {:>10.1}ms {:>8.2} {:>10.1}mJ",
            p.name, p.total_ms, p.mean_frame_ms, p.fps, p.energy_mj
        );
    }
    println!("\nNote: this projects the *actual* per-frame workloads (smaller frames, growing");
    println!("map) through the calibrated models, so absolute numbers differ from the");
    println!("VGA-nominal Table 3. At small frame sizes the ARM-hosted geometric stages");
    println!("(PE+PO+MU) dominate eSLAM's key-frame period, so the i7 can out-run it on");
    println!("runtime — the energy advantage is the robust claim, and the VGA workload");
    println!("restores the paper's full ordering (see table3_framerate_energy).");

    let [arm, i7, eslam] = result.platform_timing();
    // Robust invariants at any workload size: eSLAM beats the ARM host it
    // accelerates, and is the most energy-efficient platform.
    assert!(eslam.total_ms < arm.total_ms);
    assert!(eslam.energy_mj < arm.energy_mj && eslam.energy_mj < i7.energy_mj);

    // Measured (not modelled) per-stage latency distribution of this
    // host's run — the telemetry layer's summary view.
    if let Some(summary) = &result.telemetry {
        println!("\nmeasured stage latencies (telemetry, this host):");
        println!(
            "{:<20} {:>7} {:>9} {:>9} {:>9} {:>9}",
            "stage", "count", "p50", "p95", "p99", "max"
        );
        for s in &summary.stages {
            println!(
                "{:<20} {:>7} {:>7.3}ms {:>7.3}ms {:>7.3}ms {:>7.3}ms",
                s.stage.name(),
                s.count,
                s.p50_ms,
                s.p95_ms,
                s.p99_ms,
                s.max_ms
            );
        }
        if !summary.nonzero_counters().is_empty() {
            println!("\ncounters:");
            for (counter, value) in summary.nonzero_counters() {
                println!("  {:<28} {}", counter.name(), value);
            }
        }
    }
}
