//! Quickstart: run the eSLAM pipeline on a synthetic TUM-like sequence
//! and print the per-frame tracking reports plus the final trajectory
//! error.
//!
//! ```text
//! cargo run --release -p eslam-core --example quickstart
//! ```

use eslam_core::{Overrides, Slam, SlamConfig};
use eslam_dataset::absolute_trajectory_error;
use eslam_dataset::sequence::SequenceSpec;
use eslam_dataset::Trajectory;

fn main() {
    // Half-resolution fr1/desk stand-in: 30 frames of a desk sweep.
    let image_scale = 0.5;
    let spec = &SequenceSpec::paper_sequences(30, image_scale)[2];
    let sequence = spec.build();
    println!(
        "sequence {} · {} frames · camera {}x{}",
        sequence.name,
        sequence.len(),
        sequence.camera.width,
        sequence.camera.height
    );

    // `ESLAM_*` variables (bands, backend, telemetry) apply on top.
    let mut config = SlamConfig::scaled_for_tests(1.0 / image_scale);
    Overrides::from_env().apply(&mut config);
    let mut slam = Slam::builder().config(config).build();

    // Stream through one recycled frame buffer: after the first frame
    // the dataset layer allocates nothing (`run_sequence` does the same
    // internally, plus async prefetch per `SlamConfig::prefetch`).
    let mut frame = eslam_dataset::Frame::buffer();
    let mut wait_ms = 0.0;
    let mut track_ms = 0.0;
    println!("frame  kf  matches  inliers  map    FE(model)  FM(model)");
    for index in 0..sequence.len() {
        let t0 = std::time::Instant::now();
        sequence.frame_into(index, &mut frame);
        wait_ms += t0.elapsed().as_secs_f64() * 1e3;
        let r = slam.process(frame.timestamp, &frame.gray, &frame.depth);
        track_ms += r.track_ms;
        let hw = r.hw_timing.unwrap_or_default();
        println!(
            "{:>5}  {}  {:>7}  {:>7}  {:>5}  {:>7.2}ms  {:>7.2}ms{}",
            r.index,
            if r.is_keyframe { "K" } else { "·" },
            r.raw_matches,
            r.inliers,
            r.map_size,
            hw.fe_ms,
            hw.fm_ms,
            if r.tracking_ok {
                ""
            } else {
                "   <-- tracking lost"
            },
        );
    }

    // Evaluate against ground truth (rebased to the first frame, which
    // the SLAM run uses as its world origin).
    let first = sequence.trajectory.poses()[0].pose;
    let mut truth = Trajectory::new();
    for tp in sequence.trajectory.poses() {
        truth.push(tp.timestamp, first.inverse().compose(&tp.pose));
    }
    match absolute_trajectory_error(slam.trajectory(), &truth) {
        Some(ate) => println!(
            "\nATE over {} poses: rmse {:.2} cm · mean {:.2} cm · max {:.2} cm",
            ate.stats.count,
            ate.stats.rmse * 100.0,
            ate.stats.mean * 100.0,
            ate.stats.max * 100.0
        ),
        None => println!("\nATE not computable (too few poses)"),
    }
    println!("keyframes: {}", slam.keyframes());
    println!(
        "wall split: {wait_ms:.1} ms waiting for pixels, {track_ms:.1} ms tracking \
         (run_sequence with prefetch overlaps the two)"
    );
}
