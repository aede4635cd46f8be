//! The loop-closure tier: place recognition must fire on trajectories
//! that genuinely revisit their start (the `loop/*` sequences), must
//! stay silent on the five paper sequences (zero false positives), the
//! pose-graph correction must reduce end-of-run ATE against the
//! local-BA-only baseline, and the whole pipeline — detection,
//! verification, correction propagation — must stay **bit-identical**
//! between the sync and async backend modes.
//!
//! The loop scenario: the `loop/*` trajectories return exactly to
//! their start pose while the middle of the run faces other walls. A
//! tightened map-cull age retires the start landmarks long before the
//! camera returns, so the revisit cannot be absorbed by ordinary
//! map-based tracking — the only way to reconnect the loop ends is the
//! place-recognition path under test.

use eslam_core::{run_sequence, BackendMode, PrefetchMode, RunResult, SlamConfig, Stage};
use eslam_dataset::sequence::SequenceSpec;

const IMAGE_SCALE: f64 = 0.25;
/// Frames per loop sequence: long enough that the start landmarks age
/// out of the map (see `map_cull_age` below) and odometry drift
/// accumulates before the revisit.
const LOOP_FRAMES: usize = 48;

/// The tier's configuration: the paper defaults at quarter scale, with
/// a map-cull age short enough that a 48-frame loop genuinely forgets
/// its starting landmarks (at the default 45 the whole map survives
/// the loop and tracking silently re-uses it — no loop to close).
fn config() -> SlamConfig {
    let mut cfg = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
    cfg.map_cull_age = 12;
    cfg
}

fn run(spec: &SequenceSpec, mode: BackendMode, loop_enabled: bool) -> RunResult {
    let seq = spec.build();
    let mut cfg = config();
    cfg.backend.mode = mode;
    cfg.backend.loop_closure.enabled = loop_enabled;
    run_sequence(&seq, cfg)
}

#[test]
fn no_false_positives_on_paper_sequences() {
    // The five paper sequences, at their stock configuration, never
    // revisit a *forgotten* place — fr1/room sweeps the room but its
    // landmarks stay mapped the whole way around, so the revisit is
    // covisibility-connected and gated out. The loop closer must not
    // fire on any of them. (Under an artificially short map-cull age
    // room genuinely forgets its start and becomes a true loop
    // scenario — that is the loop tier's job, not a false positive.)
    let cfg = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
    for spec in &SequenceSpec::paper_sequences(24, IMAGE_SCALE) {
        let seq = spec.build();
        let result = run_sequence(&seq, cfg);
        let stats = result.backend.expect("backend on");
        assert_eq!(
            stats.loops_closed, 0,
            "{}: false-positive loop closure (candidates {}, rejected {})",
            spec.name, stats.loop_candidates, stats.loops_rejected
        );
        assert!(
            result.reports.iter().all(|r| !r.loop_closed),
            "{}: report flags a closure",
            spec.name
        );
        // No correction applied → the estimate equals the BA-only
        // reference bit-exactly.
        assert_eq!(
            result.estimate.poses(),
            result.ba_estimate.poses(),
            "{}: ba_estimate diverged without a closure",
            spec.name
        );
    }
}

#[test]
fn detector_fires_and_correction_reduces_ate_on_loop_sequences() {
    // The acceptance oracle: on at least one loop sequence the detector
    // fires and the pose-graph correction reduces end-of-run ATE
    // against the local-BA-only baseline (same config, loop closure
    // disabled). Measured at this exact configuration — see the table
    // printed below; margins are recorded in CHANGES/PERF.
    let mut fired = 0usize;
    let mut improved = 0usize;
    let mut table = String::new();
    for spec in &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE) {
        let ba_only = run(spec, BackendMode::Sync, false);
        let with_loop = run(spec, BackendMode::Sync, true);
        let base = ba_only.ate_rmse_cm(Stage::Closed).expect("ate");
        let closed = with_loop.ate_rmse_cm(Stage::Closed).expect("ate");
        let stats = with_loop.backend.expect("backend on");
        table.push_str(&format!(
            "  {:13} BA-only {base:7.3} -> loop {closed:7.3} cm \
             ({} closures, {} candidates, {} matches, {} inliers)\n",
            spec.name,
            stats.loops_closed,
            stats.loop_candidates,
            stats.last_loop_matches,
            stats.last_loop_inliers,
        ));
        if stats.loops_closed >= 1 {
            fired += 1;
            // The closure actually moved the trajectory: the BA-only
            // reference diverges from the corrected estimate.
            assert_ne!(
                with_loop.estimate.poses(),
                with_loop.ba_estimate.poses(),
                "{}: closure applied but estimate unchanged",
                spec.name
            );
            if closed < base {
                improved += 1;
            }
        }
    }
    eprintln!("loop-closure ATE (quarter scale, {LOOP_FRAMES} frames):\n{table}");
    assert!(
        fired >= 1,
        "the detector closed no loop on any loop sequence:\n{table}"
    );
    assert!(
        improved >= 1,
        "no loop sequence improved its ATE through closure:\n{table}"
    );
}

#[test]
fn corrected_trajectory_is_bit_identical_sync_vs_async() {
    // The determinism oracle, extended to the loop path: detection,
    // verification (SIMD matching + RANSAC with its fixed seed),
    // pose-graph solve and drift propagation must be bit-identical
    // whether jobs run inline or on the worker pool. The kernel axis
    // comes from the CI matrix environment.
    for spec in &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE) {
        let sync = run(spec, BackendMode::Sync, true);
        let async_ = run(spec, BackendMode::Async, true);
        assert_eq!(
            sync.estimate.poses(),
            async_.estimate.poses(),
            "{}: corrected trajectory diverged",
            spec.name
        );
        assert_eq!(
            sync.ba_estimate.poses(),
            async_.ba_estimate.poses(),
            "{}: BA reference diverged",
            spec.name
        );
        assert_eq!(
            sync.keyframes.poses(),
            async_.keyframes.poses(),
            "{}: keyframe trajectory diverged",
            spec.name
        );
        for (a, s) in async_.reports.iter().zip(&sync.reports) {
            assert_eq!(a.pose_c2w, s.pose_c2w, "{} frame {}", spec.name, s.index);
            assert_eq!(
                a.loop_closed, s.loop_closed,
                "{} frame {}",
                spec.name, s.index
            );
            assert_eq!(
                a.backend_applied, s.backend_applied,
                "{} frame {}",
                spec.name, s.index
            );
        }
        let (a, s) = (
            async_.backend.expect("async stats"),
            sync.backend.expect("sync stats"),
        );
        assert_eq!(a.loop_candidates, s.loop_candidates, "{}", spec.name);
        assert_eq!(a.loops_closed, s.loops_closed, "{}", spec.name);
        assert_eq!(a.loops_rejected, s.loops_rejected, "{}", spec.name);
        assert_eq!(a.last_loop_matches, s.last_loop_matches, "{}", spec.name);
        assert_eq!(a.last_loop_inliers, s.last_loop_inliers, "{}", spec.name);
        assert_eq!(a.culled_keyframes, s.culled_keyframes, "{}", spec.name);
        assert_eq!(
            a.pose_graph_iterations, s.pose_graph_iterations,
            "{}",
            spec.name
        );
    }
}

#[test]
fn loop_runs_are_identical_across_prefetch_modes() {
    // The dataset-streaming axis must not leak into loop decisions
    // either: one loop sequence, prefetch forced on and off, same
    // corrected trajectory.
    let spec = &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE)[0];
    let seq = spec.build();
    let mut on = config();
    on.prefetch = PrefetchMode::On;
    let mut off = on;
    off.prefetch = PrefetchMode::Off;
    let a = run_sequence(&seq, on);
    let b = run_sequence(&seq, off);
    assert_eq!(a.estimate.poses(), b.estimate.poses());
    assert_eq!(a.ba_estimate.poses(), b.ba_estimate.poses());
    let (sa, sb) = (a.backend.unwrap(), b.backend.unwrap());
    assert_eq!(sa.loops_closed, sb.loops_closed);
    assert_eq!(sa.loop_candidates, sb.loop_candidates);
}

#[test]
fn finish_flushes_a_pending_loop_correction() {
    // If the loop closes on the *last* frame, the verification job is
    // still in flight when the sequence ends; `Slam::finish` (via
    // run_sequence) must flush it so the exported trajectory carries
    // the correction. Driving frames manually and skipping finish
    // shows the difference.
    let spec = &SequenceSpec::loop_sequences(LOOP_FRAMES, IMAGE_SCALE)[0];
    let seq = spec.build();
    let mut cfg = config();
    cfg.backend.mode = BackendMode::Sync;
    let finished = run_sequence(&seq, cfg);
    let stats = finished.backend.expect("backend on");
    if stats.loops_closed == 0 {
        eprintln!("no closure on loop/circle at this configuration; flush test vacuous");
        return;
    }
    // Manual drive without finish: the correction dispatched at the
    // final keyframe must still be pending, not silently dropped.
    let mut slam = eslam_core::Slam::builder().config(cfg).build();
    for f in seq.frames() {
        slam.process(f.timestamp, &f.gray, &f.depth);
    }
    let before_flush = slam.trajectory().clone();
    slam.finish();
    let after_flush = slam.trajectory().clone();
    assert_eq!(
        after_flush.poses(),
        finished.estimate.poses(),
        "finish must produce the same trajectory run_sequence exports"
    );
    // The flush did real work unless every correction already landed
    // at a frame boundary (possible when the loop closes early); when
    // the last closure was pending, the trajectories differ.
    if stats.loops_closed >= 1 && before_flush.poses() != after_flush.poses() {
        eprintln!("finish flushed a pending loop correction (as designed)");
    }
}
