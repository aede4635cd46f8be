//! The mapping workloads (`desk-vga`, `loop-quarter`): each pass builds
//! a fresh system, feeds it every pre-rendered frame in a closed loop
//! (frame k+1 only after frame k returns), and finishes it.

use std::time::Instant;

use eslam_core::{FrameReport, Slam, SlamConfig, TrackingOutcome};
use eslam_dataset::{absolute_trajectory_error, Frame};
use eslam_geometry::Se3;

use crate::hash::PoseHash;
use crate::host::cpu_time;
use crate::layers::LayerSample;
use crate::report::{Measured, PassOutcome, PassTiming};
use crate::trace::SpanId;
use crate::traced::{ms_since, Traced};
use crate::workload::Sequence;

/// Runs one pass, adding its frames to `measured`; a traced pass also
/// records spans and layer samples. The pass's wall and CPU time run
/// from the first frame through `Slam::finish`, which joins the
/// backend's last solves.
pub fn pass(
    seq: &Sequence,
    config: SlamConfig,
    measured: &mut Measured,
    mut traced: Option<&mut Traced>,
) -> PassOutcome {
    let setup = Instant::now();
    let mut slam = Slam::builder().config(config).build();
    let setup_s = setup.elapsed().as_secs_f64();

    let mut hash = PoseHash::default();
    // The tracker's frame-to-frame velocity, mirrored from the reports
    // for the shadow `track_frame` prior.
    let mut velocity = Se3::identity();
    let pass_cpu = cpu_time();
    let pass_wall = Instant::now();
    for (k, frame) in seq.frames.iter().enumerate() {
        let mut sample = LayerSample::default();
        let shadow = match traced.as_deref_mut() {
            Some(t) => {
                let root = t.tracer.open("frame", k, None);
                let held = apply_pending(t, root, k, &mut slam, &mut sample);
                let outcome = shadow_layers(t, root, k, frame, &slam, held, velocity, &mut sample);
                Some((root, held, outcome))
            }
            None => None,
        };
        let span = traced
            .as_deref_mut()
            .zip(shadow.as_ref())
            .map(|(t, &(root, ..))| t.tracer.open("core.process", k, Some(root)));
        let start = Instant::now();
        let report = slam.process(frame.timestamp, &frame.gray, &frame.depth);
        let ms = ms_since(start);
        measured.frame(ms, report.tracking_ok);
        hash.pose(&report.pose_c2w);
        if let (Some(t), Some(span), Some((root, held, outcome))) =
            (traced.as_deref_mut(), span, shadow)
        {
            t.tracer.close(span);
            t.tracer
                .count(span, "keyframe", f64::from(u8::from(report.is_keyframe)));
            t.tracer.close(root);
            if let Some(outcome) = outcome {
                if !agrees(&outcome, &report) {
                    t.disagreements += 1;
                }
            }
            if k > 0 {
                velocity = if report.tracking_ok {
                    report.pose_c2w.inverse().compose(&held.inverse())
                } else {
                    Se3::identity()
                };
            }
            // The application moved out of `process` counts as part of it.
            sample.call_ms = sample.apply_ms + ms;
            sample.keyframe = report.is_keyframe;
            t.samples.push(sample);
        }
    }

    let finish = Instant::now();
    let finish_span = traced
        .as_deref_mut()
        .map(|t| t.tracer.open("core.finish", seq.frames.len(), None));
    slam.finish();
    let finish_ms = ms_since(finish);
    let timing = PassTiming {
        frames: seq.frames.len(),
        busy_s: pass_wall.elapsed().as_secs_f64(),
        cpu_s: (cpu_time() - pass_cpu).as_secs_f64(),
        setup_s,
        peak_mem_mb: 0.0,
    };
    for tp in slam.trajectory().poses() {
        hash.pose(&tp.pose);
    }
    let ate_cm = absolute_trajectory_error(slam.trajectory(), &seq.truth)
        .map_or(f64::INFINITY, |a| a.stats.rmse * 100.0);

    if let (Some(t), Some(span)) = (traced, finish_span) {
        t.tracer.close(span);
    }
    PassOutcome {
        hash: hash.value(),
        timing,
        ate_cm,
        backend: slam.backend_stats().copied().unwrap_or_default(),
        finish_ms,
        map_points: slam.map().len(),
        load_ms: 0.0,
        wrong: 0,
        worst_m: 0.0,
    }
}

/// Applies the backend results `Slam::process` would apply first
/// (pending local-BA refinements and loop corrections, both joined at
/// deterministic points) through `Slam::finish`, so the shadow calls
/// see the refined map. Returns the world-to-camera pose the tracker
/// holds for frame `k`'s prior: the previous frame's, refined if it was
/// a keyframe.
fn apply_pending(
    t: &mut Traced,
    root: SpanId,
    k: usize,
    slam: &mut Slam,
    sample: &mut LayerSample,
) -> Se3 {
    let span = t.tracer.open("backend.apply", k, Some(root));
    let start = Instant::now();
    slam.finish();
    sample.apply_ms = ms_since(start);
    t.tracer.close(span);
    match k.checked_sub(1) {
        Some(prev) => slam.trajectory().poses()[prev].pose.inverse(),
        None => Se3::identity(),
    }
}

/// Times the layers of frame `k` from outside, on the inputs the next
/// `Slam::process` call sees: extraction on the frame, then matching
/// and tracking against the current map from the tracker's prior.
#[allow(clippy::too_many_arguments)]
fn shadow_layers(
    t: &mut Traced,
    root: SpanId,
    k: usize,
    frame: &Frame,
    slam: &Slam,
    held: Se3,
    velocity: Se3,
    sample: &mut LayerSample,
) -> Option<TrackingOutcome> {
    let features = t.extract(root, k, &frame.gray, sample);
    let map = slam.map();
    if map.is_empty() {
        return None;
    }
    let config = slam.config();
    t.match_map(root, k, &features, map.descriptors(), config, sample);
    let prior = if config.motion_model {
        velocity.compose(&held)
    } else {
        held
    };
    Some(t.track(root, k, &features, map, &prior, config, sample))
}

/// How far (m, rad) the shadow pose may sit from the reported one. The
/// prior is rebuilt from camera-to-world poses, so it matches the
/// tracker's to rounding only.
const POSE_TOLERANCE: f64 = 1e-6;

/// Whether the shadow `track_frame` reproduced what `Slam::process`
/// tracked. A frame that needed the relaxed-gate retry must have
/// failed the nominal attempt.
fn agrees(shadow: &TrackingOutcome, report: &FrameReport) -> bool {
    if report.relocalized {
        return !shadow.ok;
    }
    let close = || {
        let rel = shadow.pose_w2c.inverse().relative_to(&report.pose_c2w);
        rel.translation.norm() <= POSE_TOLERANCE && rel.rotation_angle() <= POSE_TOLERANCE
    };
    shadow.ok == report.tracking_ok
        && shadow.raw_matches == report.raw_matches
        && shadow.inliers == report.inliers
        && (!shadow.ok || close())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslam_geometry::Vec3;

    fn outcome(ok: bool, inliers: usize, x: f64) -> TrackingOutcome {
        TrackingOutcome {
            pose_w2c: Se3::from_translation(Vec3::new(x, 0.5, -1.0)),
            matched_map_indices: Vec::new(),
            matched_feature_indices: Vec::new(),
            raw_matches: 300,
            inliers,
            final_cost: 0.0,
            ok,
        }
    }

    fn report(tracked: &TrackingOutcome, relocalized: bool) -> FrameReport {
        FrameReport {
            index: 1,
            timestamp: 0.0,
            pose_c2w: tracked.pose_w2c.inverse(),
            is_keyframe: false,
            tracking_ok: tracked.ok,
            relocalized,
            raw_matches: tracked.raw_matches,
            inliers: tracked.inliers,
            map_size: 0,
            extraction: Default::default(),
            hw_timing: None,
            frame_wait_ms: 0.0,
            track_ms: 0.0,
            backend_applied: false,
            loop_closed: false,
        }
    }

    #[test]
    fn shadow_tracking_must_reproduce_the_process_call() {
        let tracked = outcome(true, 200, 1.0);
        assert!(agrees(&tracked, &report(&tracked, false)));
        assert!(agrees(
            &outcome(true, 200, 1.0 + 1e-9),
            &report(&tracked, false)
        ));
        // Another pose, or other counts, is a shadow call on other inputs.
        assert!(!agrees(
            &outcome(true, 200, 1.001),
            &report(&tracked, false)
        ));
        assert!(!agrees(&outcome(true, 199, 1.0), &report(&tracked, false)));
        // A frame the relaxed retry recovered failed its nominal attempt.
        assert!(agrees(&outcome(false, 3, 0.0), &report(&tracked, true)));
        assert!(!agrees(&tracked, &report(&tracked, true)));
    }
}
