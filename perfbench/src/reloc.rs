//! The `reloc-quarter` workload: each pass loads the saved atlas, opens
//! a session, and cold-localizes every query view in a closed loop.

use std::sync::Arc;
use std::time::Instant;

use eslam_backend::{BackendStats, RelocalizationConfig};
use eslam_core::{Atlas, Session, SlamConfig};
use eslam_geometry::{Se3, Vec2};
use eslam_image::GrayImage;

use crate::hash::PoseHash;
use crate::host::cpu_time;
use crate::layers::LayerSample;
use crate::report::{Measured, PassOutcome, PassTiming};
use crate::trace::SpanId;
use crate::traced::{ms_since, Traced};
use crate::workload::RelocInput;

/// A localized query farther than this (m) from its true position was
/// placed at the wrong part of the map: it counts as failed and fails
/// the run's check, whatever the RMSE over all queries.
pub const GROSS_ERROR_M: f64 = 1.0;

/// Runs one pass, adding its queries to `measured`; a traced pass also
/// records spans and layer samples.
pub fn pass(
    input: &RelocInput,
    config: SlamConfig,
    measured: &mut Measured,
    mut traced: Option<&mut Traced>,
) -> PassOutcome {
    let setup = Instant::now();
    let atlas =
        Atlas::load(&input.atlas_path).expect("the atlas written by input generation loads");
    let load_ms = ms_since(setup);
    let mut session = Session::new(Arc::new(atlas), config);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut hash = PoseHash::default();
    let mut squared = 0.0;
    let mut localized = 0usize;
    let mut wrong = 0usize;
    let mut worst_m: f64 = 0.0;
    let loop_cpu = cpu_time();
    let loop_wall = Instant::now();
    for (k, (frame, truth)) in input.queries.iter().zip(&input.truth).enumerate() {
        let mut sample = LayerSample::default();
        let shadow = match traced.as_deref_mut() {
            Some(t) => {
                let root = t.tracer.open("frame", k, None);
                let expected =
                    shadow_layers(t, root, k, &frame.gray, &session, &config, &mut sample);
                Some((root, expected))
            }
            None => None,
        };
        session.reset();
        let span = traced
            .as_deref_mut()
            .zip(shadow)
            .map(|(t, (root, _))| t.tracer.open("core.localize", k, Some(root)));
        let start = Instant::now();
        let result = session.localize(&frame.gray);
        let ms = ms_since(start);
        let pose = result.as_ref().map(|l| l.pose_c2w());
        hash.maybe_pose(pose.as_ref());
        let error_m = pose.map(|p| (p.translation - *truth).norm());
        if let Some(e) = error_m {
            squared += e * e;
            localized += 1;
            worst_m = worst_m.max(e);
            if e > GROSS_ERROR_M {
                wrong += 1;
            }
        }
        measured.frame(ms, error_m.is_some_and(|e| e <= GROSS_ERROR_M));
        if let (Some(t), Some(span), Some((root, expected))) = (traced.as_deref_mut(), span, shadow)
        {
            t.tracer.close(span);
            t.tracer.close(root);
            if expected != result.as_ref().map(|l| l.pose_w2c) {
                t.disagreements += 1;
            }
            sample.call_ms = ms;
            t.samples.push(sample);
        }
    }
    let timing = PassTiming {
        frames: input.queries.len(),
        busy_s: loop_wall.elapsed().as_secs_f64(),
        cpu_s: (cpu_time() - loop_cpu).as_secs_f64(),
        setup_s,
        peak_mem_mb: 0.0,
    };
    let ate_cm = if localized == 0 {
        f64::INFINITY
    } else {
        (squared / localized as f64).sqrt() * 100.0
    };

    PassOutcome {
        hash: hash.value(),
        timing,
        ate_cm,
        backend: BackendStats::default(),
        finish_ms: 0.0,
        map_points: session.atlas().snapshot().map().len(),
        load_ms,
        wrong,
        worst_m,
    }
}

/// Times the layers of query `k` from outside, on the inputs the next
/// cold `Session::localize` call sees: extraction, BoW + P3P
/// relocalization against the snapshot's keyframes, then matching and
/// the map-tracking refine seeded by the relocalized pose. Returns the
/// pose `Session::localize` should report: the refine's when it has
/// more inliers, else the relocalization's.
fn shadow_layers(
    t: &mut Traced,
    root: SpanId,
    k: usize,
    gray: &GrayImage,
    session: &Session,
    config: &SlamConfig,
    sample: &mut LayerSample,
) -> Option<Se3> {
    let features = t.extract(root, k, gray, sample);
    let state = session.atlas().snapshot();
    let vocabulary = state.vocabulary()?;
    let pixels: Vec<Vec2> = features
        .keypoints
        .iter()
        .map(|kp| Vec2::new(kp.x, kp.y))
        .collect();
    let span = t.tracer.open("backend.relocalize", k, Some(root));
    let start = Instant::now();
    let result = state.relocalizer().relocalize(
        vocabulary,
        state.keyframes(),
        &config.camera,
        &features.descriptors,
        &pixels,
        &RelocalizationConfig::default(),
    );
    sample.relocalize_ms = Some(ms_since(start));
    t.tracer.close(span);
    sample.relocalized = result.is_some();
    let reloc = result?;
    t.tracer.count(span, "inliers", reloc.inliers as f64);
    t.match_map(
        root,
        k,
        &features,
        state.map().descriptors(),
        config,
        sample,
    );
    let refine = t.track(
        root,
        k,
        &features,
        state.map(),
        &reloc.pose_w2c,
        config,
        sample,
    );
    Some(if refine.ok && refine.inliers > reloc.inliers {
        refine.pose_w2c
    } else {
        reloc.pose_w2c
    })
}
