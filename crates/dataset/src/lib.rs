//! Synthetic TUM-like RGB-D dataset substrate for the eSLAM reproduction.
//!
//! The paper evaluates on five TUM RGB-D sequences (§4.1). Those
//! recordings are not redistributable here, so this crate generates
//! synthetic stand-ins that exercise the identical code paths (see the
//! substitution table in DESIGN.md):
//!
//! * [`scene`] — ray-cast room/desk scenes with corner-rich procedural
//!   textures, rendering grayscale + TUM-convention depth;
//! * [`trajectory`] — motion generators mimicking each sequence's profile
//!   (`xyz` translation-only, `rpy` rotation-only, `desk` arc, `room`
//!   loop) plus TUM-format ground-truth I/O;
//! * [`sequence`] — the composed renderable sequences, including
//!   [`sequence::SequenceSpec::paper_sequences`] for the five evaluation
//!   sequences;
//! * [`noise`] — Kinect-like intensity/depth noise;
//! * [`eval`] — ATE (Fig. 8's metric) and RPE trajectory evaluation;
//! * [`disk`] — on-disk TUM-style dataset export/load (PGM frames +
//!   `rgb.txt`/`depth.txt`/`groundtruth.txt`), including timestamp
//!   association for unsynchronized real recordings;
//! * [`source`] — the [`FrameSource`] abstraction over synthetic, disk
//!   and noise-augmented frame producers (the pipeline consumes frames
//!   through this trait, not a concrete renderer);
//! * [`prefetch`] — double-buffered async prefetch: frame `k + 1`
//!   renders on a background worker of the persistent
//!   `eslam_features::pool::WorkerPool` while the pipeline consumes
//!   frame `k`, bit-identical to synchronous rendering (selected at
//!   the SLAM layer by `SlamConfig::prefetch`).
//!
//! # Examples
//!
//! Render the first frame of a desk sequence and inspect its depth:
//!
//! ```
//! use eslam_dataset::sequence::SequenceSpec;
//!
//! // Quarter-scale frames keep doc tests fast.
//! let spec = &SequenceSpec::paper_sequences(5, 0.25)[2]; // fr1/desk
//! let seq = spec.build();
//! let frame = seq.frame(0);
//! assert!(frame.depth.coverage() > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod disk;
pub mod eval;
pub mod noise;
pub mod prefetch;
pub mod scene;
pub mod sequence;
pub mod source;
pub mod trajectory;

pub use eval::{absolute_trajectory_error, relative_pose_error, AteResult, ErrorStats};
pub use prefetch::{with_prefetch, PrefetchSource};
pub use sequence::{Frame, SequenceSpec, SyntheticSequence};
pub use source::{FrameSource, NoisySource};
pub use trajectory::{TimedPose, Trajectory, TrajectoryKind, TrajectoryParams};

#[cfg(test)]
mod proptests {
    use super::*;
    use eslam_geometry::{Quaternion, Se3, Vec3};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ate_invariant_to_rigid_offset(
            tx in -2.0..2.0f64, ty in -2.0..2.0f64, tz in -2.0..2.0f64,
            angle in -1.5..1.5f64,
        ) {
            let truth = Trajectory::generate(
                TrajectoryKind::Room,
                &TrajectoryParams { frames: 20, ..Default::default() },
            );
            let offset = Se3::from_quaternion_translation(
                &Quaternion::from_axis_angle(Vec3::new(0.3, 1.0, -0.2), angle),
                Vec3::new(tx, ty, tz),
            );
            let mut est = Trajectory::new();
            for tp in truth.poses() {
                est.push(tp.timestamp, offset.compose(&tp.pose));
            }
            let r = absolute_trajectory_error(&est, &truth).unwrap();
            prop_assert!(r.stats.rmse < 1e-8, "rmse {}", r.stats.rmse);
        }

        #[test]
        fn tum_io_round_trips(frames in 2usize..20, kind_idx in 0usize..4) {
            let kind = [
                TrajectoryKind::Xyz,
                TrajectoryKind::Rpy,
                TrajectoryKind::Desk,
                TrajectoryKind::Room,
            ][kind_idx];
            let t = Trajectory::generate(kind, &TrajectoryParams { frames, ..Default::default() });
            let mut buf = Vec::new();
            t.write_tum(&mut buf).unwrap();
            let parsed = Trajectory::read_tum(buf.as_slice()).unwrap();
            prop_assert_eq!(parsed.len(), t.len());
            for (a, b) in t.poses().iter().zip(parsed.poses()) {
                prop_assert!((a.pose.translation - b.pose.translation).norm() < 1e-5);
            }
        }
    }
}
