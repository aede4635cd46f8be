//! **eslam-backend** — the keyframe backend of the eSLAM reproduction:
//! covisibility-linked keyframes and windowed local bundle adjustment
//! running asynchronously on the shared worker pool.
//!
//! The paper's system (§2.1) updates the map only at key frames; full
//! ORB-SLAM pairs that front-end with a *local mapping* backend that
//! keeps a keyframe graph and jointly refines recent poses and
//! landmarks. This crate supplies that backend:
//!
//! * [`keyframe`] — the [`KeyframeStore`]: per-keyframe poses, landmark
//!   observations (with promotion-time camera-frame positions) and
//!   BRIEF descriptor columns, addressed by stable landmark ids;
//! * [`covisibility`] — the [`CovisibilityGraph`], keyframes weighted
//!   by shared-observation counts with deterministic neighbour and
//!   BFS-distance queries;
//! * [`mapper`] — the [`LocalMapper`] (insertion, redundant-keyframe
//!   culling with id remapping, problem building), the
//!   [`BackendRunner`] driving sliding-window local BA
//!   (`eslam_geometry::ba`) **and** the loop-closure pipeline either
//!   inline or on the persistent `WorkerPool` via its fire-and-collect
//!   `submit`/`TaskHandle` API, and the [`BackendMode`] execution
//!   toggle;
//! * [`loop_closure`] — place recognition over an online-trained binary
//!   BoW vocabulary (`eslam_features::bow`, inverted word→keyframe
//!   index, SIMD brute-force fallback while the vocabulary trains),
//!   candidate gating by covisibility distance + temporal consistency,
//!   geometric verification through the existing P3P/RANSAC path, and
//!   the Se(3) pose-graph drift correction
//!   (`eslam_geometry::pose_graph`) with landmark re-anchoring;
//! * [`relocalize`] — cold-start relocalization against a **loaded**
//!   map (the serving-side use of the same machinery): tf-idf BoW
//!   retrieval over a persisted vocabulary, cross-checked SIMD
//!   matching, and P3P/RANSAC against promotion-time camera-frame
//!   geometry, returning a [`RelocalizationResult`] world pose.
//!
//! # Determinism contract
//!
//! Async mode is **bit-identical** to sync mode: every solve consumes
//! an owned snapshot, the solver itself is deterministic, and results
//! are applied only at the tracker's next frame boundary (via
//! [`BackendRunner::take_refinement`]) — never "whenever the thread
//! happens to finish". The workspace tier
//! `tests/backend_equivalence.rs` enforces this across pool shapes and
//! sequences.
//!
//! # Example
//!
//! ```
//! use eslam_backend::{BackendConfig, BackendMode, BackendRunner, KeyframeData};
//! use eslam_backend::keyframe::KeyframeObservation;
//! use eslam_features::pool::WorkerPool;
//! use eslam_geometry::{PinholeCamera, Se3, Vec3};
//!
//! let camera = PinholeCamera::tum_fr1();
//! let mut config = BackendConfig::default();
//! config.mode = BackendMode::Sync;
//! let mut runner = BackendRunner::new(config, camera).expect("sync mode runs");
//! let pool = WorkerPool::new(1);
//! let landmarks: Vec<Vec3> =
//!     (0..20).map(|i| Vec3::new(i as f64 * 0.1 - 1.0, 0.2, 3.0)).collect();
//! for (frame, pose) in [(0usize, Se3::identity()),
//!                       (5, Se3::from_translation(Vec3::new(0.1, 0.0, 0.0)))] {
//!     let observations = landmarks.iter().enumerate()
//!         .filter_map(|(i, p)| {
//!             let cam = pose.transform(*p);
//!             camera.project(cam)
//!                 .map(|uv| KeyframeObservation { landmark: i as u64, pixel: uv,
//!                                                 position: cam })
//!         })
//!         .collect();
//!     runner.on_keyframe(
//!         &pool,
//!         KeyframeData { frame_index: frame, timestamp: frame as f64 / 30.0,
//!                        pose_w2c: pose, observations, descriptors: Vec::new() },
//!         &mut |id| landmarks.get(id as usize).copied(),
//!     );
//! }
//! // The refinement is collected at the next frame boundary.
//! let outcome = runner.take_refinement().expect("one solve dispatched");
//! assert_eq!(outcome.keyframes.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod covisibility;
pub mod keyframe;
pub mod loop_closure;
pub mod mapper;
pub mod relocalize;

pub use covisibility::CovisibilityGraph;
pub use keyframe::{Keyframe, KeyframeId, KeyframeObservation, KeyframeStore};
pub use loop_closure::{
    CorrectedKeyframe, LoopCandidate, LoopClosureConfig, LoopClosureJob, LoopClosureOutcome,
    LoopDetector,
};
pub use mapper::{
    BackendConfig, BackendMode, BackendRunner, BackendStats, KeyframeCullConfig, KeyframeData,
    LocalBaJob, LocalBaOutcome, LocalMapper, RefinedKeyframe,
};
pub use relocalize::{RelocalizationConfig, RelocalizationResult, Relocalizer};
