//! One-call sequence evaluation: run the SLAM system over any
//! [`FrameSource`] and collect everything the experiments need
//! (reports, trajectories, ATE, statistics, platform timing).
//!
//! The runner is where the paper's stage-overlap idea reaches the
//! dataset layer: with [`SlamConfig::prefetch`] resolved on (see
//! [`crate::config::PrefetchMode`]),
//! frame `k + 1` renders on a background worker of the shared
//! [`WorkerPool`] while frame `k` is being tracked, and the per-frame
//! reports record the *measured* wait-versus-track split so the overlap
//! is visible in [`RunResult::wall`]. Both paths produce bit-identical
//! results (`tests/prefetch_equivalence.rs`).

use crate::config::SlamConfig;
use crate::pipeline::{sequence_timing, PlatformSequenceTiming, SequenceWallTiming};
use crate::stats::SequenceStats;
use crate::system::{FrameReport, Slam};
use eslam_backend::BackendStats;
use eslam_dataset::eval::{absolute_trajectory_error, AteResult};
use eslam_dataset::prefetch::with_prefetch_telemetry;
use eslam_dataset::source::FrameSource;
use eslam_dataset::{Frame, Trajectory};
use eslam_features::pool::WorkerPool;
use eslam_telemetry::{Stage as TelemetryStage, TelemetrySummary};
use std::time::Instant;

/// Everything produced by one SLAM run over a sequence.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-frame reports.
    pub reports: Vec<FrameReport>,
    /// Estimated trajectory (world = first camera frame), with every
    /// backend refinement swapped in (the run is
    /// [`Slam::finish`]ed, so the final keyframe's BA is included).
    pub estimate: Trajectory,
    /// The trajectory exactly as tracked, before any backend
    /// refinement — identical to `estimate` when the backend is off.
    pub raw_estimate: Trajectory,
    /// The trajectory with local-BA refinements but loop corrections
    /// withheld — identical to `estimate` until a loop closes, so the
    /// BA share and the closure share of the drift reduction are
    /// separately visible.
    pub ba_estimate: Trajectory,
    /// The BA-refined keyframe trajectory (one pose per keyframe;
    /// empty when the backend is off).
    pub keyframes: Trajectory,
    /// Ground truth re-based to the first camera frame (empty when the
    /// source has none).
    pub ground_truth: Trajectory,
    /// ATE of the (refined) estimate against the re-based ground
    /// truth, if computable.
    pub ate: Option<AteResult>,
    /// ATE of the raw (pre-refinement) estimate — the "before BA"
    /// number for drift reporting.
    pub raw_ate: Option<AteResult>,
    /// ATE of the BA-only estimate — the "before closure" number; equal
    /// to `ate` when no loop closed.
    pub ba_ate: Option<AteResult>,
    /// Aggregate statistics.
    pub stats: SequenceStats,
    /// Keyframe-backend diagnostics (`None` when the backend is off).
    pub backend: Option<BackendStats>,
    /// Measured wall-clock frame-wait vs tracking split of this run.
    pub wall: SequenceWallTiming,
    /// Whether frames were streamed through the async prefetcher.
    pub prefetched: bool,
    /// Telemetry rollup of the run — per-stage p50/p95/p99/max
    /// latencies (full mode) and every pipeline counter. `None` when
    /// the configured telemetry mode is off.
    pub telemetry: Option<TelemetrySummary>,
}

/// The refinement stage of an estimate: every run carries its
/// trajectory at three points of the pipeline, and [`RunResult`]'s
/// accessors select between them with one of these instead of a
/// per-stage method zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Exactly as tracked — before any backend refinement.
    Raw,
    /// With local-BA refinements swapped in, loop corrections
    /// withheld.
    Ba,
    /// Fully refined: local BA *and* loop-closure corrections (the
    /// headline estimate).
    Closed,
}

impl RunResult {
    /// The estimated trajectory at `stage`. `Stage::Closed` is the
    /// headline estimate; `Raw` and `Ba` are the drift-reporting
    /// references (identical to it when no refinement, respectively no
    /// closure, was applied).
    pub fn trajectory(&self, stage: Stage) -> &Trajectory {
        match stage {
            Stage::Raw => &self.raw_estimate,
            Stage::Ba => &self.ba_estimate,
            Stage::Closed => &self.estimate,
        }
    }

    /// ATE of the `stage` estimate against the re-based ground truth,
    /// if computable.
    pub fn stage_ate(&self, stage: Stage) -> Option<AteResult> {
        match stage {
            Stage::Raw => self.raw_ate,
            Stage::Ba => self.ba_ate,
            Stage::Closed => self.ate,
        }
    }

    /// ATE rmse of the `stage` estimate in centimetres (the Fig. 8
    /// unit), or `None`.
    pub fn ate_rmse_cm(&self, stage: Stage) -> Option<f64> {
        self.stage_ate(stage).map(|a| a.stats.rmse * 100.0)
    }

    /// Number of loop closures applied during the run.
    pub fn loops_closed(&self) -> usize {
        self.backend.map_or(0, |b| b.loops_closed)
    }

    /// Platform timing summaries (ARM / i7 / eSLAM) for this run.
    pub fn platform_timing(&self) -> [PlatformSequenceTiming; 3] {
        sequence_timing(&self.reports)
    }
}

/// Runs the SLAM system over every frame of `source` with `config`.
///
/// Accepts any [`FrameSource`] — synthetic sequences, disk datasets,
/// noise-augmented wrappers. Frames are either pulled synchronously or
/// streamed through the double-buffered async prefetcher, per
/// `config.prefetch`; the two paths are bit-identical. Either way a recycled
/// [`Frame`] buffer pair keeps the steady-state dataset layer
/// allocation-free, and each report's
/// [`frame_wait_ms`](FrameReport::frame_wait_ms) records how long the
/// pipeline actually blocked waiting for pixels.
///
/// The returned ground truth is re-based so its first pose is the
/// identity, matching the estimate's world convention.
pub fn run_sequence<S: FrameSource + Sync>(source: &S, config: SlamConfig) -> RunResult {
    let mut slam = Slam::builder().config(config).build();
    let prefetched = config.prefetch.resolved();
    let mut reports = Vec::with_capacity(source.len());
    // Shared sink: the prefetcher records render spans into the same
    // telemetry the Slam system and its backend record into. The wait
    // measurement itself stays the plain `Instant` pair — telemetry
    // mirrors it into the `frame_wait` histogram without touching the
    // report values.
    let telemetry = slam.telemetry().cloned();

    if prefetched {
        // Streamed path: the prefetcher renders ahead on the shared
        // global pool (the Slam-owned pool runs the extraction levels
        // and matcher rows; a long-lived render job must not occupy one
        // of its workers mid-batch).
        with_prefetch_telemetry(source, WorkerPool::global(), telemetry.clone(), |stream| {
            loop {
                let wait_start = Instant::now();
                let Some(frame) = stream.next_frame() else {
                    break;
                };
                let wait_ms = wait_start.elapsed().as_secs_f64() * 1e3;
                if let Some(t) = &telemetry {
                    t.record_since(TelemetryStage::FrameWait, wait_start);
                }
                let mut report = slam.process(frame.timestamp, &frame.gray, &frame.depth);
                report.frame_wait_ms = wait_ms;
                reports.push(report);
            }
        });
    } else {
        // Synchronous path: render on demand into one recycled buffer.
        let mut frame = Frame::buffer();
        for index in 0..source.len() {
            let wait_start = Instant::now();
            source.frame_into(index, &mut frame);
            let wait_ms = wait_start.elapsed().as_secs_f64() * 1e3;
            if let Some(t) = &telemetry {
                t.record_since(TelemetryStage::FrameWait, wait_start);
            }
            let mut report = slam.process(frame.timestamp, &frame.gray, &frame.depth);
            report.frame_wait_ms = wait_ms;
            reports.push(report);
        }
    }

    // Collect the backend's in-flight refinement (if any) so the final
    // keyframe's BA lands in the exported trajectory.
    slam.finish();

    let mut ground_truth = Trajectory::new();
    if let Some(gt) = source.ground_truth() {
        if let Some(first) = gt.poses().first() {
            let base = first.pose.inverse();
            for tp in gt.poses() {
                ground_truth.push(tp.timestamp, base.compose(&tp.pose));
            }
        }
    }
    let estimate = slam.trajectory().clone();
    let raw_estimate = slam.raw_trajectory().clone();
    let ba_estimate = slam.ba_trajectory().clone();
    let keyframes = slam.keyframe_trajectory();
    let ate = absolute_trajectory_error(&estimate, &ground_truth);
    // Unless a refinement was actually applied, the raw trajectory IS
    // the estimate; reuse the alignment instead of running Umeyama
    // twice. Same for the BA-only reference, which only diverges once
    // a loop closes.
    let raw_ate = if slam.backend_stats().is_some_and(|s| s.applied > 0) {
        absolute_trajectory_error(&raw_estimate, &ground_truth)
    } else {
        ate
    };
    let ba_ate = if slam.backend_stats().is_some_and(|s| s.loops_closed > 0) {
        absolute_trajectory_error(&ba_estimate, &ground_truth)
    } else {
        ate
    };
    let stats = SequenceStats::from_reports(&reports);
    let wall = SequenceWallTiming::from_reports(&reports);
    RunResult {
        reports,
        estimate,
        raw_estimate,
        ba_estimate,
        keyframes,
        ground_truth,
        ate,
        raw_ate,
        ba_ate,
        stats,
        backend: slam.backend_stats().copied(),
        wall,
        prefetched,
        telemetry: slam.telemetry_summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchMode;
    use eslam_dataset::sequence::SequenceSpec;
    use eslam_dataset::NoisySource;

    #[test]
    fn run_sequence_collects_everything() {
        let seq = SequenceSpec::paper_sequences(5, 0.25)[0].build();
        let result = run_sequence(&seq, SlamConfig::scaled_for_tests(4.0));
        assert_eq!(result.reports.len(), 5);
        assert_eq!(result.estimate.len(), 5);
        assert_eq!(result.ground_truth.len(), 5);
        assert_eq!(result.stats.frames, 5);
        assert!(result.stats.tracking_ratio() > 0.9);
        let ate = result.ate_rmse_cm(Stage::Closed).expect("ate computable");
        assert!(ate < 20.0, "ate {ate} cm");
        // Ground truth is re-based: first pose is identity.
        let first = result.ground_truth.poses()[0].pose;
        assert!(first.translation.norm() < 1e-12);
        // Platform timing is consistent with the reports.
        let [arm, _, eslam] = result.platform_timing();
        assert!(arm.total_ms > eslam.total_ms);
        // The wall split was measured: waiting for the ray-caster and
        // tracking both take real time on every frame.
        assert!(result.wall.frame_wait_ms > 0.0);
        assert!(result.wall.track_ms > 0.0);
        assert!(result.reports.iter().all(|r| r.frame_wait_ms > 0.0));
    }

    #[test]
    fn both_prefetch_settings_produce_identical_results() {
        // The cheap in-process half of the equivalence story (the full
        // oracle lives in tests/prefetch_equivalence.rs): prefetched and
        // synchronous runs agree exactly.
        let seq = SequenceSpec::paper_sequences(4, 0.25)[2].build();
        let mut on = SlamConfig::scaled_for_tests(4.0);
        on.prefetch = PrefetchMode::On;
        let mut off = on;
        off.prefetch = PrefetchMode::Off;
        let a = run_sequence(&seq, on);
        let b = run_sequence(&seq, off);
        assert!(a.prefetched && !b.prefetched);
        assert_eq!(a.reports.len(), b.reports.len());
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.pose_c2w, rb.pose_c2w, "frame {}", ra.index);
            assert_eq!(ra.extraction, rb.extraction, "frame {}", ra.index);
            assert_eq!(ra.inliers, rb.inliers, "frame {}", ra.index);
        }
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn any_frame_source_is_runnable() {
        // A noise-augmented wrapper goes through the same entry point.
        let seq = SequenceSpec::paper_sequences(3, 0.25)[0].build();
        let noisy = NoisySource::new(seq, eslam_dataset::noise::NoiseModel::none(), "aug");
        let result = run_sequence(&noisy, SlamConfig::scaled_for_tests(4.0));
        assert_eq!(result.reports.len(), 3);
        assert!(result.ground_truth.len() == 3);
    }
}
