//! Per-layer samples recorded by the traced pass, and the per-layer
//! metrics derived from them.

use eslam_features::orb::ExtractionStats;

use crate::report::{Metric, PassOutcome};
use crate::stats::{median, percentile, ratio};

/// What the traced pass measured around one frame (one query on
/// `reloc-quarter`). Timings are wall-clock milliseconds.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub extract_ms: f64,
    /// Process CPU time (all threads) during the extraction call.
    pub extract_cpu_ms: f64,
    pub extraction: ExtractionStats,
    /// `None` when there was no map to match against.
    pub match_ms: Option<f64>,
    pub train_size: usize,
    pub matches: usize,
    pub queries: usize,
    /// `None` when the frame was not tracked (bootstrap frame, or a
    /// query that did not relocalize).
    pub track_ms: Option<f64>,
    pub raw_matches: usize,
    pub inliers: usize,
    /// The annotated `Slam::process` or `Session::localize` call, with
    /// the backend application the traced pass runs ahead of it.
    pub call_ms: f64,
    /// Pending backend results applied before the shadow calls (the
    /// first thing `Slam::process` would have done).
    pub apply_ms: f64,
    pub keyframe: bool,
    pub relocalize_ms: Option<f64>,
    pub relocalized: bool,
}

/// Pass-level facts of a traced run.
#[derive(Debug, Clone, Default)]
pub struct PassFacts {
    /// The untraced passes. The backend's join wait comes from them:
    /// the async backend overlaps whatever runs between frames, so its
    /// blocking share is only observable without the traced pass's
    /// layer calls in between.
    pub untraced: Vec<PassOutcome>,
    pub traced: Vec<PassOutcome>,
    pub working_bytes: usize,
    pub atlas_bytes: u64,
}

/// Which call the samples annotate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Process,
    Localize,
}

fn p50_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn p90_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, 90.0)
    }
}

/// Every per-layer metric of `BENCHMARK.json` except
/// `trace.overhead_frac`, in its order. Layers the workload does not
/// run report 0.
pub fn metrics(samples: &[LayerSample], facts: &PassFacts, call: Call) -> Vec<Metric> {
    let n = samples.len().max(1) as f64;
    let sum = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).sum::<f64>();
    let extract: Vec<f64> = samples.iter().map(|s| s.extract_ms).collect();
    let calls: Vec<f64> = samples.iter().map(|s| s.call_ms).collect();
    let call_total = sum(&|s| s.call_ms);
    let extract_total = sum(&|s| s.extract_ms);
    let matches: Vec<f64> = samples.iter().filter_map(|s| s.match_ms).collect();
    let tracks: Vec<f64> = samples.iter().filter_map(|s| s.track_ms).collect();
    let poses: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some(s.track_ms? - s.match_ms?))
        .collect();
    let self_ms: Vec<f64> = samples
        .iter()
        .map(|s| s.call_ms - s.extract_ms - s.track_ms.unwrap_or(0.0))
        .collect();
    let relocs: Vec<f64> = samples.iter().filter_map(|s| s.relocalize_ms).collect();
    let detections = sum(&|s| s.extraction.fast_detections as f64);
    // Backend counts and times are means per pass (one whole sequence).
    let per_pass = |f: &dyn Fn(&PassOutcome) -> f64| {
        ratio(facts.traced.iter().map(f).sum(), facts.traced.len() as f64)
    };
    let finish_ms: Vec<f64> = facts.traced.iter().map(|o| o.finish_ms).collect();
    let load_ms: Vec<f64> = facts.traced.iter().map(|o| o.load_ms).collect();
    // The final `Slam::finish` join counts: it is on the run's critical path.
    let join_wait: f64 = facts.untraced.iter().map(|o| o.backend.join_wait_ms).sum();
    let busy_ms: f64 = facts.untraced.iter().map(|o| o.timing.busy_s * 1e3).sum();
    let (process, localize) = match call {
        Call::Process => (true, false),
        Call::Localize => (false, true),
    };
    let only = |cond: bool, v: f64| if cond { v } else { 0.0 };

    vec![
        Metric::new("features.extract.ms_p50", p50_or_zero(&extract), "ms"),
        Metric::new("features.extract.ms_p90", p90_or_zero(&extract), "ms"),
        Metric::new(
            "features.extract.share",
            ratio(extract_total, call_total),
            "ratio",
        ),
        Metric::new(
            "features.extract.fast_detections",
            sum(&|s| s.extraction.fast_detections as f64) / n,
            "count",
        ),
        Metric::new(
            "features.extract.candidates",
            sum(&|s| s.extraction.candidates as f64) / n,
            "count",
        ),
        Metric::new(
            "features.extract.kept",
            sum(&|s| s.extraction.kept as f64) / n,
            "count",
        ),
        Metric::new(
            "features.extract.kept_per_candidate",
            ratio(
                sum(&|s| s.extraction.kept as f64),
                sum(&|s| s.extraction.descriptors_computed as f64),
            ),
            "ratio",
        ),
        Metric::new(
            "features.extract.ns_per_detection",
            ratio(extract_total * 1e6, detections),
            "ns",
        ),
        Metric::new(
            "features.extract.parallelism",
            ratio(sum(&|s| s.extract_cpu_ms), extract_total),
            "ratio",
        ),
        Metric::new(
            "features.extract.working_bytes",
            facts.working_bytes as f64,
            "bytes",
        ),
        Metric::new("features.match.ms_p50", p50_or_zero(&matches), "ms"),
        Metric::new(
            "features.match.train_size",
            ratio(sum(&|s| s.train_size as f64), matches.len() as f64),
            "count",
        ),
        Metric::new(
            "features.match.matches_per_query",
            ratio(sum(&|s| s.matches as f64), sum(&|s| s.queries as f64)),
            "ratio",
        ),
        Metric::new("core.track.ms_p50", p50_or_zero(&tracks), "ms"),
        Metric::new("core.track.pose_ms_p50", p50_or_zero(&poses), "ms"),
        Metric::new(
            "core.track.inlier_ratio",
            ratio(sum(&|s| s.inliers as f64), sum(&|s| s.raw_matches as f64)),
            "ratio",
        ),
        Metric::new(
            "core.process.ms_p50",
            only(process, p50_or_zero(&calls)),
            "ms",
        ),
        Metric::new(
            "core.process.ms_p90",
            only(process, p90_or_zero(&calls)),
            "ms",
        ),
        Metric::new(
            "core.process.self_ms_p50",
            only(process, p50_or_zero(&self_ms)),
            "ms",
        ),
        Metric::new(
            "core.process.self_ms_p90",
            only(process, p90_or_zero(&self_ms)),
            "ms",
        ),
        Metric::new(
            "core.process.keyframe_frac",
            only(process, sum(&|s| f64::from(u8::from(s.keyframe))) / n),
            "ratio",
        ),
        Metric::new(
            "core.map.points",
            facts.traced.last().map_or(0.0, |o| o.map_points as f64),
            "count",
        ),
        Metric::new("core.finish.ms", p50_or_zero(&finish_ms), "ms"),
        Metric::new(
            "backend.ba_runs",
            per_pass(&|o| o.backend.runs as f64),
            "count",
        ),
        Metric::new(
            "backend.ba_iterations",
            per_pass(&|o| o.backend.iterations as f64),
            "count",
        ),
        Metric::new("backend.solve_ms", per_pass(&|o| o.backend.solve_ms), "ms"),
        Metric::new(
            "backend.join_wait_ms",
            ratio(join_wait, facts.untraced.len() as f64),
            "ms",
        ),
        Metric::new(
            "backend.join_wait_share",
            only(process, ratio(join_wait, busy_ms)),
            "ratio",
        ),
        Metric::new(
            "backend.loop_candidates",
            per_pass(&|o| o.backend.loop_candidates as f64),
            "count",
        ),
        Metric::new(
            "backend.loops_closed",
            per_pass(&|o| o.backend.loops_closed as f64),
            "count",
        ),
        Metric::new(
            "backend.loop_solve_ms",
            per_pass(&|o| o.backend.loop_solve_ms),
            "ms",
        ),
        Metric::new(
            "backend.culled_keyframes",
            per_pass(&|o| o.backend.culled_keyframes as f64),
            "count",
        ),
        Metric::new(
            "core.localize.ms_p50",
            only(localize, p50_or_zero(&calls)),
            "ms",
        ),
        Metric::new(
            "core.localize.ms_p90",
            only(localize, p90_or_zero(&calls)),
            "ms",
        ),
        Metric::new("backend.relocalize.ms_p50", p50_or_zero(&relocs), "ms"),
        Metric::new(
            "backend.relocalize.success_frac",
            only(localize, sum(&|s| f64::from(u8::from(s.relocalized))) / n),
            "ratio",
        ),
        Metric::new("core.persist.load_ms", p50_or_zero(&load_ms), "ms"),
        Metric::new(
            "core.persist.atlas_bytes",
            facts.atlas_bytes as f64,
            "bytes",
        ),
    ]
}
