//! The traced pass's calls into the layers. The benchmark's own
//! extractor (with its own worker pool) re-runs each frame's layers on
//! the same inputs as the `Slam::process` or `Session::localize` call
//! they annotate, with a span and the layer's counts around every call.

use std::time::Instant;

use eslam_core::map::Map;
use eslam_core::{SlamConfig, TrackingOutcome};
use eslam_features::matcher::match_brute_force_in;
use eslam_features::orb::OrbScratch;
use eslam_features::{Descriptor, OrbExtractor, OrbFeatures};
use eslam_geometry::Se3;
use eslam_image::GrayImage;

use crate::host::cpu_time;
use crate::layers::LayerSample;
use crate::trace::{SpanId, Tracer};

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[derive(Debug)]
pub struct Traced<'a> {
    pub tracer: &'a mut Tracer,
    pub samples: Vec<LayerSample>,
    /// `OrbScratch::stream_working_bytes` after the latest extraction.
    pub working_bytes: usize,
    /// Frames whose shadow `track_frame` did not reproduce the tracking
    /// of the `Slam::process` call it annotates.
    pub disagreements: usize,
    extractor: OrbExtractor,
    scratch: OrbScratch,
}

impl<'a> Traced<'a> {
    pub fn new(tracer: &'a mut Tracer, config: &SlamConfig) -> Traced<'a> {
        Traced {
            tracer,
            samples: Vec::new(),
            working_bytes: 0,
            disagreements: 0,
            extractor: OrbExtractor::new(config.orb),
            scratch: OrbScratch::with_threads(config.worker_threads),
        }
    }

    /// `OrbExtractor::extract_with`, with its wall and process CPU time.
    pub fn extract(
        &mut self,
        parent: SpanId,
        k: usize,
        gray: &GrayImage,
        sample: &mut LayerSample,
    ) -> OrbFeatures {
        let span = self.tracer.open("features.extract", k, Some(parent));
        let cpu = cpu_time();
        let start = Instant::now();
        let features = self.extractor.extract_with(gray, &mut self.scratch);
        sample.extract_ms = ms_since(start);
        sample.extract_cpu_ms = (cpu_time() - cpu).as_secs_f64() * 1e3;
        self.tracer.close(span);
        let stats = features.stats;
        self.tracer
            .count(span, "fast_detections", stats.fast_detections as f64);
        self.tracer
            .count(span, "candidates", stats.candidates as f64);
        self.tracer.count(span, "kept", stats.kept as f64);
        sample.extraction = stats;
        self.working_bytes = self.scratch.stream_working_bytes();
        features
    }

    /// `match_brute_force_in` of the frame's descriptors against `train`.
    pub fn match_map(
        &mut self,
        parent: SpanId,
        k: usize,
        features: &OrbFeatures,
        train: &[Descriptor],
        config: &SlamConfig,
        sample: &mut LayerSample,
    ) {
        let span = self.tracer.open("features.match", k, Some(parent));
        let start = Instant::now();
        let matches = match_brute_force_in(
            self.scratch.pool(),
            &features.descriptors,
            train,
            config.matcher_max_distance,
        );
        sample.match_ms = Some(ms_since(start));
        self.tracer.close(span);
        sample.train_size = train.len();
        sample.matches = matches.len();
        sample.queries = features.descriptors.len();
        self.tracer.count(span, "train_size", train.len() as f64);
        self.tracer.count(span, "matches", matches.len() as f64);
    }

    /// `track_frame` against `map` from `prior`; returns its outcome.
    #[allow(clippy::too_many_arguments)]
    pub fn track(
        &mut self,
        parent: SpanId,
        k: usize,
        features: &OrbFeatures,
        map: &Map,
        prior: &Se3,
        config: &SlamConfig,
        sample: &mut LayerSample,
    ) -> TrackingOutcome {
        let span = self.tracer.open("core.track", k, Some(parent));
        let start = Instant::now();
        let outcome = eslam_core::track_frame(features, map, prior, config, self.scratch.pool());
        sample.track_ms = Some(ms_since(start));
        self.tracer.close(span);
        sample.raw_matches = outcome.raw_matches;
        sample.inliers = outcome.inliers;
        self.tracer
            .count(span, "raw_matches", outcome.raw_matches as f64);
        self.tracer.count(span, "inliers", outcome.inliers as f64);
        outcome
    }
}
