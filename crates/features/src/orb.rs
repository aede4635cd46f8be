//! The complete ORB feature extractor.
//!
//! Mirrors the paper's ORB Extractor datapath (§3.1, Fig. 4): per pyramid
//! level, FAST detection + Harris scoring → NMS → Gaussian smoothing →
//! orientation (32-label) → (RS-)BRIEF descriptor → bounded heap keeping
//! the best 1024 features.
//!
//! Two workflow schedules are modelled (§3.1):
//!
//! * [`Workflow::Original`] — detect → **filter** (top-N) → compute
//!   descriptors for the N survivors. Computes only N descriptors but the
//!   descriptor stage idles until filtering finishes and all intermediate
//!   candidates must be buffered.
//! * [`Workflow::Rescheduled`] — detect → compute descriptors for **all**
//!   M candidates → filter. Streams, overlapping all stages, at the cost
//!   of M − N extra descriptor computations.
//!
//! Both schedules produce **identical feature sets** (tested); they differ
//! only in work/latency/memory, which [`ExtractionStats`] records and the
//! `eslam-hw` timing model consumes. Both run on one production path,
//! the banded streaming front-end ([`crate::stream`]), which filters
//! before it describes: on a CPU the M − N extra descriptors buy no
//! overlap, so the stream computes only the N kept descriptors under
//! either schedule, and the schedule changes only the reported
//! [`ExtractionStats::descriptors_computed`]. The scalar reference
//! ([`OrbExtractor::extract_reference`]) runs each schedule literally and
//! is the bit-exact oracle.

use crate::brief::{
    compute_descriptor, pattern_fingerprint, OriginalBrief, PatternOffsets, RsBrief,
};
use crate::descriptor::Descriptor;
use crate::fast;
use crate::harris::harris_score;
use crate::heap::{BestHeap, DEFAULT_HEAP_CAPACITY};
use crate::nms::{suppress, ScoredPoint};
use crate::orientation::{angle_to_label, label_to_angle, patch_moments, Moments, OrientationLut};
use crate::pool::WorkerPool;
use crate::stream::{self, BandMode, BandScratch, BandTask};
use eslam_image::filter::gaussian_blur_7x7_fixed_reference;
use eslam_image::pyramid::{ImagePyramid, PyramidConfig, PyramidScratch};
use eslam_image::GrayImage;
use eslam_telemetry::{Stage, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Margin (pixels) a keypoint must keep from the level border so that the
/// radius-15 descriptor/orientation patch (plus rounding) stays inside.
pub const EDGE_MARGIN: u32 = 16;

/// Descriptor flavour used by the extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptorKind {
    /// The paper's rotationally symmetric pattern; steering by descriptor
    /// rotation (hardware-friendly).
    RsBrief,
    /// Original ORB pattern steered through the 30-angle LUT \[8\].
    OriginalLut,
    /// Original ORB pattern with direct per-feature rotation (Eq. 2).
    OriginalDirect,
}

/// Extraction workflow schedule (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workflow {
    /// Detect → filter → compute (the pre-rescheduling baseline).
    Original,
    /// Detect → compute → filter (the paper's streaming schedule).
    Rescheduled,
}

/// Configuration of the [`OrbExtractor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbConfig {
    /// Pyramid layout (4 levels × 1.2 by default, as in the paper).
    pub pyramid: PyramidConfig,
    /// FAST intensity threshold.
    pub fast_threshold: u8,
    /// Maximum features kept per frame (the Heap capacity, 1024).
    pub max_features: usize,
    /// Descriptor flavour.
    pub descriptor: DescriptorKind,
    /// Workflow schedule the hardware model charges. Both schedules run
    /// the same banded streaming front-end, which describes only the
    /// kept features, and return identical features; they differ only
    /// in [`ExtractionStats::descriptors_computed`] (M under
    /// [`Workflow::Rescheduled`], N under [`Workflow::Original`]).
    pub workflow: Workflow,
    /// Seed for the descriptor pattern generation.
    pub pattern_seed: u64,
    /// Row-band count of the streaming front-end: each level splits into
    /// this many independently streamed horizontal bands (clamped per
    /// level to the usable interior rows), scheduled depth-first across
    /// levels on the worker pool. `Auto` matches the pool's thread
    /// count.
    pub bands: BandMode,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            pyramid: PyramidConfig::default(),
            fast_threshold: fast::DEFAULT_THRESHOLD,
            max_features: DEFAULT_HEAP_CAPACITY,
            descriptor: DescriptorKind::RsBrief,
            workflow: Workflow::Rescheduled,
            pattern_seed: 0xe51a,
            bands: BandMode::Auto,
        }
    }
}

/// An oriented, scored multi-scale keypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Column in base-image coordinates.
    pub x: f64,
    /// Row in base-image coordinates.
    pub y: f64,
    /// Pyramid level the keypoint was detected at.
    pub level: usize,
    /// Column in level coordinates.
    pub level_x: u32,
    /// Row in level coordinates.
    pub level_y: u32,
    /// Harris corner score.
    pub score: f64,
    /// Continuous orientation angle (radians).
    pub angle: f64,
    /// Discretized orientation label (0..31, 11.25° steps).
    pub label: u8,
}

/// Counters describing one extraction run; these feed the `eslam-hw`
/// latency/memory model of the workflow-rescheduling ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionStats {
    /// Raw FAST detections across all levels (before NMS) — the paper's M
    /// is measured after NMS; this counter exposes the upstream volume.
    pub fast_detections: usize,
    /// Candidates surviving NMS and the border margin (the paper's M).
    pub candidates: usize,
    /// Features finally kept (the paper's N ≤ 1024).
    pub kept: usize,
    /// Descriptors the configured schedule computes — N for
    /// [`Workflow::Original`], M for [`Workflow::Rescheduled`] — the
    /// count the `eslam-hw` model charges. The streaming front-end
    /// itself describes only the N kept features under either schedule;
    /// [`OrbExtractor::extract_reference`] computes exactly this many.
    pub descriptors_computed: usize,
    /// Total pixels processed across the pyramid.
    pub pixels_processed: u64,
}

/// Extraction result: keypoints with aligned descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct OrbFeatures {
    /// Keypoints ordered by descending Harris score.
    pub keypoints: Vec<Keypoint>,
    /// `descriptors[i]` belongs to `keypoints[i]`.
    pub descriptors: Vec<Descriptor>,
    /// Workflow counters.
    pub stats: ExtractionStats,
}

impl OrbFeatures {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// Whether no features were extracted.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }
}

/// Descriptor engines, instantiated once per extractor.
#[derive(Debug, Clone)]
enum Engine {
    Rs(RsBrief),
    Original(OriginalBrief),
    Direct(OriginalBrief),
}

/// Per-pyramid-level scratch of the frame loop, reused across frames.
#[derive(Debug, Default)]
struct LevelScratch {
    /// RS-BRIEF sampling table compiled for this level's stride.
    offsets: Option<PatternOffsets>,
    /// One line-buffer set, survivor, winner and result lists and
    /// counter per row band of the level (empty when the level is too
    /// small to scan).
    bands: Vec<BandScratch>,
}

/// Caller-owned scratch for [`OrbExtractor::extract_with`]: holds the
/// pyramid, every band's line-buffer rings and survivor, winner and
/// result lists, and the compiled descriptor tables. After the first
/// frame of a given geometry and band count, these image- and row-sized
/// buffers are reused without reallocating. The band schedule itself
/// still allocates a few small per-frame vectors (level dimensions, the
/// task order, the task slots, one boxed closure per band task of each
/// phase), and the selection allocates its heap and the returned
/// feature vectors.
///
/// The scratch may also own a persistent [`WorkerPool`]
/// ([`OrbScratch::with_threads`] / [`OrbScratch::with_pool`]); without
/// one, parallel sections run on the process-global pool. Either way,
/// steady-state frames never spawn threads.
#[derive(Debug, Default)]
pub struct OrbScratch {
    pyramid: ImagePyramid,
    pyramid_scratch: PyramidScratch,
    levels: Vec<LevelScratch>,
    /// Owned worker pool; `None` → [`WorkerPool::global`].
    pool: Option<WorkerPool>,
    /// Telemetry sink extraction records into; `None` → telemetry off.
    telemetry: Option<Arc<Telemetry>>,
}

impl OrbScratch {
    /// Scratch with an owned worker pool sized by the clamped override
    /// rules of [`eslam_pool::resolve_thread_count`]: `None` → one
    /// thread per core, `Some(0)` → panic, `Some(n)` → capped at
    /// available parallelism.
    ///
    /// [`eslam_pool::resolve_thread_count`]: crate::pool::resolve_thread_count
    pub fn with_threads(requested: Option<usize>) -> Self {
        OrbScratch::with_pool(WorkerPool::with_threads(requested))
    }

    /// Scratch owning an explicit (possibly unclamped) worker pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        OrbScratch {
            pool: Some(pool),
            ..Default::default()
        }
    }

    /// The pool parallel sections run on: the owned pool when present,
    /// the process-global pool otherwise.
    pub fn pool(&self) -> &WorkerPool {
        self.pool.as_ref().unwrap_or_else(|| WorkerPool::global())
    }

    /// Attaches (or detaches) the telemetry sink extraction spans
    /// record into. Telemetry observes only — extraction results are
    /// bit-identical with and without a sink.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// Bytes currently held by the streaming front-end's line buffers
    /// across all pyramid levels and bands — every band's own rings
    /// included, whose full-width halo duplication is exactly what the
    /// bound must charge for. Diagnostic for the `O(width · bands)`
    /// working-memory claim: for a fixed width and band count this is
    /// constant in image height (a full smoothed frame would scale with
    /// `width × height`).
    pub fn stream_working_bytes(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|ls| &ls.bands)
            .map(BandScratch::working_bytes)
            .sum()
    }
}

/// The ORB feature extractor (software reference of the FPGA datapath).
///
/// # Examples
///
/// ```
/// use eslam_image::GrayImage;
/// use eslam_features::orb::{OrbExtractor, OrbConfig};
///
/// // A checkerboard with per-pixel variation (a perfectly symmetric
/// // X-junction is not a FAST-9 corner, so pure checkerboards are empty).
/// let img = GrayImage::from_fn(320, 240, |x, y| {
///     let base = if (x / 16 + y / 16) % 2 == 0 { 40 } else { 200 };
///     base + ((x * 31 + y * 17) % 23) as u8
/// });
/// let extractor = OrbExtractor::new(OrbConfig::default());
/// let features = extractor.extract(&img);
/// assert!(!features.is_empty());
/// assert_eq!(features.keypoints.len(), features.descriptors.len());
/// ```
#[derive(Debug, Clone)]
pub struct OrbExtractor {
    config: OrbConfig,
    engine: Engine,
    lut: OrientationLut,
}

/// Runs `task` for every band of `levels` that `wants` accepts, in the
/// depth-first `schedule`'s order on `pool` (inline on a 1-thread pool).
/// Each task records its queue wait and runs as one `stage` span; each
/// band is handed out at most once, with its level's shared offset
/// table, so the tasks share no mutable state.
fn run_band_tasks<F>(
    pool: &WorkerPool,
    schedule: &[BandTask],
    levels: &mut [LevelScratch],
    timing: Option<&Telemetry>,
    stage: Stage,
    wants: fn(&BandScratch) -> bool,
    task: F,
) where
    F: Fn(&BandTask, Option<&PatternOffsets>, &mut BandScratch) + Sync,
{
    let mut slots: Vec<(Option<&PatternOffsets>, Vec<Option<&mut BandScratch>>)> = levels
        .iter_mut()
        .map(|ls| (ls.offsets.as_ref(), ls.bands.iter_mut().map(Some).collect()))
        .collect();
    let task = &task;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = schedule
        .iter()
        .filter_map(|t| {
            let (offsets, bands) = &mut slots[t.level];
            let offsets = *offsets;
            let bs = bands[t.band].take().expect("each band scheduled once");
            if !wants(bs) {
                return None;
            }
            let enqueued = timing.map(|_| Instant::now());
            Some(Box::new(move || {
                if let (Some(tm), Some(start)) = (timing, enqueued) {
                    tm.record_since(Stage::PoolQueueWait, start);
                }
                let _span = Telemetry::span_opt(timing, stage);
                task(t, offsets, bs);
            }) as Box<dyn FnOnce() + Send + '_>)
        })
        .collect();
    let _span = Telemetry::span_opt(timing, Stage::PoolDispatch);
    pool.scope_run(tasks);
}

impl OrbExtractor {
    /// Creates an extractor, generating the descriptor pattern from
    /// `config.pattern_seed`.
    pub fn new(config: OrbConfig) -> Self {
        let engine = match config.descriptor {
            DescriptorKind::RsBrief => Engine::Rs(RsBrief::new(config.pattern_seed)),
            DescriptorKind::OriginalLut => {
                Engine::Original(OriginalBrief::new(config.pattern_seed))
            }
            DescriptorKind::OriginalDirect => {
                Engine::Direct(OriginalBrief::new(config.pattern_seed))
            }
        };
        OrbExtractor {
            config,
            engine,
            lut: OrientationLut::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OrbConfig {
        &self.config
    }

    /// Extracts up to `max_features` oriented, described keypoints.
    ///
    /// Convenience wrapper over [`OrbExtractor::extract_with`] with
    /// throwaway scratch; frame loops should hold an [`OrbScratch`] and
    /// call `extract_with` to avoid per-frame allocations.
    pub fn extract(&self, image: &GrayImage) -> OrbFeatures {
        self.extract_with(image, &mut OrbScratch::default())
    }

    /// Extracts features using caller-owned scratch buffers.
    ///
    /// Every pyramid level splits into horizontal row bands
    /// ([`stream::band_partition`]; band count from [`OrbConfig::bands`],
    /// one band per pool thread under `Auto`), each band
    /// streams through its own line buffers ([`crate::stream`]), and the
    /// `(level, band)` tasks run on one depth-first schedule
    /// ([`stream::depth_first_schedule`]) on the worker pool — inline on
    /// a 1-thread pool — in two phases around one global selection:
    ///
    /// 1. every band detects, scores and suppresses its candidates;
    /// 2. one [`BestHeap`] of `max_features` takes every candidate in
    ///    `(level, band, raster)` order — the reference's push order —
    ///    and keeps the best N by `(score, arrival)`;
    /// 3. every band holding winners orients and describes just those.
    ///
    /// Scores are known before anything is described, so the kept set
    /// and its order are those of the sequential scalar reference
    /// ([`OrbExtractor::extract_reference`]); keypoints, descriptors and
    /// [`ExtractionStats`] are bit-identical to it regardless of thread
    /// count, band count or [`Workflow`].
    pub fn extract_with(&self, image: &GrayImage, scratch: &mut OrbScratch) -> OrbFeatures {
        let OrbScratch {
            pyramid,
            pyramid_scratch,
            levels,
            pool,
            telemetry,
        } = scratch;
        // `Option<&Telemetry>` is `Copy`, so the band tasks can capture
        // it by value; `timing` is `None` unless full mode is active, so
        // counters/off modes read no clocks here at all.
        let telemetry = telemetry.as_deref();
        let timing = telemetry.filter(|t| t.timing());
        let _extraction_span = Telemetry::span_opt(timing, Stage::Extraction);
        {
            let _span = Telemetry::span_opt(timing, Stage::PyramidBuild);
            pyramid.build_into(image, &self.config.pyramid, pyramid_scratch);
        }
        let pyramid = &*pyramid;
        levels.resize_with(pyramid.levels(), LevelScratch::default);
        let pool = pool.as_ref().unwrap_or_else(|| WorkerPool::global());
        let bands_requested = stream::resolve_bands(self.config.bands, pool.threads());
        let dims: Vec<(u32, u32)> = pyramid
            .iter()
            .map(|(_, img)| (img.width(), img.height()))
            .collect();
        let schedule = stream::depth_first_schedule(&dims, bands_requested);
        for ((_, img), ls) in pyramid.iter().zip(levels.iter_mut()) {
            // The offset table is compiled once up front and shared
            // read-only across the level's bands.
            self.prepare_offsets(img.width(), &mut ls.offsets);
            let bands = stream::band_partition(img.height(), bands_requested).len();
            ls.bands.resize_with(bands, BandScratch::default);
        }

        // Phase 1: FAST, Harris and NMS for every (level, band), so small
        // upper levels fill in around the heavy level-0 bands instead of
        // waiting behind a per-level barrier.
        let threshold = self.config.fast_threshold;
        run_band_tasks(
            pool,
            &schedule,
            levels,
            timing,
            Stage::ExtractBand,
            |_| true,
            |t, _, bs| stream::stream_band(threshold, pyramid.level(t.level), bs, t.rows.clone()),
        );

        // Selection. Bands partition a level's finalize rows in raster
        // order, so reading them in (level, band) order is the
        // reference's candidate sequence: the heap sees every candidate
        // exactly as the reference pushes it and breaks score ties by
        // arrival the same way.
        let mut stats = ExtractionStats {
            pixels_processed: pyramid.total_pixels(),
            ..Default::default()
        };
        let mut heap = BestHeap::new(self.config.max_features);
        for (level, ls) in levels.iter().enumerate() {
            for (band, bs) in ls.bands.iter().enumerate() {
                stats.fast_detections += bs.fast_count;
                stats.candidates += bs.survivors.len();
                for (i, p) in bs.survivors.iter().enumerate() {
                    heap.push(p.score, (level, band, i));
                }
            }
        }
        let selected = heap.into_sorted_vec();
        for &(_, (level, band, i)) in &selected {
            levels[level].bands[band].winners.push(i);
        }
        for bs in levels.iter_mut().flat_map(|ls| &mut ls.bands) {
            bs.winners.sort_unstable();
        }

        // Phase 2: moments and descriptors for the winners only.
        run_band_tasks(
            pool,
            &schedule,
            levels,
            timing,
            Stage::DescribeBand,
            |bs| !bs.winners.is_empty(),
            |t, offsets, bs| {
                let scale = self.config.pyramid.scale_of(t.level);
                stream::describe_band(self, pyramid.level(t.level), t.level, scale, offsets, bs);
            },
        );

        let (keypoints, descriptors): (Vec<Keypoint>, Vec<Descriptor>) = selected
            .iter()
            .map(|&(_, (level, band, i))| {
                let bs = &levels[level].bands[band];
                let k = bs
                    .winners
                    .binary_search(&i)
                    .expect("every winner is described");
                bs.results[k]
            })
            .unzip();
        stats.kept = keypoints.len();
        // The configured schedule's descriptor count (what the `eslam-hw`
        // model charges), not what this path computed.
        stats.descriptors_computed = match self.config.workflow {
            Workflow::Rescheduled => stats.candidates,
            Workflow::Original => stats.kept,
        };
        OrbFeatures {
            keypoints,
            descriptors,
            stats,
        }
    }

    /// Sequential scalar reference of [`OrbExtractor::extract`]: the
    /// original per-pixel implementation built from the reference kernels
    /// ([`fast::detect_reference`], [`gaussian_blur_7x7_fixed_reference`],
    /// [`suppress`], clamped descriptor sampling). Retained as the
    /// bit-exact oracle the streaming path is tested against. It runs
    /// the configured [`Workflow`] literally: all M candidates are
    /// described before the filter under [`Workflow::Rescheduled`], only
    /// the N kept ones after it under [`Workflow::Original`].
    pub fn extract_reference(&self, image: &GrayImage) -> OrbFeatures {
        let pyramid = ImagePyramid::build(image, &self.config.pyramid);
        let mut stats = ExtractionStats {
            pixels_processed: pyramid.total_pixels(),
            ..Default::default()
        };

        // Per level: detect, score, suppress; keep the smoothed image for
        // the descriptor/orientation stages.
        let mut level_candidates: Vec<Vec<ScoredPoint>> = Vec::with_capacity(pyramid.levels());
        let mut smoothed: Vec<GrayImage> = Vec::with_capacity(pyramid.levels());
        for (_, img) in pyramid.iter() {
            let detections = fast::detect_reference(img, self.config.fast_threshold);
            stats.fast_detections += detections.len();
            let scored: Vec<ScoredPoint> = detections
                .iter()
                .map(|d| ScoredPoint {
                    x: d.x,
                    y: d.y,
                    score: harris_score(img, d.x, d.y),
                })
                .collect();
            let surviving: Vec<ScoredPoint> = suppress(&scored)
                .into_iter()
                .filter(|p| {
                    p.x >= EDGE_MARGIN
                        && p.y >= EDGE_MARGIN
                        && p.x + EDGE_MARGIN < img.width()
                        && p.y + EDGE_MARGIN < img.height()
                })
                .collect();
            stats.candidates += surviving.len();
            level_candidates.push(surviving);
            smoothed.push(gaussian_blur_7x7_fixed_reference(img));
        }

        let (keypoints, descriptors) = match self.config.workflow {
            Workflow::Rescheduled => {
                // Compute descriptors for every candidate, then filter.
                let mut heap: BestHeap<(Keypoint, Descriptor)> =
                    BestHeap::new(self.config.max_features);
                for (level, candidates) in level_candidates.iter().enumerate() {
                    let scale = pyramid.scale_of(level);
                    for c in candidates {
                        let kp = self.orient(&smoothed[level], c, level, scale);
                        let desc = self.describe(&smoothed[level], &kp);
                        stats.descriptors_computed += 1;
                        heap.push(kp.score, (kp, desc));
                    }
                }
                let mut kps = Vec::with_capacity(heap.len());
                let mut descs = Vec::with_capacity(heap.len());
                for (_, (kp, d)) in heap.into_sorted_vec() {
                    kps.push(kp);
                    descs.push(d);
                }
                (kps, descs)
            }
            Workflow::Original => {
                // Filter first on Harris score, then compute descriptors
                // only for the survivors.
                let mut heap: BestHeap<Keypoint> = BestHeap::new(self.config.max_features);
                for (level, candidates) in level_candidates.iter().enumerate() {
                    let scale = pyramid.scale_of(level);
                    for c in candidates {
                        let kp = self.orient(&smoothed[level], c, level, scale);
                        heap.push(kp.score, kp);
                    }
                }
                let mut kps = Vec::with_capacity(heap.len());
                let mut descs = Vec::with_capacity(heap.len());
                for (_, kp) in heap.into_sorted_vec() {
                    let desc = self.describe(&smoothed[kp.level], &kp);
                    stats.descriptors_computed += 1;
                    kps.push(kp);
                    descs.push(desc);
                }
                (kps, descs)
            }
        };

        stats.kept = keypoints.len();
        OrbFeatures {
            keypoints,
            descriptors,
            stats,
        }
    }

    /// Compiles the RS-BRIEF sampling table for a level's stride (only
    /// when the geometry or the pattern changed since the last frame —
    /// the fingerprint guards scratch buffers shared across extractors
    /// with different engines or pattern seeds).
    fn prepare_offsets(&self, width: u32, offsets: &mut Option<PatternOffsets>) {
        if let Engine::Rs(rs) = &self.engine {
            let fp = pattern_fingerprint(rs.pattern());
            if offsets
                .as_ref()
                .is_none_or(|t| t.width() != width || t.fingerprint() != fp)
            {
                *offsets = Some(PatternOffsets::new(rs.pattern(), width));
            }
        } else {
            // A stale RS table must never survive into a non-RS engine.
            *offsets = None;
        }
    }

    /// Builds the oriented keypoint for a surviving candidate.
    fn orient(&self, smoothed: &GrayImage, c: &ScoredPoint, level: usize, scale: f64) -> Keypoint {
        self.orient_from_moments(patch_moments(smoothed, c.x, c.y), c, level, scale)
    }

    /// Keypoint construction from already-computed patch moments (the
    /// streaming pass reads moments off its ring buffer rather than a
    /// full smoothed frame).
    pub(crate) fn orient_from_moments(
        &self,
        moments: Moments,
        c: &ScoredPoint,
        level: usize,
        scale: f64,
    ) -> Keypoint {
        let label = self.lut.label(moments.m10, moments.m01);
        // The continuous angle is retained for the Original descriptor
        // modes; RS-BRIEF uses only the label, as the hardware does.
        let angle = match self.config.descriptor {
            DescriptorKind::RsBrief => label_to_angle(label),
            _ => moments.angle(),
        };
        Keypoint {
            x: c.x as f64 * scale,
            y: c.y as f64 * scale,
            level,
            level_x: c.x,
            level_y: c.y,
            score: c.score,
            angle,
            label,
        }
    }

    /// Computes the steered descriptor for a keypoint.
    fn describe(&self, smoothed: &GrayImage, kp: &Keypoint) -> Descriptor {
        self.describe_at(smoothed, kp.level_x, kp.level_y, kp.label, kp.angle)
    }

    /// Descriptor computation at explicit level coordinates — the
    /// streaming pass calls this with ring-buffer coordinates, where
    /// `y` is the keypoint row's slot in the mirrored ring (none of the
    /// engines' clamped sampling engages there, because the caller
    /// guarantees a full radius-15 interior around `(x, y)`).
    pub(crate) fn describe_at(
        &self,
        smoothed: &GrayImage,
        x: u32,
        y: u32,
        label: u8,
        angle: f64,
    ) -> Descriptor {
        match &self.engine {
            Engine::Rs(rs) => rs.compute(smoothed, x, y, label),
            Engine::Original(orig) => orig.compute_lut(smoothed, x, y, angle),
            Engine::Direct(orig) => orig.compute_direct(smoothed, x, y, angle),
        }
    }

    /// Computes the *unsteered* descriptor at a keypoint (used by the
    /// hardware model, which steers in a separate Rotator stage).
    pub fn describe_unsteered(&self, smoothed: &GrayImage, x: u32, y: u32) -> Descriptor {
        match &self.engine {
            Engine::Rs(rs) => compute_descriptor(smoothed, x, y, rs.pattern()),
            Engine::Original(orig) | Engine::Direct(orig) => {
                compute_descriptor(smoothed, x, y, orig.pattern())
            }
        }
    }
}

/// Convenience: checks that the orientation label discretization used by
/// keypoints agrees with [`angle_to_label`].
pub fn label_of_angle(angle: f64) -> u8 {
    angle_to_label(angle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corner-rich checkerboard with mild pseudo-random variation.
    fn test_image(w: u32, h: u32, seed: u64) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let base = if ((x / 12) + (y / 12)) % 2 == 0 {
                50
            } else {
                190
            };
            let jitter = ((x as u64 * 31 + y as u64 * 17 + seed * 1009) % 23) as u8;
            base + jitter
        })
    }

    #[test]
    fn extracts_features_from_checkerboard() {
        let img = test_image(320, 240, 0);
        let extractor = OrbExtractor::new(OrbConfig::default());
        let f = extractor.extract(&img);
        assert!(f.len() > 50, "got {}", f.len());
        assert_eq!(f.keypoints.len(), f.descriptors.len());
        assert!(f.stats.kept <= 1024);
        assert_eq!(f.stats.kept, f.len());
    }

    #[test]
    fn respects_max_features() {
        let img = test_image(320, 240, 1);
        let cfg = OrbConfig {
            max_features: 20,
            ..Default::default()
        };
        let f = OrbExtractor::new(cfg).extract(&img);
        assert!(f.len() <= 20);
        // Sorted by descending score.
        for pair in f.keypoints.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn workflows_produce_identical_features() {
        // §3.1: rescheduling changes latency/memory, not results.
        let img = test_image(320, 240, 2);
        let base = OrbConfig {
            max_features: 100,
            ..Default::default()
        };
        let original = OrbExtractor::new(OrbConfig {
            workflow: Workflow::Original,
            ..base
        })
        .extract(&img);
        let rescheduled = OrbExtractor::new(OrbConfig {
            workflow: Workflow::Rescheduled,
            ..base
        })
        .extract(&img);
        assert_eq!(original.keypoints, rescheduled.keypoints);
        assert_eq!(original.descriptors, rescheduled.descriptors);
    }

    #[test]
    fn rescheduled_computes_more_descriptors() {
        // The cost of streaming: M ≥ N descriptor computations.
        let img = test_image(320, 240, 3);
        let base = OrbConfig {
            max_features: 50,
            ..Default::default()
        };
        let original = OrbExtractor::new(OrbConfig {
            workflow: Workflow::Original,
            ..base
        })
        .extract(&img);
        let rescheduled = OrbExtractor::new(OrbConfig {
            workflow: Workflow::Rescheduled,
            ..base
        })
        .extract(&img);
        assert_eq!(original.stats.descriptors_computed, original.stats.kept);
        assert_eq!(
            rescheduled.stats.descriptors_computed,
            rescheduled.stats.candidates
        );
        assert!(rescheduled.stats.descriptors_computed >= original.stats.descriptors_computed);
    }

    #[test]
    fn keypoints_respect_edge_margin() {
        let img = test_image(160, 120, 4);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        for kp in &f.keypoints {
            assert!(kp.level_x >= EDGE_MARGIN);
            assert!(kp.level_y >= EDGE_MARGIN);
        }
    }

    #[test]
    fn base_coordinates_scale_with_level() {
        let img = test_image(320, 240, 5);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        let mut seen_upper_level = false;
        for kp in &f.keypoints {
            let scale = 1.2f64.powi(kp.level as i32);
            assert!((kp.x - kp.level_x as f64 * scale).abs() < 1e-9);
            assert!((kp.y - kp.level_y as f64 * scale).abs() < 1e-9);
            if kp.level > 0 {
                seen_upper_level = true;
            }
        }
        assert!(seen_upper_level, "multi-scale detection expected");
    }

    #[test]
    fn flat_image_yields_nothing() {
        let img = GrayImage::from_fn(160, 120, |_, _| 127);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        assert!(f.is_empty());
        assert_eq!(f.stats.candidates, 0);
        assert_eq!(f.stats.descriptors_computed, 0);
    }

    #[test]
    fn stats_pixels_match_pyramid() {
        let img = test_image(320, 240, 6);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        let cfg = PyramidConfig::default();
        assert_eq!(f.stats.pixels_processed, cfg.total_pixels(320, 240));
    }

    #[test]
    fn descriptor_kinds_all_work() {
        let img = test_image(240, 180, 7);
        for kind in [
            DescriptorKind::RsBrief,
            DescriptorKind::OriginalLut,
            DescriptorKind::OriginalDirect,
        ] {
            let f = OrbExtractor::new(OrbConfig {
                descriptor: kind,
                max_features: 64,
                ..Default::default()
            })
            .extract(&img);
            assert!(!f.is_empty(), "{kind:?} extracted nothing");
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let img = test_image(240, 180, 8);
        let e = OrbExtractor::new(OrbConfig::default());
        let a = e.extract(&img);
        let b = e.extract(&img);
        assert_eq!(a, b);
    }

    #[test]
    fn optimized_extractor_matches_scalar_reference() {
        // The headline equivalence: the banded streaming front-end
        // (bitmask FAST, row-shared Harris, ring-buffer blur, offset-table
        // descriptors) vs the sequential per-pixel reference, bit for
        // bit — features AND stats.
        for seed in 0..3u64 {
            let img = test_image(200, 150, seed);
            for kind in [
                DescriptorKind::RsBrief,
                DescriptorKind::OriginalLut,
                DescriptorKind::OriginalDirect,
            ] {
                for workflow in [Workflow::Rescheduled, Workflow::Original] {
                    let e = OrbExtractor::new(OrbConfig {
                        descriptor: kind,
                        workflow,
                        max_features: 200,
                        ..Default::default()
                    });
                    let fast_path = e.extract(&img);
                    let reference = e.extract_reference(&img);
                    assert_eq!(fast_path, reference, "seed {seed} {kind:?} {workflow:?}");
                }
            }
        }
    }

    #[test]
    fn only_the_kept_features_are_described() {
        // Select, then describe: across every band the stream computes
        // exactly N descriptors, whichever schedule's count it reports.
        let img = test_image(320, 240, 4);
        for workflow in [Workflow::Rescheduled, Workflow::Original] {
            for bands in [1usize, 3] {
                let e = OrbExtractor::new(OrbConfig {
                    max_features: 40,
                    workflow,
                    bands: BandMode::Fixed(bands),
                    ..Default::default()
                });
                let mut scratch = OrbScratch::default();
                let f = e.extract_with(&img, &mut scratch);
                assert!(f.stats.candidates > f.stats.kept);
                let described: usize = scratch
                    .levels
                    .iter()
                    .flat_map(|ls| &ls.bands)
                    .map(|bs| bs.results.len())
                    .sum();
                assert_eq!(described, f.stats.kept, "{workflow:?} bands {bands}");
            }
        }
    }

    #[test]
    fn scratch_shared_across_extractors_stays_correct() {
        // Regression: a scratch previously used by an RS-BRIEF extractor
        // must not leak its offset table into another engine (or an RS
        // engine with a different pattern seed) on same-width frames.
        let img = test_image(160, 120, 3);
        let mut scratch = OrbScratch::default();
        let rs = OrbExtractor::new(OrbConfig::default());
        let _ = rs.extract_with(&img, &mut scratch);

        let lut = OrbExtractor::new(OrbConfig {
            descriptor: DescriptorKind::OriginalLut,
            ..Default::default()
        });
        assert_eq!(lut.extract_with(&img, &mut scratch), lut.extract(&img));

        let rs_other = OrbExtractor::new(OrbConfig {
            pattern_seed: 0x1234,
            ..Default::default()
        });
        assert_eq!(
            rs_other.extract_with(&img, &mut scratch),
            rs_other.extract(&img)
        );
    }

    #[test]
    fn scratch_reuse_is_equivalent_across_frames() {
        let e = OrbExtractor::new(OrbConfig::default());
        let mut scratch = OrbScratch::default();
        for seed in 0..4u64 {
            let img = test_image(160, 120, seed);
            let with_scratch = e.extract_with(&img, &mut scratch);
            assert_eq!(with_scratch, e.extract(&img), "frame {seed}");
        }
        // Geometry changes mid-stream must also be handled.
        let small = test_image(96, 80, 9);
        assert_eq!(e.extract_with(&small, &mut scratch), e.extract(&small));
    }

    #[test]
    fn labels_consistent_with_angles() {
        let img = test_image(320, 240, 9);
        let f = OrbExtractor::new(OrbConfig::default()).extract(&img);
        for kp in &f.keypoints {
            assert!(kp.label < 32);
            // RS-BRIEF keypoints carry the label's representative angle.
            assert_eq!(label_of_angle(kp.angle), kp.label);
        }
    }
}
