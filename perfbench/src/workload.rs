//! The three workloads, why each is in the benchmark, and their input
//! generation (ray-casting and, for `reloc-quarter`, the mapping run
//! that writes the atlas). Inputs are generated before any timing.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eslam_core::{Atlas, Slam, SlamConfig};
use eslam_dataset::{Frame, SequenceSpec, Trajectory};
use eslam_geometry::Vec3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeskVga,
    LoopQuarter,
    RelocQuarter,
}

/// Frames of the `reloc-quarter` mapping run.
const RELOC_MAP_FRAMES: usize = 96;
/// Query views of `reloc-quarter`; not a divisor of the mapped frame
/// count, so the queries fall between the mapped views.
const RELOC_QUERIES: usize = 77;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DeskVga,
        Workload::LoopQuarter,
        Workload::RelocQuarter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeskVga => "desk-vga",
            Workload::LoopQuarter => "loop-quarter",
            Workload::RelocQuarter => "reloc-quarter",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (also its `why` in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DeskVga => {
                "fr1/desk at 640x480, the paper's TUM point: front-end-bound (~149k FAST \
                 detections, extraction ~95% of a frame) with a light backend"
            }
            Workload::LoopQuarter => {
                "loop/figure8 at 160x120, map_cull_age 12: mapping-bound (keyframe on ~80% of \
                 frames, local BA, a loop closure) while extraction is about a third of a frame"
            }
            Workload::RelocQuarter => {
                "77 cold relocalizations against a saved 96-frame loop/circle atlas: the read \
                 side of the map layers (atlas load, BoW, P3P) with no map writes"
            }
        }
    }

    /// Scene seed of `--seed 0`; `--seed n` renders scene `base + n`.
    fn base_seed(self) -> u64 {
        match self {
            Workload::DeskVga => 303,
            Workload::LoopQuarter => 707,
            Workload::RelocQuarter => 606,
        }
    }

    fn image_scale(self) -> f64 {
        match self {
            Workload::DeskVga => 1.0,
            Workload::LoopQuarter | Workload::RelocQuarter => 0.25,
        }
    }

    /// Upper bound on `ate_cm` for every scene seed: about 1.5 times the
    /// worst value over the scene sweep in `perfbench/README.md` (on
    /// `reloc-quarter`, the worst scene without a query placed beyond
    /// the gross-error limit, which fails its own check).
    pub fn ate_bound_cm(self) -> f64 {
        match self {
            Workload::DeskVga => 0.25,
            Workload::LoopQuarter => 20.0,
            Workload::RelocQuarter => 40.0,
        }
    }

    /// Production defaults at the workload's resolution. The loop and
    /// relocalization maps use the loop tier's cull age, so the start
    /// landmarks age out and a revisit needs place recognition.
    pub fn config(self) -> SlamConfig {
        let mut cfg = SlamConfig::scaled_for_tests(1.0 / self.image_scale());
        if self != Workload::DeskVga {
            cfg.map_cull_age = 12;
        }
        cfg
    }

    fn spec(self, seed: u64, frames: usize) -> SequenceSpec {
        let scale = self.image_scale();
        let mut spec = match self {
            Workload::DeskVga => SequenceSpec::paper_sequences(frames, scale).swap_remove(2),
            Workload::LoopQuarter => SequenceSpec::loop_sequences(frames, scale).swap_remove(1),
            Workload::RelocQuarter => SequenceSpec::loop_sequences(frames, scale).swap_remove(0),
        };
        debug_assert_eq!(spec.seed, self.base_seed());
        spec.seed = self.base_seed().wrapping_add(seed);
        spec
    }
}

/// A pre-rendered sequence with its re-based ground truth.
#[derive(Debug)]
pub struct Sequence {
    pub frames: Vec<Frame>,
    /// Ground truth with the first pose at the origin (the SLAM world).
    pub truth: Trajectory,
}

/// The pre-rendered frames of a mapping workload.
pub fn mapping_input(workload: Workload, seed: u64) -> Sequence {
    let frames = match workload {
        Workload::DeskVga => 60,
        Workload::LoopQuarter => 144,
        Workload::RelocQuarter => panic!("reloc-quarter is not a mapping workload"),
    };
    render(&workload.spec(seed, frames))
}

fn render(spec: &SequenceSpec) -> Sequence {
    let seq = spec.build();
    let frames: Vec<Frame> = seq.frames().collect();
    let base = seq.trajectory.poses()[0].pose.inverse();
    let mut truth = Trajectory::new();
    for tp in seq.trajectory.poses() {
        truth.push(tp.timestamp, base.compose(&tp.pose));
    }
    Sequence { frames, truth }
}

/// The saved atlas and the query views of `reloc-quarter`.
#[derive(Debug)]
pub struct RelocInput {
    pub atlas_path: PathBuf,
    pub atlas_bytes: u64,
    pub queries: Vec<Frame>,
    /// Query positions in the atlas frame (the mapping run's world).
    pub truth: Vec<Vec3>,
}

/// Maps the circle, saves the atlas under `dir`, and renders the
/// queries.
pub fn reloc_input(seed: u64, dir: &Path) -> std::io::Result<RelocInput> {
    let workload = Workload::RelocQuarter;
    let map_seq = render(&workload.spec(seed, RELOC_MAP_FRAMES));
    let atlas = Arc::new(Atlas::empty());
    let mut slam = Slam::builder()
        .config(workload.config())
        .atlas(Arc::clone(&atlas))
        .build();
    for frame in &map_seq.frames {
        slam.process(frame.timestamp, &frame.gray, &frame.depth);
    }
    slam.finish();
    drop(slam);

    std::fs::create_dir_all(dir)?;
    let atlas_path = dir.join(format!("reloc-quarter-seed{seed}.atlas"));
    atlas
        .save(&atlas_path)
        .map_err(|e| std::io::Error::other(format!("saving the atlas: {e}")))?;
    let atlas_bytes = std::fs::metadata(&atlas_path)?.len();

    // Re-basing on the mapping run's first pose puts the query truth in
    // the atlas frame.
    let map_spec = workload.spec(seed, RELOC_MAP_FRAMES);
    let base = Trajectory::generate(map_spec.kind, &map_spec.params).poses()[0]
        .pose
        .inverse();
    let query_seq = workload.spec(seed, RELOC_QUERIES).build();
    let truth = query_seq
        .trajectory
        .poses()
        .iter()
        .map(|tp| base.compose(&tp.pose).translation)
        .collect();
    let queries = query_seq.frames().collect();
    Ok(RelocInput {
        atlas_path,
        atlas_bytes,
        queries,
        truth,
    })
}
