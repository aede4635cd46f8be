//! The async-path oracle (mirroring
//! `crates/features/tests/fast_path_equivalence.rs` for the dataset
//! layer): everything the double-buffered prefetch pipeline produces
//! must be **bit-identical** to the synchronous pull-on-demand path —
//! frame pixels, estimated trajectories, and per-frame feature counts —
//! for every paper sequence, every `FrameSource` kind, and every pool
//! shape.

use eslam_core::{run_sequence, PrefetchMode, Slam, SlamConfig};
use eslam_dataset::noise::NoiseModel;
use eslam_dataset::prefetch::with_prefetch;
use eslam_dataset::sequence::{Frame, SequenceSpec, SyntheticSequence};
use eslam_dataset::source::{FrameSource, NoisySource};
use eslam_features::pool::WorkerPool;

const IMAGE_SCALE: f64 = 0.25;

fn paper_sequences(frames: usize) -> Vec<SyntheticSequence> {
    SequenceSpec::paper_sequences(frames, IMAGE_SCALE)
        .iter()
        .map(|spec| spec.build())
        .collect()
}

/// Collects every frame a prefetch stream yields, as owned clones.
fn collect_prefetched<S: FrameSource + Sync>(source: &S, pool: &WorkerPool) -> Vec<Frame> {
    with_prefetch(source, pool, |stream| {
        let mut out = Vec::with_capacity(stream.len());
        while let Some(frame) = stream.next_frame() {
            out.push(frame.clone());
        }
        out
    })
}

/// Asserts two frames are bit-identical, with a per-field message.
fn assert_frames_identical(a: &Frame, b: &Frame, context: &str) {
    assert_eq!(a.gray.as_raw(), b.gray.as_raw(), "{context}: gray pixels");
    assert_eq!(
        a.depth.as_raw(),
        b.depth.as_raw(),
        "{context}: depth pixels"
    );
    assert_eq!(a.timestamp, b.timestamp, "{context}: timestamp");
    assert_eq!(a.ground_truth, b.ground_truth, "{context}: ground truth");
}

#[test]
fn prefetched_pixels_bit_identical_for_all_paper_sequences() {
    // Pool shapes: 1 thread (render degenerates to inline at the join),
    // and wider than the host (forces queueing through real workers).
    for threads in [1, 4] {
        let pool = WorkerPool::new(threads);
        for seq in paper_sequences(3) {
            let streamed = collect_prefetched(&seq, &pool);
            assert_eq!(streamed.len(), seq.len(), "{}", seq.name);
            for (i, frame) in streamed.iter().enumerate() {
                let reference = seq.frame(i);
                assert_frames_identical(
                    frame,
                    &reference,
                    &format!("{} frame {i} (pool size {threads})", seq.name),
                );
            }
        }
    }
}

#[test]
fn prefetched_run_matches_synchronous_run_exactly() {
    // The full-pipeline oracle: a manual Slam loop over owned frames
    // (never prefetches) versus
    // run_sequence with the prefetcher forced on via config, for every
    // paper sequence. Trajectories, tracking decisions and feature
    // counts must agree exactly.
    for seq in paper_sequences(4) {
        let mut manual = Slam::builder()
            .config(SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE))
            .build();
        let manual_reports: Vec<_> = seq
            .frames()
            .map(|f| manual.process(f.timestamp, &f.gray, &f.depth))
            .collect();
        // run_sequence finishes the keyframe backend (applying any
        // in-flight local-BA refinement to the trajectory); the manual
        // loop must do the same before trajectories can compare.
        manual.finish();

        for mode in [PrefetchMode::On, PrefetchMode::Off, PrefetchMode::Auto] {
            let mut config = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
            config.prefetch = mode;
            let result = run_sequence(&seq, config);
            assert_eq!(
                result.reports.len(),
                manual_reports.len(),
                "{} {mode:?}",
                seq.name
            );
            for (r, m) in result.reports.iter().zip(&manual_reports) {
                let ctx = format!("{} frame {} ({mode:?})", seq.name, m.index);
                assert_eq!(r.pose_c2w, m.pose_c2w, "{ctx}: pose");
                assert_eq!(r.extraction, m.extraction, "{ctx}: feature counts");
                assert_eq!(r.raw_matches, m.raw_matches, "{ctx}: raw matches");
                assert_eq!(r.inliers, m.inliers, "{ctx}: inliers");
                assert_eq!(r.is_keyframe, m.is_keyframe, "{ctx}: keyframe flag");
                assert_eq!(r.tracking_ok, m.tracking_ok, "{ctx}: tracking flag");
                assert_eq!(r.map_size, m.map_size, "{ctx}: map size");
                assert_eq!(r.hw_timing, m.hw_timing, "{ctx}: modelled hw timing");
            }
            // Trajectories are identical pose streams.
            assert_eq!(
                result.estimate.poses(),
                manual.trajectory().poses(),
                "{} {mode:?}: trajectory",
                seq.name
            );
        }
    }
}

#[test]
fn concurrent_rendering_is_bit_identical_to_serial() {
    // Guards the ray-caster + noise model against hidden shared state
    // before trusting them on a background thread: N threads rendering
    // the same frames concurrently (same index contended, and disjoint
    // indices) must reproduce serial rendering exactly.
    let seq = &paper_sequences(4)[2]; // fr1/desk: quads + default noise
    let serial: Vec<Frame> = (0..seq.len()).map(|i| seq.frame(i)).collect();

    // Same frame from many threads at once.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| seq.frame(1))).collect();
        for h in handles {
            assert_frames_identical(&h.join().unwrap(), &serial[1], "contended frame 1");
        }
    });

    // Disjoint frames in parallel, repeated to vary interleavings.
    for round in 0..4 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..seq.len())
                .map(|i| scope.spawn(move || (i, seq.frame(i))))
                .collect();
            for h in handles {
                let (i, frame) = h.join().unwrap();
                assert_frames_identical(
                    &frame,
                    &serial[i],
                    &format!("parallel frame {i} round {round}"),
                );
            }
        });
    }
}

#[test]
fn disk_source_prefetches_bit_identically() {
    // The disk reader streams through the same adapter: export one
    // paper sequence, reload it, and prefetch it.
    let seq = &paper_sequences(3)[0];
    let root = std::env::temp_dir().join(format!("eslam_prefetch_eq_{}", std::process::id()));
    eslam_dataset::disk::export_sequence(seq, &root).expect("export");
    let disk = eslam_dataset::disk::DiskSequence::open(&root).expect("open");

    let pool = WorkerPool::new(2);
    let streamed = collect_prefetched(&disk, &pool);
    assert_eq!(streamed.len(), 3);
    for (i, frame) in streamed.iter().enumerate() {
        let reference = disk.frame(i).expect("disk frame");
        assert_frames_identical(frame, &reference, &format!("disk frame {i}"));
        // And the disk pixels are the synthetic pixels (PGM round-trip
        // is lossless), so the whole chain is anchored to the renderer.
        assert_eq!(frame.gray, seq.frame(i).gray, "disk vs synthetic {i}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn noise_augmented_source_prefetches_bit_identically() {
    let seq = paper_sequences(3).remove(4); // fr2/rpy
    let noisy = NoisySource::new(
        seq,
        NoiseModel {
            intensity_sigma: 3.0,
            depth_dropout: 0.05,
            ..NoiseModel::default()
        },
        "equivalence-aug",
    );
    let pool = WorkerPool::new(3);
    let streamed = collect_prefetched(&noisy, &pool);
    assert_eq!(streamed.len(), 3);
    for (i, frame) in streamed.iter().enumerate() {
        assert_frames_identical(frame, &noisy.source_frame(i), &format!("noisy frame {i}"));
    }
    // The augmentation actually perturbed something (otherwise this
    // test proves nothing about the wrapper).
    assert_ne!(streamed[0].gray, noisy.inner().frame(0).gray);
}

#[test]
fn prefetch_equivalence_holds_across_worker_thread_overrides() {
    // The Slam-owned extraction pool size must not interact with the
    // prefetch substrate: 1-thread and wide pools agree exactly.
    let seq = &paper_sequences(4)[0];
    let runs: Vec<_> = [Some(1), None]
        .into_iter()
        .map(|worker_threads| {
            let mut config = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
            config.worker_threads = worker_threads;
            config.prefetch = PrefetchMode::On;
            run_sequence(seq, config)
        })
        .collect();
    for (r, m) in runs[0].reports.iter().zip(&runs[1].reports) {
        assert_eq!(r.pose_c2w, m.pose_c2w, "frame {}: pose", m.index);
        assert_eq!(r.extraction, m.extraction, "frame {}: counts", m.index);
    }
    assert_eq!(runs[0].estimate.poses(), runs[1].estimate.poses());
}
