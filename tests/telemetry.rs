//! The telemetry tier: observability must **observe only**.
//!
//! * Trajectories and per-frame reports are bit-identical under every
//!   telemetry mode (`off`/`counters`/`full`) crossed with both
//!   backend execution modes — the sink records, it never steers.
//! * In full mode [`RunResult::telemetry`] exposes per-stage
//!   percentiles for the pipeline's key stages (extraction, matching,
//!   pose optimization, backend solve, frame wait) with sane ordering
//!   (p50 ≤ p95 ≤ p99 ≤ max).
//! * The Chrome `trace_event` export from `loop/circle` is structurally
//!   sound JSON that Perfetto can load: named nested spans, per-frame
//!   markers, thread metadata.
//! * The Prometheus exposition carries cumulative histogram buckets,
//!   quantile gauges and the `_total` counters.
//! * Frames that blow `frame_budget_ms` are pinned in the flight
//!   recorder and dumped with their per-stage breakdown.

use eslam_core::telemetry::Stage as TStage;
use eslam_core::{run_sequence, BackendMode, RunResult, Slam, SlamConfig, TelemetryMode};
use eslam_dataset::sequence::{SequenceSpec, SyntheticSequence};

const IMAGE_SCALE: f64 = 0.25;
const MODES: [TelemetryMode; 3] = [
    TelemetryMode::Off,
    TelemetryMode::Counters,
    TelemetryMode::Full,
];

fn config(mode: TelemetryMode) -> SlamConfig {
    let mut cfg = SlamConfig::scaled_for_tests(1.0 / IMAGE_SCALE);
    cfg.telemetry = cfg.telemetry.with_mode(mode);
    cfg
}

/// Paper sequences long enough that keyframes promote and the backend
/// solves, while staying debug-fast.
fn sequences() -> Vec<SyntheticSequence> {
    let all = SequenceSpec::paper_sequences(12, IMAGE_SCALE);
    let frames = [12, 10];
    all.iter()
        .zip(frames)
        .map(|(spec, n)| {
            let mut spec = spec.clone();
            spec.params.frames = n;
            spec.build()
        })
        .collect()
}

fn assert_identical(a: &RunResult, b: &RunResult, ctx: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{ctx}: frame count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        let fctx = format!("{ctx} frame {}", ra.index);
        assert_eq!(ra.pose_c2w, rb.pose_c2w, "{fctx}: pose");
        assert_eq!(ra.is_keyframe, rb.is_keyframe, "{fctx}: keyframe flag");
        assert_eq!(ra.tracking_ok, rb.tracking_ok, "{fctx}: tracking flag");
        assert_eq!(ra.inliers, rb.inliers, "{fctx}: inliers");
        assert_eq!(ra.map_size, rb.map_size, "{fctx}: map size");
    }
    assert_eq!(
        a.estimate.poses(),
        b.estimate.poses(),
        "{ctx}: refined trajectory"
    );
    assert_eq!(
        a.raw_estimate.poses(),
        b.raw_estimate.poses(),
        "{ctx}: raw trajectory"
    );
}

#[test]
fn trajectories_bit_identical_across_telemetry_modes_and_backends() {
    // The heart of the tier: every telemetry mode crossed with both
    // backend execution modes produces the same system evolution as
    // the off/sync reference.
    for seq in sequences() {
        let mut ref_cfg = config(TelemetryMode::Off);
        ref_cfg.backend.mode = BackendMode::Sync;
        let reference = run_sequence(&seq, ref_cfg);
        for mode in MODES {
            for backend in [BackendMode::Sync, BackendMode::Async] {
                let mut cfg = config(mode);
                cfg.backend.mode = backend;
                let result = run_sequence(&seq, cfg);
                let ctx = format!("{} telemetry={mode} backend={backend:?}", seq.name);
                assert_identical(&result, &reference, &ctx);
            }
        }
    }
}

#[test]
fn run_result_exposes_percentiles_for_key_stages() {
    let seq = &sequences()[0];
    let result = run_sequence(seq, config(TelemetryMode::Full));
    let summary = result
        .telemetry
        .as_ref()
        .expect("full mode must attach a summary to RunResult");
    assert_eq!(summary.mode, TelemetryMode::Full);
    for stage in [
        TStage::Extraction,
        TStage::Matching,
        TStage::PoseOptimize,
        TStage::BackendSolve,
        TStage::FrameWait,
    ] {
        let s = summary
            .stage(stage)
            .unwrap_or_else(|| panic!("{} must be recorded", stage.name()));
        assert!(s.count > 0, "{}: empty histogram", stage.name());
        assert!(
            s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.max_ms,
            "{}: percentiles out of order (p50 {} p95 {} p99 {} max {})",
            stage.name(),
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.max_ms
        );
        assert!(s.max_ms > 0.0, "{}: zero max", stage.name());
    }
    // The JSON rendering carries the same stages.
    let json = summary.to_json();
    for key in [
        "\"matching\"",
        "\"extraction\"",
        "\"p95_ms\"",
        "\"counters\"",
    ] {
        assert!(json.contains(key), "summary JSON missing {key}: {json}");
    }

    // Counters moved: frames were processed and matches were recorded.
    use eslam_core::telemetry::Counter;
    assert_eq!(
        summary.counter(Counter::FramesProcessed),
        result.reports.len() as u64
    );
    assert!(summary.counter(Counter::MatchInliers) > 0);

    // Off mode attaches nothing; counters mode records no histograms.
    let off = run_sequence(seq, config(TelemetryMode::Off));
    assert!(off.telemetry.is_none(), "off mode must attach no summary");
    let counters = run_sequence(seq, config(TelemetryMode::Counters));
    let cs = counters
        .telemetry
        .expect("counters mode attaches a summary");
    assert!(cs.stages.is_empty(), "counters mode records no histograms");
    assert!(cs.counter(Counter::FramesProcessed) > 0);
}

#[test]
fn chrome_trace_from_loop_circle_is_well_formed() {
    // The loop/circle sequence with the loop-closure tier's config, so
    // the trace contains the full span vocabulary: extraction levels,
    // matching, backend solves, loop detection.
    let spec = &SequenceSpec::loop_sequences(24, IMAGE_SCALE)[0];
    assert_eq!(spec.name, "loop/circle");
    let seq = spec.build();
    let mut cfg = config(TelemetryMode::Full);
    cfg.map_cull_age = 12;
    let mut slam = Slam::builder().config(cfg).build();
    for f in seq.frames() {
        slam.process(f.timestamp, &f.gray, &f.depth);
    }
    slam.finish();
    let telemetry = slam.telemetry().expect("full mode builds a sink");
    let trace = telemetry.chrome_trace();

    // Structural soundness (Perfetto loads strict JSON): balanced
    // braces/brackets and the trace_event vocabulary.
    let balanced = |open: char, close: char| {
        let o = trace.matches(open).count();
        let c = trace.matches(close).count();
        assert_eq!(o, c, "unbalanced {open}{close} in trace");
    };
    balanced('{', '}');
    balanced('[', ']');
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
    for key in [
        "\"traceEvents\"",
        "\"displayTimeUnit\":\"ms\"",
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "\"process_name\"",
        "\"thread_name\"",
    ] {
        assert!(trace.contains(key), "trace missing {key}");
    }
    // Nested spans: a frame span plus the stages inside it.
    for name in [
        "\"name\":\"frame\"",
        "\"name\":\"matching\"",
        "\"name\":\"pyramid_build\"",
    ] {
        assert!(trace.contains(name), "trace missing {name}");
    }
    assert!(
        trace.contains("\"args\":{\"frame\":"),
        "frame markers missing"
    );
    assert_eq!(telemetry.trace_events_dropped(), 0, "trace ring overflowed");
}

#[test]
fn prometheus_export_serves_histograms_and_counters() {
    let seq = &sequences()[0];
    let mut slam = Slam::builder().config(config(TelemetryMode::Full)).build();
    for f in seq.frames() {
        slam.process(f.timestamp, &f.gray, &f.depth);
    }
    slam.finish();
    let text = slam.telemetry().expect("sink").prometheus();
    for needle in [
        "# TYPE eslam_stage_duration_seconds histogram",
        "eslam_stage_duration_seconds_bucket{stage=\"matching\"",
        "le=\"+Inf\"",
        "eslam_stage_duration_seconds_count{stage=\"matching\"}",
        "eslam_stage_quantile_seconds{stage=\"matching\",quantile=\"0.95\"}",
        "# TYPE eslam_frames_processed_total counter",
        "eslam_frames_processed_total",
    ] {
        assert!(
            text.contains(needle),
            "prometheus export missing {needle}:\n{text}"
        );
    }
}

#[test]
fn over_budget_frames_are_pinned_in_the_flight_recorder() {
    let seq = &sequences()[0];
    let mut cfg = config(TelemetryMode::Full);
    // Every real frame busts a 1µs budget.
    cfg.telemetry.frame_budget_ms = 0.001;
    let mut slam = Slam::builder().config(cfg).build();
    for f in seq.frames() {
        slam.process(f.timestamp, &f.gray, &f.depth);
    }
    let telemetry = slam.telemetry().expect("sink");
    let timelines = telemetry.timelines();
    assert!(!timelines.is_empty(), "flight recorder is empty");
    assert!(timelines.iter().all(|t| t.over_budget));
    let pinned = telemetry
        .last_over_budget()
        .expect("over-budget frame must be pinned");
    assert!(pinned.total_ms > cfg.telemetry.frame_budget_ms);
    let dump = telemetry.flight_dump();
    assert!(
        dump.contains("OVER BUDGET"),
        "dump missing the flag:\n{dump}"
    );
    assert!(
        dump.contains("matching"),
        "dump missing stage breakdown:\n{dump}"
    );
    // The over-budget warnings landed in the event ring.
    let events = eslam_core::telemetry::events::snapshot();
    assert!(
        events
            .iter()
            .any(|e| e.message.contains("frame budget blown")),
        "no over-budget event recorded"
    );
}
