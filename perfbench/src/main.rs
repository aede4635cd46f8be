//! The repository benchmark: end-to-end and per-layer metrics of the
//! eSLAM pipeline on pre-rendered workloads.
//!
//! ```text
//! perfbench --workload <desk-vga|loop-quarter|reloc-quarter> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The load is a closed loop with one caller: frame k+1 is handed to
//! `Slam::process` (or `Session::localize`) only after frame k returns.
//! Inputs are generated before timing. The untraced passes give the
//! end-to-end metrics; `--trace 1` adds a traced pass on the same
//! inputs and prints the per-layer metrics instead, and writes its spans
//! as a Chrome trace under `perfbench/out/`. The last line of standard
//! output is the JSON result.

mod cli;
mod hash;
mod host;
mod layers;
mod mapping;
mod reloc;
mod report;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use eslam_core::Slam;

use crate::cli::Args;
use crate::host::PeakMemory;
use crate::layers::{Call, LayerSample, PassFacts};
use crate::report::{result_json, Checks, Measured, Metric, PassOutcome, PassTiming};
use crate::trace::Tracer;
use crate::traced::Traced;
use crate::workload::{RelocInput, Sequence, Workload};

/// Frames (queries) pooled per run and per traced run: enough for ten
/// samples beyond the 90th percentile.
const MIN_FRAMES: usize = 100;
/// Untraced passes per run; two or more let the pose hash compare them.
const MIN_PASSES: usize = 2;
/// Share of `reloc-quarter` queries that must localize.
const MIN_LOCALIZED: f64 = 0.95;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::refuse_overrides(std::env::vars()) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The generated inputs of one workload.
enum Input {
    Mapping(Sequence),
    Reloc(RelocInput),
}

impl Input {
    fn pass(
        &self,
        workload: Workload,
        measured: &mut Measured,
        traced: Option<&mut Traced>,
    ) -> PassOutcome {
        match self {
            Input::Mapping(seq) => mapping::pass(seq, workload.config(), measured, traced),
            Input::Reloc(input) => reloc::pass(input, workload.config(), measured, traced),
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: Args) -> Result<bool, String> {
    let w = args.workload;
    let out = out_dir();
    println!(
        "perfbench {} seed {} ({}s, trace {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why());

    let generation = Instant::now();
    let input = match w {
        Workload::RelocQuarter => Input::Reloc(
            workload::reloc_input(args.seed, &out)
                .map_err(|e| format!("generating inputs: {e}"))?,
        ),
        _ => Input::Mapping(workload::mapping_input(w, args.seed)),
    };
    println!(
        "inputs generated in {:.2} s (not timed)",
        generation.elapsed().as_secs_f64()
    );

    let mut measured = Measured::default();
    let mut outcomes: Vec<PassOutcome> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while outcomes.len() < MIN_PASSES
        || measured.attempted() < MIN_FRAMES
        || started.elapsed() < budget
    {
        let probe = PeakMemory::reset().map_err(|e| format!("resetting the peak RSS: {e}"))?;
        let outcome = input.pass(w, &mut measured, None);
        let peak_mem_mb = probe
            .peak_above_baseline_mb()
            .map_err(|e| format!("reading the peak RSS: {e}"))?;
        measured.passes.push(PassTiming {
            peak_mem_mb,
            ..outcome.timing
        });
        outcomes.push(outcome);
    }
    measured.ate_cm = outcomes[0].ate_cm;

    let mut checks = Checks::default();
    let hash = outcomes[0].hash;
    checks.require(outcomes.iter().all(|o| o.hash == hash), || {
        "pose sequences differ between passes of one seed".into()
    });
    checks.require(measured.ate_cm <= w.ate_bound_cm(), || {
        format!(
            "ate_cm {:.3} exceeds the workload bound {}",
            measured.ate_cm,
            w.ate_bound_cm()
        )
    });
    if w == Workload::LoopQuarter && args.seed == 0 {
        checks.require(outcomes.iter().all(|o| o.backend.loops_closed >= 1), || {
            "loop-quarter on its reference seed closed no loop".into()
        });
    }
    if w == Workload::RelocQuarter {
        checks.require(1.0 - measured.failed_frac() >= MIN_LOCALIZED, || {
            format!(
                "only {:.1}% of queries localized within {} m",
                100.0 * (1.0 - measured.failed_frac()),
                reloc::GROSS_ERROR_M
            )
        });
        let (wrong, worst_m) = (outcomes[0].wrong, outcomes[0].worst_m);
        println!(
            "wrong relocalizations: {wrong} (beyond {} m; largest error {worst_m:.3} m)",
            reloc::GROSS_ERROR_M
        );
        checks.require(wrong == 0, || {
            format!(
                "{wrong} queries localized more than {} m from the truth",
                reloc::GROSS_ERROR_M
            )
        });
    }
    checks.require(
        measured
            .end_to_end()
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0),
        || "an end-to-end metric is not a positive number".into(),
    );
    if let Err(e) = ledger_check(&out, w, args.seed, hash) {
        checks.require(false, || e);
    }

    println!("host:");
    let worker_threads = Slam::builder().config(w.config()).build().worker_threads();
    let host = host::fingerprint(worker_threads);
    for (key, value) in &host {
        println!("  {key:<22} {value}");
    }
    println!("untraced: {} passes, pose hash {hash:016x}", outcomes.len());
    for line in measured.summary() {
        println!("  {line}");
    }

    let (metrics, attempted, failed) = if args.trace {
        let mut facts = PassFacts {
            untraced: outcomes,
            ..PassFacts::default()
        };
        let (metrics, traced) = traced_run(
            &args,
            &input,
            &measured,
            &mut facts,
            &host,
            hash,
            &mut checks,
        )?;
        (
            metrics,
            measured.attempted() + traced.attempted(),
            measured.failed + traced.failed,
        )
    } else {
        (measured.end_to_end(), measured.attempted(), measured.failed)
    };

    for failure in checks.failures() {
        println!("check failed: {failure}");
    }
    println!(
        "{}",
        result_json(checks.passed(), attempted, failed, &metrics)
    );
    Ok(checks.passed())
}

/// The traced pass(es): the per-layer metrics, with the spans written
/// as a Chrome trace.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    input: &Input,
    untraced: &Measured,
    facts: &mut PassFacts,
    host: &[(&'static str, String)],
    hash: u64,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Measured), String> {
    let (w, seed) = (args.workload, args.seed);
    let mut tracer = Tracer::new();
    let config = w.config();
    let mut traced = Traced::new(&mut tracer, &config);
    let mut measured = Measured::default();
    while traced.samples.len() < MIN_FRAMES {
        let outcome = input.pass(w, &mut measured, Some(&mut traced));
        checks.require(outcome.hash == hash, || {
            "the traced pass produced other poses than the untraced passes".into()
        });
        measured.passes.push(outcome.timing);
        facts.traced.push(outcome);
    }
    let disagreements = traced.disagreements;
    checks.require(disagreements == 0, || {
        format!("the shadow track_frame disagreed with Slam::process on {disagreements} frames")
    });
    facts.working_bytes = traced.working_bytes;
    if let Input::Reloc(reloc) = input {
        facts.atlas_bytes = reloc.atlas_bytes;
    }
    let samples: Vec<LayerSample> = std::mem::take(&mut traced.samples);
    let call = match w {
        Workload::RelocQuarter => Call::Localize,
        _ => Call::Process,
    };
    let mut metrics = layers::metrics(&samples, facts, call);
    // Both rates are over whole passes, so the trace's own layer calls
    // count against the traced one.
    let overhead = 1.0 - measured.fps() / untraced.fps();
    metrics.push(Metric::new("trace.overhead_frac", overhead, "ratio"));

    println!(
        "traced: {} frames, {} spans, shadow tracking disagreed on {disagreements}",
        samples.len(),
        tracer.len()
    );
    for m in &metrics {
        println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(format!("{}-seed{seed}.trace.json", w.name()));
    let mut meta = vec![
        ("workload", w.name().to_string()),
        ("seed", seed.to_string()),
        ("trace.overhead_frac", format!("{overhead:.6}")),
    ];
    meta.extend(host.iter().cloned());
    std::fs::write(&path, tracer.chrome_json(&meta))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok((metrics, measured))
}

/// Requires every run of one build, workload and seed to produce the
/// same pose hash, across invocations: hashes are kept in a ledger next
/// to the outputs, keyed by the executable's size and modification time.
fn ledger_check(out: &Path, w: Workload, seed: u64, hash: u64) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map_err(|e| format!("reading the executable's metadata: {e}"))?;
    let modified = exe
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let key = format!("{}-{modified} {} {seed}", exe.len(), w.name());
    let path = out.join("pose_hashes.txt");
    let ledger = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(prior) = ledger
        .lines()
        .find_map(|line| line.strip_prefix(&key)?.strip_prefix(' '))
    {
        return if prior == format!("{hash:016x}") {
            Ok(())
        } else {
            Err(format!(
                "pose hash {hash:016x} differs from {prior} of an earlier run of this seed"
            ))
        };
    }
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut ledger = ledger;
    ledger.push_str(&format!("{key} {hash:016x}\n"));
    std::fs::write(&path, ledger).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "..."` values of one top-level array of `BENCHMARK.json`.
    fn names(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let mut measured = Measured::default();
        measured.frame(1.0, true);
        measured.passes.push(PassTiming {
            frames: 1,
            busy_s: 1.0,
            cpu_s: 1.0,
            setup_s: 1.0,
            peak_mem_mb: 1.0,
        });
        let end_to_end: Vec<String> = measured
            .end_to_end()
            .into_iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);
        let mut per_layer: Vec<String> = layers::metrics(&[], &PassFacts::default(), Call::Process)
            .into_iter()
            .map(|m| m.name.to_string())
            .collect();
        per_layer.push("trace.overhead_frac".into());
        assert_eq!(names("per_layer"), per_layer);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), listed);
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"why\": \"{}\"", w.why())),
                "{}",
                w.name()
            );
        }
    }
}
