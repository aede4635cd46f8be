//! End-to-end accounting, correctness checks and the result line.

use std::fmt::Write as _;

use eslam_backend::BackendStats;

use crate::stats::{beyond, median, percentile, tail_percentile};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// One pass's loop-level measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassTiming {
    pub frames: usize,
    /// Wall time from the first frame through the end of the pass
    /// (`Slam::finish` included, set-up excluded).
    pub busy_s: f64,
    /// Process CPU time, all threads, over the same span.
    pub cpu_s: f64,
    pub setup_s: f64,
    /// Peak resident size during the pass above its start, MB.
    pub peak_mem_mb: f64,
}

impl PassTiming {
    fn fps(&self) -> f64 {
        self.frames as f64 / self.busy_s
    }

    fn cpu_ms_per_frame(&self) -> f64 {
        self.cpu_s * 1e3 / self.frames as f64
    }
}

/// What one pass produced besides its per-frame samples.
#[derive(Debug, Clone, Copy)]
pub struct PassOutcome {
    /// Hash of the per-frame output poses and the final trajectory.
    pub hash: u64,
    /// Loop-level timing; the caller fills in the peak memory.
    pub timing: PassTiming,
    pub ate_cm: f64,
    /// Backend counters at the end of the pass.
    pub backend: BackendStats,
    pub finish_ms: f64,
    pub map_points: usize,
    /// Atlas load time (`reloc-quarter` only).
    pub load_ms: f64,
    /// Queries placed farther than the gross-error limit from the truth
    /// (`reloc-quarter` only).
    pub wrong: usize,
    /// Largest position error of a localized query, m.
    pub worst_m: f64,
}

/// What the untraced passes of one run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Latency of every attempted call, failed ones included, in order.
    pub frame_ms: Vec<f64>,
    pub failed: usize,
    pub passes: Vec<PassTiming>,
    /// Identical on every pass (checked through the pose hash).
    pub ate_cm: f64,
}

impl Measured {
    /// Records one attempted frame. A frame that failed keeps its
    /// latency sample and counts in `failed`: nothing is dropped.
    pub fn frame(&mut self, ms: f64, ok: bool) {
        self.frame_ms.push(ms);
        if !ok {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> usize {
        self.frame_ms.len()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted().max(1) as f64
    }

    fn per_pass(&self, f: impl Fn(&PassTiming) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    /// Median over passes of the frames completed per second.
    pub fn fps(&self) -> f64 {
        self.per_pass(PassTiming::fps)
    }

    /// The end-to-end metrics `BENCHMARK.json` gates. Rates, CPU time,
    /// set-up and memory are medians over passes, which keeps a burst of
    /// host contention in a minority of passes out of them.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("fps", self.fps(), "frames/s"),
            Metric::new("frame_ms_p50", median(&self.frame_ms), "ms"),
            Metric::new(
                "cpu_ms_per_frame",
                self.per_pass(PassTiming::cpu_ms_per_frame),
                "ms",
            ),
            Metric::new("setup_s", self.per_pass(|p| p.setup_s), "s"),
            Metric::new("peak_mem_mb", self.per_pass(|p| p.peak_mem_mb), "MB"),
        ]
    }

    /// Human-readable lines: the gated metrics, then the printed-only
    /// ones (the tail, which host contention moves by more than any
    /// allowed bound, and accuracy and failures, which depend on the
    /// scene a seed renders), and the highest tail percentile the sample
    /// count supports, with its counts.
    pub fn summary(&self) -> Vec<String> {
        let printed = [
            Metric::new("frame_ms_p90", percentile(&self.frame_ms, 90.0), "ms"),
            Metric::new("ate_cm", self.ate_cm, "cm"),
        ];
        let mut lines: Vec<String> = self
            .end_to_end()
            .iter()
            .chain(&printed)
            .map(|m| format!("{:<18} {:>14.6} {}", m.name, m.value, m.unit))
            .collect();
        lines.push(format!(
            "{:<18} {:>14.6} ratio ({} of {} frames)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted()
        ));
        let n = self.frame_ms.len();
        if let Some(p) = tail_percentile(n) {
            lines.push(format!(
                "tail: frame_ms_p{p} = {:.4} ms (n={n}, {} samples beyond)",
                percentile(&self.frame_ms, p),
                beyond(n, p)
            ));
        }
        let list = |f: &dyn Fn(&PassTiming) -> f64| {
            self.passes
                .iter()
                .map(|p| format!("{:.2}", f(p)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        lines.push(format!("per-pass fps: {}", list(&PassTiming::fps)));
        lines
    }
}

/// Correctness checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The final result line.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON numbers; a check fails on them.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frames_are_counted_not_dropped() {
        let mut m = Measured::default();
        m.frame(10.0, true);
        m.frame(500.0, false);
        m.frame(12.0, true);
        m.frame(11.0, false);
        assert_eq!(m.attempted(), 4);
        assert_eq!(m.failed, 2);
        assert_eq!(m.failed_frac(), 0.5);
        // The failed frames' latencies stay in the distribution.
        assert_eq!(percentile(&m.frame_ms, 100.0), 500.0);
    }

    #[test]
    fn summary_names_the_tail_with_its_counts() {
        let mut m = Measured::default();
        for i in 0..200 {
            m.frame(f64::from(i), true);
        }
        m.passes.push(PassTiming {
            frames: 200,
            busy_s: 1.0,
            cpu_s: 1.0,
            setup_s: 0.5,
            peak_mem_mb: 1.0,
        });
        let lines = m.summary().join("\n");
        assert!(
            lines.contains("frame_ms_p95 = 189.0000 ms (n=200, 10 samples beyond)"),
            "{lines}"
        );
        assert!(lines.contains("failed_frac"), "{lines}");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let json = result_json(
            true,
            3,
            0,
            &[
                Metric::new("fps", 2.5, "frames/s"),
                Metric::new("x", f64::NAN, "ms"),
            ],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"fps\": {\"value\": 2.5, \"unit\": \"frames/s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn checks_collect_failures() {
        let mut c = Checks::default();
        c.require(true, || "never".into());
        assert!(c.passed());
        c.require(false, || "ate too high".into());
        assert_eq!(c.failures(), ["ate too high"]);
    }
}
