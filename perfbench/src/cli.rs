//! Command-line arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use crate::workload::Workload;

/// A parsed, validated command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    /// Offset added to the workload's reference scene seed; `0` runs
    /// the reference scene.
    pub seed: u64,
    /// Minimum measured time of one run.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <desk-vga|loop-quarter|reloc-quarter> \
                         [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parses the arguments after the program name. Every flag takes a
/// value; `--workload` is required, the others default to seed 0,
/// 20 seconds and no trace.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be a non-negative integer, got `{value}`"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be a positive number, got `{value}`"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_command_line_parses() {
        let args = parse(&[
            "--workload",
            "loop-quarter",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::LoopQuarter,
                seed: 7,
                seconds: 12.0,
                trace: true,
            }
        );
    }

    #[test]
    fn defaults_apply_and_order_is_free() {
        let args = parse(&["--trace", "0", "--workload", "desk-vga"]).unwrap();
        assert_eq!(args.workload, Workload::DeskVga);
        assert_eq!(args.seed, 0);
        assert_eq!(args.seconds, 20.0);
        assert!(!args.trace);
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(parse(&["--workload", w.name()]).unwrap().workload, w);
        }
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            &[][..],
            &["--workload"][..],
            &["--workload", "desk"][..],
            &["--workload", "desk-vga", "--seed", "-1"][..],
            &["--workload", "desk-vga", "--seed", "x"][..],
            &["--workload", "desk-vga", "--seconds", "0"][..],
            &["--workload", "desk-vga", "--seconds", "nan"][..],
            &["--workload", "desk-vga", "--trace", "2"][..],
            &["--workload", "desk-vga", "--frames", "3"][..],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
