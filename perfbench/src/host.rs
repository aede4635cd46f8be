//! Host facts and process-wide measurements: CPU time, peak resident
//! memory, the `ESLAM_*` environment guard and the host fingerprint.

use std::time::Duration;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// CPU time consumed by every thread of this process so far.
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two `i64` fields on
    // 64-bit Linux) and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident memory since a reset point, read from `/proc`.
#[derive(Debug, Clone, Copy)]
pub struct PeakMemory {
    baseline_kb: u64,
}

impl PeakMemory {
    /// Returns freed heap pages to the kernel, then resets the
    /// process's peak resident size (`VmHWM`) to its current resident
    /// size, which becomes the baseline.
    pub fn reset() -> std::io::Result<PeakMemory> {
        #[cfg(target_env = "gnu")]
        // SAFETY: `malloc_trim` only releases free heap memory; it has
        // no preconditions.
        unsafe {
            malloc_trim(0);
        }
        std::fs::write("/proc/self/clear_refs", "5")?;
        let baseline_kb = status_kb("VmRSS")?;
        Ok(PeakMemory { baseline_kb })
    }

    /// Peak resident size above the baseline since [`PeakMemory::reset`], MB.
    pub fn peak_above_baseline_mb(&self) -> std::io::Result<f64> {
        let peak_kb = status_kb("VmHWM")?;
        Ok(peak_kb.saturating_sub(self.baseline_kb) as f64 / 1024.0)
    }
}

fn status_kb(key: &str) -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_status_kb(&status, key).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("no {key} line in /proc/self/status"),
        )
    })
}

/// The value of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Refuses to run while any `ESLAM_*` variable is set: each one changes
/// the program under test.
pub fn refuse_overrides<I, K, V>(vars: I) -> Result<(), String>
where
    I: IntoIterator<Item = (K, V)>,
    K: AsRef<str>,
    V: AsRef<str>,
{
    let set: Vec<String> = vars
        .into_iter()
        .filter(|(k, _)| k.as_ref().starts_with("ESLAM_"))
        .map(|(k, v)| format!("{}={}", k.as_ref(), v.as_ref()))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with ESLAM_* overrides set ({}); unset them to measure the production defaults",
            set.join(" ")
        ))
    }
}

/// Host facts printed next to every result.
pub fn fingerprint(worker_threads: usize) -> Vec<(&'static str, String)> {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let parallelism = std::thread::available_parallelism()
        .map_or_else(|_| "unknown".to_string(), |n| n.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("overrides", eslam_core::Overrides::from_env().report()),
        ("nproc", nproc),
        ("available_parallelism", parallelism),
        ("worker_threads", worker_threads.to_string()),
        (
            "match_kernel",
            eslam_features::matcher::active_kernel().name().to_string(),
        ),
        ("cpu_model", cpu),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let status = "Name:\tperfbench\nVmHWM:\t   20480 kB\nVmRSS:\t  10240 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(10240));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn peak_reset_forgets_earlier_peaks_and_sees_new_ones() {
        const MB: usize = 1 << 20;
        // An earlier, freed 64 MB peak must not survive the reset.
        let early = vec![1u8; 64 * MB];
        std::hint::black_box(&early);
        drop(early);
        let probe = PeakMemory::reset().expect("clear_refs is writable");
        assert!(
            probe.peak_above_baseline_mb().unwrap() < 32.0,
            "peak survived the reset"
        );
        // A new 48 MB resident buffer must show.
        let late = vec![1u8; 48 * MB];
        std::hint::black_box(&late);
        assert!(probe.peak_above_baseline_mb().unwrap() >= 40.0);
    }

    #[test]
    fn eslam_variables_are_refused() {
        assert!(refuse_overrides([("PATH", "/bin"), ("HOME", "/")]).is_ok());
        let err = refuse_overrides([("PATH", "/bin"), ("ESLAM_BANDS", "2")]).unwrap_err();
        assert!(err.contains("ESLAM_BANDS=2"), "{err}");
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = cpu_time();
        let mut x = 0u64;
        while cpu_time() - start < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
