//! The one override surface: every `ESLAM_*` environment variable,
//! parsed once at harness entry and applied to a [`SlamConfig`].
//!
//! The libraries read no environment: they take every mode from
//! [`SlamConfig`]. Harness binaries (`sequence_report`, the examples)
//! call `Overrides::from_env().apply(&mut config)` after building their
//! configuration, so an operator can still force a mode per run:
//!
//! | variable | values | forces |
//! |---|---|---|
//! | `ESLAM_MATCH_KERNEL` | `auto`, `scalar`, `popcnt`, `avx2`, `avx512` | the Hamming-matcher SIMD rung |
//! | `ESLAM_PREFETCH` | `auto`, `on`/`1`/`true`, `off`/`0`/`false` | [`SlamConfig::prefetch`] |
//! | `ESLAM_BACKEND` | `auto`, `off`, `sync`, `async` | [`SlamConfig::backend`]`.mode` |
//! | `ESLAM_BANDS` | `auto`, a positive integer | [`SlamConfig::orb`]`.bands` |
//! | `ESLAM_TELEMETRY` | `auto`, `off`, `counters`, `full` | [`SlamConfig::telemetry`]`.mode` |
//!
//! `ESLAM_MATCH_KERNEL` is the exception: it picks a CPU dispatch rung
//! below every API, so `eslam_features::matcher::active_kernel` reads
//! it itself, through the same parser this module uses
//! (`eslam_features::matcher::forced_kernel`).
//!
//! All five share one parse contract (`eslam_features::envopt`): unset,
//! empty and `auto` mean "no override"; values are trimmed and
//! case-insensitive; and an unrecognised value panics up front with
//! the accepted spellings, never silently falling back.
//! [`Overrides::report`] renders the active set for logs.

use crate::config::{PrefetchMode, SlamConfig};
use eslam_backend::BackendMode;
use eslam_features::envopt;
use eslam_features::matcher::{forced_kernel, MatchKernel};
use eslam_features::BandMode;
use eslam_telemetry::TelemetryMode;

pub use eslam_features::matcher::MATCH_KERNEL_ENV;

/// Environment variable forcing [`SlamConfig::prefetch`].
pub const PREFETCH_ENV: &str = "ESLAM_PREFETCH";
/// Environment variable forcing the keyframe-backend execution mode.
pub const BACKEND_ENV: &str = "ESLAM_BACKEND";
/// Environment variable forcing the per-level row-band count of the
/// streaming ORB extractor.
pub const BANDS_ENV: &str = "ESLAM_BANDS";
/// Environment variable forcing the telemetry recording mode.
pub const TELEMETRY_ENV: &str = "ESLAM_TELEMETRY";

/// The `ESLAM_PREFETCH` keywords; [`Overrides::report`] prints the
/// first spelling of each mode.
const PREFETCH_KEYWORDS: [(&str, PrefetchMode); 6] = [
    ("on", PrefetchMode::On),
    ("off", PrefetchMode::Off),
    ("1", PrefetchMode::On),
    ("true", PrefetchMode::On),
    ("0", PrefetchMode::Off),
    ("false", PrefetchMode::Off),
];

/// The `ESLAM_BACKEND` keywords.
const BACKEND_KEYWORDS: [(&str, BackendMode); 3] = [
    ("off", BackendMode::Off),
    ("sync", BackendMode::Sync),
    ("async", BackendMode::Async),
];

/// The value `word` names in `table`.
fn keyword<T: Copy>(table: &[(&str, T)], word: &str) -> Option<T> {
    table.iter().find(|(w, _)| *w == word).map(|&(_, v)| v)
}

/// The first spelling of `value` in `table`.
fn spelling<T: PartialEq>(table: &[(&'static str, T)], value: &T) -> &'static str {
    table
        .iter()
        .find(|(_, v)| v == value)
        .map_or("auto", |&(w, _)| w)
}

/// The full set of environment overrides, parsed and validated.
/// `None` everywhere means "defer to configuration/detection".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Forced Hamming-matcher kernel rung, from `ESLAM_MATCH_KERNEL`
    /// (reported only: the matcher resolves it itself).
    pub match_kernel: Option<MatchKernel>,
    /// Forced prefetch mode, from `ESLAM_PREFETCH`.
    pub prefetch: Option<PrefetchMode>,
    /// Forced backend execution mode, from `ESLAM_BACKEND`.
    pub backend: Option<BackendMode>,
    /// Forced per-level row-band count, from `ESLAM_BANDS`.
    pub bands: Option<BandMode>,
    /// Forced telemetry recording mode, from `ESLAM_TELEMETRY`.
    pub telemetry: Option<TelemetryMode>,
}

impl Overrides {
    /// Parses every `ESLAM_*` override from the process environment.
    ///
    /// # Panics
    /// As [`Overrides::from_lookup`]. Call this early: failing at
    /// startup beats a run that silently ignored the operator's intent.
    pub fn from_env() -> Overrides {
        Overrides::from_lookup(|var| std::env::var(var).ok())
    }

    /// Parses every override from `lookup`, which maps a variable name
    /// to its raw value (`None` when unset).
    ///
    /// # Panics
    /// Panics — with the variable name, the offending value and the
    /// accepted spellings — when any variable holds an unrecognised
    /// value.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Overrides {
        Overrides {
            match_kernel: forced_kernel(lookup(MATCH_KERNEL_ENV).as_deref()),
            prefetch: envopt::forced(
                PREFETCH_ENV,
                lookup(PREFETCH_ENV).as_deref(),
                "auto, on or off",
                |v| keyword(&PREFETCH_KEYWORDS, v),
            ),
            backend: envopt::forced(
                BACKEND_ENV,
                lookup(BACKEND_ENV).as_deref(),
                "auto, off, sync or async",
                |v| keyword(&BACKEND_KEYWORDS, v),
            ),
            bands: envopt::forced(
                BANDS_ENV,
                lookup(BANDS_ENV).as_deref(),
                "auto or a positive band count",
                BandMode::parse,
            ),
            telemetry: envopt::forced(
                TELEMETRY_ENV,
                lookup(TELEMETRY_ENV).as_deref(),
                "auto, off, counters or full",
                TelemetryMode::parse,
            ),
        }
    }

    /// Writes every forced mode into `config` and leaves the rest as
    /// configured. The matcher kernel has no config field and is not
    /// applied here (see the module docs).
    pub fn apply(&self, config: &mut SlamConfig) {
        if let Some(mode) = self.prefetch {
            config.prefetch = mode;
        }
        if let Some(mode) = self.backend {
            config.backend.mode = mode;
        }
        if let Some(bands) = self.bands {
            config.orb.bands = bands;
        }
        if let Some(mode) = self.telemetry {
            config.telemetry.mode = mode;
        }
    }

    /// One line per variable, `auto` for unset — for run headers and
    /// CI logs.
    pub fn report(&self) -> String {
        let kernel = self.match_kernel.map_or("auto", |k| k.name());
        let prefetch = self
            .prefetch
            .map_or("auto", |m| spelling(&PREFETCH_KEYWORDS, &m));
        let backend = self
            .backend
            .map_or("auto", |m| spelling(&BACKEND_KEYWORDS, &m));
        let bands = self.bands.unwrap_or_default();
        let telemetry = self.telemetry.map_or("auto", |m| m.name());
        format!(
            "{MATCH_KERNEL_ENV}={kernel} {PREFETCH_ENV}={prefetch} \
             {BACKEND_ENV}={backend} {BANDS_ENV}={bands} {TELEMETRY_ENV}={telemetry}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A fake environment holding exactly `vars`.
    fn parse(vars: &[(&str, &str)]) -> Overrides {
        let env: HashMap<String, String> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Overrides::from_lookup(|var| env.get(var).cloned())
    }

    /// Every field forced to a non-default value.
    fn full_set() -> Overrides {
        Overrides {
            match_kernel: Some(MatchKernel::Scalar),
            prefetch: Some(PrefetchMode::Off),
            backend: Some(BackendMode::Sync),
            bands: Some(BandMode::Fixed(3)),
            telemetry: Some(TelemetryMode::Full),
        }
    }

    #[test]
    fn report_renders_the_inactive_set() {
        assert_eq!(
            Overrides::default().report(),
            "ESLAM_MATCH_KERNEL=auto ESLAM_PREFETCH=auto ESLAM_BACKEND=auto \
             ESLAM_BANDS=auto ESLAM_TELEMETRY=auto"
        );
    }

    #[test]
    fn report_renders_an_active_set() {
        assert_eq!(
            full_set().report(),
            "ESLAM_MATCH_KERNEL=scalar ESLAM_PREFETCH=off ESLAM_BACKEND=sync \
             ESLAM_BANDS=3 ESLAM_TELEMETRY=full"
        );
    }

    /// `from_env` is `from_lookup` over the process environment; the
    /// fake environment keeps the test independent of the real one.
    #[test]
    fn from_env_parses_the_full_override_set() {
        let overrides = parse(&[
            (MATCH_KERNEL_ENV, "Scalar"),
            (PREFETCH_ENV, " off"),
            (BACKEND_ENV, "SYNC "),
            (BANDS_ENV, " 3 "),
            (TELEMETRY_ENV, " Full "),
        ]);
        assert_eq!(overrides, full_set());
        // The other keyword spellings parse too.
        assert_eq!(
            parse(&[(PREFETCH_ENV, "TRUE")]).prefetch,
            Some(PrefetchMode::On)
        );
        assert_eq!(
            parse(&[(PREFETCH_ENV, "0")]).prefetch,
            Some(PrefetchMode::Off)
        );
        assert_eq!(
            parse(&[(BACKEND_ENV, "async")]).backend,
            Some(BackendMode::Async)
        );
        assert_eq!(
            parse(&[(MATCH_KERNEL_ENV, "avx512")]).match_kernel,
            Some(MatchKernel::Avx512)
        );
        // Unset, empty and `auto` override nothing; for bands this keeps
        // `auto` from replacing a configured fixed count.
        assert_eq!(parse(&[]), Overrides::default());
        for value in ["", " ", "auto", " AUTO "] {
            let vars = [
                MATCH_KERNEL_ENV,
                PREFETCH_ENV,
                BACKEND_ENV,
                BANDS_ENV,
                TELEMETRY_ENV,
            ]
            .map(|var| (var, value));
            assert_eq!(parse(&vars), Overrides::default(), "{value:?}");
        }
    }

    #[test]
    fn typoed_values_fail_from_env_for_every_variable() {
        // A typo in any `ESLAM_*` toggle must abort the run up front
        // (the `axv2` regression class), never silently fall back.
        for (var, bad) in [
            (MATCH_KERNEL_ENV, "axv2"),
            (PREFETCH_ENV, "offf"),
            (BACKEND_ENV, "asink"),
            (BANDS_ENV, "two"),
            (BANDS_ENV, "0"), // zero bands is a typo, not a request
            (TELEMETRY_ENV, "fulll"),
        ] {
            let panic = std::panic::catch_unwind(|| parse(&[(var, bad)]))
                .expect_err(&format!("{var}={bad} must fail"));
            let message = panic
                .downcast_ref::<String>()
                .expect("the panic carries a formatted message");
            assert!(
                message.contains(&format!("unrecognised {var}=\"{bad}\"")),
                "{var}={bad}: unexpected panic message {message}"
            );
        }
    }

    #[test]
    fn default_overrides_leave_the_config_unchanged() {
        let config = SlamConfig::default();
        let mut applied = config;
        Overrides::default().apply(&mut applied);
        assert_eq!(applied, config);
    }

    #[test]
    fn each_override_changes_exactly_its_config_field() {
        type Edit = fn(&mut SlamConfig);
        let config = SlamConfig::default();
        let cases: [(Overrides, Edit); 5] = [
            (
                Overrides {
                    prefetch: Some(PrefetchMode::Off),
                    ..Overrides::default()
                },
                |c| c.prefetch = PrefetchMode::Off,
            ),
            (
                Overrides {
                    backend: Some(BackendMode::Sync),
                    ..Overrides::default()
                },
                |c| c.backend.mode = BackendMode::Sync,
            ),
            (
                Overrides {
                    bands: Some(BandMode::Fixed(3)),
                    ..Overrides::default()
                },
                |c| c.orb.bands = BandMode::Fixed(3),
            ),
            (
                Overrides {
                    telemetry: Some(TelemetryMode::Full),
                    ..Overrides::default()
                },
                |c| c.telemetry.mode = TelemetryMode::Full,
            ),
            // The kernel rung has no config field: applying it is a no-op.
            (
                Overrides {
                    match_kernel: Some(MatchKernel::Scalar),
                    ..Overrides::default()
                },
                |_| {},
            ),
        ];
        for (overrides, edit) in cases {
            let mut applied = config;
            overrides.apply(&mut applied);
            let mut expected = config;
            edit(&mut expected);
            assert_eq!(applied, expected, "{}", overrides.report());
        }
    }
}
