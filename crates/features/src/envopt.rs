//! The parse contract of the `ESLAM_*` override family.
//!
//! The libraries take every mode from their configuration structs; only
//! harness binaries read `ESLAM_*` variables, through
//! `eslam_core::Overrides::from_env().apply(..)`. The one exception is
//! `ESLAM_MATCH_KERNEL`, which picks a CPU dispatch rung below every
//! API and is resolved by [`crate::matcher::active_kernel`]. Both
//! readers hand the raw value to [`forced`], so every variable follows
//! one contract: unset, empty and `auto` mean "no override — use the
//! configured/detected value"; any other value must parse, and a typo
//! panics loudly instead of silently running the default path. This
//! module reads no environment itself; each caller supplies the raw
//! value and its value-set parser.

/// The forced value of `var` given its raw value `raw` (`None` when
/// the variable is unset), if any.
///
/// * Unset, empty/whitespace, or `auto` (case-insensitive) → `None`
///   ("no override").
/// * Otherwise the trimmed, ASCII-lowercased value is handed to
///   `parse`; `Some(v)` is the forced value.
/// * `parse` returning `None` panics with
///   `unrecognised {var}={raw:?} (expected {expected})`, quoting the
///   original (untrimmed) value.
///
/// # Examples
///
/// ```
/// use eslam_features::envopt::forced;
///
/// let on_off = |s: &str| match s {
///     "on" => Some(true),
///     "off" => Some(false),
///     _ => None,
/// };
/// // Unset variables force nothing; values are trimmed and lowercased.
/// assert_eq!(forced("DEMO_MODE", None, "on or off", on_off), None);
/// assert_eq!(forced("DEMO_MODE", Some(" Off "), "on or off", on_off), Some(false));
/// ```
pub fn forced<T>(
    var: &str,
    raw: Option<&str>,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = raw?;
    let value = raw.trim().to_ascii_lowercase();
    if value.is_empty() || value == "auto" {
        return None;
    }
    match parse(&value) {
        Some(v) => Some(v),
        None => panic!("unrecognised {var}={raw:?} (expected {expected})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_empty_and_auto_force_nothing() {
        let parse = |s: &str| (s == "x").then_some(1);
        assert_eq!(forced("DEMO", None, "x", parse), None);
        for v in ["", "  ", "auto", "AUTO", " Auto "] {
            assert_eq!(forced("DEMO", Some(v), "x", parse), None, "{v:?}");
        }
    }

    #[test]
    fn values_are_trimmed_and_lowercased_before_parsing() {
        let v = forced("DEMO", Some("  ON "), "on or off", |s| {
            (s == "on").then_some(true)
        });
        assert_eq!(v, Some(true));
    }

    #[test]
    #[should_panic(expected = "unrecognised DEMO_BAD=\"warp\"")]
    fn unparseable_values_panic_with_the_original_text() {
        let _ = forced("DEMO_BAD", Some("warp"), "on or off", |_| None::<bool>);
    }
}
