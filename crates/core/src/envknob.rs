//! Environment-variable override knobs (`DASP_*`), parsed in one place.
//!
//! Every knob follows the same contract: unset or empty means "leave the
//! configured [`Params`](crate::Params) value in charge", a well-formed
//! value overrides it, and a malformed value — unparsable text, or zero
//! where zero is meaningless — falls back **loudly**, with one warning per
//! variable to stderr, instead of silently testing the default (a typo'd CI
//! matrix must not pass as a non-default configuration). The knobs routed
//! through here:
//!
//! * `DASP_SEGMENT_SEAL` — live tail-seal threshold ([`Params::segment_seal`](crate::Params::segment_seal))
//! * `DASP_SHARDS` — tid-range shard count ([`Params::shards`](crate::Params::shards))
//! * `DASP_FAULT_SEED` — chaos seed (any `u64`; zero is a *valid* seed, so
//!   it parses through [`any_u64`] rather than [`positive_usize`])

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Emit `warning` to stderr the first time `name` warns in this process.
/// One line per misconfigured variable, not one per engine construction.
fn warn_once(name: &str, warning: &str) {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if warned.insert(name.to_string()) {
        eprintln!("{warning}");
    }
}

/// Parse a positive-integer knob value. Returns `(override, warning)`:
/// unset/empty input is a silent `(None, None)`; a positive integer is
/// `(Some(v), None)`; anything else (unparsable, zero, negative) is `None`
/// with the warning line the caller should emit. Split from the
/// stderr-writing wrapper so tests can assert the warning fires.
pub fn parse_positive_usize(name: &str, var: Option<&str>) -> (Option<usize>, Option<String>) {
    let raw = match var.map(str::trim) {
        None | Some("") => return (None, None),
        Some(raw) => raw,
    };
    match raw.parse::<usize>() {
        Ok(v) if v > 0 => (Some(v), None),
        _ => (
            None,
            Some(format!(
                "warning: ignoring {name}={raw:?}: expected a positive integer; \
                 the configured default applies"
            )),
        ),
    }
}

/// Parse an any-integer knob value (zero allowed — `DASP_FAULT_SEED=0` pins
/// seed zero). Same `(override, warning)` contract as
/// [`parse_positive_usize`].
pub fn parse_u64(name: &str, var: Option<&str>) -> (Option<u64>, Option<String>) {
    let raw = match var.map(str::trim) {
        None | Some("") => return (None, None),
        Some(raw) => raw,
    };
    match raw.parse::<u64>() {
        Ok(v) => (Some(v), None),
        Err(_) => (
            None,
            Some(format!(
                "warning: ignoring {name}={raw:?}: expected an unsigned integer; \
                 the configured default applies"
            )),
        ),
    }
}

/// [`parse_positive_usize`] with the warning (if any) written to stderr,
/// once per variable name per process.
pub fn positive_usize(name: &str, var: Option<&str>) -> Option<usize> {
    let (value, warning) = parse_positive_usize(name, var);
    if let Some(w) = &warning {
        warn_once(name, w);
    }
    value
}

/// [`parse_u64`] with the warning (if any) written to stderr, once per
/// variable name per process.
pub fn any_u64(name: &str, var: Option<&str>) -> Option<u64> {
    let (value, warning) = parse_u64(name, var);
    if let Some(w) = &warning {
        warn_once(name, w);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_usize_accepts_only_positive_integers() {
        assert_eq!(positive_usize("DASP_TEST_KNOB", None), None);
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some("")), None);
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some("  ")), None);
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some("3")), Some(3));
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some(" 128 ")), Some(128));
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some("0")), None);
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some("-3")), None);
        assert_eq!(positive_usize("DASP_TEST_KNOB", Some("abc")), None);
    }

    /// The negative test of the override-plumbing sweep: malformed input
    /// must *fire the warning*, not silently fall back — a typo'd CI matrix
    /// (`DASP_SEGMENT_SEAL=abc`, `=0`) used to test the defaults without a
    /// word.
    #[test]
    fn malformed_input_fires_the_warning() {
        for bad in ["abc", "0", "-3", "3.5", "1e3"] {
            let (value, warning) = parse_positive_usize("DASP_SEGMENT_SEAL", Some(bad));
            assert_eq!(value, None, "{bad:?} must not parse");
            let warning = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(warning.contains("DASP_SEGMENT_SEAL"), "warning names the variable");
            assert!(warning.contains(bad), "warning echoes the rejected value: {warning}");
        }
        let (_, warning) = parse_u64("DASP_FAULT_SEED", Some("banana"));
        assert!(warning.expect("unparsable seed warns").contains("DASP_FAULT_SEED"));
    }

    #[test]
    fn unset_and_empty_stay_silent() {
        for var in [None, Some(""), Some("   ")] {
            assert_eq!(parse_positive_usize("DASP_TEST_KNOB", var), (None, None));
            assert_eq!(parse_u64("DASP_TEST_KNOB", var), (None, None));
        }
    }

    #[test]
    fn u64_knob_allows_zero() {
        assert_eq!(any_u64("DASP_TEST_SEED", Some("0")), Some(0));
        assert_eq!(any_u64("DASP_TEST_SEED", Some(" 7 ")), Some(7));
        assert_eq!(any_u64("DASP_TEST_SEED", Some("banana")), None);
        assert_eq!(any_u64("DASP_TEST_SEED", None), None);
    }
}
