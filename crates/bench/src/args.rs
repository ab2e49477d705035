//! Minimal `--key value` argument parsing for the experiment binaries and
//! the `hotspot` CLI (kept dependency-free; the approved crate list has no
//! CLI parser). Parsing and typed access are fallible, with one error
//! type; [`ExperimentArgs::from_iter`] and the un-prefixed typed accessors
//! are thin wrappers that panic, so experiment invocations fail loudly.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A malformed command line: a bare token, a trailing flag with no value,
/// or a flag value that does not parse. The message names the token or
/// flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(String);

impl ArgsError {
    pub(crate) fn bad_value(flag: &str, value: &str, expected: &str) -> Self {
        ArgsError(format!("--{flag} expects {expected}, got '{value}'"))
    }
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgsError {}

fn loud<T>(result: Result<T, ArgsError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Parsed experiment arguments with typed accessors and defaults.
///
/// # Examples
///
/// ```
/// use hotspot_bench::ExperimentArgs;
///
/// let args = ExperimentArgs::from_iter(["--scale", "0.05", "--steps", "400"]);
/// assert_eq!(args.f64("scale", 0.02), 0.05);
/// assert_eq!(args.usize("steps", 800), 400);
/// assert_eq!(args.usize("k", 32), 32); // default
/// let bad = ExperimentArgs::parse(["--k", "abc"]).unwrap();
/// let err = bad.try_usize("k", 32).unwrap_err();
/// assert_eq!(err.to_string(), "--k expects an integer, got 'abc'");
/// assert!(ExperimentArgs::parse(["stray"]).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExperimentArgs {
    values: HashMap<String, String>,
}

impl ExperimentArgs {
    /// Parses the process arguments (skipping `argv[0]`), panicking like
    /// [`ExperimentArgs::from_iter`].
    pub fn from_env() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// [`ExperimentArgs::parse`], panicking with the error's message.
    #[allow(clippy::should_implement_trait)] // panics on bad input by design
    pub fn from_iter<I, S>(tokens: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        loud(Self::parse(tokens))
    }

    /// Parses an explicit token stream of `--key value` pairs.
    ///
    /// # Errors
    ///
    /// A token that does not start with `--` where a flag is expected, or
    /// a trailing flag with no value.
    pub fn parse<I, S>(tokens: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values = HashMap::new();
        let mut iter = tokens.into_iter().map(Into::into);
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(ArgsError(format!("expected --flag, got '{key}'")));
            };
            let Some(value) = iter.next() else {
                return Err(ArgsError(format!("flag --{name} needs a value")));
            };
            values.insert(name.to_string(), value);
        }
        Ok(ExperimentArgs { values })
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn typed<T: FromStr>(&self, key: &str, default: T, expected: &str) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgsError::bad_value(key, v, expected)),
        }
    }

    /// `f64` flag with default.
    ///
    /// # Errors
    ///
    /// A value that does not parse (so for every `try_*` accessor).
    pub fn try_f64(&self, key: &str, default: f64) -> Result<f64, ArgsError> {
        self.typed(key, default, "a number")
    }

    /// `usize` flag with default; see [`ExperimentArgs::try_f64`].
    pub fn try_usize(&self, key: &str, default: usize) -> Result<usize, ArgsError> {
        self.typed(key, default, "an integer")
    }

    /// `u64` flag with default; see [`ExperimentArgs::try_f64`].
    pub fn try_u64(&self, key: &str, default: u64) -> Result<u64, ArgsError> {
        self.typed(key, default, "an integer")
    }

    /// [`ExperimentArgs::try_f64`], panicking on a bad value.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        loud(self.try_f64(key, default))
    }

    /// [`ExperimentArgs::try_usize`], panicking on a bad value.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        loud(self.try_usize(key, default))
    }

    /// [`ExperimentArgs::try_u64`], panicking on a bad value.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        loud(self.try_u64(key, default))
    }

    /// String flag with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs() {
        let a = ExperimentArgs::from_iter(["--x", "1.5", "--name", "iccad"]);
        assert_eq!(a.f64("x", 0.0), 1.5);
        assert_eq!(a.string("name", "?"), "iccad");
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn defaults_apply() {
        let a = ExperimentArgs::from_iter::<_, String>([]);
        assert_eq!(a.usize("steps", 7), 7);
        assert_eq!(a.u64("seed", 9), 9);
    }

    #[test]
    #[should_panic(expected = "expected --flag")]
    fn rejects_bare_tokens() {
        let _ = ExperimentArgs::from_iter(["scale", "1.0"]);
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn rejects_missing_value() {
        let _ = ExperimentArgs::from_iter(["--scale"]);
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn rejects_bad_number() {
        let a = ExperimentArgs::from_iter(["--scale", "abc"]);
        let _ = a.f64("scale", 1.0);
    }

    #[test]
    fn parse_and_typed_access_return_errors() {
        let err = ExperimentArgs::parse(["--x", "1", "stray"]).unwrap_err();
        assert_eq!(err.to_string(), "expected --flag, got 'stray'");
        let err = ExperimentArgs::parse(["--x", "1", "--k"]).unwrap_err();
        assert_eq!(err.to_string(), "flag --k needs a value");
        let a = ExperimentArgs::parse(["--k", "abc", "--seed", "-1", "--x", "1e-3"]).unwrap();
        let err = a.try_usize("k", 32).unwrap_err();
        assert_eq!(err.to_string(), "--k expects an integer, got 'abc'");
        assert!(a.try_u64("seed", 0).is_err());
        assert_eq!(a.try_f64("x", 0.0), Ok(1e-3));
        assert_eq!(a.try_usize("missing", 7), Ok(7));
    }
}
