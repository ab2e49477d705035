//! Worker-count policy for batch inference.
//!
//! Earlier releases threaded a raw `threads: usize` through every batch
//! entry point (the since-removed `predict_batch_threaded`,
//! `evaluate_threaded`, `predict_all_parallel`, and
//! `forward_batch_inference` shims), forcing each call site to invent a
//! worker count and each API to re-validate it. [`Parallelism`]
//! centralises the policy: it is configured once, validated at
//! construction, and resolved to a concrete worker count only where
//! threads are actually spawned. Inference is pure (planned passes take
//! `&Network` and a per-worker workspace), so the chosen worker count
//! never changes results — only latency.
//!
//! The type lives here (rather than in the detector crate) because
//! [`crate::Network::forward_batch`] is the lowest-level API that takes
//! one; downstream crates re-export it.

use crate::NnError;
use serde::{Deserialize, Serialize};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Mode {
    Auto,
    Fixed(usize),
}

/// How many workers batch scoring fans out over.
///
/// Construct with [`Parallelism::auto`] (one worker per available core —
/// the default), [`Parallelism::serial`], or [`Parallelism::fixed`]
/// (validated: a zero worker count is rejected at construction instead of
/// surfacing at every call site).
///
/// # Examples
///
/// ```
/// use hotspot_nn::Parallelism;
///
/// assert_eq!(Parallelism::serial().workers(), 1);
/// assert_eq!(Parallelism::fixed(4).unwrap().workers(), 4);
/// assert!(Parallelism::fixed(0).is_err());
/// assert!(Parallelism::default().workers() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism(Mode);

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism(Mode::Auto)
    }
}

impl Parallelism {
    /// One worker per available CPU core, resolved at use time.
    pub fn auto() -> Self {
        Parallelism(Mode::Auto)
    }

    /// Exactly one worker (no threads spawned).
    pub fn serial() -> Self {
        Parallelism(Mode::Fixed(1))
    }

    /// Exactly `workers` workers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `workers == 0`.
    pub fn fixed(workers: usize) -> Result<Self, NnError> {
        if workers == 0 {
            return Err(NnError::InvalidConfig(
                "parallelism requires at least one worker",
            ));
        }
        Ok(Parallelism(Mode::Fixed(workers)))
    }

    /// The concrete worker count: the fixed count, or the number of
    /// available cores (at least 1) for [`Parallelism::auto`].
    pub fn workers(&self) -> usize {
        match self.0 {
            Mode::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Mode::Fixed(n) => n,
        }
    }

    /// Whether this policy never spawns worker threads.
    pub fn is_serial(&self) -> bool {
        matches!(self.0, Mode::Fixed(1))
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Mode::Auto => write!(f, "auto"),
            Mode::Fixed(n) => write!(f, "{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_resolution() {
        assert_eq!(Parallelism::serial().workers(), 1);
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::fixed(3).unwrap().workers(), 3);
        assert!(!Parallelism::fixed(3).unwrap().is_serial());
        assert!(Parallelism::auto().workers() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert!(matches!(
            Parallelism::fixed(0),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn displays_policy() {
        assert_eq!(Parallelism::auto().to_string(), "auto");
        assert_eq!(Parallelism::fixed(8).unwrap().to_string(), "8");
    }
}
