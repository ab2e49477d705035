//! Worker-count policy for batch inference.
//!
//! Earlier releases threaded a raw `threads: usize` through every batch
//! entry point (the since-removed `*_threaded` and `*_parallel` shims),
//! forcing each call site to invent a worker count and each API to
//! re-validate it. [`Parallelism`]
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

    /// Runs `work` over `items` split into at most [`Parallelism::workers`]
    /// contiguous chunks, one scoped thread per chunk ([`map_parts`]), and
    /// returns the results in chunk order; with one worker (or at most one
    /// item), `work(items)` runs on the calling thread.
    pub fn map_chunks<T: Sync, R: Send>(
        self,
        items: &[T],
        work: impl Fn(&[T]) -> R + Sync,
    ) -> Vec<R> {
        let workers = self.workers().min(items.len());
        if workers <= 1 {
            return vec![work(items)];
        }
        map_parts(items.chunks(items.len().div_ceil(workers)).collect(), work)
    }
}

/// Runs `work` on every part, one scoped thread per part, and returns the
/// results in part order; a single part runs on the calling thread. The
/// one fan-out behind every batch entry point: [`Parallelism::map_chunks`]
/// hands it contiguous chunks of a shared slice, and the layout scan hands
/// it its bands, each owning a disjoint `&mut` slice of the score grid. A
/// worker panic is a bug, not a recoverable condition, and resumes on the
/// caller with its original payload.
pub fn map_parts<P: Send, R: Send>(parts: Vec<P>, work: impl Fn(P) -> R + Sync) -> Vec<R> {
    if parts.len() <= 1 {
        return parts.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(move || work(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
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
    fn map_chunks_keeps_order_for_every_policy() {
        let items: Vec<usize> = (0..13).collect();
        for workers in [1, 2, 3, 8, 64] {
            let policy = Parallelism::fixed(workers).unwrap();
            let chunks = policy.map_chunks(&items, |c| c.to_vec());
            assert!(chunks.len() <= workers);
            assert_eq!(chunks.concat(), items, "workers = {workers}");
        }
        let empty: [usize; 0] = [];
        assert_eq!(Parallelism::auto().map_chunks(&empty, <[usize]>::len), [0]);
    }

    #[test]
    fn map_parts_hands_each_part_its_own_mutable_slice() {
        let mut grid = vec![0usize; 10];
        let (a, b) = grid.split_at_mut(4);
        let sums = map_parts(vec![(1, a), (2, b)], |(tag, cells)| {
            cells.fill(tag);
            cells.len()
        });
        assert_eq!(sums, [4, 6]);
        assert_eq!(grid, [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
        assert_eq!(map_parts(Vec::<usize>::new(), |p| p), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "part 1 failed")]
    fn map_parts_resumes_a_worker_panic() {
        let _ = map_parts(vec![0, 1], |p| {
            if p == 1 {
                panic!("part {p} failed");
            }
            p
        });
    }

    #[test]
    fn displays_policy() {
        assert_eq!(Parallelism::auto().to_string(), "auto");
        assert_eq!(Parallelism::fixed(8).unwrap().to_string(), "8");
    }
}
