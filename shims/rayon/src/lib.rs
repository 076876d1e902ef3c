//! Offline stand-in for `rayon`.
//!
//! Implements the one parallel-iterator chain this workspace uses —
//! `slice.par_iter().map(f).collect()` — on scoped std threads: the input is
//! split into one contiguous chunk per available core, and results are
//! reassembled in input order (the same ordering guarantee rayon's indexed
//! collect gives). A map of one item, or on a one-core host, runs on the
//! calling thread with no thread setup at all; otherwise each chunk is
//! mapped on its own scoped thread. No work stealing, so one straggler
//! chunk can idle other threads; for this workspace's uniform per-VM work
//! items that is an acceptable trade for zero dependencies.

#![warn(missing_docs)]

use std::thread;

/// Borrowing parallel iteration (`.par_iter()`), as rayon spells it.
pub trait IntoParallelRefIterator<'a> {
    /// The element type yielded by reference.
    type Item: Sync + 'a;

    /// A parallel iterator borrowing `self`'s elements.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Parallel iterator over `&T` items.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The mapped parallel iterator; consumed by [`ParMap::collect`].
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<T, R, F> ParMap<'_, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    /// Runs the map across threads and gathers results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        let cores = || thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // One item never asks for the core count; one worker never spawns.
        let workers = if n > 1 { cores().min(n) } else { 1 };
        if workers == 1 {
            return self.items.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(workers);
        let f = &self.f;
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        thread::scope(|scope| {
            for (in_chunk, out_chunk) in self.items.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (item, out) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *out = Some(f(item));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every index is written by exactly one chunk"))
            .collect()
    }
}

/// The glob-imported surface (`use rayon::prelude::*`).
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_input_order() {
        let input: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_slices_and_empty_input() {
        let slice: &[u32] = &[3, 1, 2];
        let plus: Vec<u32> = slice.par_iter().map(|&x| x + 1).collect();
        assert_eq!(plus, vec![4, 2, 3]);
        let empty: Vec<u32> = Vec::<u32>::new().par_iter().map(|&x| x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn a_one_item_map_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = [7u8]
            .par_iter()
            .map(|_| std::thread::current().id())
            .collect();
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let input: Vec<u32> = (0..64).collect();
        let _out: Vec<()> = input
            .par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            })
            .collect();
        let threads = seen.lock().unwrap().len();
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!(threads >= cores.min(2), "expected parallel execution");
    }
}
