//! Deterministic parallel iteration primitives shared by the whole
//! workspace.
//!
//! Two rules make every parallel path in this repository bit-identical to
//! its serial counterpart:
//!
//! 1. **Work is split the same way at every thread count.** Sharded
//!    operations cut their input into fixed-size chunks of [`SHARD_SIZE`]
//!    entries — never into "one chunk per worker" — so the floating-point
//!    accumulation tree does not depend on how many workers happen to be
//!    available.
//! 2. **Results merge in input order.** [`fan_out`] returns results in the
//!    order the work items were submitted, regardless of which worker
//!    finished first.
//!
//! [`fan_out`] is the single fan-out engine: the executor's trajectory
//! walkers, `jigsaw_core`'s CPM subset mode and the per-marginal indexing of
//! Bayesian reconstruction all call it directly.

/// Number of entries per shard for sharded PMF operations.
///
/// The value is a constant of the algorithm, **not** a tuning knob tied to
/// the worker count: partial results are produced per shard and merged in
/// shard order, so keeping the shard layout fixed is what makes the output
/// independent of the thread count down to the last ulp.
pub const SHARD_SIZE: usize = 4096;

/// Applies `f` to every item on a rayon worker team and returns the results
/// in input order.
///
/// `threads` follows the executor's `RunConfig::threads` convention: `0`
/// uses all available cores, `1` runs serially inline, `n` uses exactly `n`
/// workers. Because results keep input order and `f` receives no shared
/// mutable state, the output is identical for every setting.
pub fn fan_out<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads == 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(|| rayon::parallel_map(items, f))
}

/// Applies `f` to every item of every group on **one** worker team and
/// returns the results regrouped, preserving both group order and
/// within-group item order.
///
/// This is the cross-job batching primitive: each group is one job's work
/// list (e.g. its CPM fan-out), and merging the groups into a single
/// [`fan_out`] call lets one fixed pool chew through many jobs' trial work
/// at once instead of running the jobs' fan-outs back to back. `f`
/// receives `(group index, item)` so it can resolve per-group context.
///
/// Because [`fan_out`] returns results in submission order and the merged
/// list is the in-order concatenation of the groups, splitting it back by
/// the recorded group lengths reproduces exactly what per-group fan-outs
/// would have produced — bit-identical at every `threads` setting.
pub fn fan_out_groups<T, R, F>(groups: Vec<Vec<T>>, threads: usize, f: F) -> Vec<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let lengths: Vec<usize> = groups.iter().map(Vec::len).collect();
    let merged: Vec<(usize, T)> = groups
        .into_iter()
        .enumerate()
        .flat_map(|(group, items)| items.into_iter().map(move |item| (group, item)))
        .collect();
    let mut flat = fan_out(merged, threads, |(group, item)| f(group, item)).into_iter();
    lengths.into_iter().map(|len| flat.by_ref().take(len).collect()).collect()
}

/// Applies `f` to every [`SHARD_SIZE`]-entry chunk of `entries` on the
/// worker team, returning the per-shard results in shard order.
///
/// The shard layout depends only on `entries.len()`, so for a fixed input
/// the result vector is identical at every `threads` setting; callers can
/// fold the shards in order and obtain thread-count-invariant totals.
pub fn map_shards<T, R, F>(entries: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    fan_out(entries.chunks(SHARD_SIZE).collect(), threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_matches_serial_at_every_thread_setting() {
        let square = |x: u64| x * x;
        let expected: Vec<u64> = (0..100).map(square).collect();
        for threads in [0, 1, 2, 7] {
            assert_eq!(fan_out((0..100).collect(), threads, square), expected);
        }
    }

    #[test]
    fn map_shards_layout_is_thread_count_invariant() {
        let entries: Vec<u64> = (0..(SHARD_SIZE as u64 * 2 + 17)).collect();
        let sums = |t| map_shards(&entries, t, |shard| shard.iter().sum::<u64>());
        let serial = sums(1);
        assert_eq!(serial.len(), 3, "fixed shard layout: two full shards plus a remainder");
        for threads in [0, 2, 5] {
            assert_eq!(sums(threads), serial);
        }
    }

    #[test]
    fn fan_out_groups_matches_per_group_fan_outs() {
        // Ragged groups, including an empty one in the middle.
        let groups: Vec<Vec<u64>> =
            vec![(0..7).collect(), Vec::new(), (100..103).collect(), vec![9]];
        let f = |g: usize, x: u64| x * 10 + g as u64;
        let expected: Vec<Vec<u64>> = groups
            .iter()
            .enumerate()
            .map(|(g, items)| items.iter().map(|&x| f(g, x)).collect())
            .collect();
        for threads in [0, 1, 2, 5] {
            assert_eq!(fan_out_groups(groups.clone(), threads, f), expected);
        }
    }

    #[test]
    fn fan_out_groups_handles_no_groups() {
        let out = fan_out_groups(Vec::<Vec<u64>>::new(), 0, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn map_shards_handles_empty_input() {
        let entries: Vec<u64> = Vec::new();
        let out = map_shards(&entries, 0, |shard| shard.len());
        assert!(out.is_empty());
    }
}
