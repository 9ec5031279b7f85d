//! Compiled-artifact counter.
//!
//! The staged pipeline exists so sweep drivers can reuse compiled artifacts
//! instead of silently recompiling the same global circuit per config
//! point; this probe makes that property *checkable*. It counts compiled
//! artifacts: one per [`compile_with_avoidance`](crate::compile_with_avoidance)
//! call (and therefore every `compile`/EDM-member path) and one per
//! [`CpmSearch::compile`](crate::CpmSearch::compile) (and therefore every
//! `recompile_cpm`). A recompiled CPM stage runs one placement search that
//! all of its CPMs share; building that search is not counted, so a stage
//! still counts one compilation per CPM. Drivers read [`compile_count`]
//! before and after a sweep and assert the delta matches the expected work
//! (e.g. one global compile plus one compile per recompiled CPM) — see
//! `abl_subset_size` and the `artifact_reuse` integration test.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static COMPILE_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_COMPILE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Records one compiled artifact, in both the process-wide and the calling
/// thread's tally.
pub(crate) fn record_compile() {
    COMPILE_CALLS.fetch_add(1, Ordering::Relaxed);
    THREAD_COMPILE_CALLS.with(|calls| calls.set(calls.get() + 1));
}

/// Total compilations performed by this process so far.
///
/// Monotonic; callers interested in a region of work should diff two
/// readings. Note the counter is process-global: concurrent compilations in
/// other threads show up in the delta.
#[must_use]
pub fn compile_count() -> u64 {
    COMPILE_CALLS.load(Ordering::Relaxed)
}

/// Compilations performed by the calling thread so far.
///
/// Monotonic like [`compile_count`], but blind to other threads: the delta
/// over a region is exact when that region compiles only on the calling
/// thread, whatever the rest of the process does.
#[must_use]
pub fn thread_compile_count() -> u64 {
    THREAD_COMPILE_CALLS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let before = compile_count();
        record_compile();
        record_compile();
        // ≥ rather than == : other tests in this binary may compile
        // concurrently, which is exactly the caveat the docs state.
        assert!(compile_count() >= before + 2);
    }

    #[test]
    fn thread_tally_ignores_other_threads() {
        let before = thread_compile_count();
        record_compile();
        std::thread::spawn(|| {
            record_compile();
            record_compile();
        })
        .join()
        .expect("recording thread");
        assert_eq!(thread_compile_count() - before, 1);
    }
}
