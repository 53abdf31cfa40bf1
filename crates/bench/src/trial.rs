//! The one timed-worker engine every trial runs on, plus the single-map
//! trials of Figures 5 and 6.
//!
//! [`run`] spawns `n` indexed workers that loop until the trial stops them,
//! does the caller's foreground work meanwhile, then stops and joins them
//! and returns each worker's result with the elapsed time.  A timed trial
//! ([`timed`]) is that with a sleep as the foreground; a trial with several
//! roles (updaters and rangers, writers and scanners) picks each worker's
//! role from its index.

use std::ops::{AddAssign, Bound};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use skiphash_stm::sync::{AtomicBool, Ordering};

use crate::adapters::BenchMap;
use crate::workload::{Operation, OperationSampler, Workload, WorkloadMix};

/// The flag every worker polls; the engine sets it once, when the trial ends.
#[derive(Debug)]
pub struct Stop(AtomicBool);

impl Stop {
    /// True once the trial has asked its workers to return.
    pub fn requested(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sets the flag when dropped — also when the foreground work panics, so
/// the scope's join never waits on workers nobody will stop.
struct StopOnDrop<'a> {
    stop: &'a AtomicBool,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Spawn `threads` workers, each running `worker(index, &stop)` until the
/// flag is set; run `foreground` meanwhile, then set the flag and join.
/// Returns every worker's result in index order and the seconds from the
/// first spawn to the last join.
pub fn run<R: Send>(
    threads: usize,
    worker: impl Fn(usize, &Stop) -> R + Sync,
    foreground: impl FnOnce(),
) -> (Vec<R>, f64) {
    let stop = Stop(AtomicBool::new(false));
    let started = Instant::now();
    let results = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|index| {
                let (worker, stop) = (&worker, &stop);
                scope.spawn(move || worker(index, stop))
            })
            .collect();
        let guard = StopOnDrop { stop: &stop.0 };
        foreground();
        drop(guard);
        handles
            .into_iter()
            .map(|handle| handle.join().expect("trial worker panicked"))
            .collect()
    });
    (results, started.elapsed().as_secs_f64())
}

/// [`run`] with a sleep of `duration` as the foreground: the timed trial.
pub fn timed<R: Send>(
    threads: usize,
    duration: Duration,
    worker: impl Fn(usize, &Stop) -> R + Sync,
) -> (Vec<R>, f64) {
    run(threads, worker, || thread::sleep(duration))
}

/// The sum of per-worker results.
pub fn total<R: Default + AddAssign>(parts: Vec<R>) -> R {
    parts.into_iter().fold(R::default(), |mut total, part| {
        total += part;
        total
    })
}

/// `count` events over `elapsed_secs`, in millions per second (the y-axis
/// of every figure); zero when nothing was timed.
pub fn mops(count: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs == 0.0 {
        0.0
    } else {
        count as f64 / elapsed_secs / 1e6
    }
}

/// `impl AddAssign` summing the listed counter fields, so per-worker
/// results fold into a trial total with [`total`].
macro_rules! add_counters {
    ($ty:ty { $($field:ident),* }) => {
        impl std::ops::AddAssign for $ty {
            fn add_assign(&mut self, part: Self) {
                $(self.$field += part.$field;)*
            }
        }
    };
}
pub(crate) use add_counters;

/// Result of one mixed-workload trial (Figure 5: every thread runs the same
/// mix; Figure 6: updaters and rangers, each counted on its own side).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MixedTrialResult {
    /// Total operations completed by all threads.
    pub total_ops: u64,
    /// Lookups completed.
    pub lookups: u64,
    /// Updates (insertions + removals) completed.
    pub updates: u64,
    /// Range queries completed.
    pub ranges: u64,
    /// Key/value pairs returned by range queries.
    pub range_pairs: u64,
    /// Wall-clock duration of the measured phase, in seconds.
    pub elapsed_secs: f64,
}

add_counters!(MixedTrialResult {
    total_ops,
    lookups,
    updates,
    ranges,
    range_pairs
});

fn run_worker(map: &dyn BenchMap, workload: &Workload, stop: &Stop, seed: u64) -> MixedTrialResult {
    let sampler = OperationSampler::new(workload);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut result = MixedTrialResult::default();
    let mut buffer: Vec<(u64, u64)> = Vec::with_capacity(workload.range_len as usize + 16);
    while !stop.requested() {
        match sampler.next(&mut rng) {
            Operation::Lookup(key) => {
                let _ = map.get(key);
                result.lookups += 1;
            }
            Operation::Insert(key) => {
                let _ = map.insert(key, key.wrapping_mul(31));
                result.updates += 1;
            }
            Operation::Remove(key) => {
                let _ = map.remove(key);
                result.updates += 1;
            }
            Operation::Range(low) => {
                let bounds = (
                    Bound::Included(low),
                    Bound::Included(low + sampler.range_len()),
                );
                if let Some(found) = map.range(bounds, &mut buffer) {
                    result.range_pairs += found as u64;
                }
                result.ranges += 1;
            }
        }
        result.total_ops += 1;
    }
    result
}

/// Run a single timed trial in which every thread executes the same mixed
/// workload (Figure 5 style).  The map must already be pre-filled.
pub fn run_mixed_trial(
    map: &dyn BenchMap,
    workload: &Workload,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> MixedTrialResult {
    let (parts, elapsed_secs) = timed(threads, duration, |t, stop| {
        run_worker(map, workload, stop, seed ^ ((t as u64 + 1) * 0x9E37))
    });
    MixedTrialResult {
        elapsed_secs,
        ..total(parts)
    }
}

/// Run a split trial: `update_threads` run a 100%-update workload while
/// `range_threads` run a 100%-range workload with ranges of `range_len`
/// (Figure 6 style), so `updates` and `ranges` / `range_pairs` each come
/// from one side.  The map must already be pre-filled.
pub fn run_split_trial(
    map: &dyn BenchMap,
    key_universe: u64,
    range_len: u64,
    update_threads: usize,
    range_threads: usize,
    duration: Duration,
    seed: u64,
) -> MixedTrialResult {
    let side = |name, mix| Workload::custom(name, mix, key_universe, range_len);
    let update = side("fig6-update", WorkloadMix::new(0, 100, 0));
    let range = side("fig6-range", WorkloadMix::new(0, 0, 100));
    let (parts, elapsed_secs) = timed(update_threads + range_threads, duration, |t, stop| {
        if t < update_threads {
            run_worker(map, &update, stop, seed ^ ((t as u64 + 1) * 0xA5A5))
        } else {
            let r = (t - update_threads) as u64;
            run_worker(map, &range, stop, seed ^ ((r + 101) * 0x5A5A))
        }
    });
    MixedTrialResult {
        elapsed_secs,
        ..total(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::MapKind;
    use crate::workload::prefill;

    #[test]
    fn mixed_trial_reports_consistent_totals() {
        let workload = Workload::fig5d(2_000);
        let map = MapKind::SkipHashTwoPath.build(workload.key_universe);
        prefill(2_000, workload.prefill_target(), 1, |k| map.insert(k, k));
        let result = run_mixed_trial(&*map, &workload, 2, Duration::from_millis(100), 7);
        assert!(result.total_ops > 0);
        assert_eq!(
            result.total_ops,
            result.lookups + result.updates + result.ranges
        );
        assert!(mops(result.total_ops, result.elapsed_secs) > 0.0);
        assert!(result.elapsed_secs >= 0.1);
    }

    #[test]
    fn split_trial_counts_both_sides() {
        let map = MapKind::SkipHashTwoPath.build(2_000);
        prefill(2_000, 1_000, 3, |k| map.insert(k, k));
        let result = run_split_trial(&*map, 2_000, 64, 1, 1, Duration::from_millis(100), 11);
        assert!(result.updates > 0);
        assert!(result.ranges > 0);
        assert!(result.range_pairs > 0);
        assert_eq!(result.lookups, 0);
        assert!(mops(result.updates, result.elapsed_secs) > 0.0);
        assert!(mops(result.range_pairs, result.elapsed_secs) > 0.0);
    }

    #[test]
    fn workers_see_their_index_and_stop_when_the_foreground_ends() {
        let (results, elapsed) = run(
            3,
            |index, stop| {
                let mut spins = 0u64;
                while !stop.requested() {
                    spins += 1;
                    thread::yield_now();
                }
                (index, spins)
            },
            || thread::sleep(Duration::from_millis(20)),
        );
        assert_eq!(results.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(elapsed >= 0.02);
    }
}
