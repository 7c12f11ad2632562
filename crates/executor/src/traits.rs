//! The common interface of all batch executors.

use crate::batch::BatchResult;
use std::sync::OnceLock;
use tb_storage::{KvRead, MemStore, Versioned};
use tb_types::{Key, Transaction};

/// A transaction execution engine that processes whole batches.
///
/// The concurrent executor, the OCC and 2PL-No-Wait baselines and the serial
/// executor all implement this trait, so a replica can preplay with any of
/// them and the evaluation harness (Figures 11 and 12) can sweep over
/// engines generically. An engine only ever *reads* state: its one required
/// method, [`BatchExecutor::preplay`], returns the batch's effects instead
/// of writing them, and only a commit path writes a store.
pub trait BatchExecutor: Send + Sync {
    /// Preplays the batch against the read view `base` **without** writing
    /// anything: the serialized order and read/write sets live only in the
    /// returned [`BatchResult`], the preplay outcomes whose reads a shard
    /// proposer ships inside its block (Figure 3, step 1). `base` must
    /// not change while the call runs.
    fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult;

    /// Preplays the batch against `store`, then applies the result to it in
    /// serialized order: the standalone engine of the executor experiments.
    fn execute_batch(&self, txs: &[Transaction], store: &MemStore) -> BatchResult {
        let result = self.preplay(txs, store);
        result.apply_to(store);
        result
    }
}

/// Number of hardware threads the current process may use, falling back to 1
/// when the platform cannot tell (the conservative answer for perf gates).
///
/// Asked once per process: on Linux `available_parallelism` reads the
/// affinity mask and the cgroup CPU quota files on every call, ~10 µs of
/// system calls, and [`effective_workers`] is called on hot paths (once per
/// wave of post-consensus execution, once per validated block). The shared
/// worker pool is sized from the same first answer.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Clamps a requested worker count to `[1, available_cores()]`.
///
/// Every thread pool in the workspace (validation, the commit pipeline,
/// post-consensus wave execution) sizes itself through this function so a
/// configuration tuned for a 16-core machine degrades gracefully on a
/// single-core CI runner instead of oversubscribing it.
pub fn effective_workers(requested: usize) -> usize {
    requested.clamp(1, available_cores())
}

/// What the OCC and 2PL-No-Wait engines read for `key` mid-batch: the writes
/// committed earlier in the batch, held in the batch-local `committed` store,
/// over `base`. The version is the key's version in `committed` — zero until
/// a transaction of this batch commits a write to it — which is all a read
/// needs to stay checkable, because `base` cannot change during a batch.
pub(crate) fn read_committed(
    committed: &MemStore,
    base: &(dyn KvRead + Sync),
    key: &Key,
) -> Versioned {
    let local = committed.get_versioned(key);
    if local.version == 0 {
        Versioned::new(base.get(key), 0)
    } else {
        local
    }
}

/// Spin-waits for approximately `nanos` nanoseconds.
///
/// Used to model the interpretation overhead a real contract VM adds to every
/// state operation (see `CeConfig::synthetic_op_cost_ns`). The wait burns CPU
/// on purpose — sleeping would free the core and distort the executor-scaling
/// experiments.
pub fn synthetic_work(nanos: u64) {
    if nanos == 0 {
        return;
    }
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < nanos {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_work_zero_returns_immediately() {
        let start = std::time::Instant::now();
        synthetic_work(0);
        assert!(start.elapsed().as_micros() < 1_000);
    }

    #[test]
    fn synthetic_work_busy_waits_for_roughly_the_requested_time() {
        let start = std::time::Instant::now();
        synthetic_work(200_000); // 200 us
        let elapsed = start.elapsed();
        assert!(elapsed.as_micros() >= 190, "waited only {elapsed:?}");
    }
}
