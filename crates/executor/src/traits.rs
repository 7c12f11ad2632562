//! The common interface of all batch executors.

use crate::batch::{BatchResult, ExecutorKind};
use std::sync::OnceLock;
use tb_storage::MemStore;
use tb_types::Transaction;

/// A transaction execution engine that processes whole batches.
///
/// The concurrent executor, the OCC and 2PL-No-Wait baselines and the serial
/// executor all implement this trait, so the evaluation harness (Figures 11
/// and 12) can sweep over engines generically.
pub trait BatchExecutor: Send + Sync {
    /// Which engine this is (used for labelling results).
    fn kind(&self) -> ExecutorKind;

    /// Executes the batch against `store`, leaving the store updated with the
    /// batch's effects, and returns the per-batch result and statistics.
    fn execute_batch(&self, txs: &[Transaction], store: &MemStore) -> BatchResult;

    /// Human-readable engine label.
    fn label(&self) -> &'static str {
        self.kind().label()
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
