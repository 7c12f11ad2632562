//! Configuration for the concurrent executor, the protocol and the network
//! simulation.

/// Configuration of the concurrent executor (paper Section 7) and of the
/// baseline executors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CeConfig {
    /// Number of executor workers executing transactions in parallel,
    /// clamped to the host's cores and to the batch size. With one worker
    /// the concurrent executor preplays in a single serial pass; with more,
    /// each worker speculates one contiguous chunk of the batch and the same
    /// serial pass then repairs the outcomes that read across a chunk
    /// boundary. Both emit the identical batch.
    pub executors: usize,
    /// Number of transactions per preplay batch (the paper evaluates 300 and
    /// 500).
    pub batch_size: usize,
    /// Synthetic CPU cost charged per state operation, in nanoseconds.
    ///
    /// The paper executes contracts inside an EVM, so each operation carries
    /// real interpretation overhead; the native SmallBank procedures here are
    /// nearly free, which would make every executor bottleneck on its central
    /// coordination structure instead of on execution. Charging a small,
    /// configurable busy-wait per operation (outside any critical section)
    /// restores the paper's cost balance.
    pub synthetic_op_cost_ns: u64,
}

impl Default for CeConfig {
    fn default() -> Self {
        CeConfig {
            executors: 16,
            batch_size: 500,
            synthetic_op_cost_ns: 2_000,
        }
    }
}

impl CeConfig {
    /// Convenience constructor used throughout benches and tests.
    pub fn new(executors: usize, batch_size: usize) -> Self {
        CeConfig {
            executors,
            batch_size,
            ..CeConfig::default()
        }
    }

    /// Disables the synthetic per-operation cost (useful in unit tests).
    pub fn without_synthetic_cost(mut self) -> Self {
        self.synthetic_op_cost_ns = 0;
        self
    }
}

/// Reconfiguration parameters (paper Section 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconfigConfig {
    /// `K`: a replica emits a Shift block if a shard proposer has been silent
    /// for `K` rounds.
    pub silent_rounds_k: u64,
    /// `K'`: a replica emits a Shift block after proposing for `K'` rounds in
    /// the current DAG (periodic rotation). Must be greater than `K`.
    pub period_k_prime: u64,
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig {
            // Large enough that a replica which is merely busy executing is
            // not mistaken for a censoring proposer; experiments that test
            // censorship set a smaller K explicitly.
            silent_rounds_k: 50,
            // Large enough to effectively disable periodic rotation unless an
            // experiment asks for it, matching the paper's default setup.
            period_k_prime: u64::MAX / 2,
        }
    }
}

impl ReconfigConfig {
    /// Creates a configuration with the given `K` and `K'`.
    pub fn new(silent_rounds_k: u64, period_k_prime: u64) -> Self {
        assert!(
            period_k_prime > silent_rounds_k,
            "K' must be greater than K (paper Section 6)"
        );
        ReconfigConfig {
            silent_rounds_k,
            period_k_prime,
        }
    }

    /// A configuration that never triggers periodic rotation (used when
    /// evaluating without reconfiguration).
    pub fn disabled() -> Self {
        ReconfigConfig::default()
    }
}

/// Message latency models used by the simulated transport.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyModel {
    /// Zero-latency delivery, for deterministic unit tests.
    Instant,
    /// Fixed one-way latency in microseconds.
    Fixed {
        /// One-way delay.
        micros: u64,
    },
    /// Uniformly jittered latency in `[base - jitter, base + jitter]`.
    Jittered {
        /// Mean one-way delay in microseconds.
        base_micros: u64,
        /// Maximum deviation from the mean in microseconds.
        jitter_micros: u64,
    },
}

impl LatencyModel {
    /// Typical single-datacenter latency (~0.5 ms round trip): the LAN
    /// setting of the evaluation.
    pub fn lan() -> Self {
        LatencyModel::Jittered {
            base_micros: 250,
            jitter_micros: 100,
        }
    }

    /// Typical cross-continent latency (~150 ms round trip): the WAN setting
    /// of the evaluation.
    pub fn wan() -> Self {
        LatencyModel::Jittered {
            base_micros: 75_000,
            jitter_micros: 15_000,
        }
    }
}

/// Which storage backend a replica keeps its committed state in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageBackend {
    /// The in-memory store: volatile, nearly free, the default.
    #[default]
    Mem,
    /// The durable WAL-backed store: every committed batch is logged to an
    /// append-only, CRC-guarded write-ahead log (fsynced at commit
    /// boundaries) and periodically compacted into on-disk snapshots, so a
    /// crashed replica recovers its exact pre-crash state and commit
    /// digest from disk. See `docs/STORAGE.md`.
    Wal,
}

/// Storage backend selection and tuning.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageConfig {
    /// The backend every replica of the cluster uses.
    pub backend: StorageBackend,
    /// Root directory for durable backends. Each replica stores its files
    /// under `<data_dir>/replica-<id>`. Ignored by [`StorageBackend::Mem`].
    pub data_dir: String,
    /// Compact the WAL into a snapshot once it exceeds this many bytes
    /// (checked at commit boundaries). Ignored by [`StorageBackend::Mem`].
    pub compact_wal_bytes: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: StorageBackend::Mem,
            data_dir: String::new(),
            compact_wal_bytes: 4 * 1024 * 1024,
        }
    }
}

impl StorageConfig {
    /// The durable WAL backend rooted at `data_dir`.
    pub fn wal(data_dir: impl Into<String>) -> Self {
        StorageConfig {
            backend: StorageBackend::Wal,
            data_dir: data_dir.into(),
            ..StorageConfig::default()
        }
    }
}

/// Top-level configuration of a multi-replica experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of replicas (and therefore shards).
    pub n_replicas: u32,
    /// Concurrent-executor configuration used by every shard proposer.
    pub ce: CeConfig,
    /// Number of validator workers (the paper uses 16): the pool slots a
    /// commit fans out over to replay the preplayed blocks it delivers
    /// before they were replayed on admission, and to execute a cross-shard
    /// wave. A replica replays a block on admission on its own thread.
    pub validators: usize,
    /// Reconfiguration parameters.
    pub reconfig: ReconfigConfig,
    /// Network latency model.
    pub latency: LatencyModel,
    /// DAG rounds an experiment runs for: a run stops after
    /// `max_rounds / 2` leader commits (at least one), as a leader is
    /// elected every second round.
    pub max_rounds: u64,
    /// Storage backend every replica keeps its committed state in.
    pub storage: StorageConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_replicas: 4,
            ce: CeConfig::default(),
            validators: 16,
            reconfig: ReconfigConfig::default(),
            latency: LatencyModel::lan(),
            max_rounds: 50,
            storage: StorageConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Creates a configuration for `n_replicas` replicas with defaults for
    /// everything else.
    pub fn with_replicas(n_replicas: u32) -> Self {
        SystemConfig {
            n_replicas,
            ..SystemConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ce_defaults_match_the_paper_setup() {
        let ce = CeConfig::default();
        assert_eq!(ce.executors, 16);
        assert_eq!(ce.batch_size, 500);
    }

    #[test]
    #[should_panic(expected = "K' must be greater than K")]
    fn reconfig_rejects_k_prime_not_greater_than_k() {
        let _ = ReconfigConfig::new(5, 5);
    }

    #[test]
    fn reconfig_constructor_stores_values() {
        let r = ReconfigConfig::new(2, 6);
        assert_eq!(r.silent_rounds_k, 2);
        assert_eq!(r.period_k_prime, 6);
    }

    #[test]
    fn system_config_with_replicas() {
        let cfg = SystemConfig::with_replicas(16);
        assert_eq!(cfg.n_replicas, 16);
        assert_eq!(cfg.ce, CeConfig::default());
        assert_eq!(cfg.storage, StorageConfig::default());
    }

    #[test]
    fn storage_config_constructors() {
        assert_eq!(StorageConfig::default().backend, StorageBackend::Mem);
        let wal = StorageConfig::wal("/tmp/tb-data");
        assert_eq!(wal.backend, StorageBackend::Wal);
        assert_eq!(wal.data_dir, "/tmp/tb-data");
        assert!(wal.compact_wal_bytes > 0);
    }
}
