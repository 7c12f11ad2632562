//! The scenario-facing [`Workload`] abstraction.
//!
//! The cluster simulation (and any other driver) talks to workloads through
//! this trait instead of naming a concrete benchmark: a workload knows its
//! stable report name, the initial store contents it expects, and how to
//! produce the next transaction of each shard's deterministic, seedable
//! client stream. Shard tagging happens inside the generator — every
//! produced [`Transaction`] carries the shards derived from its declared
//! keys, and its home shard is the one whose stream drew it.
//!
//! Concrete workloads ([`SmallBankWorkload`], [`ContractWorkload`],
//! [`KvWorkload`]) implement the trait, and their config structs convert
//! into `Box<dyn Workload>` so call sites can pass either a ready generator
//! or just its configuration:
//!
//! ```
//! use tb_types::{ShardId, SimTime};
//! use tb_workload::{SmallBankConfig, Workload};
//!
//! let mut workload: Box<dyn Workload> = SmallBankConfig::default().into();
//! workload.configure_for_cluster(4, 42);
//! let tx = workload.next_transaction(ShardId::new(2), SimTime::ZERO);
//! assert_eq!(tx.home_shard(), ShardId::new(2));
//! ```

use crate::contract::{ContractWorkload, ContractWorkloadConfig};
use crate::kv::{KvWorkload, KvWorkloadConfig};
use crate::smallbank::{SmallBankConfig, SmallBankWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tb_types::{ClientId, ContractCall, Key, ShardId, SimTime, Transaction, TxId, Value};

/// A deterministic, seedable transaction generator a scenario can run: one
/// client stream per home shard.
///
/// Implementations must be deterministic for a fixed configuration: two
/// generators built from the same config produce identical streams, and
/// shard `s`'s stream does not depend on what is drawn from the others.
/// This is what makes scenario reports comparable run over run, and what
/// lets a TCP node draw its own shard's stream alone and still propose
/// what its sim twin proposes (`docs/NET.md`).
pub trait Workload: Send {
    /// Stable name recorded in run reports (`RunReport::workload`).
    fn name(&self) -> &str;

    /// The number of shards produced transactions are tagged with.
    fn n_shards(&self) -> u32;

    /// Adapts the generator to a cluster: transactions are tagged for
    /// `n_shards` shards and `cluster_seed` is folded into the workload's
    /// own seed (so two clusters with different seeds see different
    /// streams). Called once by the simulation before the run starts;
    /// implementations reset their streams.
    fn configure_for_cluster(&mut self, n_shards: u32, cluster_seed: u64);

    /// The initial store contents every replica loads before the run.
    fn initial_state(&self) -> Vec<(Key, Value)>;

    /// Generates the next transaction of `home`'s stream, stamped with the
    /// given submission time. Its home shard
    /// ([`Transaction::home_shard`]) is `home`.
    fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction;

    /// Generates `size` transactions with the same submission time, the
    /// `i`-th from shard `i mod S`'s stream. Kept for the benchmark's layer
    /// walk and probes (ROADMAP item 15) and for tests.
    fn batch(&mut self, size: usize, submitted_at: SimTime) -> Vec<Transaction> {
        let shards = self.n_shards() as usize;
        (0..size)
            .map(|i| self.next_transaction(ShardId::new((i % shards) as u32), submitted_at))
            .collect()
    }
}

/// The state every workload keeps per home shard (the index): the RNG of
/// its stream, seeded from `(seed, shard)`, and its next sequence number.
/// A draw on one stream leaves the others untouched. The `seq`-th
/// transaction of shard `s`, of `S`, has id `seq · S + s`: unique across the
/// streams, and as large as one cluster-wide sequence of the same length.
#[derive(Clone, Debug)]
pub(crate) struct ShardStreams(Vec<(StdRng, u64)>);

impl ShardStreams {
    pub(crate) fn new(seed: u64, n_shards: u32) -> Self {
        let rng =
            |s: u32| StdRng::seed_from_u64(seed ^ u64::from(s).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ShardStreams((0..n_shards).map(|s| (rng(s), 0)).collect())
    }

    /// The next transaction of `home`'s stream: `call` draws its call from
    /// the stream's RNG, and its client is one of `clients` by id.
    pub(crate) fn draw(
        &mut self,
        home: ShardId,
        clients: u64,
        submitted_at: SimTime,
        call: impl FnOnce(&mut StdRng) -> ContractCall,
    ) -> Transaction {
        let n_shards = self.0.len() as u32;
        let (rng, seq) = &mut self.0[home.as_inner() as usize];
        let id = *seq * u64::from(n_shards) + u64::from(home.as_inner());
        *seq += 1;
        let client = ClientId::new((id % clients) as u32);
        Transaction::new(TxId::new(id), client, call(rng), n_shards, submitted_at)
    }
}

impl Workload for SmallBankWorkload {
    fn name(&self) -> &str {
        "smallbank"
    }

    fn n_shards(&self) -> u32 {
        self.config().n_shards
    }

    fn configure_for_cluster(&mut self, n_shards: u32, cluster_seed: u64) {
        // Exactly the transformation the pre-trait cluster harness applied
        // to its hardwired `SmallBankConfig`, so the boxed path generates
        // the identical stream (see `tests/scenario_equivalence.rs`).
        let mut config = *self.config();
        config.n_shards = n_shards;
        config.seed = config.seed.wrapping_add(cluster_seed);
        *self = SmallBankWorkload::new(config);
    }

    fn initial_state(&self) -> Vec<(Key, Value)> {
        SmallBankWorkload::initial_state(self).collect()
    }

    fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        SmallBankWorkload::next_transaction(self, home, submitted_at)
    }
}

impl Workload for ContractWorkload {
    fn name(&self) -> &str {
        "contract"
    }

    fn n_shards(&self) -> u32 {
        self.config().n_shards
    }

    fn configure_for_cluster(&mut self, n_shards: u32, cluster_seed: u64) {
        let mut config = *self.config();
        config.n_shards = n_shards;
        config.seed = config.seed.wrapping_add(cluster_seed);
        *self = ContractWorkload::new(config);
    }

    fn initial_state(&self) -> Vec<(Key, Value)> {
        ContractWorkload::initial_state(self)
    }

    fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        ContractWorkload::next_transaction(self, home, submitted_at)
    }
}

impl Workload for KvWorkload {
    fn name(&self) -> &str {
        "kv-hot"
    }

    fn n_shards(&self) -> u32 {
        self.config().n_shards
    }

    fn configure_for_cluster(&mut self, n_shards: u32, cluster_seed: u64) {
        let mut config = *self.config();
        config.n_shards = n_shards;
        config.seed = config.seed.wrapping_add(cluster_seed);
        *self = KvWorkload::new(config);
    }

    fn initial_state(&self) -> Vec<(Key, Value)> {
        KvWorkload::initial_state(self)
    }

    fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        KvWorkload::next_transaction(self, home, submitted_at)
    }
}

impl From<SmallBankConfig> for Box<dyn Workload> {
    fn from(config: SmallBankConfig) -> Self {
        Box::new(SmallBankWorkload::new(config))
    }
}

impl From<ContractWorkloadConfig> for Box<dyn Workload> {
    fn from(config: ContractWorkloadConfig) -> Self {
        Box::new(ContractWorkload::new(config))
    }
}

impl From<KvWorkloadConfig> for Box<dyn Workload> {
    fn from(config: KvWorkloadConfig) -> Self {
        Box::new(KvWorkload::new(config))
    }
}

impl From<SmallBankWorkload> for Box<dyn Workload> {
    fn from(workload: SmallBankWorkload) -> Self {
        Box::new(workload)
    }
}

impl From<ContractWorkload> for Box<dyn Workload> {
    fn from(workload: ContractWorkload) -> Self {
        Box::new(workload)
    }
}

impl From<KvWorkload> for Box<dyn Workload> {
    fn from(workload: KvWorkload) -> Self {
        Box::new(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_smallbank_matches_the_hardwired_generator_stream() {
        // The legacy cluster harness mutated the config before constructing
        // the generator; configure_for_cluster must reproduce that exactly.
        let base = SmallBankConfig {
            accounts: 128,
            ..SmallBankConfig::default()
        };
        let mut legacy_config = base;
        legacy_config.n_shards = 4;
        legacy_config.seed = legacy_config.seed.wrapping_add(42);
        let mut legacy = SmallBankWorkload::new(legacy_config);

        let mut boxed: Box<dyn Workload> = base.into();
        boxed.configure_for_cluster(4, 42);

        for i in 0..500 {
            let home = ShardId::new(i % 4);
            assert_eq!(
                SmallBankWorkload::next_transaction(&mut legacy, home, SimTime::ZERO),
                boxed.next_transaction(home, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn every_workload_reports_a_stable_name_and_shard_count() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            SmallBankConfig::default().into(),
            ContractWorkloadConfig::default().into(),
            KvWorkloadConfig::default().into(),
        ];
        let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["smallbank", "contract", "kv-hot"]);
        for mut workload in workloads {
            workload.configure_for_cluster(8, 7);
            assert_eq!(workload.n_shards(), 8);
            assert!(!workload.initial_state().is_empty());
        }
    }

    #[test]
    fn trait_batches_respect_the_requested_size_and_tag_shards() {
        let mut workload: Box<dyn Workload> = KvWorkloadConfig::default().into();
        workload.configure_for_cluster(4, 1);
        let batch = Workload::batch(workload.as_mut(), 50, SimTime::ZERO);
        assert_eq!(batch.len(), 50);
        for tx in &batch {
            assert!(!tx.shards.is_empty(), "{tx} carries no shard tags");
            assert!(tx.shards.iter().all(|s| s.as_inner() < 4));
        }
    }

    #[test]
    fn configure_resets_the_stream_deterministically() {
        let mut a: Box<dyn Workload> = ContractWorkloadConfig::default().into();
        let mut b: Box<dyn Workload> = ContractWorkloadConfig::default().into();
        // Advance one stream before configuring: configure must reset it.
        let _ = a.batch(10, SimTime::ZERO);
        a.configure_for_cluster(4, 9);
        b.configure_for_cluster(4, 9);
        assert_eq!(a.batch(20, SimTime::ZERO), b.batch(20, SimTime::ZERO));
    }
}
