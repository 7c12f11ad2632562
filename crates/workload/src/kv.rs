//! A Zipfian hot-key key-value workload.
//!
//! The SmallBank and contract workloads both wrap their state accesses in
//! application logic; this workload strips that away and stresses the
//! system with raw `<Read, K>` / `<Write, K, V>` operation lists
//! ([`ContractCall::KvOps`]) over a small pool of keys selected with a
//! *strongly* skewed Zipfian distribution. It models the hot-key regime the
//! paper's skewed cross-shard mixes probe: a handful of keys absorb most of
//! the traffic, so the concurrent executor's repairs and the
//! cross-shard ordering path are exercised directly, without interpreter or
//! SmallBank overhead in the way.
//!
//! Transactions come in two shapes, chosen per transaction:
//!
//! * **read-only** — `ops_per_tx` reads (probability `read_fraction`),
//! * **update** — a read followed by a blind write per selected key.
//!
//! A `cross_shard_fraction` of transactions select their keys from at least
//! two different shards, mirroring the SmallBank generator's `P` parameter.

use crate::traits::ShardStreams;
use crate::zipf::ShardedZipf;
use rand::Rng;
use tb_types::{ContractCall, Key, Operation, ShardId, SimTime, Transaction, Value};

/// Configuration of the hot-key KV workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvWorkloadConfig {
    /// Number of keys in the pool.
    pub keys: u64,
    /// Zipfian skew over the keys. The default is deliberately hotter than
    /// the SmallBank setting (`0.99` vs `0.85`) — this workload exists to
    /// probe the hot-key regime.
    pub theta: f64,
    /// Probability that a transaction is read-only.
    pub read_fraction: f64,
    /// Keys touched per transaction.
    pub ops_per_tx: usize,
    /// Fraction of transactions whose keys span at least two shards.
    pub cross_shard_fraction: f64,
    /// Number of shards transactions are tagged for.
    pub n_shards: u32,
    /// Initial integer value stored under every key.
    pub initial_value: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KvWorkloadConfig {
    fn default() -> Self {
        KvWorkloadConfig {
            keys: 1_000,
            theta: 0.99,
            read_fraction: 0.5,
            ops_per_tx: 2,
            cross_shard_fraction: 0.0,
            n_shards: 4,
            initial_value: 1_000,
            seed: 0x4B56_4B56, // "KVKV"
        }
    }
}

/// A deterministic hot-key KV transaction generator: one client stream per
/// home shard, whose transactions name one of the shard's keys first.
#[derive(Clone, Debug)]
pub struct KvWorkload {
    config: KvWorkloadConfig,
    zipf: ShardedZipf,
    streams: ShardStreams,
}

impl KvWorkload {
    /// Creates a generator.
    pub fn new(config: KvWorkloadConfig) -> Self {
        KvWorkload {
            zipf: ShardedZipf::new(config.keys, config.n_shards, config.theta),
            streams: ShardStreams::new(config.seed, config.n_shards),
            config,
        }
    }

    /// The configuration the generator was built with.
    pub fn config(&self) -> &KvWorkloadConfig {
        &self.config
    }

    /// Initial state: every key holds the configured integer value.
    pub fn initial_state(&self) -> Vec<(Key, Value)> {
        (0..self.config.keys)
            .map(|k| (Key::scratch(k), Value::int(self.config.initial_value)))
            .collect()
    }

    /// Generates the next transaction of `home`'s stream, stamped with the
    /// given submission time.
    ///
    /// The first key is one of `home`'s. The second decides the class: a
    /// cross-shard transaction takes it from another shard, a single-shard
    /// one from `home`. Every further key is another of `home`'s, so a
    /// single-shard transaction repeats a key only when `home` has one.
    pub fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        let (config, zipf) = (&self.config, &self.zipf);
        self.streams.draw(home, 32, submitted_at, |rng| {
            let cross = config.cross_shard_fraction > 0.0
                && config.n_shards > 1
                && rng.gen::<f64>() < config.cross_shard_fraction;
            let read_only = rng.gen::<f64>() < config.read_fraction;

            let per_tx = config.ops_per_tx.max(1);
            let anchor = zipf.next(home, rng);
            let mut keys = vec![anchor];
            for i in 1..per_tx {
                keys.push(if cross && i == 1 {
                    zipf.elsewhere(home, rng)
                } else {
                    zipf.partner(anchor, rng)
                });
            }

            let mut ops = Vec::with_capacity(per_tx * 2);
            for key in keys {
                let key = Key::scratch(key);
                ops.push(Operation::read(key));
                if !read_only {
                    ops.push(Operation::write(key, Value::int(rng.gen_range(0..1_000))));
                }
            }
            ContractCall::KvOps(ops)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use std::collections::HashSet;
    use tb_types::{OpKind, TxClass};

    /// The operations of the next transaction of shard 0's stream.
    fn next_ops(workload: &mut KvWorkload) -> Vec<Operation> {
        match workload
            .next_transaction(ShardId::new(0), SimTime::ZERO)
            .call
        {
            ContractCall::KvOps(ops) => ops,
            other => panic!("KV workload must emit KvOps, got {other:?}"),
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let config = KvWorkloadConfig {
            seed: 11,
            ..KvWorkloadConfig::default()
        };
        let mut a = KvWorkload::new(config);
        let mut b = KvWorkload::new(config);
        let batch = a.batch(200, SimTime::ZERO);
        assert_eq!(batch, b.batch(200, SimTime::ZERO));
        // Fifty of each of the four streams: ids 0..200.
        assert_eq!(batch.iter().map(|tx| tx.id.as_inner()).max(), Some(199));
    }

    #[test]
    fn read_fraction_controls_read_only_transactions() {
        let mut workload = KvWorkload::new(KvWorkloadConfig {
            read_fraction: 0.7,
            ..KvWorkloadConfig::default()
        });
        let total = 4_000;
        let read_only = (0..total)
            .filter(|_| {
                next_ops(&mut workload)
                    .iter()
                    .all(|op| op.kind() == OpKind::Read)
            })
            .count();
        let fraction = read_only as f64 / total as f64;
        assert!(
            (fraction - 0.7).abs() < 0.05,
            "read-only fraction {fraction} should be near 0.7"
        );
    }

    #[test]
    fn cross_shard_fraction_controls_tx_class() {
        let mut workload = KvWorkload::new(KvWorkloadConfig {
            cross_shard_fraction: 0.4,
            n_shards: 8,
            ..KvWorkloadConfig::default()
        });
        let total = 4_000;
        let cross = workload
            .batch(total, SimTime::ZERO)
            .iter()
            .filter(|tx| tx.class() == TxClass::CrossShard)
            .count();
        let fraction = cross as f64 / total as f64;
        assert!(
            (fraction - 0.4).abs() < 0.05,
            "cross-shard fraction {fraction} should be near 0.4"
        );
    }

    #[test]
    fn zero_cross_shard_fraction_yields_only_single_shard() {
        let mut workload = KvWorkload::new(KvWorkloadConfig {
            cross_shard_fraction: 0.0,
            n_shards: 8,
            ops_per_tx: 3,
            ..KvWorkloadConfig::default()
        });
        for tx in workload.batch(1_000, SimTime::ZERO) {
            assert_eq!(tx.class(), TxClass::SingleShard, "tx {tx} spans shards");
        }
    }

    #[test]
    fn single_shard_guarantee_survives_awkward_pool_sizes() {
        // Pools that do not divide evenly into shards (shard is
        // `row % n_shards`), and the degenerate one-key-per-shard pool.
        for (keys, n_shards) in [(100, 8), (13, 4), (8, 8)] {
            let mut workload = KvWorkload::new(KvWorkloadConfig {
                keys,
                n_shards,
                cross_shard_fraction: 0.0,
                ops_per_tx: 2,
                theta: 0.99,
                ..KvWorkloadConfig::default()
            });
            for tx in workload.batch(2_000, SimTime::ZERO) {
                assert_eq!(
                    tx.class(),
                    TxClass::SingleShard,
                    "tx {tx} spans shards with keys={keys} n_shards={n_shards}"
                );
            }
        }
    }

    #[test]
    fn every_shard_stream_keeps_its_home_and_unique_ids() {
        let draws = 10_000;
        let mut workload = KvWorkload::new(KvWorkloadConfig {
            cross_shard_fraction: 0.3,
            ..KvWorkloadConfig::default()
        });
        let mut ids = HashSet::new();
        for s in 0..4 {
            let home = ShardId::new(s);
            for _ in 0..draws {
                let tx = workload.next_transaction(home, SimTime::ZERO);
                assert_eq!(tx.home_shard(), home, "{tx}");
                assert!(ids.insert(tx.id), "{} drawn twice", tx.id);
                let ContractCall::KvOps(ops) = &tx.call else {
                    panic!("KV workload emitted {tx}");
                };
                let (first, second) = (ops[0].key(), ops.last().unwrap().key());
                assert!(first.row < 1_000 && second.row < 1_000);
                if tx.class() == TxClass::SingleShard {
                    assert_ne!(first, second, "{tx}: a same-shard partner is the first key");
                }
            }
        }
        assert_eq!(ids.len(), 4 * draws as usize);
    }

    #[test]
    fn skew_concentrates_traffic_on_few_keys() {
        let mut workload = KvWorkload::new(KvWorkloadConfig::default());
        let mut hits = std::collections::HashMap::new();
        for _ in 0..4_000 {
            for op in next_ops(&mut workload) {
                *hits.entry(op.key()).or_insert(0u64) += 1;
            }
        }
        let total: u64 = hits.values().sum();
        let mut counts: Vec<u64> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = counts.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.3,
            "theta=0.99 should put >30% of traffic on the 10 hottest keys, got {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn initial_state_covers_the_key_pool() {
        let workload = KvWorkload::new(KvWorkloadConfig {
            keys: 32,
            initial_value: 5,
            ..KvWorkloadConfig::default()
        });
        let state = workload.initial_state();
        assert_eq!(state.len(), 32);
        assert!(state
            .iter()
            .all(|(k, v)| { k.space == tb_types::KeySpace::Scratch && *v == Value::int(5) }));
    }

    #[test]
    fn updates_read_before_writing_the_same_key() {
        let mut workload = KvWorkload::new(KvWorkloadConfig {
            read_fraction: 0.0,
            ..KvWorkloadConfig::default()
        });
        for _ in 0..200 {
            let ops = next_ops(&mut workload);
            for pair in ops.chunks(2) {
                assert_eq!(pair.len(), 2);
                assert!(matches!(pair[0], Operation::Read { .. }));
                assert!(matches!(pair[1], Operation::Write { .. }));
                assert_eq!(pair[0].key(), pair[1].key());
            }
        }
    }
}
