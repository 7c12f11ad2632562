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

use crate::zipf::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tb_types::{ClientId, ContractCall, Key, Operation, SimTime, Transaction, TxId, Value};

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

/// A deterministic hot-key KV transaction generator.
#[derive(Clone, Debug)]
pub struct KvWorkload {
    config: KvWorkloadConfig,
    zipf: ZipfianGenerator,
    rng: StdRng,
    next_tx: u64,
}

impl KvWorkload {
    /// Creates a generator.
    pub fn new(config: KvWorkloadConfig) -> Self {
        KvWorkload {
            zipf: ZipfianGenerator::scrambled(config.keys.max(1), config.theta),
            rng: StdRng::seed_from_u64(config.seed),
            next_tx: 0,
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

    fn shard_of(&self, key: u64) -> u32 {
        Key::scratch(key)
            .shard(self.config.n_shards.max(1))
            .as_inner()
    }

    /// Picks a key whose shard relation to `anchor` is `cross` (different
    /// shard when `true`, same shard when `false`), keeping the Zipfian skew
    /// by rejection sampling with a deterministic fallback.
    fn pick_relative(&mut self, anchor: u64, cross: bool) -> u64 {
        let anchor_shard = self.shard_of(anchor);
        for _ in 0..64 {
            let candidate = self.zipf.next(&mut self.rng);
            if candidate == anchor {
                continue;
            }
            if (self.shard_of(candidate) != anchor_shard) == cross {
                return candidate;
            }
        }
        // Deterministic fallback: walk the pool until the shard relation
        // holds. A fixed stride of `n_shards` would break on wrap-around
        // whenever `keys % n_shards != 0` (shard is `row % n_shards`), so
        // every candidate is checked. Falls back to the anchor itself when
        // the pool cannot satisfy the relation (e.g. a same-shard partner
        // in a shard holding a single key) — a duplicate key keeps the
        // transaction's class intact, which is the guarantee that matters.
        let keys = self.config.keys.max(1);
        for step in 1..keys {
            let candidate = (anchor + step) % keys;
            if (self.shard_of(candidate) != anchor_shard) == cross {
                return candidate;
            }
        }
        anchor
    }

    /// Generates the next operation list according to the configured mix.
    pub fn next_call(&mut self) -> ContractCall {
        let cross = self.config.cross_shard_fraction > 0.0
            && self.config.n_shards > 1
            && self.rng.gen::<f64>() < self.config.cross_shard_fraction;
        let read_only = self.rng.gen::<f64>() < self.config.read_fraction;

        let per_tx = self.config.ops_per_tx.max(1);
        let mut keys = Vec::with_capacity(per_tx);
        let anchor = self.zipf.next(&mut self.rng);
        keys.push(anchor);
        for i in 1..per_tx {
            // The second key decides the transaction class: cross-shard
            // transactions place it in a different shard, single-shard
            // transactions keep every key in the anchor's shard.
            let want_cross = cross && i == 1;
            keys.push(self.pick_relative(anchor, want_cross));
        }

        let mut ops = Vec::with_capacity(per_tx * 2);
        for key in keys {
            let key = Key::scratch(key);
            ops.push(Operation::read(key));
            if !read_only {
                let value = self.rng.gen_range(0..1_000);
                ops.push(Operation::write(key, Value::int(value)));
            }
        }
        ContractCall::KvOps(ops)
    }

    /// Generates the next transaction, stamping it with a fresh id and the
    /// given submission time.
    pub fn next_transaction(&mut self, submitted_at: SimTime) -> Transaction {
        let call = self.next_call();
        let id = TxId::new(self.next_tx);
        self.next_tx += 1;
        Transaction::new(
            id,
            ClientId::new((id.as_inner() % 32) as u32),
            call,
            self.config.n_shards,
            submitted_at,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use tb_types::{OpKind, TxClass};

    #[test]
    fn streams_are_deterministic_per_seed() {
        let config = KvWorkloadConfig {
            seed: 11,
            ..KvWorkloadConfig::default()
        };
        let mut a = KvWorkload::new(config);
        let mut b = KvWorkload::new(config);
        assert_eq!(a.batch(200, SimTime::ZERO), b.batch(200, SimTime::ZERO));
        assert_eq!(a.next_tx, 200);
    }

    #[test]
    fn read_fraction_controls_read_only_transactions() {
        let mut workload = KvWorkload::new(KvWorkloadConfig {
            read_fraction: 0.7,
            ..KvWorkloadConfig::default()
        });
        let total = 4_000;
        let read_only = (0..total)
            .filter(|_| match workload.next_call() {
                ContractCall::KvOps(ops) => ops.iter().all(|op| op.kind() == OpKind::Read),
                other => panic!("unexpected call {other:?}"),
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
        let cross = (0..total)
            .filter(|_| workload.next_transaction(SimTime::ZERO).class() == TxClass::CrossShard)
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
        for _ in 0..1_000 {
            let tx = workload.next_transaction(SimTime::ZERO);
            assert_eq!(tx.class(), TxClass::SingleShard, "tx {tx} spans shards");
        }
    }

    #[test]
    fn single_shard_guarantee_survives_awkward_pool_sizes() {
        // The deterministic fallback must respect the shard relation even
        // when the pool does not divide evenly into shards (shard is
        // `row % n_shards`, so a fixed stride breaks on wrap-around) and in
        // the degenerate one-key-per-shard pool.
        for (keys, n_shards) in [(100, 8), (13, 4), (8, 8)] {
            let mut workload = KvWorkload::new(KvWorkloadConfig {
                keys,
                n_shards,
                cross_shard_fraction: 0.0,
                ops_per_tx: 2,
                theta: 0.99,
                ..KvWorkloadConfig::default()
            });
            for _ in 0..2_000 {
                let tx = workload.next_transaction(SimTime::ZERO);
                assert_eq!(
                    tx.class(),
                    TxClass::SingleShard,
                    "tx {tx} spans shards with keys={keys} n_shards={n_shards}"
                );
            }
        }
    }

    #[test]
    fn skew_concentrates_traffic_on_few_keys() {
        let mut workload = KvWorkload::new(KvWorkloadConfig::default());
        let mut hits = std::collections::HashMap::new();
        for _ in 0..4_000 {
            if let ContractCall::KvOps(ops) = workload.next_call() {
                for op in ops {
                    *hits.entry(op.key()).or_insert(0u64) += 1;
                }
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
            let ContractCall::KvOps(ops) = workload.next_call() else {
                panic!("KV workload must emit KvOps");
            };
            for pair in ops.chunks(2) {
                assert_eq!(pair.len(), 2);
                assert!(matches!(pair[0], Operation::Read { .. }));
                assert!(matches!(pair[1], Operation::Write { .. }));
                assert_eq!(pair[0].key(), pair[1].key());
            }
        }
    }
}
