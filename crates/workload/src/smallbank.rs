//! SmallBank workload generation.
//!
//! Mirrors the setup of the paper's evaluation (Sections 11.2 and 12):
//!
//! * a pool of accounts (10 000 for the executor experiments, 1 000 for the
//!   system experiments), each starting with a fixed balance,
//! * accounts selected with a Zipfian distribution of skew `θ` (here within
//!   each shard: a shard's clients draw its accounts under that skew),
//! * `GetBalance` chosen with probability `Pr`, `SendPayment` otherwise,
//! * a fraction `P` of transactions designated cross-shard (a `SendPayment`
//!   whose two accounts live in different shards).
//!
//! The generator yields one stream per home shard, each deterministic for a
//! fixed seed so experiments are reproducible.

use crate::traits::ShardStreams;
use crate::zipf::ShardedZipf;
use rand::Rng;
use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
use tb_types::{ContractCall, Key, ShardId, SimTime, SmallBankProcedure, Transaction, Value};

/// Configuration of the SmallBank workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmallBankConfig {
    /// Number of accounts in the pool.
    pub accounts: u64,
    /// Zipfian skew parameter `θ` (the paper focuses on `0.75..=0.9`).
    pub theta: f64,
    /// Probability of generating the read-only `GetBalance` (`Pr`).
    pub pr_read: f64,
    /// Fraction of transactions designated cross-shard (`P`, `0.0..=1.0`).
    /// Cross-shard transactions are `SendPayment`s whose two accounts live in
    /// different shards.
    pub cross_shard_fraction: f64,
    /// Number of shards in the system (used to steer cross-shard selection).
    pub n_shards: u32,
    /// Maximum transfer amount for `SendPayment`.
    pub max_amount: i64,
    /// Initial balance of every account (checking and savings each).
    pub initial_balance: i64,
    /// RNG seed.
    pub seed: u64,
}

// Shipped whole to every node process of a TCP cluster.
tb_types::wire_struct!(SmallBankConfig {
    accounts,
    theta,
    pr_read,
    cross_shard_fraction,
    n_shards,
    max_amount,
    initial_balance,
    seed,
});

/// Fixed default RNG seed so out-of-the-box runs are reproducible.
const DEFAULT_SEED: u64 = 0xB017_5EED;

impl Default for SmallBankConfig {
    fn default() -> Self {
        SmallBankConfig {
            accounts: 10_000,
            theta: 0.85,
            pr_read: 0.5,
            cross_shard_fraction: 0.0,
            n_shards: 4,
            max_amount: 100,
            initial_balance: SMALLBANK_DEFAULT_BALANCE,
            seed: DEFAULT_SEED,
        }
    }
}

impl SmallBankConfig {
    /// The system-evaluation configuration (Section 12): 1 000 accounts,
    /// `θ = 0.85`, `Pr = 0.5`.
    pub fn system_eval(n_shards: u32, cross_shard_fraction: f64) -> Self {
        SmallBankConfig {
            accounts: 1_000,
            n_shards,
            cross_shard_fraction,
            ..SmallBankConfig::default()
        }
    }
}

/// The initial state the workload expects: every account's checking and
/// savings balance set to `initial_balance`.
pub fn initial_smallbank_state(
    accounts: u64,
    initial_balance: i64,
) -> impl Iterator<Item = (Key, Value)> {
    (0..accounts).flat_map(move |a| {
        [
            (Key::checking(a), Value::int(initial_balance)),
            (Key::savings(a), Value::int(initial_balance)),
        ]
    })
}

/// A deterministic SmallBank transaction generator: one client stream per
/// home shard.
///
/// Shard `s`'s stream draws its first (or only) account from `s`'s
/// accounts. A same-shard `SendPayment` pays another account of `s`, a
/// cross-shard one an account of another shard.
#[derive(Clone, Debug)]
pub struct SmallBankWorkload {
    config: SmallBankConfig,
    zipf: ShardedZipf,
    streams: ShardStreams,
}

impl SmallBankWorkload {
    /// Creates a workload generator.
    pub fn new(config: SmallBankConfig) -> Self {
        let seed = if config.seed == 0 {
            DEFAULT_SEED
        } else {
            config.seed
        };
        SmallBankWorkload {
            zipf: ShardedZipf::new(config.accounts, config.n_shards, config.theta),
            streams: ShardStreams::new(seed, config.n_shards),
            config,
        }
    }

    /// The configuration the generator was built with.
    pub fn config(&self) -> &SmallBankConfig {
        &self.config
    }

    /// The initial store contents for this workload.
    pub fn initial_state(&self) -> impl Iterator<Item = (Key, Value)> {
        initial_smallbank_state(self.config.accounts, self.config.initial_balance)
    }

    /// Generates the next transaction of `home`'s stream, stamped with the
    /// given submission time.
    pub fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        let (config, zipf) = (&self.config, &self.zipf);
        self.streams.draw(home, 64, submitted_at, |rng| {
            let cross = config.cross_shard_fraction > 0.0
                && rng.gen::<f64>() < config.cross_shard_fraction
                && config.n_shards > 1;
            let procedure = if cross {
                let from = zipf.next(home, rng);
                let to = zipf.elsewhere(home, rng);
                let amount = rng.gen_range(1..=config.max_amount);
                SmallBankProcedure::SendPayment { from, to, amount }
            } else if rng.gen::<f64>() < config.pr_read {
                let account = zipf.next(home, rng);
                SmallBankProcedure::GetBalance { account }
            } else {
                let from = zipf.next(home, rng);
                let to = zipf.partner(from, rng);
                let amount = rng.gen_range(1..=config.max_amount);
                SmallBankProcedure::SendPayment { from, to, amount }
            };
            ContractCall::SmallBank(procedure)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use std::collections::HashSet;
    use tb_types::{TxClass, TxId};

    fn workload(cfg: SmallBankConfig) -> SmallBankWorkload {
        SmallBankWorkload::new(cfg)
    }

    /// The procedure of the next transaction of shard 0's stream.
    fn next_procedure(w: &mut SmallBankWorkload) -> SmallBankProcedure {
        match w.next_transaction(ShardId::new(0), SimTime::ZERO).call {
            ContractCall::SmallBank(procedure) => procedure,
            other => panic!("SmallBank emitted {other:?}"),
        }
    }

    #[test]
    fn read_fraction_tracks_pr() {
        let mut w = workload(SmallBankConfig {
            pr_read: 0.8,
            accounts: 1_000,
            ..SmallBankConfig::default()
        });
        let total = 5_000;
        let reads = (0..total)
            .filter(|_| {
                matches!(
                    next_procedure(&mut w),
                    SmallBankProcedure::GetBalance { .. }
                )
            })
            .count();
        let fraction = reads as f64 / total as f64;
        assert!(
            (fraction - 0.8).abs() < 0.05,
            "read fraction {fraction} should be near 0.8"
        );
    }

    #[test]
    fn pr_zero_generates_no_reads() {
        let mut w = workload(SmallBankConfig {
            pr_read: 0.0,
            accounts: 100,
            ..SmallBankConfig::default()
        });
        for _ in 0..500 {
            assert!(matches!(
                next_procedure(&mut w),
                SmallBankProcedure::SendPayment { .. }
            ));
        }
    }

    #[test]
    fn cross_shard_fraction_controls_tx_class() {
        let cfg = SmallBankConfig::system_eval(16, 0.6);
        let mut w = workload(cfg);
        let total = 4_000;
        let cross = w
            .batch(total, SimTime::ZERO)
            .iter()
            .filter(|tx| tx.class() == TxClass::CrossShard)
            .count();
        let fraction = cross as f64 / total as f64;
        assert!(
            (fraction - 0.6).abs() < 0.05,
            "cross-shard fraction {fraction} should be near 0.6"
        );
    }

    #[test]
    fn zero_cross_shard_fraction_yields_only_single_shard() {
        let cfg = SmallBankConfig::system_eval(8, 0.0);
        let mut w = workload(cfg);
        for tx in w.batch(1_000, SimTime::ZERO) {
            assert_eq!(tx.class(), TxClass::SingleShard, "tx {tx} spans shards");
        }
    }

    #[test]
    fn full_cross_shard_fraction_yields_only_cross_shard() {
        let cfg = SmallBankConfig::system_eval(16, 1.0);
        let mut w = workload(cfg);
        for tx in w.batch(1_000, SimTime::ZERO) {
            assert_eq!(tx.class(), TxClass::CrossShard);
        }
    }

    #[test]
    fn transactions_get_unique_increasing_ids() {
        let mut w = workload(SmallBankConfig::default());
        let home = ShardId::new(1);
        let a = w.next_transaction(home, SimTime::ZERO);
        let b = w.next_transaction(home, SimTime::ZERO);
        assert!(a.id < b.id);
        // The second transaction of shard 1's stream, of four shards.
        assert_eq!(b.id, TxId::new(4 + 1));
    }

    #[test]
    fn every_shard_stream_keeps_its_home_its_mix_and_unique_ids() {
        let draws = 10_000;
        let (p, pr_read) = (0.3, 0.5);
        let mut w = workload(SmallBankConfig {
            pr_read,
            ..SmallBankConfig::system_eval(4, p)
        });
        let mut ids = HashSet::new();
        for s in 0..4 {
            let home = ShardId::new(s);
            let (mut cross, mut reads) = (0, 0);
            for _ in 0..draws {
                let tx = w.next_transaction(home, SimTime::ZERO);
                assert_eq!(tx.home_shard(), home, "{tx}");
                assert!(ids.insert(tx.id), "{} drawn twice", tx.id);
                let ContractCall::SmallBank(procedure) = &tx.call else {
                    panic!("SmallBank emitted {tx}");
                };
                match *procedure {
                    SmallBankProcedure::GetBalance { .. } => reads += 1,
                    SmallBankProcedure::SendPayment { from, to, .. } => {
                        assert_ne!(from, to, "{tx} pays itself");
                        assert!(to < 1_000);
                        if tx.class() == TxClass::CrossShard {
                            cross += 1;
                        }
                    }
                    ref other => panic!("unexpected {other}"),
                }
            }
            // A read is drawn only for a transaction that is not cross-shard.
            let cross_share = cross as f64 / draws as f64;
            let read_share = reads as f64 / (draws - cross) as f64;
            assert!(
                (cross_share - p).abs() < 0.02,
                "{home}: cross {cross_share}"
            );
            assert!(
                (read_share - pr_read).abs() < 0.02,
                "{home}: reads {read_share}"
            );
        }
        // Four streams of 10 000 ids cover exactly 0..40 000.
        assert_eq!(
            ids.iter().map(|id| id.as_inner()).max(),
            Some(4 * draws - 1)
        );
    }

    #[test]
    fn a_shard_stream_does_not_depend_on_the_other_streams() {
        let cfg = SmallBankConfig::system_eval(4, 0.2);
        let mut alone = workload(cfg);
        let mut mixed = workload(cfg);
        let home = ShardId::new(2);
        for i in 0..500 {
            let other = ShardId::new((3 + i % 3) % 4);
            let _ = mixed.next_transaction(other, SimTime::ZERO);
            assert_eq!(
                alone.next_transaction(home, SimTime::ZERO),
                mixed.next_transaction(home, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn cross_shard_homes_are_spread_over_every_involved_shard() {
        let total = 10_000;
        let mut w = workload(SmallBankConfig::system_eval(4, 1.0));
        let mut homes = [0usize; 4];
        for tx in w.batch(total, SimTime::ZERO) {
            assert_eq!(tx.class(), TxClass::CrossShard);
            assert!(tx.shards.contains(&tx.home_shard()), "{tx}");
            homes[tx.home_shard().as_inner() as usize] += 1;
        }
        // Lowest-shard routing would leave shard 3 at zero.
        assert!(homes.iter().all(|n| *n * 100 >= total * 15), "{homes:?}");

        let mut w = workload(SmallBankConfig::system_eval(4, 0.0));
        for tx in w.batch(total, SimTime::ZERO) {
            assert_eq!(*tx.shards, [tx.home_shard()]);
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = SmallBankConfig {
            seed: 7,
            ..SmallBankConfig::default()
        };
        let mut a = workload(cfg);
        let mut b = workload(cfg);
        for _ in 0..100 {
            assert_eq!(next_procedure(&mut a), next_procedure(&mut b));
        }
    }

    #[test]
    fn initial_state_covers_every_account_twice() {
        let entries: Vec<_> = initial_smallbank_state(10, 500).collect();
        assert_eq!(entries.len(), 20);
        assert!(entries.iter().all(|(_, v)| *v == Value::int(500)));
    }

    #[test]
    fn executor_and_system_presets_match_the_paper() {
        // The default is the executor evaluation's setup (Section 11).
        let exec = SmallBankConfig::default();
        assert_eq!(exec.accounts, 10_000);
        assert!((exec.theta - 0.85).abs() < 1e-12);
        let sys = SmallBankConfig::system_eval(64, 0.08);
        assert_eq!(sys.accounts, 1_000);
        assert_eq!(sys.n_shards, 64);
        assert!((sys.cross_shard_fraction - 0.08).abs() < 1e-12);
    }
}
