//! SmallBank workload generation.
//!
//! Mirrors the setup of the paper's evaluation (Sections 11.2 and 12):
//!
//! * a pool of accounts (10 000 for the executor experiments, 1 000 for the
//!   system experiments), each starting with a fixed balance,
//! * accounts selected with a Zipfian distribution of skew `θ`,
//! * `GetBalance` chosen with probability `Pr`, `SendPayment` otherwise,
//! * a fraction `P` of transactions designated cross-shard (a `SendPayment`
//!   whose two accounts live in different shards).
//!
//! The generator is deterministic for a fixed seed so experiments are
//! reproducible.

use crate::zipf::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
use tb_types::{
    ClientId, ContractCall, Key, SimTime, SmallBankProcedure, Transaction, TxId, Value,
};

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

/// A deterministic SmallBank transaction generator.
#[derive(Clone, Debug)]
pub struct SmallBankWorkload {
    config: SmallBankConfig,
    zipf: ZipfianGenerator,
    rng: StdRng,
    next_tx: u64,
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
            zipf: ZipfianGenerator::scrambled(config.accounts, config.theta),
            rng: StdRng::seed_from_u64(seed),
            next_tx: 0,
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

    fn pick_account(&mut self) -> u64 {
        self.zipf.next(&mut self.rng)
    }

    /// Picks a second account whose shard relation to `from` is `cross`
    /// (different shard when `true`, same shard when `false`).
    fn pick_partner(&mut self, from: u64, cross: bool) -> u64 {
        let n_shards = self.config.n_shards.max(1);
        let from_shard = Key::checking(from).shard(n_shards);
        // Rejection-sample from the Zipfian distribution so the partner
        // account keeps the configured skew; fall back to a deterministic
        // shift if the pool is too small to satisfy the constraint.
        for _ in 0..64 {
            let candidate = self.pick_account();
            if candidate == from {
                continue;
            }
            let candidate_shard = Key::checking(candidate).shard(n_shards);
            if (candidate_shard != from_shard) == cross {
                return candidate;
            }
        }
        let shift = if cross {
            // Next account in a different shard.
            1
        } else {
            // Same shard: jump a whole stripe of shards.
            u64::from(n_shards)
        };
        let candidate = (from + shift) % self.config.accounts;
        if candidate == from {
            (from + 1) % self.config.accounts
        } else {
            candidate
        }
    }

    /// Generates the next contract call according to the configured mix.
    pub fn next_call(&mut self) -> ContractCall {
        let cross = self.config.cross_shard_fraction > 0.0
            && self.rng.gen::<f64>() < self.config.cross_shard_fraction
            && self.config.n_shards > 1;
        if cross {
            // Cross-shard transactions are SendPayments between shards.
            let from = self.pick_account();
            let to = self.pick_partner(from, true);
            let amount = self.rng.gen_range(1..=self.config.max_amount);
            return ContractCall::SmallBank(SmallBankProcedure::SendPayment { from, to, amount });
        }
        if self.rng.gen::<f64>() < self.config.pr_read {
            let account = self.pick_account();
            ContractCall::SmallBank(SmallBankProcedure::GetBalance { account })
        } else {
            let from = self.pick_account();
            let to = self.pick_partner(from, false);
            let amount = self.rng.gen_range(1..=self.config.max_amount);
            ContractCall::SmallBank(SmallBankProcedure::SendPayment { from, to, amount })
        }
    }

    /// Generates the next transaction, stamping it with a fresh id and the
    /// given submission time.
    pub fn next_transaction(&mut self, submitted_at: SimTime) -> Transaction {
        let call = self.next_call();
        let id = TxId::new(self.next_tx);
        self.next_tx += 1;
        let client = ClientId::new((id.as_inner() % 64) as u32);
        Transaction::new(id, client, call, self.config.n_shards, submitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use tb_types::TxClass;

    fn workload(cfg: SmallBankConfig) -> SmallBankWorkload {
        SmallBankWorkload::new(cfg)
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
                    w.next_call(),
                    ContractCall::SmallBank(SmallBankProcedure::GetBalance { .. })
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
                w.next_call(),
                ContractCall::SmallBank(SmallBankProcedure::SendPayment { .. })
            ));
        }
    }

    #[test]
    fn cross_shard_fraction_controls_tx_class() {
        let cfg = SmallBankConfig::system_eval(16, 0.6);
        let mut w = workload(cfg);
        let total = 4_000;
        let cross = (0..total)
            .filter(|_| w.next_transaction(SimTime::ZERO).class() == TxClass::CrossShard)
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
        for _ in 0..1_000 {
            let tx = w.next_transaction(SimTime::ZERO);
            assert_eq!(tx.class(), TxClass::SingleShard, "tx {tx} spans shards");
        }
    }

    #[test]
    fn full_cross_shard_fraction_yields_only_cross_shard() {
        let cfg = SmallBankConfig::system_eval(16, 1.0);
        let mut w = workload(cfg);
        for _ in 0..1_000 {
            let tx = w.next_transaction(SimTime::ZERO);
            assert_eq!(tx.class(), TxClass::CrossShard);
        }
    }

    #[test]
    fn transactions_get_unique_increasing_ids() {
        let mut w = workload(SmallBankConfig::default());
        let a = w.next_transaction(SimTime::ZERO);
        let b = w.next_transaction(SimTime::ZERO);
        assert!(a.id < b.id);
        assert_eq!(w.next_tx, 2);
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
            assert_eq!(tx.shards, vec![tx.home_shard()]);
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
            assert_eq!(a.next_call(), b.next_call());
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
