//! A mixed interpreter-contract workload.
//!
//! The paper motivates Thunderbolt with Turing-complete contracts whose
//! access patterns are only known at run time. This workload exercises that
//! property directly: it mixes token transfers, counter updates and
//! *indirect* accesses (a pointer slot is read and the referenced slot is
//! updated), so no static analysis of the call parameters can predict the
//! write set. It is used by the `cross_shard_contention` example and the
//! extension benchmarks.

use crate::traits::ShardStreams;
use crate::zipf::ShardedZipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tb_contracts::ProgramBuilder;
use tb_types::{ContractCall, Key, ShardId, SimTime, Transaction, Value};

/// Configuration of the contract workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContractWorkloadConfig {
    /// Number of token/counter slots.
    pub slots: u64,
    /// Zipfian skew over the slots.
    pub theta: f64,
    /// Fraction of calls that are indirect (pointer-chasing) updates.
    pub indirect_fraction: f64,
    /// Fraction of calls that are plain counter increments.
    pub counter_fraction: f64,
    /// Number of shards (for routing).
    pub n_shards: u32,
    /// Initial token balance per slot.
    pub initial_balance: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ContractWorkloadConfig {
    fn default() -> Self {
        ContractWorkloadConfig {
            slots: 1_000,
            theta: 0.8,
            indirect_fraction: 0.2,
            counter_fraction: 0.2,
            n_shards: 4,
            initial_balance: 1_000,
            seed: 0xC0DE,
        }
    }
}

/// Generator of interpreter-program transactions: one client stream per
/// home shard, whose transactions declare one of the shard's keys first.
#[derive(Clone, Debug)]
pub struct ContractWorkload {
    streams: ShardStreams,
    calls: Calls,
}

/// What the workload's calls are drawn from.
#[derive(Clone, Debug)]
struct Calls {
    config: ContractWorkloadConfig,
    zipf: ShardedZipf,
    transfer_code: Vec<u8>,
    counter_code: Vec<u8>,
    indirect_code: Vec<u8>,
}

impl ContractWorkload {
    /// Creates a generator.
    pub fn new(config: ContractWorkloadConfig) -> Self {
        ContractWorkload {
            streams: ShardStreams::new(config.seed, config.n_shards),
            calls: Calls {
                zipf: ShardedZipf::new(config.slots, config.n_shards, config.theta),
                transfer_code: ProgramBuilder::token_transfer().into_bytes(),
                counter_code: ProgramBuilder::counter_add().into_bytes(),
                indirect_code: ProgramBuilder::indirect_touch().into_bytes(),
                config,
            },
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ContractWorkloadConfig {
        &self.calls.config
    }

    /// Initial state: every slot holds the initial balance and every pointer
    /// slot (`slots..2*slots`) points at a random slot.
    pub fn initial_state(&self) -> Vec<(Key, Value)> {
        let config = self.config();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFFFF);
        let mut out = Vec::with_capacity(config.slots as usize * 2);
        for slot in 0..config.slots {
            out.push((Key::contract(slot), Value::int(config.initial_balance)));
        }
        for pointer in config.slots..config.slots * 2 {
            let target = rng.gen_range(0..config.slots);
            out.push((Key::contract(pointer), Value::int(target as i64)));
        }
        out
    }

    /// The call of shard 0's next transaction. Kept for the benchmark's
    /// interpreter probe (ROADMAP item 15).
    pub fn next_call(&mut self) -> ContractCall {
        self.next_transaction(ShardId::new(0), SimTime::ZERO).call
    }

    /// Generates the next transaction of `home`'s stream.
    pub fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        let calls = &self.calls;
        self.streams
            .draw(home, 16, submitted_at, |rng| calls.draw(home, rng))
    }
}

impl Calls {
    /// A call of `home`'s stream, drawn from `rng`. Its first declared key
    /// is one of `home`'s. A transfer pays a slot of a uniformly chosen
    /// shard, never the paying slot itself.
    fn draw(&self, home: ShardId, rng: &mut StdRng) -> ContractCall {
        let (config, zipf) = (&self.config, &self.zipf);
        let roll: f64 = rng.gen();
        if roll < config.indirect_fraction {
            // Pointer slot `slots + i` lies on `home` when slot `i` lies
            // `slots` shards before it.
            let n = u64::from(config.n_shards);
            let shard = (u64::from(home.as_inner()) + n - config.slots % n) % n;
            let pointer = config.slots + zipf.next(ShardId::new(shard as u32), rng);
            let delta = rng.gen_range(1..=10);
            ContractCall::Program {
                code: self.indirect_code.clone(),
                args: vec![pointer as i64, delta],
                declared_keys: vec![Key::contract(pointer)],
            }
        } else if roll < config.indirect_fraction + config.counter_fraction {
            let slot = zipf.next(home, rng);
            ContractCall::Program {
                code: self.counter_code.clone(),
                args: vec![slot as i64, 1],
                declared_keys: vec![Key::contract(slot)],
            }
        } else {
            let from = zipf.next(home, rng);
            let to = if rng.gen_range(0..config.n_shards) == 0 {
                zipf.partner(from, rng)
            } else {
                zipf.elsewhere(home, rng)
            };
            let amount = rng.gen_range(1..=10);
            ContractCall::Program {
                code: self.transfer_code.clone(),
                args: vec![from as i64, to as i64, amount],
                declared_keys: vec![Key::contract(from), Key::contract(to)],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn mix_fractions_are_respected() {
        let cfg = ContractWorkloadConfig {
            indirect_fraction: 0.5,
            counter_fraction: 0.25,
            ..ContractWorkloadConfig::default()
        };
        let mut w = ContractWorkload::new(cfg);
        let mut indirect = 0;
        let mut counter = 0;
        let mut transfer = 0;
        for _ in 0..2_000 {
            match w.next_call() {
                ContractCall::Program { args, .. } if args.len() == 2 => {
                    // counter_add and indirect_touch both take two args;
                    // distinguish by the pointer offset.
                    if args[0] as u64 >= cfg.slots {
                        indirect += 1;
                    } else {
                        counter += 1;
                    }
                }
                ContractCall::Program { args, .. } if args.len() == 3 => transfer += 1,
                other => panic!("unexpected call {other:?}"),
            }
        }
        assert!((indirect as f64 / 2_000.0 - 0.5).abs() < 0.06);
        assert!((counter as f64 / 2_000.0 - 0.25).abs() < 0.06);
        assert!((transfer as f64 / 2_000.0 - 0.25).abs() < 0.06);
    }

    #[test]
    fn initial_state_has_slots_and_pointers() {
        let cfg = ContractWorkloadConfig {
            slots: 10,
            ..ContractWorkloadConfig::default()
        };
        let w = ContractWorkload::new(cfg);
        let state = w.initial_state();
        assert_eq!(state.len(), 20);
        // Pointer slots point inside the slot range.
        for (k, v) in &state[10..] {
            assert!(k.row >= 10);
            assert!((0..10).contains(&v.as_int()));
        }
    }

    #[test]
    fn every_shard_stream_keeps_its_home_and_unique_ids() {
        let draws = 10_000;
        let mut w = ContractWorkload::new(ContractWorkloadConfig::default());
        let mut ids = std::collections::HashSet::new();
        let mut same_shard_transfers = 0;
        for s in 0..4 {
            let home = ShardId::new(s);
            for _ in 0..draws {
                let tx = w.next_transaction(home, SimTime::ZERO);
                assert_eq!(tx.home_shard(), home, "{tx}");
                assert!(ids.insert(tx.id), "{} drawn twice", tx.id);
                let ContractCall::Program { declared_keys, .. } = &tx.call else {
                    panic!("the contract workload emitted {tx}");
                };
                assert!(declared_keys.iter().all(|k| k.row < 2_000));
                if let [from, to] = declared_keys[..] {
                    if tx.class() == tb_types::TxClass::SingleShard {
                        assert_ne!(from, to, "{tx}: a same-shard partner is the first slot");
                        same_shard_transfers += 1;
                    }
                }
            }
        }
        assert_eq!(ids.len(), 4 * draws);
        assert!(same_shard_transfers > 0);
    }

    #[test]
    fn batches_are_deterministic_per_seed() {
        let cfg = ContractWorkloadConfig::default();
        let mut a = ContractWorkload::new(cfg);
        let mut b = ContractWorkload::new(cfg);
        let ba = a.batch(50, SimTime::ZERO);
        let bb = b.batch(50, SimTime::ZERO);
        assert_eq!(ba, bb);
    }
}
