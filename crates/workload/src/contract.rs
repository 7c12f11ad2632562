//! A mixed interpreter-contract workload.
//!
//! The paper motivates Thunderbolt with Turing-complete contracts whose
//! access patterns are only known at run time. This workload exercises that
//! property directly: it mixes token transfers, counter updates and
//! *indirect* accesses (a pointer slot is read and the referenced slot is
//! updated), so no static analysis of the call parameters can predict the
//! write set. It is used by the `cross_shard_contention` example and the
//! extension benchmarks.

use crate::zipf::ZipfianGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tb_contracts::ProgramBuilder;
use tb_types::{ClientId, ContractCall, Key, SimTime, Transaction, TxId, Value};

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

/// Generator of interpreter-program transactions.
#[derive(Clone, Debug)]
pub struct ContractWorkload {
    config: ContractWorkloadConfig,
    zipf: ZipfianGenerator,
    rng: StdRng,
    next_tx: u64,
    transfer_code: Vec<u8>,
    counter_code: Vec<u8>,
    indirect_code: Vec<u8>,
}

impl ContractWorkload {
    /// Creates a generator.
    pub fn new(config: ContractWorkloadConfig) -> Self {
        ContractWorkload {
            zipf: ZipfianGenerator::scrambled(config.slots, config.theta),
            rng: StdRng::seed_from_u64(config.seed),
            next_tx: 0,
            transfer_code: ProgramBuilder::token_transfer().into_bytes(),
            counter_code: ProgramBuilder::counter_add().into_bytes(),
            indirect_code: ProgramBuilder::indirect_touch().into_bytes(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ContractWorkloadConfig {
        &self.config
    }

    /// Initial state: every slot holds the initial balance and every pointer
    /// slot (`slots..2*slots`) points at a random slot.
    pub fn initial_state(&self) -> Vec<(Key, Value)> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xFFFF);
        let mut out = Vec::with_capacity(self.config.slots as usize * 2);
        for slot in 0..self.config.slots {
            out.push((Key::contract(slot), Value::int(self.config.initial_balance)));
        }
        for pointer in self.config.slots..self.config.slots * 2 {
            let target = rng.gen_range(0..self.config.slots);
            out.push((Key::contract(pointer), Value::int(target as i64)));
        }
        out
    }

    fn pick_slot(&mut self) -> u64 {
        self.zipf.next(&mut self.rng)
    }

    /// Generates the next contract call.
    pub fn next_call(&mut self) -> ContractCall {
        let roll: f64 = self.rng.gen();
        if roll < self.config.indirect_fraction {
            let pointer = self.config.slots + self.pick_slot();
            let delta = self.rng.gen_range(1..=10);
            ContractCall::Program {
                code: self.indirect_code.clone(),
                args: vec![pointer as i64, delta],
                declared_keys: vec![Key::contract(pointer)],
            }
        } else if roll < self.config.indirect_fraction + self.config.counter_fraction {
            let slot = self.pick_slot();
            ContractCall::Program {
                code: self.counter_code.clone(),
                args: vec![slot as i64, 1],
                declared_keys: vec![Key::contract(slot)],
            }
        } else {
            let from = self.pick_slot();
            let mut to = self.pick_slot();
            if to == from {
                to = (to + 1) % self.config.slots;
            }
            let amount = self.rng.gen_range(1..=10);
            ContractCall::Program {
                code: self.transfer_code.clone(),
                args: vec![from as i64, to as i64, amount],
                declared_keys: vec![Key::contract(from), Key::contract(to)],
            }
        }
    }

    /// Generates the next transaction.
    pub fn next_transaction(&mut self, submitted_at: SimTime) -> Transaction {
        let call = self.next_call();
        let id = TxId::new(self.next_tx);
        self.next_tx += 1;
        Transaction::new(
            id,
            ClientId::new((id.as_inner() % 16) as u32),
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
    fn batches_are_deterministic_per_seed() {
        let cfg = ContractWorkloadConfig::default();
        let mut a = ContractWorkload::new(cfg);
        let mut b = ContractWorkload::new(cfg);
        let ba = a.batch(50, SimTime::ZERO);
        let bb = b.batch(50, SimTime::ZERO);
        assert_eq!(ba, bb);
    }
}
