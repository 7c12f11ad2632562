//! Transactions and contract call payloads.
//!
//! A transaction carries a [`ContractCall`] whose concrete read/write set is
//! only discovered by executing it (the paper's "Turing-complete, no prior
//! knowledge" assumption). What *is* known up front is the set of shards the
//! call's parameters live in — clients use it to route the transaction to a
//! shard proposer, and Thunderbolt uses it to classify the transaction as
//! single-shard (EOV path) or cross-shard (OE path).

use crate::ids::{ClientId, ShardId, TxId};
use crate::key::Key;
use crate::ops::Operation;
use crate::time::SimTime;
use std::fmt;

/// The six SmallBank procedures (paper Section 11.2). The evaluation focuses
/// on `SendPayment` and `GetBalance`, but the full suite is implemented so the
/// workload generator can produce any mix.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SmallBankProcedure {
    /// Move the entire savings + checking balance of `from` into the checking
    /// balance of `to`.
    Amalgamate {
        /// Source account.
        from: u64,
        /// Destination account.
        to: u64,
    },
    /// Read-only query returning checking + savings of `account`.
    GetBalance {
        /// Queried account.
        account: u64,
    },
    /// Add `amount` to the checking balance of `account`.
    DepositChecking {
        /// Target account.
        account: u64,
        /// Amount to deposit (non-negative).
        amount: i64,
    },
    /// Transfer `amount` from the checking balance of `from` to `to`.
    SendPayment {
        /// Paying account.
        from: u64,
        /// Receiving account.
        to: u64,
        /// Amount to transfer.
        amount: i64,
    },
    /// Add `amount` (possibly negative) to the savings balance of `account`.
    TransactSavings {
        /// Target account.
        account: u64,
        /// Amount to add.
        amount: i64,
    },
    /// Write a check: subtract `amount` from checking, with a penalty if the
    /// combined balance is insufficient.
    WriteCheck {
        /// Target account.
        account: u64,
        /// Check amount.
        amount: i64,
    },
}

impl SmallBankProcedure {
    /// The accounts named by the procedure parameters. These determine the
    /// shards the transaction is associated with before execution.
    pub fn accounts(&self) -> Vec<u64> {
        match self.account_pair() {
            (first, second) if first == second => vec![first],
            (first, second) => vec![first, second],
        }
    }

    /// The accounts named by the procedure parameters without allocating:
    /// `(from, to)` for a two-account procedure, the one account twice
    /// otherwise.
    fn account_pair(&self) -> (u64, u64) {
        match self {
            SmallBankProcedure::Amalgamate { from, to }
            | SmallBankProcedure::SendPayment { from, to, .. } => (*from, *to),
            SmallBankProcedure::GetBalance { account }
            | SmallBankProcedure::DepositChecking { account, .. }
            | SmallBankProcedure::TransactSavings { account, .. }
            | SmallBankProcedure::WriteCheck { account, .. } => (*account, *account),
        }
    }

    /// Short name used in logs and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            SmallBankProcedure::Amalgamate { .. } => "Amalgamate",
            SmallBankProcedure::GetBalance { .. } => "GetBalance",
            SmallBankProcedure::DepositChecking { .. } => "DepositChecking",
            SmallBankProcedure::SendPayment { .. } => "SendPayment",
            SmallBankProcedure::TransactSavings { .. } => "TransactSavings",
            SmallBankProcedure::WriteCheck { .. } => "WriteCheck",
        }
    }
}

impl fmt::Display for SmallBankProcedure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})", self.name(), self.accounts())
    }
}

/// The payload of a transaction: which contract to run and with which
/// arguments. The interpretation of the payload lives in `tb-contracts`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContractCall {
    /// One of the native SmallBank procedures.
    SmallBank(SmallBankProcedure),
    /// A program for the mini contract interpreter: opaque bytecode plus
    /// integer arguments. The bytecode format is defined by `tb-contracts`.
    Program {
        /// Assembled bytecode.
        code: Vec<u8>,
        /// Call arguments.
        args: Vec<i64>,
        /// Keys named by the arguments (used only for shard routing; the
        /// program may touch additional keys discovered at run time).
        declared_keys: Vec<Key>,
    },
    /// A fixed list of operations, useful for tests and micro-benchmarks
    /// where the access pattern must be exact.
    KvOps(Vec<Operation>),
    /// A no-op transaction (used as filler in liveness tests).
    Noop,
}

impl ContractCall {
    /// The keys the caller *declares* up front — i.e. the keys derivable from
    /// the call parameters without executing the contract. This drives shard
    /// routing; the actual read/write set may be larger and is only known
    /// after (pre)play.
    pub fn declared_keys(&self) -> Vec<Key> {
        match self {
            ContractCall::SmallBank(proc_) => proc_
                .accounts()
                .into_iter()
                .flat_map(|a| [Key::checking(a), Key::savings(a)])
                .collect(),
            ContractCall::Program { declared_keys, .. } => declared_keys.clone(),
            ContractCall::KvOps(ops) => {
                let mut keys: Vec<Key> = ops.iter().map(|o| o.key()).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            }
            ContractCall::Noop => Vec::new(),
        }
    }

    /// The shards the call's declared keys live in, sorted and
    /// deduplicated: a transaction's [`shards`](Transaction::shards). Every
    /// replica knows the shard count, so this is derived wherever it is
    /// needed — by [`Transaction::new`] and by the decoder of the block that
    /// carries the call — and never shipped.
    pub fn shards(&self, n_shards: u32) -> Vec<ShardId> {
        let mut shards = Vec::new();
        self.shards_into(n_shards, &mut shards);
        shards
    }

    /// [`shards`](ContractCall::shards) written over `shards`, reusing its
    /// allocation.
    pub(crate) fn shards_into(&self, n_shards: u32, shards: &mut Vec<ShardId>) {
        shards.clear();
        match self {
            // Both balances of an account live in one shard, so a SmallBank
            // call's shards come straight from its one or two accounts.
            ContractCall::SmallBank(procedure) => {
                let (first, second) = procedure.account_pair();
                let a = Key::checking(first).shard(n_shards);
                let b = Key::checking(second).shard(n_shards);
                shards.push(a.min(b));
                if a != b {
                    shards.push(a.max(b));
                }
            }
            _ => {
                shards.extend(self.declared_keys().iter().map(|k| k.shard(n_shards)));
                shards.sort_unstable();
                shards.dedup();
            }
        }
    }
}

/// Classification of a transaction with respect to the shard map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxClass {
    /// All declared keys live in a single shard: eligible for the EOV preplay
    /// path through the concurrent executor.
    SingleShard,
    /// The declared keys span multiple shards: ordered by consensus first
    /// (OE path). Single-shard transactions can also be *converted* to this
    /// class by rules P3/P4/P6.
    CrossShard,
}

impl fmt::Display for TxClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxClass::SingleShard => f.write_str("single-shard"),
            TxClass::CrossShard => f.write_str("cross-shard"),
        }
    }
}

/// A client transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Globally unique identifier.
    pub id: TxId,
    /// Submitting client.
    pub client: ClientId,
    /// The contract call to execute.
    pub call: ContractCall,
    /// Shards associated with the call parameters, sorted and deduplicated:
    /// [`ContractCall::shards`] of `call` and the system's shard count. A
    /// block does not ship it; its decoder derives it from the call and the
    /// block's shard count, and [`Block::seal`](crate::Block::seal) derives
    /// it again on the proposer, so no replica acts on a list that
    /// disagrees with the call.
    pub shards: Vec<ShardId>,
    /// When the client submitted the transaction to its proposer, on the
    /// proposer's clock. Only the proposer reads it: it keeps the time of
    /// every transaction it proposes and times the transaction's latency on
    /// commit. A block does not ship it, so a sealed or decoded copy holds
    /// zero.
    pub submitted_at: SimTime,
}

impl Transaction {
    /// Builds a transaction, deriving the associated shards from the declared
    /// keys of the call and the total number of shards in the system
    /// ([`ContractCall::shards`]).
    pub fn new(
        id: TxId,
        client: ClientId,
        call: ContractCall,
        n_shards: u32,
        submitted_at: SimTime,
    ) -> Self {
        let shards = call.shards(n_shards);
        Transaction {
            id,
            client,
            call,
            shards,
            submitted_at,
        }
    }

    /// The transaction class implied by its declared shards.
    pub fn class(&self) -> TxClass {
        if self.shards.len() <= 1 {
            TxClass::SingleShard
        } else {
            TxClass::CrossShard
        }
    }

    /// The shard whose proposer the transaction is routed to: its only shard
    /// when single-shard, otherwise `shards[id % shards.len()]`. The paper
    /// routes a cross-shard transaction to *any* involved proposer; picking
    /// by id keeps that choice deterministic and spreads cross-shard traffic
    /// evenly over the involved shards, so no proposer is left without
    /// supply (always picking the lowest shard starves the highest one).
    pub fn home_shard(&self) -> ShardId {
        match self.shards.len() {
            0 => ShardId::new(0),
            len => self.shards[(self.id.as_inner() % len as u64) as usize],
        }
    }

    /// True if the transaction touches the given shard.
    pub fn touches_shard(&self, shard: ShardId) -> bool {
        self.shards.contains(&shard)
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]{:?}", self.id, self.class(), self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn tx(call: ContractCall, n_shards: u32) -> Transaction {
        Transaction::new(
            TxId::new(1),
            ClientId::new(0),
            call,
            n_shards,
            SimTime::ZERO,
        )
    }

    #[test]
    fn smallbank_send_payment_between_shards_is_cross_shard() {
        // Accounts 0 and 1 land in different shards when there are 4 shards.
        let call = ContractCall::SmallBank(SmallBankProcedure::SendPayment {
            from: 0,
            to: 1,
            amount: 5,
        });
        let t = tx(call, 4);
        assert_eq!(t.class(), TxClass::CrossShard);
        assert_eq!(t.shards, vec![ShardId::new(0), ShardId::new(1)]);
        // Id 1 of two shards: the second one. The next id goes to the first.
        assert_eq!(t.home_shard(), ShardId::new(1));
        let next = Transaction {
            id: TxId::new(2),
            ..t
        };
        assert_eq!(next.home_shard(), ShardId::new(0));
    }

    #[test]
    fn smallbank_send_payment_within_a_shard_is_single_shard() {
        // Accounts 0 and 4 both map to shard 0 out of 4 shards.
        let call = ContractCall::SmallBank(SmallBankProcedure::SendPayment {
            from: 0,
            to: 4,
            amount: 5,
        });
        let t = tx(call, 4);
        assert_eq!(t.class(), TxClass::SingleShard);
        assert_eq!(t.shards, vec![ShardId::new(0)]);
    }

    #[test]
    fn get_balance_is_single_shard() {
        let call = ContractCall::SmallBank(SmallBankProcedure::GetBalance { account: 7 });
        let t = tx(call, 4);
        assert_eq!(t.class(), TxClass::SingleShard);
        assert_eq!(t.shards, vec![ShardId::new(3)]);
    }

    #[test]
    fn kv_ops_declared_keys_are_deduplicated() {
        let call = ContractCall::KvOps(vec![
            Operation::read(Key::scratch(1)),
            Operation::write(Key::scratch(1), Value::int(2)),
            Operation::write(Key::scratch(9), Value::int(3)),
        ]);
        assert_eq!(call.declared_keys(), vec![Key::scratch(1), Key::scratch(9)]);
    }

    #[test]
    fn noop_has_no_shards_and_defaults_home_to_zero() {
        let t = tx(ContractCall::Noop, 4);
        assert!(t.shards.is_empty());
        assert_eq!(t.class(), TxClass::SingleShard);
        assert_eq!(t.home_shard(), ShardId::new(0));
    }

    #[test]
    fn smallbank_shards_equal_the_derivation_from_declared_keys() {
        for n_shards in 1..=8u32 {
            for (a, b) in [(0, 0), (3, 3), (0, 1), (5, 2), (7, 15), (9, 1), (12, 4)] {
                let procedures = [
                    SmallBankProcedure::Amalgamate { from: a, to: b },
                    SmallBankProcedure::GetBalance { account: a },
                    SmallBankProcedure::DepositChecking {
                        account: b,
                        amount: 1,
                    },
                    SmallBankProcedure::SendPayment {
                        from: a,
                        to: b,
                        amount: 1,
                    },
                    SmallBankProcedure::TransactSavings {
                        account: a,
                        amount: -1,
                    },
                    SmallBankProcedure::WriteCheck {
                        account: b,
                        amount: 1,
                    },
                ];
                for procedure in procedures {
                    let call = ContractCall::SmallBank(procedure);
                    let mut derived: Vec<ShardId> = call
                        .declared_keys()
                        .iter()
                        .map(|k| k.shard(n_shards))
                        .collect();
                    derived.sort_unstable();
                    derived.dedup();
                    assert_eq!(tx(call, n_shards).shards, derived, "{n_shards} shards");
                }
            }
        }
    }

    #[test]
    fn procedure_accounts_and_names() {
        let p = SmallBankProcedure::Amalgamate { from: 3, to: 3 };
        assert_eq!(p.accounts(), vec![3]);
        assert_eq!(p.name(), "Amalgamate");
        let q = SmallBankProcedure::WriteCheck {
            account: 2,
            amount: 10,
        };
        assert_eq!(q.accounts(), vec![2]);
    }
}
