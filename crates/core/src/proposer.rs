//! The shard proposer: client queues and the proposal rules (Section 5.1).
//!
//! Every replica serves exactly one shard at a time and proposes one block
//! per round for it. What goes into the block is decided by the proposal
//! rules:
//!
//! * **P1** — cross-shard transactions are never preplayed; they ride in the
//!   block as-is and are executed after consensus.
//! * **P3/P4** — if the proposer has seen (in its local DAG) cross-shard
//!   transactions touching its shard that are not yet committed, it must not
//!   preplay: it either converts its pending single-shard transactions to
//!   cross-shard ones, or proposes a *skip block* and retries the preplay
//!   once the conflicting transactions are finalized (Section 5.4).
//! * **P6** — if the expected leader proposal has not arrived, the proposer
//!   converts instead of waiting.
//! * **Shift** — when the reconfiguration conditions of Section 6 hold, the
//!   proposer emits a Shift block instead of a payload block.
//!
//! The decision logic is a pure function ([`decide`]) so it can be tested
//! exhaustively; the queue bookkeeping lives in [`ShardProposer`].

use std::collections::VecDeque;
use tb_types::{ShardId, Transaction, TxClass};

/// Everything the decision function needs to know about the current round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProposalContext {
    /// The previous leader-round vertex is present in the local DAG (P6 is
    /// satisfied; if false the proposer must convert).
    pub leader_vertex_present: bool,
    /// Some cross-shard transaction touching this shard has been seen in the
    /// DAG but is not yet committed (triggers P3/P4).
    pub conflicting_cross_shard_pending: bool,
    /// The reconfiguration conditions of Section 6 are met and this replica
    /// has not yet emitted a Shift block in the current DAG.
    pub should_shift: bool,
    /// Whether the proposer prefers skip blocks (preplay recovery,
    /// Section 5.4) over converting to cross-shard when P3/P4 trigger.
    pub use_skip_blocks: bool,
}

/// How a Byzantine proposer deviates from the protocol.
///
/// These are the adversarial proposer behaviours the chaos campaign injects.
/// Each one attacks a different rule: `Equivocate` attacks certification
/// (one header per author per round), `TamperReads` attacks EOV (a block's
/// declared reads must hold), and `OverfullWrongShard` attacks P1 and the
/// batch budget (cross-shard transactions must not be preplayed, blocks
/// carry at most one batch). Honest replicas must neither diverge nor stall
/// under any of them as long as at most f replicas are Byzantine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Corrupt the first declared read of a preplayed block, the one input
    /// a proposer gives the block's effects, so the block fails
    /// post-consensus validation. Every honest replica derives the block's
    /// writes from its reads, finds the forged read deterministically, and
    /// discards the block (EOV safety).
    TamperReads,
    /// Send two conflicting (header, block) pairs for the same round to
    /// disjoint subsets of the committee. At most one variant can gather a
    /// quorum of acks, so at most one vertex is certified — honest replicas
    /// all adopt that single vertex.
    Equivocate,
    /// Violate P1 and the batch budget: preplay cross-shard transactions as
    /// if they were single-shard and stuff a second batch into one block. No
    /// receiver checks the shard or the budget (ROADMAP item 22): every
    /// replica applies the block, writes outside the shard included, when
    /// its declared reads hold at commit, and discards it otherwise.
    OverfullWrongShard,
}

tb_types::wire_enum!(ByzantineBehavior {
    0 => TamperReads,
    1 => Equivocate,
    2 => OverfullWrongShard,
});

/// What kind of block the proposer should build this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProposalDecision {
    /// Emit a Shift block (reconfiguration vote).
    Shift,
    /// Ship the pending cross-shard transactions and preplay single-shard
    /// ones, in the room they leave, with the concurrent executor (the
    /// normal EOV + OE block).
    Preplay,
    /// Convert the pending single-shard transactions to cross-shard ones and
    /// submit everything through the OE path (rules P3/P4/P6).
    ConvertToCross,
    /// Propose a skip block: keep the single-shard transactions queued for a
    /// later preplay, only ship pending cross-shard transactions.
    Skip,
}

/// Applies the proposal rules to the context.
pub fn decide(ctx: ProposalContext) -> ProposalDecision {
    if ctx.should_shift {
        return ProposalDecision::Shift;
    }
    if !ctx.leader_vertex_present {
        return ProposalDecision::ConvertToCross;
    }
    if ctx.conflicting_cross_shard_pending {
        return if ctx.use_skip_blocks {
            ProposalDecision::Skip
        } else {
            ProposalDecision::ConvertToCross
        };
    }
    ProposalDecision::Preplay
}

/// Client-transaction queues of one shard proposer.
#[derive(Clone, Debug)]
pub struct ShardProposer {
    shard: ShardId,
    single_shard: VecDeque<Transaction>,
    cross_shard: VecDeque<Transaction>,
    batch_size: usize,
}

impl ShardProposer {
    /// Creates a proposer for `shard` batching up to `batch_size`
    /// single-shard transactions per block.
    pub fn new(shard: ShardId, batch_size: usize) -> Self {
        ShardProposer {
            shard,
            single_shard: VecDeque::new(),
            cross_shard: VecDeque::new(),
            batch_size,
        }
    }

    /// The shard this proposer currently serves.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Re-targets the proposer to a new shard after a reconfiguration.
    /// Queued transactions for the old shard are dropped and lost: nothing
    /// resubmits them to that shard's new proposer, as Section 6
    /// ("Uncommitted Transactions") has their clients do (ROADMAP item 20).
    pub fn reassign(&mut self, shard: ShardId) {
        if shard != self.shard {
            self.shard = shard;
            self.single_shard.clear();
            self.cross_shard.clear();
        }
    }

    /// Number of queued single-shard transactions.
    pub fn pending_single(&self) -> usize {
        self.single_shard.len()
    }

    /// Number of queued cross-shard transactions.
    pub fn pending_cross(&self) -> usize {
        self.cross_shard.len()
    }

    /// Enqueues a client transaction. Transactions whose home shard is not
    /// the proposer's shard are rejected (the client must resubmit to the
    /// right proposer).
    pub fn enqueue(&mut self, tx: Transaction) -> bool {
        if tx.home_shard() != self.shard {
            return false;
        }
        match tx.class() {
            TxClass::SingleShard => self.single_shard.push_back(tx),
            TxClass::CrossShard => self.cross_shard.push_back(tx),
        }
        true
    }

    /// Takes the next batch of single-shard transactions: what a block that
    /// converts (P3/P4/P6) takes first.
    pub fn take_single_batch(&mut self) -> Vec<Transaction> {
        let n = self.batch_size.min(self.single_shard.len());
        self.single_shard.drain(..n).collect()
    }

    /// Takes the transactions of a block that preplays, as
    /// `(single_shard, cross_shard)`: the queued cross-shard transactions
    /// first, up to a batch (P1: straight into the block), so that rules
    /// P3/P4 of every proposer they touch see them in the next round; then
    /// the single-shard ones to preplay, in the room they leave.
    pub(crate) fn take_preplay_batch(&mut self) -> (Vec<Transaction>, Vec<Transaction>) {
        let n = self.next_single_batch().len();
        let cross = self.take_cross_batch(self.batch_size);
        (self.single_shard.drain(..n).collect(), cross)
    }

    /// The single-shard transactions
    /// [`take_preplay_batch`](Self::take_preplay_batch) would take now, left
    /// in place at the front of the queue: what a replica preplays ahead of
    /// its round. They stay the front until a take or a
    /// [`reassign`](Self::reassign); cross-shard transactions queued in
    /// between can shorten them.
    pub(crate) fn next_single_batch(&mut self) -> &[Transaction] {
        let room = self.batch_size - self.cross_shard.len().min(self.batch_size);
        let n = room.min(self.single_shard.len());
        &self.single_shard.make_contiguous()[..n]
    }

    /// Takes the next batch of cross-shard transactions (P1: straight into
    /// the block), bounded by `limit` so that a block never carries more than
    /// one batch worth of transactions in total.
    pub fn take_cross_batch(&mut self, limit: usize) -> Vec<Transaction> {
        let n = limit.min(self.batch_size).min(self.cross_shard.len());
        self.cross_shard.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_types::{ClientId, ContractCall, SimTime, SmallBankProcedure, TxId};

    impl ProposalContext {
        /// A context in which nothing prevents preplaying.
        fn clear() -> Self {
            ProposalContext {
                leader_vertex_present: true,
                conflicting_cross_shard_pending: false,
                should_shift: false,
                use_skip_blocks: false,
            }
        }
    }

    fn tx(id: u64, from: u64, to: u64, n_shards: u32) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                from,
                to,
                amount: 1,
            }),
            n_shards,
            SimTime::ZERO,
        )
    }

    #[test]
    fn decision_table_matches_the_rules() {
        // Shift dominates everything.
        assert_eq!(
            decide(ProposalContext {
                should_shift: true,
                leader_vertex_present: false,
                conflicting_cross_shard_pending: true,
                use_skip_blocks: true,
            }),
            ProposalDecision::Shift
        );
        // Missing leader proposal converts (P6).
        assert_eq!(
            decide(ProposalContext {
                leader_vertex_present: false,
                ..ProposalContext::clear()
            }),
            ProposalDecision::ConvertToCross
        );
        // Conflicting uncommitted cross-shard transactions convert (P3/P4) …
        assert_eq!(
            decide(ProposalContext {
                conflicting_cross_shard_pending: true,
                ..ProposalContext::clear()
            }),
            ProposalDecision::ConvertToCross
        );
        // … or skip when skip blocks are enabled (Section 5.4).
        assert_eq!(
            decide(ProposalContext {
                conflicting_cross_shard_pending: true,
                use_skip_blocks: true,
                ..ProposalContext::clear()
            }),
            ProposalDecision::Skip
        );
        // Otherwise preplay.
        assert_eq!(decide(ProposalContext::clear()), ProposalDecision::Preplay);
    }

    #[test]
    fn enqueue_routes_by_class_and_home_shard() {
        // 4 shards; proposer serves shard 0.
        let mut proposer = ShardProposer::new(ShardId::new(0), 10);
        // Single-shard for shard 0 (accounts 0 and 4 both map to shard 0).
        assert!(proposer.enqueue(tx(1, 0, 4, 4)));
        // Cross-shard between shards 0 and 1, homed on the payer's shard 0.
        assert!(proposer.enqueue(tx(2, 0, 1, 4)));
        // Wrong shard: home shard of accounts {1, 5} is shard 1.
        assert!(!proposer.enqueue(tx(3, 1, 5, 4)));
        assert_eq!(proposer.pending_single(), 1);
        assert_eq!(proposer.pending_cross(), 1);
    }

    #[test]
    fn batches_respect_the_batch_size_and_fifo_order() {
        let mut proposer = ShardProposer::new(ShardId::new(0), 3);
        for i in 0..5 {
            proposer.enqueue(tx(i, 0, 4, 4));
        }
        // A look at the next batch is the next take, and takes nothing.
        let next: Vec<TxId> = proposer
            .next_single_batch()
            .iter()
            .map(|tx| tx.id)
            .collect();
        assert_eq!(proposer.pending_single(), 5);
        let (batch, cross) = proposer.take_preplay_batch();
        assert!(cross.is_empty());
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].id, TxId::new(0));
        assert_eq!(batch.iter().map(|tx| tx.id).collect::<Vec<_>>(), next);
        assert_eq!(proposer.pending_single(), 2);
        let rest = proposer.take_single_batch();
        assert_eq!(rest.len(), 2);
        assert!(proposer.take_single_batch().is_empty());
    }

    #[test]
    fn a_preplayed_block_takes_cross_shard_transactions_first() {
        let mut proposer = ShardProposer::new(ShardId::new(0), 3);
        for i in 0..3 {
            proposer.enqueue(tx(i, 0, 4, 4));
        }
        proposer.enqueue(tx(10, 0, 1, 4));
        // The queued cross-shard transaction leaves room for two.
        let next: Vec<TxId> = proposer
            .next_single_batch()
            .iter()
            .map(|tx| tx.id)
            .collect();
        assert_eq!(next, [TxId::new(0), TxId::new(1)]);
        let (singles, cross) = proposer.take_preplay_batch();
        assert_eq!(singles.iter().map(|tx| tx.id).collect::<Vec<_>>(), next);
        assert_eq!(
            cross.iter().map(|tx| tx.id).collect::<Vec<_>>(),
            [TxId::new(10)]
        );
        // A full batch of cross-shard transactions leaves no room.
        for i in 20..24 {
            proposer.enqueue(tx(i, 0, 1, 4));
        }
        assert!(proposer.next_single_batch().is_empty());
        let (singles, cross) = proposer.take_preplay_batch();
        assert!(singles.is_empty());
        assert_eq!(cross.len(), 3);
        assert_eq!(
            (proposer.pending_single(), proposer.pending_cross()),
            (1, 1)
        );
    }

    #[test]
    fn reassign_clears_queues_only_on_change() {
        let mut proposer = ShardProposer::new(ShardId::new(0), 10);
        proposer.enqueue(tx(1, 0, 4, 4));
        proposer.enqueue(tx(2, 0, 1, 4));
        proposer.reassign(ShardId::new(0));
        assert_eq!(
            (proposer.pending_single(), proposer.pending_cross()),
            (1, 1),
            "same shard keeps the queues"
        );
        proposer.reassign(ShardId::new(2));
        assert_eq!(proposer.shard(), ShardId::new(2));
        assert_eq!(
            (proposer.pending_single(), proposer.pending_cross()),
            (0, 0)
        );
        // New shard accepts its own transactions now (accounts 2 and 6).
        assert!(proposer.enqueue(tx(9, 2, 6, 4)));
    }
}
