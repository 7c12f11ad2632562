//! Blocks proposed by shard proposers.
//!
//! A block is the payload of one DAG vertex. In the EOV path it carries the
//! *preplay outcomes* of a batch of single-shard transactions (their
//! read/write sets, results and scheduled order, Figure 3). Cross-shard
//! transactions ride in the same block but without preplay results (OE path,
//! rule P1). Skip blocks and Shift blocks are special block kinds used for
//! preplay recovery (Section 5.4) and non-blocking reconfiguration
//! (Section 6) respectively.

use crate::digest::{Hashable, StructuralHasher};
use crate::ids::{DagId, ReplicaId, Round, SeqNo, ShardId};
use crate::ops::ExecOutcome;
use crate::time::SimTime;
use crate::transaction::Transaction;
use std::fmt;

/// A single-shard transaction together with its preplay outcome and its
/// position in the serialized order produced by the concurrent executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreplayedTx {
    /// The original transaction.
    pub tx: Transaction,
    /// Read/write sets and results obtained during preplay.
    pub outcome: ExecOutcome,
    /// Index of the transaction in the serialized execution order chosen by
    /// the preplay engine (0-based within the block).
    pub order: u32,
}

impl PreplayedTx {
    /// Creates a preplayed transaction entry.
    pub fn new(tx: Transaction, outcome: ExecOutcome, order: u32) -> Self {
        PreplayedTx { tx, outcome, order }
    }
}

/// The role of a block in the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BlockKind {
    /// An ordinary block carrying transactions.
    #[default]
    Normal,
    /// A skip block: the proposer could not safely preplay because prior
    /// leaders' cross-shard transactions are not yet finalized (Section 5.4).
    Skip,
    /// A Shift block voting for a reconfiguration of shard assignments
    /// (Section 6).
    Shift,
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockKind::Normal => f.write_str("normal"),
            BlockKind::Skip => f.write_str("skip"),
            BlockKind::Shift => f.write_str("shift"),
        }
    }
}

/// The transaction payload of a block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockPayload {
    /// Single-shard transactions preplayed by the concurrent executor, in
    /// their serialized order.
    pub single_shard: Vec<PreplayedTx>,
    /// Cross-shard transactions (including converted single-shard ones),
    /// submitted without preplay.
    pub cross_shard: Vec<Transaction>,
}

impl BlockPayload {
    /// An empty payload.
    pub fn empty() -> Self {
        BlockPayload::default()
    }

    /// Total number of transactions carried.
    pub fn len(&self) -> usize {
        self.single_shard.len() + self.cross_shard.len()
    }

    /// True if the payload contains no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A block produced by a shard proposer for one DAG round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The DAG instance this block belongs to.
    pub dag: DagId,
    /// The round the block was proposed in.
    pub round: Round,
    /// The replica that authored the block.
    pub author: ReplicaId,
    /// The shard the author was serving when it proposed the block.
    pub shard: ShardId,
    /// Per-author monotone sequence number (used for client deduplication).
    pub seq: SeqNo,
    /// What kind of block this is.
    pub kind: BlockKind,
    /// The transactions carried by the block.
    pub payload: BlockPayload,
    /// Simulated creation time.
    pub created_at: SimTime,
}

impl Block {
    /// Creates a normal block.
    pub fn normal(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        seq: SeqNo,
        payload: BlockPayload,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            seq,
            kind: BlockKind::Normal,
            payload,
            created_at,
        }
    }

    /// Creates a skip block (optionally still carrying cross-shard
    /// transactions, which never need preplay).
    pub fn skip(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        seq: SeqNo,
        cross_shard: Vec<Transaction>,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            seq,
            kind: BlockKind::Skip,
            payload: BlockPayload {
                single_shard: Vec::new(),
                cross_shard,
            },
            created_at,
        }
    }

    /// Creates a Shift block.
    pub fn shift(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        seq: SeqNo,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            seq,
            kind: BlockKind::Shift,
            payload: BlockPayload::empty(),
            created_at,
        }
    }

    /// True if this is a Shift block.
    pub fn is_shift(&self) -> bool {
        self.kind == BlockKind::Shift
    }

    /// True if this is a skip block.
    pub fn is_skip(&self) -> bool {
        self.kind == BlockKind::Skip
    }

    /// Number of transactions carried.
    pub fn tx_count(&self) -> usize {
        self.payload.len()
    }
}

impl Hashable for Block {
    fn absorb(&self, h: &mut StructuralHasher) {
        h.write_u64(self.dag.as_inner());
        h.write_u64(self.round.as_u64());
        h.write_u64(u64::from(self.author.as_inner()));
        h.write_u64(u64::from(self.shard.as_inner()));
        h.write_u64(self.seq.as_inner());
        h.write_u64(match self.kind {
            BlockKind::Normal => 0,
            BlockKind::Skip => 1,
            BlockKind::Shift => 2,
        });
        h.write_u64(self.payload.single_shard.len() as u64);
        for p in &self.payload.single_shard {
            h.write_u64(p.tx.id.as_inner());
            h.write_u64(u64::from(p.order));
            h.write_u64(p.outcome.read_set.len() as u64);
            h.write_u64(p.outcome.write_set.len() as u64);
            for rec in p.outcome.read_set.iter().chain(p.outcome.write_set.iter()) {
                h.write_u64(rec.key.encode());
                h.write_u64(rec.value.as_int() as u64);
            }
        }
        h.write_u64(self.payload.cross_shard.len() as u64);
        for tx in &self.payload.cross_shard {
            h.write_u64(tx.id.as_inner());
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block[{} {} {} {} kind={} txs={}]",
            self.dag,
            self.round,
            self.author,
            self.shard,
            self.kind,
            self.tx_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};
    use crate::transaction::ContractCall;

    fn sample_tx(id: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::Noop,
            4,
            SimTime::ZERO,
        )
    }

    fn sample_block(kind: BlockKind) -> Block {
        let mut block = Block::normal(
            DagId::new(0),
            Round::new(1),
            ReplicaId::new(2),
            ShardId::new(2),
            SeqNo::new(7),
            BlockPayload::empty(),
            SimTime::ZERO,
        );
        block.kind = kind;
        block
    }

    #[test]
    fn constructors_set_kinds() {
        let n = sample_block(BlockKind::Normal);
        assert!(!n.is_shift() && !n.is_skip());
        let s = Block::skip(
            DagId::new(0),
            Round::new(2),
            ReplicaId::new(1),
            ShardId::new(1),
            SeqNo::new(0),
            vec![sample_tx(5)],
            SimTime::ZERO,
        );
        assert!(s.is_skip());
        assert_eq!(s.tx_count(), 1);
        let sh = Block::shift(
            DagId::new(0),
            Round::new(3),
            ReplicaId::new(1),
            ShardId::new(1),
            SeqNo::new(0),
            SimTime::ZERO,
        );
        assert!(sh.is_shift());
        assert_eq!(sh.tx_count(), 0);
    }

    #[test]
    fn digest_depends_on_contents() {
        let a = sample_block(BlockKind::Normal);
        let b = sample_block(BlockKind::Skip);
        assert_ne!(a.digest(), b.digest());

        let mut c = sample_block(BlockKind::Normal);
        c.payload.cross_shard.push(sample_tx(1));
        assert_ne!(a.digest(), c.digest());

        let a2 = sample_block(BlockKind::Normal);
        assert_eq!(a.digest(), a2.digest());
    }

    #[test]
    fn payload_len_counts_both_classes() {
        let mut p = BlockPayload::empty();
        assert!(p.is_empty());
        p.cross_shard.push(sample_tx(1));
        p.single_shard
            .push(PreplayedTx::new(sample_tx(2), ExecOutcome::empty(), 0));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_mentions_round_and_kind() {
        let b = sample_block(BlockKind::Normal);
        let s = b.to_string();
        assert!(s.contains("r1"));
        assert!(s.contains("normal"));
    }
}
