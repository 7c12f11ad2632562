//! The closed-loop client both cluster drivers run.
//!
//! A [`ClientFeed`] owns the workload's transaction stream and keeps the
//! client queues of the proposers it serves between one and two batches
//! deep. The sim driver has one feed serving all `n` replicas; a TCP node
//! has its own, serving itself alone, and every node expands the identical
//! stream.
//!
//! **No drop, no reorder.** Every drawn transaction goes to the proposer of
//! its home shard if the feed serves that proposer; one it does not serve is
//! another node's to enqueue, from its own copy of the stream. A proposer's
//! queue is therefore the home-filtered subsequence of the shared stream,
//! whoever asked for the draws and in whatever order — the property the
//! sim ≡ TCP digest comparison rests on (`docs/NET.md`).
//!
//! The feed draws until the proposer that asked is full, so the stream is
//! drawn about once per committed transaction as long as the workload homes
//! transactions on every shard — which every workload in the repository
//! does, now that a cross-shard transaction's home is spread over its shards
//! ([`Transaction::home_shard`](tb_types::Transaction::home_shard)). A shard
//! the stream does not supply costs one capped burst of draws per request.

use crate::replica::Replica;
use tb_types::SimTime;
use tb_workload::Workload;

/// One workload stream, routed by home shard into proposer client queues.
pub struct ClientFeed {
    workload: Box<dyn Workload>,
    batch: usize,
}

impl ClientFeed {
    /// A feed over `workload` (already configured for the cluster) filling
    /// queues in units of `batch` transactions.
    pub fn new(workload: Box<dyn Workload>, batch: usize) -> Self {
        ClientFeed { workload, batch }
    }

    /// The workload behind the stream.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Tops `proposers[target]` up to two batches once it holds less than
    /// one; `proposers` are all the proposers this feed serves.
    ///
    /// One call draws at most eight batches' worth of transactions that land
    /// in a served queue under uniform homes: `8 · batch` when the feed
    /// serves every shard, `n` times that when it serves one.
    pub fn top_up(&mut self, proposers: &mut [Replica], target: usize, now: SimTime) {
        if proposers[target].pending_client_txs() >= self.batch {
            return;
        }
        let goal = 2 * self.batch;
        let shards = proposers[target].dag().committee().n_shards() as usize;
        let cap = 8 * self.batch * shards / proposers.len();
        let mut drawn = 0;
        while proposers[target].pending_client_txs() < goal && drawn < cap {
            let tx = self.workload.next_transaction(now);
            drawn += 1;
            let home = tx.home_shard();
            if let Some(proposer) = proposers.iter_mut().find(|p| p.current_shard() == home) {
                proposer.enqueue(tx);
            }
        }
    }
}
