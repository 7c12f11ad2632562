//! The closed-loop client the replica driver runs.
//!
//! A [`ClientFeed`] owns the workload's transaction stream and keeps the
//! client queues of the proposers it serves between one and two batches
//! deep. The simulation has one feed serving all `n` replicas; a TCP node
//! has its own, serving itself alone, and every node expands the identical
//! stream.
//!
//! **No drop, no reorder.** Every drawn transaction belongs to the proposer
//! of its home shard if the feed serves that shard; one it does not serve is
//! another node's to enqueue, from its own copy of the stream. A proposer's
//! queue is therefore the home-filtered subsequence of the shared stream,
//! whoever asked for the draws and in whatever order — the property the
//! sim ≡ TCP digest comparison rests on (`docs/NET.md`).
//!
//! **Per-shard scripts.** Drawing for the proposer that asked also yields
//! transactions homed on the other served shards. Those are not pushed into
//! the other proposers' queues: each waits, in stream order, in its shard's
//! *script* — what that shard's clients have yet to submit. A proposer that
//! drops below one batch is handed its shard's script first and only then
//! draws from the stream, so every queue stays within two batches whatever
//! the stream's skew. A transaction's `submitted_at` is set when it is handed
//! to the proposer, because that is when its client submits it: latency
//! counts the wait in the proposer's queue, never the wait in the script.
//! Scripts are keyed by shard, not by replica, so after a reconfiguration
//! the next proposer of a shard picks up that shard's script. A node serves
//! one shard and takes every transaction of it as it is drawn, so it never
//! holds a script.
//!
//! **Where the surplus lives.** The feed draws until the proposer that asked
//! is full, so the stream is drawn about once per committed transaction as
//! long as the workload homes transactions on every shard — which every
//! workload in the repository does, now that a cross-shard transaction's
//! home is spread over its shards
//! ([`Transaction::home_shard`](tb_types::Transaction::home_shard)). Homes
//! are not supplied equally (a Zipf stream over four shards draws about 1.13
//! transactions per committed one), so the shards the stream over-supplies
//! accumulate a surplus for the whole run. It sits in their scripts, where
//! it is neither queued nor counted as latency; it costs the same memory it
//! did when it sat in the queues. A shard the stream does not supply costs
//! one capped burst of draws per request.

use crate::replica::Replica;
use std::collections::VecDeque;
use tb_types::{SimTime, Transaction};
use tb_workload::Workload;

/// One workload stream, routed by home shard into proposer client queues.
pub struct ClientFeed {
    workload: Box<dyn Workload>,
    batch: usize,
    /// Drawn transactions not yet handed to a proposer, per home shard (the
    /// index), in stream order.
    scripts: Vec<VecDeque<Transaction>>,
}

impl ClientFeed {
    /// A feed over `workload` (already configured for the cluster) filling
    /// queues in units of `batch` transactions.
    pub fn new(workload: Box<dyn Workload>, batch: usize) -> Self {
        ClientFeed {
            workload,
            batch,
            scripts: Vec::new(),
        }
    }

    /// The workload behind the stream.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Tops `proposers[target]` up to two batches once it holds less than
    /// one, first from its shard's script, then from the stream; `proposers`
    /// are all the proposers this feed serves. Whatever reaches the queue is
    /// stamped as submitted at `now`.
    ///
    /// One call draws at most eight batches' worth of transactions that land
    /// in a served shard under uniform homes: `8 · batch` when the feed
    /// serves every shard, `n` times that when it serves one. Hand-overs
    /// from a script are not draws.
    pub fn top_up(&mut self, proposers: &mut [Replica], target: usize, now: SimTime) {
        if proposers[target].pending_client_txs() >= self.batch {
            return;
        }
        let goal = 2 * self.batch;
        let shards = proposers[target].dag().committee().n_shards() as usize;
        if self.scripts.len() < shards {
            self.scripts.resize_with(shards, VecDeque::new);
        }
        let home = proposers[target].current_shard();
        let script = &mut self.scripts[home.as_inner() as usize];
        while proposers[target].pending_client_txs() < goal {
            let Some(mut tx) = script.pop_front() else {
                break;
            };
            tx.submitted_at = now;
            proposers[target].enqueue(tx);
        }
        let cap = 8 * self.batch * shards / proposers.len();
        let mut drawn = 0;
        while proposers[target].pending_client_txs() < goal && drawn < cap {
            let tx = self.workload.next_transaction(now);
            drawn += 1;
            let shard = tx.home_shard();
            if shard == home {
                proposers[target].enqueue(tx);
            } else if proposers.iter().any(|p| p.current_shard() == shard) {
                self.scripts[shard.as_inner() as usize].push_back(tx);
            }
        }
    }
}
