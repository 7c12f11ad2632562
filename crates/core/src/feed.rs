//! The closed-loop client the replica driver runs.
//!
//! A [`ClientFeed`] owns the workload, which yields one client stream per
//! home shard ([`Workload`]), and keeps the client queue of every proposer
//! it serves between one and two batches deep. The simulation has one feed
//! serving all `n` replicas; a TCP node has its own, serving itself alone.
//!
//! A proposer that drops below one batch is topped up from its current
//! shard's stream, and from nothing else: every transaction drawn is queued
//! at the proposer that asked, stamped as submitted then. No draw is kept
//! for a shard that did not ask, so no feed holds a transaction outside a
//! queue. Shard `s`'s stream is a pure function of the seed and `s`, so
//! the proposer of `s` queues the same transactions in the same order
//! whether its feed serves every shard or `s` alone, and whatever the other
//! shards asked in between — the property the sim ≡ TCP digest comparison
//! rests on (`docs/NET.md`).

use crate::replica::Replica;
use tb_types::SimTime;
use tb_workload::Workload;

/// The workload's per-shard streams, drawn into proposer client queues.
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

    /// The workload behind the streams.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Tops `proposer`'s queue up to two batches from its current shard's
    /// stream once it holds less than one. Every transaction drawn is
    /// queued there, stamped as submitted at `now`; a workload that draws
    /// one homed elsewhere is a bug, and panics here.
    pub fn top_up(&mut self, proposer: &mut Replica, now: SimTime) {
        let home = proposer.current_shard();
        let queues = proposer.app_mut().queues_mut();
        if queues.pending_single() + queues.pending_cross() >= self.batch {
            return;
        }
        while queues.pending_single() + queues.pending_cross() < 2 * self.batch {
            let tx = self.workload.next_transaction(home, now);
            assert!(queues.enqueue(tx), "a transaction not homed on {home}");
        }
    }
}
