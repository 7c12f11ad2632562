//! The discrete-event network simulator.

use crate::faults::FaultPlan;
use crate::transport::{Inbound, WireSized};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use tb_types::{LatencyModel, ReplicaId, SimTime};

/// Aggregate statistics of a transport (simulated or real).
///
/// Counts are tracked in both messages and bytes so that a simulated run and
/// a real-TCP run of the same scenario report comparable traffic figures.
/// Byte counts measure the wire encoding of the message payload (the
/// [`WireSized`] size; length prefixes and connection handshakes are
/// excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages dropped by faults (crashes, silenced senders, partitions,
    /// random loss).
    pub dropped: u64,
    /// Payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Payload bytes delivered to their destination.
    pub bytes_delivered: u64,
    /// Payload bytes dropped by faults.
    pub bytes_dropped: u64,
}

#[derive(Debug)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    /// Wire size of the payload, captured at send time so delivery-side
    /// accounting does not need to re-measure (or re-bound) the message.
    size: u64,
    inbound: Inbound<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event network connecting `n` simulated replicas.
#[derive(Debug)]
pub struct SimNetwork<M> {
    n: u32,
    latency: LatencyModel,
    rng: StdRng,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    now: SimTime,
    next_seq: u64,
    crashed: HashSet<ReplicaId>,
    silenced: HashSet<ReplicaId>,
    blocked_links: HashSet<(ReplicaId, ReplicaId)>,
    drop_probability: f64,
    stats: NetworkStats,
    /// The fault schedule, applied as the clock reaches each entry.
    faults: FaultPlan,
}

impl<M> SimNetwork<M> {
    /// Creates a network for `n` replicas with the given latency model and
    /// RNG seed (the seed makes latency jitter and random loss
    /// reproducible).
    pub fn new(n: u32, latency: LatencyModel, seed: u64) -> Self {
        SimNetwork {
            n,
            latency,
            rng: StdRng::seed_from_u64(seed),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            crashed: HashSet::new(),
            silenced: HashSet::new(),
            blocked_links: HashSet::new(),
            drop_probability: 0.0,
            stats: NetworkStats::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Installs the fault schedule this network applies as its clock
    /// advances. Faults due at the current time apply at once, so a replica
    /// crashed at time zero is crashed before anything is sent.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self.apply_due_faults(self.now);
        self
    }

    /// The installed fault schedule, with its applied and remaining counts.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    fn apply_due_faults(&mut self, now: SimTime) {
        if self.faults.exhausted() {
            return;
        }
        let mut faults = std::mem::take(&mut self.faults);
        faults.apply_due(now, self);
        self.faults = faults;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of replicas attached to the network.
    pub fn size(&self) -> u32 {
        self.n
    }

    /// Run statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Marks a replica as crashed: nothing is delivered to or sent from it
    /// any more.
    pub fn crash(&mut self, replica: ReplicaId) {
        self.crashed.insert(replica);
    }

    /// Undoes [`Self::crash`]. Messages dropped while crashed are not
    /// replayed.
    pub fn recover(&mut self, replica: ReplicaId) {
        self.crashed.remove(&replica);
    }

    /// True if the replica is currently crashed.
    pub fn is_crashed(&self, replica: ReplicaId) -> bool {
        self.crashed.contains(&replica)
    }

    /// Silences a replica: messages *from* it are dropped (it still receives
    /// traffic). This models a censoring proposer that stops disseminating
    /// its blocks.
    pub fn silence(&mut self, replica: ReplicaId) {
        self.silenced.insert(replica);
    }

    /// Undoes [`Self::silence`].
    pub fn unsilence(&mut self, replica: ReplicaId) {
        self.silenced.remove(&replica);
    }

    /// Blocks the directed link `from -> to`.
    pub fn block_link(&mut self, from: ReplicaId, to: ReplicaId) {
        self.blocked_links.insert((from, to));
    }

    /// Unblocks the directed link `from -> to`.
    pub fn unblock_link(&mut self, from: ReplicaId, to: ReplicaId) {
        self.blocked_links.remove(&(from, to));
    }

    /// Sets the probability that any individual message is lost.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.drop_probability = p.clamp(0.0, 1.0);
    }

    fn sample_latency(&mut self) -> SimTime {
        match self.latency {
            LatencyModel::Instant => SimTime::ZERO,
            LatencyModel::Fixed { micros } => SimTime::from_micros(micros),
            LatencyModel::Jittered {
                base_micros,
                jitter_micros,
            } => {
                let low = base_micros.saturating_sub(jitter_micros);
                let high = base_micros + jitter_micros;
                SimTime::from_micros(self.rng.gen_range(low..=high))
            }
        }
    }

    /// Pops the next message with its arrival time, advancing the simulated
    /// clock to it. Messages addressed to crashed replicas are skipped (and
    /// counted as dropped).
    pub fn next_event(&mut self) -> Option<(SimTime, Inbound<M>)> {
        while let Some(Reverse(scheduled)) = self.queue.pop() {
            self.now = self.now.max(scheduled.at);
            if self.crashed.contains(&scheduled.inbound.to) {
                self.stats.dropped += 1;
                self.stats.bytes_dropped += scheduled.size;
                continue;
            }
            self.stats.delivered += 1;
            self.stats.bytes_delivered += scheduled.size;
            // Faults due by now apply before the receiver handles the
            // message but after the crash check above: a replica crashing
            // at this very instant still receives it, and is silent from
            // then on.
            self.apply_due_faults(scheduled.at);
            return Some((scheduled.at, scheduled.inbound));
        }
        None
    }
}

impl<M: WireSized> SimNetwork<M> {
    /// Sends a message emitted at `not_before` or now, whichever is later;
    /// it arrives one sampled latency after emission. A sender that was busy
    /// executing transactions when it produced the message emits it when
    /// that work is done.
    pub fn send_at(&mut self, from: ReplicaId, to: ReplicaId, msg: M, not_before: SimTime) {
        let size = msg.wire_size() as u64;
        self.send_sized(from, to, msg, not_before, size);
    }

    fn send_sized(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        msg: M,
        not_before: SimTime,
        size: u64,
    ) {
        self.stats.sent += 1;
        self.stats.bytes_sent += size;
        if self.crashed.contains(&from)
            || self.crashed.contains(&to)
            || self.silenced.contains(&from)
            || self.blocked_links.contains(&(from, to))
            || (self.drop_probability > 0.0 && self.rng.gen::<f64>() < self.drop_probability)
        {
            self.stats.dropped += 1;
            self.stats.bytes_dropped += size;
            return;
        }
        let latency = if from == to {
            SimTime::ZERO
        } else {
            self.sample_latency()
        };
        let at = not_before.max(self.now) + latency;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            size,
            inbound: Inbound { from, to, msg },
        }));
    }
}

impl<M: Clone + WireSized> SimNetwork<M> {
    /// Broadcasts a message emitted at `not_before` or now, whichever is
    /// later, from `from` to every replica (including itself, which models
    /// the local loop-back delivery DAG protocols rely on); see
    /// [`Self::send_at`].
    pub fn broadcast_at(&mut self, from: ReplicaId, msg: M, not_before: SimTime) {
        // The payload is measured once; every per-recipient clone has the
        // same wire size.
        let size = msg.wire_size() as u64;
        for to in 0..self.n {
            self.send_sized(from, ReplicaId::new(to), msg.clone(), not_before, size);
        }
    }
}

#[cfg(test)]
impl<M: Clone + WireSized> SimNetwork<M> {
    /// Sends a message from `from` to `to` now, applying faults and latency.
    pub(crate) fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: M) {
        self.send_at(from, to, msg, SimTime::ZERO);
    }

    /// Broadcasts a message from `from` to every replica now.
    pub(crate) fn broadcast(&mut self, from: ReplicaId, msg: M) {
        self.broadcast_at(from, msg, SimTime::ZERO);
    }

    /// Number of pending events.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Net = SimNetwork<&'static str>;

    fn lan() -> Net {
        SimNetwork::new(4, LatencyModel::lan(), 7)
    }

    #[test]
    fn events_are_delivered_in_timestamp_order() {
        let mut net: Net = SimNetwork::new(2, LatencyModel::Fixed { micros: 1_000 }, 1);
        net.send_at(
            ReplicaId::new(0),
            ReplicaId::new(1),
            "late",
            SimTime::from_millis(4),
        );
        net.send(ReplicaId::new(0), ReplicaId::new(1), "remote");
        net.send(ReplicaId::new(1), ReplicaId::new(1), "loopback");
        let mut order = Vec::new();
        while let Some((at, inbound)) = net.next_event() {
            order.push((at, inbound.msg));
        }
        assert_eq!(
            order,
            vec![
                (SimTime::ZERO, "loopback"),
                (SimTime::from_millis(1), "remote"),
                (SimTime::from_millis(5), "late"),
            ]
        );
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn latency_advances_the_clock() {
        let mut net: Net = SimNetwork::new(2, LatencyModel::Fixed { micros: 500 }, 1);
        net.send(ReplicaId::new(0), ReplicaId::new(1), "x");
        let (at, _) = net.next_event().unwrap();
        assert_eq!(at, SimTime::from_micros(500));
        assert_eq!(net.now(), SimTime::from_micros(500));
    }

    #[test]
    fn self_sends_are_immediate() {
        let mut net = lan();
        net.send(ReplicaId::new(2), ReplicaId::new(2), "loopback");
        let (at, _) = net.next_event().unwrap();
        assert_eq!(at, SimTime::ZERO);
    }

    #[test]
    fn crashed_replicas_neither_send_nor_receive() {
        let mut net = lan();
        net.crash(ReplicaId::new(1));
        assert!(net.is_crashed(ReplicaId::new(1)));
        net.send(ReplicaId::new(1), ReplicaId::new(0), "from crashed");
        net.send(ReplicaId::new(0), ReplicaId::new(1), "to crashed");
        assert!(net.next_event().is_none());
        assert_eq!(net.stats().dropped, 2);
        net.recover(ReplicaId::new(1));
        net.send(ReplicaId::new(1), ReplicaId::new(0), "after recovery");
        assert!(net.next_event().is_some());
    }

    #[test]
    fn silenced_replicas_still_receive() {
        let mut net = lan();
        net.silence(ReplicaId::new(0));
        net.send(ReplicaId::new(0), ReplicaId::new(1), "censored");
        net.send(ReplicaId::new(1), ReplicaId::new(0), "inbound");
        let mut delivered = 0;
        while net.next_event().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 1);
        net.unsilence(ReplicaId::new(0));
        net.send(ReplicaId::new(0), ReplicaId::new(1), "now audible");
        assert!(net.next_event().is_some());
    }

    #[test]
    fn blocked_links_are_directional() {
        let mut net = lan();
        net.block_link(ReplicaId::new(0), ReplicaId::new(1));
        net.send(ReplicaId::new(0), ReplicaId::new(1), "blocked");
        net.send(ReplicaId::new(1), ReplicaId::new(0), "open");
        let mut received = Vec::new();
        while let Some((_, inbound)) = net.next_event() {
            received.push(inbound.msg);
        }
        assert_eq!(received, vec!["open"]);
        net.unblock_link(ReplicaId::new(0), ReplicaId::new(1));
        net.send(ReplicaId::new(0), ReplicaId::new(1), "unblocked");
        assert!(net.next_event().is_some());
    }

    #[test]
    fn broadcast_reaches_every_replica_including_self() {
        let mut net = lan();
        net.broadcast(ReplicaId::new(0), "hi");
        let mut recipients = Vec::new();
        while let Some((_, inbound)) = net.next_event() {
            recipients.push(inbound.to.as_inner());
        }
        recipients.sort_unstable();
        assert_eq!(recipients, vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_loss_drops_roughly_the_requested_fraction() {
        let mut net: Net = SimNetwork::new(2, LatencyModel::Instant, 99);
        net.set_drop_probability(0.5);
        for _ in 0..1_000 {
            net.send(ReplicaId::new(0), ReplicaId::new(1), "maybe");
        }
        let dropped = net.stats().dropped as f64;
        assert!((dropped / 1_000.0 - 0.5).abs() < 0.08, "dropped {dropped}");
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let run = |seed: u64| {
            let mut net: Net = SimNetwork::new(4, LatencyModel::wan(), seed);
            for i in 0..20u32 {
                net.send(ReplicaId::new(i % 4), ReplicaId::new((i + 1) % 4), "m");
            }
            let mut times = Vec::new();
            while let Some((at, _)) = net.next_event() {
                times.push(at);
            }
            times
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn stats_count_sent_and_delivered() {
        let mut net = lan();
        net.send(ReplicaId::new(0), ReplicaId::new(1), "a");
        net.send(ReplicaId::new(2), ReplicaId::new(2), "bc");
        assert_eq!(net.pending(), 2);
        while net.next_event().is_some() {}
        let stats = net.stats();
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.bytes_sent, 3);
        assert_eq!(stats.bytes_delivered, 3);
        assert_eq!(stats.bytes_dropped, 0);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn installed_faults_apply_as_the_clock_reaches_them() {
        let mut plan = FaultPlan::crash_replicas(4, 1, SimTime::ZERO);
        plan.push(
            SimTime::from_millis(2),
            crate::FaultAction::Recover(ReplicaId::new(3)),
        );
        let mut net: Net =
            SimNetwork::new(4, LatencyModel::Fixed { micros: 1_000 }, 1).with_faults(plan);
        // Due at time zero: applied on installation.
        assert!(net.is_crashed(ReplicaId::new(3)));
        assert_eq!(net.faults().applied(), 1);
        net.send_at(
            ReplicaId::new(0),
            ReplicaId::new(1),
            "at 3 ms",
            SimTime::from_millis(2),
        );
        assert_eq!(
            net.next_event().map(|(at, _)| at),
            Some(SimTime::from_millis(3))
        );
        assert!(!net.is_crashed(ReplicaId::new(3)));
        assert_eq!(net.faults().remaining(), 0);
    }

    #[test]
    fn byte_accounting_tracks_payload_sizes_through_faults() {
        let mut net: Net = SimNetwork::new(2, LatencyModel::Instant, 1);
        net.send(ReplicaId::new(0), ReplicaId::new(1), "four");
        net.block_link(ReplicaId::new(0), ReplicaId::new(1));
        net.send(ReplicaId::new(0), ReplicaId::new(1), "dropped!");
        while net.next_event().is_some() {}
        let stats = net.stats();
        assert_eq!(stats.bytes_sent, 4 + 8);
        assert_eq!(stats.bytes_delivered, 4);
        assert_eq!(stats.bytes_dropped, 8);
    }
}
