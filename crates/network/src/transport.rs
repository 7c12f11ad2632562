//! The [`Transport`] abstraction: how a replica talks to its peers.
//!
//! A transport moves opaque messages between `ReplicaId`-addressed peers and
//! reports traffic statistics in both messages and bytes. Two implementations
//! exist:
//!
//! - [`crate::sim::SimNetwork`] — the discrete-event simulator every
//!   in-process scenario runs on (latency models, fault injection,
//!   deterministic under a seed), and
//! - [`crate::tcp::TcpTransport`] — a threaded `std::net::TcpStream`-per-peer
//!   transport with length-prefixed frames, used by a node process to run
//!   a cluster as N OS processes on localhost.
//!
//! The trait is deliberately small and object-safe so a node runtime can hold
//! a `Box<dyn Transport<Message>>`. Fault injection is *not* part of the
//! contract: only the simulator honors a `FaultPlan`, and
//! `tb_core::scenario::ScenarioBuilder::build_real_net` refuses a scenario
//! whose plan is not empty.
//!
//! # Two clocks
//!
//! One replica driver (`tb_core::driver::drive`) runs on both transports;
//! the clock is the transport's. Each received message carries its
//! **arrival time**, and each send names its **emission time**, the
//! earliest moment the message may leave the sender:
//!
//! | | arrival time | emission time |
//! |---|---|---|
//! | `SimNetwork` | the simulated time of the delivery event | honoured: the message leaves at the later of its emission time and the current time, and arrives one sampled latency after that |
//! | `TcpTransport` | wall-clock time since `bind`, read when the caller takes the message | ignored: the message is written at once |
//!
//! The simulator needs the emission time because it charges a replica's
//! execution work to simulated time: a message produced after a busy spell
//! leaves when the spell ends. Over TCP that work has already taken real
//! time by the moment the send is made. An empty simulated queue reports
//! [`RecvError::Closed`], because nothing can arrive any more.

use crate::sim::{NetworkStats, SimNetwork};
use std::fmt;
use std::time::Duration;
use tb_types::{ReplicaId, SimTime};

/// Size of a message on the wire, used for byte-level traffic accounting.
///
/// The simulated transport needs this to charge byte counters without ever
/// serializing; real transports measure the encoded frames they actually
/// write. Message types implement it by delegating to their
/// [`tb_types::wire::Wire`] encoding so both transports report the same
/// number for the same message.
pub trait WireSized {
    /// Encoded payload size in bytes.
    fn wire_size(&self) -> usize;
}

impl WireSized for &str {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl WireSized for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl WireSized for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSized for u8 {
    fn wire_size(&self) -> usize {
        1
    }
}

impl WireSized for u64 {
    fn wire_size(&self) -> usize {
        tb_types::wire::Wire::encoded_len(self)
    }
}

/// A message delivered by a transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inbound<M> {
    /// The sending replica.
    pub from: ReplicaId,
    /// The receiving replica (always the local replica on real transports).
    pub to: ReplicaId,
    /// The payload.
    pub msg: M,
}

/// Errors surfaced by [`Transport::send`] / [`Transport::broadcast`].
///
/// The simulated network never fails a send (faults silently drop, as real
/// packet loss would); the TCP transport reports peers it cannot reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The destination id is not a member of this transport's peer set.
    UnknownPeer(ReplicaId),
    /// The connection to a peer could not be established or broke mid-write.
    Disconnected {
        /// The unreachable peer.
        peer: ReplicaId,
        /// Human-readable cause (the underlying I/O error).
        detail: String,
    },
    /// The transport was already shut down.
    ShutDown,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(peer) => write!(f, "unknown peer {peer}"),
            TransportError::Disconnected { peer, detail } => {
                write!(f, "disconnected from {peer}: {detail}")
            }
            TransportError::ShutDown => f.write_str("transport is shut down"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Errors surfaced by [`Transport::recv_stamped`] and [`Transport::recv_timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    TimedOut,
    /// The transport has shut down and no further message can arrive.
    Closed,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::TimedOut => f.write_str("receive timed out"),
            RecvError::Closed => f.write_str("transport closed"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Moves messages between `ReplicaId`-addressed peers.
pub trait Transport<M> {
    /// Number of replicas attached to the transport (committee size).
    fn replicas(&self) -> u32;

    /// Sends `msg` from `from` to `to`, emitted no earlier than `not_before`
    /// (see the module docs for what each transport makes of it).
    fn send_at(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        msg: M,
        not_before: SimTime,
    ) -> Result<(), TransportError>;

    /// Broadcasts `msg` from `from` to every replica **including the sender**
    /// (DAG protocols rely on local loop-back delivery), emitted no earlier
    /// than `not_before`.
    fn broadcast_at(
        &mut self,
        from: ReplicaId,
        msg: M,
        not_before: SimTime,
    ) -> Result<(), TransportError>;

    /// Sends `msg` from `from` to `to` now.
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: M) -> Result<(), TransportError> {
        self.send_at(from, to, msg, SimTime::ZERO)
    }

    /// Broadcasts `msg` from `from` to every replica, the sender included,
    /// now.
    fn broadcast(&mut self, from: ReplicaId, msg: M) -> Result<(), TransportError> {
        self.broadcast_at(from, msg, SimTime::ZERO)
    }

    /// Blocks up to `timeout` for the next inbound message and returns it
    /// with its arrival time on this transport's clock.
    fn recv_stamped(&mut self, timeout: Duration) -> Result<(SimTime, Inbound<M>), RecvError>;

    /// Blocks up to `timeout` for the next inbound message.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Inbound<M>, RecvError> {
        self.recv_stamped(timeout).map(|(_, inbound)| inbound)
    }

    /// True if `replica` is crashed and must not run. Only a simulated
    /// network crashes replicas; on a real one a dead process is simply
    /// absent.
    fn is_crashed(&self, _replica: ReplicaId) -> bool {
        false
    }

    /// Traffic statistics so far, in messages and bytes.
    fn stats(&self) -> NetworkStats;

    /// Tears the transport down: closes connections, stops worker threads
    /// and discards undelivered messages.
    fn shutdown(&mut self);
}

impl<M: Clone + WireSized> Transport<M> for SimNetwork<M> {
    fn replicas(&self) -> u32 {
        self.size()
    }

    fn send_at(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        msg: M,
        not_before: SimTime,
    ) -> Result<(), TransportError> {
        SimNetwork::send_at(self, from, to, msg, not_before);
        Ok(())
    }

    fn broadcast_at(
        &mut self,
        from: ReplicaId,
        msg: M,
        not_before: SimTime,
    ) -> Result<(), TransportError> {
        SimNetwork::broadcast_at(self, from, msg, not_before);
        Ok(())
    }

    /// Pops the next pending message, advancing the simulated clock. The
    /// timeout is ignored: simulated time jumps straight to the next event.
    fn recv_stamped(&mut self, _timeout: Duration) -> Result<(SimTime, Inbound<M>), RecvError> {
        self.next_event().ok_or(RecvError::Closed)
    }

    fn is_crashed(&self, replica: ReplicaId) -> bool {
        SimNetwork::is_crashed(self, replica)
    }

    fn stats(&self) -> NetworkStats {
        SimNetwork::stats(self)
    }

    fn shutdown(&mut self) {
        while self.next_event().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_types::LatencyModel;

    fn sim() -> SimNetwork<&'static str> {
        SimNetwork::new(4, LatencyModel::Instant, 7)
    }

    #[test]
    fn sim_network_implements_the_transport_contract() {
        let mut net = sim();
        let t: &mut dyn Transport<&'static str> = &mut net;
        assert_eq!(t.replicas(), 4);
        t.send(ReplicaId::new(0), ReplicaId::new(1), "direct")
            .unwrap();
        t.broadcast(ReplicaId::new(2), "fanout").unwrap();
        let mut seen = Vec::new();
        while let Ok(inbound) = t.recv_timeout(Duration::from_millis(1)) {
            seen.push((inbound.from, inbound.to, inbound.msg));
        }
        assert_eq!(seen.len(), 5, "1 direct + 4 broadcast deliveries");
        let stats = t.stats();
        assert_eq!(stats.sent, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(
            stats.bytes_sent,
            "direct".len() as u64 + 4 * "fanout".len() as u64
        );
        assert_eq!(stats.bytes_delivered, stats.bytes_sent);
    }

    #[test]
    fn sim_arrival_is_emission_plus_latency_and_an_empty_queue_is_closed() {
        let mut net: SimNetwork<&'static str> =
            SimNetwork::new(2, LatencyModel::Fixed { micros: 300 }, 7);
        let t: &mut dyn Transport<&'static str> = &mut net;
        let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
        t.send_at(a, b, "stamped 2 ms", SimTime::from_millis(2))
            .unwrap();
        t.send(a, b, "now").unwrap();
        let mut next = || {
            t.recv_stamped(Duration::ZERO)
                .map(|(at, inbound)| (at, inbound.msg))
        };
        assert_eq!(next(), Ok((SimTime::from_micros(300), "now")));
        assert_eq!(next(), Ok((SimTime::from_micros(2_300), "stamped 2 ms")));
        assert_eq!(next(), Err(RecvError::Closed));
    }

    #[test]
    fn sim_shutdown_discards_pending_traffic() {
        let mut net = sim();
        net.broadcast(ReplicaId::new(0), "pending");
        Transport::shutdown(&mut net);
        assert_eq!(net.pending(), 0);
    }
}
