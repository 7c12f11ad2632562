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
//!   transport with length-prefixed frames, used by the `thunderbolt-node`
//!   binary to run a cluster as N OS processes on localhost.
//!
//! The trait is deliberately small and object-safe so a node runtime can hold
//! a `Box<dyn Transport<Message>>`. Fault injection is *not* part of the
//! contract: only the simulator honors a `FaultPlan`, and
//! `tb_core::scenario::ScenarioBuilder::build_real_net` refuses a scenario
//! whose plan is not empty.

use crate::sim::{NetEvent, NetworkStats, SimNetwork};
use std::fmt;
use std::time::Duration;
use tb_types::ReplicaId;

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
        8
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

/// Errors surfaced by [`Transport::recv_timeout`].
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

    /// Sends `msg` from `from` to `to`.
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: M) -> Result<(), TransportError>;

    /// Broadcasts `msg` from `from` to every replica **including the sender**
    /// (DAG protocols rely on local loop-back delivery).
    fn broadcast(&mut self, from: ReplicaId, msg: M) -> Result<(), TransportError>;

    /// Blocks up to `timeout` for the next inbound message.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Inbound<M>, RecvError>;

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

    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: M) -> Result<(), TransportError> {
        SimNetwork::send(self, from, to, msg);
        Ok(())
    }

    fn broadcast(&mut self, from: ReplicaId, msg: M) -> Result<(), TransportError> {
        SimNetwork::broadcast(self, from, msg);
        Ok(())
    }

    /// Pops the next pending *message* event, advancing the simulated clock.
    /// Timer events are handed to the simulation driver through
    /// [`SimNetwork::next_event`] and are skipped here. The timeout is
    /// ignored: simulated time jumps straight to the next event, and an
    /// empty queue means nothing will ever arrive.
    fn recv_timeout(&mut self, _timeout: Duration) -> Result<Inbound<M>, RecvError> {
        while let Some((_, event)) = self.next_event() {
            if let NetEvent::Message { from, to, msg } = event {
                return Ok(Inbound { from, to, msg });
            }
        }
        Err(RecvError::TimedOut)
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
    fn sim_recv_skips_timer_events() {
        let mut net = sim();
        net.set_timer(ReplicaId::new(0), 9, tb_types::SimTime::from_millis(1));
        net.send(ReplicaId::new(0), ReplicaId::new(1), "late");
        let inbound = Transport::recv_timeout(&mut net, Duration::ZERO).unwrap();
        assert_eq!(inbound.msg, "late");
        assert_eq!(
            Transport::recv_timeout(&mut net, Duration::ZERO),
            Err(RecvError::TimedOut)
        );
    }

    #[test]
    fn sim_shutdown_discards_pending_traffic() {
        let mut net = sim();
        net.broadcast(ReplicaId::new(0), "pending");
        Transport::shutdown(&mut net);
        assert!(net.is_idle());
    }
}
