//! Simulated transport for multi-replica experiments.
//!
//! The paper evaluates Thunderbolt on clusters of up to 64 machines; this
//! reproduction runs the same protocol logic over a **discrete-event
//! simulated network** instead. Replicas are deterministic state machines;
//! every message is scheduled for delivery after a latency drawn from a
//! configurable model (LAN / WAN), and the simulation clock jumps from event
//! to event. Crash faults, censoring
//! (silenced) replicas, link partitions and random message loss can be
//! injected at any point, which is how the failure and reconfiguration
//! experiments (Figures 15–17) are driven.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use faults::{FaultAction, FaultPlan, ScheduledFault};
pub use sim::{NetworkStats, SimNetwork};
pub use tcp::{TcpPeer, TcpTransport};
pub use transport::{Inbound, RecvError, Transport, TransportError, WireSized};
