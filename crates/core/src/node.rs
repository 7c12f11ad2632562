//! One out-of-process replica: a [`Replica`] state machine driven by a real
//! [`TcpTransport`] instead of the discrete-event simulator.
//!
//! The launcher (`tb-launcher`) expands a
//! [`RealNetPlan`](crate::scenario::RealNetPlan) into one [`NodeSpec`] per
//! replica, ships each spec to a child process (hex-encoded in an
//! environment variable), and collects one [`RunReport`] per process from
//! stdout. Both structs implement [`Wire`], so the whole exchange uses the
//! same versioned encoding as the replica-to-replica protocol.
//!
//! # Determinism
//!
//! A node does not receive client transactions from anywhere: it expands the
//! SmallBank spec into the *shared* client stream locally, through the same
//! [`ClientFeed`] the sim harness runs, and enqueues the transactions whose
//! home shard it currently serves. Under lockstep (complete rounds) with full batches,
//! block `r` of shard `i` contains positions `[r·b, (r+1)·b)` of the
//! shard-`i` subsequence of that stream regardless of wall-clock timing —
//! which is why a TCP run and a sim run of the same scenario commit the same
//! order (see `docs/NET.md`).

use crate::cluster::{ClusterConfig, ExecutionMode};
use crate::feed::ClientFeed;
use crate::messages::Message;
use crate::metrics::RunReport;
use crate::replica::{Destination, Replica};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};
use tb_network::{RecvError, TcpPeer, TcpTransport, Transport};
use tb_types::wire::{Wire, WireError, WireReader, WireWriter};
use tb_types::{CeConfig, ReconfigConfig, ReplicaId, SimTime, StorageBackend, StorageConfig};
use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

/// How long a node keeps serving acks and vertices after reaching its own
/// commit target, so slower peers can finish their last rounds.
const LINGER: Duration = Duration::from_millis(500);

/// Receive poll granularity of the node event loop.
const RECV_TIMEOUT: Duration = Duration::from_millis(50);

/// Everything one node process needs to run: its identity, the full peer
/// table, the scalar cluster knobs, and the compact SmallBank spec it
/// expands into the shared client stream.
///
/// The cluster configuration is rebuilt via [`NodeSpec::cluster_config`]
/// from [`ClusterConfig::thunderbolt`] defaults plus the listed overrides;
/// the launcher's in-process sim twin MUST use the same reconstruction so
/// both paths run the identical configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    /// This node's replica id (index into `ports`).
    pub node: u32,
    /// Committee size.
    pub replicas: u32,
    /// Localhost TCP port of every replica, indexed by replica id.
    pub ports: Vec<u16>,
    /// Execution engine.
    pub mode: ExecutionMode,
    /// Cluster seed (folded into the workload stream, as in the sim).
    pub seed: u64,
    /// Wait for complete rounds before advancing (digest comparability).
    pub lockstep: bool,
    /// Prefer skip blocks on preplay recovery.
    pub use_skip_blocks: bool,
    /// Leader-round budget; the node stops after `max_rounds / 2` commits.
    pub max_rounds: u64,
    /// Preplay executor threads.
    pub executors: u32,
    /// Transactions per block.
    pub batch: u32,
    /// Re-executions per transaction before the CE runs it alone.
    pub max_retries: u64,
    /// Validation worker threads.
    pub validators: u32,
    /// Synthetic per-operation cost in nanoseconds (0 for smoke runs).
    pub op_cost_ns: u64,
    /// Reconfiguration parameters `K` and `K'`.
    pub reconfig: ReconfigConfig,
    /// Report label (empty string = engine default).
    pub label: String,
    /// Hard wall-clock deadline for the whole run, in milliseconds.
    pub run_deadline_millis: u64,
    /// The SmallBank spec, shipped untransformed; the node applies the same
    /// `configure_for_cluster(replicas, seed)` retargeting as the sim.
    pub smallbank: SmallBankConfig,
    /// Storage backend the node keeps its committed state in. A durable
    /// backend writes under `storage.data_dir/replica-<node>`, so a node
    /// restarted with the same spec recovers its pre-crash state.
    pub storage: StorageConfig,
}

impl NodeSpec {
    /// Rebuilds the per-replica cluster configuration this spec describes.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::thunderbolt(self.replicas);
        config.mode = self.mode;
        config.seed = self.seed;
        config.lockstep = self.lockstep;
        config.use_skip_blocks = self.use_skip_blocks;
        config.system.max_rounds = self.max_rounds;
        let mut ce = CeConfig::new(self.executors as usize, self.batch as usize);
        ce.max_retries = self.max_retries as usize;
        ce.synthetic_op_cost_ns = self.op_cost_ns;
        config.system.ce = ce;
        config.system.validators = self.validators as usize;
        config.system.reconfig = self.reconfig;
        config.system.storage = self.storage.clone();
        if !self.label.is_empty() {
            config.label = Some(self.label.clone());
        }
        config
    }

    /// The peer table as socket addresses on localhost.
    pub fn peers(&self) -> Vec<TcpPeer> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, &port)| TcpPeer {
                id: ReplicaId::new(i as u32),
                addr: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), port),
            })
            .collect()
    }

    /// Rounds the node must see committed before it stops (the same target
    /// as [`ClusterSimulation::run`](crate::cluster::ClusterSimulation)).
    pub fn target_commits(&self) -> usize {
        (self.max_rounds / 2).max(1) as usize
    }
}

impl Wire for NodeSpec {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.node);
        w.put_u32(self.replicas);
        w.put_len(self.ports.len());
        for &port in &self.ports {
            w.put_u16(port);
        }
        w.put_u8(match self.mode {
            ExecutionMode::Thunderbolt => 0,
            ExecutionMode::ThunderboltOcc => 1,
            ExecutionMode::Tusk => 2,
        });
        w.put_u64(self.seed);
        w.put_bool(self.lockstep);
        w.put_bool(self.use_skip_blocks);
        w.put_u64(self.max_rounds);
        w.put_u32(self.executors);
        w.put_u32(self.batch);
        w.put_u64(self.max_retries);
        w.put_u32(self.validators);
        w.put_u64(self.op_cost_ns);
        w.put_u64(self.reconfig.silent_rounds_k);
        w.put_u64(self.reconfig.period_k_prime);
        self.label.encode(w);
        w.put_u64(self.run_deadline_millis);
        w.put_u64(self.smallbank.accounts);
        w.put_f64(self.smallbank.theta);
        w.put_f64(self.smallbank.pr_read);
        w.put_f64(self.smallbank.cross_shard_fraction);
        w.put_u32(self.smallbank.n_shards);
        w.put_i64(self.smallbank.max_amount);
        w.put_i64(self.smallbank.initial_balance);
        w.put_u64(self.smallbank.seed);
        w.put_u8(match self.storage.backend {
            StorageBackend::Mem => 0,
            StorageBackend::Wal => 1,
        });
        self.storage.data_dir.encode(w);
        w.put_u64(self.storage.compact_wal_bytes);
        w.put_u64(self.storage.flush_buffered_writes);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = r.u32()?;
        let replicas = r.u32()?;
        let n_ports = r.seq_len()?;
        let mut ports = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            ports.push(r.u16()?);
        }
        let mode = match r.u8()? {
            0 => ExecutionMode::Thunderbolt,
            1 => ExecutionMode::ThunderboltOcc,
            2 => ExecutionMode::Tusk,
            tag => {
                return Err(WireError::InvalidTag {
                    type_name: "ExecutionMode",
                    tag: u32::from(tag),
                })
            }
        };
        Ok(NodeSpec {
            node,
            replicas,
            ports,
            mode,
            seed: r.u64()?,
            lockstep: r.bool()?,
            use_skip_blocks: r.bool()?,
            max_rounds: r.u64()?,
            executors: r.u32()?,
            batch: r.u32()?,
            max_retries: r.u64()?,
            validators: r.u32()?,
            op_cost_ns: r.u64()?,
            reconfig: ReconfigConfig {
                silent_rounds_k: r.u64()?,
                period_k_prime: r.u64()?,
            },
            label: String::decode(r)?,
            run_deadline_millis: r.u64()?,
            smallbank: SmallBankConfig {
                accounts: r.u64()?,
                theta: r.f64()?,
                pr_read: r.f64()?,
                cross_shard_fraction: r.f64()?,
                n_shards: r.u32()?,
                max_amount: r.i64()?,
                initial_balance: r.i64()?,
                seed: r.u64()?,
            },
            storage: StorageConfig {
                backend: match r.u8()? {
                    0 => StorageBackend::Mem,
                    1 => StorageBackend::Wal,
                    tag => {
                        return Err(WireError::InvalidTag {
                            type_name: "StorageBackend",
                            tag: u32::from(tag),
                        })
                    }
                },
                data_dir: String::decode(r)?,
                compact_wal_bytes: r.u64()?,
                flush_buffered_writes: r.u64()?,
            },
        })
    }
}

/// Runs one replica over real TCP to completion, per `spec`.
///
/// Binds the node's listener, dials peers lazily on first send (with the
/// transport's connect deadline absorbing start-up skew), expands the
/// client stream locally, and drives the replica until it has seen
/// [`NodeSpec::target_commits`] round commits (plus a short linger for
/// slower peers) or the wall-clock deadline expires. The returned report is
/// this node's own view: its replica's counters and stage timers, its
/// transport's traffic, `duration` up to its last commit on its wall clock.
pub fn run_node(spec: NodeSpec) -> io::Result<RunReport> {
    let config = spec.cluster_config();
    let label = config.label();
    let batch = config.system.ce.batch_size;
    let id = ReplicaId::new(spec.node);
    let mut replica = Replica::new(id, config);

    let mut workload: Box<dyn Workload> = Box::new(SmallBankWorkload::new(spec.smallbank));
    workload.configure_for_cluster(spec.replicas, spec.seed);
    replica.load_state(workload.initial_state());
    // This node's copy of the shared client stream; it serves this replica
    // alone, the other nodes enqueue the rest from theirs.
    let mut feed = ClientFeed::new(workload, batch);

    let peers = spec.peers();
    let mut transport: TcpTransport<Message> = TcpTransport::bind(id, peers)?;

    let started = Instant::now();
    let deadline = started + Duration::from_millis(spec.run_deadline_millis.max(1));
    let target_commits = spec.target_commits();

    // Prime the client queue before the first proposal, as the sim does.
    feed.top_up(std::slice::from_mut(&mut replica), 0, SimTime::ZERO);
    let outbound = replica.start(SimTime::ZERO);
    let _ = replica.take_busy();
    dispatch(&mut transport, id, outbound);

    let mut linger_until: Option<Instant> = None;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let Some(until) = linger_until {
            if now >= until {
                break;
            }
        }
        match transport.recv_timeout(RECV_TIMEOUT) {
            Ok(inbound) => {
                let at = SimTime::from_micros(started.elapsed().as_micros() as u64);
                let outbound = replica.handle(inbound.from, inbound.msg, at);
                // Execution cost was paid in real time on this thread; the
                // busy tracker only matters to the simulated clock.
                let _ = replica.take_busy();
                dispatch(&mut transport, id, outbound);
                feed.top_up(std::slice::from_mut(&mut replica), 0, at);
            }
            Err(RecvError::TimedOut) => {}
            Err(RecvError::Closed) => break,
        }
        if linger_until.is_none() && replica.metrics().round_commits.len() >= target_commits {
            linger_until = Some(Instant::now() + LINGER);
        }
    }

    let stats = transport.stats();
    transport.shutdown();

    let duration = replica
        .metrics()
        .round_commits
        .last()
        .map(|sample| sample.committed_at)
        .unwrap_or_else(|| SimTime::from_micros(started.elapsed().as_micros() as u64));
    Ok(replica.report(&label, feed.workload().name(), duration, stats))
}

fn dispatch(
    transport: &mut TcpTransport<Message>,
    from: ReplicaId,
    outbound: Vec<crate::replica::Outbound>,
) {
    for out in outbound {
        // Send failures surface in the transport's dropped counters; a
        // lockstep run that loses a frame stalls and hits the deadline,
        // which the launcher reports as the node falling short of target.
        let _ = match out.dest {
            Destination::Broadcast => transport.broadcast(from, out.msg),
            Destination::To(to) => transport.send(from, to, out.msg),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NodeSpec {
        NodeSpec {
            node: 1,
            replicas: 4,
            ports: vec![9001, 9002, 9003, 9004],
            mode: ExecutionMode::ThunderboltOcc,
            seed: 42,
            lockstep: true,
            use_skip_blocks: false,
            max_rounds: 8,
            executors: 2,
            batch: 32,
            max_retries: 9,
            validators: 2,
            op_cost_ns: 0,
            reconfig: ReconfigConfig::new(3, 7),
            label: "real-net".to_string(),
            run_deadline_millis: 30_000,
            smallbank: SmallBankConfig {
                accounts: 128,
                seed: 11,
                ..SmallBankConfig::default()
            },
            storage: StorageConfig::wal("/tmp/tb-node-test"),
        }
    }

    #[test]
    fn node_spec_round_trips_and_rebuilds_the_config() {
        let spec = spec();
        let bytes = spec.to_wire_bytes();
        assert_eq!(NodeSpec::from_wire_bytes(&bytes), Ok(spec.clone()));

        let config = spec.cluster_config();
        assert_eq!(config.system.n_replicas, 4);
        assert_eq!(config.mode, ExecutionMode::ThunderboltOcc);
        assert!(config.lockstep);
        assert_eq!(config.system.ce.batch_size, 32);
        assert_eq!(config.system.ce.max_retries, 9);
        assert_eq!(config.system.validators, 2);
        assert_eq!(config.system.reconfig, ReconfigConfig::new(3, 7));
        assert_eq!(
            config.system.storage,
            StorageConfig::wal("/tmp/tb-node-test")
        );
        assert_eq!(config.label.as_deref(), Some("real-net"));
        assert_eq!(spec.target_commits(), 4);
        assert_eq!(spec.peers()[2].id, ReplicaId::new(2));
        assert_eq!(spec.peers()[2].addr.port(), 9003);
    }
}
