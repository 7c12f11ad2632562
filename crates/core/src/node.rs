//! One out-of-process replica: the replica driver ([`drive`]) over a real
//! [`TcpTransport`] instead of the discrete-event simulator.
//!
//! The launcher (`tb-launcher`) expands a
//! [`RealNetPlan`](crate::scenario::RealNetPlan) into one [`NodeSpec`] per
//! replica, ships each spec to a child process (hex-encoded in an
//! environment variable), and collects one
//! [`RunReport`](crate::metrics::RunReport) per process from stdout. Both
//! structs implement [`Wire`], so the whole exchange uses the same encoding
//! as the replica-to-replica protocol.
//!
//! # Lifecycle: announce, release, exit
//!
//! A cluster stops by agreement, not by timer. A node process talks to its
//! launcher through two stdout lines and its stdin:
//!
//! 1. **Announce.** When its replica has seen
//!    [`NodeSpec::target_commits`] round commits, the node prints
//!    [`NODE_AT_TARGET_LINE`] and keeps serving its peers, which may still
//!    need its acks and vertices to reach the target themselves.
//! 2. **Release.** Once every node has announced or exited, the launcher
//!    closes every node's stdin. A node stops when it has reached the
//!    target *and* been released, or when its deadline expires, whichever
//!    comes first.
//! 3. **Exit.** The node prints its report on one
//!    [`NODE_REPORT_PREFIX`] line and ends the process without tearing its
//!    heap down (see [`run_node`]). The launcher reaps it when its stdout
//!    closes.
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

use crate::cluster::ClusterConfig;
use crate::driver::drive;
use crate::feed::ClientFeed;
use crate::messages::Message;
use crate::replica::Replica;
use std::convert::Infallible;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_network::{TcpPeer, TcpTransport, Transport};
use tb_types::wire::{to_hex, Wire};
use tb_types::{ReplicaId, SimTime};
use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

/// Prefix of the last stdout line of a node process: its
/// [`RunReport`](crate::metrics::RunReport), hex-encoded.
pub const NODE_REPORT_PREFIX: &str = "TB_NODE_REPORT ";

/// The stdout line a node process prints when its replica reaches
/// [`NodeSpec::target_commits`].
pub const NODE_AT_TARGET_LINE: &str = "TB_NODE_AT_TARGET";

/// Everything one node process needs to run: its identity, the full peer
/// table, the cluster configuration every node shares, and the compact
/// SmallBank spec it expands into the shared client stream.
///
/// The configuration travels whole; the launcher's in-process sim twin runs
/// the one it decodes from node 0's spec, so the two paths cannot run
/// different knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    /// This node's replica id (index into `ports`).
    pub node: u32,
    /// Localhost TCP port of every replica, indexed by replica id.
    pub ports: Vec<u16>,
    /// Hard wall-clock deadline for the whole run, in milliseconds.
    pub run_deadline_millis: u64,
    /// The configuration every replica of the cluster runs. A durable
    /// storage backend writes under `storage.data_dir/replica-<node>`, so a
    /// node restarted with the same spec recovers its pre-crash state.
    pub config: ClusterConfig,
    /// The SmallBank spec, shipped untransformed; the node applies the same
    /// `configure_for_cluster(replicas, seed)` retargeting as the sim.
    pub smallbank: SmallBankConfig,
}

impl NodeSpec {
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
        (self.config.system.max_rounds / 2).max(1) as usize
    }
}

tb_types::wire_struct!(NodeSpec {
    node,
    ports,
    run_deadline_millis,
    config,
    smallbank,
});

/// Runs one replica over real TCP, per `spec`, as the node process it is
/// called in, and ends that process: this is the last call a node process
/// makes. It returns only an error met before the report is out.
///
/// Binds the node's listener, dials peers lazily on first send (with the
/// transport's connect deadline absorbing start-up skew), expands the
/// client stream locally, and drives the replica. When the replica has seen
/// [`NodeSpec::target_commits`] round commits the node prints
/// [`NODE_AT_TARGET_LINE`] and goes on serving its peers. It stops once it
/// has reached the target and the launcher has released it by closing its
/// stdin, or when the wall-clock deadline expires. The report it prints is
/// this node's own view: its replica's counters and stage timers, its
/// transport's traffic, `duration` up to its last commit on its wall clock.
///
/// After the report line the process exits without dropping its replica,
/// feed or transport: the kernel takes back the heap of decoded blocks and
/// closes the sockets faster than their destructors would. A durable store
/// loses nothing it promised. Its last commit marker was fsynced when it
/// was written, so the WAL's unflushed `BufWriter` tail is exactly what a
/// crash at that point would lose.
pub fn run_node(spec: NodeSpec) -> io::Result<Infallible> {
    let id = ReplicaId::new(spec.node);
    let target_commits = spec.target_commits();
    let mut replica = Replica::new(id, spec.config.clone());
    let mut workload: Box<dyn Workload> = Box::new(SmallBankWorkload::new(spec.smallbank));
    workload.configure_for_cluster(spec.config.system.n_replicas, spec.config.seed);
    replica.app_mut().load_state(workload.initial_state());
    // This node's copy of the shared client stream; it serves this replica
    // alone, the other nodes enqueue the rest from theirs.
    let mut feed = ClientFeed::new(workload, spec.config.system.ce.batch_size);

    let mut transport: TcpTransport<Message> = TcpTransport::bind(id, spec.peers())?;
    let started = Instant::now();
    let deadline = started + Duration::from_millis(spec.run_deadline_millis.max(1));
    let released = Arc::new(AtomicBool::new(false));
    std::thread::Builder::new()
        .name("tb-release".to_string())
        .spawn({
            let released = Arc::clone(&released);
            move || {
                // The launcher releases the node by closing its stdin; a
                // read error ends the pipe just as EOF does.
                let _ = io::copy(&mut io::stdin().lock(), &mut io::sink());
                // The flag publishes no other data.
                released.store(true, Ordering::Relaxed);
            }
        })?;
    let mut announced: Option<io::Result<()>> = None;
    drive(
        std::slice::from_mut(&mut replica),
        &mut feed,
        &mut transport,
        |replicas, _| {
            if announced.is_none() && replicas[0].metrics().round_commits.len() >= target_commits {
                announced = Some(print_line(NODE_AT_TARGET_LINE));
            }
            (announced.is_some() && released.load(Ordering::Relaxed)) || Instant::now() >= deadline
        },
    );
    announced.transpose()?;

    let duration = replica
        .metrics()
        .round_commits
        .last()
        .map(|sample| sample.committed_at)
        .unwrap_or_else(|| SimTime::from_micros(started.elapsed().as_micros() as u64));
    let report = replica.report(
        &spec.config.label(),
        feed.workload().name(),
        duration,
        transport.stats(),
    );
    print_line(&format!(
        "{NODE_REPORT_PREFIX}{}",
        to_hex(&report.to_wire_bytes())
    ))?;
    std::process::exit(0)
}

/// Writes one line to stdout and flushes it, so the launcher reads it now.
fn print_line(line: &str) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(out, "{line}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ExecutionMode;
    use crate::metrics::RunReport;
    use crate::proposer::ByzantineBehavior;
    use crate::scenario::ScenarioBuilder;
    use tb_types::wire::WireError;
    use tb_types::{LatencyModel, ReconfigConfig, StorageBackend, StorageConfig, SystemConfig};

    /// Every knob of the cluster and system configuration, off its default,
    /// survives the trip to a node process.
    #[test]
    fn node_spec_ships_every_config_knob() {
        let plan = ScenarioBuilder::new(7)
            .engine(ExecutionMode::ThunderboltOcc)
            .smallbank(SmallBankConfig {
                accounts: 128,
                seed: 11,
                ..SmallBankConfig::default()
            })
            .seed(99)
            .skip_blocks(true)
            .label("real-net")
            .latency(LatencyModel::Jittered {
                base_micros: 70,
                jitter_micros: 30,
            })
            .executors(3, 48)
            .validators(5)
            .rounds(12)
            .lockstep()
            .reconfig(ReconfigConfig::new(3, 9))
            .storage(StorageConfig {
                backend: StorageBackend::Wal,
                data_dir: "/tmp/tb-node-test".to_string(),
                compact_wal_bytes: 12_345,
            })
            .tune(|system| system.ce.synthetic_op_cost_ns = 250)
            .build_real_net()
            .expect("scenario is launchable");
        let defaults = ClusterConfig::thunderbolt(7);
        let (system, default_system) = (&plan.config.system, SystemConfig::default());
        assert_ne!(plan.config.mode, defaults.mode);
        assert_ne!(plan.config.seed, defaults.seed);
        assert_ne!(system.latency, default_system.latency);
        assert_ne!(system.ce.executors, default_system.ce.executors);
        assert_ne!(system.ce.batch_size, default_system.ce.batch_size);
        assert_ne!(
            system.ce.synthetic_op_cost_ns,
            default_system.ce.synthetic_op_cost_ns
        );
        assert_ne!(system.validators, default_system.validators);
        assert_ne!(system.reconfig, default_system.reconfig);
        let (storage, default_storage) = (&system.storage, StorageConfig::default());
        assert_ne!(storage.backend, default_storage.backend);
        assert_ne!(storage.data_dir, default_storage.data_dir);
        assert_ne!(storage.compact_wal_bytes, default_storage.compact_wal_bytes);

        let spec = NodeSpec {
            node: 1,
            ports: vec![9001, 9002, 9003, 9004, 9005, 9006, 9007],
            run_deadline_millis: 30_000,
            config: plan.config.clone(),
            smallbank: plan.smallbank,
        };
        let bytes = spec.to_wire_bytes();
        let shipped = NodeSpec::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(shipped.config, plan.config);
        assert_eq!(shipped, spec);
        assert_eq!(spec.target_commits(), 6);
        assert_eq!(spec.peers()[2].id, ReplicaId::new(2));
        assert_eq!(spec.peers()[2].addr.port(), 9003);

        // The one knob a launchable plan cannot carry travels too.
        let mut byzantine = plan.config.clone();
        byzantine.byzantine = Some((ReplicaId::new(2), ByzantineBehavior::Equivocate));
        assert_eq!(
            ClusterConfig::from_wire_bytes(&byzantine.to_wire_bytes()),
            Ok(byzantine)
        );

        // An unknown engine or storage backend tag is a decode error.
        let config_at = spec.node.encoded_len()
            + spec.ports.encoded_len()
            + spec.run_deadline_millis.encoded_len();
        let mode_at = config_at + system.encoded_len();
        // The system config ends with the storage backend tag, the data
        // directory and a varint.
        let backend_at =
            mode_at - 1 - storage.data_dir.encoded_len() - storage.compact_wal_bytes.encoded_len();
        assert_eq!(bytes[backend_at], 1, "the Wal backend's tag");
        for (at, type_name) in [(mode_at, "ExecutionMode"), (backend_at, "StorageBackend")] {
            let mut corrupt = bytes.clone();
            corrupt[at] = 9;
            assert_eq!(
                NodeSpec::from_wire_bytes(&corrupt),
                Err(WireError::InvalidTag { type_name, tag: 9 })
            );
        }
    }

    /// The encodings that cross the launcher–node boundary, hashed: a
    /// `NodeSpec` with every knob off its default (shipped in `TB_NODE_SPEC`)
    /// and a `RunReport` with every field non-zero (returned on the
    /// `TB_NODE_REPORT` line). Like `messages::tests::format_golden`, it
    /// moves only when an encoding does.
    #[test]
    fn launch_and_report_golden() {
        const GOLDEN: u64 = 0xd417_5ca0_d844_3dc6;
        let spec = NodeSpec {
            node: 2,
            ports: vec![7001, 7002, 7003, 65_535],
            run_deadline_millis: 45_000,
            config: ClusterConfig {
                system: SystemConfig {
                    n_replicas: 7,
                    ce: tb_types::CeConfig {
                        executors: 3,
                        batch_size: 48,
                        synthetic_op_cost_ns: 250,
                    },
                    validators: 5,
                    reconfig: ReconfigConfig::new(3, 9),
                    latency: LatencyModel::Jittered {
                        base_micros: 70,
                        jitter_micros: 300,
                    },
                    max_rounds: 1_200,
                    storage: StorageConfig {
                        backend: StorageBackend::Wal,
                        data_dir: "/var/tb/golden".to_string(),
                        compact_wal_bytes: 12_345,
                    },
                },
                mode: ExecutionMode::ThunderboltOcc,
                use_skip_blocks: true,
                seed: 0xdead_beef,
                label: Some("golden".to_string()),
                byzantine: Some((ReplicaId::new(3), ByzantineBehavior::OverfullWrongShard)),
                lockstep: true,
            },
            smallbank: SmallBankConfig {
                accounts: 1_234,
                theta: 0.75,
                pr_read: 0.25,
                cross_shard_fraction: 0.125,
                n_shards: 7,
                max_amount: 250,
                initial_balance: -40,
                seed: 77,
            },
        };
        let report = RunReport {
            label: "Thunderbolt-OCC".to_string(),
            workload: "smallbank".to_string(),
            replicas: 7,
            committed_txs: 9_000,
            single_shard_txs: 8_000,
            cross_shard_txs: 1_000,
            invalid_blocks: 3,
            reexecutions: 41,
            batches_reused: 17,
            batches_repreplayed: 5,
            reconfigurations: 2,
            duration: SimTime::from_micros(2_500_000),
            total_latency_secs: 45.5,
            timed_txs: 8_750,
            latency_p50_secs: 0.004,
            latency_p99_secs: 0.016,
            // Not shipped: a decoded report's histogram is empty.
            latency_hist: Default::default(),
            validate_busy_secs: 0.3,
            apply_busy_secs: 0.07,
            execute_busy_secs: 0.11,
            coalesced_batches: 12,
            apply_calls: 30,
            blocks_replayed_ahead: 88,
            blocks_replayed_inline: 6,
            commit_order_digest: 0x00c0_ffee_00c0_ffee,
            round_commits: (1..=3)
                .map(|i| crate::metrics::RoundCommitSample {
                    dag: i / 2,
                    round: tb_types::Round::new(2 * i + 1),
                    committed_at: SimTime::from_micros(300_000 * i),
                    digest: 0x0123_4567_89ab_cdef ^ i,
                })
                .collect(),
            highest_round: tb_types::Round::new(61),
            msgs_sent: 700,
            msgs_delivered: 690,
            msgs_dropped: 10,
            bytes_sent: 400_000,
            bytes_delivered: 390_000,
            rejected_vertices: 8,
            fetches_sent: 9,
            fetches_answered: 7,
            fetches_refused: 2,
            vertices_fetched: 11,
            certificates_dropped: 1,
            faults_applied: 4,
            faults_unapplied: 1,
            total_queue_wait_secs: 9.25,
        };
        let bytes = [spec.to_wire_bytes(), report.to_wire_bytes()];
        let hash = bytes
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            hash, GOLDEN,
            "the launch or report encoding changed: {hash:#x}"
        );
        assert_eq!(NodeSpec::from_wire_bytes(&bytes[0]), Ok(spec));
        assert_eq!(RunReport::from_wire_bytes(&bytes[1]), Ok(report));
    }
}
