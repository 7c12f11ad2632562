//! The multi-replica simulation harness.
//!
//! [`ClusterSimulation`] wires `n` [`Replica`]s to the discrete-event
//! network, feeds them transactions from any [`Workload`] implementation,
//! injects faults from a [`FaultPlan`] and runs until a round budget is
//! reached. It is the engine behind every system experiment (Figures
//! 13–17), the integration tests and the examples. Three system variants
//! can be simulated:
//!
//! * **Thunderbolt** — concurrent-executor preplay + parallel validation,
//! * **Thunderbolt-OCC** — OCC preplay + parallel validation,
//! * **Tusk** — no preplay, serial execution after consensus.
//!
//! The harness is workload-agnostic: it accepts anything convertible into a
//! `Box<dyn Workload>` (a workload config, a ready generator, or a custom
//! implementation) and only relies on the trait — the stable scenario name,
//! the initial state, and the shard-tagged transaction stream. Most callers
//! should not construct it directly but go through the fluent
//! [`ScenarioBuilder`](crate::scenario::ScenarioBuilder).

use crate::driver::drive;
use crate::feed::ClientFeed;
use crate::messages::Message;
use crate::metrics::RunReport;
use crate::proposer::ByzantineBehavior;
use crate::replica::Replica;
use tb_network::{FaultPlan, SimNetwork};
use tb_types::{ReplicaId, SystemConfig};
use tb_workload::Workload;

/// Which execution engine the replicas use (the three systems compared in
/// the paper's system evaluation, Section 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The full system: concurrent-executor preplay plus parallel validation.
    Thunderbolt,
    /// Preplay with optimistic concurrency control instead of the CE.
    ThunderboltOcc,
    /// The baseline: order first, execute serially after consensus.
    Tusk,
}

impl ExecutionMode {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Thunderbolt => "Thunderbolt",
            ExecutionMode::ThunderboltOcc => "Thunderbolt-OCC",
            ExecutionMode::Tusk => "Tusk",
        }
    }
}

tb_types::wire_enum!(ExecutionMode {
    0 => Thunderbolt,
    1 => ThunderboltOcc,
    2 => Tusk,
});

/// Configuration of one simulated cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Protocol and executor parameters.
    pub system: SystemConfig,
    /// Which execution engine to run.
    pub mode: ExecutionMode,
    /// Prefer skip blocks (preplay recovery, Section 5.4) over converting
    /// single-shard transactions when rules P3/P4 trigger.
    pub use_skip_blocks: bool,
    /// Seed for network jitter and workload generation.
    pub seed: u64,
    /// Optional label overriding the mode label in reports.
    pub label: Option<String>,
    /// Make one replica's proposer Byzantine (chaos campaigns). The cluster
    /// harness instantiates every replica from the same config; each replica
    /// compares its own id against this entry.
    pub byzantine: Option<(ReplicaId, ByzantineBehavior)>,
    /// Lockstep proposal mode: a proposer advances to round `r + 1` only
    /// once **all** `n` vertices of round `r` are in its DAG (not just a
    /// `2f + 1` quorum). This makes the DAG complete, so the commit order —
    /// and, on an all-single-shard workload, full block contents — become a
    /// pure function of the transaction stream, independent of message
    /// timing. The real-TCP path uses it to compare commit digests against
    /// an in-process sim of the same scenario. The price is crash tolerance
    /// (one silent replica wedges the cluster), so lockstep is only valid
    /// for fault-free runs and defaults to off.
    pub lockstep: bool,
}

impl ClusterConfig {
    /// A Thunderbolt cluster of `n` replicas with default parameters.
    pub fn thunderbolt(n: u32) -> Self {
        ClusterConfig {
            system: SystemConfig::with_replicas(n),
            mode: ExecutionMode::Thunderbolt,
            use_skip_blocks: false,
            seed: 42,
            label: None,
            byzantine: None,
            lockstep: false,
        }
    }

    /// The label used in reports.
    pub fn label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.mode.label().to_string())
    }
}

// What a node process is launched with.
tb_types::wire_struct!(ClusterConfig {
    system,
    mode,
    use_skip_blocks,
    seed,
    label,
    byzantine,
    lockstep,
});

/// The simulation driver.
pub struct ClusterSimulation {
    config: ClusterConfig,
    replicas: Vec<Replica>,
    network: SimNetwork<Message>,
    feed: ClientFeed,
}

/// Hard cap on processed events, protecting against configuration mistakes.
const EVENT_BUDGET: u64 = 50_000_000;

impl ClusterSimulation {
    /// Builds a cluster: `n` replicas with freshly loaded workload state, a
    /// simulated network with the configured latency model and a fault plan.
    ///
    /// Accepts anything convertible into a boxed [`Workload`]: a workload
    /// config (`SmallBankConfig`, `ContractWorkloadConfig`,
    /// `KvWorkloadConfig`), a ready generator, or `Box<dyn Workload>`. The
    /// workload is retargeted to the committee's shard count and the
    /// cluster seed is folded into its stream before the run.
    pub fn new(
        config: ClusterConfig,
        workload: impl Into<Box<dyn Workload>>,
        faults: FaultPlan,
    ) -> Self {
        let n = config.system.n_replicas;
        let mut workload = workload.into();
        workload.configure_for_cluster(n, config.seed);
        let initial_state = workload.initial_state();
        let mut replicas = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut replica = Replica::new(ReplicaId::new(i), config.clone());
            replica.app_mut().load_state(initial_state.iter().cloned());
            replicas.push(replica);
        }
        let network = SimNetwork::new(n, config.system.latency, config.seed).with_faults(faults);
        ClusterSimulation {
            feed: ClientFeed::new(workload, config.system.ce.batch_size),
            config,
            replicas,
            network,
        }
    }

    /// Access to a replica (used by tests to inspect state).
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas[id.as_inner() as usize]
    }

    /// Runs the simulation until the observer replica has committed
    /// `max_rounds / 2` leader rounds (or the network goes idle / the event
    /// budget is exhausted) and returns the run report. Counting *committed*
    /// leader rounds rather than proposed rounds makes runs with different
    /// execution engines and reconfiguration periods commit a comparable
    /// amount of work, which is what the throughput figures compare.
    pub fn run(&mut self) -> RunReport {
        let max_rounds = self.config.system.max_rounds;
        let target_commits = (max_rounds / 2).max(1) as usize;
        let mut events = 0u64;
        drive(
            &mut self.replicas,
            &mut self.feed,
            &mut self.network,
            |replicas, network| {
                events += 1;
                let observer = observer(replicas, network);
                events >= EVENT_BUDGET
                    || observer.metrics().round_commits.len() >= target_commits
                    || observer.current_round().as_u64() >= max_rounds * 4
            },
        );

        // Duration is measured up to the observer's last commit *including*
        // the execution time it had to spend to get there (its busy-inflated
        // clock), so serial post-consensus execution (Tusk) pays for its
        // execution cost in the throughput figures even though consensus
        // itself keeps progressing underneath.
        let observer = observer(&self.replicas, &self.network);
        let duration = observer
            .metrics()
            .round_commits
            .last()
            .map(|sample| sample.committed_at)
            .unwrap_or_else(|| self.network.now());
        let mut report = observer.report(
            &self.config.label(),
            self.feed.workload().name(),
            duration,
            self.network.stats(),
        );
        // Each replica timed the transactions it proposed.
        report.pool_latency(self.replicas.iter().map(Replica::metrics));
        let faults = self.network.faults();
        report.faults_applied = faults.applied() as u64;
        report.faults_unapplied = faults.remaining() as u64;
        if report.faults_unapplied > 0 {
            // A fault schedule that outlives the run silently tested nothing;
            // surface it both on stderr and in the report.
            eprintln!(
                "warning: {} of {} scheduled faults never applied — the fault \
                 schedule outlived the run (ended at {})",
                report.faults_unapplied,
                faults.len(),
                self.network.now()
            );
        }
        report
    }

    /// Number of replicas in the cluster.
    pub fn replica_count(&self) -> u32 {
        self.replicas.len() as u32
    }
}

/// The first non-crashed replica; honest replicas commit identical sequences
/// so any of them is representative.
fn observer<'a>(replicas: &'a [Replica], network: &SimNetwork<Message>) -> &'a Replica {
    replicas
        .iter()
        .find(|replica| !network.is_crashed(replica.id()))
        .unwrap_or(&replicas[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use tb_types::wire::Wire;
    use tb_types::{LatencyModel, SimTime};
    use tb_workload::{ContractWorkloadConfig, KvWorkloadConfig, SmallBankConfig};

    fn small(mode: ExecutionMode, n: u32, rounds: u64) -> ScenarioBuilder {
        ScenarioBuilder::new(n)
            .engine(mode)
            .executors(2, 32)
            .validators(2)
            .rounds(rounds)
            .latency(LatencyModel::Fixed { micros: 100 })
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
    }

    fn workload(n: u32, cross: f64) -> SmallBankConfig {
        SmallBankConfig {
            accounts: 64,
            n_shards: n,
            cross_shard_fraction: cross,
            ..SmallBankConfig::default()
        }
    }

    #[test]
    fn thunderbolt_cluster_commits_transactions() {
        let report = small(ExecutionMode::Thunderbolt, 4, 10)
            .workload(workload(4, 0.0))
            .run();
        assert!(report.committed_txs > 0, "nothing committed: {report:?}");
        assert!(report.throughput_tps() > 0.0);
        assert_eq!(report.replicas, 4);
        assert_eq!(report.label, "Thunderbolt");
        assert_eq!(report.workload, "smallbank");
        assert!(report.duration > SimTime::ZERO);
    }

    #[test]
    fn contract_workload_drives_a_cluster_through_the_trait() {
        let report = small(ExecutionMode::Thunderbolt, 4, 10)
            .workload(ContractWorkloadConfig {
                slots: 64,
                ..ContractWorkloadConfig::default()
            })
            .run();
        assert!(report.committed_txs > 0, "nothing committed: {report:?}");
        assert_eq!(report.workload, "contract");
    }

    #[test]
    fn hot_key_kv_workload_drives_a_cluster_through_the_trait() {
        let report = small(ExecutionMode::Thunderbolt, 4, 10)
            .workload(KvWorkloadConfig {
                keys: 64,
                cross_shard_fraction: 0.2,
                ..KvWorkloadConfig::default()
            })
            .run();
        assert!(report.committed_txs > 0, "nothing committed: {report:?}");
        assert_eq!(report.workload, "kv-hot");
    }

    #[test]
    fn all_replicas_agree_on_the_commit_sequence() {
        // The run stops at an arbitrary event, so replicas may have processed
        // different *amounts* of the committed sequence — but the sequences
        // themselves (DAG id, leader round) must be prefixes of one another.
        let mut sim = small(ExecutionMode::Thunderbolt, 4, 8)
            .workload(workload(4, 0.2))
            .build();
        let _ = sim.run();
        let sequences: Vec<Vec<(u64, u64)>> = (0..4)
            .map(|i| {
                sim.replica(ReplicaId::new(i))
                    .metrics()
                    .round_commits
                    .iter()
                    .map(|s| (s.dag, s.round.as_u64()))
                    .collect()
            })
            .collect();
        let longest = sequences
            .iter()
            .max_by_key(|s| s.len())
            .expect("four replicas")
            .clone();
        for (i, sequence) in sequences.iter().enumerate() {
            assert!(
                longest.starts_with(sequence),
                "replica {i} committed a different sequence: {sequence:?} vs {longest:?}"
            );
        }
    }

    #[test]
    fn tusk_commits_fewer_transactions_than_thunderbolt_per_round_budget() {
        let rounds = 10;
        let tb = small(ExecutionMode::Thunderbolt, 4, rounds)
            .workload(workload(4, 0.0))
            .run();
        let tk = small(ExecutionMode::Tusk, 4, rounds)
            .workload(workload(4, 0.0))
            .run();
        assert!(tb.committed_txs > 0 && tk.committed_txs > 0);
        assert_eq!(tk.single_shard_txs, 0);
        assert!(tb.single_shard_txs > 0);
    }

    #[test]
    fn crashed_replicas_do_not_stop_the_cluster() {
        let report = small(ExecutionMode::Thunderbolt, 4, 10)
            .workload(workload(4, 0.0))
            .faults(FaultPlan::crash_replicas(4, 1, SimTime::ZERO))
            .run();
        assert!(report.committed_txs > 0, "f=1 crash must not halt commits");
    }

    #[test]
    fn run_reports_message_loss_and_fault_accounting() {
        let mut faults = FaultPlan::crash_replicas(4, 1, SimTime::ZERO);
        // A recovery scheduled an hour out can never fire in this run; the
        // report must say so instead of silently dropping it.
        faults.push(
            SimTime::from_secs(3_600),
            tb_network::FaultAction::Recover(ReplicaId::new(3)),
        );
        let report = small(ExecutionMode::Thunderbolt, 4, 8)
            .workload(workload(4, 0.0))
            .faults(faults)
            .run();
        assert!(report.msgs_sent > 0);
        assert!(report.msgs_delivered > 0);
        assert!(report.msgs_dropped > 0, "crashed replica must drop traffic");
        assert_eq!(report.faults_applied, 1);
        assert_eq!(report.faults_unapplied, 1);
    }

    /// The protocol constant this file's messages add up to: at `n = 4` a
    /// block crosses the network `n = 4` times (four headers; everything
    /// else is digests, and nobody has to fetch) and, inside one process,
    /// exists once however many replicas hold it.
    #[test]
    fn a_block_is_shipped_n_times_and_held_once() {
        use std::sync::Arc;

        let mut sim = small(ExecutionMode::Thunderbolt, 4, 20)
            .lockstep()
            .executors(2, 200)
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .workload(SmallBankConfig {
                accounts: 1_000,
                ..workload(4, 0.0)
            })
            .build();
        let report = sim.run();
        assert!(report.committed_txs > 0);

        let observer = sim.replica(ReplicaId::new(0)).dag();
        let block_bytes: usize = observer.iter().map(|v| v.block.encoded_len()).sum();
        let copies = report.bytes_sent as f64 / block_bytes as f64;
        assert!(
            (4.0..5.0).contains(&copies),
            "{} bytes sent for {block_bytes} bytes of blocks: {copies:.2} copies per vertex",
            report.bytes_sent
        );
        for id in 0..4 {
            assert_eq!(sim.replica(ReplicaId::new(id)).metrics().fetches_sent, 0);
        }

        let mut compared = 0;
        for vertex in observer.iter() {
            for peer in 1..4 {
                let peer_dag = sim.replica(ReplicaId::new(peer)).dag();
                if let Some(theirs) = peer_dag.by_author_round(vertex.author(), vertex.round()) {
                    assert!(Arc::ptr_eq(&vertex.block, &theirs.block));
                    compared += 1;
                }
            }
        }
        assert!(compared > 0);
    }

    #[test]
    fn occ_mode_runs_and_reports_its_label() {
        let report = small(ExecutionMode::ThunderboltOcc, 4, 8)
            .workload(workload(4, 0.0))
            .run();
        assert_eq!(report.label, "Thunderbolt-OCC");
        assert!(report.committed_txs > 0);
    }
}
