//! The fluent, scenario-first entry point to the cluster simulation.
//!
//! [`ScenarioBuilder`] assembles everything a system experiment needs —
//! execution engine, workload, round budget, fault plan, seed, label — and
//! produces a ready [`ClusterSimulation`] (or directly its [`RunReport`]).
//! It is the public face of the harness; `ClusterConfig` surgery is only
//! needed for knobs the builder does not expose, and even those are
//! reachable through [`ScenarioBuilder::tune`].
//!
//! ```
//! use tb_workload::KvWorkloadConfig;
//! use tb_core::scenario::ScenarioBuilder;
//! use tb_core::ExecutionMode;
//!
//! let report = ScenarioBuilder::new(4)
//!     .engine(ExecutionMode::Thunderbolt)
//!     .workload(KvWorkloadConfig {
//!         keys: 64,
//!         cross_shard_fraction: 0.2,
//!         ..KvWorkloadConfig::default()
//!     })
//!     .executors(2, 32)
//!     .rounds(8)
//!     .seed(7)
//!     .label("kv-demo")
//!     .run();
//! assert!(report.committed_txs > 0);
//! assert_eq!(report.workload, "kv-hot");
//! ```

use crate::cluster::{ClusterConfig, ClusterSimulation, ExecutionMode};
use crate::metrics::RunReport;
use crate::proposer::ByzantineBehavior;
use std::fmt;
use tb_network::FaultPlan;
use tb_types::{CeConfig, LatencyModel, ReconfigConfig, ReplicaId, StorageConfig, SystemConfig};
use tb_workload::{SmallBankConfig, Workload};

/// Why a scenario cannot be taken out-of-process over TCP.
///
/// Returned by [`ScenarioBuilder::build_real_net`]. Each variant names a
/// capability the real transport does not have; the fix is always to drop
/// the offending knob or stay in the simulation ([`ScenarioBuilder::build`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The scenario carries a fault plan, but crashes, censoring, partitions
    /// and message loss are injected *into the simulated network* — a real
    /// TCP transport has no hook for them. This is a hard error rather than
    /// the sim path's stderr warning: a fault plan that cannot apply must
    /// not no-op silently.
    FaultsUnsupported {
        /// Number of scheduled faults in the rejected plan.
        scheduled: usize,
    },
    /// The scenario uses a workload the node processes cannot re-generate
    /// from a compact spec. Real-net nodes rebuild the client stream
    /// independently from a [`SmallBankConfig`], so only workloads set via
    /// [`ScenarioBuilder::smallbank`] (or the default) are supported.
    WorkloadUnsupported {
        /// Name of the rejected workload.
        name: String,
    },
    /// Byzantine proposer behaviour is driven by the simulation harness and
    /// is not available out-of-process.
    ByzantineUnsupported,
    /// The scenario reconfigures. A node that changes shard would restart
    /// the new shard's client stream and re-submit what the shard already
    /// committed (until ROADMAP item 20's hand-over).
    ReconfigUnsupported,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::FaultsUnsupported { scheduled } => write!(
                f,
                "the TCP transport cannot inject simulated faults \
                 ({scheduled} scheduled); drop the fault plan or use the \
                 sim transport"
            ),
            ScenarioError::WorkloadUnsupported { name } => write!(
                f,
                "real-net nodes can only re-generate SmallBank streams; \
                 workload {name:?} has no compact wire spec"
            ),
            ScenarioError::ByzantineUnsupported => write!(
                f,
                "byzantine proposer behaviour is simulation-only and cannot \
                 run out-of-process"
            ),
            ScenarioError::ReconfigUnsupported => {
                f.write_str("a TCP node cannot hand a shard over yet; use the sim transport")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Everything a launcher needs to run a scenario as N OS processes over
/// localhost TCP: the per-replica cluster configuration plus the compact
/// workload spec each node process draws its shard's client stream from.
///
/// Built by [`ScenarioBuilder::build_real_net`]; consumed by `tb-launcher`.
#[derive(Clone, Debug)]
pub struct RealNetPlan {
    /// Per-replica configuration (engine, system knobs, seed, lockstep).
    pub config: ClusterConfig,
    /// The SmallBank spec every node draws its shard's client stream from.
    pub smallbank: SmallBankConfig,
}

/// Fluent builder for cluster scenarios.
///
/// Defaults: Thunderbolt engine, the default SmallBank workload, no
/// faults, and the `SystemConfig` defaults for the given committee size
/// (the same starting point as [`ClusterConfig::thunderbolt`]).
pub struct ScenarioBuilder {
    config: ClusterConfig,
    workload: Box<dyn Workload>,
    faults: FaultPlan,
    /// The compact spec behind `workload`, kept whenever the workload was
    /// set as a `SmallBankConfig` — the only workload the real-net path can
    /// ship to node processes. `None` after [`ScenarioBuilder::workload`]
    /// installs an opaque generator.
    smallbank: Option<SmallBankConfig>,
}

impl ScenarioBuilder {
    /// Starts a scenario on a committee of `replicas` replicas.
    pub fn new(replicas: u32) -> Self {
        ScenarioBuilder {
            config: ClusterConfig::thunderbolt(replicas),
            workload: SmallBankConfig::default().into(),
            faults: FaultPlan::none(),
            smallbank: Some(SmallBankConfig::default()),
        }
    }

    /// Selects the execution engine (Thunderbolt, Thunderbolt-OCC, Tusk).
    pub fn engine(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Selects the workload: a config (`SmallBankConfig`,
    /// `ContractWorkloadConfig`, `KvWorkloadConfig`), a ready generator, or
    /// any boxed custom [`Workload`]. The builder retargets it to the
    /// committee's shard count and folds the scenario seed into its stream
    /// when the simulation is built.
    pub fn workload(mut self, workload: impl Into<Box<dyn Workload>>) -> Self {
        self.workload = workload.into();
        self.smallbank = None;
        self
    }

    /// Selects a SmallBank workload *and* remembers its compact spec, which
    /// is what allows the scenario to go out-of-process: real-net node
    /// processes re-generate the client stream from the spec instead of
    /// receiving transactions from the harness. Equivalent to
    /// [`ScenarioBuilder::workload`] on the sim path.
    pub fn smallbank(mut self, config: SmallBankConfig) -> Self {
        self.workload = config.into();
        self.smallbank = Some(config);
        self
    }

    /// Makes every replica wait for the *complete* previous round (all `n`
    /// vertices, not just a `2f + 1` quorum) before advancing. With a
    /// complete DAG the commit order is a pure function of the client
    /// stream, so a real-TCP run can be digest-compared against an
    /// in-process sim run of the same scenario. Only meaningful for
    /// fault-free runs — a single crashed replica halts a lockstep cluster.
    pub fn lockstep(mut self) -> Self {
        self.config.lockstep = true;
        self
    }

    /// Sets the run's budget of DAG rounds (`SystemConfig::max_rounds`): a
    /// run stops after `max_rounds / 2` leader commits (at least one), as a
    /// leader is elected every second round.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.config.system.max_rounds = rounds;
        self
    }

    /// Sets the seed for network jitter and workload generation, so
    /// experiments can sweep seeds without touching any config struct.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the engine label recorded in reports (e.g. to distinguish
    /// two parameterisations of the same engine).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.config.label = Some(label.into());
        self
    }

    /// Injects a fault plan (crashes, censoring, partitions). If the plan's
    /// schedule outlives the run, the resulting [`RunReport`] records the
    /// count in `faults_unapplied` and the run warns on stderr — a fault
    /// plan must not no-op silently.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Makes `replica`'s proposer Byzantine (chaos campaigns): it equivocates,
    /// tampers with declared reads, or violates the batching rules
    /// depending on `behavior`.
    pub fn byzantine(mut self, replica: ReplicaId, behavior: ByzantineBehavior) -> Self {
        self.config.byzantine = Some((replica, behavior));
        self
    }

    /// Selects the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.config.system.latency = latency;
        self
    }

    /// Sizes the preplay stage: `workers` executor threads and `batch`
    /// transactions per block. The validation pool is a separate knob
    /// ([`ScenarioBuilder::validators`]) and keeps its `SystemConfig`
    /// default when untouched.
    pub fn executors(mut self, workers: usize, batch: usize) -> Self {
        self.config.system.ce = CeConfig::new(workers, batch);
        self
    }

    /// Sizes the post-consensus validation worker pool.
    pub fn validators(mut self, workers: usize) -> Self {
        self.config.system.validators = workers;
        self
    }

    /// Enables reconfiguration with the given `K` / `K'` parameters.
    pub fn reconfig(mut self, reconfig: ReconfigConfig) -> Self {
        self.config.system.reconfig = reconfig;
        self
    }

    /// Selects the storage backend every replica keeps its committed state
    /// in: [`StorageConfig::mem`] (the default) or [`StorageConfig::wal`]
    /// for a durable cluster whose replicas can be killed and recovered
    /// from disk (see `docs/STORAGE.md`).
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.config.system.storage = storage;
        self
    }

    /// Prefers skip blocks over converting single-shard transactions when
    /// preplay recovery triggers (rules P3/P4, Section 5.4).
    pub fn skip_blocks(mut self, enabled: bool) -> Self {
        self.config.use_skip_blocks = enabled;
        self
    }

    /// Escape hatch for every remaining [`SystemConfig`] knob (synthetic op
    /// cost in `ce`, say) without leaving the fluent chain.
    pub fn tune(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.config.system);
        self
    }

    /// The assembled cluster configuration (for inspection in tests).
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Builds the in-process simulation without running it (use
    /// [`ScenarioBuilder::build_real_net`] for the TCP path).
    pub fn build(self) -> ClusterSimulation {
        ClusterSimulation::new(self.config, self.workload, self.faults)
    }

    /// Builds the simulation, runs it to completion and returns the report.
    pub fn run(self) -> RunReport {
        self.build().run()
    }

    /// Validates the scenario for the real TCP transport and returns the
    /// [`RealNetPlan`] a launcher expands into N OS processes.
    ///
    /// Errors instead of warning: capabilities the real transport lacks —
    /// simulated fault injection, byzantine proposers, reconfiguration,
    /// opaque workloads — reject the scenario at build time rather than
    /// silently testing something else (contrast the sim path's
    /// `faults_unapplied` stderr warning, which fires only *after* a run).
    pub fn build_real_net(self) -> Result<RealNetPlan, ScenarioError> {
        if !self.faults.is_empty() {
            return Err(ScenarioError::FaultsUnsupported {
                scheduled: self.faults.len(),
            });
        }
        if self.config.byzantine.is_some() {
            return Err(ScenarioError::ByzantineUnsupported);
        }
        if self.config.system.reconfig != ReconfigConfig::default() {
            return Err(ScenarioError::ReconfigUnsupported);
        }
        let Some(smallbank) = self.smallbank else {
            return Err(ScenarioError::WorkloadUnsupported {
                name: self.workload.name().to_string(),
            });
        };
        // The spec ships untransformed: every node applies the same
        // `configure_for_cluster(n, seed)` retargeting the sim harness does,
        // so both paths draw identical per-shard client streams.
        Ok(RealNetPlan {
            config: self.config,
            smallbank,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_types::{ReplicaId, SimTime};
    use tb_workload::ContractWorkloadConfig;

    fn tiny(builder: ScenarioBuilder) -> ScenarioBuilder {
        builder
            .executors(2, 32)
            .validators(2)
            .rounds(8)
            .latency(LatencyModel::Fixed { micros: 100 })
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
    }

    #[test]
    fn builder_defaults_produce_a_smallbank_thunderbolt_run() {
        let report = tiny(ScenarioBuilder::new(4)).run();
        assert!(report.committed_txs > 0);
        assert_eq!(report.label, "Thunderbolt");
        assert_eq!(report.workload, "smallbank");
        assert_eq!(report.replicas, 4);
    }

    #[test]
    fn every_knob_lands_in_the_cluster_config() {
        let builder = ScenarioBuilder::new(7)
            .engine(ExecutionMode::Tusk)
            .rounds(17)
            .seed(99)
            .label("custom")
            .latency(LatencyModel::Fixed { micros: 5 })
            .executors(3, 48)
            .validators(5)
            .reconfig(ReconfigConfig::new(4, 10))
            .skip_blocks(true)
            .byzantine(ReplicaId::new(2), ByzantineBehavior::Equivocate)
            .storage(StorageConfig::wal("/tmp/tb-scenario-test"))
            .tune(|system| system.ce.synthetic_op_cost_ns = 7);
        let config = builder.config();
        assert_eq!(config.system.n_replicas, 7);
        assert_eq!(config.mode, ExecutionMode::Tusk);
        assert_eq!(config.system.max_rounds, 17);
        assert_eq!(config.seed, 99);
        assert_eq!(config.label.as_deref(), Some("custom"));
        assert_eq!(config.system.latency, LatencyModel::Fixed { micros: 5 });
        assert_eq!(config.system.ce.executors, 3);
        assert_eq!(config.system.ce.batch_size, 48);
        assert_eq!(config.system.validators, 5);
        assert_eq!(config.system.reconfig, ReconfigConfig::new(4, 10));
        assert!(config.use_skip_blocks);
        assert_eq!(config.system.ce.synthetic_op_cost_ns, 7);
        assert_eq!(
            config.byzantine,
            Some((ReplicaId::new(2), ByzantineBehavior::Equivocate))
        );
        assert_eq!(
            config.system.storage,
            StorageConfig::wal("/tmp/tb-scenario-test")
        );
        assert_eq!(config.label(), "custom");
    }

    #[test]
    fn builder_runs_non_smallbank_workloads_with_faults() {
        let report = tiny(ScenarioBuilder::new(4))
            .workload(ContractWorkloadConfig {
                slots: 64,
                ..ContractWorkloadConfig::default()
            })
            .faults(FaultPlan::crash_replicas(4, 1, SimTime::ZERO))
            .run();
        assert!(report.committed_txs > 0, "f=1 crash must not halt commits");
        assert_eq!(report.workload, "contract");
    }

    #[test]
    fn real_net_build_rejects_sim_only_capabilities() {
        // A fault plan on the TCP transport is a build-time error, not a
        // post-run stderr warning.
        let err = ScenarioBuilder::new(4)
            .faults(FaultPlan::crash_replicas(4, 1, SimTime::ZERO))
            .build_real_net()
            .unwrap_err();
        assert_eq!(err, ScenarioError::FaultsUnsupported { scheduled: 1 });
        assert!(err.to_string().contains("cannot inject simulated faults"));

        let err = ScenarioBuilder::new(4)
            .byzantine(ReplicaId::new(1), ByzantineBehavior::Equivocate)
            .build_real_net()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ByzantineUnsupported);

        let err = ScenarioBuilder::new(4)
            .reconfig(ReconfigConfig::new(10, 20))
            .build_real_net()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ReconfigUnsupported);
        assert!(err.to_string().contains("cannot hand a shard over"));

        let err = ScenarioBuilder::new(4)
            .workload(ContractWorkloadConfig::default())
            .build_real_net()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::WorkloadUnsupported {
                name: "contract".to_string()
            }
        );
    }

    #[test]
    fn real_net_build_ships_the_smallbank_spec_and_lockstep() {
        let spec = tb_workload::SmallBankConfig {
            accounts: 128,
            seed: 11,
            ..tb_workload::SmallBankConfig::default()
        };
        let plan = ScenarioBuilder::new(4)
            .smallbank(spec)
            .lockstep()
            .rounds(8)
            .build_real_net()
            .expect("fault-free smallbank scenario must be launchable");
        assert!(plan.config.lockstep);
        assert_eq!(plan.config.system.max_rounds, 8);
        assert_eq!(plan.smallbank.accounts, 128);
        // The spec ships untransformed; nodes retarget it themselves.
        assert_eq!(plan.smallbank.seed, 11);
    }

    #[test]
    fn smallbank_spec_survives_the_builder_where_opaque_workloads_do_not() {
        // The default workload is launchable out of the box.
        assert!(ScenarioBuilder::new(4).build_real_net().is_ok());
    }

    #[test]
    fn build_exposes_the_simulation_for_inspection() {
        let mut sim = tiny(ScenarioBuilder::new(4)).seed(3).build();
        let report = sim.run();
        assert!(report.committed_txs > 0);
        assert!(sim.replica(ReplicaId::new(0)).metrics().committed_txs > 0);
        assert_eq!(report.workload, "smallbank");
    }
}
