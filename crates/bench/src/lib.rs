//! Benchmark harness regenerating the paper's evaluation figures.
//!
//! Every figure of the evaluation (Sections 11 and 12) has an entry point in
//! [`figures`], and the `figures <11|…|17|all>` binary prints the same rows
//! or series the paper reports. Absolute numbers differ from the paper — the
//! substrate is a laptop-scale simulation, not a 64-machine AWS cluster —
//! but the *shape* (which system wins, by roughly what factor, where the
//! crossover points are) is what the harness reproduces; see
//! `docs/FIGURES.md`. Throughput and latency *measurements* of this
//! repository come from `benchmark/` (see `benchmark/README.md`), not from
//! here.
//!
//! By default the harness runs scaled-down parameters so that the figure
//! binary finishes quickly. Set `TB_BENCH_FULL=1` to use paper-scale
//! parameters (more accounts, bigger batches, more rounds — minutes instead
//! of seconds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use tb_core::{ExecutionMode, RunReport, ScenarioBuilder};
use tb_executor::{BatchExecutor, ConcurrentExecutor, OccExecutor, TwoPlNoWaitExecutor};
use tb_network::FaultPlan;
use tb_storage::MemStore;
use tb_types::{CeConfig, LatencyModel, ReconfigConfig, SimTime};
use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

/// Scaling profile of the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Number of SmallBank accounts for the executor experiments
    /// (paper: 10 000).
    pub executor_accounts: u64,
    /// Transactions executed per executor-experiment measurement.
    pub executor_txs: usize,
    /// Number of accounts for the system experiments (paper: 1 000).
    pub system_accounts: u64,
    /// DAG rounds per system experiment.
    pub system_rounds: u64,
    /// Batch size used by the system experiments (paper: 500).
    pub system_batch: usize,
    /// Executors per replica in the system experiments (paper: 16).
    pub system_executors: usize,
    /// Synthetic per-operation cost in nanoseconds (models EVM overhead).
    pub op_cost_ns: u64,
}

impl Scale {
    /// Scaled-down defaults.
    pub fn quick() -> Self {
        Scale {
            executor_accounts: 2_000,
            executor_txs: 2_000,
            system_accounts: 500,
            system_rounds: 12,
            system_batch: 200,
            system_executors: 4,
            op_cost_ns: 20_000,
        }
    }

    /// Paper-scale parameters (set `TB_BENCH_FULL=1`).
    pub fn full() -> Self {
        Scale {
            executor_accounts: 10_000,
            executor_txs: 20_000,
            system_accounts: 1_000,
            system_rounds: 30,
            system_batch: 500,
            system_executors: 16,
            op_cost_ns: 20_000,
        }
    }

    /// Reads the scale from the environment: [`Scale::full`] under
    /// `TB_BENCH_FULL=1`, [`Scale::quick`] otherwise.
    pub fn from_env() -> Self {
        if env_flag("TB_BENCH_FULL") {
            Scale::full()
        } else {
            Scale::quick()
        }
    }
}

/// Whether the environment variable `name` is set to something other than
/// empty or `0`.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v != "0" && !v.is_empty())
}

/// One row of an executor experiment (Figures 11 and 12).
#[derive(Clone, Debug)]
pub struct ExecRow {
    /// Engine label (Thunderbolt, OCC, 2PL-No-Wait).
    pub engine: String,
    /// Batch size used.
    pub batch: usize,
    /// Number of executor workers.
    pub executors: usize,
    /// Zipfian skew.
    pub theta: f64,
    /// Read fraction `Pr`.
    pub pr: f64,
    /// Measured throughput (transactions per second of wall-clock time).
    pub throughput_tps: f64,
    /// Average per-transaction latency in seconds.
    pub latency_s: f64,
    /// Average re-executions per transaction (the paper's abort metric).
    pub reexecutions_per_tx: f64,
}

/// Which executor engine to run in an executor experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The Thunderbolt concurrent executor.
    Thunderbolt,
    /// Optimistic concurrency control.
    Occ,
    /// Two-phase locking, no-wait.
    TwoPlNoWait,
}

impl Engine {
    /// The engines compared in Figures 11 and 12.
    pub const ALL: [Engine; 3] = [Engine::Thunderbolt, Engine::Occ, Engine::TwoPlNoWait];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Thunderbolt => "Thunderbolt",
            Engine::Occ => "OCC",
            Engine::TwoPlNoWait => "2PL-No-Wait",
        }
    }

    fn build(&self, config: CeConfig) -> Box<dyn BatchExecutor> {
        match self {
            Engine::Thunderbolt => Box::new(ConcurrentExecutor::new(config)),
            Engine::Occ => Box::new(OccExecutor::new(config)),
            Engine::TwoPlNoWait => Box::new(TwoPlNoWaitExecutor::new(config)),
        }
    }
}

/// Runs one executor-experiment cell: `total_txs` SmallBank transactions in
/// batches of `batch`, with the given engine and parameters. Returns the
/// measured row.
#[allow(clippy::too_many_arguments)]
pub fn run_executor_cell(
    engine: Engine,
    executors: usize,
    batch: usize,
    theta: f64,
    pr: f64,
    accounts: u64,
    total_txs: usize,
    op_cost_ns: u64,
) -> ExecRow {
    let mut ce_config = CeConfig::new(executors, batch);
    ce_config.synthetic_op_cost_ns = op_cost_ns;
    let runner = engine.build(ce_config);

    let store = MemStore::new();
    let workload_config = SmallBankConfig {
        accounts,
        theta,
        pr_read: pr,
        n_shards: 1,
        ..SmallBankConfig::default()
    };
    let mut workload = SmallBankWorkload::new(workload_config);
    store.load(workload.initial_state());

    let mut committed = 0usize;
    let mut reexecutions = 0u64;
    let mut latency = 0.0f64;
    let mut elapsed = 0.0f64;
    let mut remaining = total_txs;
    while remaining > 0 {
        let size = batch.min(remaining);
        let txs = workload.batch(size, SimTime::ZERO);
        let result = runner.execute_batch(&txs, &store);
        committed += result.committed();
        reexecutions += result.reexecutions;
        latency += result.total_latency.as_secs_f64();
        elapsed += result.elapsed.as_secs_f64();
        remaining -= size;
    }
    ExecRow {
        engine: engine.label().to_string(),
        batch,
        executors,
        theta,
        pr,
        throughput_tps: if elapsed > 0.0 {
            committed as f64 / elapsed
        } else {
            0.0
        },
        latency_s: if committed > 0 {
            latency / committed as f64
        } else {
            0.0
        },
        reexecutions_per_tx: if committed > 0 {
            reexecutions as f64 / committed as f64
        } else {
            0.0
        },
    }
}

/// Parameters of one system experiment (Figures 13–17).
#[derive(Clone, Debug)]
pub struct SystemRun {
    /// Which system variant to run.
    pub mode: ExecutionMode,
    /// Number of replicas (and shards).
    pub replicas: u32,
    /// Fraction of cross-shard transactions (`P`).
    pub cross_shard: f64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Reconfiguration parameters (`K`, `K'`).
    pub reconfig: ReconfigConfig,
    /// Number of replicas to crash at time zero.
    pub crashed: u32,
    /// Harness scale.
    pub scale: Scale,
    /// RNG seed.
    pub seed: u64,
}

impl SystemRun {
    /// A default Thunderbolt run on a LAN with no faults.
    pub fn new(mode: ExecutionMode, replicas: u32, scale: Scale) -> Self {
        SystemRun {
            mode,
            replicas,
            cross_shard: 0.0,
            latency: LatencyModel::lan(),
            reconfig: ReconfigConfig::disabled(),
            crashed: 0,
            scale,
            seed: 42,
        }
    }

    /// Executes the run and returns the report.
    pub fn run(&self) -> RunReport {
        let workload = SmallBankConfig {
            accounts: self.scale.system_accounts,
            n_shards: self.replicas,
            cross_shard_fraction: self.cross_shard,
            ..SmallBankConfig::default()
        };
        self.scenario().workload(workload).run()
    }

    /// The figure's system parameters as a [`ScenarioBuilder`], so callers
    /// can swap the workload (or any other knob) before running.
    pub fn scenario(&self) -> ScenarioBuilder {
        let faults = if self.crashed > 0 {
            FaultPlan::crash_replicas(self.replicas, self.crashed, SimTime::ZERO)
        } else {
            FaultPlan::none()
        };
        let op_cost_ns = self.scale.op_cost_ns;
        ScenarioBuilder::new(self.replicas)
            .engine(self.mode)
            .executors(self.scale.system_executors, self.scale.system_batch)
            .validators(self.scale.system_executors)
            .rounds(self.scale.system_rounds)
            .seed(self.seed)
            .latency(self.latency)
            .reconfig(self.reconfig)
            .faults(faults)
            .tune(|system| system.ce.synthetic_op_cost_ns = op_cost_ns)
    }
}

/// Prints a table of executor rows in the layout of Figures 11/12.
pub fn print_exec_rows(title: &str, rows: &[ExecRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<14} {:>6} {:>10} {:>6} {:>5} {:>12} {:>12} {:>10}",
        "engine", "batch", "executors", "theta", "Pr", "tps", "latency(s)", "re-exec/tx"
    );
    for row in rows {
        println!(
            "{:<14} {:>6} {:>10} {:>6.2} {:>5.2} {:>12.0} {:>12.5} {:>10.3}",
            row.engine,
            row.batch,
            row.executors,
            row.theta,
            row.pr,
            row.throughput_tps,
            row.latency_s,
            row.reexecutions_per_tx
        );
    }
}

/// Prints a table of system-run reports in the layout of Figures 13–17.
pub fn print_reports(title: &str, rows: &[(String, RunReport)]) {
    println!("\n== {title} ==");
    println!(
        "{:<36} {:>10} {:>12} {:>12} {:>8} {:>10}",
        "configuration", "replicas", "tps", "latency(s)", "reconf", "committed"
    );
    for (name, report) in rows {
        println!(
            "{:<36} {:>10} {:>12.0} {:>12.3} {:>8} {:>10}",
            name,
            report.replicas,
            report.throughput_tps(),
            report.avg_latency_secs(),
            report.reconfigurations,
            report.committed_txs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        std::env::remove_var("TB_BENCH_FULL");
        assert_eq!(Scale::from_env(), Scale::quick());
    }

    #[test]
    fn executor_cell_produces_positive_throughput() {
        let row = run_executor_cell(Engine::Thunderbolt, 2, 64, 0.85, 0.5, 128, 128, 0);
        assert!(row.throughput_tps > 0.0);
        assert_eq!(row.engine, "Thunderbolt");
        assert_eq!(row.batch, 64);
    }

    #[test]
    fn system_run_produces_a_report() {
        let mut scale = Scale::quick();
        scale.system_rounds = 6;
        scale.system_batch = 32;
        scale.system_executors = 2;
        scale.op_cost_ns = 0;
        scale.system_accounts = 64;
        let report = SystemRun::new(ExecutionMode::Thunderbolt, 4, scale).run();
        assert!(report.committed_txs > 0);
    }
}
