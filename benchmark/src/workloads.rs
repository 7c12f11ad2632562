//! The benchmark's workloads and one end-to-end repeat of each.
//!
//! Everything here goes through the public façade: `ScenarioBuilder`,
//! `ClusterSimulation::run`, `check_honest_agreement`, and for the TCP
//! cluster `build_real_net` + `tb_launcher::run_real_net_scenario`, whose
//! result is read only through `RealNetOutcome::observer` and `nodes_agree`.

use crate::host;
use crate::json::{obj, Json};
use std::time::{Duration, Instant};
use tb_launcher::{prefixes_agree, run_real_net_scenario, LaunchOptions};
use thunderbolt::prelude::*;

/// Committee size: the minimum that tolerates one fault, one shard each.
pub const REPLICAS: u32 = 4;
/// Transactions per block.
pub const BATCH: usize = 200;
/// SmallBank account pool; small enough that Zipf 0.85 makes blocks conflict.
pub const ACCOUNTS: u64 = 1_000;

/// How many times a sim repeat builds its cluster to time set-up.
const SETUP_BUILDS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Four replicas in one process over `SimNetwork` with LAN delay.
    Sim,
    /// Four OS processes over localhost TCP, each with a WAL store.
    Tcp,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub net: Net,
    pub cross_shard_fraction: f64,
    /// DAG rounds per repeat; a repeat ends after `rounds / 2` leader commits.
    pub rounds: u64,
    /// Preplay executor threads asked for.
    pub executors: usize,
    /// Validation and wave-execution workers asked for.
    pub validators: usize,
    /// Whether block content is a function of the seed alone, so the commit
    /// digest must repeat. False where the single/cross split depends on
    /// message timing: such a workload is run and reported, but it is too
    /// unsteady to gate anything and `BENCHMARK.json` does not name it.
    pub digest_repeats: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sim-single",
        why: "all single-shard: preplay, block digests, validate and apply do the work, cross-shard execute none (pure EOV path)",
        net: Net::Sim,
        cross_shard_fraction: 0.0,
        rounds: 400,
        // One executor, not the two the host has cores for: with two, the
        // concurrent executor's workers contend so hard that throughput
        // halves for minutes at a time, depending on how the host places the
        // two vCPUs (see the README). Two workers are measured by the
        // executor probes, which gate nothing.
        executors: 1,
        validators: 2,
        digest_repeats: true,
    },
    Spec {
        name: "sim-cross",
        why: "all cross-shard: post-consensus wave execution does the work, preplay and validation none (pure OE path)",
        net: Net::Sim,
        cross_shard_fraction: 1.0,
        rounds: 120,
        executors: 2,
        validators: 2,
        digest_repeats: true,
    },
    Spec {
        name: "sim-mixed",
        why: "20% cross-shard: both paths in one run, ordered against each other by the P3/P4 conversion rule",
        net: Net::Sim,
        cross_shard_fraction: 0.2,
        rounds: 160,
        executors: 2,
        validators: 2,
        digest_repeats: false,
    },
    Spec {
        name: "tcp-durable",
        why: "4 OS processes over localhost TCP with WAL stores: the only workload with wire codec, sockets, node loop and fsync on the wall-clock path",
        net: Net::Tcp,
        cross_shard_fraction: 0.0,
        rounds: 400,
        executors: 1,
        validators: 1,
        digest_repeats: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn smallbank(&self) -> SmallBankConfig {
        SmallBankConfig {
            accounts: ACCOUNTS,
            theta: 0.85,
            pr_read: 0.5,
            cross_shard_fraction: self.cross_shard_fraction,
            ..SmallBankConfig::default()
        }
    }

    /// The scenario both transports share. Lockstep makes block content and
    /// commit order a function of the seed; op cost 0 measures the system's
    /// own overhead instead of a synthetic spin.
    pub fn scenario(&self, seed: u64, rounds: u64) -> ScenarioBuilder {
        ScenarioBuilder::new(REPLICAS)
            .engine(ExecutionMode::Thunderbolt)
            .smallbank(self.smallbank())
            .latency(LatencyModel::lan())
            .executors(self.executors, BATCH)
            .validators(self.validators)
            .rounds(rounds)
            .seed(seed)
            .lockstep()
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
    }

    /// Runs one repeat in this process and reports it as a flat JSON object
    /// (the parent reads it from the child's stdout).
    pub fn run_repeat(&self, seed: u64, rounds: u64, with_twin: bool) -> Result<Json, String> {
        let measured = match self.net {
            Net::Sim => self.run_sim(seed, rounds)?,
            Net::Tcp => self.run_tcp(seed, rounds, with_twin)?,
        };
        Ok(measured.to_json(rounds))
    }

    fn run_sim(&self, seed: u64, rounds: u64) -> Result<Measured, String> {
        // Set-up is a millisecond: build several times and take the median,
        // so one page-fault storm does not decide the figure. The last
        // simulation built is the one that runs.
        let mut builds = Vec::with_capacity(SETUP_BUILDS);
        let mut sim = None;
        for _ in 0..SETUP_BUILDS {
            let started = Instant::now();
            sim = Some(self.scenario(seed, rounds).build());
            builds.push(started.elapsed());
        }
        builds.sort();
        let setup = builds[SETUP_BUILDS / 2];
        let mut sim = sim.expect("SETUP_BUILDS is at least one");

        let cpu_before = host::cpu_seconds();
        let run_started = Instant::now();
        let report = sim.run();
        let wall = run_started.elapsed();
        let cpu = host::cpu_seconds().zip(cpu_before).map(|(a, b)| a - b);

        Ok(Measured {
            agreement: check_honest_agreement(&sim, &[]),
            twin_matches: None,
            report,
            setup,
            wall,
            cpu,
        })
    }

    fn run_tcp(&self, seed: u64, rounds: u64, with_twin: bool) -> Result<Measured, String> {
        let data_dir = TempDir::new(self.name).map_err(|e| format!("temp dir: {e}"))?;
        let plan = self
            .scenario(seed, rounds)
            .storage(StorageConfig::wal(data_dir.path().to_string_lossy()))
            .build_real_net()
            .map_err(|e| e.to_string())?;
        let options = LaunchOptions {
            // A repeat takes seconds. The deadline bounds the rare repeat in
            // which a straggling node outlives its peers and keeps dialling
            // them (a known teardown race of the node loop, see the README).
            node_deadline: Duration::from_secs(30),
            // The sim twin runs below, outside the timed launch, so its CPU
            // and wall time stay out of this repeat's figures.
            check_sim_digest: false,
        };

        let cpu_before = host::cpu_seconds();
        let launch_started = Instant::now();
        let outcome = run_real_net_scenario(&plan, &options).map_err(|e| e.to_string())?;
        let wall = launch_started.elapsed();
        // The launcher has waited for all four node processes, so their CPU
        // is in this process's children counters now.
        let cpu = host::cpu_seconds().zip(cpu_before).map(|(a, b)| a - b);

        let report = outcome.observer;
        let twin_matches = with_twin.then(|| {
            let twin = self.scenario(seed, rounds).build().run();
            !twin.round_commits.is_empty()
                && prefixes_agree(&twin.round_commits, &report.round_commits)
        });
        // Everything the launcher spent outside node 0's own run clock:
        // spawning, connecting, opening WALs, the linger after the target.
        let setup = wall.saturating_sub(Duration::from_micros(report.duration.as_micros()));
        Ok(Measured {
            agreement: if outcome.nodes_agree {
                Ok(())
            } else {
                Err("node processes disagree on commit digests".to_string())
            },
            twin_matches,
            report,
            setup,
            wall,
            cpu,
        })
    }
}

/// One repeat's raw outcome.
struct Measured {
    report: RunReport,
    agreement: Result<(), String>,
    /// `Some` when the in-process sim twin ran (first TCP repeat only).
    twin_matches: Option<bool>,
    setup: Duration,
    wall: Duration,
    /// CPU seconds of the process tree during the timed run.
    cpu: Option<f64>,
}

impl Measured {
    fn to_json(&self, rounds: u64) -> Json {
        let report = &self.report;
        let target = (rounds / 2).max(1) as usize;
        let commit_times_ms: Vec<Json> = report
            .round_commits
            .iter()
            .map(|s| Json::Num(s.committed_at.as_secs_f64() * 1e3))
            .collect();
        // The digest after exactly `target` commits: a TCP node keeps
        // committing while it lingers, so its final digest covers a
        // timing-dependent number of rounds.
        let fingerprint = report
            .round_commits
            .get(target - 1)
            .map(|s| format!("{:016x}", s.digest))
            .unwrap_or_default();
        let mut failures = Vec::new();
        if report.round_commits.len() < target {
            failures.push(format!(
                "commit target missed: {} of {target} leader rounds",
                report.round_commits.len()
            ));
        }
        if let Err(violation) = &self.agreement {
            failures.push(format!("agreement: {violation}"));
        }
        if self.twin_matches == Some(false) {
            failures.push("TCP commit digests diverge from the in-process sim twin".to_string());
        }
        obj([
            (
                "failures",
                Json::Arr(failures.into_iter().map(Json::from).collect()),
            ),
            ("twin_checked", self.twin_matches.is_some().into()),
            ("fingerprint", fingerprint.into()),
            ("committed_txs", report.committed_txs.into()),
            ("single_shard_txs", report.single_shard_txs.into()),
            ("cross_shard_txs", report.cross_shard_txs.into()),
            ("invalid_blocks", report.invalid_blocks.into()),
            ("reexecutions", report.reexecutions.into()),
            ("round_commits", report.round_commits.len().into()),
            ("commit_tps", report.throughput_tps().into()),
            (
                "tx_latency_mean_ms",
                (report.avg_latency_secs() * 1e3).into(),
            ),
            ("tx_latency_p50_ms", (report.latency_p50_secs * 1e3).into()),
            ("tx_latency_p99_ms", (report.latency_p99_secs * 1e3).into()),
            ("duration_s", report.duration.as_secs_f64().into()),
            ("validate_busy_s", report.validate_busy_secs.into()),
            ("apply_busy_s", report.apply_busy_secs.into()),
            ("execute_busy_s", report.execute_busy_secs.into()),
            ("apply_calls", report.apply_calls.into()),
            ("msgs_sent", report.msgs_sent.into()),
            ("bytes_sent", report.bytes_sent.into()),
            ("commit_times_ms", Json::Arr(commit_times_ms)),
            ("setup_s", self.setup.as_secs_f64().into()),
            ("wall_s", self.wall.as_secs_f64().into()),
            ("cpu_s", self.cpu.map_or(Json::Null, Json::Num)),
            (
                "peak_rss_mb",
                host::peak_rss_mb().map_or(Json::Null, Json::Num),
            ),
        ])
    }
}
