//! Process launcher for out-of-process Thunderbolt clusters.
//!
//! Takes a validated [`RealNetPlan`] (from
//! [`ScenarioBuilder::build_real_net`](tb_core::ScenarioBuilder::build_real_net)),
//! expands it into one [`NodeSpec`] per replica, spawns N copies of the
//! current executable as node processes on localhost TCP, and collects one
//! [`RunReport`] per process. Any binary can serve as the node image by
//! calling [`maybe_run_node_from_env`] at the top of `main` — the launcher
//! re-executes `std::env::current_exe()` with the spec hex-encoded in the
//! [`NODE_SPEC_ENV`] environment variable, and the child answers with a
//! single `TB_NODE_REPORT <hex>` line on stdout.
//!
//! After the cluster drains, the launcher checks **cross-node agreement**
//! (all nodes carry identical `(dag, round, digest)` commit samples on their
//! common prefix) and, optionally, runs an in-process **sim twin** of the
//! same scenario and compares its digests too — the lockstep determinism
//! argument in `docs/NET.md` says they must match for fault-free,
//! fully-single-shard scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tb_core::scenario::RealNetPlan;
use tb_core::{run_node, ClusterSimulation, NodeSpec, RoundCommitSample, RunReport};
use tb_network::FaultPlan;
use tb_types::wire::{from_hex, to_hex, Wire};

/// Environment variable carrying the hex-encoded [`NodeSpec`] to a child
/// process. Its presence turns any cooperating binary into a node.
pub const NODE_SPEC_ENV: &str = "TB_NODE_SPEC";

/// Prefix of the single stdout line a node process answers with.
pub const NODE_REPORT_PREFIX: &str = "TB_NODE_REPORT ";

/// Node-process dispatch hook. Call this first in `main` (and in
/// `harness = false` test mains) of every binary that may be re-executed as
/// a node. Returns `false` immediately when [`NODE_SPEC_ENV`] is unset;
/// otherwise runs the node to completion, prints its report line and
/// returns `true` so the caller can exit.
///
/// A malformed spec or a node failure terminates the process with a nonzero
/// exit code — the launcher surfaces the missing report.
pub fn maybe_run_node_from_env() -> bool {
    let Ok(hex) = std::env::var(NODE_SPEC_ENV) else {
        return false;
    };
    let spec = from_hex(&hex)
        .and_then(|bytes| NodeSpec::from_wire_bytes(&bytes))
        .unwrap_or_else(|err| {
            eprintln!("thunderbolt-node: bad {NODE_SPEC_ENV}: {err}");
            std::process::exit(2);
        });
    match run_node(spec) {
        Ok(report) => {
            println!("{NODE_REPORT_PREFIX}{}", to_hex(&report.to_wire_bytes()));
            true
        }
        Err(err) => {
            eprintln!("thunderbolt-node: {err}");
            std::process::exit(1);
        }
    }
}

/// Knobs of one launcher invocation.
#[derive(Clone, Debug)]
pub struct LaunchOptions {
    /// Hard wall-clock deadline handed to every node process.
    pub node_deadline: Duration,
    /// Also run an in-process sim twin of the scenario and digest-compare
    /// it against node 0. Only meaningful for lockstep scenarios with
    /// `cross_shard_fraction == 0.0` (see `docs/NET.md`); the result lands
    /// in [`RealNetOutcome::sim_digest_match`].
    pub check_sim_digest: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            node_deadline: Duration::from_secs(60),
            check_sim_digest: false,
        }
    }
}

/// What a real-net run produced.
#[derive(Clone, Debug)]
pub struct RealNetOutcome {
    /// One report per node, indexed by replica id.
    pub reports: Vec<RunReport>,
    /// Node 0's report.
    pub observer: RunReport,
    /// All nodes carry identical `(dag, round, digest)` samples on the
    /// common prefix of their commit sequences, and every node committed
    /// at least one round.
    pub nodes_agree: bool,
    /// Whether the in-process sim twin ran.
    pub sim_digest_checked: bool,
    /// Sim twin's commit samples prefix-match node 0's (`false` whenever
    /// the twin did not run).
    pub sim_digest_match: bool,
    /// The sim twin's report, when it ran.
    pub sim_report: Option<RunReport>,
}

/// Expands the plan into per-node specs on freshly reserved localhost
/// ports. Exposed for tests; most callers want [`run_real_net_scenario`].
pub fn node_specs(plan: &RealNetPlan, options: &LaunchOptions) -> io::Result<Vec<NodeSpec>> {
    let n = plan.config.system.n_replicas;
    let ports = reserve_ports(n)?;
    let template = NodeSpec {
        node: 0,
        replicas: n,
        ports,
        mode: plan.config.mode,
        seed: plan.config.seed,
        lockstep: plan.config.lockstep,
        use_skip_blocks: plan.config.use_skip_blocks,
        max_rounds: plan.config.system.max_rounds,
        executors: plan.config.system.ce.executors as u32,
        batch: plan.config.system.ce.batch_size as u32,
        max_retries: plan.config.system.ce.max_retries as u64,
        validators: plan.config.system.validators as u32,
        op_cost_ns: plan.config.system.ce.synthetic_op_cost_ns,
        reconfig: plan.config.system.reconfig,
        label: plan.config.label.clone().unwrap_or_default(),
        run_deadline_millis: options.node_deadline.as_millis() as u64,
        smallbank: plan.smallbank,
        storage: plan.config.system.storage.clone(),
    };
    Ok((0..n)
        .map(|i| NodeSpec {
            node: i,
            ..template.clone()
        })
        .collect())
}

/// Runs the plan as `n` OS processes (re-executing the current binary, see
/// [`maybe_run_node_from_env`]) and gathers every node's report.
pub fn run_real_net_scenario(
    plan: &RealNetPlan,
    options: &LaunchOptions,
) -> io::Result<RealNetOutcome> {
    let specs = node_specs(plan, options)?;
    let exe = std::env::current_exe()?;
    let mut children: Vec<Child> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let child = Command::new(&exe)
            .env(NODE_SPEC_ENV, to_hex(&spec.to_wire_bytes()))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(child) => children.push(child),
            Err(err) => {
                for mut child in children {
                    let _ = child.kill();
                }
                return Err(err);
            }
        }
    }

    // Nodes self-terminate at their own deadline; the watchdog margin only
    // catches a hung child (which would otherwise hang CI).
    let watchdog = Instant::now() + options.node_deadline + Duration::from_secs(15);
    let mut reports = Vec::with_capacity(children.len());
    for (i, mut child) in children.into_iter().enumerate() {
        loop {
            match child.try_wait()? {
                Some(_) => break,
                None if Instant::now() >= watchdog => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("node {i} exceeded its deadline and was killed"),
                    ));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            let _ = pipe.read_to_string(&mut stdout);
        }
        let report = stdout
            .lines()
            .find_map(|line| line.strip_prefix(NODE_REPORT_PREFIX))
            .and_then(|hex| from_hex(hex.trim()).ok())
            .and_then(|bytes| RunReport::from_wire_bytes(&bytes).ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node {i} exited without a parsable {NODE_REPORT_PREFIX}line"),
                )
            })?;
        reports.push(report);
    }

    let nodes_agree = reports.iter().all(|r| !r.round_commits.is_empty())
        && reports
            .windows(2)
            .all(|pair| prefixes_agree(&pair[0].round_commits, &pair[1].round_commits));

    let observer = reports[0].clone();

    let (sim_digest_checked, sim_digest_match, sim_report) = if options.check_sim_digest {
        // The twin runs the configuration *as the nodes rebuilt it* — not
        // `plan.config` directly — so a knob NodeSpec cannot carry can never
        // silently diverge between the two paths.
        let mut sim =
            ClusterSimulation::new(specs[0].cluster_config(), plan.smallbank, FaultPlan::none());
        let sim_run = sim.run();
        let matches = !sim_run.round_commits.is_empty()
            && !reports[0].round_commits.is_empty()
            && prefixes_agree(&sim_run.round_commits, &reports[0].round_commits);
        (true, matches, Some(sim_run))
    } else {
        (false, false, None)
    };

    Ok(RealNetOutcome {
        reports,
        observer,
        nodes_agree,
        sim_digest_checked,
        sim_digest_match,
        sim_report,
    })
}

/// `(dag, round, digest)` equality over the common prefix of two commit
/// sample sequences; `committed_at` is timing and deliberately ignored.
pub fn prefixes_agree(a: &[RoundCommitSample], b: &[RoundCommitSample]) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| x.dag == y.dag && x.round == y.round && x.digest == y.digest)
}

/// Reserves `n` distinct localhost ports by binding ephemeral listeners and
/// recording their ports before dropping them. A racing process could grab
/// a port between reservation and node start-up; node dial retries and the
/// launcher's agreement checks turn that rare race into a clean failure
/// rather than silent corruption.
fn reserve_ports(n: u32) -> io::Result<Vec<u16>> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners
        .iter()
        .map(|listener| listener.local_addr().map(|addr| addr.port()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_core::ScenarioBuilder;
    use tb_types::Round;
    use tb_types::SimTime;

    fn sample(round: u64, digest: u64) -> RoundCommitSample {
        RoundCommitSample {
            dag: 0,
            round: Round::new(round),
            committed_at: SimTime::from_millis(round),
            digest,
        }
    }

    #[test]
    fn prefix_agreement_ignores_timing_and_length() {
        let a = vec![sample(1, 10), sample(3, 20)];
        let mut b = vec![sample(1, 10), sample(3, 20), sample(5, 30)];
        b[0].committed_at = SimTime::from_secs(99);
        assert!(prefixes_agree(&a, &b));
        b[1].digest = 21;
        assert!(!prefixes_agree(&a, &b));
        assert!(prefixes_agree(&[], &a));
    }

    #[test]
    fn node_specs_share_everything_but_identity() {
        let plan = ScenarioBuilder::new(4)
            .lockstep()
            .rounds(8)
            .storage(tb_types::StorageConfig::wal("/tmp/tb-launcher-test"))
            .build_real_net()
            .expect("default scenario is launchable");
        let specs = node_specs(&plan, &LaunchOptions::default()).expect("ports reserved");
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].ports, specs[3].ports);
        assert_eq!(specs[0].ports.len(), 4);
        assert!(specs[2].lockstep);
        assert_eq!(specs[2].node, 2);
        assert_eq!(
            specs[1].storage,
            tb_types::StorageConfig::wal("/tmp/tb-launcher-test")
        );
        assert_eq!(
            specs[1].cluster_config().system.storage,
            tb_types::StorageConfig::wal("/tmp/tb-launcher-test")
        );
        // Distinct reserved ports.
        let mut ports = specs[0].ports.clone();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
    }

    #[test]
    fn every_node_rebuilds_the_plan_system_config() {
        let plan = ScenarioBuilder::new(4)
            .lockstep()
            .rounds(12)
            .executors(3, 48)
            .validators(5)
            .reconfig(tb_types::ReconfigConfig::new(3, 9))
            .storage(tb_types::StorageConfig::wal("/tmp/tb-launcher-test"))
            .tune(|system| {
                system.ce.max_retries = 11;
                system.ce.synthetic_op_cost_ns = 250;
            })
            .build_real_net()
            .expect("scenario is launchable");
        for spec in node_specs(&plan, &LaunchOptions::default()).expect("ports reserved") {
            let mut rebuilt = spec.cluster_config().system;
            // The one knob a real network has no use for.
            rebuilt.latency = plan.config.system.latency;
            assert_eq!(rebuilt, plan.config.system, "node {}", spec.node);
        }
    }
}
