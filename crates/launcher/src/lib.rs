//! Process launcher for out-of-process Thunderbolt clusters.
//!
//! Takes a validated [`RealNetPlan`] (from
//! [`ScenarioBuilder::build_real_net`](tb_core::ScenarioBuilder::build_real_net)),
//! expands it into one [`NodeSpec`] per replica, spawns N copies of the
//! current executable as node processes on localhost TCP, and collects one
//! [`RunReport`] per process. Any binary can serve as the node image by
//! calling [`maybe_run_node_from_env`] at the top of `main` — the launcher
//! re-executes `std::env::current_exe()` with the spec hex-encoded in the
//! [`NODE_SPEC_ENV`] environment variable.
//!
//! # Stopping a cluster
//!
//! A node's stdin and stdout are pipes to the launcher, and the run ends by
//! agreement over them (the lifecycle in `tb_core::node`):
//!
//! * a node prints [`NODE_AT_TARGET_LINE`] when it reaches its commit
//!   target, and keeps serving its peers;
//! * once every node has printed that line or closed its stdout (exited,
//!   say after a crash), the launcher **releases** them all by closing
//!   their stdins, so no node leaves while a peer still needs it and a dead
//!   node holds no one back;
//! * a released node prints its report on one [`NODE_REPORT_PREFIX`] line
//!   and exits; the launcher reaps it when its stdout reaches EOF.
//!
//! A watchdog past the nodes' own deadline kills whatever is still running.
//!
//! After the cluster drains, the launcher checks **cross-node agreement**
//! (all nodes carry identical `(dag, round, digest)` commit samples on their
//! common prefix) and, optionally, runs an in-process **sim twin** of the
//! same scenario and compares its digests too — the lockstep determinism
//! argument in `docs/NET.md` says they must match for fault-free,
//! fully-single-shard scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tb_core::scenario::RealNetPlan;
use tb_core::{run_node, ClusterSimulation, NodeSpec, RoundCommitSample, RunReport};
use tb_network::FaultPlan;
use tb_types::wire::{from_hex, to_hex, Wire};

pub use tb_core::{NODE_AT_TARGET_LINE, NODE_REPORT_PREFIX};

/// Environment variable carrying the hex-encoded [`NodeSpec`] to a child
/// process. Its presence turns any cooperating binary into a node.
pub const NODE_SPEC_ENV: &str = "TB_NODE_SPEC";

/// Node-process dispatch hook. Call this first in `main` (and in
/// `harness = false` test mains) of every binary that may be re-executed as
/// a node, as `if maybe_run_node_from_env() { return; }`. Returns `false`
/// immediately when [`NODE_SPEC_ENV`] is unset. Otherwise it does not
/// return: the process runs as a node and ends in [`run_node`].
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
            eprintln!("node process: bad {NODE_SPEC_ENV}: {err}");
            std::process::exit(2);
        });
    let Err(err) = run_node(spec);
    eprintln!("node process: {err}");
    std::process::exit(1);
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
    /// Node 0's report, with the latency figures of every node pooled
    /// ([`RunReport::pool_latency`]): the mean covers every node's timed
    /// transactions, the quantiles are node 0's.
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
    let ports = reserve_ports(plan.config.system.n_replicas)?;
    Ok((0..plan.config.system.n_replicas)
        .map(|node| NodeSpec {
            node,
            ports: ports.clone(),
            run_deadline_millis: options.node_deadline.as_millis() as u64,
            config: plan.config.clone(),
            smallbank: plan.smallbank,
        })
        .collect())
}

/// Runs the plan as `n` OS processes (re-executing the current binary, see
/// [`maybe_run_node_from_env`]) and gathers every node's report.
pub fn run_real_net_scenario(
    plan: &RealNetPlan,
    options: &LaunchOptions,
) -> io::Result<RealNetOutcome> {
    let shipped: Vec<Vec<u8>> = node_specs(plan, options)?
        .iter()
        .map(Wire::to_wire_bytes)
        .collect();
    let exe = std::env::current_exe()?;
    let mut nodes: Vec<Child> = Vec::with_capacity(shipped.len());
    for spec in &shipped {
        let child = Command::new(&exe)
            .env(NODE_SPEC_ENV, to_hex(spec))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(child) => nodes.push(child),
            Err(err) => {
                nodes.iter_mut().for_each(kill);
                return Err(err);
            }
        }
    }

    // Nodes self-terminate at their own deadline; the watchdog margin only
    // catches a hung child (which would otherwise hang CI).
    let watchdog = Instant::now() + options.node_deadline + Duration::from_secs(15);
    let reports = supervise(nodes, watchdog)?
        .iter()
        .enumerate()
        .map(|(i, stdout)| parse_report(i, stdout))
        .collect::<io::Result<Vec<_>>>()?;

    let nodes_agree = reports.iter().all(|r| !r.round_commits.is_empty())
        && reports
            .windows(2)
            .all(|pair| prefixes_agree(&pair[0].round_commits, &pair[1].round_commits));

    // Each node timed the transactions it proposed, on its own clock. Its
    // histogram is not shipped, so the quantiles stay node 0's.
    let mut observer = reports[0].clone();
    observer.pool_latency(&reports);

    let (sim_digest_checked, sim_digest_match, sim_report) = if options.check_sim_digest {
        // The twin runs what node 0 decoded, not `plan` directly, so a knob
        // the spec failed to carry shows up as a mismatch.
        let spec = NodeSpec::from_wire_bytes(&shipped[0])
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        let mut sim = ClusterSimulation::new(spec.config, spec.smallbank, FaultPlan::none());
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

/// What a node's stdout reader tells [`supervise`].
enum NodeEvent {
    /// Node `i` printed [`NODE_AT_TARGET_LINE`].
    AtTarget(usize),
    /// Node `i`'s stdout reached EOF; the string is all it printed.
    Closed(usize, String),
}

/// Runs the stop protocol over spawned nodes whose stdin and stdout are
/// piped, and returns each one's stdout, in spawn order.
///
/// Each stdout is read on a thread of its own from the start, so a report
/// line longer than the pipe buffer never leaves a node blocked in `write`,
/// unable to exit. Once every node has printed [`NODE_AT_TARGET_LINE`] or
/// closed its stdout, every stdin is closed: that releases the nodes. A
/// node is reaped as soon as its stdout closes, which for a node process
/// means it has exited. At `watchdog` the nodes still running are killed
/// and the run fails.
fn supervise(mut nodes: Vec<Child>, watchdog: Instant) -> io::Result<Vec<String>> {
    let (events, inbox) = mpsc::channel();
    let mut stdins = Vec::with_capacity(nodes.len());
    let mut readers = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter_mut().enumerate() {
        stdins.push(node.stdin.take());
        let (stdout, events) = (node.stdout.take(), events.clone());
        readers.push(std::thread::spawn(move || read_stdout(i, stdout, events)));
    }
    drop(events);

    let mut at_target = vec![false; nodes.len()];
    let mut stdouts: Vec<Option<String>> = vec![None; nodes.len()];
    while stdouts.iter().any(Option::is_none) {
        let wait = watchdog.saturating_duration_since(Instant::now());
        match inbox.recv_timeout(wait) {
            Ok(NodeEvent::AtTarget(i)) => at_target[i] = true,
            Ok(NodeEvent::Closed(i, stdout)) => {
                at_target[i] = true;
                nodes[i].wait()?;
                stdouts[i] = Some(stdout);
            }
            Err(_) => {
                // The readers of the killed nodes end when their pipes close.
                let hung: Vec<usize> = (0..nodes.len()).filter(|&i| stdouts[i].is_none()).collect();
                for &i in &hung {
                    kill(&mut nodes[i]);
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("nodes {hung:?} exceeded their deadline and were killed"),
                ));
            }
        }
        if at_target.iter().all(|&reached| reached) {
            // Dropping a child's stdin handle closes the pipe.
            stdins.clear();
        }
    }
    // Every reader has sent its last event, so these joins return at once.
    for reader in readers {
        reader
            .join()
            .map_err(|_| io::Error::other("a node's stdout reader panicked"))?;
    }
    Ok(stdouts.into_iter().flatten().collect())
}

/// Reads node `i`'s stdout to EOF, reporting [`NODE_AT_TARGET_LINE`] when it
/// comes and everything read when the pipe closes.
fn read_stdout(i: usize, stdout: Option<ChildStdout>, events: mpsc::Sender<NodeEvent>) {
    let mut out = Vec::new();
    if let Some(stdout) = stdout {
        let mut stdout = BufReader::new(stdout);
        loop {
            let line_at = out.len();
            match stdout.read_until(b'\n', &mut out) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if out[line_at..].trim_ascii_end() == NODE_AT_TARGET_LINE.as_bytes() {
                        // A send fails only once the supervisor has given
                        // up on the run; nothing is left to tell then.
                        let _ = events.send(NodeEvent::AtTarget(i));
                    }
                }
            }
        }
    }
    let _ = events.send(NodeEvent::Closed(
        i,
        String::from_utf8_lossy(&out).into_owned(),
    ));
}

/// Kills a node and reaps it.
fn kill(node: &mut Child) {
    let _ = node.kill();
    let _ = node.wait();
}

/// Decodes the report line node `i` printed.
fn parse_report(i: usize, stdout: &str) -> io::Result<RunReport> {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix(NODE_REPORT_PREFIX))
        .and_then(|hex| from_hex(hex.trim()).ok())
        .and_then(|bytes| RunReport::from_wire_bytes(&bytes).ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node {i} exited without a parsable {NODE_REPORT_PREFIX}line"),
            )
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

    /// A report of ~3 000 commit samples is one stdout line well past the
    /// 64 KiB pipe buffer; the child can finish writing it, and exit, only
    /// because its stdout is drained while it runs.
    #[test]
    fn a_report_longer_than_the_pipe_buffer_is_collected() {
        let report = RunReport {
            label: "long".to_string(),
            round_commits: (0..3_000)
                .map(|i| sample(2 * i + 1, 0x0123_4567_89ab_cdef ^ i))
                .collect(),
            ..RunReport::default()
        };
        let line = format!("{NODE_REPORT_PREFIX}{}\n", to_hex(&report.to_wire_bytes()));
        assert!(line.len() > 64 * 1024, "{} bytes", line.len());
        let path = std::env::temp_dir().join(format!("tb-long-report-{}", std::process::id()));
        std::fs::write(&path, line).expect("temp file written");
        let started = Instant::now();
        let stdouts = supervise(
            vec![sh(&format!("cat '{}'", path.display()))],
            started + Duration::from_secs(10),
        );
        let _ = std::fs::remove_file(&path);
        let collected = parse_report(0, &stdouts.expect("stdout collected")[0]);
        assert_eq!(collected.expect("report collected"), report);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// A fake node: `sh -c script`, with stdin and stdout piped as the
    /// launcher pipes a node's.
    fn sh(script: &str) -> Child {
        Command::new("sh")
            .arg("-c")
            .arg(script)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("sh spawns")
    }

    /// Node 0 reaches its target at once, node 1 only after 300 ms and
    /// node 2 exits without announcing. Node 0 waits on its stdin and then
    /// looks for the file node 1 creates just before it announces: no stdin
    /// closes before every node has announced or exited.
    #[test]
    fn no_node_is_released_before_every_node_announced_or_exited() {
        let path = std::env::temp_dir().join(format!("tb-announced-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let flag = path.display();
        let started = Instant::now();
        let stdouts = supervise(
            vec![
                sh(&format!(
                    "echo {NODE_AT_TARGET_LINE}; cat >/dev/null; \
                     if [ -e '{flag}' ]; then echo released-after; else echo released-early; fi"
                )),
                sh(&format!(
                    "sleep 0.3; touch '{flag}'; echo {NODE_AT_TARGET_LINE}; \
                     cat >/dev/null; echo released"
                )),
                sh("sleep 0.1; exit 3"),
            ],
            started + Duration::from_secs(10),
        )
        .expect("every node exits");
        let _ = std::fs::remove_file(&path);
        assert!(stdouts[0].contains("released-after"), "{stdouts:?}");
        assert!(stdouts[1].contains("released"), "{stdouts:?}");
        assert!(started.elapsed() >= Duration::from_millis(300));
    }

    /// A node that exits without announcing, as a crashed node does, counts
    /// as announced: its peer is released at once, not at the watchdog.
    #[test]
    fn a_node_that_exits_without_announcing_releases_the_others() {
        let started = Instant::now();
        let stdouts = supervise(
            vec![
                sh(&format!(
                    "echo {NODE_AT_TARGET_LINE}; cat >/dev/null; echo released"
                )),
                sh("exit 3"),
            ],
            started + Duration::from_secs(30),
        )
        .expect("every node exits");
        assert!(stdouts[0].contains("released"), "{stdouts:?}");
        assert_eq!(stdouts[1], "");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "released after {:?}",
            started.elapsed()
        );
    }

    /// Released nodes take 500 ms to exit; the supervisor reaps them when
    /// their stdout closes, well within a second of the last exit.
    #[test]
    fn nodes_are_reaped_within_a_second_of_the_last_exit() {
        let script = format!("echo {NODE_AT_TARGET_LINE}; cat >/dev/null; sleep 0.5");
        let started = Instant::now();
        let stdouts = supervise(
            vec![sh(&script), sh(&script), sh(&script)],
            started + Duration::from_secs(30),
        )
        .expect("every node exits");
        let elapsed = started.elapsed();
        assert_eq!(stdouts.len(), 3);
        assert!(elapsed >= Duration::from_millis(500), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(1_500), "{elapsed:?}");
    }

    /// A node that never announces and never exits is killed at the
    /// watchdog, and so are its peers waiting to be released.
    #[test]
    fn the_watchdog_kills_a_hung_cluster() {
        let started = Instant::now();
        let outcome = supervise(
            vec![
                sh(&format!("echo {NODE_AT_TARGET_LINE}; cat >/dev/null")),
                sh("cat >/dev/null"),
            ],
            started + Duration::from_millis(300),
        );
        let err = outcome.expect_err("the watchdog fires");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(started.elapsed() < Duration::from_secs(5));
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
        assert_eq!(specs[2].node, 2);
        for spec in &specs {
            assert_eq!(spec.config, plan.config);
            assert_eq!(spec.smallbank, plan.smallbank);
        }
        // Distinct reserved ports.
        let mut ports = specs[0].ports.clone();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
    }
}
