//! End-to-end runs: each repeat in a fresh child process, repeats interleaved
//! round-robin across workloads, every metric summarised over the repeats.

use crate::json::Json;
use crate::stats::Metric;
use crate::workloads::{Net, Spec, BATCH, REPLICAS};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long to keep repeating a workload.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Repeats(usize),
    /// At least [`MIN_TIMED_REPEATS`], then until this much wall time has
    /// gone into the workload's repeats.
    Seconds(f64),
}

/// Fewer samples than this give no quartiles worth the name.
const MIN_TIMED_REPEATS: usize = 3;

/// Everything the repeats of one workload produced.
pub struct WorkloadRun {
    pub spec: &'static Spec,
    pub rounds: u64,
    pub repeats: Vec<Json>,
    /// Failed correctness checks, crashed children, digest mismatches.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    elapsed: Duration,
    /// Set when a child produced no report: such a workload is not retried
    /// for the rest of the budget.
    abandoned: bool,
}

impl WorkloadRun {
    fn wants_more(&self, budget: Budget) -> bool {
        if self.abandoned {
            return false;
        }
        match budget {
            Budget::Repeats(k) => self.repeats.len() < k,
            Budget::Seconds(s) => {
                self.repeats.len() < MIN_TIMED_REPEATS || self.elapsed.as_secs_f64() < s
            }
        }
    }

    /// The commit digest after the target number of rounds, when it is a
    /// function of the seed.
    pub fn fingerprint(&self) -> Option<&str> {
        self.spec
            .digest_repeats
            .then(|| self.repeats.first()?.str("fingerprint"))
            .flatten()
    }

    fn column(&self, field: &str) -> Vec<f64> {
        self.repeats.iter().filter_map(|r| r.num(field)).collect()
    }

    fn total(&self, field: &str) -> f64 {
        self.column(field).iter().sum()
    }

    fn per_committed(&self, field: &str) -> Vec<f64> {
        self.repeats
            .iter()
            .filter_map(|r| Some(r.num(field)? / r.num("committed_txs")?))
            .collect()
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let cpu_us_per_tx: Vec<f64> = self
            .per_committed("cpu_s")
            .iter()
            .map(|s| s * 1e6)
            .collect();
        [
            Metric::sampled("commit_tps", "tx/s", &self.column("commit_tps")),
            Metric::sampled(
                "tx_latency_mean_ms",
                "ms",
                &self.column("tx_latency_mean_ms"),
            ),
            Metric::sampled("cpu_us_per_tx", "us", &cpu_us_per_tx),
            Metric::sampled("wire_bytes_per_tx", "B", &self.per_committed("bytes_sent")),
            Metric::sampled("setup_s", "s", &self.column("setup_s")),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Per-layer figures read from the repeats' `RunReport` fields.
    pub fn core_layer(&self) -> Vec<Metric> {
        let committed = self.total("committed_txs").max(1.0);
        let share_of_duration = |field: &str| -> Vec<f64> {
            self.repeats
                .iter()
                .filter_map(|r| Some(r.num(field)? / r.num("duration_s")?))
                .collect()
        };
        let mut intervals: Vec<f64> = self
            .repeats
            .iter()
            .flat_map(|r| {
                let times: Vec<f64> = r
                    .arr("commit_times_ms")
                    .iter()
                    .filter_map(|t| match t {
                        Json::Num(v) => Some(*v),
                        _ => None,
                    })
                    .collect();
                times.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
            })
            .collect();
        intervals.sort_by(f64::total_cmp);
        // The TCP observer is a `NodeReport` folded into a `RunReport`; it
        // does not carry stage timers, re-executions or apply calls, and the
        // peak RSS read here is the launcher's, not a node's.
        let sim = self.spec.net == Net::Sim;
        let mark = |metric: Metric| if sim { metric } else { metric.unmeasured() };
        let mut out = vec![
            Metric::single(
                "core.single_share",
                "ratio",
                self.total("single_shard_txs") / committed,
            ),
            Metric::single("core.invalid_blocks", "count", self.total("invalid_blocks")),
            mark(Metric::single(
                "core.reexec_per_tx",
                "count",
                self.total("reexecutions") / committed,
            )),
            Metric::single(
                "core.msgs_per_tx",
                "count",
                self.total("msgs_sent") / committed,
            ),
            mark(Metric::single(
                "core.apply_calls_per_commit",
                "count",
                self.total("apply_calls") / self.total("round_commits").max(1.0),
            )),
            Metric::single(
                "core.commit_interval_p50_ms",
                "ms",
                percentile(&intervals, 0.50),
            ),
            Metric::single(
                "core.commit_interval_p99_ms",
                "ms",
                percentile(&intervals, 0.99),
            ),
        ];
        let sampled = [
            (
                "core.validate_busy_share",
                "ratio",
                share_of_duration("validate_busy_s"),
                sim,
            ),
            (
                "core.apply_busy_share",
                "ratio",
                share_of_duration("apply_busy_s"),
                sim,
            ),
            (
                "core.execute_busy_share",
                "ratio",
                share_of_duration("execute_busy_s"),
                sim,
            ),
            (
                "core.tx_latency_p50_ms",
                "ms",
                self.column("tx_latency_p50_ms"),
                true,
            ),
            (
                "core.tx_latency_p99_ms",
                "ms",
                self.column("tx_latency_p99_ms"),
                true,
            ),
            ("core.peak_rss_mb", "MiB", self.column("peak_rss_mb"), sim),
            ("core.wall_s", "s", self.column("wall_s"), true),
        ];
        for (name, unit, samples, measured) in sampled {
            if let Some(metric) = Metric::sampled(name, unit, &samples) {
                out.push(if measured {
                    metric
                } else {
                    metric.unmeasured()
                });
            }
        }
        out
    }
}

/// Nearest-rank percentile of sorted samples; 0 with none.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs one repeat of `spec` in a child process and returns its report.
fn run_child(spec: &Spec, seed: u64, rounds: u64, with_twin: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["repeat", "--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if with_twin {
        command.arg("--twin");
    }
    // `output` waits for the child, so its CPU time and its node processes'
    // are accounted before the next repeat starts.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last_line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match (output.status.success(), last_line) {
        (true, Some(line)) => {
            Json::parse(line).map_err(|e| format!("unreadable repeat report: {e}"))
        }
        _ => Err(format!("repeat process ended with {}", output.status)),
    }
}

/// Runs the given workloads' repeats, one workload after the other within a
/// pass and pass after pass, so slow drift of the host lands on all of them
/// alike.
pub fn run(
    specs: &[&'static Spec],
    seed: u64,
    rounds_divisor: u64,
    budget: Budget,
) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = specs
        .iter()
        .map(|spec| WorkloadRun {
            spec,
            rounds: (spec.rounds / rounds_divisor).max(4),
            repeats: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            abandoned: false,
        })
        .collect();
    while runs.iter().any(|run| run.wants_more(budget)) {
        for run in runs.iter_mut().filter(|run| run.wants_more(budget)) {
            let started = Instant::now();
            // The sim twin of the TCP cluster is checked once per workload.
            let with_twin =
                run.spec.net == Net::Tcp && run.repeats.is_empty() && run.failures.is_empty();
            let outcome = run_child(run.spec, seed, run.rounds, with_twin);
            run.elapsed += started.elapsed();
            run.abandoned = outcome.is_err();
            run.record(outcome);
        }
    }
    for run in &mut runs {
        run.check_digests();
    }
    runs
}

impl WorkloadRun {
    fn record(&mut self, outcome: Result<Json, String>) {
        let nominal = self.rounds * u64::from(REPLICAS) * BATCH as u64;
        let report = match outcome {
            Ok(report) => report,
            Err(reason) => {
                self.failures.push(reason);
                self.attempted += nominal;
                self.failed += nominal;
                return;
            }
        };
        let committed = report.num("committed_txs").unwrap_or(0.0) as u64;
        let discarded = report.num("invalid_blocks").unwrap_or(0.0) as u64 * BATCH as u64;
        let repeat_failures: Vec<String> = report
            .arr("failures")
            .iter()
            .filter_map(|f| match f {
                Json::Str(s) => Some(format!("repeat {}: {s}", self.repeats.len() + 1)),
                _ => None,
            })
            .collect();
        self.attempted += committed + discarded;
        // Every transaction of a repeat that fails a correctness check
        // counts as failed; otherwise only those in discarded blocks.
        self.failed += if repeat_failures.is_empty() {
            discarded
        } else {
            committed + discarded
        };
        self.failures.extend(repeat_failures);
        self.repeats.push(report);
    }

    fn check_digests(&mut self) {
        if !self.spec.digest_repeats {
            return;
        }
        let mut digests: Vec<&str> = self
            .repeats
            .iter()
            .filter_map(|r| r.str("fingerprint"))
            .collect();
        digests.dedup();
        if digests.len() > 1 {
            self.failures.push(format!(
                "commit digest differs between repeats of one seed: {digests:?}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
