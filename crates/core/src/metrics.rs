//! Run reports produced by a cluster run, simulated or over TCP.

use tb_types::{Round, SimTime};

/// Number of power-of-two microsecond buckets in a [`LatencyHistogram`].
const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` (for `i >= 1`) holds samples in `[2^(i-1), 2^i)` µs; bucket 0
/// holds sub-microsecond samples. Quantiles report the bucket's upper bound,
/// so they are conservative (never under-report) and deterministic — exactly
/// what a CI perf gate wants. Memory is constant regardless of run length,
/// so every committed transaction of a simulation can be recorded.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts.
    buckets: Vec<u64>,
    /// Total number of recorded samples.
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample given in seconds.
    pub fn record_secs(&mut self, secs: f64) {
        let micros = (secs.max(0.0) * 1e6) as u64;
        let bucket = if micros == 0 {
            0
        } else {
            (64 - micros.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in seconds: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th sample. Returns 0 with no
    /// samples.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper_micros = 1u64 << bucket;
                return upper_micros as f64 / 1e6;
            }
        }
        (1u64 << (HIST_BUCKETS - 1)) as f64 / 1e6
    }
}

/// Commit-time sample for one leader round (Figure 16 plots the average of
/// consecutive differences over windows of 100 rounds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundCommitSample {
    /// The DAG instance the round belongs to.
    pub dag: u64,
    /// The committed leader round.
    pub round: Round,
    /// Simulated time at which the round committed on the observer replica.
    pub committed_at: SimTime,
    /// Snapshot of the replica's cumulative FNV-1a commit-order digest after
    /// this round committed. Honest replicas that committed the same prefix
    /// carry identical `(dag, round, digest)` samples, which is what the
    /// chaos campaign's agreement invariant checks.
    pub digest: u64,
}

tb_types::wire_struct!(RoundCommitSample {
    dag,
    round,
    committed_at,
    digest: le
});

/// Aggregated result of one run, measured on the observer replica (replica 0
/// unless it is crashed). Honest replicas commit identical sequences, so any
/// observer yields the same counts. A node process of a TCP cluster reports
/// itself in the same shape (its [`Wire`](tb_types::wire::Wire) encoding is
/// what travels back to the launcher), with `duration` and commit times on
/// its wall clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Human-readable label of the system variant (Thunderbolt,
    /// Thunderbolt-OCC, Tusk).
    pub label: String,
    /// Stable name of the workload that drove the run (`smallbank`,
    /// `contract`, `kv-hot`, or a custom [`Workload::name`]); two runs of
    /// the same engine under different workloads are distinguishable by
    /// this field alone. Empty for reports built outside a cluster run.
    ///
    /// [`Workload::name`]: tb_workload::Workload::name
    pub workload: String,
    /// Number of replicas in the committee.
    pub replicas: u32,
    /// Total transactions committed (single-shard + cross-shard).
    pub committed_txs: u64,
    /// Committed single-shard (preplayed) transactions.
    pub single_shard_txs: u64,
    /// Committed cross-shard transactions.
    pub cross_shard_txs: u64,
    /// Preplayed blocks discarded by validation.
    pub invalid_blocks: u64,
    /// Total preplay re-executions reported by the concurrent executor /
    /// OCC preplayer on the observer replica.
    pub reexecutions: u64,
    /// Number of DAG reconfigurations that completed during the run.
    pub reconfigurations: u64,
    /// Total simulated duration of the run.
    pub duration: SimTime,
    /// Sum of per-transaction latencies (commit − submission) in seconds.
    pub total_latency_secs: f64,
    /// Median per-transaction commit latency in seconds (log₂-bucket upper
    /// bound, see [`LatencyHistogram`]).
    pub latency_p50_secs: f64,
    /// 99th-percentile per-transaction commit latency in seconds.
    pub latency_p99_secs: f64,
    /// Wall-clock seconds the observer's validation stage was busy.
    pub validate_busy_secs: f64,
    /// Wall-clock seconds the observer's storage-apply stage was busy.
    pub apply_busy_secs: f64,
    /// Wall-clock seconds the observer's cross-shard execution stage was
    /// busy.
    pub execute_busy_secs: f64,
    /// Write batches the pipelined commit path applied together with at
    /// least one other batch (0 on the serial path).
    pub coalesced_batches: u64,
    /// Storage apply calls the observer's commit path performed: one per
    /// valid block on the serial path; on the pipelined path one per commit,
    /// plus one per invalid block with valid blocks after it (see
    /// `docs/PIPELINE.md`).
    pub apply_calls: u64,
    /// FNV-1a digest over the committed transaction ids in commit order,
    /// as a 16-hex-digit string (a string so JSON consumers never round it
    /// to a 53-bit double). Two runs that committed the same transactions
    /// in the same order have the same digest. The converse needs care:
    /// outside lockstep, simulation schedules are timing-dependent, so
    /// digests from two independent runs of one scenario normally differ.
    pub commit_order_digest: String,
    /// Commit-time samples per leader round (for Figure 16).
    pub round_commits: Vec<RoundCommitSample>,
    /// Highest round reached on the observer replica.
    pub highest_round: Round,
    /// Messages handed to the simulated network during the run.
    pub msgs_sent: u64,
    /// Messages the network actually delivered.
    pub msgs_delivered: u64,
    /// Messages dropped by faults (crashes, silences, blocked links, random
    /// loss). Chaos runs assert this is visible rather than silently eaten.
    pub msgs_dropped: u64,
    /// Wire-encoded payload bytes handed to the transport during the run.
    /// Counts the message encoding only — length prefixes and handshakes are
    /// excluded — so simulated and real-TCP runs report comparable traffic.
    pub bytes_sent: u64,
    /// Wire-encoded payload bytes the transport actually delivered.
    pub bytes_delivered: u64,
    /// Scheduled faults the driver applied before the run ended.
    pub faults_applied: u64,
    /// Scheduled faults whose activation time the run never reached. A
    /// non-zero value means the fault schedule outlived the run — the
    /// scenario did not test what it claimed to.
    pub faults_unapplied: u64,
    /// The part of `total_latency_secs` the committed transactions spent in
    /// their proposer's client queue (submission to block creation); the
    /// rest is propose to commit.
    pub total_queue_wait_secs: f64,
}

tb_types::wire_struct!(RunReport {
    label,
    workload,
    replicas,
    committed_txs,
    single_shard_txs,
    cross_shard_txs,
    invalid_blocks,
    reexecutions,
    reconfigurations,
    duration,
    total_latency_secs,
    latency_p50_secs,
    latency_p99_secs,
    validate_busy_secs,
    apply_busy_secs,
    execute_busy_secs,
    coalesced_batches,
    apply_calls,
    commit_order_digest,
    round_commits,
    highest_round,
    msgs_sent,
    msgs_delivered,
    msgs_dropped,
    bytes_sent,
    bytes_delivered,
    faults_applied,
    faults_unapplied,
    total_queue_wait_secs,
});

impl RunReport {
    /// Throughput in transactions per second of simulated time.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed_txs as f64 / secs
    }

    /// Average end-to-end transaction latency in seconds.
    pub fn avg_latency_secs(&self) -> f64 {
        if self.committed_txs == 0 {
            return 0.0;
        }
        self.total_latency_secs / self.committed_txs as f64
    }

    /// Average time a committed transaction waited in its proposer's client
    /// queue, in seconds: the first part of [`avg_latency_secs`].
    ///
    /// [`avg_latency_secs`]: RunReport::avg_latency_secs
    pub fn avg_queue_wait_secs(&self) -> f64 {
        if self.committed_txs == 0 {
            return 0.0;
        }
        self.total_queue_wait_secs / self.committed_txs as f64
    }

    /// Average commit-to-commit runtime per leader round, over windows of
    /// `window` rounds (Figure 16 uses 100). Returns `(window end index,
    /// average seconds)` pairs.
    pub fn per_round_runtime(&self, window: usize) -> Vec<(usize, f64)> {
        if self.round_commits.len() < 2 || window == 0 {
            return Vec::new();
        }
        let mut deltas = Vec::with_capacity(self.round_commits.len() - 1);
        for pair in self.round_commits.windows(2) {
            deltas.push(
                pair[1]
                    .committed_at
                    .saturating_since(pair[0].committed_at)
                    .as_secs_f64(),
            );
        }
        deltas
            .chunks(window)
            .enumerate()
            .map(|(i, chunk)| {
                let avg = chunk.iter().sum::<f64>() / chunk.len() as f64;
                ((i + 1) * window, avg)
            })
            .collect()
    }

    /// The share of measured stage time spent in each commit stage, as
    /// `(validate, apply, execute)` fractions summing to 1 (all zero when
    /// nothing was measured).
    pub fn stage_occupancy(&self) -> (f64, f64, f64) {
        let total = self.validate_busy_secs + self.apply_busy_secs + self.execute_busy_secs;
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.validate_busy_secs / total,
            self.apply_busy_secs / total,
            self.execute_busy_secs / total,
        )
    }

    /// One-line summary used by the examples and the benchmark binaries.
    pub fn summary(&self) -> String {
        let scenario = if self.workload.is_empty() {
            self.label.clone()
        } else {
            format!("{} [{}]", self.label, self.workload)
        };
        format!(
            "{}: {} replicas, {} txs committed in {} ({:.0} tps, avg latency {:.3}s \
             of which {:.3}s queued, {} reconfigs)",
            scenario,
            self.replicas,
            self.committed_txs,
            self.duration,
            self.throughput_tps(),
            self.avg_latency_secs(),
            self.avg_queue_wait_secs(),
            self.reconfigurations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            label: "Thunderbolt".to_string(),
            replicas: 4,
            committed_txs: 1_000,
            duration: SimTime::from_secs(2),
            total_latency_secs: 500.0,
            total_queue_wait_secs: 100.0,
            round_commits: (0..5)
                .map(|i| RoundCommitSample {
                    dag: 0,
                    round: Round::new(i * 2 + 1),
                    committed_at: SimTime::from_millis(100 * (i + 1)),
                    digest: 0,
                })
                .collect(),
            ..RunReport::default()
        }
    }

    #[test]
    fn throughput_and_latency_are_derived_from_totals() {
        let report = sample_report();
        assert!((report.throughput_tps() - 500.0).abs() < 1e-9);
        assert!((report.avg_latency_secs() - 0.5).abs() < 1e-9);
        assert!((report.avg_queue_wait_secs() - 0.1).abs() < 1e-9);
        assert!(report.summary().contains("500 tps"));
        assert!(report.summary().contains("0.500s of which 0.100s queued"));
    }

    #[test]
    fn empty_report_does_not_divide_by_zero() {
        let report = RunReport::default();
        assert_eq!(report.throughput_tps(), 0.0);
        assert_eq!(report.avg_latency_secs(), 0.0);
        assert_eq!(report.avg_queue_wait_secs(), 0.0);
        assert!(report.per_round_runtime(100).is_empty());
    }

    #[test]
    fn latency_histogram_quantiles_are_bucket_upper_bounds() {
        let mut hist = LatencyHistogram::new();
        for _ in 0..99 {
            hist.record_secs(0.000_003); // 3 µs -> bucket [2, 4) µs
        }
        hist.record_secs(0.5); // one slow outlier
        assert_eq!(hist.count(), 100);
        // p50 falls in the 3 µs bucket, whose upper bound is 4 µs.
        assert!((hist.quantile_secs(0.5) - 4e-6).abs() < 1e-12);
        // p99 still falls in the fast bucket (99 of 100 samples).
        assert!((hist.quantile_secs(0.99) - 4e-6).abs() < 1e-12);
        // p100 reports the outlier's bucket.
        assert!(hist.quantile_secs(1.0) >= 0.5);
        assert!(LatencyHistogram::new().quantile_secs(0.5) == 0.0);
    }

    #[test]
    fn stage_occupancy_normalizes_to_shares() {
        let report = RunReport {
            validate_busy_secs: 3.0,
            apply_busy_secs: 1.0,
            execute_busy_secs: 0.0,
            ..RunReport::default()
        };
        let (validate, apply, execute) = report.stage_occupancy();
        assert!((validate - 0.75).abs() < 1e-9);
        assert!((apply - 0.25).abs() < 1e-9);
        assert_eq!(execute, 0.0);
        assert_eq!(RunReport::default().stage_occupancy(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn per_round_runtime_averages_commit_gaps() {
        let report = sample_report();
        let windows = report.per_round_runtime(2);
        // Four gaps of 100 ms each -> two windows of average 0.1 s.
        assert_eq!(windows.len(), 2);
        assert!((windows[0].1 - 0.1).abs() < 1e-9);
        assert_eq!(windows[0].0, 2);
        assert_eq!(windows[1].0, 4);
    }
}
