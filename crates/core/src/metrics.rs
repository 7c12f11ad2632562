//! Run reports produced by a cluster run, simulated or over TCP, and the
//! counters each replica accumulates for them.

use std::time::Duration;
use tb_types::{Round, SimTime};

/// Sub-buckets per power of two in a [`LatencyHistogram`], as a power of
/// two: 32 sub-buckets, so a bucket spans at most 1/32 of its lower bound.
const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A log-linear latency histogram over nanoseconds.
///
/// Below 64 ns every nanosecond has its own bucket. Above, each power of two
/// `[2^k, 2^(k+1))` is cut into 32 equal buckets, so a bucket's width is at
/// most 1/32 of its lower bound. Quantiles report the bucket's upper bound:
/// conservative (never under-reported), deterministic, and at most 1/32
/// (3.125 %) above the exact sample, or 1 ns below 64 ns — what a CI perf
/// gate wants. Memory is bounded (at most 1 920 counters, up to the bucket
/// of the largest sample) regardless of run length, so every committed
/// transaction of a simulation can be recorded.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts, up to the last non-empty bucket.
    buckets: Vec<u64>,
    /// Total number of recorded samples.
    count: u64,
}

/// The bucket holding `nanos`: its top `SUB_BUCKET_BITS + 1` significant
/// bits, offset by how many bits were cut off below them.
fn bucket_of(nanos: u64) -> usize {
    let shift = (64 - nanos.leading_zeros()).saturating_sub(SUB_BUCKET_BITS + 1);
    (u64::from(shift) * SUB_BUCKETS + (nanos >> shift)) as usize
}

/// The exclusive upper bound of `bucket`, in nanoseconds.
fn upper_bound_nanos(bucket: usize) -> f64 {
    let bucket = bucket as u64;
    let shift = (bucket / SUB_BUCKETS).saturating_sub(1);
    let top = bucket - shift * SUB_BUCKETS;
    (top + 1) as f64 * (shift as f64).exp2()
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample given in seconds.
    pub fn record_secs(&mut self, secs: f64) {
        let bucket = bucket_of((secs.max(0.0) * 1e9) as u64);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
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
        let bucket = self
            .buckets
            .iter()
            .position(|&n| {
                seen += n;
                seen >= target
            })
            .expect("the last bucket holds the count-th sample");
        upper_bound_nanos(bucket) / 1e9
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
    /// Total preplay re-executions on the observer replica. For the
    /// concurrent executor these are repairs only: outcomes its chunk
    /// speculation recorded that the serial pass had to re-execute, which
    /// one worker never produces. For OCC they follow a failed verifier check.
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
    /// Write batches the observer's commit path applied together with at
    /// least one other batch.
    pub coalesced_batches: u64,
    /// Storage apply calls the observer's commit path performed: one per
    /// commit with single-shard writes, plus one per invalid block with
    /// valid blocks after it, plus one per commit with cross-shard writes
    /// (see `docs/PIPELINE.md`).
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

/// Counters accumulated by one replica over a run, each kept here only: the
/// replica's own, the commits' it folds in, and those its app writes.
#[derive(Clone, Debug, Default)]
pub struct ReplicaMetrics {
    /// Committed transactions (single-shard + cross-shard).
    pub committed_txs: u64,
    /// Committed single-shard (preplayed) transactions.
    pub single_shard_txs: u64,
    /// Committed cross-shard transactions.
    pub cross_shard_txs: u64,
    /// Preplayed blocks discarded by validation.
    pub invalid_blocks: u64,
    /// Preplay re-executions on this replica's own proposals.
    pub reexecutions: u64,
    /// Proposals that shipped the batch this replica preplayed ahead of
    /// their round: it was still the batch the queue gave, and every read it
    /// declared still held on the proposal's view.
    pub batches_reused: u64,
    /// Proposals that found a batch preplayed ahead of their round unusable
    /// and preplayed afresh: a declared read no longer held, or the queue
    /// had grown a longer batch.
    pub batches_repreplayed: u64,
    /// Delivered preplayed blocks the commit found replayed: replayed after
    /// the handler that admitted their vertex, so the commit only
    /// read-checked and applied them.
    pub blocks_replayed_ahead: u64,
    /// Delivered preplayed blocks the commit replayed itself: their vertex
    /// was admitted by the handler that delivered it.
    pub blocks_replayed_inline: u64,
    /// Completed DAG reconfigurations.
    pub reconfigurations: u64,
    /// Summed commit latencies in seconds.
    pub total_latency_secs: f64,
    /// The part of `total_latency_secs` spent in proposer client queues.
    pub total_queue_wait_secs: f64,
    /// Histogram of per-transaction commit latencies.
    pub latency_hist: LatencyHistogram,
    /// Wall-clock time the validation stage was busy: replaying preplayed
    /// blocks on admission, and the commits' read checks and replays.
    pub validate_busy: Duration,
    /// Wall-clock time the storage-apply stage was busy.
    pub apply_busy: Duration,
    /// Wall-clock time the cross-shard execution stage was busy.
    pub execute_busy: Duration,
    /// Write batches applied together with at least one other batch by the
    /// commit path.
    pub coalesced_batches: u64,
    /// Storage apply calls performed by the commit path: one per commit with
    /// single-shard writes, plus one per invalid block with valid blocks
    /// after it, plus one per commit with cross-shard writes.
    pub apply_calls: u64,
    /// FNV-1a digest over committed transaction ids in commit order, from
    /// [`COMMIT_DIGEST_SEED`](crate::app::COMMIT_DIGEST_SEED).
    pub commit_order_digest: u64,
    /// Per-leader-round commit times.
    pub round_commits: Vec<RoundCommitSample>,
    /// Vertices and certificates dropped on receipt because certificate,
    /// header and block did not bind together (or the certificate lacked a
    /// quorum). Zero unless a peer is Byzantine.
    pub rejected_vertices: u64,
    /// `Fetch` requests sent: one when a certificate arrives without its
    /// block, one more per retry period (300 ms) until the vertex comes.
    pub fetches_sent: u64,
    /// `Fetch` requests this replica answered with the vertex.
    pub fetches_answered: u64,
    /// `Fetch` requests dropped unanswered: a certificate of another DAG or
    /// without a quorum, or a vertex this replica does not hold.
    pub fetches_refused: u64,
    /// Vertices admitted from the answer to one of this replica's fetches.
    pub vertices_fetched: u64,
    /// Certificates without their block dropped because two rounds' worth
    /// were held already: vertices this replica never fetches.
    pub certificates_dropped: u64,
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
            hist.record_secs(0.000_003); // 3 000 ns -> bucket [2 944, 3 008) ns
        }
        hist.record_secs(0.5); // one slow outlier
        assert_eq!(hist.count(), 100);
        // p50 falls in the 3 µs bucket, whose upper bound is 3.008 µs.
        assert!((hist.quantile_secs(0.5) - 3.008e-6).abs() < 1e-12);
        // p99 still falls in the fast bucket (99 of 100 samples).
        assert!((hist.quantile_secs(0.99) - 3.008e-6).abs() < 1e-12);
        // p100 reports the outlier's bucket, within a 32nd above it.
        let p100 = hist.quantile_secs(1.0);
        assert!((0.5..=0.5 * 33.0 / 32.0).contains(&p100), "{p100}");
        assert!(LatencyHistogram::new().quantile_secs(0.5) == 0.0);
        // Every nanosecond count lands in a bucket, the largest too.
        hist.record_secs(1e12);
        assert_eq!(
            hist.quantile_secs(1.0),
            upper_bound_nanos(HIST_BUCKETS - 1) / 1e9
        );
        assert_eq!(hist.buckets.len(), HIST_BUCKETS);
    }

    /// Buckets covering every `u64` nanosecond count: 64 exact ones below
    /// 64 ns, then 32 per power of two.
    const HIST_BUCKETS: usize = 1_920;

    #[test]
    fn latency_histogram_buckets_tile_the_nanoseconds() {
        // Consecutive buckets share a bound, and a bucket holds exactly the
        // counts from the previous bound up to its own.
        let mut lower = 0.0;
        for bucket in 0..HIST_BUCKETS {
            let upper = upper_bound_nanos(bucket);
            assert!(upper > lower, "bucket {bucket}");
            if upper < 1e15 {
                assert_eq!(bucket_of(lower as u64), bucket);
                assert_eq!(bucket_of(upper as u64 - 1), bucket);
                assert!(upper - lower <= (lower / 32.0).max(1.0), "bucket {bucket}");
            }
            lower = upper;
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn latency_histogram_quantiles_track_the_exact_ones_within_a_32nd() {
        // A seeded sample spread log-uniformly over 1 µs .. 1 s.
        let mut state = 42u64;
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                1e-6 * 1e6f64.powf(unit)
            })
            .collect();
        let mut hist = LatencyHistogram::new();
        for &sample in &samples {
            hist.record_secs(sample);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let reported = hist.quantile_secs(q);
            assert!(
                exact < reported && reported <= exact * (1.0 + 1.0 / 32.0),
                "q {q}: exact {exact}, reported {reported}"
            );
        }
    }

    #[test]
    fn latency_p50_and_p99_differ_on_a_single_shard_run() {
        // Shaped like the benchmark's sim-single workload, where the old
        // power-of-two buckets reported p50 = p99.
        let report = crate::scenario::ScenarioBuilder::new(4)
            .smallbank(tb_workload::SmallBankConfig {
                cross_shard_fraction: 0.0,
                ..tb_workload::SmallBankConfig::default()
            })
            .latency(tb_types::LatencyModel::lan())
            .executors(1, 64)
            .validators(2)
            .rounds(40)
            .seed(42)
            .lockstep()
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .run();
        let (p50, p99) = (report.latency_p50_secs, report.latency_p99_secs);
        assert!(0.0 < p50 && p50 < p99, "p50 {p50} s, p99 {p99} s");
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
