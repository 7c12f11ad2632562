//! Run reports produced by a cluster run, simulated or over TCP: the one
//! record each replica counts into as it runs.

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
#[derive(Clone, Debug, Default, PartialEq)]
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

    /// Adds every sample of `other` to this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
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

/// What one replica counted over a run, and the report built from it.
///
/// A [`Replica`](crate::replica::Replica) counts into its own `RunReport`
/// as it runs: the consensus role's counters, the commits it folds in and
/// those its app writes, each declared here once.
/// [`Replica::report`](crate::replica::Replica::report) then fills in what
/// only its owner knows (label, workload, duration, traffic) and the latency
/// quantiles. A cluster run reports its observer replica (replica 0 unless
/// it is crashed); honest replicas commit identical sequences, so any
/// observer yields the same commit counts. Latency is the exception: a
/// replica times only the transactions it proposed, on its own clock, so a
/// cluster's report pools the latency figures of all its replicas
/// ([`pool_latency`](RunReport::pool_latency)). A node process of a TCP
/// cluster reports itself in the same shape (its
/// [`Wire`](tb_types::wire::Wire) encoding is what travels back to the
/// launcher), with `duration` and commit times on its wall clock.
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
    /// Preplay re-executions on this replica's own proposals. For the
    /// concurrent executor these are repairs only: outcomes its chunk
    /// speculation recorded that the serial pass had to re-execute, which
    /// one worker never produces. For OCC they follow a failed verifier check.
    pub reexecutions: u64,
    /// Proposals that shipped the batch this replica preplayed ahead of
    /// their round: it was still the batch the queue gave, and every read it
    /// declared still held on the proposal's view.
    pub batches_reused: u64,
    /// Proposals that found a batch preplayed ahead of their round unusable
    /// and preplayed afresh: a declared read no longer held, or the queue
    /// had grown a longer batch.
    pub batches_repreplayed: u64,
    /// Number of DAG reconfigurations that completed during the run.
    pub reconfigurations: u64,
    /// Total simulated duration of the run.
    pub duration: SimTime,
    /// Sum of per-transaction latencies (commit − submission) in seconds,
    /// over the `timed_txs` transactions timed.
    pub total_latency_secs: f64,
    /// Committed transactions whose latency this report sums: a replica's
    /// own proposals, each timed once, on its own clock, when it commits
    /// them; a cluster's report pools all its replicas'.
    pub timed_txs: u64,
    /// Median per-transaction commit latency in seconds (bucket upper
    /// bound, see [`LatencyHistogram`]).
    pub latency_p50_secs: f64,
    /// 99th-percentile per-transaction commit latency in seconds.
    pub latency_p99_secs: f64,
    /// Per-transaction commit latencies of the `timed_txs` transactions,
    /// from which [`Replica::report`](crate::replica::Replica::report) and
    /// [`pool_latency`](RunReport::pool_latency) read the two quantiles
    /// above. Not shipped: a decoded report holds an empty one.
    pub latency_hist: LatencyHistogram,
    /// Wall-clock seconds the validation stage was busy: replaying
    /// preplayed blocks on admission, and the commits' read checks and
    /// replays.
    pub validate_busy_secs: f64,
    /// Wall-clock seconds the storage-apply stage was busy.
    pub apply_busy_secs: f64,
    /// Wall-clock seconds the cross-shard execution stage was busy.
    pub execute_busy_secs: f64,
    /// Write batches the commit path applied together with at least one
    /// other batch.
    pub coalesced_batches: u64,
    /// Storage apply calls the commit path performed: one per commit with
    /// single-shard writes, plus one per invalid block with valid blocks
    /// after it, plus one per commit with cross-shard writes (see
    /// `docs/PIPELINE.md`).
    pub apply_calls: u64,
    /// Delivered preplayed blocks the commit found replayed: replayed after
    /// the handler that admitted their vertex, so the commit only
    /// read-checked and applied them.
    pub blocks_replayed_ahead: u64,
    /// Delivered preplayed blocks the commit replayed itself: their vertex
    /// was admitted by the handler that delivered it.
    pub blocks_replayed_inline: u64,
    /// FNV-1a digest, from
    /// [`COMMIT_DIGEST_SEED`](crate::app::COMMIT_DIGEST_SEED), over each
    /// commit's delivered calls, block by block, then its committed
    /// transaction ids in commit order; shown as 16 hex digits, and as a
    /// string in JSON so no consumer rounds it to a 53-bit double. Two runs
    /// that delivered the same calls in the same blocks and committed the
    /// same transactions in the same order have the same digest. The
    /// converse needs care: outside lockstep, simulation schedules are
    /// timing-dependent, so digests from two independent runs of one
    /// scenario normally differ.
    pub commit_order_digest: u64,
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
    /// Headers, vertices and certificates dropped on receipt because
    /// certificate, header and block did not bind together, the header or
    /// certificate came from someone other than its author, the certificate
    /// lacked a quorum, or the block counted another number of shards than
    /// the committee. Zero unless a peer is Byzantine.
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
    /// Vertices this replica collected from its DAG: every round more than
    /// [`COLLECTION_DEPTH`](tb_dag::COLLECTION_DEPTH) below its last
    /// committed leader leaves ([`Committer::horizon`](tb_dag::Committer::horizon)).
    pub vertices_collected: u64,
    /// The part of `vertices_collected` the committer never delivered:
    /// vertices no later vertex referenced in time, whose transactions will
    /// never commit. Zero in a lockstep run, where every vertex of a round
    /// is referenced by every vertex of the next.
    pub vertices_collected_undelivered: u64,
    /// Scheduled faults the driver applied before the run ended.
    pub faults_applied: u64,
    /// Scheduled faults whose activation time the run never reached. A
    /// non-zero value means the fault schedule outlived the run — the
    /// scenario did not test what it claimed to.
    pub faults_unapplied: u64,
    /// The part of `total_latency_secs` the timed transactions spent in
    /// their proposer's client queue (submission to the proposal that took
    /// them, which created the vertex's header); the rest is propose to
    /// commit.
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
    batches_reused,
    batches_repreplayed,
    reconfigurations,
    duration,
    total_latency_secs,
    timed_txs,
    latency_p50_secs,
    latency_p99_secs,
    validate_busy_secs,
    apply_busy_secs,
    execute_busy_secs,
    coalesced_batches,
    apply_calls,
    blocks_replayed_ahead,
    blocks_replayed_inline,
    commit_order_digest: le,
    round_commits,
    highest_round,
    msgs_sent,
    msgs_delivered,
    msgs_dropped,
    bytes_sent,
    bytes_delivered,
    rejected_vertices,
    fetches_sent,
    fetches_answered,
    fetches_refused,
    vertices_fetched,
    certificates_dropped,
    vertices_collected,
    vertices_collected_undelivered,
    faults_applied,
    faults_unapplied,
    total_queue_wait_secs,
} derives { latency_hist });

impl RunReport {
    /// Throughput in transactions per second of simulated time.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed_txs as f64 / secs
    }

    /// Average end-to-end latency of the timed transactions, in seconds.
    pub fn avg_latency_secs(&self) -> f64 {
        if self.timed_txs == 0 {
            return 0.0;
        }
        self.total_latency_secs / self.timed_txs as f64
    }

    /// Average time a timed transaction waited in its proposer's client
    /// queue, in seconds: the first part of [`avg_latency_secs`].
    ///
    /// [`avg_latency_secs`]: RunReport::avg_latency_secs
    pub fn avg_queue_wait_secs(&self) -> f64 {
        if self.timed_txs == 0 {
            return 0.0;
        }
        self.total_queue_wait_secs / self.timed_txs as f64
    }

    /// Times one committed transaction this replica proposed, all three
    /// times on its own clock: submitted to its queue, proposed in a block,
    /// committed.
    pub(crate) fn time_commit(
        &mut self,
        submitted_at: SimTime,
        proposed_at: SimTime,
        committed_at: SimTime,
    ) {
        let latency = committed_at.saturating_since(submitted_at).as_secs_f64();
        self.total_latency_secs += latency;
        self.total_queue_wait_secs += proposed_at.saturating_since(submitted_at).as_secs_f64();
        self.timed_txs += 1;
        self.latency_hist.record_secs(latency);
    }

    /// Replaces this report's latency figures with those of a whole
    /// cluster: the sums over `replicas`' reports, each of which timed the
    /// transactions its replica proposed, so every timed transaction counts
    /// once and on the clock that stamped it. The quantiles come from the
    /// merged histograms; reports decoded from the wire carry none, and then
    /// this report keeps its own quantiles.
    pub fn pool_latency<'a>(&mut self, replicas: impl IntoIterator<Item = &'a RunReport>) {
        let mut hist = LatencyHistogram::new();
        self.total_latency_secs = 0.0;
        self.total_queue_wait_secs = 0.0;
        self.timed_txs = 0;
        for report in replicas {
            self.total_latency_secs += report.total_latency_secs;
            self.total_queue_wait_secs += report.total_queue_wait_secs;
            self.timed_txs += report.timed_txs;
            hist.merge(&report.latency_hist);
        }
        if hist.count() > 0 {
            self.latency_p50_secs = hist.quantile_secs(0.5);
            self.latency_p99_secs = hist.quantile_secs(0.99);
        }
        self.latency_hist = hist;
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
            timed_txs: 1_000,
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
    fn pooled_latency_sums_every_replica_and_merges_their_histograms() {
        let replica = |timed: &[f64]| {
            let mut report = RunReport::default();
            for &latency in timed {
                let committed = SimTime::from_micros((latency * 1e6) as u64);
                report.time_commit(SimTime::ZERO, SimTime::from_micros(100), committed);
            }
            report
        };
        let replicas = [replica(&[0.001, 0.002]), replica(&[]), replica(&[0.009])];
        let mut report = replicas[1].clone();
        report.committed_txs = 3;
        report.pool_latency(&replicas);
        assert_eq!(report.timed_txs, 3);
        assert_eq!(report.latency_hist.count(), 3);
        assert!((report.avg_latency_secs() - 0.004).abs() < 1e-9);
        assert!((report.avg_queue_wait_secs() - 0.0001).abs() < 1e-9);
        assert!((0.002..0.0021).contains(&report.latency_p50_secs));
        assert!((0.009..0.0093).contains(&report.latency_p99_secs));
        // Decoded reports carry no histogram: the quantiles stay this
        // report's own.
        let mut decoded = replicas.clone().map(|mut r| {
            r.latency_hist = LatencyHistogram::default();
            r
        });
        decoded[0].latency_p50_secs = 0.5;
        let mut observer = decoded[0].clone();
        observer.pool_latency(&decoded);
        assert_eq!(observer.timed_txs, 3);
        assert_eq!(observer.latency_p50_secs, 0.5);
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
