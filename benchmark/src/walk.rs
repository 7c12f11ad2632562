//! The layer walk: one driver thread takes every block of a workload through
//! each layer's public entry point in protocol order, with an in-memory span
//! around every call. No span or counter lives in product code; what the
//! cluster and node drivers cost on top of the layers they call is the
//! remainder `core.driver_us_per_tx` (see the README for the formula).
//!
//! Per (round, author): `Workload::batch` → `ConcurrentExecutor::preplay`
//! over the store plus the author's uncommitted writes →
//! `DagBuilder::make_vertex` → `Message::to_wire_bytes` (header message and
//! vertex message, as the protocol ships both) → `Transport::send`. Then per
//! received frame: `Transport::recv_timeout` → `Message::from_wire_bytes` →
//! `DagStore::insert`. Per round: `Committer::try_commit` →
//! `CommitPipeline::process` → `Store::commit_marker`. The client queues in
//! between are `ShardProposer`'s (`enqueue`, `take_single_batch`,
//! `take_cross_batch`), timed as `core.proposer`.
//!
//! A span covers the call and, where the walk has no further use for it, the
//! release of what the call returned: freeing a decoded message is a cost of
//! having decoded it, freeing a delivered sub-DAG a cost of the copies the
//! commit rule made.
//!
//! The walk does every proposer's work once and one replica's receive and
//! commit work, so a cluster of `n` replicas pays the first group once and
//! the second `n` times per transaction.

use crate::json::{obj, Json};
use crate::stats::Metric;
use crate::workloads::{Net, Spec, BATCH, REPLICAS};
use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use thunderbolt::prelude::*;
use thunderbolt::tb_dag::{Committer, DagBuilder, DagStore};
use thunderbolt::tb_network::{SimNetwork, WireSized};
use thunderbolt::tb_storage::Versioned;
use thunderbolt::tb_types::wire::{Wire, WireError, WireReader, WireWriter};
use thunderbolt::tb_types::{
    BlockKind, BlockPayload, Committee, DagId, Digest, PreplayedTx, Round, ShardAssignment, Vertex,
};
use thunderbolt::{CommitPipeline, PostCommitExecution, ShardProposer};

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
    /// The DAG round the call served: the identifier spans of one block share.
    pub round: u64,
    /// True for work a layer did on a thread of its own, overlapping the
    /// driver; it has a duration but takes nothing from its parent's self
    /// time.
    pub off_thread: bool,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the walk ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `call` as a top-level span.
    pub fn span<T>(&mut self, name: &'static str, round: u64, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            round,
            off_thread: false,
        });
        out
    }

    fn last_index(&self) -> usize {
        self.spans.len() - 1
    }

    /// Records a stage that span `parent` reported about itself (a duration,
    /// not an observed interval) as its child, laid end to end from
    /// `offset_ns` into the parent. Returns the offset after it.
    fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        nanos: u64,
        offset_ns: u64,
        off_thread: bool,
    ) -> u64 {
        let base = self.spans[parent];
        let start_ns = base.start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + nanos,
            parent: Some(parent),
            round: base.round,
            off_thread,
        });
        if off_thread {
            offset_ns
        } else {
            offset_ns + nanos
        }
    }

    /// Self time per span name: a span's duration minus what its on-thread
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let (Some(parent), false) = (span.parent, span.off_thread) {
                covered[parent] += span.nanos();
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(0) += span.nanos().saturating_sub(covered);
        }
        out
    }

    /// Nanoseconds the driver thread spent inside spans called `name`
    /// (children included), or inside any span with `None`.
    fn driver_ns(&self, name: Option<&str>) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && name.is_none_or(|n| n == s.name))
            .map(Span::nanos)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("round", s.round.into()),
                        ("off_thread", s.off_thread.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// An already encoded message. The walk times the codec itself, so the
/// transport must move bytes, not encode them a second time.
#[derive(Clone, Debug)]
pub struct Frame(pub Vec<u8>);

impl Wire for Frame {
    fn encode(&self, w: &mut WireWriter) {
        w.put_raw(&self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Frame(r.take(r.remaining())?.to_vec()))
    }
}

impl WireSized for Frame {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

/// Two connected `TcpTransport` endpoints on loopback.
pub struct TcpPair<M> {
    pub sender: TcpTransport<M>,
    pub receiver: TcpTransport<M>,
}

pub const SENDER: ReplicaId = ReplicaId::new(0);
pub const RECEIVER: ReplicaId = ReplicaId::new(1);

impl<M: Wire + Clone + Send + 'static> TcpPair<M> {
    pub fn connect() -> Result<Self, String> {
        // Reserve two free ports the way the launcher does: bind both, read
        // the ports, release.
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)))
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("reserve loopback ports: {e}"))?;
        let ports: Vec<u16> = listeners
            .iter()
            .map(|l| l.local_addr().map(|addr| addr.port()))
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("reserve loopback ports: {e}"))?;
        drop(listeners);
        let peers: Vec<TcpPeer> = [SENDER, RECEIVER]
            .iter()
            .zip(&ports)
            .map(|(&id, &port)| TcpPeer {
                id,
                addr: SocketAddr::from((Ipv4Addr::LOCALHOST, port)),
            })
            .collect();
        let bind =
            |id| TcpTransport::bind(id, peers.clone()).map_err(|e| format!("bind {id}: {e}"));
        Ok(TcpPair {
            receiver: bind(RECEIVER)?,
            sender: bind(SENDER)?,
        })
    }
}

/// The workload's transport, carrying frames from one endpoint to another.
enum Link {
    Sim(SimNetwork<Frame>),
    Tcp(TcpPair<Frame>),
}

impl Link {
    fn send(&mut self, frame: Frame) -> Result<(), String> {
        let transport: &mut dyn Transport<Frame> = match self {
            Link::Sim(net) => net,
            Link::Tcp(pair) => &mut pair.sender,
        };
        transport
            .send(SENDER, RECEIVER, frame)
            .map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<Frame, String> {
        let transport: &mut dyn Transport<Frame> = match self {
            Link::Sim(net) => net,
            Link::Tcp(pair) => &mut pair.receiver,
        };
        transport
            .recv_timeout(Duration::from_secs(10))
            .map(|inbound| inbound.msg)
            .map_err(|e| format!("frame lost in transfer: {e}"))
    }
}

/// The walk's store: what the workload's replicas keep their state in.
enum WalkStore {
    Mem(MemStore),
    Wal {
        store: Box<WalStore>,
        /// Removed when the walk ends.
        _dir: TempDir,
    },
}

impl WalkStore {
    fn open(net: Net) -> Result<Self, String> {
        match net {
            Net::Sim => Ok(WalkStore::Mem(MemStore::new())),
            Net::Tcp => {
                let dir = TempDir::new("walk").map_err(|e| e.to_string())?;
                let store =
                    WalStore::open(dir.path(), WalOptions::default()).map_err(|e| e.to_string())?;
                Ok(WalkStore::Wal {
                    store: Box::new(store),
                    _dir: dir,
                })
            }
        }
    }

    fn store(&self) -> &dyn Store {
        match self {
            WalkStore::Mem(store) => store,
            WalkStore::Wal { store, .. } => store.as_ref(),
        }
    }

    /// Current size of the log; 0 without one.
    fn wal_bytes(&self) -> u64 {
        match self {
            WalkStore::Mem(_) => 0,
            WalkStore::Wal { store, .. } => store.wal_bytes(),
        }
    }
}

/// Committed state plus one proposer's uncommitted preplay writes, each
/// tagged with the round that wrote it (what `Replica::preplay` reads
/// through, so consecutive blocks of a shard chain and every block
/// validates).
struct OverlayRead<'a> {
    store: &'a dyn Store,
    overlay: &'a HashMap<Key, (u64, Value)>,
}

impl KvRead for OverlayRead<'_> {
    fn get(&self, key: &Key) -> Value {
        match self.overlay.get(key) {
            Some((_, value)) => value.clone(),
            None => self.store.get(key),
        }
    }

    fn get_versioned(&self, key: &Key) -> Versioned {
        match self.overlay.get(key) {
            Some((_, value)) => {
                Versioned::new(value.clone(), self.store.get_versioned(key).version + 1)
            }
            None => self.store.get_versioned(key),
        }
    }
}

/// What one walk produced.
pub struct WalkOutput {
    pub metrics: Vec<Metric>,
    pub trace: Json,
    /// Encoded vertex messages, for the network probes.
    pub vertex_frames: Vec<Vec<u8>>,
    pub failures: Vec<String>,
    /// Microseconds per committed transaction the cluster spends in the
    /// layers the walk visits: proposer-side layers once, receive- and
    /// commit-side layers once per replica.
    pub cluster_layers_us_per_tx: f64,
}

/// How many vertex frames the walk keeps for the network probes.
const KEPT_FRAMES: usize = 64;

/// Share of the walk's wall clock that may lie outside every span.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

pub fn walk(spec: &Spec, seed: u64, rounds: u64) -> Result<WalkOutput, String> {
    let committee = Committee::new(REPLICAS);
    let dag_id = DagId::new(0);
    let assignment = ShardAssignment::new(committee, dag_id);

    let mut workload: Box<dyn Workload> = spec.smallbank().into();
    workload.configure_for_cluster(REPLICAS, seed);
    let walk_store = WalkStore::open(spec.net)?;
    let store = walk_store.store();
    store.load_entries(&mut workload.initial_state().into_iter());

    let ce = ConcurrentExecutor::new(CeConfig::new(spec.executors, BATCH).without_synthetic_cost());
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined {
        workers: spec.validators,
    });
    let mut builder = DagBuilder::new(committee, dag_id, Round::ZERO);
    let mut dag = DagStore::new(committee, dag_id, Round::ZERO);
    let mut committer = Committer::new(committee, dag_id, Round::ZERO);
    let mut link = match spec.net {
        Net::Sim => Link::Sim(SimNetwork::new(REPLICAS, LatencyModel::lan(), seed)),
        Net::Tcp => Link::Tcp(TcpPair::connect()?),
    };
    let mut proposers: Vec<ShardProposer> = committee
        .replicas()
        .map(|author| ShardProposer::new(assignment.shard_of(author), BATCH))
        .collect();
    let mut overlays: Vec<HashMap<Key, (u64, Value)>> = vec![HashMap::new(); REPLICAS as usize];
    // Undelivered vertices that carry cross-shard transactions, with the
    // shards those touch as a bit mask (input to the conversion rule).
    let mut pending_cross: Vec<(Digest, u32)> = Vec::new();

    let mut vertex_frames = Vec::new();
    let mut counts = Counts::default();
    let mut commit_digest = 0xcbf2_9ce4_8422_2325u64;
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let wal_bytes_at_start = walk_store.wal_bytes();

    for round in 0..rounds {
        let now = SimTime::from_micros(started.elapsed().as_micros() as u64);
        let parents = tracer.span("dag.certify", round, || {
            if round == 0 {
                Vec::new()
            } else {
                dag.certificates_at_round(Round::new(round - 1))
            }
        });

        // Every proposer builds and ships its block before any is received,
        // as in a round of the real protocol.
        for author in committee.replicas() {
            let index = author.as_inner() as usize;
            // Closed loop: top the queue up to two batches whenever it
            // cannot fill a block, routing each transaction to the proposer
            // of its home shard (what `ClusterSimulation::feed` does).
            if proposers[index].pending_single() + proposers[index].pending_cross() < BATCH {
                // Like `feed`, give up after eight batches: a shard that is
                // never a transaction's home (the highest one, when every
                // transaction spans two shards) would otherwise never fill.
                for _ in 0..8 {
                    if proposers[index].pending_single() + proposers[index].pending_cross()
                        >= 2 * BATCH
                    {
                        break;
                    }
                    let txs = tracer.span("workload.gen", round, || workload.batch(BATCH, now));
                    tracer.span("core.proposer", round, || {
                        for tx in txs {
                            let home = tx.home_shard();
                            if let Some(p) = proposers.iter_mut().find(|p| p.shard() == home) {
                                p.enqueue(tx);
                            }
                        }
                    });
                }
            }

            // Rules P3/P4: with a conflicting cross-shard transaction still
            // undelivered, single-shard transactions go the OE way too.
            let shard_bit = 1u32 << proposers[index].shard().as_inner();
            let convert = pending_cross.iter().any(|(_, mask)| mask & shard_bit != 0);
            let (singles, cross) = tracer.span("core.proposer", round, || {
                let mut singles = proposers[index].take_single_batch();
                let mut cross = proposers[index].take_cross_batch(BATCH - singles.len());
                if convert {
                    singles.append(&mut cross);
                    cross = std::mem::take(&mut singles);
                }
                (singles, cross)
            });

            let preplayed = if singles.is_empty() {
                Vec::new()
            } else {
                let base = OverlayRead {
                    store,
                    overlay: &overlays[index],
                };
                let result = tracer.span("executor.preplay", round, || ce.preplay(&singles, &base));
                counts.reexecutions += result.reexecutions;
                // Later transactions of the serialized order overwrite
                // earlier ones, as in `BatchResult::write_batch`.
                let mut serialized: Vec<&PreplayedTx> = result.preplayed.iter().collect();
                serialized.sort_unstable_by_key(|p| p.order);
                for write in serialized.iter().flat_map(|p| &p.outcome.write_set) {
                    overlays[index].insert(write.key, (round, write.value.clone()));
                }
                result.preplayed
            };
            tracer.span("core.proposer", round, || drop(singles));

            let payload = BlockPayload {
                single_shard: preplayed,
                cross_shard: cross,
            };
            let vertex = tracer.span("dag.certify", round, || {
                builder.make_vertex(
                    author,
                    Round::new(round),
                    BlockKind::Normal,
                    payload,
                    parents.clone(),
                )
            });

            // The protocol ships the block twice: in the header message that
            // collects acknowledgements, then in the certified vertex.
            let message = Message::Vertex(Box::new(vertex));
            let vertex_frame = tracer.span("wire.encode", round, || message.to_wire_bytes());
            let Message::Vertex(vertex) = message else {
                unreachable!("built as a vertex message above");
            };
            let Vertex { header, block, .. } = *vertex;
            let message = Message::Header { header, block };
            let header_frame = tracer.span("wire.encode", round, || message.to_wire_bytes());
            tracer.span("dag.certify", round, || drop(message));
            for frame in [header_frame, vertex_frame] {
                counts.wire_bytes += frame.len() as u64;
                tracer.span("network.transfer", round, || link.send(Frame(frame)))?;
            }
        }

        for _ in 0..2 * REPLICAS {
            let frame = tracer.span("network.transfer", round, || link.recv())?;
            let message = tracer
                .span("wire.decode", round, || Message::from_wire_bytes(&frame.0))
                .map_err(|e| format!("decode: {e}"))?;
            let Message::Vertex(vertex) = message else {
                tracer.span("wire.decode", round, || drop(message));
                continue;
            };
            let touched = vertex
                .block
                .payload
                .cross_shard
                .iter()
                .flat_map(|tx| &tx.shards)
                .fold(0u32, |mask, shard| mask | 1 << shard.as_inner());
            let id = tracer
                .span("dag.insert", round, || dag.insert(*vertex))
                .map_err(|e| format!("dag insert: {e}"))?;
            if touched != 0 {
                pending_cross.push((id, touched));
            }
            if vertex_frames.len() < KEPT_FRAMES {
                vertex_frames.push(frame.0);
            }
        }

        let sub_dags = tracer.span("dag.commit_rule", round, || committer.try_commit(&dag));
        for sub_dag in sub_dags {
            let preplayed_blocks = sub_dag
                .vertices
                .iter()
                .filter(|v| !v.block.payload.single_shard.is_empty())
                .count();
            let output = tracer.span("commit.process", round, || {
                pipeline.process(&sub_dag, store, now)
            });
            // `process` applies on a thread of its own only when it has two
            // or more preplayed blocks to overlap.
            let applier_thread = preplayed_blocks > 1;
            let process = tracer.last_index();
            let stages = [
                ("commit.validate", output.stage_validate, false),
                ("commit.apply", output.stage_apply, applier_thread),
                ("commit.execute", output.stage_execute, false),
            ];
            let mut offset = 0;
            for (name, busy, off_thread) in stages {
                offset = tracer.child(process, name, busy.as_nanos() as u64, offset, off_thread);
            }

            for (tx_id, _) in &output.committed {
                commit_digest = (commit_digest ^ tx_id.as_inner()).wrapping_mul(0x0100_0000_01b3);
            }
            tracer.span("storage.marker", round, || {
                store.commit_marker(CommitMarker {
                    dag: dag_id.as_inner(),
                    round: sub_dag.leader_round.as_u64(),
                    digest: commit_digest,
                })
            });

            counts.commits += 1;
            counts.committed += output.committed_count() as u64;
            counts.invalid_blocks += output.invalid_blocks as u64;
            counts.valid_blocks += (preplayed_blocks - output.invalid_blocks) as u64;
            counts.coalesced += output.coalesced_batches;
            for vertex in &sub_dag.vertices {
                let delivered_round = vertex.round().as_u64();
                overlays[vertex.author().as_inner() as usize]
                    .retain(|_, (round, _)| *round > delivered_round);
                if !vertex.block.payload.cross_shard.is_empty() {
                    let id = vertex.id();
                    pending_cross.retain(|(pending, _)| *pending != id);
                }
            }
            tracer.span("commit.process", round, || drop(output));
            tracer.span("dag.commit_rule", round, || drop(sub_dag));
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    // The log shrinks when it compacts into a snapshot; what it grew by is
    // then a lower bound, which the README says.
    let wal_bytes = walk_store.wal_bytes().saturating_sub(wal_bytes_at_start);

    Ok(summarise(
        spec,
        &tracer,
        &counts,
        wall_ns,
        wal_bytes,
        vertex_frames,
    ))
}

#[derive(Default)]
struct Counts {
    commits: u64,
    committed: u64,
    reexecutions: u64,
    invalid_blocks: u64,
    valid_blocks: u64,
    coalesced: u64,
    wire_bytes: u64,
}

fn summarise(
    spec: &Spec,
    tracer: &Tracer,
    counts: &Counts,
    wall_ns: u64,
    wal_bytes: u64,
    vertex_frames: Vec<Vec<u8>>,
) -> WalkOutput {
    let self_times = tracer.self_times();
    let committed = counts.committed.max(1) as f64;
    let us_per_tx =
        |name: &str| self_times.get(name).copied().unwrap_or(0) as f64 / 1e3 / committed;
    let unattributed = 1.0 - tracer.driver_ns(None) as f64 / wall_ns.max(1) as f64;

    let process = tracer.driver_ns(Some("commit.process")) as f64 / 1e3 / committed;
    let marker_us_per_tx = us_per_tx("storage.marker");
    let once = us_per_tx("workload.gen")
        + us_per_tx("core.proposer")
        + us_per_tx("executor.preplay")
        + us_per_tx("dag.certify")
        + us_per_tx("wire.encode");
    let per_replica = us_per_tx("network.transfer")
        + us_per_tx("wire.decode")
        + us_per_tx("dag.insert")
        + us_per_tx("dag.commit_rule")
        + process
        + marker_us_per_tx;
    let cluster_layers_us_per_tx = once + f64::from(REPLICAS) * per_replica;

    let metrics = vec![
        Metric::single("workload.gen_us_per_tx", "us", us_per_tx("workload.gen")),
        Metric::single("core.proposer_us_per_tx", "us", us_per_tx("core.proposer")),
        Metric::single(
            "executor.preplay_us_per_tx",
            "us",
            us_per_tx("executor.preplay"),
        ),
        Metric::single(
            "executor.reexec_per_tx",
            "count",
            counts.reexecutions as f64 / committed,
        ),
        Metric::single("dag.certify_us_per_tx", "us", us_per_tx("dag.certify")),
        Metric::single("dag.insert_us_per_tx", "us", us_per_tx("dag.insert")),
        Metric::single(
            "dag.commit_rule_us_per_tx",
            "us",
            us_per_tx("dag.commit_rule"),
        ),
        Metric::single("wire.encode_us_per_tx", "us", us_per_tx("wire.encode")),
        Metric::single("wire.decode_us_per_tx", "us", us_per_tx("wire.decode")),
        Metric::single(
            "wire.bytes_per_tx",
            "B",
            counts.wire_bytes as f64 / committed,
        ),
        Metric::single(
            "network.transfer_us_per_tx",
            "us",
            us_per_tx("network.transfer"),
        ),
        Metric::single("commit.process_us_per_tx", "us", process),
        Metric::single(
            "commit.validate_us_per_tx",
            "us",
            us_per_tx("commit.validate"),
        ),
        Metric::single("commit.apply_us_per_tx", "us", us_per_tx("commit.apply")),
        Metric::single(
            "commit.execute_us_per_tx",
            "us",
            us_per_tx("commit.execute"),
        ),
        Metric::single("commit.self_us_per_tx", "us", us_per_tx("commit.process")),
        Metric::single(
            "commit.coalesced_share",
            "ratio",
            counts.coalesced as f64 / counts.valid_blocks.max(1) as f64,
        ),
        Metric::single(
            "commit.invalid_blocks",
            "count",
            counts.invalid_blocks as f64,
        ),
        Metric::single(
            "storage.marker_us_per_commit",
            "us",
            marker_us_per_tx * committed / counts.commits.max(1) as f64,
        ),
        Metric::single(
            "storage.wal_bytes_per_tx",
            "B",
            wal_bytes as f64 / committed,
        ),
        Metric::single(
            "walk.total_us_per_tx",
            "us",
            wall_ns as f64 / 1e3 / committed,
        ),
        Metric::single("walk.unattributed_share", "ratio", unattributed),
    ];

    let mut failures = Vec::new();
    if counts.commits == 0 {
        failures.push("the walk committed nothing".to_string());
    }
    if unattributed > MAX_UNATTRIBUTED_SHARE {
        failures.push(format!(
            "walk: {:.1}% of the wall clock is outside every span (limit {:.0}%)",
            unattributed * 100.0,
            MAX_UNATTRIBUTED_SHARE * 100.0
        ));
    }
    // Where block content depends on timing a preplayed block can lose the
    // race against a cross-shard transaction, in the walk as in the cluster.
    if spec.digest_repeats && counts.invalid_blocks > 0 {
        failures.push(format!(
            "walk: {} blocks failed validation",
            counts.invalid_blocks
        ));
    }
    WalkOutput {
        metrics,
        trace: tracer.to_json(),
        vertex_frames,
        failures,
        cluster_layers_us_per_tx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_on_thread_children_only() {
        let mut tracer = Tracer::new();
        tracer.spans.push(Span {
            name: "parent",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            round: 3,
            off_thread: false,
        });
        let parent = tracer.last_index();
        let offset = tracer.child(parent, "validate", 30, 0, false);
        assert_eq!(offset, 30);
        let offset = tracer.child(parent, "apply", 50, offset, true);
        assert_eq!(offset, 30, "off-thread work takes no room in the parent");
        tracer.child(parent, "execute", 20, offset, false);

        let times = tracer.self_times();
        assert_eq!(times["parent"], 50, "100 - validate 30 - execute 20");
        assert_eq!(times["apply"], 50);
        assert_eq!(tracer.driver_ns(None), 100);
        assert_eq!(tracer.driver_ns(Some("parent")), 100);
        assert_eq!(tracer.driver_ns(Some("apply")), 0);
        assert!(tracer.spans.iter().all(|s| s.round == 3));
    }

    #[test]
    fn frames_pass_through_the_wire_codec_untouched() {
        let frame = Frame(vec![1, 2, 3, 250]);
        assert_eq!(frame.wire_size(), 4);
        assert_eq!(
            Frame::from_wire_bytes(&frame.to_wire_bytes()).unwrap().0,
            frame.0
        );
    }
}
