//! The canonical-form property over every wire type, and the frames the
//! cluster actually sends.
//!
//! The real TCP transport frames `Message::to_wire_bytes()` straight onto the
//! socket, a node process is launched with a hex-encoded `NodeSpec` and
//! answers with a `RunReport`, and the WAL logs `WalRecord`s. Every type
//! with a `Wire` impl is registered once, with a generator, in
//! [`canonical_forms!`]; each entry's test checks, over seeded values, that
//!
//! * `decode(encode(x)) == x`,
//! * `encoded_len()` agrees with the encoding, which the transport and the
//!   byte accounting both rely on, and
//! * every seeded flip, truncation or extension of the bytes that still
//!   decodes re-encodes to exactly those bytes: one value, one encoding.
//!
//! For the types a digest names — a sealed block, a header — the entry also
//! checks that the digest is `Digest::of_bytes` of the encoding, that a
//! decoded block carries the digest a block sealed afresh from its fields
//! gets, and that every mutation that still decodes has another digest.

use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;
use thunderbolt::core::NodeSpec;
use thunderbolt::tb_storage::{CommitMarker, WalRecord, WriteBatch};
use thunderbolt::tb_types::wire::{Wire, WireError};
use thunderbolt::tb_types::{
    AccessRecord, Block, BlockKind, BlockPayload, CeConfig, Certificate, ClientId, ContractCall,
    DagId, Digest, ExecOutcome, Header, Key, KeySpace, LatencyModel, Operation, PreplayedTx,
    ReconfigConfig, ReplicaId, Round, SealedBlock, ShardId, SimTime, SmallBankProcedure,
    StorageBackend, StorageConfig, SystemConfig, Transaction, TxId, Value, Vertex,
};
use thunderbolt::tb_workload::SmallBankConfig;
use thunderbolt::{
    ByzantineBehavior, ClusterConfig, ExecutionMode, LatencyHistogram, Message, RoundCommitSample,
    RunReport,
};

/// Seeded values drawn per registered type.
const CASES: u64 = 48;
/// Seeded mutations of each value's encoding.
const MUTATIONS: usize = 24;

/// Encode → decode must reproduce the value exactly, consume every byte, and
/// agree with the allocation-free `encoded_len`. Returns the encoding.
fn roundtrips<T: Wire + PartialEq + Debug>(value: &T) -> Vec<u8> {
    let bytes = value.to_wire_bytes();
    assert_eq!(
        bytes.len(),
        value.encoded_len(),
        "encoded_len disagrees with the actual encoding"
    );
    let decoded = T::from_wire_bytes(&bytes).expect("decoding our own encoding must succeed");
    assert_eq!(&decoded, value);
    bytes
}

/// One flip, truncation or extension of `bytes` at a seeded position.
fn mutate(rng: &mut TestRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = (rng.next_u64() % (out.len() as u64 + 1)) as usize;
    match rng.next_u64() % 3 {
        0 if at < out.len() => out[at] ^= (rng.next_u64() % 255 + 1) as u8,
        1 => out.truncate(at),
        _ => {
            let extra = 1 + rng.next_u64() % 8;
            out.splice(at..at, (0..extra).map(|_| rng.next_u64() as u8));
        }
    }
    out
}

/// For a type a digest names: the digest a value carries or computes, and
/// the digest of the same fields sealed afresh.
type Digests<T> = fn(&T) -> (Digest, Digest);

/// The digest property for a value decoded from `bytes`: both of its
/// digests are the hash of those bytes.
fn digest_of_bytes<T: Debug>(name: &str, value: &T, bytes: &[u8], digests: Digests<T>) -> Digest {
    let (carried, fresh) = digests(value);
    assert_eq!(carried, Digest::of_bytes(bytes), "{name}: {value:?}");
    assert_eq!(carried, fresh, "{name}: {value:?} carries a stale digest");
    carried
}

/// The canonical-form property for one type, over `CASES` values drawn
/// from `strategy`, and the digest property if `digests` is given.
fn check_canonical<T: Wire + PartialEq + Debug>(
    name: &str,
    strategy: impl Strategy<Value = T>,
    digests: Option<Digests<T>>,
) {
    for case in 0..CASES {
        let mut rng = TestRng::deterministic(case);
        let value = strategy.generate(&mut rng);
        let bytes = roundtrips(&value);
        let digest = digests.map(|digests| {
            let decoded = T::from_wire_bytes(&bytes).expect("decodes, as roundtrips checked");
            let digest = digest_of_bytes(name, &decoded, &bytes, digests);
            assert_eq!(digests(&value).0, digest, "{name}: {value:?}");
            digest
        });
        for _ in 0..MUTATIONS {
            let mutated = mutate(&mut rng, &bytes);
            if let Ok(decoded) = T::from_wire_bytes(&mutated) {
                assert_eq!(
                    decoded.to_wire_bytes(),
                    mutated,
                    "{name}: {decoded:?} decoded from bytes it does not encode to"
                );
                if let (Some(digests), Some(digest)) = (digests, digest) {
                    let moved = digest_of_bytes(name, &decoded, &mutated, digests);
                    assert!(
                        mutated == bytes || moved != digest,
                        "{name}: {decoded:?} shares a digest with other bytes"
                    );
                }
            }
        }
    }
}

// --- strategies over the tb_types vocabulary -------------------------------

fn arb_keyspace() -> impl Strategy<Value = KeySpace> {
    (0usize..KeySpace::ALL.len()).prop_map(|i| KeySpace::ALL[i])
}

fn arb_key() -> impl Strategy<Value = Key> {
    (arb_keyspace(), any::<u64>()).prop_map(|(space, row)| Key::new(space, row))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u8..1).prop_map(|_| Value::None),
        any::<i64>().prop_map(Value::Int),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(Value::bytes),
    ]
}

fn arb_operation() -> impl Strategy<Value = Operation> {
    prop_oneof![
        arb_key().prop_map(Operation::read),
        (arb_key(), arb_value()).prop_map(|(k, v)| Operation::write(k, v)),
    ]
}

fn arb_access_record() -> impl Strategy<Value = AccessRecord> {
    (arb_key(), arb_value()).prop_map(|(k, v)| AccessRecord::new(k, v))
}

fn arb_procedure() -> impl Strategy<Value = SmallBankProcedure> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(from, to)| SmallBankProcedure::Amalgamate { from, to }),
        any::<u64>().prop_map(|account| SmallBankProcedure::GetBalance { account }),
        (any::<u64>(), any::<i64>())
            .prop_map(|(account, amount)| SmallBankProcedure::DepositChecking { account, amount }),
        (any::<u64>(), any::<u64>(), any::<i64>())
            .prop_map(|(from, to, amount)| SmallBankProcedure::SendPayment { from, to, amount }),
        (any::<u64>(), any::<i64>())
            .prop_map(|(account, amount)| SmallBankProcedure::TransactSavings { account, amount }),
        (any::<u64>(), any::<i64>())
            .prop_map(|(account, amount)| SmallBankProcedure::WriteCheck { account, amount }),
    ]
}

fn arb_call() -> impl Strategy<Value = ContractCall> {
    prop_oneof![
        arb_procedure().prop_map(ContractCall::SmallBank),
        (
            prop::collection::vec(any::<u8>(), 0..32),
            prop::collection::vec(any::<i64>(), 0..6),
            prop::collection::vec(arb_key(), 0..4),
        )
            .prop_map(|(code, args, declared_keys)| ContractCall::Program {
                code,
                args,
                declared_keys,
            }),
        prop::collection::vec(arb_operation(), 0..6).prop_map(ContractCall::KvOps),
        (0u8..1).prop_map(|_| ContractCall::Noop),
    ]
}

/// A transaction as a client submits it, over any call: SmallBank,
/// `Program` or `KvOps`.
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (
        any::<u64>(),
        any::<u32>(),
        arb_call(),
        1u32..8,
        any::<u64>(),
    )
        .prop_map(|(id, client, call, n_shards, at)| {
            Transaction::new(
                TxId::new(id),
                ClientId::new(client),
                call,
                n_shards,
                SimTime(at),
            )
        })
}

/// A transaction as it decodes outside a block: without the shard set that
/// only the block carrying it can derive, and without the submission time,
/// which no copy on the wire carries.
fn arb_bare_transaction() -> impl Strategy<Value = Transaction> {
    arb_transaction().prop_map(|tx| Transaction {
        shards: Vec::new(),
        submitted_at: SimTime::ZERO,
        ..tx
    })
}

/// A preplayed transaction as an engine may leave it: its outcome the read
/// set alone, at any claimed place in the serialized order.
fn arb_preplayed() -> impl Strategy<Value = PreplayedTx> {
    (
        arb_transaction(),
        prop::collection::vec(arb_access_record(), 0..6),
        any::<u32>(),
    )
        .prop_map(|(tx, read_set, order)| {
            let outcome = ExecOutcome {
                read_set,
                ..Default::default()
            };
            PreplayedTx::new(tx, outcome, order)
        })
}

/// A preplayed transaction as it decodes outside a block: bare, at place 0.
fn arb_bare_preplayed() -> impl Strategy<Value = PreplayedTx> {
    (arb_bare_transaction(), arb_preplayed()).prop_map(|(tx, preplayed)| PreplayedTx {
        tx,
        order: 0,
        ..preplayed
    })
}

/// A payload as it decodes outside a block: bare transactions.
fn arb_bare_payload() -> impl Strategy<Value = BlockPayload> {
    (
        prop::collection::vec(arb_bare_preplayed(), 0..4),
        prop::collection::vec(arb_bare_transaction(), 0..4),
    )
        .prop_map(|(single_shard, cross_shard)| BlockPayload {
            single_shard,
            cross_shard,
        })
}

fn arb_payload() -> impl Strategy<Value = BlockPayload> {
    (
        prop::collection::vec(arb_preplayed(), 0..4),
        prop::collection::vec(arb_transaction(), 0..4),
    )
        .prop_map(|(single_shard, cross_shard)| BlockPayload {
            single_shard,
            cross_shard,
        })
}

fn arb_block_kind() -> impl Strategy<Value = BlockKind> {
    prop_oneof![
        (0u8..1).prop_map(|_| BlockKind::Normal),
        (0u8..1).prop_map(|_| BlockKind::Skip),
        (0u8..1).prop_map(|_| BlockKind::Shift),
    ]
}

/// A block as its proposer seals it and a receiver decodes it: the
/// preplayed batch in serialized order and numbered by position, every
/// shard set derived from its call and the block's shard count.
fn arb_block() -> impl Strategy<Value = Block> {
    (arb_block_kind(), 1u32..8, arb_payload()).prop_map(|(kind, n_shards, payload)| {
        Block::clone(&Block::new(kind, n_shards, payload).seal())
    })
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
        .prop_map(|(a, b, c, d)| Digest([a, b, c, d]))
}

fn arb_header() -> impl Strategy<Value = Header> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>()),
        arb_digest(),
        prop::collection::vec(arb_digest(), 0..5),
        any::<u64>(),
    )
        .prop_map(|((dag, round, author), block_digest, parents, at)| {
            Header::new(
                DagId::new(dag),
                Round::new(round),
                ReplicaId::new(author),
                block_digest,
                parents,
                SimTime(at),
            )
        })
}

fn arb_certificate() -> impl Strategy<Value = Certificate> {
    (
        arb_digest(),
        (any::<u64>(), any::<u64>(), any::<u32>()),
        prop::collection::vec((0u32..16).prop_map(ReplicaId::new), 0..7),
    )
        .prop_map(|(header_digest, (dag, round, author), signers)| {
            Certificate::new(
                header_digest,
                DagId::new(dag),
                Round::new(round),
                ReplicaId::new(author),
                signers,
            )
        })
}

fn arb_sealed_block() -> impl Strategy<Value = Arc<SealedBlock>> {
    arb_block().prop_map(|block| Arc::new(block.seal()))
}

fn arb_vertex() -> impl Strategy<Value = Vertex> {
    (arb_header(), arb_sealed_block(), arb_certificate())
        .prop_map(|(header, block, certificate)| Vertex::new(header, block, certificate))
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_header(), arb_sealed_block())
            .prop_map(|(header, block)| Message::Header { header, block }),
        (arb_digest(), (any::<u64>(), any::<u64>(), any::<u32>()),).prop_map(
            |(header_digest, (dag, round, signer))| Message::Ack {
                header_digest,
                dag: DagId::new(dag),
                round: Round::new(round),
                signer: ReplicaId::new(signer),
            }
        ),
        arb_certificate().prop_map(Message::Certificate),
        arb_certificate().prop_map(Message::Fetch),
        arb_vertex().prop_map(|v| Message::Vertex(Box::new(v))),
    ]
}

fn arb_f64() -> impl Strategy<Value = f64> {
    // Any bit pattern but NaN, which is not equal to itself.
    any::<u64>().prop_map(|bits| {
        Some(f64::from_bits(bits))
            .filter(|f| !f.is_nan())
            .unwrap_or(0.5)
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..12)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn arb_latency() -> impl Strategy<Value = LatencyModel> {
    prop_oneof![
        (0u8..1).prop_map(|_| LatencyModel::Instant),
        any::<u64>().prop_map(|micros| LatencyModel::Fixed { micros }),
        (any::<u64>(), any::<u64>()).prop_map(|(base_micros, jitter_micros)| {
            LatencyModel::Jittered {
                base_micros,
                jitter_micros,
            }
        }),
    ]
}

fn arb_backend() -> impl Strategy<Value = StorageBackend> {
    any::<bool>().prop_map(|wal| {
        if wal {
            StorageBackend::Wal
        } else {
            StorageBackend::Mem
        }
    })
}

fn arb_ce_config() -> impl Strategy<Value = CeConfig> {
    (any::<usize>(), any::<usize>(), any::<u64>()).prop_map(
        |(executors, batch_size, synthetic_op_cost_ns)| CeConfig {
            executors,
            batch_size,
            synthetic_op_cost_ns,
        },
    )
}

fn arb_reconfig() -> impl Strategy<Value = ReconfigConfig> {
    (any::<u64>(), any::<u64>()).prop_map(|(silent_rounds_k, period_k_prime)| ReconfigConfig {
        silent_rounds_k,
        period_k_prime,
    })
}

fn arb_storage_config() -> impl Strategy<Value = StorageConfig> {
    (arb_backend(), arb_string(), any::<u64>()).prop_map(
        |(backend, data_dir, compact_wal_bytes)| StorageConfig {
            backend,
            data_dir,
            compact_wal_bytes,
        },
    )
}

fn arb_system_config() -> impl Strategy<Value = SystemConfig> {
    (
        (any::<u32>(), arb_ce_config(), any::<usize>()),
        arb_reconfig(),
        arb_latency(),
        any::<u64>(),
        arb_storage_config(),
    )
        .prop_map(
            |((n_replicas, ce, validators), reconfig, latency, max_rounds, storage)| SystemConfig {
                n_replicas,
                ce,
                validators,
                reconfig,
                latency,
                max_rounds,
                storage,
            },
        )
}

fn arb_mode() -> impl Strategy<Value = ExecutionMode> {
    (0usize..3).prop_map(|i| {
        [
            ExecutionMode::Thunderbolt,
            ExecutionMode::ThunderboltOcc,
            ExecutionMode::Tusk,
        ][i]
    })
}

fn arb_byzantine() -> impl Strategy<Value = ByzantineBehavior> {
    (0usize..3).prop_map(|i| {
        [
            ByzantineBehavior::TamperReads,
            ByzantineBehavior::Equivocate,
            ByzantineBehavior::OverfullWrongShard,
        ][i]
    })
}

fn arb_option<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, value)| some.then_some(value))
}

fn arb_cluster_config() -> impl Strategy<Value = ClusterConfig> {
    (
        arb_system_config(),
        arb_mode(),
        (any::<bool>(), any::<bool>()),
        any::<u64>(),
        arb_option(arb_string()),
        arb_option((any::<u32>().prop_map(ReplicaId::new), arb_byzantine())),
    )
        .prop_map(
            |(system, mode, (use_skip_blocks, lockstep), seed, label, byzantine)| ClusterConfig {
                system,
                mode,
                use_skip_blocks,
                seed,
                label,
                byzantine,
                lockstep,
            },
        )
}

fn arb_smallbank_config() -> impl Strategy<Value = SmallBankConfig> {
    (
        any::<u64>(),
        (arb_f64(), arb_f64(), arb_f64()),
        any::<u32>(),
        (any::<i64>(), any::<i64>()),
        any::<u64>(),
    )
        .prop_map(
            |(accounts, (theta, pr_read, cross_shard_fraction), n_shards, amounts, seed)| {
                SmallBankConfig {
                    accounts,
                    theta,
                    pr_read,
                    cross_shard_fraction,
                    n_shards,
                    max_amount: amounts.0,
                    initial_balance: amounts.1,
                    seed,
                }
            },
        )
}

fn arb_node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        any::<u32>(),
        prop::collection::vec(any::<u16>(), 0..8),
        any::<u64>(),
        arb_cluster_config(),
        arb_smallbank_config(),
    )
        .prop_map(
            |(node, ports, run_deadline_millis, config, smallbank)| NodeSpec {
                node,
                ports,
                run_deadline_millis,
                config,
                smallbank,
            },
        )
}

fn arb_commit_sample() -> impl Strategy<Value = RoundCommitSample> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(dag, round, at, digest)| {
        RoundCommitSample {
            dag,
            round: Round::new(round),
            committed_at: SimTime(at),
            digest,
        }
    })
}

fn arb_run_report() -> impl Strategy<Value = RunReport> {
    let counters = || prop::collection::vec(any::<u64>(), 28..29);
    let seconds = || prop::collection::vec(arb_f64(), 7..8);
    (
        (arb_string(), arb_string()),
        any::<u32>(),
        counters(),
        seconds(),
        prop::collection::vec(arb_commit_sample(), 0..5),
    )
        .prop_map(
            |((label, workload), replicas, n, f, round_commits)| RunReport {
                label,
                workload,
                replicas,
                committed_txs: n[0],
                single_shard_txs: n[1],
                cross_shard_txs: n[2],
                invalid_blocks: n[3],
                reexecutions: n[4],
                batches_reused: n[16],
                batches_repreplayed: n[17],
                reconfigurations: n[5],
                duration: SimTime(n[6]),
                total_latency_secs: f[0],
                timed_txs: n[27],
                latency_p50_secs: f[1],
                latency_p99_secs: f[2],
                // Not shipped: the decoder leaves it empty.
                latency_hist: LatencyHistogram::default(),
                validate_busy_secs: f[3],
                apply_busy_secs: f[4],
                execute_busy_secs: f[5],
                coalesced_batches: n[7],
                apply_calls: n[8],
                blocks_replayed_ahead: n[18],
                blocks_replayed_inline: n[19],
                commit_order_digest: n[20],
                round_commits,
                highest_round: Round::new(n[9]),
                msgs_sent: n[10],
                msgs_delivered: n[11],
                msgs_dropped: n[12],
                bytes_sent: n[13],
                bytes_delivered: n[14],
                rejected_vertices: n[21],
                fetches_sent: n[22],
                fetches_answered: n[23],
                fetches_refused: n[24],
                vertices_fetched: n[25],
                certificates_dropped: n[26],
                faults_applied: n[15],
                faults_unapplied: n[6] ^ n[15],
                total_queue_wait_secs: f[6],
            },
        )
}

fn arb_commit_marker() -> impl Strategy<Value = CommitMarker> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(dag, round, digest)| CommitMarker {
        dag,
        round,
        digest,
    })
}

fn arb_wal_record() -> impl Strategy<Value = WalRecord> {
    let batch = prop::collection::vec((arb_key(), arb_value()), 0..6)
        .prop_map(|writes| writes.into_iter().collect::<WriteBatch>());
    prop_oneof![
        prop::collection::vec(batch, 0..4).prop_map(WalRecord::Batches),
        arb_commit_marker().prop_map(WalRecord::Commit),
    ]
}

// --- the properties --------------------------------------------------------

/// The one list of wire types. Each entry names its test, the type, and the
/// generator its values are drawn from, and a type a digest names adds
/// `digests` (the value's digest, and that of its fields sealed afresh); the
/// test checks the canonical-form property and the digest property (module
/// doc). A type with a `Wire` impl belongs here; the two left out are private
/// to their modules: the message envelope, which every `Message` carries,
/// and the WAL's snapshot record.
macro_rules! canonical_forms {
    (@digests) => { None };
    (@digests $digests:expr) => { Some($digests) };
    ($($test:ident: $ty:ty = $strategy:expr $(, digests $digests:expr)?;)+) => {$(
        #[test]
        fn $test() {
            let digests: Option<Digests<$ty>> = canonical_forms!(@digests $($digests)?);
            check_canonical::<$ty>(stringify!($ty), $strategy, digests);
        }
    )+};
}

canonical_forms! {
    u8_roundtrip: u8 = any::<u8>();
    u16_roundtrip: u16 = any::<u16>();
    u32_roundtrip: u32 = any::<u32>();
    u64_roundtrip: u64 = any::<u64>();
    usize_roundtrip: usize = any::<usize>();
    i64_roundtrip: i64 = any::<i64>();
    f64_roundtrip: f64 = arb_f64();
    bool_roundtrip: bool = any::<bool>();
    strings_roundtrip: String = arb_string();
    byte_vectors_roundtrip: Vec<u8> = prop::collection::vec(any::<u8>(), 0..16);
    options_roundtrip: Option<u64> = arb_option(any::<u64>());
    pairs_roundtrip: (u32, i64) = (any::<u32>(), any::<i64>());
    replica_ids_roundtrip: ReplicaId = any::<u32>().prop_map(ReplicaId::new);
    shard_ids_roundtrip: ShardId = any::<u32>().prop_map(ShardId::new);
    client_ids_roundtrip: ClientId = any::<u32>().prop_map(ClientId::new);
    tx_ids_roundtrip: TxId = any::<u64>().prop_map(TxId::new);
    dag_ids_roundtrip: DagId = any::<u64>().prop_map(DagId::new);
    rounds_roundtrip: Round = any::<u64>().prop_map(Round::new);
    sim_times_roundtrip: SimTime = any::<u64>().prop_map(SimTime);
    digests_roundtrip: Digest = arb_digest();
    keyspaces_roundtrip: KeySpace = arb_keyspace();
    keys_roundtrip: Key = arb_key();
    values_roundtrip: Value = arb_value();
    operations_roundtrip: Operation = arb_operation();
    access_records_roundtrip: AccessRecord = arb_access_record();
    procedures_roundtrip: SmallBankProcedure = arb_procedure();
    calls_roundtrip: ContractCall = arb_call();
    transactions_roundtrip: Transaction = arb_bare_transaction();
    preplayed_txs_roundtrip: PreplayedTx = arb_bare_preplayed();
    block_kinds_roundtrip: BlockKind = arb_block_kind();
    payloads_roundtrip: BlockPayload = arb_bare_payload();
    blocks_of_every_kind_roundtrip: Block = arb_block();
    shared_blocks_roundtrip: Arc<SealedBlock> = arb_sealed_block(),
        digests |block| (block.digest(), Block::clone(block).seal().digest());
    headers_roundtrip: Header = arb_header(), digests |header| (header.digest(), header.digest());
    certificates_roundtrip: Certificate = arb_certificate();
    vertices_roundtrip: Vertex = arb_vertex();
    messages_of_every_variant_roundtrip: Message = arb_message();
    latency_models_roundtrip: LatencyModel = arb_latency();
    storage_backends_roundtrip: StorageBackend = arb_backend();
    ce_configs_roundtrip: CeConfig = arb_ce_config();
    reconfig_configs_roundtrip: ReconfigConfig = arb_reconfig();
    storage_configs_roundtrip: StorageConfig = arb_storage_config();
    system_configs_roundtrip: SystemConfig = arb_system_config();
    execution_modes_roundtrip: ExecutionMode = arb_mode();
    byzantine_behaviors_roundtrip: ByzantineBehavior = arb_byzantine();
    cluster_configs_roundtrip: ClusterConfig = arb_cluster_config();
    smallbank_configs_roundtrip: SmallBankConfig = arb_smallbank_config();
    node_specs_roundtrip: NodeSpec = arb_node_spec();
    round_commit_samples_roundtrip: RoundCommitSample = arb_commit_sample();
    run_reports_roundtrip: RunReport = arb_run_report();
    commit_markers_roundtrip: CommitMarker = arb_commit_marker();
    wal_records_roundtrip: WalRecord = arb_wal_record();
}

/// Shared content encodes as the content itself, and a sealed block as the
/// block.
#[test]
fn a_shared_block_encodes_as_the_block() {
    let mut rng = TestRng::deterministic(7);
    let block = arb_block().generate(&mut rng);
    assert_eq!(
        Arc::new(block.clone().seal()).to_wire_bytes(),
        block.to_wire_bytes()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The envelope stays fixed-width and positional while everything
    /// behind it is varints: magic at 0..4, version at 4..6, the variant tag
    /// at 6. A copy stamped with the fixed-width version 2 is refused.
    #[test]
    fn message_encodings_start_with_the_versioned_envelope(msg in arb_message()) {
        let mut bytes = msg.to_wire_bytes();
        prop_assert_eq!(
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            thunderbolt::core::messages::WIRE_MAGIC
        );
        prop_assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            thunderbolt::core::messages::WIRE_FORMAT_VERSION
        );
        let tag = match msg.kind() {
            "header" => 0,
            "ack" => 1,
            "vertex" => 2,
            "certificate" => 3,
            _ => 4,
        };
        prop_assert_eq!(bytes[6], tag);
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        prop_assert_eq!(
            Message::from_wire_bytes(&bytes),
            Err(WireError::UnsupportedVersion { found: 2 })
        );
    }
}

/// A header message carrying a full batch of preplayed transactions — the
/// largest frame the cluster produces (the default CE batch is well under the
/// 768 single-shard + 128 cross-shard transactions packed here).
#[test]
fn max_size_batch_roundtrips() {
    let mut rng = TestRng::deterministic(0xBA7C);
    let tx_strategy = arb_transaction();
    let preplayed_strategy = arb_preplayed();
    let payload = BlockPayload {
        single_shard: (0..768)
            .map(|i| {
                let mut p = preplayed_strategy.generate(&mut rng);
                p.order = i;
                p
            })
            .collect(),
        cross_shard: (0..128).map(|_| tx_strategy.generate(&mut rng)).collect(),
    };
    let block = Block::new(BlockKind::Normal, 4, payload);
    let header = Header::new(
        DagId::new(1),
        Round::new(9),
        ReplicaId::new(2),
        Digest([1, 2, 3, 4]),
        vec![Digest([5, 6, 7, 8]); 4],
        SimTime(123_455),
    );
    let msg = Message::Header {
        header,
        block: Arc::new(block.seal()),
    };
    let frame = msg.to_wire_bytes();
    assert!(
        frame.len() > 64 * 1024,
        "a 896-transaction block should dominate a 64 KiB frame, got {} bytes",
        frame.len()
    );
    roundtrips(&msg);
}

/// The per-transaction byte budget of the two SmallBank procedures every
/// proposer preplays: a `SendPayment` and a `GetBalance` with their read
/// set, as they ride in a `Header` block to each of the `n − 1` peers.
/// Measured on the blocks of a short run of the benchmark's cluster (1 000
/// accounts, θ 0.85, half reads, batches of 200), where they average 24.9
/// and 21.7 bytes; the ceilings leave room for the longer transaction ids
/// of a full-length run (25.8 and 22.6 bytes over 400 rounds). With the
/// submission time that format version 8 also shipped they cost 26.8 and
/// 23.5 bytes (28.8 and 25.6 over 400 rounds), with the shard set and
/// `order` of version 6 30.1 and 26.9, with the write set, result and
/// abort flag of version 5 49.9 and 32.9, and with fixed-width integers 148
/// and 96.
#[test]
fn preplayed_smallbank_transactions_fit_the_byte_budget() {
    use thunderbolt::prelude::*;

    const SEND_PAYMENT_CEILING: f64 = 26.0;
    const GET_BALANCE_CEILING: f64 = 23.0;

    let mut sim = ScenarioBuilder::new(4)
        .engine(ExecutionMode::Thunderbolt)
        .smallbank(SmallBankConfig {
            accounts: 1_000,
            theta: 0.85,
            pr_read: 0.5,
            ..SmallBankConfig::default()
        })
        .executors(1, 200)
        .rounds(12)
        .seed(42)
        .lockstep()
        .tune(|system| system.ce = system.ce.without_synthetic_cost())
        .build();
    assert!(sim.run().committed_txs > 0);

    let mut sizes: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
    for vertex in sim.replica(ReplicaId::new(0)).dag().iter() {
        for preplayed in &vertex.block.payload.single_shard {
            let ContractCall::SmallBank(procedure) = &preplayed.tx.call else {
                panic!("a SmallBank run preplayed {:?}", preplayed.tx.call);
            };
            let entry = sizes.entry(procedure.name()).or_default();
            entry.0 += preplayed.encoded_len();
            entry.1 += 1;
        }
    }
    for (name, ceiling) in [
        ("SendPayment", SEND_PAYMENT_CEILING),
        ("GetBalance", GET_BALANCE_CEILING),
    ] {
        let (bytes, count) = sizes[name];
        assert!(count >= 100, "only {count} preplayed {name} transactions");
        let mean = bytes as f64 / count as f64;
        assert!(
            mean <= ceiling,
            "a preplayed {name} encodes to {mean:.1} B on average, over its {ceiling} B budget"
        );
    }
}
