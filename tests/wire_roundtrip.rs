//! Property tests for the wire encoding of every `tb_core::messages` type.
//!
//! The real TCP transport frames `Message::to_wire_bytes()` straight onto the
//! socket, so `decode(encode(x)) == x` must hold for every reachable value of
//! every type the envelope can carry — transactions, preplay outcomes, blocks
//! of all three kinds, headers, certificates and vertices — including
//! batch-sized payloads. `encoded_len` must also agree with the actual
//! encoding, because the transport and the byte accounting both rely on it.
//! The `RunReport` a node process hands back to its launcher travels in the
//! same encoding and is round-tripped here too.

use proptest::prelude::*;
use std::sync::Arc;
use thunderbolt::tb_types::wire::{Wire, WireError};
use thunderbolt::tb_types::{
    AccessRecord, Block, BlockKind, BlockPayload, Certificate, ClientId, ContractCall, DagId,
    Digest, ExecOutcome, Header, Key, KeySpace, Operation, PreplayedTx, ReplicaId, Round, SeqNo,
    ShardId, SimTime, SmallBankProcedure, Transaction, TxId, Value, Vertex,
};
use thunderbolt::{Message, RoundCommitSample, RunReport};

/// Encode → decode must reproduce the value exactly, consume every byte, and
/// agree with the allocation-free `encoded_len`.
fn roundtrips<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.to_wire_bytes();
    assert_eq!(
        bytes.len(),
        value.encoded_len(),
        "encoded_len disagrees with the actual encoding"
    );
    let decoded = T::from_wire_bytes(&bytes).expect("decoding our own encoding must succeed");
    assert_eq!(decoded, value);
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

fn arb_exec_outcome() -> impl Strategy<Value = ExecOutcome> {
    (
        prop::collection::vec(arb_access_record(), 0..6),
        prop::collection::vec(arb_access_record(), 0..6),
        arb_value(),
        any::<bool>(),
    )
        .prop_map(
            |(read_set, write_set, return_value, logically_aborted)| ExecOutcome {
                read_set,
                write_set,
                return_value,
                logically_aborted,
            },
        )
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

fn arb_preplayed() -> impl Strategy<Value = PreplayedTx> {
    (arb_transaction(), arb_exec_outcome(), any::<u32>())
        .prop_map(|(tx, outcome, order)| PreplayedTx::new(tx, outcome, order))
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

fn arb_block() -> impl Strategy<Value = Block> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        any::<u64>(),
        arb_block_kind(),
        arb_payload(),
        any::<u64>(),
    )
        .prop_map(
            |((dag, round, author, shard), seq, kind, payload, at)| Block {
                dag: DagId::new(dag),
                round: Round::new(round),
                author: ReplicaId::new(author),
                shard: ShardId::new(shard),
                seq: SeqNo::new(seq),
                kind,
                payload,
                created_at: SimTime(at),
            },
        )
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

fn arb_vertex() -> impl Strategy<Value = Vertex> {
    (arb_header(), arb_block(), arb_certificate())
        .prop_map(|(header, block, certificate)| Vertex::new(header, block, certificate))
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_header(), arb_block()).prop_map(|(header, block)| Message::Header {
            header,
            block: Arc::new(block)
        }),
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

// --- the properties --------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transactions_roundtrip(tx in arb_transaction()) {
        roundtrips(tx);
    }

    #[test]
    fn exec_outcomes_roundtrip(outcome in arb_exec_outcome()) {
        roundtrips(outcome);
    }

    #[test]
    fn preplayed_txs_roundtrip(p in arb_preplayed()) {
        roundtrips(p);
    }

    #[test]
    fn blocks_of_every_kind_roundtrip(block in arb_block()) {
        // Shared content encodes as the content itself.
        let shared = Arc::new(block.clone());
        prop_assert_eq!(shared.to_wire_bytes(), block.to_wire_bytes());
        roundtrips(shared);
        roundtrips(block);
    }

    #[test]
    fn headers_roundtrip(header in arb_header()) {
        roundtrips(header);
    }

    #[test]
    fn certificates_roundtrip(cert in arb_certificate()) {
        roundtrips(cert);
    }

    #[test]
    fn vertices_roundtrip(vertex in arb_vertex()) {
        roundtrips(vertex);
    }

    #[test]
    fn messages_of_every_variant_roundtrip(msg in arb_message()) {
        roundtrips(msg);
    }

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
/// 512 single-shard + 128 cross-shard transactions packed here).
#[test]
fn max_size_batch_roundtrips() {
    let mut rng = TestRng::deterministic(0xBA7C);
    let tx_strategy = arb_transaction();
    let preplayed_strategy = arb_preplayed();
    let payload = BlockPayload {
        single_shard: (0..512)
            .map(|i| {
                let mut p = preplayed_strategy.generate(&mut rng);
                p.order = i;
                p
            })
            .collect(),
        cross_shard: (0..128).map(|_| tx_strategy.generate(&mut rng)).collect(),
    };
    let block = Block::normal(
        DagId::new(1),
        Round::new(9),
        ReplicaId::new(2),
        ShardId::new(2),
        SeqNo::new(41),
        payload,
        SimTime(123_456),
    );
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
        block: Arc::new(block),
    };
    let frame = msg.to_wire_bytes();
    assert!(
        frame.len() > 64 * 1024,
        "a 640-transaction block should dominate a 64 KiB frame, got {} bytes",
        frame.len()
    );
    roundtrips(msg);
}

/// The report a TCP node prints for its launcher: every field distinct and
/// non-default, so a field written in one order and read in another (or
/// dropped from either side) cannot round-trip.
#[test]
fn run_reports_roundtrip() {
    roundtrips(RunReport {
        label: "Thunderbolt/tcp".to_string(),
        workload: "smallbank".to_string(),
        replicas: 4,
        committed_txs: 640,
        single_shard_txs: 600,
        cross_shard_txs: 40,
        invalid_blocks: 1,
        reexecutions: 17,
        reconfigurations: 2,
        duration: SimTime(1_500_000),
        total_latency_secs: 12.5,
        latency_p50_secs: 0.02,
        latency_p99_secs: 0.08,
        validate_busy_secs: 0.31,
        apply_busy_secs: 0.07,
        execute_busy_secs: 0.11,
        coalesced_batches: 9,
        apply_calls: 21,
        commit_order_digest: format!("{:016x}", 0xdead_beefu64),
        round_commits: vec![
            RoundCommitSample {
                dag: 0,
                round: Round::new(1),
                committed_at: SimTime(250_000),
                digest: 0xfeed,
            },
            RoundCommitSample {
                dag: 1,
                round: Round::new(3),
                committed_at: SimTime(900_000),
                digest: 0xdead_beef,
            },
        ],
        highest_round: Round::new(9),
        msgs_sent: 100,
        msgs_delivered: 90,
        msgs_dropped: 3,
        bytes_sent: 40_000,
        bytes_delivered: 36_000,
        faults_applied: 5,
        faults_unapplied: 6,
        total_queue_wait_secs: 2.25,
    });
    roundtrips(RunReport::default());
}

/// The per-transaction byte budget of the two SmallBank procedures every
/// proposer preplays: a `SendPayment` and a `GetBalance` with their read
/// set, write set and result, as they ride in a `Header` block to each of
/// the `n − 1` peers. Measured on the blocks of a short run of the
/// benchmark's cluster (1 000 accounts, θ 0.85, half reads, batches of 200),
/// where they average 49.9 and 32.9 bytes; the ceilings leave room for the
/// longer transaction ids and times of a full-length run. With fixed-width
/// integers they cost 148 and 96 bytes.
#[test]
fn preplayed_smallbank_transactions_fit_the_byte_budget() {
    use thunderbolt::prelude::*;

    const SEND_PAYMENT_CEILING: f64 = 53.0;
    const GET_BALANCE_CEILING: f64 = 36.0;

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
