//! Hostile bytes: seeded mutations of real encodings, fed to the two
//! decoders that read bytes from outside the process — `Message`, off a
//! socket, and the WAL's `decode_frames`, off a disk after a crash.
//!
//! The inputs are real encodings from a short cluster run: a `Header`
//! message carrying a 200-transaction preplayed block, the `Vertex`,
//! `Certificate` and `Ack` of the same vertex, and WAL frames holding that
//! block's writes. Each round flips, truncates or extends bytes, or splices
//! in overlong and oversized varints, and asserts that decoding
//!
//! * does not panic,
//! * makes no allocation larger than the remaining buffer's worth of
//!   elements, so no length prefix can size one, and
//! * re-encodes whatever it accepts to exactly the bytes it read.
//!
//! One field is rewritten on purpose as well: the shard count a block ships,
//! which every transaction's shard set is derived from on receipt.
//!
//! The same allocator counts allocations and frees, which pins what a
//! transaction costs the heap: nothing. Its shard set and its read and write
//! sets live in place (`tb_types::InlineVec`), so a decoded block is a
//! constant number of allocations however many transactions it carries.

use proptest::prelude::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use thunderbolt::prelude::*;
use thunderbolt::tb_executor::validation::replay_blocks;
use thunderbolt::tb_storage::wal::{crc32, decode_frames, encode_frame};
use thunderbolt::tb_storage::{WalRecord, WriteBatch};
use thunderbolt::tb_types::ops::INLINE_ACCESSES;
use thunderbolt::tb_types::wire::{Wire, WireError};
use thunderbolt::tb_types::{Block, Header, PreplayedTx, Vertex};

/// Records, per thread, the largest single allocation asked for and how
/// many allocations (a `realloc` counts as one) and frees were made.
struct CountingAllocator;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

fn note_free() {
    let _ = FREES.try_with(|frees| frees.set(frees.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only reads sizes, and
// `note` and `note_free` touch const-initialised thread-locals that never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free();
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the largest allocation it made.
fn with_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Runs `f`, returning its result and the allocations and frees it made on
/// this thread.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocs, frees) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - allocs,
        FREES.with(Cell::get) - frees,
    )
}

/// Heap bytes one buffer byte may account for: a decoded collection holds at
/// most one element per remaining byte, and the largest element is a
/// `PreplayedTx`, read and write sets in place (a WAL batch's key index
/// costs well under 64 bytes a slot).
fn per_byte() -> usize {
    std::mem::size_of::<PreplayedTx>().max(64)
}

/// One real vertex whose block carries 200 preplayed transactions.
fn real_vertex() -> Vertex {
    let mut sim = ScenarioBuilder::new(4)
        .engine(ExecutionMode::Thunderbolt)
        .smallbank(SmallBankConfig {
            accounts: 1_000,
            ..SmallBankConfig::default()
        })
        .executors(1, 200)
        .rounds(6)
        .seed(7)
        .lockstep()
        .tune(|system| system.ce = system.ce.without_synthetic_cost())
        .build();
    sim.run();
    let vertex = sim
        .replica(ReplicaId::new(0))
        .dag()
        .iter()
        .max_by_key(|v| v.block.payload.single_shard.len())
        .expect("the run stored vertices");
    assert_eq!(vertex.block.payload.single_shard.len(), 200);
    (**vertex).clone()
}

/// Applies one to three seeded mutations.
fn mutate(rng: &mut TestRng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..1 + rng.next_u64() % 3 {
        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
        match rng.next_u64() % 7 {
            0 if at < bytes.len() => bytes[at] ^= (rng.next_u64() % 255 + 1) as u8,
            1 => bytes.truncate(at),
            2 => {
                let extra = 1 + rng.next_u64() % 16;
                bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
            }
            // Zero written in two bytes.
            3 => {
                bytes.splice(at..at, [0x80, 0x00]);
            }
            // An eleven-byte varint, or u64::MAX where a length may sit.
            4 => {
                let mut long = vec![0xff; 10];
                if rng.next_u64().is_multiple_of(2) {
                    long.push(0x01);
                } else {
                    long[9] = 0x01;
                }
                bytes.splice(at..at, long);
            }
            // A one-byte value rewritten overlong: same number, two bytes.
            5 if at < bytes.len() && bytes[at] < 0x80 => {
                let value = bytes[at];
                bytes.splice(at..=at, [value | 0x80, 0x00]);
            }
            // A run of the input copied over another place: well-formed
            // pieces in the wrong spot, such as one key written twice.
            6 if at < bytes.len() => {
                let from = (rng.next_u64() % bytes.len() as u64) as usize;
                let len = (1 + rng.next_u64() % 8) as usize;
                let len = len.min(bytes.len() - from).min(bytes.len() - at);
                bytes.copy_within(from..from + len, at);
            }
            _ => {}
        }
    }
    bytes
}

#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
    invalid_varints: usize,
}

impl Tally {
    fn record<T>(&mut self, result: &Result<T, WireError>) {
        match result {
            Ok(_) => self.accepted += 1,
            Err(e) => {
                self.rejected += 1;
                self.invalid_varints += usize::from(*e == WireError::InvalidVarint);
            }
        }
    }
}

fn check_message(bytes: &[u8], tally: &mut Tally) {
    let (decoded, peak) = with_peak(|| Message::from_wire_bytes(bytes));
    assert!(
        peak <= bytes.len() * per_byte(),
        "decoding {} bytes allocated {peak} at once",
        bytes.len()
    );
    tally.record(&decoded);
    if let Ok(message) = decoded {
        assert_eq!(
            message.to_wire_bytes(),
            bytes,
            "a mutated {} decoded but does not re-encode to its bytes",
            message.kind()
        );
    }
}

fn check_frames(bytes: &[u8]) -> usize {
    let ((records, consumed), peak) = with_peak(|| decode_frames(bytes));
    assert!(
        peak <= bytes.len() * per_byte(),
        "decoding {} WAL bytes allocated {peak} at once",
        bytes.len()
    );
    let reencoded: Vec<u8> = records.iter().flat_map(encode_frame).collect();
    assert_eq!(
        reencoded,
        bytes[..consumed],
        "WAL frames re-encode differently"
    );
    records.len()
}

const ROUNDS: u64 = 1_500;

#[test]
fn mutated_messages_never_panic_over_allocate_or_decode_to_other_bytes() {
    let vertex = real_vertex();
    let messages = [
        Message::Header {
            header: vertex.header.clone(),
            block: vertex.block.clone(),
        },
        Message::Vertex(Box::new(vertex.clone())),
        Message::Certificate(vertex.certificate.clone()),
        Message::Fetch(vertex.certificate.clone()),
        Message::Ack {
            header_digest: vertex.header.digest(),
            dag: vertex.dag(),
            round: vertex.round(),
            signer: ReplicaId::new(3),
        },
    ];
    for (seed, message) in messages.iter().enumerate() {
        let original = message.to_wire_bytes();
        let mut tally = Tally::default();
        check_message(&original, &mut tally);
        assert_eq!(tally.accepted, 1);
        let mut rng = TestRng::deterministic(seed as u64);
        for _ in 0..ROUNDS {
            check_message(&mutate(&mut rng, &original), &mut tally);
        }
        assert!(tally.rejected > ROUNDS as usize / 2, "{}", message.kind());
        assert!(tally.invalid_varints > 0, "{}", message.kind());
    }
}

#[test]
fn mutated_wal_frames_never_panic_over_allocate_or_decode_to_other_bytes() {
    let vertex = real_vertex();
    // The block's write batch, as every replica derives it from the reads
    // the block ships.
    let preplayed = &vertex.block.payload.single_shard[..];
    let replays = replay_blocks(&[preplayed], &ValidationConfig::new(1));
    let batch = replays[0].batch.clone();
    assert!(!batch.is_empty());
    let records = [
        WalRecord::Batches(vec![batch, WriteBatch::new()]),
        WalRecord::Batches(vec![[(Key::savings(7), Value::int(-250))]
            .into_iter()
            .collect()]),
        WalRecord::Commit(CommitMarker {
            dag: 0,
            round: vertex.round().as_u64(),
            digest: 0x5eed_f00d_dead_beef,
        }),
    ];
    let log: Vec<u8> = records.iter().flat_map(encode_frame).collect();
    assert_eq!(check_frames(&log), records.len());

    // Whole-log damage: the checksum stops decoding at the first bad frame.
    let mut rng = TestRng::deterministic(100);
    for _ in 0..ROUNDS {
        check_frames(&mutate(&mut rng, &log));
    }

    // Payload damage behind a valid checksum reaches the record decoder,
    // the way a torn write that happens to checksum would.
    let mut tally = Tally::default();
    for (seed, record) in records.iter().enumerate() {
        let payload = record.to_wire_bytes();
        let mut rng = TestRng::deterministic(200 + seed as u64);
        for _ in 0..ROUNDS {
            let damaged = mutate(&mut rng, &payload);
            let mut frame = (damaged.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&damaged).to_le_bytes());
            frame.extend_from_slice(&damaged);
            let decoded = check_frames(&frame);
            tally.record(&if decoded == 1 {
                Ok(())
            } else {
                WalRecord::from_wire_bytes(&damaged).map(drop)
            });
        }
    }
    assert!(tally.accepted > 0 && tally.rejected > 0);
    assert!(tally.invalid_varints > 0);
}

/// A block ships the shard count its transactions' shard sets are derived
/// from. A count of zero places no key, so decoding refuses it rather than
/// reach `Key::shard`'s assertion. Any other count decodes, with every set
/// derived under it, and a replica of a committee with another count
/// neither acknowledges nor admits the block, and counts the refusal.
#[test]
fn a_block_claiming_zero_or_another_count_of_shards_is_refused() {
    let vertex = real_vertex();
    let honest = Message::Header {
        header: vertex.header.clone(),
        block: vertex.block.clone(),
    }
    .to_wire_bytes();
    // The block is the message's last field.
    let with_block = |block: &Block| {
        let mut bytes = honest[..honest.len() - vertex.block.encoded_len()].to_vec();
        bytes.extend(block.to_wire_bytes());
        bytes
    };
    assert_eq!(with_block(&vertex.block), honest);

    let mut zero = Block::clone(&vertex.block);
    zero.n_shards = 0;
    let (decoded, peak) = with_peak(|| Message::from_wire_bytes(&with_block(&zero)));
    assert_eq!(
        decoded,
        Err(WireError::OutOfRange {
            type_name: "Block::n_shards",
            value: 0
        })
    );
    assert!(peak <= honest.len() * per_byte());

    let mut two = Block::clone(&vertex.block);
    two.n_shards = 2;
    let Ok(Message::Header { block, .. }) = Message::from_wire_bytes(&with_block(&two)) else {
        panic!("a block of two shards decodes");
    };
    assert!(block
        .payload
        .single_shard
        .iter()
        .all(|p| p.tx.shards == p.tx.call.shards(2)));
    let mut header = vertex.header.clone();
    header.block_digest = block.digest();
    let mut replica = Replica::new(ReplicaId::new(1), ClusterConfig::thunderbolt(4));
    let out = replica.handle(
        vertex.header.author,
        Message::Header { header, block },
        SimTime::ZERO,
    );
    assert!(
        out.is_empty(),
        "acknowledged a block of another shard count"
    );
    assert_eq!(replica.metrics().rejected_vertices, 1);
}

/// A SmallBank transaction owns no heap allocation: building one allocates
/// nothing, and a block of them decodes to, and drops from, the same number
/// of allocations and frees whether it carries 200 transactions or 20.
#[test]
fn a_transaction_allocates_nothing_and_a_block_costs_the_heap_the_same_at_any_size() {
    let call = ContractCall::SmallBank(SmallBankProcedure::Amalgamate { from: 1, to: 2 });
    let (tx, allocs, _) =
        counting(|| Transaction::new(TxId::new(1), ClientId::new(0), call, 4, SimTime::ZERO));
    assert_eq!(tx.shards.len(), 2);
    assert_eq!(allocs, 0, "Transaction::new of a SmallBank call allocated");

    let vertex = real_vertex();
    let header_message = |block: Block| {
        let block = block.seal();
        let header = Header {
            block_digest: block.digest(),
            ..vertex.header.clone()
        };
        Message::Header {
            header,
            block: Arc::new(block),
        }
        .to_wire_bytes()
    };
    let mut small = Block::clone(&vertex.block);
    let cross = small.payload.cross_shard.len().min(2);
    small.payload.single_shard.truncate(20 - cross);
    small.payload.cross_shard.truncate(cross);
    let (large, small) = (
        header_message(Block::clone(&vertex.block)),
        header_message(small),
    );
    let heap = |bytes: &[u8]| {
        let (message, decoded, _) =
            counting(|| Message::from_wire_bytes(bytes).expect("an honest message decodes"));
        let Message::Header { block, .. } = &message else {
            unreachable!("encoded as a header")
        };
        assert!(block
            .payload
            .single_shard
            .iter()
            .all(|p| p.outcome.read_set.len() <= INLINE_ACCESSES));
        let count = block.tx_count();
        let ((), _, dropped) = counting(|| drop(message));
        (count, decoded, dropped)
    };
    let (large, small) = (heap(&large), heap(&small));
    assert_eq!((large.0, small.0), (vertex.block.tx_count(), 20));
    assert!(large.0 >= 200);
    assert_eq!(
        large.1, small.1,
        "allocations to decode {} and 20 transactions",
        large.0
    );
    assert_eq!(
        large.2, small.2,
        "frees to drop {} and 20 transactions",
        large.0
    );
    assert!(large.1 <= 8 && large.2 == large.1, "{large:?}");
}
