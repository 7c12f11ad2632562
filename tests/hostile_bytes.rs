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

use proptest::prelude::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use thunderbolt::prelude::*;
use thunderbolt::tb_executor::validation::replay_blocks;
use thunderbolt::tb_storage::wal::{crc32, decode_frames, encode_frame};
use thunderbolt::tb_storage::{WalRecord, WriteBatch};
use thunderbolt::tb_types::wire::{Wire, WireError};
use thunderbolt::tb_types::{PreplayedTx, Vertex};

/// Records the largest single allocation the current thread asks for.
struct PeakAllocation;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only reads sizes, and
// `note` touches a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for PeakAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocation = PeakAllocation;

/// Runs `f`, returning its result and the largest allocation it made.
fn with_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// Heap bytes one buffer byte may account for: a decoded collection holds at
/// most one element per remaining byte, and the largest element is a
/// `PreplayedTx` (a WAL batch's key index costs well under 64 bytes a slot).
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
