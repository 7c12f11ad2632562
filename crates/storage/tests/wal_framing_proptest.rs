//! Property tests for the WAL frame format.
//!
//! Mirrors `tests/wire_roundtrip.rs` at the repository root: random record
//! sequences must round-trip byte-identically through
//! [`encode_frame`] / [`decode_frames`], and the exact artifacts a crash
//! leaves behind — torn tails, flipped bytes — must be rejected cleanly
//! (decode the valid prefix, never panic, never trust bytes past the
//! damage). These are the inputs [`tb_storage::WalStore`] recovery feeds
//! through the same functions on every open.

use proptest::prelude::*;
use tb_storage::wal::{decode_frames, encode_frame, wal_header_bytes, FORMAT_VERSION};
use tb_storage::{CommitMarker, WalRecord, WriteBatch};
use tb_types::{Key, KeySpace, Value};

// --- strategies over the WAL vocabulary ------------------------------------

fn arb_key() -> impl Strategy<Value = Key> {
    ((0usize..KeySpace::ALL.len()), any::<u64>())
        .prop_map(|(i, row)| Key::new(KeySpace::ALL[i], row))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u8..1).prop_map(|_| Value::None),
        any::<i64>().prop_map(Value::Int),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(Value::bytes),
    ]
}

fn arb_batch() -> impl Strategy<Value = WriteBatch> {
    prop::collection::vec((arb_key(), arb_value()), 0..6)
        .prop_map(|writes| writes.into_iter().collect())
}

fn arb_marker() -> impl Strategy<Value = CommitMarker> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(dag, round, digest)| CommitMarker {
        dag,
        round,
        digest,
    })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        prop::collection::vec(arb_batch(), 0..4).prop_map(WalRecord::Batches),
        arb_marker().prop_map(WalRecord::Commit),
    ]
}

/// Frames `records` back-to-back as [`tb_storage::WalStore`] would append
/// them, returning the buffer and the end offset of each frame.
fn concat_frames(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut ends = Vec::new();
    for record in records {
        buf.extend_from_slice(&encode_frame(record));
        ends.push(buf.len());
    }
    (buf, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any record sequence framed back-to-back decodes to the same records,
    /// consumes exactly the whole buffer, and re-encodes bit-for-bit.
    #[test]
    fn frames_round_trip_byte_identically(
        records in prop::collection::vec(arb_record(), 0..8),
    ) {
        let (buf, _) = concat_frames(&records);
        let (decoded, consumed) = decode_frames(&buf);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(&decoded, &records);
        let (reencoded, _) = concat_frames(&decoded);
        prop_assert_eq!(reencoded, buf);
    }

    /// Cutting the buffer at any byte decodes exactly the complete-frame
    /// prefix: the torn tail a crash mid-append leaves behind is discarded,
    /// never mis-decoded.
    #[test]
    fn truncated_tails_decode_the_valid_prefix(
        records in prop::collection::vec(arb_record(), 1..8),
        cut_sel in any::<u64>(),
    ) {
        let (buf, ends) = concat_frames(&records);
        let cut = (cut_sel % (buf.len() as u64 + 1)) as usize;
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let valid_len = if complete == 0 { 0 } else { ends[complete - 1] };

        let (decoded, consumed) = decode_frames(&buf[..cut]);
        prop_assert_eq!(consumed, valid_len);
        prop_assert_eq!(&decoded[..], &records[..complete]);
    }

    /// Flipping any single byte stops decoding at the corrupted frame: every
    /// frame before it decodes intact, nothing at or after it is trusted.
    /// The CRC guards the payload; the length prefix is guarded because a
    /// wrong length makes the CRC check cover the wrong slice.
    #[test]
    fn corrupted_frames_reject_cleanly(
        records in prop::collection::vec(arb_record(), 1..8),
        flip_sel in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let (mut buf, ends) = concat_frames(&records);
        let pos = (flip_sel % buf.len() as u64) as usize;
        buf[pos] ^= mask;
        // Index of the frame the flipped byte lands in.
        let damaged = ends.iter().filter(|&&end| end <= pos).count();
        let frame_start = if damaged == 0 { 0 } else { ends[damaged - 1] };

        let (decoded, consumed) = decode_frames(&buf);
        prop_assert_eq!(&decoded[..], &records[..damaged]);
        prop_assert_eq!(consumed, frame_start);
    }

    /// `decode_frames` never panics on arbitrary bytes, consumption is
    /// bounded, and decoding is prefix-stable: re-decoding exactly the
    /// consumed prefix yields the same records.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (decoded, consumed) = decode_frames(&bytes);
        prop_assert!(consumed <= bytes.len());
        let (redecoded, reconsumed) = decode_frames(&bytes[..consumed]);
        prop_assert_eq!(reconsumed, consumed);
        prop_assert_eq!(redecoded, decoded);
    }

    /// The file header stays a fixed-width, positional 14-byte stamp while
    /// the records behind it are varints: magic, format version, then the
    /// generation as a little-endian `u64` at offset 6, whatever its size.
    /// Distinct generations never give the same header.
    #[test]
    fn header_is_fixed_width_and_generation_distinct(
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        for generation in [a, b, 0, 1, u64::MAX] {
            let header = wal_header_bytes(generation);
            prop_assert_eq!(header.len(), 14);
            prop_assert_eq!(&header[..4], b"TBW1");
            prop_assert_eq!(&header[4..6], &FORMAT_VERSION.to_le_bytes());
            prop_assert_eq!(&header[6..], &generation.to_le_bytes());
        }
        if a != b {
            prop_assert_ne!(wal_header_bytes(a), wal_header_bytes(b));
        }
    }
}
