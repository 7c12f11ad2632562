//! Digests.
//!
//! A real deployment would hash block contents with SHA-2/SHA-3 and sign
//! them with Ed25519 or BLS. The reproduction replaces cryptography with a
//! deterministic 256-bit hash of a value's canonical wire encoding
//! ([`Digest::of_bytes`]) and replaces signatures with explicit signer sets.
//! The quorum logic — which is all the protocol depends on — is unchanged.
//!
//! Every digest is the hash of bytes some value encodes to: a block, a
//! header, the `(header digest, dag, round, author)` a certificate names.
//! Decoding is strict (`tb_types::wire`), so one value has one encoding, and
//! the field list a type's wire declaration gives is also the list of what
//! its digest covers: there is no second list to fall out of step with it.

use std::fmt;

/// A 256-bit digest identifying a block, header or vertex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u64; 4]);

impl Digest {
    /// The all-zero digest, used as a placeholder.
    pub const ZERO: Digest = Digest([0; 4]);

    /// The digest of `bytes`, a canonical wire encoding.
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut hasher = StructuralHasher::new();
        hasher.write_bytes(bytes);
        hasher.finish()
    }

    /// A short human-readable prefix of the digest, for logs.
    pub fn short(&self) -> String {
        format!("{:08x}", self.0[0] >> 32)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Incremental hasher behind [`Digest::of_bytes`].
///
/// Internally this runs four independent SplitMix64 lanes seeded with
/// different constants; each absorbed word perturbs every lane. This is not
/// cryptographically secure — it does not need to be, since the threat model
/// of the reproduction replaces signatures with explicit signer sets — but it
/// is deterministic across platforms and has good dispersion, so accidental
/// collisions do not occur in practice.
#[derive(Clone, Debug)]
struct StructuralHasher {
    lanes: [u64; 4],
}

const LANE_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0x2545_f491_4f6c_dd1d,
];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StructuralHasher {
    /// Creates a hasher with the default seeds.
    fn new() -> Self {
        StructuralHasher { lanes: LANE_SEEDS }
    }

    /// Absorbs a 64-bit word.
    fn write_u64(&mut self, word: u64) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            *lane = splitmix(lane.wrapping_add(word).rotate_left(i as u32 * 7 + 1));
        }
    }

    /// Absorbs a byte slice, length first.
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Finalizes into a digest.
    fn finish(&self) -> Digest {
        let mut out = self.lanes;
        // One extra mixing round so that absorbing nothing still produces a
        // seed-dependent value and the lanes are decorrelated.
        for (i, lane) in out.iter_mut().enumerate() {
            *lane = splitmix(lane.wrapping_add(LANE_SEEDS[(i + 1) % 4]));
        }
        Digest(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_inputs_produce_identical_digests() {
        let mut a = StructuralHasher::new();
        let mut b = StructuralHasher::new();
        a.write_u64(1);
        a.write_bytes(b"hello");
        b.write_u64(1);
        b.write_bytes(b"hello");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_produce_different_digests() {
        let mut a = StructuralHasher::new();
        let mut b = StructuralHasher::new();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn order_matters() {
        let mut a = StructuralHasher::new();
        let mut b = StructuralHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_hasher_is_not_zero() {
        let d = StructuralHasher::new().finish();
        assert_ne!(d, Digest::ZERO);
    }

    #[test]
    fn of_bytes_covers_every_byte_and_the_length() {
        let bytes = *b"seventeen bytes!!";
        let d = Digest::of_bytes(&bytes);
        assert_eq!(d, Digest::of_bytes(&bytes));
        for i in 0..bytes.len() {
            let mut flipped = bytes;
            flipped[i] ^= 1;
            assert_ne!(Digest::of_bytes(&flipped), d, "byte {i}");
        }
        // The last word is zero-padded: the length tells the two apart.
        assert_ne!(Digest::of_bytes(b"abc"), Digest::of_bytes(b"abc\0"));
        assert_ne!(Digest::of_bytes(b""), Digest::of_bytes(&[0]));
    }

    #[test]
    fn digest_display_and_short() {
        let d = Digest::of_bytes(b"7");
        assert_eq!(d.to_string().len(), 64);
        assert_eq!(d.short().len(), 8);
        assert_eq!(Digest::ZERO.to_string(), "0".repeat(64));
    }

    #[test]
    fn bytes_with_length_prefix_avoid_concat_collisions() {
        let mut a = StructuralHasher::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = StructuralHasher::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
