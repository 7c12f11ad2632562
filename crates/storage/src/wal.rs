//! The durable storage backend: write-ahead log + snapshots + crash
//! recovery.
//!
//! [`WalStore`] wraps a [`MemStore`] with two layers (see `docs/STORAGE.md`
//! for the full format and the recovery argument):
//!
//! 1. **Append-only WAL.** Every mutation — one [`Store::apply_batches`]
//!    call, a commit marker — is appended to `wal.log` as a length-prefixed,
//!    CRC-32-guarded frame whose payload is a [`WalRecord`] in the standard
//!    [`Wire`] encoding, and the batches then go straight into the
//!    [`MemStore`], which serves every read. Appends are buffered;
//!    [`Store::commit_marker`] flushes and fsyncs, so everything up to the
//!    last commit boundary is durable.
//! 2. **Snapshot compaction.** When the WAL grows past a threshold (checked
//!    at commit boundaries, where the log is consistent), the store writes
//!    the full versioned state to `snapshot.bin` (tmp + atomic rename) and
//!    truncates the WAL. Generation counters stitch the two files together:
//!    recovery replays the WAL only when its generation matches the
//!    snapshot's, so a crash between the rename and the truncate cannot
//!    double-apply the log.
//!
//! [`WalStore::open`] is create-or-recover: it loads the snapshot (exact
//! per-key versions and write counters), replays every valid WAL frame,
//! cleanly truncates a torn tail, and reports what it did in
//! [`RecoveryInfo`].

use crate::batch::WriteBatch;
use crate::mem::{MemStore, StoreStats};
use crate::snapshot::Snapshot;
use crate::store::{CommitMarker, Store};
use crate::traits::{KvRead, Versioned};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use tb_types::wire::{Wire, WireError, WireReader, WireWriter};
use tb_types::{Key, Value};

/// File name of the write-ahead log inside a [`WalStore`] directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the compacted snapshot inside a [`WalStore`] directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Scratch name the snapshot is written under before the atomic rename.
const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";

/// Magic number opening `wal.log` ("TBW1" little-endian).
const WAL_MAGIC: u32 = 0x3157_4254;
/// Magic number opening `snapshot.bin` ("TBS1" little-endian).
const SNAPSHOT_MAGIC: u32 = 0x3153_4254;
/// On-disk format version of both files. Bump on any change to the file
/// headers, the frame layout or the [`Wire`] encoding of a record (version 2:
/// varint integers; version 3: no per-key `Put` record, so a commit marker
/// is tag 1); `tests::format_golden` pins the encoding it names.
pub const FORMAT_VERSION: u16 = 3;
/// Encoded size of the WAL header: magic `u32` + version `u16` +
/// generation `u64`.
const WAL_HEADER_LEN: usize = 14;

/// The CRC-32 remainder of every byte value, so [`crc32`] takes one lookup
/// per byte instead of eight shift-and-xor steps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` —
/// the checksum guarding every WAL and snapshot frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xffff_ffffu32, |crc, &b| {
        CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8)
    })
}

tb_types::wire_struct!(CommitMarker {
    dag,
    round,
    digest: le
});

/// One logical WAL entry. The on-disk frame around it is
/// `[u32 payload len][u32 crc32][payload]` with the payload in the standard
/// [`Wire`] encoding ([`encode_frame`] / [`decode_frames`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// The write batches of one [`Store::apply_batches`] call, logged and
    /// replayed in order.
    Batches(Vec<WriteBatch>),
    /// A commit boundary: everything before this frame belongs to the
    /// committed prefix ending at `(dag, round)` with the given digest.
    Commit(CommitMarker),
}

fn encode_batches_payload(batches: &[WriteBatch], w: &mut WireWriter) {
    w.put_u8(0);
    w.put_len(batches.len());
    for batch in batches {
        w.put_len(batch.len());
        for (key, value) in batch.iter() {
            Wire::encode(key, w);
            value.encode(w);
        }
    }
}

impl Wire for WalRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WalRecord::Batches(batches) => encode_batches_payload(batches, w),
            WalRecord::Commit(marker) => {
                w.put_u8(1);
                marker.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => {
                let n_batches = r.seq_len()?;
                let mut batches = Vec::with_capacity(n_batches);
                for _ in 0..n_batches {
                    let n_writes = r.seq_len()?;
                    let mut batch = WriteBatch::with_capacity(n_writes);
                    for written in 1..=n_writes {
                        batch.put(Key::decode(r)?, Value::decode(r)?);
                        // A batch holds each key once; a repeated key would
                        // collapse here and not re-encode to its own bytes.
                        if batch.len() != written {
                            return Err(WireError::NonCanonical {
                                type_name: "WriteBatch",
                            });
                        }
                    }
                    batches.push(batch);
                }
                Ok(WalRecord::Batches(batches))
            }
            1 => Ok(WalRecord::Commit(CommitMarker::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "WalRecord",
                tag: u32::from(tag),
            }),
        }
    }
}

/// Wraps an already-encoded payload in the `[len][crc][payload]` WAL frame.
fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes one record as a complete WAL frame (length prefix + CRC +
/// payload). The exact bytes [`WalStore`] appends to `wal.log`.
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    frame_payload(&record.to_wire_bytes())
}

/// Decodes the valid frame prefix of `buf`, returning the records and the
/// number of bytes they occupied. Decoding stops cleanly — never panics,
/// never over-allocates — at the first torn frame (short header, length
/// past the buffer end), CRC mismatch, or malformed payload: exactly the
/// conditions a crash mid-append leaves behind. Bytes past the valid
/// prefix are the caller's to discard.
pub fn decode_frames(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 8 {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        let start = pos + 8;
        if len > buf.len() - start {
            break; // torn tail: the payload never finished writing
        }
        let payload = &buf[start..start + len];
        if crc32(payload) != crc {
            break; // corrupt frame
        }
        let Ok(record) = WalRecord::from_wire_bytes(payload) else {
            break; // CRC-valid but malformed payload: treat as corruption
        };
        records.push(record);
        pos = start + len;
    }
    (records, pos)
}

/// Encodes the 14-byte WAL file header for the given generation.
pub fn wal_header_bytes(generation: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32_le(WAL_MAGIC);
    w.put_u16_le(FORMAT_VERSION);
    w.put_u64_le(generation);
    w.into_bytes()
}

/// Parses a WAL header, returning its generation. `None` on a short file,
/// wrong magic, or unsupported version — all treated as "no usable WAL".
fn decode_wal_header(buf: &[u8]) -> Option<u64> {
    if buf.len() < WAL_HEADER_LEN {
        return None;
    }
    let mut r = WireReader::new(&buf[..WAL_HEADER_LEN]);
    if r.u32_le().ok()? != WAL_MAGIC || r.u16_le().ok()? != FORMAT_VERSION {
        return None;
    }
    r.u64_le().ok()
}

/// The decoded contents of `snapshot.bin`.
struct SnapshotRecord {
    generation: u64,
    total_writes: u64,
    last_commit: Option<CommitMarker>,
    entries: Vec<(Key, Versioned)>,
}

impl Wire for SnapshotRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.generation);
        w.put_varint(self.total_writes);
        self.last_commit.encode(w);
        w.put_len(self.entries.len());
        for (key, versioned) in &self.entries {
            Wire::encode(key, w);
            versioned.value.encode(w);
            w.put_varint(versioned.version);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let generation = r.varint()?;
        let total_writes = r.varint()?;
        let last_commit = Option::<CommitMarker>::decode(r)?;
        let n = r.seq_len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let key = Key::decode(r)?;
            let value = Value::decode(r)?;
            let version = r.varint()?;
            entries.push((key, Versioned::new(value, version)));
        }
        Ok(SnapshotRecord {
            generation,
            total_writes,
            last_commit,
            entries,
        })
    }
}

fn encode_snapshot_file(record: &SnapshotRecord) -> Vec<u8> {
    let mut header = WireWriter::new();
    header.put_u32_le(SNAPSHOT_MAGIC);
    header.put_u16_le(FORMAT_VERSION);
    let mut out = header.into_bytes();
    out.extend_from_slice(&frame_payload(&record.to_wire_bytes()));
    out
}

fn decode_snapshot_file(buf: &[u8]) -> Result<SnapshotRecord, String> {
    let mut r = WireReader::new(buf);
    if r.u32_le().map_err(|e| e.to_string())? != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic".to_string());
    }
    if r.u16_le().map_err(|e| e.to_string())? != FORMAT_VERSION {
        return Err("unsupported snapshot version".to_string());
    }
    // The body is a single `[len][crc][payload]` frame, same as the WAL.
    let rest = &buf[6..];
    if rest.len() < 8 {
        return Err("short snapshot frame".to_string());
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if len != rest.len() - 8 {
        return Err("snapshot frame length mismatch".to_string());
    }
    let payload = &rest[8..];
    if crc32(payload) != crc {
        return Err("snapshot CRC mismatch".to_string());
    }
    SnapshotRecord::from_wire_bytes(payload).map_err(|e| format!("malformed snapshot payload: {e}"))
}

/// Tuning of a [`WalStore`]. It does not affect correctness or the
/// recovered state — only when the log compacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Compact the WAL into a snapshot once it exceeds this many bytes
    /// (checked at commit boundaries).
    pub compact_wal_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            compact_wal_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What [`WalStore::open`] found and did while recovering a directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// A snapshot file was loaded.
    pub snapshot_loaded: bool,
    /// Valid WAL frames replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes discarded past the valid prefix (torn tail or a
    /// stale-generation log left by a crash mid-compaction).
    pub truncated_bytes: u64,
    /// The last durable commit marker after recovery.
    pub last_commit: Option<CommitMarker>,
}

/// The log writer and its bookkeeping. Appending a record and applying it
/// to the [`MemStore`] happen under this one lock, so replay order is apply
/// order.
struct WalState {
    writer: BufWriter<File>,
    wal_bytes: u64,
    generation: u64,
    last_commit: Option<CommitMarker>,
    compactions: u64,
}

/// The durable [`Store`] backend. See the module docs for the design and
/// `docs/STORAGE.md` for the on-disk format.
///
/// # Panics
///
/// Mutating methods panic on I/O errors, including a failed fsync of the
/// directory after a snapshot rename: a replica whose commit path can no
/// longer reach its log has no safe way to continue, and the harness treats
/// the panic like a crash.
pub struct WalStore {
    inner: MemStore,
    dir: PathBuf,
    options: WalOptions,
    recovery: RecoveryInfo,
    state: Mutex<WalState>,
}

impl WalStore {
    /// Creates or recovers a store rooted at `dir`.
    ///
    /// Recovery loads `snapshot.bin` (exact per-key versions and write
    /// counters), replays the valid prefix of `wal.log` when its generation
    /// matches the snapshot's, truncates anything past that prefix, and
    /// leaves the log open for appending. A fresh directory starts empty at
    /// generation 0. A corrupt snapshot file is an error — unlike a torn
    /// WAL tail it cannot result from a clean crash window — and so is any
    /// failure to read an existing log.
    pub fn open(dir: impl AsRef<Path>, options: WalOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let inner = MemStore::new();
        let mut recovery = RecoveryInfo::default();
        let mut generation = 0u64;
        let mut last_commit = None;

        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            let snap = decode_snapshot_file(&bytes).map_err(|reason| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {reason}", snapshot_path.display()),
                )
            })?;
            inner.restore(snap.entries);
            inner.set_total_writes(snap.total_writes);
            generation = snap.generation;
            last_commit = snap.last_commit;
            recovery.snapshot_loaded = true;
        }

        let wal_path = dir.join(WAL_FILE);
        let existing = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
            // Anything else must not pass for an empty log: the file would
            // be truncated below.
            Err(err) => return Err(err),
        };
        let mut valid_len = 0usize;
        match decode_wal_header(&existing) {
            // A log from the snapshot's own generation: replay it.
            Some(gen) if gen == generation => {
                let (records, consumed) = decode_frames(&existing[WAL_HEADER_LEN..]);
                for record in &records {
                    match record {
                        WalRecord::Batches(batches) => inner.apply_batches(batches),
                        WalRecord::Commit(marker) => last_commit = Some(*marker),
                    }
                }
                recovery.replayed_records = records.len() as u64;
                valid_len = WAL_HEADER_LEN + consumed;
            }
            // A stale generation means the crash hit between the snapshot
            // rename and the WAL truncate: the snapshot already contains
            // everything in this log, so replaying it would double-apply.
            Some(_) | None => {}
        }
        recovery.truncated_bytes = (existing.len() - valid_len) as u64;
        recovery.last_commit = last_commit;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        let mut writer = BufWriter::new(file);
        let mut wal_bytes = valid_len as u64;
        if valid_len == 0 {
            let header = wal_header_bytes(generation);
            writer.write_all(&header)?;
            writer.flush()?;
            writer.get_ref().sync_data()?;
            wal_bytes = header.len() as u64;
        }

        Ok(WalStore {
            inner,
            dir,
            options,
            recovery,
            state: Mutex::new(WalState {
                writer,
                wal_bytes,
                generation,
                last_commit,
                compactions: 0,
            }),
        })
    }

    fn state(&self) -> MutexGuard<'_, WalState> {
        self.state.lock().expect("a WAL writer panicked")
    }

    /// What [`WalStore::open`] found and did.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Current size of the WAL file in bytes (including buffered appends).
    pub fn wal_bytes(&self) -> u64 {
        self.state().wal_bytes
    }

    fn append_frame(&self, state: &mut WalState, frame: &[u8]) {
        state
            .writer
            .write_all(frame)
            .unwrap_or_else(|err| panic!("WAL append to {} failed: {err}", self.dir.display()));
        state.wal_bytes += frame.len() as u64;
    }

    fn sync_locked(&self, state: &mut WalState) {
        state
            .writer
            .flush()
            .and_then(|()| state.writer.get_ref().sync_data())
            .unwrap_or_else(|err| panic!("WAL fsync in {} failed: {err}", self.dir.display()));
    }

    /// Logs `batches` as one `Batches` frame and applies them.
    fn append_batches(&self, state: &mut WalState, batches: &[WriteBatch]) {
        let mut payload = WireWriter::new();
        encode_batches_payload(batches, &mut payload);
        self.append_frame(state, &frame_payload(&payload.into_bytes()));
        self.inner.apply_batches(batches);
    }

    fn compact_locked(&self, state: &mut WalState) {
        let generation = state.generation + 1;
        let snapshot = self.inner.snapshot();
        let record = SnapshotRecord {
            generation,
            total_writes: self.inner.stats().total_writes,
            last_commit: state.last_commit,
            entries: snapshot.iter().map(|(k, v)| (*k, v.clone())).collect(),
        };
        let tmp_path = self.dir.join(SNAPSHOT_TMP_FILE);
        let final_path = self.dir.join(SNAPSHOT_FILE);
        let write_snapshot = || -> io::Result<()> {
            let mut file = File::create(&tmp_path)?;
            file.write_all(&encode_snapshot_file(&record))?;
            file.sync_data()?;
            drop(file);
            std::fs::rename(&tmp_path, &final_path)?;
            // Make the rename itself durable before the WAL is truncated.
            File::open(&self.dir)?.sync_all()
        };
        write_snapshot()
            .unwrap_or_else(|err| panic!("snapshot write in {} failed: {err}", self.dir.display()));

        let reset_wal = || -> io::Result<BufWriter<File>> {
            let mut file = OpenOptions::new()
                .write(true)
                .truncate(true)
                .open(self.dir.join(WAL_FILE))?;
            file.write_all(&wal_header_bytes(generation))?;
            file.sync_data()?;
            Ok(BufWriter::new(file))
        };
        state.writer = reset_wal()
            .unwrap_or_else(|err| panic!("WAL reset in {} failed: {err}", self.dir.display()));
        state.wal_bytes = WAL_HEADER_LEN as u64;
        state.generation = generation;
        state.compactions += 1;
    }
}

impl KvRead for WalStore {
    fn get(&self, key: &Key) -> Value {
        self.get_versioned(key).value
    }

    fn get_versioned(&self, key: &Key) -> Versioned {
        self.inner.get_versioned(key)
    }
}

impl Store for WalStore {
    fn apply_batches(&self, batches: &[WriteBatch]) {
        if batches.iter().all(WriteBatch::is_empty) {
            return;
        }
        self.append_batches(&mut self.state(), batches);
    }

    fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn load_entries(&self, entries: &mut dyn Iterator<Item = (Key, Value)>) {
        let batch: WriteBatch = entries.collect();
        if batch.is_empty() {
            return;
        }
        let mut state = self.state();
        self.append_batches(&mut state, std::slice::from_ref(&batch));
        // Initial state is made durable immediately: a replica that crashes
        // before its first commit must still recover its genesis state.
        self.sync_locked(&mut state);
    }

    fn commit_marker(&self, marker: CommitMarker) {
        let mut state = self.state();
        self.append_frame(&mut state, &encode_frame(&WalRecord::Commit(marker)));
        self.sync_locked(&mut state);
        state.last_commit = Some(marker);
        if state.wal_bytes >= self.options.compact_wal_bytes {
            self.compact_locked(&mut state);
        }
    }

    fn last_commit(&self) -> Option<CommitMarker> {
        self.state().last_commit
    }

    fn persistent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn batch(entries: &[(u64, i64)]) -> WriteBatch {
        entries
            .iter()
            .map(|(k, v)| (Key::checking(*k), Value::int(*v)))
            .collect()
    }

    /// The definition the table is derived from: eight shift-and-xor steps
    /// per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_table_matches_the_bitwise_definition() {
        // xorshift64: a seeded stream of buffers of every length to 600.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..600 {
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }

    /// The bytes of a WAL file header and of one frame of each record kind,
    /// hashed. A change to either layout changes this hash; it must come with
    /// a bump of [`FORMAT_VERSION`], and the pair below is then re-recorded
    /// together.
    #[test]
    fn format_golden() {
        const GOLDEN: (u16, u32) = (3, 0x8ac0_7c11);
        let mut bytes = wal_header_bytes(3);
        let mut batch_a = batch(&[(1, 100_000), (700, -3)]);
        batch_a.put(Key::savings(5), Value::None);
        batch_a.put(Key::contract(9), Value::bytes(vec![1, 2, 3]));
        batch_a.put(Key::checking(u64::MAX), Value::int(i64::MIN));
        for record in [
            WalRecord::Batches(vec![batch_a, batch(&[(2, 7)])]),
            WalRecord::Commit(CommitMarker {
                dag: 1,
                round: 400,
                digest: 0xfeed_f00d_dead_beef,
            }),
        ] {
            bytes.extend_from_slice(&encode_frame(&record));
        }
        assert_eq!(
            (FORMAT_VERSION, crc32(&bytes)),
            GOLDEN,
            "the WAL encoding changed: bump FORMAT_VERSION, then record the \
             new (version, hash) pair"
        );
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let record = WalRecord::Batches(vec![batch(&[(1, 10), (2, 20)]), batch(&[(1, 11)])]);
        let frame = encode_frame(&record);
        let (decoded, consumed) = decode_frames(&frame);
        assert_eq!(decoded, vec![record.clone()]);
        assert_eq!(consumed, frame.len());

        // A flipped payload byte stops decoding at the corrupt frame.
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let (decoded, consumed) = decode_frames(&corrupt);
        assert!(decoded.is_empty());
        assert_eq!(consumed, 0);

        // A torn tail decodes the valid prefix only.
        let mut two = frame.clone();
        two.extend_from_slice(&frame[..frame.len() - 3]);
        let (decoded, consumed) = decode_frames(&two);
        assert_eq!(decoded, vec![record]);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn reads_see_applied_batches_at_once() {
        let dir = TempDir::new("wal-reads").unwrap();
        let store = WalStore::open(dir.path(), WalOptions::default()).unwrap();
        store.apply_batch(&batch(&[(1, 10)]));
        store.apply_batch(&batch(&[(1, 20)]));
        assert_eq!(store.get(&Key::checking(1)), Value::int(20));
        assert_eq!(store.get_versioned(&Key::checking(1)).version, 2);
        assert_eq!(store.stats().total_writes, 2);
    }

    #[test]
    fn open_recovers_state_versions_and_marker() {
        let dir = TempDir::new("wal-recover").unwrap();
        {
            let store = WalStore::open(dir.path(), WalOptions::default()).unwrap();
            store.load_entries(&mut (0..4u64).map(|i| (Key::checking(i), Value::int(100))));
            store.apply_batch(&batch(&[(0, 90), (1, 110)]));
            store.apply_batch(&[(Key::savings(7), Value::int(5))].into_iter().collect());
            store.commit_marker(CommitMarker {
                dag: 0,
                round: 2,
                digest: 0xfeed,
            });
        }
        let recovered = WalStore::open(dir.path(), WalOptions::default()).unwrap();
        let info = recovered.recovery();
        assert!(!info.snapshot_loaded);
        assert_eq!(info.replayed_records, 4);
        assert_eq!(info.truncated_bytes, 0);
        assert_eq!(
            recovered.last_commit(),
            Some(CommitMarker {
                dag: 0,
                round: 2,
                digest: 0xfeed,
            })
        );
        assert_eq!(recovered.get(&Key::checking(0)), Value::int(90));
        assert_eq!(recovered.get_versioned(&Key::checking(0)).version, 2);
        assert_eq!(recovered.get(&Key::savings(7)), Value::int(5));
        assert_eq!(recovered.stats().total_writes, 7);
    }

    #[test]
    fn torn_tail_is_truncated_cleanly() {
        let dir = TempDir::new("wal-torn").unwrap();
        {
            let store = WalStore::open(dir.path(), WalOptions::default()).unwrap();
            store.apply_batch(&batch(&[(1, 10)]));
            store.commit_marker(CommitMarker {
                dag: 0,
                round: 1,
                digest: 1,
            });
        }
        // Simulate a crash mid-append: half a frame after the last commit.
        let wal_path = dir.path().join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let torn = encode_frame(&WalRecord::Batches(vec![batch(&[(9, 9)])]));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&wal_path, &bytes).unwrap();

        let recovered = WalStore::open(dir.path(), WalOptions::default()).unwrap();
        assert_eq!(
            recovered.recovery().truncated_bytes,
            (torn.len() / 2) as u64
        );
        assert_eq!(recovered.get(&Key::checking(1)), Value::int(10));
        assert!(recovered.get(&Key::checking(9)).is_none());
        // The truncated store keeps working.
        recovered.apply_batch(&batch(&[(9, 1)]));
        assert_eq!(recovered.get(&Key::checking(9)), Value::int(1));
    }

    #[test]
    fn compaction_snapshots_and_truncates_then_recovers() {
        let dir = TempDir::new("wal-compact").unwrap();
        // A round logs a 15-byte batch frame and a 19-byte marker frame after
        // the 14-byte header, so the log crosses 96 bytes every third round:
        // two compactions, then rounds 6 and 7 left to replay on top of the
        // snapshot.
        let options = WalOptions {
            compact_wal_bytes: 96,
        };
        {
            let store = WalStore::open(dir.path(), options).unwrap();
            for round in 0..8u64 {
                store.apply_batch(&batch(&[(round % 3, round as i64)]));
                store.commit_marker(CommitMarker {
                    dag: 0,
                    round,
                    digest: round,
                });
            }
            assert_eq!(
                store.state().compactions,
                2,
                "threshold must have triggered"
            );
            assert_eq!(store.wal_bytes(), (WAL_HEADER_LEN + 2 * (15 + 19)) as u64);
        }
        let recovered = WalStore::open(dir.path(), options).unwrap();
        assert!(recovered.recovery().snapshot_loaded);
        assert_eq!(recovered.recovery().replayed_records, 4);
        assert_eq!(
            recovered.last_commit(),
            Some(CommitMarker {
                dag: 0,
                round: 7,
                digest: 7,
            })
        );
        assert_eq!(recovered.get(&Key::checking(1)), Value::int(7));
        // total_writes survives the snapshot round-trip.
        assert_eq!(recovered.stats().total_writes, 8);
    }

    #[test]
    fn stale_generation_wal_is_not_double_applied() {
        let dir = TempDir::new("wal-stale").unwrap();
        let options = WalOptions {
            compact_wal_bytes: 1, // compact at every commit boundary
        };
        {
            let store = WalStore::open(dir.path(), options).unwrap();
            store.apply_batch(&batch(&[(1, 10)]));
            store.commit_marker(CommitMarker {
                dag: 0,
                round: 1,
                digest: 1,
            });
        }
        // Simulate the crash window between snapshot rename and WAL
        // truncate: put back a generation-0 WAL holding the same write.
        let mut stale = wal_header_bytes(0);
        stale.extend_from_slice(&encode_frame(&WalRecord::Batches(vec![batch(&[(1, 10)])])));
        std::fs::write(dir.path().join(WAL_FILE), &stale).unwrap();

        let recovered = WalStore::open(dir.path(), options).unwrap();
        assert_eq!(recovered.recovery().replayed_records, 0);
        assert!(recovered.recovery().truncated_bytes > 0);
        // One write, not two: the stale log was discarded.
        assert_eq!(recovered.get_versioned(&Key::checking(1)).version, 1);
        assert_eq!(recovered.stats().total_writes, 1);
    }

    #[test]
    fn recovering_twice_is_idempotent() {
        let dir = TempDir::new("wal-idem").unwrap();
        {
            let store = WalStore::open(dir.path(), WalOptions::default()).unwrap();
            store.apply_batches(&[batch(&[(1, 1), (2, 2)]), batch(&[(1, 3)])]);
            store.commit_marker(CommitMarker {
                dag: 0,
                round: 1,
                digest: 9,
            });
        }
        let once = WalStore::open(dir.path(), WalOptions::default()).unwrap();
        let snap_once = Store::snapshot(&once);
        let stats_once = Store::stats(&once);
        drop(once);
        let twice = WalStore::open(dir.path(), WalOptions::default()).unwrap();
        assert!(Store::snapshot(&twice).diff_values(&snap_once).is_empty());
        assert_eq!(Store::stats(&twice), stats_once);
        assert_eq!(twice.last_commit().map(|m| m.digest), Some(9));
    }
}
