//! A threaded, std-only TCP transport: one `std::net::TcpStream` per peer.
//!
//! This is the second [`Transport`] implementation, used by a node process
//! to run a cluster as N OS processes. The design is deliberately boring:
//!
//! - **Outbound**: one lazily-dialed `TcpStream` per peer, used only for
//!   writing. The first dial of a peer retries with backoff until
//!   [`CONNECT_DEADLINE`] so peers may start in any order. A peer that has
//!   been reached once and is gone has exited, not yet started: a stream
//!   that breaks mid-run gets one immediate reconnect attempt per send
//!   before the message counts as dropped. Restarting a node mid-run is
//!   therefore not supported: what is sent to it while it is away is lost,
//!   and nothing retransmits it (`docs/NET.md`).
//! - **Inbound**: a listener thread accepts connections; each accepted
//!   stream gets a reader thread that decodes frames and pushes them into an
//!   in-process channel. A peer that reconnects simply gets a fresh reader
//!   thread (reconnect-on-accept); the stale reader exits on EOF. Each
//!   reader owns one buffered socket reader and one payload buffer, reused
//!   for every frame of its connection.
//! - **Framing**: every connection starts with a fixed hello
//!   (`magic`, wire-format version, sender id), then carries length-prefixed
//!   frames: `[u32 LE payload length][payload]` where the payload is the
//!   message's [`Wire`] encoding. A message is encoded once, straight into a
//!   frame buffer, and each frame leaves in one `write`. A hello whose sender
//!   is not a committee peer, or is the local replica, closes the connection
//!   before any frame is read. Frames above [`MAX_FRAME_BYTES`] are
//!   rejected — a corrupt length prefix must not allocate gigabytes.
//! - **Loop-back**: sends addressed to the local replica bypass TCP and go
//!   straight into the inbound channel (DAG broadcasts include the sender).
//!
//! Statistics count payload bytes (the `Wire` encoding), matching the
//! simulator's [`crate::transport::WireSized`] accounting, so sim and TCP runs of the same
//! scenario report comparable `bytes_sent` / `bytes_delivered` (asserted by
//! `crates/launcher/tests/real_net_smoke.rs`).

use crate::sim::NetworkStats;
use crate::transport::{Inbound, RecvError, Transport, TransportError};
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tb_types::wire::{Wire, WireWriter};
use tb_types::{ReplicaId, SimTime};

/// Connection hello magic: `"TBN1"` little-endian.
pub const TCP_MAGIC: u32 = 0x314e_4254;
/// Version of the framing layer (bumped together with the message wire
/// format, see `tb_core::messages::WIRE_FORMAT_VERSION`).
pub const TCP_FRAME_VERSION: u16 = 9;
/// Upper bound on a single frame's payload, far above any real block.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;
/// How long the first dial of a peer keeps retrying before the peer counts
/// as unreachable.
pub const CONNECT_DEADLINE: Duration = Duration::from_secs(10);
/// Poll interval used by the accept loop and reader timeouts so worker
/// threads notice shutdown promptly.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Bytes of the hello: magic `u32`, version `u16`, sender id `u32`.
const HELLO_LEN: usize = 10;
/// Bytes of the length prefix in front of every frame's payload.
const FRAME_PREFIX: usize = 4;
/// Capacity of each connection's buffered reader: many small frames per
/// `read`, while a block-sized payload is read straight into its buffer.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A peer of the TCP transport: its committee id and socket address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpPeer {
    /// Committee id of the peer.
    pub id: ReplicaId,
    /// Address the peer listens on.
    pub addr: SocketAddr,
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_delivered: AtomicU64,
    bytes_dropped: AtomicU64,
}

/// The threaded TCP transport. See the module docs for the design.
pub struct TcpTransport<M> {
    local: ReplicaId,
    peers: Vec<TcpPeer>,
    outbound: HashMap<ReplicaId, TcpStream>,
    /// Peers a dial has reached at least once.
    reached: HashSet<ReplicaId>,
    inbound_rx: mpsc::Receiver<Inbound<M>>,
    loopback_tx: mpsc::Sender<Inbound<M>>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
    shut_down: bool,
    /// Origin of the arrival clock.
    bound_at: Instant,
}

impl<M> std::fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("local", &self.local)
            .field("peers", &self.peers)
            .field("shut_down", &self.shut_down)
            .finish_non_exhaustive()
    }
}

impl<M: Wire + Send + 'static> TcpTransport<M> {
    /// Binds the local replica's listener and starts the accept loop.
    ///
    /// `peers` must contain every replica of the committee including the
    /// local one (whose address is the one bound). Outbound connections are
    /// dialed lazily on first send so peers may start in any order.
    pub fn bind(local: ReplicaId, peers: Vec<TcpPeer>) -> std::io::Result<Self> {
        let local_addr = peers
            .iter()
            .find(|p| p.id == local)
            .map(|p| p.addr)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("local replica {local} missing from peer list"),
                )
            })?;
        let listener = TcpListener::bind(local_addr)?;
        listener.set_nonblocking(true)?;

        let (tx, rx) = mpsc::channel();
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let listener_thread = {
            let senders: Arc<[ReplicaId]> = peers
                .iter()
                .map(|p| p.id)
                .filter(|id| *id != local)
                .collect();
            let tx = tx.clone();
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("tb-accept-{}", local.as_inner()))
                .spawn(move || accept_loop(listener, local, senders, tx, counters, stop))?
        };

        Ok(TcpTransport {
            local,
            peers,
            outbound: HashMap::new(),
            reached: HashSet::new(),
            inbound_rx: rx,
            loopback_tx: tx,
            counters,
            stop,
            listener_thread: Some(listener_thread),
            shut_down: false,
            bound_at: Instant::now(),
        })
    }

    fn peer_addr(&self, id: ReplicaId) -> Option<SocketAddr> {
        self.peers.iter().find(|p| p.id == id).map(|p| p.addr)
    }

    /// Dials `addr`, retrying with backoff for as long as `patience` lasts,
    /// then writes the hello frame.
    fn dial(
        &self,
        peer: ReplicaId,
        addr: SocketAddr,
        patience: Duration,
    ) -> Result<TcpStream, TransportError> {
        let deadline = Instant::now() + patience;
        let mut backoff = Duration::from_millis(10);
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                Ok(mut stream) => {
                    stream.set_nodelay(true).ok();
                    let mut hello = Vec::with_capacity(HELLO_LEN);
                    hello.extend_from_slice(&TCP_MAGIC.to_le_bytes());
                    hello.extend_from_slice(&TCP_FRAME_VERSION.to_le_bytes());
                    hello.extend_from_slice(&self.local.as_inner().to_le_bytes());
                    stream
                        .write_all(&hello)
                        .map_err(|e| TransportError::Disconnected {
                            peer,
                            detail: e.to_string(),
                        })?;
                    return Ok(stream);
                }
                Err(e) => {
                    if Instant::now() + backoff > deadline {
                        return Err(TransportError::Disconnected {
                            peer,
                            detail: e.to_string(),
                        });
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(250));
                }
            }
        }
    }

    /// Encodes `msg` once, straight into a complete frame
    /// (`[u32 LE payload length][payload]`), so that each send is a single
    /// `write`. A payload above [`MAX_FRAME_BYTES`] is refused by the
    /// receiving reader.
    fn encode_frame(msg: &M) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32_le(0); // the payload length, patched in below
        msg.encode(&mut w);
        let mut frame = w.into_bytes();
        let len = u32::try_from(frame.len() - FRAME_PREFIX).unwrap_or(u32::MAX);
        frame[..FRAME_PREFIX].copy_from_slice(&len.to_le_bytes());
        frame
    }

    /// Sends one encoded `frame` to `to`, re-dialing once if the cached
    /// stream broke.
    fn send_frame(&mut self, to: ReplicaId, frame: &[u8]) -> Result<(), TransportError> {
        let addr = self.peer_addr(to).ok_or(TransportError::UnknownPeer(to))?;
        for attempt in 0..2 {
            if !self.outbound.contains_key(&to) {
                // Start-up skew is waited out on first contact only: a
                // released node that has not stopped yet must not spend the
                // connect deadline on every peer that has already exited.
                let patience = if self.reached.contains(&to) {
                    Duration::ZERO
                } else {
                    CONNECT_DEADLINE
                };
                let stream = self.dial(to, addr, patience)?;
                self.reached.insert(to);
                self.outbound.insert(to, stream);
            }
            let stream = self.outbound.get_mut(&to).expect("just inserted");
            match stream.write_all(frame) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.outbound.remove(&to);
                    if attempt == 1 {
                        return Err(TransportError::Disconnected {
                            peer: to,
                            detail: e.to_string(),
                        });
                    }
                }
            }
        }
        unreachable!("loop always returns by the second attempt")
    }

    /// Every send starts here: refused once the transport is shut down,
    /// otherwise counted as `size` payload bytes handed to the network.
    fn begin_send(&self, size: u64) -> Result<(), TransportError> {
        if self.shut_down {
            return Err(TransportError::ShutDown);
        }
        self.counters.sent.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_sent.fetch_add(size, Ordering::Relaxed);
        Ok(())
    }

    fn count_dropped(&self, size: u64) {
        self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_dropped
            .fetch_add(size, Ordering::Relaxed);
    }

    /// Loop-back: the message skips the wire and goes straight into the
    /// inbound channel, but counts like any other send.
    fn send_local(&mut self, from: ReplicaId, msg: M, size: u64) -> Result<(), TransportError> {
        self.begin_send(size)?;
        let to = self.local;
        if self.loopback_tx.send(Inbound { from, to, msg }).is_err() {
            self.count_dropped(size);
            return Err(TransportError::ShutDown);
        }
        self.counters.delivered.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_delivered
            .fetch_add(size, Ordering::Relaxed);
        Ok(())
    }

    /// Counts and sends one frame; like every counter here, `size` is the
    /// payload alone, without the length prefix.
    fn send_remote(&mut self, to: ReplicaId, frame: &[u8]) -> Result<(), TransportError> {
        let size = (frame.len() - FRAME_PREFIX) as u64;
        self.begin_send(size)?;
        self.send_frame(to, frame)
            .inspect_err(|_| self.count_dropped(size))
    }
}

impl<M: Wire + Send + 'static> Transport<M> for TcpTransport<M> {
    fn replicas(&self) -> u32 {
        self.peers.len() as u32
    }

    /// Writes at once: the sender's work before this send already took real
    /// time, so there is nothing to wait for.
    fn send_at(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        msg: M,
        _not_before: SimTime,
    ) -> Result<(), TransportError> {
        if to == self.local {
            let size = msg.encoded_len() as u64;
            self.send_local(from, msg, size)
        } else {
            self.send_remote(to, &Self::encode_frame(&msg))
        }
    }

    /// Writes at once, like `send_at`.
    fn broadcast_at(
        &mut self,
        from: ReplicaId,
        msg: M,
        _not_before: SimTime,
    ) -> Result<(), TransportError> {
        // Encode once, write the same frame to every remote peer, then
        // move the message itself into the loop-back delivery — the only
        // one that needs the value. Delivery is best-effort per peer: an
        // unreachable peer counts as dropped but does not stop the remaining
        // sends (matching how real packet loss behaves); the first error is
        // reported after the fan-out.
        let frame = Self::encode_frame(&msg);
        let remote: Vec<ReplicaId> = self
            .peers
            .iter()
            .map(|p| p.id)
            .filter(|id| *id != self.local)
            .collect();
        let mut first_err = None;
        for to in remote {
            if let Err(e) = self.send_remote(to, &frame) {
                first_err.get_or_insert(e);
            }
        }
        if let Err(e) = self.send_local(from, msg, (frame.len() - FRAME_PREFIX) as u64) {
            first_err.get_or_insert(e);
        }
        first_err.map_or(Ok(()), Err)
    }

    /// The arrival time is read when the caller takes the message, not when
    /// a reader thread queued it: the clock is then monotone, and a message
    /// that waited while the caller was busy arrives when the caller is free.
    fn recv_stamped(&mut self, timeout: Duration) -> Result<(SimTime, Inbound<M>), RecvError> {
        let inbound = match self.inbound_rx.recv_timeout(timeout) {
            Ok(inbound) => inbound,
            Err(mpsc::RecvTimeoutError::Timeout) => return Err(RecvError::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => return Err(RecvError::Closed),
        };
        let arrived = SimTime::from_micros(self.bound_at.elapsed().as_micros() as u64);
        Ok((arrived, inbound))
    }

    fn stats(&self) -> NetworkStats {
        NetworkStats {
            sent: self.counters.sent.load(Ordering::Relaxed),
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes_sent.load(Ordering::Relaxed),
            bytes_delivered: self.counters.bytes_delivered.load(Ordering::Relaxed),
            bytes_dropped: self.counters.bytes_dropped.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&mut self) {
        self.close();
    }
}

impl<M> TcpTransport<M> {
    /// Stops the accept loop and closes every outbound stream, once. Both
    /// [`Transport::shutdown`] and dropping the transport come here; `Drop`
    /// cannot call the trait method, whose impl needs `M: Wire + Send`.
    fn close(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.stop.store(true, Ordering::SeqCst);
        // Closing the outbound streams makes peer readers see EOF.
        self.outbound.clear();
        if let Some(handle) = self.listener_thread.take() {
            let _ = handle.join();
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Accept loop: non-blocking accept + sleep so shutdown is noticed quickly.
fn accept_loop<M: Wire + Send + 'static>(
    listener: TcpListener,
    local: ReplicaId,
    senders: Arc<[ReplicaId]>,
    tx: mpsc::Sender<Inbound<M>>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let senders = Arc::clone(&senders);
                let tx = tx.clone();
                let counters = Arc::clone(&counters);
                let stop = Arc::clone(&stop);
                let name = format!("tb-read-{}", local.as_inner());
                if std::thread::Builder::new()
                    .name(name)
                    .spawn(move || reader_loop(stream, local, &senders, tx, counters, stop))
                    .is_err()
                {
                    // Thread spawn failure: drop the connection; the peer
                    // will reconnect and try again.
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

fn read_exact_interruptible(
    stream: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transport shutting down",
            ));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed connection",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timeout tick: loop to re-check the stop flag.
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Per-connection reader: validate the hello, then decode frames until EOF,
/// error or shutdown. `senders` are the replicas allowed to dial in: the
/// committee without the local replica.
fn reader_loop<M: Wire>(
    stream: TcpStream,
    local: ReplicaId,
    senders: &[ReplicaId],
    tx: mpsc::Sender<Inbound<M>>,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
) {
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    let mut stream = BufReader::with_capacity(READ_BUFFER_BYTES, stream);

    let mut hello = [0u8; HELLO_LEN];
    if read_exact_interruptible(&mut stream, &mut hello, &stop).is_err() {
        return;
    }
    let magic = u32::from_le_bytes([hello[0], hello[1], hello[2], hello[3]]);
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if magic != TCP_MAGIC || version != TCP_FRAME_VERSION {
        return;
    }
    let from = ReplicaId::new(u32::from_le_bytes([hello[6], hello[7], hello[8], hello[9]]));
    // The hello is the only word a connection has for who sent its frames:
    // an id outside the committee, or this replica's own, is a stranger or
    // a forgery, and none of its frames is read.
    if !senders.contains(&from) {
        return;
    }

    let mut len_buf = [0u8; FRAME_PREFIX];
    let mut buffer = Vec::new();
    loop {
        if read_exact_interruptible(&mut stream, &mut len_buf, &stop).is_err() {
            return;
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_BYTES {
            return;
        }
        let len = len as usize;
        if buffer.len() < len {
            buffer.resize(len, 0);
        }
        let payload = &mut buffer[..len];
        if read_exact_interruptible(&mut stream, payload, &stop).is_err() {
            return;
        }
        match M::from_wire_bytes(payload) {
            Ok(msg) => {
                counters.delivered.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_delivered
                    .fetch_add(len as u64, Ordering::Relaxed);
                if tx
                    .send(Inbound {
                        from,
                        to: local,
                        msg,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Err(_) => {
                // A frame that does not decode means the peer speaks a
                // different wire format; nothing later on this stream can
                // be trusted either.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers_for(n: u32) -> Vec<TcpPeer> {
        // Bind throwaway listeners to reserve distinct ports, then release
        // them. The window between drop and re-bind is acceptable for tests.
        (0..n)
            .map(|i| {
                let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
                let addr = probe.local_addr().expect("probe addr");
                drop(probe);
                TcpPeer {
                    id: ReplicaId::new(i),
                    addr,
                }
            })
            .collect()
    }

    #[test]
    fn two_processes_worth_of_transports_exchange_frames() {
        let peers = peers_for(2);
        let mut a: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(0), peers.clone()).expect("bind a");
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers).expect("bind b");

        a.send(ReplicaId::new(0), ReplicaId::new(1), 42).unwrap();
        let inbound = b.recv_timeout(Duration::from_secs(5)).expect("deliver");
        assert_eq!(inbound.from, ReplicaId::new(0));
        assert_eq!(inbound.to, ReplicaId::new(1));
        assert_eq!(inbound.msg, 42);

        b.send(ReplicaId::new(1), ReplicaId::new(0), 7).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().msg, 7);

        // Stats count the payload alone: 42 is a one-byte varint, and the
        // length prefix and the hello are not counted.
        let stats = a.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.bytes_sent, 1);
        assert_eq!(b.stats().bytes_delivered, 1);
        a.send(ReplicaId::new(0), ReplicaId::new(1), 300).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().msg, 300);
        assert_eq!(a.stats().bytes_sent, 1 + 2);
        a.shutdown();
        b.shutdown();
    }

    /// Dials `addr` by hand and sends a hello claiming `sender`, then one
    /// frame carrying `msg`.
    fn dial_claiming(addr: SocketAddr, sender: u32, msg: u64) -> TcpStream {
        dial_with_hello(addr, TCP_MAGIC, TCP_FRAME_VERSION, sender, msg)
    }

    /// Dials `addr` by hand and sends a hello of `magic`, `version` and
    /// `sender`, then one frame carrying `msg`.
    fn dial_with_hello(
        addr: SocketAddr,
        magic: u32,
        version: u16,
        sender: u32,
        msg: u64,
    ) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("dial");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&magic.to_le_bytes());
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&sender.to_le_bytes());
        let payload = msg.to_wire_bytes();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        stream.write_all(&bytes).expect("write hello and frame");
        stream
    }

    #[test]
    fn a_hello_from_outside_the_committee_or_from_ourselves_is_dropped() {
        let peers = peers_for(2);
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers.clone()).expect("bind b");
        let addr = peers[1].addr;
        let _stranger = dial_claiming(addr, 99, 1);
        let _forger = dial_claiming(addr, 1, 2);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::TimedOut),
            "a frame behind an untrusted hello was delivered"
        );
        // The same bytes from a committee peer are delivered, so the two
        // above were refused for their sender id alone.
        let _peer = dial_claiming(addr, 0, 3);
        let inbound = b.recv_timeout(Duration::from_secs(5)).expect("deliver");
        assert_eq!((inbound.from, inbound.msg), (ReplicaId::new(0), 3));
        assert_eq!(b.stats().delivered, 1);
        b.shutdown();
    }

    /// A peer built with another framing version, or speaking another
    /// protocol, is refused at the hello: none of its frames is read, even
    /// from a committee peer.
    #[test]
    fn a_hello_of_another_version_or_magic_is_dropped() {
        let peers = peers_for(2);
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers.clone()).expect("bind b");
        let addr = peers[1].addr;
        let _older = dial_with_hello(addr, TCP_MAGIC, TCP_FRAME_VERSION - 1, 0, 1);
        let _newer = dial_with_hello(addr, TCP_MAGIC, TCP_FRAME_VERSION + 1, 0, 2);
        let _foreign = dial_with_hello(addr, TCP_MAGIC ^ 1, TCP_FRAME_VERSION, 0, 3);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::TimedOut),
            "a frame behind a foreign hello was delivered"
        );
        // The same peer with this build's hello is delivered.
        let _peer = dial_claiming(addr, 0, 4);
        let inbound = b.recv_timeout(Duration::from_secs(5)).expect("deliver");
        assert_eq!((inbound.from, inbound.msg), (ReplicaId::new(0), 4));
        assert_eq!(b.stats().delivered, 1);
        b.shutdown();
    }

    #[test]
    fn broadcast_includes_local_loopback() {
        let peers = peers_for(2);
        let mut a: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(0), peers.clone()).expect("bind a");
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers).expect("bind b");

        a.broadcast(ReplicaId::new(0), 5).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().msg, 5);
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().msg, 5);
        assert_eq!(a.stats().sent, 2);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn reconnect_on_accept_survives_a_peer_restart() {
        let peers = peers_for(2);
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers.clone()).expect("bind b");
        {
            let mut a: TcpTransport<u64> =
                TcpTransport::bind(ReplicaId::new(0), peers.clone()).expect("bind a");
            a.send(ReplicaId::new(0), ReplicaId::new(1), 1).unwrap();
            assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().msg, 1);
            a.shutdown();
        }
        // A "restarted" replica 0 dials b again; b's listener accepts the
        // fresh connection alongside the dead one.
        let mut a2: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(0), peers).expect("rebind a");
        a2.send(ReplicaId::new(0), ReplicaId::new(1), 2).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().msg, 2);
        a2.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_peer_that_left_fails_fast_instead_of_being_redialled_until_the_deadline() {
        let peers = peers_for(2);
        let mut a: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(0), peers.clone()).expect("bind a");
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers).expect("bind b");
        a.send(ReplicaId::new(0), ReplicaId::new(1), 1).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().msg, 1);
        b.send(ReplicaId::new(1), ReplicaId::new(0), 2).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().msg, 2);

        a.shutdown();
        drop(a);
        // Sends keep landing in the kernel until `a`'s reader thread has
        // noticed the shutdown and closed its end; from then on a send must
        // fail at once, not after CONNECT_DEADLINE of re-dialling.
        let started = Instant::now();
        while b.send(ReplicaId::new(1), ReplicaId::new(0), 3).is_ok() {
            std::thread::sleep(Duration::from_millis(5));
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "sends to an exited peer keep succeeding"
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "an exited peer was re-dialled for {:?}",
            started.elapsed()
        );
        assert!(b.stats().dropped >= 1);
        b.shutdown();
    }

    #[test]
    fn arrival_clock_is_monotone_and_emission_times_hold_nothing_back() {
        let peers = peers_for(2);
        let mut a: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(0), peers.clone()).expect("bind a");
        let mut b: TcpTransport<u64> =
            TcpTransport::bind(ReplicaId::new(1), peers).expect("bind b");
        let (from, to) = (ReplicaId::new(0), ReplicaId::new(1));
        let hour = SimTime::from_secs(3_600);
        // Stamped at the clock's origin and an hour ahead: both are written
        // at once.
        a.send_at(from, to, 1, SimTime::ZERO).unwrap();
        a.send_at(from, to, 2, hour).unwrap();
        a.broadcast_at(from, 3, hour).unwrap();
        let mut last = SimTime::ZERO;
        for expected in [1, 2, 3] {
            let (at, inbound) = b.recv_stamped(Duration::from_secs(5)).expect("deliver");
            assert_eq!(inbound.msg, expected);
            assert!(at >= last, "arrival clock went back from {last} to {at}");
            last = at;
        }
        assert!(last < hour);
        let (_, inbound) = a.recv_stamped(Duration::from_secs(5)).expect("loop-back");
        assert_eq!(inbound.msg, 3);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn unknown_peer_is_rejected() {
        let peers = peers_for(1);
        let mut a: TcpTransport<u64> = TcpTransport::bind(ReplicaId::new(0), peers).expect("bind");
        assert_eq!(
            a.send(ReplicaId::new(0), ReplicaId::new(9), 1),
            Err(TransportError::UnknownPeer(ReplicaId::new(9)))
        );
        // The failed send still counts in the message/byte accounting.
        assert_eq!(a.stats().dropped, 1);
        a.shutdown();
    }
}
