//! The one replica driver. Every [`Replica`] in the repository runs through
//! [`drive`]: the simulation drives all `n` replicas over one `SimNetwork`,
//! a node process drives its one replica over a `TcpTransport`. What differs
//! between the two — where arrival times come from, what an emission time
//! means, which replicas are crashed, when nothing more can arrive — lives
//! in the [`Transport`] (see the `tb_network::transport` docs).
//!
//! # Busy time
//!
//! [`Replica::take_busy`] reports the execution work of each call, and the
//! driver keeps, per replica, the time that work ends (`busy_until`). In the
//! simulation this is what turns execution cost into simulated time. Over
//! TCP, charging it is a no-op: busy time is wall-clock time spent inside
//! `handle`, and the transport stamps the next arrival when the driver takes
//! it, after `handle` has returned. An arrival is therefore never earlier
//! than the previous arrival plus its busy time, so a node handles every
//! message at its arrival time, and the transport ignores emission times.

use crate::feed::ClientFeed;
use crate::messages::Message;
use crate::replica::{Destination, Outbound, Replica};
use std::time::Duration;
use tb_network::{RecvError, Transport};
use tb_types::{ReplicaId, SimTime};

/// How long one receive waits before `stop` is asked again. Only a real
/// transport ever waits; the simulation jumps to its next event.
const RECV_POLL: Duration = Duration::from_millis(50);

/// Runs `replicas`, the replicas local to `transport`, until `stop` returns
/// true or the transport closes.
///
/// Start: every replica's client queue is topped up and every live one
/// proposes its first block. Then, per inbound message: handle it at
/// `max(arrival, busy_until)`, move `busy_until` past the work it took,
/// send what it produced no earlier than `busy_until`, top the replica's
/// queue up, and ask `stop`. `stop` is asked after a receive that timed out
/// too, so a wall-clock deadline fires on a quiet network.
pub fn drive<T: Transport<Message>>(
    replicas: &mut [Replica],
    feed: &mut ClientFeed,
    transport: &mut T,
    mut stop: impl FnMut(&[Replica], &T) -> bool,
) {
    // Replica id → index into `replicas`.
    let mut slot = vec![usize::MAX; transport.replicas() as usize];
    for (i, replica) in replicas.iter().enumerate() {
        slot[replica.id().as_inner() as usize] = i;
    }
    let mut busy_until = vec![SimTime::ZERO; replicas.len()];

    for i in 0..replicas.len() {
        // A replica crashed from time zero is handed its first client
        // requests like the others (they are lost with it) but never starts.
        feed.top_up(replicas, i, SimTime::ZERO);
        let id = replicas[i].id();
        if transport.is_crashed(id) {
            continue;
        }
        let outbound = replicas[i].start(SimTime::ZERO);
        busy_until[i] = after(SimTime::ZERO, replicas[i].take_busy());
        emit(transport, id, outbound, busy_until[i]);
    }

    loop {
        match transport.recv_stamped(RECV_POLL) {
            Ok((arrival, inbound)) => {
                let i = slot[inbound.to.as_inner() as usize];
                let now = arrival.max(busy_until[i]);
                let outbound = replicas[i].handle(inbound.from, inbound.msg, now);
                busy_until[i] = after(now, replicas[i].take_busy());
                emit(transport, inbound.to, outbound, busy_until[i]);
                // Clients submit as fast as the cluster commits.
                feed.top_up(replicas, i, now);
            }
            Err(RecvError::TimedOut) => {}
            Err(RecvError::Closed) => return,
        }
        if stop(replicas, transport) {
            return;
        }
    }
}

fn after(start: SimTime, busy: Duration) -> SimTime {
    start + SimTime::from_micros(busy.as_micros() as u64)
}

/// Hands a replica's output to the transport, emitted no earlier than
/// `not_before`. A failed send is counted in the transport's `dropped`
/// statistics; a lockstep run that loses a frame stalls and misses its
/// commit target, which is how the failure surfaces.
fn emit<T: Transport<Message>>(
    transport: &mut T,
    from: ReplicaId,
    outbound: Vec<Outbound>,
    not_before: SimTime,
) {
    for out in outbound {
        let _ = match out.dest {
            Destination::Broadcast => transport.broadcast_at(from, out.msg, not_before),
            Destination::To(to) => transport.send_at(from, to, out.msg, not_before),
        };
    }
}
