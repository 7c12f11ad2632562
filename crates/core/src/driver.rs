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
//! simulation this is what turns execution cost into simulated time. Each
//! message is handled in two steps with two emission points:
//!
//! 1. `handle` (or `start`), whose output — a proposal's header among it —
//!    is emitted at the handling time plus the handler's busy time;
//! 2. after the client queue is topped up, `Replica::after_emission`, the
//!    app's one after-emission step
//!    ([`App::after_emission`](crate::app::App::after_emission)): a
//!    [`ShardApp`](crate::app::ShardApp) preplays the batch of the
//!    replica's next proposal and replays the preplayed blocks whose
//!    vertices the handler admitted to the DAG, so their commit only
//!    read-checks and applies them. This step emits nothing; its busy time
//!    only moves `busy_until` on, so the replica handles its next message
//!    that much later while its header is already on the wire.
//!
//! Over TCP, charging busy time is a no-op: it is wall-clock time spent in
//! the two steps, the header is written to its sockets before the second
//! step starts, and the transport stamps the next arrival when the driver
//! takes it, after both have returned. An arrival is therefore never earlier
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
/// Start: every replica's client queue is topped up, and every live one
/// proposes its first block and runs the after-emission step. Then, per
/// inbound message: handle it at `max(arrival, busy_until)`, send what it
/// produced no earlier than the end of the work it took, top the replica's
/// queue up, run the after-emission step (preplay ahead, replay the blocks
/// the message admitted), move `busy_until` past both steps' work, and ask
/// `stop`. `stop` is asked after a receive that timed out too, so a
/// wall-clock deadline fires on a quiet network.
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
        feed.top_up(&mut replicas[i], SimTime::ZERO);
        let id = replicas[i].id();
        if transport.is_crashed(id) {
            continue;
        }
        let outbound = replicas[i].start(SimTime::ZERO);
        let sent = after(SimTime::ZERO, replicas[i].take_busy());
        emit(transport, id, outbound, sent);
        replicas[i].after_emission();
        busy_until[i] = after(sent, replicas[i].take_busy());
    }

    loop {
        match transport.recv_stamped(RECV_POLL) {
            Ok((arrival, inbound)) => {
                let i = slot[inbound.to.as_inner() as usize];
                let now = arrival.max(busy_until[i]);
                let outbound = replicas[i].handle(inbound.from, inbound.msg, now);
                let sent = after(now, replicas[i].take_busy());
                emit(transport, inbound.to, outbound, sent);
                // Clients submit as fast as the cluster commits.
                feed.top_up(&mut replicas[i], now);
                replicas[i].after_emission();
                busy_until[i] = after(sent, replicas[i].take_busy());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ExecutionMode};
    use crate::scenario::ScenarioBuilder;
    use tb_network::{NetworkStats, SimNetwork, TransportError};
    use tb_types::{CeConfig, LatencyModel, Round, SystemConfig};
    use tb_workload::{SmallBankConfig, Workload};

    /// A header's round and creation time: the time the handler that
    /// proposed it was called with.
    type HeaderStamp = (Round, SimTime);

    /// A simulated network that records every emission.
    struct Recorder {
        inner: SimNetwork<Message>,
        /// `(sender, emission time, header stamp)`, the stamp for headers.
        sent: Vec<(ReplicaId, SimTime, Option<HeaderStamp>)>,
        /// The replica the last message received went to.
        handled: Option<ReplicaId>,
    }

    impl Recorder {
        fn record(&mut self, from: ReplicaId, msg: &Message, at: SimTime) {
            let header = match msg {
                Message::Header { header, .. } => Some((header.round, header.created_at)),
                _ => None,
            };
            self.sent.push((from, at, header));
        }
    }

    impl Transport<Message> for Recorder {
        fn replicas(&self) -> u32 {
            self.inner.size()
        }

        fn send_at(
            &mut self,
            from: ReplicaId,
            to: ReplicaId,
            msg: Message,
            not_before: SimTime,
        ) -> Result<(), TransportError> {
            self.record(from, &msg, not_before);
            self.inner.send_at(from, to, msg, not_before);
            Ok(())
        }

        fn broadcast_at(
            &mut self,
            from: ReplicaId,
            msg: Message,
            not_before: SimTime,
        ) -> Result<(), TransportError> {
            self.record(from, &msg, not_before);
            self.inner.broadcast_at(from, msg, not_before);
            Ok(())
        }

        fn recv_stamped(
            &mut self,
            _timeout: Duration,
        ) -> Result<(SimTime, tb_network::Inbound<Message>), RecvError> {
            let (arrival, inbound) = self.inner.next_event().ok_or(RecvError::Closed)?;
            self.handled = Some(inbound.to);
            Ok((arrival, inbound))
        }

        fn stats(&self) -> NetworkStats {
            self.inner.stats()
        }

        fn shutdown(&mut self) {}
    }

    /// A 50 µs spin per state operation makes preplaying or replaying a
    /// 32-transaction batch cost at least 1.6 ms, against a 200 µs hop.
    const OP_COST_NS: u64 = 50_000;
    const BATCH: usize = 32;
    const HOP_MICROS: u64 = 200;

    /// Four replicas of a lockstep, all single-shard SmallBank cluster that
    /// spins [`OP_COST_NS`] per state operation, its feed, and a recording
    /// network with a [`HOP_MICROS`] hop.
    fn costly_cluster() -> (Vec<Replica>, ClientFeed, Recorder) {
        let mut system = SystemConfig::with_replicas(4);
        system.ce = CeConfig::new(1, BATCH);
        system.ce.synthetic_op_cost_ns = OP_COST_NS;
        system.validators = 1;
        let config = ClusterConfig {
            system,
            mode: ExecutionMode::Thunderbolt,
            use_skip_blocks: false,
            seed: 7,
            label: None,
            byzantine: None,
            lockstep: true,
        };
        let mut workload: Box<dyn Workload> = SmallBankConfig {
            cross_shard_fraction: 0.0,
            ..SmallBankConfig::default()
        }
        .into();
        workload.configure_for_cluster(4, config.seed);
        let state = workload.initial_state();
        let replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut replica = Replica::new(ReplicaId::new(i), config.clone());
                replica.app_mut().load_state(state.iter().cloned());
                replica
            })
            .collect();
        let feed = ClientFeed::new(workload, BATCH);
        let latency = LatencyModel::Fixed { micros: HOP_MICROS };
        let transport = Recorder {
            inner: SimNetwork::new(4, latency, config.seed),
            sent: Vec::new(),
            handled: None,
        };
        (replicas, feed, transport)
    }

    #[test]
    fn preplay_ahead_runs_after_the_header_is_on_the_wire() {
        let (mut replicas, mut feed, mut transport) = costly_cluster();
        drive(&mut replicas, &mut feed, &mut transport, |replicas, _| {
            replicas[0].current_round() >= Round::new(6)
        });

        // Every header after round 0 shipped a batch preplayed ahead: those
        // of rounds 1 to 6.
        let metrics = replicas[0].metrics();
        assert_eq!(metrics.batches_reused, 6);
        assert_eq!(metrics.batches_repreplayed, 0);
        let me = ReplicaId::new(0);
        let emissions: Vec<_> = transport
            .sent
            .iter()
            .filter(|(from, ..)| *from == me)
            .collect();
        let preplay_floor = SimTime::from_micros(BATCH as u64 * OP_COST_NS / 1_000);
        let mut checked = 0;
        for (i, (_, header_at, header)) in emissions.iter().enumerate() {
            let Some((round, _)) = header.filter(|(round, _)| *round > Round::ZERO) else {
                continue;
            };
            // The replica's next emission comes from a later handler, which
            // it starts no earlier than when preplaying ahead ends.
            let Some((_, next_at, _)) = emissions[i..].iter().find(|(_, at, _)| at > header_at)
            else {
                continue;
            };
            let reaches_peer = *header_at + SimTime::from_micros(HOP_MICROS);
            assert!(
                reaches_peer < *next_at && *header_at + preplay_floor <= *next_at,
                "round {round}: header out at {header_at}, at a peer at {reaches_peer}, \
                 the replica free again at {next_at}"
            );
            checked += 1;
        }
        assert!(checked >= 4, "{checked} headers checked");
    }

    #[test]
    fn replay_on_admission_is_charged_after_the_header_and_never_to_the_commit() {
        let (mut replicas, mut feed, mut transport) = costly_cluster();
        let me = ReplicaId::new(0);
        // Per step of replica 0 that sent a header after round 0: when the
        // handler was called (the header's creation time), when the header
        // went out, and the least the blocks it admitted cost to replay:
        // one spin per declared read (the replay spins per write too, but a
        // block declares no writes to count).
        let mut header_steps: Vec<(SimTime, SimTime, SimTime)> = Vec::new();
        let mut seen_sent = 0;
        let mut seen = std::collections::HashSet::new();
        drive(
            &mut replicas,
            &mut feed,
            &mut transport,
            |replicas, transport| {
                let sent = &transport.sent[seen_sent..];
                seen_sent = transport.sent.len();
                if transport.handled == Some(me) {
                    let ops: usize = replicas[0]
                        .dag()
                        .iter()
                        .filter(|v| seen.insert(v.id()))
                        .flat_map(|v| &v.block.payload.single_shard)
                        .map(|p| p.outcome.read_set.len())
                        .sum();
                    let replay_floor = SimTime::from_micros(ops as u64 * OP_COST_NS / 1_000);
                    let header = sent.iter().find_map(|(from, at, header)| match header {
                        Some((round, handled_at)) if *from == me && *round > Round::ZERO => {
                            Some((*handled_at, *at))
                        }
                        _ => None,
                    });
                    if let Some((handled_at, header_at)) = header {
                        header_steps.push((handled_at, header_at, replay_floor));
                    }
                }
                replicas[0].current_round() >= Round::new(6)
            },
        );

        // No commit replayed a block: each was replayed in the step that
        // admitted it, so a commit's own work is the read check and the
        // apply.
        let metrics = replicas[0].metrics();
        assert_eq!(metrics.blocks_replayed_inline, 0);
        assert!(metrics.blocks_replayed_ahead >= 8);
        // The step that completes a round admits its last vertex and sends
        // the next header. The replica replays that vertex's block and
        // preplays its next batch after the header went out, not before:
        // it is busy for both after the header. Had the handler replayed
        // the block, no header could go out sooner than the replay's floor
        // after the handler started; here headers do (all of them unless
        // the host preempts the test).
        let preplay_floor = SimTime::from_micros(BATCH as u64 * OP_COST_NS / 1_000);
        let mut checked = 0;
        let mut before_the_replay = 0;
        for (handled_at, header_at, replay_floor) in header_steps {
            let next_at = transport
                .sent
                .iter()
                .find(|(from, at, _)| *from == me && *at > header_at)
                .map(|(_, at, _)| *at);
            let Some(next_at) = next_at else {
                continue;
            };
            assert!(
                replay_floor > SimTime::ZERO,
                "the header at {header_at} admitted no block"
            );
            before_the_replay += usize::from(header_at < handled_at + replay_floor);
            assert!(
                header_at + preplay_floor + replay_floor <= next_at,
                "header out at {header_at}, replaying at least {replay_floor}, \
                 the replica free again at {next_at}"
            );
            checked += 1;
        }
        assert!(checked >= 4, "{checked} headers checked");
        assert!(
            before_the_replay > 0,
            "none of {checked} headers went out before its handler could have replayed"
        );
    }

    #[test]
    fn preplay_ahead_serves_every_lockstep_block_after_round_zero() {
        // Shaped like the benchmark's sim-single workload.
        let mut sim = ScenarioBuilder::new(4)
            .smallbank(SmallBankConfig {
                cross_shard_fraction: 0.0,
                ..SmallBankConfig::default()
            })
            .latency(LatencyModel::lan())
            .executors(1, 64)
            .validators(2)
            .rounds(40)
            .seed(42)
            .lockstep()
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .build();
        // Each replica's own preplayed blocks, counted as they enter its
        // DAG: the run outlasts the collection depth.
        let mut preplayed_rounds = vec![std::collections::BTreeSet::new(); 4];
        let report = sim.run_with(|replicas| {
            for (rounds, replica) in preplayed_rounds.iter_mut().zip(replicas) {
                let own = replica.dag().iter().filter(|v| v.author() == replica.id());
                let preplayed = own.filter(|v| !v.block.payload.single_shard.is_empty());
                rounds.extend(preplayed.map(|v| v.round()));
            }
        });
        assert_eq!(report.committed_txs, report.single_shard_txs);
        for id in 0..4 {
            let replica = sim.replica(ReplicaId::new(id));
            let preplayed_blocks = preplayed_rounds[id as usize].len() as u64;
            let metrics = replica.metrics();
            // Every vertex is delivered before its round is collected.
            assert!(metrics.vertices_collected > 0);
            assert_eq!(metrics.vertices_collected_undelivered, 0);
            // The DAG may lack the replica's last proposal, not yet
            // certified.
            assert!(preplayed_blocks >= 20);
            assert!(metrics.batches_reused + 1 >= preplayed_blocks);
            assert!(metrics.batches_reused < preplayed_blocks + 1);
            assert_eq!(metrics.batches_repreplayed, 0);
        }
    }
}
