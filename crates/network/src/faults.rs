//! Declarative fault plans.
//!
//! The failure experiments (Figures 15–17) crash or silence specific replicas
//! at specific points of a run. A [`FaultPlan`] collects those actions up
//! front so a benchmark configuration fully describes the faults it injects,
//! and the simulated network it is installed in
//! ([`SimNetwork::with_faults`]) applies them when its clock reaches the
//! scheduled time.

use crate::sim::SimNetwork;
use tb_types::{ReplicaId, SimTime};

/// A single fault action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the replica (no sending, no receiving).
    Crash(ReplicaId),
    /// Recover a crashed replica.
    Recover(ReplicaId),
    /// Silence the replica (it stops disseminating but keeps receiving) —
    /// the censorship behaviour reconfiguration defends against.
    Silence(ReplicaId),
    /// Undo a silence.
    Unsilence(ReplicaId),
    /// Block the directed link `from → to` (messages in that direction are
    /// dropped). Blocking one direction only yields an *asymmetric* partition.
    BlockLink(ReplicaId, ReplicaId),
    /// Heal a previously blocked directed link.
    UnblockLink(ReplicaId, ReplicaId),
}

/// A scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered collection of faults to inject during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
    cursor: usize,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crashes `count` replicas (the highest-numbered ones, matching the
    /// paper's "f replicas stop working" setup) at time `at`.
    pub fn crash_replicas(n: u32, count: u32, at: SimTime) -> Self {
        let mut plan = FaultPlan::none();
        for i in 0..count.min(n) {
            plan.push(at, FaultAction::Crash(ReplicaId::new(n - 1 - i)));
        }
        plan
    }

    /// Silences one replica from the start of the run (a censoring shard
    /// proposer).
    pub fn silence_from_start(replica: ReplicaId) -> Self {
        let mut plan = FaultPlan::none();
        plan.push(SimTime::ZERO, FaultAction::Silence(replica));
        plan
    }

    /// Silences a replica at `from` and restores it at `until` — censorship
    /// that begins mid-run and later stops (delayed silence).
    pub fn silence_between(replica: ReplicaId, from: SimTime, until: SimTime) -> Self {
        let mut plan = FaultPlan::none();
        plan.push(from, FaultAction::Silence(replica));
        plan.push(until, FaultAction::Unsilence(replica));
        plan
    }

    /// Blocks every directed link from `sources` to `targets` at `from`, and
    /// heals them at `heal_at`. Only the `sources → targets` direction is
    /// blocked, so this models an *asymmetric* partition: the targets keep
    /// reaching the sources while the reverse traffic is dropped.
    pub fn asymmetric_partition(
        sources: &[ReplicaId],
        targets: &[ReplicaId],
        from: SimTime,
        heal_at: SimTime,
    ) -> Self {
        let mut plan = FaultPlan::none();
        for &src in sources {
            for &dst in targets {
                if src != dst {
                    plan.push(from, FaultAction::BlockLink(src, dst));
                    plan.push(heal_at, FaultAction::UnblockLink(src, dst));
                }
            }
        }
        plan
    }

    /// Adds a fault, keeping the plan sorted by activation time.
    pub fn push(&mut self, at: SimTime, action: FaultAction) {
        self.faults.push(ScheduledFault { at, action });
        self.faults.sort_by_key(|f| f.at);
    }

    /// Number of faults in the plan (applied or not).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies every fault whose activation time is `<= now` and has not been
    /// applied yet. Returns the number of faults applied.
    pub fn apply_due<M>(&mut self, now: SimTime, network: &mut SimNetwork<M>) -> usize {
        let mut applied = 0;
        while self.cursor < self.faults.len() && self.faults[self.cursor].at <= now {
            match self.faults[self.cursor].action {
                FaultAction::Crash(r) => network.crash(r),
                FaultAction::Recover(r) => network.recover(r),
                FaultAction::Silence(r) => network.silence(r),
                FaultAction::Unsilence(r) => network.unsilence(r),
                FaultAction::BlockLink(from, to) => network.block_link(from, to),
                FaultAction::UnblockLink(from, to) => network.unblock_link(from, to),
            }
            self.cursor += 1;
            applied += 1;
        }
        applied
    }

    /// True once every fault has been applied.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.faults.len()
    }

    /// Number of faults already applied by [`apply_due`](Self::apply_due).
    pub fn applied(&self) -> usize {
        self.cursor
    }

    /// Number of scheduled faults not yet applied. A run that finishes with
    /// `remaining() > 0` had a fault schedule that outlived it — the faults
    /// silently never happened, which usually means a mis-scheduled campaign.
    pub fn remaining(&self) -> usize {
        self.faults.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_types::LatencyModel;

    #[test]
    fn crash_plan_targets_the_highest_replicas() {
        let plan = FaultPlan::crash_replicas(16, 2, SimTime::from_secs(1));
        assert_eq!(plan.len(), 2);
        let mut net: SimNetwork<()> = SimNetwork::new(16, LatencyModel::Instant, 0);
        let mut plan = plan;
        assert_eq!(plan.apply_due(SimTime::from_millis(500), &mut net), 0);
        assert!(!net.is_crashed(ReplicaId::new(15)));
        assert_eq!(plan.apply_due(SimTime::from_secs(1), &mut net), 2);
        assert!(net.is_crashed(ReplicaId::new(15)));
        assert!(net.is_crashed(ReplicaId::new(14)));
        assert!(!net.is_crashed(ReplicaId::new(0)));
        assert!(plan.exhausted());
    }

    #[test]
    fn faults_apply_in_time_order_and_only_once() {
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::from_secs(2),
            FaultAction::Recover(ReplicaId::new(3)),
        );
        plan.push(SimTime::from_secs(1), FaultAction::Crash(ReplicaId::new(3)));
        let mut net: SimNetwork<()> = SimNetwork::new(4, LatencyModel::Instant, 0);
        assert_eq!(plan.apply_due(SimTime::from_secs(1), &mut net), 1);
        assert!(net.is_crashed(ReplicaId::new(3)));
        assert_eq!(plan.apply_due(SimTime::from_secs(3), &mut net), 1);
        assert!(!net.is_crashed(ReplicaId::new(3)));
        assert_eq!(plan.apply_due(SimTime::from_secs(4), &mut net), 0);
    }

    #[test]
    fn asymmetric_partition_blocks_one_direction_then_heals() {
        let a = ReplicaId::new(2);
        let b = ReplicaId::new(0);
        let mut plan = FaultPlan::asymmetric_partition(
            &[a],
            &[b],
            SimTime::from_millis(1),
            SimTime::from_millis(5),
        );
        assert_eq!(plan.len(), 2);
        let mut net: SimNetwork<u8> = SimNetwork::new(4, LatencyModel::Instant, 0);
        assert_eq!(plan.apply_due(SimTime::from_millis(1), &mut net), 1);
        assert_eq!(plan.applied(), 1);
        assert_eq!(plan.remaining(), 1);
        // a → b is dropped; b → a still flows (asymmetry).
        net.send(a, b, 1);
        assert!(net.next_event().is_none());
        net.send(b, a, 2);
        assert!(net.next_event().is_some());
        // After the heal the link carries traffic again.
        assert_eq!(plan.apply_due(SimTime::from_millis(5), &mut net), 1);
        assert!(plan.exhausted());
        assert_eq!(plan.remaining(), 0);
        net.send(a, b, 3);
        assert!(net.next_event().is_some());
    }

    #[test]
    fn silence_between_censors_only_inside_the_window() {
        let mut plan = FaultPlan::silence_between(
            ReplicaId::new(1),
            SimTime::from_millis(2),
            SimTime::from_millis(4),
        );
        let mut net: SimNetwork<u8> = SimNetwork::new(4, LatencyModel::Instant, 0);
        plan.apply_due(SimTime::from_millis(2), &mut net);
        net.send(ReplicaId::new(1), ReplicaId::new(0), 1);
        assert!(net.next_event().is_none());
        plan.apply_due(SimTime::from_millis(4), &mut net);
        net.send(ReplicaId::new(1), ReplicaId::new(0), 2);
        assert!(net.next_event().is_some());
    }

    #[test]
    fn silence_plan_is_applied_at_time_zero() {
        let mut plan = FaultPlan::silence_from_start(ReplicaId::new(1));
        assert!(!plan.is_empty());
        let mut net: SimNetwork<u8> = SimNetwork::new(4, LatencyModel::Instant, 0);
        plan.apply_due(SimTime::ZERO, &mut net);
        net.send(ReplicaId::new(1), ReplicaId::new(0), 1);
        assert!(net.next_event().is_none());
    }
}
