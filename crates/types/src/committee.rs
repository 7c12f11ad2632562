//! Committee description, quorum thresholds, leader schedule and the
//! rotating shard-to-replica assignment.
//!
//! The committee has `n = 3f + 1` replicas, of which at most `f` may be
//! Byzantine. Leaders are chosen by round-robin on leader rounds (paper
//! Section 2). Each replica serves exactly one shard; after every
//! reconfiguration (i.e. for every new [`DagId`]) the assignment rotates by
//! one position: if replica `R_i` served shard `X`, the next proposer of `X`
//! is `R_((i mod n) + 1)` (paper Section 6).

use crate::ids::{DagId, ReplicaId, Round, ShardId};

/// Static description of the replica committee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Committee {
    /// Total number of replicas (`n`). Also the number of shards, since every
    /// replica doubles as a shard proposer.
    n: u32,
}

impl Committee {
    /// Creates a committee of `n` replicas. `n` must be at least 1; fault
    /// tolerance `f = (n - 1) / 3` follows from `n = 3f + 1`.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "a committee needs at least one replica");
        Committee { n }
    }

    /// Number of replicas.
    pub fn size(&self) -> u32 {
        self.n
    }

    /// Number of shards (one per replica).
    pub fn n_shards(&self) -> u32 {
        self.n
    }

    /// Maximum number of Byzantine replicas tolerated.
    pub fn f(&self) -> u32 {
        (self.n.saturating_sub(1)) / 3
    }

    /// `2f + 1`: the quorum needed for certificates, commits and Shift-block
    /// quorums.
    pub fn quorum_threshold(&self) -> usize {
        (2 * self.f() + 1) as usize
    }

    /// `f + 1`: the support needed for a leader vertex to be committable and
    /// for echoing Shift blocks.
    pub fn validity_threshold(&self) -> usize {
        (self.f() + 1) as usize
    }

    /// Iterator over all replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n).map(ReplicaId::new)
    }

    /// True if `replica` is a member of the committee.
    pub fn contains(&self, replica: ReplicaId) -> bool {
        replica.as_inner() < self.n
    }

    /// The leader of a leader round, chosen round-robin. The DAG id is mixed
    /// in so that the rotation does not restart from replica 0 after every
    /// reconfiguration (which would let a single slow replica repeatedly
    /// stall the first leader round of each DAG).
    pub fn leader(&self, dag: DagId, round: Round) -> ReplicaId {
        let slot = round.as_u64() / 2 + dag.as_inner();
        ReplicaId::new((slot % u64::from(self.n)) as u32)
    }

    /// The leader round responsible for committing `round`: the smallest
    /// leader round `>= round`.
    pub fn leader_round_for(&self, round: Round) -> Round {
        if round.is_leader_round() {
            round
        } else {
            round.next()
        }
    }
}

/// The rotating assignment between shards and replicas for one DAG instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardAssignment {
    committee: Committee,
    dag: DagId,
}

impl ShardAssignment {
    /// Assignment in effect during DAG `dag`.
    pub fn new(committee: Committee, dag: DagId) -> Self {
        ShardAssignment { committee, dag }
    }

    /// The shard currently served by `replica`.
    ///
    /// In DAG 0 replica `i` serves shard `i`; every reconfiguration shifts
    /// the assignment by one replica.
    pub fn shard_of(&self, replica: ReplicaId) -> ShardId {
        let n = u64::from(self.committee.size());
        let idx = (u64::from(replica.as_inner()) + n - (self.dag.as_inner() % n)) % n;
        ShardId::new(idx as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_thresholds_follow_three_f_plus_one() {
        let c4 = Committee::new(4);
        assert_eq!(c4.f(), 1);
        assert_eq!(c4.quorum_threshold(), 3);
        assert_eq!(c4.validity_threshold(), 2);

        let c7 = Committee::new(7);
        assert_eq!(c7.f(), 2);
        assert_eq!(c7.quorum_threshold(), 5);
        assert_eq!(c7.validity_threshold(), 3);

        let c64 = Committee::new(64);
        assert_eq!(c64.f(), 21);
        assert_eq!(c64.quorum_threshold(), 43);
        assert_eq!(c64.validity_threshold(), 22);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_committee_is_rejected() {
        let _ = Committee::new(0);
    }

    #[test]
    fn membership_check() {
        let c = Committee::new(4);
        assert!(c.contains(ReplicaId::new(0)));
        assert!(c.contains(ReplicaId::new(3)));
        assert!(!c.contains(ReplicaId::new(4)));
        assert_eq!(c.replicas().count(), 4);
    }

    #[test]
    fn leaders_rotate_round_robin_over_leader_rounds() {
        let c = Committee::new(4);
        let d = DagId::new(0);
        assert_eq!(c.leader(d, Round::new(1)), ReplicaId::new(0));
        assert_eq!(c.leader(d, Round::new(3)), ReplicaId::new(1));
        assert_eq!(c.leader(d, Round::new(5)), ReplicaId::new(2));
        assert_eq!(c.leader(d, Round::new(7)), ReplicaId::new(3));
        assert_eq!(c.leader(d, Round::new(9)), ReplicaId::new(0));
        // A new DAG shifts the schedule instead of restarting it.
        assert_eq!(c.leader(DagId::new(1), Round::new(1)), ReplicaId::new(1));
    }

    #[test]
    fn leader_round_for_rounds_up_to_odd() {
        let c = Committee::new(4);
        assert_eq!(c.leader_round_for(Round::new(1)), Round::new(1));
        assert_eq!(c.leader_round_for(Round::new(2)), Round::new(3));
        assert_eq!(c.leader_round_for(Round::new(4)), Round::new(5));
    }

    #[test]
    fn shard_assignment_rotates_by_one_per_dag() {
        let c = Committee::new(4);
        let a0 = ShardAssignment::new(c, DagId::new(0));
        for i in 0..4 {
            assert_eq!(a0.shard_of(ReplicaId::new(i)), ShardId::new(i));
        }
        let a1 = ShardAssignment::new(c, DagId::new(1));
        assert_eq!(a1.shard_of(ReplicaId::new(1)), ShardId::new(0));
        assert_eq!(a1.shard_of(ReplicaId::new(0)), ShardId::new(3));
    }

    #[test]
    fn shard_assignment_is_a_bijection_for_every_dag() {
        let c = Committee::new(7);
        for dag in 0..20u64 {
            let a = ShardAssignment::new(c, DagId::new(dag));
            let mut seen = vec![false; 7];
            for replica in c.replicas() {
                let shard = a.shard_of(replica);
                assert!(!seen[shard.as_inner() as usize], "shard assigned twice");
                seen[shard.as_inner() as usize] = true;
            }
            assert!(seen.into_iter().all(|s| s), "a shard has no proposer");
        }
    }
}
