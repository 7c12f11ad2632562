//! Plugging a custom workload into the cluster.
//!
//! The cluster harness only speaks the `Workload` trait, so a scenario the
//! paper never measured is ~50 lines away: implement the trait, hand the
//! generator to `ScenarioBuilder::workload`, and the whole stack — preplay,
//! DAG consensus, validation, commit, reporting — runs it unchanged. The
//! workload here is a "ping-pong" stress: every transaction moves a token
//! between the two ends of a fixed key pair, so consecutive blocks chain on
//! the same keys and the proposer's preplay overlay does real work. Like
//! every workload, it yields one stream per home shard: shard `s`'s
//! proposer asks for `s`'s next transaction, which pays between two of its
//! accounts.
//!
//! Run with: `cargo run --release --example custom_workload`

use thunderbolt::prelude::*;

/// A deterministic workload bouncing payments across a small set of
/// dedicated account pairs.
struct PingPong {
    pairs: u64,
    n_shards: u32,
    /// How many transactions each shard's stream has yielded.
    drawn: Vec<u64>,
}

impl PingPong {
    fn new(pairs: u64) -> Self {
        PingPong {
            pairs,
            n_shards: 1,
            drawn: vec![0],
        }
    }

    /// Both accounts of pair `p`, chosen in the same shard (`p mod n`) so
    /// the transactions take the single-shard preplay path while the pairs
    /// themselves spread over every shard proposer.
    fn accounts(&self, pair: u64) -> (u64, u64) {
        let stride = u64::from(self.n_shards.max(1));
        let base = pair * stride * 2 + pair % stride;
        (base, base + stride)
    }
}

impl Workload for PingPong {
    fn name(&self) -> &str {
        "ping-pong"
    }

    fn n_shards(&self) -> u32 {
        self.n_shards
    }

    fn configure_for_cluster(&mut self, n_shards: u32, _cluster_seed: u64) {
        // This generator is a round-robin, not RNG-driven, so the cluster
        // seed has nothing to perturb; only the shard tagging changes.
        self.n_shards = n_shards;
        self.drawn = vec![0; n_shards as usize];
    }

    fn initial_state(&self) -> Vec<(Key, Value)> {
        let mut entries = Vec::new();
        for pair in 0..self.pairs {
            let (a, b) = self.accounts(pair);
            for account in [a, b] {
                entries.push((Key::checking(account), Value::int(1_000)));
                entries.push((Key::savings(account), Value::int(1_000)));
            }
        }
        entries
    }

    fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        // Shard s owns the pairs p = s, s + n, s + 2n, ... below `pairs`,
        // and its stream walks them in turn.
        let (s, n) = (u64::from(home.as_inner()), u64::from(self.n_shards));
        let own = (self.pairs - s).div_ceil(n);
        let seq = self.drawn[s as usize];
        self.drawn[s as usize] += 1;
        let (a, b) = self.accounts(s + n * (seq % own));
        // Each pass over the shard's pairs pings a -> b, the next pongs back.
        let (from, to) = if (seq / own).is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        // Ids stay unique across the shards' streams.
        let id = seq * n + s;
        Transaction::new(
            TxId::new(id),
            ClientId::new((id % 8) as u32),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                from,
                to,
                amount: 1,
            }),
            self.n_shards,
            submitted_at,
        )
    }
}

fn main() {
    let report = ScenarioBuilder::new(4)
        .workload(Box::new(PingPong::new(64)) as Box<dyn Workload>)
        .executors(2, 64)
        .rounds(10)
        .seed(7)
        .run();
    println!("{}", report.summary());
    println!(
        "single-shard (preplayed): {}, cross-shard: {}, invalid blocks: {}",
        report.single_shard_txs, report.cross_shard_txs, report.invalid_blocks
    );
    assert_eq!(report.workload, "ping-pong");
    assert!(report.committed_txs > 0, "the custom workload must commit");
    assert_eq!(
        report.invalid_blocks, 0,
        "honest preplay of a deterministic workload must validate"
    );
}
