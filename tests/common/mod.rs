//! The workload-driven peer the fast-sync, healing, engine-fleet and
//! multi-pool suites restore from and catch up against: a sidechain
//! [`Node`] fed round by round by the calibrated traffic generator.

use ammboost::amm::tx::AmmTx;
use ammboost::core::checkpoint::{checkpoint_node, NodeRestore};
use ammboost::core::shard::ShardMap;
use ammboost::core::Node;
use ammboost::crypto::H256;
use ammboost::sidechain::ledger::Ledger;
use ammboost::state::{Checkpointer, Snapshot};
use ammboost::workload::TrafficGenerator;

/// Each user's deposit of each token, placed once before epoch 1.
const DEPOSIT: u128 = 2_000_000_000_000;

/// A node and the traffic that feeds it.
pub struct Peer {
    pub node: Node,
    generator: TrafficGenerator,
    rounds_per_epoch: u64,
}

impl Peer {
    /// A peer over `shards` (liquidity seeded) on a ledger rooted at
    /// `genesis`; every user of `generator` deposits on the pool it is
    /// homed on.
    pub fn new(
        shards: ShardMap,
        generator: TrafficGenerator,
        genesis: &[u8],
        rounds_per_epoch: u64,
    ) -> Peer {
        let mut node = Node::new(shards, Ledger::new(H256::hash(genesis)));
        let bucket = generator
            .users()
            .into_iter()
            .map(|user| (user, (DEPOSIT, DEPOSIT)))
            .collect();
        node.begin_epoch(Some(bucket), |user| generator.pool_for(user));
        Peer {
            node,
            generator,
            rounds_per_epoch,
        }
    }

    /// Mines `epoch`: each round's generated traffic as one batch, then
    /// the summary. Deposits carry over from the epoch before.
    pub fn run_epoch(&mut self, epoch: u64) {
        if epoch > 1 {
            self.node.begin_epoch(None, |_| None);
        }
        for round in 0..self.rounds_per_epoch {
            let global = (epoch - 1) * self.rounds_per_epoch + round;
            let txs = self.generator.next_round(global);
            let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
            let out = self.node.step_round(epoch, round, global, &batch);
            for position in out.deleted_positions {
                self.generator.forget_position(position);
            }
        }
        self.node.close_epoch(epoch);
    }

    /// Checkpoints the node at `epoch` and returns the snapshot.
    pub fn snapshot_at(&mut self, epoch: u64) -> Snapshot {
        self.node.checkpoint(epoch);
        self.node.last_snapshot().expect("just taken").clone()
    }
}

/// The Merkle root of a restored node's live state at `epoch`, via a
/// throwaway checkpoint.
pub fn root_of(node: &mut NodeRestore, epoch: u64) -> H256 {
    checkpoint_node(
        &mut Checkpointer::new(),
        epoch,
        &mut node.shards,
        &node.ledger,
    )
    .stats
    .root
}
