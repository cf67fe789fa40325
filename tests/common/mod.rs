//! The workload-driven peer the fast-sync, healing, engine-fleet and
//! multi-pool suites restore from and catch up against: a sidechain
//! [`Node`] fed round by round by the calibrated traffic generator.

use ammboost::amm::tx::AmmTx;
use ammboost::core::processor::EpochProcessor;
use ammboost::core::Node;
use ammboost::crypto::H256;
use ammboost::sidechain::ledger::Ledger;
use ammboost::state::Snapshot;
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
    /// A peer over `processor` (liquidity seeded) on a ledger rooted at
    /// `genesis`; every user of `generator` deposits.
    pub fn new(
        processor: EpochProcessor,
        generator: TrafficGenerator,
        genesis: &[u8],
        rounds_per_epoch: u64,
    ) -> Peer {
        let mut node = Node::new(processor, Ledger::new(H256::hash(genesis)));
        let bucket = generator
            .users()
            .into_iter()
            .map(|user| (user, (DEPOSIT, DEPOSIT)))
            .collect();
        node.begin_epoch(Some(bucket));
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
            self.node.begin_epoch(None);
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

/// Asserts that a caught-up `node` is byte-identical to `live`: the same
/// processor state, the same ledger as retention leaves it, and the same
/// state root at `epoch`.
pub fn assert_same_state(node: &mut Node, live: &mut Node, epoch: u64) {
    let (ours, theirs) = (node.processor(), live.processor());
    assert_eq!(ours.export_state(), theirs.export_state());
    let (ours, theirs) = (node.ledger(), live.ledger());
    assert_eq!(ours.retained_state(), theirs.retained_state());
    let root = live.checkpoint(epoch).root;
    assert_eq!(node.checkpoint(epoch).root, root, "state roots diverge");
}
