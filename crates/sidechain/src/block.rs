//! Sidechain blocks: temporary **meta-blocks** holding executed
//! transactions and permanent **summary-blocks** holding epoch summaries
//! (paper §II, "The chainBoost framework" as adapted in §IV).
//!
//! A [`VerifiedMeta`] is a meta-block whose `tx_root` is known to be the
//! Merkle root of its body. Two functions make one, each hashing the body
//! once: [`MetaBlock::seal`], for the node that mined the block, and
//! [`crate::ledger::Ledger::verify_meta`], for a node that received it.
//! [`crate::ledger::Ledger::append`] takes only a `VerifiedMeta`, so it
//! checks the block's place in the chain and never hashes the body again.

use crate::codec;
use crate::summary::{PayoutEntry, PoolUpdate, PositionEntry};
use ammboost_amm::tx::AmmTx;
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::keccak::Keccak256;
use ammboost_crypto::merkle::merkle_root;
use ammboost_crypto::H256;
use serde::{Deserialize, Serialize};

/// One executed hop of a routed swap: the pool it traded on, the
/// direction, and the realized amounts. The leg list is the auditable
/// record of a route's intermediate flows — flows that *net out* before
/// settlement and therefore never appear in payouts or syncs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteLeg {
    /// The pool the leg traded on.
    pub pool: PoolId,
    /// Direction: `true` = token0 in, token1 out.
    pub zero_for_one: bool,
    /// Input paid into the pool (fee inclusive).
    pub amount_in: u128,
    /// Output received from the pool.
    pub amount_out: u128,
}

/// The observable effect of executing a transaction — what the summary
/// rules (Fig. 4) consume.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxEffect {
    /// A filled swap.
    Swap {
        /// Input paid (fee inclusive).
        amount_in: u128,
        /// Output received.
        amount_out: u128,
        /// Direction: `true` = token0 in, token1 out.
        zero_for_one: bool,
    },
    /// A mint that created or grew a position.
    Mint {
        /// The position.
        position: PositionId,
        /// Liquidity added.
        liquidity: u128,
        /// Token0 drawn from the LP's deposit.
        amount0: u128,
        /// Token1 drawn from the LP's deposit.
        amount1: u128,
        /// `true` when the position was newly created.
        created: bool,
    },
    /// A burn that withdrew liquidity.
    Burn {
        /// The position.
        position: PositionId,
        /// Liquidity removed.
        liquidity: u128,
        /// Token0 credited back to the LP's deposit.
        amount0: u128,
        /// Token1 credited back.
        amount1: u128,
        /// `true` when the position was fully withdrawn (deleted).
        deleted: bool,
    },
    /// A fee collection.
    Collect {
        /// The position.
        position: PositionId,
        /// Token0 fees credited to the LP's deposit.
        amount0: u128,
        /// Token1 fees credited.
        amount1: u128,
    },
    /// A routed multi-hop swap. The user's deposit was debited
    /// `amount_in` of the first leg's input token and credited
    /// `amount_out` of the last executed leg's output token; every
    /// intermediate flow cancelled inside the epoch's netting barrier.
    Route {
        /// The executed legs, in hop order (may be shorter than the
        /// submitted route when a mid-route hop failed).
        legs: Vec<RouteLeg>,
        /// Input debited from the user's deposit (first leg input).
        amount_in: u128,
        /// Final output credited to the user's deposit (last executed
        /// leg's output).
        amount_out: u128,
        /// `true` when every submitted hop executed and the slippage
        /// floor was met; `false` marks a partial fill (the user holds
        /// the intermediate token of the last successful leg).
        completed: bool,
    },
    /// The transaction was rejected (insufficient deposit, slippage,
    /// expired deadline…); recorded for audit, affecting no balances.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

/// A transaction as recorded in a meta-block: the original submission,
/// its wire size (from the traffic model) and its executed effect.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedTx {
    /// The submitted transaction.
    pub tx: AmmTx,
    /// Serialized size in bytes, as counted against the block budget.
    pub wire_size: usize,
    /// The effect of execution.
    pub effect: TxEffect,
}

impl ExecutedTx {
    /// `true` unless the transaction was rejected.
    pub fn accepted(&self) -> bool {
        !matches!(self.effect, TxEffect::Rejected { .. })
    }
}

/// A temporary meta-block: one per sidechain round; pruned once its
/// epoch's sync-transaction confirms on the mainchain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetaBlock {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Round within the epoch (0-based).
    pub round: u64,
    /// Id of the previous sidechain block.
    pub parent: H256,
    /// Executed transactions.
    pub txs: Vec<ExecutedTx>,
    /// Merkle root over the transaction ids.
    pub tx_root: H256,
}

impl MetaBlock {
    /// Seals a mined meta-block: its root is computed here, once, from the
    /// body it keeps.
    pub fn seal(epoch: u64, round: u64, parent: H256, txs: Vec<ExecutedTx>) -> VerifiedMeta {
        let tx_root = Self::compute_tx_root(&txs);
        VerifiedMeta(MetaBlock {
            epoch,
            round,
            parent,
            txs,
            tx_root,
        })
    }

    /// [`MetaBlock::seal`]'s block, without the proof that its root is
    /// right.
    pub fn new(epoch: u64, round: u64, parent: H256, txs: Vec<ExecutedTx>) -> MetaBlock {
        Self::seal(epoch, round, parent, txs).0
    }

    /// The Merkle root over transaction ids.
    pub fn compute_tx_root(txs: &[ExecutedTx]) -> H256 {
        merkle_root(AmmTx::ids_of(txs, |t| &t.tx))
    }

    /// Block id: hash of the header fields — epoch, round, parent,
    /// transaction root and transaction count. The count is what tells
    /// bodies `[a, b, c]` and `[a, b, c, c]` apart: the Merkle tree pads
    /// an odd level with its last node, so their roots are equal.
    pub fn id(&self) -> H256 {
        H256::hash_concat(&[
            b"meta",
            &self.epoch.to_be_bytes(),
            &self.round.to_be_bytes(),
            &self.parent.0,
            &self.tx_root.0,
            &(self.txs.len() as u32).to_be_bytes(),
        ])
    }

    /// Block size in bytes: header plus transaction wire sizes.
    pub fn size_bytes(&self) -> usize {
        codec::META_HEADER_BYTES + self.txs.iter().map(|t| t.wire_size).sum::<usize>()
    }

    /// Number of accepted transactions.
    pub fn accepted_count(&self) -> usize {
        self.txs.iter().filter(|t| t.accepted()).count()
    }
}

/// A meta-block whose `tx_root` is the Merkle root of its body (see the
/// module docs): made by [`MetaBlock::seal`] or by
/// [`crate::ledger::Ledger::verify_meta`], taken by
/// [`crate::ledger::Ledger::append`].
#[derive(Debug, PartialEq)]
pub struct VerifiedMeta(MetaBlock);

impl VerifiedMeta {
    /// `block` if its root is the root of its body.
    pub(crate) fn check(block: MetaBlock) -> Option<VerifiedMeta> {
        (MetaBlock::compute_tx_root(&block.txs) == block.tx_root).then_some(VerifiedMeta(block))
    }

    /// Gives up the proof: the block.
    pub(crate) fn into_block(self) -> MetaBlock {
        self.0
    }
}

/// A permanent summary-block: mined in the epoch's last round, it carries
/// the state changes (payouts + positions + per-pool reserve sections)
/// and commits to the meta-blocks it summarizes, serving as the epoch
/// checkpoint anyone can verify TokenBank state against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryBlock {
    /// Epoch covered.
    pub epoch: u64,
    /// Id of the previous sidechain block.
    pub parent: H256,
    /// Ids of the summarized meta-blocks, in order.
    pub meta_refs: Vec<H256>,
    /// The payout list (merged across all pools, sorted by user): the
    /// closing deposit of every user whose balance moved this epoch.
    /// Deposits it does not list are unchanged since the previous summary.
    pub payouts: Vec<PayoutEntry>,
    /// The updated positions (all pools).
    pub positions: Vec<PositionEntry>,
    /// Per-pool reserve sections, ascending by pool id — one entry per
    /// pool the node executes, whether or not it traded this epoch.
    pub pools: Vec<PoolUpdate>,
}

impl SummaryBlock {
    /// Block id: the packed encoding (header with the four section
    /// counts, then every section), streamed into one hasher.
    pub fn id(&self) -> H256 {
        let mut h = Keccak256::new();
        h.update(b"summary");
        codec::write_summary(&mut h, self);
        H256(h.finalize())
    }

    /// Block size in bytes using the sidechain's packed codec
    /// (Table IV, sidechain column).
    pub fn size_bytes(&self) -> usize {
        codec::summary_block_size(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::{SwapIntent, SwapTx};
    use ammboost_amm::types::PoolId;
    use ammboost_crypto::Address;

    fn sample_tx(i: u64) -> ExecutedTx {
        ExecutedTx {
            tx: AmmTx::Swap(SwapTx {
                user: Address::from_index(i),
                pool: PoolId(0),
                zero_for_one: true,
                intent: SwapIntent::ExactInput {
                    amount_in: 100 + i as u128,
                    min_amount_out: 0,
                },
                sqrt_price_limit: None,
                deadline_round: 10,
            }),
            wire_size: 1008,
            effect: TxEffect::Swap {
                amount_in: 100 + i as u128,
                amount_out: 98,
                zero_for_one: true,
            },
        }
    }

    #[test]
    fn meta_block_root_commits_to_txs() {
        let txs: Vec<ExecutedTx> = (0..5).map(sample_tx).collect();
        let b = MetaBlock::new(1, 0, H256::ZERO, txs.clone());
        assert_eq!(b.tx_root, MetaBlock::compute_tx_root(&txs));
        let mut other = txs;
        other.pop();
        assert_ne!(b.tx_root, MetaBlock::compute_tx_root(&other));
    }

    #[test]
    fn block_id_depends_on_contents_and_parent() {
        let a = MetaBlock::new(1, 0, H256::ZERO, vec![sample_tx(1)]);
        let b = MetaBlock::new(1, 0, H256::hash(b"other-parent"), vec![sample_tx(1)]);
        let c = MetaBlock::new(1, 1, H256::ZERO, vec![sample_tx(1)]);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn size_counts_wire_sizes() {
        let b = MetaBlock::new(1, 0, H256::ZERO, (0..3).map(sample_tx).collect());
        assert_eq!(b.size_bytes(), codec::META_HEADER_BYTES + 3 * 1008);
    }

    #[test]
    fn rejected_txs_counted_separately() {
        let mut txs: Vec<ExecutedTx> = (0..3).map(sample_tx).collect();
        txs[1].effect = TxEffect::Rejected {
            reason: "insufficient deposit".into(),
        };
        let b = MetaBlock::new(1, 0, H256::ZERO, txs);
        assert_eq!(b.accepted_count(), 2);
        assert_eq!(b.txs.len(), 3);
    }

    #[test]
    fn meta_block_id_commits_to_the_transaction_count() {
        // [a, b, c] and [a, b, c, c] share a tx root (the tree pads the
        // odd level with its last node) but not an id
        let abc: Vec<ExecutedTx> = (0..3).map(sample_tx).collect();
        let mut abcc = abc.clone();
        abcc.push(sample_tx(2));
        let a = MetaBlock::new(1, 0, H256::ZERO, abc);
        let b = MetaBlock::new(1, 0, H256::ZERO, abcc);
        assert_eq!(a.tx_root, b.tx_root);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn summary_block_id_commits_to_section_boundaries() {
        // eight pool sections are 288 bytes: nine meta refs of 32. Without
        // the counts in the id the two blocks below hash the same bytes.
        let pools: Vec<PoolUpdate> = (0..8u32)
            .map(|i| PoolUpdate {
                pool: PoolId(i),
                reserve0: 1_000 + i as u128,
                reserve1: 2_000 + i as u128,
            })
            .collect();
        let mut packed = Vec::new();
        for u in &pools {
            packed.extend_from_slice(&u.pool.0.to_be_bytes());
            packed.extend_from_slice(&u.reserve0.to_be_bytes());
            packed.extend_from_slice(&u.reserve1.to_be_bytes());
        }
        let refs: Vec<H256> = packed
            .chunks(32)
            .map(|c| H256(c.try_into().unwrap()))
            .collect();
        assert_eq!(refs.len(), 9);
        let with_pools = SummaryBlock {
            epoch: 1,
            parent: H256::ZERO,
            meta_refs: vec![],
            payouts: vec![],
            positions: vec![],
            pools,
        };
        let with_refs = SummaryBlock {
            meta_refs: refs,
            pools: vec![],
            ..with_pools.clone()
        };
        assert_ne!(with_pools.id(), with_refs.id());
    }

    #[test]
    fn summary_block_id_changes_with_payouts() {
        let base = SummaryBlock {
            epoch: 1,
            parent: H256::ZERO,
            meta_refs: vec![H256::hash(b"m0")],
            payouts: vec![],
            positions: vec![],
            pools: vec![PoolUpdate {
                pool: PoolId(0),
                reserve0: 1,
                reserve1: 2,
            }],
        };
        let mut with_payout = base.clone();
        with_payout.payouts.push(PayoutEntry {
            user: Address::from_index(1),
            amount0: 5,
            amount1: 6,
        });
        assert_ne!(base.id(), with_payout.id());
    }
}
