//! The simulated smart-contract mainchain: fixed-interval blocks, a FIFO
//! mempool with per-block gas budget, dependency-chained transactions
//! (ERC20 approvals before the call that spends them), confirmation
//! tracking, chain-growth accounting and reorg injection.
//!
//! This stands in for the Sepolia testnet of the paper's evaluation: the
//! relevant observables — gas units, bytes appended, blocks-to-confirmation
//! — are produced by the same accounting rules (see README, "Sync
//! authentication").

use ammboost_sim::metrics::GrowthSeries;
use ammboost_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Chain parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Block interval (Sepolia/mainnet: 12 s).
    pub block_interval: SimDuration,
    /// Per-block gas budget (Ethereum: 30M).
    pub gas_limit: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            block_interval: SimDuration::from_secs(12),
            gas_limit: 30_000_000,
        }
    }
}

/// Identifies a submitted transaction: its position in submission order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxId(pub u64);

impl TxId {
    /// Index into the chain's dense transaction log.
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a transaction costs the chain; produced by the contract layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxSpec {
    /// Human-readable operation label (`"sync"`, `"deposit"`, `"swap"`, …).
    /// A literal (`"sync".into()`) is borrowed and allocates nothing; a
    /// computed `String` converts with `.into()` as well.
    pub label: Cow<'static, str>,
    /// Gas charged.
    pub gas: u64,
    /// Serialized transaction size in bytes (chain growth).
    pub size_bytes: usize,
    /// A transaction that must be *confirmed in an earlier block* before
    /// this one is eligible (models sequential ERC20 approvals).
    pub depends_on: Option<TxId>,
}

/// The record of a submitted transaction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TxRecord {
    /// The id assigned at submission.
    pub id: TxId,
    /// The submitted spec.
    pub spec: TxSpec,
    /// When the transaction entered the mempool.
    pub submitted_at: SimTime,
    /// Height of the including block, when confirmed.
    pub included_in: Option<u64>,
    /// Timestamp of the including block.
    pub confirmed_at: Option<SimTime>,
}

/// A mined block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Block {
    /// Block height (genesis = 0 is implicit; first mined block is 1).
    pub height: u64,
    /// Mining timestamp.
    pub at: SimTime,
    /// Included transactions, in order.
    pub txs: Vec<TxId>,
    /// Total gas used.
    pub gas_used: u64,
    /// Total bytes of transaction data.
    pub bytes: u64,
}

/// The simulated mainchain.
#[derive(Clone, Debug)]
pub struct Mainchain {
    /// Chain parameters.
    pub config: ChainConfig,
    next_block_at: SimTime,
    height: u64,
    pending: Vec<TxId>,
    /// Every submitted transaction; `submit` hands ids out densely, so
    /// `TxId(i)` is entry `i`.
    txs: Vec<TxRecord>,
    blocks: Vec<Block>,
    growth: GrowthSeries,
    total_gas: u64,
}

impl Mainchain {
    /// A fresh chain; the first block will be mined one interval after t=0.
    pub fn new(config: ChainConfig) -> Mainchain {
        Mainchain {
            config,
            next_block_at: SimTime::ZERO + config.block_interval,
            height: 0,
            pending: Vec::new(),
            txs: Vec::new(),
            blocks: Vec::new(),
            growth: GrowthSeries::new(),
            total_gas: 0,
        }
    }

    /// Current height (number of mined blocks).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Total gas consumed by all confirmed transactions.
    pub fn total_gas(&self) -> u64 {
        self.total_gas
    }

    /// Total confirmed transaction bytes (chain growth).
    pub fn growth_bytes(&self) -> u64 {
        self.growth.total()
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.pending.len()
    }

    /// All mined blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Looks up a transaction record.
    pub fn tx(&self, id: TxId) -> Option<&TxRecord> {
        self.txs.get(usize::try_from(id.0).ok()?)
    }

    /// Submits a transaction at `at`; returns its id.
    ///
    /// # Panics
    /// Panics if the transaction's gas exceeds the block gas limit, or if
    /// it depends on an id this chain never handed out — either way it
    /// could never be mined and would silently stall the caller (and be
    /// rescanned by every block).
    pub fn submit(&mut self, at: SimTime, spec: TxSpec) -> TxId {
        assert!(
            spec.gas <= self.config.gas_limit,
            "transaction `{}` needs {} gas, above the {} block limit",
            spec.label,
            spec.gas,
            self.config.gas_limit
        );
        let id = TxId(self.txs.len() as u64);
        if let Some(dep) = spec.depends_on {
            assert!(
                dep.0 < id.0,
                "transaction `{}` depends on {dep:?}, which was never submitted",
                spec.label
            );
        }
        self.txs.push(TxRecord {
            id,
            spec,
            submitted_at: at,
            included_in: None,
            confirmed_at: None,
        });
        self.pending.push(id);
        id
    }

    /// When a transaction was confirmed, if it was.
    pub fn confirmed_at(&self, id: TxId) -> Option<SimTime> {
        self.tx(id).and_then(|r| r.confirmed_at)
    }

    /// Mines all blocks due up to and including time `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.next_block_at <= t {
            self.mine_block();
        }
    }

    fn mine_block(&mut self) {
        let at = self.next_block_at;
        self.height += 1;
        let height = self.height;
        let mut gas_used = 0u64;
        let mut bytes = 0u64;
        let mut included = Vec::new();
        let mut still_pending = Vec::new();

        for id in std::mem::take(&mut self.pending) {
            let rec = &self.txs[id.index()];
            // only txs submitted strictly before the block's timestamp
            let eligible_time = rec.submitted_at < at;
            // `submit` checked that the dependency exists
            let dep_ok = rec.spec.depends_on.is_none_or(|dep| {
                self.txs[dep.index()]
                    .included_in
                    .is_some_and(|h| h < height)
            });
            let fits = gas_used + rec.spec.gas <= self.config.gas_limit;
            if eligible_time && dep_ok && fits {
                gas_used += rec.spec.gas;
                bytes += rec.spec.size_bytes as u64;
                included.push(id);
            } else {
                still_pending.push(id);
            }
        }
        self.pending = still_pending;

        for id in &included {
            let rec = &mut self.txs[id.index()];
            rec.included_in = Some(height);
            rec.confirmed_at = Some(at);
            self.total_gas += rec.spec.gas;
        }
        self.growth.add(bytes);
        self.growth.checkpoint(at);
        self.blocks.push(Block {
            height,
            at,
            txs: included,
            gas_used,
            bytes,
        });
        self.next_block_at = at + self.config.block_interval;
    }

    /// Removes a pending (unconfirmed) transaction from the mempool —
    /// models a fork branch that censors the transaction. Returns whether
    /// it was pending.
    pub fn censor_pending(&mut self, id: TxId) -> bool {
        let before = self.pending.len();
        self.pending.retain(|&p| p != id);
        self.pending.len() != before
    }

    /// Rolls back the most recent `depth` blocks (fork-switch simulation).
    /// Their transactions return to the front of the mempool, unconfirmed,
    /// and the chain-growth accounting is reversed. Returns the ids of the
    /// orphaned transactions, newest block first.
    pub fn reorg(&mut self, depth: usize) -> Vec<TxId> {
        let mut orphaned = Vec::new();
        for _ in 0..depth.min(self.blocks.len()) {
            let block = self.blocks.pop().expect("depth bounded by len");
            self.growth.remove(block.bytes);
            self.height -= 1;
            for id in block.txs.iter().rev() {
                let rec = &mut self.txs[id.index()];
                rec.included_in = None;
                rec.confirmed_at = None;
                self.total_gas -= rec.spec.gas;
                orphaned.push(*id);
            }
        }
        // orphaned txs regain priority, oldest first
        let mut reinsert: Vec<TxId> = orphaned.clone();
        reinsert.reverse();
        reinsert.append(&mut self.pending);
        self.pending = reinsert;
        orphaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(label: &'static str, gas: u64) -> TxSpec {
        TxSpec {
            label: label.into(),
            gas,
            size_bytes: 100,
            depends_on: None,
        }
    }

    #[test]
    fn blocks_mined_on_interval() {
        let mut chain = Mainchain::new(ChainConfig::default());
        chain.advance_to(SimTime::from_secs(60));
        assert_eq!(chain.height(), 5); // t=12,24,36,48,60
    }

    #[test]
    fn tx_confirmed_in_next_block() {
        let mut chain = Mainchain::new(ChainConfig::default());
        let id = chain.submit(SimTime::from_secs(1), spec("swap", 100_000));
        chain.advance_to(SimTime::from_secs(12));
        let t = chain.confirmed_at(id).unwrap();
        assert_eq!(t, SimTime::from_secs(12));
        assert_eq!(chain.total_gas(), 100_000);
        assert_eq!(chain.growth_bytes(), 100);
    }

    #[test]
    fn tx_submitted_at_block_time_waits_one_interval() {
        let mut chain = Mainchain::new(ChainConfig::default());
        let id = chain.submit(SimTime::from_secs(12), spec("swap", 1));
        chain.advance_to(SimTime::from_secs(12));
        assert!(chain.confirmed_at(id).is_none());
        chain.advance_to(SimTime::from_secs(24));
        assert_eq!(chain.confirmed_at(id), Some(SimTime::from_secs(24)));
    }

    #[test]
    fn gas_limit_spills_to_next_block() {
        let cfg = ChainConfig {
            gas_limit: 250_000,
            ..ChainConfig::default()
        };
        let mut chain = Mainchain::new(cfg);
        let a = chain.submit(SimTime::ZERO, spec("a", 200_000));
        let b = chain.submit(SimTime::ZERO, spec("b", 100_000));
        chain.advance_to(SimTime::from_secs(12));
        assert!(chain.confirmed_at(a).is_some());
        assert!(chain.confirmed_at(b).is_none());
        chain.advance_to(SimTime::from_secs(24));
        assert!(chain.confirmed_at(b).is_some());
    }

    #[test]
    fn dependency_chains_take_sequential_blocks() {
        let mut chain = Mainchain::new(ChainConfig::default());
        let approve = chain.submit(SimTime::from_secs(1), spec("approve", 50_000));
        let mut dep = spec("deposit", 100_000);
        dep.depends_on = Some(approve);
        let deposit = chain.submit(SimTime::from_secs(1), dep);
        chain.advance_to(SimTime::from_secs(12));
        assert!(chain.confirmed_at(approve).is_some());
        assert!(
            chain.confirmed_at(deposit).is_none(),
            "dep needs earlier block"
        );
        chain.advance_to(SimTime::from_secs(24));
        assert_eq!(chain.confirmed_at(deposit), Some(SimTime::from_secs(24)));
    }

    #[test]
    #[should_panic(
        expected = "transaction `deposit` depends on TxId(1), which was never submitted"
    )]
    fn dependency_on_an_unsubmitted_tx_panics() {
        let mut chain = Mainchain::new(ChainConfig::default());
        let approve = chain.submit(SimTime::from_secs(1), spec("approve", 50_000));
        assert_eq!(approve, TxId(0));
        let mut dep = spec("deposit", 100_000);
        dep.depends_on = Some(TxId(1)); // the id this very submission gets
        chain.submit(SimTime::from_secs(1), dep);
    }

    #[test]
    fn unknown_ids_are_none() {
        let mut chain = Mainchain::new(ChainConfig::default());
        let a = chain.submit(SimTime::from_secs(1), spec("a", 10));
        chain.advance_to(SimTime::from_secs(12));
        assert_eq!(chain.tx(a).map(|r| r.id), Some(a));
        for unknown in [TxId(1), TxId(u64::MAX)] {
            assert!(chain.tx(unknown).is_none());
            assert!(chain.confirmed_at(unknown).is_none());
            assert!(!chain.censor_pending(unknown));
        }
    }

    #[test]
    fn reorg_unconfirms_and_requeues() {
        let mut chain = Mainchain::new(ChainConfig::default());
        let a = chain.submit(SimTime::from_secs(1), spec("a", 10));
        chain.advance_to(SimTime::from_secs(12));
        let gas_before = chain.total_gas();
        let growth_before = chain.growth_bytes();
        assert!(chain.confirmed_at(a).is_some());

        let orphaned = chain.reorg(1);
        assert_eq!(orphaned, vec![a]);
        assert!(chain.confirmed_at(a).is_none());
        assert_eq!(chain.total_gas(), gas_before - 10);
        assert_eq!(chain.growth_bytes(), growth_before - 100);
        assert_eq!(chain.height(), 0);

        // the orphaned tx is re-mined in the next block
        chain.advance_to(SimTime::from_secs(24));
        assert!(chain.confirmed_at(a).is_some());
    }

    #[test]
    fn reorg_deeper_than_chain_is_bounded() {
        let mut chain = Mainchain::new(ChainConfig::default());
        chain.advance_to(SimTime::from_secs(24));
        let orphaned = chain.reorg(10);
        assert!(orphaned.is_empty());
        assert_eq!(chain.height(), 0);
    }

    #[test]
    fn mempool_len_reflects_backlog() {
        let mut chain = Mainchain::new(ChainConfig::default());
        chain.submit(SimTime::from_secs(1), spec("a", 10));
        chain.submit(SimTime::from_secs(1), spec("b", 10));
        assert_eq!(chain.mempool_len(), 2);
        chain.advance_to(SimTime::from_secs(12));
        assert_eq!(chain.mempool_len(), 0);
    }
}
