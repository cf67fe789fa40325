//! Epoch summaries — the paper's Fig. 4 summary rules.
//!
//! During an epoch the committee tracks every user's **deposit balance**
//! as transactions execute (swaps debit the input and credit the output,
//! mints debit provided liquidity, burns/collects credit withdrawals).
//! At the epoch's end the deposits that *moved* are the payout list
//! (`sumPayouts = ΔDeposits` — Fig. 4's `sumPayouts = Deposits` minus the
//! entries TokenBank already holds unchanged), and the touched positions
//! form the position list; TokenBank recomputes pool balances from these
//! (paper §IV-B).

use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::{Address, DigestMap};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// A payout entry: the user's final deposit balance for the epoch
/// (deduction, accrual and leftover refund all netted).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PayoutEntry {
    /// The receiving user.
    pub user: Address,
    /// Token0 to dispense.
    pub amount0: u128,
    /// Token1 to dispense.
    pub amount1: u128,
}

/// A liquidity-position entry: created, updated or deleted during the
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionEntry {
    /// Position identifier (hash of the mint tx and the LP's key).
    pub id: PositionId,
    /// The owning LP.
    pub owner: Address,
    /// Liquidity units held after the epoch.
    pub liquidity: u128,
    /// Token0 principal attributed to the position.
    pub amount0: u128,
    /// Token1 principal attributed to the position.
    pub amount1: u128,
    /// Accrued, uncollected token0 fees.
    pub fees0: u128,
    /// Accrued, uncollected token1 fees.
    pub fees1: u128,
    /// Fee-growth-inside snapshot (token0, truncated to 128 bits) letting
    /// the next committee resume fee accounting.
    pub fee_growth_inside0: u128,
    /// Fee-growth-inside snapshot (token1).
    pub fee_growth_inside1: u128,
    /// Lower price tick.
    pub tick_lower: i32,
    /// Upper price tick.
    pub tick_upper: i32,
    /// `true` when fully withdrawn — TokenBank removes it.
    pub deleted: bool,
}

/// Updated pool reserves reported to TokenBank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolUpdate {
    /// The pool.
    pub pool: PoolId,
    /// New token0 reserve.
    pub reserve0: u128,
    /// New token1 reserve.
    pub reserve1: u128,
}

/// The epoch-level netting ledger for routed traffic.
///
/// Every executed route leg moves tokens twice from the user's
/// perspective — input paid into the leg's pool, output received from it.
/// Settling those flows individually would grow the settlement layer
/// linearly in *hop count*; the netting barrier instead folds them into
/// per-(user, token) **net deltas**, where every intermediate flow
/// cancels exactly (hop *k*'s output is hop *k+1*'s input). The epoch
/// summary and `Sync` then carry only the nets — the byte footprint of a
/// routed epoch's settlement is bounded by the *user* count, not the hop
/// count, in the spirit of the paper's TSQC-compressed summaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NettingLedger {
    /// Net signed deltas per user: `(token0, token1)`.
    nets: BTreeMap<Address, (i128, i128)>,
    /// Per-hop flow records folded in (two per executed leg).
    flows: u64,
    /// Routes folded in.
    routes: u64,
    /// Signed sum of all folded token0 flows.
    flow_sum0: i128,
    /// Signed sum of all folded token1 flows.
    flow_sum1: i128,
}

impl NettingLedger {
    /// An empty ledger.
    pub fn new() -> NettingLedger {
        NettingLedger::default()
    }

    /// Folds one executed route leg into the ledger: the user pays
    /// `amount_in` of the leg's input token and receives `amount_out` of
    /// its output token.
    ///
    /// # Panics
    /// Panics when a flow exceeds `i128::MAX` — beyond any realizable
    /// pool balance, and a panic keeps debug and release builds
    /// bit-identical instead of silently wrapping in release.
    pub fn record_leg(
        &mut self,
        user: Address,
        zero_for_one: bool,
        amount_in: u128,
        amount_out: u128,
    ) {
        let signed = |amount: u128| -> i128 {
            i128::try_from(amount).expect("route flow exceeds i128 range")
        };
        let (d0, d1) = if zero_for_one {
            (-signed(amount_in), signed(amount_out))
        } else {
            (signed(amount_out), -signed(amount_in))
        };
        let entry = self.nets.entry(user).or_insert((0, 0));
        entry.0 += d0;
        entry.1 += d1;
        self.flow_sum0 += d0;
        self.flow_sum1 += d1;
        self.flows += 2;
    }

    /// Marks one route as folded (leg flows are recorded separately).
    pub fn record_route(&mut self) {
        self.routes += 1;
    }

    /// Folds another ledger into this one (per-batch ledgers accumulate
    /// into the epoch ledger).
    pub fn merge(&mut self, other: &NettingLedger) {
        for (user, (d0, d1)) in &other.nets {
            let entry = self.nets.entry(*user).or_insert((0, 0));
            entry.0 += d0;
            entry.1 += d1;
        }
        self.flows += other.flows;
        self.routes += other.routes;
        self.flow_sum0 += other.flow_sum0;
        self.flow_sum1 += other.flow_sum1;
    }

    /// The net signed deltas, sorted by user.
    pub fn net_entries(&self) -> Vec<(Address, (i128, i128))> {
        self.nets.iter().map(|(u, d)| (*u, *d)).collect()
    }

    /// Per-hop flow records folded in (two per executed leg).
    pub fn flow_count(&self) -> u64 {
        self.flows
    }

    /// Routes folded in.
    pub fn route_count(&self) -> u64 {
        self.routes
    }

    /// Non-zero net entries — what a netted settlement would ship.
    pub fn net_entry_count(&self) -> u64 {
        self.nets.values().filter(|d| **d != (0, 0)).count() as u64
    }

    /// The signed totals of every folded flow, per token.
    pub fn flow_totals(&self) -> (i128, i128) {
        (self.flow_sum0, self.flow_sum1)
    }

    /// The signed totals of the net deltas, per token. Netting is
    /// *conservative*: this always equals [`NettingLedger::flow_totals`]
    /// — folding flows into nets neither creates nor destroys tokens.
    pub fn net_totals(&self) -> (i128, i128) {
        self.nets
            .values()
            .fold((0i128, 0i128), |(a0, a1), (d0, d1)| (a0 + d0, a1 + d1))
    }

    /// Settlement bytes of the *netted* form: one packed payout-sized
    /// entry per non-zero net delta.
    pub fn netted_settlement_bytes(&self) -> u64 {
        self.net_entry_count() * crate::codec::payout_entry_size() as u64
    }

    /// Settlement bytes of the *naive* per-hop form: one packed
    /// payout-sized entry per folded flow — what the settlement layer
    /// would carry if every hop's transfers were synced individually.
    pub fn naive_settlement_bytes(&self) -> u64 {
        self.flows * crate::codec::payout_entry_size() as u64
    }
}

/// Errors from deposit tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositError {
    /// The user's deposit cannot cover the debit — the transaction must be
    /// rejected (paper: "accept transactions only from users who own
    /// enough deposits").
    InsufficientDeposit {
        /// The user.
        user: Address,
        /// Amount needed of token0.
        need0: u128,
        /// Amount needed of token1.
        need1: u128,
        /// Available token0.
        have0: u128,
        /// Available token1.
        have1: u128,
    },
    /// Credit would overflow.
    Overflow,
}

impl std::fmt::Display for DepositError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepositError::InsufficientDeposit {
                user,
                need0,
                need1,
                have0,
                have1,
            } => write!(
                f,
                "deposit of {user} covers ({have0}, {have1}), needs ({need0}, {need1})"
            ),
            DepositError::Overflow => write!(f, "deposit overflow"),
        }
    }
}

impl std::error::Error for DepositError {}

/// One user's ledger slot: the live balance, plus whether it was written
/// since the epoch opened (bookkeeping for the payout list, not state).
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    balance: (u128, u128),
    touched: bool,
}

impl Slot {
    /// Writes `balance`, recording the slot's opening balance in `opening`
    /// on the epoch's first write.
    fn write(
        &mut self,
        user: Address,
        balance: (u128, u128),
        opening: &mut Vec<(Address, (u128, u128))>,
    ) {
        if !self.touched {
            self.touched = true;
            opening.push((user, self.balance));
        }
        self.balance = balance;
    }
}

/// The per-epoch deposit ledger: retrieved from TokenBank at epoch start
/// (`SnapshotBank`), mutated by every processed transaction, emitting the
/// balances that moved as the payout list at epoch end.
///
/// The first-touch record behind [`Deposits::to_payouts`] is epoch
/// bookkeeping, not state: equality, the sorted export and everything
/// built on it (snapshots, state roots) see balances only.
#[derive(Clone, Debug, Default)]
pub struct Deposits {
    slots: DigestMap<Address, Slot>,
    /// Every user written since the epoch opened, with the balance they
    /// opened it with.
    opening: Vec<(Address, (u128, u128))>,
}

impl PartialEq for Deposits {
    fn eq(&self, other: &Deposits) -> bool {
        self.slots.len() == other.slots.len()
            && self.slots.iter().all(|(user, slot)| {
                other
                    .slots
                    .get(user)
                    .is_some_and(|o| o.balance == slot.balance)
            })
    }
}

impl Eq for Deposits {}

impl Deposits {
    /// An empty ledger.
    pub fn new() -> Deposits {
        Deposits::default()
    }

    /// Builds the ledger from a TokenBank snapshot; the snapshot is the
    /// epoch's opening state.
    pub fn from_snapshot(snapshot: impl IntoIterator<Item = (Address, (u128, u128))>) -> Deposits {
        let touched = false;
        let slot = |(user, balance)| (user, Slot { balance, touched });
        Deposits {
            slots: snapshot.into_iter().map(slot).collect(),
            opening: Vec::new(),
        }
    }

    /// Opens a new epoch on the carried-over ledger: the current balances
    /// become the baseline the next payout list is measured against.
    pub fn open_epoch(&mut self) {
        for (user, _) in self.opening.drain(..) {
            if let Some(slot) = self.slots.get_mut(&user) {
                slot.touched = false;
            }
        }
    }

    /// A user's `(token0, token1)` balance.
    pub fn get(&self, user: &Address) -> (u128, u128) {
        self.slots.get(user).map_or((0, 0), |s| s.balance)
    }

    /// Number of users with an entry.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no user has an entry.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Checks whether `user` can cover a debit without applying it.
    pub fn can_cover(&self, user: &Address, need0: u128, need1: u128) -> bool {
        let (have0, have1) = self.get(user);
        have0 >= need0 && have1 >= need1
    }

    /// Debits both tokens atomically.
    ///
    /// # Errors
    /// Fails (leaving the ledger unchanged) when coverage is insufficient.
    pub fn debit(
        &mut self,
        user: Address,
        amount0: u128,
        amount1: u128,
    ) -> Result<(), DepositError> {
        // one probe: the located entry serves the check and the write
        let entry = self.slots.entry(user);
        let (have0, have1) = match &entry {
            Entry::Occupied(e) => e.get().balance,
            Entry::Vacant(_) => (0, 0),
        };
        if have0 < amount0 || have1 < amount1 {
            return Err(DepositError::InsufficientDeposit {
                user,
                need0: amount0,
                need1: amount1,
                have0,
                have1,
            });
        }
        entry
            .or_default()
            .write(user, (have0 - amount0, have1 - amount1), &mut self.opening);
        Ok(())
    }

    /// Credits both tokens (newly accrued tokens are immediately usable
    /// for further trading within the epoch — paper §IV-B).
    ///
    /// # Errors
    /// Fails on overflow.
    pub fn credit(
        &mut self,
        user: Address,
        amount0: u128,
        amount1: u128,
    ) -> Result<(), DepositError> {
        let slot = self.slots.entry(user).or_default();
        let (have0, have1) = slot.balance;
        let new0 = have0.checked_add(amount0).ok_or(DepositError::Overflow)?;
        let new1 = have1.checked_add(amount1).ok_or(DepositError::Overflow)?;
        slot.write(user, (new0, new1), &mut self.opening);
        Ok(())
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (Address, (u128, u128))> + '_ {
        self.slots.iter().map(|(a, s)| (*a, s.balance))
    }

    /// The ledger's entries sorted by address — the deterministic export
    /// used by the snapshot codec. Restore with
    /// [`Deposits::from_sorted_entries`].
    pub fn to_sorted_entries(&self) -> Vec<(Address, (u128, u128))> {
        let mut out: Vec<(Address, (u128, u128))> = self.iter().collect();
        out.sort_unstable_by_key(|(a, _)| *a);
        out
    }

    /// Rebuilds a ledger from exported entries.
    pub fn from_sorted_entries(entries: Vec<(Address, (u128, u128))>) -> Deposits {
        Deposits::from_snapshot(entries)
    }

    /// Emits the payout list: the closing balance of every user whose
    /// balance differs from the one they opened the epoch with, sorted by
    /// address for determinism — one entry per *active* user, so the list
    /// (and everything sized by it: summary block, sync payload, TSQC
    /// digest, bank gas) follows the epoch's activity, not its user
    /// count. This is Fig. 4's `sumPayouts = Deposits` less the entries
    /// that would rewrite a TokenBank slot with the value it already
    /// holds; TokenBank rolls those deposits over in place. A user driven
    /// to `(0, 0)` is listed — the entry clears their slot — while a user
    /// who trades back to the exact opening balance is not.
    pub fn to_payouts(&self) -> Vec<PayoutEntry> {
        let mut out: Vec<PayoutEntry> = self
            .opening
            .iter()
            .filter_map(|(user, opened)| {
                let (amount0, amount1) = self.get(user);
                ((amount0, amount1) != *opened).then_some(PayoutEntry {
                    user: *user,
                    amount0,
                    amount1,
                })
            })
            .collect();
        out.sort_by_key(|p| p.user);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn a(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut snap = HashMap::new();
        snap.insert(a(1), (10, 15));
        let d = Deposits::from_snapshot(snap);
        assert_eq!(d.get(&a(1)), (10, 15));
        assert_eq!(d.get(&a(2)), (0, 0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn paper_swap_example() {
        // Paper §IV-B: deposit (10A, 15B), swap 5A for 10B → (5A, 25B)
        let mut d = Deposits::new();
        d.credit(a(1), 10, 15).unwrap();
        d.debit(a(1), 5, 0).unwrap();
        d.credit(a(1), 0, 10).unwrap();
        assert_eq!(d.get(&a(1)), (5, 25));
        let payouts = d.to_payouts();
        assert_eq!(
            payouts,
            vec![PayoutEntry {
                user: a(1),
                amount0: 5,
                amount1: 25
            }]
        );
    }

    #[test]
    fn debit_is_atomic() {
        let mut d = Deposits::new();
        d.credit(a(1), 10, 0).unwrap();
        // would cover token0 but not token1 → nothing changes
        let err = d.debit(a(1), 5, 1).unwrap_err();
        assert!(matches!(err, DepositError::InsufficientDeposit { .. }));
        assert_eq!(d.get(&a(1)), (10, 0));
    }

    #[test]
    fn can_cover_matches_debit() {
        let mut d = Deposits::new();
        d.credit(a(1), 7, 3).unwrap();
        assert!(d.can_cover(&a(1), 7, 3));
        assert!(!d.can_cover(&a(1), 8, 0));
        assert!(!d.can_cover(&a(2), 1, 0));
    }

    #[test]
    fn accrued_tokens_usable_immediately() {
        let mut d = Deposits::new();
        d.credit(a(1), 10, 0).unwrap();
        d.debit(a(1), 10, 0).unwrap();
        // swap output
        d.credit(a(1), 0, 20).unwrap();
        // use the fresh token1 right away
        d.debit(a(1), 0, 20).unwrap();
        assert_eq!(d.get(&a(1)), (0, 0));
    }

    /// Fig. 4's `sumPayouts = Deposits`: every entry, moved or not — the
    /// oracle the dirty list is checked against.
    fn full_payouts(d: &Deposits) -> Vec<PayoutEntry> {
        let entry = |(user, (amount0, amount1))| PayoutEntry {
            user,
            amount0,
            amount1,
        };
        d.to_sorted_entries().into_iter().map(entry).collect()
    }

    #[test]
    fn payouts_sorted_and_complete() {
        let snap: HashMap<_, _> = (1..=6).map(|i| (a(i), (10 * i as u128, 5))).collect();
        let mut d = Deposits::from_snapshot(snap.clone());
        d.debit(a(5), 1, 0).unwrap(); // moved
        d.credit(a(2), 0, 7).unwrap(); // moved
        d.debit(a(3), 30, 5).unwrap(); // driven to (0, 0): listed, clears the slot
        d.debit(a(4), 4, 0).unwrap(); // swaps A -> B ...
        d.credit(a(4), 0, 9).unwrap();
        d.debit(a(4), 0, 9).unwrap(); // ... and back to the exact
        d.credit(a(4), 4, 0).unwrap(); // opening balance: not listed
        d.credit(a(9), 0, 0).unwrap(); // new, still (0, 0): not listed
        assert!(d.debit(a(6), 61, 0).is_err()); // rejected: not touched
        let p = d.to_payouts();
        assert!(p.windows(2).all(|w| w[0].user < w[1].user));
        let mut moved = vec![a(2), a(3), a(5)];
        moved.sort();
        assert_eq!(p.iter().map(|e| e.user).collect::<Vec<_>>(), moved);
        let cleared = p.iter().find(|e| e.user == a(3)).unwrap();
        assert_eq!((cleared.amount0, cleared.amount1), (0, 0));
        // exactly the full list's entries whose balance left the opening
        let opened = |e: &PayoutEntry| snap.get(&e.user).copied().unwrap_or((0, 0));
        let mut oracle = full_payouts(&d);
        assert_eq!(oracle.len(), 7);
        oracle.retain(|e| (e.amount0, e.amount1) != opened(e));
        assert_eq!(p, oracle);
    }

    #[test]
    fn open_epoch_rebases_the_payout_list() {
        let mut d = Deposits::from_snapshot([(a(1), (10, 0)), (a(2), (20, 0))]);
        d.debit(a(1), 3, 0).unwrap();
        assert_eq!(d.to_payouts().len(), 1);
        // carry-over: the closing balances are the next baseline
        d.open_epoch();
        assert!(d.to_payouts().is_empty());
        d.credit(a(1), 3, 0).unwrap(); // back to the *previous* opening
        d.debit(a(2), 0, 0).unwrap(); // written, unchanged
        let p = d.to_payouts();
        assert_eq!(p.len(), 1);
        assert_eq!((p[0].user, p[0].amount0), (a(1), 10));
    }

    #[test]
    fn first_touch_record_is_not_state() {
        let mut d = Deposits::from_snapshot([(a(1), (10, 0))]);
        let untouched = d.clone();
        d.debit(a(1), 4, 0).unwrap();
        d.credit(a(1), 4, 0).unwrap();
        assert_eq!(d, untouched);
        assert_eq!(d.to_sorted_entries(), untouched.to_sorted_entries());
        assert_ne!(d, Deposits::from_snapshot([(a(1), (9, 0))]));
        assert_ne!(
            d,
            Deposits::from_snapshot([(a(1), (10, 0)), (a(2), (0, 0))])
        );
    }

    #[test]
    fn sorted_entries_roundtrip() {
        let mut d = Deposits::new();
        d.credit(a(5), 50, 5).unwrap();
        d.credit(a(1), 10, 1).unwrap();
        d.credit(a(3), 30, 3).unwrap();
        let entries = d.to_sorted_entries();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let restored = Deposits::from_sorted_entries(entries.clone());
        assert_eq!(restored, d);
        assert_eq!(restored.to_sorted_entries(), entries);
    }

    #[test]
    fn overflow_rejected() {
        let mut d = Deposits::new();
        d.credit(a(1), u128::MAX, 0).unwrap();
        assert_eq!(d.credit(a(1), 1, 0), Err(DepositError::Overflow));
    }

    #[test]
    fn netting_cancels_intermediate_flows() {
        // 3-hop route: 100 token0 in → 95 token1 → 93 token0 → 91 token1.
        // Intermediates (95 t1, 93 t0) cancel; net = (-100, +91).
        let mut n = NettingLedger::new();
        n.record_route();
        n.record_leg(a(1), true, 100, 95);
        n.record_leg(a(1), false, 95, 93);
        n.record_leg(a(1), true, 93, 91);
        assert_eq!(n.net_entries(), vec![(a(1), (-100, 91))]);
        assert_eq!(n.flow_count(), 6);
        assert_eq!(n.route_count(), 1);
        assert_eq!(n.net_entry_count(), 1);
    }

    #[test]
    fn netting_is_conservative() {
        let mut n = NettingLedger::new();
        n.record_leg(a(1), true, 100, 95);
        n.record_leg(a(2), false, 50, 48);
        n.record_leg(a(1), false, 95, 90);
        assert_eq!(n.flow_totals(), n.net_totals());
    }

    #[test]
    fn netted_settlement_strictly_smaller_than_naive() {
        // any route with >= 2 hops: 2*hops flows fold to <= 2 entries
        for hops in 2..=6u32 {
            let mut n = NettingLedger::new();
            n.record_route();
            let mut amount = 1_000u128;
            for k in 0..hops {
                n.record_leg(a(9), k % 2 == 0, amount, amount - 3);
                amount -= 3;
            }
            assert!(
                n.netted_settlement_bytes() < n.naive_settlement_bytes(),
                "hops={hops}: {} !< {}",
                n.netted_settlement_bytes(),
                n.naive_settlement_bytes()
            );
        }
    }

    #[test]
    fn netting_merge_accumulates() {
        let mut a_ledger = NettingLedger::new();
        a_ledger.record_route();
        a_ledger.record_leg(a(1), true, 10, 9);
        let mut b_ledger = NettingLedger::new();
        b_ledger.record_route();
        b_ledger.record_leg(a(1), false, 9, 8);
        a_ledger.merge(&b_ledger);
        assert_eq!(a_ledger.route_count(), 2);
        assert_eq!(a_ledger.flow_count(), 4);
        assert_eq!(a_ledger.net_entries(), vec![(a(1), (-2, 0))]);
        assert_eq!(a_ledger.flow_totals(), a_ledger.net_totals());
    }
}
