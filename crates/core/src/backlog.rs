//! The world's arrival backlog: the FIFO of generated transactions that
//! have arrived but not yet been mined, packed into a queue of byte
//! blocks.
//!
//! Under the paper's saturated load (Table V at 25 M tx/day) this queue,
//! not the node's state, is most of a run's memory: an 11-epoch
//! `paper_default` run ends with ≈ 350 000 transactions still queued. An
//! [`AmmTx`] is 128 B, mostly zero-padded amounts and the issuer's
//! 20-byte address, so each arrival is kept as one variable-length
//! record instead (≈ 20 B on the paper's mix):
//!
//! | field | encoding |
//! | --- | --- |
//! | arrival (ms), wire size | LEB128 varints |
//! | tag | one byte: kind in bits 0–2, flags above |
//! | issuer | its population index (varint), not its address |
//! | pools, amounts, nonce, deadline | varints |
//! | ticks | zig-zag varints |
//! | route hops | count, then one `pool << 1 \| zero_for_one` varint each |
//! | position id, sqrt price limit | 32 raw bytes, only when present |
//!
//! Records live in fixed [`BLOCK`]-byte blocks, oldest first. A record is
//! written straight into the newest block, or starts a new one when that
//! block has less room left than the record's widest encoding, so no
//! record straddles two blocks and no block outgrows its allocation. It
//! is read from a head offset into the oldest block, and that block is
//! freed as soon as its last record pops, unless it is the only one: a
//! queue below saturation empties every round, and keeping its one block
//! spares it allocating and freeing a block each round. No byte is moved
//! after it is written, and what the queue holds follows its live
//! records, not how many it has popped: the bytes written into the blocks
//! it still holds are the live records plus the popped prefix of the
//! oldest block, so less than one block more than
//! [`Backlog::packed_bytes`]. Decoding rebuilds the exact `AmmTx` that
//! was pushed, so the node sees the same transactions.

use ammboost_amm::tx::{AmmTx, BurnTx, CollectTx, MintTx, RouteHop, RouteTx, SwapIntent, SwapTx};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::{Address, H256, U256};
use ammboost_sim::time::SimTime;
use std::collections::VecDeque;

const SWAP: u8 = 0;
const MINT: u8 = 1;
const BURN: u8 = 2;
const COLLECT: u8 = 3;
const ROUTE: u8 = 4;
const KIND: u8 = 0b111;
/// A swap that sells token0.
const ZERO_FOR_ONE: u8 = 1 << 3;
/// A swap whose intent is [`SwapIntent::ExactOutput`].
const EXACT_OUTPUT: u8 = 1 << 4;
/// The kind's optional field is present: a swap's price limit, a mint's
/// position or a burn's liquidity.
const PRESENT: u8 = 1 << 5;

/// Bytes per block: 1 MiB, ≈ 58 000 records of the paper's mix, about
/// what one epoch pushes at the paper's load. The one block the queue may
/// hold beyond its live records is then a small share of a saturated
/// run's memory, and few enough blocks are allocated and freed that
/// each costs next to nothing.
pub(crate) const BLOCK: usize = 1 << 20;

/// A FIFO of `(arrival, transaction, wire size)` entries, each packed
/// into one record of a byte block (see the module docs).
#[derive(Debug, Default)]
pub struct Backlog {
    /// Whole records, oldest block first; each block is allocated at
    /// [`BLOCK`] bytes and filled no further. Every block holds a queued
    /// record, except the one block an emptied queue keeps.
    blocks: VecDeque<Vec<u8>>,
    /// Offset of the front record in the front block.
    head: usize,
    len: usize,
    /// Packed bytes of the queued records.
    bytes: usize,
    peak: usize,
    peak_bytes: usize,
}

impl Backlog {
    /// An empty backlog.
    pub fn new() -> Backlog {
        Backlog::default()
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packed bytes of the queued entries.
    pub fn packed_bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes written into the blocks the backlog holds: the queued
    /// records plus the popped prefix of the front block, so never a
    /// block or more past [`Backlog::packed_bytes`].
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// The most entries the backlog has held.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// [`Backlog::packed_bytes`] when the backlog first held
    /// [`Backlog::peak`] entries.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Appends `tx`, which arrived at `arrival`, weighs `wire_size` bytes
    /// against the block budget and was issued by population index
    /// `user`. Only the index is stored: [`Backlog::pop`] maps it back to
    /// the address, which must equal `tx.user()`.
    pub fn push(&mut self, arrival: SimTime, wire_size: usize, user: u32, tx: &AmmTx) {
        let most = max_record_len(tx);
        if self
            .blocks
            .back()
            .is_none_or(|tail| tail.len() + most > BLOCK)
        {
            self.blocks.push_back(Vec::with_capacity(BLOCK.max(most)));
        }
        let out = self.blocks.back_mut().expect("a block with room");
        let start = out.len();
        put(out, arrival.as_millis());
        put(out, wire_size as u64);
        match tx {
            AmmTx::Swap(t) => {
                let (intent, a, b) = match t.intent {
                    SwapIntent::ExactInput {
                        amount_in,
                        min_amount_out,
                    } => (0, amount_in, min_amount_out),
                    SwapIntent::ExactOutput {
                        amount_out,
                        max_amount_in,
                    } => (EXACT_OUTPUT, amount_out, max_amount_in),
                };
                let direction = flag(t.zero_for_one, ZERO_FOR_ONE);
                out.push(SWAP | direction | intent | flag(t.sqrt_price_limit.is_some(), PRESENT));
                put(out, user.into());
                put(out, t.pool.0.into());
                put_wide(out, a);
                put_wide(out, b);
                if let Some(limit) = t.sqrt_price_limit {
                    out.extend_from_slice(&limit.to_be_bytes());
                }
                put(out, t.deadline_round);
            }
            AmmTx::Mint(t) => {
                out.push(MINT | flag(t.position.is_some(), PRESENT));
                put(out, user.into());
                put(out, t.pool.0.into());
                if let Some(position) = t.position {
                    out.extend_from_slice(&position.0 .0);
                }
                put(out, zigzag(t.tick_lower));
                put(out, zigzag(t.tick_upper));
                put_wide(out, t.amount0_desired);
                put_wide(out, t.amount1_desired);
                put(out, t.nonce);
            }
            AmmTx::Burn(t) => {
                out.push(BURN | flag(t.liquidity.is_some(), PRESENT));
                put(out, user.into());
                put(out, t.pool.0.into());
                out.extend_from_slice(&t.position.0 .0);
                if let Some(liquidity) = t.liquidity {
                    put_wide(out, liquidity);
                }
            }
            AmmTx::Collect(t) => {
                out.push(COLLECT);
                put(out, user.into());
                put(out, t.pool.0.into());
                out.extend_from_slice(&t.position.0 .0);
                put_wide(out, t.amount0);
                put_wide(out, t.amount1);
            }
            AmmTx::Route(t) => {
                out.push(ROUTE);
                put(out, user.into());
                put(out, t.hops.len() as u64);
                for hop in &t.hops {
                    put(
                        out,
                        u64::from(hop.pool.0) << 1 | u64::from(hop.zero_for_one),
                    );
                }
                put_wide(out, t.amount_in);
                put_wide(out, t.min_amount_out);
                put(out, t.deadline_round);
            }
        }
        let written = out.len() - start;
        debug_assert!(written <= most, "{written} B record, {most} B bound");
        self.len += 1;
        self.bytes += written;
        if self.len > self.peak {
            self.peak = self.len;
            self.peak_bytes = self.packed_bytes();
        }
    }

    /// The front entry's arrival and wire size, without decoding its
    /// transaction.
    pub fn front(&self) -> Option<(SimTime, usize)> {
        if self.is_empty() {
            return None;
        }
        let mut r = Reader {
            bytes: self.blocks.front()?,
            at: self.head,
        };
        Some((SimTime::from_millis(r.u64()), r.u64() as usize))
    }

    /// Removes the front entry and rebuilds its transaction, mapping the
    /// stored population index to an address through `user`. The front
    /// block is freed when this was its last record, unless it is the
    /// only block: an emptied queue keeps that one for its next push.
    pub fn pop(&mut self, user: impl Fn(u32) -> Address) -> Option<(SimTime, AmmTx, usize)> {
        if self.is_empty() {
            return None;
        }
        let front = self.blocks.front()?;
        let mut r = Reader {
            bytes: front,
            at: self.head,
        };
        let arrival = SimTime::from_millis(r.u64());
        let wire_size = r.u64() as usize;
        let tx = r.tx(user);
        self.bytes -= r.at - self.head;
        self.head = r.at;
        self.len -= 1;
        if self.head == front.len() {
            self.head = 0;
            if self.blocks.len() == 1 {
                self.blocks[0].clear();
            } else {
                self.blocks.pop_front();
            }
        }
        Some((arrival, tx, wire_size))
    }
}

/// The most bytes [`Backlog::push`] can write for `tx`, every varint at
/// its widest: a record starts a new block unless this much room is left,
/// so it never straddles two and a block never grows past [`BLOCK`].
fn max_record_len(tx: &AmmTx) -> usize {
    // arrival and wire size (10 each), tag, issuer
    const HEAD: usize = 10 + 10 + 1 + 5;
    HEAD + match tx {
        // hop count, hops, amounts, deadline
        AmmTx::Route(t) => 10 + 5 * t.hops.len() + 19 + 19 + 10,
        // a mint with a position, the widest other body: pool, position,
        // ticks, amounts, nonce
        _ => 5 + 32 + 5 + 5 + 19 + 19 + 10,
    }
}

fn flag(set: bool, bit: u8) -> u8 {
    if set {
        bit
    } else {
        0
    }
}

/// Appends `v` as an LEB128 varint (10 bytes at most).
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// [`put`] for amounts (19 bytes at most): the bits above 64 go first
/// in 7-bit groups, the rest through the `u64` loop.
fn put_wide(out: &mut Vec<u8>, mut v: u128) {
    while v > u128::from(u64::MAX) {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    put(out, v as u64);
}

/// Zig-zag: small ticks of either sign stay small.
fn zigzag(tick: i32) -> u64 {
    u64::from(((tick << 1) ^ (tick >> 31)) as u32)
}

fn unzigzag(z: u32) -> i32 {
    (z >> 1) as i32 ^ -((z & 1) as i32)
}

/// A cursor over records [`Backlog::push`] wrote; malformed bytes are a
/// bug in this module, so reads index without checks of their own.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.at];
        self.at += 1;
        b
    }

    fn u64(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn u128(&mut self) -> u128 {
        let (mut v, mut shift) = (0u128, 0);
        loop {
            let b = self.byte();
            v |= u128::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn pool(&mut self) -> PoolId {
        PoolId(self.u32())
    }

    fn raw32(&mut self) -> [u8; 32] {
        let raw = self.bytes[self.at..self.at + 32]
            .try_into()
            .expect("32 bytes");
        self.at += 32;
        raw
    }

    fn position(&mut self) -> PositionId {
        PositionId(H256(self.raw32()))
    }

    /// Decodes one record's tag and body, in the order `push` wrote them.
    fn tx(&mut self, user_of: impl Fn(u32) -> Address) -> AmmTx {
        let tag = self.byte();
        let user = user_of(self.u32());
        let present = tag & PRESENT != 0;
        match tag & KIND {
            SWAP => {
                let pool = self.pool();
                let (a, b) = (self.u128(), self.u128());
                let intent = if tag & EXACT_OUTPUT == 0 {
                    SwapIntent::ExactInput {
                        amount_in: a,
                        min_amount_out: b,
                    }
                } else {
                    SwapIntent::ExactOutput {
                        amount_out: a,
                        max_amount_in: b,
                    }
                };
                let sqrt_price_limit = present.then(|| U256::from_be_bytes(self.raw32()));
                AmmTx::Swap(SwapTx {
                    user,
                    pool,
                    zero_for_one: tag & ZERO_FOR_ONE != 0,
                    intent,
                    sqrt_price_limit,
                    deadline_round: self.u64(),
                })
            }
            MINT => {
                let pool = self.pool();
                let position = present.then(|| self.position());
                let tick_lower = unzigzag(self.u32());
                let tick_upper = unzigzag(self.u32());
                let amount0_desired = self.u128();
                let amount1_desired = self.u128();
                AmmTx::Mint(MintTx {
                    user,
                    pool,
                    position,
                    tick_lower,
                    tick_upper,
                    amount0_desired,
                    amount1_desired,
                    nonce: self.u64(),
                })
            }
            BURN => {
                let pool = self.pool();
                let position = self.position();
                AmmTx::Burn(BurnTx {
                    user,
                    pool,
                    position,
                    liquidity: present.then(|| self.u128()),
                })
            }
            COLLECT => {
                let pool = self.pool();
                let position = self.position();
                let amount0 = self.u128();
                AmmTx::Collect(CollectTx {
                    user,
                    pool,
                    position,
                    amount0,
                    amount1: self.u128(),
                })
            }
            ROUTE => {
                let hops = (0..self.u64())
                    .map(|_| {
                        let hop = self.u64();
                        RouteHop {
                            pool: PoolId((hop >> 1) as u32),
                            zero_for_one: hop & 1 == 1,
                        }
                    })
                    .collect();
                let amount_in = self.u128();
                let min_amount_out = self.u128();
                AmmTx::Route(RouteTx {
                    user,
                    hops,
                    amount_in,
                    min_amount_out,
                    deadline_round: self.u64(),
                })
            }
            kind => unreachable!("kind {kind} is never pushed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::MAX_ROUTE_HOPS;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Population index `i` ↦ an address of its own. The traffic
    /// generator hashes the index; any one-to-one map serves here, and
    /// this one costs no Keccak per record in a debug build.
    fn address(i: u32) -> Address {
        let mut raw = [0xA1; 20];
        raw[..4].copy_from_slice(&i.to_be_bytes());
        Address(raw)
    }

    fn amount() -> impl Strategy<Value = u128> {
        prop_oneof![
            Just(0u128),
            Just(u128::MAX),
            (0u64..200_000).prop_map(u128::from),
            any::<u128>(),
        ]
    }

    fn tick() -> impl Strategy<Value = i32> {
        prop_oneof![
            Just(i32::MIN),
            Just(i32::MAX),
            Just(-887_272),
            -120_000i32..120_000,
            any::<i32>(),
        ]
    }

    fn small_u64() -> impl Strategy<Value = u64> {
        prop_oneof![Just(u64::MAX), 0u64..2_000_000, any::<u64>()]
    }

    fn option<S: Strategy + 'static>(inner: S) -> impl Strategy<Value = Option<S::Value>>
    where
        S::Value: Clone + 'static,
    {
        prop_oneof![Just(None), inner.prop_map(Some)]
    }

    fn position() -> impl Strategy<Value = PositionId> {
        any::<[u8; 32]>().prop_map(|raw| PositionId(H256(raw)))
    }

    fn pool() -> impl Strategy<Value = PoolId> {
        prop_oneof![Just(PoolId(u32::MAX)), (0u32..64).prop_map(PoolId)]
    }

    fn swap() -> impl Strategy<Value = AmmTx> {
        let limit = option(any::<[u8; 32]>().prop_map(U256::from_be_bytes));
        let shape = (pool(), any::<bool>(), any::<bool>(), limit, small_u64());
        (shape, amount(), amount()).prop_map(|((pool, dir, exact_in, limit, deadline), a, b)| {
            let intent = if exact_in {
                SwapIntent::ExactInput {
                    amount_in: a,
                    min_amount_out: b,
                }
            } else {
                SwapIntent::ExactOutput {
                    amount_out: a,
                    max_amount_in: b,
                }
            };
            AmmTx::Swap(SwapTx {
                user: Address::ZERO,
                pool,
                zero_for_one: dir,
                intent,
                sqrt_price_limit: limit,
                deadline_round: deadline,
            })
        })
    }

    fn mint() -> impl Strategy<Value = AmmTx> {
        let shape = (pool(), option(position()), tick(), tick(), small_u64());
        (shape, amount(), amount()).prop_map(|((pool, position, lower, upper, nonce), a0, a1)| {
            AmmTx::Mint(MintTx {
                user: Address::ZERO,
                pool,
                position,
                tick_lower: lower,
                tick_upper: upper,
                amount0_desired: a0,
                amount1_desired: a1,
                nonce,
            })
        })
    }

    fn burn() -> impl Strategy<Value = AmmTx> {
        (pool(), position(), option(amount())).prop_map(|(pool, position, liquidity)| {
            AmmTx::Burn(BurnTx {
                user: Address::ZERO,
                pool,
                position,
                liquidity,
            })
        })
    }

    fn collect() -> impl Strategy<Value = AmmTx> {
        (pool(), position(), amount(), amount()).prop_map(|(pool, position, amount0, amount1)| {
            AmmTx::Collect(CollectTx {
                user: Address::ZERO,
                pool,
                position,
                amount0,
                amount1,
            })
        })
    }

    fn route() -> impl Strategy<Value = AmmTx> {
        let hop = (pool(), any::<bool>())
            .prop_map(|(pool, zero_for_one)| RouteHop { pool, zero_for_one });
        let hops = proptest::collection::vec(hop, 2..MAX_ROUTE_HOPS + 1);
        (hops, amount(), amount(), small_u64()).prop_map(|(hops, amount_in, min_out, deadline)| {
            AmmTx::Route(RouteTx {
                user: Address::ZERO,
                hops,
                amount_in,
                min_amount_out: min_out,
                deadline_round: deadline,
            })
        })
    }

    /// `tx` as population index `user` issues it.
    fn issued_by(mut tx: AmmTx, user: u32) -> AmmTx {
        let issuer = address(user);
        match &mut tx {
            AmmTx::Swap(t) => t.user = issuer,
            AmmTx::Mint(t) => t.user = issuer,
            AmmTx::Burn(t) => t.user = issuer,
            AmmTx::Collect(t) => t.user = issuer,
            AmmTx::Route(t) => t.user = issuer,
        }
        tx
    }

    fn entry() -> impl Strategy<Value = (SimTime, usize, u32, AmmTx)> {
        let tx = prop_oneof![swap(), mint(), burn(), collect(), route()];
        let user = prop_oneof![Just(u32::MAX), 0u32..50_000];
        let size = prop_oneof![Just(usize::MAX), 0usize..2_000];
        (small_u64().prop_map(SimTime::from_millis), size, user, tx)
            .prop_map(|(arrival, size, user, tx)| (arrival, size, user, issued_by(tx, user)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every kind, extreme amounts and ticks, optional fields present
        /// or not, 2..=MAX_ROUTE_HOPS hops: what is pushed pops back equal,
        /// in order, and `front` reads the arrival and size without
        /// decoding.
        #[test]
        fn every_kind_round_trips(entries in proptest::collection::vec(entry(), 1..24)) {
            let mut backlog = Backlog::new();
            for (arrival, size, user, tx) in &entries {
                backlog.push(*arrival, *size, *user, tx);
            }
            prop_assert_eq!(backlog.len(), entries.len());
            for (arrival, size, _, tx) in &entries {
                prop_assert_eq!(backlog.front(), Some((*arrival, *size)));
                let popped = backlog.pop(address).expect("queued");
                prop_assert_eq!(popped, (*arrival, tx.clone(), *size));
            }
            prop_assert!(backlog.is_empty());
            prop_assert_eq!(backlog.pop(address), None);
            prop_assert_eq!(backlog.packed_bytes(), 0);
        }
    }

    /// The generator's swap at the paper's defaults: user 99 of 100, one
    /// pool, a Table VII wire size, a day's arrival time and a deadline
    /// 10⁶ rounds out.
    fn population_swap() -> AmmTx {
        issued_by(
            AmmTx::Swap(SwapTx {
                user: Address::ZERO,
                pool: PoolId(0),
                zero_for_one: true,
                intent: SwapIntent::ExactInput {
                    amount_in: 119_999,
                    min_amount_out: 0,
                },
                sqrt_price_limit: None,
                deadline_round: 1_000_000 + 12_342,
            }),
            99,
        )
    }

    #[test]
    fn a_population_swap_packs_to_at_most_24_bytes() {
        let mut backlog = Backlog::new();
        let day = SimTime::from_millis(86_400_000);
        backlog.push(day, 1_008, 99, &population_swap());
        assert!(backlog.packed_bytes() <= 24, "{} B", backlog.packed_bytes());
        assert_eq!(
            (backlog.peak(), backlog.peak_bytes()),
            (1, backlog.packed_bytes())
        );
    }

    /// The `n`th entry of the FIFO test: a swap, a burn or a route.
    fn nth_entry(n: u64) -> (SimTime, usize, u32, AmmTx) {
        let user = (n % 100) as u32;
        let tx = match n % 3 {
            0 => population_swap(),
            1 => AmmTx::Burn(BurnTx {
                user: Address::ZERO,
                pool: PoolId(n as u32 % 7),
                position: PositionId(H256([n as u8; 32])),
                liquidity: n.is_multiple_of(2).then_some(u128::from(n)),
            }),
            _ => AmmTx::Route(RouteTx {
                user: Address::ZERO,
                hops: (0..2 + n as u32 % 3)
                    .map(|p| RouteHop {
                        pool: PoolId(p),
                        zero_for_one: p.is_multiple_of(2),
                    })
                    .collect(),
                amount_in: u128::from(n),
                min_amount_out: 0,
                deadline_round: n,
            }),
        };
        let arrival = SimTime::from_millis(n * 3);
        (arrival, 500 + n as usize % 600, user, issued_by(tx, user))
    }

    /// Three pushes to two pops, then a full drain, against a `VecDeque`
    /// oracle: long enough that several blocks fill and are released
    /// while records are still queued behind them.
    #[test]
    fn fifo_order_holds_across_block_release() {
        let mut backlog = Backlog::new();
        let mut oracle = VecDeque::new();
        let (mut releases, mut pushed, mut most) = (0, 0, 0);
        for step in 0..400_000u64 {
            if step % 5 < 3 && step < 250_000 {
                let (arrival, size, user, tx) = nth_entry(pushed);
                backlog.push(arrival, size, user, &tx);
                oracle.push_back((arrival, tx, size));
                pushed += 1;
            } else {
                let blocks = backlog.blocks.len();
                assert_eq!(backlog.pop(address), oracle.pop_front());
                if backlog.blocks.len() < blocks && !backlog.is_empty() {
                    releases += 1;
                }
            }
            assert_eq!(backlog.len(), oracle.len());
            assert!(backlog.held_bytes() < backlog.packed_bytes() + BLOCK);
            most = most.max(oracle.len());
        }
        assert!(oracle.is_empty() && backlog.is_empty());
        assert_eq!(
            backlog.blocks.len(),
            1,
            "an emptied backlog keeps one block"
        );
        assert_eq!(backlog.held_bytes(), 0);
        assert!(releases >= 2, "{releases} releases");
        assert_eq!(backlog.peak(), most);
    }

    /// A 32-byte value whose top bit is set.
    fn wide() -> impl Strategy<Value = [u8; 32]> {
        any::<[u8; 32]>().prop_map(|mut raw| {
            raw[0] |= 0x80;
            raw
        })
    }

    /// An amount that packs to the widest varint (19 bytes).
    fn widest_amount() -> impl Strategy<Value = u128> {
        any::<u128>().prop_map(|a| a | 1 << 127)
    }

    /// A pool id that packs to the widest varint, also as a route hop.
    fn widest_pool() -> impl Strategy<Value = PoolId> {
        any::<u32>().prop_map(|p| PoolId(p | 1 << 31))
    }

    /// The largest records each kind with an optional 32-byte field packs
    /// to: a swap with a price limit, a mint with a position id and a
    /// route of [`MAX_ROUTE_HOPS`] hops, every varint at its widest.
    fn widest_tx() -> impl Strategy<Value = AmmTx> {
        let amounts = (widest_amount(), widest_amount());
        let swap = (widest_pool(), any::<bool>(), wide(), amounts, any::<u64>()).prop_map(
            |(pool, dir, limit, (a, b), deadline)| {
                AmmTx::Swap(SwapTx {
                    user: Address::ZERO,
                    pool,
                    zero_for_one: dir,
                    intent: SwapIntent::ExactOutput {
                        amount_out: a,
                        max_amount_in: b,
                    },
                    sqrt_price_limit: Some(U256::from_be_bytes(limit)),
                    deadline_round: deadline | 1 << 63,
                })
            },
        );
        let ticks = any::<bool>().prop_map(|low| if low { i32::MIN } else { i32::MAX });
        let amounts = (widest_amount(), widest_amount());
        let mint =
            (widest_pool(), wide(), ticks, amounts).prop_map(|(pool, position, tick, (a0, a1))| {
                AmmTx::Mint(MintTx {
                    user: Address::ZERO,
                    pool,
                    position: Some(PositionId(H256(position))),
                    tick_lower: tick,
                    tick_upper: tick,
                    amount0_desired: a0,
                    amount1_desired: a1,
                    nonce: u64::MAX,
                })
            });
        let hop = (widest_pool(), any::<bool>())
            .prop_map(|(pool, zero_for_one)| RouteHop { pool, zero_for_one });
        let hops = proptest::collection::vec(hop, MAX_ROUTE_HOPS..MAX_ROUTE_HOPS + 1);
        let route = (hops, widest_amount(), widest_amount()).prop_map(|(hops, a, b)| {
            AmmTx::Route(RouteTx {
                user: Address::ZERO,
                hops,
                amount_in: a,
                min_amount_out: b,
                deadline_round: u64::MAX,
            })
        });
        prop_oneof![swap, mint, route]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Widest records, pushed past three block edges behind `pad`
        /// population swaps that shift where each edge falls, popped one
        /// for every two pushed and then drained: no record is longer
        /// than its bound, a block is opened only when the last one has
        /// less room than that bound and never grows past [`BLOCK`], and
        /// what pops is, in order, exactly what was pushed, before and
        /// after its block is freed.
        #[test]
        fn widest_records_round_trip_across_every_block_edge(
            pad in 0u64..400,
            widest in proptest::collection::vec(widest_tx(), 1..8),
        ) {
            let mut backlog = Backlog::new();
            let mut oracle = VecDeque::new();
            let fill = (0..pad).map(|n| (SimTime::from_millis(n), 1_008, 99, population_swap()));
            let edge = widest.iter().enumerate().map(|(i, tx)| {
                let user = u32::MAX - i as u32;
                (SimTime::from_millis(u64::MAX - i as u64), usize::MAX, user, issued_by(tx.clone(), user))
            });
            let (mut edges, mut releases) = (0, 0);
            let mut entries = fill.chain(edge.cycle()).enumerate();
            while edges < 3 {
                let (i, (arrival, size, user, tx)) = entries.next().expect("endless");
                let blocks = backlog.blocks.len();
                let room = backlog.blocks.back().map_or(0, |tail| BLOCK - tail.len());
                let (packed, most) = (backlog.packed_bytes(), max_record_len(&tx));
                backlog.push(arrival, size, user, &tx);
                let written = backlog.packed_bytes() - packed;
                prop_assert!(written <= most, "{written} B record, {most} B bound");
                let tail = backlog.blocks.back().expect("just pushed");
                prop_assert!(tail.len() <= BLOCK && tail.capacity() == BLOCK);
                if backlog.blocks.len() > blocks && blocks > 0 {
                    prop_assert!(room < most, "a {most} B bound opened a block with {room} B left");
                    edges += 1;
                }
                oracle.push_back((arrival, tx, size));
                if i % 2 == 1 {
                    let blocks = backlog.blocks.len();
                    prop_assert_eq!(backlog.pop(address), oracle.pop_front());
                    releases += usize::from(backlog.blocks.len() < blocks);
                }
                prop_assert!(backlog.held_bytes() < backlog.packed_bytes() + BLOCK);
            }
            while let Some(want) = oracle.pop_front() {
                prop_assert_eq!(backlog.pop(address), Some(want));
            }
            prop_assert!(releases >= 1, "no block was released while records followed it");
            prop_assert!(backlog.is_empty() && backlog.blocks.len() == 1);
            prop_assert_eq!((backlog.packed_bytes(), backlog.held_bytes()), (0, 0));
        }
    }
}
