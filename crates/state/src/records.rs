//! [`Encode`]/[`Decode`] implementations for every snapshot record type:
//! the crypto value types, the AMM pool state, the transaction vocabulary
//! (delegating to the sidechain wire format of `AmmTx::encode_into` so a
//! decoded transaction re-hashes to the same `tx_id`), and the sidechain
//! blocks and ledger.

use crate::codec::{ensure_sorted_keys, ByteReader, ByteWriter, CodecError, Decode, Encode};
use ammboost_amm::engines::{CpState, EngineKind, EngineState, SharePosition, WeightedState};
use ammboost_amm::pool::{PoolState, Position, TickInfo};
use ammboost_amm::positions::{PositionRecords, RecordsError, POSITION_RECORD_BYTES};
use ammboost_amm::tx::{
    AmmTx, BurnTx, CollectTx, MintTx, RouteHop, RouteTx, SwapIntent, SwapTx, MAX_ROUTE_HOPS,
};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::{Address, H256, U256};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, RouteLeg, SummaryBlock, TxEffect};
use ammboost_sidechain::ledger::{Ledger, LedgerState};
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate, PositionEntry};

// ---- crypto value types ----------------------------------------------------

impl Encode for H256 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.0);
    }
}

impl Decode for H256 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(r.take(32)?);
        Ok(H256(out))
    }
}

impl Encode for Address {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.0);
    }
}

impl Decode for Address {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = [0u8; 20];
        out.copy_from_slice(r.take(20)?);
        Ok(Address(out))
    }
}

impl Encode for U256 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&self.to_be_bytes());
    }
}

impl Decode for U256 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(r.take(32)?);
        Ok(U256::from_be_bytes(out))
    }
}

impl Encode for PoolId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
}

impl Decode for PoolId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PoolId(r.take_u32()?))
    }
}

impl Encode for PositionId {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
    }
}

impl Decode for PositionId {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PositionId(H256::decode(r)?))
    }
}

// ---- AMM pool state --------------------------------------------------------

impl Encode for TickInfo {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u128(self.liquidity_gross);
        w.put_i128(self.liquidity_net);
        self.fee_growth_outside0.encode(w);
        self.fee_growth_outside1.encode(w);
    }
}

impl Decode for TickInfo {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(TickInfo {
            liquidity_gross: r.take_u128()?,
            liquidity_net: r.take_i128()?,
            fee_growth_outside0: r.get()?,
            fee_growth_outside1: r.get()?,
        })
    }
}

impl Encode for Position {
    fn encode(&self, w: &mut ByteWriter) {
        self.owner.encode(w);
        w.put_i32(self.tick_lower);
        w.put_i32(self.tick_upper);
        w.put_u128(self.liquidity);
        self.fee_growth_inside0_last.encode(w);
        self.fee_growth_inside1_last.encode(w);
        w.put_u128(self.tokens_owed0);
        w.put_u128(self.tokens_owed1);
    }
}

impl Decode for Position {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Position {
            owner: r.get()?,
            tick_lower: r.take_i32()?,
            tick_upper: r.take_i32()?,
            liquidity: r.take_u128()?,
            fee_growth_inside0_last: r.get()?,
            fee_growth_inside1_last: r.get()?,
            tokens_owed0: r.take_u128()?,
            tokens_owed1: r.take_u128()?,
        })
    }
}

/// Decodes the position section of a [`PoolState`]: a `u32` count prefix
/// followed by `count` raw [`POSITION_RECORD_BYTES`]-sized records. The
/// bytes are adopted zero-parse — only the stride and the strict id
/// ordering are checked; field payloads stay raw until the pool touches
/// them.
fn decode_position_records(r: &mut ByteReader<'_>) -> Result<PositionRecords, CodecError> {
    let count = r.take_len()?;
    let byte_len = count
        .checked_mul(POSITION_RECORD_BYTES)
        .ok_or(CodecError::LengthOverflow {
            declared: count,
            remaining: r.remaining(),
        })?;
    let raw = r.take(byte_len)?;
    PositionRecords::from_sorted_raw(raw).map_err(|e| match e {
        // stride is impossible here (we took an exact multiple); map it
        // to the same taxonomy as any other malformed length
        RecordsError::Stride { len } => CodecError::LengthOverflow {
            declared: len,
            remaining: 0,
        },
        RecordsError::Unsorted { .. } => CodecError::UnsortedKeys,
    })
}

impl Encode for PoolState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.fee_pips);
        w.put_i32(self.tick_spacing);
        self.sqrt_price.encode(w);
        w.put_i32(self.tick);
        w.put_u128(self.liquidity);
        self.fee_growth_global0.encode(w);
        self.fee_growth_global1.encode(w);
        w.put_u128(self.balance0);
        w.put_u128(self.balance1);
        self.ticks.encode(w);
        // positions are kept in wire form: count prefix + raw records.
        // Byte-identical to encoding each (id, Position) pair in order.
        w.put_len(self.positions.len());
        w.put_bytes(self.positions.raw());
    }
}

impl Decode for PoolState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let state = PoolState {
            fee_pips: r.take_u32()?,
            tick_spacing: r.take_i32()?,
            sqrt_price: r.get()?,
            tick: r.take_i32()?,
            liquidity: r.take_u128()?,
            fee_growth_global0: r.get()?,
            fee_growth_global1: r.get()?,
            balance0: r.take_u128()?,
            balance1: r.take_u128()?,
            ticks: r.get()?,
            positions: decode_position_records(r)?,
        };
        ensure_sorted_keys(&state.ticks)?;
        Ok(state)
    }
}

// ---- multi-engine fleet ----------------------------------------------------

impl Encode for SharePosition {
    fn encode(&self, w: &mut ByteWriter) {
        self.owner.encode(w);
        w.put_u128(self.shares);
        w.put_u128(self.owed0);
        w.put_u128(self.owed1);
    }
}

impl Decode for SharePosition {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SharePosition {
            owner: r.get()?,
            shares: r.take_u128()?,
            owed0: r.take_u128()?,
            owed1: r.take_u128()?,
        })
    }
}

impl Encode for CpState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.fee_pips);
        w.put_u128(self.reserve0);
        w.put_u128(self.reserve1);
        self.positions.encode(w);
    }
}

impl Decode for CpState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let state = CpState {
            fee_pips: r.take_u32()?,
            reserve0: r.take_u128()?,
            reserve1: r.take_u128()?,
            positions: r.get()?,
        };
        ensure_sorted_keys(&state.positions)?;
        Ok(state)
    }
}

impl Encode for WeightedState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.fee_pips);
        w.put_u128(self.weight0);
        w.put_u128(self.weight1);
        w.put_u128(self.reserve0);
        w.put_u128(self.reserve1);
        self.positions.encode(w);
    }
}

impl Decode for WeightedState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let state = WeightedState {
            fee_pips: r.take_u32()?,
            weight0: r.take_u128()?,
            weight1: r.take_u128()?,
            reserve0: r.take_u128()?,
            reserve1: r.take_u128()?,
            positions: r.get()?,
        };
        ensure_sorted_keys(&state.positions)?;
        Ok(state)
    }
}

/// Engine state is tagged with the stable [`EngineKind::tag`] byte, so a
/// pool section is self-describing: decoders dispatch on the leading
/// tag without out-of-band metadata.
impl Encode for EngineState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.kind().tag());
        match self {
            EngineState::Cl(s) => s.encode(w),
            EngineState::Cp(s) => s.encode(w),
            EngineState::Weighted(s) => s.encode(w),
        }
    }
}

impl Decode for EngineState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let tag = r.take_u8()?;
        match EngineKind::from_tag(tag) {
            Some(EngineKind::ConcentratedLiquidity) => Ok(EngineState::Cl(r.get()?)),
            Some(EngineKind::ConstantProduct) => Ok(EngineState::Cp(r.get()?)),
            Some(EngineKind::Weighted) => Ok(EngineState::Weighted(r.get()?)),
            None => Err(CodecError::InvalidTag {
                what: "EngineState",
                tag,
            }),
        }
    }
}

// ---- transactions (sidechain wire format) ----------------------------------

/// `AmmTx` reuses the sidechain wire format (`AmmTx::encode_into`), so a
/// decoded transaction re-encodes — and therefore re-hashes to a
/// `tx_id` — byte-identically.
impl Encode for AmmTx {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_with(|buf| self.encode_into(buf));
    }
}

impl Decode for AmmTx {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let kind = r.take_u8()?;
        let user: Address = r.get()?;
        // routes carry a hop list where the other kinds carry one pool id
        if kind == 4 {
            let hop_count = r.take_u8()? as usize;
            if hop_count > MAX_ROUTE_HOPS {
                return Err(CodecError::InvalidTag {
                    what: "RouteTx hop count",
                    tag: hop_count as u8,
                });
            }
            let mut hops = Vec::with_capacity(hop_count);
            for _ in 0..hop_count {
                hops.push(RouteHop {
                    pool: r.get()?,
                    zero_for_one: r.take_bool()?,
                });
            }
            return Ok(AmmTx::Route(RouteTx {
                user,
                hops,
                amount_in: r.take_u128()?,
                min_amount_out: r.take_u128()?,
                deadline_round: r.take_u64()?,
            }));
        }
        let pool: PoolId = r.get()?;
        match kind {
            0 => {
                let zero_for_one = r.take_bool()?;
                let intent = match r.take_u8()? {
                    0 => SwapIntent::ExactInput {
                        amount_in: r.take_u128()?,
                        min_amount_out: r.take_u128()?,
                    },
                    1 => SwapIntent::ExactOutput {
                        amount_out: r.take_u128()?,
                        max_amount_in: r.take_u128()?,
                    },
                    tag => {
                        return Err(CodecError::InvalidTag {
                            what: "SwapIntent",
                            tag,
                        })
                    }
                };
                let sqrt_price_limit: Option<U256> = r.get()?;
                let deadline_round = r.take_u64()?;
                Ok(AmmTx::Swap(SwapTx {
                    user,
                    pool,
                    zero_for_one,
                    intent,
                    sqrt_price_limit,
                    deadline_round,
                }))
            }
            1 => Ok(AmmTx::Mint(MintTx {
                user,
                pool,
                position: r.get()?,
                tick_lower: r.take_i32()?,
                tick_upper: r.take_i32()?,
                amount0_desired: r.take_u128()?,
                amount1_desired: r.take_u128()?,
                nonce: r.take_u64()?,
            })),
            2 => Ok(AmmTx::Burn(BurnTx {
                user,
                pool,
                position: r.get()?,
                liquidity: r.get()?,
            })),
            3 => Ok(AmmTx::Collect(CollectTx {
                user,
                pool,
                position: r.get()?,
                amount0: r.take_u128()?,
                amount1: r.take_u128()?,
            })),
            tag => Err(CodecError::InvalidTag { what: "AmmTx", tag }),
        }
    }
}

impl Encode for TxEffect {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            TxEffect::Swap {
                amount_in,
                amount_out,
                zero_for_one,
            } => {
                w.put_u8(0);
                w.put_u128(*amount_in);
                w.put_u128(*amount_out);
                w.put_bool(*zero_for_one);
            }
            TxEffect::Mint {
                position,
                liquidity,
                amount0,
                amount1,
                created,
            } => {
                w.put_u8(1);
                position.encode(w);
                w.put_u128(*liquidity);
                w.put_u128(*amount0);
                w.put_u128(*amount1);
                w.put_bool(*created);
            }
            TxEffect::Burn {
                position,
                liquidity,
                amount0,
                amount1,
                deleted,
            } => {
                w.put_u8(2);
                position.encode(w);
                w.put_u128(*liquidity);
                w.put_u128(*amount0);
                w.put_u128(*amount1);
                w.put_bool(*deleted);
            }
            TxEffect::Collect {
                position,
                amount0,
                amount1,
            } => {
                w.put_u8(3);
                position.encode(w);
                w.put_u128(*amount0);
                w.put_u128(*amount1);
            }
            TxEffect::Rejected { reason } => {
                w.put_u8(4);
                reason.encode(w);
            }
            TxEffect::Route {
                legs,
                amount_in,
                amount_out,
                completed,
            } => {
                w.put_u8(5);
                legs.encode(w);
                w.put_u128(*amount_in);
                w.put_u128(*amount_out);
                w.put_bool(*completed);
            }
        }
    }
}

impl Encode for RouteLeg {
    fn encode(&self, w: &mut ByteWriter) {
        self.pool.encode(w);
        w.put_bool(self.zero_for_one);
        w.put_u128(self.amount_in);
        w.put_u128(self.amount_out);
    }
}

impl Decode for RouteLeg {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(RouteLeg {
            pool: r.get()?,
            zero_for_one: r.take_bool()?,
            amount_in: r.take_u128()?,
            amount_out: r.take_u128()?,
        })
    }
}

impl Decode for TxEffect {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(TxEffect::Swap {
                amount_in: r.take_u128()?,
                amount_out: r.take_u128()?,
                zero_for_one: r.take_bool()?,
            }),
            1 => Ok(TxEffect::Mint {
                position: r.get()?,
                liquidity: r.take_u128()?,
                amount0: r.take_u128()?,
                amount1: r.take_u128()?,
                created: r.take_bool()?,
            }),
            2 => Ok(TxEffect::Burn {
                position: r.get()?,
                liquidity: r.take_u128()?,
                amount0: r.take_u128()?,
                amount1: r.take_u128()?,
                deleted: r.take_bool()?,
            }),
            3 => Ok(TxEffect::Collect {
                position: r.get()?,
                amount0: r.take_u128()?,
                amount1: r.take_u128()?,
            }),
            4 => Ok(TxEffect::Rejected { reason: r.get()? }),
            5 => Ok(TxEffect::Route {
                legs: r.get()?,
                amount_in: r.take_u128()?,
                amount_out: r.take_u128()?,
                completed: r.take_bool()?,
            }),
            tag => Err(CodecError::InvalidTag {
                what: "TxEffect",
                tag,
            }),
        }
    }
}

impl Encode for ExecutedTx {
    fn encode(&self, w: &mut ByteWriter) {
        self.tx.encode(w);
        w.put_u64(self.wire_size as u64);
        self.effect.encode(w);
    }
}

impl Decode for ExecutedTx {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ExecutedTx {
            tx: r.get()?,
            wire_size: r.take_u64()? as usize,
            effect: r.get()?,
        })
    }
}

// ---- sidechain blocks, summary entries, ledger -----------------------------

impl Encode for MetaBlock {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.epoch);
        w.put_u64(self.round);
        self.parent.encode(w);
        self.txs.encode(w);
        self.tx_root.encode(w);
    }
}

impl Decode for MetaBlock {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(MetaBlock {
            epoch: r.take_u64()?,
            round: r.take_u64()?,
            parent: r.get()?,
            txs: r.get()?,
            tx_root: r.get()?,
        })
    }
}

impl Encode for PayoutEntry {
    fn encode(&self, w: &mut ByteWriter) {
        self.user.encode(w);
        w.put_u128(self.amount0);
        w.put_u128(self.amount1);
    }
}

impl Decode for PayoutEntry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PayoutEntry {
            user: r.get()?,
            amount0: r.take_u128()?,
            amount1: r.take_u128()?,
        })
    }
}

impl Encode for PositionEntry {
    fn encode(&self, w: &mut ByteWriter) {
        self.id.encode(w);
        self.owner.encode(w);
        w.put_u128(self.liquidity);
        w.put_u128(self.amount0);
        w.put_u128(self.amount1);
        w.put_u128(self.fees0);
        w.put_u128(self.fees1);
        w.put_u128(self.fee_growth_inside0);
        w.put_u128(self.fee_growth_inside1);
        w.put_i32(self.tick_lower);
        w.put_i32(self.tick_upper);
        w.put_bool(self.deleted);
    }
}

impl Decode for PositionEntry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PositionEntry {
            id: r.get()?,
            owner: r.get()?,
            liquidity: r.take_u128()?,
            amount0: r.take_u128()?,
            amount1: r.take_u128()?,
            fees0: r.take_u128()?,
            fees1: r.take_u128()?,
            fee_growth_inside0: r.take_u128()?,
            fee_growth_inside1: r.take_u128()?,
            tick_lower: r.take_i32()?,
            tick_upper: r.take_i32()?,
            deleted: r.take_bool()?,
        })
    }
}

impl Encode for PoolUpdate {
    fn encode(&self, w: &mut ByteWriter) {
        self.pool.encode(w);
        w.put_u128(self.reserve0);
        w.put_u128(self.reserve1);
    }
}

impl Decode for PoolUpdate {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PoolUpdate {
            pool: r.get()?,
            reserve0: r.take_u128()?,
            reserve1: r.take_u128()?,
        })
    }
}

impl Encode for SummaryBlock {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.epoch);
        self.parent.encode(w);
        self.meta_refs.encode(w);
        self.payouts.encode(w);
        self.positions.encode(w);
        self.pools.encode(w);
    }
}

impl Decode for SummaryBlock {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(SummaryBlock {
            epoch: r.take_u64()?,
            parent: r.get()?,
            meta_refs: r.get()?,
            payouts: r.get()?,
            positions: r.get()?,
            pools: r.get()?,
        })
    }
}

/// The v6 ledger section: the summaries, then the open epoch's
/// meta-blocks as one flat list, then the genesis reference (present only
/// while the ledger holds no block) and the byte counters. The summaries
/// come first, so sealing an epoch appends to them and leaves every
/// earlier byte in place.
impl Encode for LedgerState {
    fn encode(&self, w: &mut ByteWriter) {
        self.summaries.encode(w);
        w.put_len(self.meta.iter().map(|(_, blocks)| blocks.len()).sum());
        for block in self.meta.iter().flat_map(|(_, blocks)| blocks) {
            block.encode(w);
        }
        self.genesis.encode(w);
        w.put_u64(self.current_bytes);
        w.put_u64(self.pruned_bytes_total);
    }
}

/// The ledger as retention leaves it ([`Ledger::retained_state`]), read
/// straight off the ledger: the bytes of its [`LedgerState`] once every
/// summarised epoch is pruned, whatever margin of those epochs this node
/// keeps.
impl Encode for Ledger {
    fn encode(&self, w: &mut ByteWriter) {
        let bytes = self.retained_bytes();
        self.summaries().encode(w);
        self.retained_meta().encode(w);
        self.genesis().encode(w);
        w.put_u64(bytes.current);
        w.put_u64(bytes.pruned_total);
    }
}

/// Reads the v6 ledger section, grouping the flat meta-block list by each
/// block's epoch. Whether those blocks are the open epoch's is
/// [`Ledger::from_state`]'s check.
impl Decode for LedgerState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let summaries = r.get()?;
        let mut meta: Vec<(u64, Vec<MetaBlock>)> = Vec::new();
        for block in Vec::<MetaBlock>::decode(r)? {
            match meta.last_mut() {
                Some((epoch, blocks)) if *epoch == block.epoch => blocks.push(block),
                _ => meta.push((block.epoch, vec![block])),
            }
        }
        Ok(LedgerState {
            meta,
            summaries,
            genesis: r.get()?,
            current_bytes: r.take_u64()?,
            pruned_bytes_total: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amm_tx_decode_inverts_wire_format() {
        let tx = AmmTx::Swap(SwapTx {
            user: Address::from_index(3),
            pool: PoolId(0),
            zero_for_one: false,
            intent: SwapIntent::ExactOutput {
                amount_out: u128::MAX,
                max_amount_in: 12345,
            },
            sqrt_price_limit: Some(U256::pow2(97)),
            deadline_round: 99,
        });
        let bytes = tx.encode_to_vec();
        // identical to the sidechain wire format
        let mut wire = Vec::new();
        tx.encode_into(&mut wire);
        assert_eq!(bytes, wire);
        let back = AmmTx::decode_all(&bytes).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.tx_id(), tx.tx_id(), "tx id survives the roundtrip");
    }

    #[test]
    fn route_tx_and_effect_roundtrip() {
        let tx = AmmTx::Route(RouteTx {
            user: Address::from_index(8),
            hops: vec![
                RouteHop {
                    pool: PoolId(3),
                    zero_for_one: true,
                },
                RouteHop {
                    pool: PoolId(1),
                    zero_for_one: false,
                },
                RouteHop {
                    pool: PoolId(7),
                    zero_for_one: true,
                },
            ],
            amount_in: 123_456,
            min_amount_out: 100_000,
            deadline_round: 42,
        });
        let bytes = tx.encode_to_vec();
        let mut wire = Vec::new();
        tx.encode_into(&mut wire);
        assert_eq!(bytes, wire, "codec must match the sidechain wire form");
        let back = AmmTx::decode_all(&bytes).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.tx_id(), tx.tx_id());

        let effect = TxEffect::Route {
            legs: vec![
                RouteLeg {
                    pool: PoolId(3),
                    zero_for_one: true,
                    amount_in: 123_456,
                    amount_out: 120_000,
                },
                RouteLeg {
                    pool: PoolId(1),
                    zero_for_one: false,
                    amount_in: 120_000,
                    amount_out: 118_000,
                },
            ],
            amount_in: 123_456,
            amount_out: 118_000,
            completed: false,
        };
        let back = TxEffect::decode_all(&effect.encode_to_vec()).unwrap();
        assert_eq!(back, effect);
    }

    #[test]
    fn oversized_route_hop_count_rejected() {
        // tag 4, user, then an absurd hop count must fail closed
        let mut bytes = vec![4u8];
        bytes.extend_from_slice(Address::from_index(1).as_bytes());
        bytes.push(200);
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(AmmTx::decode_all(&bytes).is_err());
    }

    #[test]
    fn unsorted_pool_state_rejected() {
        let mut pool = ammboost_amm::pool::Pool::new_standard();
        pool.mint(
            PositionId::derive(&[b"r"]),
            Address::from_index(1),
            -600,
            600,
            1_000_000,
            1_000_000,
        )
        .unwrap();
        let mut state = pool.export_state();
        state.ticks.reverse();
        let bytes = state.encode_to_vec();
        assert_eq!(PoolState::decode_all(&bytes), Err(CodecError::UnsortedKeys));
    }

    #[test]
    fn ledger_encodes_by_reference_to_its_exported_bytes() {
        let user = Address::from_index(5);
        let pool = PoolId(2);
        let position = PositionId::derive(&[b"burned"]);
        let route = ExecutedTx {
            tx: AmmTx::Route(RouteTx {
                user,
                hops: vec![
                    RouteHop {
                        pool,
                        zero_for_one: true,
                    },
                    RouteHop {
                        pool: PoolId(4),
                        zero_for_one: false,
                    },
                ],
                amount_in: 10_000,
                min_amount_out: 9_000,
                deadline_round: 40,
            }),
            wire_size: 412,
            effect: TxEffect::Route {
                legs: vec![RouteLeg {
                    pool,
                    zero_for_one: true,
                    amount_in: 10_000,
                    amount_out: 9_950,
                }],
                amount_in: 10_000,
                amount_out: 9_950,
                completed: false,
            },
        };
        let rejected = ExecutedTx {
            tx: AmmTx::Swap(SwapTx {
                user,
                pool,
                zero_for_one: false,
                intent: SwapIntent::ExactInput {
                    amount_in: u128::MAX,
                    min_amount_out: 0,
                },
                sqrt_price_limit: None,
                deadline_round: 3,
            }),
            wire_size: 1008,
            effect: TxEffect::Rejected {
                reason: "insufficient deposit".into(),
            },
        };
        let burn = ExecutedTx {
            tx: AmmTx::Burn(BurnTx {
                user,
                pool,
                position,
                liquidity: None,
            }),
            wire_size: 240,
            effect: TxEffect::Burn {
                position,
                liquidity: 77,
                amount0: 5,
                amount1: 6,
                deleted: true,
            },
        };
        // epochs 1 and 2 sealed and still held (an audit margin), epoch 3
        // open with two blocks
        let mut ledger = Ledger::new(H256::hash(b"genesis"));
        let seal = |ledger: &mut Ledger| {
            let epoch = ledger.tip_epoch();
            let summary = SummaryBlock {
                epoch,
                parent: ledger.tip(),
                meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
                payouts: vec![PayoutEntry {
                    user,
                    amount0: 1,
                    amount1: 2,
                }],
                positions: Vec::new(),
                pools: vec![PoolUpdate {
                    pool,
                    reserve0: 3,
                    reserve1: 4,
                }],
            };
            ledger.append_summary(summary).unwrap();
        };
        let blocks = [
            (1, 0, vec![route.clone()]),
            (2, 0, vec![route, rejected]),
            (2, 1, vec![burn.clone()]),
            (3, 0, Vec::new()),
            (3, 1, vec![burn]),
        ];
        for (epoch, round, txs) in blocks {
            if epoch > ledger.tip_epoch() {
                seal(&mut ledger);
            }
            let block = MetaBlock::new(epoch, round, ledger.tip(), txs);
            ledger.append_meta(block).unwrap();
        }
        assert_eq!(ledger.meta_epochs(), vec![1, 2, 3]);

        // the bytes are those of the export once retention has pruned
        let mut pruned = ledger.clone();
        assert_eq!(pruned.prune_covered(u64::MAX).0, 2);
        assert_eq!(pruned.meta_epochs(), vec![3]);
        let bytes = ledger.encode_to_vec();
        assert_eq!(bytes, pruned.export_state().encode_to_vec());
        assert_eq!(bytes, ledger.retained_state().encode_to_vec());
        // and restore to that ledger
        let state = LedgerState::decode_all(&bytes).unwrap();
        assert_eq!(state, pruned.export_state());
        let restored = Ledger::from_state(state).unwrap();
        assert_eq!(restored.export_state(), pruned.export_state());
        assert_eq!(restored.encode_to_vec(), bytes);
    }
}
