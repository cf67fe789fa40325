//! The baseline: a Uniswap-V3-style deployment entirely on the mainchain,
//! mirroring the paper's Sepolia baseline (SwapRouter + NonfungiblePosition
//! Manager interface contract over the core pool).
//!
//! Each operation executes the real AMM engine (`ammboost-amm`), moves real
//! ERC20 balances, and charges a gas composition that follows the
//! contracts' storage-access pattern (slots touched × EIP-2929 prices,
//! plus a documented execution-overhead constant per operation covering
//! the arithmetic/memory opcodes a storage-level model does not
//! enumerate). The constants are calibrated so per-op totals land at the
//! paper's Table III means:
//! swap ≈ 160,601 · mint ≈ 435,610 · burn ≈ 158,473 · collect ≈ 163,743.

use crate::contracts::erc20::{Erc20, Erc20Error};
use crate::gas::{self, GasMeter};
use ammboost_amm::pool::{Pool, SwapKind, SwapResult};
use ammboost_amm::tx::{BurnTx, CollectTx, MintTx, SwapIntent, SwapTx};
use ammboost_amm::types::{Amount, AmountPair, PositionId};
use ammboost_amm::AmmError;
use ammboost_crypto::Address;

/// Execution-overhead constants (arithmetic, memory, bitmap searches,
/// oracle updates) per operation — see module docs.
const SWAP_EXEC_OVERHEAD: u64 = 80_000;
const MINT_EXEC_OVERHEAD: u64 = 10_000;
const BURN_EXEC_OVERHEAD: u64 = 65_000;
const COLLECT_EXEC_OVERHEAD: u64 = 95_000;

/// Errors from baseline operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The AMM engine rejected the operation.
    Amm(AmmError),
    /// Token transfer failed (missing approval or balance).
    Token(Erc20Error),
    /// Output below the trader's `min_amount_out`.
    SlippageExceededOutput {
        /// Output produced.
        got: Amount,
        /// Floor requested.
        min: Amount,
    },
    /// Input above the trader's `max_amount_in`.
    SlippageExceededInput {
        /// Input required.
        got: Amount,
        /// Ceiling requested.
        max: Amount,
    },
    /// Position NFT not owned by the caller.
    NotNftOwner,
    /// Multi-hop routed swaps cross pools; the single-pool mainchain
    /// baseline cannot express them (routed traffic is exactly the
    /// workload that needs the sidechain's epoch-level netting).
    UnsupportedRoute,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Amm(e) => write!(f, "amm: {e}"),
            BaselineError::Token(e) => write!(f, "token: {e}"),
            BaselineError::SlippageExceededOutput { got, min } => {
                write!(f, "output {got} below minimum {min}")
            }
            BaselineError::SlippageExceededInput { got, max } => {
                write!(f, "input {got} above maximum {max}")
            }
            BaselineError::NotNftOwner => write!(f, "caller does not own the position NFT"),
            BaselineError::UnsupportedRoute => {
                write!(f, "single-pool baseline cannot execute multi-hop routes")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<AmmError> for BaselineError {
    fn from(e: AmmError) -> Self {
        BaselineError::Amm(e)
    }
}

impl From<Erc20Error> for BaselineError {
    fn from(e: Erc20Error) -> Self {
        BaselineError::Token(e)
    }
}

/// Receipt of a baseline operation: itemized gas, Sepolia-calibrated tx
/// size, and the number of prerequisite approval transactions the user
/// must confirm in earlier blocks (which drives mainchain latency,
/// Table III).
#[derive(Clone, Debug)]
pub struct OpReceipt {
    /// Itemized gas meter; `meter.total()` is the charged gas.
    pub meter: GasMeter,
    /// Transaction size in bytes (Sepolia router encoding).
    pub size_bytes: usize,
    /// ERC20 approvals that must be confirmed first (swap: 1, mint: 2).
    pub prereq_approvals: u32,
}

/// The deployed baseline: router + NFPM over one pool.
#[derive(Clone, Debug)]
pub struct UniswapBaseline {
    /// The contract address holding pooled tokens.
    pub address: Address,
    pool: Pool,
    nft_counter: u64,
}

impl Default for UniswapBaseline {
    fn default() -> Self {
        Self::new()
    }
}

impl UniswapBaseline {
    /// Deploys the baseline with the standard 0.3% pool at price 1.
    pub fn new() -> UniswapBaseline {
        UniswapBaseline {
            address: Address::from_pubkey_bytes(b"uniswap-baseline"),
            pool: Pool::new_standard(),
            nft_counter: 0,
        }
    }

    /// Read access to the pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// `SwapRouter.exactInput/exactOutput`: executes the trade, pulls the
    /// input from the user (requires a prior approval) and pays the output.
    ///
    /// # Errors
    /// Propagates AMM, token and slippage failures; pool state is only
    /// mutated on success.
    pub fn swap(
        &mut self,
        tx: &SwapTx,
        token0: &mut Erc20,
        token1: &mut Erc20,
    ) -> Result<(SwapResult, OpReceipt), BaselineError> {
        let mut meter = GasMeter::new();
        meter.charge("swap.intrinsic", gas::intrinsic_cost(365, 0.35));
        meter.charge("swap.router_call", gas::CALL_COLD);

        let kind = match tx.intent {
            SwapIntent::ExactInput { amount_in, .. } => SwapKind::ExactInput(amount_in),
            SwapIntent::ExactOutput { amount_out, .. } => SwapKind::ExactOutput(amount_out),
        };
        // run on a scratch copy so failed slippage checks revert cleanly
        let mut staged = self.pool.clone();
        let result = staged.swap(tx.zero_for_one, kind, tx.sqrt_price_limit)?;
        match tx.intent {
            SwapIntent::ExactInput { min_amount_out, .. } => {
                if result.amount_out < min_amount_out {
                    return Err(BaselineError::SlippageExceededOutput {
                        got: result.amount_out,
                        min: min_amount_out,
                    });
                }
            }
            SwapIntent::ExactOutput { max_amount_in, .. } => {
                if result.amount_in > max_amount_in {
                    return Err(BaselineError::SlippageExceededInput {
                        got: result.amount_in,
                        max: max_amount_in,
                    });
                }
            }
        }

        // token movement: input from user (transferFrom), output to user
        let (token_in, token_out): (&mut Erc20, &mut Erc20) = if tx.zero_for_one {
            (token0, token1)
        } else {
            (token1, token0)
        };
        token_in.transfer_from(
            self.address,
            tx.user,
            self.address,
            result.amount_in,
            &mut meter,
        )?;
        token_out.transfer(self.address, tx.user, result.amount_out, &mut meter)?;
        self.pool = staged;

        // pool storage writes: slot0 (price/tick), feeGrowthGlobal,
        // liquidity read, crossed ticks
        meter.charge("swap.slot0", gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD);
        meter.charge("swap.fee_growth", gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD);
        meter.charge("swap.liquidity_read", gas::SLOAD_COLD);
        if result.ticks_crossed > 0 {
            meter.charge(
                "swap.tick_crossings",
                result.ticks_crossed as u64 * (gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD),
            );
        }
        meter.charge("swap.exec", SWAP_EXEC_OVERHEAD);

        Ok((
            result,
            OpReceipt {
                meter,
                size_bytes: 365,
                prereq_approvals: 1,
            },
        ))
    }

    /// `NFPM.mint`: creates (or tops up) a position, minting an NFT for new
    /// positions; pulls both tokens from the user (two prior approvals).
    ///
    /// # Errors
    /// Propagates AMM/token failures; checks NFT ownership on top-ups.
    pub fn mint(
        &mut self,
        tx: &MintTx,
        token0: &mut Erc20,
        token1: &mut Erc20,
    ) -> Result<(PositionId, u128, AmountPair, OpReceipt), BaselineError> {
        let mut meter = GasMeter::new();
        meter.charge("mint.intrinsic", gas::intrinsic_cost(566, 0.35));
        meter.charge("mint.nfpm_call", gas::CALL_COLD);
        meter.charge("mint.pool_call", gas::CALL_COLD);

        let (id, fresh, tick_lower, tick_upper) = match tx.position {
            Some(existing) => {
                let pos = self
                    .pool
                    .position(&existing)
                    .ok_or(BaselineError::Amm(AmmError::PositionNotFound(existing)))?;
                if pos.owner != tx.user {
                    return Err(BaselineError::NotNftOwner);
                }
                // top-ups keep the existing range
                (existing, false, pos.tick_lower, pos.tick_upper)
            }
            None => {
                self.nft_counter += 1;
                (
                    PositionId::derive(&[b"baseline-nft", &self.nft_counter.to_be_bytes()]),
                    true,
                    tx.tick_lower,
                    tx.tick_upper,
                )
            }
        };

        let (liquidity, amounts) = self.pool.mint(
            id,
            tx.user,
            tick_lower,
            tick_upper,
            tx.amount0_desired,
            tx.amount1_desired,
        )?;
        if amounts.amount0 > 0 {
            token0.transfer_from(
                self.address,
                tx.user,
                self.address,
                amounts.amount0,
                &mut meter,
            )?;
        }
        if amounts.amount1 > 0 {
            token1.transfer_from(
                self.address,
                tx.user,
                self.address,
                amounts.amount1,
                &mut meter,
            )?;
        }

        // storage: NFPM position struct (6 words) + NFT bookkeeping
        // (owner, balance, counter) + pool position (4 words) + both ticks
        let word = if fresh {
            gas::SSTORE_NEW_WORD
        } else {
            gas::SSTORE_UPDATE_COLD
        };
        meter.charge("mint.nfpm_position", 6 * word);
        if fresh {
            meter.charge("mint.nft", 3 * gas::SSTORE_NEW_WORD);
        }
        meter.charge("mint.pool_position", 4 * word);
        meter.charge("mint.ticks", 2 * word);
        meter.charge("mint.exec", MINT_EXEC_OVERHEAD);

        Ok((
            id,
            liquidity,
            amounts,
            OpReceipt {
                meter,
                size_bytes: 566,
                prereq_approvals: 2,
            },
        ))
    }

    /// `NFPM.decreaseLiquidity` (+ implicit collect of the principal and
    /// NFT burn when the position is fully withdrawn — the paper's burn
    /// trace, Appendix C).
    ///
    /// # Errors
    /// Fails on unknown positions, wrong owner, or over-burn.
    pub fn burn(
        &mut self,
        tx: &BurnTx,
        token0: &mut Erc20,
        token1: &mut Erc20,
    ) -> Result<(AmountPair, OpReceipt), BaselineError> {
        let mut meter = GasMeter::new();
        meter.charge("burn.intrinsic", gas::intrinsic_cost(280, 0.35));
        meter.charge("burn.nfpm_call", gas::CALL_COLD);

        let held = self
            .pool
            .position(&tx.position)
            .ok_or(BaselineError::Amm(AmmError::PositionNotFound(tx.position)))?
            .liquidity;
        let to_burn = tx.liquidity.unwrap_or(held);
        self.pool.burn(tx.position, tx.user, to_burn)?;
        // immediately collect everything owed (principal + fees)
        let out = self
            .pool
            .collect(tx.position, tx.user, Amount::MAX, Amount::MAX)?;
        if out.amount0 > 0 {
            token0.transfer(self.address, tx.user, out.amount0, &mut meter)?;
        }
        if out.amount1 > 0 {
            token1.transfer(self.address, tx.user, out.amount1, &mut meter)?;
        }

        meter.charge("burn.pool_position", 4 * gas::SSTORE_UPDATE_COLD);
        meter.charge("burn.nfpm_position", 6 * gas::SSTORE_UPDATE_COLD);
        meter.charge("burn.ticks", 2 * gas::SSTORE_UPDATE_COLD);
        if to_burn == held {
            // NFT burned: storage cleared, refunds accrue
            meter.add_refund(3 * gas::SSTORE_CLEAR_REFUND);
        }
        meter.charge("burn.exec", BURN_EXEC_OVERHEAD);

        Ok((
            out,
            OpReceipt {
                meter,
                size_bytes: 280,
                prereq_approvals: 0,
            },
        ))
    }

    /// `NFPM.collect`: withdraws accrued fees from a position.
    ///
    /// # Errors
    /// Fails on unknown position or wrong owner.
    pub fn collect(
        &mut self,
        tx: &CollectTx,
        token0: &mut Erc20,
        token1: &mut Erc20,
    ) -> Result<(AmountPair, OpReceipt), BaselineError> {
        let mut meter = GasMeter::new();
        meter.charge("collect.intrinsic", gas::intrinsic_cost(150, 0.35));
        meter.charge("collect.nfpm_call", gas::CALL_COLD);
        meter.charge("collect.owner_check", gas::SLOAD_COLD);

        let out = self
            .pool
            .collect(tx.position, tx.user, tx.amount0, tx.amount1)?;
        if out.amount0 > 0 {
            token0.transfer(self.address, tx.user, out.amount0, &mut meter)?;
        }
        if out.amount1 > 0 {
            token1.transfer(self.address, tx.user, out.amount1, &mut meter)?;
        }
        meter.charge(
            "collect.fee_accounting",
            6 * gas::SLOAD_COLD + 4 * gas::SSTORE_UPDATE_COLD,
        );
        meter.charge("collect.fee_growth_inside", 4 * gas::SLOAD_COLD);
        meter.charge("collect.exec", COLLECT_EXEC_OVERHEAD);

        Ok((
            out,
            OpReceipt {
                meter,
                size_bytes: 150,
                prereq_approvals: 0,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::types::PoolId;

    fn a(i: u64) -> Address {
        Address::from_index(i)
    }

    struct World {
        base: UniswapBaseline,
        token0: Erc20,
        token1: Erc20,
    }

    fn setup() -> World {
        let base = UniswapBaseline::new();
        let mut token0 = Erc20::new("TKA");
        let mut token1 = Erc20::new("TKB");
        for i in 1..=4 {
            token0.mint(a(i), 10_000_000_000);
            token1.mint(a(i), 10_000_000_000);
        }
        World {
            base,
            token0,
            token1,
        }
    }

    fn approve_all(w: &mut World, user: Address) {
        let mut m = GasMeter::new();
        w.token0
            .approve(user, w.base.address, u128::MAX / 2, &mut m);
        w.token1
            .approve(user, w.base.address, u128::MAX / 2, &mut m);
    }

    fn mint_base_liquidity(w: &mut World) -> PositionId {
        approve_all(w, a(1));
        let (id, _, _, _) = w
            .base
            .mint(
                &MintTx {
                    user: a(1),
                    pool: PoolId(0),
                    position: None,
                    tick_lower: -6000,
                    tick_upper: 6000,
                    amount0_desired: 1_000_000_000,
                    amount1_desired: 1_000_000_000,
                    nonce: 0,
                },
                &mut w.token0,
                &mut w.token1,
            )
            .unwrap();
        id
    }

    fn swap_tx(user: Address, amount: Amount) -> SwapTx {
        SwapTx {
            user,
            pool: PoolId(0),
            zero_for_one: true,
            intent: SwapIntent::ExactInput {
                amount_in: amount,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: u64::MAX,
        }
    }

    #[test]
    fn mint_gas_in_table_iii_ballpark() {
        let mut w = setup();
        approve_all(&mut w, a(1));
        let (_, _, _, receipt) = w
            .base
            .mint(
                &MintTx {
                    user: a(1),
                    pool: PoolId(0),
                    position: None,
                    tick_lower: -600,
                    tick_upper: 600,
                    amount0_desired: 1_000_000,
                    amount1_desired: 1_000_000,
                    nonce: 0,
                },
                &mut w.token0,
                &mut w.token1,
            )
            .unwrap();
        let gas = receipt.meter.total();
        // paper: 435,609.86
        assert!(
            (370_000..500_000).contains(&gas),
            "mint gas {gas} out of ballpark"
        );
        assert_eq!(receipt.prereq_approvals, 2);
    }

    #[test]
    fn swap_gas_in_table_iii_ballpark() {
        let mut w = setup();
        mint_base_liquidity(&mut w);
        approve_all(&mut w, a(2));
        let (res, receipt) = w
            .base
            .swap(&swap_tx(a(2), 1_000_000), &mut w.token0, &mut w.token1)
            .unwrap();
        assert!(res.amount_out > 0);
        let gas = receipt.meter.total();
        // paper: 160,601.45
        assert!(
            (135_000..195_000).contains(&gas),
            "swap gas {gas} out of ballpark"
        );
    }

    #[test]
    fn burn_and_collect_gas_in_ballpark() {
        let mut w = setup();
        let id = mint_base_liquidity(&mut w);
        // trade to accrue some fees
        approve_all(&mut w, a(2));
        w.base
            .swap(&swap_tx(a(2), 5_000_000), &mut w.token0, &mut w.token1)
            .unwrap();
        let (collected, c_receipt) = w
            .base
            .collect(
                &CollectTx {
                    user: a(1),
                    pool: PoolId(0),
                    position: id,
                    amount0: Amount::MAX,
                    amount1: Amount::MAX,
                },
                &mut w.token0,
                &mut w.token1,
            )
            .unwrap();
        assert!(collected.amount0 > 0);
        let cg = c_receipt.meter.total();
        // paper: 163,743.04
        assert!((130_000..200_000).contains(&cg), "collect gas {cg}");

        let (burned, b_receipt) = w
            .base
            .burn(
                &BurnTx {
                    user: a(1),
                    pool: PoolId(0),
                    position: id,
                    liquidity: None,
                },
                &mut w.token0,
                &mut w.token1,
            )
            .unwrap();
        assert!(burned.amount0 > 0);
        let bg = b_receipt.meter.total();
        // paper: 158,473.43
        assert!((120_000..200_000).contains(&bg), "burn gas {bg}");
    }

    #[test]
    fn swap_without_approval_fails_cleanly() {
        let mut w = setup();
        mint_base_liquidity(&mut w);
        let price_before = w.base.pool().sqrt_price();
        let r = w
            .base
            .swap(&swap_tx(a(3), 1_000), &mut w.token0, &mut w.token1);
        assert!(matches!(r, Err(BaselineError::Token(_))));
        assert_eq!(w.base.pool().sqrt_price(), price_before);
    }

    #[test]
    fn slippage_protection_reverts() {
        let mut w = setup();
        mint_base_liquidity(&mut w);
        approve_all(&mut w, a(2));
        let tx = SwapTx {
            intent: SwapIntent::ExactInput {
                amount_in: 1_000_000,
                min_amount_out: u128::MAX / 2,
            },
            ..swap_tx(a(2), 0)
        };
        let price_before = w.base.pool().sqrt_price();
        let r = w.base.swap(&tx, &mut w.token0, &mut w.token1);
        assert!(matches!(
            r,
            Err(BaselineError::SlippageExceededOutput { .. })
        ));
        assert_eq!(w.base.pool().sqrt_price(), price_before, "reverted");
    }

    #[test]
    fn exact_output_slippage_cap() {
        let mut w = setup();
        mint_base_liquidity(&mut w);
        approve_all(&mut w, a(2));
        let tx = SwapTx {
            intent: SwapIntent::ExactOutput {
                amount_out: 1_000_000,
                max_amount_in: 1, // impossible
            },
            ..swap_tx(a(2), 0)
        };
        assert!(matches!(
            w.base.swap(&tx, &mut w.token0, &mut w.token1),
            Err(BaselineError::SlippageExceededInput { .. })
        ));
    }

    #[test]
    fn top_up_requires_nft_ownership() {
        let mut w = setup();
        let id = mint_base_liquidity(&mut w);
        approve_all(&mut w, a(2));
        let r = w.base.mint(
            &MintTx {
                user: a(2),
                pool: PoolId(0),
                position: Some(id),
                tick_lower: -6000,
                tick_upper: 6000,
                amount0_desired: 1000,
                amount1_desired: 1000,
                nonce: 0,
            },
            &mut w.token0,
            &mut w.token1,
        );
        assert!(matches!(r, Err(BaselineError::NotNftOwner)));
    }

    #[test]
    fn token_conservation_across_operations() {
        let mut w = setup();
        let supply0 = w.token0.total_supply();
        let supply1 = w.token1.total_supply();
        let id = mint_base_liquidity(&mut w);
        approve_all(&mut w, a(2));
        w.base
            .swap(&swap_tx(a(2), 3_000_000), &mut w.token0, &mut w.token1)
            .unwrap();
        w.base
            .burn(
                &BurnTx {
                    user: a(1),
                    pool: PoolId(0),
                    position: id,
                    liquidity: None,
                },
                &mut w.token0,
                &mut w.token1,
            )
            .unwrap();
        assert_eq!(w.token0.total_supply(), supply0);
        assert_eq!(w.token1.total_supply(), supply1);
    }
}
