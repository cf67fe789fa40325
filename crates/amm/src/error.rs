//! Errors of the AMM engine.

use crate::sqrt_price_math::PriceMathError;
use crate::tick_math::TickMathError;
use crate::types::{Liquidity, PositionId, Tick};

/// Any failure of an AMM operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmmError {
    /// Tick range invalid (inverted, out of bounds, or misaligned with the
    /// pool's tick spacing).
    InvalidTickRange {
        /// Offending lower tick.
        lower: Tick,
        /// Offending upper tick.
        upper: Tick,
    },
    /// Fee at or above 100%.
    InvalidFee(u32),
    /// The operation computed zero liquidity (budget too small for range).
    ZeroLiquidity,
    /// An amount argument was zero.
    ZeroAmount,
    /// Price limit on the wrong side of the current price.
    InvalidPriceLimit,
    /// The swap's slippage protection fired (output too small or input
    /// too large); no state was changed.
    SlippageExceeded {
        /// Input the swap would have required.
        amount_in: Liquidity,
        /// Output the swap would have produced.
        amount_out: Liquidity,
    },
    /// Requested liquidity exceeds what is available.
    InsufficientLiquidity {
        /// Asked for.
        requested: Liquidity,
        /// Actually available.
        available: Liquidity,
    },
    /// Pool reserves cannot cover a withdrawal or loan.
    InsufficientReserves,
    /// Unknown position.
    PositionNotFound(PositionId),
    /// Caller does not own the position.
    NotPositionOwner(PositionId),
    /// Flash-loan callback failed to repay principal plus fee.
    FlashNotRepaid,
    /// A balance or amount exceeded 128 bits.
    BalanceOverflow,
    /// Internal accounting would drive a pool balance negative.
    PoolInsolvent,
    /// A fixed-point computation left its convergent range (e.g. a
    /// weighted-math `pow` base outside `[1 wei, 2·BONE)`); no state was
    /// changed.
    MathRange(&'static str),
    /// Tick-math failure.
    TickMath(TickMathError),
    /// Price-math failure.
    PriceMath(PriceMathError),
}

impl std::fmt::Display for AmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmmError::InvalidTickRange { lower, upper } => {
                write!(f, "invalid tick range [{lower}, {upper}]")
            }
            AmmError::InvalidFee(fee) => write!(f, "invalid fee {fee} pips"),
            AmmError::ZeroLiquidity => write!(f, "operation yields zero liquidity"),
            AmmError::ZeroAmount => write!(f, "zero amount"),
            AmmError::InvalidPriceLimit => write!(f, "price limit on wrong side of price"),
            AmmError::SlippageExceeded {
                amount_in,
                amount_out,
            } => write!(
                f,
                "slippage protection fired (in {amount_in}, out {amount_out})"
            ),
            AmmError::InsufficientLiquidity {
                requested,
                available,
            } => write!(
                f,
                "insufficient liquidity: requested {requested}, available {available}"
            ),
            AmmError::InsufficientReserves => write!(f, "insufficient pool reserves"),
            AmmError::PositionNotFound(id) => write!(f, "position {id} not found"),
            AmmError::NotPositionOwner(id) => write!(f, "caller does not own {id}"),
            AmmError::FlashNotRepaid => write!(f, "flash loan not repaid with fee"),
            AmmError::BalanceOverflow => write!(f, "balance overflow"),
            AmmError::PoolInsolvent => write!(f, "pool accounting would go negative"),
            AmmError::MathRange(what) => write!(f, "fixed-point range exceeded: {what}"),
            AmmError::TickMath(e) => write!(f, "tick math: {e}"),
            AmmError::PriceMath(e) => write!(f, "price math: {e}"),
        }
    }
}

impl std::error::Error for AmmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AmmError::TickMath(e) => Some(e),
            AmmError::PriceMath(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TickMathError> for AmmError {
    fn from(e: TickMathError) -> Self {
        AmmError::TickMath(e)
    }
}

impl From<PriceMathError> for AmmError {
    fn from(e: PriceMathError) -> Self {
        AmmError::PriceMath(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AmmError::InsufficientLiquidity {
            requested: 10,
            available: 5,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("5"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = AmmError::from(TickMathError::SqrtPriceOutOfRange);
        assert!(e.source().is_some());
        assert!(AmmError::ZeroAmount.source().is_none());
    }
}
