//! Differential-oracle properties for the non-CL engines.
//!
//! The constant-product engine is checked bit-for-bit against the
//! `k`-complement reference (a genuinely different integer derivation of
//! both swap directions), and its invariant `k = r0·r1` must never
//! decrease net of fees. The weighted engine is bounded by the `f64`
//! closed-form curve and its log-space invariant
//! `w0·ln r0 + w1·ln r1` must never decrease across accepted swaps.
//! Mint/burn round-trips on both engines are replayed against naive
//! share math (isqrt genesis, min pro-rata joins, floor pro-rata exits).
//!
//! Both references live here, in test code only: [`cp_ref`] and
//! [`w_ref`] at the end of this file.

use ammboost_amm::engines::{CpEngine, WeightedEngine};
use ammboost_amm::pool::SwapKind;
use ammboost_amm::types::{AmountPair, PositionId, PIPS_DENOMINATOR};
use ammboost_crypto::{Address, U256};
use proptest::prelude::*;

fn pid(tag: &[u8], i: u64) -> PositionId {
    PositionId::derive(&[tag, &i.to_be_bytes()])
}

/// Naive integer sqrt by bisection — the oracle for genesis share issuance.
fn naive_isqrt(n: u128) -> u128 {
    if n == 0 {
        return 0;
    }
    let (mut lo, mut hi) = (1u128, 1u128 << 64);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        match mid.checked_mul(mid) {
            Some(sq) if sq <= n => lo = mid,
            _ => hi = mid - 1,
        }
    }
    lo
}

/// `k = r0·r1` as a 256-bit product.
fn k_of(reserves: AmountPair) -> U256 {
    U256::from_u128(reserves.amount0)
        .full_mul(U256::from_u128(reserves.amount1))
        .to_u256()
        .expect("u128·u128 fits 256 bits")
}

fn seeded_cp(fee_pips: u32, r0: u128, r1: u128) -> CpEngine {
    let mut e = CpEngine::new(fee_pips).expect("valid fee");
    e.mint(pid(b"cp-oracle-seed", 0), Address::from_index(1), r0, r1)
        .expect("genesis join");
    e
}

fn seeded_weighted(w0: u32, w1: u32, r0: u128, r1: u128) -> WeightedEngine {
    let mut e = WeightedEngine::new(3000, w0, w1).expect("valid weights");
    e.mint(pid(b"w-oracle-seed", 0), Address::from_index(1), r0, r1)
        .expect("genesis join");
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every constant-product quote — both directions, both kinds, any
    /// fee tier — is bit-identical to the `k`-complement reference.
    #[test]
    fn cp_swap_matches_k_complement_oracle(
        r0 in 1_000_000u128..(1u128 << 100),
        r1 in 1_000_000u128..(1u128 << 100),
        amount in 1u128..(1u128 << 96),
        fee_pips in 0u32..PIPS_DENOMINATOR,
        zero_for_one in any::<bool>(),
        exact_output in any::<bool>(),
    ) {
        let e = seeded_cp(fee_pips, r0, r1);
        let kind = if exact_output {
            SwapKind::ExactOutput(amount)
        } else {
            SwapKind::ExactInput(amount)
        };
        let (r_in, r_out) = if zero_for_one { (r0, r1) } else { (r1, r0) };
        let via_engine = e.quote_swap_with_protection(zero_for_one, kind, None, 0, u128::MAX);
        let via_oracle = cp_ref::quote(r_in, r_out, kind, fee_pips);
        match (via_engine, via_oracle) {
            (Ok(got), Ok((ain, aout, fee))) => {
                prop_assert_eq!((got.amount_in, got.amount_out, got.fee_paid), (ain, aout, fee));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "engine and oracle disagree: {a:?} vs {b:?}"),
        }
    }

    /// Across any accepted swap sequence, `k = r0·r1` never decreases —
    /// fees fold into the reserves, so `k` strictly grows with a nonzero
    /// fee and holds (up to rounding in the pool's favor) without one.
    #[test]
    fn cp_k_non_decreasing_across_swaps(
        r0 in 1_000_000_000u128..(1u128 << 80),
        r1 in 1_000_000_000u128..(1u128 << 80),
        swaps in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 1_000u128..(1u128 << 40)),
            1..24,
        ),
    ) {
        let mut e = seeded_cp(3000, r0, r1);
        for (zero_for_one, exact_output, amount) in swaps {
            let kind = if exact_output {
                SwapKind::ExactOutput(amount)
            } else {
                SwapKind::ExactInput(amount)
            };
            let k_before = k_of(e.reserves());
            if e.swap_with_protection(zero_for_one, kind, None, 0, u128::MAX).is_ok() {
                prop_assert!(k_of(e.reserves()) >= k_before, "k decreased");
            } else {
                prop_assert_eq!(k_of(e.reserves()), k_before, "failed swap moved state");
            }
        }
    }

    /// Join/exit share accounting matches naive share math on both
    /// reserve-pair engines: isqrt genesis issuance, `min` pro-rata
    /// follow-up joins, floor pro-rata exits.
    #[test]
    fn share_engines_match_naive_share_math(
        r0 in 1_000u128..(1u128 << 60),
        r1 in 1_000u128..(1u128 << 60),
        a0 in 1_000u128..(1u128 << 60),
        a1 in 1_000u128..(1u128 << 60),
        burn_bp in 1u128..10_000,
        weighted in any::<bool>(),
    ) {
        // the two share engines must account identically: exercise the
        // one the case picked through the same naive oracle
        let (genesis_shares, total_after_seed, joined, reserves) = if weighted {
            let mut e = seeded_weighted(80, 20, r0, r1);
            let seeded_total = e.book().total_shares();
            let joined = e.mint(pid(b"w-join", 1), Address::from_index(2), a0, a1);
            (naive_isqrt(r0 * r1), seeded_total, joined, e.reserves())
        } else {
            let mut e = seeded_cp(3000, r0, r1);
            let seeded_total = e.book().total_shares();
            let joined = e.mint(pid(b"cp-join", 1), Address::from_index(2), a0, a1);
            (naive_isqrt(r0 * r1), seeded_total, joined, e.reserves())
        };
        prop_assert_eq!(total_after_seed, genesis_shares, "genesis issuance != isqrt(r0*r1)");

        // naive follow-up join: floor(min(a0·S/r0, a1·S/r1)), amounts
        // taken ceil-rounded pro-rata
        let naive_shares =
            (a0 * genesis_shares / r0).min(a1 * genesis_shares / r1);
        match joined {
            Ok((shares, used)) => {
                prop_assert_eq!(shares, naive_shares);
                prop_assert_eq!(used.amount0, (shares * r0).div_ceil(genesis_shares));
                prop_assert_eq!(used.amount1, (shares * r1).div_ceil(genesis_shares));
                prop_assert_eq!(reserves, AmountPair::new(r0 + used.amount0, r1 + used.amount1));

                // naive exit: floor pro-rata over the grown pool
                let total = genesis_shares + shares;
                let burn = (shares * burn_bp / 10_000).max(1);
                let mut e = if weighted {
                    // rebuild deterministically: same seed + join sequence
                    let mut e = seeded_weighted(80, 20, r0, r1);
                    e.mint(pid(b"w-join", 1), Address::from_index(2), a0, a1).unwrap();
                    EngineUnderTest::W(e)
                } else {
                    let mut e = seeded_cp(3000, r0, r1);
                    e.mint(pid(b"cp-join", 1), Address::from_index(2), a0, a1).unwrap();
                    EngineUnderTest::Cp(e)
                };
                let tag: &[u8] = if weighted { b"w-join" } else { b"cp-join" };
                let out = e.burn(pid(tag, 1), Address::from_index(2), burn).unwrap();
                prop_assert_eq!(out.amount0, burn * reserves.amount0 / total);
                prop_assert_eq!(out.amount1, burn * reserves.amount1 / total);
            }
            Err(_) => prop_assert_eq!(naive_shares, 0, "engine rejected a naive-valid join"),
        }
    }

    /// Weighted swaps track the `f64` closed-form curve within relative
    /// tolerance, for arbitrary weight splits — any structural error in
    /// the fixed-point pow (wrong exponent, flipped ratio, dropped term)
    /// lands far outside the bound.
    #[test]
    fn weighted_swap_tracks_f64_oracle(
        r0 in 1_000_000_000u128..(1u128 << 70),
        r1 in 1_000_000_000u128..(1u128 << 70),
        w0 in 1u32..100,
        w1 in 1u32..100,
        amount_bp in 1u128..1_500,
        zero_for_one in any::<bool>(),
        exact_output in any::<bool>(),
    ) {
        let e = seeded_weighted(w0, w1, r0, r1);
        let (w_in, w_out) = {
            let (a, b) = e.weights();
            if zero_for_one { (a, b) } else { (b, a) }
        };
        let (r_in, r_out) = if zero_for_one { (r0, r1) } else { (r1, r0) };
        // stay inside the engine's ratio caps (r_in/2, r_out/3) with margin
        let amount = if exact_output {
            (r_out / 4) * amount_bp / 10_000
        } else {
            (r_in / 3) * amount_bp / 10_000
        };
        prop_assume!(amount > 1_000);

        let kind = if exact_output {
            SwapKind::ExactOutput(amount)
        } else {
            SwapKind::ExactInput(amount)
        };
        let got = e
            .quote_swap_with_protection(zero_for_one, kind, None, 0, u128::MAX)
            .expect("in-cap weighted swap quotes");
        let fee = got.fee_paid;
        if exact_output {
            let expect = w_ref::in_given_out_f64(r_in, r_out, w_in, w_out, amount);
            let in_eff = (got.amount_in - fee) as f64;
            let err = (in_eff - expect).abs() / expect.max(1.0);
            prop_assert!(err < 1e-6, "in {in_eff} vs f64 {expect} (rel err {err:e})");
        } else {
            let expect = w_ref::out_given_in_f64(r_in, r_out, w_in, w_out, amount - fee);
            let err = (got.amount_out as f64 - expect).abs() / expect.max(1.0);
            prop_assert!(err < 1e-6, "out {} vs f64 {expect} (rel err {err:e})", got.amount_out);
        }
    }

    /// The weighted invariant `w0·ln r0 + w1·ln r1` never decreases
    /// across accepted swaps (beyond f64 evaluation noise), and a
    /// rejected swap leaves the reserves untouched.
    #[test]
    fn weighted_invariant_non_decreasing(
        r0 in 1_000_000_000u128..(1u128 << 70),
        r1 in 1_000_000_000u128..(1u128 << 70),
        swaps in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 1u128..1_500),
            1..16,
        ),
    ) {
        let mut e = seeded_weighted(80, 20, r0, r1);
        let (w0, w1) = e.weights();
        for (zero_for_one, exact_output, amount_bp) in swaps {
            let r = e.reserves();
            let amount = if exact_output {
                (if zero_for_one { r.amount1 } else { r.amount0 } / 4) * amount_bp / 10_000
            } else {
                (if zero_for_one { r.amount0 } else { r.amount1 } / 3) * amount_bp / 10_000
            };
            if amount == 0 {
                continue;
            }
            let kind = if exact_output {
                SwapKind::ExactOutput(amount)
            } else {
                SwapKind::ExactInput(amount)
            };
            let before = w_ref::log_invariant(r.amount0, r.amount1, w0, w1);
            if e.swap_with_protection(zero_for_one, kind, None, 0, u128::MAX).is_ok() {
                let after_r = e.reserves();
                let after = w_ref::log_invariant(after_r.amount0, after_r.amount1, w0, w1);
                prop_assert!(after >= before - 1e-9, "invariant fell: {before} -> {after}");
            } else {
                prop_assert_eq!(e.reserves(), r, "failed swap moved reserves");
            }
        }
    }
}

/// Thin dispatch so the share-math property drives either engine's burn
/// through one code path.
enum EngineUnderTest {
    Cp(CpEngine),
    W(WeightedEngine),
}

impl EngineUnderTest {
    fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        shares: u128,
    ) -> Result<AmountPair, ammboost_amm::AmmError> {
        match self {
            EngineUnderTest::Cp(e) => e.burn(id, owner, shares),
            EngineUnderTest::W(e) => e.burn(id, owner, shares),
        }
    }
}

const SEED_RESERVE: u128 = 4_000_000_000_000_000;

#[test]
fn reference_identities_match_engine() {
    let e = seeded_cp(3000, SEED_RESERVE, SEED_RESERVE);
    for (i, amount) in [1_000u128, 999_983, 1_000_000_007, 123_456_789_123]
        .iter()
        .enumerate()
    {
        let zf1 = i % 2 == 0;
        let (r_in, r_out) = if zf1 {
            (e.reserves().amount0, e.reserves().amount1)
        } else {
            (e.reserves().amount1, e.reserves().amount0)
        };
        for kind in [
            SwapKind::ExactInput(*amount),
            SwapKind::ExactOutput(*amount),
        ] {
            let got = e
                .quote_swap_with_protection(zf1, kind, None, 0, u128::MAX)
                .unwrap();
            let (ain, aout, fee) = cp_ref::quote(r_in, r_out, kind, e.fee_pips()).unwrap();
            assert_eq!(
                (got.amount_in, got.amount_out, got.fee_paid),
                (ain, aout, fee)
            );
        }
    }
}

#[test]
fn swap_tracks_f64_reference() {
    let e = seeded_weighted(80, 20, SEED_RESERVE, SEED_RESERVE);
    let (r, (w0, w1)) = (e.reserves(), e.weights());
    for (i, amount) in [1_000_000u128, 123_456_789, 500_000_000_000_000]
        .iter()
        .enumerate()
    {
        let zf1 = i % 2 == 0;
        let got = e
            .quote_swap_with_protection(zf1, SwapKind::ExactInput(*amount), None, 0, u128::MAX)
            .unwrap();
        let (r_in, r_out, w_in, w_out) = if zf1 {
            (r.amount0, r.amount1, w0, w1)
        } else {
            (r.amount1, r.amount0, w1, w0)
        };
        let expect = w_ref::out_given_in_f64(r_in, r_out, w_in, w_out, *amount - got.fee_paid);
        let err = (got.amount_out as f64 - expect).abs() / expect.max(1.0);
        assert!(
            err < 1e-6,
            "amount {amount}: {} vs {expect}",
            got.amount_out
        );
    }
}

#[test]
fn invariant_non_decreasing_after_swaps() {
    let mut e = seeded_weighted(80, 20, SEED_RESERVE, SEED_RESERVE);
    let (w0, w1) = e.weights();
    let log_invariant = |r: AmountPair| w_ref::log_invariant(r.amount0, r.amount1, w0, w1);
    let before = log_invariant(e.reserves());
    for i in 0..10u32 {
        e.swap_with_protection(
            i % 2 == 0,
            SwapKind::ExactInput(1_000_000_000 + i as u128 * 999_999),
            None,
            0,
            u128::MAX,
        )
        .unwrap();
    }
    let after = log_invariant(e.reserves());
    assert!(after >= before - 1e-9, "{after} < {before}");
}

/// Naive reference implementation used as the differential oracle.
///
/// Both swap directions are re-derived from the invariant product
/// `k = r_in · r_out` via the complement identities
///
/// ```text
/// floor(x·r_out / (r_in + x))  =  r_out − ceil(k / (r_in + x))
/// ceil(out·r_in / (r_out − out))  =  ceil(k / (r_out − out)) − r_in
/// ```
///
/// (both exact over the integers), so the oracle computes the same bits
/// through a genuinely different sequence of operations.
mod cp_ref {
    use ammboost_amm::pool::SwapKind;
    use ammboost_amm::types::{Amount, PIPS_DENOMINATOR};
    use ammboost_amm::AmmError;
    use ammboost_crypto::U256;

    /// `ceil(a · b / d)` through a 256-bit product; `ceil(k / d)` with
    /// `k = r_in · r_out` is `ceil_mul_div(r_in, r_out, d)`.
    fn ceil_mul_div(a: u128, b: u128, d: u128) -> Result<u128, AmmError> {
        if d == 0 {
            return Err(AmmError::ZeroLiquidity);
        }
        let (q, rem) = U256::from_u128(a)
            .full_mul(U256::from_u128(b))
            .div_rem_u256(U256::from_u128(d));
        let q = q
            .to_u256()
            .and_then(|v| v.to_u128())
            .ok_or(AmmError::BalanceOverflow)?;
        if rem.is_zero() {
            Ok(q)
        } else {
            q.checked_add(1).ok_or(AmmError::BalanceOverflow)
        }
    }

    /// Output for an effective (post-fee) input, via the `k` complement.
    ///
    /// # Errors
    /// Overflow of the widened arithmetic.
    pub fn out_given_in(r_in: Amount, r_out: Amount, in_eff: Amount) -> Result<Amount, AmmError> {
        let denom = r_in.checked_add(in_eff).ok_or(AmmError::BalanceOverflow)?;
        Ok(r_out - ceil_mul_div(r_in, r_out, denom)?)
    }

    /// Effective (pre-fee-gross-up) input for an exact output, via the
    /// `k` complement.
    ///
    /// # Errors
    /// [`AmmError::InsufficientLiquidity`] when `out ≥ r_out`.
    pub fn in_given_out(r_in: Amount, r_out: Amount, out: Amount) -> Result<Amount, AmmError> {
        if out >= r_out {
            return Err(AmmError::InsufficientLiquidity {
                requested: out,
                available: r_out,
            });
        }
        Ok(ceil_mul_div(r_in, r_out, r_out - out)? - r_in)
    }

    /// Full reference quote: `(amount_in, amount_out, fee_paid)` for a
    /// swap against reserves `(r_in, r_out)`, with the engine's fee
    /// schedule applied around the `k`-complement curve math.
    ///
    /// # Errors
    /// Mirrors the engine's validation.
    pub fn quote(
        r_in: Amount,
        r_out: Amount,
        kind: SwapKind,
        fee_pips: u32,
    ) -> Result<(Amount, Amount, Amount), AmmError> {
        if r_in == 0 || r_out == 0 {
            return Err(AmmError::InsufficientReserves);
        }
        match kind {
            SwapKind::ExactInput(amount) => {
                if amount == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                let fee = ceil_mul_div(amount, fee_pips as u128, PIPS_DENOMINATOR as u128)?;
                let in_eff = amount - fee;
                if in_eff == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                Ok((amount, out_given_in(r_in, r_out, in_eff)?, fee))
            }
            SwapKind::ExactOutput(amount) => {
                if amount == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                let in_eff = in_given_out(r_in, r_out, amount)?;
                let gross = ceil_mul_div(
                    in_eff,
                    PIPS_DENOMINATOR as u128,
                    (PIPS_DENOMINATOR - fee_pips) as u128,
                )?;
                Ok((gross, amount, gross - in_eff))
            }
        }
    }
}

/// Naive `f64` reference implementation used as the differential oracle.
///
/// Where the constant-product oracle is bit-exact, floating point cannot
/// be — so this oracle bounds the fixed-point engine instead: proptests
/// assert the integer result stays within a small relative tolerance of
/// the closed-form `f64` curve, which would catch any structural error in
/// the `bpow` plumbing (wrong ratio, inverted base, dropped fee) while
/// tolerating the last-ulp disagreements inherent to the comparison.
mod w_ref {
    use ammboost_amm::engines::bmath::BONE;

    /// `out = r_out · (1 − (r_in / (r_in + in))^(w_in / w_out))` in `f64`.
    pub fn out_given_in_f64(r_in: u128, r_out: u128, w_in: u128, w_out: u128, in_eff: u128) -> f64 {
        let base = r_in as f64 / (r_in as f64 + in_eff as f64);
        r_out as f64 * (1.0 - base.powf(w_in as f64 / w_out as f64))
    }

    /// `in = r_in · ((r_out / (r_out − out))^(w_out / w_in) − 1)` in `f64`.
    pub fn in_given_out_f64(r_in: u128, r_out: u128, w_in: u128, w_out: u128, out: u128) -> f64 {
        let base = r_out as f64 / (r_out as f64 - out as f64);
        r_in as f64 * (base.powf(w_out as f64 / w_in as f64) - 1.0)
    }

    /// The G3M invariant `r0^w0 · r1^w1` in `log` space (numerically
    /// stable for large reserves); weights are BONE-scaled.
    pub fn log_invariant(r0: u128, r1: u128, w0: u128, w1: u128) -> f64 {
        let bone = BONE as f64;
        (w0 as f64 / bone) * (r0 as f64).ln() + (w1 as f64 / bone) * (r1 as f64).ln()
    }
}
