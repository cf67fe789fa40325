//! Fixed-width 256-bit and 512-bit unsigned integers.
//!
//! These are the arithmetic workhorses of the whole workspace: the AMM engine
//! uses them for Q64.96 sqrt-price math (including the 512-bit-intermediate
//! `mul_div` that Uniswap calls `FullMath.mulDiv`), and the crypto layer uses
//! them for field arithmetic modulo the BN254 scalar prime.
//!
//! Layout is four (resp. eight) little-endian `u64` limbs. All arithmetic is
//! implemented from scratch; division uses Knuth's Algorithm D.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub};

/// A 256-bit unsigned integer (four little-endian `u64` limbs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct U256(pub(crate) [u64; 4]);

/// A 512-bit unsigned integer (eight little-endian `u64` limbs), used as the
/// intermediate type for full-width 256x256 multiplication.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct U512(pub(crate) [u64; 8]);

/// Error returned when parsing a [`U256`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseU256Error {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
    Overflow,
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "empty string"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit `{c}`"),
            ParseErrorKind::Overflow => write!(f, "value does not fit in 256 bits"),
        }
    }
}

impl std::error::Error for ParseU256Error {}

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a value from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a value from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Creates a value from raw little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Returns the raw little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; 4] {
        self.0
    }

    /// Returns `2^exp`.
    ///
    /// # Panics
    /// Panics if `exp >= 256`.
    #[inline]
    pub fn pow2(exp: u32) -> Self {
        assert!(exp < 256, "pow2 exponent out of range");
        let mut out = [0u64; 4];
        out[(exp / 64) as usize] = 1u64 << (exp % 64);
        U256(out)
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Truncates to the low 64 bits.
    #[inline]
    const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Truncates to the low 128 bits.
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.0[2] == 0 && self.0[3] == 0 {
            Some(self.low_u128())
        } else {
            None
        }
    }

    /// Number of significant bits (`0` for zero).
    #[inline]
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Returns bit `i` (little-endian numbering).
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Addition returning `(wrapped, carried)`.
    #[inline]
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// Subtraction returning `(wrapped, borrowed)`.
    #[inline]
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Wrapping (mod `2^256`) addition.
    #[inline]
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping (mod `2^256`) subtraction.
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: U256) -> U256 {
        self.checked_add(rhs).unwrap_or(U256::MAX)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Full-width multiplication producing a 512-bit result.
    ///
    /// Loops only over significant limbs: fixed-point operands are
    /// usually 1–2 limbs, so this runs 1–4 hardware multiplies instead of
    /// a fixed 16.
    pub fn full_mul(self, rhs: U256) -> U512 {
        let na = self.0.iter().rposition(|&l| l != 0).map_or(0, |p| p + 1);
        let nb = rhs.0.iter().rposition(|&l| l != 0).map_or(0, |p| p + 1);
        let mut out = [0u64; 8];
        for i in 0..na {
            let mut carry: u128 = 0;
            for j in 0..nb {
                let cur = (self.0[i] as u128) * (rhs.0[j] as u128) + (out[i + j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + nb] = carry as u64;
        }
        U512(out)
    }

    /// Checked multiplication.
    #[inline]
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        let full = self.full_mul(rhs);
        if full.0[4..].iter().all(|&l| l == 0) {
            Some(U256([full.0[0], full.0[1], full.0[2], full.0[3]]))
        } else {
            None
        }
    }

    /// Wrapping (mod `2^256`) multiplication.
    #[inline]
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        let full = self.full_mul(rhs);
        U256([full.0[0], full.0[1], full.0[2], full.0[3]])
    }

    /// Division with remainder.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(self, divisor: U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (U256::ZERO, self);
        }
        let (q, r) = div_rem_limbs(&self.0, &divisor.0);
        (U256(first4(q)), U256(first4(r)))
    }

    /// `Some(k)` iff `self == 2^k` — the hot-path detector behind the
    /// shift fast paths in the `mul_div` family (fixed-point code divides
    /// by `2^96`/`2^128` constantly; a shift beats a long division by an
    /// order of magnitude).
    #[inline]
    fn pow2_exp(self) -> Option<u32> {
        let mut exp = None;
        for (i, &l) in self.0.iter().enumerate() {
            if l != 0 {
                if l.count_ones() != 1 || exp.is_some() {
                    return None;
                }
                exp = Some(64 * i as u32 + l.trailing_zeros());
            }
        }
        exp
    }

    /// The 512-bit product `self * mul`, via a shift when `mul` is a
    /// power of two.
    #[inline]
    fn widening_mul(self, mul: U256) -> U512 {
        match mul.pow2_exp() {
            Some(k) => U512::from_u256(self) << k,
            None => self.full_mul(mul),
        }
    }

    /// Computes `floor(self * mul / div)` with a 512-bit intermediate.
    ///
    /// This is the Uniswap `FullMath.mulDiv` primitive.
    ///
    /// # Panics
    /// Panics if `div` is zero or the result does not fit in 256 bits.
    pub fn mul_div(self, mul: U256, div: U256) -> U256 {
        self.checked_mul_div(mul, div)
            .expect("mul_div overflow or division by zero")
    }

    /// Computes `ceil(self * mul / div)` with a 512-bit intermediate.
    ///
    /// # Panics
    /// Panics if `div` is zero or the result does not fit in 256 bits.
    pub fn mul_div_rounding_up(self, mul: U256, div: U256) -> U256 {
        let prod = self.widening_mul(mul);
        let (q, round_up) = match div.pow2_exp() {
            Some(k) => (prod >> k, prod.low_bits_nonzero(k)),
            None => {
                let (q, r) = prod.div_rem_u256(div);
                (q, !r.is_zero())
            }
        };
        let mut out = q.to_u256().expect("mul_div_rounding_up overflow");
        if round_up {
            out = out
                .checked_add(U256::ONE)
                .expect("mul_div_rounding_up overflow");
        }
        out
    }

    /// Checked `floor(self * mul / div)`.
    ///
    /// Returns `None` when `div == 0` or when the quotient exceeds 256 bits.
    pub fn checked_mul_div(self, mul: U256, div: U256) -> Option<U256> {
        if div.is_zero() {
            return None;
        }
        let prod = self.widening_mul(mul);
        let q = match div.pow2_exp() {
            Some(k) => prod >> k,
            None => prod.div_rem_u256(div).0,
        };
        q.to_u256()
    }

    /// Integer square root: the largest `r` with `r * r <= self`.
    pub fn isqrt(self) -> U256 {
        if self.is_zero() {
            return U256::ZERO;
        }
        // Newton's method with a power-of-two initial overestimate.
        let mut x = U256::pow2(self.bits().div_ceil(2));
        loop {
            // y = (x + self / x) / 2
            let y = (x + self / x) >> 1;
            if y >= x {
                return x;
            }
            x = y;
        }
    }

    /// Big-endian byte representation.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses from big-endian bytes.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut l = [0u8; 8];
            l.copy_from_slice(&bytes[32 - 8 * (i + 1)..32 - 8 * i]);
            limbs[i] = u64::from_be_bytes(l);
        }
        U256(limbs)
    }

    /// Parses a decimal string.
    pub fn from_dec_str(s: &str) -> Result<Self, ParseU256Error> {
        if s.is_empty() {
            return Err(ParseU256Error {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or(ParseU256Error {
                kind: ParseErrorKind::InvalidDigit(c),
            })?;
            acc = acc
                .checked_mul(ten)
                .and_then(|a| a.checked_add(U256::from_u64(d as u64)))
                .ok_or(ParseU256Error {
                    kind: ParseErrorKind::Overflow,
                })?;
        }
        Ok(acc)
    }
}

/// The low 4 limbs of an 8-limb result whose high half is known zero.
#[inline]
fn first4(l: [u64; 8]) -> [u64; 4] {
    debug_assert!(l[4..].iter().all(|&x| x == 0));
    [l[0], l[1], l[2], l[3]]
}

/// Long division dispatch over little-endian `u64` limb slices.
///
/// Returns `(quotient, remainder)` as fixed 8-limb arrays. Entirely
/// allocation-free: this runs several times per swap step (amount deltas,
/// fee accounting), where the former `Vec`-based scratch buffers were the
/// single largest cost.
///
/// Divisor shapes take specialized paths: 1 limb → schoolbook with
/// native `u128` division; 2 limbs → Möller–Granlund reciprocal 3-by-2
/// division (the Q64.96 sqrt prices the swap loop divides by are 2-limb
/// until |tick| ≈ 443k, so this is the AMM hot path — roughly halving
/// the per-division cost vs the Knuth core, which stays as the general
/// path and as the differential oracle under `debug_assert`).
fn div_rem_limbs(num: &[u64], div: &[u64]) -> ([u64; 8], [u64; 8]) {
    debug_assert!(num.len() <= 8 && div.len() <= 8);
    // Strip leading (most-significant) zeros.
    let n_len = num.iter().rposition(|&l| l != 0).map_or(0, |p| p + 1);
    let d_len = div.iter().rposition(|&l| l != 0).map_or(0, |p| p + 1);
    assert!(d_len > 0, "division by zero");

    let mut q = [0u64; 8];
    let mut r = [0u64; 8];

    if n_len < d_len {
        r[..n_len].copy_from_slice(&num[..n_len]);
        return (q, r);
    }

    // Single-limb divisor: simple schoolbook division.
    if d_len == 1 {
        let d = div[0] as u128;
        let mut rem: u128 = 0;
        for i in (0..n_len).rev() {
            let cur = (rem << 64) | num[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        r[0] = rem as u64;
        return (q, r);
    }

    // Two-limb divisor: reciprocal division, with the Knuth core as the
    // differential oracle in debug builds.
    if d_len == 2 {
        let out = div_rem_by_2_limbs(&num[..n_len], div[0], div[1]);
        debug_assert_eq!(
            out,
            div_rem_knuth(num, div, n_len, d_len),
            "reciprocal division diverges from Knuth oracle"
        );
        return out;
    }

    div_rem_knuth(num, div, n_len, d_len)
}

/// Möller–Granlund reciprocal of a normalized (high-bit-set) single
/// limb: `floor((2^128 - 1) / d) - 2^64`.
#[inline]
fn reciprocal_u64(d: u64) -> u64 {
    debug_assert!(d >= 1 << 63, "reciprocal of unnormalized divisor");
    // (2^128 - 1) - d·2^64 = (!d)·2^64 + (2^64 - 1)
    let num = ((!d as u128) << 64) | u64::MAX as u128;
    (num / d as u128) as u64
}

/// Möller–Granlund reciprocal of a normalized 2-limb divisor
/// `d = d1·2^64 + d0` (with `d1`'s high bit set):
/// `floor((2^192 - 1) / d) - 2^64`. Algorithm 6 of "Improved division by
/// invariant integers" (Möller & Granlund, IEEE ToC 2011).
#[inline]
fn reciprocal_2_limbs(d1: u64, d0: u64) -> u64 {
    let mut v = reciprocal_u64(d1);
    let mut p = d1.wrapping_mul(v).wrapping_add(d0);
    if p < d0 {
        v = v.wrapping_sub(1);
        if p >= d1 {
            v = v.wrapping_sub(1);
            p = p.wrapping_sub(d1);
        }
        p = p.wrapping_sub(d1);
    }
    let t = (v as u128) * (d0 as u128);
    let t_hi = (t >> 64) as u64;
    let p2 = p.wrapping_add(t_hi);
    if p2 < t_hi {
        v = v.wrapping_sub(1);
        let d = ((d1 as u128) << 64) | d0 as u128;
        let candidate = ((p2 as u128) << 64) | (t as u64 as u128);
        if candidate >= d {
            v = v.wrapping_sub(1);
        }
    }
    v
}

/// One 3-by-2 division step (Möller–Granlund Algorithm 4): divides
/// `⟨u2, u1, u0⟩` by the normalized divisor `⟨d1, d0⟩` using its
/// precomputed reciprocal `v`, returning the quotient limb and the
/// 2-limb remainder. Requires `⟨u2, u1⟩ < ⟨d1, d0⟩`.
#[inline]
fn div_3by2(u2: u64, u1: u64, u0: u64, d1: u64, d0: u64, v: u64) -> (u64, u128) {
    let d = ((d1 as u128) << 64) | d0 as u128;
    let q = (v as u128) * (u2 as u128);
    let q = q.wrapping_add(((u2 as u128) << 64) | u1 as u128);
    let mut q1 = (q >> 64) as u64;
    let q0 = q as u64;
    let r1 = u1.wrapping_sub(q1.wrapping_mul(d1));
    let t = (d0 as u128) * (q1 as u128);
    let mut r = (((r1 as u128) << 64) | u0 as u128)
        .wrapping_sub(t)
        .wrapping_sub(d);
    q1 = q1.wrapping_add(1);
    if (r >> 64) as u64 >= q0 {
        q1 = q1.wrapping_sub(1);
        r = r.wrapping_add(d);
    }
    if r >= d {
        q1 = q1.wrapping_add(1);
        r = r.wrapping_sub(d);
    }
    (q1, r)
}

/// Division by a 2-limb divisor via reciprocal 3-by-2 steps: normalize,
/// precompute the reciprocal once, then one `div_3by2` per quotient limb
/// — no per-step estimate/correct loop, no multiword subtract-and-addback.
fn div_rem_by_2_limbs(num: &[u64], d0: u64, d1: u64) -> ([u64; 8], [u64; 8]) {
    debug_assert!(d1 != 0 && num.len() >= 2 && num.len() <= 8);
    let shift = d1.leading_zeros();
    // normalized divisor ⟨nd1, nd0⟩ (top bit of nd1 set)
    let (nd1, nd0) = if shift == 0 {
        (d1, d0)
    } else {
        (d1 << shift | d0 >> (64 - shift), d0 << shift)
    };
    let v = reciprocal_2_limbs(nd1, nd0);

    // normalized numerator with one spill limb of headroom
    let n_len = num.len();
    let mut u = [0u64; 9];
    shl_into(&mut u, num, shift);

    let mut q = [0u64; 8];
    // remainder window ⟨r1, r0⟩, seeded from the numerator's top limbs;
    // the seed is < d because u[n_len] (the spill limb) holds the top
    // `shift` bits and is always < nd1
    let mut rem = ((u[n_len] as u128) << 64) | u[n_len - 1] as u128;
    for j in (0..n_len - 1).rev() {
        let (qj, r) = div_3by2((rem >> 64) as u64, rem as u64, u[j], nd1, nd0, v);
        q[j] = qj;
        rem = r;
    }

    // denormalize the remainder
    let mut r = [0u64; 8];
    let rem = rem >> shift;
    r[0] = rem as u64;
    r[1] = (rem >> 64) as u64;
    (q, r)
}

/// Knuth Algorithm D long division over little-endian `u64` limb slices
/// — the general-divisor core, also serving as the differential oracle
/// for the reciprocal path.
fn div_rem_knuth(num: &[u64], div: &[u64], n_len: usize, d_len: usize) -> ([u64; 8], [u64; 8]) {
    let mut q = [0u64; 8];
    let mut r = [0u64; 8];

    // D1: normalize so the top divisor limb has its high bit set. The
    // scratch buffers live on the stack with one limb of headroom each
    // for the normalization shift (`v`'s spill limb is always written as
    // zero — the top divisor limb has exactly `shift` leading zeros).
    let shift = div[d_len - 1].leading_zeros();
    let mut v = [0u64; 9];
    shl_into(&mut v, &div[..d_len], shift);
    let mut u = [0u64; 9];
    shl_into(&mut u, &num[..n_len], shift);

    let n = d_len;
    let m = n_len - d_len;
    let b: u128 = 1u128 << 64;

    // D2..D7: main loop.
    for j in (0..=m).rev() {
        // D3: estimate q-hat.
        let top = ((u[j + n] as u128) << 64) | (u[j + n - 1] as u128);
        let mut qhat = top / (v[n - 1] as u128);
        let mut rhat = top % (v[n - 1] as u128);
        while qhat >= b || qhat * (v[n - 2] as u128) > (rhat << 64) + (u[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v[n - 1] as u128;
            if rhat >= b {
                break;
            }
        }

        // D4: multiply and subtract.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * (v[i] as u128) + carry;
            carry = p >> 64;
            let sub = (u[j + i] as i128) - ((p as u64) as i128) + borrow;
            u[j + i] = sub as u64;
            borrow = sub >> 64; // arithmetic shift: 0 or -1
        }
        let sub = (u[j + n] as i128) - (carry as i128) + borrow;
        u[j + n] = sub as u64;
        let neg = sub < 0;

        // D5/D6: if we subtracted too much, add one divisor back.
        if neg {
            qhat -= 1;
            let mut c: u128 = 0;
            for i in 0..n {
                let s = (u[j + i] as u128) + (v[i] as u128) + c;
                u[j + i] = s as u64;
                c = s >> 64;
            }
            u[j + n] = u[j + n].wrapping_add(c as u64);
        }
        q[j] = qhat as u64;
    }

    // D8: denormalize the remainder.
    shr_into(&mut r, &u[..n], shift);
    (q, r)
}

/// `out[..] = x << shift` (shift < 64), writing `x.len() + 1` limbs.
#[inline]
fn shl_into(out: &mut [u64], x: &[u64], shift: u32) {
    debug_assert!(shift < 64 && out.len() > x.len());
    if shift == 0 {
        out[..x.len()].copy_from_slice(x);
        return;
    }
    for (i, &l) in x.iter().enumerate() {
        out[i] |= l << shift;
        out[i + 1] = l >> (64 - shift);
    }
}

/// `out[..x.len()] = x >> shift` (shift < 64).
#[inline]
fn shr_into(out: &mut [u64], x: &[u64], shift: u32) {
    debug_assert!(shift < 64 && out.len() >= x.len());
    if shift == 0 {
        out[..x.len()].copy_from_slice(x);
        return;
    }
    for i in 0..x.len() {
        out[i] = x[i] >> shift;
        if i + 1 < x.len() {
            out[i] |= x[i + 1] << (64 - shift);
        }
    }
}

impl U512 {
    /// The value `0`.
    pub const ZERO: U512 = U512([0; 8]);
    /// The value `1`.
    pub const ONE: U512 = U512([1, 0, 0, 0, 0, 0, 0, 0]);

    /// Creates from raw little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 8]) -> Self {
        U512(limbs)
    }

    /// Widens a [`U256`].
    #[inline]
    pub const fn from_u256(v: U256) -> Self {
        U512([v.0[0], v.0[1], v.0[2], v.0[3], 0, 0, 0, 0])
    }

    /// Returns `2^exp`.
    ///
    /// # Panics
    /// Panics if `exp >= 512`.
    pub fn pow2(exp: u32) -> Self {
        assert!(exp < 512, "pow2 exponent out of range");
        let mut out = [0u64; 8];
        out[(exp / 64) as usize] = 1u64 << (exp % 64);
        U512(out)
    }

    /// Returns `true` when zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 8]
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        for i in (0..8).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Narrows to [`U256`] when the value fits.
    #[inline]
    pub fn to_u256(&self) -> Option<U256> {
        if self.0[4..].iter().all(|&l| l == 0) {
            Some(U256([self.0[0], self.0[1], self.0[2], self.0[3]]))
        } else {
            None
        }
    }

    /// `true` when any of the lowest `k` bits is set — the remainder
    /// check behind the power-of-two divisor fast path.
    #[inline]
    fn low_bits_nonzero(&self, k: u32) -> bool {
        let full = ((k / 64) as usize).min(8);
        if self.0[..full].iter().any(|&l| l != 0) {
            return true;
        }
        let rem = k % 64;
        rem != 0 && full < 8 && self.0[full] & ((1u64 << rem) - 1) != 0
    }

    /// Addition returning `(wrapped, carried)`.
    pub fn overflowing_add(self, rhs: U512) -> (U512, bool) {
        let mut out = [0u64; 8];
        let mut carry = false;
        for i in 0..8 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U512(out), carry)
    }

    /// Subtraction returning `(wrapped, borrowed)`.
    pub fn overflowing_sub(self, rhs: U512) -> (U512, bool) {
        let mut out = [0u64; 8];
        let mut borrow = false;
        for i in 0..8 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U512(out), borrow)
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: U512) -> Option<U512> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: U512) -> Option<U512> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Division with remainder by a 256-bit divisor.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem_u256(self, divisor: U256) -> (U512, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        let (q, r) = div_rem_limbs(&self.0, &divisor.0);
        (U512(q), U256(first4(r)))
    }

    /// Division with remainder by a 512-bit divisor.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(self, divisor: U512) -> (U512, U512) {
        assert!(!divisor.is_zero(), "division by zero");
        let (q, r) = div_rem_limbs(&self.0, &divisor.0);
        (U512(q), U512(r))
    }

    /// Integer square root: largest `r` with `r * r <= self`.
    ///
    /// The result always fits in a [`U256`].
    pub fn isqrt(self) -> U256 {
        if self.is_zero() {
            return U256::ZERO;
        }
        let mut x = U512::pow2(self.bits().div_ceil(2).min(256));
        loop {
            let (q, _) = self.div_rem(x);
            let (sum, carry) = x.overflowing_add(q);
            assert!(!carry, "isqrt internal overflow");
            let y = sum >> 1;
            if ge_512(y, x) {
                return x.to_u256().expect("isqrt result exceeds 256 bits");
            }
            x = y;
        }
    }
}

fn ge_512(a: U512, b: U512) -> bool {
    for i in (0..8).rev() {
        match a.0[i].cmp(&b.0[i]) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => {}
        }
    }
    true
}

// ---- operator impls -------------------------------------------------------

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        self.checked_add(rhs).expect("U256 addition overflow")
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).expect("U256 subtraction underflow")
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        self.checked_mul(rhs).expect("U256 multiplication overflow")
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in 0..(4 - limb_shift) {
            out[i] = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                out[i] |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Shr<u32> for U512 {
    type Output = U512;
    fn shr(self, shift: u32) -> U512 {
        if shift >= 512 {
            return U512::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 8];
        for i in 0..(8 - limb_shift) {
            out[i] = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 8 {
                out[i] |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U512(out)
    }
}

impl Shl<u32> for U512 {
    type Output = U512;
    fn shl(self, shift: u32) -> U512 {
        if shift >= 512 {
            return U512::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 8];
        for i in (limb_shift..8).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U512(out)
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U512 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..8).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U512 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256({self})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = *self;
        let ten = U256::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(ten);
            digits.push(b'0' + r.low_u64() as u8);
            cur = q;
        }
        digits.reverse();
        f.write_str(std::str::from_utf8(&digits).expect("decimal digits are ascii"))
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            write!(f, "0x")?;
        }
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(0x")?;
        for i in (0..8).rev() {
            write!(f, "{:016x}", self.0[i])?;
        }
        write!(f, ")")
    }
}

impl std::str::FromStr for U256 {
    type Err = ParseU256Error;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        U256::from_dec_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    /// Deterministic xorshift for the fast-path differential checks.
    fn rng(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn pow2_exp_detects_exact_powers_only() {
        for k in [0u32, 1, 63, 64, 96, 128, 255] {
            assert_eq!(U256::pow2(k).pow2_exp(), Some(k), "2^{k}");
        }
        assert_eq!(U256::ZERO.pow2_exp(), None);
        assert_eq!(u(3).pow2_exp(), None);
        assert_eq!((U256::pow2(96) + U256::ONE).pow2_exp(), None);
        assert_eq!((U256::pow2(200) + U256::pow2(10)).pow2_exp(), None);
    }

    #[test]
    fn mul_div_pow2_fast_paths_match_generic() {
        // shift fast paths (pow2 multiplier / divisor) must agree with the
        // long-division route bit for bit, including the ceil carry
        let mut seed = 0xDEADBEEFu64;
        for _ in 0..2000 {
            let a = U256([rng(&mut seed), rng(&mut seed), 0, 0]);
            let odd = U256::from_u64(rng(&mut seed) | 1);
            for k in [1u32, 64, 96, 128] {
                let p2 = U256::pow2(k);
                // divisor = 2^k: floor and ceil against plain shift math
                let prod = a.full_mul(odd);
                let expect_floor = (prod >> k).to_u256().unwrap();
                assert_eq!(a.mul_div(odd, p2), expect_floor);
                let expect_ceil = if prod.low_bits_nonzero(k) {
                    expect_floor + U256::ONE
                } else {
                    expect_floor
                };
                assert_eq!(a.mul_div_rounding_up(odd, p2), expect_ceil);
                // multiplier = 2^k: against the explicit widening product
                assert_eq!(
                    a.mul_div(p2, odd),
                    (U512::from_u256(a) << k)
                        .div_rem_u256(odd)
                        .0
                        .to_u256()
                        .unwrap()
                );
            }
        }
    }

    #[test]
    fn full_width_divisor_with_unset_top_bit() {
        // regression: an 8-limb divisor whose top limb needs a
        // normalization shift must not overrun the scratch buffer
        let (q, r) = U512::pow2(500).div_rem(U512::pow2(450));
        assert_eq!(q, U512::pow2(50));
        assert!(r.is_zero());
        // d = 3·2^448 (8 limbs, top limb 3 → shift 62):
        // 2^511 = d·⌊(2^63−2)/3⌋ + 2^449
        let d = U512::pow2(449).checked_add(U512::pow2(448)).unwrap();
        let (q, r) = U512::pow2(511).div_rem(d);
        assert_eq!(
            q,
            U512::from_limbs([3_074_457_345_618_258_602, 0, 0, 0, 0, 0, 0, 0])
        );
        assert_eq!(r, U512::pow2(449));
    }

    #[test]
    fn low_bits_nonzero_boundaries() {
        let v = U512::pow2(100);
        assert!(!v.low_bits_nonzero(100));
        assert!(v.low_bits_nonzero(101));
        assert!(!U512::ZERO.low_bits_nonzero(512));
        assert!(U512::ONE.low_bits_nonzero(1));
        assert!(!U512::ONE.low_bits_nonzero(0));
    }

    #[test]
    fn reciprocal_matches_definition() {
        // v = floor((2^128 - 1) / d) - 2^64 for normalized d
        let mut seed = 0xBEEF_CAFE_u64;
        for _ in 0..2000 {
            let d = rng(&mut seed) | (1 << 63);
            let v = reciprocal_u64(d);
            let expect = (u128::MAX / d as u128) - (1u128 << 64);
            assert_eq!(v as u128, expect, "d = {d:#x}");
        }
    }

    #[test]
    fn two_limb_reciprocal_matches_definition() {
        // v = floor((2^192 - 1) / d) - 2^64 for normalized 2-limb d,
        // checked against the Knuth core computing the same quotient
        let mut seed = 0x2B1B_D1D0_u64 ^ 0x5555;
        for _ in 0..500 {
            let d1 = rng(&mut seed) | (1 << 63);
            let d0 = rng(&mut seed);
            let v = reciprocal_2_limbs(d1, d0);
            // (2^192 - 1) / d via the oracle
            let num = [u64::MAX, u64::MAX, u64::MAX, 0, 0, 0, 0, 0];
            let div = [d0, d1, 0, 0, 0, 0, 0, 0];
            let (q, _) = div_rem_knuth(&num, &div, 3, 2);
            let expect = q[0];
            assert_eq!(q[1], 1, "quotient of 3-limb max by normalized 2-limb");
            assert_eq!(v, expect, "d = ({d1:#x}, {d0:#x})");
        }
    }

    #[test]
    fn two_limb_divisor_division_reconstructs() {
        // q·d + r == num and r < d across random shapes that exercise the
        // reciprocal path (2-limb divisors, numerators of 2..8 limbs)
        let mut seed = 0x0DD5_EED5u64;
        for _ in 0..3000 {
            let d = U256([rng(&mut seed), rng(&mut seed) | 1, 0, 0]);
            let n_limbs = 2 + (rng(&mut seed) % 7) as usize;
            let mut nl = [0u64; 8];
            for l in nl.iter_mut().take(n_limbs) {
                *l = rng(&mut seed);
            }
            let num = U512(nl);
            let (q, r) = num.div_rem_u256(d);
            assert!(r < d, "remainder not reduced");
            let back = q
                .to_u256()
                .map(|q256| q256.full_mul(d))
                .unwrap_or_else(|| {
                    // quotient wider than 256 bits: multiply limb-wise
                    let mut acc = U512::ZERO;
                    for (i, &l) in q.0.iter().enumerate() {
                        let part = d.full_mul(U256::from_u64(l));
                        let mut shifted = part;
                        for _ in 0..i {
                            shifted = shifted << 64;
                        }
                        acc = acc.checked_add(shifted).expect("no overflow by invariant");
                    }
                    acc
                })
                .checked_add(U512::from_u256(r))
                .expect("q*d + r fits");
            assert_eq!(back, num);
        }
    }

    #[test]
    fn sqrt_price_shaped_divisors_agree_with_oracle() {
        // Q64.96 sqrt prices are ~97–128-bit (2-limb) values: the exact
        // shape the mul_div hot path divides by
        let mut seed = 0x5117_BEEF_u64;
        for _ in 0..2000 {
            let price = U256::pow2(96) + U256::from_u128(rng(&mut seed) as u128);
            let a = U256([rng(&mut seed), rng(&mut seed), rng(&mut seed), 0]);
            let b = U256::from_u128(((rng(&mut seed) as u128) << 64) | rng(&mut seed) as u128);
            let (q, r) = a.full_mul(b).div_rem_u256(price);
            let back = {
                let mut acc = U512::from_u256(r);
                for (i, &l) in q.0.iter().enumerate() {
                    let part = price.full_mul(U256::from_u64(l));
                    acc = acc
                        .checked_add(part << (64 * i as u32))
                        .expect("reconstruction fits");
                }
                acc
            };
            assert_eq!(back, a.full_mul(b));
        }
    }

    #[test]
    fn division_matches_u128_reference() {
        // the allocation-free Knuth core against native 128-bit division
        let mut seed = 0xC0FFEEu64;
        for _ in 0..5000 {
            let a = ((rng(&mut seed) as u128) << 64) | rng(&mut seed) as u128;
            let b = ((rng(&mut seed) as u128) << (rng(&mut seed) % 64)) | 1;
            let (q, r) = U256::from_u128(a).div_rem(U256::from_u128(b));
            assert_eq!(q.to_u128().unwrap(), a / b, "{a} / {b}");
            assert_eq!(r.to_u128().unwrap(), a % b, "{a} % {b}");
        }
    }

    #[test]
    fn division_recovers_constructed_quotients() {
        // build num = q·d + r with r < d, then check div_rem_u256 returns
        // exactly (q, r) across random operand shapes
        let mut seed = 0xFEED5EEDu64;
        for _ in 0..2000 {
            let q_limbs = 1 + (rng(&mut seed) % 4) as usize;
            let mut ql = [0u64; 4];
            for l in ql.iter_mut().take(q_limbs) {
                *l = rng(&mut seed);
            }
            let q = U256(ql);
            let d_limbs = 1 + (rng(&mut seed) % 4) as usize;
            let mut dl = [0u64; 4];
            for l in dl.iter_mut().take(d_limbs) {
                *l = rng(&mut seed);
            }
            dl[0] |= 1;
            let d = U256(dl);
            let r = U256([rng(&mut seed), 0, 0, 0]).div_rem(d).1;
            let num = q
                .full_mul(d)
                .checked_add(U512::from_u256(r))
                .expect("fits 512 bits");
            let (got_q, got_r) = num.div_rem_u256(d);
            assert_eq!(got_q, U512::from_u256(q));
            assert_eq!(got_r, r);
        }
    }

    #[test]
    fn add_sub_basic() {
        assert_eq!(u(2) + u(3), u(5));
        assert_eq!(u(5) - u(3), u(2));
        let (v, c) = U256::MAX.overflowing_add(U256::ONE);
        assert!(c);
        assert_eq!(v, U256::ZERO);
        let (v, b) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(b);
        assert_eq!(v, U256::MAX);
    }

    #[test]
    fn carries_propagate_across_limbs() {
        let a = U256([u64::MAX, u64::MAX, 0, 0]);
        let sum = a + U256::ONE;
        assert_eq!(sum, U256([0, 0, 1, 0]));
        assert_eq!(sum - U256::ONE, a);
    }

    #[test]
    fn mul_full_width() {
        let a = U256::from_u128(u128::MAX);
        let sq = a.full_mul(a);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect = U512::pow2(256)
            .checked_sub(U512::pow2(129))
            .unwrap()
            .checked_add(U512::ONE)
            .unwrap();
        assert_eq!(sq, expect);
    }

    #[test]
    fn div_rem_roundtrip() {
        let n = U256::from_dec_str("340282366920938463463374607431768211455123456789").unwrap();
        let d = U256::from_dec_str("987654321987654321").unwrap();
        let (q, r) = n.div_rem(d);
        assert_eq!(q * d + r, n);
        assert!(r < d);
    }

    #[test]
    fn div_by_larger_is_zero() {
        let (q, r) = u(5).div_rem(u(7));
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, u(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = u(1).div_rem(U256::ZERO);
    }

    #[test]
    fn u512_div_rem_roundtrip() {
        let a = U256::MAX;
        let b = U256::from_dec_str("123456789123456789123456789").unwrap();
        let prod = a.full_mul(b);
        let (q, r) = prod.div_rem_u256(b);
        assert_eq!(q.to_u256().unwrap(), a);
        assert_eq!(r, U256::ZERO);
        let (q2, r2) = prod.div_rem_u256(a);
        assert_eq!(q2.to_u256().unwrap(), b);
        assert_eq!(r2, U256::ZERO);
    }

    #[test]
    fn mul_div_matches_exact() {
        // (2^200 * 3) / 2^100 == 3 * 2^100
        let a = U256::pow2(200);
        let out = a.mul_div(u(3), U256::pow2(100));
        assert_eq!(out, U256::pow2(100) * u(3));
    }

    #[test]
    fn mul_div_rounding_up_adds_one_on_remainder() {
        assert_eq!(u(10).mul_div(u(1), u(3)), u(3));
        assert_eq!(u(10).mul_div_rounding_up(u(1), u(3)), u(4));
        assert_eq!(u(9).mul_div_rounding_up(u(1), u(3)), u(3));
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!(one << 255, U256([0, 0, 0, 1 << 63]));
        assert_eq!((one << 255) >> 255, one);
        assert_eq!(one << 256, U256::ZERO);
        assert_eq!(U256::pow2(100) >> 36, U256::pow2(64));
        let x = U512::pow2(300);
        assert_eq!(x >> 44, U512::pow2(256));
    }

    #[test]
    fn isqrt_small_and_large() {
        assert_eq!(U256::ZERO.isqrt(), U256::ZERO);
        assert_eq!(u(1).isqrt(), u(1));
        assert_eq!(u(15).isqrt(), u(3));
        assert_eq!(u(16).isqrt(), u(4));
        assert_eq!(u(17).isqrt(), u(4));
        let big = U256::pow2(200);
        assert_eq!(big.isqrt(), U256::pow2(100));
        // U512 sqrt of 2^400
        assert_eq!(U512::pow2(400).isqrt(), U256::pow2(200));
        // max: isqrt(2^512 - 1) = 2^256 - 1
        let max512 = U512([u64::MAX; 8]);
        assert_eq!(max512.isqrt(), U256::MAX);
    }

    #[test]
    fn dec_string_roundtrip() {
        let cases = [
            "0",
            "1",
            "1000000000000000000000000000000000000",
            "115792089237316195423570985008687907853269984665640564039457584007913129639935",
        ];
        for c in cases {
            assert_eq!(U256::from_dec_str(c).unwrap().to_string(), c);
        }
        assert!(U256::from_dec_str(
            "115792089237316195423570985008687907853269984665640564039457584007913129639936"
        )
        .is_err());
        assert!(U256::from_dec_str("12a").is_err());
        assert!(U256::from_dec_str("").is_err());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_dec_str("123456789012345678901234567890").unwrap();
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        let b = U256::ONE.to_be_bytes();
        assert_eq!(b[31], 1);
        assert!(b[..31].iter().all(|&x| x == 0));
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::pow2(200).bits(), 201);
        assert!(U256::pow2(200).bit(200));
        assert!(!U256::pow2(200).bit(199));
    }

    #[test]
    fn ordering() {
        assert!(U256::pow2(128) > U256::from_u128(u128::MAX));
        assert!(u(3) < u(4));
        assert_eq!(u(4).cmp(&u(4)), Ordering::Equal);
    }

    #[test]
    fn hex_display() {
        assert_eq!(
            format!("{:x}", U256::ONE),
            "0000000000000000000000000000000000000000000000000000000000000001"
        );
        assert!(format!("{:#x}", U256::ONE).starts_with("0x"));
    }

    #[test]
    fn knuth_d6_addback_case() {
        // Construct a case that forces the rare add-back branch:
        // numerator = 2^256 - 1, divisor = (2^128) + 3 style values.
        let n = U512::from_u256(U256::MAX);
        let d = U256::pow2(128) + u(3);
        let (q, r) = n.div_rem_u256(d);
        let q = q.to_u256().unwrap();
        assert_eq!(q.full_mul(d).to_u256().unwrap() + r, U256::MAX);
        assert!(r < d);
    }
}
