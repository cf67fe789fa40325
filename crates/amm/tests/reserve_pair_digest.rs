//! Bit-identity pins for the reserve-pair engines.
//!
//! Each digest folds every result (or error) of a long seeded operation
//! stream — swaps both ways and both budgets, joins, exits, collects —
//! plus periodic `export_state()` snapshots into one Keccak hash. The
//! expected values were taken on the commit *before* the reserve-pair
//! math moved onto the native 128-bit kernel, so any arithmetic change
//! that moves a single bit of an amount, a share count, a reserve or an
//! error fails here. Two reserve scales run per engine: the workloads'
//! 4·10¹⁵ (every divisor below 2⁶⁴) and ~10³⁰ (every share total and
//! most reserves above 2⁶⁴, so the wide route is pinned too).

use ammboost_amm::engines::bmath::{bdiv, bmul, bmul_up, bpow, BONE, MAX_BPOW_BASE};
use ammboost_amm::engines::{CpEngine, Engine, EngineState, SharePosition, WeightedEngine};
use ammboost_amm::pool::SwapKind;
use ammboost_amm::types::PositionId;
use ammboost_amm::AmmError;
use ammboost_crypto::keccak::keccak256;
use ammboost_crypto::Address;

const OPS: u64 = 10_000;
const LPS: u64 = 8;

/// SplitMix64: a dependency-free seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `x >> shift` plus a few random low bits, so amounts are never
    /// round fractions of a reserve.
    fn fraction_of(&mut self, x: u128, min_shift: u64, max_shift: u64) -> u128 {
        let shift = min_shift + self.below(max_shift - min_shift + 1);
        (x >> shift) + (self.next() as u128 & 0xFFFF)
    }
}

/// Accumulates a canonical byte stream and hashes it once.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    fn err(&mut self, e: &AmmError) {
        self.0.push(0xEE);
        self.0.extend_from_slice(format!("{e:?}").as_bytes());
    }

    fn result<T>(&mut self, r: &Result<T, AmmError>, ok: impl FnOnce(&mut Digest, &T)) {
        match r {
            Ok(v) => {
                self.0.push(0x01);
                ok(self, v);
            }
            Err(e) => self.err(e),
        }
    }

    fn positions(&mut self, positions: &[(PositionId, SharePosition)]) {
        for (id, p) in positions {
            self.0.extend_from_slice(&id.0 .0);
            self.0.extend_from_slice(&p.owner.0);
            self.u128(p.shares);
            self.u128(p.owed0);
            self.u128(p.owed1);
        }
    }

    fn state(&mut self, state: &EngineState) {
        match state {
            EngineState::Cp(s) => {
                self.u128(s.fee_pips as u128);
                self.u128(s.reserve0);
                self.u128(s.reserve1);
                self.positions(&s.positions);
            }
            EngineState::Weighted(s) => {
                self.u128(s.fee_pips as u128);
                self.u128(s.weight0);
                self.u128(s.weight1);
                self.u128(s.reserve0);
                self.u128(s.reserve1);
                self.positions(&s.positions);
            }
            EngineState::Cl(_) => unreachable!("reserve-pair engines only"),
        }
    }

    fn hex(&self) -> String {
        keccak256(&self.0)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

fn lp(k: u64) -> (PositionId, Address) {
    (
        PositionId::derive(&[b"digest-lp", &k.to_be_bytes()]),
        Address::from_index(k + 1),
    )
}

/// Runs the seeded stream against `engine` seeded at `(r0, r1)`.
fn engine_digest(mut engine: Engine, seed: u64, r0: u128, r1: u128) -> String {
    let mut rng = Rng(seed);
    let mut d = Digest::default();
    let (id, owner) = lp(0);
    let genesis = engine.mint(id, owner, 0, 0, r0, r1);
    d.result(&genesis, |d, (s, used)| {
        d.u128(*s);
        d.u128(used.amount0);
        d.u128(used.amount1);
    });
    for i in 0..OPS {
        let reserves = engine.balances();
        let zero_for_one = rng.next() & 1 == 1;
        let (r_in, r_out) = if zero_for_one {
            (reserves.amount0, reserves.amount1)
        } else {
            (reserves.amount1, reserves.amount0)
        };
        let (id, owner) = lp(rng.below(LPS));
        match rng.below(10) {
            0..=2 => {
                let kind = SwapKind::ExactInput(rng.fraction_of(r_in, 1, 56));
                let r = engine.swap(zero_for_one, kind, None);
                d.result(&r, |d, s| {
                    d.u128(s.amount_in);
                    d.u128(s.amount_out);
                    d.u128(s.fee_paid);
                });
            }
            3..=4 => {
                let kind = SwapKind::ExactOutput(rng.fraction_of(r_out, 1, 56));
                let r = engine.swap(zero_for_one, kind, None);
                d.result(&r, |d, s| {
                    d.u128(s.amount_in);
                    d.u128(s.amount_out);
                    d.u128(s.fee_paid);
                });
            }
            5..=6 => {
                let a0 = rng.fraction_of(reserves.amount0, 4, 48);
                let a1 = rng.fraction_of(reserves.amount1, 4, 48);
                let r = engine.mint(id, owner, 0, 0, a0, a1);
                d.result(&r, |d, (s, used)| {
                    d.u128(*s);
                    d.u128(used.amount0);
                    d.u128(used.amount1);
                });
            }
            7..=8 => {
                let held = engine.position_info(&id).map_or(0, |p| p.liquidity);
                let shares = match rng.below(4) {
                    0 => held,
                    1 => held + 1,
                    _ => held >> (1 + rng.below(20)),
                };
                let r = engine.burn(id, owner, shares);
                d.result(&r, |d, out| {
                    d.u128(out.amount0);
                    d.u128(out.amount1);
                });
            }
            _ => {
                let want = rng.next() as u128;
                let r = engine.collect(id, owner, want, u128::MAX);
                d.result(&r, |d, out| {
                    d.u128(out.amount0);
                    d.u128(out.amount1);
                });
            }
        }
        if i % 250 == 249 {
            d.state(&engine.export_state());
        }
    }
    d.state(&engine.export_state());
    d.hex()
}

fn cp() -> Engine {
    Engine::Cp(CpEngine::new(3000).unwrap())
}

fn weighted(w0: u32, w1: u32) -> Engine {
    Engine::Weighted(WeightedEngine::new(3000, w0, w1).unwrap())
}

const SMALL: (u128, u128) = (4_000_000_000_000_000, 4_000_000_000_000_000);
const WIDE: (u128, u128) = (
    3_141_592_653_589_793_238_462_643_383_279,
    706_787_931_417_253_649_125_010_393_091,
);

#[test]
fn constant_product_stream_is_bit_identical() {
    assert_eq!(
        engine_digest(cp(), 1, SMALL.0, SMALL.1),
        "7a6dd39eb19a456d1e9b00d65ba4d79253db9421adb78d10111993f71d67b4d8"
    );
}

#[test]
fn constant_product_wide_stream_is_bit_identical() {
    assert_eq!(
        engine_digest(cp(), 2, WIDE.0, WIDE.1),
        "d55aa3b2adb328ca420fb799c3ca7fc945739f67250385d7900b617a9940056e"
    );
}

#[test]
fn weighted_stream_is_bit_identical() {
    assert_eq!(
        engine_digest(weighted(80, 20), 3, SMALL.0, SMALL.1),
        "7d36cc830bcc4425968c7cf227902e536bb64d263e32596b2b7242bc16721358"
    );
}

#[test]
fn weighted_wide_stream_is_bit_identical() {
    assert_eq!(
        engine_digest(weighted(1, 3), 4, WIDE.0, WIDE.1),
        "529680a1aa1cb12cf23ae858287d59583371fa7ecc5e14d5f29e225745f7b241"
    );
}

/// `bpow` over a base × exponent grid spanning the whole admissible base
/// domain and both the integer (`bpowi`) and the series path, plus the
/// three fixed-point primitives over random operand shapes.
#[test]
fn bmath_grid_is_bit_identical() {
    let mut d = Digest::default();
    let mut bases: Vec<u128> = (1..40).map(|k| k * BONE / 20).collect();
    bases.extend([
        1,
        BONE - 1,
        BONE + 1,
        MAX_BPOW_BASE,
        2 * BONE / 3,
        3 * BONE / 2,
    ]);
    let mut exps: Vec<u128> = (0..=24).map(|j| j * BONE / 8).collect();
    exps.extend([BONE / 5, 4 * BONE / 5, 3 * BONE, BONE / 3, 4 * BONE + 7]);
    for &base in &bases {
        for &exp in &exps {
            d.result(&bpow(base, exp), |d, v| d.u128(*v));
        }
    }
    let mut rng = Rng(5);
    for _ in 0..OPS {
        let a = (((rng.next() as u128) << 64) | rng.next() as u128) >> rng.below(128);
        let b = (((rng.next() as u128) << 64) | rng.next() as u128) >> rng.below(128);
        d.result(&bmul(a, b), |d, v| d.u128(*v));
        d.result(&bmul_up(a, b), |d, v| d.u128(*v));
        d.result(&bdiv(a, b), |d, v| d.u128(*v));
    }
    assert_eq!(
        d.hex(),
        "6d877b999228e2268e2ad4fb4a7b66f509cd659c794674e461ecc6a6f5fdf005"
    );
}
