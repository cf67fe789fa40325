//! Word-packed tick bitmap: O(1) next-initialized-tick lookup for the
//! swap loop.
//!
//! Ticks are compressed by the pool's tick spacing and stored as single
//! bits in 64-bit words, keyed by word index — the same layout Uniswap V3
//! uses (there with 256-bit words) and the one production pool-sync
//! engines mirror off-chain. Finding the next initialized tick in the
//! direction of travel becomes a mask + leading/trailing-zero count
//! inside the current word; when the word is exhausted, a sorted index of
//! *occupied* words jumps straight to the next word that has any bit set,
//! so sparse pools never scan empty space.
//!
//! Compared with the seed `BTreeMap::range` scan this replaces a
//! logarithmic, pointer-chasing search per swap step with one or two
//! hash-map probes and a handful of register operations. The pool's swap
//! loop still runs the seed scan in debug builds, as an assertion.

use crate::fast_hash::FastIntBuildHasher;
use crate::types::Tick;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Bits per bitmap word.
const WORD_BITS: i32 = 64;

/// A bitmap over initialized ticks, compressed by tick spacing.
///
/// Maintained incrementally by the pool: a tick's bit is set when its
/// `liquidity_gross` becomes non-zero and cleared when the tick is
/// removed. All lookups assume (and the pool guarantees) that only
/// spacing-aligned ticks are ever flipped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickBitmap {
    spacing: i32,
    /// Word index → 64 tick bits. Empty words are removed.
    words: HashMap<i16, u64, FastIntBuildHasher>,
    /// Sorted index of words with at least one bit set — the cross-word
    /// fallback when the current word has no candidate.
    occupied: BTreeSet<i16>,
}

impl TickBitmap {
    /// An empty bitmap for the given tick spacing.
    ///
    /// # Panics
    /// Panics on non-positive spacing — the pool validates it first.
    pub fn new(spacing: i32) -> TickBitmap {
        assert!(spacing > 0, "tick spacing must be positive");
        TickBitmap {
            spacing,
            words: HashMap::default(),
            occupied: BTreeSet::new(),
        }
    }

    /// The tick spacing this bitmap compresses by.
    #[inline]
    pub fn spacing(&self) -> i32 {
        self.spacing
    }

    /// Number of initialized ticks recorded.
    pub fn initialized_count(&self) -> usize {
        self.words.values().map(|w| w.count_ones() as usize).sum()
    }

    #[inline]
    fn compress(&self, tick: Tick) -> i32 {
        // Round towards negative infinity, exactly as Uniswap's
        // `compress--` adjustment for negative unaligned ticks.
        tick.div_euclid(self.spacing)
    }

    #[inline]
    fn position(compressed: i32) -> (i16, u32) {
        ((compressed >> 6) as i16, (compressed & 63) as u32)
    }

    #[inline]
    fn tick_at(&self, word: i16, bit: u32) -> Tick {
        (i32::from(word) * WORD_BITS + bit as i32) * self.spacing
    }

    /// Marks `tick` initialized. Idempotent.
    pub fn set(&mut self, tick: Tick) {
        debug_assert_eq!(tick % self.spacing, 0, "tick {tick} not aligned");
        let (word, bit) = Self::position(self.compress(tick));
        *self.words.entry(word).or_insert(0) |= 1u64 << bit;
        self.occupied.insert(word);
    }

    /// Marks `tick` uninitialized. Idempotent.
    pub fn clear(&mut self, tick: Tick) {
        let (word, bit) = Self::position(self.compress(tick));
        if let Some(w) = self.words.get_mut(&word) {
            *w &= !(1u64 << bit);
            if *w == 0 {
                self.words.remove(&word);
                self.occupied.remove(&word);
            }
        }
    }

    /// Whether `tick`'s bit is set.
    pub fn is_initialized(&self, tick: Tick) -> bool {
        if tick % self.spacing != 0 {
            return false;
        }
        let (word, bit) = Self::position(self.compress(tick));
        self.words
            .get(&word)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// The next initialized tick in the direction of travel, across word
    /// boundaries: ≤ `tick` when `lte`, > `tick` otherwise. `None` when no
    /// initialized tick remains on that side.
    ///
    /// The current word is probed with a mask; beyond it, the occupied-word
    /// index jumps directly to the next word with any bit set, skipping
    /// empty space entirely.
    pub fn next_initialized_tick(&self, tick: Tick, lte: bool) -> Option<Tick> {
        if lte {
            let compressed = self.compress(tick);
            let (word, bit) = Self::position(compressed);
            if let Some(&w) = self.words.get(&word) {
                let masked = w & (u64::MAX >> (63 - bit));
                if masked != 0 {
                    let msb = 63 - masked.leading_zeros();
                    return Some(self.tick_at(word, msb));
                }
            }
            let prev = *self.occupied.range(..word).next_back()?;
            let w = self.words[&prev];
            let msb = 63 - w.leading_zeros();
            Some(self.tick_at(prev, msb))
        } else {
            let compressed = self.compress(tick) + 1;
            let (word, bit) = Self::position(compressed);
            if let Some(&w) = self.words.get(&word) {
                let masked = w & (u64::MAX << bit);
                if masked != 0 {
                    let lsb = masked.trailing_zeros();
                    return Some(self.tick_at(word, lsb));
                }
            }
            let next = *self.occupied.range(word + 1..).next()?;
            let w = self.words[&next];
            let lsb = w.trailing_zeros();
            Some(self.tick_at(next, lsb))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn set_clear_roundtrip() {
        let mut b = TickBitmap::new(60);
        assert!(!b.is_initialized(120));
        b.set(120);
        assert!(b.is_initialized(120));
        assert_eq!(b.initialized_count(), 1);
        b.set(120); // idempotent
        assert_eq!(b.initialized_count(), 1);
        b.clear(120);
        assert!(!b.is_initialized(120));
        assert_eq!(b.initialized_count(), 0);
        b.clear(120); // idempotent
    }

    #[test]
    fn negative_ticks_and_word_boundaries() {
        let mut b = TickBitmap::new(1);
        for t in [-64, -63, -1, 0, 63, 64, -887272, 887272] {
            b.set(t);
            assert!(b.is_initialized(t), "tick {t}");
        }
        assert_eq!(b.initialized_count(), 8);
        for t in [-64, -63, -1, 0, 63, 64, -887272, 887272] {
            b.clear(t);
            assert!(!b.is_initialized(t), "tick {t}");
        }
        assert!(b.words.is_empty() && b.occupied.is_empty());
    }

    #[test]
    fn unaligned_tick_is_never_initialized() {
        let mut b = TickBitmap::new(60);
        b.set(-60);
        assert!(!b.is_initialized(-59));
        assert!(!b.is_initialized(-1));
    }

    #[test]
    fn cross_word_jumps_skip_empty_space() {
        let mut b = TickBitmap::new(1);
        b.set(-10_000);
        b.set(10_000);
        assert_eq!(b.next_initialized_tick(0, true), Some(-10_000));
        assert_eq!(b.next_initialized_tick(0, false), Some(10_000));
        assert_eq!(b.next_initialized_tick(-10_000, true), Some(-10_000));
        assert_eq!(b.next_initialized_tick(-10_001, true), None);
        assert_eq!(b.next_initialized_tick(10_000, false), None);
        assert_eq!(b.next_initialized_tick(9_999, false), Some(10_000));
    }

    #[test]
    fn spacing_compression() {
        let mut b = TickBitmap::new(60);
        b.set(-120);
        b.set(180);
        // unaligned probe ticks floor correctly in both directions
        assert_eq!(b.next_initialized_tick(-61, true), Some(-120));
        assert_eq!(b.next_initialized_tick(-119, true), Some(-120));
        assert_eq!(b.next_initialized_tick(-120, true), Some(-120));
        assert_eq!(b.next_initialized_tick(-121, true), None);
        assert_eq!(b.next_initialized_tick(179, false), Some(180));
        assert_eq!(b.next_initialized_tick(180, false), None);
        assert_eq!(b.next_initialized_tick(-500, false), Some(-120));
    }

    /// Differential check against a plain ordered set under a
    /// deterministic pseudo-random flip/query schedule.
    #[test]
    fn agrees_with_btreeset_reference() {
        let spacing = 10;
        let mut bitmap = TickBitmap::new(spacing);
        let mut reference: BTreeSet<Tick> = BTreeSet::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let tick = ((next() % 2001) as i32 - 1000) * spacing;
            if next() % 2 == 0 {
                bitmap.set(tick);
                reference.insert(tick);
            } else {
                bitmap.clear(tick);
                reference.remove(&tick);
            }
            let probe = (next() % 20_100) as i32 - 10_050; // often unaligned
            let want_lte = reference.range(..=probe).next_back().copied();
            let want_gt = reference.range(probe + 1..).next().copied();
            assert_eq!(bitmap.next_initialized_tick(probe, true), want_lte);
            assert_eq!(bitmap.next_initialized_tick(probe, false), want_gt);
        }
        assert_eq!(bitmap.initialized_count(), reference.len());
    }
}
