//! Zero-copy position storage: sorted fixed-stride records + lazy overlay.
//!
//! A snapshot's position section is a run of fixed-size big-endian records
//! sorted by position id. [`PositionRecords`] keeps that encoding as-is
//! behind an `Arc<[u8]>` and answers point lookups by binary search over
//! the 32-byte id prefixes — restoring a pool never decodes positions it
//! will not touch. [`PositionTable`] layers a copy-on-write overlay on top
//! so the hot path (mint/burn/collect on a handful of positions) mutates
//! decoded `Position` values while the untouched bulk stays raw bytes, and
//! re-exporting an untouched table is an `Arc` clone, not a re-encode.

use crate::pool::Position;
use crate::types::PositionId;
use ammboost_crypto::{Address, H256, U256};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Wire size of one position record: id (32), owner (20), tick_lower (4),
/// tick_upper (4), liquidity (16), fee_growth_inside0_last (32),
/// fee_growth_inside1_last (32), tokens_owed0 (16), tokens_owed1 (16).
pub const POSITION_RECORD_BYTES: usize = 172;

/// Why a raw byte run was rejected as a position-record array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordsError {
    /// The byte length is not a multiple of [`POSITION_RECORD_BYTES`].
    Stride {
        /// Offending byte length.
        len: usize,
    },
    /// Record ids are not strictly ascending.
    Unsorted {
        /// Index of the first record whose id is ≤ its predecessor's.
        index: usize,
    },
}

impl fmt::Display for RecordsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordsError::Stride { len } => {
                write!(
                    f,
                    "{len} bytes is not a multiple of {POSITION_RECORD_BYTES}"
                )
            }
            RecordsError::Unsorted { index } => {
                write!(f, "position record {index} is not strictly ascending by id")
            }
        }
    }
}

impl std::error::Error for RecordsError {}

fn pack_into(id: &PositionId, p: &Position, out: &mut Vec<u8>) {
    out.extend_from_slice(&id.0 .0);
    out.extend_from_slice(&p.owner.0);
    out.extend_from_slice(&p.tick_lower.to_be_bytes());
    out.extend_from_slice(&p.tick_upper.to_be_bytes());
    out.extend_from_slice(&p.liquidity.to_be_bytes());
    out.extend_from_slice(&p.fee_growth_inside0_last.to_be_bytes());
    out.extend_from_slice(&p.fee_growth_inside1_last.to_be_bytes());
    out.extend_from_slice(&p.tokens_owed0.to_be_bytes());
    out.extend_from_slice(&p.tokens_owed1.to_be_bytes());
}

fn unpack(rec: &[u8]) -> (PositionId, Position) {
    debug_assert_eq!(rec.len(), POSITION_RECORD_BYTES);
    let arr = |r: std::ops::Range<usize>| -> [u8; 32] { rec[r].try_into().unwrap() };
    let id = PositionId(H256(arr(0..32)));
    let pos = Position {
        owner: Address(rec[32..52].try_into().unwrap()),
        tick_lower: i32::from_be_bytes(rec[52..56].try_into().unwrap()),
        tick_upper: i32::from_be_bytes(rec[56..60].try_into().unwrap()),
        liquidity: u128::from_be_bytes(rec[60..76].try_into().unwrap()),
        fee_growth_inside0_last: U256::from_be_bytes(arr(76..108)),
        fee_growth_inside1_last: U256::from_be_bytes(arr(108..140)),
        tokens_owed0: u128::from_be_bytes(rec[140..156].try_into().unwrap()),
        tokens_owed1: u128::from_be_bytes(rec[156..172].try_into().unwrap()),
    };
    (id, pos)
}

/// An immutable, id-sorted array of fixed-stride position records, stored
/// exactly as they sit on the snapshot wire.
///
/// Cloning is an `Arc` bump; lookups binary-search the 32-byte id prefixes
/// without decoding the payloads they skip over.
#[derive(Clone)]
pub struct PositionRecords {
    raw: Arc<[u8]>,
    count: usize,
}

impl PositionRecords {
    /// An empty record array.
    pub fn new() -> PositionRecords {
        PositionRecords {
            raw: Arc::from(Vec::new()),
            count: 0,
        }
    }

    /// Packs decoded entries (any order, ids assumed unique) into sorted
    /// record form.
    pub fn from_entries(mut entries: Vec<(PositionId, Position)>) -> PositionRecords {
        entries.sort_by_key(|(id, _)| *id);
        let mut raw = Vec::with_capacity(entries.len() * POSITION_RECORD_BYTES);
        for (id, p) in &entries {
            pack_into(id, p, &mut raw);
        }
        PositionRecords {
            raw: raw.into(),
            count: entries.len(),
        }
    }

    /// Adopts an already-sorted raw byte run (e.g. straight off the
    /// snapshot wire). Validates only the stride and the strict id
    /// ordering — payload fields are left raw until someone reads them.
    pub fn from_sorted_raw(bytes: &[u8]) -> Result<PositionRecords, RecordsError> {
        if !bytes.len().is_multiple_of(POSITION_RECORD_BYTES) {
            return Err(RecordsError::Stride { len: bytes.len() });
        }
        let count = bytes.len() / POSITION_RECORD_BYTES;
        for i in 1..count {
            let prev = &bytes[(i - 1) * POSITION_RECORD_BYTES..][..32];
            let cur = &bytes[i * POSITION_RECORD_BYTES..][..32];
            if prev >= cur {
                return Err(RecordsError::Unsorted { index: i });
            }
        }
        Ok(PositionRecords {
            raw: Arc::from(bytes.to_vec()),
            count,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when there are no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw sorted record bytes, exactly as encoded on the wire.
    pub fn raw(&self) -> &[u8] {
        &self.raw
    }

    fn record(&self, i: usize) -> &[u8] {
        &self.raw[i * POSITION_RECORD_BYTES..(i + 1) * POSITION_RECORD_BYTES]
    }

    /// The id of record `i` (decodes only the 32-byte prefix).
    pub fn id_at(&self, i: usize) -> PositionId {
        PositionId(H256(self.record(i)[..32].try_into().unwrap()))
    }

    /// Decodes record `i` in full.
    pub fn entry_at(&self, i: usize) -> (PositionId, Position) {
        unpack(self.record(i))
    }

    /// Index of `id`'s record, by binary search over id prefixes.
    pub fn index_of(&self, id: &PositionId) -> Option<usize> {
        let key = &id.0 .0;
        let mut lo = 0usize;
        let mut hi = self.count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.record(mid)[..32].cmp(&key[..]) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Decodes the record for `id`, if present.
    pub fn get(&self, id: &PositionId) -> Option<Position> {
        self.index_of(id).map(|i| self.entry_at(i).1)
    }

    /// `true` when a record for `id` exists (no payload decode).
    pub fn contains(&self, id: &PositionId) -> bool {
        self.index_of(id).is_some()
    }

    /// Iterates the records in id order, decoding each on the fly.
    pub fn iter(&self) -> impl Iterator<Item = (PositionId, Position)> + '_ {
        (0..self.count).map(move |i| self.entry_at(i))
    }
}

impl Default for PositionRecords {
    fn default() -> Self {
        PositionRecords::new()
    }
}

impl PartialEq for PositionRecords {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl Eq for PositionRecords {}

impl fmt::Debug for PositionRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PositionRecords")
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

impl FromIterator<(PositionId, Position)> for PositionRecords {
    fn from_iter<T: IntoIterator<Item = (PositionId, Position)>>(iter: T) -> Self {
        PositionRecords::from_entries(iter.into_iter().collect())
    }
}

// the workspace's serde is an offline marker shim; the snapshot codec in
// `ammboost-state` is the real wire format for these records
impl Serialize for PositionRecords {}

impl<'de> Deserialize<'de> for PositionRecords {}

/// The pool's live position table: an immutable [`PositionRecords`] base
/// plus a decoded copy-on-write overlay.
///
/// Reads fall through to the base; writes materialize the record into the
/// overlay first. A removal of a base record leaves a tombstone (`None`)
/// so the base bytes stay shared. [`PositionTable::export_records`] is an
/// `Arc` clone when the overlay is empty, otherwise a single-pass sorted
/// merge of base bytes and overlay entries.
#[derive(Clone, Debug)]
pub struct PositionTable {
    base: PositionRecords,
    overlay: HashMap<PositionId, Option<Position>>,
    live: usize,
}

impl PositionTable {
    /// An empty table.
    pub fn new() -> PositionTable {
        PositionTable::from_records(PositionRecords::new())
    }

    /// Adopts a record array as the base with an empty overlay — O(1), no
    /// decoding.
    pub fn from_records(base: PositionRecords) -> PositionTable {
        let live = base.len();
        PositionTable {
            base,
            overlay: HashMap::new(),
            live,
        }
    }

    /// Number of live positions (base minus tombstones plus insertions).
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no positions are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Decoded records resident in the overlay (lazy-restore telemetry).
    pub fn materialized(&self) -> usize {
        self.overlay.len()
    }

    /// `true` when a live position exists for `id` (no payload decode).
    pub fn contains(&self, id: &PositionId) -> bool {
        match self.overlay.get(id) {
            Some(slot) => slot.is_some(),
            None => self.base.contains(id),
        }
    }

    /// Reads the position for `id`, decoding from the base on a miss.
    pub fn get(&self, id: &PositionId) -> Option<Position> {
        match self.overlay.get(id) {
            Some(slot) => slot.clone(),
            None => self.base.get(id),
        }
    }

    /// Mutable access, materializing the base record into the overlay on
    /// first touch. `None` when no live position exists.
    pub fn get_mut(&mut self, id: &PositionId) -> Option<&mut Position> {
        if !self.overlay.contains_key(id) {
            let from_base = self.base.get(id)?;
            self.overlay.insert(*id, Some(from_base));
        }
        self.overlay.get_mut(id)?.as_mut()
    }

    /// Mutable access to the position for `id`, inserting `default()`
    /// when none is live — the record-backed analogue of
    /// `HashMap::entry(..).or_insert_with(..)`.
    pub fn entry_or_insert_with(
        &mut self,
        id: PositionId,
        default: impl FnOnce() -> Position,
    ) -> &mut Position {
        let seeded = match self.overlay.get(&id) {
            Some(Some(_)) => None,
            Some(None) => {
                // tombstoned base record: resurrecting adds a live entry
                self.live += 1;
                Some(default())
            }
            None => match self.base.get(&id) {
                Some(p) => Some(p),
                None => {
                    self.live += 1;
                    Some(default())
                }
            },
        };
        if let Some(p) = seeded {
            self.overlay.insert(id, Some(p));
        }
        self.overlay
            .get_mut(&id)
            .and_then(|slot| slot.as_mut())
            .expect("slot seeded above")
    }

    /// Removes and returns the live position for `id`. Base records are
    /// tombstoned (the shared bytes are never rewritten).
    pub fn remove(&mut self, id: &PositionId) -> Option<Position> {
        let in_base = self.base.contains(id);
        match self.overlay.get_mut(id) {
            Some(slot @ Some(_)) => {
                let out = if in_base {
                    slot.take()
                } else {
                    self.overlay.remove(id).flatten()
                };
                self.live -= 1;
                out
            }
            Some(None) => None,
            None => {
                let out = self.base.get(id)?;
                self.overlay.insert(*id, None);
                self.live -= 1;
                Some(out)
            }
        }
    }

    /// Iterates live positions: materialized overlay entries first, then
    /// base records not shadowed by the overlay. Order is unspecified
    /// (matching the `HashMap` this replaces).
    pub fn iter(&self) -> impl Iterator<Item = (PositionId, Position)> + '_ {
        let from_overlay = self
            .overlay
            .iter()
            .filter_map(|(id, slot)| slot.clone().map(|p| (*id, p)));
        let from_base = self
            .base
            .iter()
            .filter(move |(id, _)| !self.overlay.contains_key(id));
        from_overlay.chain(from_base)
    }

    /// Exports the live set as sorted records. Zero-copy (`Arc` clone)
    /// when nothing was touched since [`PositionTable::from_records`];
    /// otherwise one sorted merge pass over base bytes and overlay.
    pub fn export_records(&self) -> PositionRecords {
        if self.overlay.is_empty() {
            return self.base.clone();
        }
        let mut ov: Vec<(&PositionId, &Option<Position>)> = self.overlay.iter().collect();
        ov.sort_by_key(|(id, _)| **id);
        let mut raw = Vec::with_capacity(self.live * POSITION_RECORD_BYTES);
        let mut count = 0usize;
        fn emit(id: &PositionId, slot: &Option<Position>, raw: &mut Vec<u8>, count: &mut usize) {
            if let Some(p) = slot {
                pack_into(id, p, raw);
                *count += 1;
            }
        }
        let (mut bi, mut oi) = (0usize, 0usize);
        while bi < self.base.len() && oi < ov.len() {
            let base_id = self.base.id_at(bi);
            match base_id.cmp(ov[oi].0) {
                std::cmp::Ordering::Less => {
                    raw.extend_from_slice(self.base.record(bi));
                    count += 1;
                    bi += 1;
                }
                std::cmp::Ordering::Equal => {
                    emit(ov[oi].0, ov[oi].1, &mut raw, &mut count);
                    bi += 1;
                    oi += 1;
                }
                std::cmp::Ordering::Greater => {
                    emit(ov[oi].0, ov[oi].1, &mut raw, &mut count);
                    oi += 1;
                }
            }
        }
        while bi < self.base.len() {
            raw.extend_from_slice(self.base.record(bi));
            count += 1;
            bi += 1;
        }
        while oi < ov.len() {
            emit(ov[oi].0, ov[oi].1, &mut raw, &mut count);
            oi += 1;
        }
        debug_assert_eq!(count, self.live);
        PositionRecords {
            raw: raw.into(),
            count,
        }
    }

    /// Force-decodes every base record into the overlay — the eager-
    /// restore oracle for differential tests and benches. Returns how
    /// many records were newly materialized.
    pub fn materialize_all(&mut self) -> usize {
        let mut added = 0usize;
        for i in 0..self.base.len() {
            let (id, p) = self.base.entry_at(i);
            if let std::collections::hash_map::Entry::Vacant(v) = self.overlay.entry(id) {
                v.insert(Some(p));
                added += 1;
            }
        }
        added
    }
}

impl Default for PositionTable {
    fn default() -> Self {
        PositionTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u8) -> PositionId {
        PositionId(H256([n; 32]))
    }

    fn pos(n: u8) -> Position {
        Position {
            owner: Address([n; 20]),
            tick_lower: -(n as i32) * 10,
            tick_upper: n as i32 * 10,
            liquidity: n as u128 * 1_000,
            fee_growth_inside0_last: U256::from(n as u64),
            fee_growth_inside1_last: U256::from(n as u64 * 7),
            tokens_owed0: n as u128,
            tokens_owed1: n as u128 * 3,
        }
    }

    fn sample() -> PositionRecords {
        PositionRecords::from_entries(vec![(pid(5), pos(5)), (pid(1), pos(1)), (pid(9), pos(9))])
    }

    #[test]
    fn pack_unpack_roundtrips_every_field() {
        let recs = sample();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.raw().len(), 3 * POSITION_RECORD_BYTES);
        // from_entries sorted them
        assert_eq!(recs.id_at(0), pid(1));
        assert_eq!(recs.id_at(2), pid(9));
        for n in [1u8, 5, 9] {
            assert_eq!(recs.get(&pid(n)), Some(pos(n)));
        }
        assert_eq!(recs.get(&pid(2)), None);
    }

    #[test]
    fn from_sorted_raw_validates_without_decoding() {
        let recs = sample();
        let adopted = PositionRecords::from_sorted_raw(recs.raw()).unwrap();
        assert_eq!(adopted, recs);

        assert_eq!(
            PositionRecords::from_sorted_raw(&recs.raw()[..100]),
            Err(RecordsError::Stride { len: 100 })
        );
        let mut swapped = recs.raw().to_vec();
        swapped.rotate_left(POSITION_RECORD_BYTES);
        assert_eq!(
            PositionRecords::from_sorted_raw(&swapped),
            Err(RecordsError::Unsorted { index: 2 })
        );
        let mut dup = recs.raw().to_vec();
        dup.copy_within(0..POSITION_RECORD_BYTES, POSITION_RECORD_BYTES);
        assert_eq!(
            PositionRecords::from_sorted_raw(&dup),
            Err(RecordsError::Unsorted { index: 1 })
        );
    }

    #[test]
    fn table_reads_fall_through_and_writes_materialize() {
        let mut t = PositionTable::from_records(sample());
        assert_eq!(t.len(), 3);
        assert_eq!(t.materialized(), 0);
        assert_eq!(t.get(&pid(5)), Some(pos(5)));
        assert_eq!(t.materialized(), 0, "reads must not materialize");

        t.get_mut(&pid(5)).unwrap().liquidity += 1;
        assert_eq!(t.materialized(), 1);
        assert_eq!(t.get(&pid(5)).unwrap().liquidity, pos(5).liquidity + 1);
        // untouched entries still read from base
        assert_eq!(t.get(&pid(1)), Some(pos(1)));
    }

    #[test]
    fn remove_tombstones_base_and_drops_fresh() {
        let mut t = PositionTable::from_records(sample());
        assert_eq!(t.remove(&pid(1)), Some(pos(1)));
        assert_eq!(t.len(), 2);
        assert!(!t.contains(&pid(1)));
        assert_eq!(t.remove(&pid(1)), None);

        // fresh insertion then removal leaves no residue
        t.entry_or_insert_with(pid(2), || pos(2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove(&pid(2)), Some(pos(2)));
        assert_eq!(t.len(), 2);

        // resurrect a tombstoned id
        let p = t.entry_or_insert_with(pid(1), || pos(7));
        assert_eq!(p.owner, pos(7).owner);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn export_is_zero_copy_when_untouched() {
        let base = sample();
        let t = PositionTable::from_records(base.clone());
        let out = t.export_records();
        assert!(
            Arc::ptr_eq(&out.raw, &base.raw),
            "untouched export must share bytes"
        );
    }

    #[test]
    fn export_merges_overlay_into_sorted_records() {
        let mut t = PositionTable::from_records(sample());
        t.get_mut(&pid(5)).unwrap().tokens_owed0 = 99;
        t.remove(&pid(9));
        t.entry_or_insert_with(pid(3), || pos(3));
        t.entry_or_insert_with(pid(200), || pos(200));

        let out = t.export_records();
        assert_eq!(out.len(), 4);
        let ids: Vec<PositionId> = out.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![pid(1), pid(3), pid(5), pid(200)]);
        assert_eq!(out.get(&pid(5)).unwrap().tokens_owed0, 99);
        assert_eq!(out.get(&pid(9)), None);

        // merged output equals the from-scratch pack of the same live set
        let mut entries: Vec<(PositionId, Position)> = t.iter().collect();
        entries.sort_by_key(|(id, _)| *id);
        let oracle = PositionRecords::from_entries(entries);
        assert_eq!(out, oracle);
    }

    #[test]
    fn iter_merges_without_duplicates() {
        let mut t = PositionTable::from_records(sample());
        t.get_mut(&pid(1)).unwrap().liquidity = 42;
        t.entry_or_insert_with(pid(2), || pos(2));
        let mut seen: Vec<(PositionId, Position)> = t.iter().collect();
        seen.sort_by_key(|(id, _)| *id);
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].1.liquidity, 42);
        assert_eq!(seen[1].0, pid(2));
    }

    #[test]
    fn materialize_all_is_the_eager_oracle() {
        let mut t = PositionTable::from_records(sample());
        assert_eq!(t.materialize_all(), 3);
        assert_eq!(t.materialized(), 3);
        assert_eq!(t.materialize_all(), 0, "idempotent");
        // materialization must not change observable state
        let eager = t.export_records();
        let lazy = PositionTable::from_records(sample()).export_records();
        assert_eq!(eager, lazy);
    }
}
