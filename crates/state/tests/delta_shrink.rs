//! The size bar page-granular deltas were accepted on: an epoch that
//! touches at most 1 % of a large pool's positions ships a delta at
//! least 10× smaller than the pool's section, and the delta applies back
//! to exactly the full re-encode.

use ammboost_amm::pool::{Pool, PoolState};
use ammboost_amm::positions::PositionTable;
use ammboost_amm::types::PositionId;
use ammboost_crypto::Address;
use ammboost_state::codec::Encode;
use ammboost_state::snapshot::{Section, SectionKind, Snapshot};
use ammboost_state::DeltaSnapshot;

const POSITIONS: usize = 20_000;

/// A pool whose section is dominated by its packed position records.
fn position_heavy_pool() -> PoolState {
    let mut pool = Pool::new_standard();
    for i in 0..POSITIONS {
        let rung = (i % 64) as i32 - 32;
        pool.mint(
            PositionId::derive(&[b"delta-grid", &(i as u64).to_be_bytes()]),
            Address::from_index(i as u64 % 4096),
            rung * 60,
            (rung + 2) * 60,
            1_000_000,
            1_000_000,
        )
        .expect("grid mint");
    }
    pool.export_state()
}

/// `base` with `dirty_bp` basis points of its positions poked in place,
/// spread at a fixed stride so the dirty pages scatter over the section.
fn poked(base: &PoolState, dirty_bp: usize) -> PoolState {
    let records = base.positions.clone();
    let mut table = PositionTable::from_records(records.clone());
    let dirty = POSITIONS * dirty_bp / 10_000;
    for i in (0..POSITIONS).step_by(POSITIONS / dirty) {
        let position = table.get_mut(&records.id_at(i)).expect("record exists");
        position.tokens_owed0 = position.tokens_owed0.wrapping_add(1);
    }
    PoolState {
        positions: table.export_records(),
        ..base.clone()
    }
}

fn pool_snapshot(epoch: u64, bytes: Vec<u8>) -> Snapshot {
    let section = Section {
        kind: SectionKind::Pool(0),
        bytes,
    };
    Snapshot::seal(epoch, vec![section]).expect("one section seals")
}

#[test]
fn sparse_dirty_delta_is_ten_times_smaller_than_the_section() {
    let base = position_heavy_pool();
    let base_bytes = base.encode_to_vec();
    let base_snapshot = pool_snapshot(1, base_bytes.clone());
    for dirty_bp in [10, 100, 1_000] {
        let next_bytes = poked(&base, dirty_bp).encode_to_vec();
        assert_ne!(next_bytes, base_bytes);
        assert_eq!(
            next_bytes.len(),
            base_bytes.len(),
            "in-place pokes must never shift section bytes"
        );
        let next_snapshot = pool_snapshot(2, next_bytes.clone());
        let delta = DeltaSnapshot::diff(&base_snapshot, &next_snapshot);
        assert_eq!(
            delta.apply(&base_snapshot).expect("delta applies"),
            next_snapshot,
            "{dirty_bp} bp: delta apply diverged from the full re-encode"
        );
        let shrink = next_bytes.len() as f64 / delta.encoded_len() as f64;
        if dirty_bp <= 100 {
            assert!(
                shrink >= 10.0,
                "{dirty_bp} bp dirty: delta only {shrink:.1}x smaller than the section"
            );
        }
    }
}
