//! Fast-sync: rebuilding a live node from a snapshot.
//!
//! [`restore`] decodes a verified [`Snapshot`] back into working state:
//! every pool is reconstructed through [`Engine::from_state`] — which
//! regenerates the derived acceleration structures (`tick_bitmap`,
//! `tick_cache`, swap scratch buffers) from the tick table
//! instead of shipping them — plus the ledger and the deposit entries. The
//! caller then catches up by applying the blocks sealed after the
//! snapshot epoch; the result is byte-identical to a node that replayed
//! full history.

use crate::codec::{CodecError, Decode};
use crate::snapshot::{SectionKind, Snapshot};
use ammboost_amm::engines::{Engine, EngineState};
use ammboost_amm::error::AmmError;
use ammboost_amm::types::PoolId;
use ammboost_crypto::Address;
use ammboost_crypto::H256;
use ammboost_sidechain::ledger::{Ledger, LedgerState, LedgerStateError};
use std::fmt;

/// Why a restore failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A section failed to decode.
    Codec(CodecError),
    /// A required section is missing from the snapshot.
    MissingSection(&'static str),
    /// A decoded pool state failed the AMM engine's validation.
    InvalidPool(AmmError),
    /// The decoded ledger section contradicts itself (see
    /// [`Ledger::from_state`]).
    InvalidLedger(LedgerStateError),
    /// A pool-section decoder panicked. The panic is contained — the
    /// restore fails closed with this typed error instead of poisoning
    /// the process — and `section` names the offending pool id.
    SectionDecodeFailed {
        /// Pool id of the section whose decoder panicked.
        section: u32,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Codec(e) => write!(f, "snapshot decode failed: {e}"),
            RestoreError::MissingSection(s) => write!(f, "snapshot missing section: {s}"),
            RestoreError::InvalidPool(e) => write!(f, "restored pool state invalid: {e}"),
            RestoreError::InvalidLedger(e) => write!(f, "restored ledger invalid: {e}"),
            RestoreError::SectionDecodeFailed { section } => {
                write!(f, "pool section {section} decoder panicked")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CodecError> for RestoreError {
    fn from(e: CodecError) -> Self {
        RestoreError::Codec(e)
    }
}

impl From<LedgerStateError> for RestoreError {
    fn from(e: LedgerStateError) -> Self {
        RestoreError::InvalidLedger(e)
    }
}

impl From<AmmError> for RestoreError {
    fn from(e: AmmError) -> Self {
        RestoreError::InvalidPool(e)
    }
}

/// A node state rebuilt from a snapshot, ready to catch up.
#[derive(Debug)]
pub struct RestoredState {
    /// The epoch the snapshot covered.
    pub epoch: u64,
    /// Restored engines (CL pools with regenerated tick indexes),
    /// ascending by id.
    pub pools: Vec<(PoolId, Engine)>,
    /// The restored ledger (tip, summaries, the open epoch's
    /// meta-blocks).
    pub ledger: Ledger,
    /// The restored deposit ledger's entries, ascending by address
    /// (checked: a duplicate or out-of-order key fails the restore).
    pub deposits: Vec<(Address, (u128, u128))>,
    /// The snapshot's state root (sealed when the snapshot was built or
    /// decoded; restore hashes nothing).
    pub root: H256,
}

/// Rebuilds working node state from a snapshot.
///
/// # Errors
/// Fails when a required section is missing, malformed, or carries pool
/// state the AMM engine rejects.
pub fn restore(snapshot: &Snapshot) -> Result<RestoredState, RestoreError> {
    let sections: Vec<(u32, &crate::snapshot::Section)> = snapshot.pool_sections().collect();
    let pools = decode_pool_sections(&sections)?;

    let ledger_section = snapshot
        .section(SectionKind::Ledger)
        .ok_or(RestoreError::MissingSection("ledger"))?;
    let ledger = Ledger::from_state(LedgerState::decode_all(&ledger_section.bytes)?)?;

    let deposits_section = snapshot
        .section(SectionKind::Deposits)
        .ok_or(RestoreError::MissingSection("deposits"))?;
    let deposits = Vec::<(Address, (u128, u128))>::decode_all(&deposits_section.bytes)?;
    crate::codec::ensure_sorted_keys(&deposits)?;

    Ok(RestoredState {
        epoch: snapshot.epoch(),
        pools,
        ledger,
        deposits,
        root: snapshot.root(),
    })
}

#[cfg(test)]
thread_local! {
    /// Test hook: pool id whose decoder panics (simulates a decoder bug).
    /// Thread-local, like the decode it steers: decoders run on the
    /// thread that calls [`restore`], so one test's hook never reaches
    /// another's.
    static PANIC_ON_POOL: std::cell::Cell<i64> = const { std::cell::Cell::new(-1) };
}

/// Decodes and rebuilds every pool section, in section order; the first
/// error wins.
///
/// A decoder panic (a bug, not bad input — bad input yields `Err`) is
/// contained with `catch_unwind` and surfaces as
/// [`RestoreError::SectionDecodeFailed`], so one poisoned section can
/// never take down the process.
fn decode_pool_sections(
    sections: &[(u32, &crate::snapshot::Section)],
) -> Result<Vec<(PoolId, Engine)>, RestoreError> {
    let decode_one = |&(id, section): &(u32, &crate::snapshot::Section)| {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<(PoolId, Engine), RestoreError> {
                #[cfg(test)]
                if PANIC_ON_POOL.get() == i64::from(id) {
                    panic!("injected decoder panic for pool {id}");
                }
                let state = EngineState::decode_all(&section.bytes)?;
                Ok((PoolId(id), Engine::from_state(state)?))
            },
        ));
        match attempt {
            Ok(result) => result,
            Err(_) => Err(RestoreError::SectionDecodeFailed { section: id }),
        }
    };
    sections.iter().map(decode_one).collect()
}

/// Convenience: decodes the serialized form (verifying magic, version and
/// state root) and restores in one step.
///
/// # Errors
/// Propagates decode/verification and restore failures.
pub fn restore_from_bytes(bytes: &[u8]) -> Result<RestoredState, RestoreError> {
    let snapshot = Snapshot::decode(bytes)?;
    restore(&snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpointer;
    use ammboost_amm::engines::EngineKind;
    use ammboost_amm::pool::SwapKind;
    use ammboost_amm::types::PositionId;
    use ammboost_sidechain::summary::Deposits;

    fn traded_engine(kind: EngineKind) -> Engine {
        let mut e = Engine::new_standard(kind);
        e.mint(
            PositionId::derive(&[b"sync"]),
            Address::from_index(1),
            -1200,
            1200,
            50_000_000,
            50_000_000,
        )
        .unwrap();
        e.swap(true, SwapKind::ExactInput(5_000_000), None).unwrap();
        e
    }

    fn traded_pool() -> Engine {
        traded_engine(EngineKind::ConcentratedLiquidity)
    }

    fn node_snapshot(pool: &Engine) -> Snapshot {
        let ledger = Ledger::new(H256::hash(b"genesis"));
        let mut deposits = Deposits::new();
        deposits.credit(Address::from_index(1), 100, 200).unwrap();
        Checkpointer::new()
            .checkpoint(3, &[(PoolId(0), pool)], &ledger, &deposits, vec![])
            .snapshot
    }

    #[test]
    fn restore_roundtrips_through_serialized_form() {
        let mut pool = traded_pool();
        let snapshot = node_snapshot(&pool);
        let mut restored = restore_from_bytes(&snapshot.encode()).unwrap();
        assert_eq!(restored.epoch, 3);
        assert_eq!(restored.root, snapshot.root());
        assert_eq!(restored.deposits, [(Address::from_index(1), (100, 200))]);
        let (_, rpool) = &mut restored.pools[0];
        // derived structures regenerated: behaviour bit-identical
        let a = pool.swap(false, SwapKind::ExactInput(777_777), None);
        let b = rpool.swap(false, SwapKind::ExactInput(777_777), None);
        assert_eq!(a, b);
        assert_eq!(rpool.export_state(), pool.export_state());
    }

    #[test]
    fn heterogeneous_fleet_restores_every_engine() {
        let engines = [
            traded_engine(EngineKind::ConcentratedLiquidity),
            traded_engine(EngineKind::ConstantProduct),
            traded_engine(EngineKind::Weighted),
        ];
        let pools: Vec<(PoolId, &Engine)> = engines
            .iter()
            .enumerate()
            .map(|(i, e)| (PoolId(i as u32), e))
            .collect();
        let ledger = Ledger::new(H256::hash(b"genesis"));
        let deposits = Deposits::new();
        let snapshot = Checkpointer::new()
            .checkpoint(9, &pools, &ledger, &deposits, vec![])
            .snapshot;
        let restored = restore_from_bytes(&snapshot.encode()).unwrap();
        assert_eq!(restored.pools.len(), 3);
        for ((_, rebuilt), original) in restored.pools.iter().zip(engines.iter()) {
            assert_eq!(rebuilt.kind(), original.kind());
            assert_eq!(rebuilt.export_state(), original.export_state());
        }
    }

    /// `snapshot` with its sections edited and sealed again.
    fn resealed(
        snapshot: Snapshot,
        edit: impl FnOnce(&mut Vec<crate::snapshot::Section>),
    ) -> Snapshot {
        let epoch = snapshot.epoch();
        let mut sections = snapshot.into_sections();
        edit(&mut sections);
        Snapshot::seal(epoch, sections).unwrap()
    }

    #[test]
    fn missing_sections_reported() {
        let pool = traded_pool();
        let snapshot = resealed(node_snapshot(&pool), |sections| {
            sections.retain(|s| s.kind != SectionKind::Ledger)
        });
        assert!(matches!(
            restore(&snapshot),
            Err(RestoreError::MissingSection("ledger"))
        ));
    }

    #[test]
    fn decoder_panic_contained_as_typed_error() {
        let pool = traded_pool();
        let ledger = Ledger::new(H256::hash(b"genesis"));
        let deposits = Deposits::new();
        let pools: Vec<(PoolId, &Engine)> = (0..4).map(|i| (PoolId(7770 + i), &pool)).collect();
        let snapshot = Checkpointer::new()
            .checkpoint(1, &pools, &ledger, &deposits, vec![])
            .snapshot;
        PANIC_ON_POOL.set(7772);
        let got = restore(&snapshot);
        PANIC_ON_POOL.set(-1);
        assert_eq!(
            got.err().map(|e| e.to_string()),
            Some("pool section 7772 decoder panicked".into())
        );
        // with the hook cleared the same snapshot restores fine
        assert!(restore(&snapshot).is_ok());
    }

    #[test]
    fn corrupt_pool_section_fails_closed() {
        let pool = traded_pool();
        let snapshot = resealed(node_snapshot(&pool), |sections| {
            sections[0].bytes.truncate(10)
        });
        assert!(matches!(
            restore(&snapshot),
            Err(RestoreError::Codec(CodecError::UnexpectedEof { .. }))
        ));
    }
}
