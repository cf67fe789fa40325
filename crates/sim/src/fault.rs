//! Deterministic storage/sync fault injection.
//!
//! The consensus layer's `FaultPlan` schedules *protocol* faults (silent
//! leaders, invalid proposals, mainchain rollbacks). This module is its
//! storage-layer counterpart: a seeded [`FaultInjector`] that corrupts,
//! truncates, drops, delays or duplicates byte streams at precisely
//! addressed places. Every fault is named by an [`InjectionPoint`]
//! (where in the pipeline) plus an **occurrence index** (the Nth time
//! that point is reached), so a fault schedule is a plain data structure
//! and a faulty run replays bit-for-bit from its seed. The injector keeps a log of every fault that actually fired,
//! which drills assert against.
//!
//! The injector never decides *how* a subsystem degrades — it only
//! perturbs bytes and their delivery. Detection and recovery live with the
//! subsystems themselves (snapshot root verification, page healing).

use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a scheduled fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Flip one deterministically chosen bit of the payload.
    BitFlip,
    /// Cut the payload at a deterministically chosen byte offset.
    Truncate,
    /// Suppress the response entirely (the provider never answers).
    Drop,
    /// Deliver the response late by the given simulated delay.
    Delay {
        /// Simulated delivery delay in milliseconds.
        millis: u64,
    },
    /// Deliver the payload twice, concatenated — the classic duplicated
    /// network frame, which a hash check must reject.
    Duplicate,
    /// Serve content from an older state root (a lagging or equivocating
    /// provider).
    StaleRoot,
}

impl FaultKind {
    /// Short stable name (drill output and quarantine logs).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Truncate => "truncate",
            FaultKind::Drop => "drop",
            FaultKind::Delay { .. } => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::StaleRoot => "stale-root",
        }
    }
}

/// Where in the storage/sync pipeline a fault is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InjectionPoint {
    /// A fast-sync provider's response, keyed by provider id.
    Provider(u32),
}

/// One scheduled fault: fire `kind` the `occurrence`-th time (0-based)
/// `point` is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Where to inject.
    pub point: InjectionPoint,
    /// Which visit of the point triggers the fault (0 = the first).
    pub occurrence: u64,
    /// What to do.
    pub kind: FaultKind,
}

/// A fault that actually fired, recorded in the injector's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The point that was hit.
    pub point: InjectionPoint,
    /// The visit index at which the fault fired.
    pub occurrence: u64,
    /// The fault applied.
    pub kind: FaultKind,
}

/// A deterministic, seeded fault injector.
///
/// Scheduling is explicit ([`FaultInjector::schedule`]); the seed only
/// drives *where inside a payload* byte-level faults land (which bit
/// flips, which offset truncates), so two runs with the same seed and
/// schedule perturb identical bytes.
#[derive(Debug)]
pub struct FaultInjector {
    rng: DetRng,
    specs: Vec<FaultSpec>,
    /// Visits per point so far.
    counters: BTreeMap<InjectionPoint, u64>,
    fired: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector with an empty schedule.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            rng: DetRng::new(seed ^ 0xFA17_FA17_FA17_FA17),
            specs: Vec::new(),
            counters: BTreeMap::new(),
            fired: Vec::new(),
        }
    }

    /// Adds one fault to the schedule.
    pub fn schedule(&mut self, spec: FaultSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Adds a whole schedule at once.
    pub fn schedule_all(&mut self, specs: impl IntoIterator<Item = FaultSpec>) -> &mut Self {
        self.specs.extend(specs);
        self
    }

    /// Registers one visit of `point` and returns the fault scheduled for
    /// this visit, if any (recording it in the fired log). At most one
    /// fault fires per visit; duplicate specs for the same (point,
    /// occurrence) fire in schedule order across successive visits... the
    /// first matching spec wins and the rest are ignored.
    pub fn fire(&mut self, point: InjectionPoint) -> Option<FaultKind> {
        let count = self.counters.entry(point).or_insert(0);
        let occurrence = *count;
        *count += 1;
        let kind = self
            .specs
            .iter()
            .find(|s| s.point == point && s.occurrence == occurrence)
            .map(|s| s.kind)?;
        self.fired.push(FaultEvent {
            point,
            occurrence,
            kind,
        });
        Some(kind)
    }

    /// Applies a byte-level fault to `bytes` in place: [`FaultKind::BitFlip`]
    /// flips one deterministically chosen bit, [`FaultKind::Truncate`]
    /// cuts at a deterministic offset (always strictly shorter),
    /// [`FaultKind::Duplicate`] appends a second copy. Other kinds leave
    /// the bytes untouched (they act on delivery, not content). Returns
    /// `true` when the bytes were modified.
    pub fn mutate(&mut self, kind: FaultKind, bytes: &mut Vec<u8>) -> bool {
        match kind {
            FaultKind::BitFlip => {
                if bytes.is_empty() {
                    return false;
                }
                let bit = self.rng.range_u64(0, bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                true
            }
            FaultKind::Truncate => {
                if bytes.is_empty() {
                    return false;
                }
                let keep = self.rng.range_u64(0, bytes.len() as u64) as usize;
                bytes.truncate(keep);
                true
            }
            FaultKind::Duplicate => {
                let copy = bytes.clone();
                bytes.extend(copy);
                true
            }
            FaultKind::Drop | FaultKind::Delay { .. } | FaultKind::StaleRoot => false,
        }
    }

    /// Every fault that fired so far, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.fired
    }

    /// The scheduled specs (fired or not).
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of scheduled faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.specs.len().saturating_sub(self.fired.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_exact_occurrence_only() {
        let mut inj = FaultInjector::new(1);
        inj.schedule(FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence: 2,
            kind: FaultKind::Drop,
        });
        assert_eq!(inj.fire(InjectionPoint::Provider(0)), None);
        assert_eq!(inj.fire(InjectionPoint::Provider(1)), None, "other point");
        assert_eq!(inj.fire(InjectionPoint::Provider(0)), None);
        assert_eq!(inj.fire(InjectionPoint::Provider(0)), Some(FaultKind::Drop));
        assert_eq!(inj.fire(InjectionPoint::Provider(0)), None, "fires once");
        assert_eq!(inj.events().len(), 1);
        assert_eq!(inj.events()[0].occurrence, 2);
    }

    #[test]
    fn points_count_independently() {
        let mut inj = FaultInjector::new(2);
        inj.schedule(FaultSpec {
            point: InjectionPoint::Provider(3),
            occurrence: 0,
            kind: FaultKind::StaleRoot,
        });
        assert_eq!(inj.fire(InjectionPoint::Provider(2)), None);
        assert_eq!(
            inj.fire(InjectionPoint::Provider(3)),
            Some(FaultKind::StaleRoot)
        );
    }

    #[test]
    fn mutations_are_deterministic_and_detectable() {
        let base: Vec<u8> = (0..255u8).collect();
        let run = |seed| {
            let mut inj = FaultInjector::new(seed);
            let mut flipped = base.clone();
            assert!(inj.mutate(FaultKind::BitFlip, &mut flipped));
            let mut cut = base.clone();
            assert!(inj.mutate(FaultKind::Truncate, &mut cut));
            (flipped, cut)
        };
        let (f1, c1) = run(7);
        let (f2, c2) = run(7);
        assert_eq!(f1, f2, "same seed, same flip");
        assert_eq!(c1, c2, "same seed, same cut");
        assert_ne!(f1, base);
        assert_eq!(f1.iter().zip(&base).filter(|(a, b)| a != b).count(), 1);
        assert!(c1.len() < base.len(), "truncate always shortens");
        let (f3, _) = run(8);
        assert_ne!(f3, f1, "different seed perturbs different bytes");
    }

    #[test]
    fn duplicate_doubles_and_delivery_kinds_leave_bytes() {
        let mut inj = FaultInjector::new(3);
        let mut b = vec![1u8, 2, 3];
        assert!(inj.mutate(FaultKind::Duplicate, &mut b));
        assert_eq!(b, vec![1, 2, 3, 1, 2, 3]);
        let mut untouched = vec![9u8];
        assert!(!inj.mutate(FaultKind::Drop, &mut untouched));
        assert!(!inj.mutate(FaultKind::StaleRoot, &mut untouched));
        assert!(!inj.mutate(FaultKind::Delay { millis: 5 }, &mut untouched));
        assert_eq!(untouched, vec![9]);
    }
}
