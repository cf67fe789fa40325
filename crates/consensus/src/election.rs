//! Committee election by cryptographic sortition (paper §IV-A,
//! Appendix A): each miner evaluates a VRF on the epoch seed; the lowest
//! stake-weighted draws win seats, the lowest of all is the leader. The
//! VRF proof doubles as the publicly verifiable *election proof* that
//! committees attach when handing the next `vk_c` to their predecessor
//! (§IV-C).

use ammboost_crypto::vrf::{VrfInput, VrfProof, VrfPublicKey, VrfSecretKey};
use ammboost_crypto::H256;
use serde::{Deserialize, Serialize};

/// A registered sidechain miner (ammBoost requires the AMM to run its own
/// miner population, §IV-A).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MinerRecord {
    /// Stable miner id.
    pub id: u64,
    /// The miner's VRF public key.
    pub vrf_pk: VrfPublicKey,
    /// Sybil-resistant mining power (stake).
    pub stake: u64,
}

/// One miner's sortition ticket: the VRF output and its proof.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ElectionProof {
    /// The miner claiming a seat.
    pub miner: u64,
    /// Epoch being elected for.
    pub epoch: u64,
    /// VRF output.
    pub output: H256,
    /// VRF proof (the publicly verifiable election proof).
    pub proof: VrfProof,
}

/// The elected committee for an epoch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Committee {
    /// The epoch this committee serves.
    pub epoch: u64,
    /// Members ordered by priority (best draw first); `members[0]` is the
    /// leader of view 0. Share indices for DKG/TSQC are `position + 1`.
    pub members: Vec<u64>,
    /// Election proofs, parallel to `members`.
    pub proofs: Vec<ElectionProof>,
}

impl Committee {
    /// The current leader under `view` (round-robin rotation on view
    /// change).
    pub fn leader(&self, view: u64) -> u64 {
        self.members[(view as usize) % self.members.len()]
    }

    /// Committee size `n = 3f + 2`.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The member's 1-based share index, if present.
    pub fn share_index(&self, miner: u64) -> Option<u32> {
        self.members
            .iter()
            .position(|&m| m == miner)
            .map(|p| p as u32 + 1)
    }
}

/// The election input string for `(seed, epoch)`.
fn election_input(seed: &H256, epoch: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(44);
    v.extend_from_slice(b"elect");
    v.extend_from_slice(&seed.0);
    v.extend_from_slice(&epoch.to_be_bytes());
    v
}

fn ticket(miner: u64, epoch: u64, (output, proof): (H256, VrfProof)) -> ElectionProof {
    ElectionProof {
        miner,
        epoch,
        output,
        proof,
    }
}

/// Draws a miner's sortition ticket.
pub fn draw_ticket(sk: &VrfSecretKey, miner_id: u64, seed: &H256, epoch: u64) -> ElectionProof {
    ticket(miner_id, epoch, sk.eval(&election_input(seed, epoch)))
}

/// Draws the tickets of a whole population — `sks[i]` is the key of
/// `miners[i]` — four miners per interleaved VRF evaluation, the election
/// input hashed to its point once; the < 4 remainder goes through
/// [`draw_ticket`], which is what a single miner runs. Tickets are
/// bit-identical to one `draw_ticket` call per miner.
pub fn draw_tickets(
    sks: &[VrfSecretKey],
    miners: &[MinerRecord],
    seed: &H256,
    epoch: u64,
) -> Vec<ElectionProof> {
    let bytes = election_input(seed, epoch);
    let input = VrfInput::new(&bytes);
    let n = sks.len().min(miners.len());
    let mut tickets = Vec::with_capacity(n);
    for (sk, quad) in sks[..n].chunks_exact(4).zip(miners.chunks_exact(4)) {
        let evals = VrfSecretKey::eval_x4([&sk[0], &sk[1], &sk[2], &sk[3]], &input);
        tickets.extend(
            quad.iter()
                .zip(evals)
                .map(|(m, eval)| ticket(m.id, epoch, eval)),
        );
    }
    let tail = tickets.len()..n;
    let drawn = sks[tail.clone()].iter().zip(&miners[tail]);
    tickets.extend(drawn.map(|(sk, m)| draw_ticket(sk, m.id, seed, epoch)));
    tickets
}

/// Verifies one election proof against the miner's registered key.
pub fn verify_ticket(record: &MinerRecord, seed: &H256, proof: &ElectionProof) -> bool {
    record.id == proof.miner
        && record
            .vrf_pk
            .verify(&election_input(seed, proof.epoch), &proof.proof)
            .map(|out| out == proof.output)
            .unwrap_or(false)
}

/// Stake-weighted priority key: lower is better. `output / stake` over
/// the first 16 bytes of the VRF output, compared in integers (ties
/// broken by the raw output, then the miner id).
fn priority(ticket: &ElectionProof, stake: u64) -> (u128, u128, u64) {
    let draw = u128::from_be_bytes(ticket.output.0[..16].try_into().expect("16 bytes"));
    (draw / stake.max(1) as u128, draw, ticket.miner)
}

/// Why an election was refused. Every ticket is checked before any seat
/// is assigned, so an error names the first offending ticket in
/// submission order and no committee is formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionError {
    /// Fewer tickets than seats.
    NotEnoughMiners {
        /// Tickets submitted.
        have: usize,
        /// Seats needed.
        need: usize,
    },
    /// The ticket of this miner failed verification: unregistered miner,
    /// wrong epoch, or a VRF proof that does not verify against the
    /// registered key and the claimed output.
    BadTicket(u64),
    /// This miner submitted more than one ticket; a second (valid) copy
    /// would otherwise take a second seat.
    DuplicateTicket(u64),
}

impl std::fmt::Display for ElectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectionError::NotEnoughMiners { have, need } => {
                write!(f, "only {have} miners for {need} seats")
            }
            ElectionError::BadTicket(m) => write!(f, "invalid election ticket from miner {m}"),
            ElectionError::DuplicateTicket(m) => write!(f, "miner {m} submitted two tickets"),
        }
    }
}

impl std::error::Error for ElectionError {}

/// Runs the election: verifies every ticket and seats the
/// `committee_size` best-priority miners (the `Elect` function of the
/// paper's §III API).
///
/// # Errors
/// Fails when a ticket does not verify, a miner submits two tickets, or
/// too few tickets were submitted.
pub fn elect_committee(
    miners: &[MinerRecord],
    tickets: &[ElectionProof],
    seed: &H256,
    epoch: u64,
    committee_size: usize,
) -> Result<Committee, ElectionError> {
    if tickets.len() < committee_size {
        return Err(ElectionError::NotEnoughMiners {
            have: tickets.len(),
            need: committee_size,
        });
    }
    // id → record index, built once; of records sharing an id the first
    // is the registered one
    let mut by_id: Vec<(u64, usize)> = miners.iter().enumerate().map(|(i, m)| (m.id, i)).collect();
    by_id.sort_unstable();
    by_id.dedup_by_key(|(id, _)| *id);
    let mut drew = vec![false; miners.len()];
    let mut ranked = Vec::with_capacity(tickets.len());
    for t in tickets {
        let at = by_id
            .binary_search_by_key(&t.miner, |(id, _)| *id)
            .map_err(|_| ElectionError::BadTicket(t.miner))?;
        let (_, record) = by_id[at];
        if t.epoch != epoch || !verify_ticket(&miners[record], seed, t) {
            return Err(ElectionError::BadTicket(t.miner));
        }
        if std::mem::replace(&mut drew[record], true) {
            return Err(ElectionError::DuplicateTicket(t.miner));
        }
        ranked.push((priority(t, miners[record].stake), t));
    }
    ranked.sort_unstable_by_key(|(priority, _)| *priority);
    let seated = &ranked[..committee_size];
    Ok(Committee {
        epoch,
        members: seated.iter().map(|(_, t)| t.miner).collect(),
        proofs: seated.iter().map(|(_, t)| (*t).clone()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_crypto::keccak::keccak256;

    fn miner(i: u64, stake: u64) -> (MinerRecord, VrfSecretKey) {
        let sk = VrfSecretKey::from_entropy(keccak256(&i.to_be_bytes()));
        (
            MinerRecord {
                id: i,
                vrf_pk: sk.public_key(),
                stake,
            },
            sk,
        )
    }

    fn setup(n: u64) -> (Vec<MinerRecord>, Vec<VrfSecretKey>) {
        let mut recs = Vec::new();
        let mut sks = Vec::new();
        for i in 0..n {
            let (r, s) = miner(i, 100);
            recs.push(r);
            sks.push(s);
        }
        (recs, sks)
    }

    fn tickets(
        recs: &[MinerRecord],
        sks: &[VrfSecretKey],
        seed: &H256,
        epoch: u64,
    ) -> Vec<ElectionProof> {
        recs.iter()
            .zip(sks)
            .map(|(r, s)| draw_ticket(s, r.id, seed, epoch))
            .collect()
    }

    #[test]
    fn election_is_deterministic_and_sized() {
        let (recs, sks) = setup(20);
        let seed = H256::hash(b"epoch-seed");
        let t = tickets(&recs, &sks, &seed, 1);
        let c1 = elect_committee(&recs, &t, &seed, 1, 5).unwrap();
        let c2 = elect_committee(&recs, &t, &seed, 1, 5).unwrap();
        assert_eq!(c1.members, c2.members);
        assert_eq!(c1.size(), 5);
    }

    #[test]
    fn committee_rotates_with_seed() {
        let (recs, sks) = setup(30);
        let s1 = H256::hash(b"seed-1");
        let s2 = H256::hash(b"seed-2");
        let c1 = elect_committee(&recs, &tickets(&recs, &sks, &s1, 1), &s1, 1, 8).unwrap();
        let c2 = elect_committee(&recs, &tickets(&recs, &sks, &s2, 2), &s2, 2, 8).unwrap();
        assert_ne!(c1.members, c2.members, "committee refresh failed");
    }

    #[test]
    fn forged_ticket_rejected() {
        let (recs, sks) = setup(10);
        let seed = H256::hash(b"seed");
        let mut t = tickets(&recs, &sks, &seed, 1);
        // miner 0 claims miner 1's identity
        t[0].miner = 1;
        let err = elect_committee(&recs, &t, &seed, 1, 4).unwrap_err();
        assert_eq!(err, ElectionError::BadTicket(1));
    }

    #[test]
    fn tampered_output_rejected() {
        let (recs, sks) = setup(10);
        let seed = H256::hash(b"seed");
        let mut t = tickets(&recs, &sks, &seed, 1);
        t[3].output = H256::hash(b"better-draw");
        assert!(matches!(
            elect_committee(&recs, &t, &seed, 1, 4),
            Err(ElectionError::BadTicket(3))
        ));
    }

    #[test]
    fn too_few_miners_rejected() {
        let (recs, sks) = setup(3);
        let seed = H256::hash(b"seed");
        let t = tickets(&recs, &sks, &seed, 1);
        assert!(matches!(
            elect_committee(&recs, &t, &seed, 1, 5),
            Err(ElectionError::NotEnoughMiners { have: 3, need: 5 })
        ));
    }

    #[test]
    fn stake_weight_biases_selection() {
        // one whale with 1000x stake should essentially always win a seat
        let mut recs = Vec::new();
        let mut sks = Vec::new();
        for i in 0..50u64 {
            let (r, s) = miner(i, if i == 7 { 100_000 } else { 100 });
            recs.push(r);
            sks.push(s);
        }
        let mut wins = 0;
        for e in 0..20u64 {
            let seed = H256::hash(&e.to_be_bytes());
            let t = tickets(&recs, &sks, &seed, e);
            let c = elect_committee(&recs, &t, &seed, e, 10).unwrap();
            if c.members.contains(&7) {
                wins += 1;
            }
        }
        assert!(wins >= 18, "whale won only {wins}/20 elections");
    }

    /// The election this one replaced: a linear `find` per ticket and per
    /// comparison, no duplicate check.
    fn find_based_election(
        registered: &[MinerRecord],
        tickets: &[ElectionProof],
        seed: &H256,
        epoch: u64,
        committee_size: usize,
    ) -> Result<Vec<u64>, ElectionError> {
        let stake_of = |id: u64| {
            registered
                .iter()
                .find(|m| m.id == id)
                .map_or(1, |m| m.stake)
        };
        for t in tickets {
            let rec = registered
                .iter()
                .find(|m| m.id == t.miner)
                .ok_or(ElectionError::BadTicket(t.miner))?;
            if t.epoch != epoch || !verify_ticket(rec, seed, t) {
                return Err(ElectionError::BadTicket(t.miner));
            }
        }
        let mut ranked: Vec<&ElectionProof> = tickets.iter().collect();
        ranked.sort_by_key(|t| priority(t, stake_of(t.miner)));
        Ok(ranked[..committee_size].iter().map(|t| t.miner).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn index_based_election_matches_the_find_based_one(
            ids in proptest::collection::btree_set(0u64..1_000, 4..40),
            stake_salt in proptest::prelude::any::<u64>(),
            shuffle_salt in proptest::prelude::any::<u64>(),
            seats in 1usize..4,
            // 0: clean, 1: ticket from an unregistered miner, 2: a
            // second record reusing a registered id
            variant in 0u8..3,
        ) {
            // registration order and ticket order both differ from id order
            let mut ids: Vec<u64> = ids.into_iter().collect();
            ids.sort_by_key(|id| keccak256(&(id ^ shuffle_salt).to_be_bytes()));
            let (mut recs, mut sks): (Vec<_>, Vec<_>) = ids
                .iter()
                .map(|&id| miner(id, 1 + (id ^ stake_salt) % 5 * 100))
                .unzip();
            let seed = H256::hash(&shuffle_salt.to_be_bytes());
            let mut t = tickets(&recs, &sks, &seed, 3);
            t.reverse();
            match variant {
                1 => {
                    let (stranger, sk) = miner(5_000, 100);
                    t.insert(t.len() / 2, draw_ticket(&sk, stranger.id, &seed, 3));
                }
                2 => {
                    // `find` saw only the first record of an id, so the
                    // impostor's key must not verify the real ticket
                    let (mut impostor, sk) = miner(6_000, 900);
                    impostor.id = recs[0].id;
                    recs.push(impostor);
                    sks.push(sk);
                }
                _ => {}
            }
            let got = elect_committee(&recs, &t, &seed, 3, seats).map(|c| c.members);
            let want = find_based_election(&recs, &t, &seed, 3, seats);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(got.is_err(), variant == 1);
            if variant == 1 {
                proptest::prop_assert_eq!(got, Err(ElectionError::BadTicket(5_000)));
            }
        }
    }

    #[test]
    fn batched_draw_equals_one_draw_per_miner() {
        let seed = H256::hash(b"epoch-seed");
        for n in 0..=9 {
            let (recs, sks) = setup(n);
            let got = draw_tickets(&sks, &recs, &seed, 4);
            let want = tickets(&recs, &sks, &seed, 4);
            assert_eq!(got.len(), want.len(), "{n} miners");
            for (g, w) in got.iter().zip(&want) {
                let g = (g.miner, g.epoch, g.output, g.proof);
                assert_eq!(g, (w.miner, w.epoch, w.output, w.proof), "{n} miners");
            }
        }
        // keys beyond the registered miners draw nothing
        let (recs, sks) = setup(6);
        assert_eq!(draw_tickets(&sks, &recs[..5], &seed, 4).len(), 5);
    }

    #[test]
    fn one_planted_ticket_at_any_position_is_the_error_reported() {
        let (recs, sks) = setup(10);
        let seed = H256::hash(b"epoch-seed");
        let clean = draw_tickets(&sks, &recs, &seed, 2);
        let (stranger, stranger_sk) = miner(77, 100);
        for at in 0..10 {
            let victim = clean[at].miner;
            // a tampered proof, an unregistered miner, another epoch's
            // (otherwise valid) ticket: all refused as bad, and exactly
            // as the linear election refuses them
            let mut forged = clean.clone();
            forged[at].output = H256::hash(b"better-draw");
            let mut unknown = clean.clone();
            unknown[at] = draw_ticket(&stranger_sk, stranger.id, &seed, 2);
            let mut stale = clean.clone();
            stale[at] = draw_ticket(&sks[at], victim, &seed, 1);
            let planted = [(forged, victim), (unknown, stranger.id), (stale, victim)];
            for (t, offender) in planted {
                let got = elect_committee(&recs, &t, &seed, 2, 4).map(|c| c.members);
                assert_eq!(
                    got,
                    Err(ElectionError::BadTicket(offender)),
                    "position {at}"
                );
                assert_eq!(got, find_based_election(&recs, &t, &seed, 2, 4));
            }
            // a second copy of an earlier ticket: the copy is the offender
            for from in 0..at {
                let mut twice = clean.clone();
                twice[at] = clean[from].clone();
                assert_eq!(
                    elect_committee(&recs, &twice, &seed, 2, 4).unwrap_err(),
                    ElectionError::DuplicateTicket(clean[from].miner),
                    "copy of {from} at {at}"
                );
            }
            // two offenders: the first in submission order is reported
            if at > 0 {
                let mut both = clean.clone();
                both[at].output = H256::hash(b"better-draw");
                both[at - 1] = draw_ticket(&stranger_sk, stranger.id, &seed, 2);
                assert_eq!(
                    elect_committee(&recs, &both, &seed, 2, 4).unwrap_err(),
                    ElectionError::BadTicket(stranger.id)
                );
            }
        }
    }

    #[test]
    fn repeated_ticket_takes_no_second_seat() {
        let (recs, sks) = setup(6);
        let seed = H256::hash(b"epoch-seed");
        let mut t = tickets(&recs, &sks, &seed, 1);
        let clean = elect_committee(&recs, &t, &seed, 1, 5).unwrap();
        // a seated miner re-submits its (valid) ticket
        t.push(t[clean.members[0] as usize].clone());
        assert_eq!(
            elect_committee(&recs, &t, &seed, 1, 5).unwrap_err(),
            ElectionError::DuplicateTicket(clean.members[0])
        );
    }

    #[test]
    fn leader_rotation_on_views() {
        let (recs, sks) = setup(10);
        let seed = H256::hash(b"seed");
        let c = elect_committee(&recs, &tickets(&recs, &sks, &seed, 1), &seed, 1, 5).unwrap();
        assert_eq!(c.leader(0), c.members[0]);
        assert_eq!(c.leader(1), c.members[1]);
        assert_eq!(c.leader(5), c.members[0]);
    }

    #[test]
    fn share_indices_are_one_based() {
        let (recs, sks) = setup(10);
        let seed = H256::hash(b"seed");
        let c = elect_committee(&recs, &tickets(&recs, &sks, &seed, 1), &seed, 1, 5).unwrap();
        assert_eq!(c.share_index(c.members[0]), Some(1));
        assert_eq!(c.share_index(c.members[4]), Some(5));
        assert_eq!(c.share_index(999), None);
    }
}
