//! A leader-based PBFT instance (pre-prepare / prepare / commit) with
//! view change — the sidechain agreement protocol of ammBoost (paper
//! §III: committee of `3f + 2`, quorum `2f + 2`, leader proposes, members
//! vote; §IV-C: malicious/unresponsive leaders are replaced by
//! view-change).
//!
//! The module provides the per-replica state machine ([`Replica`]) and a
//! deterministic synchronous driver ([`run_consensus`]) used by the epoch
//! simulation and the fault-injection tests.

use ammboost_crypto::tsqc::quorum_threshold;
use ammboost_crypto::H256;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// A block digest under agreement.
pub type Digest = H256;

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// The leader's proposal. `valid` models the outcome of the
    /// `VerifyBlock` predicate every honest replica evaluates.
    PrePrepare {
        /// View the proposal belongs to.
        view: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// Whether the block passes validation.
        valid: bool,
    },
    /// A replica's prepare vote.
    Prepare {
        /// View.
        view: u64,
        /// Digest voted for.
        digest: Digest,
        /// Voting replica.
        from: u32,
    },
    /// A replica's commit vote.
    Commit {
        /// View.
        view: u64,
        /// Digest voted for.
        digest: Digest,
        /// Voting replica.
        from: u32,
    },
    /// A vote to abandon the current view.
    ViewChange {
        /// The view being moved to.
        new_view: u64,
        /// Voting replica.
        from: u32,
    },
}

/// How a committee member behaves (fault injection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Behavior {
    /// Follows the protocol.
    Honest,
    /// Sends nothing at all (crashed / unresponsive).
    Silent,
    /// As leader, proposes a block that fails validation; as replica,
    /// stays silent (worst case).
    ProposesInvalid,
}

/// Per-replica PBFT state.
#[derive(Clone, Debug)]
pub struct Replica {
    /// This replica's index (0-based).
    pub index: u32,
    quorum: usize,
    /// Current view.
    pub view: u64,
    /// The decided digest, once committed.
    pub decided: Option<Digest>,
    behavior: Behavior,
    accepted: Option<(u64, Digest)>,
    sent_prepare: BTreeSet<(u64, Digest)>,
    sent_commit: BTreeSet<(u64, Digest)>,
    prepares: HashMap<(u64, Digest), BTreeSet<u32>>,
    commits: HashMap<(u64, Digest), BTreeSet<u32>>,
    view_votes: HashMap<u64, BTreeSet<u32>>,
    sent_view_change: BTreeSet<u64>,
}

impl Replica {
    /// Creates a replica for a committee of `n`.
    pub fn new(index: u32, n: usize, behavior: Behavior) -> Replica {
        Replica {
            index,
            quorum: quorum_threshold(n),
            view: 0,
            decided: None,
            behavior,
            accepted: None,
            sent_prepare: BTreeSet::new(),
            sent_commit: BTreeSet::new(),
            prepares: HashMap::new(),
            commits: HashMap::new(),
            view_votes: HashMap::new(),
            sent_view_change: BTreeSet::new(),
        }
    }

    /// The quorum size `2f + 2`.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    fn is_honest(&self) -> bool {
        matches!(self.behavior, Behavior::Honest)
    }

    /// Handles a message, returning outgoing broadcasts.
    fn on_message(&mut self, msg: &Message) -> Vec<Message> {
        if !self.is_honest() {
            return Vec::new();
        }
        let mut out = Vec::new();
        match msg {
            Message::PrePrepare {
                view,
                digest,
                valid,
            } => {
                if *view != self.view || self.accepted.is_some() {
                    return out;
                }
                if !*valid {
                    // VerifyBlock failed: demand a new leader (paper §IV-C)
                    out.extend(self.vote_view_change(self.view + 1));
                    return out;
                }
                self.accepted = Some((*view, *digest));
                if self.sent_prepare.insert((*view, *digest)) {
                    out.push(Message::Prepare {
                        view: *view,
                        digest: *digest,
                        from: self.index,
                    });
                }
            }
            Message::Prepare { view, digest, from } => {
                let set = self.prepares.entry((*view, *digest)).or_default();
                set.insert(*from);
                if set.len() >= self.quorum
                    && *view == self.view
                    && self.accepted == Some((*view, *digest))
                    && self.sent_commit.insert((*view, *digest))
                {
                    out.push(Message::Commit {
                        view: *view,
                        digest: *digest,
                        from: self.index,
                    });
                }
            }
            Message::Commit { view, digest, from } => {
                let set = self.commits.entry((*view, *digest)).or_default();
                set.insert(*from);
                if set.len() >= self.quorum && self.decided.is_none() {
                    self.decided = Some(*digest);
                }
            }
            Message::ViewChange { new_view, from } => {
                let set = self.view_votes.entry(*new_view).or_default();
                set.insert(*from);
                // joining an in-progress view change (f+1 rule simplified
                // to quorum here): move once a quorum demands it
                if set.len() >= self.quorum && *new_view > self.view {
                    self.enter_view(*new_view);
                }
            }
        }
        out
    }

    /// Local timeout: no progress in the current view.
    fn on_timeout(&mut self) -> Vec<Message> {
        if !self.is_honest() || self.decided.is_some() {
            return Vec::new();
        }
        self.vote_view_change(self.view + 1)
    }

    fn vote_view_change(&mut self, new_view: u64) -> Vec<Message> {
        if !self.sent_view_change.insert(new_view) {
            return Vec::new();
        }
        self.view_votes
            .entry(new_view)
            .or_default()
            .insert(self.index);
        vec![Message::ViewChange {
            new_view,
            from: self.index,
        }]
    }

    fn enter_view(&mut self, view: u64) {
        self.view = view;
        self.accepted = None;
    }
}

/// Result of driving one consensus instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusOutcome {
    /// The digest every honest replica decided, if agreement was reached.
    pub decided: Option<Digest>,
    /// Number of view changes that occurred.
    pub view_changes: u64,
    /// Total messages delivered.
    pub messages: u64,
}

/// Drives a full consensus instance deterministically under synchronous
/// delivery: each view, the leader (honest or faulty) acts, messages are
/// delivered to quiescence, and timeouts fire if no decision was reached.
///
/// `proposal` is the digest honest leaders propose. At most `max_views`
/// are attempted.
pub fn run_consensus(behaviors: &[Behavior], proposal: Digest, max_views: u64) -> ConsensusOutcome {
    let n = behaviors.len();
    let mut replicas: Vec<Replica> = behaviors
        .iter()
        .enumerate()
        .map(|(i, &b)| Replica::new(i as u32, n, b))
        .collect();
    let mut messages = 0u64;
    let mut view_changes = 0u64;

    let honest_view = |replicas: &[Replica]| {
        replicas
            .iter()
            .filter(|r| r.is_honest())
            .map(|r| r.view)
            .max()
            .unwrap_or(0)
    };

    for _attempt in 0..max_views {
        // the leader of the replicas' *current* view acts
        let cur_view = honest_view(&replicas);
        let leader = (cur_view % n as u64) as usize;
        let mut queue: Vec<Message> = match behaviors[leader] {
            Behavior::Honest => vec![Message::PrePrepare {
                view: cur_view,
                digest: proposal,
                valid: true,
            }],
            Behavior::ProposesInvalid => vec![Message::PrePrepare {
                view: cur_view,
                digest: H256::hash_concat(&[b"invalid", &cur_view.to_be_bytes()]),
                valid: false,
            }],
            Behavior::Silent => Vec::new(),
        };

        // synchronous delivery to quiescence
        while let Some(msg) = queue.pop() {
            messages += 1;
            for r in replicas.iter_mut() {
                queue.extend(r.on_message(&msg));
            }
        }

        if replicas.iter().any(|r| r.decided.is_some()) {
            break;
        }

        // If the proposal itself triggered a view change (invalid block),
        // the replicas already advanced; otherwise fire timeouts.
        if honest_view(&replicas) == cur_view {
            let mut queue: Vec<Message> =
                replicas.iter_mut().flat_map(|r| r.on_timeout()).collect();
            while let Some(msg) = queue.pop() {
                messages += 1;
                for r in replicas.iter_mut() {
                    queue.extend(r.on_message(&msg));
                }
            }
        }
        view_changes += honest_view(&replicas) - cur_view;
    }

    // safety check: all honest deciders agree
    let decisions: BTreeSet<Digest> = replicas
        .iter()
        .filter(|r| r.is_honest())
        .filter_map(|r| r.decided)
        .collect();
    debug_assert!(decisions.len() <= 1, "safety violation");
    ConsensusOutcome {
        decided: decisions.into_iter().next(),
        view_changes,
        messages,
    }
}

/// Convenience: the committee size `3f + 2` for a fault budget.
#[cfg(test)]
fn committee_size_for_faults(f: usize) -> usize {
    3 * f + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_crypto::tsqc::max_faults;

    fn digest() -> Digest {
        H256::hash(b"meta-block-7")
    }

    #[test]
    fn all_honest_decides_in_first_view() {
        let behaviors = vec![Behavior::Honest; 5];
        let out = run_consensus(&behaviors, digest(), 4);
        assert_eq!(out.decided, Some(digest()));
        assert_eq!(out.view_changes, 0);
        assert!(out.messages > 0);
    }

    #[test]
    fn f_silent_replicas_still_decide() {
        // n = 5 → f = 1: one silent non-leader must not block progress
        let mut behaviors = vec![Behavior::Honest; 5];
        behaviors[3] = Behavior::Silent;
        let out = run_consensus(&behaviors, digest(), 4);
        assert_eq!(out.decided, Some(digest()));
        assert_eq!(out.view_changes, 0);
    }

    #[test]
    fn more_than_f_silent_blocks_liveness() {
        // 2 silent of 5 leaves only 3 honest < quorum 4: no decision
        let mut behaviors = vec![Behavior::Honest; 5];
        behaviors[3] = Behavior::Silent;
        behaviors[4] = Behavior::Silent;
        let out = run_consensus(&behaviors, digest(), 3);
        assert_eq!(out.decided, None);
    }

    #[test]
    fn silent_leader_triggers_view_change_then_decides() {
        let mut behaviors = vec![Behavior::Honest; 5];
        behaviors[0] = Behavior::Silent; // leader of view 0
        let out = run_consensus(&behaviors, digest(), 4);
        assert_eq!(out.decided, Some(digest()));
        assert_eq!(out.view_changes, 1);
    }

    #[test]
    fn invalid_proposal_rejected_then_new_leader_decides() {
        let mut behaviors = vec![Behavior::Honest; 5];
        behaviors[0] = Behavior::ProposesInvalid;
        let out = run_consensus(&behaviors, digest(), 4);
        assert_eq!(out.decided, Some(digest()));
        assert!(out.view_changes >= 1);
        // the invalid digest was never decided
        assert_ne!(
            out.decided,
            Some(H256::hash_concat(&[b"invalid", &0u64.to_be_bytes()]))
        );
    }

    #[test]
    fn consecutive_bad_leaders_are_skipped() {
        let mut behaviors = vec![Behavior::Honest; 8]; // n=8 → f=2, quorum 6
        behaviors[0] = Behavior::Silent;
        behaviors[1] = Behavior::ProposesInvalid;
        let out = run_consensus(&behaviors, digest(), 6);
        assert_eq!(out.decided, Some(digest()));
        assert_eq!(out.view_changes, 2);
    }

    #[test]
    fn quorum_matches_paper_formula() {
        let r = Replica::new(0, 500, Behavior::Honest);
        assert_eq!(r.quorum(), 334); // 2f+2 with f=166
        assert_eq!(committee_size_for_faults(166), 500);
        assert_eq!(max_faults(500), 166);
    }

    #[test]
    fn replica_does_not_double_vote() {
        let mut r = Replica::new(0, 5, Behavior::Honest);
        let pp = Message::PrePrepare {
            view: 0,
            digest: digest(),
            valid: true,
        };
        let out1 = r.on_message(&pp);
        let out2 = r.on_message(&pp);
        assert_eq!(out1.len(), 1);
        assert!(out2.is_empty(), "prepared twice for the same proposal");
    }

    #[test]
    fn stale_view_proposals_ignored() {
        let mut r = Replica::new(0, 5, Behavior::Honest);
        // move to view 2 via quorum of view-change votes
        for from in 0..4 {
            r.on_message(&Message::ViewChange { new_view: 2, from });
        }
        assert_eq!(r.view, 2);
        let out = r.on_message(&Message::PrePrepare {
            view: 0,
            digest: digest(),
            valid: true,
        });
        assert!(out.is_empty());
    }

    #[test]
    fn commit_quorum_required_to_decide() {
        let mut r = Replica::new(0, 5, Behavior::Honest);
        let d = digest();
        for from in 0..3 {
            r.on_message(&Message::Commit {
                view: 0,
                digest: d,
                from,
            });
        }
        assert_eq!(r.decided, None, "3 commits < quorum 4");
        r.on_message(&Message::Commit {
            view: 0,
            digest: d,
            from: 3,
        });
        assert_eq!(r.decided, Some(d));
    }
}
