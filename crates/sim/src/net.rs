//! The network substrate: links of fixed bandwidth under a Δ delay
//! bound, with the transmit and vote-collection costs the PBFT latency
//! model composes (paper: 1 Gbps links, bounded-delay model §III).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the simulated network.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way propagation delay Δ in milliseconds (paper's bounded-delay
    /// assumption).
    pub delta_ms: u64,
    /// Link bandwidth in bits per second (the paper's cluster: 1 Gbps).
    pub bandwidth_bps: u64,
    /// Per-message processing overhead at the receiver, in microseconds
    /// (deserialization + signature checks are modelled separately).
    pub per_message_overhead_us: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::paper_cluster()
    }
}

impl NetworkModel {
    /// The paper's evaluation cluster: 1 Gbps links, a 50 ms Δ bound and a
    /// small per-message cost.
    pub fn paper_cluster() -> NetworkModel {
        NetworkModel {
            delta_ms: 50,
            bandwidth_bps: 1_000_000_000,
            per_message_overhead_us: 150,
        }
    }

    /// Serialization time of `bytes` on one link.
    pub fn transmit_time(&self, bytes: usize) -> SimDuration {
        let bits = bytes as u64 * 8;
        SimDuration::from_millis(bits.saturating_mul(1000) / self.bandwidth_bps)
    }

    /// Vote collection: `n` senders each push `bytes` into the leader's
    /// downlink (serialized at the leader), plus Δ for the earliest votes
    /// and per-message processing at the leader.
    pub fn collect_at_leader(&self, n: usize, bytes: usize) -> SimDuration {
        let serialize = self.transmit_time(bytes).saturating_mul(n as u64);
        let processing = SimDuration::from_millis(self.per_message_overhead_us * n as u64 / 1000);
        serialize + processing + SimDuration::from_millis(self.delta_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_time_scales_with_size() {
        let net = NetworkModel::paper_cluster();
        // 1 MB over 1 Gbps = 8 ms
        assert_eq!(net.transmit_time(1_000_000).as_millis(), 8);
        assert_eq!(net.transmit_time(2_000_000).as_millis(), 16);
        assert_eq!(net.transmit_time(0).as_millis(), 0);
    }

    #[test]
    fn collection_scales_with_committee() {
        let net = NetworkModel::paper_cluster();
        let c100 = net.collect_at_leader(100, 200);
        let c1000 = net.collect_at_leader(1000, 200);
        assert!(c1000 > c100);
    }

    #[test]
    fn default_is_paper_cluster() {
        assert_eq!(NetworkModel::default(), NetworkModel::paper_cluster());
    }
}
