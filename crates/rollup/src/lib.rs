//! # ammboost-rollup
//!
//! `ammOP` — the Optimism-inspired optimistic-rollup baseline the paper
//! compares against (§VI-D): batches of at most 1.8 MB are processed every
//! 35 seconds (2–4 Ethereum rounds, averaged to 3), transactions become
//! *visible* when their batch is processed, and token payouts finalize
//! only after the 7-day contestation period.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ammboost_sim::metrics::LatencyStats;
use ammboost_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// ammOP parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RollupConfig {
    /// Maximum batch size in bytes (Optimism: 1.8 MB).
    pub batch_bytes: usize,
    /// Batch cadence (≈3 Ethereum rounds = 35 s).
    pub batch_interval: SimDuration,
    /// Contestation period before withdrawals finalize (7 days).
    pub contestation: SimDuration,
}

impl Default for RollupConfig {
    fn default() -> Self {
        RollupConfig {
            batch_bytes: 1_800_000,
            batch_interval: SimDuration::from_secs(35),
            contestation: SimDuration::from_secs(7 * 24 * 3600),
        }
    }
}

/// The ammOP pipeline: a FIFO of submitted transactions drained in fixed
/// -size batches on a fixed cadence.
#[derive(Clone, Debug)]
pub struct AmmOp {
    /// The configuration in force.
    pub config: RollupConfig,
    queue: VecDeque<(SimTime, usize)>,
    next_batch_at: SimTime,
    processed: u64,
    batches: u64,
    tx_latency: LatencyStats,
    payout_latency: LatencyStats,
    last_batch_time: SimTime,
}

impl AmmOp {
    /// A fresh pipeline; the first batch lands one interval after t = 0.
    pub fn new(config: RollupConfig) -> AmmOp {
        AmmOp {
            config,
            queue: VecDeque::new(),
            next_batch_at: SimTime::ZERO + config.batch_interval,
            processed: 0,
            batches: 0,
            tx_latency: LatencyStats::new(),
            payout_latency: LatencyStats::new(),
            last_batch_time: SimTime::ZERO,
        }
    }

    /// Submits a transaction of `size` bytes at `at`.
    pub fn submit(&mut self, at: SimTime, size: usize) {
        self.queue.push_back((at, size));
    }

    /// Processes all batches due up to `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.next_batch_at <= t {
            self.process_batch();
        }
    }

    /// Keeps processing batches until the queue drains (the paper empties
    /// queues after each run for accurate latency reporting). Returns the
    /// time of the final batch.
    pub fn drain(&mut self) -> SimTime {
        while !self.queue.is_empty() {
            self.process_batch();
        }
        self.last_batch_time
    }

    fn process_batch(&mut self) {
        let at = self.next_batch_at;
        let mut used = 0usize;
        while let Some(&(submitted, size)) = self.queue.front() {
            if submitted >= at || used + size > self.config.batch_bytes {
                break;
            }
            self.queue.pop_front();
            used += size;
            self.processed += 1;
            let latency = at.since(submitted);
            self.tx_latency.record(latency);
            self.payout_latency
                .record(latency + self.config.contestation);
        }
        self.batches += 1;
        self.last_batch_time = at;
        self.next_batch_at = at + self.config.batch_interval;
    }

    /// Transactions processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Transactions still queued.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Average transaction latency (appearance in a processed batch).
    pub fn avg_tx_latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.tx_latency.mean_secs())
    }

    /// Average payout latency (batch + contestation).
    pub fn avg_payout_latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.payout_latency.mean_secs())
    }

    /// Throughput over the observation window ending at the last batch.
    pub fn throughput(&self) -> f64 {
        let window = self.last_batch_time.as_secs_f64();
        if window == 0.0 {
            0.0
        } else {
            self.processed as f64 / window
        }
    }

    /// The pipeline's capacity ceiling in transactions/second for an
    /// average transaction size.
    pub fn capacity_tps(&self, avg_tx_bytes: f64) -> f64 {
        self.config.batch_bytes as f64 / avg_tx_bytes / self.config.batch_interval.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> AmmOp {
        AmmOp::new(RollupConfig::default())
    }

    #[test]
    fn capacity_matches_paper_throughput() {
        // 1.8 MB / 35 s at ~1008 B/tx ≈ 51 tx/s (paper Table VI: 51.16)
        let p = pipeline();
        let cap = p.capacity_tps(1008.0);
        assert!((50.0..52.5).contains(&cap), "{cap}");
    }

    #[test]
    fn underload_processes_next_batch() {
        let mut p = pipeline();
        p.submit(SimTime::from_secs(1), 1000);
        p.advance_to(SimTime::from_secs(35));
        assert_eq!(p.processed(), 1);
        assert_eq!(p.backlog(), 0);
        // latency = 35 - 1 = 34 s
        assert!((p.avg_tx_latency().as_secs_f64() - 34.0).abs() < 0.01);
    }

    #[test]
    fn payout_latency_includes_contestation() {
        let mut p = pipeline();
        p.submit(SimTime::from_secs(1), 1000);
        p.advance_to(SimTime::from_secs(35));
        let payout = p.avg_payout_latency().as_secs_f64();
        assert!((payout - (34.0 + 604_800.0)).abs() < 1.0, "payout {payout}");
    }

    #[test]
    fn batch_size_limits_throughput() {
        let mut p = pipeline();
        // 3000 txs of 1 KB = 3 MB > one 1.8 MB batch
        for _ in 0..3000 {
            p.submit(SimTime::from_secs(1), 1000);
        }
        p.advance_to(SimTime::from_secs(35));
        assert_eq!(p.processed(), 1800);
        assert_eq!(p.backlog(), 1200);
        p.advance_to(SimTime::from_secs(70));
        assert_eq!(p.processed(), 3000);
    }

    #[test]
    fn drain_empties_queue() {
        let mut p = pipeline();
        for _ in 0..10_000 {
            p.submit(SimTime::from_secs(1), 1000);
        }
        let end = p.drain();
        assert_eq!(p.backlog(), 0);
        assert_eq!(p.processed(), 10_000);
        // 10 MB / 1.8 MB per batch → 6 batches
        assert_eq!(end, SimTime::from_secs(6 * 35));
    }

    #[test]
    fn congestion_grows_latency() {
        let mut light = pipeline();
        let mut heavy = pipeline();
        for i in 0..100u64 {
            light.submit(SimTime::from_millis(i), 1000);
        }
        for i in 0..20_000u64 {
            heavy.submit(SimTime::from_millis(i), 1000);
        }
        light.drain();
        heavy.drain();
        assert!(heavy.avg_tx_latency() > light.avg_tx_latency());
    }

    #[test]
    fn throughput_reported_over_window() {
        let mut p = pipeline();
        for _ in 0..1800 {
            p.submit(SimTime::from_secs(1), 1000);
        }
        p.advance_to(SimTime::from_secs(35));
        let tput = p.throughput();
        assert!((tput - 1800.0 / 35.0).abs() < 0.5, "{tput}");
    }
}
