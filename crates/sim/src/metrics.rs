//! Measurement plumbing: latency statistics, counters and throughput —
//! the quantities every table in the paper reports.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Averages latency samples: a count and a millisecond sum, so memory
/// stays constant however many samples a run records.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum_ms: u128,
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.count += 1;
        self.sum_ms += u128::from(d.as_millis());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Arithmetic mean in seconds (`0.0` when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ms as f64 / self.count as f64 / 1000.0
    }
}

/// Computes throughput in events/second over an observation window.
pub fn throughput(events: u64, window: SimDuration) -> f64 {
    let secs = window.as_secs_f64();
    if secs == 0.0 {
        return 0.0;
    }
    events as f64 / secs
}

/// A monotonically growing byte counter with a time series of checkpoints —
/// used for chain-growth measurements (Figure 5).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GrowthSeries {
    total_bytes: u64,
    checkpoints: Vec<(SimTime, u64)>,
}

impl GrowthSeries {
    /// An empty series.
    pub fn new() -> GrowthSeries {
        GrowthSeries::default()
    }

    /// Adds `bytes` of growth.
    pub fn add(&mut self, bytes: u64) {
        self.total_bytes += bytes;
    }

    /// Removes `bytes` (pruning).
    pub fn remove(&mut self, bytes: u64) {
        self.total_bytes = self.total_bytes.saturating_sub(bytes);
    }

    /// Records a checkpoint of the current total at `t`.
    pub fn checkpoint(&mut self, t: SimTime) {
        self.checkpoints.push((t, self.total_bytes));
    }

    /// Current total bytes.
    pub fn total(&self) -> u64 {
        self.total_bytes
    }

    /// The recorded `(time, bytes)` checkpoints.
    pub fn checkpoints(&self) -> &[(SimTime, u64)] {
        &self.checkpoints
    }

    /// The maximum total ever checkpointed (the "max chain growth" of
    /// Table XI).
    pub fn peak(&self) -> u64 {
        self.checkpoints
            .iter()
            .map(|&(_, b)| b)
            .max()
            .unwrap_or(self.total_bytes)
            .max(self.total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basic() {
        let mut s = LatencyStats::new();
        for ms in [100u64, 200, 300, 400, 500] {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean_secs() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_secs(), 0.0);
    }

    #[test]
    fn throughput_computation() {
        assert!((throughput(1000, SimDuration::from_secs(10)) - 100.0).abs() < 1e-9);
        assert_eq!(throughput(5, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn growth_series_prune_and_peak() {
        let mut g = GrowthSeries::new();
        g.add(1000);
        g.checkpoint(SimTime::from_secs(1));
        g.add(500);
        g.checkpoint(SimTime::from_secs(2));
        g.remove(1200);
        g.checkpoint(SimTime::from_secs(3));
        assert_eq!(g.total(), 300);
        assert_eq!(g.peak(), 1500);
        assert_eq!(g.checkpoints().len(), 3);
    }
}
