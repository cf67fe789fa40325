//! Traffic-mix configuration: the fractions of swap/mint/burn/collect
//! transactions, with the paper's presets (Table VII default and the six
//! Table XI variants).

use serde::{Deserialize, Serialize};

/// A traffic mix in percent; components need not sum exactly to 100 (they
/// are renormalized when sampling).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// Swap share (%).
    pub swap: f64,
    /// Mint share (%).
    pub mint: f64,
    /// Burn share (%).
    pub burn: f64,
    /// Collect share (%).
    pub collect: f64,
}

impl TrafficMix {
    /// The observed Uniswap 2023 mix (Table VII): 93.19 / 2.14 / 2.38 /
    /// 2.27.
    pub fn uniswap_2023() -> TrafficMix {
        TrafficMix {
            swap: 93.19,
            mint: 2.14,
            burn: 2.38,
            collect: 2.27,
        }
    }

    /// The six Table XI configurations, in the paper's order:
    /// `(60,20,10,10), (60,10,20,10), (60,10,10,20), (80,10,5,5),
    /// (80,5,10,5), (80,5,5,10)`.
    pub fn table_xi_variants() -> [TrafficMix; 6] {
        [
            TrafficMix::from_tuple((60.0, 20.0, 10.0, 10.0)),
            TrafficMix::from_tuple((60.0, 10.0, 20.0, 10.0)),
            TrafficMix::from_tuple((60.0, 10.0, 10.0, 20.0)),
            TrafficMix::from_tuple((80.0, 10.0, 5.0, 5.0)),
            TrafficMix::from_tuple((80.0, 5.0, 10.0, 5.0)),
            TrafficMix::from_tuple((80.0, 5.0, 5.0, 10.0)),
        ]
    }

    /// Builds from an `(s, m, b, c)` tuple.
    pub fn from_tuple((swap, mint, burn, collect): (f64, f64, f64, f64)) -> TrafficMix {
        TrafficMix {
            swap,
            mint,
            burn,
            collect,
        }
    }

    /// The weights as an array ordered `[swap, mint, burn, collect]`.
    pub fn weights(&self) -> [f64; 4] {
        [self.swap, self.mint, self.burn, self.collect]
    }

    /// Validates that all components are non-negative and at least one is
    /// positive.
    #[cfg(test)]
    fn is_valid(&self) -> bool {
        let w = self.weights();
        w.iter().all(|&x| x >= 0.0) && w.iter().sum::<f64>() > 0.0
    }
}

impl Default for TrafficMix {
    fn default() -> Self {
        TrafficMix::uniswap_2023()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_uniswap_2023() {
        let m = TrafficMix::default();
        assert_eq!(m, TrafficMix::uniswap_2023());
        assert!((m.weights().iter().sum::<f64>() - 99.98).abs() < 0.05);
    }

    #[test]
    fn table_xi_variants_keep_swaps_dominant() {
        for v in TrafficMix::table_xi_variants() {
            assert!(v.swap >= 60.0);
            assert!((v.weights().iter().sum::<f64>() - 100.0).abs() < 1e-9);
            assert!(v.is_valid());
        }
    }

    #[test]
    fn invalid_mixes_detected() {
        assert!(!TrafficMix::from_tuple((0.0, 0.0, 0.0, 0.0)).is_valid());
        assert!(!TrafficMix::from_tuple((-1.0, 50.0, 25.0, 26.0)).is_valid());
    }
}
