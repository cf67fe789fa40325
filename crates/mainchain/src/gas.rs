//! The EVM gas schedule (post-EIP-2929 / EIP-1108, the rules in force on
//! the Sepolia testnet the paper profiled with Tenderly) and a labelled
//! gas meter that makes every charge itemizable — the reproduction of the
//! paper's Table II depends on this itemization.

/// Base cost of any transaction.
pub const TX_BASE: u64 = 21_000;
/// Per-byte calldata cost (non-zero bytes, post-EIP-2028).
pub const CALLDATA_NONZERO_BYTE: u64 = 16;
/// Per-byte calldata cost (zero bytes).
pub const CALLDATA_ZERO_BYTE: u64 = 4;
/// Storing a fresh 32-byte word: `SSTORE` to a zero slot (20,000) plus the
/// EIP-2929 cold-access surcharge (2,100) — the paper's "22,100 gas per
/// word" (Table II).
pub const SSTORE_NEW_WORD: u64 = 22_100;
/// Updating an existing word in a cold slot: 2,900 + 2,100.
pub const SSTORE_UPDATE_COLD: u64 = 5_000;
/// Updating an existing word in a warm slot.
pub const SSTORE_UPDATE_WARM: u64 = 2_900;
/// Reading a cold storage slot (EIP-2929).
pub const SLOAD_COLD: u64 = 2_100;
/// Reading a warm storage slot.
pub const SLOAD_WARM: u64 = 100;
/// Keccak-256 base cost.
pub const KECCAK_BASE: u64 = 30;
/// Keccak-256 cost per 32-byte word of input.
pub const KECCAK_PER_WORD: u64 = 6;
/// `ecMul` precompile on alt_bn128 (EIP-1108).
pub const EC_MUL: u64 = 6_000;
/// `ecAdd` precompile on alt_bn128 (EIP-1108).
pub const EC_ADD: u64 = 150;
/// `ecPairing` per-pair cost (EIP-1108).
pub const PAIRING_PER_PAIR: u64 = 34_000;
/// `ecPairing` base cost (EIP-1108).
pub const PAIRING_BASE: u64 = 45_000;
/// Cold account/contract access for `CALL` (EIP-2929).
pub const CALL_COLD: u64 = 2_600;
/// Warm `CALL`.
pub const CALL_WARM: u64 = 100;
/// `LOG` base cost.
pub const LOG_BASE: u64 = 375;
/// `LOG` cost per topic.
pub const LOG_PER_TOPIC: u64 = 375;
/// `LOG` cost per data byte.
pub const LOG_PER_BYTE: u64 = 8;
/// Refund for clearing a storage slot (EIP-3529 cap applies at tx level;
/// we track refunds but cap them at 1/5 of gas used, as the EVM does).
pub const SSTORE_CLEAR_REFUND: u64 = 4_800;

/// Cost of hashing `len` bytes with the `KECCAK256` opcode.
pub fn keccak_cost(len: usize) -> u64 {
    KECCAK_BASE + KECCAK_PER_WORD * (len as u64).div_ceil(32)
}

/// Cost of an `ecPairing` check over `k` pairs. The BLS verification in
/// TokenBank uses `k = 2`, giving the paper's 113,000.
pub fn pairing_cost(pairs: usize) -> u64 {
    PAIRING_BASE + PAIRING_PER_PAIR * pairs as u64
}

/// Intrinsic transaction cost for the given calldata.
pub fn intrinsic_cost(calldata_len: usize, zero_fraction: f64) -> u64 {
    let zeros = (calldata_len as f64 * zero_fraction) as u64;
    let nonzeros = calldata_len as u64 - zeros;
    TX_BASE + zeros * CALLDATA_ZERO_BYTE + nonzeros * CALLDATA_NONZERO_BYTE
}

/// The gas charged under one label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GasItem {
    /// What the charges were for (e.g. `"payout"`, `"pairing"`).
    pub label: &'static str,
    /// Gas units charged under the label so far.
    pub gas: u64,
}

/// A gas meter that remembers what every unit was spent on: a running
/// total per label, so a 50 000-payout sync holds a dozen entries, not
/// one per charge.
#[derive(Clone, Debug, Default)]
pub struct GasMeter {
    items: Vec<GasItem>,
    /// Index of the entry charged last.
    last: usize,
    gross: u64,
    refund: u64,
}

impl GasMeter {
    /// A fresh meter.
    pub fn new() -> GasMeter {
        GasMeter::default()
    }

    /// Charges `gas` under `label`.
    pub fn charge(&mut self, label: &'static str, gas: u64) {
        self.gross += gas;
        // a loop charging one label passes the same `&'static str` each
        // time: compare pointers with the last entry before searching
        let charged_last = |item: &GasItem| std::ptr::eq(item.label, label);
        if !self.items.get(self.last).is_some_and(charged_last) {
            let found = self.items.iter().position(|i| i.label == label);
            self.last = found.unwrap_or_else(|| {
                self.items.push(GasItem { label, gas: 0 });
                self.items.len() - 1
            });
        }
        self.items[self.last].gas += gas;
    }

    /// Registers a storage-clear refund.
    pub fn add_refund(&mut self, gas: u64) {
        self.refund += gas;
    }

    /// Total gas charged, after applying the EIP-3529 refund cap
    /// (refunds at most 1/5 of gas used).
    pub fn total(&self) -> u64 {
        self.gross - self.refund.min(self.gross / 5)
    }

    /// Gross gas before refunds.
    pub fn gross(&self) -> u64 {
        self.gross
    }

    /// Sum of the charges carrying `label`.
    pub fn total_for(&self, label: &str) -> u64 {
        self.items
            .iter()
            .find(|i| i.label == label)
            .map_or(0, |i| i.gas)
    }

    /// The itemization: one [`GasItem`] per label holding the label's
    /// running total, in the order the labels were first charged.
    pub fn items(&self) -> &[GasItem] {
        &self.items
    }

    /// Merges another meter's charges and refunds into this one.
    pub fn absorb(&mut self, other: GasMeter) {
        for item in other.items {
            self.charge(item.label, item.gas);
        }
        self.refund += other.refund;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        // the exact numbers Table II itemizes
        assert_eq!(SSTORE_NEW_WORD, 22_100);
        assert_eq!(EC_MUL, 6_000);
        assert_eq!(pairing_cost(2), 113_000);
        assert_eq!(keccak_cost(256), 30 + 6 * 8);
        assert_eq!(keccak_cost(1), 36);
        assert_eq!(keccak_cost(0), 30);
    }

    #[test]
    fn intrinsic_cost_shape() {
        assert_eq!(intrinsic_cost(0, 0.0), 21_000);
        assert_eq!(intrinsic_cost(100, 0.0), 21_000 + 1_600);
        assert_eq!(intrinsic_cost(100, 1.0), 21_000 + 400);
    }

    #[test]
    fn meter_itemization() {
        let mut m = GasMeter::new();
        m.charge("storage", SSTORE_NEW_WORD);
        m.charge("pairing", pairing_cost(2));
        m.charge("storage", SSTORE_NEW_WORD);
        assert_eq!(m.total_for("storage"), 44_200);
        assert_eq!(m.total_for("pairing"), 113_000);
        assert_eq!(m.total_for("never charged"), 0);
        assert_eq!(m.total(), 157_200);
        // one item per label, in first-charge order
        let item = |label, gas| GasItem { label, gas };
        assert_eq!(
            m.items(),
            [item("storage", 44_200), item("pairing", 113_000)]
        );
    }

    #[test]
    fn refund_is_capped_at_one_fifth() {
        let mut m = GasMeter::new();
        m.charge("x", 10_000);
        m.add_refund(100_000);
        assert_eq!(m.total(), 8_000); // 10,000 - min(100,000, 2,000)
        assert_eq!(m.gross(), 10_000);
    }

    #[test]
    fn absorb_merges() {
        let mut a = GasMeter::new();
        a.charge("a", 10);
        a.charge("b", 5);
        let mut b = GasMeter::new();
        b.charge("b", 20);
        b.charge("c", 1);
        b.add_refund(2);
        a.absorb(b);
        assert_eq!(a.total(), 34);
        assert_eq!(a.total_for("b"), 25);
        let labels: Vec<_> = a.items().iter().map(|i| i.label).collect();
        assert_eq!(labels, ["a", "b", "c"]);
    }

    /// The meter this one replaced: one entry per charge, every query a
    /// scan.
    #[derive(Default)]
    struct PerChargeMeter {
        charges: Vec<(&'static str, u64)>,
        refund: u64,
    }

    impl PerChargeMeter {
        fn gross(&self) -> u64 {
            self.charges.iter().map(|(_, gas)| gas).sum()
        }

        fn total(&self) -> u64 {
            self.gross() - self.refund.min(self.gross() / 5)
        }

        fn total_for(&self, label: &str) -> u64 {
            let carrying = self.charges.iter().filter(|(l, _)| *l == label);
            carrying.map(|(_, gas)| gas).sum()
        }

        fn absorb(&mut self, other: PerChargeMeter) {
            self.charges.extend(other.charges);
            self.refund += other.refund;
        }
    }

    const LABELS: [&str; 6] = ["payout", "auth", "vkc", "position", "pool", "log"];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn per_label_totals_match_the_per_charge_list(
            ops in proptest::collection::vec((0u8..4, 0usize..6, 0u64..100_000), 0..200),
        ) {
            // two meter pairs: ops 0/1 charge and refund the main pair,
            // op 2 charges the side pair, op 3 absorbs it into the main one
            let (mut meter, mut oracle) = (GasMeter::new(), PerChargeMeter::default());
            let (mut side, mut side_oracle) = (GasMeter::new(), PerChargeMeter::default());
            for (op, label, gas) in ops {
                // same text, different address: the search path must
                // merge what the pointer check cannot
                let label = if gas % 2 == 0 {
                    LABELS[label]
                } else {
                    &*String::from(LABELS[label]).leak()
                };
                match op {
                    0 => {
                        meter.charge(label, gas);
                        oracle.charges.push((label, gas));
                    }
                    1 => {
                        meter.add_refund(gas);
                        oracle.refund += gas;
                    }
                    2 => {
                        side.charge(label, gas);
                        side.add_refund(gas / 7);
                        side_oracle.charges.push((label, gas));
                        side_oracle.refund += gas / 7;
                    }
                    _ => {
                        meter.absorb(std::mem::take(&mut side));
                        oracle.absorb(std::mem::take(&mut side_oracle));
                    }
                }
                prop_assert_eq!(meter.total(), oracle.total());
                prop_assert_eq!(meter.gross(), oracle.gross());
                for l in LABELS {
                    prop_assert_eq!(meter.total_for(l), oracle.total_for(l));
                }
                prop_assert!(meter.items().len() <= LABELS.len());
            }
        }
    }
}
