//! The paper's §III transaction API: `CreateTx` and `VerifyTx`.
//!
//! A [`SignedTx`] wraps an [`AmmTx`] with the issuer's Schnorr signature;
//! `verify_tx` checks the signature, that the signer is the transaction's
//! stated user, and type-specific syntax (positive amounts, sane ranges).

use ammboost_amm::tx::{AmmTx, RouteError, SwapIntent};
use ammboost_crypto::group::G1;
use ammboost_crypto::schnorr::{self, Keypair, SchnorrSignature};
use ammboost_crypto::Address;
use serde::{Deserialize, Serialize};

/// A signed transaction envelope.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SignedTx {
    /// The transaction.
    pub tx: AmmTx,
    /// The issuer's public key (its hash must equal `tx.user()`).
    pub pubkey: G1,
    /// Schnorr signature over the compact encoding.
    pub signature: SchnorrSignature,
}

/// Why a transaction failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Signature does not verify.
    BadSignature,
    /// The signer's address does not match `tx.user()`.
    WrongSigner {
        /// Address derived from the public key.
        derived: Address,
        /// Address the transaction claims.
        claimed: Address,
    },
    /// A zero or inconsistent amount.
    BadAmount(&'static str),
    /// Lower tick not below upper tick.
    BadRange,
    /// A malformed multi-hop route (duplicate pool, broken direction
    /// chain, hop count out of bounds, zero input).
    BadRoute(RouteError),
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::BadSignature => write!(f, "signature verification failed"),
            TxError::WrongSigner { derived, claimed } => {
                write!(f, "signer {derived} is not the stated user {claimed}")
            }
            TxError::BadAmount(what) => write!(f, "bad amount: {what}"),
            TxError::BadRange => write!(f, "tick range inverted or empty"),
            TxError::BadRoute(e) => write!(f, "bad route: {e}"),
        }
    }
}

impl std::error::Error for TxError {}

/// `CreateTx`: signs a transaction with the issuer's key.
#[doc(alias = "CreateTx")]
pub fn create_tx(keypair: &Keypair, tx: AmmTx) -> SignedTx {
    let mut bytes = Vec::with_capacity(128);
    tx.encode_into(&mut bytes);
    SignedTx {
        signature: keypair.sign(&bytes),
        pubkey: keypair.pk,
        tx,
    }
}

/// `VerifyTx`: syntax + signature validation (semantic checks — deposit
/// coverage, deadlines, slippage — happen at processing time on the
/// sidechain).
///
/// # Errors
/// Returns the first violated rule.
#[doc(alias = "VerifyTx")]
pub fn verify_tx(signed: &SignedTx) -> Result<(), TxError> {
    // syntactic checks per type
    match &signed.tx {
        AmmTx::Swap(s) => match s.intent {
            SwapIntent::ExactInput { amount_in, .. } => {
                if amount_in == 0 {
                    return Err(TxError::BadAmount("zero swap input"));
                }
            }
            SwapIntent::ExactOutput {
                amount_out,
                max_amount_in,
            } => {
                if amount_out == 0 {
                    return Err(TxError::BadAmount("zero swap output"));
                }
                if max_amount_in == 0 {
                    return Err(TxError::BadAmount("zero max input"));
                }
            }
        },
        AmmTx::Mint(m) => {
            if m.tick_lower >= m.tick_upper {
                return Err(TxError::BadRange);
            }
            if m.amount0_desired == 0 && m.amount1_desired == 0 {
                return Err(TxError::BadAmount("mint with empty budget"));
            }
        }
        AmmTx::Burn(b) => {
            if b.liquidity == Some(0) {
                return Err(TxError::BadAmount("zero burn"));
            }
        }
        AmmTx::Collect(c) => {
            if c.amount0 == 0 && c.amount1 == 0 {
                return Err(TxError::BadAmount("collect of nothing"));
            }
        }
        AmmTx::Route(r) => {
            r.validate().map_err(TxError::BadRoute)?;
        }
    }
    // identity check
    let derived = Address::from_pubkey_bytes(&signed.pubkey.to_bytes());
    let claimed = signed.tx.user();
    if derived != claimed {
        return Err(TxError::WrongSigner { derived, claimed });
    }
    // signature check
    let mut bytes = Vec::with_capacity(128);
    signed.tx.encode_into(&mut bytes);
    if !schnorr::verify(&signed.pubkey, &bytes, &signed.signature) {
        return Err(TxError::BadSignature);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::SwapTx;
    use ammboost_amm::types::PoolId;

    fn keypair() -> Keypair {
        Keypair::from_seed(42, 1)
    }

    fn swap_for(kp: &Keypair) -> AmmTx {
        AmmTx::Swap(SwapTx {
            user: kp.address(),
            pool: PoolId(0),
            zero_for_one: true,
            intent: SwapIntent::ExactInput {
                amount_in: 500,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: 99,
        })
    }

    #[test]
    fn create_verify_roundtrip() {
        let kp = keypair();
        let signed = create_tx(&kp, swap_for(&kp));
        assert_eq!(verify_tx(&signed), Ok(()));
    }

    #[test]
    fn tampered_tx_rejected() {
        let kp = keypair();
        let mut signed = create_tx(&kp, swap_for(&kp));
        if let AmmTx::Swap(s) = &mut signed.tx {
            s.deadline_round = 100;
        }
        assert_eq!(verify_tx(&signed), Err(TxError::BadSignature));
    }

    #[test]
    fn wrong_signer_rejected() {
        let kp = keypair();
        let other = Keypair::from_seed(42, 2);
        // other signs a tx claiming kp's identity
        let signed = create_tx(&other, swap_for(&kp));
        assert!(matches!(
            verify_tx(&signed),
            Err(TxError::WrongSigner { .. })
        ));
    }

    #[test]
    fn zero_amounts_rejected() {
        let kp = keypair();
        let tx = AmmTx::Swap(SwapTx {
            user: kp.address(),
            pool: PoolId(0),
            zero_for_one: false,
            intent: SwapIntent::ExactInput {
                amount_in: 0,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: 1,
        });
        let signed = create_tx(&kp, tx);
        assert!(matches!(verify_tx(&signed), Err(TxError::BadAmount(_))));
    }

    #[test]
    fn inverted_mint_range_rejected() {
        let kp = keypair();
        let tx = AmmTx::Mint(ammboost_amm::tx::MintTx {
            user: kp.address(),
            pool: PoolId(0),
            position: None,
            tick_lower: 60,
            tick_upper: -60,
            amount0_desired: 1,
            amount1_desired: 1,
            nonce: 0,
        });
        let signed = create_tx(&kp, tx);
        assert_eq!(verify_tx(&signed), Err(TxError::BadRange));
    }
}
