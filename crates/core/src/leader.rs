//! Random leader election (`randomLeaderSelection` of Algorithm 1).
//!
//! The in-process driver seeds the choice from the federation seed. The
//! threaded runtime uses the commit-reveal scheme below so that no single
//! member can bias who aggregates the intermediate results: everyone
//! commits to a nonce, then reveals; the leader index is derived from the
//! XOR of all nonces. As long as one member is honest the outcome is
//! uniform.

use gendpr_crypto::rng::ChaChaRng;
use gendpr_crypto::sha256;

/// Commitment to an election nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionCommit(pub [u8; 32]);

/// The revealed nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionReveal(pub [u8; 32]);

/// Draws a nonce and its commitment.
#[must_use]
pub fn draw_nonce(rng: &mut ChaChaRng) -> (ElectionReveal, ElectionCommit) {
    let nonce = rng.gen_key();
    (ElectionReveal(nonce), commit_to(&ElectionReveal(nonce)))
}

/// The commitment for a given nonce.
#[must_use]
pub fn commit_to(reveal: &ElectionReveal) -> ElectionCommit {
    let mut data = Vec::with_capacity(24 + 32);
    data.extend_from_slice(b"gendpr/election/v1\0");
    data.extend_from_slice(&reveal.0);
    ElectionCommit(sha256::digest(&data))
}

/// Checks a reveal against its earlier commitment.
#[must_use]
pub fn verify_reveal(commitment: &ElectionCommit, reveal: &ElectionReveal) -> bool {
    gendpr_crypto::constant_time::ct_eq(&commit_to(reveal).0, &commitment.0)
}

/// Derives the leader index from all revealed nonces.
///
/// # Panics
///
/// Panics if `reveals` is empty or `gdo_count` is zero.
#[must_use]
pub fn elect(reveals: &[ElectionReveal], gdo_count: usize) -> usize {
    assert!(!reveals.is_empty(), "need at least one reveal");
    assert!(gdo_count > 0, "need at least one member");
    let mut mixed = [0u8; 32];
    for r in reveals {
        for (m, b) in mixed.iter_mut().zip(r.0.iter()) {
            *m ^= b;
        }
    }
    // Hash the mix so a last-revealer controls nothing beyond a single
    // uniform re-draw.
    let digest = sha256::digest(&mixed);
    let value = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"));
    (value % gdo_count as u64) as usize
}

/// Seed-based election for the deterministic in-process driver.
#[must_use]
pub fn elect_seeded(seed: u64, gdo_count: usize) -> usize {
    assert!(gdo_count > 0, "need at least one member");
    let mut rng = ChaChaRng::from_seed_u64(seed).fork("leader-election");
    rng.next_below(gdo_count as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_reveal_roundtrip() {
        let mut rng = ChaChaRng::from_seed_u64(1);
        let (reveal, commitment) = draw_nonce(&mut rng);
        assert!(verify_reveal(&commitment, &reveal));
        let mut bad = reveal;
        bad.0[0] ^= 1;
        assert!(!verify_reveal(&commitment, &bad));
    }

    #[test]
    fn election_is_deterministic_in_reveals() {
        let reveals = vec![ElectionReveal([1u8; 32]), ElectionReveal([2u8; 32])];
        assert_eq!(elect(&reveals, 5), elect(&reveals, 5));
        // Order-independent (XOR mixing).
        let swapped = vec![reveals[1], reveals[0]];
        assert_eq!(elect(&reveals, 5), elect(&swapped, 5));
    }

    #[test]
    fn election_output_in_range_and_spread() {
        let mut rng = ChaChaRng::from_seed_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let reveals: Vec<ElectionReveal> = (0..3).map(|_| draw_nonce(&mut rng).0).collect();
            let leader = elect(&reveals, 4);
            counts[leader] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 50, "leader {i} chosen only {c}/400 times");
        }
    }

    #[test]
    fn seeded_election_reproducible() {
        assert_eq!(elect_seeded(42, 7), elect_seeded(42, 7));
        let spread: std::collections::HashSet<usize> =
            (0..50).map(|s| elect_seeded(s, 7)).collect();
        assert!(spread.len() > 3, "seeded election should vary with seed");
    }

    #[test]
    #[should_panic(expected = "at least one reveal")]
    fn empty_reveals_panics() {
        let _ = elect(&[], 3);
    }
}
