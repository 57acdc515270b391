//! Deterministic ChaCha20-based random generator.
//!
//! Every source of randomness in the GenDPR workspace — leader-election
//! nonces, ephemeral X25519 keys, synthetic cohort generation — draws from a
//! [`ChaChaRng`] so that whole experiments are reproducible from a single
//! seed. The generator runs ChaCha20 in counter mode over a zero message,
//! i.e. it emits the raw keystream, which is indistinguishable from random
//! under the same assumption the cipher itself relies on. The stream is
//! the blocks at counters 0, 1, 2, … in order, whatever the refill size.
//!
//! The key is expanded once. The first refill is four blocks (one narrow
//! pass): a generator that only draws a key or a nonce, as the dozens the
//! runtime forks per job do, computes no more than that. Every later
//! refill is sixteen blocks (1 KiB), one AVX-512 pass where the CPU has it
//! and four narrow passes elsewhere. [`ChaChaRng::next_u64`] reads its
//! eight bytes in place while the buffer holds them, and every
//! number-valued draw goes through it; [`ChaChaRng::next_u64_if`] draws
//! or not without a branch on the condition, for callers whose draw count
//! depends on an earlier draw. [`ChaChaRng::fill_bytes`] serves the rest
//! (byte strings, [`ChaChaRng::next_u32`]) and the refill edges.

use crate::chacha20::{self, BLOCKS4_LEN, BLOCK_LEN, KEY_LEN, NONCE_LEN, PASS_LEN};

/// Blocks per refill after the first.
const WIDE_BLOCKS: u32 = (PASS_LEN / BLOCK_LEN) as u32;
/// Blocks of the first refill.
const FIRST_BLOCKS: u32 = (BLOCKS4_LEN / BLOCK_LEN) as u32;

/// A seedable, deterministic cryptographic random generator.
///
/// # Example
///
/// ```
/// use gendpr_crypto::rng::ChaChaRng;
///
/// let mut a = ChaChaRng::from_seed_u64(42);
/// let mut b = ChaChaRng::from_seed_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct ChaChaRng {
    key: chacha20::Key,
    /// The counter of the first block the next refill draws.
    counter: u32,
    /// The last refill's keystream, in `buf[..end]`.
    buf: [u8; PASS_LEN],
    end: usize,
    /// The next byte to draw.
    offset: usize,
}

impl std::fmt::Debug for ChaChaRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaChaRng")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl ChaChaRng {
    /// Creates a generator from a full 32-byte seed.
    #[must_use]
    pub fn from_seed(seed: [u8; KEY_LEN]) -> Self {
        Self {
            key: chacha20::Key::new(&seed),
            counter: 0,
            buf: [0; PASS_LEN],
            end: 0,
            offset: 0,
        }
    }

    /// Creates a generator from a 64-bit seed (expanded via SHA-256).
    #[must_use]
    pub fn from_seed_u64(seed: u64) -> Self {
        let mut material = *b"gendpr/rng/seed/........        ";
        material[16..24].copy_from_slice(&seed.to_le_bytes());
        Self::from_seed(crate::sha256::digest(&material))
    }

    /// Derives an independent child generator labeled by `label`.
    ///
    /// Useful for giving each GDO / phase its own stream so that adding a
    /// consumer does not perturb the draws of another.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> Self {
        let mut seed_input = Vec::with_capacity(KEY_LEN + label.len() + 8);
        let mut fresh = [0u8; 32];
        self.fill_bytes(&mut fresh);
        seed_input.extend_from_slice(&fresh);
        seed_input.extend_from_slice(label.as_bytes());
        Self::from_seed(crate::sha256::digest(&seed_input))
    }

    /// Draws the next blocks: four on the first refill, sixteen after. A
    /// refill that would run the counter past `u32::MAX` panics instead of
    /// repeating keystream.
    fn refill(&mut self) {
        let nonce = [0u8; NONCE_LEN];
        let blocks = if self.counter == 0 {
            self.buf[..BLOCKS4_LEN].copy_from_slice(&self.key.blocks4(0, &nonce));
            FIRST_BLOCKS
        } else {
            self.key.blocks16(self.counter, &nonce, &mut self.buf);
            WIDE_BLOCKS
        };
        self.counter = self
            .counter
            .checked_add(blocks)
            .expect("ChaChaRng exhausted 256 GiB of keystream; reseed required");
        self.end = blocks as usize * BLOCK_LEN;
        self.offset = 0;
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0;
        while written < dest.len() {
            if self.offset == self.end {
                self.refill();
            }
            let take = (self.end - self.offset).min(dest.len() - written);
            dest[written..written + take]
                .copy_from_slice(&self.buf[self.offset..self.offset + take]);
            self.offset += take;
            written += take;
        }
    }

    /// The eight bytes at the offset, if the buffer holds them.
    #[inline]
    fn peek_u64(&self) -> Option<u64> {
        let bytes = self.buf[..self.end].get(self.offset..self.offset + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
    }

    /// Returns a uniformly random `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if let Some(v) = self.peek_u64() {
            self.offset += 8;
            return v;
        }
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }

    /// Draws [`next_u64`](Self::next_u64) if `take`. If not, the stream
    /// does not move and the value returned is unspecified: callers
    /// discard it. While the buffer holds eight bytes there is no branch
    /// on `take`: the bytes are read either way and the offset moves by
    /// `8 × take`.
    #[inline]
    pub fn next_u64_if(&mut self, take: bool) -> u64 {
        if let Some(v) = self.peek_u64() {
            self.offset += 8 * usize::from(take);
            return v;
        }
        if take {
            self.next_u64()
        } else {
            0
        }
    }

    /// Returns a uniformly random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.fill_bytes(&mut buf);
        u32::from_le_bytes(buf)
    }

    /// Returns a uniform value in `[0, bound)` using rejection sampling
    /// (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a standard-normal draw (Box-Muller).
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0) by mapping the zero draw away from 0.
        let u1 = (self.next_u64() >> 11) as f64 + 0.5;
        let u1 = u1 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.next_f64() < p
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Generates a fresh 32-byte key.
    pub fn gen_key(&mut self) -> [u8; 32] {
        let mut k = [0u8; 32];
        self.fill_bytes(&mut k);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = ChaChaRng::from_seed_u64(7);
        let mut b = ChaChaRng::from_seed_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaChaRng::from_seed_u64(1);
        let mut b = ChaChaRng::from_seed_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forked_streams_are_independent_of_consumption() {
        let mut parent1 = ChaChaRng::from_seed_u64(5);
        let mut parent2 = ChaChaRng::from_seed_u64(5);
        let mut child1 = parent1.fork("gdo-0");
        let mut child2 = parent2.fork("gdo-0");
        assert_eq!(child1.next_u64(), child2.next_u64());
        // Distinct labels give distinct streams.
        let mut parent3 = ChaChaRng::from_seed_u64(5);
        let mut other = parent3.fork("gdo-1");
        assert_ne!(child1.next_u64(), other.next_u64());
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = ChaChaRng::from_seed_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = ChaChaRng::from_seed_u64(13);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaChaRng::from_seed_u64(17);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = ChaChaRng::from_seed_u64(19);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn fill_bytes_chunking_consistent() {
        let mut a = ChaChaRng::from_seed_u64(23);
        let mut b = ChaChaRng::from_seed_u64(23);
        let mut buf_a = [0u8; 200];
        a.fill_bytes(&mut buf_a);
        let mut buf_b = [0u8; 200];
        for chunk in buf_b.chunks_mut(7) {
            b.fill_bytes(chunk);
        }
        assert_eq!(buf_a, buf_b);
    }

    fn sha256_hex(bytes: &[u8]) -> String {
        crate::sha256::digest(bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn the_stream_is_pinned() {
        // Captured from the one-block-per-refill generator. The synthetic
        // cohorts, and every selection and fingerprint pinned downstream,
        // are drawn from this stream.
        let mut rng = ChaChaRng::from_seed_u64(1);
        let mut mib = vec![0u8; 1 << 20];
        rng.fill_bytes(&mut mib);
        assert_eq!(
            sha256_hex(&mib),
            "89d05cfaa9f81571fb896f35cea55d482310066abf5b87d011a17c114d6481d4"
        );
        let mut child = ChaChaRng::from_seed_u64(1).fork("x");
        child.fill_bytes(&mut mib);
        assert_eq!(
            sha256_hex(&mib),
            "4e895eb73fa8d28af81544baa2572ca843e117e04a2fdb2d996090d5838afe44"
        );
    }

    #[test]
    fn the_stream_is_the_blocks_in_counter_order() {
        let seed = [9u8; KEY_LEN];
        let mut rng = ChaChaRng::from_seed(seed);
        let mut drawn = vec![0u8; 10 * 64 + 17];
        rng.fill_bytes(&mut drawn);
        let blocks: Vec<u8> = (0..11)
            .flat_map(|c| chacha20::block(&seed, c, &[0; NONCE_LEN]))
            .collect();
        assert_eq!(drawn, blocks[..drawn.len()]);
    }

    #[test]
    fn mixed_draws_are_pinned() {
        // Captured from the generator that took every draw through
        // `fill_bytes`. The draws interleave every width, so offsets land
        // off the 8-byte grid and straddle refills: some 19 KiB in all.
        let mut rng = ChaChaRng::from_seed_u64(44);
        let mut h = crate::sha256::Sha256::new();
        let mut odd = [0u8; 37];
        for i in 0..2000u64 {
            match i % 8 {
                0 => h.update(&rng.next_u32().to_le_bytes()),
                1 | 5 => h.update(&rng.next_u64().to_le_bytes()),
                2 => h.update(&rng.next_f64().to_bits().to_le_bytes()),
                3 => {
                    let len = (i as usize * 7) % odd.len();
                    rng.fill_bytes(&mut odd[..len]);
                    h.update(&odd[..len]);
                }
                4 => h.update(&rng.next_below(1 + i * 1_000_003).to_le_bytes()),
                6 => h.update(&rng.next_gaussian().to_bits().to_le_bytes()),
                _ => h.update(&[u8::from(rng.next_bool(0.3))]),
            }
        }
        let digest = sha256_hex(&h.finalize());
        assert_eq!(
            digest,
            "bb18d481cb94be959d4b5337490f616ed777ea1a1c8aef5867f43dd7c28fac61"
        );
    }

    #[test]
    fn a_conditional_draw_is_a_draw_or_nothing() {
        // Every take pattern is tried at every offset modulo 8 around the
        // first refill edges (a `next_u32` shifts the offset by 4), against
        // a twin that draws only what is taken.
        for shift in 0..8 {
            let mut rng = ChaChaRng::from_seed_u64(45);
            let mut twin = ChaChaRng::from_seed_u64(45);
            let mut head = vec![0u8; shift];
            rng.fill_bytes(&mut head);
            twin.fill_bytes(&mut head);
            for i in 0..700u32 {
                let take = !(i * 7 + shift as u32).is_multiple_of(3);
                let got = rng.next_u64_if(take);
                if take {
                    assert_eq!(got, twin.next_u64(), "draw {i}");
                }
            }
            assert_eq!(rng.next_u32(), twin.next_u32());
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics_instead_of_repeating() {
        let mut rng = ChaChaRng::from_seed_u64(3);
        rng.counter = u32::MAX - 3;
        rng.next_u64();
    }

    #[test]
    fn monobit_sanity() {
        let mut rng = ChaChaRng::from_seed_u64(29);
        let mut buf = [0u8; 8192];
        rng.fill_bytes(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        let total = (buf.len() * 8) as f64;
        let frac = f64::from(ones) / total;
        assert!((frac - 0.5).abs() < 0.02, "ones fraction {frac}");
    }
}
