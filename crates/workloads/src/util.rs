//! Shared helpers: deterministic input generation and checksumming.

use ftspm_sim::{BlockId, Dram};
use ftspm_testkit::Rng;

/// FNV-1a over a stream of 32-bit words: the checksum every kernel
/// produces both natively and through the simulator.
pub fn fnv1a64(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A checksum accumulator with the same semantics as [`fnv1a64`], for
/// feeding words one at a time inside a kernel loop.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one word.
    pub fn push(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic RNG for input generation.
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// `n` random words.
pub fn random_words(seed: u64, n: usize) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen()).collect()
}

/// Pokes a word slice into a block's off-chip home copy.
pub fn poke_words(dram: &mut Dram, block: BlockId, words: &[u32]) {
    for (i, w) in words.iter().enumerate() {
        dram.poke_word(block, (i as u32) * 4, *w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_batch_fnv() {
        let words = [1u32, 2, 0xFFFF_FFFF, 42];
        let mut c = Checksum::new();
        for w in words {
            c.push(w);
        }
        assert_eq!(c.value(), fnv1a64(words));
    }

    #[test]
    fn rng_is_deterministic() {
        assert_eq!(random_words(7, 16), random_words(7, 16));
        assert_ne!(random_words(7, 16), random_words(8, 16));
    }

    #[test]
    fn empty_checksum_is_offset_basis() {
        assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
    }
}
