//! One fixed, fast word hasher for the engine's internal maps.
//!
//! Every key the join kernel and the trigger engine hash is a few machine
//! words: interned [`Symbol`](crate::Symbol) ids, null labels, positions and
//! dense fact ids. [`WordHasher`] folds each word in with one add and one
//! multiply, and [`Hasher::finish`] rotates the product's well-mixed high bits
//! into the low bits, which the maps index by (`hash & mask` for the
//! [`FactStore`](crate::FactStore)'s open-addressing tables, the bucket index
//! for `std`'s `HashMap`). Those keys are ids the program allocated, never raw
//! outside input, so the collision resistance of the default `SipHash` buys
//! nothing there. The one exception is the symbol table, keyed by the names of
//! the programs a caller parses: names crafted to collide would slow
//! interning, so a caller that parses untrusted programs bounds their size.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (the one `rustc-hash` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-fold hasher over machine words; see the [module docs](self).
#[derive(Clone, Copy, Default)]
pub struct WordHasher {
    hash: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`WordHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` keyed through [`WordHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<WordHasher>>;

/// Hashes one value with [`WordHasher`].
#[inline]
pub(crate) fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = WordHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Constant, GroundTerm, NullValue};
    use crate::Symbol;

    /// Bucket occupancy of `hashes` over the low `bits` bits.
    fn occupancy(hashes: impl Iterator<Item = u64>, bits: u32) -> Vec<usize> {
        let mut buckets = vec![0usize; 1 << bits];
        for h in hashes {
            buckets[(h as usize) & ((1 << bits) - 1)] += 1;
        }
        buckets
    }

    /// Sequential keys must fill the low bits evenly: every bucket holds
    /// between half and twice the mean. (8,192 keys over 1,024 buckets average
    /// 8 per bucket; a uniformly random hash would leave some bucket with 2 or
    /// fewer and another with 17 or more.)
    fn assert_spread(name: &str, hashes: Vec<u64>) {
        for bits in [6, 10] {
            let buckets = occupancy(hashes.iter().copied(), bits);
            let mean = hashes.len() / buckets.len();
            let max = *buckets.iter().max().expect("non-empty");
            let min = *buckets.iter().min().expect("non-empty");
            assert!(
                min >= mean / 2 && max <= 2 * mean,
                "{name} over {bits} low bits: min {min}, max {max}, mean {mean}"
            );
        }
    }

    #[test]
    fn sequential_nulls_and_symbols_spread_over_the_low_bits() {
        const N: u64 = 8192;
        assert_spread(
            "NullValue",
            (0..N).map(|i| hash_one(&NullValue(i))).collect(),
        );
        assert_spread(
            "GroundTerm::Null",
            (0..N)
                .map(|i| hash_one(&GroundTerm::Null(NullValue(i))))
                .collect(),
        );
        // Interned in one run, so that no symbol another test interns meanwhile
        // punches holes in the sequence.
        let names: Vec<String> = (0..N).map(|i| format!("word-hasher-spread-{i}")).collect();
        let symbols = Symbol::new_run(names.iter().map(String::as_str));
        assert!(symbols.windows(2).all(|w| w[1].raw() == w[0].raw() + 1));
        let constants: Vec<Constant> = symbols.into_iter().map(Constant).collect();
        assert_spread(
            "interned Symbol",
            constants.iter().map(|c| hash_one(&c.0)).collect(),
        );
        assert_spread(
            "GroundTerm::Const",
            constants
                .iter()
                .map(|&c| hash_one(&GroundTerm::Const(c)))
                .collect(),
        );
        // The high half is the fact store's 32-bit tag: distinct keys keep
        // distinct tags.
        let mut tags: Vec<u32> = (0..N)
            .map(|i| (hash_one(&GroundTerm::Null(NullValue(i))) >> 32) as u32)
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), N as usize);
    }

    #[test]
    fn byte_strings_of_different_lengths_differ() {
        assert_ne!(hash_one(&[0u8; 3][..]), hash_one(&[0u8; 4][..]));
        assert_ne!(hash_one("ab"), hash_one("ba"));
    }
}
