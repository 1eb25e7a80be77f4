//! The workspace's one integer mixer, and hash maps built on it.
//!
//! Every map on the request path is keyed by a block number, a chunk key
//! or a ghost key: integers the server itself handed out (LBNs it
//! allocated, file handles it issued, offsets it block-aligned), never
//! strings an outsider composes. SipHash's collision resistance buys
//! nothing there and costs ~20 ns per probe, several probes per block.
//! [`MixMap`] hashes such keys with one [`mix64`] per 64-bit word instead,
//! and — unlike `RandomState` — identically on every run and platform.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The splitmix64 finalizer: a bijection on `u64` that avalanches every
/// input bit. Seed derivation, shard selection and [`MixMap`] all use it.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds each written word into the state with one [`mix64`]. A lone
/// `u64` key therefore hashes to `mix64(key)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    // Enum discriminants arrive as `isize`, which forwards to `usize`.
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// A `HashMap` hashed by [`MixHasher`]; build one with `MixMap::default()`.
pub type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // First outputs of the reference splitmix64 stream seeded with 0:
        // the generator's state walk is `mix64`'s own additive step.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn a_lone_word_hashes_to_its_mix() {
        let build = BuildHasherDefault::<MixHasher>::default();
        for key in [0u64, 1, 4096, u64::MAX] {
            assert_eq!(build.hash_one(key), mix64(key));
        }
    }

    #[test]
    fn compound_keys_separate_by_every_field() {
        #[derive(Hash)]
        enum Key {
            A(u64),
            B { x: u64, y: u64 },
        }
        let build = BuildHasherDefault::<MixHasher>::default();
        let hashes = [
            build.hash_one(Key::A(7)),
            build.hash_one(Key::A(8)),
            build.hash_one(Key::B { x: 7, y: 0 }),
            build.hash_one(Key::B { x: 0, y: 7 }),
            build.hash_one(Key::B { x: 7, y: 7 }),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Byte strings hash too (no key on the request path is one).
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }

    #[test]
    fn map_is_deterministic_across_instances() {
        let fill = || {
            let mut m = MixMap::default();
            for k in 0..1000u64 {
                m.insert(k * 4096, k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill(), "iteration order repeats run to run");
    }
}
