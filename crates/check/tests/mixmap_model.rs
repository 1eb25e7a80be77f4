//! `sim::MixMap` against `std::collections::HashMap`.
//!
//! The block- and chunk-keyed maps on the request path hash with one
//! `mix64` per word instead of SipHash. A hasher can only change how fast
//! a map answers, never what it answers: for any sequence of inserts,
//! removes and lookups both maps must return the same values at every
//! step and hold the same contents at the end — over the key shapes the
//! data plane really uses (dense block numbers, 4 KiB-stride offsets,
//! keys that differ only in their top bits) as well as arbitrary ones.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use check::gen::*;
use check::{prop_assert_eq, property, PropResult};
use netbuf::key::{CacheKey, Fho, FileHandle, Lbn};
use sim::MixMap;

/// `(op, key, value)`: op 0-1 inserts, 2 removes, 3 looks up.
type Step<K> = (u8, K, u32);

fn agree<K: Copy + Eq + Hash + Ord + Debug>(steps: Vec<Step<K>>) -> PropResult {
    let mut mix: MixMap<K, u32> = MixMap::default();
    let mut std: HashMap<K, u32> = HashMap::new();
    for (op, key, value) in steps {
        match op {
            0 | 1 => prop_assert_eq!(mix.insert(key, value), std.insert(key, value), "insert"),
            2 => prop_assert_eq!(mix.remove(&key), std.remove(&key), "remove"),
            _ => prop_assert_eq!(mix.get(&key), std.get(&key), "get"),
        }
        prop_assert_eq!(mix.len(), std.len());
    }
    let sorted = |mut pairs: Vec<(K, u32)>| {
        pairs.sort_unstable();
        pairs
    };
    prop_assert_eq!(
        sorted(mix.into_iter().collect()),
        sorted(std.into_iter().collect()),
        "final contents"
    );
    Ok(())
}

/// Block-number-shaped words: few enough distinct values that removes and
/// lookups find earlier inserts.
fn word() -> impl Gen<Value = u64> {
    check::one_of![
        ints(0u64..48),
        ints(0u64..48).map(|k| k * 4096),
        ints(0u64..48).map(|k| k << 58),
        ints(0u64..48).map(|k| u64::MAX - k),
        any_u64(),
    ]
}

fn cache_key() -> impl Gen<Value = CacheKey> {
    check::one_of![
        word().map(|b| CacheKey::Lbn(Lbn(b))),
        (ints(0u64..4), word()).map(|(fh, off)| CacheKey::Fho(Fho::new(FileHandle(fh), off))),
    ]
}

property! {
    #![cases(64)]

    fn prop_mixmap_agrees_with_std_over_block_numbers(
        steps in vec_of((ints(0u8..4), word(), any_u32()), 1..400),
    ) {
        agree(steps)?;
    }

    fn prop_mixmap_agrees_with_std_over_cache_keys(
        steps in vec_of((ints(0u8..4), cache_key(), any_u32()), 1..400),
    ) {
        agree(steps)?;
    }
}
