//! `sim::RecencyMap` against an eager LRU model.
//!
//! The map's index is lazy: a hit promotes an entry's true stamp and
//! leaves its filing alone, and removals and class changes leave
//! tombstones that are dropped when they surface or compacted away. None
//! of that may be observable. For any sequence of inserts, promotions
//! through a shared reference, class changes, removals and head / evict
//! queries, the map must answer exactly what a model answers that keeps
//! every entry's true stamp and class in a plain `Vec` and takes a class's
//! head as its minimum true stamp. `check()` must hold after every op.
//!
//! The op mix covers the cases the lazy index has special machinery for:
//! a promotion with an older stamp (promotion is by max), a block made
//! dirty and flushed clean again with no hit in between (it comes back to
//! its clean class under an unchanged stamp, next to its own tombstone:
//! the filing generation tells them apart), an entry moved out of every
//! class and back, and sweeps of removals that push a heap past its
//! compaction threshold (tombstones outnumbering live filings).

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, PropResult};
use sim::{RecencyClass, RecencyMap};

/// Clean data, clean metadata and dirty blocks have heaps; a pinned
/// entry is in no class, as a dirty FHO chunk is in NCache.
const CLASSES: usize = 3;
const DIRTY: u8 = 2;
const PINNED: u8 = 3;

/// A model entry's value: its state picks its class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Block(u8);

impl RecencyClass<u64> for Block {
    fn class(&self, _: &u64) -> Option<usize> {
        (self.0 != PINNED).then_some(usize::from(self.0))
    }
}

/// `(op, key, arg)`.
type Step = (u8, u64, u64);

/// The eager model: `(key, true stamp, state)`, one per resident key.
#[derive(Default)]
struct Model {
    entries: Vec<(u64, u64, u8)>,
}

impl Model {
    fn find(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|&(k, ..)| k == key)
    }

    fn members(&self, class: usize) -> Vec<(u64, u64)> {
        let mut members: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|&&(_, _, state)| Block(state).class(&0) == Some(class))
            .map(|&(key, stamp, _)| (stamp, key))
            .collect();
        members.sort_unstable();
        members
    }

    fn head(&self, class: usize) -> Option<(u64, u64)> {
        self.members(class).first().copied()
    }

    fn remove(&mut self, key: u64) -> Option<u8> {
        self.find(key).map(|at| self.entries.remove(at).2)
    }
}

/// Sets `key`'s state in both, if it is resident.
fn set_state(
    map: &mut RecencyMap<u64, Block, CLASSES>,
    model: &mut Model,
    key: u64,
    state: u8,
) -> PropResult {
    let changed = map.update(&key, |b| b.0 = state);
    prop_assert_eq!(
        changed.is_some(),
        model.find(key).is_some(),
        "update of {}",
        key
    );
    if let Some(at) = model.find(key) {
        model.entries[at].2 = state;
    }
    Ok(())
}

fn agree(keys: u64, steps: Vec<Step>) -> PropResult {
    let mut map: RecencyMap<u64, Block, CLASSES> = RecencyMap::new();
    let mut model = Model::default();
    let mut clock = 0u64;
    for (op, key, arg) in steps {
        let key = key % keys;
        match op {
            // Insert (or replace) at a fresh stamp, in any state.
            0 | 1 => {
                clock += 1;
                let state = (arg % 4) as u8;
                let replaced = map.insert(key, Block(state), clock);
                prop_assert_eq!(replaced.map(|b| b.0), model.remove(key), "insert {}", key);
                model.entries.push((key, clock, state));
            }
            // Promote through a shared reference: to a fresh stamp, or
            // (odd `arg`) to one no later than the entry's own, which must
            // change nothing.
            2 | 3 => {
                clock += 1;
                let fresh = clock;
                let shared = &map;
                let hit = shared.get(&key).map(|e| {
                    let stamp = if arg % 2 == 0 {
                        fresh
                    } else {
                        e.stamp().saturating_sub(arg)
                    };
                    e.promote(stamp);
                    stamp
                });
                prop_assert_eq!(hit.is_some(), model.find(key).is_some(), "probe {}", key);
                if let (Some(stamp), Some(at)) = (hit, model.find(key)) {
                    model.entries[at].1 = model.entries[at].1.max(stamp);
                }
            }
            // Class change to any state, pinned included.
            4 => set_state(&mut map, &mut model, key, (arg % 4) as u8)?,
            // Made dirty and flushed clean again with no hit in between.
            5 => {
                set_state(&mut map, &mut model, key, DIRTY)?;
                set_state(&mut map, &mut model, key, (arg % 2) as u8)?;
            }
            6 => prop_assert_eq!(
                map.remove(&key).map(|b| b.0),
                model.remove(key),
                "remove {}",
                key
            ),
            // Head of a class; with odd `arg`, evict it.
            7 | 8 => {
                let class = (arg % CLASSES as u64) as usize;
                let head = map.head(class);
                prop_assert_eq!(head, model.head(class), "head of class {}", class);
                if let Some((stamp, victim)) = head {
                    prop_assert_eq!(map.settled(&victim), Some(stamp), "the head is settled");
                    if arg % 2 == 1 {
                        prop_assert!(map.remove(&victim).is_some());
                        model.remove(victim);
                    }
                }
            }
            // A sweep of removals: every key of one residue class.
            _ => {
                let (stride, residue) = (2 + arg % 3, arg % 2);
                for k in (0..keys).filter(|k| k % stride == residue) {
                    prop_assert_eq!(map.remove(&k).map(|b| b.0), model.remove(k), "sweep {}", k);
                }
            }
        }
        prop_assert_eq!(map.check(), Ok(()), "index after op {} on {}", op, key);
        prop_assert_eq!(map.len(), model.entries.len());
        for class in 0..CLASSES {
            let mut members: Vec<(u64, u64)> = map.members(class).collect();
            members.sort_unstable();
            prop_assert_eq!(
                map.live(class),
                model.members(class).len(),
                "live {}",
                class
            );
            prop_assert_eq!(members, model.members(class), "members of class {}", class);
        }
        for &(k, stamp, state) in &model.entries {
            prop_assert_eq!(map.get(&k).map(|e| (e.stamp(), e.0)), Some((stamp, state)));
            if let Some(settled) = map.settled(&k) {
                prop_assert!(
                    state != PINNED && settled == stamp,
                    "{} settled at {}",
                    k,
                    settled
                );
            }
        }
    }
    // Draining every class through its head yields the model's order.
    for class in 0..CLASSES {
        for expect in model.members(class) {
            let head = map.head(class);
            prop_assert_eq!(head, Some(expect), "drain class {}", class);
            map.remove(&expect.1);
            prop_assert_eq!(map.check(), Ok(()), "index while draining");
        }
        prop_assert_eq!(map.head(class), None);
    }
    Ok(())
}

fn step() -> impl Gen<Value = Step> {
    (ints(0u8..10), any_u64(), ints(0u64..16))
}

property! {
    /// A small key space: most ops hit a resident entry, and class
    /// changes and re-inserts pile tombstones on few keys.
    fn prop_recency_map_matches_an_eager_lru_on_few_keys(
        steps in vec_of(step(), 0..300),
    ) {
        agree(12, steps)?;
    }

    /// A wider key space: heaps grow to dozens of filings, so the removal
    /// sweeps cross the compaction threshold with many live filings left.
    fn prop_recency_map_matches_an_eager_lru_on_many_keys(
        steps in vec_of(step(), 0..400),
    ) {
        agree(64, steps)?;
    }
}
