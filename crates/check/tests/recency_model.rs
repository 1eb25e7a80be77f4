//! `sim::RecencyMap` against an eager LRU model.
//!
//! The map's index is lazy: a hit promotes an entry's true stamp and
//! leaves its filing alone, and removals and class changes leave
//! tombstones that are dropped when they surface or compacted away. None
//! of that may be observable. For any sequence of inserts, promotions
//! through a shared reference, class changes, removals and head / take /
//! pop queries, the map must answer exactly what a model answers that
//! keeps every entry's true stamp and class in a plain `Vec` and takes a
//! class's head as its minimum true stamp. `check()` must hold after every
//! op.
//!
//! The op mix covers the cases the lazy index has special machinery for:
//! a promotion with an older stamp (promotion is by max), a block made
//! dirty and flushed clean again with no hit in between (it comes back to
//! its clean class under an unchanged stamp, next to its own tombstone:
//! the filing generation tells them apart), an entry moved out of every
//! class and back, sweeps of removals that push a heap past its
//! compaction threshold (tombstones outnumbering live filings), a removed
//! entry's slot reused by the next insert while the removed entry's
//! tombstone is still filed, and heads taken after the entry they name
//! was removed, replaced, promoted, re-filed or pushed down the heap.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property, PropResult};
use sim::{RecencyClass, RecencyMap};

/// Clean data, clean metadata and dirty blocks have heaps; a pinned
/// entry is in no class, as a dirty FHO chunk is in NCache.
const CLASSES: usize = 3;
const DIRTY: u8 = 2;
const PINNED: u8 = 3;

/// Where the ascending clock starts: stamps below it are free for inserts
/// that file under the current head.
const CLOCK_START: u64 = 1 << 32;

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

/// The map and the model, driven in step.
struct Run {
    keys: u64,
    map: RecencyMap<u64, Block, CLASSES>,
    model: Model,
    /// The last stamp drawn going up; every insert and fresh promotion
    /// draws the next.
    clock: u64,
    /// The last stamp drawn going down, below every stamp of the clock.
    low: u64,
}

impl Run {
    fn new(keys: u64) -> Run {
        Run {
            keys,
            map: RecencyMap::new(),
            model: Model::default(),
            clock: CLOCK_START,
            low: CLOCK_START,
        }
    }

    /// Inserts (or replaces) `key` at `stamp` in `state`, in both.
    fn insert(&mut self, key: u64, state: u8, stamp: u64) -> PropResult {
        let replaced = self.map.insert(key, Block(state), stamp);
        prop_assert_eq!(
            replaced.map(|b| b.0),
            self.model.remove(key),
            "insert {}",
            key
        );
        self.model.entries.push((key, stamp, state));
        Ok(())
    }

    /// Removes `key` from both.
    fn remove(&mut self, key: u64) -> PropResult {
        prop_assert_eq!(
            self.map.remove(&key).map(|b| b.0),
            self.model.remove(key),
            "remove {}",
            key
        );
        Ok(())
    }

    /// Promotes `key` through a shared reference to `stamp`, in both.
    fn promote(&mut self, key: u64, stamp: u64) -> PropResult {
        let shared = &self.map;
        let hit = shared.get(&key).map(|e| e.promote(stamp));
        prop_assert_eq!(
            hit.is_some(),
            self.model.find(key).is_some(),
            "probe {}",
            key
        );
        if let Some(at) = self.model.find(key) {
            self.model.entries[at].1 = self.model.entries[at].1.max(stamp);
        }
        Ok(())
    }

    /// Sets `key`'s state in both, if it is resident.
    fn set_state(&mut self, key: u64, state: u8) -> PropResult {
        let changed = self.map.update(&key, |b| b.0 = state);
        prop_assert_eq!(
            changed.is_some(),
            self.model.find(key).is_some(),
            "update of {}",
            key
        );
        if let Some(at) = self.model.find(key) {
            self.model.entries[at].2 = state;
        }
        Ok(())
    }

    /// Applies one step, then holds the map to the model.
    fn step(&mut self, (op, key, arg): Step) -> PropResult {
        let key = key % self.keys;
        let class = (arg % CLASSES as u64) as usize;
        match op {
            // Insert (or replace) at a fresh stamp, in any state.
            0 | 1 => {
                self.clock += 1;
                self.insert(key, (arg % 4) as u8, self.clock)?;
            }
            // Promote through a shared reference: to a fresh stamp, or
            // (odd `arg`) to one no later than the entry's own, which must
            // change nothing.
            2 | 3 => {
                self.clock += 1;
                let stamp = match self.map.get(&key) {
                    Some(e) if arg % 2 == 1 => e.stamp().saturating_sub(arg),
                    _ => self.clock,
                };
                self.promote(key, stamp)?;
            }
            // Class change to any state, pinned included.
            4 => self.set_state(key, (arg % 4) as u8)?,
            // Made dirty and flushed clean again with no hit in between.
            5 => {
                self.set_state(key, DIRTY)?;
                self.set_state(key, (arg % 2) as u8)?;
            }
            6 => self.remove(key)?,
            // Head of a class; by `arg`, kept, taken by its token, or
            // popped.
            7 | 8 => {
                let head = self.map.head(class);
                prop_assert_eq!(
                    head.map(|h| (h.stamp, h.key)),
                    self.model.head(class),
                    "head of class {}",
                    class
                );
                if let Some(head) = head {
                    match arg % 4 {
                        1 => {
                            let taken = self.map.take(head).map(|b| b.0);
                            prop_assert_eq!(taken, self.model.remove(head.key), "take");
                        }
                        3 => {
                            let popped = self.map.pop_head(class);
                            let state = self.model.remove(head.key);
                            prop_assert_eq!(
                                popped.map(|(stamp, key, b)| (stamp, key, b.0)),
                                state.map(|s| (head.stamp, head.key, s)),
                                "pop head of class {}",
                                class
                            );
                        }
                        _ => {}
                    }
                }
            }
            // A head named, the map changed, and then the head taken: the
            // take must refuse exactly when the change touched the entry
            // the head names.
            9 => {
                let head = self.map.head(class);
                prop_assert_eq!(head.map(|h| (h.stamp, h.key)), self.model.head(class));
                let Some(head) = head else {
                    return self.verify(op, key);
                };
                let state = self.map.get(&head.key).expect("the head is resident").0;
                let expired = match (arg / 3) % 6 {
                    0 => false,
                    1 => {
                        self.remove(head.key)?;
                        true
                    }
                    2 => {
                        self.clock += 1;
                        self.insert(head.key, state, self.clock)?;
                        true
                    }
                    3 => {
                        self.clock += 1;
                        self.promote(head.key, self.clock)?;
                        true
                    }
                    4 => {
                        self.set_state(head.key, (state + 1 + (arg % 3) as u8) % 4)?;
                        true
                    }
                    // Another entry filed under the head, so the head's
                    // filing is no longer on top when it is taken.
                    _ => {
                        self.low -= 1;
                        let other = (head.key + 1 + arg % (self.keys - 1)) % self.keys;
                        self.insert(other, state, self.low)?;
                        false
                    }
                };
                let taken = self.map.take(head);
                prop_assert_eq!(
                    taken.is_none(),
                    expired,
                    "take after change {}",
                    (arg / 3) % 6
                );
                if let Some(b) = taken {
                    prop_assert_eq!(Some(b.0), self.model.remove(head.key), "take");
                }
            }
            // A removal and an insert of a key not resident: the insert
            // reuses the removed entry's slot, in any state, while the
            // removed entry's filing is still in its heap unless it was
            // on top.
            10 => {
                self.remove(key)?;
                let fresh = (1..self.keys)
                    .map(|d| (key + d) % self.keys)
                    .find(|k| self.model.find(*k).is_none());
                if let Some(fresh) = fresh {
                    self.clock += 1;
                    self.insert(fresh, (arg % 4) as u8, self.clock)?;
                }
            }
            // A sweep of removals: every key of one residue class.
            _ => {
                let (stride, residue) = (2 + arg % 3, arg % 2);
                for k in (0..self.keys).filter(|k| k % stride == residue) {
                    self.remove(k)?;
                }
            }
        }
        self.verify(op, key)
    }

    /// The map's index, size, classes and stamps against the model.
    fn verify(&self, op: u8, key: u64) -> PropResult {
        let (map, model) = (&self.map, &self.model);
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
        }
        Ok(())
    }

    /// Drains every class through its head: the model's order.
    fn drain(&mut self) -> PropResult {
        for class in 0..CLASSES {
            for expect in self.model.members(class) {
                let head = self.map.pop_head(class).map(|(stamp, key, _)| (stamp, key));
                prop_assert_eq!(head, Some(expect), "drain class {}", class);
                self.model.remove(expect.1);
                prop_assert_eq!(self.map.check(), Ok(()), "index while draining");
            }
            prop_assert!(self.map.head(class).is_none());
        }
        Ok(())
    }
}

fn agree(keys: u64, steps: Vec<Step>) -> PropResult {
    let mut run = Run::new(keys);
    for step in steps {
        run.step(step)?;
    }
    run.drain()
}

fn step() -> impl Gen<Value = Step> {
    (ints(0u8..12), any_u64(), ints(0u64..18))
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

/// Removing A leaves its filing under the head, and B, inserted next,
/// takes A's slot: A's tombstone names the slot B lives in, and must pass
/// neither for B in B's class nor for B in A's.
#[test]
fn a_tombstone_never_passes_for_its_slots_next_occupant() {
    for b_state in [0, 1, 3] {
        let mut run = Run::new(4);
        let steps = [
            (0, 0, 0),       // key 0, clean data: the head
            (0, 1, 0),       // key 1 (A), clean data, under the head
            (0, 2, 0),       // key 2, clean data
            (6, 1, 0),       // A removed: its tombstone stays filed
            (0, 3, b_state), // B takes A's slot
        ];
        for step in steps {
            run.step(step).expect("the map agrees with the model");
        }
        let debug = format!("{:?}", run.map);
        let filed = if b_state == 0 {
            "filed: [4,"
        } else {
            "filed: [3,"
        };
        assert!(debug.contains("slots: 3,"), "B reused a slot: {debug}");
        assert!(debug.contains(filed), "A's tombstone is filed: {debug}");
        // A's tombstone surfaces once key 0 is taken, and is dropped; B
        // is named at its own stamp only.
        for step in [(8, 0, 9), (7, 0, 0), (8, 0, 3), (7, 0, 1), (7, 0, 2)] {
            run.step(step).expect("the map agrees with the model");
        }
        run.drain().expect("drained in the model's order");
    }
}

/// A head taken after each kind of change, on a map with a few entries
/// in every class: refused after a removal, a replacement, a promotion or
/// a class change of its entry, honoured otherwise.
#[test]
fn an_expired_head_is_refused() {
    for change in 0..6u64 {
        for class in 0..CLASSES as u64 {
            let mut run = Run::new(8);
            for key in 0..8 {
                run.step((0, key, key % 3)).expect("insert");
            }
            run.step((9, 0, change * 3 + class))
                .expect("the take agrees with the model");
            run.drain().expect("drained in the model's order");
        }
    }
}
