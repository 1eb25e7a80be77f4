//! The recency map: the LRU index of every cache in the workspace.
//!
//! A [`RecencyMap`] holds a cache's entries together with everything the
//! recency rule needs: each entry's true stamp, the stamp and generation
//! it is filed under, and one lazy min-heap per eviction class (clean
//! data, dirty blocks, ...). The owner supplies only its entries' class
//! ([`RecencyClass`]: `None` keeps an entry out of every heap) and asks for
//! the least recent entry of a class when it needs a victim. The index is
//! *lazy* in two ways, and neither is observable:
//!
//! * **Promotions do not move filings.** A cache hit raises the entry's
//!   true stamp through a shared reference ([`Resident::promote`], a
//!   `fetch_max`) and leaves its filing alone, so `filed stamp <= true
//!   stamp` always. When a promoted entry reaches the top,
//!   [`RecencyMap::head`] re-files it under its true stamp and looks
//!   again. Stamps are unique and only grow, so the first *settled*
//!   filing (filed stamp == true stamp) is the class's true minimum: every
//!   other entry's true stamp is at least its filed stamp, which is above
//!   the settled one. The victim is exactly the one an eagerly ordered
//!   index would have named.
//! * **Removals leave tombstones.** An entry that leaves a class (removed,
//!   or changed class) stays in that heap until it surfaces at the top,
//!   where it fails the liveness test and is dropped. Once tombstones
//!   outnumber live filings, the heap is compacted in place, so it never
//!   holds more than twice its live entries.
//!
//! The entries live in an arena of slots behind a key → slot index, and a
//! filing names its entry by slot: `(stamp, slot, generation)`, 16 bytes
//! whatever the key. A slot's generation counts its filings, and keeps
//! counting when the slot is vacated and reused, so a filing is live
//! exactly while its slot's generation equals the filing's. Telling a
//! tombstone from a live filing is one indexed load, never a hash probe.
//! That also covers an entry that leaves a class and comes back under an
//! unchanged stamp (a block made dirty and flushed clean with no hit in
//! between): it is a new filing, and its old tombstone never passes for
//! it. Vacant slots are chained through the arena itself, so an index at
//! its high-water mark reuses slots without allocating.
//!
//! A victim is taken by slot: [`RecencyMap::head`] names the head with a
//! [`RecencyHead`], and [`RecencyMap::take`] removes that entry together
//! with its filing at the top of the heap, or refuses if the entry was
//! removed, replaced, re-filed or promoted since the head was named.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hash;
use std::mem;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::MixMap;

/// The eviction class of a cache's entries: the index of the heap an
/// entry is filed in, or `None` to keep it out of every heap (a chunk
/// that may not be reclaimed). A function of the entry's value and key.
pub trait RecencyClass<K> {
    /// This entry's class under `key`.
    fn class(&self, key: &K) -> Option<usize>;
}

/// An entry that is only ever ordered, never classified: every one lives
/// in class 0.
impl<K> RecencyClass<K> for () {
    fn class(&self, _: &K) -> Option<usize> {
        Some(0)
    }
}

/// One resident entry: the owner's value, which it derefs to, and the
/// entry's stamps.
pub struct Resident<V> {
    value: V,
    /// The true recency stamp; atomic so a hit promotes through `&self`.
    stamp: AtomicU64,
    /// The stamp the entry is filed under; lags `stamp` until settled.
    filed: u64,
}

impl<V> Resident<V> {
    /// The entry's true recency stamp.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp.load(Relaxed)
    }

    /// Raises the true stamp to `stamp` if it is later. Promotion by max
    /// commutes, so concurrent hits leave the largest of their stamps.
    #[inline]
    pub fn promote(&self, stamp: u64) {
        self.stamp.fetch_max(stamp, Relaxed);
    }
}

impl<V> Deref for Resident<V> {
    type Target = V;

    #[inline]
    fn deref(&self) -> &V {
        &self.value
    }
}

impl<V: fmt::Debug> fmt::Debug for Resident<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resident")
            .field("value", &self.value)
            .field("stamp", &self.stamp())
            .field("filed", &self.filed)
            .finish()
    }
}

/// The end of the vacant-slot chain.
const NIL: u32 = u32::MAX;

/// One slot of the arena.
struct Slot<K, V> {
    /// The generation of the slot's current filing. It is bumped for
    /// every new filing and when the slot is vacated, so it never goes
    /// back to a generation a heap may still hold a tombstone of.
    filing: u32,
    state: State<K, V>,
}

enum State<K, V> {
    /// A resident entry under its key.
    Full(K, Resident<V>),
    /// Vacant; the next vacant slot, or [`NIL`].
    Free(u32),
}

/// One filing: a slot under the stamp and generation it was filed at.
#[derive(Clone, Copy)]
struct Filing {
    stamp: u64,
    slot: u32,
    filing: u32,
}

// Ordered by stamp alone, and reversed: `BinaryHeap` keeps its greatest
// element on top, and the least recent filing is the one wanted there.
impl PartialEq for Filing {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
    }
}

impl Eq for Filing {}

impl PartialOrd for Filing {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Filing {
    fn cmp(&self, other: &Self) -> Ordering {
        other.stamp.cmp(&self.stamp)
    }
}

/// The least recent entry of a class, as [`RecencyMap::head`] named it:
/// its stamp and key, and the slot and generation it was filed under,
/// by which [`RecencyMap::take`] finds it again without a probe.
#[derive(Clone, Copy, Debug)]
pub struct RecencyHead<K> {
    /// The entry's true (and filed) stamp.
    pub stamp: u64,
    /// The entry's key.
    pub key: K,
    slot: u32,
    filing: u32,
}

/// A keyed map of entries ordered by recency within each of `C` classes
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use sim::RecencyMap;
///
/// let mut map: RecencyMap<u64, (), 1> = RecencyMap::new();
/// for (key, stamp) in [(10, 1), (11, 2), (12, 3)] {
///     map.insert(key, (), stamp);
/// }
/// map.get(&10).expect("resident").promote(7);
/// map.remove(&11);
/// let head = map.head(0).expect("two entries");
/// assert_eq!((head.stamp, head.key), (3, 12), "10 was promoted past 12");
/// assert_eq!(map.take(head), Some(()));
/// assert_eq!(map.pop_head(0), Some((7, 10, ())));
/// assert_eq!(map.check(), Ok(()));
/// ```
pub struct RecencyMap<K, V, const C: usize> {
    index: MixMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    /// The first vacant slot, or [`NIL`].
    free: u32,
    heaps: [BinaryHeap<Filing>; C],
    live: [usize; C],
}

impl<K, V, const C: usize> Default for RecencyMap<K, V, C> {
    fn default() -> Self {
        RecencyMap {
            index: MixMap::default(),
            slots: Vec::new(),
            free: NIL,
            heaps: std::array::from_fn(|_| BinaryHeap::new()),
            live: [0; C],
        }
    }
}

impl<K, V, const C: usize> fmt::Debug for RecencyMap<K, V, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecencyMap")
            .field("entries", &self.index.len())
            .field("slots", &self.slots.len())
            .field("live", &self.live)
            .field("filed", &self.heaps.each_ref().map(BinaryHeap::len))
            .finish()
    }
}

/// The entry in slot `at`, which the index names.
fn resident<K, V>(slots: &[Slot<K, V>], at: u32) -> &Resident<V> {
    match &slots[at as usize].state {
        State::Full(_, e) => e,
        State::Free(_) => unreachable!("the index names a vacant slot"),
    }
}

/// Puts `state` in a vacant slot, the first of the `free` chain or a new
/// one, and returns the slot. A vacant slot's generation was bumped when
/// it was vacated, so no heap holds a filing of it yet.
fn occupy<K, V>(slots: &mut Vec<Slot<K, V>>, free: &mut u32, state: State<K, V>) -> u32 {
    if *free == NIL {
        slots.push(Slot { filing: 0, state });
        return u32::try_from(slots.len() - 1)
            .ok()
            .filter(|&at| at != NIL)
            .expect("fewer than 2^32 - 1 entries");
    }
    let at = *free;
    let State::Free(next) = mem::replace(&mut slots[at as usize].state, state) else {
        unreachable!("the vacant chain names a full slot");
    };
    *free = next;
    at
}

/// The key and entry `f` files, if `f` is its slot's current filing.
fn filed_entry<'s, K, V>(slots: &'s [Slot<K, V>], f: &Filing) -> Option<(&'s K, &'s Resident<V>)> {
    let slot = &slots[f.slot as usize];
    match &slot.state {
        State::Full(key, e) if slot.filing == f.filing => Some((key, e)),
        _ => None,
    }
}

impl<K, V, const C: usize> RecencyMap<K, V, C>
where
    K: Copy + Hash + Eq,
    V: RecencyClass<K>,
{
    /// An empty map (allocates nothing until the first insert).
    pub fn new() -> Self {
        RecencyMap::default()
    }

    /// Entries resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is resident.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The entry under `key`. A plain probe: nothing is promoted.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&Resident<V>> {
        self.index.get(key).map(|&at| resident(&self.slots, at))
    }

    /// Entries of `class`.
    pub fn live(&self, class: usize) -> usize {
        self.live[class]
    }

    /// Inserts `value` under `key` at true stamp `stamp`, filed in its
    /// class under it. Returns the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V, stamp: u64) -> Option<V> {
        let class = value.class(&key);
        let entry = Resident {
            value,
            stamp: AtomicU64::new(stamp),
            filed: stamp,
        };
        let state = State::Full(key, entry);
        let (at, replaced) = match self.index.entry(key) {
            Entry::Occupied(o) => {
                // A replacement is a new filing of the same slot.
                let slot = &mut self.slots[*o.get() as usize];
                slot.filing = slot.filing.wrapping_add(1);
                (*o.get(), Some(mem::replace(&mut slot.state, state)))
            }
            Entry::Vacant(v) => (
                *v.insert(occupy(&mut self.slots, &mut self.free, state)),
                None,
            ),
        };
        self.file(class, stamp, at, self.slots[at as usize].filing);
        let State::Full(_, old) = replaced? else {
            unreachable!("the index names a vacant slot");
        };
        self.retire(old.value.class(&key));
        Some(old.value)
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.index.remove(key)?;
        Some(self.vacate(at))
    }

    /// Removes the entry `head` named, with its filing, and returns its
    /// value: what [`RecencyMap::remove`] of its key would return. `None`
    /// if the entry was removed, replaced, re-filed or promoted since —
    /// the head has expired and the caller asks again.
    pub fn take(&mut self, head: RecencyHead<K>) -> Option<V> {
        let f = Filing {
            stamp: head.stamp,
            slot: head.slot,
            filing: head.filing,
        };
        let (key, e) = filed_entry(&self.slots, &f).filter(|(_, e)| e.stamp() == head.stamp)?;
        let class = e.value.class(key).expect("a filed entry has a class");
        let heap = &mut self.heaps[class];
        if heap
            .peek()
            .is_some_and(|top| top.slot == f.slot && top.filing == f.filing)
        {
            heap.pop();
        }
        self.index.remove(&head.key);
        Some(self.vacate(head.slot))
    }

    /// Removes the least recent entry of `class` ([`RecencyMap::head`]) as
    /// `(stamp, key, value)`, or `None` when the class is empty.
    pub fn pop_head(&mut self, class: usize) -> Option<(u64, K, V)> {
        let head = self.head(class)?;
        let value = self.take(head).expect("a head just named is live");
        Some((head.stamp, head.key, value))
    }

    /// Changes the value under `key` through `f`. If its class changed,
    /// the entry is filed in its new class under its true stamp, as a new
    /// filing. `None` when `key` is not resident.
    pub fn update<R>(&mut self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let at = *self.index.get(key)?;
        let slot = &mut self.slots[at as usize];
        let State::Full(_, e) = &mut slot.state else {
            unreachable!("the index names a vacant slot");
        };
        let was = e.value.class(key);
        let out = f(&mut e.value);
        let now = e.value.class(key);
        if now != was {
            e.filed = *e.stamp.get_mut();
            let stamp = e.filed;
            slot.filing = slot.filing.wrapping_add(1);
            let filing = slot.filing;
            self.retire(was);
            self.file(now, stamp, at, filing);
        }
        Some(out)
    }

    /// The least recent entry of `class`, or `None` when the class is
    /// empty. Settles the top filing until it is filed under its entry's
    /// true stamp: a tombstone is dropped, a promoted entry is re-filed
    /// under its true stamp. The head stays filed until it is taken.
    pub fn head(&mut self, class: usize) -> Option<RecencyHead<K>> {
        let slots = &mut self.slots;
        let heap = &mut self.heaps[class];
        loop {
            let mut top = heap.peek_mut()?;
            let slot = &mut slots[top.slot as usize];
            if slot.filing != top.filing {
                PeekMut::pop(top);
                continue;
            }
            let State::Full(key, entry) = &mut slot.state else {
                unreachable!("a vacant slot's generation matches no filing");
            };
            let stamp = *entry.stamp.get_mut();
            if stamp == top.stamp {
                return Some(RecencyHead {
                    stamp,
                    key: *key,
                    slot: top.slot,
                    filing: top.filing,
                });
            }
            entry.filed = stamp;
            // Sifts down when `top` drops: the stamp only grew.
            top.stamp = stamp;
        }
    }

    /// Every entry of `class` as `(true stamp, key)`, in no particular
    /// order.
    pub fn members(&self, class: usize) -> impl Iterator<Item = (u64, K)> + '_ {
        self.heaps[class]
            .iter()
            .filter_map(move |f| filed_entry(&self.slots, f).map(|(&key, e)| (e.stamp(), key)))
    }

    /// Vacates slot `at`, which the index no longer names, and retires
    /// its filing. Returns the entry's value.
    fn vacate(&mut self, at: u32) -> V {
        let slot = &mut self.slots[at as usize];
        let State::Full(key, old) = mem::replace(&mut slot.state, State::Free(self.free)) else {
            unreachable!("a vacated slot was full");
        };
        slot.filing = slot.filing.wrapping_add(1);
        self.free = at;
        self.retire(old.value.class(&key));
        old.value
    }

    /// Files slot `at` in `class`, if it has one.
    fn file(&mut self, class: Option<usize>, stamp: u64, at: u32, filing: u32) {
        if let Some(class) = class {
            self.heaps[class].push(Filing {
                stamp,
                slot: at,
                filing,
            });
            self.live[class] += 1;
        }
    }

    /// Notes that one live filing of `class` died (its slot's generation
    /// has moved on). Once tombstones outnumber live filings, compacts the
    /// heap in place.
    fn retire(&mut self, class: Option<usize>) {
        let Some(class) = class else { return };
        self.live[class] -= 1;
        let heap = &mut self.heaps[class];
        if heap.len() - self.live[class] > self.live[class] {
            let slots = &self.slots;
            heap.retain(|f| filed_entry(slots, f).is_some());
            debug_assert_eq!(
                heap.len(),
                self.live[class],
                "a compaction kept a tombstone"
            );
        }
    }

    /// Checks the index against the entries: the key index and the arena
    /// agree, and the vacant chain holds exactly the vacant slots; no entry
    /// is filed past its true stamp; in each class, every member is filed
    /// live exactly once, under its filed stamp, nothing else is live, the
    /// live count is exact, and tombstones do not outnumber live filings.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check(&self) -> Result<(), String>
    where
        K: fmt::Debug,
    {
        let (mut at, mut vacant) = (self.free, 0);
        while at != NIL && vacant <= self.slots.len() {
            let Some(State::Free(next)) = self.slots.get(at as usize).map(|s| &s.state) else {
                return Err(format!("the vacant chain reaches slot {at}, which is full"));
            };
            (at, vacant) = (*next, vacant + 1);
        }
        let own = |(key, &at): (&K, &u32)| matches!(self.slots.get(at as usize), Some(Slot { state: State::Full(k, _), .. }) if k == key);
        let indexed = self.index.iter().filter(|&entry| own(entry)).count();
        if indexed != self.index.len() || indexed + vacant != self.slots.len() {
            return Err(format!(
                "{} slots: {indexed} of {} keys indexed to their own, {vacant} chained vacant",
                self.slots.len(),
                self.index.len()
            ));
        }
        let full: Vec<(&K, &Resident<V>)> = self
            .index
            .iter()
            .map(|(key, &at)| (key, resident(&self.slots, at)))
            .collect();
        if let Some((key, e)) = full.iter().find(|(_, e)| e.filed > e.stamp()) {
            return Err(format!("{key:?} filed under {} past its stamp", e.filed));
        }
        for class in 0..C {
            let heap = &self.heaps[class];
            let mut filed: Vec<(u64, K)> = heap
                .iter()
                .filter_map(|f| filed_entry(&self.slots, f).map(|(&key, _)| (f.stamp, key)))
                .collect();
            filed.sort_unstable_by_key(|&(stamp, _)| stamp);
            let live = self.live[class];
            if filed.len() != live {
                return Err(format!(
                    "class {class}: {} live filings, {live} counted",
                    filed.len()
                ));
            }
            if let Some(pair) = filed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                return Err(format!(
                    "class {class}: {:?} and {:?} share stamp {}",
                    pair[0].1, pair[1].1, pair[0].0
                ));
            }
            let mut members = 0;
            for (key, e) in full.iter().filter(|(k, e)| e.value.class(k) == Some(class)) {
                members += 1;
                match filed.binary_search_by_key(&e.filed, |&(stamp, _)| stamp) {
                    Ok(at) if filed[at].1 == **key => {}
                    _ => {
                        return Err(format!(
                            "class {class}: {key:?} is not filed live under stamp {}",
                            e.filed
                        ))
                    }
                }
            }
            if members != live {
                return Err(format!(
                    "class {class}: {live} live filings for {members} members"
                ));
            }
            if heap.len() > 2 * live {
                return Err(format!(
                    "class {class}: {} tombstones outnumber {live} live filings",
                    heap.len() - live
                ));
            }
        }
        Ok(())
    }
}
