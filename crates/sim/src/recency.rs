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
//! A filing is live while its entry exists, is in the heap's class and is
//! filed under the filing's stamp and generation. The generation counts an
//! entry's filings: an entry that leaves a class and comes back under an
//! unchanged stamp (a block made dirty and flushed clean with no hit in
//! between) is a new filing, and its old tombstone never passes for it.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;
use std::hash::Hash;
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
    /// The generation of the entry's current filing.
    filing: u32,
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

    /// Whether `f` is this entry's current filing in `class`.
    fn holds<K>(&self, class: usize, f: &Filing<K>) -> bool
    where
        V: RecencyClass<K>,
    {
        self.filed == f.stamp && self.filing == f.filing && self.value.class(&f.key) == Some(class)
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

/// One filing: a key under the stamp and generation it was filed at.
#[derive(Clone, Copy)]
struct Filing<K> {
    stamp: u64,
    key: K,
    filing: u32,
}

// Ordered by stamp alone, and reversed: `BinaryHeap` keeps its greatest
// element on top, and the least recent filing is the one wanted there.
impl<K> PartialEq for Filing<K> {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
    }
}

impl<K> Eq for Filing<K> {}

impl<K> PartialOrd for Filing<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Filing<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.stamp.cmp(&self.stamp)
    }
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
/// assert_eq!(map.head(0), Some((3, 12)), "10 was promoted past 12");
/// assert_eq!(map.live(0), 2);
/// assert_eq!(map.check(), Ok(()));
/// ```
pub struct RecencyMap<K, V, const C: usize> {
    entries: MixMap<K, Resident<V>>,
    heaps: [BinaryHeap<Filing<K>>; C],
    live: [usize; C],
}

impl<K, V, const C: usize> Default for RecencyMap<K, V, C> {
    fn default() -> Self {
        RecencyMap {
            entries: MixMap::default(),
            heaps: std::array::from_fn(|_| BinaryHeap::new()),
            live: [0; C],
        }
    }
}

impl<K, V, const C: usize> fmt::Debug for RecencyMap<K, V, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecencyMap")
            .field("entries", &self.entries.len())
            .field("live", &self.live)
            .field("filed", &self.heaps.each_ref().map(BinaryHeap::len))
            .finish()
    }
}

/// The entry `f` files, if `f` is its current filing in `class`.
fn filed_entry<'m, K: Hash + Eq, V: RecencyClass<K>>(
    entries: &'m MixMap<K, Resident<V>>,
    class: usize,
    f: &Filing<K>,
) -> Option<&'m Resident<V>> {
    entries.get(&f.key).filter(|e| e.holds(class, f))
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
        self.entries.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident.
    pub fn contains_key(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// The entry under `key`. A plain probe: nothing is promoted.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&Resident<V>> {
        self.entries.get(key)
    }

    /// Entries of `class`.
    pub fn live(&self, class: usize) -> usize {
        self.live[class]
    }

    /// Inserts `value` under `key` at true stamp `stamp`, filed in its
    /// class under it. Returns the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V, stamp: u64) -> Option<V> {
        let class = value.class(&key);
        let resident = Resident {
            value,
            stamp: AtomicU64::new(stamp),
            filed: stamp,
            filing: 0,
        };
        let replaced = self.entries.insert(key, resident);
        let mut filing = 0;
        if let Some(old) = &replaced {
            // The replaced entry's filing may still lie in a heap under
            // the same key: a new generation tells the two apart.
            filing = old.filing.wrapping_add(1);
            self.entries.get_mut(&key).expect("just inserted").filing = filing;
        }
        self.file(class, stamp, key, filing);
        replaced.map(|old| {
            self.unfile(old.value.class(&key));
            old.value
        })
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let old = self.entries.remove(key)?;
        self.unfile(old.value.class(key));
        Some(old.value)
    }

    /// Changes the value under `key` through `f`. If its class changed,
    /// the entry is filed in its new class under its true stamp, as a new
    /// filing. `None` when `key` is not resident.
    pub fn update<R>(&mut self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let e = self.entries.get_mut(key)?;
        let was = e.value.class(key);
        let out = f(&mut e.value);
        let now = e.value.class(key);
        if now != was {
            e.filed = e.stamp.load(Relaxed);
            e.filing = e.filing.wrapping_add(1);
            let (stamp, filing) = (e.filed, e.filing);
            self.unfile(was);
            self.file(now, stamp, *key, filing);
        }
        Some(out)
    }

    /// The least recent entry of `class` as `(stamp, key)`, or `None` when
    /// the class is empty. Settles the top filing until it is filed under
    /// its entry's true stamp: a tombstone is dropped, a promoted entry is
    /// re-filed under its true stamp. The head stays filed.
    pub fn head(&mut self, class: usize) -> Option<(u64, K)> {
        let entries = &mut self.entries;
        let heap = &mut self.heaps[class];
        loop {
            let mut top = heap.peek_mut()?;
            let Some(entry) = entries.get_mut(&top.key).filter(|e| e.holds(class, &top)) else {
                PeekMut::pop(top);
                continue;
            };
            let stamp = entry.stamp.load(Relaxed);
            if stamp == top.stamp {
                return Some((stamp, top.key));
            }
            entry.filed = stamp;
            // Sifts down when `top` drops: the stamp only grew.
            top.stamp = stamp;
        }
    }

    /// The stamp of the entry under `key` if it is filed in a class under
    /// its true stamp — what [`RecencyMap::head`] would name it by.
    pub fn settled(&self, key: &K) -> Option<u64> {
        self.entries
            .get(key)
            .filter(|e| e.value.class(key).is_some() && e.filed == e.stamp())
            .map(|e| e.filed)
    }

    /// Every entry of `class` as `(true stamp, key)`, in no particular
    /// order.
    pub fn members(&self, class: usize) -> impl Iterator<Item = (u64, K)> + '_ {
        self.heaps[class]
            .iter()
            .filter_map(move |f| filed_entry(&self.entries, class, f).map(|e| (e.stamp(), f.key)))
    }

    /// Files `key` in `class`, if it has one.
    fn file(&mut self, class: Option<usize>, stamp: u64, key: K, filing: u32) {
        if let Some(class) = class {
            self.heaps[class].push(Filing { stamp, key, filing });
            self.live[class] += 1;
        }
    }

    /// Notes that one live filing of `class` died. Once tombstones
    /// outnumber live filings, compacts the heap in place.
    fn unfile(&mut self, class: Option<usize>) {
        let Some(class) = class else { return };
        self.live[class] -= 1;
        let heap = &mut self.heaps[class];
        if heap.len() - self.live[class] > self.live[class] {
            let entries = &self.entries;
            heap.retain(|f| filed_entry(entries, class, f).is_some());
            debug_assert_eq!(
                heap.len(),
                self.live[class],
                "a compaction kept a tombstone"
            );
        }
    }

    /// Checks the index against the entries: no entry is filed past its
    /// true stamp; in each class, every member is filed live exactly once,
    /// under its filed stamp, nothing else is live, the live count is
    /// exact, and tombstones do not outnumber live filings.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check(&self) -> Result<(), String>
    where
        K: fmt::Debug,
    {
        if let Some((key, e)) = self.entries.iter().find(|(_, e)| e.filed > e.stamp()) {
            return Err(format!("{key:?} filed under {} past its stamp", e.filed));
        }
        for class in 0..C {
            let heap = &self.heaps[class];
            let mut filed: Vec<(u64, K)> = heap
                .iter()
                .filter(|f| filed_entry(&self.entries, class, f).is_some())
                .map(|f| (f.stamp, f.key))
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
            for (key, e) in self
                .entries
                .iter()
                .filter(|(k, e)| e.value.class(k) == Some(class))
            {
                members += 1;
                match filed.binary_search_by_key(&e.filed, |&(stamp, _)| stamp) {
                    Ok(at) if filed[at].1 == *key => {}
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
