//! The lazy recency heap: the LRU index of every cache in the workspace.
//!
//! A cache files each evictable entry under the recency stamp it had when
//! it was filed, one heap per eviction class (clean data, dirty blocks,
//! ...), and asks the heap for the least recent entry of a class when it
//! needs a victim. The index is *lazy* in two ways, and neither is
//! observable:
//!
//! * **Promotions do not move filings.** A cache hit raises the entry's
//!   true stamp through a shared reference (`fetch_max`) and leaves its
//!   filing alone, so `filed stamp <= true stamp` always. When a promoted
//!   entry reaches the top, [`RecencyHeap::head`] re-files it under its
//!   true stamp and looks again. Stamps are unique and only grow, so the
//!   first *settled* filing (filed stamp == true stamp) is the class's
//!   true minimum: every other entry's true stamp is at least its filed
//!   stamp, which is above the settled one. The victim is exactly the one
//!   an eagerly ordered index would have named.
//! * **Removals leave tombstones.** An entry that leaves the class
//!   (evicted, discarded, made dirty or clean) stays in the heap until it
//!   surfaces at the top, where the owner's liveness test fails it and it
//!   is dropped. Once tombstones outnumber live filings, the heap is
//!   compacted in place, so it never holds more than twice its live
//!   entries.
//!
//! The heap knows nothing about entries beyond two things its owner
//! supplies: a liveness test and, for a live filing, the entry's stamps.
//! A filing is live when its entry still exists, is still in this class
//! and is still filed under this stamp. An owner whose entries can leave
//! a class and come back under an unchanged stamp must make the key it
//! files carry a generation, so a tombstone never passes for the new
//! filing.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

/// One filing: a key under the stamp it was filed at.
#[derive(Clone, Copy, Debug)]
struct Filing<K> {
    stamp: u64,
    key: K,
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

/// A `Vec`-backed binary min-heap of `(stamp, key)` filings with lazy
/// deletion (see the module docs).
///
/// # Examples
///
/// ```
/// use sim::recency::RecencyHeap;
///
/// // Three entries as `(true stamp, filed stamp)`, filed under their
/// // insertion stamps; entry 1 is then promoted to stamp 7 by a hit,
/// // entry 2 removed.
/// let mut entries = [Some((4, 4)), Some((7, 2)), None];
/// let mut heap = RecencyHeap::new();
/// for (key, stamp) in [(0, 4), (1, 2), (2, 3)] {
///     heap.file(stamp, key);
/// }
/// heap.forget(|_, key: usize| entries[key].is_some());
/// let head = heap.head(
///     &mut entries,
///     |entries, stamp, key| entries[key].is_some_and(|(_, filed)| filed == stamp),
///     |entries, key| {
///         let (true_stamp, filed) = entries[key].as_mut().expect("live");
///         (*true_stamp, filed)
///     },
/// );
/// assert_eq!(head, Some((4, 0)), "entry 0 is the least recent");
/// assert_eq!(entries[1], Some((7, 7)), "entry 1 was re-filed on the way");
/// assert_eq!(heap.live(), 2);
/// ```
#[derive(Clone)]
pub struct RecencyHeap<K> {
    heap: BinaryHeap<Filing<K>>,
    live: usize,
}

impl<K> Default for RecencyHeap<K> {
    fn default() -> Self {
        RecencyHeap {
            heap: BinaryHeap::new(),
            live: 0,
        }
    }
}

impl<K> fmt::Debug for RecencyHeap<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecencyHeap")
            .field("live", &self.live)
            .field("filed", &self.heap.len())
            .finish()
    }
}

impl<K: Copy> RecencyHeap<K> {
    /// An empty heap (allocates nothing until the first filing).
    pub fn new() -> Self {
        RecencyHeap::default()
    }

    /// Live filings: the entries of this class.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Files `key` under `stamp`.
    pub fn file(&mut self, stamp: u64, key: K) {
        self.heap.push(Filing { stamp, key });
        self.live += 1;
    }

    /// Notes that one live filing died: its entry was removed, or left the
    /// class. Once tombstones outnumber live filings, compacts the heap in
    /// place, keeping the filings `live` accepts (it is called only then).
    pub fn forget(&mut self, mut live: impl FnMut(u64, K) -> bool) {
        self.live -= 1;
        if self.heap.len() - self.live > self.live {
            self.heap.retain(|f| live(f.stamp, f.key));
            debug_assert_eq!(self.heap.len(), self.live, "a compaction kept a tombstone");
        }
    }

    /// The least recent live filing as `(stamp, key)`, or `None` when the
    /// class is empty. Settles the top filing until it is filed under its
    /// entry's true stamp: one that fails the `owner`'s `live` test is a
    /// tombstone and is dropped; a live one's entry gives `stamps` — its
    /// true stamp and the stamp the owner records it filed under — and,
    /// if it was promoted, is re-filed under its true stamp, in the heap
    /// and in that record alike. The head stays filed.
    pub fn head<M: ?Sized>(
        &mut self,
        owner: &mut M,
        live: impl Fn(&M, u64, K) -> bool,
        mut stamps: impl FnMut(&mut M, K) -> (u64, &mut u64),
    ) -> Option<(u64, K)> {
        loop {
            let mut top = self.heap.peek_mut()?;
            if !live(owner, top.stamp, top.key) {
                PeekMut::pop(top);
                continue;
            }
            let (true_stamp, filed) = stamps(owner, top.key);
            if true_stamp == top.stamp {
                return Some((top.stamp, top.key));
            }
            *filed = true_stamp;
            // Sifts down when `top` drops: the stamp only grew.
            top.stamp = true_stamp;
        }
    }

    /// Drops every filing, live or not.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live = 0;
    }

    /// Every filing, live or not, in no particular order.
    pub fn filings(&self) -> impl Iterator<Item = (u64, K)> + '_ {
        self.heap.iter().map(|f| (f.stamp, f.key))
    }

    /// Checks the index against its owner. `members` lists every entry of
    /// this class with the stamp it must be filed under, and `live` is the
    /// owner's liveness test. Every member must be filed live exactly once
    /// under its stamp, nothing else may be live, the live count must be
    /// exact, and tombstones must not outnumber live filings.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check(
        &self,
        members: impl IntoIterator<Item = (u64, K)>,
        mut live: impl FnMut(u64, K) -> bool,
    ) -> Result<(), String>
    where
        K: PartialEq + fmt::Debug,
    {
        let mut filed: Vec<(u64, K)> = self.filings().filter(|&(s, k)| live(s, k)).collect();
        filed.sort_unstable_by_key(|&(stamp, _)| stamp);
        if filed.len() != self.live {
            return Err(format!(
                "{} live filings, {} counted",
                filed.len(),
                self.live
            ));
        }
        if let Some(pair) = filed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(format!(
                "{:?} and {:?} share stamp {}",
                pair[0].1, pair[1].1, pair[0].0
            ));
        }
        let mut members_seen = 0;
        for (stamp, key) in members {
            members_seen += 1;
            match filed.binary_search_by_key(&stamp, |&(s, _)| s) {
                Ok(at) if filed[at].1 == key => {}
                _ => return Err(format!("{key:?} is not filed live under stamp {stamp}")),
            }
        }
        if members_seen != filed.len() {
            return Err(format!(
                "{} live filings for {members_seen} members",
                filed.len()
            ));
        }
        if self.heap.len() > 2 * self.live {
            return Err(format!(
                "{} tombstones outnumber {} live filings",
                self.heap.len() - self.live,
                self.live
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy owner: entry `k` is `entries[k] = Some((true stamp, filed
    /// stamp))` while it lives.
    struct Owner {
        entries: Vec<Option<(u64, u64)>>,
        heap: RecencyHeap<usize>,
    }

    fn live(entries: &[Option<(u64, u64)>], stamp: u64, k: usize) -> bool {
        entries[k].is_some_and(|(_, filed)| filed == stamp)
    }

    impl Owner {
        fn new(n: usize) -> Owner {
            let mut heap = RecencyHeap::new();
            for k in 0..n {
                heap.file(k as u64, k);
            }
            Owner {
                entries: (0..n as u64).map(|s| Some((s, s))).collect(),
                heap,
            }
        }

        fn promote(&mut self, k: usize, stamp: u64) {
            self.entries[k].as_mut().expect("live").0 = stamp;
        }

        fn remove(&mut self, k: usize) {
            self.entries[k] = None;
            let entries = &self.entries;
            self.heap.forget(|s, k| live(entries, s, k));
        }

        fn head(&mut self) -> Option<(u64, usize)> {
            self.heap.head(&mut self.entries[..], live, |entries, k| {
                let (true_stamp, filed) = entries[k].as_mut().expect("live");
                (*true_stamp, filed)
            })
        }

        fn check(&self) -> Result<(), String> {
            let members = (0..self.entries.len())
                .filter_map(|k| self.entries[k].map(|(_, filed)| (filed, k)));
            self.heap.check(members, |s, k| live(&self.entries, s, k))
        }
    }

    #[test]
    fn the_head_is_the_least_recent_true_stamp() {
        let mut o = Owner::new(5);
        // Promote 0 and 1 past everyone; the head is then entry 2.
        o.promote(0, 10);
        o.promote(1, 11);
        assert_eq!(o.head(), Some((2, 2)));
        assert_eq!(o.check(), Ok(()));
        o.remove(2);
        o.remove(3);
        o.remove(4);
        assert_eq!(o.head(), Some((10, 0)), "promoted filings were re-filed");
        assert_eq!(o.check(), Ok(()));
    }

    #[test]
    fn tombstones_never_outnumber_live_filings() {
        let mut o = Owner::new(64);
        for k in (0..64).rev().step_by(2) {
            o.remove(k);
            assert_eq!(o.check(), Ok(()));
        }
        assert_eq!(o.heap.live(), 32);
        for k in (0..64).step_by(2) {
            o.remove(k);
            assert_eq!(o.check(), Ok(()));
        }
        assert_eq!((o.heap.live(), o.heap.filings().count()), (0, 0));
        assert_eq!(o.head(), None);
    }

    #[test]
    fn check_catches_a_double_filing_and_a_missing_one() {
        let mut o = Owner::new(3);
        o.heap.file(1, 1);
        assert!(o.check().is_err(), "entry 1 filed twice");
        let mut o = Owner::new(3);
        o.heap.clear();
        assert!(o.check().is_err(), "nothing filed for three members");
    }
}
