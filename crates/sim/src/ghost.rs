//! Ghost (shadow) LRU tails: the marginal-capacity instrument both caches
//! carry.
//!
//! A ghost is a bounded tail of recently evicted keys, ordered by the
//! victim's settled recency stamp. A miss that lands in the ghost ("ghost
//! hit") is a request that a slightly larger cache would have served. The
//! tail knows nothing about packets or blocks — keys and stamps are plain
//! integers — so the file-system buffer cache and the network-centric
//! cache both hold one without either depending on the other; the split
//! controller that compares their hit rates lives with the NCache module
//! (`ncache::adaptive`).
//!
//! A ghost is a **pure observer**: probing or recording never draws a
//! recency stamp, never bumps an ops tally, and never influences victim
//! selection. Membership is a pure function of the eviction multiset
//! `(key, stamp)`, so with schedule-invariant stamps ([`crate::epoch`])
//! the tail is identical at any thread or shard count.

use crate::recency::RecencyMap;

/// Counters of one ghost tail (or a shard-merge of several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhostStats {
    /// Misses that consulted the tail.
    pub probes: u64,
    /// Probes that found their key — would-have-hit requests.
    pub hits: u64,
    /// Evictions recorded into the tail.
    pub records: u64,
    /// Entries displaced because the tail was full.
    pub displaced: u64,
}

impl GhostStats {
    /// Folds another stats block in. Plain sums, so merging shard stats
    /// is order-invariant: any permutation of `absorb` calls yields the
    /// same totals.
    pub fn absorb(&mut self, other: &GhostStats) {
        self.probes += other.probes;
        self.hits += other.hits;
        self.records += other.records;
        self.displaced += other.displaced;
    }
}

/// A bounded shadow tail of recently evicted keys.
///
/// Entries are ordered by the victim's eviction stamp (its settled
/// recency sequence number, unique within a cache); over capacity the
/// smallest stamp — the least recently used victim — falls off. Probing
/// does not remove: membership is exactly "the last-K distinct evicted
/// keys", which the property suite checks against a brute-force model.
///
/// # Examples
///
/// ```
/// use sim::GhostLru;
/// let mut g = GhostLru::new(2);
/// g.record(10, 1);
/// g.record(11, 2);
/// g.record(12, 3); // displaces key 10 (stamp 1)
/// assert!(!g.probe(10) && g.probe(11) && g.probe(12));
/// assert_eq!(g.stats().hits, 2);
/// ```
#[derive(Debug)]
pub struct GhostLru {
    cap: usize,
    /// The members, each under the stamp it was evicted at. Stamps never
    /// move once recorded, so every head is settled.
    members: RecencyMap<u64, (), 1>,
    stats: GhostStats,
}

impl GhostLru {
    /// An empty tail holding at most `cap` keys.
    pub fn new(cap: usize) -> GhostLru {
        GhostLru {
            cap,
            members: RecencyMap::new(),
            stats: GhostStats::default(),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the tail holds nothing.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership without counting a probe (tests and diagnostics).
    pub fn contains(&self, key: u64) -> bool {
        self.members.contains_key(&key)
    }

    /// Records the eviction of `key` at recency `stamp`. Re-recording a
    /// key moves it to the new stamp; over capacity the oldest entry is
    /// displaced. Stamps must be unique per tail (they are settled cache
    /// sequence numbers).
    pub fn record(&mut self, key: u64, stamp: u64) {
        if self.cap == 0 {
            return;
        }
        self.stats.records += 1;
        self.members.insert(key, (), stamp);
        while self.members.len() > self.cap {
            let (_, oldest) = self.members.head(0).expect("non-empty over cap");
            self.members.remove(&oldest);
            self.stats.displaced += 1;
        }
    }

    /// Probes on a cache miss: true (and counted as a ghost hit) when
    /// the key sits in the tail. The entry stays — it is dropped only by
    /// displacement or [`GhostLru::forget`].
    pub fn probe(&mut self, key: u64) -> bool {
        self.stats.probes += 1;
        let hit = self.members.contains_key(&key);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Drops a key, if present (the block was invalidated, not evicted).
    pub fn forget(&mut self, key: u64) {
        self.members.remove(&key);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GhostStats {
        self.stats
    }

    /// Keys ordered oldest → newest eviction (test support).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut members: Vec<(u64, u64)> = self.members.members(0).collect();
        members.sort_unstable();
        members.into_iter().map(|(_, k)| k).collect()
    }

    /// Checks the tail's structure: the recency map's index
    /// ([`RecencyMap::check`]) and the capacity bound.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.members.len() > self.cap {
            return Err(format!(
                "{} members over capacity {}",
                self.members.len(),
                self.cap
            ));
        }
        self.members.check().map_err(|e| format!("ghost: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_holds_last_k_and_probes_without_removal() {
        let mut g = GhostLru::new(3);
        for (k, s) in [(1u64, 10u64), (2, 11), (3, 12), (4, 13)] {
            g.record(k, s);
        }
        assert_eq!(g.len(), 3);
        assert!(!g.contains(1), "oldest displaced");
        assert_eq!(g.keys_by_recency(), vec![2, 3, 4]);
        assert!(g.probe(3));
        assert!(g.probe(3), "probing does not remove");
        assert!(!g.probe(9));
        let s = g.stats();
        assert_eq!((s.probes, s.hits, s.records, s.displaced), (3, 2, 4, 1));
    }

    #[test]
    fn ghost_rerecord_moves_to_new_stamp() {
        let mut g = GhostLru::new(2);
        g.record(1, 10);
        g.record(2, 11);
        g.record(1, 12); // key 1 becomes newest
        g.record(3, 13); // displaces key 2, not key 1
        assert!(g.contains(1) && g.contains(3) && !g.contains(2));
    }

    #[test]
    fn ghost_forget_and_zero_cap() {
        let mut g = GhostLru::new(2);
        g.record(1, 10);
        g.forget(1);
        assert!(g.is_empty() && !g.probe(1));
        let mut z = GhostLru::new(0);
        z.record(1, 1);
        assert!(z.is_empty(), "zero-cap tail records nothing");
    }

    #[test]
    fn stats_absorb_sums() {
        let a = GhostStats {
            probes: 1,
            hits: 2,
            records: 3,
            displaced: 4,
        };
        let b = GhostStats {
            probes: 10,
            hits: 20,
            records: 30,
            displaced: 40,
        };
        let mut ab = a;
        ab.absorb(&b);
        let mut ba = b;
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.hits, 22);
    }
}
