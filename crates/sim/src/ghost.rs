//! Ghost (shadow) LRU tails: the marginal-capacity instrument both caches
//! carry.
//!
//! A ghost is a bounded tail of recently evicted keys, ordered by the
//! victim's settled recency stamp. A miss that lands in the ghost ("ghost
//! hit") is a request that a slightly larger cache would have served. The
//! tail knows nothing about packets or blocks — keys and stamps are plain
//! integers — so the file-system buffer cache and the network-centric
//! cache both hold one without either depending on the other; the split
//! controller that compares their hit counts lives in the testbed
//! (`testbed::adaptive`).
//!
//! A ghost is a **pure observer**: probing or recording never draws a
//! recency stamp, never bumps an ops tally, and never influences victim
//! selection. Membership is a pure function of the eviction multiset
//! `(key, stamp)`, so with schedule-invariant stamps ([`crate::epoch`])
//! the tail is identical at any thread or shard count.

use crate::recency::RecencyMap;

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
/// assert_eq!(g.hits(), 2);
/// ```
#[derive(Debug)]
pub struct GhostLru {
    cap: usize,
    /// The members, each under the stamp it was evicted at. Stamps never
    /// move once recorded, so every head is settled.
    members: RecencyMap<u64, (), 1>,
    /// Probes that found their key — would-have-hit requests.
    hits: u64,
}

impl GhostLru {
    /// An empty tail holding at most `cap` keys.
    pub fn new(cap: usize) -> GhostLru {
        GhostLru {
            cap,
            members: RecencyMap::new(),
            hits: 0,
        }
    }

    /// Records the eviction of `key` at recency `stamp`. Re-recording a
    /// key moves it to the new stamp; over capacity the oldest entry is
    /// displaced. Stamps must be unique per tail (they are settled cache
    /// sequence numbers).
    pub fn record(&mut self, key: u64, stamp: u64) {
        if self.cap == 0 {
            return;
        }
        self.members.insert(key, (), stamp);
        while self.members.len() > self.cap {
            self.members.pop_head(0).expect("non-empty over cap");
        }
    }

    /// Probes on a cache miss: true (and counted as a ghost hit) when
    /// the key sits in the tail. The entry stays — it is dropped only by
    /// displacement.
    pub fn probe(&mut self, key: u64) -> bool {
        let hit = self.members.contains_key(&key);
        self.hits += u64::from(hit);
        hit
    }

    /// Probes that found their key so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Keys ordered oldest → newest eviction (test support).
    pub fn keys_by_recency(&self) -> Vec<u64> { // test-api: the ghost property's model compares membership order
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
        assert_eq!(g.keys_by_recency(), vec![2, 3, 4], "oldest displaced");
        assert!(g.probe(3));
        assert!(g.probe(3), "probing does not remove");
        assert!(!g.probe(9));
        assert_eq!(g.hits(), 2);
    }

    #[test]
    fn ghost_rerecord_moves_to_new_stamp() {
        let mut g = GhostLru::new(2);
        g.record(1, 10);
        g.record(2, 11);
        g.record(1, 12); // key 1 becomes newest
        g.record(3, 13); // displaces key 2, not key 1
        assert_eq!(g.keys_by_recency(), vec![1, 3]);
    }

    #[test]
    fn ghost_zero_cap() {
        let mut z = GhostLru::new(0);
        z.record(1, 1);
        assert!(z.keys_by_recency().is_empty(), "zero-cap tail records nothing");
    }
}
