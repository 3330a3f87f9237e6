//! The materialization cache: LRU over `(k, zone-layout)` keys.
//!
//! Materializing a flat-tree mode and running the batched-BFS path-length
//! pass are the two expensive steps behind `topo`/`paths`/`throughput`
//! requests. The service keeps a small LRU of [`Materialized`] entries —
//! the logical `Network` plus a lazily-filled path-length answer — guarded
//! by a `parking_lot` mutex. A `convert` request clears the whole cache:
//! after a conversion the physical converter states changed, so every
//! cached hypothetical layout is stale relative to the hardware baseline
//! (see DESIGN.md §9 for the invalidation rationale).

use ft_topo::Network;
use parking_lot::Mutex;
use std::sync::Arc;

/// Cache key: the fat-tree parameter plus the canonical per-Pod layout
/// letters (see [`crate::proto::layout_letters`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The fat-tree parameter the service was booted with.
    pub k: usize,
    /// Canonical per-Pod layout string (`c`/`l`/`g` per Pod).
    pub layout: String,
}

/// The batched-BFS path-length answers for one materialized layout.
#[derive(Clone, Copy, Debug)]
pub struct PathsAnswer {
    /// Average server-pair path length, network-wide.
    pub apl: f64,
    /// Average server-pair path length restricted to intra-Pod pairs.
    pub intra: f64,
}

/// A cached materialization: the network plus lazily computed results.
pub struct Materialized {
    /// The materialized logical topology.
    pub network: Network,
    /// Path-length answers, filled by the first `paths` request that needs
    /// them (guarded separately so fills don't hold the cache lock). The
    /// fill builds one switch-distance table, reads both metrics from it
    /// and drops it: only the answer stays cached.
    pub paths: Mutex<Option<PathsAnswer>>,
}

impl Materialized {
    /// Wraps a freshly materialized network with empty lazy slots.
    pub fn new(network: Network) -> Self {
        Materialized {
            network,
            paths: Mutex::new(None),
        }
    }
}

/// A small least-recently-used map from [`CacheKey`] to [`Materialized`].
///
/// Linear scan over a `Vec` — capacities are single-digit-to-tens (one
/// entry per distinct zone layout queried), so a hash map + intrusive list
/// would be complexity without measurable benefit.
pub struct LruCache {
    cap: usize,
    tick: u64,
    entries: Vec<(CacheKey, Arc<Materialized>, u64)>,
}

impl LruCache {
    /// An empty cache holding at most `cap` entries (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        LruCache {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
        }
    }

    /// Looks up a key, refreshing its recency on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Materialized>> {
        self.tick += 1;
        let tick = self.tick;
        for (k, v, used) in &mut self.entries {
            if k == key {
                *used = tick;
                return Some(Arc::clone(v));
            }
        }
        None
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// entry when at capacity.
    pub fn insert(&mut self, key: CacheKey, value: Arc<Materialized>) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, v, used)) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            *v = value;
            *used = tick;
            return;
        }
        if self.entries.len() >= self.cap {
            if let Some(lru) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(lru);
            }
        }
        self.entries.push((key, value, tick));
    }

    /// Drops every entry (conversion invalidation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_topo::fat_tree;

    fn key(layout: &str) -> CacheKey {
        CacheKey {
            k: 4,
            layout: layout.to_string(),
        }
    }

    fn entry() -> Arc<Materialized> {
        Arc::new(Materialized::new(fat_tree(4).unwrap()))
    }

    #[test]
    fn get_after_insert() {
        let mut c = LruCache::new(2);
        assert!(c.get(&key("cccc")).is_none());
        c.insert(key("cccc"), entry());
        assert!(c.get(&key("cccc")).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(key("cccc"), entry());
        c.insert(key("gggg"), entry());
        // touch cccc so gggg is the LRU victim
        assert!(c.get(&key("cccc")).is_some());
        c.insert(key("llll"), entry());
        assert_eq!(c.len(), 2);
        assert!(c.get(&key("cccc")).is_some());
        assert!(c.get(&key("gggg")).is_none());
        assert!(c.get(&key("llll")).is_some());
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = LruCache::new(2);
        c.insert(key("cccc"), entry());
        c.insert(key("cccc"), entry());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(2);
        c.insert(key("cccc"), entry());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_promoted() {
        let mut c = LruCache::new(0);
        c.insert(key("cccc"), entry());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lazy_paths_slot() {
        let e = entry();
        assert!(e.paths.lock().is_none());
        *e.paths.lock() = Some(PathsAnswer {
            apl: 2.0,
            intra: 2.0,
        });
        assert!(e.paths.lock().is_some());
    }
}
