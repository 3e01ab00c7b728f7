//! The hot-tiling result cache: complete browse answers keyed by
//! `(version, tiling)`.
//!
//! The stamp is the pinned snapshot's **write-log version**, not its
//! epoch: the version advances on every insert/remove under both read
//! profiles (the epoch only moves at refreeze points), so a write
//! invalidates every cached tiling *for free* — stale entries are simply
//! never looked up again, and the LRU sweep reclaims them. This is the
//! rectangle-algebra reuse trade: pay the engine once per
//! `(version, tiling)`, answer repeat browses in `O(1)`. Each slot also
//! keeps the answer's encoded `counts` array, so a hit writes only the
//! reply's short header and copies the stored bytes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use euler_browse::BrowseResult;
use euler_grid::Tiling;
use euler_metrics::Counter;

/// A cache key: the snapshot version an answer was computed at, the
/// resolution level that produced it, plus the exact tiling geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    version: u64,
    level: usize,
    region: (usize, usize, usize, usize),
    cols: usize,
    rows: usize,
}

impl CacheKey {
    /// The key for `tiling` answered at snapshot `version` on the finest
    /// (level 0) resolution — flat sessions only ever serve that level.
    pub fn new(version: u64, tiling: &Tiling) -> CacheKey {
        CacheKey::at_level(version, 0, tiling)
    }

    /// The key for `tiling` answered at snapshot `version` from pyramid
    /// `level`. Results from different levels are bit-identical under
    /// the fold law, but a level flip still means a different substrate
    /// answered — keeping them distinct keeps cache hits attributable.
    pub fn at_level(version: u64, level: usize, tiling: &Tiling) -> CacheKey {
        let r = tiling.region();
        CacheKey {
            version,
            level,
            region: (r.x0, r.y0, r.x1, r.y1),
            cols: tiling.cols(),
            rows: tiling.rows(),
        }
    }

    /// The snapshot version this key stamps.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The resolution level this key stamps.
    pub fn level(&self) -> usize {
        self.level
    }
}

struct Slot {
    result: Arc<BrowseResult>,
    counts_json: Arc<str>,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    tick: u64,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Results stored.
    pub insertions: u64,
    /// Results evicted to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// A bounded LRU cache of complete browse results.
///
/// Eviction scans for the least-recently-used slot (`O(len)`); capacities
/// are small (hundreds), so this stays cheap and keeps the structure a
/// plain `HashMap` under one mutex.
pub struct TilingCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl TilingCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> TilingCache {
        TilingCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up, refreshing its recency on a hit: the result and
    /// its encoded `counts` array.
    pub fn get(&self, key: &CacheKey) -> Option<(Arc<BrowseResult>, Arc<str>)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.incr();
                Some((slot.result.clone(), slot.counts_json.clone()))
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Stores a complete result with its encoded `counts` array, evicting
    /// the least-recently-used entry when at capacity. Partial results
    /// must not be cached — the caller guards on
    /// `BrowseResult::is_complete`.
    pub fn insert(&self, key: CacheKey, result: Arc<BrowseResult>, counts_json: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        debug_assert!(result.is_complete(), "only complete results are cacheable");
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&oldest);
                self.evictions.incr();
            }
        }
        inner.map.insert(
            key,
            Slot {
                result,
                counts_json,
                last_used: tick,
            },
        );
        self.insertions.incr();
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            len: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::RelationCounts;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid};

    fn tiling(cols: usize, rows: usize) -> Tiling {
        let grid = Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 8.0, 8.0).unwrap()), 8, 8).unwrap();
        Tiling::new(grid.full(), cols, rows).unwrap()
    }

    fn result(t: &Tiling) -> (Arc<BrowseResult>, Arc<str>) {
        let counts = vec![RelationCounts::default(); t.len()];
        (Arc::new(BrowseResult::new(*t, counts)), Arc::from("[]"))
    }

    #[test]
    fn keys_distinguish_version_and_geometry() {
        let t = tiling(4, 4);
        assert_eq!(CacheKey::new(3, &t), CacheKey::new(3, &t));
        assert_ne!(CacheKey::new(3, &t), CacheKey::new(4, &t));
        assert_ne!(CacheKey::new(3, &t), CacheKey::new(3, &tiling(4, 2)));
    }

    #[test]
    fn keys_distinguish_resolution_levels() {
        let t = tiling(4, 4);
        assert_eq!(CacheKey::new(3, &t), CacheKey::at_level(3, 0, &t));
        assert_ne!(CacheKey::at_level(3, 0, &t), CacheKey::at_level(3, 1, &t));
        assert_eq!(CacheKey::at_level(3, 2, &t).level(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = TilingCache::new(2);
        let (t2, t3, t4) = (tiling(2, 2), tiling(3, 3), tiling(4, 4));
        let (k2, k3, k4) = (
            CacheKey::new(1, &t2),
            CacheKey::new(1, &t3),
            CacheKey::new(1, &t4),
        );
        let ((r2, c2), (r3, c3), (r4, c4)) = (result(&t2), result(&t3), result(&t4));
        cache.insert(k2, r2, c2);
        cache.insert(k3, r3, c3);
        // Touch k2 so k3 is the LRU, then overflow.
        assert!(cache.get(&k2).is_some());
        cache.insert(k4, r4, c4);
        assert!(cache.get(&k2).is_some(), "recently used survives");
        assert!(cache.get(&k3).is_none(), "LRU entry evicted");
        assert!(cache.get(&k4).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.insertions, 3);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = TilingCache::new(0);
        let t = tiling(2, 2);
        let (r, c) = result(&t);
        cache.insert(CacheKey::new(1, &t), r, c);
        assert!(cache.get(&CacheKey::new(1, &t)).is_none());
        assert_eq!(cache.stats().len, 0);
    }
}
