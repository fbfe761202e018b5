//! Storage-engine mechanics: pages, the buffer pool and the query cache.
//!
//! The MySQL tier's disk behaviour in the paper (low, bursty read traffic
//! that decays as the run warms up; write traffic proportional to bid
//! activity) is a direct consequence of InnoDB's buffer pool and MySQL's
//! query cache. Both are modelled here at page granularity.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// InnoDB default page size.
pub const PAGE_BYTES: u64 = 16 * 1024;

/// Identifies a table within the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TableId {
    /// `users`
    Users,
    /// `items`
    Items,
    /// `bids`
    Bids,
    /// `comments`
    Comments,
    /// `buy_now`
    BuyNow,
    /// `categories`
    Categories,
    /// `regions`
    Regions,
}

impl TableId {
    /// All tables, for iteration.
    pub const ALL: [TableId; 7] = [
        TableId::Users,
        TableId::Items,
        TableId::Bids,
        TableId::Comments,
        TableId::BuyNow,
        TableId::Categories,
        TableId::Regions,
    ];
}

/// A page address: table + page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageRef {
    /// Owning table.
    pub table: TableId,
    /// Page number within the table.
    pub page: u64,
}

/// Map a row's byte offset to its page.
pub fn page_of(row_index: u64, row_bytes: u64) -> u64 {
    row_index * row_bytes / PAGE_BYTES
}

/// Outcome of a buffer-pool access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was resident.
    Hit,
    /// Page had to be read from disk (and possibly evicted a clean page).
    Miss,
    /// Page had to be read from disk and the evicted victim was dirty,
    /// forcing a write-back first.
    MissDirtyEvict,
}

/// Multiplicative hasher for the pool's and cache's keys: a fixed
/// function (no per-process seed) that costs one multiply per 8-byte
/// word. The keys come from the simulation, never from outside input,
/// and neither map's iteration order is observed.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let n = u64::from_ne_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A buffer-pool frame on the pool's circular doubly-linked LRU list.
#[derive(Debug)]
struct Frame {
    /// The resident page; `None` while the frame is free.
    page: Option<PageRef>,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// A page-granularity LRU buffer pool with dirty-page tracking.
///
/// Every access is O(1). A map gives each resident page its frame; the
/// frames, one per page of capacity, and the sentinel frame 0 form a
/// circular list whose `next` from 0 is the least and `prev` the most
/// recently used frame, free frames first. A hit relinks its frame as
/// the most recently used; a miss takes over the least recently used
/// frame, evicting the page it holds, if any.
#[derive(Debug)]
pub struct BufferPool {
    capacity_pages: usize,
    frames: Vec<Frame>,
    frame_of: KeyMap<PageRef, u32>,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

impl BufferPool {
    /// Pool holding `capacity_bytes` of pages (min one, max `u32::MAX - 1`).
    pub fn new(capacity_bytes: u64) -> Self {
        let capacity_pages =
            (capacity_bytes / PAGE_BYTES).clamp(1, u64::from(u32::MAX - 1)) as usize;
        let n = capacity_pages as u32 + 1;
        let frames = (0..n)
            .map(|f| Frame {
                page: None,
                dirty: false,
                prev: (f + n - 1) % n,
                next: (f + 1) % n,
            })
            .collect();
        BufferPool {
            capacity_pages,
            frames,
            frame_of: KeyMap::with_capacity_and_hasher(capacity_pages, Default::default()),
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.frame_of.len()
    }

    /// Resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.frame_of.len() as u64 * PAGE_BYTES
    }

    /// Access a page; `write` marks it dirty. Returns what happened.
    pub fn access(&mut self, page: PageRef, write: bool) -> Access {
        if let Some(&f) = self.frame_of.get(&page) {
            self.hits += 1;
            self.frames[f as usize].dirty |= write;
            self.make_mru(f);
            return Access::Hit;
        }
        self.misses += 1;
        let f = self.frames[0].next;
        let frame = &mut self.frames[f as usize];
        let victim_dirty = std::mem::replace(&mut frame.dirty, write);
        if let Some(victim) = frame.page.replace(page) {
            self.frame_of.remove(&victim);
        }
        self.frame_of.insert(page, f);
        self.make_mru(f);
        if victim_dirty {
            self.dirty_evictions += 1;
            Access::MissDirtyEvict
        } else {
            Access::Miss
        }
    }

    /// Hit ratio so far (0 when no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// (hits, misses, dirty evictions)
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.dirty_evictions)
    }

    /// Move frame `f` to the most recently used end of the LRU list.
    fn make_mru(&mut self, f: u32) {
        let Frame { prev, next, .. } = self.frames[f as usize];
        self.frames[prev as usize].next = next;
        self.frames[next as usize].prev = prev;
        let mru = self.frames[0].prev;
        self.frames[f as usize].prev = mru;
        self.frames[f as usize].next = 0;
        self.frames[mru as usize].next = f;
        self.frames[0].prev = f;
    }
}

/// A cached SELECT: (insertion sequence, result bytes, table versions at insert).
type Cached = (u64, u64, Vec<(TableId, u64)>);

/// A MySQL-style query cache: SELECT results keyed by query identity,
/// invalidated wholesale per table on any write to that table. When
/// full it evicts the oldest entries first.
#[derive(Debug, Default)]
pub struct QueryCache {
    capacity_bytes: u64,
    used_bytes: u64,
    entries: KeyMap<u64, Cached>,
    /// insertion sequence → key, oldest first
    order: BTreeMap<u64, u64>,
    /// Write version of each table, indexed by `TableId as usize`.
    versions: [u64; 7],
    hits: u64,
    misses: u64,
}

impl QueryCache {
    /// A cache bounded at `capacity_bytes` of result data.
    pub fn new(capacity_bytes: u64) -> Self {
        QueryCache {
            capacity_bytes,
            ..Default::default()
        }
    }

    /// Look up a SELECT by key; returns the cached result size if fresh.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        let fresh = self.entries.get(&key).and_then(|(_, bytes, deps)| {
            deps.iter()
                .all(|&(t, v)| self.versions[t as usize] == v)
                .then_some(*bytes)
        });
        if fresh.is_some() {
            self.hits += 1;
        } else {
            self.remove(key);
            self.misses += 1;
        }
        fresh
    }

    /// Insert a SELECT result of `bytes` depending on `tables`.
    pub fn insert(&mut self, key: u64, bytes: u64, tables: &[TableId]) {
        if bytes > self.capacity_bytes {
            return;
        }
        self.remove(key);
        while self.used_bytes + bytes > self.capacity_bytes {
            let Some((_, &oldest)) = self.order.first_key_value() else {
                break;
            };
            self.remove(oldest);
        }
        let seq = self.order.last_key_value().map_or(0, |(&s, _)| s + 1);
        self.order.insert(seq, key);
        let deps = tables
            .iter()
            .map(|&t| (t, self.versions[t as usize]))
            .collect();
        self.entries.insert(key, (seq, bytes, deps));
        self.used_bytes += bytes;
    }

    /// Drop `key`'s entry, if any.
    fn remove(&mut self, key: u64) {
        if let Some((seq, bytes, _)) = self.entries.remove(&key) {
            self.order.remove(&seq);
            self.used_bytes -= bytes;
        }
    }

    /// Invalidate every cached result that touched `table`.
    pub fn invalidate(&mut self, table: TableId) {
        self.versions[table as usize] += 1;
    }

    /// Bytes of cached results (for memory accounting).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// (hits, misses)
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pref(page: u64) -> PageRef {
        PageRef {
            table: TableId::Items,
            page,
        }
    }

    #[test]
    fn page_math() {
        assert_eq!(page_of(0, 160), 0);
        assert_eq!(page_of(102, 160), 0); // 102*160 = 16320 < 16384
        assert_eq!(page_of(103, 160), 1);
    }

    #[test]
    fn pool_hit_after_miss() {
        let mut bp = BufferPool::new(10 * PAGE_BYTES);
        assert_eq!(bp.access(pref(1), false), Access::Miss);
        assert_eq!(bp.access(pref(1), false), Access::Hit);
        assert_eq!(bp.stats(), (1, 1, 0));
        assert_eq!(bp.resident_pages(), 1);
        assert!((bp.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pool_evicts_lru() {
        let mut bp = BufferPool::new(2 * PAGE_BYTES);
        bp.access(pref(1), false);
        bp.access(pref(2), false);
        bp.access(pref(1), false); // 1 is now MRU
        bp.access(pref(3), false); // evicts 2
        assert_eq!(bp.resident_pages(), 2);
        assert_eq!(bp.access(pref(1), false), Access::Hit);
        assert_eq!(bp.access(pref(2), false), Access::Miss);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut bp = BufferPool::new(PAGE_BYTES); // 1 page
        bp.access(pref(1), true); // dirty
        let a = bp.access(pref(2), false); // evicts dirty 1
        assert_eq!(a, Access::MissDirtyEvict);
        assert_eq!(bp.stats().2, 1);
    }

    #[test]
    fn pool_capacity_respected_under_churn() {
        let mut bp = BufferPool::new(8 * PAGE_BYTES);
        for i in 0..10_000u64 {
            // Hot set of 4 pages interleaved with a cold scan of 50.
            let page = if i % 2 == 0 { i % 4 } else { 100 + i % 50 };
            bp.access(pref(page), i % 3 == 0);
            assert!(bp.resident_pages() <= 8);
        }
        let (h, m, _) = bp.stats();
        assert_eq!(h + m, 10_000);
        assert!(h > 0 && m > 0, "hits {h} misses {m}");
    }

    #[test]
    fn query_cache_roundtrip_and_invalidation() {
        let mut qc = QueryCache::new(1 << 20);
        assert_eq!(qc.lookup(42), None);
        qc.insert(42, 1000, &[TableId::Items]);
        assert_eq!(qc.lookup(42), Some(1000));
        qc.invalidate(TableId::Items);
        assert_eq!(qc.lookup(42), None);
        assert_eq!(qc.stats(), (1, 2));
    }

    #[test]
    fn query_cache_invalidation_is_per_table() {
        let mut qc = QueryCache::new(1 << 20);
        qc.insert(1, 100, &[TableId::Items]);
        qc.insert(2, 200, &[TableId::Users]);
        qc.invalidate(TableId::Items);
        assert_eq!(qc.lookup(1), None);
        assert_eq!(qc.lookup(2), Some(200));
    }

    #[test]
    fn query_cache_respects_capacity() {
        let mut qc = QueryCache::new(1000);
        qc.insert(1, 600, &[TableId::Items]);
        qc.insert(2, 600, &[TableId::Items]); // evicts 1 (or refuses)
        assert!(qc.used_bytes() <= 1000);
        // Oversized entries are refused outright.
        qc.insert(3, 5000, &[TableId::Items]);
        assert!(qc.used_bytes() <= 1000);
        assert_eq!(qc.lookup(3), None);
    }

    #[test]
    fn stale_entry_cleanup_on_lookup() {
        let mut qc = QueryCache::new(1 << 20);
        qc.insert(9, 300, &[TableId::Bids]);
        qc.invalidate(TableId::Bids);
        assert_eq!(qc.lookup(9), None);
        // The stale bytes were reclaimed.
        assert_eq!(qc.used_bytes(), 0);
    }
}
