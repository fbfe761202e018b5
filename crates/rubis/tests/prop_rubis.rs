//! Property-based tests for the RUBiS application model.

use cloudchar_rubis::db::{Database, MySqlConfig, MySqlServer, Query};
use cloudchar_rubis::schema::{DbScale, ItemId, RegionId, UserId};
use cloudchar_rubis::storage::{
    Access, BufferPool, PageRef, QueryCache, TableId, INDEX_PAGE_BASE, PAGE_BYTES,
};
use cloudchar_rubis::transition::{Mix, NextAction, TransitionTable};
use cloudchar_rubis::ClientPopulation;
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::SimRng;
use proptest::prelude::*;

fn arbitrary_query(seed: (u8, u32, u32, u16)) -> Query {
    let (kind, a, b, c) = seed;
    match kind % 14 {
        0 => Query::SelectCategories,
        1 => Query::SelectRegions,
        2 => Query::SearchItemsByCategory {
            category: cloudchar_rubis::schema::CategoryId(c % 5),
            page: b % 6,
        },
        3 => Query::SearchItemsByRegion {
            category: cloudchar_rubis::schema::CategoryId(c % 5),
            region: RegionId(c % 4),
            page: b % 4,
        },
        4 => Query::GetItem { item: ItemId(a) },
        5 => Query::GetUserInfo { user: UserId(a) },
        6 => Query::GetBidHistory { item: ItemId(a) },
        7 => Query::GetMaxBid { item: ItemId(a) },
        8 => Query::AuthUser { user: UserId(a) },
        9 => Query::AboutMe { user: UserId(a) },
        10 => Query::RegisterUser {
            region: RegionId(c % 4),
        },
        11 => Query::StoreBid {
            user: UserId(a),
            item: ItemId(b),
            increment: i64::from(c % 500) + 1,
        },
        12 => Query::StoreComment {
            from: UserId(a),
            to: UserId(b),
            item: ItemId(a ^ b),
        },
        _ => Query::StoreBuyNow {
            buyer: UserId(a),
            item: ItemId(b),
        },
    }
}

/// A naive O(n) LRU: resident pages with their dirty flags, least
/// recently used first. The reference the buffer pool must match.
struct ReferenceLru {
    capacity: usize,
    pages: Vec<(PageRef, bool)>,
    stats: (u64, u64, u64),
}

impl ReferenceLru {
    fn access(&mut self, page: PageRef, write: bool) -> Access {
        if let Some(i) = self.pages.iter().position(|&(p, _)| p == page) {
            let (_, dirty) = self.pages.remove(i);
            self.pages.push((page, dirty || write));
            self.stats.0 += 1;
            return Access::Hit;
        }
        self.stats.1 += 1;
        let mut outcome = Access::Miss;
        if self.pages.len() == self.capacity {
            let (_, dirty) = self.pages.remove(0);
            if dirty {
                self.stats.2 += 1;
                outcome = Access::MissDirtyEvict;
            }
        }
        self.pages.push((page, write));
        outcome
    }
}

proptest! {
    /// The buffer pool is exact LRU: every access returns what a naive
    /// reference LRU returns, across tables, index pages and writes.
    #[test]
    fn buffer_pool_matches_reference_lru(
        accesses in proptest::collection::vec((0usize..7, 0u64..24, any::<bool>(), any::<bool>()), 1..400),
        cap_pages in 1u64..17,
    ) {
        let mut bp = BufferPool::new(cap_pages * PAGE_BYTES);
        let mut reference = ReferenceLru {
            capacity: cap_pages as usize,
            pages: Vec::new(),
            stats: (0, 0, 0),
        };
        for &(table, page, index, write) in &accesses {
            let page = PageRef {
                table: TableId::ALL[table],
                page: if index { (1 << 40) + page } else { page },
            };
            prop_assert_eq!(bp.access(page, write), reference.access(page, write));
            prop_assert_eq!(bp.resident_pages(), reference.pages.len());
        }
        prop_assert_eq!(bp.stats(), reference.stats);
    }

    /// Buffer pool never exceeds capacity and accounts every access.
    #[test]
    fn buffer_pool_invariants(
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..500),
        cap_pages in 1u64..16,
    ) {
        let mut bp = BufferPool::new(cap_pages * PAGE_BYTES);
        for &(page, write) in &accesses {
            bp.access(PageRef { table: TableId::Items, page }, write);
            prop_assert!(bp.resident_pages() <= cap_pages as usize);
        }
        let (h, m, d) = bp.stats();
        prop_assert_eq!(h + m, accesses.len() as u64);
        prop_assert!(d <= m);
        prop_assert!(bp.hit_ratio() >= 0.0 && bp.hit_ratio() <= 1.0);
        prop_assert_eq!(bp.resident_bytes(), bp.resident_pages() as u64 * PAGE_BYTES);
    }

    /// A resident page must hit on an immediate re-access.
    #[test]
    fn buffer_pool_immediate_reaccess_hits(
        pages in proptest::collection::vec(0u64..32, 1..100),
    ) {
        let mut bp = BufferPool::new(8 * PAGE_BYTES);
        for &page in &pages {
            let p = PageRef { table: TableId::Bids, page };
            bp.access(p, false);
            let second = bp.access(p, false);
            prop_assert_eq!(second, Access::Hit);
        }
    }

    /// Query-cache bytes never exceed capacity; invalidation always
    /// clears affected entries.
    #[test]
    fn query_cache_invariants(
        ops in proptest::collection::vec((0u64..40, 1u64..5_000, any::<bool>()), 1..300),
        cap in 1_000u64..100_000,
    ) {
        let mut qc = QueryCache::new(cap);
        for &(key, bytes, invalidate) in &ops {
            if invalidate {
                qc.invalidate(TableId::Items);
                prop_assert_eq!(qc.lookup(key), None);
            } else {
                qc.insert(key, bytes, &[TableId::Items]);
                if bytes <= cap {
                    prop_assert_eq!(qc.lookup(key), Some(bytes));
                }
            }
            prop_assert!(qc.used_bytes() <= cap);
        }
    }

    /// Database invariants hold under arbitrary query sequences: bid
    /// counters match, quantities never underflow, cardinalities only
    /// grow.
    #[test]
    fn database_invariants_under_query_storm(
        queries in proptest::collection::vec(any::<(u8, u32, u32, u16)>(), 1..150),
    ) {
        let mut rng = SimRng::new(9);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut server = MySqlServer::new(db, MySqlConfig::default());
        let before = server.db.cardinalities();
        let mut writes = 0u64;
        for (i, seed) in queries.iter().enumerate() {
            let q = arbitrary_query(*seed);
            if q.is_write() {
                writes += 1;
            }
            let work = server.execute(q, i as u32);
            prop_assert!(work.cpu_cycles > 0.0);
            prop_assert!(work.response_bytes > 0 || q.is_write());
        }
        let after = server.db.cardinalities();
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert!(a >= b, "cardinality shrank: {b} -> {a}");
        }
        prop_assert_eq!(server.queries_executed(), queries.len() as u64);
        // Bid-count consistency: nb_bids sums to the bids table size.
        let total_rows_grown: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
        prop_assert!(total_rows_grown <= 2 * writes, "rows {total_rows_grown} writes {writes}");
    }

    /// The browsing table cannot reach a write state from any state in
    /// any number of steps.
    #[test]
    fn browsing_never_writes(seed in any::<u64>(), steps in 1usize..2_000) {
        let table = TransitionTable::browsing();
        let mut rng = SimRng::new(seed);
        let mut current = TransitionTable::entry();
        let mut history = vec![current];
        for _ in 0..steps {
            prop_assert!(!current.is_write(), "write state {current:?} reached");
            match table.next(current, &mut rng) {
                NextAction::Goto(next) => {
                    history.push(next);
                    current = next;
                }
                NextAction::Back => {
                    history.pop();
                    current = *history.last().unwrap_or(&TransitionTable::entry());
                }
                NextAction::End => {
                    current = TransitionTable::entry();
                    history = vec![current];
                }
            }
        }
    }

    /// Client populations keep sessions valid under arbitrary advance
    /// sequences, and think times stay positive and bounded.
    #[test]
    fn client_population_robust(
        seed in any::<u64>(),
        n in 1u32..50,
        advances in proptest::collection::vec(any::<u32>(), 1..300),
    ) {
        let mut rng = SimRng::new(seed);
        let mut pop = ClientPopulation::new(n, WorkloadMix::percent_browsing(50), &mut rng);
        for &a in &advances {
            let id = a % n;
            let next = pop.advance(id, &mut rng);
            prop_assert!(cloudchar_rubis::Interaction::ALL.contains(&next));
            let think = pop.think_time(id, &mut rng).as_secs_f64();
            prop_assert!((0.0..=120.0).contains(&think));
        }
    }

    /// Both mixes' transition rows stay valid distributions — guards
    /// against future matrix edits breaking normalization.
    #[test]
    fn transition_tables_always_validate(_x in 0u8..1) {
        for mix in [Mix::Browsing, Mix::Bidding] {
            prop_assert!(TransitionTable::for_mix(mix).validate().is_ok());
        }
    }
}

proptest! {
    /// The pool's page directory stays exact LRU over sparse page
    /// numbers in both page spaces: data pages scattered over 0..2^16,
    /// index pages over the same range above `INDEX_PAGE_BASE`, and the
    /// first index page `INDEX_PAGE_BASE` itself. Each access draws from
    /// a small set of such pages, so they hit, evict and write back.
    #[test]
    fn buffer_pool_matches_reference_lru_on_sparse_pages(
        pages in proptest::collection::vec((0usize..7, 0u64..1 << 16, 0u8..3), 1..40),
        accesses in proptest::collection::vec((0usize..40, any::<bool>()), 1..400),
        cap_pages in 1u64..17,
    ) {
        let pages: Vec<PageRef> = pages
            .iter()
            .map(|&(table, page, space)| PageRef {
                table: TableId::ALL[table],
                page: match space {
                    0 => page,
                    1 => INDEX_PAGE_BASE + page,
                    _ => INDEX_PAGE_BASE,
                },
            })
            .collect();
        let mut bp = BufferPool::new(cap_pages * PAGE_BYTES);
        let mut reference = ReferenceLru {
            capacity: cap_pages as usize,
            pages: Vec::new(),
            stats: (0, 0, 0),
        };
        for &(i, write) in &accesses {
            let page = pages[i % pages.len()];
            prop_assert_eq!(bp.access(page, write), reference.access(page, write));
            prop_assert_eq!(bp.resident_pages(), reference.pages.len());
        }
        prop_assert_eq!(bp.stats(), reference.stats);
    }
}

/// At capacity one every miss evicts the previous page, so a run of
/// dirty pages writes each one back in turn.
#[test]
fn dirty_eviction_chain_at_capacity_one() {
    let mut bp = BufferPool::new(PAGE_BYTES);
    let page = |page| PageRef {
        table: TableId::Bids,
        page,
    };
    let trace = [
        (page(1), true, Access::Miss),
        (page(2), true, Access::MissDirtyEvict),
        (page(3), false, Access::MissDirtyEvict),
        (page(3), true, Access::Hit),
        (page(4), false, Access::MissDirtyEvict),
        (page(5), true, Access::Miss),
        (page(1), false, Access::MissDirtyEvict),
        (page(2), false, Access::Miss),
    ];
    for (p, write, expected) in trace {
        assert_eq!(bp.access(p, write), expected, "access to {p:?}");
        assert_eq!(bp.resident_pages(), 1);
    }
    assert_eq!(bp.stats(), (1, 7, 4));
}

/// Two identical query caches fed the same inserts keep the same
/// survivors: a full cache evicts its oldest entries first.
#[test]
fn query_cache_eviction_is_deterministic_fifo() {
    let survivors = || {
        let mut qc = QueryCache::new(10_000);
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for &k in &keys {
            qc.insert(k, 100, &[TableId::Items]);
        }
        assert_eq!(qc.used_bytes(), 10_000);
        keys.iter()
            .enumerate()
            .filter(|&(_, &k)| qc.lookup(k).is_some())
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    };
    let a = survivors();
    assert_eq!(a, survivors());
    assert_eq!(a, (400..500).collect::<Vec<_>>());
}
