//! The embedded relational engine behind the MySQL tier.
//!
//! [`Database`] stores the RUBiS tables with secondary indexes and
//! executes the structured query set the benchmark's PHP scripts issue.
//! Execution returns the *physical footprint* of the query — pages read
//! and written, CPU cycles, result bytes — which [`MySqlServer`] passes
//! through the buffer pool and query cache to produce actual disk I/O,
//! exactly the causal chain that shapes the paper's MySQL-tier panels.

use crate::schema::{
    generate, Bid, BuyNow, CategoryId, Comment, DbScale, Item, ItemId, RegionId, User, UserId,
};
use crate::storage::{
    page_of, Access, BufferPool, PageRef, QueryCache, TableId, INDEX_PAGE_BASE, PAGE_BYTES,
};
use cloudchar_hw::{IoKind, IoRequest};
use cloudchar_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// Items shown per search result page (RUBiS default).
pub const ITEMS_PER_PAGE: usize = 20;

/// The structured query set issued by the RUBiS PHP scripts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// `SELECT * FROM categories`
    SelectCategories,
    /// `SELECT * FROM regions`
    SelectRegions,
    /// Items in a category, paginated.
    SearchItemsByCategory {
        /// Category browsed.
        category: CategoryId,
        /// Result page number.
        page: u32,
    },
    /// Items in a category restricted to sellers of a region.
    SearchItemsByRegion {
        /// Category browsed.
        category: CategoryId,
        /// Sellers' region.
        region: RegionId,
        /// Result page number.
        page: u32,
    },
    /// One item plus its seller's summary.
    GetItem {
        /// Item viewed.
        item: ItemId,
    },
    /// A user's profile plus the comments about them.
    GetUserInfo {
        /// Profile owner.
        user: UserId,
    },
    /// Full bid history of an item with bidder names.
    GetBidHistory {
        /// Item.
        item: ItemId,
    },
    /// Current max bid of an item (PutBid form).
    GetMaxBid {
        /// Item.
        item: ItemId,
    },
    /// Login check.
    AuthUser {
        /// User logging in.
        user: UserId,
    },
    /// Everything about me: my bids, items, buy-nows, comments.
    AboutMe {
        /// The authenticated user.
        user: UserId,
    },
    /// Register a new user in a region.
    RegisterUser {
        /// Home region.
        region: RegionId,
    },
    /// Record a bid (reads item, inserts bid, updates item counters).
    StoreBid {
        /// Bidder.
        user: UserId,
        /// Item.
        item: ItemId,
        /// Increment over current max, cents.
        increment: i64,
    },
    /// Record a comment and update the recipient's rating.
    StoreComment {
        /// Author.
        from: UserId,
        /// Recipient.
        to: UserId,
        /// Item concerned.
        item: ItemId,
    },
    /// Record a buy-now purchase (updates item quantity).
    StoreBuyNow {
        /// Buyer.
        buyer: UserId,
        /// Item.
        item: ItemId,
    },
}

impl Query {
    /// Whether the query modifies data.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Query::RegisterUser { .. }
                | Query::StoreBid { .. }
                | Query::StoreComment { .. }
                | Query::StoreBuyNow { .. }
        )
    }

    /// A stable cache key for SELECTs (writes return `None`).
    ///
    /// Search pages and AboutMe are **not cacheable**: the real RUBiS
    /// SQL filters on `end_date > NOW()`, and MySQL's query cache
    /// refuses statements with non-deterministic functions.
    pub fn cache_key(&self) -> Option<u64> {
        if self.is_write() {
            return None;
        }
        if matches!(
            self,
            Query::SearchItemsByCategory { .. }
                | Query::SearchItemsByRegion { .. }
                | Query::AboutMe { .. }
        ) {
            return None;
        }
        // Cheap structural hash; collision risk is irrelevant for a
        // cache model.
        let (tag, a, b, c): (u64, u64, u64, u64) = match *self {
            Query::SelectCategories => (1, 0, 0, 0),
            Query::SelectRegions => (2, 0, 0, 0),
            Query::SearchItemsByCategory { category, page } => {
                (3, u64::from(category.0), u64::from(page), 0)
            }
            Query::SearchItemsByRegion {
                category,
                region,
                page,
            } => (
                4,
                u64::from(category.0),
                u64::from(region.0),
                u64::from(page),
            ),
            Query::GetItem { item } => (5, u64::from(item.0), 0, 0),
            Query::GetUserInfo { user } => (6, u64::from(user.0), 0, 0),
            Query::GetBidHistory { item } => (7, u64::from(item.0), 0, 0),
            Query::GetMaxBid { item } => (8, u64::from(item.0), 0, 0),
            Query::AuthUser { user } => (9, u64::from(user.0), 0, 0),
            Query::AboutMe { user } => (10, u64::from(user.0), 0, 0),
            _ => unreachable!("writes handled above"),
        };
        let mut h = tag;
        for v in [a, b, c] {
            h = h
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(13)
                .wrapping_add(v);
        }
        Some(h)
    }
}

/// Physical footprint of one executed query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Rows produced/affected.
    pub rows: u64,
    /// Result set size in bytes (wire format).
    pub result_bytes: u64,
    /// CPU cycles of executor work.
    pub cpu_cycles: f64,
    /// Data/index pages read (logical; buffer pool decides disk I/O).
    pub pages: Vec<PageRef>,
    /// Pages dirtied by the query.
    pub dirty_pages: Vec<PageRef>,
    /// Tables the query depends on (for query-cache invalidation).
    pub tables: &'static [TableId],
}

/// Average row footprints used for page math (bytes).
fn row_bytes(table: TableId) -> u64 {
    match table {
        TableId::Users => User::ROW_BYTES,
        TableId::Items => 480,
        TableId::Bids => Bid::ROW_BYTES,
        TableId::Comments => 360,
        TableId::BuyNow => BuyNow::ROW_BYTES,
        TableId::Categories | TableId::Regions => 64,
    }
}

/// Cost-model constants (cycles). Derived so the MySQL tier lands in the
/// paper's reported range at 1000 clients.
mod cost {
    /// Parse + plan + protocol per query.
    pub const BASE: f64 = 65_000.0;
    /// Per row examined.
    pub const PER_ROW: f64 = 2_200.0;
    /// Per logical page touched.
    pub const PER_PAGE: f64 = 1_100.0;
    /// Extra for writes (row locking, undo, change buffering).
    pub const WRITE_EXTRA: f64 = 50_000.0;
}

/// A secondary index over a dense id space: the list of entries filed
/// under each id, in insertion order, indexed by the id itself.
struct Postings<T>(Vec<Vec<T>>);

impl<T> Postings<T> {
    /// An index presized for ids `0..ids`.
    fn with_ids(ids: usize) -> Self {
        Postings(std::iter::repeat_with(Vec::new).take(ids).collect())
    }

    /// File `entry` under `id`, growing the index past its presized ids
    /// if needed.
    fn push(&mut self, id: u32, entry: T) {
        let id = id as usize;
        if id >= self.0.len() {
            self.0.resize_with(id + 1, Vec::new);
        }
        self.0[id].push(entry);
    }

    /// The entries filed under `id`, oldest first.
    fn get(&self, id: u32) -> &[T] {
        self.0.get(id as usize).map_or(&[], Vec::as_slice)
    }
}

/// One item's row in its category's covering scan: everything both
/// category searches read, so they scan their category sequentially
/// instead of chasing item → seller → region. Items are never inserted
/// and no query changes an item's seller or a user's region, so the rows
/// never go stale. Page numbers fit `u32`: rows are smaller than a page,
/// so a row's page number never exceeds its `u32` id.
#[derive(Clone)]
struct CategoryRow {
    /// Data page of the item's row.
    item_page: u32,
    /// Data page of the seller's user row.
    seller_page: u32,
    /// The seller's home region.
    seller_region: RegionId,
}

/// The in-memory RUBiS database with secondary indexes.
pub struct Database {
    scale: DbScale,
    users: Vec<User>,
    items: Vec<Item>,
    bids: Vec<Bid>,
    comments: Vec<Comment>,
    buy_nows: Vec<BuyNow>,
    items_by_category: Vec<Vec<CategoryRow>>,
    bids_by_item: Postings<u32>,
    comments_by_to: Postings<u32>,
    items_by_seller: Postings<ItemId>,
    bids_by_user: Postings<u32>,
    buy_nows_by_buyer: Postings<u32>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("users", &self.users.len())
            .field("items", &self.items.len())
            .field("bids", &self.bids.len())
            .field("comments", &self.comments.len())
            .field("buy_nows", &self.buy_nows.len())
            .finish()
    }
}

impl Database {
    /// Generate and index a population.
    pub fn generate(scale: DbScale, rng: &mut SimRng) -> Self {
        let (users, items, bids, comments) = generate(scale, rng);
        let mut db = Database {
            scale,
            bids: Vec::with_capacity(bids.len()),
            comments: Vec::with_capacity(comments.len()),
            buy_nows: Vec::new(),
            items_by_category: vec![Vec::new(); usize::from(scale.categories)],
            bids_by_item: Postings::with_ids(items.len()),
            comments_by_to: Postings::with_ids(users.len()),
            items_by_seller: Postings::with_ids(users.len()),
            bids_by_user: Postings::with_ids(users.len()),
            // No buy-now is generated: this index grows only as buyers
            // appear, instead of holding an empty list per user.
            buy_nows_by_buyer: Postings::with_ids(0),
            users,
            items,
        };
        for item in &db.items {
            db.items_by_category[usize::from(item.category.0)].push(CategoryRow {
                item_page: Self::data_page(TableId::Items, u64::from(item.id.0)).page as u32,
                seller_page: Self::data_page(TableId::Users, u64::from(item.seller.0)).page as u32,
                seller_region: db.users[item.seller.0 as usize].region,
            });
            db.items_by_seller.push(item.seller.0, item.id);
        }
        for bid in bids {
            db.index_bid(bid);
        }
        for comment in comments {
            db.index_comment(comment);
        }
        db
    }

    fn index_bid(&mut self, bid: Bid) {
        let idx = self.bids.len() as u32;
        self.bids_by_item.push(bid.item.0, idx);
        self.bids_by_user.push(bid.user.0, idx);
        self.bids.push(bid);
    }

    fn index_comment(&mut self, comment: Comment) {
        let idx = self.comments.len() as u32;
        self.comments_by_to.push(comment.to.0, idx);
        self.comments.push(comment);
    }

    /// Population scale.
    pub fn scale(&self) -> DbScale {
        self.scale
    }

    /// Current table cardinalities, in [`TableId::ALL`] order.
    pub fn cardinalities(&self) -> [u64; 7] {
        [
            self.users.len() as u64,
            self.items.len() as u64,
            self.bids.len() as u64,
            self.comments.len() as u64,
            self.buy_nows.len() as u64,
            u64::from(self.scale.categories),
            u64::from(self.scale.regions),
        ]
    }

    /// A uniformly random existing item id.
    pub fn random_item(&self, rng: &mut SimRng) -> ItemId {
        ItemId(rng.below(self.items.len() as u64) as u32)
    }

    /// A uniformly random existing user id.
    pub fn random_user(&self, rng: &mut SimRng) -> UserId {
        UserId(rng.below(self.users.len() as u64) as u32)
    }

    /// A random category, skewed toward the hot low-numbered ones.
    pub fn random_category(&self, rng: &mut SimRng) -> CategoryId {
        let z = rng.f64_open();
        CategoryId(((z * z) * f64::from(self.scale.categories)) as u16)
    }

    /// A random region.
    pub fn random_region(&self, rng: &mut SimRng) -> RegionId {
        RegionId(rng.below(u64::from(self.scale.regions)) as u16)
    }

    fn data_page(table: TableId, row: u64) -> PageRef {
        PageRef {
            table,
            page: page_of(row, row_bytes(table)),
        }
    }

    /// B-tree descent pages for an index lookup: a hot root and a
    /// key-dependent leaf.
    fn index_pages(table: TableId, key: u64, out: &mut Vec<PageRef>) {
        out.push(PageRef {
            table,
            page: INDEX_PAGE_BASE,
        });
        out.push(PageRef {
            table,
            page: INDEX_PAGE_BASE + 1 + key % 512,
        });
    }

    /// Execute a query into `r`, overwriting whatever it held; reusing
    /// one result across queries keeps its page lists' allocations.
    /// `now_s` stamps inserted rows.
    pub fn execute(&mut self, q: Query, now_s: u32, r: &mut QueryResult) {
        r.rows = 0;
        r.result_bytes = 0;
        r.cpu_cycles = 0.0;
        r.pages.clear();
        r.dirty_pages.clear();
        r.tables = &[];
        match q {
            Query::SelectCategories => {
                r.tables = &[TableId::Categories];
                r.rows = u64::from(self.scale.categories);
                r.result_bytes = r.rows * 40;
                r.pages.push(PageRef {
                    table: TableId::Categories,
                    page: 0,
                });
            }
            Query::SelectRegions => {
                r.tables = &[TableId::Regions];
                r.rows = u64::from(self.scale.regions);
                r.result_bytes = r.rows * 30;
                r.pages.push(PageRef {
                    table: TableId::Regions,
                    page: 0,
                });
            }
            Query::SearchItemsByCategory { category, page } => {
                r.tables = &[TableId::Items];
                let cat = usize::from(category.0).min(self.items_by_category.len() - 1);
                let shown = self.items_by_category[cat]
                    .chunks(ITEMS_PER_PAGE)
                    .nth(page as usize)
                    .unwrap_or_default();
                Self::index_pages(TableId::Items, u64::from(category.0), &mut r.pages);
                r.pages.extend(shown.iter().map(|row| PageRef {
                    table: TableId::Items,
                    page: u64::from(row.item_page),
                }));
                r.rows = shown.len() as u64;
                r.result_bytes = 120 + r.rows * 32;
            }
            Query::SearchItemsByRegion {
                category,
                region,
                page,
            } => {
                r.tables = &[TableId::Items, TableId::Users];
                let cat = usize::from(category.0).min(self.items_by_category.len() - 1);
                // Join through sellers' region: scan the category slice,
                // reading each item row and its seller's row, up to a
                // LIMIT-bounded 400 rows.
                let mut matched = 0u64;
                let mut examined = 0u64;
                Self::index_pages(TableId::Items, u64::from(category.0), &mut r.pages);
                let skip = page as usize * ITEMS_PER_PAGE;
                for row in self.items_by_category[cat].iter().take(400) {
                    examined += 1;
                    r.pages.push(PageRef {
                        table: TableId::Items,
                        page: u64::from(row.item_page),
                    });
                    r.pages.push(PageRef {
                        table: TableId::Users,
                        page: u64::from(row.seller_page),
                    });
                    if row.seller_region == region {
                        matched += 1;
                        if matched as usize >= skip + ITEMS_PER_PAGE {
                            break;
                        }
                    }
                }
                r.rows = matched.min(ITEMS_PER_PAGE as u64);
                r.result_bytes = 120 + r.rows * 32;
                r.cpu_cycles += examined as f64 * cost::PER_ROW * 0.4;
            }
            Query::GetItem { item } => {
                r.tables = &[TableId::Items, TableId::Users];
                let it = &self.items[item.0 as usize % self.items.len()];
                r.pages
                    .push(Self::data_page(TableId::Items, u64::from(it.id.0)));
                r.pages
                    .push(Self::data_page(TableId::Users, u64::from(it.seller.0)));
                r.rows = 2;
                r.result_bytes = 110 + u64::from(it.description_len) / 6;
            }
            Query::GetUserInfo { user } => {
                r.tables = &[TableId::Users, TableId::Comments];
                let uid = user.0 as usize % self.users.len();
                r.pages.push(Self::data_page(TableId::Users, uid as u64));
                Self::index_pages(TableId::Comments, uid as u64, &mut r.pages);
                let comments = self.comments_by_to.get(uid as u32);
                let n = comments.len();
                for &ci in comments.iter().take(25) {
                    r.pages
                        .push(Self::data_page(TableId::Comments, u64::from(ci)));
                }
                r.rows = 1 + n.min(25) as u64;
                r.result_bytes = 80 + r.rows * 40;
            }
            Query::GetBidHistory { item } => {
                r.tables = &[TableId::Bids, TableId::Users];
                let iid = ItemId(item.0 % self.items.len() as u32);
                Self::index_pages(TableId::Bids, u64::from(iid.0), &mut r.pages);
                let idxs = self.bids_by_item.get(iid.0);
                for &bi in idxs {
                    r.pages.push(Self::data_page(TableId::Bids, u64::from(bi)));
                    let bidder = self.bids[bi as usize].user;
                    r.pages
                        .push(Self::data_page(TableId::Users, u64::from(bidder.0)));
                }
                r.rows = idxs.len() as u64;
                r.result_bytes = 70 + r.rows * 28;
            }
            Query::GetMaxBid { item } => {
                r.tables = &[TableId::Items];
                let iid = item.0 as usize % self.items.len();
                r.pages.push(Self::data_page(TableId::Items, iid as u64));
                r.rows = 1;
                r.result_bytes = 40;
            }
            Query::AuthUser { user } => {
                r.tables = &[TableId::Users];
                let uid = user.0 as usize % self.users.len();
                Self::index_pages(TableId::Users, uid as u64, &mut r.pages);
                r.pages.push(Self::data_page(TableId::Users, uid as u64));
                r.rows = 1;
                r.result_bytes = 50;
            }
            Query::AboutMe { user } => {
                r.tables = &[
                    TableId::Users,
                    TableId::Bids,
                    TableId::Items,
                    TableId::BuyNow,
                    TableId::Comments,
                ];
                let uid = UserId(user.0 % self.users.len() as u32);
                r.pages
                    .push(Self::data_page(TableId::Users, u64::from(uid.0)));
                let mut rows = 1u64;
                for &bi in self.bids_by_user.get(uid.0).iter().take(20) {
                    r.pages.push(Self::data_page(TableId::Bids, u64::from(bi)));
                    rows += 1;
                }
                for id in self.items_by_seller.get(uid.0).iter().take(20) {
                    r.pages
                        .push(Self::data_page(TableId::Items, u64::from(id.0)));
                    rows += 1;
                }
                for &bn in self.buy_nows_by_buyer.get(uid.0).iter().take(20) {
                    r.pages
                        .push(Self::data_page(TableId::BuyNow, u64::from(bn)));
                    rows += 1;
                }
                for &ci in self.comments_by_to.get(uid.0).iter().take(20) {
                    r.pages
                        .push(Self::data_page(TableId::Comments, u64::from(ci)));
                    rows += 1;
                }
                r.rows = rows;
                r.result_bytes = 120 + rows * 35;
            }
            Query::RegisterUser { region } => {
                r.tables = &[TableId::Users];
                let id = UserId(self.users.len() as u32);
                self.users.push(User {
                    id,
                    rating: 0,
                    balance: 0,
                    region,
                    items_sold: 0,
                });
                let page = Self::data_page(TableId::Users, u64::from(id.0));
                Self::index_pages(TableId::Users, u64::from(id.0), &mut r.pages);
                r.dirty_pages.push(page);
                r.rows = 1;
                r.result_bytes = 60;
            }
            Query::StoreBid {
                user,
                item,
                increment,
            } => {
                r.tables = &[TableId::Bids, TableId::Items];
                let iid = (item.0 as usize) % self.items.len();
                let item_page = Self::data_page(TableId::Items, iid as u64);
                r.pages.push(item_page);
                let new_amount = {
                    let it = &mut self.items[iid];
                    let amount = it.max_bid.max(it.initial_price) + increment.max(1);
                    it.max_bid = amount;
                    it.nb_bids += 1;
                    amount
                };
                let bid = Bid {
                    user: UserId(user.0 % self.users.len() as u32),
                    item: ItemId(iid as u32),
                    qty: 1,
                    amount: new_amount,
                    date_s: now_s,
                };
                let bid_row = self.bids.len() as u64;
                self.index_bid(bid);
                Self::index_pages(TableId::Bids, iid as u64, &mut r.pages);
                r.dirty_pages.push(Self::data_page(TableId::Bids, bid_row));
                r.dirty_pages.push(item_page);
                r.rows = 2;
                r.result_bytes = 50;
            }
            Query::StoreComment { from, to, item } => {
                r.tables = &[TableId::Comments, TableId::Users];
                let to = UserId(to.0 % self.users.len() as u32);
                let user_page = Self::data_page(TableId::Users, u64::from(to.0));
                r.pages.push(user_page);
                self.users[to.0 as usize].rating += 1;
                let comment = Comment {
                    from: UserId(from.0 % self.users.len() as u32),
                    to,
                    item: ItemId(item.0 % self.items.len() as u32),
                    rating: 1,
                    text_len: 200,
                };
                let row = self.comments.len() as u64;
                self.index_comment(comment);
                r.dirty_pages.push(Self::data_page(TableId::Comments, row));
                r.dirty_pages.push(user_page);
                r.rows = 2;
                r.result_bytes = 50;
            }
            Query::StoreBuyNow { buyer, item } => {
                r.tables = &[TableId::BuyNow, TableId::Items];
                let iid = (item.0 as usize) % self.items.len();
                let item_page = Self::data_page(TableId::Items, iid as u64);
                r.pages.push(item_page);
                self.items[iid].quantity = self.items[iid].quantity.saturating_sub(1);
                let row = self.buy_nows.len() as u64;
                let buyer = UserId(buyer.0 % self.users.len() as u32);
                self.buy_nows.push(BuyNow {
                    buyer,
                    item: ItemId(iid as u32),
                    qty: 1,
                    date_s: now_s,
                });
                self.buy_nows_by_buyer.push(buyer.0, row as u32);
                r.dirty_pages.push(Self::data_page(TableId::BuyNow, row));
                r.dirty_pages.push(item_page);
                r.rows = 2;
                r.result_bytes = 50;
            }
        }
        r.cpu_cycles += cost::BASE
            + r.rows as f64 * cost::PER_ROW
            + (r.pages.len() + r.dirty_pages.len()) as f64 * cost::PER_PAGE
            + if q.is_write() { cost::WRITE_EXTRA } else { 0.0 };
    }
}

/// Disk and CPU work produced by one query at the mysqld level.
#[derive(Debug, Clone, Default)]
pub struct DbWork {
    /// Executor + protocol CPU cycles.
    pub cpu_cycles: f64,
    /// Disk operations to issue (buffer-pool misses, write-back,
    /// transaction log).
    pub ios: Vec<IoRequest>,
    /// Result bytes returned to the application tier.
    pub response_bytes: u64,
    /// Rows produced/affected.
    pub rows: u64,
    /// Whether the query-cache satisfied the query outright.
    pub query_cache_hit: bool,
}

/// Configuration of the MySQL server model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MySqlConfig {
    /// InnoDB buffer pool size in bytes.
    pub buffer_pool_bytes: u64,
    /// Query cache size in bytes (0 disables it).
    pub query_cache_bytes: u64,
    /// Base resident set of mysqld (code, heap, connection buffers).
    pub base_memory_bytes: u64,
    /// Per-connection memory.
    pub per_connection_bytes: u64,
}

impl Default for MySqlConfig {
    fn default() -> Self {
        MySqlConfig {
            // Modest 2005-era defaults, as a stock RUBiS install would use
            // inside a 2 GB VM.
            buffer_pool_bytes: 72 * 1024 * 1024,
            query_cache_bytes: 16 * 1024 * 1024,
            base_memory_bytes: 65 * 1024 * 1024,
            per_connection_bytes: 192 * 1024,
        }
    }
}

/// The mysqld process model: database + buffer pool + query cache +
/// transaction log.
#[derive(Debug)]
pub struct MySqlServer {
    /// The relational engine.
    pub db: Database,
    config: MySqlConfig,
    pool: BufferPool,
    cache: QueryCache,
    /// The last executed query's footprint, reused across queries.
    result: QueryResult,
    /// Currently open client connections (drives memory accounting).
    pub connections: u32,
    queries_executed: u64,
    log_bytes_pending: u64,
}

impl MySqlServer {
    /// Build the server around a generated database.
    pub fn new(db: Database, config: MySqlConfig) -> Self {
        MySqlServer {
            db,
            pool: BufferPool::new(config.buffer_pool_bytes),
            cache: QueryCache::new(config.query_cache_bytes),
            result: QueryResult::default(),
            config,
            connections: 0,
            queries_executed: 0,
            log_bytes_pending: 0,
        }
    }

    /// Pre-warm the buffer pool to `fraction` of its capacity by
    /// touching the hottest data pages of each table round-robin — the
    /// state a long-lived mysqld reaches before measurement starts (the
    /// paper's database had served traffic before its runs).
    pub fn prewarm(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let target = (self.pool.capacity_pages() as f64 * fraction) as usize;
        if target == 0 {
            return;
        }
        let cards = self.db.cardinalities();
        let mut round: u64 = 0;
        loop {
            let mut touched_any = false;
            for (i, table) in TableId::ALL.iter().enumerate() {
                let total_pages = (cards[i] * row_bytes(*table)).div_ceil(PAGE_BYTES);
                if round < total_pages {
                    self.pool.access(
                        PageRef {
                            table: *table,
                            page: round,
                        },
                        false,
                    );
                    touched_any = true;
                    if self.pool.resident_pages() >= target {
                        return;
                    }
                }
            }
            if !touched_any {
                return;
            }
            round += 1;
        }
    }

    /// Execute a query through caches, producing CPU and disk work.
    pub fn execute(&mut self, q: Query, now_s: u32) -> DbWork {
        self.queries_executed += 1;
        // Query cache lookup for SELECTs.
        if self.config.query_cache_bytes > 0 {
            if let Some(key) = q.cache_key() {
                if let Some(bytes) = self.cache.lookup(key) {
                    return DbWork {
                        cpu_cycles: 25_000.0, // hash + protocol only
                        ios: Vec::new(),
                        response_bytes: bytes,
                        rows: 0,
                        query_cache_hit: true,
                    };
                }
            }
        }

        self.db.execute(q, now_s, &mut self.result);
        let result = &self.result;
        let mut ios = Vec::new();
        for page in &result.pages {
            match self.pool.access(*page, false) {
                Access::Hit => {}
                Access::Miss => ios.push(IoRequest {
                    kind: IoKind::Read,
                    bytes: PAGE_BYTES,
                    sequential: false,
                }),
                Access::MissDirtyEvict => {
                    ios.push(IoRequest {
                        kind: IoKind::Write,
                        bytes: PAGE_BYTES,
                        sequential: false,
                    });
                    ios.push(IoRequest {
                        kind: IoKind::Read,
                        bytes: PAGE_BYTES,
                        sequential: false,
                    });
                }
            }
        }
        for page in &result.dirty_pages {
            match self.pool.access(*page, true) {
                Access::Hit | Access::Miss => {}
                Access::MissDirtyEvict => ios.push(IoRequest {
                    kind: IoKind::Write,
                    bytes: PAGE_BYTES,
                    sequential: false,
                }),
            }
        }
        if q.is_write() {
            for &t in result.tables {
                self.cache.invalidate(t);
            }
            // Redo/binlog: group-committed; accumulate and flush in
            // `log_flush`, but small synchronous record now.
            self.log_bytes_pending += 300 + result.result_bytes;
            // Synchronous redo + binlog records (fsync'd per commit).
            for _ in 0..2 {
                ios.push(IoRequest {
                    kind: IoKind::Write,
                    bytes: 512,
                    sequential: true,
                });
            }
        } else if self.config.query_cache_bytes > 0 {
            if let Some(key) = q.cache_key() {
                self.cache.insert(key, result.result_bytes, result.tables);
            }
        }

        DbWork {
            cpu_cycles: result.cpu_cycles,
            ios,
            response_bytes: result.result_bytes,
            rows: result.rows,
            query_cache_hit: false,
        }
    }

    /// Periodic group-commit / binlog flush; returns the write to issue,
    /// if any. Call every few hundred milliseconds.
    pub fn log_flush(&mut self) -> Option<IoRequest> {
        if self.log_bytes_pending == 0 {
            return None;
        }
        let bytes = self.log_bytes_pending;
        self.log_bytes_pending = 0;
        Some(IoRequest {
            kind: IoKind::Write,
            bytes,
            sequential: true,
        })
    }

    /// Resident memory of the mysqld process.
    pub fn memory_bytes(&self) -> u64 {
        self.config.base_memory_bytes
            + self.pool.resident_bytes()
            + self.cache.used_bytes()
            + u64::from(self.connections) * self.config.per_connection_bytes
    }

    /// Buffer-pool statistics: (hits, misses, dirty evictions).
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        self.pool.stats()
    }

    /// Query-cache statistics: (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Total queries executed.
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> MySqlServer {
        let mut rng = SimRng::new(5);
        let db = Database::generate(DbScale::small(), &mut rng);
        MySqlServer::new(db, MySqlConfig::default())
    }

    #[test]
    fn select_categories_is_cheap() {
        let mut s = server();
        let w = s.execute(Query::SelectCategories, 0);
        assert!(!w.query_cache_hit);
        assert_eq!(w.rows, 5);
        assert!(w.cpu_cycles > 0.0);
        // Second time: query cache.
        let w2 = s.execute(Query::SelectCategories, 0);
        assert!(w2.query_cache_hit);
        assert!(w2.ios.is_empty());
        assert_eq!(w2.response_bytes, w.response_bytes);
    }

    #[test]
    fn cold_reads_produce_disk_io_warm_reads_do_not() {
        let mut rng = SimRng::new(5);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(
            db,
            MySqlConfig {
                query_cache_bytes: 0, // isolate the buffer pool
                ..MySqlConfig::default()
            },
        );
        let q = Query::GetItem { item: ItemId(10) };
        let cold = s.execute(q, 0);
        assert!(!cold.ios.is_empty(), "cold read should miss");
        let warm = s.execute(q, 0);
        assert!(warm.ios.is_empty(), "warm read should hit pool");
        let (h, m, _) = s.pool_stats();
        assert!(h > 0 && m > 0);
    }

    #[test]
    fn store_bid_mutates_and_invalidates() {
        let mut s = server();
        let q_hist = Query::GetBidHistory { item: ItemId(3) };
        let before = s.execute(q_hist, 0);
        let cached = s.execute(q_hist, 0);
        assert!(cached.query_cache_hit);
        let w = s.execute(
            Query::StoreBid {
                user: UserId(1),
                item: ItemId(3),
                increment: 100,
            },
            5,
        );
        assert!(w.ios.iter().any(|io| io.kind == IoKind::Write));
        let after = s.execute(q_hist, 0);
        assert!(!after.query_cache_hit, "cache must be invalidated");
        assert_eq!(after.rows, before.rows + 1, "one more bid in history");
    }

    #[test]
    fn register_user_grows_users() {
        let mut s = server();
        let before = s.db.cardinalities()[0];
        s.execute(
            Query::RegisterUser {
                region: RegionId(0),
            },
            0,
        );
        assert_eq!(s.db.cardinalities()[0], before + 1);
    }

    #[test]
    fn buy_now_decrements_quantity() {
        let mut s = server();
        let q0 = s.db.items[7].quantity;
        s.execute(
            Query::StoreBuyNow {
                buyer: UserId(0),
                item: ItemId(7),
            },
            0,
        );
        assert_eq!(s.db.items[7].quantity, q0 - 1);
        assert_eq!(s.db.cardinalities()[4], 1);
    }

    #[test]
    fn comment_bumps_rating() {
        let mut s = server();
        let r0 = s.db.users[9].rating;
        s.execute(
            Query::StoreComment {
                from: UserId(1),
                to: UserId(9),
                item: ItemId(0),
            },
            0,
        );
        assert_eq!(s.db.users[9].rating, r0 + 1);
    }

    #[test]
    fn log_flush_batches_writes() {
        let mut s = server();
        assert!(s.log_flush().is_none());
        s.execute(
            Query::StoreBid {
                user: UserId(0),
                item: ItemId(0),
                increment: 10,
            },
            0,
        );
        s.execute(
            Query::StoreBid {
                user: UserId(1),
                item: ItemId(1),
                increment: 10,
            },
            0,
        );
        let flush = s.log_flush().expect("pending log bytes");
        assert_eq!(flush.kind, IoKind::Write);
        assert!(flush.sequential);
        assert!(flush.bytes >= 600);
        assert!(s.log_flush().is_none());
    }

    #[test]
    fn memory_grows_with_pool_warmup() {
        let mut s = server();
        let m0 = s.memory_bytes();
        for i in 0..200 {
            s.execute(Query::GetItem { item: ItemId(i) }, 0);
        }
        assert!(s.memory_bytes() > m0, "buffer pool residency should grow");
        s.connections = 50;
        let with_conns = s.memory_bytes();
        assert_eq!(
            with_conns,
            s.memory_bytes().min(with_conns) // stable
        );
        assert!(with_conns > m0);
    }

    #[test]
    fn cache_keys_distinguish_queries() {
        let a = Query::GetItem { item: ItemId(1) }.cache_key().unwrap();
        let b = Query::GetItem { item: ItemId(2) }.cache_key().unwrap();
        let c = Query::GetUserInfo { user: UserId(1) }.cache_key().unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(Query::StoreBid {
            user: UserId(0),
            item: ItemId(0),
            increment: 1
        }
        .cache_key()
        .is_none());
    }

    #[test]
    fn about_me_touches_many_tables() {
        let mut s = server();
        let w = s.execute(Query::AboutMe { user: UserId(3) }, 0);
        assert!(w.rows >= 1);
        assert!(w.response_bytes >= 120);
    }

    #[test]
    fn select_regions_and_max_bid() {
        let mut s = server();
        let w = s.execute(Query::SelectRegions, 0);
        assert_eq!(w.rows, 4);
        let w2 = s.execute(Query::GetMaxBid { item: ItemId(3) }, 0);
        assert_eq!(w2.rows, 1);
        assert!(w2.response_bytes > 0);
    }

    #[test]
    fn auth_user_touches_index_and_row() {
        let mut rng = SimRng::new(5);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(
            db,
            MySqlConfig {
                query_cache_bytes: 0,
                ..MySqlConfig::default()
            },
        );
        let cold = s.execute(Query::AuthUser { user: UserId(42) }, 0);
        assert!(!cold.ios.is_empty());
        let warm = s.execute(Query::AuthUser { user: UserId(42) }, 0);
        assert!(warm.ios.is_empty());
    }

    #[test]
    fn search_by_region_joins_users() {
        let mut s = server();
        let w = s.execute(
            Query::SearchItemsByRegion {
                category: CategoryId(0),
                region: RegionId(1),
                page: 0,
            },
            0,
        );
        assert!(w.rows <= ITEMS_PER_PAGE as u64);
        assert!(w.cpu_cycles > 0.0);
    }

    #[test]
    fn searches_are_not_query_cacheable() {
        // NOW()-dependent SQL: MySQL's query cache refuses them.
        assert!(Query::SearchItemsByCategory {
            category: CategoryId(0),
            page: 0
        }
        .cache_key()
        .is_none());
        assert!(Query::SearchItemsByRegion {
            category: CategoryId(0),
            region: RegionId(0),
            page: 0
        }
        .cache_key()
        .is_none());
        assert!(Query::AboutMe { user: UserId(0) }.cache_key().is_none());
        // Point lookups remain cacheable.
        assert!(Query::GetItem { item: ItemId(0) }.cache_key().is_some());
    }

    #[test]
    fn prewarm_fills_requested_fraction() {
        let mut rng = SimRng::new(6);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(db, MySqlConfig::default());
        let cap = 72 * 1024 * 1024 / 16384; // pool pages
        s.prewarm(0.5);
        let resident_mid = s.memory_bytes();
        s.prewarm(1.0);
        let resident_full = s.memory_bytes();
        assert!(resident_full >= resident_mid);
        // The small DB has fewer pages than half the pool, so prewarm
        // stops when the tables are exhausted.
        let _ = cap;
    }

    #[test]
    fn prewarm_zero_is_noop() {
        let mut rng = SimRng::new(7);
        let db = Database::generate(DbScale::small(), &mut rng);
        let mut s = MySqlServer::new(db, MySqlConfig::default());
        let before = s.memory_bytes();
        s.prewarm(0.0);
        assert_eq!(s.memory_bytes(), before);
    }

    #[test]
    fn get_user_info_reads_comments() {
        let mut s = server();
        let w = s.execute(Query::GetUserInfo { user: UserId(5) }, 0);
        assert!(w.rows >= 1);
        assert!(w.response_bytes >= 80);
    }

    /// The covering category rows and the reused result reproduce the
    /// naive formulation. After a seeded stream of every write query,
    /// both category searches return the page lists and rows of a join
    /// over the item and user rows, and a query executed into a result
    /// that last held a long scan equals the same query executed fresh.
    #[test]
    fn covering_scan_and_reused_result_match_naive_join() {
        let mut db = Database::generate(DbScale::small(), &mut SimRng::new(11));
        let mut stream = SimRng::new(12);
        for now_s in 0..2_000 {
            let a = UserId(stream.below(1_000) as u32);
            let b = stream.below(1_000) as u32;
            let q = match stream.below(4) {
                0 => Query::RegisterUser {
                    region: db.random_region(&mut stream),
                },
                1 => Query::StoreBid {
                    user: a,
                    item: ItemId(b),
                    increment: 1 + stream.below(500) as i64,
                },
                2 => Query::StoreComment {
                    from: a,
                    to: UserId(b),
                    item: ItemId(a.0 ^ b),
                },
                _ => Query::StoreBuyNow {
                    buyer: a,
                    item: ItemId(b),
                },
            };
            db.execute(q, now_s, &mut QueryResult::default());
        }
        let mut r = QueryResult::default();
        for cat in 0..db.scale.categories {
            let category = CategoryId(cat);
            let items: Vec<(ItemId, UserId)> = db
                .items
                .iter()
                .filter(|it| it.category == category)
                .map(|it| (it.id, it.seller))
                .collect();
            let mut index = Vec::new();
            Database::index_pages(TableId::Items, u64::from(cat), &mut index);
            for page in 0..(items.len() / ITEMS_PER_PAGE + 2) as u32 {
                let skip = page as usize * ITEMS_PER_PAGE;
                let shown = items.iter().skip(skip).take(ITEMS_PER_PAGE);
                let mut pages = index.clone();
                pages.extend(
                    shown.map(|&(id, _)| Database::data_page(TableId::Items, u64::from(id.0))),
                );
                db.execute(Query::SearchItemsByCategory { category, page }, 0, &mut r);
                assert_eq!(r.rows, (pages.len() - 2) as u64);
                assert_eq!(r.pages, pages);
                for region in (0..db.scale.regions).map(RegionId) {
                    let mut pages = index.clone();
                    let mut matched = 0;
                    for &(id, seller) in items.iter().take(400) {
                        pages.push(Database::data_page(TableId::Items, u64::from(id.0)));
                        pages.push(Database::data_page(TableId::Users, u64::from(seller.0)));
                        if db.users[seller.0 as usize].region == region {
                            matched += 1;
                            if matched >= skip + ITEMS_PER_PAGE {
                                break;
                            }
                        }
                    }
                    let q = Query::SearchItemsByRegion {
                        category,
                        region,
                        page,
                    };
                    db.execute(q, 0, &mut r);
                    assert_eq!(r.rows, matched.min(ITEMS_PER_PAGE) as u64);
                    assert_eq!(r.pages, pages);
                }
            }
        }

        // Enough items that one category outgrows the 400-row scan limit.
        let scale = DbScale {
            active_items: 2_000,
            ..DbScale::small()
        };
        let mut db = Database::generate(scale, &mut SimRng::new(13));
        let bid = Query::StoreBid {
            user: UserId(1),
            item: ItemId(2),
            increment: 10,
        };
        db.execute(bid, 0, &mut r);
        let scan = Query::SearchItemsByRegion {
            category: CategoryId(0),
            region: RegionId(0),
            page: 1_000,
        };
        db.execute(scan, 0, &mut r);
        assert_eq!(r.pages.len(), 2 + 2 * 400);
        let get = Query::GetItem { item: ItemId(3) };
        db.execute(get, 0, &mut r);
        let mut fresh = QueryResult::default();
        db.execute(get, 0, &mut fresh);
        assert_eq!(r, fresh);
    }

    #[test]
    fn search_pagination_bounds() {
        let mut s = server();
        let w0 = s.execute(
            Query::SearchItemsByCategory {
                category: CategoryId(0),
                page: 0,
            },
            0,
        );
        assert!(w0.rows <= ITEMS_PER_PAGE as u64);
        let w_far = s.execute(
            Query::SearchItemsByCategory {
                category: CategoryId(0),
                page: 10_000,
            },
            0,
        );
        assert_eq!(w_far.rows, 0);
    }
}
