//! Transactional (Atomos-style) configurations of the warehouse workload.
//!
//! Three configurations, mirroring the paper's Figure-4 series:
//!
//! * [`TmConfig::Baseline`] — "a first step baseline parallelization by a
//!   novice parallel programmer": each TPC-C operation is one big atomic
//!   transaction over plain transactional structures. Global counters
//!   (`District.nextOrder`, the history-id generator) and map internals
//!   make every pair of operations conflict.
//! * [`TmConfig::Open`] — the counters are accessed in **open-nested
//!   transactions** (paper: "wrapping reads and writes to these counters in
//!   open-nested transactions ... preserve the counter semantics while
//!   reducing lost work"). Map internals still conflict.
//! * [`TmConfig::Transactional`] — additionally, the three hot shared maps
//!   (`Warehouse.historyTable`, `District.orderTable`,
//!   `District.newOrderTable`) are wrapped in `TransactionalMap` /
//!   `TransactionalSortedMap`.

use crate::model::*;
use stm::Txn;
use txcollections::{TransactionalMap, TransactionalSortedMap};
use txstruct::{TxCounter, TxHashMap, TxTreeMap};

/// Which Figure-4 Atomos series to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmConfig {
    /// Whole-op transactions over plain structures.
    Baseline,
    /// Open-nested counters, plain maps.
    Open,
    /// Open-nested counters + transactional collection classes.
    Transactional,
}

/// A counter that is a serialization point in `Baseline` and open-nested
/// (dependency-free) otherwise.
pub struct JCounter {
    inner: TxCounter,
    open: bool,
}

impl JCounter {
    fn new(open: bool) -> Self {
        JCounter {
            inner: TxCounter::new(0),
            open,
        }
    }

    /// Draw the next value.
    pub fn next(&self, tx: &mut Txn) -> i64 {
        if self.open {
            self.inner.next_uid(tx)
        } else {
            self.inner.add(tx, 1)
        }
    }

    /// Add to the counter (year-to-date accumulators).
    pub fn add(&self, tx: &mut Txn, delta: i64) {
        if self.open {
            self.inner.add_open(tx, delta);
        } else {
            self.inner.add(tx, delta);
        }
    }

    /// Read the current value.
    pub fn get(&self, tx: &mut Txn) -> i64 {
        if self.open {
            tx.open(|otx| self.inner.get(otx))
        } else {
            self.inner.get(tx)
        }
    }

    /// Committed value (outside transactions).
    pub fn get_committed(&self) -> i64 {
        self.inner.get_committed()
    }

    /// Label the counter for conflict attribution.
    pub fn set_label(&self, label: impl Into<String>) {
        self.inner.var().set_label(label);
    }
}

/// A map that is bare in `Baseline`/`Open` and wrapped in `Transactional`.
pub enum JMap<V: Clone + Send + Sync + 'static> {
    /// Plain transactional hash map (internals conflict).
    Bare(TxHashMap<i64, V>),
    /// Semantic-concurrency-control wrapper.
    Wrapped(TransactionalMap<i64, V>),
}

impl<V: Clone + Send + Sync + 'static> JMap<V> {
    /// Insert a fresh key (blind where supported — the key is a fresh UID).
    pub fn insert_new(&self, tx: &mut Txn, k: i64, v: V) {
        match self {
            JMap::Bare(m) => {
                m.insert(tx, k, v);
            }
            JMap::Wrapped(m) => m.put_discard(tx, k, v),
        }
    }

    /// Look up a key.
    pub fn get(&self, tx: &mut Txn, k: &i64) -> Option<V> {
        match self {
            JMap::Bare(m) => m.get(tx, k),
            JMap::Wrapped(m) => m.get(tx, k),
        }
    }

    /// Committed entry count.
    pub fn committed_len(&self) -> usize {
        match self {
            JMap::Bare(m) => stm::atomic(|tx| m.len(tx)),
            JMap::Wrapped(m) => stm::atomic(|tx| m.size(tx)),
        }
    }

    /// Label the map's header for conflict attribution (bare maps only —
    /// wrapped maps leave no memory footprint in the parent).
    pub fn set_label(&self, label: impl Into<String>) {
        if let JMap::Bare(m) = self {
            m.set_header_label(label);
        }
    }
}

/// A sorted map that is bare in `Baseline`/`Open` and wrapped in
/// `Transactional`.
pub enum JSorted<V: Clone + Send + Sync + 'static> {
    /// Plain transactional red–black tree (rotations conflict).
    Bare(TxTreeMap<i64, V>),
    /// Semantic-concurrency-control wrapper.
    Wrapped(TransactionalSortedMap<i64, V>),
}

impl<V: Clone + Send + Sync + 'static> JSorted<V> {
    /// Insert a fresh key.
    pub fn insert_new(&self, tx: &mut Txn, k: i64, v: V) {
        match self {
            JSorted::Bare(m) => {
                m.insert(tx, k, v);
            }
            JSorted::Wrapped(m) => m.put_discard(tx, k, v),
        }
    }

    /// Replace an existing key's value.
    pub fn update(&self, tx: &mut Txn, k: i64, v: V) {
        match self {
            JSorted::Bare(m) => {
                m.insert(tx, k, v);
            }
            JSorted::Wrapped(m) => m.put_discard(tx, k, v),
        }
    }

    /// Look up a key.
    pub fn get(&self, tx: &mut Txn, k: &i64) -> Option<V> {
        match self {
            JSorted::Bare(m) => m.get(tx, k),
            JSorted::Wrapped(m) => m.get(tx, k),
        }
    }

    /// Remove a key.
    pub fn remove(&self, tx: &mut Txn, k: &i64) -> Option<V> {
        match self {
            JSorted::Bare(m) => m.remove(tx, k),
            JSorted::Wrapped(m) => m.remove(tx, k),
        }
    }

    /// Smallest entry.
    pub fn first_entry(&self, tx: &mut Txn) -> Option<(i64, V)> {
        match self {
            JSorted::Bare(m) => m.first_entry(tx),
            JSorted::Wrapped(m) => {
                m.first_in_range(tx, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            }
        }
    }

    /// Largest entry.
    pub fn last_entry(&self, tx: &mut Txn) -> Option<(i64, V)> {
        match self {
            JSorted::Bare(m) => m.last_entry(tx),
            JSorted::Wrapped(m) => {
                m.last_in_range(tx, std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            }
        }
    }

    /// Entries in `[lo, hi)`.
    pub fn range(&self, tx: &mut Txn, lo: i64, hi: i64) -> Vec<(i64, V)> {
        match self {
            JSorted::Bare(m) => m.range_entries(
                tx,
                std::ops::Bound::Included(&lo),
                std::ops::Bound::Excluded(&hi),
            ),
            JSorted::Wrapped(m) => m.range_entries(
                tx,
                std::ops::Bound::Included(lo),
                std::ops::Bound::Excluded(hi),
            ),
        }
    }

    /// Committed entry count.
    pub fn committed_len(&self) -> usize {
        match self {
            JSorted::Bare(m) => stm::atomic(|tx| m.len(tx)),
            JSorted::Wrapped(m) => stm::atomic(|tx| m.size(tx)),
        }
    }

    /// Label the tree's header for conflict attribution (bare trees only).
    pub fn set_label(&self, label: impl Into<String>) {
        if let JSorted::Bare(m) = self {
            m.set_header_label(label);
        }
    }
}

/// One district of the shared warehouse.
pub struct District {
    /// The order-id generator — the paper's headline conflict source.
    pub next_order: JCounter,
    /// Order id → order header (sorted: OrderStatus/StockLevel scan it).
    pub order_table: JSorted<Order>,
    /// Undelivered order ids (sorted: Delivery takes the oldest).
    pub new_order_table: JSorted<u64>,
    /// District year-to-date payment total.
    pub ytd: JCounter,
}

/// The single shared warehouse.
pub struct TmWarehouse {
    /// Per-district state.
    pub districts: Vec<District>,
    /// Customer id -> packed (district, order id) of the customer's most
    /// recent order; OrderStatus reads it, NewOrder blind-overwrites it
    /// (the "LastModified" idiom of §5.1).
    pub customer_index: JMap<i64>,
    /// Payment history (hash map: only point lookups/inserts).
    pub history_table: JMap<History>,
    /// History-record id generator.
    pub history_uid: JCounter,
    /// Warehouse year-to-date payment total.
    pub ytd: JCounter,
    /// Item id → stock quantity (plain in every configuration; per-item
    /// conflicts here are genuine, not artifacts).
    pub stock: TxHashMap<u64, i64>,
    /// Global customer id → balance (plain in every configuration).
    pub customers: TxHashMap<u64, i64>,
    /// Item id → price in cents (immutable catalog).
    pub prices: Vec<i64>,
    /// Initial per-item stock.
    pub initial_stock: i64,
}

impl TmWarehouse {
    /// Build and populate a warehouse for the given configuration.
    pub fn new(config: TmConfig) -> Self {
        let open = config != TmConfig::Baseline;
        let wrapped = config == TmConfig::Transactional;
        let mk_sorted = |_: &str| {
            if wrapped {
                JSorted::Wrapped(TransactionalSortedMap::new())
            } else {
                JSorted::Bare(TxTreeMap::new())
            }
        };
        let districts = (0..DISTRICTS)
            .map(|_| District {
                next_order: JCounter::new(open),
                order_table: mk_sorted("orders"),
                new_order_table: if wrapped {
                    JSorted::Wrapped(TransactionalSortedMap::new())
                } else {
                    JSorted::Bare(TxTreeMap::new())
                },
                ytd: JCounter::new(open),
            })
            .collect();
        let initial_stock = 100_000;
        let w = TmWarehouse {
            districts,
            customer_index: if wrapped {
                JMap::Wrapped(TransactionalMap::with_capacity(1024))
            } else {
                JMap::Bare(TxHashMap::with_capacity(1024))
            },
            history_table: if wrapped {
                JMap::Wrapped(TransactionalMap::with_capacity(4096))
            } else {
                JMap::Bare(TxHashMap::with_capacity(4096))
            },
            history_uid: JCounter::new(open),
            ytd: JCounter::new(open),
            stock: TxHashMap::with_capacity(1024),
            customers: TxHashMap::with_capacity(1024),
            prices: (0..ITEMS).map(|i| 100 + (i as i64 % 900)).collect(),
            initial_stock,
        };
        stm::atomic(|tx| {
            for item in 0..ITEMS {
                w.stock.insert(tx, item, initial_stock);
            }
            for c in 0..(DISTRICTS as u64 * CUSTOMERS_PER_DISTRICT) {
                w.customers.insert(tx, c, 0);
            }
        });
        // TAPE-style labels for conflict attribution (paper §6.3).
        for (i, d) in w.districts.iter().enumerate() {
            d.next_order.set_label(format!("District[{i}].nextOrder"));
            d.order_table.set_label(format!("District[{i}].orderTable"));
            d.new_order_table
                .set_label(format!("District[{i}].newOrderTable"));
            d.ytd.set_label(format!("District[{i}].ytd"));
        }
        w.customer_index.set_label("Warehouse.customerIndex");
        w.history_table.set_label("Warehouse.historyTable");
        w.history_uid.set_label("Warehouse.historyUid");
        w.ytd.set_label("Warehouse.ytd");
        w.stock.set_label("Warehouse.stock");
        w.customers.set_label("Warehouse.customers");
        w
    }

    // ------------------------------------------------------------------
    // The five TPC-C style operations, each run as ONE atomic transaction
    // ------------------------------------------------------------------

    /// Pack a (district, order id) pair into the customer-index value.
    fn pack_order_ref(district: usize, order_id: i64) -> i64 {
        district as i64 * 1_000_000_000 + order_id
    }

    /// Unpack a customer-index value.
    fn unpack_order_ref(code: i64) -> (usize, i64) {
        ((code / 1_000_000_000) as usize, code % 1_000_000_000)
    }

    /// NewOrder: draw an id, price items, decrement stock, insert the order,
    /// and blind-update the customer's latest-order index.
    pub fn new_order(&self, tx: &mut Txn, rng: &mut TxnRng, think: u64) {
        let di = rng.below(DISTRICTS as u64) as usize;
        let d = &self.districts[di];
        let customer = rng.below(DISTRICTS as u64 * CUSTOMERS_PER_DISTRICT);
        let id = d.next_order.next(tx);
        stm::add_cost(think);
        let mut items = Vec::with_capacity(LINES_PER_ORDER as usize);
        let mut total = 0i64;
        for _ in 0..LINES_PER_ORDER {
            let item = rng.below(ITEMS);
            items.push(item);
            total += self.prices[item as usize];
            let qty = self.stock.get(tx, &item).unwrap_or(0);
            self.stock.insert(tx, item, qty - 1);
        }
        stm::add_cost(think);
        let order = Order {
            id,
            customer,
            items,
            total,
            delivered: false,
        };
        d.order_table.insert_new(tx, id, order);
        d.new_order_table.insert_new(tx, id, customer);
        self.customer_index
            .insert_new(tx, customer as i64, Self::pack_order_ref(di, id));
    }

    /// Payment: update YTD accumulators, customer balance, history.
    pub fn payment(&self, tx: &mut Txn, rng: &mut TxnRng, think: u64) {
        let d = &self.districts[rng.below(DISTRICTS as u64) as usize];
        let customer = rng.below(DISTRICTS as u64 * CUSTOMERS_PER_DISTRICT);
        let amount = 100 + rng.below(5_000) as i64;
        self.ytd.add(tx, amount);
        d.ytd.add(tx, amount);
        stm::add_cost(think);
        let bal = self.customers.get(tx, &customer).unwrap_or(0);
        self.customers.insert(tx, customer, bal - amount);
        let hid = self.history_uid.next(tx);
        stm::add_cost(think);
        self.history_table
            .insert_new(tx, hid, History { customer, amount });
    }

    /// OrderStatus: report a customer's most recent order (by-customer via
    /// the index, as in TPC-C).
    pub fn order_status(&self, tx: &mut Txn, rng: &mut TxnRng, think: u64) {
        let customer = rng.below(DISTRICTS as u64 * CUSTOMERS_PER_DISTRICT);
        stm::add_cost(think);
        if let Some(code) = self.customer_index.get(tx, &(customer as i64)) {
            let (di, id) = Self::unpack_order_ref(code);
            if let Some(order) = self.districts[di].order_table.get(tx, &id) {
                // Touch the customer's balance as the status report would.
                let _ = self.customers.get(tx, &order.customer);
                std::hint::black_box(order.total);
            }
        }
    }

    /// Delivery: take the oldest undelivered order, mark it delivered, and
    /// bill the customer.
    pub fn delivery(&self, tx: &mut Txn, rng: &mut TxnRng, think: u64) {
        let d = &self.districts[rng.below(DISTRICTS as u64) as usize];
        stm::add_cost(think);
        if let Some((id, _customer)) = d.new_order_table.first_entry(tx) {
            d.new_order_table.remove(tx, &id);
            if let Some(mut order) = d.order_table.get(tx, &id) {
                order.delivered = true;
                let customer = order.customer;
                let total = order.total;
                d.order_table.update(tx, id, order);
                let bal = self.customers.get(tx, &customer).unwrap_or(0);
                self.customers.insert(tx, customer, bal - total);
            }
        }
    }

    /// StockLevel: count low-stock items among a district's recent orders.
    pub fn stock_level(&self, tx: &mut Txn, rng: &mut TxnRng, think: u64) {
        let d = &self.districts[rng.below(DISTRICTS as u64) as usize];
        let next = d.next_order.get(tx);
        stm::add_cost(think);
        let lo = (next - 8).max(0);
        let recent = d.order_table.range(tx, lo, next);
        let mut low = 0;
        for (_, order) in recent {
            for item in order.items {
                let qty = self.stock.get(tx, &item).unwrap_or(0);
                if qty < self.initial_stock / 2 {
                    low += 1;
                }
            }
        }
        std::hint::black_box(low);
    }

    /// Dispatch one operation by mix roll.
    pub fn run_op(&self, tx: &mut Txn, rng: &mut TxnRng, think: u64) {
        match op_for(rng.next()) {
            OpKind::NewOrder => self.new_order(tx, rng, think),
            OpKind::Payment => self.payment(tx, rng, think),
            OpKind::OrderStatus => self.order_status(tx, rng, think),
            OpKind::Delivery => self.delivery(tx, rng, think),
            OpKind::StockLevel => self.stock_level(tx, rng, think),
        }
    }

    // ------------------------------------------------------------------
    // Consistency checks (used by tests)
    // ------------------------------------------------------------------

    /// Verify cross-structure invariants on the committed state; returns the
    /// first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Warehouse YTD equals the sum of district YTDs.
        let w_ytd = self.ytd.get_committed();
        let d_ytd: i64 = self.districts.iter().map(|d| d.ytd.get_committed()).sum();
        if w_ytd != d_ytd {
            return Err(format!(
                "warehouse ytd {w_ytd} != sum of district ytds {d_ytd}"
            ));
        }
        // Stock decrements match order lines.
        let stock_total: i64 =
            stm::atomic(|tx| self.stock.entries(tx).into_iter().map(|(_, q)| q).sum());
        let lines: i64 = self
            .districts
            .iter()
            .map(|d| -> i64 {
                stm::atomic(|tx| {
                    d.order_table
                        .range(tx, 0, i64::MAX)
                        .iter()
                        .map(|(_, o)| o.items.len() as i64)
                        .sum()
                })
            })
            .sum();
        let expect = self.initial_stock * ITEMS as i64 - lines;
        if stock_total != expect {
            return Err(format!(
                "stock total {stock_total} != initial - order lines {expect}"
            ));
        }
        // Every customer-index entry points at an existing order by that
        // customer.
        for c in 0..(DISTRICTS as u64 * CUSTOMERS_PER_DISTRICT) {
            if let Some(code) = stm::atomic(|tx| self.customer_index.get(tx, &(c as i64))) {
                let (di, id) = Self::unpack_order_ref(code);
                if di >= DISTRICTS {
                    return Err(format!("customer {c}: bad district in index"));
                }
                match stm::atomic(|tx| self.districts[di].order_table.get(tx, &id)) {
                    None => return Err(format!("customer {c}: dangling order index {di}/{id}")),
                    Some(o) if o.customer != c => {
                        return Err(format!(
                            "customer {c}: index points at order of customer {}",
                            o.customer
                        ))
                    }
                    _ => {}
                }
            }
        }
        // Every undelivered entry refers to an existing, undelivered order.
        for (di, d) in self.districts.iter().enumerate() {
            let pending = stm::atomic(|tx| d.new_order_table.range(tx, 0, i64::MAX));
            for (id, _) in pending {
                let order = stm::atomic(|tx| d.order_table.get(tx, &id));
                match order {
                    None => return Err(format!("district {di}: dangling new-order {id}")),
                    Some(o) if o.delivered => {
                        return Err(format!(
                            "district {di}: order {id} delivered but still pending"
                        ))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// The warehouse workload adapted to the simulator's TM engine.
pub struct JbbTmWorkload {
    /// The shared warehouse.
    pub warehouse: TmWarehouse,
    /// Transactions per CPU.
    pub txns_per_cpu: usize,
    /// Workload seed.
    pub seed: u64,
    /// Think cycles inserted inside each operation.
    pub think: u64,
}

impl sim::TmWorkload for JbbTmWorkload {
    fn txn_count(&self, _cpu: usize) -> usize {
        self.txns_per_cpu
    }

    fn run(&self, cpu: usize, seq: usize, tx: &mut stm::Txn) {
        let mut rng = TxnRng::new(self.seed, cpu, seq);
        self.warehouse.run_op(tx, &mut rng, self.think);
    }
}
