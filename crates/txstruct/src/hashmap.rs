//! A transactional chained hash map modeled on `java.util.HashMap`.
//!
//! Faithfully reproduces the conflict artifacts the paper attributes to a
//! plain hash map used inside transactions (§2.4):
//!
//! * a shared **header** holding the `table` reference and the `size` field.
//!   In the paper's HTM, conflicts are detected at cache-line granularity
//!   and `java.util.HashMap`'s `table`, `size`, `modCount` and `threshold`
//!   fields share the object's header line — so every lookup (which reads
//!   `table`) conflicts with every committing insert/remove (which writes
//!   `size`/`modCount`). The header here is a single [`stm::TVar`] for the
//!   same reason: "semantically non-conflicting inserts of new keys will
//!   cause a memory-level data dependency as both inserts will try and
//!   increment the internal size field";
//! * per-bucket state, so two keys hashing to the same bucket conflict;
//! * load-factor resizing that rewrites the whole table inside whichever
//!   transaction happens to trip it.
//!
//! The hash function is deterministic (`DefaultHasher` with the default
//! keys) so simulator runs are reproducible. It stays SipHash while the
//! repository's other tables use `stm::hash`: the bucket index decides
//! which keys share a conflict unit, and Figs. 1–3 measure exactly that.
//!
//! A table is one block: its bucket vars are [`stm::TCell`]s in one boxed
//! slice, shared as an `Arc` that each access names as the cells' owner.
//! Each bucket keeps its own id, version and commit lock, so the footprint
//! is the same as with one `TVar` per bucket. A non-empty bucket is an
//! immutable `Arc<[_]>` snapshot of exactly its entries, replaced whole on
//! write; an empty bucket is `None`, so building, reading or emptying one
//! touches no shared count. A resize moves a whole bucket's `Arc` into the
//! new table when all its entries land in one new bucket, and copies only
//! the buckets that split.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::iter;
use std::sync::Arc;
use stm::{TCell, TVar, Txn};

/// A bucket's entries; `None` is the empty bucket, and a `Some` slice is
/// never empty.
type Bucket<K, V> = Option<Arc<[(K, V)]>>;

/// The bucket vars of one table size, in one block.
type Table<K, V> = Box<[TCell<Bucket<K, V>>]>;

/// `cap` empty buckets.
fn empty_table<K, V>(cap: usize) -> Table<K, V>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    (0..cap).map(|_| TCell::new(None)).collect()
}

/// The entries of `bucket`.
fn slice<K, V>(bucket: &Bucket<K, V>) -> &[(K, V)] {
    bucket.as_deref().unwrap_or_default()
}

/// The bucket var `key` hashes to.
fn bucket_cell<'t, K: Hash, V>(table: &'t Table<K, V>, key: &K) -> &'t TCell<Bucket<K, V>> {
    &table[index(key, table.len())]
}

/// The bucket of `key` in a table of `cap` buckets.
fn index<K: Hash + ?Sized>(key: &K, cap: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (cap - 1)
}

/// The object-header line: table pointer + size, one conflict unit.
struct Header<K, V> {
    table: Arc<Table<K, V>>,
    size: usize,
}

impl<K, V> Clone for Header<K, V> {
    fn clone(&self) -> Self {
        Header {
            table: self.table.clone(),
            size: self.size,
        }
    }
}

/// Default number of buckets (mirrors `java.util.HashMap`).
const DEFAULT_CAPACITY: usize = 16;
/// Resize when `size > capacity * 3/4` (Java's default load factor).
const LOAD_FACTOR_NUM: usize = 3;
const LOAD_FACTOR_DEN: usize = 4;

/// A transactional hash map. All operations must run inside a transaction
/// (or a commit/abort handler, where they apply directly).
pub struct TxHashMap<K, V> {
    header: TVar<Header<K, V>>,
}

impl<K, V> Clone for TxHashMap<K, V> {
    fn clone(&self) -> Self {
        TxHashMap {
            header: self.header.clone(),
        }
    }
}

impl<K, V> TxHashMap<K, V>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create an empty map with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Create an empty map with at least `capacity` buckets (rounded up to a
    /// power of two). Pre-sizing avoids resize storms in benchmarks.
    pub fn with_capacity(capacity: usize) -> Self {
        TxHashMap {
            header: TVar::new(Header {
                table: Arc::new(empty_table(capacity.next_power_of_two())),
                size: 0,
            }),
        }
    }

    /// Number of entries (reads the shared header — the headline conflict
    /// artifact).
    pub fn len(&self, tx: &mut Txn) -> usize {
        self.header.read(tx).size
    }

    /// Whether the map is empty (derived from `size`, as in Java).
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }

    /// Look up a key. Reads the header (table pointer) plus one bucket.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        let t = self.header.read(tx).table;
        let bucket = bucket_cell(&t, key).read(tx, &t);
        slice(&bucket)
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// Whether a key is present.
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.get(tx, key).is_some()
    }

    /// Insert or replace; returns the previous value. A new key writes the
    /// header (size increment) — conflicting with every concurrent reader
    /// of the map, as in the paper.
    pub fn insert(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        let h = self.header.read(tx);
        let t = &h.table;
        let cell = bucket_cell(t, &key);
        let bucket = cell.read(tx, t);
        let bucket = slice(&bucket);
        let Some(i) = bucket.iter().position(|(k, _)| *k == key) else {
            let entries = bucket.iter().cloned().chain(iter::once((key, value)));
            cell.write(tx, t, Some(entries.collect()));
            let size = h.size + 1;
            if size * LOAD_FACTOR_DEN > t.len() * LOAD_FACTOR_NUM {
                self.resize(tx, t, size, t.len() * 2);
            } else {
                let table = Arc::clone(t);
                self.header.write(tx, Header { table, size });
            }
            return None;
        };
        let (k, prev) = &bucket[i];
        let (before, after) = (&bucket[..i], &bucket[i + 1..]);
        let entries = before.iter().cloned().chain(iter::once((k.clone(), value)));
        cell.write(tx, t, Some(entries.chain(after.iter().cloned()).collect()));
        Some(prev.clone())
    }

    /// Remove a key; returns the previous value.
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        let h = self.header.read(tx);
        let t = &h.table;
        let cell = bucket_cell(t, key);
        let bucket = cell.read(tx, t);
        let bucket = slice(&bucket);
        let pos = bucket.iter().position(|(k, _)| k == key)?;
        // As `Vec::swap_remove`: the last entry takes the removed one's place.
        let last = bucket.len() - 1;
        let (moved, rest) = if pos == last {
            (&[][..], &[][..])
        } else {
            (&bucket[last..], &bucket[pos + 1..last])
        };
        let entries = bucket[..pos].iter().chain(moved).chain(rest).cloned();
        cell.write(tx, t, (last > 0).then(|| entries.collect()));
        let table = Arc::clone(t);
        self.header.write(
            tx,
            Header {
                table,
                size: h.size - 1,
            },
        );
        Some(bucket[pos].1.clone())
    }

    /// Rehash into a table of `new_cap` buckets, a multiple of the old
    /// count. Touches every bucket — a deliberate conflict storm, as in any
    /// in-place hash map. Old bucket `i` feeds only the new buckets
    /// congruent to `i`, so each is filled as its old bucket is read: a
    /// bucket whose entries all land in one new bucket moves there whole,
    /// and only a bucket that splits is copied.
    fn resize(&self, tx: &mut Txn, old: &Arc<Table<K, V>>, size: usize, new_cap: usize) {
        let mut fresh = empty_table(new_cap);
        let mut dest = Vec::new();
        for (i, cell) in old.iter().enumerate() {
            let Some(bucket) = cell.read(tx, old) else {
                continue;
            };
            dest.clear();
            dest.extend(bucket.iter().map(|(k, _)| index(k, new_cap)));
            for j in (i..new_cap).step_by(old.len()) {
                let n = dest.iter().filter(|&&d| d == j).count();
                if n == bucket.len() {
                    *fresh[j].get_mut() = Some(bucket);
                    break;
                }
                if n > 0 {
                    let mut moving = bucket.iter().zip(&dest).filter(|&(_, &d)| d == j);
                    // A `Range`-driven iterator has an exact length, so the
                    // bucket is allocated once, at its final size.
                    let entries = (0..n).map(|_| moving.next().expect("counted").0.clone());
                    *fresh[j].get_mut() = Some(entries.collect());
                }
            }
        }
        let table = Arc::new(fresh);
        self.header.write(tx, Header { table, size });
    }

    /// Snapshot all entries (bucket order; not sorted).
    pub fn entries(&self, tx: &mut Txn) -> Vec<(K, V)> {
        let h = self.header.read(tx);
        let mut out = Vec::with_capacity(h.size);
        for cell in h.table.iter() {
            out.extend(slice(&cell.read(tx, &h.table)).iter().cloned());
        }
        out
    }

    /// Snapshot all keys (bucket order; not sorted). Reads what
    /// [`entries`](Self::entries) reads, and clones no value.
    pub fn keys(&self, tx: &mut Txn) -> Vec<K> {
        let h = self.header.read(tx);
        let mut out = Vec::with_capacity(h.size);
        for cell in h.table.iter() {
            let bucket = cell.read(tx, &h.table);
            out.extend(slice(&bucket).iter().map(|(k, _)| k.clone()));
        }
        out
    }

    /// Remove all entries.
    pub fn clear(&self, tx: &mut Txn) {
        let h = self.header.read(tx);
        for cell in h.table.iter() {
            if cell.read(tx, &h.table).is_some() {
                cell.write(tx, &h.table, None);
            }
        }
        let table = h.table;
        self.header.write(tx, Header { table, size: 0 });
    }

    /// Id of the header variable (the "size field" conflict unit), for
    /// read/write-set introspection in tests and benches.
    pub fn header_var_id(&self) -> stm::VarId {
        self.header.id()
    }

    /// Label the header variable for conflict attribution.
    pub fn set_header_label(&self, label: impl Into<String>) {
        self.header.set_label(label);
    }

    /// Label the header `label` and the current bucket block
    /// `"{label}.buckets"` for conflict attribution: two labels, one per
    /// block, and every bucket shares the block's so attribution reports
    /// aggregate them. A later resize's block is not labelled; the block it
    /// replaces keeps its label only while it lives.
    pub fn set_label(&self, label: &str) {
        self.set_header_label(label);
        let table = self.header.read_committed().table;
        stm::label_owner(&table, format!("{label}.buckets"));
    }
}

impl<K, V> Default for TxHashMap<K, V>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::atomic;

    #[test]
    fn insert_get_remove_roundtrip() {
        let m: TxHashMap<u32, String> = TxHashMap::new();
        atomic(|tx| {
            assert_eq!(m.insert(tx, 1, "one".into()), None);
            assert_eq!(m.insert(tx, 2, "two".into()), None);
            assert_eq!(m.insert(tx, 1, "uno".into()), Some("one".into()));
            assert_eq!(m.get(tx, &1), Some("uno".into()));
            assert_eq!(m.len(tx), 2);
            assert_eq!(m.remove(tx, &1), Some("uno".into()));
            assert_eq!(m.get(tx, &1), None);
            assert_eq!(m.len(tx), 1);
        });
    }

    #[test]
    fn survives_resize() {
        let m: TxHashMap<u32, u32> = TxHashMap::with_capacity(2);
        atomic(|tx| {
            for i in 0..100 {
                m.insert(tx, i, i * 10);
            }
        });
        atomic(|tx| {
            assert_eq!(m.len(tx), 100);
            for i in 0..100 {
                assert_eq!(m.get(tx, &i), Some(i * 10), "key {i} lost in resize");
            }
        });
    }

    #[test]
    fn entries_sees_all() {
        let m: TxHashMap<u32, u32> = TxHashMap::new();
        atomic(|tx| {
            for i in 0..20 {
                m.insert(tx, i, i);
            }
        });
        let mut e = atomic(|tx| m.entries(tx));
        e.sort_unstable();
        assert_eq!(e.len(), 20);
        assert_eq!(e[0], (0, 0));
        assert_eq!(e[19], (19, 19));
    }

    #[test]
    fn clear_empties() {
        let m: TxHashMap<u32, u32> = TxHashMap::new();
        atomic(|tx| {
            m.insert(tx, 1, 1);
            m.insert(tx, 2, 2);
            m.clear(tx);
            assert!(m.is_empty(tx));
            assert_eq!(m.get(tx, &1), None);
        });
    }

    #[test]
    fn concurrent_disjoint_inserts_preserve_all() {
        let m: std::sync::Arc<TxHashMap<u64, u64>> =
            std::sync::Arc::new(TxHashMap::with_capacity(1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = t * 1000 + i;
                        atomic(|tx| {
                            m.insert(tx, k, k);
                        });
                    }
                });
            }
        });
        atomic(|tx| {
            assert_eq!(m.len(tx), 800);
        });
    }

    #[test]
    fn buffered_writes_invisible_until_commit() {
        let m: std::sync::Arc<TxHashMap<u32, u32>> = std::sync::Arc::new(TxHashMap::new());
        let m2 = m.clone();
        atomic(|tx| {
            m.insert(tx, 7, 7);
            // Another (committed-state) observer does not see it yet.
            let outside = std::thread::spawn({
                let m3 = m2.clone();
                move || atomic(|tx| m3.get(tx, &7))
            })
            .join()
            .unwrap();
            assert_eq!(outside, None);
        });
        assert_eq!(atomic(|tx| m.get(tx, &7)), Some(7));
    }

    #[test]
    fn a_bucket_read_through_another_tables_arc_panics() {
        let a: Arc<Table<u64, u64>> = Arc::new(empty_table(4));
        let b: Arc<Table<u64, u64>> = Arc::new(empty_table(4));
        let panics = |cell: &TCell<Bucket<u64, u64>>, owner: &Arc<Table<u64, u64>>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                atomic(|tx| cell.read(tx, owner).is_none())
            }))
            .is_err()
        };
        assert!(!panics(&a[3], &a));
        assert!(panics(&a[3], &b));
        assert!(panics(&b[0], &a));
    }

    #[test]
    fn a_tables_bucket_cells_have_distinct_ids() {
        let t: Table<u64, u64> = empty_table(64);
        let ids: std::collections::HashSet<stm::VarId> = t.iter().map(TCell::id).collect();
        assert_eq!(ids.len(), 64);
    }

    #[test]
    fn lookups_conflict_with_inserts_at_header_granularity() {
        // The paper's Figure-1 artifact, as a read/write-set assertion: a
        // get's read set and an insert's write set share the header var.
        let m: TxHashMap<u32, u32> = TxHashMap::with_capacity(1024);
        atomic(|tx| {
            m.insert(tx, 1, 1);
        });
        let m1 = m.clone();
        let (_, reader) = stm::speculate(
            move |tx| {
                m1.get(tx, &500);
            },
            0,
        )
        .unwrap();
        let m2 = m.clone();
        let (_, writer) = stm::speculate(
            move |tx| {
                m2.insert(tx, 999, 9);
            },
            0,
        )
        .unwrap();
        let header = m.header_var_id();
        assert!(reader.read_set().contains(&header));
        assert!(writer.write_set().contains(&header));
        reader.abort(stm::AbortCause::Explicit);
        writer.abort(stm::AbortCause::Explicit);
    }
}
