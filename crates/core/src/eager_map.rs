//! `EagerTransactionalMap` — the **pessimistic / undo-logging** alternative
//! implementation strategy discussed in paper §5.1.
//!
//! The main `TransactionalMap` is optimistic with redo logging: writes are
//! buffered and conflicts are detected at commit. This variant explores the
//! other quadrant the paper describes:
//!
//! * **Undo logging** — "update the global state in place. If there are no
//!   conflicts, the undo log is simply dropped at commit time. If ... the
//!   transaction needs to abort, the undo log can be used to perform the
//!   compensating actions."
//! * **Pessimistic (early) conflict detection** — "undo logging requires
//!   early conflict detection since only one writer can be allowed to
//!   update a piece of semantic state in place at a time." Writers take
//!   exclusive key locks at operation time; the [`EagerPolicy`] decides
//!   whether a writer encountering readers waits (self-aborts and retries —
//!   the lock-like behaviour with its "usual problems", which the retry
//!   loop converts to livelock-free waiting) or dooms them (aggressive
//!   contention management).
//!
//! The reader/writer key tables are striped like the optimistic map's:
//! each key's reader set and writer slot live in the key's stripe, so the
//! entire reader-vs-writer negotiation for a key is one short stripe hold;
//! the size locks live in the global stripe, beside the set of **size
//! writers**: the transactions whose uncommitted in-place writes changed
//! the size. A writer joins that set before such a write (dooming the size
//! lockers) and leaves it in its handler's global phase, after any
//! compensation; `size` waits while another one is active, as `get` waits
//! out a foreign write lock, so the backend length it reads is a committed
//! size.
//!
//! The class preserves the same external semantics (atomicity, isolation,
//! abstract-datatype serializability) — the `eager_vs_lazy` test suite and
//! the `ablation_eager` bench compare the two strategies under contention.
//!
//! Scope: point operations and size. Iteration is provided only by the
//! optimistic wrapper (an eager iterator would have to write-lock every
//! visited key, which §5.1's performance framing argues against).
//!
//! The undo log is this class's own: it lives in the transaction's buffer
//! beside the held locks, one [`UndoOp`] per key's first in-place write,
//! and the abort handler replays it newest first before it releases a
//! single lock. A commit drops it with the buffer. In-place writes are
//! rejected inside a closed frame (`tx.closed`): each is an open-nested
//! commit that a frame rollback could not put back.
//!
//! Paired with the non-transactional [`BoostedHashMap`]
//! ([`EagerTransactionalMap::boosted`]), this class is transactional
//! *boosting* proper: in-place mutations against a genuinely concurrent
//! structure, isolation entirely from the semantic locks plus the logged
//! compensations.

// txlint: semantic-tables
// txlint: boosted-backend
// txlint: fast-path
use crate::backend::{MapBackend, UndoOp};
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{
    sweep_commit_footprint, FootprintOp, GlobalPhase, SemanticClass, SemanticCore,
};
use crate::locks::{
    doom_others, GlobalStripe, ObsMode, Owner, Owners, SemanticStats, StripedTables, UpdateEffect,
    DEFAULT_STRIPES,
};
use std::hash::Hash;
use std::marker::PhantomData;
use stm::hash::{key_hash64, StripeMap, StripeSet};
use stm::trace::LockKind;
use stm::{TxState, Txn};
use txstruct::{BoostedHashMap, TxHashMap};

// txlint: conflict-graph
/// The eager (encounter-time) map's declared conflict graph: the same
/// Tables 1–2 key/size semantics as the buffered map, minus the emptiness
/// primitive and zero-crossing effect (the eager map updates in place and
/// publishes only key writes and size changes at commit).
pub static EAGER_MAP_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "eager_map",
    ops: &[
        op("get", &[ObsMode::Key], &[]),
        op(
            "put",
            &[ObsMode::Key],
            &[UpdateEffect::KeyWrite, UpdateEffect::SizeChange],
        ),
        op(
            "remove",
            &[ObsMode::Key],
            &[UpdateEffect::KeyWrite, UpdateEffect::SizeChange],
        ),
        op("size", &[ObsMode::Size], &[]),
    ],
    edges: &[
        edge(
            "get",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "get",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "put",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "put",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "size",
            "put",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "size",
            "remove",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
    ],
};

/// What a writer does when it meets readers of the key it wants to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EagerPolicy {
    /// The writer aborts itself and retries later (polite; writers wait for
    /// readers, like write-preferring lock acquisition with deadlock
    /// avoidance by restart).
    WriterWaits,
    /// The writer dooms the readers immediately (aggressive; readers are
    /// rolled back at operation time rather than commit time).
    DoomReaders,
}

struct EagerLocal<K, V> {
    read_keys: StripeSet<K>,
    write_keys: StripeSet<K>,
    /// Compensations for this transaction's in-place writes, in logging
    /// order: replayed newest first by the abort handler, dropped by the
    /// commit handler.
    undo: Vec<UndoOp<K, V>>,
    /// Keys whose pre-transaction state is already captured in `undo` —
    /// only the **first** in-place write of a key logs an [`UndoOp`];
    /// later writes are undone by the same entry.
    undone_keys: StripeSet<K>,
    /// Whether this transaction has joined the size writers.
    size_writer: bool,
}

impl<K, V> Default for EagerLocal<K, V> {
    fn default() -> Self {
        EagerLocal {
            read_keys: StripeSet::default(),
            write_keys: StripeSet::default(),
            undo: Vec::new(),
            undone_keys: StripeSet::default(),
            size_writer: false,
        }
    }
}

/// One stripe of the eager map's key tables: reader sets and exclusive
/// writer slots for the keys hashing to this stripe.
struct EagerShard<K> {
    readers: StripeMap<K, Owners>,
    writers: StripeMap<K, Owner>,
}

impl<K> Default for EagerShard<K> {
    fn default() -> Self {
        EagerShard {
            readers: StripeMap::default(),
            writers: StripeMap::default(),
        }
    }
}

/// The variant half of the eager map (kernel [`SemanticClass`]): the wrapped
/// backend, the contention policy, and the striped reader/writer tables,
/// whose global stripe holds the size locks and the size writers.
struct EagerClass<K, V, B> {
    backend: B,
    policy: EagerPolicy,
    tables: StripedTables<EagerShard<K>, K>,
    _value: PhantomData<fn() -> V>,
}

impl<K, V, B> EagerClass<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    /// Put back what the in-place writes logged in `undo` displaced, newest
    /// first, through the backend's own `insert`/`remove`.
    fn roll_back(&self, undo: Vec<UndoOp<K, V>>, htx: &mut Txn) {
        for entry in undo.into_iter().rev() {
            match entry {
                UndoOp::Restore(k, v) => {
                    let _ = self.backend.insert(htx, k, v);
                }
                UndoOp::Delete(k) => {
                    let _ = self.backend.remove(htx, &k);
                }
            }
        }
    }

    /// Release every lock `id` holds: per-stripe reader/writer entries
    /// (stripes ascending via the kernel sweep, writer slots handled before
    /// reader sets within each stripe), then, in the global phase, last,
    /// the size lock and the size writing. `doom_write_key_readers`
    /// additionally dooms remaining readers of the written keys (commit
    /// path only).
    fn release_footprint(&self, local: &EagerLocal<K, V>, id: u64, doom_write_key_readers: bool) {
        let mut released = 0u64;
        sweep_commit_footprint(
            &self.tables,
            local.write_keys.iter().map(|k| (k, &())),
            local.read_keys.iter(),
            |s, op| match op {
                FootprintOp::Apply(k, _) => {
                    if doom_write_key_readers {
                        let global = s.global();
                        if let Some(rs) = s.readers.get_mut(k) {
                            let ctx = global.doom_ctx(
                                ObsMode::Key,
                                UpdateEffect::KeyWrite,
                                key_hash64(k),
                            );
                            doom_others(rs, id, &ctx);
                        }
                    }
                    if s.writers.get(k).is_some_and(|o| o.id() == id) {
                        s.writers.remove(k);
                        released += 1;
                    }
                }
                FootprintOp::Release(k) => {
                    if let Some(rs) = s.readers.get_mut(k) {
                        released += u64::from(rs.remove(id));
                        if rs.is_empty() {
                            s.readers.remove(k);
                        }
                    }
                }
            },
        );
        let global = self.tables.global();
        global.released(id, LockKind::Key, released);
        GlobalPhase::new(global, id).finish(|_| {});
    }
}

impl<K, V, B> SemanticClass for EagerClass<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    type Local = EagerLocal<K, V>;
    type RangeKey = K;

    fn name(&self) -> &'static str {
        "eager_map"
    }

    fn global_stripe(&self) -> &GlobalStripe<K> {
        self.tables.global()
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&EAGER_MAP_CONFLICT_GRAPH)
    }

    /// Never snapshot-capable, regardless of backend: eager writes land in
    /// the committed structure (as committed TVar versions) *before* the
    /// transaction commits, so a snapshot at a version past the in-place
    /// write would observe uncommitted state. Fall back to the validated
    /// path, where write locks make such reads abort instead.
    fn snapshot_capable(&self) -> bool {
        false
    }

    /// Commit handler. Changes are already in place: drop the undo log with
    /// the buffer, doom the readers of our written keys that appeared after
    /// our write lock (none can exist — they abort on seeing the write lock
    /// — but a doomed-then-revived bookkeeping race is cheap to close), and
    /// release everything.
    fn apply(&self, local: EagerLocal<K, V>, htx: &mut Txn) {
        self.release_footprint(&local, htx.handle().id(), true);
    }

    /// Abort handler: undo before release. The undo log is replayed newest
    /// first while this transaction still holds its exclusive write locks
    /// and is still a size writer, so no reader can observe the window
    /// between a compensating write and the lock drop; then the footprint
    /// is released.
    fn release(&self, mut local: EagerLocal<K, V>, htx: &mut Txn) {
        self.roll_back(std::mem::take(&mut local.undo), htx);
        self.release_footprint(&local, htx.handle().id(), false);
    }
}

/// Pessimistic, undo-logging transactional map; see the module docs.
pub struct EagerTransactionalMap<K, V, B = TxHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    core: SemanticCore<EagerClass<K, V, B>>,
}

impl<K, V, B> Clone for EagerTransactionalMap<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    fn clone(&self) -> Self {
        EagerTransactionalMap {
            core: self.core.clone(),
        }
    }
}

impl<K, V> EagerTransactionalMap<K, V, TxHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create over a fresh [`TxHashMap`] with the given contention policy.
    pub fn new(policy: EagerPolicy) -> Self {
        Self::wrap(TxHashMap::new(), policy)
    }

    /// Create over a fresh pre-sized [`TxHashMap`].
    pub fn with_capacity(capacity: usize, policy: EagerPolicy) -> Self {
        Self::wrap(TxHashMap::with_capacity(capacity), policy)
    }
}

impl<K, V> EagerTransactionalMap<K, V, BoostedHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create over a fresh non-transactional [`BoostedHashMap`] —
    /// transactional boosting proper (see the module docs): eager in-place
    /// mutation of a real concurrent map, isolation entirely from this
    /// wrapper's semantic locks and logged compensations.
    pub fn boosted(policy: EagerPolicy) -> Self {
        Self::wrap(BoostedHashMap::new(), policy)
    }

    /// [`Self::boosted`] with explicit stripe counts for the semantic
    /// tables (the backend's shard count is its own, independent knob).
    pub fn boosted_with_stripes(policy: EagerPolicy, nstripes: usize) -> Self {
        Self::wrap_with_stripes(BoostedHashMap::new(), policy, nstripes)
    }
}

impl<K, V, B> EagerTransactionalMap<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    /// Wrap an existing map implementation ([`DEFAULT_STRIPES`] stripes).
    pub fn wrap(backend: B, policy: EagerPolicy) -> Self {
        Self::wrap_with_stripes(backend, policy, DEFAULT_STRIPES)
    }

    /// Wrap with an explicit stripe count for the reader/writer key tables.
    pub fn wrap_with_stripes(backend: B, policy: EagerPolicy, nstripes: usize) -> Self {
        EagerTransactionalMap {
            core: SemanticCore::new(EagerClass {
                backend,
                policy,
                tables: StripedTables::new(nstripes),
                _value: PhantomData,
            }),
        }
    }

    /// Semantic-conflict counters for this instance.
    pub fn semantic_stats(&self) -> &SemanticStats {
        self.core.stats()
    }

    /// Is this owner (by id) an *other, still-active* transaction?
    fn is_other_active(owner: &Owner, self_id: u64) -> bool {
        owner.id() != self_id && owner.state() == TxState::Active
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Look up a key. Pessimistic: if another transaction holds the write
    /// lock (its in-place value is uncommitted), this transaction aborts and
    /// retries rather than read dirty data.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.core.ensure_registered(tx);
        let self_id = tx.handle().id();
        let owner = tx.handle().clone();
        let class = self.core.class();
        let blocked = class.tables.with_stripe_for(key, |s| {
            if let Some(w) = s.writers.get(key) {
                if Self::is_other_active(w, self_id) {
                    return true;
                }
            }
            s.global()
                .acquired(owner.id(), LockKind::Key, key_hash64(key));
            s.readers.entry(key.clone()).or_default().insert(owner);
            false
        });
        if blocked {
            stm::abort_and_retry();
        }
        self.core.with_local(tx, |l| {
            l.read_keys.insert(key.clone());
        });
        // Read locks are re-taken on every call rather than cached: caching
        // would skip the stripe visit, and the stripe visit is where an
        // in-place writer holding this key is detected. Skipping it opens a
        // dirty-read window, so the eager map gets flattened reads only.
        let backend = &class.backend;
        tx.open_read(|otx| backend.get(otx, key))
    }

    /// Whether a key is present (same locking as [`Self::get`]).
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.get(tx, key).is_some()
    }

    /// Size as this transaction sees it: the backend length, which holds
    /// this transaction's own in-place writes and, once no other size
    /// writer is active, nobody else's uncommitted ones. Pessimistic: while
    /// another transaction's in-place writes may have changed the size, this
    /// transaction aborts and retries, as [`Self::get`] does on a foreign
    /// write lock. Otherwise it takes the size lock (global stripe), in the
    /// same hold: a writer joining later dooms it.
    pub fn size(&self, tx: &mut Txn) -> usize {
        self.core.ensure_registered(tx);
        let owner = tx.handle().clone();
        let class = self.core.class();
        // Taken on every call, not through the lock cache: the size writers
        // are checked in the same global-stripe hold.
        let blocked = class.tables.with_global(|g| {
            if g.other_size_writer(owner.id()) {
                return true;
            }
            g.take(ObsMode::Size, owner);
            false
        });
        if blocked {
            stm::abort_and_retry();
        }
        let backend = &class.backend;
        tx.open_read(|otx| backend.len(otx))
    }

    /// Whether the map is empty (derived; takes the size lock).
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.size(tx) == 0
    }

    // ------------------------------------------------------------------
    // Writes (in place, early conflict detection)
    // ------------------------------------------------------------------

    /// Acquire the exclusive write lock on `key`, resolving conflicts by
    /// policy. Returns without the lock only by unwinding (abort & retry).
    fn acquire_write_lock(&self, tx: &mut Txn, key: &K) {
        // The in-place write that follows is an open-nested commit, and the
        // undo log replays only when the whole attempt aborts: a closed
        // frame that rolled back and re-ran would leave the write behind.
        // The panic aborts the attempt, which puts back its earlier writes.
        assert!(
            !tx.in_closed_frame(),
            "`eager_map` writes cannot run inside a closed frame (`tx.closed`): an in-place \
             write cannot be rolled back with its frame"
        );
        let self_id = tx.handle().id();
        let owner = tx.handle().clone();
        let class = self.core.class();
        let policy = class.policy;
        let blocked = class.tables.with_stripe_for(key, |s| {
            if let Some(w) = s.writers.get(key) {
                if Self::is_other_active(w, self_id) {
                    // Two in-place writers on one key can never coexist.
                    return true;
                }
            }
            let readers_present = s
                .readers
                .get(key)
                .map(|rs| rs.iter().any(|o| Self::is_other_active(o, self_id)))
                .unwrap_or(false);
            if readers_present {
                match policy {
                    EagerPolicy::WriterWaits => return true,
                    EagerPolicy::DoomReaders => {
                        let ctx = s.global().doom_ctx(
                            ObsMode::Key,
                            UpdateEffect::KeyWrite,
                            key_hash64(key),
                        );
                        if let Some(rs) = s.readers.get_mut(key) {
                            doom_others(rs, self_id, &ctx);
                        }
                    }
                }
            }
            s.global()
                .acquired(owner.id(), LockKind::Key, key_hash64(key));
            s.writers.insert(key.clone(), owner);
            false
        });
        if blocked {
            stm::abort_and_retry();
        }
        self.core.with_local(tx, |l| {
            l.write_keys.insert(key.clone());
        });
    }

    /// Join the size writers ahead of an in-place write of `key` that
    /// changes the size — one that flips whether `key` is present:
    /// `removes` says which way the write flips it. Joining dooms the size
    /// observers (early, pessimistic). The caller holds `key`'s exclusive
    /// write lock, so the presence read here holds until its write lands.
    fn join_if_resizing(&self, tx: &mut Txn, key: &K, removes: bool) {
        if self.core.with_local(tx, |l| l.size_writer) {
            return;
        }
        let class = self.core.class();
        let backend = &class.backend;
        if tx.open_read(|otx| backend.contains_key(otx, key)) != removes {
            return;
        }
        let owner = tx.handle().clone();
        class.tables.with_global(|g| g.join_size_writers(owner));
        self.core.with_local(tx, |l| l.size_writer = true);
    }

    /// Insert or replace **in place**; returns the previous value. The undo
    /// log restores it if the transaction aborts.
    ///
    /// # Panics
    ///
    /// Inside a closed frame (`tx.closed`); see the module docs.
    pub fn put(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        self.core.ensure_registered(tx);
        self.acquire_write_lock(tx, &key);
        self.join_if_resizing(tx, &key, false);
        let backend = &self.core.class().backend;
        let k2 = key.clone();
        let old = tx.open(move |otx| backend.insert(otx, k2.clone(), value.clone()));
        // Only the first in-place write of a key needs an undo entry; later
        // writes are undone by the same restore.
        self.core.with_local(tx, |l| {
            if l.undone_keys.insert(key.clone()) {
                l.undo.push(match &old {
                    Some(v) => UndoOp::Restore(key, v.clone()),
                    None => UndoOp::Delete(key),
                });
            }
        });
        old
    }

    /// Remove **in place**; returns the previous value. The undo log
    /// restores it if the transaction aborts.
    ///
    /// # Panics
    ///
    /// Inside a closed frame (`tx.closed`); see the module docs.
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.core.ensure_registered(tx);
        self.acquire_write_lock(tx, key);
        self.join_if_resizing(tx, key, true);
        let backend = &self.core.class().backend;
        let k2 = key.clone();
        let old = tx.open(move |otx| backend.remove(otx, &k2));
        if let Some(v) = &old {
            self.core.with_local(tx, |l| {
                if l.undone_keys.insert(key.clone()) {
                    l.undo.push(UndoOp::Restore(key.clone(), v.clone()));
                }
            });
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm::atomic;

    #[test]
    fn basic_roundtrip() {
        let m: EagerTransactionalMap<u32, String> =
            EagerTransactionalMap::new(EagerPolicy::WriterWaits);
        atomic(|tx| {
            assert_eq!(m.put(tx, 1, "a".into()), None);
            assert_eq!(m.put(tx, 1, "b".into()), Some("a".into()));
            assert_eq!(m.get(tx, &1).as_deref(), Some("b"));
            assert_eq!(m.size(tx), 1);
            assert_eq!(m.remove(tx, &1), Some("b".into()));
            assert_eq!(m.size(tx), 0);
        });
    }

    #[test]
    fn in_place_writes_roll_back_on_abort() {
        let m: EagerTransactionalMap<u32, u32> =
            EagerTransactionalMap::new(EagerPolicy::WriterWaits);
        atomic(|tx| {
            m.put(tx, 1, 10);
        });
        let m2 = m.clone();
        let (_, t1) = stm::speculate(
            move |tx| {
                m2.put(tx, 1, 99); // in place!
                m2.put(tx, 2, 20);
                m2.remove(tx, &1);
            },
            0,
        )
        .unwrap();
        t1.abort(stm::AbortCause::Explicit);
        atomic(|tx| {
            assert_eq!(m.get(tx, &1), Some(10), "undo failed to restore");
            assert_eq!(m.get(tx, &2), None, "undo failed to delete");
            assert_eq!(m.size(tx), 1);
        });
    }

    /// An in-place write inside a closed frame panics: a frame rollback
    /// could not put it back. The panic aborts the attempt, whose earlier
    /// in-place writes are compensated, and the map stays usable.
    #[test]
    fn writes_in_a_closed_frame_are_rejected_and_the_attempt_rolls_back() {
        let m: EagerTransactionalMap<u32, u32> =
            EagerTransactionalMap::new(EagerPolicy::WriterWaits);
        atomic(|tx| {
            m.put(tx, 1, 10);
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            atomic(|tx| {
                m.put(tx, 1, 11);
                m.put(tx, 2, 20);
                tx.closed(|tx| m.put(tx, 3, 30));
            })
        }))
        .expect_err("an eager write inside a closed frame must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("cannot be rolled back with its frame"),
            "panicked with {msg:?}"
        );
        atomic(|tx| {
            assert_eq!(m.get(tx, &1), Some(10), "root-frame write not undone");
            assert_eq!(m.get(tx, &2), None, "root-frame insert not undone");
            assert_eq!(m.get(tx, &3), None, "closed-frame write survived");
            assert_eq!(m.size(tx), 1);
        });
        atomic(|tx| m.put(tx, 3, 30));
        assert_eq!(atomic(|tx| m.get(tx, &3)), Some(30));
    }

    #[test]
    fn writer_waits_for_reader() {
        let m: EagerTransactionalMap<u32, u32> =
            EagerTransactionalMap::new(EagerPolicy::WriterWaits);
        atomic(|tx| {
            m.put(tx, 1, 1);
        });
        // Reader holds the key...
        let m2 = m.clone();
        let (_, reader) = stm::speculate(
            move |tx| {
                m2.get(tx, &1);
            },
            0,
        )
        .unwrap();
        // ...writer self-aborts.
        let m3 = m.clone();
        let writer = stm::speculate(
            move |tx| {
                m3.put(tx, 1, 2);
            },
            0,
        );
        assert!(
            writer.is_err(),
            "writer must abort while a reader holds the key"
        );
        assert!(!reader.handle().is_doomed());
        reader.abort(stm::AbortCause::Explicit);
        // Reader gone: writer succeeds.
        let m4 = m.clone();
        let (_, w) = stm::speculate(
            move |tx| {
                m4.put(tx, 1, 2);
            },
            0,
        )
        .unwrap();
        w.commit();
        assert_eq!(atomic(|tx| m.get(tx, &1)), Some(2));
    }

    #[test]
    fn doom_readers_policy_dooms_at_write_time() {
        let m: EagerTransactionalMap<u32, u32> =
            EagerTransactionalMap::new(EagerPolicy::DoomReaders);
        atomic(|tx| {
            m.put(tx, 1, 1);
        });
        let m2 = m.clone();
        let (_, reader) = stm::speculate(
            move |tx| {
                m2.get(tx, &1);
            },
            0,
        )
        .unwrap();
        let m3 = m.clone();
        let (_, writer) = stm::speculate(
            move |tx| {
                m3.put(tx, 1, 2);
            },
            0,
        )
        .unwrap();
        assert!(
            reader.handle().is_doomed(),
            "aggressive writer must doom the reader at operation time"
        );
        writer.commit();
        reader.abort(stm::AbortCause::Doomed);
        assert_eq!(atomic(|tx| m.get(tx, &1)), Some(2));
    }

    #[test]
    fn size_waits_out_uncommitted_in_place_writes() {
        let m: EagerTransactionalMap<u32, u32> =
            EagerTransactionalMap::new(EagerPolicy::DoomReaders);
        atomic(|tx| {
            m.put(tx, 1, 1);
        });
        let m2 = m.clone();
        let (_, writer) = stm::speculate(
            move |tx| {
                m2.put(tx, 2, 2); // in place, uncommitted
                m2.put(tx, 1, 3); // replaces: the size stays 2
                assert_eq!(m2.size(tx), 2, "own writes must count");
            },
            0,
        )
        .unwrap();
        // An outside observer cannot read a size the writer may still undo.
        let m3 = m.clone();
        assert_eq!(
            stm::speculate(move |tx| m3.size(tx), 0).err(),
            Some(stm::AbortCause::Explicit),
            "a size read must wait out an uncommitted in-place insert"
        );
        writer.commit();
        assert_eq!(atomic(|tx| m.size(tx)), 2);
        // A value-replacing writer is no size writer: size reads go on.
        let m4 = m.clone();
        let (_, replacer) = stm::speculate(move |tx| m4.put(tx, 1, 4), 0).unwrap();
        assert_eq!(atomic(|tx| m.size(tx)), 2);
        replacer.abort(stm::AbortCause::Explicit);
    }

    #[test]
    fn concurrent_threads_conserve_data() {
        let m: Arc<EagerTransactionalMap<u64, u64>> = Arc::new(
            EagerTransactionalMap::with_capacity(4096, EagerPolicy::WriterWaits),
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..150u64 {
                        let k = t * 1000 + (i % 60);
                        atomic(|tx| {
                            let cur = m.get(tx, &k).unwrap_or(0);
                            m.put(tx, k, cur + 1);
                        });
                    }
                });
            }
        });
        // Each thread incremented each of its 60 keys 150/60 times (2 or 3).
        let total: u64 = atomic(|tx| {
            let mut sum = 0;
            for t in 0..4u64 {
                for j in 0..60u64 {
                    sum += m.get(tx, &(t * 1000 + j)).unwrap_or(0);
                }
            }
            sum
        });
        assert_eq!(total, 4 * 150, "lost updates under eager concurrency");
    }
}
