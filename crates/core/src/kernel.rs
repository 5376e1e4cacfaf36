//! The semantic-class kernel: one protocol engine under every collection.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! Every transactional collection in this crate follows the same recipe
//! (paper §2.4): take semantic locks in open-nested reads, buffer writes in
//! transaction-local state, apply the buffer and doom conflicting lock
//! holders in a commit handler, and compensate in an abort handler. The
//! recipe used to be restated per collection; this module is the single
//! copy. A collection — or a user-defined class, which is the paper's §5
//! punchline ("guidelines any programmer can follow to build their own
//! transactional class"; see `examples/custom_class.rs`) — supplies only
//! what genuinely varies, through [`SemanticClass`]:
//!
//! * the `Local` buffer type (the paper's Table 3 state: held locks plus
//!   buffered writes),
//! * [`SemanticClass::apply`], run inside the commit handler: write the
//!   underlying structure and doom every holder of a semantic lock the
//!   update invalidates,
//! * [`SemanticClass::release`], run inside the abort handler: the
//!   compensating transaction — undo any in-place effects and release the
//!   footprint.
//!
//! [`SemanticCore`] owns everything invariant:
//!
//! * **Idempotent first-touch registration.** On the first operation a
//!   top-level transaction performs on an instance, the core registers one
//!   commit/abort handler pair and parks a [`KernelSlot`] in the
//!   transaction's extension map — in exactly the order extension-slot
//!   probe → commit handler → abort handler → slot insert. The probe is a
//!   scan of the transaction's own extension vector (zero shared-memory
//!   traffic); and because the handlers are registered *before* the slot
//!   exists, an unwind between the two steps cannot leave a marked
//!   transaction with no abort handler to clean up. Collections used to
//!   restate this obligation each; now it is discharged here once (and
//!   txlint TX008 rejects any direct handler registration outside this
//!   file).
//! * **The attempt's footprint lives in the transaction.** The slot holds
//!   the class's `Local` buffer, the eager undo log and the lock cache, so
//!   buffering a write is a local probe of the transaction's own state —
//!   paper §3.1 keeps this state thread-local for the same reason. The
//!   handlers take the whole slot in one `ext_remove` and hand the buffer
//!   to the class by value; a fresh attempt starts with a fresh `Txn` and
//!   no slot, so nothing can outlive, leak from or be resurrected into an
//!   attempt. A collection operation inside a `tx.open` body is a misuse
//!   abort: the child's slots would die with the child.
//! * **The txn-local semantic-lock cache.** The slot doubles as a
//!   per-transaction, per-instance cache of already-acquired `(kind, key)`
//!   semantic locks: the first acquisition populates it, every later
//!   operation on the same key or point lock is a local probe that never
//!   touches a stripe mutex. For point locks it is a bitmask, and
//!   [`SemanticCore::take_point_lock`] is the one entry point that probes
//!   it, takes the lock on a miss, and sets the bit. For key locks it is the
//!   keyed class's own held-key set — the release list the handlers sweep —
//!   so each held key is stored once, and `SemanticCore::take_key_lock` is
//!   the one entry point that probes it, takes the stripe lock on a miss,
//!   and records the key. Both handlers take the slot out of the transaction
//!   before releasing any lock, so the cache provably never outlives the
//!   locks it witnesses (cache lifetime ⊆ lock hold).
//! * **Partial-rollback undos.** [`SemanticCore::local_undo`] registers a
//!   buffer compensation only inside a closed frame, the one place a
//!   conflict can roll back less than the whole attempt; at the root frame
//!   the abort handler already receives the buffer, so nothing is boxed.
//! * **The per-transaction undo log.** Classes that apply mutations
//!   eagerly (boosted backends) record a [`SemanticClass::Undo`] entry per
//!   first write via [`SemanticCore::log_undo`]; the abort handler drains
//!   the log **in reverse** through [`SemanticClass::compensate`] strictly
//!   before `release` drops a single semantic lock, and the commit handler
//!   discards it. Buffered classes set `type Undo = ()` and never touch it.
//! * **The sweep discipline.** Commit and abort handlers visit the striped
//!   lock tables in the proved order: touched key stripes strictly
//!   ascending (grouped by a comparison-free [`bucket_order`] counting
//!   sort, one stripe held at a time, applies before releases within a
//!   stripe), then the global point-lock stripe **last**, with the owner's
//!   point locks released at the very end. [`ClassTables::commit_sweep`]
//!   returns a [`GlobalPhase`] token that the type system forces the class
//!   to `finish` — the global phase cannot be skipped or run early.
//! * **The doom-protocol case analysis.** [`KeyCtx::doom`] and
//!   [`PointCtx::doom`] route an [`UpdateEffect`] through the paper's
//!   observation-mode compatibility table (`mode_compatible`) and charge
//!   the right [`SemanticStats`] counter, so classes state *what* an update
//!   does, never *who* to doom.
//!
//! # Mapping of the paper's §5 guidelines onto this API
//!
//! 1. *Keep transaction-local state encapsulated* — define a `Local` type
//!    and reach it only through [`SemanticCore::with_local`] /
//!    [`SemanticCore::try_local`]; roll it back for closed frames through
//!    [`SemanticCore::local_undo`].
//! 2. *Register one handler pair on first touch* — call
//!    [`SemanticCore::ensure_registered`] at the top of every operation;
//!    the core makes it idempotent and ordering-safe.
//! 3. *Take semantic locks before reading committed state* — lock through
//!    [`ClassTables`] (or your own tables), then read inside `Txn::open`
//!    so the parent carries no memory dependency on the structure.
//! 4. *Write underlying state only at commit* — mutate the backend inside
//!    [`SemanticClass::apply`]; body-side operations only buffer.
//! 5. *Compensate on abort* — [`SemanticClass::release`] undoes in-place
//!    effects and releases every lock the footprint acquired.

// txlint: semantic-tables
// txlint: semantic-kernel

use crate::locks::{
    bucket_order, KeyLockShard, MapTables, Owner, PointLocks, SemanticStats, StripedTables,
    UpdateEffect,
};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm::hash::{key_hash64, StripeSet};
use stm::trace::LockKind;
use stm::{Txn, TxnMode};

// ----------------------------------------------------------------------
// The per-class surface
// ----------------------------------------------------------------------

/// What varies between transactional collection classes: the buffer type
/// and the two handler bodies. Everything else — registration, where the
/// per-attempt state lives, sweep order, doom dispatch — is
/// [`SemanticCore`]'s.
///
/// `apply` and `release` run in **direct mode** under the stm handler lane
/// (serialized against all other handlers), with the attempt's `Local`
/// passed by value. They must uphold the sweep discipline: touched key
/// stripes ascending, global stripe last, own locks released last — which
/// [`ClassTables::commit_sweep`] / [`ClassTables::release_sweep`] do
/// structurally for keyed classes.
pub trait SemanticClass: Send + Sync + 'static {
    /// Per-transaction buffered state (paper Table 3): held semantic locks
    /// plus pending writes. Created at `Default` when a transaction first
    /// touches the instance, and lives in that transaction until a handler
    /// takes it.
    type Local: Default + Send + 'static;

    /// One logged compensation entry for an **eagerly applied** mutation —
    /// the boosted/undo-logging form of guideline 5, where the body writes
    /// the underlying structure in place and records how to put it back.
    /// Entries go through [`SemanticCore::log_undo`] and come back, in
    /// reverse order, through [`SemanticClass::compensate`] when the
    /// transaction aborts. Buffered-update classes never log; they set
    /// `type Undo = ();`.
    type Undo: Send + 'static;

    /// Short, stable class name ("map", "queue", ...) stamped on every
    /// trace event this instance emits, so `txtop` can attribute semantic
    /// conflicts to a collection class. Interned once at core construction;
    /// override the default for any class you want to see in traces.
    fn name(&self) -> &'static str {
        "anon"
    }

    /// Commit handler body: apply `local`'s buffered writes to the
    /// underlying structure through `htx` (direct mode) and doom every
    /// transaction holding a semantic lock the update invalidates, then
    /// release transaction `id`'s own locks.
    fn apply(&self, local: Self::Local, htx: &mut Txn, id: u64, stats: &SemanticStats);

    /// Abort handler body (the compensating transaction): undo any
    /// in-place effects recorded in `local` and release transaction `id`'s
    /// locks. Buffered-update classes have nothing to undo and only
    /// release.
    ///
    /// A whole-attempt abort passes `local` as the body last wrote it: no
    /// undo is registered for a root-frame write. Undos
    /// ([`SemanticCore::local_undo`]) exist only for writes made inside a
    /// closed frame and run only when such a frame rolls back — which a
    /// whole-attempt abort also does, to any closed frame it unwinds through
    /// or that merged into the root. So `release` must give the same result
    /// whether or not a closed frame's writes are still in `local`: the
    /// in-tree classes read only their held-lock lists, and the queue
    /// returns every removed item whatever its return mark says.
    fn release(&self, local: Self::Local, htx: &mut Txn, id: u64, stats: &SemanticStats);

    /// Whether a handler given `local` may change the underlying structure
    /// — `apply` writing the buffered updates, or `release` restoring what
    /// the body took. Only such handlers make [`SemanticCore::read_settled`]
    /// wait or retry (the abort handler also counts when it replays undo
    /// entries), so a class that settles reads answers `false` for the
    /// buffer of a read-only transaction. The default, `true`, is always
    /// sound.
    fn writes_backend(&self, _local: &Self::Local) -> bool {
        true
    }

    /// Replay one undo entry in the abort handler (direct mode, under the
    /// handler lane). The core drains the aborting transaction's undo log
    /// **in reverse logging order**, calling this once per entry, strictly
    /// **before** [`SemanticClass::release`] runs — so every compensating
    /// write lands while the transaction still holds all of its semantic
    /// locks (the undo-before-release obligation, `docs/PROTOCOL.md`).
    ///
    /// The default body is for buffered-update classes (`type Undo = ()`),
    /// which never log: reaching it means a class logged entries without
    /// implementing compensation, which is unrecoverable.
    fn compensate(&self, _undo: Self::Undo, _htx: &mut Txn) {
        unreachable!(
            "class `{}` logged undo entries but does not implement `compensate`",
            self.name()
        );
    }

    /// Whether a **snapshot transaction** ([`stm::atomic_read`]) can serve
    /// this class's read operations from TVar version chains.
    ///
    /// `true` (the default) requires every committed datum a read observes
    /// to live in transactional memory with per-version history — the TVar
    /// backends qualify. Return `false` when committed state is *not*
    /// versioned: boosted backends (reads bypass TVars entirely, so a
    /// snapshot would see current — possibly torn — state instead of the
    /// state at its version), and eager classes (in-place uncommitted
    /// writes are published as committed TVar versions before the
    /// transaction commits, so a snapshot could observe them). A `false`
    /// class makes the kernel abandon the snapshot attempt on first touch
    /// ([`Txn::snapshot_fallback`]); the runner re-executes the body on the
    /// validated path and counts the fallback — never silent, never wrong.
    fn snapshot_capable(&self) -> bool {
        true
    }

    /// The class's declared operation conflict graph, if it has one.
    ///
    /// A class that declares its graph gets its lock modes *synthesized*
    /// and validated: [`SemanticCore::new`] soundness-checks the
    /// declaration (symmetry, reflexivity, commutativity closure) and
    /// verifies that on every cell the class's operations can reach, the
    /// synthesized matrix agrees with the production dispatch matrix —
    /// panicking at construction on any mismatch, so an ill-formed class
    /// cannot run. In-tree classes all declare graphs; txlint's TX010 pass
    /// additionally checks the declarations lexically.
    fn conflict_graph(&self) -> Option<&'static crate::conflict_graph::ConflictGraph<'static>> {
        None
    }
}

/// A keyed class: its transactions take per-key read locks in the class's
/// striped key tables and keep the keys they hold in their `Local` buffer
/// (paper Table 3's `keyLocks`). That one held-key set is both the release
/// list the handlers sweep and the txn-local key-lock cache
/// [`SemanticCore::take_key_lock`] probes, so each held key is stored once.
pub(crate) trait KeyedClass: SemanticClass {
    /// What a key lock is taken on.
    type Key: Clone + Eq + Hash;
    /// The global-stripe payload of the class's tables.
    type Global;
    /// The striped lock tables whose key stripes hold the class's key locks.
    fn key_tables(&self) -> &StripedTables<KeyLockShard<Self::Key>, Self::Global>;
    /// The held-key set inside a transaction's buffer.
    fn held_keys(local: &mut Self::Local) -> &mut StripeSet<Self::Key>;
}

/// The per-attempt state a [`SemanticCore`] parks in its transaction
/// extension slot — the attempt's whole footprint on one instance. Its
/// presence is the registration marker; the handlers take it in one
/// `ext_remove` before they release any semantic lock, so no later probe can
/// find a cached lock — a point bit here, or a held key in `local` — whose
/// lock is gone (the cache-lifetime obligation, docs/PROTOCOL.md). Fresh
/// attempts start with a fresh `Txn` and therefore no slot — abort
/// invalidation is structural, and no other transaction can reach (or
/// resurrect) this state.
struct KernelSlot<C: SemanticClass> {
    /// Bitmask of [`CachedPoint`] locks already acquired: the point half of
    /// the lock cache (the key half is the class's held-key set).
    points: u8,
    /// The class's buffered state, handed to `apply`/`release` by value.
    local: C::Local,
    /// Compensations for eagerly applied mutations, in logging order.
    /// Replayed in reverse by the abort handler (before `release`), and
    /// discarded by the commit handler.
    undo: Vec<C::Undo>,
}

impl<C: SemanticClass> Default for KernelSlot<C> {
    fn default() -> Self {
        KernelSlot {
            points: 0,
            local: C::Local::default(),
            undo: Vec::new(),
        }
    }
}

/// Whole-collection point-lock kinds the txn-local lock cache can remember
/// (one bit each in the kernel slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedPoint {
    /// The size lock.
    Size = 0,
    /// The zero-crossing emptiness lock.
    Empty = 1,
    /// A sorted collection's first-endpoint lock.
    First = 2,
    /// A sorted collection's last-endpoint lock.
    Last = 3,
    /// A bounded queue's fullness lock.
    Full = 4,
}

impl CachedPoint {
    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// The trace-layer lock kind a cache hit on this point reports.
    fn lock_kind(self) -> LockKind {
        match self {
            CachedPoint::Size => LockKind::Size,
            CachedPoint::Empty => LockKind::Empty,
            CachedPoint::First | CachedPoint::Last => LockKind::Endpoint,
            CachedPoint::Full => LockKind::Full,
        }
    }
}

struct CoreInner<C: SemanticClass> {
    class: C,
    stats: SemanticStats,
    /// Odd while one of this instance's handlers that writes the backend
    /// runs (a seqlock; handlers are serialized by the handler lane). See
    /// [`SemanticCore::read_settled`].
    handler_seq: AtomicU64,
}

/// A handler of one instance is writing its backend: `handler_seq` is odd
/// from [`HandlerRun::begin`] until the guard drops, also on unwind.
struct HandlerRun<'a>(&'a AtomicU64);

impl<'a> HandlerRun<'a> {
    fn begin(seq: &'a AtomicU64) -> Self {
        seq.fetch_add(1, Ordering::SeqCst);
        HandlerRun(seq)
    }
}

impl Drop for HandlerRun<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The invariant half of every transactional class: first-touch handler
/// registration, the per-attempt slot holding the class's buffered state,
/// and the per-instance conflict counters. Cheap to clone (one `Arc`).
pub struct SemanticCore<C: SemanticClass> {
    inner: Arc<CoreInner<C>>,
}

impl<C: SemanticClass> Clone for SemanticCore<C> {
    fn clone(&self) -> Self {
        SemanticCore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<C: SemanticClass> SemanticCore<C> {
    /// Build a core around `class`.
    pub fn new(class: C) -> Self {
        let stats = SemanticStats::default();
        stats.set_class(class.name());
        if let Some(graph) = class.conflict_graph() {
            Self::validate_graph(graph);
        }
        SemanticCore {
            inner: Arc::new(CoreInner {
                class,
                stats,
                handler_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Synthesize and cross-check a declared conflict graph at core
    /// construction: the declaration must be sound, and on every
    /// `(mode, effect, overlap)` cell the class's declared operations can
    /// reach, the synthesized matrix must agree with the production
    /// dispatch matrix ([`mode_compatible`](crate::mode_compatible)).
    /// Panics on any violation — an ill-formed class never runs.
    fn validate_graph(graph: &crate::conflict_graph::ConflictGraph<'_>) {
        use crate::conflict_graph::{reachable_cells, synthesize};
        let synthesis = synthesize(graph).unwrap_or_else(|errs| {
            panic!(
                "ill-formed conflict graph for class `{}`:\n{}",
                graph.class,
                errs.join("\n")
            )
        });
        for (m, e, ov) in reachable_cells(graph) {
            let declared = synthesis.matrix.compatible(m, e, ov);
            let dispatch = crate::locks::mode_compatible(m, e, ov);
            assert_eq!(
                declared, dispatch,
                "class `{}`: declared graph says compatible({m:?}, {e:?}, overlap={ov}) = \
                 {declared}, but the dispatch matrix says {dispatch}",
                graph.class
            );
        }
    }

    /// The class half (backend + lock tables) this core drives.
    pub fn class(&self) -> &C {
        &self.inner.class
    }

    /// Semantic-conflict counters for this instance.
    pub fn stats(&self) -> &SemanticStats {
        &self.inner.stats
    }

    /// Register the single commit/abort handler pair and park the
    /// attempt's `KernelSlot` on first use by this top-level transaction
    /// (paper §5 guideline 2). Call at the top of every operation;
    /// idempotent. The probe is a scan of the transaction's own extension
    /// slots, so the repeat-call case costs no shared-memory traffic.
    ///
    /// Handlers are registered **before** the slot is inserted: an unwind
    /// during registration cannot leave a marked transaction whose state no
    /// abort handler will clean up. This ordering obligation lives here and
    /// nowhere else — txlint TX008 rejects direct handler registration in
    /// any other semantic-tables file.
    ///
    /// A first touch inside a `tx.open` body is a misuse abort: the child's
    /// slots die with the child, so its buffered state would be lost. A call
    /// from a commit or abort handler panics, naming the class.
    pub fn ensure_registered(&self, tx: &mut Txn) {
        assert!(
            tx.mode() == TxnMode::Speculative,
            "`{}` operations cannot run inside commit/abort handlers",
            self.inner.class.name()
        );
        if tx.in_snapshot() {
            // The snapshot skip: a snapshot transaction takes no semantic
            // locks, buffers no state, and cannot abort — there is nothing
            // to register and no handler will ever run. The only obligation
            // is capability: a class whose committed state has no
            // per-version history cannot be served at a snapshot version,
            // so the attempt falls back to the validated path (counted).
            if !self.inner.class.snapshot_capable() {
                tx.snapshot_fallback();
            }
            return;
        }
        let tag = self.tag();
        if tx.ext_contains(tag) {
            return;
        }
        tx.reject_in_open(
            "collection operation inside a tx.open body: the open child's state dies with it \
             — call the collection from the enclosing transaction",
        );
        let id = tx.handle().id();
        let inner = Arc::clone(&self.inner);
        tx.on_commit_top(move |htx| {
            // Cache lifetime ⊆ lock hold (docs/PROTOCOL.md): taking the slot
            // out of the transaction ends the lock cache — the point bits
            // die here, and the held keys move into `apply` as its release
            // list — before the sweep releases a single semantic lock.
            let KernelSlot { local, undo, .. } = Self::take_slot(htx, tag);
            // Committed eager mutations stand: the undo log is dead weight,
            // dropped before the apply sweep so nothing replays it.
            drop(undo);
            let _run = inner
                .class
                .writes_backend(&local)
                .then(|| HandlerRun::begin(&inner.handler_seq));
            inner.class.apply(local, htx, id, &inner.stats);
        });
        let inner = Arc::clone(&self.inner);
        tx.on_abort_top(move |htx| {
            // The same slot take ends the lock cache before any release.
            let KernelSlot { local, undo, .. } = Self::take_slot(htx, tag);
            // Undo before release: drain the compensation log in reverse
            // while transaction `id` still holds every semantic lock it
            // took, so no observer can see a partially rolled-back state
            // between a compensating write and the lock drop
            // (docs/PROTOCOL.md, "undo-before-release").
            let _run = (!undo.is_empty() || inner.class.writes_backend(&local))
                .then(|| HandlerRun::begin(&inner.handler_seq));
            for entry in undo.into_iter().rev() {
                inner.class.compensate(entry, htx);
            }
            inner.class.release(local, htx, id, &inner.stats);
        });
        // Slot last: an unwind between handler registration and this insert
        // leaves no slot (a closed-frame retry re-registers) and the
        // already-registered handlers take an empty default footprint.
        tx.ext_insert(tag, Box::new(KernelSlot::<C>::default()));
    }

    /// The owner-unique extension tag of this core instance: its inner
    /// allocation's address. Stable for the life of the core, and safe
    /// against address reuse within an attempt because the registered
    /// handlers hold `Arc` clones that pin the allocation until they run.
    fn tag(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    fn slot_in(tx: &mut Txn, tag: usize) -> Option<&mut KernelSlot<C>> {
        tx.ext_get_mut(tag)
            .map(|s| s.downcast_mut::<KernelSlot<C>>().expect("kernel slot type"))
    }

    fn slot_mut<'t>(&self, tx: &'t mut Txn) -> Option<&'t mut KernelSlot<C>> {
        Self::slot_in(tx, self.tag())
    }

    /// The attempt's slot, registering on first touch (the handlers that
    /// will drain it exist before it does).
    fn slot<'t>(&self, tx: &'t mut Txn) -> &'t mut KernelSlot<C> {
        if !tx.ext_contains(self.tag()) {
            self.ensure_registered(tx);
        }
        self.slot_mut(tx)
            .expect("registered transaction has a kernel slot")
    }

    /// Handler side: take the attempt's whole footprint out of `htx` (an
    /// empty default if an unwind beat the slot insert).
    fn take_slot(htx: &mut Txn, tag: usize) -> KernelSlot<C> {
        htx.ext_remove(tag)
            .map(|s| *s.downcast::<KernelSlot<C>>().expect("kernel slot type"))
            .unwrap_or_default()
    }

    /// Read committed state that one of this instance's handlers could be
    /// changing one publish at a time — a size, an enumeration, a search
    /// path through a tree it rebalances: `f` runs as a flattened open
    /// ([`Txn::open_read`]) and is re-run until no handler of this instance
    /// wrote its backend during it ([`SemanticClass::writes_backend`]). A
    /// commit whose applies net to no size change dooms no size observer, so
    /// without this an observer could read a size the commit passed through
    /// but never committed (remove one key, then insert another); a point
    /// read could follow a half-rotated path past a key no commit removed.
    /// Take the observation's lock first: then every later handler either
    /// dooms the observer or leaves what it read unchanged. Waits only while
    /// a writing handler of this instance runs under the handler lane, which
    /// never waits on a body.
    pub fn read_settled<R>(&self, tx: &mut Txn, mut f: impl FnMut(&mut Txn) -> R) -> R {
        if tx.mode() == TxnMode::Direct || tx.in_snapshot() {
            return tx.open_read(f);
        }
        let seq = &self.inner.handler_seq;
        loop {
            let before = seq.load(Ordering::SeqCst);
            if before.is_multiple_of(2) {
                let r = tx.open_read(&mut f);
                if seq.load(Ordering::SeqCst) == before {
                    return r;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Hold the whole-collection point lock `p` ([`CachedPoint`]) for the
    /// calling transaction: the point-lock twin of `take_key_lock`. Strictly
    /// in this order: the snapshot skip (a snapshot transaction takes no
    /// semantic lock), the cache probe (a hit is counted and traced, and no
    /// stripe is visited), then `take(owner, stats)` to acquire the lock,
    /// then the cache bit — set only after the take returns, so an unwind
    /// mid-acquisition can never leave a cached bit without a lock behind it.
    ///
    /// Soundness of a hit: an active transaction's semantic locks are never
    /// released by anyone else (doom sweeps retain active owners; release
    /// happens only in the transaction's own handlers, which take the slot
    /// first), so a cached bit can never outlive the lock it witnesses.
    pub fn take_point_lock(
        &self,
        tx: &mut Txn,
        p: CachedPoint,
        take: impl FnOnce(Owner, &SemanticStats),
    ) {
        if self.point_lock_cached(tx, p) {
            return;
        }
        take(tx.handle().clone(), &self.inner.stats);
        self.note_point_lock(tx, p);
    }

    /// Whether the calling transaction already holds `p` on this instance
    /// (counting and tracing a hit). A snapshot transaction answers `true`
    /// without counting: it never reaches a stripe.
    fn point_lock_cached(&self, tx: &mut Txn, p: CachedPoint) -> bool {
        if tx.in_snapshot() {
            return true;
        }
        let Some(slot) = self.slot_mut(tx) else {
            return false;
        };
        let hit = slot.points & p.bit() != 0;
        if hit {
            self.count_cache_hit(tx, p.lock_kind(), 0);
        }
        hit
    }

    /// Count and trace one lock-cache hit: a take answered without a stripe
    /// visit.
    fn count_cache_hit(&self, tx: &Txn, kind: LockKind, key_hash: u64) {
        let stats = &self.inner.stats;
        stats.bump(&stats.lock_cache_hits, 1);
        stm::metrics::cache_hit(stats.class_sym());
        stm::trace::lock_cache_hit(tx.handle().id(), stats.class_sym(), kind, key_hash);
    }

    /// Remember a point-lock acquisition in the slot's bitmask.
    fn note_point_lock(&self, tx: &mut Txn, p: CachedPoint) {
        if let Some(slot) = self.slot_mut(tx) {
            slot.points |= p.bit();
        }
    }

    /// Run `f` on the calling transaction's local state, registering the
    /// core first if this is the transaction's first touch.
    pub fn with_local<R>(&self, tx: &mut Txn, f: impl FnOnce(&mut C::Local) -> R) -> R {
        tx.reject_in_snapshot(
            "collection mutation inside a snapshot transaction (stm::atomic_read): snapshot \
             transactions are read-only — run writes under stm::atomic",
        );
        f(&mut self.slot(tx).local)
    }

    /// Run `f` on the calling transaction's local state **only if the
    /// transaction is registered on this core** — the non-registering probe
    /// for body-side reads (store-buffer lookups, delta reads), which a
    /// snapshot transaction also makes. `None` means "nothing buffered".
    pub fn try_local<R>(&self, tx: &mut Txn, f: impl FnOnce(&mut C::Local) -> R) -> Option<R> {
        self.slot_mut(tx).map(|s| f(&mut s.local))
    }

    /// Register `undo` to roll back a buffer mutation the caller just made,
    /// in case an enclosing closed frame aborts (the encapsulated
    /// alternative to Moss-style interleaved undo, paper §5.1). Registered
    /// only inside a closed frame — the one place a conflict can roll back
    /// less than the whole attempt; at the root frame the abort handler
    /// receives the buffer as last written, so `undo` is simply dropped.
    /// The undo reaches the buffer through the transaction it runs with,
    /// and is a no-op if the slot is already gone.
    pub fn local_undo(&self, tx: &mut Txn, undo: impl FnOnce(&mut C::Local) + Send + 'static) {
        if !tx.in_closed_frame() {
            return;
        }
        let tag = self.tag();
        tx.on_local_undo(move |tx| {
            if let Some(slot) = Self::slot_in(tx, tag) {
                undo(&mut slot.local);
            }
        });
    }

    /// Log a compensation entry for an **eagerly applied** mutation. The
    /// abort handler replays the calling transaction's entries in reverse
    /// logging order through [`SemanticClass::compensate`], strictly before
    /// [`SemanticClass::release`]; a commit discards the log.
    pub fn log_undo(&self, tx: &mut Txn, entry: C::Undo) {
        tx.reject_in_snapshot(
            "eager collection mutation inside a snapshot transaction (stm::atomic_read): \
             snapshot transactions are read-only — run writes under stm::atomic",
        );
        self.slot(tx).undo.push(entry);
    }
}

// `KeyedClass` is crate-private, and so is the one method this impl adds.
#[allow(private_bounds)]
impl<C: KeyedClass> SemanticCore<C> {
    /// Hold the `(Key, key)` lock for the calling transaction: the one
    /// key-lock entry point of the keyed classes (guideline 3 — lock, then
    /// read the committed value open-nested).
    ///
    /// The transaction's held-key set is the lock cache. A key already in it
    /// is a cache hit — counted, traced, and answered without touching a
    /// stripe. Otherwise the lock is taken in the key's stripe and the key
    /// recorded, strictly after the take, so an unwind mid-acquisition never
    /// leaves a held key without its lock. A hit is sound because the set is
    /// also the release list: the lock goes only when a handler takes the
    /// set out of the transaction to release it, and no probe can follow.
    pub(crate) fn take_key_lock(&self, tx: &mut Txn, key: &C::Key) {
        if tx.in_snapshot() {
            // Snapshot skip: snapshot reads are isolated by the TVar
            // version chains, not by semantic locks. Not a cache hit; no
            // counter or trace event fires.
            return;
        }
        if C::held_keys(&mut self.slot(tx).local).contains(key) {
            self.count_cache_hit(tx, LockKind::Key, key_hash64(key));
            return;
        }
        let (stats, owner) = (&self.inner.stats, tx.handle().clone());
        self.inner
            .class
            .key_tables()
            .with_stripe_for(key, stats, |s| s.take_key_lock(key.clone(), owner, stats));
        C::held_keys(&mut self.slot(tx).local).insert(key.clone());
    }
}

// ----------------------------------------------------------------------
// Keyed lock tables with the sweep discipline built in
// ----------------------------------------------------------------------

/// The striped semantic-lock tables of a keyed collection class: key-lock
/// shards for per-key read locks plus one global stripe of point locks
/// (size and emptiness). Wraps the crate's `StripedTables` so the
/// handler-side sweep order — touched stripes ascending, global last,
/// release last — is supplied by the kernel instead of restated per class.
pub struct ClassTables<K> {
    tables: MapTables<K>,
}

impl<K: Clone + Eq + Hash> ClassTables<K> {
    /// Create with `nstripes` key stripes (rounded up to a power of two;
    /// `1` recovers the single-table behavior of the unstriped design).
    pub fn new(nstripes: usize) -> Self {
        ClassTables {
            tables: StripedTables::new(nstripes, PointLocks::default()),
        }
    }

    /// Number of key stripes (always a power of two).
    pub fn stripe_count(&self) -> usize {
        self.tables.stripe_count()
    }

    /// The wrapped striped tables (what [`KeyedClass::key_tables`] returns
    /// for the in-tree keyed classes built on these tables).
    pub(crate) fn striped(&self) -> &MapTables<K> {
        &self.tables
    }

    /// Body-side: take a key read lock in the stripe `key` hashes to
    /// (guideline 3 — lock, then read the committed value open-nested).
    pub fn take_key_lock(&self, stats: &SemanticStats, key: K, owner: Owner) {
        self.tables
            .with_stripe_for(&key, stats, |s| s.take_key_lock(key.clone(), owner, stats));
    }

    /// Body-side: take the size lock (global stripe) — conflicts with any
    /// committing size change.
    pub fn take_size_lock(&self, stats: &SemanticStats, owner: Owner) {
        self.tables
            .with_global(stats, |g| g.take_size_lock(owner, stats));
    }

    /// Body-side: take the zero-crossing emptiness lock (global stripe,
    /// paper §5.1) — conflicts only when the size moves to or from zero.
    pub fn take_empty_lock(&self, stats: &SemanticStats, owner: Owner) {
        self.tables
            .with_global(stats, |g| g.take_empty_lock(owner, stats));
    }

    /// Semantic key locks currently outstanding across all stripes
    /// (diagnostics).
    pub fn locked_key_count(&self, stats: &SemanticStats) -> usize {
        self.tables.locked_key_count(stats)
    }

    /// Commit-handler sweep over transaction `id`'s footprint: `writes`
    /// (buffered writes to apply) and `key_locks` (held key locks to
    /// release). Touched stripes are visited strictly ascending, one held
    /// at a time, with every apply before every release within a stripe —
    /// `apply` runs under the key's stripe with a [`KeyCtx`] for dooming,
    /// and the same hold releases that stripe's own locks. The returned
    /// [`GlobalPhase`] **must** be [`finish`](GlobalPhase::finish)ed: the
    /// global stripe ranks after every key stripe in the lock order, and
    /// the token is how the kernel guarantees a class cannot run it early,
    /// skip it, or forget to release its point locks.
    pub fn commit_sweep<'t, 'a, W>(
        &'t self,
        stats: &'t SemanticStats,
        id: u64,
        writes: impl IntoIterator<Item = (&'a K, &'a W)>,
        key_locks: impl IntoIterator<Item = &'a K>,
        mut apply: impl FnMut(&'a K, &'a W, &mut KeyCtx<'_, K>),
    ) -> GlobalPhase<'t, K>
    where
        K: 'a,
        W: 'a,
    {
        sweep_commit_footprint(
            &self.tables,
            stats,
            writes,
            key_locks,
            |shard, op| match op {
                FootprintOp::Apply(k, w) => {
                    let mut cx = KeyCtx { shard, stats, id };
                    apply(k, w, &mut cx);
                }
                FootprintOp::Release(k) => shard.release_keys(id, std::iter::once(k), stats),
            },
        );
        GlobalPhase {
            tables: &self.tables,
            stats,
            id,
        }
    }

    /// Abort-handler sweep: release transaction `id`'s key locks (touched
    /// stripes ascending, one held at a time), then its point locks in the
    /// global stripe, last. The compensating half of guideline 5 for
    /// buffered-update classes, which have no in-place effects to undo.
    pub fn release_sweep<'a>(
        &self,
        stats: &SemanticStats,
        id: u64,
        key_locks: impl IntoIterator<Item = &'a K>,
    ) where
        K: 'a,
    {
        sweep_release_footprint(&self.tables, stats, key_locks, |shard, keys| {
            shard.release_keys(id, keys.iter().copied(), stats)
        });
        self.tables
            .with_global(stats, |g| g.release_owner(id, stats));
    }
}

/// Per-key doom context handed to [`ClassTables::commit_sweep`]'s apply
/// callback: the key's stripe is held, and dooms route through the paper's
/// compatibility table with stats charged automatically.
pub struct KeyCtx<'s, K> {
    shard: &'s mut KeyLockShard<K>,
    stats: &'s SemanticStats,
    id: u64,
}

impl<K: Clone + Eq + Hash> KeyCtx<'_, K> {
    /// Doom every other active holder of a `key` lock that `effect` is
    /// incompatible with (charged to `key_conflicts`). Returns how many
    /// dooms landed.
    pub fn doom(&mut self, effect: UpdateEffect, key: &K) -> u64 {
        let doomed = self.shard.doom_update(effect, key, self.id, self.stats);
        self.stats.bump(&self.stats.key_conflicts, doomed);
        doomed
    }
}

/// Proof token for the global-stripe phase of a commit sweep: returned by
/// [`ClassTables::commit_sweep`] after every key stripe has been applied
/// and released, and consumed by [`Self::finish`]. Holding it is holding
/// the obligation "global stripe last, own point locks released last" —
/// the compiler will not let a class drop it on the floor.
#[must_use = "the commit sweep's global phase must run: call .finish(..) so \
              point-lock dooms happen after every key apply and the owner's \
              point locks are released"]
pub struct GlobalPhase<'t, K> {
    tables: &'t MapTables<K>,
    stats: &'t SemanticStats,
    id: u64,
}

impl<K> GlobalPhase<'_, K> {
    /// Enter the global stripe (strictly after every key-stripe hold —
    /// a size/empty observer locking after this scan reads the fully
    /// applied post-commit state), run `point` to doom point-lock holders,
    /// then release the owner's point locks, last.
    pub fn finish(self, point: impl FnOnce(&mut PointCtx<'_>)) {
        self.tables.with_global(self.stats, |g| {
            let mut cx = PointCtx {
                points: g,
                stats: self.stats,
                id: self.id,
            };
            point(&mut cx);
            g.release_owner(self.id, self.stats);
        });
    }
}

/// Point-lock doom context for the global phase of a commit sweep: dooms
/// route through the compatibility table ([`UpdateEffect::SizeChange`]
/// reaches size lockers, [`UpdateEffect::ZeroCross`] reaches both size and
/// emptiness lockers) with stats charged automatically.
pub struct PointCtx<'g> {
    points: &'g mut PointLocks,
    stats: &'g SemanticStats,
    id: u64,
}

impl PointCtx<'_> {
    /// Doom every other active point-lock holder `effect` is incompatible
    /// with (charged to `size_conflicts`/`empty_conflicts`). Returns how
    /// many dooms landed.
    pub fn doom(&mut self, effect: UpdateEffect) -> u64 {
        let (by_size, by_empty) = self.points.doom_update(effect, self.id, self.stats);
        self.stats.bump(&self.stats.size_conflicts, by_size);
        self.stats.bump(&self.stats.empty_conflicts, by_empty);
        by_size + by_empty
    }
}

// ----------------------------------------------------------------------
// The generic stripe-sweep engine (crate-internal: classes with bespoke
// global payloads — sorted maps, eager maps — drive it directly)
// ----------------------------------------------------------------------

/// One entry of a committing transaction's footprint: a buffered write to
/// apply or a lock to release. Bucket parity (`stripe*2` for applies,
/// `stripe*2+1` for releases) makes a stripe-major counting sort put every
/// apply before every release within one stripe visit.
pub(crate) enum FootprintOp<'a, K, W> {
    /// Apply a buffered write to `K` under its stripe.
    Apply(&'a K, &'a W),
    /// Release the owner's lock on `K` under its stripe.
    Release(&'a K),
}

// Manual impls: the derive would demand `K: Copy`/`W: Copy`, but only
// references are stored.
impl<K, W> Clone for FootprintOp<'_, K, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, W> Copy for FootprintOp<'_, K, W> {}

/// Flatten `writes` + `unlocks` into one footprint grouped by stripe via a
/// comparison-free [`bucket_order`] counting sort (handlers run on every
/// commit, so this path avoids per-stripe containers and branchy sorts on
/// random stripe ids), then visit the touched stripes strictly ascending,
/// one held at a time, calling `visit` for each op under its stripe —
/// applies before releases within a stripe.
pub(crate) fn sweep_commit_footprint<'a, K, W, S, G>(
    tables: &StripedTables<S, G>,
    stats: &SemanticStats,
    writes: impl IntoIterator<Item = (&'a K, &'a W)>,
    unlocks: impl IntoIterator<Item = &'a K>,
    mut visit: impl FnMut(&mut S, FootprintOp<'a, K, W>),
) where
    K: Hash + 'a,
    W: 'a,
{
    let mut foot: Vec<(u32, FootprintOp<'a, K, W>)> = Vec::new();
    for (k, w) in writes {
        foot.push(((tables.stripe_of(k) * 2) as u32, FootprintOp::Apply(k, w)));
    }
    for k in unlocks {
        foot.push((
            (tables.stripe_of(k) * 2 + 1) as u32,
            FootprintOp::Release(k),
        ));
    }
    let order = bucket_order(foot.len(), tables.stripe_count() * 2, |i| foot[i].0);
    let mut touched: Vec<usize> = Vec::new();
    for &i in &order {
        let s = (foot[i as usize].0 >> 1) as usize;
        if touched.last() != Some(&s) {
            touched.push(s);
        }
    }
    let mut cursor = 0;
    tables.for_stripes_ascending(touched.iter().copied(), stats, |si, shard| {
        while let Some(&i) = order.get(cursor) {
            let (b, op) = foot[i as usize];
            if (b >> 1) as usize != si {
                break;
            }
            cursor += 1;
            visit(shard, op);
        }
    });
}

/// Abort-side counterpart: group `keys` by stripe and hand `visit` each
/// stripe's batch under that stripe, touched stripes strictly ascending.
/// The caller runs its own global-stripe release afterwards (last).
pub(crate) fn sweep_release_footprint<'a, K, S, G>(
    tables: &StripedTables<S, G>,
    stats: &SemanticStats,
    keys: impl IntoIterator<Item = &'a K>,
    mut visit: impl FnMut(&mut S, &[&'a K]),
) where
    K: Hash + 'a,
{
    let keyed: Vec<(u32, &'a K)> = keys
        .into_iter()
        .map(|k| (tables.stripe_of(k) as u32, k))
        .collect();
    let order = bucket_order(keyed.len(), tables.stripe_count(), |i| keyed[i].0);
    let sorted: Vec<&'a K> = order.iter().map(|&i| keyed[i as usize].1).collect();
    let mut touched: Vec<usize> = Vec::new();
    for &i in &order {
        let s = keyed[i as usize].0 as usize;
        if touched.last() != Some(&s) {
            touched.push(s);
        }
    }
    let mut cursor = 0;
    tables.for_stripes_ascending(touched.iter().copied(), stats, |si, shard| {
        let start = cursor;
        while cursor < order.len() && keyed[order[cursor] as usize].0 as usize == si {
            cursor += 1;
        }
        visit(shard, &sorted[start..cursor]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handler invocations and the buffered ops each handler received.
    #[derive(Default)]
    struct Counts {
        applies: AtomicU64,
        releases: AtomicU64,
        applied_ops: AtomicU64,
        released_ops: AtomicU64,
    }

    /// Minimal probe class: records into its shared [`Counts`].
    struct ProbeClass(Arc<Counts>);

    impl SemanticClass for ProbeClass {
        type Local = Vec<u64>;
        type Undo = ();

        fn apply(&self, local: Vec<u64>, _htx: &mut Txn, _id: u64, _stats: &SemanticStats) {
            self.0.applies.fetch_add(1, Ordering::SeqCst);
            self.0
                .applied_ops
                .fetch_add(local.len() as u64, Ordering::SeqCst);
        }

        fn release(&self, local: Vec<u64>, _htx: &mut Txn, _id: u64, _stats: &SemanticStats) {
            self.0.releases.fetch_add(1, Ordering::SeqCst);
            self.0
                .released_ops
                .fetch_add(local.len() as u64, Ordering::SeqCst);
        }

        fn writes_backend(&self, local: &Vec<u64>) -> bool {
            !local.is_empty()
        }
    }

    fn probe_core() -> (SemanticCore<ProbeClass>, Arc<Counts>) {
        let counts = Arc::new(Counts::default());
        (SemanticCore::new(ProbeClass(counts.clone())), counts)
    }

    fn load(c: &AtomicU64) -> u64 {
        c.load(Ordering::SeqCst)
    }

    #[test]
    fn registration_is_idempotent_and_commit_drains_locals() {
        let (core, n) = probe_core();
        let c = core.clone();
        let (_, t) = stm::speculate(
            move |tx| {
                c.ensure_registered(tx);
                c.ensure_registered(tx);
                c.with_local(tx, |l| l.push(1));
                c.ensure_registered(tx);
                c.with_local(tx, |l| l.push(2));
            },
            0,
        )
        .unwrap();
        t.commit();
        assert_eq!(load(&n.applies), 1);
        assert_eq!(load(&n.releases), 0);
        assert_eq!(load(&n.applied_ops), 2);
    }

    #[test]
    fn abort_runs_release_exactly_once_and_drains_locals() {
        let (core, n) = probe_core();
        let c = core.clone();
        let (_, t) = stm::speculate(
            move |tx| {
                c.ensure_registered(tx);
                c.with_local(tx, |l| l.push(7));
            },
            0,
        )
        .unwrap();
        t.abort(stm::AbortCause::Explicit);
        assert_eq!(load(&n.applies), 0);
        assert_eq!(load(&n.releases), 1);
        assert_eq!(
            load(&n.released_ops),
            1,
            "release gets the buffer as written"
        );
    }

    /// Settled reads wait out only handlers that may write the backend: a
    /// read-only transaction's commit or abort leaves the sequence alone.
    #[test]
    fn only_backend_writing_handlers_advance_the_settle_sequence() {
        let (core, _) = probe_core();
        let run = |ops: Vec<u64>, commit: bool| {
            let c = core.clone();
            let (_, t) = stm::speculate(
                move |tx| {
                    c.ensure_registered(tx);
                    c.with_local(tx, |l| l.extend(&ops));
                },
                0,
            )
            .unwrap();
            if commit {
                t.commit();
            } else {
                t.abort(stm::AbortCause::Explicit);
            }
            load(&core.inner.handler_seq)
        };
        assert_eq!(run(vec![], true), 0, "read-only commit");
        assert_eq!(run(vec![], false), 0, "read-only abort");
        assert_eq!(run(vec![1], true), 2, "writing commit");
        assert_eq!(run(vec![1], false), 4, "writing abort");
    }

    #[test]
    fn with_local_registers_on_first_touch() {
        let (core, n) = probe_core();
        let c = core.clone();
        let (_, t) = stm::speculate(move |tx| c.with_local(tx, |l| l.push(3)), 0).unwrap();
        t.commit();
        assert_eq!(load(&n.applies), 1);
        assert_eq!(load(&n.applied_ops), 1);
    }

    /// Both handlers take the attempt's whole slot: a probe registered
    /// after them (so it runs after them) finds nothing left to read or
    /// mutate, so nothing can outlive or be resurrected into a drained
    /// attempt.
    #[test]
    fn probe_after_either_handler_finds_no_slot() {
        for commit in [true, false] {
            let (core, n) = probe_core();
            let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let (c, s) = (core.clone(), seen.clone());
            let (_, t) = stm::speculate(
                move |tx| {
                    c.with_local(tx, |l| l.push(42));
                    let (c1, s1) = (c.clone(), s.clone());
                    tx.on_commit_top(move |htx| s1.lock().push(c1.try_local(htx, |l| l.len())));
                    let (c2, s2) = (c.clone(), s.clone());
                    tx.on_abort_top(move |htx| s2.lock().push(c2.try_local(htx, |l| l.len())));
                },
                0,
            )
            .unwrap();
            if commit {
                t.commit();
            } else {
                t.abort(stm::AbortCause::Explicit);
            }
            assert_eq!(*seen.lock(), vec![None], "commit={commit}");
            assert_eq!(load(&n.applied_ops) + load(&n.released_ops), 1);
        }
    }

    /// Undos are registered only inside closed frames: a root-frame write
    /// reaches `release` as written, while a closed frame that merged into
    /// the root rolls its writes back before a whole-attempt abort's
    /// `release`.
    #[test]
    fn local_undo_registers_only_inside_closed_frames() {
        let (core, n) = probe_core();
        let undos = Arc::new(AtomicU64::new(0));
        let (c, u) = (core.clone(), undos.clone());
        let (_, t) = stm::speculate(
            move |tx| {
                c.with_local(tx, |l| l.push(1));
                let u1 = u.clone();
                c.local_undo(tx, move |l| {
                    u1.fetch_add(1, Ordering::SeqCst);
                    l.pop();
                });
                tx.closed(|tx| {
                    c.with_local(tx, |l| l.push(2));
                    let u2 = u.clone();
                    c.local_undo(tx, move |l| {
                        u2.fetch_add(1, Ordering::SeqCst);
                        l.pop();
                    });
                });
            },
            0,
        )
        .unwrap();
        t.abort(stm::AbortCause::Explicit);
        assert_eq!(
            load(&undos),
            1,
            "only the closed frame's undo is registered"
        );
        assert_eq!(load(&n.released_ops), 1, "the root write reaches release");
    }

    #[test]
    fn open_body_collection_operation_is_a_misuse_abort() {
        let (core, n) = probe_core();
        let c = core.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm::atomic(|tx| {
                c.with_local(tx, |l| l.push(1));
                tx.open(|otx| c.with_local(otx, |l| l.push(2)));
            })
        }));
        let msg = r.expect_err("misuse must panic at the atomic boundary");
        let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("tx.open"), "diagnostic: {msg}");
        assert_eq!(load(&n.releases), 1, "the parent's footprint is released");
        assert_eq!(load(&n.released_ops), 1);
        assert_eq!(load(&n.applies), 0);
    }

    /// Class that logs undo entries and records the order in which the
    /// core hands them back, plus whether `release` had already run.
    struct UndoProbe {
        events: Arc<parking_lot::Mutex<Vec<String>>>,
    }

    impl SemanticClass for UndoProbe {
        type Local = ();
        type Undo = u64;

        fn apply(&self, _local: (), _htx: &mut Txn, _id: u64, _stats: &SemanticStats) {
            self.events.lock().push("apply".into());
        }

        fn release(&self, _local: (), _htx: &mut Txn, _id: u64, _stats: &SemanticStats) {
            self.events.lock().push("release".into());
        }

        fn compensate(&self, undo: u64, _htx: &mut Txn) {
            self.events.lock().push(format!("undo:{undo}"));
        }
    }

    fn undo_core() -> (
        SemanticCore<UndoProbe>,
        Arc<parking_lot::Mutex<Vec<String>>>,
    ) {
        let events = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let core = SemanticCore::new(UndoProbe {
            events: events.clone(),
        });
        (core, events)
    }

    #[test]
    fn abort_drains_undo_log_in_reverse_before_release() {
        let (core, events) = undo_core();
        let c = core.clone();
        let (_, t) = stm::speculate(
            move |tx| {
                c.ensure_registered(tx);
                c.log_undo(tx, 1);
                c.log_undo(tx, 2);
                c.log_undo(tx, 3);
            },
            0,
        )
        .unwrap();
        t.abort(stm::AbortCause::Explicit);
        assert_eq!(
            *events.lock(),
            vec!["undo:3", "undo:2", "undo:1", "release"],
            "compensation must replay newest-first and finish before release"
        );
    }

    #[test]
    fn commit_discards_undo_log_without_compensating() {
        let (core, events) = undo_core();
        let c = core.clone();
        let (_, t) = stm::speculate(
            move |tx| {
                c.ensure_registered(tx);
                c.log_undo(tx, 41);
                c.log_undo(tx, 42);
            },
            0,
        )
        .unwrap();
        t.commit();
        assert_eq!(*events.lock(), vec!["apply"]);
    }

    #[test]
    fn class_tables_sweep_releases_all_locks() {
        // Drive ClassTables directly: take key + size locks as one txn,
        // commit-sweep as that txn, and verify everything is released.
        let tables: ClassTables<u64> = ClassTables::new(4);
        let stats = SemanticStats::default();
        let (_, t) = stm::speculate(
            |tx| {
                let owner = tx.handle().clone();
                for k in 0..32u64 {
                    tables.take_key_lock(&stats, k, owner.clone());
                }
                tables.take_size_lock(&stats, owner);
            },
            0,
        )
        .unwrap();
        let id = t.handle().id();
        assert_eq!(tables.locked_key_count(&stats), 32);
        let keys: Vec<u64> = (0..32).collect();
        let writes: Vec<(u64, u32)> = vec![(1, 10), (2, 20)];
        let mut applied = 0;
        let global = tables.commit_sweep(
            &stats,
            id,
            writes.iter().map(|(k, w)| (k, w)),
            keys.iter(),
            |_k, _w, cx| {
                applied += 1;
                cx.doom(UpdateEffect::KeyWrite, _k);
            },
        );
        global.finish(|g| {
            g.doom(UpdateEffect::SizeChange);
        });
        assert_eq!(applied, 2);
        assert_eq!(tables.locked_key_count(&stats), 0);
        t.commit();
    }
}
