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
//!   compensating transaction — undo any in-place effects recorded in the
//!   buffer, then release the footprint.
//!
//! [`SemanticCore`] owns everything invariant:
//!
//! * **Idempotent first-touch registration.** On the first operation a
//!   top-level transaction performs on an instance, the core enlists one
//!   [`KernelSlot`] in the transaction ([`Txn::enlist`]): a typed
//!   participant that holds the attempt's state and whose `commit` and
//!   `abort` are the instance's one handler pair. The probe is a scan of
//!   the transaction's own participant list (zero shared-memory traffic),
//!   and enlisting is one step, so no unwind can leave state without the
//!   handlers that drain it. txlint TX008 rejects any direct enlistment or
//!   handler registration outside this file.
//! * **The attempt's footprint lives in the transaction.** The slot holds
//!   the class's `Local` buffer (and with it any undo log the class keeps)
//!   and the lock cache, so buffering a write is a local probe of the
//!   transaction's own state — paper §3.1 keeps this state thread-local
//!   for the same reason. The runtime takes every participant out of the
//!   transaction before it runs any, and the slot hands the buffer to the
//!   class by value; a fresh attempt starts with a fresh `Txn` and no slot,
//!   so nothing can outlive, leak from or be resurrected into an attempt. A
//!   collection operation inside a `tx.open` body is a misuse abort: the
//!   child could enlist no participant of its own.
//! * **The txn-local semantic-lock cache.** The slot doubles as a
//!   per-transaction, per-instance cache of already-acquired `(kind, key)`
//!   semantic locks: the first acquisition populates it, every later
//!   operation on the same key or point lock is a local probe that never
//!   touches a stripe mutex. For whole-collection point locks it is a
//!   bitmask, and [`SemanticCore::take_point_lock`] is the one entry point
//!   that probes it, takes the lock in the class's global stripe
//!   ([`SemanticClass::global_stripe`]) on a miss, and sets the bit. For key
//!   locks it is the keyed class's own held-key set — the release list the
//!   handlers sweep — so each held key is stored once, and
//!   [`SemanticCore::take_key_lock`] is the one entry point that probes it,
//!   takes the stripe lock on a miss, and records the key. The slot is out
//!   of the transaction before either handler releases any lock, so the
//!   cache provably never outlives the locks it witnesses (cache lifetime ⊆
//!   lock hold).
//! * **Partial-rollback undos.** [`SemanticCore::local_undo`] registers a
//!   buffer compensation only inside a closed frame, the one place a
//!   conflict can roll back less than the whole attempt; at the root frame
//!   the abort handler already receives the buffer, so nothing is boxed.
//! * **The sweep discipline.** Commit and abort handlers visit the striped
//!   lock tables in the proved order: touched key stripes strictly
//!   ascending (grouped by a comparison-free [`bucket_order`] counting
//!   sort, one stripe held at a time, applies before releases within a
//!   stripe), then the global stripe **last**, with the owner's
//!   whole-collection locks released at the very end. Every class's
//!   handlers end in a [`GlobalPhase`] — [`ClassTables::commit_sweep`]
//!   returns one, and the type system forces the class to `finish` it — so
//!   the global phase cannot be skipped or run early, and its `finish` is
//!   the only code that releases a whole-collection lock.
//! * **The doom-protocol case analysis.** [`KeyCtx::doom`] and
//!   [`PointCtx::doom`] route an [`UpdateEffect`] through the paper's
//!   observation-mode compatibility table (`mode_compatible`), and every
//!   landed doom charges its mode's [`SemanticStats`] counter, so classes
//!   state *what* an update does, never *who* to doom.
//! * **The counters.** Each instance's [`SemanticStats`] live in its global
//!   stripe, and every lock table of the instance charges them itself, so
//!   a class never sees them: its handlers get the buffer and the
//!   transaction, nothing else.
//!
//! # Mapping of the paper's §5 guidelines onto this API
//!
//! 1. *Keep transaction-local state encapsulated* — define a `Local` type
//!    and reach it only through [`SemanticCore::with_local`] /
//!    [`SemanticCore::try_local`]; roll it back for closed frames through
//!    [`SemanticCore::local_undo`].
//! 2. *Register one handler pair on first touch* — call
//!    [`SemanticCore::ensure_registered`] at the top of every operation;
//!    the core makes it idempotent and enlists the pair with the state it
//!    drains in one step.
//! 3. *Take semantic locks before reading committed state* — lock keys
//!    through [`SemanticCore::take_key_lock`] (a [`KeyedClass`] on
//!    [`ClassTables`]) and whole-collection properties through
//!    [`SemanticCore::take_point_lock`], then read inside `Txn::open` so the
//!    parent carries no memory dependency on the structure.
//! 4. *Write underlying state only at commit* — mutate the backend inside
//!    [`SemanticClass::apply`]; body-side operations only buffer.
//! 5. *Compensate on abort* — [`SemanticClass::release`] undoes in-place
//!    effects and releases every lock the footprint acquired.

// txlint: semantic-tables
// txlint: semantic-kernel

use crate::conflict_graph::ConflictGraph;
use crate::locks::{
    bucket_order, GlobalLocks, GlobalStripe, Held, KeyLockShard, MapTables, ObsMode, SemanticStats,
    StripedTables, UpdateEffect,
};
use std::hash::Hash;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm::hash::{key_hash64, StripeSet};
use stm::trace::LockKind;
use stm::{Participant, Txn, TxnMode};

// ----------------------------------------------------------------------
// The per-class surface
// ----------------------------------------------------------------------

/// What varies between transactional collection classes: the buffer type,
/// the two handler bodies and where the instance's global stripe is.
/// Everything else — registration, where the per-attempt state lives, sweep
/// order, doom dispatch, the counters — is [`SemanticCore`]'s.
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
    /// touches the instance, and lives in that transaction until the
    /// runtime takes it out to run a handler.
    type Local: Default + Send + 'static;

    /// What the class's range locks are taken on: its key type (any type,
    /// `()` say, for a class that takes no range locks).
    type RangeKey;

    /// Short, stable class name ("map", "queue", ...) stamped on every
    /// trace event this instance emits, so `txtop` can attribute semantic
    /// conflicts to a collection class. Interned once at core construction;
    /// override the default for any class you want to see in traces.
    fn name(&self) -> &'static str {
        "anon"
    }

    /// The instance's global stripe: its whole-collection locks (size,
    /// emptiness, the endpoints, fullness, key ranges), which
    /// [`SemanticCore::take_point_lock`] takes and caches, and its
    /// [`SemanticStats`], which every lock table of the instance charges
    /// and [`SemanticCore::new`] names after [`Self::name`]. A class built
    /// on [`ClassTables`] returns [`ClassTables::global_stripe`].
    fn global_stripe(&self) -> &GlobalStripe<Self::RangeKey>;

    /// Commit handler body: apply `local`'s buffered writes to the
    /// underlying structure through `htx` (direct mode) and doom every
    /// transaction holding a semantic lock the update invalidates, then
    /// release the committing transaction's own locks. Handlers run on that
    /// transaction itself: `htx.handle().id()` names the locks it holds.
    fn apply(&self, local: Self::Local, htx: &mut Txn);

    /// Abort handler body (the compensating transaction): undo any
    /// in-place effects recorded in `local` and release the aborting
    /// transaction's (`htx`'s) locks. Buffered-update classes have nothing
    /// to undo and only release; a class that writes in place keeps its
    /// undo log in `local` and replays it, newest first, before it releases
    /// a single lock (the undo-before-release obligation,
    /// `docs/PROTOCOL.md`).
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
    fn release(&self, local: Self::Local, htx: &mut Txn);

    /// Whether a handler given `local` may change the underlying structure
    /// — `apply` writing the buffered updates, or `release` restoring what
    /// the body took. Only such handlers make [`SemanticCore::read_settled`]
    /// wait or retry, so a class that settles reads answers `false` for the
    /// buffer of a read-only transaction. The default, `true`, is always
    /// sound.
    fn writes_backend(&self, _local: &Self::Local) -> bool {
        true
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
    /// and validated: the first [`SemanticCore::new`] of a graph in the
    /// process soundness-checks the declaration (symmetry, reflexivity,
    /// commutativity closure) and verifies that on every cell the class's
    /// operations can reach, the synthesized matrix agrees with the
    /// production dispatch matrix — panicking on any mismatch, so an
    /// ill-formed class cannot run. The graph is `'static` and immutable,
    /// so a graph that passed is not checked again; one that failed is
    /// never recorded, and every construction of its class panics. In-tree
    /// classes all declare graphs; txlint's TX010 pass additionally checks
    /// the declarations lexically.
    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        None
    }
}

/// A keyed class: its transactions take per-key read locks in the class's
/// [`ClassTables`] through [`SemanticCore::take_key_lock`] and keep the
/// keys they hold in their `Local` buffer (paper Table 3's `keyLocks`).
/// That one held-key set is both the release list the handlers sweep and
/// the txn-local key-lock cache the take probes, so each held key is stored
/// once.
pub trait KeyedClass: SemanticClass {
    /// What a key lock is taken on.
    type Key: Clone + Eq + Hash;
    /// The lock tables whose key stripes hold the class's key locks.
    fn key_tables(&self) -> &ClassTables<Self::Key>;
    /// The held-key set inside a transaction's buffer.
    fn held_keys(local: &mut Self::Local) -> &mut StripeSet<Self::Key>;
}

/// The participant a [`SemanticCore`] enlists in a transaction on first
/// touch — the attempt's whole footprint on one instance, and the commit
/// and abort handler that drain it. Its presence is the registration
/// marker. The runtime takes it out of the transaction before it runs
/// either handler, so no later probe can find a cached lock — a point bit
/// here, or a held key in `local` — whose lock is gone (the cache-lifetime
/// obligation, docs/PROTOCOL.md). Fresh attempts start with a fresh `Txn`
/// and therefore no slot — abort invalidation is structural, and no other
/// transaction can reach (or resurrect) this state.
struct KernelSlot<C: SemanticClass> {
    /// The instance whose class drains this slot; also pins the allocation
    /// [`SemanticCore::tag`] names until the slot has run.
    core: Arc<CoreInner<C>>,
    /// Whole-collection locks already acquired, one bit per mode at
    /// [`ObsMode::code`]: the point half of the lock cache (the key half is
    /// the class's held-key set).
    points: u8,
    /// The class's buffered state, handed to `apply`/`release` by value.
    local: C::Local,
}

impl<C: SemanticClass> KernelSlot<C> {
    /// Hand the buffer to `handler` (the class's `apply` or `release`),
    /// marking the run in `handler_seq` when it may write the backend.
    ///
    /// Cache lifetime ⊆ lock hold (docs/PROTOCOL.md): the runtime took this
    /// slot out of the transaction, which ended the lock cache — the point
    /// bits die here, and the held keys move into the handler as its
    /// release list — before the sweep releases a single semantic lock.
    fn drain(self, htx: &mut Txn, handler: fn(&C, C::Local, &mut Txn)) {
        let KernelSlot { core, local, .. } = self;
        let _run = core
            .class
            .writes_backend(&local)
            .then(|| HandlerRun::begin(&core.handler_seq));
        handler(&core.class, local, htx);
    }
}

impl<C: SemanticClass> Participant for KernelSlot<C> {
    fn commit(self: Box<Self>, htx: &mut Txn) {
        (*self).drain(htx, C::apply);
    }

    fn abort(self: Box<Self>, htx: &mut Txn) {
        (*self).drain(htx, C::release);
    }
}

struct CoreInner<C: SemanticClass> {
    class: C,
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

/// The address of every declared graph that passed [`validate_graph`] in
/// this process. Held while a graph is validated, so each is validated
/// exactly once; a graph that failed is not recorded.
static VALIDATED_GRAPHS: parking_lot::Mutex<Vec<usize>> = parking_lot::Mutex::new(Vec::new());

/// The address of every graph [`validate_graph`] was called on, in order.
#[cfg(test)]
static VALIDATIONS: parking_lot::Mutex<Vec<usize>> = parking_lot::Mutex::new(Vec::new());

/// [`validate_graph`] once per declared graph per process, before the first
/// instance of its class is built.
fn validate_once(graph: &'static ConflictGraph<'static>) {
    let addr = std::ptr::from_ref(graph) as usize;
    let mut validated = VALIDATED_GRAPHS.lock();
    if !validated.contains(&addr) {
        validate_graph(graph);
        validated.push(addr);
    }
}

/// Synthesize and cross-check a declared conflict graph: the declaration
/// must be sound, and on every `(mode, effect, overlap)` cell the class's
/// declared operations can reach, the synthesized matrix must agree with
/// the production dispatch matrix ([`mode_compatible`](crate::mode_compatible)).
/// Panics on any violation — an ill-formed class never runs.
fn validate_graph(graph: &ConflictGraph<'_>) {
    use crate::conflict_graph::{reachable_cells, synthesize};
    #[cfg(test)]
    VALIDATIONS.lock().push(std::ptr::from_ref(graph) as usize);
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

/// The invariant half of every transactional class: first-touch enlistment
/// of the per-attempt slot holding the class's buffered state and handler
/// pair, and the lock-taking entry points, which cache their locks in that
/// slot. Cheap to clone (one `Arc`).
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
    /// Build a core around `class`, naming its counters after the class.
    pub fn new(class: C) -> Self {
        class.global_stripe().stats().set_class(class.name());
        if let Some(graph) = class.conflict_graph() {
            validate_once(graph);
        }
        SemanticCore {
            inner: Arc::new(CoreInner {
                class,
                handler_seq: AtomicU64::new(0),
            }),
        }
    }

    /// The class half (backend + lock tables) this core drives.
    pub fn class(&self) -> &C {
        &self.inner.class
    }

    /// Semantic-conflict counters for this instance (its global stripe's).
    pub fn stats(&self) -> &SemanticStats {
        self.inner.class.global_stripe().stats()
    }

    /// Enlist the attempt's `KernelSlot` — its buffer and its commit/abort
    /// handler pair — on first use by this top-level transaction (paper §5
    /// guideline 2). Call at the top of every operation; idempotent. The
    /// probe is a scan of the transaction's own participants, so the
    /// repeat-call case costs no shared-memory traffic. Enlisting is one
    /// step, so no unwind can leave the buffer without its handlers; txlint
    /// TX008 rejects direct enlistment or handler registration in any other
    /// semantic-tables file.
    ///
    /// A first touch inside a `tx.open` body is a misuse abort: the child's
    /// participants would die with the child, so its buffered state would
    /// be lost. A call from a commit or abort handler panics, naming the
    /// class.
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
        if self.slot_mut(tx).is_none() {
            tx.enlist(
                self.tag(),
                Box::new(KernelSlot {
                    core: Arc::clone(&self.inner),
                    points: 0,
                    local: C::Local::default(),
                }),
            );
        }
    }

    /// The owner-unique participant tag of this core instance: its inner
    /// allocation's address. Stable for the life of the core, and safe
    /// against address reuse within an attempt because the enlisted slot
    /// holds an `Arc` clone that pins the allocation until it runs.
    fn tag(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    fn slot_mut<'t>(&self, tx: &'t mut Txn) -> Option<&'t mut KernelSlot<C>> {
        tx.participant(self.tag())
    }

    /// Run `f` on the attempt's slot, enlisting it on first touch; a
    /// repeat touch is one probe.
    fn with_slot<R>(&self, tx: &mut Txn, f: impl FnOnce(&mut KernelSlot<C>) -> R) -> R {
        if let Some(slot) = self.slot_mut(tx) {
            return f(slot);
        }
        self.ensure_registered(tx);
        f(self
            .slot_mut(tx)
            .expect("registered transaction has a kernel slot"))
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

    /// Count and trace one lock-cache hit: a take answered without a stripe
    /// visit.
    fn count_cache_hit(&self, tx: &Txn, kind: LockKind, key_hash: u64) {
        let stats = self.stats();
        stats.bump(&stats.lock_cache_hits, 1);
        stm::metrics::cache_hit(stats.class_sym());
        stm::trace::lock_cache_hit(tx.handle().id(), stats.class_sym(), kind, key_hash);
    }

    /// Run `f` on the calling transaction's local state, registering the
    /// core first if this is the transaction's first touch.
    pub fn with_local<R>(&self, tx: &mut Txn, f: impl FnOnce(&mut C::Local) -> R) -> R {
        tx.reject_in_snapshot(
            "collection mutation inside a snapshot transaction (stm::atomic_read): snapshot \
             transactions are read-only — run writes under stm::atomic",
        );
        self.with_slot(tx, |slot| f(&mut slot.local))
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
            if let Some(slot) = tx.participant::<KernelSlot<C>>(tag) {
                undo(&mut slot.local);
            }
        });
    }
}

impl<C: SemanticClass> SemanticCore<C> {
    /// Hold the whole-collection lock of observation mode `mode` (`Size`,
    /// `Empty`, `First`, `Last` or `Full`) for the calling transaction: the
    /// point-lock twin of `take_key_lock`. Strictly in this order: the
    /// snapshot skip (a snapshot transaction takes no semantic lock), the
    /// cache probe (a hit is counted and traced, and no stripe is visited),
    /// the take in the class's global stripe, then the cache bit — set only
    /// after the take returns, so an unwind mid-acquisition can never leave
    /// a cached bit without a lock behind it.
    ///
    /// Soundness of a hit: an active transaction's semantic locks are never
    /// released by anyone else (doom sweeps retain active owners; release
    /// happens only in the transaction's own handlers, which run once the
    /// slot is out of the transaction), so a cached bit can never outlive
    /// the lock it witnesses.
    ///
    /// # Panics
    ///
    /// If `mode` is `Key` or `Range`: those locks are not whole-collection
    /// locks.
    pub fn take_point_lock(&self, tx: &mut Txn, mode: ObsMode) {
        if tx.in_snapshot() {
            return;
        }
        let bit = 1u8 << mode.code();
        if self.slot_mut(tx).is_some_and(|slot| slot.points & bit != 0) {
            self.count_cache_hit(tx, mode.lock_kind(), 0);
            return;
        }
        let owner = tx.handle().clone();
        self.inner
            .class
            .global_stripe()
            .with(|g| g.take(mode, owner));
        if let Some(slot) = self.slot_mut(tx) {
            slot.points |= bit;
        }
    }
}

impl<C: SemanticClass> SemanticCore<C>
where
    C::RangeKey: Ord,
{
    /// Hold a range lock on `[lower, upper]` for the calling transaction and
    /// return its id, which [`Self::extend_range_lock`] grows. Range locks
    /// are not cached: each take is a new lock. A snapshot transaction takes
    /// none (`None`): its reads are isolated by the version chains, and it
    /// runs no handler that would release the lock.
    pub(crate) fn take_range_lock(
        &self,
        tx: &mut Txn,
        lower: Bound<C::RangeKey>,
        upper: Bound<C::RangeKey>,
    ) -> Option<u64> {
        if tx.in_snapshot() {
            return None;
        }
        let owner = tx.handle().clone();
        Some(
            self.inner
                .class
                .global_stripe()
                .with(|g| g.add_range_lock(owner, lower, upper)),
        )
    }

    /// Move the upper bound of range lock `id` to `upper`.
    pub(crate) fn extend_range_lock(&self, id: u64, upper: Bound<C::RangeKey>) {
        self.inner
            .class
            .global_stripe()
            .with(|g| g.extend_range_upper(id, upper));
    }
}

impl<C: KeyedClass> SemanticCore<C> {
    /// Hold the `(Key, key)` lock for the calling transaction: the one
    /// key-lock entry point of the keyed classes (guideline 3 — lock, then
    /// read the committed value open-nested).
    ///
    /// The transaction's held-key set is the lock cache. Strictly in this
    /// order: the snapshot skip, the cache probe (a key already held is a
    /// hit — counted, traced, and answered without touching a stripe), the
    /// take in the key's stripe, then the record of the key. Recording after
    /// the take means an unwind mid-acquisition never leaves a held key
    /// without its lock; recording before the caller's open read means a
    /// doom that unwinds that read still finds the key on the release list.
    /// A hit is sound because the set is also the release list: the lock
    /// goes only when a handler takes the set out of the transaction to
    /// release it, and no probe can follow.
    pub fn take_key_lock(&self, tx: &mut Txn, key: &C::Key) {
        if tx.in_snapshot() {
            // Snapshot skip: snapshot reads are isolated by the TVar
            // version chains, not by semantic locks. Not a cache hit; no
            // counter or trace event fires.
            return;
        }
        if self.with_slot(tx, |slot| C::held_keys(&mut slot.local).contains(key)) {
            self.count_cache_hit(tx, LockKind::Key, key_hash64(key));
            return;
        }
        let owner = tx.handle().clone();
        self.inner
            .class
            .key_tables()
            .tables
            .with_stripe_for(key, |s| s.take_key_lock(key.clone(), owner));
        self.with_slot(tx, |slot| C::held_keys(&mut slot.local).insert(key.clone()));
    }
}

// ----------------------------------------------------------------------
// Keyed lock tables with the sweep discipline built in
// ----------------------------------------------------------------------

/// The striped semantic-lock tables of a keyed collection class: key-lock
/// shards for per-key read locks plus the global stripe of whole-collection
/// locks (size, emptiness, endpoints, fullness, key ranges), which also
/// owns the instance's counters. Wraps the crate's `StripedTables` so the
/// handler-side sweep order — touched stripes ascending, global last,
/// release last — is supplied by the kernel instead of restated per class.
/// Key locks are taken through [`SemanticCore::take_key_lock`].
pub struct ClassTables<K> {
    tables: MapTables<K>,
}

impl<K: Clone + Eq + Hash> ClassTables<K> {
    /// Create with `nstripes` key stripes (rounded up to a power of two;
    /// `1` recovers the single-table behavior of the unstriped design).
    pub fn new(nstripes: usize) -> Self {
        ClassTables {
            tables: StripedTables::new(nstripes),
        }
    }

    /// The global stripe (what [`SemanticClass::global_stripe`] returns for
    /// a class built on these tables).
    pub fn global_stripe(&self) -> &GlobalStripe<K> {
        self.tables.global()
    }

    /// Number of key stripes (always a power of two).
    pub fn stripe_count(&self) -> usize {
        self.tables.stripe_count()
    }

    /// Semantic key locks currently outstanding across all stripes
    /// (diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.tables.locked_key_count()
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
    /// skip it, or forget to release its whole-collection locks.
    pub fn commit_sweep<'t, 'a, W>(
        &'t self,
        id: u64,
        writes: impl IntoIterator<Item = (&'a K, &'a W)>,
        key_locks: impl IntoIterator<Item = &'a K>,
        mut apply: impl FnMut(&'a K, &'a W, &mut KeyCtx<'_, K>),
    ) -> GlobalPhase<'t, K>
    where
        K: 'a,
        W: 'a,
    {
        sweep_commit_footprint(&self.tables, writes, key_locks, |shard, op| match op {
            FootprintOp::Apply(k, w) => {
                let mut cx = KeyCtx {
                    shard: shard.reborrow(),
                    id,
                };
                apply(k, w, &mut cx);
            }
            FootprintOp::Release(k) => shard.release_keys(id, std::iter::once(k)),
        });
        GlobalPhase::new(self.tables.global(), id)
    }

    /// Abort-handler sweep: release transaction `id`'s key locks (touched
    /// stripes ascending, one held at a time), then its whole-collection
    /// locks in the global phase, last. The compensating half of guideline
    /// 5 for buffered-update classes, which have no in-place effects to
    /// undo.
    pub fn release_sweep<'a>(&self, id: u64, key_locks: impl IntoIterator<Item = &'a K>)
    where
        K: 'a,
    {
        sweep_release_footprint(&self.tables, key_locks, |shard, keys| {
            shard.release_keys(id, keys.iter().copied())
        });
        GlobalPhase::new(self.tables.global(), id).finish(|_| {});
    }
}

/// Per-key doom context handed to [`ClassTables::commit_sweep`]'s apply
/// callback: the key's stripe is held, and dooms route through the paper's
/// compatibility table, each landed one charged to `key_conflicts`.
pub struct KeyCtx<'s, K> {
    shard: Held<'s, KeyLockShard<K>, K>,
    id: u64,
}

impl<K: Clone + Eq + Hash> KeyCtx<'_, K> {
    /// Doom every other active holder of a `key` lock that `effect` is
    /// incompatible with (charged to `key_conflicts`). Returns how many
    /// dooms landed.
    pub fn doom(&mut self, effect: UpdateEffect, key: &K) -> u64 {
        self.shard.doom_update(effect, key, self.id)
    }
}

/// Proof token for the global phase of a handler — the step every class's
/// commit and abort handlers end in: returned by
/// [`ClassTables::commit_sweep`] after every key stripe has been applied
/// and released, and consumed by [`Self::finish`]. Holding it is holding
/// the obligation "global stripe last, own whole-collection locks released
/// last" — the compiler will not let a class drop it on the floor, and
/// `finish` is the only code that releases those locks.
#[must_use = "the handler's global phase must run: call .finish(..) so \
              whole-collection dooms happen after every key apply and the \
              owner's whole-collection locks are released"]
pub struct GlobalPhase<'t, K> {
    global: &'t GlobalStripe<K>,
    id: u64,
}

impl<'t, K> GlobalPhase<'t, K> {
    /// The global phase of transaction `id` on `global`, for a handler
    /// whose key-stripe visits (if any) are over.
    pub(crate) fn new(global: &'t GlobalStripe<K>, id: u64) -> Self {
        GlobalPhase { global, id }
    }

    /// Enter the global stripe (strictly after every key-stripe hold — a
    /// whole-collection observer locking after this scan reads the fully
    /// applied post-commit state), run `doom` to doom the holders of
    /// whole-collection locks the update invalidates, then release every
    /// whole-collection lock transaction `id` holds, last.
    pub fn finish(self, doom: impl FnOnce(&mut PointCtx<'_, K>)) {
        self.global.with(|g| {
            doom(&mut PointCtx {
                locks: g.reborrow(),
                id: self.id,
            });
            g.release(self.id);
        });
    }
}

/// Doom context of a global phase: dooms route through the compatibility
/// table (a [`UpdateEffect::SizeChange`] reaches size lockers, a
/// [`UpdateEffect::ZeroCross`] emptiness lockers), each landed one charged
/// to its mode's conflict counter.
pub struct PointCtx<'g, K> {
    locks: Held<'g, GlobalLocks<K>, K>,
    id: u64,
}

impl<K> PointCtx<'_, K> {
    /// Doom every other active holder of a whole-collection lock whose mode
    /// `effect` invalidates. Returns how many dooms landed.
    pub fn doom(&mut self, effect: UpdateEffect) -> u64 {
        self.locks.doom(effect, self.id)
    }

    /// The size moved from `before` to `after`: doom size observers if it
    /// changed, and emptiness observers if it crossed zero. Returns how many
    /// dooms landed.
    pub fn size_moved(&mut self, before: usize, after: usize) -> u64 {
        if before == after {
            return 0;
        }
        let mut doomed = self.doom(UpdateEffect::SizeChange);
        if (before == 0) != (after == 0) {
            doomed += self.doom(UpdateEffect::ZeroCross);
        }
        doomed
    }
}

impl<K: Ord + Hash> PointCtx<'_, K> {
    /// Doom the other owners of range locks covering `key`, which the
    /// update wrote.
    pub(crate) fn doom_ranges_at(&mut self, effect: UpdateEffect, key: &K) -> u64 {
        self.locks
            .doom_ranges_at(effect, key, key_hash64(key), self.id)
    }

    /// Doom the other owners of range locks intersecting `[lower, upper]`,
    /// every key of which the update wrote. The dooms are attributed to
    /// the lower bound's key.
    pub(crate) fn doom_span(
        &mut self,
        effect: UpdateEffect,
        lower: &Bound<K>,
        upper: &Bound<K>,
    ) -> u64 {
        let span_hash = match lower {
            Bound::Included(k) | Bound::Excluded(k) => key_hash64(k),
            Bound::Unbounded => 0,
        };
        self.locks
            .doom_span(effect, lower, upper, span_hash, self.id)
    }
}

// ----------------------------------------------------------------------
// The generic stripe-sweep engine (crate-internal: the eager map, whose
// key stripes hold reader sets and writer slots, drives it directly)
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
    writes: impl IntoIterator<Item = (&'a K, &'a W)>,
    unlocks: impl IntoIterator<Item = &'a K>,
    mut visit: impl FnMut(&mut Held<'_, S, G>, FootprintOp<'a, K, W>),
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
    tables.for_stripes_ascending(touched.iter().copied(), |si, shard| {
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
/// The caller's global phase runs afterwards (last).
fn sweep_release_footprint<'a, K, S, G>(
    tables: &StripedTables<S, G>,
    keys: impl IntoIterator<Item = &'a K>,
    mut visit: impl FnMut(&mut Held<'_, S, G>, &[&'a K]),
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
    tables.for_stripes_ascending(touched.iter().copied(), |si, shard| {
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
    struct ProbeClass(Arc<Counts>, GlobalStripe<()>);

    impl SemanticClass for ProbeClass {
        type Local = Vec<u64>;
        type RangeKey = ();

        fn global_stripe(&self) -> &GlobalStripe<()> {
            &self.1
        }

        fn apply(&self, local: Vec<u64>, _htx: &mut Txn) {
            self.0.applies.fetch_add(1, Ordering::SeqCst);
            self.0
                .applied_ops
                .fetch_add(local.len() as u64, Ordering::SeqCst);
        }

        fn release(&self, local: Vec<u64>, _htx: &mut Txn) {
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
        let class = ProbeClass(counts.clone(), GlobalStripe::default());
        (SemanticCore::new(class), counts)
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

    /// The runtime takes the attempt's whole slot out of the transaction
    /// before any handler runs: a probe handler finds nothing left to read
    /// or mutate, whether it was registered after the first touch or before
    /// it, so nothing can outlive or be resurrected into a drained attempt.
    #[test]
    fn probe_after_either_handler_finds_no_slot() {
        for commit in [true, false] {
            let (core, n) = probe_core();
            let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let (c, s) = (core.clone(), seen.clone());
            let (_, t) = stm::speculate(
                move |tx| {
                    let probe_pair = |tx: &mut Txn| {
                        let (c1, s1) = (c.clone(), s.clone());
                        tx.on_commit_top(move |htx| s1.lock().push(c1.try_local(htx, |l| l.len())));
                        let (c2, s2) = (c.clone(), s.clone());
                        tx.on_abort_top(move |htx| s2.lock().push(c2.try_local(htx, |l| l.len())));
                    };
                    probe_pair(tx);
                    c.with_local(tx, |l| l.push(42));
                    probe_pair(tx);
                },
                0,
            )
            .unwrap();
            if commit {
                t.commit();
            } else {
                t.abort(stm::AbortCause::Explicit);
            }
            assert_eq!(*seen.lock(), vec![None, None], "commit={commit}");
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

    #[test]
    fn class_tables_sweep_releases_all_locks() {
        // Drive ClassTables directly: take key + size locks as one txn,
        // commit-sweep as that txn, and verify everything is released.
        let tables: ClassTables<u64> = ClassTables::new(4);
        let (_, t) = stm::speculate(
            |tx| {
                let owner = tx.handle().clone();
                for k in 0..32u64 {
                    tables
                        .tables
                        .with_stripe_for(&k, |s| s.take_key_lock(k, owner.clone()));
                }
                tables
                    .global_stripe()
                    .with(|g| g.take(ObsMode::Size, owner));
            },
            0,
        )
        .unwrap();
        let id = t.handle().id();
        assert_eq!(tables.locked_key_count(), 32);
        let keys: Vec<u64> = (0..32).collect();
        let writes: Vec<(u64, u32)> = vec![(1, 10), (2, 20)];
        let mut applied = 0;
        let global = tables.commit_sweep(
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
        assert_eq!(tables.locked_key_count(), 0);
        t.commit();
    }

    #[test]
    fn a_declared_graph_is_validated_once_per_process() {
        let graph = std::ptr::from_ref(&crate::SORTED_MAP_CONFLICT_GRAPH) as usize;
        for _ in 0..1_000 {
            crate::TransactionalSortedMap::<u64, u64>::new();
        }
        let validations = VALIDATIONS.lock().iter().filter(|&&a| a == graph).count();
        assert_eq!(validations, 1, "1,000 sorted maps validated their graph");
    }

    /// A class whose declared graph names an operation it does not declare.
    struct IllFormedProbe(GlobalStripe<()>);

    static ILL_FORMED_GRAPH: ConflictGraph<'static> = ConflictGraph {
        class: "ill_formed_probe",
        ops: &[crate::conflict_graph::op("get", &[ObsMode::Key], &[])],
        edges: &[crate::conflict_graph::edge(
            "get",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            crate::conflict_graph::Overlap::OnOverlap,
        )],
    };

    impl SemanticClass for IllFormedProbe {
        type Local = ();
        type RangeKey = ();

        fn global_stripe(&self) -> &GlobalStripe<()> {
            &self.0
        }

        fn apply(&self, _local: (), _htx: &mut Txn) {}

        fn release(&self, _local: (), _htx: &mut Txn) {}

        fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
            Some(&ILL_FORMED_GRAPH)
        }
    }

    #[test]
    fn every_construction_of_an_ill_formed_class_panics() {
        for attempt in 0..2 {
            let err = std::panic::catch_unwind(|| {
                SemanticCore::new(IllFormedProbe(GlobalStripe::default()))
            })
            .err()
            .unwrap_or_else(|| panic!("construction {attempt} of an ill-formed class succeeded"));
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("ill-formed conflict graph"),
                "construction {attempt} panicked with {msg:?}"
            );
        }
    }
}
