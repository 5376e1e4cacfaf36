//! Semantic lock tables — the shared transaction state of the collection
//! classes (paper Tables 3, 6, 9).
//!
//! A semantic lock is a record "transaction H has observed abstract property
//! P of this collection". Locks are *read* locks only; writers never block —
//! they detect conflicts at commit time by scanning the lockers of every
//! abstract property they are changing and **dooming** those transactions
//! (program-directed abort). This is the optimistic concurrency control
//! choice of paper §5.1.
//!
//! # The striped lock table
//!
//! The per-key lock table (`key2lockers`) is **striped**: sharded over N
//! (power-of-two, default [`DEFAULT_STRIPES`]) stripes by key hash, each
//! stripe guarded by its own short [`parking_lot::Mutex`] — the
//! coarse-table→striped-table move that made ConcurrentHashMap-style
//! structures scale. Every class's locks on whole-collection properties —
//! size, emptiness, the endpoints, fullness and key ranges — live in one
//! table of the same shape, [`GlobalLocks`], in a dedicated **global
//! stripe**, so those semantics stay totally ordered. The global stripe also
//! owns the instance's [`SemanticStats`]: a table is entered only as a
//! [`Held`] table, which carries them, so each table charges its own takes,
//! dooms, releases and contention without a counter being passed in. The
//! per-transaction write buffers are not in any table: they live in the
//! transaction itself (the kernel's participant), so buffering a put
//! touches no shared memory at all.
//!
//! Every owner set — a key's lockers, the point-lock sets, the eager map's
//! readers — is an [`Owners`] list: empty, one owner inline, or a boxed
//! list once a second transaction joins. A key stripe maps each locked key
//! to its `Owners` in a [`StripeMap`] table, so a first key-lock take
//! costs one two-word table entry and no allocation of its own; the key is
//! stored once more, in the owner's held-key set, which is both its
//! release list and its txn-local lock cache (see `kernel.rs`). A stripe
//! whose last lock is released gives back capacity above a fixed keep
//! threshold, so one huge enumeration does not pin its high-water mark for
//! the collection's lifetime.
//!
//! Lock *acquisition* happens during the transaction body (after which the
//! underlying structure is read open-nested — lock-then-read order is what
//! makes the doom protocol sound); conflict *detection* and lock *release*
//! happen inside commit/abort handlers, which the `stm` crate runs under
//! the **handler lane** (the commit path itself is sharded over per-`TVar`
//! versioned locks; see `stm`'s `clock.rs` and `docs/PROTOCOL.md`).
//!
//! Why the doom protocol stays sound without a global commit mutex:
//!
//! * Every transaction that touches a collection registers handlers, and a
//!   handler-bearing transaction holds the lane from before its memory
//!   validation until after its last handler returns. Among such
//!   transactions the lane *is* the old commit mutex: handler execution —
//!   apply-buffer, doom-scan, lock-release — is totally ordered, and a
//!   committer's doom-vs-commit decision point (the `TxHandle` state CAS)
//!   lies inside its lane hold, so "the doom failed" still implies "the
//!   victim's commit, including its handlers, serialized before mine".
//! * Writing open-nested commits (the queue's eager `poll`, the pessimistic
//!   map's in-place writes) also take the lane, so handlers' direct-mode
//!   reads and writes never interleave with them.
//! * Handler-free memory transactions never touch semantic state; they
//!   interact with collections only through `TVar`s, where per-var commit
//!   locks plus read validation (and the doom CAS, for body-time dooms by
//!   the pessimistic map) already give serializability.
//!
//! # Lock order under striping
//!
//! **handler lane → key stripes in ascending index order → global stripe →
//! var locks**, in the may-hold-while-acquiring sense; the clock is a
//! wait-free `fetch_add` drawn while var locks are held.
//!
//! * Handlers visit the stripes touched by their buffer strictly one at a
//!   time, in ascending stripe index, through
//!   [`StripedTables::for_stripes_ascending`] — no two stripe mutexes are
//!   ever held simultaneously, and the global stripe is acquired only after
//!   every key stripe has been released, so the hierarchy is trivially
//!   acyclic. Transaction bodies only ever hold a single stripe (or the
//!   global stripe) for a short insert/remove.
//! * Var locks (the backend's per-`TVar` commit locks, touched by a
//!   handler's direct-mode applies) are acquired while a stripe is held but
//!   are released by the publish itself, and nobody ever waits for the lane
//!   or a stripe while holding a var lock — so the lane-holder's direct
//!   writes, which spin on var locks only for bounded non-blocking
//!   publishes, always terminate and there is no deadlock.
//!
//! Why the per-key case analysis survives the split: a reader's key-lock
//! take and a committing writer's apply+doom-scan for that key go through
//! the *same* stripe mutex (keys hash to exactly one stripe). If the
//! reader's lock lands before the writer's scan, the scan dooms it — and
//! the doom lands, because the reader's point of no return sits inside its
//! own lane hold, which cannot overlap the writer's. If it lands after, the
//! stripe-mutex ordering means that key's apply already happened, so the
//! reader's subsequent open-nested read validates against the published
//! value. Whole-collection observers (size, empty, first/last, range) take
//! their locks in the global stripe, which the writer's handler acquires
//! **after applying every buffered write**: an observer lock that lands
//! before the writer's global-stripe scan is doomed there; one that lands
//! after is guaranteed — via the global-stripe mutex ordering and the
//! program order of the handler — that all applies happened-before its
//! subsequent read, so it observes the fully applied post-commit state.
//! Each case is exactly the old single-mutex argument, replayed per stripe.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).

use parking_lot::{Mutex, MutexGuard};
use std::hash::Hash;
use std::ops::{Bound, Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use stm::hash::{key_hash64, stripe_index, StripeMap};
use stm::metrics::{self, Total};
use stm::trace::{self, LockKind};
use stm::{TxHandle, TxState};

/// Default number of key stripes in a collection's semantic lock table
/// (power of two; tune per instance with the `with_stripes` constructors).
pub const DEFAULT_STRIPES: usize = 16;

/// The owner of a semantic lock: a top-level transaction attempt.
pub type Owner = Arc<TxHandle>;

// ----------------------------------------------------------------------
// Mode-compatibility oracle (paper Tables 1–8, distilled)
// ----------------------------------------------------------------------

/// Abstract observation modes — what one semantic lock records about a
/// collection (paper Tables 2, 5, 8). Every read-side operation of the
/// collection classes maps to a set of `(ObsMode, target)` locks; e.g.
/// `get(k)` takes `Key` on `k`, a full iteration takes `Key` on every
/// returned key plus `Size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsMode {
    /// Presence/absence/value of one key observed (`get`, `containsKey`,
    /// `iterator.next`, queue head consumption).
    Key,
    /// Exact element count observed (`size`, exhausted iteration).
    Size,
    /// Emptiness observed as a primitive (§5.1 `isEmpty`, queue
    /// `peek`/`poll` returning nothing).
    Empty,
    /// Identity of the least key observed (`firstKey`).
    First,
    /// Identity of the greatest key observed (`lastKey`).
    Last,
    /// Every key inside an interval observed (sorted iteration, subMap).
    Range,
    /// Fullness of a bounded queue observed (`offer` returning false,
    /// blocking `put` on a full queue).
    Full,
}

impl ObsMode {
    /// All observation modes, for exhaustive matrix checks.
    pub const ALL: [ObsMode; 7] = [
        ObsMode::Key,
        ObsMode::Size,
        ObsMode::Empty,
        ObsMode::First,
        ObsMode::Last,
        ObsMode::Range,
        ObsMode::Full,
    ];

    /// Stable wire code of this mode in trace events (the index into
    /// [`stm::trace::OBS_NAMES`]).
    pub fn code(self) -> u8 {
        match self {
            ObsMode::Key => 0,
            ObsMode::Size => 1,
            ObsMode::Empty => 2,
            ObsMode::First => 3,
            ObsMode::Last => 4,
            ObsMode::Range => 5,
            ObsMode::Full => 6,
        }
    }

    /// The trace-layer lock-kind a lock in this mode lives in: one lock
    /// table per mode, with both endpoints sharing the endpoint table.
    pub fn lock_kind(self) -> LockKind {
        match self {
            ObsMode::Key => LockKind::Key,
            ObsMode::Size => LockKind::Size,
            ObsMode::Empty => LockKind::Empty,
            ObsMode::First | ObsMode::Last => LockKind::Endpoint,
            ObsMode::Range => LockKind::Range,
            ObsMode::Full => LockKind::Full,
        }
    }
}

/// Abstract effects a committing writer publishes (the write-side axis of
/// paper Tables 1, 4, 7). Every update operation maps to a set of effects;
/// e.g. `put` of a brand-new key is `KeyWrite + SizeChange` (plus
/// `ZeroCross` when the map was empty, plus `FirstChange`/`LastChange` when
/// it moves an endpoint of a sorted map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateEffect {
    /// A key was added, removed, or its value replaced.
    KeyWrite,
    /// The element count changed.
    SizeChange,
    /// The count crossed zero in either direction (§5.1 `isEmpty` lock;
    /// queue emptiness invalidated by a producing commit).
    ZeroCross,
    /// The least key changed.
    FirstChange,
    /// The greatest key changed.
    LastChange,
    /// Elements were permanently consumed (frees capacity in a bounded
    /// queue, invalidating fullness observations).
    Consume,
}

impl UpdateEffect {
    /// All update effects, for exhaustive matrix checks.
    pub const ALL: [UpdateEffect; 6] = [
        UpdateEffect::KeyWrite,
        UpdateEffect::SizeChange,
        UpdateEffect::ZeroCross,
        UpdateEffect::FirstChange,
        UpdateEffect::LastChange,
        UpdateEffect::Consume,
    ];

    /// Stable wire code of this effect in trace events (the index into
    /// [`stm::trace::EFFECT_NAMES`]).
    pub fn code(self) -> u8 {
        match self {
            UpdateEffect::KeyWrite => 0,
            UpdateEffect::SizeChange => 1,
            UpdateEffect::ZeroCross => 2,
            UpdateEffect::FirstChange => 3,
            UpdateEffect::LastChange => 4,
            UpdateEffect::Consume => 5,
        }
    }
}

/// The mode-compatibility function: `true` iff a semantic lock in mode
/// `obs` survives a committing update that publishes `effect` — i.e. the
/// two operations commute and the observer is *not* doomed.
///
/// `overlap` is whether the update's key equals the observed key
/// (`ObsMode::Key`) or falls inside the observed interval
/// (`ObsMode::Range`); it is ignored for the whole-collection modes.
///
/// Since the declarative-conflict-graph refactor this function is
/// *generated*: it looks the cell up in
/// [`generated_matrix`](crate::conflict_graph::generated_matrix), the union
/// of every in-tree class's synthesized matrix. The historic hand-written
/// table survives below as [`mode_compatible_spec`] — the oracle the
/// synthesis is checked against. The two are validated identical three
/// ways: statically by `txlint`'s conflict-matrix oracle
/// (`cargo run -p txlint -- --oracle`), which replays every table row and
/// all 84 cells, exhaustively by `crates/core/tests/oracle_matrix.rs` and
/// `conflict_graph_synthesis.rs`, and dynamically by real two-transaction
/// executions asserting the doom protocol agrees.
pub fn mode_compatible(obs: ObsMode, effect: UpdateEffect, overlap: bool) -> bool {
    crate::conflict_graph::generated_matrix().compatible(obs, effect, overlap)
}

/// The hand-written specification matrix: paper Tables 1–8 as a `match`.
///
/// This is the *oracle* the synthesized dispatch matrix
/// ([`mode_compatible`]) is checked against — it is no longer on the doom
/// protocol's dispatch path, but any drift between it and the declared
/// conflict graphs fails txlint's oracle pass and the exhaustive test
/// suites.
pub fn mode_compatible_spec(obs: ObsMode, effect: UpdateEffect, overlap: bool) -> bool {
    match (obs, effect) {
        // A key observation conflicts exactly with a write of that key.
        (ObsMode::Key, UpdateEffect::KeyWrite) => !overlap,
        // A range observation conflicts with writes landing inside it.
        (ObsMode::Range, UpdateEffect::KeyWrite) => !overlap,
        // Size observers are doomed by any size change — but NOT by a
        // value-replacing put (which publishes KeyWrite without
        // SizeChange): that asymmetry is the point of semantic locks.
        (ObsMode::Size, UpdateEffect::SizeChange) => false,
        // Emptiness-as-primitive observers survive size changes that do
        // not cross zero (§5.1).
        (ObsMode::Empty, UpdateEffect::ZeroCross) => false,
        // Endpoint observers are doomed only when their endpoint moves.
        (ObsMode::First, UpdateEffect::FirstChange) => false,
        (ObsMode::Last, UpdateEffect::LastChange) => false,
        // Fullness observers are doomed when capacity is freed.
        (ObsMode::Full, UpdateEffect::Consume) => false,
        // Everything else commutes.
        _ => true,
    }
}

/// Counters of semantic conflict detections and lock-table contention, per
/// collection instance. They are owned by the instance's global stripe
/// ([`GlobalStripe::stats`]), and every lock table of the instance charges
/// them.
///
/// The `*_conflicts` counters each correspond to at least one transaction
/// doomed because a committing writer changed an abstract property the
/// victim had observed. The `stripe_lock_spins` / `global_stripe_entries`
/// pair makes the striped-table behaviour observable: how often a stripe
/// mutex was found held (contention that striping is meant to eliminate)
/// and how often the serialized global stripe was entered at all.
#[derive(Debug, Default)]
pub struct SemanticStats {
    /// Dooms due to key locks (get/containsKey/iterator.next vs put/remove).
    pub key_conflicts: AtomicU64,
    /// Dooms due to the size lock (size/hasNext-false vs size change).
    pub size_conflicts: AtomicU64,
    /// Dooms due to range locks (sorted iteration vs put/remove in range).
    pub range_conflicts: AtomicU64,
    /// Dooms due to the first-key lock (endpoint change).
    pub first_conflicts: AtomicU64,
    /// Dooms due to the last-key lock (endpoint change).
    pub last_conflicts: AtomicU64,
    /// Dooms due to the empty lock (peek/poll-null vs put, and the
    /// `isEmpty`-as-primitive zero-crossing lock of §5.1).
    pub empty_conflicts: AtomicU64,
    /// Dooms due to a bounded queue's full lock (offer-false or a blocked
    /// put vs a consuming commit).
    pub full_conflicts: AtomicU64,
    /// Semantic-table lock acquisitions (key stripe or global stripe) that
    /// found the mutex held and had to block — the contention the striped
    /// table exists to remove.
    pub stripe_lock_spins: AtomicU64,
    /// Acquisitions of the global stripe (size/empty/endpoint/range point
    /// locks) — the residual serialized fraction of semantic-lock traffic.
    pub global_stripe_entries: AtomicU64,
    /// Semantic-lock acquisitions that actually reached a lock table (one
    /// per `take_*_lock` insert). With the kernel's txn-local lock cache,
    /// repeat acquisitions by the same transaction hit the cache instead,
    /// so this counts *distinct* `(kind, key)` takes per transaction —
    /// the precise denominator the amortization benches gate on.
    pub lock_acquisitions: AtomicU64,
    /// Acquisitions satisfied by the kernel's txn-local lock cache (the
    /// stripe round trips that did not happen).
    pub lock_cache_hits: AtomicU64,
    /// Interned class-name symbol for the trace layer (0 until
    /// [`SemanticStats::set_class`] runs — the kernel sets it once at
    /// collection construction).
    class: AtomicU32,
}

impl SemanticStats {
    /// Sum of all semantic conflicts (contention counters excluded).
    pub fn total(&self) -> u64 {
        ObsMode::ALL
            .iter()
            .map(|&mode| self.conflicts(mode).load(Ordering::Relaxed))
            .sum()
    }

    /// The conflict counter of observation mode `mode`.
    fn conflicts(&self, mode: ObsMode) -> &AtomicU64 {
        match mode {
            ObsMode::Key => &self.key_conflicts,
            ObsMode::Size => &self.size_conflicts,
            ObsMode::Empty => &self.empty_conflicts,
            ObsMode::First => &self.first_conflicts,
            ObsMode::Last => &self.last_conflicts,
            ObsMode::Range => &self.range_conflicts,
            ObsMode::Full => &self.full_conflicts,
        }
    }

    pub(crate) fn bump(&self, which: &AtomicU64, n: u64) {
        if n > 0 {
            which.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Intern `name` and attach it to this instance so every trace event the
    /// lock tables emit carries the collection's class name. Called once by
    /// `SemanticCore::new`; not on any hot path.
    pub fn set_class(&self, name: &'static str) {
        self.class
            .store(trace::intern(name).0 as u32, Ordering::Relaxed);
    }

    /// The interned class-name symbol ([`stm::trace::Sym::UNKNOWN`] when
    /// [`SemanticStats::set_class`] never ran).
    pub fn class_sym(&self) -> trace::Sym {
        trace::Sym(self.class.load(Ordering::Relaxed) as u16)
    }
}

/// Provenance of a doom sweep: which class/mode-pair/key a batch of dooms is
/// about, threaded into [`doom_others`] so every landed doom emits one trace
/// `DoomEdge` with the conflicting mode pair and charges the instance's
/// counters. Carries no allocation; built on the stack at each doom
/// dispatch point by [`GlobalStripe::doom_ctx`].
#[derive(Clone, Copy)]
pub(crate) struct DoomCtx<'a> {
    pub stats: &'a SemanticStats,
    pub obs: ObsMode,
    pub effect: UpdateEffect,
    /// [`key_hash64`] of the conflicting key; 0 for whole-collection locks.
    pub key_hash: u64,
}

impl DoomCtx<'_> {
    /// Account one landed doom: charge the observation mode's conflict
    /// counter and record the edge `doomer → victim` in the trace. The
    /// `compatible` field re-evaluates [`mode_compatible`] for the pair
    /// (with overlap true for the keyed modes, matching how the dispatch
    /// points gate) so the trace is self-certifying: a doom edge always
    /// carries the verdict that justified it.
    pub(crate) fn emit(&self, doomer: u64, victim: u64) {
        self.stats.bump(self.stats.conflicts(self.obs), 1);
        let overlap = matches!(self.obs, ObsMode::Key | ObsMode::Range);
        trace::doom_edge(
            doomer,
            victim,
            self.stats.class_sym(),
            self.obs.lock_kind(),
            self.key_hash,
            self.obs.code(),
            self.effect.code(),
            mode_compatible(self.obs, self.effect, overlap),
        );
        // Dimensional doom counter. Key dooms are attributed to the key's
        // default-grid stripe bucket (the fold `stripe_index` applies, at
        // DEFAULT_STRIPES width); every other mode's lock lives in the
        // global stripe.
        let stripe = match self.obs {
            ObsMode::Key => (self.key_hash ^ (self.key_hash >> 32)) & (DEFAULT_STRIPES as u64 - 1),
            _ => u64::MAX,
        };
        metrics::doom_landed(self.stats.class_sym(), stripe);
    }
}

/// The owners of one semantic lock (paper Table 3's `Set<Owner>`), by
/// transaction id: nobody, one owner inline, or a boxed list once a second
/// transaction joins. A key is almost always locked by one transaction at a
/// time, so taking a key lock allocates nothing. This is the owner set of
/// every set-shaped lock table — key lockers, each whole-collection mode's
/// lockers in [`GlobalLocks`], and the eager map's readers.
///
/// Invariant: `Many` holds at least two owners; every removal that leaves
/// fewer moves the rest back inline.
#[derive(Debug, Default)]
pub(crate) enum Owners {
    #[default]
    Empty,
    One(Owner),
    // Boxed so the enum stays two words (a bare `Vec` would make every
    // table entry a word larger to serve the rare shared key).
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Owner>>),
}

impl Owners {
    /// Add `owner` unless a transaction with its id already holds the lock.
    pub(crate) fn insert(&mut self, owner: Owner) {
        *self = match std::mem::take(self) {
            Owners::Empty => Owners::One(owner),
            Owners::One(o) if o.id() == owner.id() => Owners::One(o),
            Owners::One(o) => Owners::Many(Box::new(vec![o, owner])),
            Owners::Many(mut v) => {
                if v.iter().all(|o| o.id() != owner.id()) {
                    v.push(owner);
                }
                Owners::Many(v)
            }
        };
    }

    /// The owners, in insertion order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Owner> {
        match self {
            Owners::Empty => [].iter(),
            Owners::One(o) => std::slice::from_ref(o).iter(),
            Owners::Many(v) => v.iter(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Owners::Empty)
    }

    /// Keep only the owners `keep` accepts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Owner) -> bool) {
        match self {
            Owners::Empty => {}
            Owners::One(o) => {
                if !keep(o) {
                    *self = Owners::Empty;
                }
            }
            Owners::Many(v) => {
                v.retain(|o| keep(o));
                if v.len() < 2 {
                    *self = v.pop().map_or(Owners::Empty, Owners::One);
                }
            }
        }
    }

    /// Drop transaction `id`'s hold; returns whether it held the lock.
    pub(crate) fn remove(&mut self, id: u64) -> bool {
        let mut held = false;
        self.retain(|o| {
            held |= o.id() == id;
            o.id() != id
        });
        held
    }
}

/// Doom every *other*, still-active owner in `owners`; prune finished ones.
/// Returns how many dooms landed. This is the single doom-landing point for
/// set-shaped lock tables (ranges have their own in
/// [`GlobalLocks::doom_ranges`]): each landed doom is accounted through
/// `ctx` ([`DoomCtx::emit`]).
pub(crate) fn doom_others(owners: &mut Owners, self_id: u64, ctx: &DoomCtx) -> u64 {
    let mut doomed = 0;
    owners.retain(|o| {
        if o.id() == self_id {
            return true;
        }
        match o.state() {
            TxState::Active => {
                if o.doom_from(self_id) {
                    doomed += 1;
                    ctx.emit(self_id, o.id());
                }
                true
            }
            // Finished transactions should have released their locks; if one
            // lingers (e.g. a panicking thread), prune it here.
            _ => false,
        }
    });
    doomed
}

// ----------------------------------------------------------------------
// Per-stripe and global-stripe lock-table payloads
// ----------------------------------------------------------------------

/// Capacity, in entries, that a key stripe keeps once its last lock is
/// released. A stripe that held more — one transaction enumerating a large
/// map — gives the rest back rather than keeping its high-water mark for the
/// collection's lifetime; a stripe that never exceeds it never reallocates.
const STRIPE_KEEP_CAPACITY: usize = 64;

/// One stripe of the `key2lockers` table (paper Table 3, sharded by key
/// hash). Every key maps to exactly one stripe, so the per-key lock/apply/
/// doom-scan protocol runs entirely under this stripe's mutex. The table
/// hashes with `StripeHasher`, like every internal table (`stm::hash`):
/// stripe selection already depends on that hash, so a keyed hash here
/// would add a second pass and no flooding resistance.
#[derive(Debug)]
pub(crate) struct KeyLockShard<K> {
    key2lockers: StripeMap<K, Owners>,
}

impl<K> Default for KeyLockShard<K> {
    fn default() -> Self {
        KeyLockShard {
            key2lockers: StripeMap::default(),
        }
    }
}

impl<K: Clone + Eq + Hash> KeyLockShard<K> {
    /// A stripe left with no locks gives back capacity above
    /// [`STRIPE_KEEP_CAPACITY`].
    fn trim(&mut self) {
        if self.key2lockers.is_empty() {
            self.key2lockers.shrink_to(STRIPE_KEEP_CAPACITY);
        }
    }

    /// A committing writer is adding/removing/replacing `key`: doom readers.
    pub(crate) fn doom_key_lockers(&mut self, key: &K, self_id: u64, ctx: &DoomCtx) -> u64 {
        let Some(owners) = self.key2lockers.get_mut(key) else {
            return 0;
        };
        let n = doom_others(owners, self_id, ctx);
        if owners.is_empty() {
            self.key2lockers.remove(key);
            self.trim();
        }
        n
    }

    /// Number of distinct keys currently locked in this stripe.
    pub(crate) fn locked_key_count(&self) -> usize {
        self.key2lockers.len()
    }
}

impl<K: Clone + Eq + Hash> Held<'_, KeyLockShard<K>, K> {
    pub(crate) fn take_key_lock(&mut self, key: K, owner: Owner) {
        self.global
            .acquired(owner.id(), LockKind::Key, key_hash64(&key));
        self.table.key2lockers.entry(key).or_default().insert(owner);
    }

    /// Doom every key observer of `key` whose mode is incompatible with
    /// `effect` per [`mode_compatible`] — the key-side dispatch point of
    /// the doom protocol. Returns how many dooms landed.
    pub(crate) fn doom_update(&mut self, effect: UpdateEffect, key: &K, self_id: u64) -> u64 {
        if mode_compatible(ObsMode::Key, effect, true) {
            return 0;
        }
        let ctx = self.global.doom_ctx(ObsMode::Key, effect, key_hash64(key));
        self.table.doom_key_lockers(key, self_id, &ctx)
    }

    /// Release every key lock held on behalf of `owner_id`. `keys` is the
    /// owner's transaction-local `keyLocks` set filtered to this stripe —
    /// kept precisely so release does not have to enumerate `key2lockers`
    /// (paper §3.1).
    pub(crate) fn release_keys<'a>(&mut self, owner_id: u64, keys: impl Iterator<Item = &'a K>)
    where
        K: 'a,
    {
        let mut released = 0u64;
        for k in keys {
            if let Some(owners) = self.table.key2lockers.get_mut(k) {
                owners.remove(owner_id);
                if owners.is_empty() {
                    self.table.key2lockers.remove(k);
                }
                released += 1;
            }
        }
        self.table.trim();
        self.global.released(owner_id, LockKind::Key, released);
    }
}

// ----------------------------------------------------------------------
// The striped table container (ordered-acquisition surface)
// ----------------------------------------------------------------------

/// The **global stripe** of a collection instance: one counted mutex
/// around the table of its whole-collection locks (size, emptiness,
/// endpoints, fullness and key ranges; the range locks are taken on `K`),
/// and the owner of the instance's [`SemanticStats`]. Every class has
/// exactly one, and every lock table of the instance — its key stripes
/// included — charges these counters: a table is only ever reached as a
/// held table, which carries its instance's global stripe.
///
/// Every entry is tallied in [`SemanticStats::global_stripe_entries`] (and
/// the process-wide [`stm::StatsSnapshot`]), and a contended acquisition of
/// any of the instance's stripes in [`SemanticStats::stripe_lock_spins`],
/// so the serialized fraction of semantic-lock traffic is observable.
pub struct GlobalStripe<K> {
    locks: Mutex<GlobalLocks<K>>,
    stats: SemanticStats,
}

impl<K> Default for GlobalStripe<K> {
    fn default() -> Self {
        GlobalStripe {
            locks: Mutex::new(GlobalLocks::default()),
            stats: SemanticStats::default(),
        }
    }
}

impl<K> GlobalStripe<K> {
    /// The instance's semantic-conflict and lock-table counters.
    pub fn stats(&self) -> &SemanticStats {
        &self.stats
    }

    /// Run `f` under the global stripe. In the striped lock order this
    /// mutex ranks **after every key stripe**: callers must not hold any
    /// stripe when entering (all helpers here guarantee that structurally —
    /// each visit closes its stripe before the next acquisition).
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut Held<'_, GlobalLocks<K>, K>) -> R) -> R {
        self.stats
            .global_stripe_entries
            .fetch_add(1, Ordering::Relaxed);
        metrics::tally(Total::GlobalStripeEntries);
        // Global-stripe contention: stripe index u64::MAX by convention (see
        // `trace::TraceEvent::SemLockBlocked`).
        let mut guard = self.lock_counted(&self.locks, u64::MAX);
        f(&mut Held {
            table: &mut guard,
            global: self,
        })
    }

    /// Lock `mutex`, stripe `stripe` of this instance, charging a contended
    /// acquisition to [`SemanticStats::stripe_lock_spins`].
    fn lock_counted<'m, T>(&self, mutex: &'m Mutex<T>, stripe: u64) -> MutexGuard<'m, T> {
        mutex.try_lock().unwrap_or_else(|| {
            let sym = self.stats.class_sym();
            self.stats.stripe_lock_spins.fetch_add(1, Ordering::Relaxed);
            trace::sem_lock_blocked(sym, stripe);
            metrics::stripe_blocked(sym, stripe);
            let wait_t0 = metrics::timer();
            let g = mutex.lock();
            metrics::hist_elapsed(metrics::HistKind::SemLockWait, wait_t0);
            g
        })
    }

    /// Charge one semantic-lock acquisition by transaction `owner` and
    /// trace it.
    pub(crate) fn acquired(&self, owner: u64, kind: LockKind, key_hash: u64) {
        self.stats.bump(&self.stats.lock_acquisitions, 1);
        trace::sem_lock_acquired(owner, self.stats.class_sym(), kind, key_hash);
    }

    /// Trace the release of `n` locks of `kind` held by transaction `owner`.
    pub(crate) fn released(&self, owner: u64, kind: LockKind, n: u64) {
        trace::sem_lock_released(owner, self.stats.class_sym(), kind, n);
    }

    /// The context of a doom sweep over `obs` locks for an update that
    /// publishes `effect` on the key hashing to `key_hash`.
    pub(crate) fn doom_ctx(
        &self,
        obs: ObsMode,
        effect: UpdateEffect,
        key_hash: u64,
    ) -> DoomCtx<'_> {
        DoomCtx {
            stats: &self.stats,
            obs,
            effect,
            key_hash,
        }
    }
}

/// A lock table entered under its stripe's mutex, together with the global
/// stripe that owns the counters every take, doom and release through it
/// charges. The table is reachable only this way, so no counter reference
/// is ever passed along. Dereferences to the table.
pub(crate) struct Held<'a, T, K> {
    table: &'a mut T,
    global: &'a GlobalStripe<K>,
}

impl<'a, T, K> Held<'a, T, K> {
    /// The global stripe whose counters this table charges.
    pub(crate) fn global(&self) -> &'a GlobalStripe<K> {
        self.global
    }

    /// The same hold, for a nested visit.
    pub(crate) fn reborrow(&mut self) -> Held<'_, T, K> {
        Held {
            table: &mut *self.table,
            global: self.global,
        }
    }
}

impl<T, K> Deref for Held<'_, T, K> {
    type Target = T;

    fn deref(&self) -> &T {
        self.table
    }
}

impl<T, K> DerefMut for Held<'_, T, K> {
    fn deref_mut(&mut self) -> &mut T {
        self.table
    }
}

/// The striped semantic lock table: `N` key stripes (payload `S`, one per
/// hash shard) plus the global stripe (whose range locks are taken on
/// `K`).
///
/// This type is the **only** surface through which collection code touches
/// stripes — acquisition order is encoded here once ([`Self::with_stripe_for`]
/// for a body-side single-stripe visit, [`Self::for_stripes_ascending`] for
/// a handler's multi-stripe sweep, [`Self::with_global`] last), and txlint
/// TX007 flags any raw `stripes[i].lock()` in files carrying the
/// semantic-tables marker.
pub(crate) struct StripedTables<S, K> {
    stripes: Box<[Mutex<S>]>,
    global: GlobalStripe<K>,
}

/// Round a requested stripe count to the implementation grid: at least 1,
/// power of two (so the hash→stripe map is a mask).
pub(crate) fn normalize_stripes(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Stable counting-sort placement: item indices `0..len` ordered by
/// ascending `bucket_of(i)` (each in `0..nbuckets`). O(len + nbuckets) and
/// comparison-free — commit/abort handlers use it to group their footprint
/// by stripe, where a comparison sort would branch-mispredict on every
/// element (stripe ids are hashes, i.e. random).
pub(crate) fn bucket_order(
    len: usize,
    nbuckets: usize,
    bucket_of: impl Fn(usize) -> u32,
) -> Vec<u32> {
    let mut counts = vec![0u32; nbuckets + 1];
    for i in 0..len {
        counts[bucket_of(i) as usize + 1] += 1;
    }
    for b in 1..=nbuckets {
        counts[b] += counts[b - 1];
    }
    let mut order = vec![0u32; len];
    for i in 0..len {
        let slot = &mut counts[bucket_of(i) as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    order
}

impl<S: Default, K> StripedTables<S, K> {
    /// Create with `nstripes` key stripes (rounded up to a power of two)
    /// and an empty global stripe.
    pub(crate) fn new(nstripes: usize) -> Self {
        let n = normalize_stripes(nstripes);
        let stripes: Box<[Mutex<S>]> = (0..n).map(|_| Mutex::new(S::default())).collect();
        StripedTables {
            stripes,
            global: GlobalStripe::default(),
        }
    }
}

impl<S, K> StripedTables<S, K> {
    /// Number of key stripes (always a power of two).
    pub(crate) fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe index a key hashes to ([`stripe_index`] at this table's
    /// stripe count — deterministic, stable across runs).
    pub(crate) fn stripe_of<Q: Hash>(&self, key: &Q) -> usize {
        stripe_index(key, self.stripes.len())
    }

    /// Run `f` under stripe `idx`.
    fn visit<R>(&self, idx: usize, f: impl FnOnce(&mut Held<'_, S, K>) -> R) -> R {
        let mut guard = self.global.lock_counted(&self.stripes[idx], idx as u64);
        f(&mut Held {
            table: &mut guard,
            global: &self.global,
        })
    }

    /// Body-side single-stripe visit: run `f` under the stripe `key` hashes
    /// to. The caller must hold no other stripe (all callers are leaf
    /// operations; the closure must not re-enter the table).
    pub(crate) fn with_stripe_for<Q: Hash, R>(
        &self,
        key: &Q,
        f: impl FnOnce(&mut Held<'_, S, K>) -> R,
    ) -> R {
        self.visit(self.stripe_of(key), f)
    }

    /// Handler-side multi-stripe sweep: visit each listed stripe exactly
    /// once, **in ascending stripe-index order, holding one stripe at a
    /// time** (the previous stripe is released before the next is
    /// acquired). Indices are deduplicated; out-of-range indices would be a
    /// logic bug and panic. This is the ordered-acquisition helper the
    /// striped lock order (module docs) is proved against.
    pub(crate) fn for_stripes_ascending(
        &self,
        indices: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, &mut Held<'_, S, K>),
    ) {
        let mut idxs: Vec<usize> = indices.into_iter().collect();
        idxs.sort_unstable();
        idxs.dedup();
        for i in idxs {
            self.visit(i, |held| f(i, held));
        }
    }

    /// The global stripe. Ranks after every key stripe in the lock order:
    /// never entered with a stripe held.
    pub(crate) fn global(&self) -> &GlobalStripe<K> {
        &self.global
    }

    /// Run `f` under the global stripe.
    pub(crate) fn with_global<R>(
        &self,
        f: impl FnOnce(&mut Held<'_, GlobalLocks<K>, K>) -> R,
    ) -> R {
        self.global.with(f)
    }
}

impl<K: Clone + Eq + Hash> StripedTables<KeyLockShard<K>, K> {
    /// Semantic key locks currently outstanding across all stripes
    /// (diagnostics).
    pub(crate) fn locked_key_count(&self) -> usize {
        let mut n = 0;
        self.for_stripes_ascending(0..self.stripe_count(), |_, s| n += s.locked_key_count());
        n
    }
}

/// Striped table of a keyed class: key stripes plus the global stripe.
pub(crate) type MapTables<K> = StripedTables<KeyLockShard<K>, K>;

/// A range lock: owner has observed all keys in the interval. Identified by
/// a stable id so iterators can grow their range as they advance even while
/// the table compacts.
#[derive(Debug, Clone)]
pub(crate) struct RangeLock<K> {
    pub id: u64,
    pub owner: Owner,
    pub lower: Bound<K>,
    pub upper: Bound<K>,
}

fn in_range<K: Ord>(key: &K, lower: &Bound<K>, upper: &Bound<K>) -> bool {
    let lo_ok = match lower {
        Bound::Unbounded => true,
        Bound::Included(l) => key >= l,
        Bound::Excluded(l) => key > l,
    };
    let hi_ok = match upper {
        Bound::Unbounded => true,
        Bound::Included(u) => key <= u,
        Bound::Excluded(u) => key < u,
    };
    lo_ok && hi_ok
}

/// Whether two intervals intersect. Conservative on the one ambiguous
/// case — an open interval like `(3, 4)` counts as nonempty even when the
/// key type has no value strictly between the bounds — which is safe for
/// lock dooming (a spurious doom costs a retry, never soundness) and exact
/// for the half-open `[lo, hi)` intervals the interval map uses.
pub(crate) fn bounds_overlap<K: Ord>(
    lo1: &Bound<K>,
    hi1: &Bound<K>,
    lo2: &Bound<K>,
    hi2: &Bound<K>,
) -> bool {
    fn lower_below_upper<K: Ord>(lo: &Bound<K>, hi: &Bound<K>) -> bool {
        match (lo, hi) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
            (Bound::Included(a), Bound::Included(b)) => a <= b,
            (Bound::Included(a), Bound::Excluded(b))
            | (Bound::Excluded(a), Bound::Included(b))
            | (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
        }
    }
    lower_below_upper(lo1, hi2) && lower_below_upper(lo2, hi1)
}

/// The whole-collection observation modes, in the order a commit dooms
/// their holders.
const POINT_MODES: [ObsMode; 5] = [
    ObsMode::First,
    ObsMode::Last,
    ObsMode::Size,
    ObsMode::Empty,
    ObsMode::Full,
];

/// The whole-collection locks of one collection instance — the global
/// stripe's payload, and one table for every class (paper Tables 3, 6 and
/// 9: `sizeLockers`, `emptyLockers`, `firstLockers`, `lastLockers` and
/// `rangeLockers`, plus a bounded queue's full lockers and the eager map's
/// size writers). Bodies take point locks with [`Held::take`] and range
/// locks with [`Held::add_range_lock`]; a committing writer dooms through
/// [`Held::doom`] and the range dooms; the kernel's global phase releases
/// an owner's locks with [`Held::release`], the only release there is.
///
/// Range locks sit in a flat list scanned at every committed update — the
/// paper's §3.2 choice: "An alternative would have been to use an interval
/// tree to store the range locks, but the extra complexity and potential
/// overhead seemed unnecessary for the common case."
pub(crate) struct GlobalLocks<K> {
    /// The holders of each whole-collection lock, in [`POINT_MODES`] order.
    points: [Owners; 5],
    /// Transactions whose uncommitted in-place writes may have changed the
    /// size (the eager map's): a size read waits while another one is
    /// active.
    size_writers: Owners,
    ranges: Vec<RangeLock<K>>,
    next_range_id: u64,
}

impl<K> Default for GlobalLocks<K> {
    fn default() -> Self {
        GlobalLocks {
            points: Default::default(),
            size_writers: Owners::Empty,
            ranges: Vec::new(),
            next_range_id: 0,
        }
    }
}

impl<K> GlobalLocks<K> {
    fn owners(&mut self, mode: ObsMode) -> &mut Owners {
        let at = POINT_MODES.iter().position(|&m| m == mode);
        &mut self.points[at.expect("key and range locks are not whole-collection locks")]
    }

    /// Whether an active transaction other than `self_id` is a size writer.
    pub(crate) fn other_size_writer(&self, self_id: u64) -> bool {
        self.size_writers
            .iter()
            .any(|o| o.id() != self_id && o.state() == TxState::Active)
    }

    /// Number of range locks outstanding (diagnostics).
    pub(crate) fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Extend the upper bound of a previously registered range lock.
    pub(crate) fn extend_range_upper(&mut self, id: u64, upper: Bound<K>) {
        if let Some(r) = self.ranges.iter_mut().find(|r| r.id == id) {
            r.upper = upper;
        }
    }
}

impl<K> Held<'_, GlobalLocks<K>, K> {
    /// Hold the whole-collection lock of `mode` for `owner`.
    pub(crate) fn take(&mut self, mode: ObsMode, owner: Owner) {
        self.global.acquired(owner.id(), mode.lock_kind(), 0);
        self.table.owners(mode).insert(owner);
    }

    /// Doom every other active holder of a whole-collection lock whose mode
    /// `effect` invalidates per [`mode_compatible`]. Returns how many dooms
    /// landed.
    pub(crate) fn doom(&mut self, effect: UpdateEffect, self_id: u64) -> u64 {
        let mut doomed = 0;
        for (&obs, owners) in POINT_MODES.iter().zip(&mut self.table.points) {
            if !mode_compatible(obs, effect, false) {
                doomed += doom_others(owners, self_id, &self.global.doom_ctx(obs, effect, 0));
            }
        }
        doomed
    }

    /// Make `owner` a size writer ahead of an in-place write that changes
    /// the size, dooming the size observers as a size change does. Returns
    /// how many dooms landed.
    pub(crate) fn join_size_writers(&mut self, owner: Owner) -> u64 {
        let id = owner.id();
        self.table.size_writers.insert(owner);
        self.doom(UpdateEffect::SizeChange, id)
    }

    /// Release every lock `owner_id` holds here, tracing how many of each
    /// kind, and end its size writing.
    pub(crate) fn release(&mut self, owner_id: u64) {
        let locks = &mut self.table;
        let mut held = |mode| u64::from(locks.owners(mode).remove(owner_id));
        let size = held(ObsMode::Size);
        let empty = held(ObsMode::Empty);
        let endpoints = held(ObsMode::First) + held(ObsMode::Last);
        let full = held(ObsMode::Full);
        locks.size_writers.remove(owner_id);
        let before = locks.ranges.len();
        locks.ranges.retain(|r| r.owner.id() != owner_id);
        let ranges = (before - locks.ranges.len()) as u64;
        for (kind, n) in [
            (LockKind::Size, size),
            (LockKind::Empty, empty),
            (LockKind::Endpoint, endpoints),
            (LockKind::Range, ranges),
            (LockKind::Full, full),
        ] {
            self.global.released(owner_id, kind, n);
        }
    }
}

impl<K: Ord> Held<'_, GlobalLocks<K>, K> {
    /// Register a range lock and return its stable id so an iterator can
    /// grow it as it advances.
    pub(crate) fn add_range_lock(&mut self, owner: Owner, lower: Bound<K>, upper: Bound<K>) -> u64 {
        self.global.acquired(owner.id(), LockKind::Range, 0);
        let id = self.table.next_range_id;
        self.table.next_range_id += 1;
        self.table.ranges.push(RangeLock {
            id,
            owner,
            lower,
            upper,
        });
        id
    }

    /// A committing writer published `effect` on `key` (whose
    /// [`key_hash64`] is `key_hash`): doom the owners of the range locks
    /// covering it. Returns how many dooms landed.
    pub(crate) fn doom_ranges_at(
        &mut self,
        effect: UpdateEffect,
        key: &K,
        key_hash: u64,
        self_id: u64,
    ) -> u64 {
        self.doom_ranges(effect, key_hash, self_id, |r| {
            in_range(key, &r.lower, &r.upper)
        })
    }

    /// A committing writer published `effect` on every key in `[lower,
    /// upper]`: doom the owners of range locks that *intersect* the written
    /// span. The interval-map class publishes interval-valued writes, for
    /// which the point stab of [`Self::doom_ranges_at`] is unsound (a
    /// reader's range strictly inside the written interval would never be
    /// stabbed). `span_hash` attributes the dooms in the trace.
    pub(crate) fn doom_span(
        &mut self,
        effect: UpdateEffect,
        lower: &Bound<K>,
        upper: &Bound<K>,
        span_hash: u64,
        self_id: u64,
    ) -> u64 {
        self.doom_ranges(effect, span_hash, self_id, |r| {
            bounds_overlap(&r.lower, &r.upper, lower, upper)
        })
    }

    /// If `effect` can invalidate a range observation at all (per
    /// [`mode_compatible`]; overlap is `hit`'s to decide, per lock), doom
    /// every other active owner of a range lock `hit` selects, and drop the
    /// locks of owners no longer active. The range list is the one lock
    /// table whose dooms do not go through [`doom_others`], so it lands them
    /// and accounts them itself.
    fn doom_ranges(
        &mut self,
        effect: UpdateEffect,
        key_hash: u64,
        self_id: u64,
        mut hit: impl FnMut(&RangeLock<K>) -> bool,
    ) -> u64 {
        if mode_compatible(ObsMode::Range, effect, true) {
            return 0;
        }
        let ctx = self.global.doom_ctx(ObsMode::Range, effect, key_hash);
        let mut doomed = 0;
        self.table.ranges.retain(|r| {
            if r.owner.id() == self_id {
                return true;
            }
            match r.owner.state() {
                TxState::Active => {
                    if hit(r) && r.owner.doom_from(self_id) {
                        doomed += 1;
                        ctx.emit(self_id, r.owner.id());
                    }
                    true
                }
                _ => false,
            }
        });
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner() -> Owner {
        TxHandle::new(0)
    }

    /// `table` held as a table of `global`'s instance, charging its
    /// counters (tracing is off here, so the emission side is inert;
    /// `trace_provenance.rs` covers it live).
    fn held<'a, T>(table: &'a mut T, global: &'a GlobalStripe<u32>) -> Held<'a, T, u32> {
        Held { table, global }
    }

    /// The doom context of a key write on `global`'s instance.
    fn key_write(global: &GlobalStripe<u32>) -> DoomCtx<'_> {
        global.doom_ctx(ObsMode::Key, UpdateEffect::KeyWrite, 0)
    }

    #[test]
    fn key_lock_doom_hits_only_other_active_owners() {
        let global = GlobalStripe::default();
        let mut shard: KeyLockShard<u32> = KeyLockShard::default();
        let mut t = held(&mut shard, &global);
        let me = owner();
        let victim = owner();
        t.take_key_lock(7, me.clone());
        t.take_key_lock(7, victim.clone());
        let doomed = t.doom_key_lockers(&7, me.id(), &key_write(&global));
        assert_eq!(doomed, 1);
        assert!(victim.is_doomed());
        assert!(!me.is_doomed());
    }

    /// A second owner spills the key's owner list to the heap; the doom
    /// sweep and both releases work on the spilled list, and the last
    /// release removes the key's entry.
    #[test]
    fn second_owner_spills_and_last_release_removes_the_entry() {
        let global = GlobalStripe::default();
        let wctx = key_write(&global);
        let mut table: KeyLockShard<u32> = KeyLockShard::default();
        let mut shard = held(&mut table, &global);
        let (first, second, writer) = (owner(), owner(), owner());
        assert_eq!(std::mem::size_of::<Owners>(), 16, "one owner inline");
        shard.take_key_lock(7, first.clone());
        assert!(matches!(shard.key2lockers.get(&7), Some(Owners::One(_))));
        shard.take_key_lock(7, second.clone());
        shard.take_key_lock(7, second.clone());
        assert!(matches!(
            shard.key2lockers.get(&7),
            Some(Owners::Many(v)) if v.len() == 2
        ));

        shard.release_keys(first.id(), [7].iter());
        assert_eq!(
            shard.locked_key_count(),
            1,
            "the second owner still holds 7"
        );
        assert_eq!(shard.doom_key_lockers(&7, writer.id(), &wctx), 1);
        assert!(second.is_doomed() && !first.is_doomed());

        shard.release_keys(second.id(), [7].iter());
        assert_eq!(shard.locked_key_count(), 0);
        assert_eq!(shard.doom_key_lockers(&7, writer.id(), &wctx), 0);
    }

    #[test]
    fn doom_missing_key_is_zero() {
        let global = GlobalStripe::default();
        let mut t: KeyLockShard<u32> = KeyLockShard::default();
        assert_eq!(t.doom_key_lockers(&1, 0, &key_write(&global)), 0);
    }

    #[test]
    fn release_removes_all_owner_locks() {
        let global = GlobalStripe::default();
        let mut shard: KeyLockShard<u32> = KeyLockShard::default();
        let mut locks: GlobalLocks<u32> = GlobalLocks::default();
        let (mut shard, mut points) = (held(&mut shard, &global), held(&mut locks, &global));
        let me = owner();
        shard.take_key_lock(1, me.clone());
        shard.take_key_lock(2, me.clone());
        points.take(ObsMode::Size, me.clone());
        let keys: Vec<u32> = vec![1, 2];
        shard.release_keys(me.id(), keys.iter());
        points.release(me.id());
        assert_eq!(shard.locked_key_count(), 0);
        assert_eq!(points.doom(UpdateEffect::SizeChange, u64::MAX), 0);
    }

    #[test]
    fn finished_owners_are_pruned_not_doomed() {
        let global = GlobalStripe::default();
        let mut locks: GlobalLocks<u32> = GlobalLocks::default();
        let mut t = held(&mut locks, &global);
        let dead = owner();
        // Simulate a completed transaction lingering in the table.
        *t.owners(ObsMode::Size) = Owners::One(dead.clone());
        // mark_committed is crate-private to stm; emulate via doom->abort path
        // is not possible here, so use an Active owner and verify doom, then
        // check pruning with the doomed-but-aborted state is covered by the
        // integration tests.
        let n = t.doom(UpdateEffect::SizeChange, u64::MAX);
        assert_eq!(n, 1);
    }

    #[test]
    fn range_lock_covers_and_grows() {
        let global = GlobalStripe::default();
        let mut locks: GlobalLocks<u32> = GlobalLocks::default();
        let mut t = held(&mut locks, &global);
        let me = owner();
        let victim = owner();
        let doom_at = |t: &mut Held<GlobalLocks<u32>, u32>, k: u32| {
            t.doom_ranges_at(UpdateEffect::KeyWrite, &k, 0, me.id())
        };
        let idx = t.add_range_lock(victim.clone(), Bound::Included(10), Bound::Included(20));
        assert_eq!(doom_at(&mut t, 5), 0);
        assert_eq!(doom_at(&mut t, 15), 1);
        assert!(victim.is_doomed());

        let victim2 = owner();
        let id2 = t.add_range_lock(victim2.clone(), Bound::Included(30), Bound::Excluded(31));
        t.extend_range_upper(id2, Bound::Included(40));
        assert_eq!(doom_at(&mut t, 40), 1);
        assert!(victim2.is_doomed());
        let _ = idx;
    }

    #[test]
    fn range_owner_not_self_doomed() {
        let global = GlobalStripe::default();
        let mut locks: GlobalLocks<u32> = GlobalLocks::default();
        let mut t = held(&mut locks, &global);
        let me = owner();
        t.add_range_lock(me.clone(), Bound::Unbounded, Bound::Unbounded);
        assert_eq!(t.doom_ranges_at(UpdateEffect::KeyWrite, &1, 0, me.id()), 0);
        assert!(!me.is_doomed());
    }

    #[test]
    fn mode_compatibility_matrix_spot_checks() {
        use {ObsMode as O, UpdateEffect as E};
        // Table 1/2: get(k) vs put(k) conflicts; vs put(k') commutes.
        assert!(!mode_compatible(O::Key, E::KeyWrite, true));
        assert!(mode_compatible(O::Key, E::KeyWrite, false));
        // Table 1: size vs value-replacing put (KeyWrite, no SizeChange).
        assert!(mode_compatible(O::Size, E::KeyWrite, true));
        assert!(!mode_compatible(O::Size, E::SizeChange, false));
        // §5.1: isEmpty-as-primitive survives non-crossing size changes.
        assert!(mode_compatible(O::Empty, E::SizeChange, false));
        assert!(!mode_compatible(O::Empty, E::ZeroCross, false));
        // Tables 4/5: range iteration vs in/out-of-range writes.
        assert!(!mode_compatible(O::Range, E::KeyWrite, true));
        assert!(mode_compatible(O::Range, E::KeyWrite, false));
        // Tables 7/8: queue fullness freed only by consumption.
        assert!(!mode_compatible(O::Full, E::Consume, false));
        assert!(mode_compatible(O::Full, E::KeyWrite, false));
    }

    /// The conflict counters of the size and emptiness modes.
    fn size_empty(global: &GlobalStripe<u32>) -> (u64, u64) {
        (
            global.stats().size_conflicts.load(Ordering::Relaxed),
            global.stats().empty_conflicts.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn doom_update_routes_through_mode_compatibility() {
        let global = GlobalStripe::default();
        let mut shard: KeyLockShard<u32> = KeyLockShard::default();
        let mut locks: GlobalLocks<u32> = GlobalLocks::default();
        let (mut shard, mut points) = (held(&mut shard, &global), held(&mut locks, &global));
        let me = owner();
        let key_watcher = owner();
        let size_watcher = owner();
        let empty_watcher = owner();
        shard.take_key_lock(7, key_watcher.clone());
        points.take(ObsMode::Size, size_watcher.clone());
        points.take(ObsMode::Empty, empty_watcher.clone());

        // A value-replacing put: dooms the key watcher only.
        let k = shard.doom_update(UpdateEffect::KeyWrite, &7, me.id());
        let p = points.doom(UpdateEffect::KeyWrite, me.id());
        assert_eq!((k, p), (1, 0));
        assert_eq!(global.stats().key_conflicts.load(Ordering::Relaxed), 1);
        assert!(key_watcher.is_doomed());
        assert!(!size_watcher.is_doomed() && !empty_watcher.is_doomed());

        // A size change without zero crossing: dooms the size watcher only.
        assert_eq!(points.doom(UpdateEffect::SizeChange, me.id()), 1);
        assert_eq!(size_empty(&global), (1, 0));
        assert!(!empty_watcher.is_doomed());

        // Zero crossing: dooms the emptiness watcher.
        assert_eq!(points.doom(UpdateEffect::ZeroCross, me.id()), 1);
        assert_eq!(size_empty(&global), (1, 1));
        assert!(empty_watcher.is_doomed());
    }

    #[test]
    fn sorted_doom_update_endpoints_and_ranges() {
        let global = GlobalStripe::default();
        let mut locks: GlobalLocks<u32> = GlobalLocks::default();
        let mut t = held(&mut locks, &global);
        let me = owner();
        let ranger = owner();
        let firster = owner();
        t.add_range_lock(ranger.clone(), Bound::Included(10), Bound::Included(20));
        t.take(ObsMode::First, firster.clone());

        let r = t.doom_ranges_at(UpdateEffect::KeyWrite, &15, key_hash64(&15), me.id());
        let p = t.doom(UpdateEffect::KeyWrite, me.id());
        assert_eq!((r, p), (1, 0));
        assert!(ranger.is_doomed() && !firster.is_doomed());

        let r = t.doom_ranges_at(UpdateEffect::FirstChange, &15, 0, me.id());
        let f = t.doom(UpdateEffect::FirstChange, me.id());
        assert_eq!((r, f), (0, 1));
        let stats = global.stats();
        assert_eq!(stats.range_conflicts.load(Ordering::Relaxed), 1);
        assert_eq!(stats.first_conflicts.load(Ordering::Relaxed), 1);
        assert!(firster.is_doomed());
    }

    #[test]
    fn in_range_bounds() {
        assert!(in_range(&5, &Bound::Included(5), &Bound::Included(5)));
        assert!(!in_range(&5, &Bound::Excluded(5), &Bound::Unbounded));
        assert!(!in_range(&5, &Bound::Unbounded, &Bound::Excluded(5)));
        assert!(in_range(&5, &Bound::Unbounded, &Bound::Unbounded));
    }

    // ------------------------------------------------------------------
    // Striped-table mechanics
    // ------------------------------------------------------------------

    #[test]
    fn stripe_counts_normalize_to_powers_of_two() {
        assert_eq!(normalize_stripes(0), 1);
        assert_eq!(normalize_stripes(1), 1);
        assert_eq!(normalize_stripes(3), 4);
        assert_eq!(normalize_stripes(16), 16);
        assert_eq!(normalize_stripes(17), 32);
    }

    #[test]
    fn stripe_of_is_stable_and_in_range() {
        let t: MapTables<u64> = StripedTables::new(16);
        for k in 0..1000u64 {
            let s = t.stripe_of(&k);
            assert!(s < 16);
            assert_eq!(s, t.stripe_of(&k), "stripe assignment must be stable");
        }
        // With one stripe, everything maps to stripe 0.
        let t1: MapTables<u64> = StripedTables::new(1);
        for k in 0..100u64 {
            assert_eq!(t1.stripe_of(&k), 0);
        }
    }

    #[test]
    fn ascending_sweep_visits_sorted_deduped() {
        let t: MapTables<u64> = StripedTables::new(8);
        let mut visited = Vec::new();
        t.for_stripes_ascending([5usize, 1, 5, 7, 1, 0], |i, _| visited.push(i));
        assert_eq!(visited, vec![0, 1, 5, 7]);
    }

    #[test]
    fn striped_key_lock_and_doom_round_trip() {
        let t: MapTables<u32> = StripedTables::new(4);
        let me = owner();
        let victim = owner();
        t.with_stripe_for(&9, |s| s.take_key_lock(9, victim.clone()));
        let doomed = t.with_stripe_for(&9, |s| s.doom_update(UpdateEffect::KeyWrite, &9, me.id()));
        assert_eq!(doomed, 1);
        assert!(victim.is_doomed());
    }

    #[test]
    fn global_stripe_entries_are_counted() {
        let t: MapTables<u32> = StripedTables::new(4);
        let me = owner();
        t.with_global(|g| g.take(ObsMode::Size, me.clone()));
        t.with_global(|g| g.release(me.id()));
        let entries = &t.global().stats().global_stripe_entries;
        assert_eq!(entries.load(Ordering::Relaxed), 2);
    }
}
