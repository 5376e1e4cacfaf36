//! Conflict-provenance tracing: a structured event layer for the runtime.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! The counters ([`crate::metrics`]) say *how many* transactions aborted;
//! they cannot say *why this one* aborted or *who* doomed it via *which*
//! semantic lock. This module records that provenance as a bounded stream of
//! typed events — transaction lifecycle, handler-lane entry/exit, lock-spin
//! contention, and (emitted by the collection layer above) semantic lock
//! acquisitions and `doomer → victim` edges with the conflicting mode pair.
//!
//! # Design constraints
//!
//! * **Off by default, free when off.** Every emission function starts with
//!   one relaxed atomic load ([`enabled`]); tier-1 perf is untouched unless a
//!   [`TraceGuard`] is live. `tests/trace_events.rs` checks that a disabled
//!   layer records nothing; the repository benchmark's traced pass reports
//!   what a live guard costs (`bench.trace_overhead`).
//! * **Zero allocation on the hot path.** Events are fixed-width
//!   `[u64; 5]` records written into a per-thread ring buffer; strings are
//!   pre-interned [`Sym`]s (txlint TX009 rejects `format!`/`String` in
//!   event construction inside transactions).
//! * **Lock-free, bounded, drop-oldest.** Each thread owns its ring and is
//!   its only writer; a full ring overwrites the oldest slot and bumps the
//!   dropped counter (`trace_events_dropped` in [`crate::StatsSnapshot`]).
//!   Readers ([`snapshot`]) reconcile with writers through a per-slot
//!   seqlock — a torn slot is detected by its version and skipped, never
//!   misread.
//!
//! # Usage
//!
//! ```
//! let _guard = stm::trace::TraceConfig::default().enable();
//! stm::atomic(|tx| { /* traced work */ });
//! let snap = stm::trace::snapshot();
//! assert!(snap.events.iter().any(|e| matches!(e, stm::trace::TraceEvent::TxnCommit { .. })));
//! println!("{}", snap.to_json());
//! ```

use crate::interrupt::AbortCause;
use crate::metrics::{self, Total};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ----------------------------------------------------------------------
// Symbol interning
// ----------------------------------------------------------------------

/// An interned `&'static str` — the no-alloc way to put a class name into a
/// fixed-width event. `Sym(0)` is the reserved "unknown" symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(pub u16);

impl Sym {
    /// The reserved "unknown" symbol (instances that never set a name).
    pub const UNKNOWN: Sym = Sym(0);

    /// Resolve back to the interned string (`"?"` for [`Sym::UNKNOWN`] or a
    /// symbol from another process's trace).
    pub fn name(self) -> &'static str {
        sym_name(self)
    }
}

static SYMS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Intern a static string, returning a stable [`Sym`] for event encoding.
/// Call once per class at construction time, never on the emission path.
pub fn intern(name: &'static str) -> Sym {
    let mut syms = SYMS.lock();
    if let Some(i) = syms.iter().position(|&s| s == name) {
        return Sym((i + 1) as u16);
    }
    assert!(syms.len() < u16::MAX as usize - 1, "symbol table exhausted");
    syms.push(name);
    Sym(syms.len() as u16)
}

/// Resolve a [`Sym`] to its interned string (`"?"` if unknown).
pub fn sym_name(sym: Sym) -> &'static str {
    if sym.0 == 0 {
        return "?";
    }
    SYMS.lock().get(sym.0 as usize - 1).copied().unwrap_or("?")
}

// ----------------------------------------------------------------------
// Vocabulary: lock kinds, observation modes, update effects
// ----------------------------------------------------------------------

/// The kind of semantic lock an event refers to (the collection layer's
/// lock taxonomy: per-key locks, whole-collection point locks, sorted-map
/// endpoint and range locks, and the bounded queue's fullness lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LockKind {
    /// A per-key read lock.
    Key = 0,
    /// The size point lock.
    Size = 1,
    /// The zero-crossing emptiness lock.
    Empty = 2,
    /// A sorted-map endpoint lock (first/last key).
    Endpoint = 3,
    /// A sorted-map range lock.
    Range = 4,
    /// A bounded queue's fullness lock.
    Full = 5,
}

impl LockKind {
    /// Decode from the wire byte (unknown values map to [`LockKind::Key`]).
    pub fn from_u8(b: u8) -> LockKind {
        match b {
            1 => LockKind::Size,
            2 => LockKind::Empty,
            3 => LockKind::Endpoint,
            4 => LockKind::Range,
            5 => LockKind::Full,
            _ => LockKind::Key,
        }
    }

    /// Lower-case name used by the JSON exporter and `txtop`.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Key => "key",
            LockKind::Size => "size",
            LockKind::Empty => "empty",
            LockKind::Endpoint => "endpoint",
            LockKind::Range => "range",
            LockKind::Full => "full",
        }
    }
}

/// Names of the collection layer's observation modes, indexed by the mode
/// code carried in [`TraceEvent::DoomEdge`] (`txcollections::ObsMode` order).
pub const OBS_NAMES: [&str; 7] = ["Key", "Size", "Empty", "First", "Last", "Range", "Full"];

/// Names of the collection layer's update effects, indexed by the effect
/// code in [`TraceEvent::DoomEdge`] (`txcollections::UpdateEffect` order).
pub const EFFECT_NAMES: [&str; 6] = [
    "KeyWrite",
    "SizeChange",
    "ZeroCross",
    "FirstChange",
    "LastChange",
    "Consume",
];

/// Name of an observation-mode code (`"?"` when out of range).
pub fn obs_name(code: u8) -> &'static str {
    OBS_NAMES.get(code as usize).copied().unwrap_or("?")
}

/// Name of an update-effect code (`"?"` when out of range).
pub fn effect_name(code: u8) -> &'static str {
    EFFECT_NAMES.get(code as usize).copied().unwrap_or("?")
}

fn cause_code(cause: AbortCause) -> u8 {
    match cause {
        AbortCause::ReadInvalid => 0,
        AbortCause::Doomed => 1,
        AbortCause::Explicit => 2,
    }
}

fn cause_from(code: u8) -> AbortCause {
    match code {
        1 => AbortCause::Doomed,
        2 => AbortCause::Explicit,
        _ => AbortCause::ReadInvalid,
    }
}

/// Lower-case abort-cause name used by the JSON exporter and `txtop`.
pub fn cause_name(cause: AbortCause) -> &'static str {
    match cause {
        AbortCause::ReadInvalid => "read_invalid",
        AbortCause::Doomed => "doomed",
        AbortCause::Explicit => "explicit",
    }
}

// ----------------------------------------------------------------------
// Event encoding
// ----------------------------------------------------------------------

// Event kind codes (word0 bits 0..8).
const K_TXN_BEGIN: u8 = 0;
const K_TXN_COMMIT: u8 = 1;
const K_TXN_ABORT: u8 = 2;
const K_FRAME_RETRY: u8 = 3;
const K_OPEN_COMMIT: u8 = 4;
const K_OPEN_RETRY: u8 = 5;
const K_LANE_ENTER: u8 = 6;
const K_LANE_EXIT: u8 = 7;
const K_VAR_LOCK_SPIN: u8 = 8;
const K_SEM_BLOCKED: u8 = 9;
const K_SEM_ACQUIRED: u8 = 10;
const K_SEM_RELEASED: u8 = 11;
const K_DOOM_EDGE: u8 = 12;
const K_OPEN_FLAT: u8 = 13;
const K_CACHE_HIT: u8 = 14;
const K_SNAPSHOT_TXN: u8 = 15;
const K_SNAPSHOT_FALLBACK: u8 = 16;

// word0 layout: kind(0..8) | sym(8..24) | aux(24..32) | aux2(32..40) |
// flags(40..48). words 1..5: seq, a, b, c.
#[inline]
fn pack0(kind: u8, sym: Sym, aux: u8, aux2: u8, flags: u8) -> u64 {
    kind as u64
        | (sym.0 as u64) << 8
        | (aux as u64) << 24
        | (aux2 as u64) << 32
        | (flags as u64) << 40
}

/// One decoded trace event. `seq` is a process-global order (drawn from one
/// atomic counter at emission time); `ts` is nanoseconds since the first
/// event of the process (coarse wall-clock for occupancy estimates, absent
/// on doom edges, whose fifth word carries the key hash instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A top-level transaction attempt began executing.
    TxnBegin {
        /// Global emission order.
        seq: u64,
        /// Attempt id ([`crate::TxHandle::id`]).
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A top-level attempt committed (point of no return passed, writes
    /// published, handlers run).
    TxnCommit {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A top-level attempt aborted. When `cause` is [`AbortCause::Doomed`],
    /// `culprit` is the attempt id of the transaction whose commit issued
    /// the doom (0 if unattributed).
    TxnAbort {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Why the attempt aborted.
        cause: AbortCause,
        /// Dooming attempt id (0 when not a doom or unattributed).
        culprit: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A closed-nested frame rolled back and re-executed (partial rollback).
    FrameRetry {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// An open-nested child committed.
    OpenCommit {
        /// Global emission order.
        seq: u64,
        /// Owning top-level attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// An open-nested child failed validation and re-executed.
    OpenRetry {
        /// Global emission order.
        seq: u64,
        /// Owning top-level attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// The handler lane was acquired (handler execution or a writing
    /// open-nested commit).
    LaneEnter {
        /// Global emission order.
        seq: u64,
        /// Attempt id holding the lane.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// The handler lane was released.
    LaneExit {
        /// Global emission order.
        seq: u64,
        /// Attempt id that held the lane.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A per-`TVar` commit-lock acquisition found the lock held and spun.
    VarLockSpin {
        /// Global emission order.
        seq: u64,
        /// The contended var's id.
        var: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A semantic-table stripe mutex was found held (a blocked semantic
    /// lock acquisition or handler sweep). `stripe` is the stripe index,
    /// `u64::MAX` for the global point-lock stripe.
    SemLockBlocked {
        /// Global emission order.
        seq: u64,
        /// Collection class name.
        class: Sym,
        /// Contended stripe index (`u64::MAX` = global stripe).
        stripe: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A semantic lock was acquired by a transaction body.
    SemLockAcquired {
        /// Global emission order.
        seq: u64,
        /// Acquiring attempt id.
        txn: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table.
        kind: LockKind,
        /// Stripe-hash of the key (0 for point locks).
        key_hash: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A transaction's semantic locks of one kind were released by its
    /// commit or abort handler (`count` locks at once).
    SemLockReleased {
        /// Global emission order.
        seq: u64,
        /// Releasing attempt id.
        txn: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table.
        kind: LockKind,
        /// How many locks this release covered.
        count: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A committing transaction doomed a semantic lock holder: the edge
    /// `doomer → victim`, with the conflicting `(obs, effect)` mode pair.
    /// `compatible` is `mode_compatible(obs, effect, overlap)` as evaluated
    /// by the doom protocol — always `false` for an edge that landed.
    DoomEdge {
        /// Global emission order.
        seq: u64,
        /// Committing attempt that issued the doom.
        doomer: u64,
        /// Attempt that absorbed it.
        victim: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table the conflict was found in.
        kind: LockKind,
        /// Stripe-hash of the conflicting key (0 for point locks).
        key_hash: u64,
        /// Observation-mode code of the victim's lock (see [`obs_name`]).
        obs: u8,
        /// Update-effect code of the doomer's write (see [`effect_name`]).
        effect: u8,
        /// The `mode_compatible` verdict for the pair (false = conflict).
        compatible: bool,
    },
    /// A read-only open was served flattened: no child transaction, the
    /// reads validated inline against per-var stamps (or, for boosted
    /// backends, performed directly under an already-held semantic lock).
    OpenFlattened {
        /// Global emission order.
        seq: u64,
        /// Owning top-level attempt id.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A semantic-lock acquisition was satisfied by the transaction's own
    /// lock cache — the `(kind, key)` lock was already held, so no stripe
    /// was touched.
    LockCacheHit {
        /// Global emission order.
        seq: u64,
        /// Attempt id whose cache hit.
        txn: u64,
        /// Collection class name.
        class: Sym,
        /// Which lock table the cached lock belongs to.
        kind: LockKind,
        /// Stripe-hash of the key (0 for point locks).
        key_hash: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A snapshot ([`crate::atomic_read`]) transaction completed, having
    /// served `reads` variable reads from the version chains with no
    /// read-set, no validation, and no semantic locks. Emitted just before
    /// the attempt's [`TraceEvent::TxnCommit`].
    SnapshotTxn {
        /// Global emission order.
        seq: u64,
        /// Attempt id.
        txn: u64,
        /// Chain reads served by the attempt.
        reads: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
    /// A snapshot attempt abandoned to the validated path (a version chain
    /// was truncated past its snapshot). Emitted just before the attempt's
    /// closing [`TraceEvent::TxnAbort`]; the re-run appears as a fresh
    /// ordinary transaction.
    SnapshotFallback {
        /// Global emission order.
        seq: u64,
        /// Attempt id of the abandoned snapshot attempt.
        txn: u64,
        /// Nanoseconds since trace start.
        ts: u64,
    },
}

impl TraceEvent {
    /// Global emission order of this event.
    pub fn seq(&self) -> u64 {
        match self {
            TraceEvent::TxnBegin { seq, .. }
            | TraceEvent::TxnCommit { seq, .. }
            | TraceEvent::TxnAbort { seq, .. }
            | TraceEvent::FrameRetry { seq, .. }
            | TraceEvent::OpenCommit { seq, .. }
            | TraceEvent::OpenRetry { seq, .. }
            | TraceEvent::LaneEnter { seq, .. }
            | TraceEvent::LaneExit { seq, .. }
            | TraceEvent::VarLockSpin { seq, .. }
            | TraceEvent::SemLockBlocked { seq, .. }
            | TraceEvent::SemLockAcquired { seq, .. }
            | TraceEvent::SemLockReleased { seq, .. }
            | TraceEvent::DoomEdge { seq, .. }
            | TraceEvent::OpenFlattened { seq, .. }
            | TraceEvent::LockCacheHit { seq, .. }
            | TraceEvent::SnapshotTxn { seq, .. }
            | TraceEvent::SnapshotFallback { seq, .. } => *seq,
        }
    }

    fn decode(w: [u64; 5]) -> Option<TraceEvent> {
        let kind = (w[0] & 0xff) as u8;
        let sym = Sym(((w[0] >> 8) & 0xffff) as u16);
        let aux = ((w[0] >> 24) & 0xff) as u8;
        let aux2 = ((w[0] >> 32) & 0xff) as u8;
        let flags = ((w[0] >> 40) & 0xff) as u8;
        let (seq, a, b, c) = (w[1], w[2], w[3], w[4]);
        Some(match kind {
            K_TXN_BEGIN => TraceEvent::TxnBegin { seq, txn: a, ts: c },
            K_TXN_COMMIT => TraceEvent::TxnCommit { seq, txn: a, ts: c },
            K_TXN_ABORT => TraceEvent::TxnAbort {
                seq,
                txn: a,
                cause: cause_from(aux),
                culprit: b,
                ts: c,
            },
            K_FRAME_RETRY => TraceEvent::FrameRetry { seq, txn: a, ts: c },
            K_OPEN_COMMIT => TraceEvent::OpenCommit { seq, txn: a, ts: c },
            K_OPEN_RETRY => TraceEvent::OpenRetry { seq, txn: a, ts: c },
            K_LANE_ENTER => TraceEvent::LaneEnter { seq, txn: a, ts: c },
            K_LANE_EXIT => TraceEvent::LaneExit { seq, txn: a, ts: c },
            K_VAR_LOCK_SPIN => TraceEvent::VarLockSpin { seq, var: a, ts: c },
            K_SEM_BLOCKED => TraceEvent::SemLockBlocked {
                seq,
                class: sym,
                stripe: a,
                ts: c,
            },
            K_SEM_ACQUIRED => TraceEvent::SemLockAcquired {
                seq,
                txn: a,
                class: sym,
                kind: LockKind::from_u8(aux),
                key_hash: b,
                ts: c,
            },
            K_SEM_RELEASED => TraceEvent::SemLockReleased {
                seq,
                txn: a,
                class: sym,
                kind: LockKind::from_u8(aux),
                count: b,
                ts: c,
            },
            K_DOOM_EDGE => TraceEvent::DoomEdge {
                seq,
                doomer: a,
                victim: b,
                class: sym,
                kind: LockKind::from_u8(aux),
                key_hash: c,
                obs: aux2 >> 4,
                effect: aux2 & 0x0f,
                compatible: flags & 1 != 0,
            },
            K_OPEN_FLAT => TraceEvent::OpenFlattened { seq, txn: a, ts: c },
            K_CACHE_HIT => TraceEvent::LockCacheHit {
                seq,
                txn: a,
                class: sym,
                kind: LockKind::from_u8(aux),
                key_hash: b,
                ts: c,
            },
            K_SNAPSHOT_TXN => TraceEvent::SnapshotTxn {
                seq,
                txn: a,
                reads: b,
                ts: c,
            },
            K_SNAPSHOT_FALLBACK => TraceEvent::SnapshotFallback { seq, txn: a, ts: c },
            _ => return None,
        })
    }
}

// ----------------------------------------------------------------------
// Per-thread seqlock rings and the global registry
// ----------------------------------------------------------------------

const WORDS: usize = 5;
const DEFAULT_RING_SLOTS: usize = 4096;

struct Slot {
    /// Per-slot seqlock version: odd while the owner thread is writing.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }
}

struct Ring {
    /// Monotonic count of events written (next logical index). Written only
    /// by the owner thread; read by snapshotters.
    head: AtomicU64,
    /// Events overwritten since the last enable (drop-oldest accounting).
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(nslots: usize) -> Ring {
        Ring {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..nslots).map(|_| Slot::new()).collect(),
        }
    }

    /// Owner-thread-only append. Seqlock discipline: bump the slot version
    /// to odd, store the payload, bump to even, then publish the new head.
    fn push(&self, words: [u64; WORDS]) {
        let h = self.head.load(Ordering::Relaxed);
        let n = self.slots.len() as u64;
        if h >= n {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            metrics::tally(Total::TraceEventsDropped);
        }
        let slot = &self.slots[(h % n) as usize];
        let v = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(v + 1, Ordering::SeqCst);
        for (w, val) in slot.words.iter().zip(words) {
            w.store(val, Ordering::Relaxed);
        }
        slot.seq.store(v + 2, Ordering::SeqCst);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Seqlock read of logical index `i` (must be in `[head-slots, head)`).
    fn read(&self, i: u64) -> Option<[u64; WORDS]> {
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        for _ in 0..4 {
            let v1 = slot.seq.load(Ordering::SeqCst);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut out = [0u64; WORDS];
            for (o, w) in out.iter_mut().zip(&slot.words) {
                *o = w.load(Ordering::Relaxed);
            }
            let v2 = slot.seq.load(Ordering::SeqCst);
            if v1 == v2 {
                return Some(out);
            }
        }
        None
    }
}

static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static ENABLE_COUNT: AtomicU32 = AtomicU32::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RING_SLOTS: AtomicUsize = AtomicUsize::new(DEFAULT_RING_SLOTS);
static START: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

#[inline]
fn now_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether tracing is currently enabled (one relaxed load — this is the
/// entire cost of every emission site while tracing is off).
#[inline]
pub fn enabled() -> bool {
    ENABLE_COUNT.load(Ordering::Relaxed) != 0
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn emit(kind: u8, sym: Sym, aux: u8, aux2: u8, flags: u8, a: u64, b: u64, c: u64) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let words = [pack0(kind, sym, aux, aux2, flags), seq, a, b, c];
    RING.with(|cell| {
        let mut r = cell.borrow_mut();
        let ring = r.get_or_insert_with(|| {
            let ring = Arc::new(Ring::new(RING_SLOTS.load(Ordering::Relaxed)));
            REGISTRY.lock().push(Arc::clone(&ring));
            ring
        });
        ring.push(words);
    });
}

// ----------------------------------------------------------------------
// Configuration and the RAII enable guard
// ----------------------------------------------------------------------

/// Tracing configuration. Off by default; build one and call
/// [`TraceConfig::enable`] to turn collection on for a scope.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Slots per thread ring (rounded up to a power of two, min 16). Applies
    /// to rings created after enabling — a thread's ring keeps its size for
    /// the thread's lifetime, so set this before spawning traced workers.
    pub ring_slots: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_slots: DEFAULT_RING_SLOTS,
        }
    }
}

impl TraceConfig {
    /// Enable tracing for the lifetime of the returned guard (RAII;
    /// reentrant — nested guards keep tracing on until the last one drops).
    /// The outermost enable resets all rings and the dropped accounting, so
    /// a fresh guard starts a fresh trace.
    pub fn enable(self) -> TraceGuard {
        let slots = self.ring_slots.max(16).next_power_of_two();
        if ENABLE_COUNT.fetch_add(1, Ordering::SeqCst) == 0 {
            RING_SLOTS.store(slots, Ordering::Relaxed);
            for ring in REGISTRY.lock().iter() {
                ring.head.store(0, Ordering::Release);
                ring.dropped.store(0, Ordering::Relaxed);
            }
        }
        TraceGuard { _priv: () }
    }
}

/// RAII guard returned by [`TraceConfig::enable`]; tracing stays on until
/// every live guard has dropped.
#[must_use = "tracing stays enabled only while the guard is live"]
pub struct TraceGuard {
    _priv: (),
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ENABLE_COUNT.fetch_sub(1, Ordering::SeqCst);
    }
}

// ----------------------------------------------------------------------
// Emission API — fixed-width, no-alloc (txlint TX009)
// ----------------------------------------------------------------------

#[inline]
pub(crate) fn txn_begin(txn: u64) {
    if enabled() {
        emit(K_TXN_BEGIN, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn txn_commit(txn: u64) {
    if enabled() {
        emit(K_TXN_COMMIT, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn txn_abort(txn: u64, cause: AbortCause, culprit: u64) {
    if enabled() {
        emit(
            K_TXN_ABORT,
            Sym::UNKNOWN,
            cause_code(cause),
            0,
            0,
            txn,
            culprit,
            now_ns(),
        );
    }
}

#[inline]
pub(crate) fn frame_retry(txn: u64) {
    if enabled() {
        emit(K_FRAME_RETRY, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn open_commit(txn: u64) {
    if enabled() {
        emit(K_OPEN_COMMIT, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn open_retry(txn: u64) {
    if enabled() {
        emit(K_OPEN_RETRY, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn open_flattened(txn: u64) {
    if enabled() {
        emit(K_OPEN_FLAT, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

/// Record a txn-local lock-cache hit: transaction `txn` already held the
/// `(kind, key_hash)` lock on `class` and skipped the stripe round trip.
/// Public for the collection layer's kernel — the no-alloc emission API
/// (txlint TX009).
#[inline]
pub fn lock_cache_hit(txn: u64, class: Sym, kind: LockKind, key_hash: u64) {
    if enabled() {
        emit(
            K_CACHE_HIT,
            class,
            kind as u8,
            0,
            0,
            txn,
            key_hash,
            now_ns(),
        );
    }
}

#[inline]
pub(crate) fn snapshot_txn(txn: u64, reads: u64) {
    if enabled() {
        emit(K_SNAPSHOT_TXN, Sym::UNKNOWN, 0, 0, 0, txn, reads, now_ns());
    }
}

#[inline]
pub(crate) fn snapshot_fallback(txn: u64) {
    if enabled() {
        emit(K_SNAPSHOT_FALLBACK, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn lane_enter(txn: u64) {
    if enabled() {
        emit(K_LANE_ENTER, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn lane_exit(txn: u64) {
    if enabled() {
        emit(K_LANE_EXIT, Sym::UNKNOWN, 0, 0, 0, txn, 0, now_ns());
    }
}

#[inline]
pub(crate) fn var_lock_spin(var: u64) {
    if enabled() {
        emit(K_VAR_LOCK_SPIN, Sym::UNKNOWN, 0, 0, 0, var, 0, now_ns());
    }
}

/// Record a contended semantic-table stripe acquisition (a blocked lock
/// take or handler sweep). `stripe` is the stripe index, `u64::MAX` for the
/// global point-lock stripe. Public for the collection layer's lock tables.
#[inline]
pub fn sem_lock_blocked(class: Sym, stripe: u64) {
    if enabled() {
        emit(K_SEM_BLOCKED, class, 0, 0, 0, stripe, 0, now_ns());
    }
}

/// Record a semantic lock acquisition by transaction `txn`. `key_hash` is
/// the key's stripe hash (0 for point locks). Public for the collection
/// layer's lock tables — the no-alloc emission API (txlint TX009).
#[inline]
pub fn sem_lock_acquired(txn: u64, class: Sym, kind: LockKind, key_hash: u64) {
    if enabled() {
        emit(
            K_SEM_ACQUIRED,
            class,
            kind as u8,
            0,
            0,
            txn,
            key_hash,
            now_ns(),
        );
    }
}

/// Record the release of `count` semantic locks of one kind held by `txn`
/// (emitted by commit/abort handler sweeps). Public for the collection
/// layer's lock tables.
#[inline]
pub fn sem_lock_released(txn: u64, class: Sym, kind: LockKind, count: u64) {
    if enabled() && count > 0 {
        emit(
            K_SEM_RELEASED,
            class,
            kind as u8,
            0,
            0,
            txn,
            count,
            now_ns(),
        );
    }
}

/// Record a landed doom edge `doomer → victim` over a semantic lock of
/// `kind` on `key_hash`, with the conflicting `(obs, effect)` mode-pair
/// codes and the `mode_compatible` verdict that justified the doom. Public
/// for the collection layer's doom protocol.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn doom_edge(
    doomer: u64,
    victim: u64,
    class: Sym,
    kind: LockKind,
    key_hash: u64,
    obs: u8,
    effect: u8,
    compatible: bool,
) {
    if enabled() {
        emit(
            K_DOOM_EDGE,
            class,
            kind as u8,
            (obs << 4) | (effect & 0x0f),
            compatible as u8,
            doomer,
            victim,
            key_hash,
        );
    }
}

// ----------------------------------------------------------------------
// Snapshot and JSON export
// ----------------------------------------------------------------------

/// A point-in-time copy of every thread's ring, decoded and ordered by
/// global sequence number.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Decoded events, ascending `seq`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow (drop-oldest) since tracing was enabled.
    pub dropped: u64,
}

/// Collect and decode the current contents of every thread's ring. Safe to
/// call while tracing is live (torn slots are detected and skipped), but
/// meant to be called after the traced workload quiesces.
pub fn snapshot() -> TraceSnapshot {
    let rings: Vec<Arc<Ring>> = REGISTRY.lock().clone();
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in rings {
        dropped += ring.dropped.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        let n = ring.slots.len() as u64;
        let lo = head.saturating_sub(n);
        for i in lo..head {
            if let Some(words) = ring.read(i) {
                if let Some(ev) = TraceEvent::decode(words) {
                    events.push(ev);
                }
            }
        }
    }
    events.sort_by_key(|e| e.seq());
    TraceSnapshot { events, dropped }
}

impl TraceSnapshot {
    /// Export as JSON: `{"version":1,"dropped":N,"events":[...]}`. Each
    /// event object carries a `"kind"` tag plus its fields; symbols and
    /// mode codes are resolved to names. Hand-rolled (no serde — the
    /// exporter runs outside transactions, so allocation is fine here).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        let _ = write!(
            s,
            "{{\"version\":1,\"dropped\":{},\"events\":[",
            self.dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = match e {
                TraceEvent::TxnBegin { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"txn_begin\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::TxnCommit { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"txn_commit\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::TxnAbort {
                    seq,
                    txn,
                    cause,
                    culprit,
                    ts,
                } => write!(
                    s,
                    "{{\"kind\":\"txn_abort\",\"seq\":{seq},\"txn\":{txn},\"cause\":\"{}\",\"culprit\":{culprit},\"ts\":{ts}}}",
                    cause_name(*cause)
                ),
                TraceEvent::FrameRetry { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"frame_retry\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::OpenCommit { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"open_commit\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::OpenRetry { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"open_retry\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::LaneEnter { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"lane_enter\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::LaneExit { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"lane_exit\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::VarLockSpin { seq, var, ts } => write!(
                    s,
                    "{{\"kind\":\"var_lock_spin\",\"seq\":{seq},\"var\":{var},\"ts\":{ts}}}"
                ),
                TraceEvent::SemLockBlocked {
                    seq,
                    class,
                    stripe,
                    ts,
                } => write!(
                    s,
                    "{{\"kind\":\"sem_lock_blocked\",\"seq\":{seq},\"class\":\"{}\",\"stripe\":{stripe},\"ts\":{ts}}}",
                    class.name()
                ),
                TraceEvent::SemLockAcquired {
                    seq,
                    txn,
                    class,
                    kind,
                    key_hash,
                    ts,
                } => write!(
                    s,
                    "{{\"kind\":\"sem_lock_acquired\",\"seq\":{seq},\"txn\":{txn},\"class\":\"{}\",\"lock\":\"{}\",\"key_hash\":{key_hash},\"ts\":{ts}}}",
                    class.name(),
                    kind.name()
                ),
                TraceEvent::SemLockReleased {
                    seq,
                    txn,
                    class,
                    kind,
                    count,
                    ts,
                } => write!(
                    s,
                    "{{\"kind\":\"sem_lock_released\",\"seq\":{seq},\"txn\":{txn},\"class\":\"{}\",\"lock\":\"{}\",\"count\":{count},\"ts\":{ts}}}",
                    class.name(),
                    kind.name()
                ),
                TraceEvent::DoomEdge {
                    seq,
                    doomer,
                    victim,
                    class,
                    kind,
                    key_hash,
                    obs,
                    effect,
                    compatible,
                } => write!(
                    s,
                    "{{\"kind\":\"doom_edge\",\"seq\":{seq},\"doomer\":{doomer},\"victim\":{victim},\"class\":\"{}\",\"lock\":\"{}\",\"key_hash\":{key_hash},\"obs\":\"{}\",\"effect\":\"{}\",\"compatible\":{compatible}}}",
                    class.name(),
                    kind.name(),
                    obs_name(*obs),
                    effect_name(*effect)
                ),
                TraceEvent::OpenFlattened { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"open_flattened\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
                TraceEvent::LockCacheHit {
                    seq,
                    txn,
                    class,
                    kind,
                    key_hash,
                    ts,
                } => write!(
                    s,
                    "{{\"kind\":\"lock_cache_hit\",\"seq\":{seq},\"txn\":{txn},\"class\":\"{}\",\"lock\":\"{}\",\"key_hash\":{key_hash},\"ts\":{ts}}}",
                    class.name(),
                    kind.name()
                ),
                TraceEvent::SnapshotTxn { seq, txn, reads, ts } => write!(
                    s,
                    "{{\"kind\":\"snapshot_txn\",\"seq\":{seq},\"txn\":{txn},\"reads\":{reads},\"ts\":{ts}}}"
                ),
                TraceEvent::SnapshotFallback { seq, txn, ts } => write!(
                    s,
                    "{{\"kind\":\"snapshot_fallback\",\"seq\":{seq},\"txn\":{txn},\"ts\":{ts}}}"
                ),
            };
        }
        s.push_str("]}");
        s
    }
}

/// Trace state is process-global; unit tests that touch it serialize on
/// this mutex so rings, resets, and snapshots do not interleave.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_means_no_events() {
        let _g = TEST_LOCK.lock();
        assert!(!enabled());
        txn_begin(12345);
        let snap = snapshot();
        assert!(!snap
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::TxnBegin { txn: 12345, .. })));
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let _g = TEST_LOCK.lock();
        let guard = TraceConfig::default().enable();
        let sym = intern("probe-class");
        txn_begin(1);
        txn_commit(1);
        txn_abort(2, AbortCause::Doomed, 1);
        frame_retry(3);
        open_commit(3);
        open_retry(3);
        lane_enter(1);
        lane_exit(1);
        var_lock_spin(77);
        sem_lock_blocked(sym, u64::MAX);
        sem_lock_acquired(4, sym, LockKind::Key, 0xdead);
        sem_lock_released(4, sym, LockKind::Key, 3);
        doom_edge(1, 2, sym, LockKind::Size, 0, 1, 1, false);
        let snap = snapshot();
        drop(guard);
        let find = |f: &dyn Fn(&TraceEvent) -> bool| snap.events.iter().any(f);
        assert!(find(&|e| matches!(e, TraceEvent::TxnBegin { txn: 1, .. })));
        assert!(find(&|e| matches!(
            e,
            TraceEvent::TxnAbort {
                txn: 2,
                cause: AbortCause::Doomed,
                culprit: 1,
                ..
            }
        )));
        assert!(find(&|e| matches!(
            e,
            TraceEvent::SemLockAcquired {
                txn: 4,
                kind: LockKind::Key,
                key_hash: 0xdead,
                ..
            }
        )));
        assert!(find(&|e| matches!(
            e,
            TraceEvent::DoomEdge {
                doomer: 1,
                victim: 2,
                kind: LockKind::Size,
                obs: 1,
                effect: 1,
                compatible: false,
                ..
            }
        )));
        // seq is strictly increasing in the snapshot.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq()).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        // JSON export mentions the interned class name and the mode pair.
        let json = snap.to_json();
        assert!(json.contains("\"class\":\"probe-class\""));
        assert!(json.contains("\"obs\":\"Size\""));
        assert!(json.contains("\"effect\":\"SizeChange\""));
        assert!(json.starts_with("{\"version\":1,"));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = TEST_LOCK.lock();
        let guard = TraceConfig { ring_slots: 16 }.enable();
        // A fresh thread gets a fresh ring at the configured size.
        let handle = std::thread::spawn(|| {
            for i in 0..40u64 {
                txn_begin(7_000_000 + i);
            }
        });
        handle.join().unwrap();
        let snap = snapshot();
        drop(guard);
        let mine: Vec<u64> = snap
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TxnBegin { txn, .. } if (7_000_000..7_000_040).contains(txn) => {
                    Some(*txn - 7_000_000)
                }
                _ => None,
            })
            .collect();
        // Oldest dropped: only the final 16 of the 40 events survive.
        assert_eq!(mine, (24..40).collect::<Vec<u64>>());
        assert!(snap.dropped >= 24);
    }

    #[test]
    fn interning_is_stable_and_reversible() {
        let a = intern("alpha-table");
        let b = intern("beta-table");
        assert_ne!(a, b);
        assert_eq!(intern("alpha-table"), a);
        assert_eq!(a.name(), "alpha-table");
        assert_eq!(Sym::UNKNOWN.name(), "?");
    }
}
