//! The runtime's one counter store: always-on process totals plus opt-in
//! dimensional windowed metrics.
//!
//! txlint: metrics — emission sites in this file and in every other file
//! carrying this marker must not allocate or format inside metrics-emitter
//! argument spans (TX014, the mirror of the trace layer's TX009).
//!
//! [`crate::trace`] answers *why* for individual events (word-packed
//! rings). This module answers *how much*, and — for the adaptive
//! contention-management work — **which class, which stripe, which cause,
//! at what rate, and at what latency cost**, windowed. Every count lives in
//! one **per-thread shard** with a single writer, the owning thread:
//!
//! * **totals** — a fixed array with one slot per [`StatsSnapshot`] field
//!   ([`Total`]: commits, aborts by cause, lane entries, open commits, ...).
//!   Always on: the owner bumps its slot with a plain relaxed load and
//!   store, so no event pays a shared atomic read-modify-write.
//!   [`global_stats`] sums the totals over every shard;
//! * a **dimensional slab** of counters keyed by `(class, stripe, kind)` —
//!   dooms landed, stripe blocks, cache hits, epoch pins — in a
//!   fixed-capacity open-addressed table ([`SLAB_SLOTS`] slots, zero
//!   allocation per emission; overflow is counted, never silent). Opt-in;
//! * **log2-bucketed latency histograms** (commit latency, semantic-lock
//!   wait, transaction wall time, snapshot read time) with p50/p90/p99/max
//!   extraction. Opt-in;
//! * a **windowing reaper**: [`window`] merges every shard into a
//!   [`MetricsWindow`], and [`MetricsWindow::diff`] generalizes
//!   [`StatsSnapshot::diff`] to the dimensional space, turning raw counters
//!   into per-interval rates;
//! * **exporters** — Prometheus text exposition ([`MetricsWindow::to_prometheus`])
//!   and the repo's hand-rolled JSON style ([`MetricsWindow::to_json`]);
//! * a **flight recorder** ([`FlightRecorder`]): trace rings and metrics run
//!   continuously at their low always-on cost, and an armed doom-rate
//!   trigger dumps the ring snapshot plus the offending metrics window to
//!   disk, so an abort storm narrates itself post-hoc.
//!
//! ## Shard lifetime
//!
//! A thread claims a shard on its first event. When the thread exits, its
//! shard is **parked** and handed to the next thread that claims one (as
//! `epoch.rs` recycles pin slots): the shard stays registered, so its
//! counts survive the thread, and the registry grows with peak thread
//! concurrency instead of with every thread ever spawned. A thread-local
//! destructor that runs after the shard's own counts its totals into a
//! process-wide spill.
//!
//! ## Off-cost discipline
//!
//! The totals cost one thread-local access and one store per event. The
//! opt-in parts follow the trace layer: when no [`MetricsGuard`] is live,
//! a dimensional or histogram site is **one relaxed atomic load**
//! ([`enabled`]) and nothing else. Timing sites use [`timer`], which
//! returns `None` while disabled so the `Instant::now()` call itself is
//! skipped.

use crate::interrupt::AbortCause;
use crate::trace::{self, Sym};
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ----------------------------------------------------------------------
// Dimensions
// ----------------------------------------------------------------------

/// Stripe dimension value for events on a collection's **global stripe**
/// (point locks: size/empty/endpoint/range), mirroring the trace layer's
/// `u64::MAX` convention.
pub const STRIPE_GLOBAL: u16 = 0xFFFF;

/// Stripe dimension value for events with **no stripe axis** (process-level
/// events: commits, aborts, lane entries, epoch pins, snapshot fallbacks).
pub const STRIPE_NONE: u16 = 0xFFFE;

/// Largest representable real stripe index; higher indices clamp here (the
/// dimensional grid is u16, real tables are never near this wide).
pub const STRIPE_MAX: u16 = 0xFFFD;

/// Map a raw stripe index (the trace convention: `u64::MAX` = global
/// stripe) onto the u16 metrics dimension.
pub fn stripe_dim(stripe: u64) -> u16 {
    if stripe == u64::MAX {
        STRIPE_GLOBAL
    } else if stripe >= STRIPE_MAX as u64 {
        STRIPE_MAX
    } else {
        stripe as u16
    }
}

/// Render a stripe dimension value for human/exporter output.
pub fn stripe_label(stripe: u16) -> String {
    match stripe {
        STRIPE_GLOBAL => "global".to_string(),
        STRIPE_NONE => "-".to_string(),
        s => s.to_string(),
    }
}

/// What a dimensional counter counts. The `(class, stripe, kind)` triple is
/// the registry key; kinds without a natural class/stripe use
/// [`Sym::UNKNOWN`] / [`STRIPE_NONE`]. The process-level kinds that have a
/// [`Total`] (lane entries, commits, the three abort causes, snapshot
/// fallbacks) are read from the totals, so a window reports them
/// cumulative since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum MetricKind {
    /// A semantic doom landed against a victim holding a lock of this
    /// class, attributed to the stripe the conflicting lock lives in (key
    /// dooms: the key's default-grid stripe bucket; point/range dooms: the
    /// global stripe).
    Doom = 0,
    /// A semantic stripe acquisition (key stripe or global stripe) found
    /// the mutex held and had to block.
    StripeBlocked = 1,
    /// A `(kind, key)` acquisition served from the kernel's txn-local lock
    /// cache (no stripe round trip).
    CacheHit = 2,
    /// A handler-lane acquisition.
    LaneEntry = 3,
    /// A top-level commit.
    Commit = 4,
    /// An abort whose cause was memory-level read invalidation.
    AbortReadInvalid = 5,
    /// An abort whose cause was a semantic doom.
    AbortDoomed = 6,
    /// An abort requested by the program.
    AbortExplicit = 7,
    /// A snapshot transaction abandoning to the validated path.
    SnapshotFallback = 8,
    /// An epoch pin taken by a snapshot transaction.
    EpochPin = 9,
}

/// Every [`MetricKind`], for exporters and table renderers.
pub const ALL_KINDS: [MetricKind; 10] = [
    MetricKind::Doom,
    MetricKind::StripeBlocked,
    MetricKind::CacheHit,
    MetricKind::LaneEntry,
    MetricKind::Commit,
    MetricKind::AbortReadInvalid,
    MetricKind::AbortDoomed,
    MetricKind::AbortExplicit,
    MetricKind::SnapshotFallback,
    MetricKind::EpochPin,
];

impl MetricKind {
    /// Stable lowercase label (the Prometheus `kind` label value).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Doom => "doom",
            MetricKind::StripeBlocked => "stripe_blocked",
            MetricKind::CacheHit => "cache_hit",
            MetricKind::LaneEntry => "lane_entry",
            MetricKind::Commit => "commit",
            MetricKind::AbortReadInvalid => "abort_read_invalid",
            MetricKind::AbortDoomed => "abort_doomed",
            MetricKind::AbortExplicit => "abort_explicit",
            MetricKind::SnapshotFallback => "snapshot_fallback",
            MetricKind::EpochPin => "epoch_pin",
        }
    }

    fn from_u16(v: u16) -> Option<MetricKind> {
        ALL_KINDS.get(v as usize).copied()
    }

    /// The always-on total this kind is read from, if it has one.
    fn total(self) -> Option<Total> {
        match self {
            MetricKind::LaneEntry => Some(Total::LaneEntries),
            MetricKind::Commit => Some(Total::Commits),
            MetricKind::AbortReadInvalid => Some(Total::AbortsReadInvalid),
            MetricKind::AbortDoomed => Some(Total::AbortsDoomed),
            MetricKind::AbortExplicit => Some(Total::AbortsExplicit),
            MetricKind::SnapshotFallback => Some(Total::SnapshotFallbacks),
            MetricKind::Doom
            | MetricKind::StripeBlocked
            | MetricKind::CacheHit
            | MetricKind::EpochPin => None,
        }
    }
}

/// Which latency distribution a timing sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistKind {
    /// Top-level commit latency: entry of `try_commit_top` to post-publish.
    CommitLatency = 0,
    /// Time blocked acquiring a contended semantic stripe (key or global).
    SemLockWait = 1,
    /// Transaction wall time across all retry attempts (`atomic_with`
    /// entry to committed return).
    TxnWall = 2,
    /// Snapshot (`atomic_read`) wall time, successful snapshot path only.
    SnapshotRead = 3,
}

/// Number of histogram kinds (shard array width).
pub const HIST_KINDS: usize = 4;

/// Every [`HistKind`], for exporters and table renderers.
pub const ALL_HISTS: [HistKind; HIST_KINDS] = [
    HistKind::CommitLatency,
    HistKind::SemLockWait,
    HistKind::TxnWall,
    HistKind::SnapshotRead,
];

impl HistKind {
    /// Stable metric name (Prometheus series prefix; unit is nanoseconds).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::CommitLatency => "stm_commit_latency_ns",
            HistKind::SemLockWait => "stm_sem_lock_wait_ns",
            HistKind::TxnWall => "stm_txn_wall_ns",
            HistKind::SnapshotRead => "stm_snapshot_read_ns",
        }
    }
}

// ----------------------------------------------------------------------
// Registry key packing
// ----------------------------------------------------------------------

/// `(class, stripe, kind)` packed into one u64 slab key. The kind field is
/// stored +1 so a fully-zero triple never packs to 0 — 0 is the slab's
/// empty-slot sentinel.
fn pack_key(class: Sym, stripe: u16, kind: MetricKind) -> u64 {
    ((class.0 as u64) << 32) | ((stripe as u64) << 16) | (kind as u64 + 1)
}

fn unpack_key(key: u64) -> Option<(Sym, u16, MetricKind)> {
    let kind = MetricKind::from_u16(((key & 0xFFFF) - 1) as u16)?;
    Some((
        Sym(((key >> 32) & 0xFFFF) as u16),
        ((key >> 16) & 0xFFFF) as u16,
        kind,
    ))
}

/// Slot-index mixer for the open-addressed slab (golden-ratio multiply; the
/// packed key's entropy is in the low/mid bits).
fn slot_mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(21)
}

// ----------------------------------------------------------------------
// Always-on totals
// ----------------------------------------------------------------------

/// Declares [`Total`] and [`StatsSnapshot`] from one list, so a counter's
/// index and its snapshot field cannot drift apart.
macro_rules! totals {
    ($($(#[$doc:meta])* $field:ident: $variant:ident,)*) => {
        /// One always-on process-level counter: an index into every shard's
        /// totals array, named after its [`StatsSnapshot`] field.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Total {
            $($(#[$doc])* $variant,)*
        }

        /// The always-on totals summed over every shard: see
        /// [`global_stats`]. Harnesses snapshot before and after a measured
        /// region and take [`StatsSnapshot::diff`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// Number of [`Total`]s (the width of a shard's totals array).
        const TOTALS: usize = [$(Total::$variant),*].len();

        impl StatsSnapshot {
            fn from_totals(t: [u64; TOTALS]) -> StatsSnapshot {
                StatsSnapshot { $($field: t[Total::$variant as usize],)* }
            }

            fn to_totals(self) -> [u64; TOTALS] {
                [$(self.$field),*]
            }
        }
    };
}

totals! {
    /// Top-level commits.
    commits: Commits,
    /// Aborts from read-set invalidation (memory-level conflicts).
    aborts_read_invalid: AbortsReadInvalid,
    /// Aborts from program-directed abort (semantic conflicts).
    aborts_doomed: AbortsDoomed,
    /// Aborts requested by the program itself.
    aborts_explicit: AbortsExplicit,
    /// Open-nested child commits.
    open_commits: OpenCommits,
    /// Open-nested child re-executions.
    open_retries: OpenRetries,
    /// Flattened read-only opens: protocol-equivalent `open` calls served
    /// with no child transaction (direct validated reads) — each one is an
    /// open commit that did not have to happen.
    open_flattened: OpenFlattened,
    /// Txn-local semantic-lock cache hits: `(kind, key)` acquisitions the
    /// kernel satisfied from the transaction's own cache with zero
    /// shared-memory traffic.
    lock_cache_hits: LockCacheHits,
    /// Closed-nested partial rollbacks (frame re-executions).
    frame_retries: FrameRetries,
    /// Commit/abort handler invocations; a participant's `commit` or
    /// `abort` counts as one run.
    handler_runs: HandlerRuns,
    /// Commit-path contention: per-var commit-lock acquisitions that found
    /// the lock held and had to spin.
    var_lock_spins: VarLockSpins,
    /// Handler-lane acquisitions (handler execution and writing open-nested
    /// commits).
    lane_entries: LaneEntries,
    /// Top-level commits that never touched the handler lane — the fully
    /// parallel fast path.
    lane_free_commits: LaneFreeCommits,
    /// Semantic-table contention: stripe acquisitions (key stripe or global
    /// stripe) that found the mutex held and had to block.
    stripe_lock_spins: StripeLockSpins,
    /// Acquisitions of a collection's global stripe (size/empty/endpoint/
    /// range point locks) — the serialized residue of semantic locking.
    global_stripe_entries: GlobalStripeEntries,
    /// Program-directed dooms *issued*: successful [`crate::TxHandle::doom`]
    /// calls that transitioned a victim to the doomed state. Cross-checks
    /// against `aborts_doomed` (dooms *absorbed*) and the trace layer's
    /// `DoomEdge` events — issued ≥ absorbed, because a doomed attempt
    /// observes its doom exactly once but may be doomed by several commits.
    dooms_issued: DoomsIssued,
    /// Trace events lost to ring-buffer overflow (drop-oldest) in
    /// [`crate::trace`]. Zero whenever tracing is off.
    trace_events_dropped: TraceEventsDropped,
    /// Variable reads served by snapshot ([`crate::atomic_read`])
    /// transactions out of the multi-version chain — reads with no read-set
    /// entry, no validation, and no semantic locks.
    snapshot_reads: SnapshotReads,
    /// Snapshot transactions that abandoned to the validated path because a
    /// version chain had been truncated past their snapshot (the counted,
    /// never-silent escape hatch of the wait-free read design).
    snapshot_fallbacks: SnapshotFallbacks,
    /// Version-chain entries reclaimed: dropped past the epoch horizon or
    /// the depth bound, or cleared when no snapshot reader was pinned.
    chain_entries_reclaimed: ChainEntriesReclaimed,
    /// Owner-block pins: a nesting frame logged its first entry for a cell
    /// of an owner block it did not already hold, and took one `Arc` clone
    /// of the block for all its entries there.
    owner_pins: OwnerPins,
}

impl StatsSnapshot {
    /// Total aborts of top-level attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts_read_invalid + self.aborts_doomed + self.aborts_explicit
    }

    /// Counter-wise difference (`self - earlier`), saturating. The harness
    /// idiom is snapshot-before, run, snapshot-after, `after.diff(&before)`;
    /// the totals only grow, so a window is exact.
    #[must_use]
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let (now, then) = (self.to_totals(), earlier.to_totals());
        StatsSnapshot::from_totals(std::array::from_fn(|i| now[i].saturating_sub(then[i])))
    }
}

/// Snapshot the always-on totals: every shard's (live or parked) plus the
/// spill, summed. Cumulative since process start.
#[must_use]
pub fn global_stats() -> StatsSnapshot {
    StatsSnapshot::from_totals(sum_totals(&SHARDS.lock().all))
}

fn sum_totals(shards: &[&Shard]) -> [u64; TOTALS] {
    std::array::from_fn(|i| {
        let owned: u64 = shards
            .iter()
            .map(|s| s.totals[i].load(Ordering::Relaxed))
            .sum();
        owned + SPILL[i].load(Ordering::Relaxed)
    })
}

// ----------------------------------------------------------------------
// Per-thread shards
// ----------------------------------------------------------------------

/// Per-thread dimensional-slab capacity (slots; power of two).
pub const SLAB_SLOTS: usize = 512;

/// One dimensional-counter slot: `key == 0` means empty. Written only by
/// the owning thread; scanned concurrently by [`window`].
struct Slot {
    key: AtomicU64,
    count: AtomicU64,
}

/// One per-kind histogram shard: 64 log2 buckets (bucket *b* holds samples
/// with `floor(log2(max(v,1))) == b`), plus the exact running sum and max.
struct HistShard {
    buckets: [AtomicU64; 64],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let b = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// One thread's shard: the always-on totals plus the opt-in parts, which
/// the owner allocates on its first dimensional or histogram event (a
/// thread that never counts with metrics enabled costs only its totals).
/// Single writer (the owning thread), many concurrent readers (snapshots
/// and window merges).
struct Shard {
    totals: [AtomicU64; TOTALS],
    dims: OnceLock<Box<Dims>>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            totals: std::array::from_fn(|_| AtomicU64::new(0)),
            dims: OnceLock::new(),
        }
    }

    /// Owner-thread total increment: a plain load and store — nobody else
    /// writes this shard's totals, and nothing ever resets them.
    fn add(&self, t: Total, n: u64) {
        let c = &self.totals[t as usize];
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// A shard's opt-in parts: the dimensional slab and one histogram shard
/// per [`HistKind`].
struct Dims {
    slots: [Slot; SLAB_SLOTS],
    hists: [HistShard; HIST_KINDS],
}

impl Dims {
    fn new() -> Dims {
        Dims {
            slots: std::array::from_fn(|_| Slot {
                key: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
            hists: std::array::from_fn(|_| HistShard::new()),
        }
    }

    /// Owner-thread dimensional increment. Linear probe from the mixed
    /// slot; a full slab counts the increment as dropped rather than
    /// spilling.
    fn bump(&self, key: u64) {
        let mask = SLAB_SLOTS - 1;
        let mut idx = slot_mix(key) as usize & mask;
        for _ in 0..SLAB_SLOTS {
            let k = self.slots[idx].key.load(Ordering::Relaxed);
            if k == key {
                self.slots[idx].count.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if k == 0 {
                // Single writer per shard: no claim race. A concurrent
                // window scan may observe the key before the count lands —
                // it reads a benign zero entry.
                self.slots[idx].key.store(key, Ordering::Relaxed);
                self.slots[idx].count.fetch_add(1, Ordering::Relaxed);
                return;
            }
            idx = (idx + 1) & mask;
        }
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        for s in &self.slots {
            s.key.store(0, Ordering::Relaxed);
            s.count.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

/// Every shard ever claimed (`all`: it only grows, and is what readers
/// sum) and the shards of exited threads waiting for a new owner
/// (`parked`). Shards live for the rest of the process.
struct Shards {
    all: Vec<&'static Shard>,
    parked: Vec<&'static Shard>,
}

static SHARDS: Mutex<Shards> = Mutex::new(Shards {
    all: Vec::new(),
    parked: Vec::new(),
});
/// Totals counted by a thread after its shard was parked (a thread-local
/// destructor that runs after the shard's own). Shared, so atomic adds.
static SPILL: [AtomicU64; TOTALS] = [const { AtomicU64::new(0) }; TOTALS];
static ENABLE_COUNT: AtomicU32 = AtomicU32::new(0);
/// Dimensional increments and histogram samples that found no slot (a full
/// slab, or no shard) — the counted, never silent overflow path.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// A thread's claim on its shard; dropping it (thread exit) parks the
/// shard for the next thread.
struct Owned(&'static Shard);

impl Drop for Owned {
    fn drop(&mut self) {
        SHARDS.lock().parked.push(self.0);
    }
}

thread_local! {
    static SHARD: OnceCell<Owned> = const { OnceCell::new() };
}

/// Is the dimensional layer live? One relaxed load — the entire cost of
/// every dimensional or histogram site while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLE_COUNT.load(Ordering::Relaxed) != 0
}

/// Run `f` on this thread's shard, claiming one on the thread's first
/// event (a parked shard before a new one). `false`, without running `f`,
/// once the thread's shard has been parked.
#[inline]
fn with_shard(f: impl FnOnce(&Shard)) -> bool {
    SHARD.try_with(|cell| f(cell.get_or_init(claim).0)).is_ok()
}

/// [`with_shard`] on this thread's opt-in parts, allocating them on first
/// use.
fn with_dims(f: impl FnOnce(&Dims)) -> bool {
    with_shard(|s| f(s.dims.get_or_init(|| Box::new(Dims::new()))))
}

fn claim() -> Owned {
    let mut shards = SHARDS.lock();
    let shard = match shards.parked.pop() {
        Some(parked) => parked,
        None => {
            let fresh: &'static Shard = Box::leak(Box::new(Shard::new()));
            shards.all.push(fresh);
            fresh
        }
    };
    Owned(shard)
}

/// Number of shards ever registered: the peak number of threads that
/// counted at the same time, since exited threads' shards are reused.
pub fn registered_shards() -> usize {
    SHARDS.lock().all.len()
}

// ----------------------------------------------------------------------
// Enable / disable
// ----------------------------------------------------------------------

/// Configuration for [`MetricsConfig::enable`]; build it with
/// `MetricsConfig::default()`. Nothing is configurable today: the slab
/// holds [`SLAB_SLOTS`] keys per thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsConfig {
    _priv: (),
}

impl MetricsConfig {
    /// Turn the dimensional layer on, returning the RAII guard that keeps
    /// it on. Enables nest (refcounted, like [`crate::trace::TraceConfig`]);
    /// the **outermost** enable zeroes every shard's slab and histograms so
    /// windows start clean. The totals are never reset.
    pub fn enable(self) -> MetricsGuard {
        let shards = SHARDS.lock();
        if ENABLE_COUNT.load(Ordering::Relaxed) == 0 {
            for dims in shards.all.iter().filter_map(|s| s.dims.get()) {
                dims.reset();
            }
            DROPPED.store(0, Ordering::Relaxed);
        }
        ENABLE_COUNT.fetch_add(1, Ordering::Relaxed);
        MetricsGuard { _priv: () }
    }
}

/// RAII handle keeping the dimensional layer enabled; dropping the last
/// live guard disables it (its sites return to one relaxed load).
#[must_use = "metrics stay enabled only while the guard is live"]
pub struct MetricsGuard {
    _priv: (),
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        ENABLE_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// Emission (hot paths — no allocation, no formatting; TX014)
// ----------------------------------------------------------------------

/// Count one event on total `t`. Always on.
#[inline]
pub fn tally(t: Total) {
    tally_n(t, 1);
}

/// Count `n` events on total `t` (batched sites: snapshot reads, reclaimed
/// chain entries).
pub(crate) fn tally_n(t: Total, n: u64) {
    if n > 0 && !with_shard(|s| s.add(t, n)) {
        SPILL[t as usize].fetch_add(n, Ordering::Relaxed);
    }
}

#[inline]
fn bump_counter(class: Sym, stripe: u16, kind: MetricKind) {
    if !with_dims(|d| d.bump(pack_key(class, stripe, kind))) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// A top-level commit: counted (with the lane-free fast path when it ran
/// no handlers), and its latency since `start` ([`timer`]) recorded.
pub(crate) fn committed(lane_free: bool, start: Option<Instant>) {
    tally(Total::Commits);
    if lane_free {
        tally(Total::LaneFreeCommits);
    }
    hist_elapsed(HistKind::CommitLatency, start);
}

/// A snapshot attempt ended — `committed`, or abandoned to a fallback or a
/// panic — after serving `reads` variable reads from version chains.
pub(crate) fn snapshot_finished(committed: bool, reads: u64) {
    if committed {
        tally(Total::Commits);
    }
    tally_n(Total::SnapshotReads, reads);
}

/// A top-level abort, counted by cause.
pub(crate) fn abort_counted(cause: AbortCause) {
    tally(match cause {
        AbortCause::ReadInvalid => Total::AbortsReadInvalid,
        AbortCause::Doomed => Total::AbortsDoomed,
        AbortCause::Explicit => Total::AbortsExplicit,
    });
}

/// A semantic doom landed against a lock of `class` on `stripe` (raw
/// convention: `u64::MAX` = global stripe). Called by the collection
/// layer's doom dispatch. Dimensional only.
pub fn doom_landed(class: Sym, stripe: u64) {
    if enabled() {
        bump_counter(class, stripe_dim(stripe), MetricKind::Doom);
    }
}

/// A semantic stripe acquisition blocked on a held mutex: counted in
/// [`Total::StripeLockSpins`], and by class and stripe when enabled.
pub fn stripe_blocked(class: Sym, stripe: u64) {
    tally(Total::StripeLockSpins);
    if enabled() {
        bump_counter(class, stripe_dim(stripe), MetricKind::StripeBlocked);
    }
}

/// A `(kind, key)` acquisition was served by the kernel's txn-local lock
/// cache: counted in [`Total::LockCacheHits`], and by class when enabled.
pub fn cache_hit(class: Sym) {
    tally(Total::LockCacheHits);
    if enabled() {
        bump_counter(class, STRIPE_NONE, MetricKind::CacheHit);
    }
}

/// A snapshot epoch pin was taken. Dimensional only.
pub(crate) fn pin_entered() {
    if enabled() {
        bump_counter(Sym::UNKNOWN, STRIPE_NONE, MetricKind::EpochPin);
    }
}

/// Start a latency measurement: `Some(now)` when metrics are live, `None`
/// (free) when disabled. Pair with [`hist_elapsed`].
#[inline]
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record the time elapsed since a [`timer`] start into `kind`'s
/// histogram; a `None` start (metrics were disabled) is free.
#[inline]
pub fn hist_elapsed(kind: HistKind, start: Option<Instant>) {
    if let Some(t0) = start {
        hist_record_ns(kind, t0.elapsed().as_nanos() as u64);
    }
}

/// Record one latency sample (nanoseconds) into `kind`'s histogram.
pub fn hist_record_ns(kind: HistKind, ns: u64) {
    if enabled() && !with_dims(|d| d.hists[kind as usize].record(ns)) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// Merged histograms
// ----------------------------------------------------------------------

/// A merged (or windowed) log2 histogram: bucket *b* counts samples `v`
/// with `floor(log2(max(v,1))) == b`, i.e. `v` in `[2^b, 2^(b+1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; 64],
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value **since enable** (maxima are not windowable;
    /// a diffed window carries the later snapshot's cumulative max).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            sum: 0,
            max: 0,
        }
    }
}

/// Inclusive upper bound of log2 bucket `b` (the Prometheus `le` value).
pub fn bucket_upper(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

impl Histogram {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to the inclusive
    /// upper bound of the bucket containing the target rank (log2
    /// resolution: at most 2x above the true sample). Zero when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut acc = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= target {
                return bucket_upper(b);
            }
        }
        bucket_upper(63)
    }

    /// Median ([`Histogram::percentile`] at 0.50).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Merge another histogram into this one (bucket-wise add; max of
    /// maxes). Shard merging and cross-backend aggregation both use this.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise saturating difference (`self - earlier`); `max` stays
    /// the later (cumulative) max.
    #[must_use]
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

// ----------------------------------------------------------------------
// Windows
// ----------------------------------------------------------------------

/// A point-in-time merge of every thread's shard — the dimensional
/// generalization of [`StatsSnapshot`]. Obtain with [`window`]; subtract
/// two with [`MetricsWindow::diff`] to get per-interval rates.
#[derive(Debug, Clone)]
pub struct MetricsWindow {
    counters: BTreeMap<u64, u64>,
    hists: [Histogram; HIST_KINDS],
    dropped: u64,
    taken: Option<Instant>,
    wall_ns: u64,
}

/// Merge every registered shard into a [`MetricsWindow`]. Slab counters
/// and histograms are cumulative since the outermost enable; the kinds read
/// from the totals are cumulative since process start. Concurrent recording
/// makes this a consistent-enough snapshot (each counter is read once,
/// monotone).
pub fn window() -> MetricsWindow {
    let mut counters: BTreeMap<u64, u64> = BTreeMap::new();
    let mut hists: [Histogram; HIST_KINDS] = Default::default();
    let shards = SHARDS.lock();
    for dims in shards.all.iter().filter_map(|s| s.dims.get()) {
        for slot in &dims.slots {
            let key = slot.key.load(Ordering::Relaxed);
            if key == 0 {
                continue;
            }
            let count = slot.count.load(Ordering::Relaxed);
            if count > 0 {
                *counters.entry(key).or_insert(0) += count;
            }
        }
        for (kind, h) in dims.hists.iter().enumerate() {
            let mut part = Histogram::default();
            for (b, bucket) in h.buckets.iter().enumerate() {
                part.buckets[b] = bucket.load(Ordering::Relaxed);
            }
            part.sum = h.sum.load(Ordering::Relaxed);
            part.max = h.max.load(Ordering::Relaxed);
            hists[kind].merge(&part);
        }
    }
    let totals = sum_totals(&shards.all);
    drop(shards);
    for kind in ALL_KINDS {
        if let Some(t) = kind.total() {
            let n = totals[t as usize];
            if n > 0 {
                counters.insert(pack_key(Sym::UNKNOWN, STRIPE_NONE, kind), n);
            }
        }
    }
    MetricsWindow {
        counters,
        hists,
        dropped: DROPPED.load(Ordering::Relaxed),
        taken: Some(Instant::now()),
        wall_ns: 0,
    }
}

impl MetricsWindow {
    /// Dimensional difference (`self - earlier`), saturating per key, with
    /// the elapsed wall time between the two snapshots recorded so callers
    /// can turn counts into rates. Keys present only in `earlier`
    /// (impossible without a reset race) drop out.
    #[must_use]
    pub fn diff(&self, earlier: &MetricsWindow) -> MetricsWindow {
        let mut counters = BTreeMap::new();
        for (&key, &count) in &self.counters {
            let delta = count.saturating_sub(earlier.counters.get(&key).copied().unwrap_or(0));
            if delta > 0 {
                counters.insert(key, delta);
            }
        }
        let mut hists: [Histogram; HIST_KINDS] = Default::default();
        for (i, h) in hists.iter_mut().enumerate() {
            *h = self.hists[i].diff(&earlier.hists[i]);
        }
        let wall_ns = match (self.taken, earlier.taken) {
            (Some(a), Some(b)) => a.saturating_duration_since(b).as_nanos() as u64,
            _ => 0,
        };
        MetricsWindow {
            counters,
            hists,
            dropped: self.dropped.saturating_sub(earlier.dropped),
            taken: self.taken,
            wall_ns,
        }
    }

    /// Wall time this window spans: nonzero only for [`MetricsWindow::diff`]
    /// results (a raw snapshot has no interval).
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Dimensional increments and histogram samples lost within this
    /// window (a full slab, or a thread whose shard was already parked).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The count at one dimensional key.
    pub fn counter(&self, class: Sym, stripe: u16, kind: MetricKind) -> u64 {
        self.counters
            .get(&pack_key(class, stripe, kind))
            .copied()
            .unwrap_or(0)
    }

    /// Every nonzero dimensional entry, in stable key order.
    pub fn entries(&self) -> impl Iterator<Item = (Sym, u16, MetricKind, u64)> + '_ {
        self.counters
            .iter()
            .filter_map(|(&key, &count)| unpack_key(key).map(|(c, s, k)| (c, s, k, count)))
    }

    /// Total across all classes/stripes for one kind.
    pub fn kind_total(&self, kind: MetricKind) -> u64 {
        self.entries()
            .filter(|&(_, _, k, _)| k == kind)
            .map(|(_, _, _, n)| n)
            .sum()
    }

    /// `(class, stripe, count)` rows for one kind, hottest first.
    pub fn by_class_stripe(&self, kind: MetricKind) -> Vec<(Sym, u16, u64)> {
        let mut rows: Vec<(Sym, u16, u64)> = self
            .entries()
            .filter(|&(_, _, k, _)| k == kind)
            .map(|(c, s, _, n)| (c, s, n))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)).then(a.1.cmp(&b.1)));
        rows
    }

    /// The merged histogram for one latency kind.
    pub fn histogram(&self, kind: HistKind) -> &Histogram {
        &self.hists[kind as usize]
    }

    /// Prometheus text exposition (version 0.0.4): one `stm_events_total`
    /// counter family carrying the `class`/`stripe`/`kind` labels, the
    /// overflow counter, and one histogram family per [`HistKind`] with
    /// cumulative `le` buckets. Scraping [`window`] snapshots (not diffs)
    /// keeps every series monotone, as the exposition format requires.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP stm_events_total Dimensional STM runtime events by class, stripe, and kind.\n",
        );
        out.push_str("# TYPE stm_events_total counter\n");
        for (class, stripe, kind, count) in self.entries() {
            out.push_str(&format!(
                "stm_events_total{{class=\"{}\",stripe=\"{}\",kind=\"{}\"}} {}\n",
                class.name(),
                stripe_label(stripe),
                kind.name(),
                count
            ));
        }
        out.push_str(
            "# HELP stm_metrics_dropped_total Increments lost to per-thread slab overflow.\n",
        );
        out.push_str("# TYPE stm_metrics_dropped_total counter\n");
        out.push_str(&format!("stm_metrics_dropped_total {}\n", self.dropped));
        for kind in ALL_HISTS {
            let h = self.histogram(kind);
            let name = kind.name();
            out.push_str(&format!(
                "# HELP {name} Log2-bucketed latency histogram (nanoseconds).\n"
            ));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut acc = 0u64;
            let top = h
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .map(|b| b + 1)
                .unwrap_or(0);
            for b in 0..top {
                acc += h.buckets[b];
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {acc}\n",
                    bucket_upper(b)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }

    /// Hand-rolled JSON export, matching the repo's dependency-free style.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        out.push_str("  \"counters\": [\n");
        let rows: Vec<String> = self
            .entries()
            .map(|(class, stripe, kind, count)| {
                format!(
                    "    {{\"class\": \"{}\", \"stripe\": \"{}\", \"kind\": \"{}\", \"count\": {}}}",
                    class.name(),
                    stripe_label(stripe),
                    kind.name(),
                    count
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        let hrows: Vec<String> = ALL_HISTS
            .iter()
            .map(|&kind| {
                let h = self.histogram(kind);
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(b, &n)| format!("{{\"le\": {}, \"n\": {}}}", bucket_upper(b), n))
                    .collect();
                format!(
                    "    {{\"kind\": \"{}\", \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                    kind.name(),
                    h.count(),
                    h.sum,
                    h.max,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    buckets.join(", ")
                )
            })
            .collect();
        out.push_str(&hrows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

// ----------------------------------------------------------------------
// Flight recorder
// ----------------------------------------------------------------------

/// Filename sequence for flight-recorder dumps (process-wide, so repeated
/// triggers in one process never collide).
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Configuration for [`FlightRecorder::arm`].
#[derive(Debug, Clone)]
pub struct FlightRecorderConfig {
    /// Directory dumps are written into (created if absent).
    pub dir: std::path::PathBuf,
    /// Trigger: a poll window in which any `(class, stripe)` accumulates at
    /// least this many landed dooms fires a dump.
    pub doom_threshold: u64,
    /// Trace ring capacity while armed (the recorder keeps a
    /// [`crate::trace::TraceGuard`] live for its whole lifetime).
    pub ring_slots: usize,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            dir: std::env::temp_dir().join("stm-flightrec"),
            doom_threshold: 64,
            ring_slots: 1 << 14,
        }
    }
}

/// The armed flight recorder: trace rings and metrics run continuously at
/// their low always-on cost; each [`FlightRecorder::poll`] closes a metrics
/// window, and a window in which some `(class, stripe)` crossed the doom
/// threshold dumps the trace-ring snapshot (which still holds the doom
/// edges that crossed it — drop-oldest permitting) plus the offending
/// window to disk as one JSON document.
pub struct FlightRecorder {
    cfg: FlightRecorderConfig,
    last: MetricsWindow,
    _trace: trace::TraceGuard,
    _metrics: MetricsGuard,
}

impl FlightRecorder {
    /// Enable tracing and metrics and take the baseline window. Fails only
    /// on dump-directory creation.
    pub fn arm(cfg: FlightRecorderConfig) -> std::io::Result<FlightRecorder> {
        std::fs::create_dir_all(&cfg.dir)?;
        let tguard = trace::TraceConfig {
            ring_slots: cfg.ring_slots,
        }
        .enable();
        let mguard = MetricsConfig::default().enable();
        let last = window();
        Ok(FlightRecorder {
            cfg,
            last,
            _trace: tguard,
            _metrics: mguard,
        })
    }

    /// Close the window since the previous poll (or arm). If any `(class,
    /// stripe)` accumulated `doom_threshold`+ landed dooms, dump and return
    /// the dump path; otherwise `None`. Call this off the hot path (a
    /// monitoring thread, the end of a soak round) — the dump itself does
    /// file I/O and allocation, by design.
    pub fn poll(&mut self) -> std::io::Result<Option<std::path::PathBuf>> {
        let now = window();
        let w = now.diff(&self.last);
        self.last = now;
        let triggers: Vec<(Sym, u16, u64)> = w
            .by_class_stripe(MetricKind::Doom)
            .into_iter()
            .filter(|&(_, _, n)| n >= self.cfg.doom_threshold)
            .collect();
        if triggers.is_empty() {
            return Ok(None);
        }
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = self.cfg.dir.join(format!("flightrec-{seq:04}.json"));
        let trows: Vec<String> = triggers
            .iter()
            .map(|&(class, stripe, dooms)| {
                format!(
                    "    {{\"class\": \"{}\", \"stripe\": \"{}\", \"dooms\": {}, \"threshold\": {}}}",
                    class.name(),
                    stripe_label(stripe),
                    dooms,
                    self.cfg.doom_threshold
                )
            })
            .collect();
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{{")?;
        writeln!(file, "  \"triggers\": [")?;
        writeln!(file, "{}", trows.join(",\n"))?;
        writeln!(file, "  ],")?;
        writeln!(file, "  \"window\": {},", indent_block(&w.to_json(), 2))?;
        writeln!(
            file,
            "  \"trace\": {}",
            indent_block(&trace::snapshot().to_json(), 2)
        )?;
        writeln!(file, "}}")?;
        file.sync_all()?;
        Ok(Some(path))
    }
}

/// Re-indent a JSON block for embedding (cosmetic only — the exporters emit
/// their own newlines).
fn indent_block(json: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    json.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the enable/reset cycle across this file's tests (shards
    /// are process-global; integration tests serialize with their own
    /// lock).
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Emission while disabled records nothing. Both windows are read while
    /// still disabled: an enable would zero every shard and hide a leak.
    #[test]
    fn disabled_emission_is_inert() {
        let _g = TEST_LOCK.lock();
        assert!(!enabled());
        let class = crate::trace::intern("disabled-emission-probe");
        let before = window();
        for i in 0..1000 {
            doom_landed(class, 3);
            hist_record_ns(HistKind::CommitLatency, i);
            hist_elapsed(HistKind::SnapshotRead, timer());
        }
        assert!(timer().is_none());
        let after = window();
        assert_eq!(after.counter(class, 3, MetricKind::Doom), 0);
        assert_eq!(
            after.kind_total(MetricKind::Doom),
            before.kind_total(MetricKind::Doom)
        );
        for kind in [HistKind::CommitLatency, HistKind::SnapshotRead] {
            assert_eq!(
                after.histogram(kind).count(),
                before.histogram(kind).count(),
                "{kind:?} samples recorded while disabled"
            );
        }
    }

    #[test]
    fn key_packing_roundtrips() {
        let _g = TEST_LOCK.lock();
        for &stripe in &[0u16, 5, STRIPE_MAX, STRIPE_NONE, STRIPE_GLOBAL] {
            for kind in ALL_KINDS {
                let key = pack_key(Sym(7), stripe, kind);
                assert_ne!(key, 0);
                assert_eq!(unpack_key(key), Some((Sym(7), stripe, kind)));
            }
        }
        assert_eq!(stripe_dim(u64::MAX), STRIPE_GLOBAL);
        assert_eq!(stripe_dim(3), 3);
        assert_eq!(stripe_dim(1 << 40), STRIPE_MAX);
    }

    #[test]
    fn slab_overflow_is_counted_not_silent() {
        let _g = TEST_LOCK.lock();
        let _guard = MetricsConfig::default().enable();
        // The outermost enable emptied this thread's slab, so exactly
        // SLAB_SLOTS distinct keys fit; drive twice that many.
        let keys = 2 * SLAB_SLOTS as u64;
        for stripe in 0..keys {
            doom_landed(Sym(9), stripe);
        }
        let w = window();
        let seen: u64 = w.kind_total(MetricKind::Doom);
        assert!(seen <= keys);
        assert_eq!(seen + w.dropped(), keys, "overflow must be counted");
        assert!(w.dropped() > 0, "{keys} keys cannot fit {SLAB_SLOTS} slots");
    }

    #[test]
    fn totals_map_onto_their_snapshot_fields() {
        let s = StatsSnapshot::from_totals(std::array::from_fn(|i| i as u64 + 1));
        assert_eq!(s.commits, Total::Commits as u64 + 1);
        assert_eq!(s.lane_entries, Total::LaneEntries as u64 + 1);
        assert_eq!(
            s.chain_entries_reclaimed,
            Total::ChainEntriesReclaimed as u64 + 1
        );
        assert_eq!(StatsSnapshot::from_totals(s.to_totals()), s);
    }

    #[test]
    fn diff_is_fieldwise_and_saturating() {
        let earlier = StatsSnapshot {
            commits: 10,
            aborts_doomed: 2,
            dooms_issued: 3,
            ..StatsSnapshot::default()
        };
        let later = StatsSnapshot {
            commits: 15,
            aborts_doomed: 6,
            dooms_issued: 1, // diffed in the wrong order: saturates to 0
            ..StatsSnapshot::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.commits, 5);
        assert_eq!(d.aborts_doomed, 4);
        assert_eq!(d.dooms_issued, 0);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        // 1..=1000 ns, one sample each: p50 ranks at value 500 (bucket
        // [256,511]), p99 at 990 (bucket [512,1023]).
        for v in 1..=1000u64 {
            let b = 63 - v.leading_zeros() as usize;
            h.buckets[b] += 1;
            h.sum += v;
            h.max = h.max.max(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.p50(), 511);
        assert_eq!(h.p90(), 1023);
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.percentile(1.0), 1023);
        assert_eq!(h.max, 1000);
        assert_eq!(Histogram::default().p50(), 0);
    }

    #[test]
    fn window_diff_saturates_and_carries_wall() {
        let _g = TEST_LOCK.lock();
        let _guard = MetricsConfig::default().enable();
        let before = window();
        doom_landed(Sym(3), 1);
        doom_landed(Sym(3), 1);
        hist_record_ns(HistKind::SemLockWait, 700);
        let after = window();
        let w = after.diff(&before);
        assert_eq!(w.counter(Sym(3), 1, MetricKind::Doom), 2);
        assert_eq!(w.histogram(HistKind::SemLockWait).count(), 1);
        assert_eq!(w.histogram(HistKind::SemLockWait).sum, 700);
        // Backwards diff saturates to empty rather than fabricating.
        let back = before.diff(&after);
        assert_eq!(back.counter(Sym(3), 1, MetricKind::Doom), 0);
        assert_eq!(back.histogram(HistKind::SemLockWait).count(), 0);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _g = TEST_LOCK.lock();
        let _guard = MetricsConfig::default().enable();
        doom_landed(Sym::UNKNOWN, u64::MAX);
        hist_record_ns(HistKind::CommitLatency, 300);
        let text = window().to_prometheus();
        assert!(text.contains("# TYPE stm_events_total counter"));
        assert!(text.contains("stm_events_total{class=\"?\",stripe=\"global\",kind=\"doom\"} 1"));
        assert!(text.contains("# TYPE stm_commit_latency_ns histogram"));
        assert!(text.contains("stm_commit_latency_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("stm_commit_latency_ns_sum 300"));
        assert!(text.contains("stm_commit_latency_ns_count 1"));
        let json = window().to_json();
        assert!(json.contains("\"kind\": \"doom\""));
        assert!(json.contains("\"p99\""));
    }
}
