//! Transactional variables.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! A [`TCell<T>`] is a shared, versioned cell; a [`TVar<T>`] is a `TCell`
//! in an allocation of its own, while a structure with several vars per
//! object (a tree node) embeds its cells inline in one `Arc`-owned block.
//! All access from inside a transaction goes through `read` / `write`,
//! which log the access in the current nesting frame of the [`Txn`]. A read
//! clones the value; a commit moves each buffered value into its var. In
//! practice `T` is either small and `Copy`-like or an `Arc`-wrapped payload.
//!
//! Each cell's **word** (`vlock`) is the only copy of its version and the
//! only guard of its value. One atomic `u64` holds five fields, low bits
//! first: the commit-lock bit, the swap bit, the chain bit, a saturating
//! count of registered readers, and the version in the top 52 bits.
//! Committers acquire the lock bit (in `VarId` order across their write
//! set). A reader of the value registers in the word by CAS; a publish sets
//! the swap bit, waits until no reader is registered, swaps the value, and
//! stamps the new version and the chain bit with every other field clear —
//! so releasing the lock, ending the swap and stamping the version are one
//! atomic store. Validators read only the version and lock fields, so a
//! reader's registration never fails a validation or a lock attempt. See
//! `clock.rs` for the commit protocol and [`TCell::pair_at`] for who waits
//! where.
//!
//! A cell's snapshot history lives outside it, in the **chain table**: one
//! mutex-guarded map keyed by [`VarId`], which holds an entry only for cells
//! whose word has the chain bit. Only a publish while a snapshot is pinned
//! creates, extends or cuts a chain. The unpin that ends the last pin
//! drains the whole table ([`drain_chains`]); before that, a publish that
//! sees no pin or the cell's drop frees one chain. Every other publish,
//! read and drop leaves the table alone. No code of `T` runs under the
//! table lock: a reader clones a chain entry after releasing it, and what a
//! publish, a drop or a drain takes out of the table drops after it,
//! because a chain's values (a tree node's link, say) can own chained cells
//! whose drops re-enter the table.
//!
//! A cell's [`VarId`] is its address. Every read-set, write-set and
//! flattened-read entry holds a bare [`CellPtr`], and the frame holding the
//! entry pins the block the cell lives in, once per block: an entry's owner
//! stays pinned by its frame, or by the frame it merged into, for as long as
//! the entry exists. So no cell an entry points to is freed, and no id is
//! reused, while a transaction can still compare it.
//!
//! A label names a whole owner block for conflict attribution
//! ([`label_owner`], [`var_label`]): the label table holds one entry per
//! labelled block, whatever number of cells it holds, and answers only while
//! the owner lives, so no cell's drop reaches it.

use crate::cost;
use crate::hash::VarIdMap;
use crate::metrics::{self, Total};
use crate::txn::Txn;
use parking_lot::Mutex;
use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Upper bound on the per-var history chain. A snapshot pinned so far in the
/// past that its entry fell off the end takes the counted fallback path
/// instead; the bound is what keeps worst-case memory per var constant.
pub(crate) const MAX_CHAIN_DEPTH: usize = 8;

/// The cell word's commit-lock bit.
const LOCKED: u64 = 1;
/// The cell word's swap bit: set only by [`AnyVar::apply`], while it holds
/// the commit lock and replaces the value.
const SWAP: u64 = 1 << 1;
/// The cell word's chain bit: a hint that the chain table may hold this
/// cell's history. Only [`AnyVar::apply`] sets or clears it, in the store
/// that stamps the version. An entry implies the bit, but the bit does not
/// imply an entry: a drain frees every chain and leaves the words alone,
/// and the table files a chain under its cell's address, so a cell that
/// moves keeps the bit but not the chain (see "Moving a cell" at
/// [`TCell`]). Whatever looks a chain up tolerates a miss.
const CHAINED: u64 = 1 << 2;
/// One registered reader in the cell word.
const READER: u64 = 1 << 3;
/// The reader-count field, 9 bits wide. A reader that finds it full waits,
/// so the width bounds how many readers share a value at once, never
/// correctness.
const READERS: u64 = 0x1ff * READER;
/// Where the version starts in the cell word.
const VERSION_SHIFT: u32 = 12;

/// The largest version a cell word holds: the clock panics rather than
/// draw one past it (`clock::fresh_version`).
pub(crate) const MAX_VERSION: u64 = u64::MAX >> VERSION_SHIFT;

/// A cell's snapshot history: previously committed `(version, value)`
/// pairs, newest first, forming a *contiguous* suffix of its committed
/// history ending just before the value in the cell. Kept only while
/// snapshot readers are pinned (see `epoch.rs`): made by a publish that
/// sees a pin, freed by the unpin that ends the last pin, by the next
/// publish that sees none or by the cell's drop, and bounded by
/// [`MAX_CHAIN_DEPTH`].
///
/// The contiguity is what makes [`TCell::read_at`] sound: every publish
/// either pushes the outgoing value onto the chain or (when no reader is
/// pinned) frees the chain, and a drain frees every chain at once, so a
/// chain entry `<= s` is always the *latest* committed value at snapshot
/// `s`, never a stale value with skipped versions between it and `s`.
type Chain<T> = Vec<(u64, T)>;

/// A [`Chain`] of any value type, as the chain table holds it.
trait History: Any + Send + Sync {
    /// The chain's number of entries, which a drain counts without knowing
    /// its type.
    fn len(&self) -> usize;
}

impl<T: Send + Sync + 'static> History for Chain<T> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// A chain-table entry: a cell's boxed [`Chain`]. The box's heap block
/// stays in place when the map grows, shrinks or drops other entries.
type Entry = Box<dyn History>;

/// The chain table: an entry per chained cell, keyed by its id, and the
/// slots a drain keeps for the next chains. The lock guards the maps, not
/// the chains: a chain changes only under its cell's swap bit with no
/// reader registered, and no code of `T` runs under the lock.
struct Table {
    chains: VarIdMap<Entry>,
    /// The emptied map of the last drain, which the next drain swaps in, so
    /// a steady state of pins allocates no table.
    spare: VarIdMap<Entry>,
    /// How many chains the last drain freed: both maps keep slots for as
    /// many.
    kept: usize,
}

static CHAINS: Mutex<Table> = Mutex::new(Table {
    chains: VarIdMap::with_hasher(BuildHasherDefault::new()),
    spare: VarIdMap::with_hasher(BuildHasherDefault::new()),
    kept: 0,
});

/// Raised by every publish that may make an entry and lowered by a drain,
/// both under the table lock, so the table holds no entry while it is low.
static MAY_HOLD: AtomicBool = AtomicBool::new(false);

impl Table {
    /// Take cell `id`'s entry out, to drop once the table lock is released.
    /// A removal gives back the slots a burst of chains grew, but not those
    /// kept for the last drain's chains; a miss, which the chain bit allows,
    /// gives back none.
    fn take(&mut self, id: VarId) -> Option<Entry> {
        let entry = self.chains.remove(&id)?;
        let len = self.chains.len().max(self.kept);
        fit(&mut self.chains, len);
        Some(entry)
    }
}

/// Give back the slots of a map less than a quarter full for `len`
/// entries, so a burst of chains under a long pin does not keep them.
fn fit(map: &mut VarIdMap<Entry>, len: usize) {
    if len < map.capacity() / 4 {
        map.shrink_to(2 * len);
    }
}

/// Where cell `id`'s entry points, if it has one; the table lock is held
/// for the lookup only.
fn find_chain(id: VarId) -> Option<NonNull<dyn History>> {
    CHAINS.lock().chains.get(&id).map(|e| NonNull::from(&**e))
}

/// Take cell `id`'s entry out of the table, to drop once the table lock is
/// released.
fn take_chain(id: VarId) -> Option<Entry> {
    CHAINS.lock().take(id)
}

/// Free every chain once no snapshot is pinned: run by the unpin that ends
/// the last pin (`epoch.rs`). It skips the lock while [`MAY_HOLD`] is low,
/// re-checks the pin count under the lock, and swaps the spare map in for
/// the full one. The entries drop after the lock is released, since their
/// values can own chained cells whose drops take it again, and each is
/// counted as reclaimed.
///
/// Nothing a pinned reader holds is freed: a reader looks its chain up
/// under the table lock after its pin is counted, so a drain that saw no
/// pin under the lock came first, and the reader finds only chains pushed
/// after it. A pin taken after the drain stabilizes its epoch past every
/// version drawn before it (`epoch::pin`), so it needs no drained entry:
/// see PROTOCOL.md, "The chain invariant".
pub(crate) fn drain_chains() {
    if !MAY_HOLD.load(Ordering::SeqCst) {
        return;
    }
    let mut drained = {
        let mut table = CHAINS.lock();
        if crate::epoch::readers_active() {
            return;
        }
        MAY_HOLD.store(false, Ordering::SeqCst);
        let spare = std::mem::take(&mut table.spare);
        std::mem::replace(&mut table.chains, spare)
    };
    let cells = drained.len();
    let freed: usize = drained.values().map(|e| e.len()).sum();
    metrics::tally_n(Total::ChainEntriesReclaimed, freed as u64);
    drained.clear();
    fit(&mut drained, cells);
    let mut table = CHAINS.lock();
    table.spare = drained;
    table.kept = cells;
}

/// The label table: one entry per labelled owner block, keyed by the
/// first address of the cells it holds. No two entries overlap.
static LABELS: Mutex<Labels> = Mutex::new(Labels {
    blocks: BTreeMap::new(),
    prune_at: MIN_PRUNE_AT,
});

/// Table size below which an insertion never prunes dead entries.
const MIN_PRUNE_AT: usize = 64;

struct Labels {
    blocks: BTreeMap<VarId, Label>,
    /// Table size at which the next insertion drops the dead entries.
    prune_at: usize,
}

struct Label {
    /// One past the block's last address.
    end: VarId,
    /// The block's owner; the label resolves only while it lives.
    owner: Weak<dyn CellOwner>,
    name: String,
}

impl Label {
    fn live(&self) -> bool {
        self.owner.strong_count() > 0
    }
}

/// Label every cell `owner` holds ([`CellOwner::cells`]) for conflict
/// attribution, the TAPE-style profiling of paper §6.3 (identifying which
/// shared locations cause lost work): [`var_label`] names each of them
/// while the owner lives. A block costs one entry however many cells it
/// holds, and labelling it again replaces its name.
///
/// The new entry replaces every entry whose block it overlaps: this owner's
/// own, or one of a dead owner whose memory this one reuses (live owners of
/// this crate's kinds never share memory), so no dead entry can hide a live
/// label. The other dead entries are dropped as the table grows.
pub fn label_owner<O: CellOwner>(owner: &Arc<O>, name: impl Into<String>) {
    let cells = owner.cells();
    let (start, end) = (cells.start as VarId, cells.end as VarId);
    let mut labels = LABELS.lock();
    // Entries never overlap, so only the last one starting before `end`
    // can reach into the block; repeat until it ends at or before `start`.
    while let Some(s) = labels
        .blocks
        .range(..end)
        .next_back()
        .and_then(|(&s, l)| (l.end > start).then_some(s))
    {
        labels.blocks.remove(&s);
    }
    if labels.blocks.len() >= labels.prune_at {
        labels.blocks.retain(|_, l| l.live());
        labels.prune_at = (2 * labels.blocks.len()).max(MIN_PRUNE_AT);
    }
    let owner = Arc::downgrade(owner) as Weak<dyn CellOwner>;
    let name = name.into();
    labels.blocks.insert(start, Label { end, owner, name });
}

/// The label of the block holding var `id` (see [`label_owner`]), if it has
/// one and its owner is still alive.
pub fn var_label(id: VarId) -> Option<String> {
    let labels = LABELS.lock();
    let (_, l) = labels.blocks.range(..=id).next_back()?;
    (id < l.end && l.live()).then(|| l.name.clone())
}

/// Number of labels whose owner is still alive (diagnostic).
pub fn label_count() -> usize {
    LABELS.lock().blocks.values().filter(|l| l.live()).count()
}

/// Identifier of a [`TVar`] or [`TCell`]: the cell's address, so unique
/// among live vars. A cell starts with its own word, so a cell nested
/// inside another cell's value never shares its address. Once a var
/// drops, a new one may reuse its id; the simulator intersects read and
/// write sets by `VarId` only while the transactions holding them keep
/// their vars alive.
pub type VarId = u64;

/// Type-erased view of a cell used by read/write sets and the committer.
pub(crate) trait AnyVar: Send + Sync {
    fn id(&self) -> VarId;
    /// The committed version and whether the commit lock is held, loaded
    /// as one word — the unit of commit-time validation. The word's swap
    /// bit and reader count are left out, so a reader's registration never
    /// fails a validation.
    fn stamp(&self) -> (u64, bool);
    /// Committed version.
    fn version(&self) -> u64 {
        self.stamp().0
    }
    /// Try to acquire the commit lock; `false` if another committer holds
    /// it. Registered readers never make it fail.
    fn try_lock_commit(&self) -> bool;
    /// Release the commit lock without publishing (failed commit).
    fn unlock_commit(&self);
    /// Publish a buffered value with the given write version, releasing the
    /// commit lock in the same store. The caller holds the commit lock.
    /// `val` must be a `Some` of `Option<T>` for the `T` of the underlying
    /// var (guaranteed by the logger). The value moves into the var, and the
    /// outgoing one moves into `val` unless the history chain keeps it, so a
    /// publish neither clones nor drops a value of the caller's.
    /// `horizon` is the chain-reclamation horizon for the publishing commit,
    /// sampled once per commit via [`crate::epoch::publish_horizon`] —
    /// `u64::MAX` means no snapshot reader is pinned and history maintenance
    /// can be skipped entirely.
    fn apply(&self, val: &mut (dyn Any + Send + Sync), version: u64, horizon: u64);
}

/// A type whose [`TCell`]s stay where they are while it is shared, so that
/// an `Arc<Self>` can pin them.
///
/// # Safety
///
/// Every `TCell` that a shared `&Self` reaches in [`cells`](Self::cells)
/// must stay at that address, as that same cell, until `Self` drops. With
/// the provided `cells`, `Self`'s own bytes, a plain struct of `TCell`
/// fields qualifies; `Box<[TCell<T>]>` names its slice instead, which a
/// shared box can neither replace nor resize. A cell behind interior
/// mutability does not qualify — in a `Mutex<Option<TCell<T>>>` field it
/// can be replaced or dropped while a transaction still refers to it.
pub unsafe trait CellOwner: Send + Sync + 'static {
    /// The addresses of the memory whose cells this owner keeps in place
    /// (see the trait's safety section). The default is the owner's own
    /// bytes.
    fn cells(&self) -> Range<usize> {
        let start = self as *const Self as *const u8 as usize;
        start..start + size_of_val(self)
    }
}

/// A transactional variable stored inline in a block that an [`Arc`] owns.
///
/// A `TCell` is a [`TVar`] without an allocation of its own: a structure
/// with several vars per object (a tree node's key, value, color and links)
/// embeds them as `TCell` fields of one [`CellOwner`] type and shares the
/// object as an `Arc`, so the object is one allocation however many vars it
/// holds; a table of cells shares them as one `Arc<Box<[TCell<T>]>>`
/// instead. Each cell keeps its own [`VarId`], version and commit lock, so a
/// transaction conflicts on exactly what separate `TVar`s would give it.
///
/// Transactional access names the owner: [`read`](Self::read) and
/// [`write`](Self::write) take the `Arc` whose block holds the cell, and
/// the transaction keeps that `Arc` alive for as long as it logs the cell.
/// A `TCell` is not `Clone`; share its owner instead.
///
/// # Moving a cell
///
/// A cell's snapshot history is filed in the chain table under the cell's
/// address, so it does not move with the cell. A cell that was published
/// while a snapshot was pinned keeps such a chain until the last pin ends,
/// or until its next publish with no snapshot pinned. Moving it meanwhile,
/// which takes the `&mut` or the ownership that `Arc::get_mut` or
/// `Arc::try_unwrap` give back once no one else shares its owner, has two
/// effects, and neither outlasts the pins live while it moved:
///
/// - The chain stays at the old address, values and all, until the unpin
///   that ends the last pin frees every chain, or until a cell there
///   starts a chain of its own or is dropped with one.
/// - The moved cell reads below its head from whatever chain is filed at
///   its new address, and its next publish under a pin extends that chain.
///   Where there is none, such a read falls back to the validated path.
///   Where another moved cell left its chain, as when two chained fields
///   are swapped with `std::mem::swap` through `Arc::get_mut` while a pin
///   is live, the moved cell serves that other cell's history, so a
///   snapshot read of it can return a value that had already been replaced
///   at the snapshot.
///
/// A cell that never moves once it has been written, or that moves only
/// while no snapshot is pinned, has neither effect.
///
/// ```
/// use std::sync::Arc;
/// use stm::{atomic, CellOwner, TCell};
///
/// struct Point {
///     x: TCell<i64>,
///     y: TCell<i64>,
/// }
/// // SAFETY: `Point`'s cells are plain fields, never moved while shared.
/// unsafe impl CellOwner for Point {}
///
/// let p = Arc::new(Point { x: TCell::new(1), y: TCell::new(2) });
/// atomic(|tx| {
///     let x = p.x.read(tx, &p);
///     p.y.write(tx, &p, x + 10);
/// });
/// assert_eq!(p.y.read_committed(), 11);
/// assert_ne!(p.x.id(), p.y.id());
/// ```
// `repr(C)` puts `vlock` first: a cell's address is its own word, never that
// of a cell inside its value, which is what keeps ids unique.
#[repr(C)]
pub struct TCell<T> {
    /// Lock bit, swap bit, chain bit, reader count and version — see the
    /// module docs.
    vlock: AtomicU64,
    /// The committed value: read only under a [`Registration`], written
    /// only by `apply`.
    value: UnsafeCell<T>,
}

const _: () = assert!(size_of::<TCell<u64>>() == 16);

// SAFETY: the value and the chain are read only through a `Registration`,
// which clones `T` from a shared `&T` while other readers may do the same
// (hence `T: Sync`), and written only by `apply` while no reader is
// registered, which moves values in and out from the publishing thread
// (hence `T: Send`).
unsafe impl<T: Send + Sync> Sync for TCell<T> {}

// SAFETY: the only cell a shared `&TCell<T>` reaches in its own bytes is
// itself (its value sits in an `UnsafeCell` private to this module), and
// moving or dropping it needs `&mut` or ownership, which no one has while
// an `Arc` shares it.
unsafe impl<T: Send + Sync + 'static> CellOwner for TCell<T> {}

// SAFETY: `cells` is exactly the slice, and the only cells a shared box
// reaches there are its elements (a cell's value sits in an `UnsafeCell`
// private to this module). Replacing or resizing the slice needs `&mut` or
// ownership of the box, which no one has while an `Arc` shares it, so they
// stay in place until the box drops.
unsafe impl<T: Send + Sync + 'static> CellOwner for Box<[TCell<T>]> {
    fn cells(&self) -> Range<usize> {
        let start = self.as_ptr() as usize;
        start..start + size_of_val(&**self)
    }
}

/// A reader registered in a cell word. While it lives no publish swaps the
/// value or changes the chain, so they and the version and chain bit in
/// `word` belong together. Dropping it deregisters, also when `T::clone`
/// unwinds.
struct Registration<'a, T> {
    cell: &'a TCell<T>,
    /// The word the registering CAS replaced.
    word: u64,
}

impl<T> Registration<'_, T> {
    /// The value's version.
    fn version(&self) -> u64 {
        self.word >> VERSION_SHIFT
    }

    fn value(&self) -> &T {
        // SAFETY: `apply` writes the value only while its swap bit is set
        // and no reader is registered, and a reader registers only by a CAS
        // against a word with the swap bit clear. This registration lasts
        // as long as the borrow, so the value does not change under it.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T: Send + Sync + 'static> Registration<'_, T> {
    /// The cell's history chain, if its word has the chain bit and the
    /// table holds one. Only the lookup holds the table lock, so only a
    /// reader whose thread is pinned may call this: a snapshot read below
    /// the head.
    fn chain(&self) -> Option<&[(u64, T)]> {
        debug_assert!(crate::epoch::pinned_here(), "an unpinned chain lookup");
        if self.word & CHAINED == 0 {
            return None;
        }
        let entry = find_chain(self.cell.id())?;
        // SAFETY: no other live cell has this id, so only this cell changes
        // or removes the entry under it: its `apply`, with the swap bit set
        // and no reader registered, and its drop, with `&mut`. A drain frees
        // entries only while no pin is live, and this thread's pin outlasts
        // the registration. So while this registration lasts the chain stays
        // as it is, and where it is: other cells' insertions and removals
        // move the entry's box within the map, not the block it points to.
        let history: &dyn Any = unsafe { entry.as_ref() };
        history.downcast_ref::<Chain<T>>().map(Vec::as_slice)
    }
}

impl<T> Drop for Registration<'_, T> {
    fn drop(&mut self) {
        // Release: the value and chain reads happen before a publisher that
        // sees the count drained replaces them.
        let w = self.cell.vlock.fetch_sub(READER, Ordering::Release);
        debug_assert!(w & READERS != 0, "a reader left an empty count");
    }
}

/// A logged cell: the bare pointer a read-set, write-set or flattened-read
/// entry holds. It keeps nothing alive; the frame holding the entry pins
/// the cell's owner block (see the module docs).
#[derive(Clone, Copy)]
pub(crate) struct CellPtr(NonNull<dyn AnyVar>);

// SAFETY: a `CellPtr` gives only shared access to a cell, which is
// `Send + Sync` (`AnyVar` requires both).
unsafe impl Send for CellPtr {}
// SAFETY: as for `Send`.
unsafe impl Sync for CellPtr {}

impl CellPtr {
    /// `cell`, checked to lie in `owner` ([`held`]).
    ///
    /// # Panics
    ///
    /// If `owner` does not hold `cell` ([`CellOwner::cells`]): then pinning
    /// `owner` would not keep it alive, and the entry could outlive it.
    pub(crate) fn new<T, O>(owner: &Arc<O>, cell: &TCell<T>) -> CellPtr
    where
        T: Clone + Send + Sync + 'static,
        O: CellOwner,
    {
        CellPtr(NonNull::from(held(owner, cell) as &dyn AnyVar))
    }

    /// The cell.
    ///
    /// # Safety
    ///
    /// The owner block [`new`](Self::new) checked must still be pinned:
    /// `CellOwner` keeps a held cell at its address, as that cell, for as
    /// long as the block is shared.
    pub(crate) unsafe fn get<'a>(self) -> &'a dyn AnyVar {
        // SAFETY: the caller keeps the owner pinned, so the cell is alive.
        unsafe { self.0.as_ref() }
    }
}

/// `cell`, after checking that `owner` holds it: the check every logged
/// entry's cell passes before its frame pins `owner`.
///
/// # Panics
///
/// If `owner` does not hold `cell` ([`CellOwner::cells`]).
pub(crate) fn held<'a, T, O: CellOwner>(owner: &Arc<O>, cell: &'a TCell<T>) -> &'a TCell<T> {
    let (cells, addr) = (owner.cells(), cell as *const TCell<T> as usize);
    assert!(
        cells.start <= addr && addr + size_of::<TCell<T>>() <= cells.end,
        "TCell accessed through an Arc that does not contain it"
    );
    cell
}

impl<T> TCell<T> {
    /// Unique id of this variable among live vars: its address.
    pub fn id(&self) -> VarId {
        self as *const Self as usize as VarId
    }

    /// The committed value of a cell no transaction can reach: `&mut self`
    /// means the cell is not shared yet, or no longer. A value set here is
    /// committed at the cell's current version. The same `&mut` can move
    /// the cell, which leaves its snapshot history behind (see "Moving a
    /// cell" at [`TCell`]).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Register as a reader of the value, for a read at snapshot `s`. Waits
    /// while the cell is commit-locked with its value at or below `s` (see
    /// [`pair_at`](Self::pair_at)), while a publish swaps the value, and
    /// while the reader count is full.
    fn register(&self, s: u64) -> Registration<'_, T> {
        let mut w = self.vlock.load(Ordering::Relaxed);
        loop {
            let gated = w & LOCKED != 0 && w >> VERSION_SHIFT <= s;
            if gated || w & SWAP != 0 || w & READERS == READERS {
                std::hint::spin_loop();
                std::thread::yield_now();
                w = self.vlock.load(Ordering::Relaxed);
                continue;
            }
            // Acquire: the value and chain the last publish stored before
            // its word.
            // Release: a committer that locks the word after this CAS then
            // draws its version after the caller sampled `s`, so past `s`.
            match self.vlock.compare_exchange_weak(
                w,
                w + READER,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Registration {
                        cell: self,
                        word: w,
                    }
                }
                Err(now) => w = now,
            }
        }
    }
}

impl<T> Drop for TCell<T> {
    fn drop(&mut self) {
        // Only a chained cell can have an entry, so every other drop leaves
        // the table alone; a drain may have freed it already. The chain
        // drops after the lock is released: its values can own chained
        // cells, whose drops come back here.
        if *self.vlock.get_mut() & CHAINED != 0 {
            drop(take_chain(self.id()));
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TCell<T> {
    /// Create a cell with an initial committed value.
    pub fn new(value: T) -> Self {
        TCell {
            vlock: AtomicU64::new(0),
            value: UnsafeCell::new(value),
        }
    }

    /// Transactional read, as [`TVar::read`]; `owner` is the `Arc` whose
    /// block holds this cell.
    ///
    /// # Panics
    ///
    /// If this cell does not lie inside `*owner` and the read is validated:
    /// every read in a transaction body is, but a snapshot's and a read of
    /// the transaction's own buffered write.
    #[must_use = "a read both yields the value and records a dependency; use `let _ =` when only the dependency is wanted"]
    pub fn read<O: CellOwner>(&self, tx: &mut Txn, owner: &Arc<O>) -> T {
        cost::add_cost(cost::MEM_ACCESS_COST);
        tx.read_var(self, owner)
    }

    /// Transactional write, as [`TVar::write`]; `owner` is the `Arc` whose
    /// block holds this cell.
    ///
    /// # Panics
    ///
    /// If this cell does not lie inside `*owner` and the write is logged,
    /// as every first write of a cell in a nesting frame is.
    pub fn write<O: CellOwner>(&self, tx: &mut Txn, owner: &Arc<O>, value: T) {
        cost::add_cost(cost::MEM_ACCESS_COST);
        tx.write_var(self, owner, value);
    }

    /// Read the committed value directly, outside any transaction, as
    /// [`TVar::read_committed`].
    #[must_use]
    pub fn read_committed(&self) -> T {
        self.committed_pair().1
    }

    pub(crate) fn committed_pair(&self) -> (u64, T) {
        let head = self.pair_at(u64::MAX);
        head.expect("no version is past u64::MAX")
    }

    /// Read the newest committed value at or below snapshot version `s`, or
    /// `None` if the chain has been truncated (or never maintained) past it —
    /// the caller then takes the counted validated-path fallback.
    pub(crate) fn read_at(&self, s: u64) -> Option<T> {
        self.pair_at(s).map(|(_, v)| v)
    }

    /// [`read_at`](Self::read_at) with the version of the value read. At
    /// `s = u64::MAX` it is the validated read of the committed head.
    ///
    /// The head check is gated on the commit lock: accepting a head
    /// stamped `<= s` is sound **only** while the var is unlocked. A
    /// committer draws its write version with the clock `fetch_add` *after*
    /// locking its whole write set, so a commit that could still publish a
    /// version `<= s` drew it before our snapshot sampled the clock — and
    /// therefore still holds this var's lock. Skipping the lock check is the
    /// torn-read bug: a snapshot pinned between a committer's `fetch_add`
    /// and its last per-var apply would see already-applied vars at the new
    /// version (`<= s`) and unapplied vars at their old versions (also
    /// `<= s`) — an inconsistent cut through one atomic write set (and a
    /// validated read would accept a value about to be replaced unnoticed).
    ///
    /// The read registers in the cell word by one CAS against a word that
    /// passes the gate. No publish swaps the head or restamps the word while
    /// a reader is registered, so the version that CAS saw is the head's,
    /// and the gate held when the head was read. A reader waits in three
    /// places: commit-locked with the head at or below `s` (the committer
    /// releases by publishing or unwinding), during a publish's swap, and
    /// while the reader count is full; each wait is short and bounded.
    fn pair_at(&self, s: u64) -> Option<(u64, T)> {
        let reader = self.register(s);
        if reader.version() > s {
            // Head and any publish in flight (versions are monotone) are
            // past `s`. A publish pushes the old head before it restamps the
            // word: the chain is contiguous, a reclaimed entry a miss.
            return reader.chain()?.iter().find(|e| e.0 <= s).cloned();
        }
        Some((reader.version(), reader.value().clone()))
    }

    /// The history work of a publish, by `apply` with the swap bit set and
    /// no reader registered: keep the outgoing value, version `outgoing`,
    /// which `slot` holds, while a snapshot may need it, or free the chain.
    /// Returns the chain bit for the word and what leaves the table, for the
    /// caller to drop after the table lock is released.
    ///
    /// Kept, the value is pushed onto the chain, or starts one if `chained`
    /// is false, and the push cuts what no pin can reach: entries older
    /// than the newest one at or below `horizon` (future pins sample a clock
    /// past every version), and any past the depth bound. Freed, the value
    /// stays in `slot`: keeping older entries without it would leave a
    /// version *gap* a later snapshot could misread as the state at its
    /// version.
    fn keep_history(
        &self,
        chained: bool,
        outgoing: u64,
        slot: &mut Option<T>,
        horizon: u64,
    ) -> (u64, Chain<T>, Option<Entry>) {
        let id = self.id();
        if horizon == u64::MAX {
            // No snapshot was pinned when the commit sampled its horizon.
            return (0, Vec::new(), if chained { take_chain(id) } else { None });
        }
        let mut table = CHAINS.lock();
        // Raised before the pin count is read, as the last unpin lowers the
        // count before it reads the flag: either this publish sees no pin,
        // or that unpin sees the flag and drains what this publish keeps.
        MAY_HOLD.store(true, Ordering::SeqCst);
        if !crate::epoch::readers_active() {
            // The last pin ended after the horizon sample, and any later pin
            // stabilizes past this commit's version: nothing needs history.
            return (0, Vec::new(), if chained { table.take(id) } else { None });
        }
        let old = (outgoing, slot.take().expect("the outgoing value"));
        let chain = table.chains.get_mut(&id).filter(|_| chained);
        let history = chain.map(|c| &mut **c as &mut dyn Any);
        let Some(chain) = history.and_then(|c| c.downcast_mut::<Chain<T>>()) else {
            // The bit is clear, a drain freed the chain, or the cell moved
            // here and finds no chain of its type (see "Moving a cell" at
            // `TCell`): start a chain. An entry under this id was left by a
            // cell that moved away or was forgotten, and gives way.
            let stale = table.chains.insert(id, Box::new(vec![old]));
            return (CHAINED, Vec::new(), stale);
        };
        chain.insert(0, old);
        let keep = chain
            .iter()
            .position(|e| e.0 <= horizon)
            .map_or(chain.len(), |i| i + 1);
        (CHAINED, chain.split_off(keep.min(MAX_CHAIN_DEPTH)), None)
    }
}

impl<T: Clone + Send + Sync + 'static> AnyVar for TCell<T> {
    fn id(&self) -> VarId {
        TCell::id(self)
    }

    fn stamp(&self) -> (u64, bool) {
        let w = self.vlock.load(Ordering::Acquire);
        (w >> VERSION_SHIFT, w & LOCKED != 0)
    }

    fn try_lock_commit(&self) -> bool {
        self.vlock.fetch_or(LOCKED, Ordering::AcqRel) & LOCKED == 0
    }

    fn unlock_commit(&self) {
        let w = self.vlock.fetch_and(!LOCKED, Ordering::Release);
        debug_assert!(w & LOCKED != 0, "unlock_commit on an unlocked var");
    }

    fn apply(&self, val: &mut (dyn Any + Send + Sync), version: u64, horizon: u64) {
        let slot = val
            .downcast_mut::<Option<T>>()
            .expect("write-set entry type mismatch");
        let new = slot.take().expect("a buffered value is published once");
        debug_assert!(version <= MAX_VERSION, "version past the cell word");
        // Bar new readers, then wait until the registered ones are gone.
        let mut w = self.vlock.fetch_or(SWAP, Ordering::Acquire);
        debug_assert!(w & LOCKED != 0, "apply without the commit lock");
        while w & READERS != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
            w = self.vlock.load(Ordering::Acquire);
        }
        // We hold the lock bit: the word still names the outgoing version.
        let outgoing = w >> VERSION_SHIFT;
        // SAFETY: the caller holds the commit lock, so no other `apply` runs
        // on this cell. The swap bit is set and no reader is registered, and
        // none registers while the bit is set, so nothing else refers to the
        // value or the chain until the store below clears the bit.
        let old = std::mem::replace(unsafe { &mut *self.value.get() }, new);
        // The outgoing value goes back to the write set, which drops it once
        // the whole commit is published, unless a snapshot may still need
        // it: then it moves onto the chain before the store that restamps
        // the word. The horizon is sampled once per commit; a pin landing
        // mid-batch is safe anyway, as its stabilization loop (`epoch::pin`)
        // puts this commit's version at or below the pinned epoch.
        *slot = Some(old);
        // Until the store, the swap runs no code of `T`'s, so no panic can
        // leave the swap bit set, and none runs under the table lock: what the
        // publish takes out of the chain or the table is moved out here and
        // dropped on return, after the store lets readers back in.
        let (chained, cut, freed) = self.keep_history(w & CHAINED != 0, outgoing, slot, horizon);
        let reclaimed = cut.len() + freed.as_deref().map_or(0, History::len);
        // Stamp, end the swap and release the lock in one store: no reader
        // is registered, and none registers until the store lands.
        self.vlock
            .store(version << VERSION_SHIFT | chained, Ordering::Release);
        metrics::tally_n(Total::ChainEntriesReclaimed, reclaimed as u64);
    }
}

/// A transactional shared variable holding a `T`: a [`TCell`] in an
/// allocation of its own.
///
/// Cloning a `TVar` clones the *reference* (it is an `Arc` internally); both
/// clones name the same cell.
///
/// ```
/// use stm::{atomic, TVar};
/// let v = TVar::new(1);
/// atomic(|tx| { let x = v.read(tx); v.write(tx, x + 1); });
/// assert_eq!(v.read_committed(), 2);
/// ```
pub struct TVar<T> {
    pub(crate) core: Arc<TCell<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Create a new variable with an initial committed value.
    pub fn new(value: T) -> Self {
        TVar {
            core: Arc::new(TCell::new(value)),
        }
    }

    /// Unique id of this variable among live vars.
    pub fn id(&self) -> VarId {
        self.core.id()
    }

    /// Label this variable for conflict attribution: [`var_label`] names it
    /// while the var lives ([`label_owner`] of its own cell).
    pub fn set_label(&self, label: impl Into<String>) {
        label_owner(&self.core, label);
    }

    /// Transactional read. Returns the transaction's own buffered value if it
    /// has written this var, otherwise a validated committed snapshot.
    #[must_use = "a read both yields the value and records a dependency; use `let _ =` when only the dependency is wanted"]
    pub fn read(&self, tx: &mut Txn) -> T {
        self.core.read(tx, &self.core)
    }

    /// Transactional write (buffered in the current frame's redo log until
    /// commit).
    pub fn write(&self, tx: &mut Txn, value: T) {
        self.core.write(tx, &self.core, value);
    }

    /// Read the committed value directly, outside any transaction.
    ///
    /// Single reads are trivially atomic (and wait out an in-flight publish);
    /// use a transaction for anything that must be consistent across multiple
    /// variables.
    #[must_use]
    pub fn read_committed(&self) -> T {
        self.core.read_committed()
    }

    /// Committed version stamp (diagnostic).
    pub fn version(&self) -> u64 {
        self.core.version()
    }

    /// Length of this var's multi-version history chain (diagnostic). Zero
    /// once the last snapshot pin has ended, as its unpin frees every
    /// chain; never exceeds the compiled-in chain depth bound.
    pub fn chain_len(&self) -> usize {
        // Read under the table lock, where a publish changes the chain: a
        // drain frees chains without waiting for an unpinned reader.
        CHAINS.lock().chains.get(&self.id()).map_or(0, |e| e.len())
    }

    pub(crate) fn committed_pair(&self) -> (u64, T) {
        self.core.committed_pair()
    }

    #[cfg(test)]
    pub(crate) fn any(&self) -> Arc<dyn AnyVar> {
        self.core.clone()
    }
}

impl<T: Clone + Send + Sync + Default + 'static> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

impl<T: std::fmt::Debug + Clone + Send + Sync + 'static> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ver, val) = self.committed_pair();
        f.debug_struct("TVar")
            .field("id", &self.id())
            .field("version", &ver)
            .field("value", &val)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;
    use crate::epoch::{self, PIN_TESTS};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn fresh_var_has_version_zero() {
        let v = TVar::new(7u32);
        assert_eq!(v.version(), 0);
        assert_eq!(v.read_committed(), 7);
    }

    #[test]
    fn ids_unique_and_clone_shares_identity() {
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        assert_ne!(a.id(), b.id());
        let a2 = a.clone();
        assert_eq!(a.id(), a2.id());
    }

    /// Spin until the cell word shows `bits`.
    fn await_word(v: &TVar<u64>, bits: u64) {
        while v.core.vlock.load(Ordering::Acquire) & bits != bits {
            std::thread::yield_now();
        }
    }

    /// Spawn `f` in `s` and return once it runs, after giving it the CPU a
    /// fixed number of times, so a thread that could wrongly finish by now
    /// has every chance to.
    fn spawn_running<'s, R: Send + 's>(
        s: &'s std::thread::Scope<'s, '_>,
        f: impl FnOnce() -> R + Send + 's,
    ) -> std::thread::ScopedJoinHandle<'s, R> {
        let started = Arc::new(std::sync::Barrier::new(2));
        let barrier = Arc::clone(&started);
        let h = s.spawn(move || {
            barrier.wait();
            f()
        });
        started.wait();
        for _ in 0..1_000 {
            std::thread::yield_now();
        }
        h
    }

    fn readers(v: &TVar<u64>) -> u64 {
        (v.core.vlock.load(Ordering::Acquire) & READERS) / READER
    }

    #[test]
    fn apply_updates_value_and_version() {
        let v = TVar::new(1i32);
        let any = v.any();
        assert!(any.try_lock_commit());
        any.apply(&mut Some(42i32), 9, u64::MAX);
        assert_eq!(v.read_committed(), 42);
        assert_eq!(v.version(), 9);
    }

    #[test]
    fn commit_lock_roundtrip_preserves_version() {
        let v = TVar::new(5u8);
        let any = v.any();
        assert!(any.try_lock_commit());
        assert!(!any.try_lock_commit(), "lock is exclusive");
        assert_eq!(any.stamp(), (0, true), "version unchanged while locked");
        any.unlock_commit();
        assert_eq!(any.stamp(), (0, false));
        // A publish through apply releases and stamps in one store.
        assert!(any.try_lock_commit());
        any.apply(&mut Some(9u8), 3, u64::MAX);
        assert_eq!(any.stamp(), (3, false));
        assert_eq!(v.read_committed(), 9);
    }

    #[test]
    fn a_registered_reader_fails_no_validation_and_no_lock_attempt() {
        let v = TVar::new(1u64);
        let any = v.any();
        let reader = v.core.register(u64::MAX);
        assert_eq!(readers(&v), 1);
        assert!(clock::read_valid(&*any, 0), "a reader is no lock");
        assert_eq!(clock::stable_version(&*any), 0);
        assert!(any.try_lock_commit(), "a reader does not hold the lock");
        assert!(!clock::read_valid(&*any, 0), "another's lock");
        any.unlock_commit();
        let mut slot = Some(2u64);
        let mut writes: Vec<clock::Write> = vec![(&*any, &mut slot)];
        let mut order = clock::order_of(&writes);
        let guard = clock::CommitGuard::lock_write_set(&mut writes, &mut order);
        assert!(guard.read_valid(&*any, 0), "own lock");
        drop(guard);
        assert!(clock::read_valid(&*any, 0));
        assert_eq!((reader.version(), *reader.value()), (0, 1));
        drop(reader);
        assert_eq!(readers(&v), 0);
    }

    #[test]
    fn a_reader_that_finds_the_count_full_waits_for_a_slot() {
        let v = TVar::new(1u64);
        let held: Vec<_> = (0..READERS / READER)
            .map(|_| v.core.register(u64::MAX))
            .collect();
        assert_eq!(readers(&v), READERS / READER);
        std::thread::scope(|s| {
            let late = spawn_running(s, || v.read_committed());
            assert!(!late.is_finished(), "registered past a full count");
            drop(held);
            assert_eq!(late.join().unwrap(), 1);
        });
        assert_eq!(readers(&v), 0);
    }

    #[test]
    fn a_clone_that_panics_deregisters_its_reader() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        struct PanicOnce(u64);
        impl Clone for PanicOnce {
            fn clone(&self) -> Self {
                if ARMED.swap(false, Ordering::Relaxed) {
                    panic!("clone panics once");
                }
                PanicOnce(self.0)
            }
        }
        let v = TVar::new(PanicOnce(1));
        ARMED.store(true, Ordering::Relaxed);
        assert!(panics(|| {
            let _ = v.read_committed();
        }));
        let word = v.core.vlock.load(Ordering::Acquire);
        assert_eq!(word & READERS, 0, "the unwinding reader stayed registered");
        // The next publish finds no reader to wait for.
        crate::atomic(|tx| v.write(tx, PanicOnce(2)));
        assert_eq!(v.read_committed().0, 2);
    }

    /// A value whose next drop panics once `ARMED` is set.
    static ARMED: AtomicBool = AtomicBool::new(false);
    struct PanicOnDrop(u64);
    impl Clone for PanicOnDrop {
        fn clone(&self) -> Self {
            PanicOnDrop(self.0)
        }
    }
    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            if ARMED.swap(false, Ordering::Relaxed) {
                panic!("drop panics once");
            }
        }
    }

    #[test]
    fn a_drop_that_panics_in_a_reclaimed_entry_leaves_the_word_released() {
        let _serial = PIN_TESTS.lock();
        let _pin = epoch::pin();
        let v = TVar::new(PanicOnDrop(0));
        let any = v.any();
        // Horizon 0 keeps the outgoing head: the chain is [(0, 0)].
        assert!(any.try_lock_commit());
        any.apply(&mut Some(PanicOnDrop(1)), 4, 0);
        // Horizon 4 cuts (0, 0) behind the pushed (4, 1), and its drop panics.
        ARMED.store(true, Ordering::Relaxed);
        assert!(any.try_lock_commit());
        assert!(panics(|| any.apply(&mut Some(PanicOnDrop(2)), 6, 4)));
        let word = v.core.vlock.load(Ordering::Acquire);
        assert_eq!(
            word & (LOCKED | SWAP | READERS),
            0,
            "the unwind kept the word"
        );
        assert_eq!((v.version(), v.read_committed().0), (6, 2));
        assert_eq!(v.chain_len(), 1);
    }

    #[test]
    fn read_at_waits_out_in_flight_publish_instead_of_tearing() {
        // Regression for the torn-snapshot race: a commit of {a, b} draws
        // its write version before applying vars one at a time, so a
        // snapshot pinned at s >= wv can catch `a` already applied while
        // `b` still holds its pre-commit value — both stamped <= s. The
        // read must wait out `b`'s in-flight publish (its commit lock is
        // the witness), never accept the stale head.
        let a = TVar::new(0i32);
        let b = TVar::new(0i32);
        let (any_a, any_b) = (a.any(), b.any());
        assert!(any_a.try_lock_commit());
        assert!(any_b.try_lock_commit());
        let wv = 5;
        any_a.apply(&mut Some(1i32), wv, u64::MAX);
        assert_eq!(a.core.read_at(wv), Some(1), "applied var shows new value");
        std::thread::scope(|s| {
            // A torn read_at returns Some(0) here without waiting.
            let reader = spawn_running(s, || b.core.read_at(wv));
            assert!(!reader.is_finished(), "read a commit-locked head <= s");
            any_b.apply(&mut Some(2i32), wv, u64::MAX);
            assert_eq!(
                reader.join().unwrap(),
                Some(2),
                "snapshot saw a torn write set"
            );
        });
    }

    #[test]
    fn a_publish_waits_for_registered_readers_and_bars_new_ones() {
        let v = TVar::new(1u64);
        let any = v.any();
        std::thread::scope(|s| {
            // Started under the commit lock, a validated read waits the
            // publish out and returns the new value with the new version.
            assert!(any.try_lock_commit(), "simulate a publish in flight");
            let reader = spawn_running(s, || v.committed_pair());
            assert!(!reader.is_finished(), "read a commit-locked head");
            any.apply(&mut Some(2u64), 7, u64::MAX);
            assert_eq!(reader.join().unwrap(), (7, 2), "mixed or stale pair");
            // Registered before a publish, a reader holds off its swap...
            let held = v.core.register(u64::MAX);
            assert!(any.try_lock_commit());
            let publisher = s.spawn(|| any.apply(&mut Some(3u64), 9, u64::MAX));
            await_word(&v, LOCKED | SWAP);
            // ...and a reader arriving during the swap waits for its end.
            let late = spawn_running(s, || v.committed_pair());
            assert!(!publisher.is_finished(), "swapped under a reader");
            assert!(!late.is_finished(), "registered during a swap");
            assert_eq!((held.version(), *held.value()), (7, 2));
            drop(held);
            publisher.join().unwrap();
            assert_eq!(late.join().unwrap(), (9, 3), "mixed or stale pair");
        });
        assert_eq!(readers(&v), 0);
    }

    #[test]
    fn snapshot_below_head_reads_chain_while_another_thread_publishes() {
        // Pinned at S = 2 below the head at 4, reading while a publisher
        // that sees the pin (horizon 2) extends the chain: always 0. A live
        // pin keeps the chain from a drain.
        let _serial = PIN_TESTS.lock();
        let _pin = epoch::pin();
        let v = TVar::new(0u64);
        assert!(v.any().try_lock_commit());
        v.any().apply(&mut Some(1u64), 4, 2);
        let any = v.any();
        let publisher = std::thread::spawn(move || {
            for value in 3..=8u64 {
                assert!(any.try_lock_commit());
                any.apply(&mut Some(value), value * 2, 2);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        while !publisher.is_finished() {
            assert_eq!(v.core.read_at(2), Some(0), "latest(v, 2) is 0");
        }
        publisher.join().unwrap();
        assert_eq!(v.chain_len(), 7, "heads 0, 4, .., 14");
        assert_eq!(v.core.read_at(7), Some(3), "latest(v, 7) is version 6");
    }

    #[test]
    fn read_at_serves_chain_without_waiting_when_head_is_newer() {
        // An in-flight publish only forces a wait when the committed head
        // is still at or below the snapshot: a head already newer proves
        // the pending version is newer too, so the chain answers at once.
        let _serial = PIN_TESTS.lock();
        let _pin = epoch::pin();
        let v = TVar::new(0u32);
        let any = v.any();
        // horizon 0 retains the outgoing head on the chain: [(0, 0)].
        assert!(any.try_lock_commit());
        any.apply(&mut Some(1u32), 4, 0);
        assert!(any.try_lock_commit(), "simulate a publish in flight");
        assert_eq!(v.core.read_at(3), Some(0), "chain hit, no spin");
        any.unlock_commit();
        assert_eq!(v.core.read_at(4), Some(1));
    }

    /// Entries the chain table holds for cell `id`: 0 or 1.
    fn entries(id: VarId) -> usize {
        usize::from(CHAINS.lock().chains.contains_key(&id))
    }

    #[test]
    fn a_cell_chained_under_a_pin_leaves_no_entry_once_dropped() {
        let _serial = PIN_TESTS.lock();
        let v = TVar::new(0u64);
        let id = v.id();
        // Each publish under the pin keeps its outgoing value on the chain.
        let pin = epoch::pin();
        for i in 1..=3 {
            crate::atomic(|tx| v.write(tx, i));
        }
        assert_eq!((v.chain_len(), entries(id)), (3, 1));
        // The pin outlives the var, so no drain runs: the drop alone
        // removes the entry.
        drop(v);
        assert_eq!(entries(id), 0, "a dropped cell left its chain behind");
        drop(pin);
    }

    /// Every entry of the chain table, of every cell.
    fn table_len() -> usize {
        CHAINS.lock().chains.len()
    }

    #[test]
    fn the_last_unpin_leaves_no_entry_even_for_a_moved_out_cell() {
        let _serial = PIN_TESTS.lock();
        let v = TVar::new(0u64);
        let p = pair();
        let ids = [v.id(), p.a.id(), p.b.id()];
        let pin = epoch::pin();
        for i in 1..=3 {
            crate::atomic(|tx| {
                v.write(tx, i);
                p.a.write(tx, &p, i);
                p.b.write(tx, &p, i);
            });
        }
        assert_eq!(ids.map(entries), [1, 1, 1]);
        // Moved out of its block while the pin is live, a chained cell
        // leaves its chain at its old address, and its drop takes none.
        let Ok(Pair { a, b }) = Arc::try_unwrap(p) else {
            panic!("the pair is still shared");
        };
        let moved = Box::new(a);
        drop(b);
        assert_eq!(ids.map(entries), [1, 1, 1]);
        drop(pin);
        assert_eq!(ids.map(entries), [0, 0, 0], "an entry outlived the pins");
        assert_eq!(table_len(), 0, "the last unpin left entries behind");
        assert!(!MAY_HOLD.load(Ordering::SeqCst));
        // The chain bit is only a hint now: a drained var publishes with no
        // pin and with one as before, and a drained cell's drop misses.
        assert_ne!(v.core.vlock.load(Ordering::Acquire) & CHAINED, 0);
        crate::atomic(|tx| v.write(tx, 4));
        assert_eq!(v.core.vlock.load(Ordering::Acquire) & CHAINED, 0);
        let pin = epoch::pin();
        crate::atomic(|tx| v.write(tx, 5));
        assert_eq!(v.chain_len(), 1, "a publish after a drain starts a chain");
        assert_eq!(v.core.read_at(v.version() - 1), Some(4));
        drop(moved);
        drop(pin);
        assert_eq!(table_len(), 0);
    }

    #[test]
    fn a_drain_keeps_slots_for_as_many_chains_as_it_freed() {
        let _serial = PIN_TESTS.lock();
        let vars: Vec<_> = (0..64u64).map(TVar::new).collect();
        // Two rounds of 64 chains, each drained by its unpin, leave both
        // maps with slots for 64.
        for round in 1..=2 {
            let pin = epoch::pin();
            for v in &vars {
                crate::atomic(|tx| v.write(tx, round));
            }
            drop(pin);
        }
        let slots = CHAINS.lock().chains.capacity();
        assert!(slots >= 64, "the drains left {slots} slots");
        // A chain made and removed under the next pin gives none back.
        let pin = epoch::pin();
        let v = TVar::new(0u64);
        crate::atomic(|tx| v.write(tx, 1));
        assert_eq!(entries(v.id()), 1);
        drop(v);
        assert_eq!(CHAINS.lock().chains.capacity(), slots);
        drop(pin);
    }

    #[test]
    fn unpinned_publishes_of_an_unchained_var_make_no_entry() {
        let v = TVar::new(0u64);
        let any = v.any();
        // Horizon `u64::MAX` is what every publish samples while no
        // snapshot is pinned.
        for i in 1..=10_000u64 {
            assert!(any.try_lock_commit());
            any.apply(&mut Some(i), i, u64::MAX);
        }
        assert_eq!((v.version(), v.read_committed()), (10_000, 10_000));
        assert_eq!(v.core.vlock.load(Ordering::Acquire) & CHAINED, 0);
        assert_eq!(entries(v.id()), 0, "an unpinned publish made a chain");
        assert_eq!(v.chain_len(), 0);
    }

    /// A node of a linked structure, as a tree node is: its link is a cell
    /// holding another node's `Arc`.
    struct Node {
        next: TCell<Option<Arc<Node>>>,
    }
    // SAFETY: one plain cell field.
    unsafe impl CellOwner for Node {}

    #[test]
    fn nodes_unlinked_under_a_pin_drop_within_a_deadline() {
        let mut nodes: Vec<_> = (0..8)
            .map(|_| {
                Arc::new(Node {
                    next: TCell::new(None),
                })
            })
            .collect();
        crate::atomic(|tx| {
            for w in nodes.windows(2) {
                w[0].next.write(tx, &w[0], Some(Arc::clone(&w[1])));
            }
        });
        // Another thread unlinks every node while this one holds a pin, so
        // each link's chain keeps the next node's `Arc`. The pin outlives the
        // test's publish, so the publish frees the chains, not a drain.
        let _serial = PIN_TESTS.lock();
        let _pin = epoch::pin();
        crate::atomic_read(|tx| {
            let _ = nodes[0].next.read(tx, &nodes[0]);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for n in &nodes {
                        crate::atomic(|tx| n.next.write(tx, n, None));
                    }
                });
            });
        });
        let weak: Vec<_> = nodes.iter().map(Arc::downgrade).collect();
        let ids: Vec<_> = nodes.iter().map(|n| n.next.id()).collect();
        let head = nodes.swap_remove(0);
        drop(nodes);
        // Now each node after the first lives only on its predecessor's
        // chain. A publish that frees the first chain, as one that sees no
        // pin does, starts the drops that free the others, each taking the
        // table lock again.
        let (done, finished) = std::sync::mpsc::channel();
        let freer = std::thread::spawn(move || {
            let any: &dyn AnyVar = &head.next;
            assert!(any.try_lock_commit());
            any.apply(&mut Some(None::<Arc<Node>>), any.version() + 1, u64::MAX);
            drop(head);
            let _ = done.send(());
        });
        // A chain dropped under the table lock deadlocks the freer, which
        // then holds the lock for good, so every other test that takes it
        // would hang too: end the whole run at the deadline.
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        if waited == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            eprintln!("nodes_unlinked_under_a_pin_drop_within_a_deadline: no chain freed");
            std::process::exit(1);
        }
        freer.join().unwrap();
        assert!(weak.iter().all(|w| w.strong_count() == 0), "a node leaked");
        assert!(
            ids.iter().all(|&id| entries(id) == 0),
            "an entry outlived its cell"
        );
    }

    #[test]
    fn nodes_unlinked_under_a_pin_are_drained_within_a_deadline() {
        let _serial = PIN_TESTS.lock();
        let nodes: Vec<_> = (0..8)
            .map(|_| {
                Arc::new(Node {
                    next: TCell::new(None),
                })
            })
            .collect();
        crate::atomic(|tx| {
            for w in nodes.windows(2) {
                w[0].next.write(tx, &w[0], Some(Arc::clone(&w[1])));
            }
        });
        let weak: Vec<_> = nodes.iter().map(Arc::downgrade).collect();
        let ids: Vec<_> = nodes.iter().map(|n| n.next.id()).collect();
        let head = Arc::clone(&nodes[0]);
        // A thread unlinks every node under its own pin, so each link's
        // chain keeps the next node's `Arc`, drops its nodes but the head,
        // and unpins. Each node after the first then lives only on its
        // predecessor's chain: the drain frees them all, and the drops it
        // starts take the table lock again.
        let (done, finished) = std::sync::mpsc::channel();
        let freer = std::thread::spawn(move || {
            let pin = epoch::pin();
            for n in &nodes {
                crate::atomic(|tx| n.next.write(tx, n, None));
            }
            drop(nodes);
            drop(pin);
            let _ = done.send(());
        });
        // A chain dropped under the table lock deadlocks the freer, which
        // then holds the lock for good, so every other test that takes it
        // would hang too: end the whole run at the deadline.
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        if waited == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            eprintln!("nodes_unlinked_under_a_pin_are_drained_within_a_deadline: no drain");
            std::process::exit(1);
        }
        freer.join().unwrap();
        assert!(
            weak[1..].iter().all(|w| w.strong_count() == 0),
            "a node leaked"
        );
        assert!(
            ids.iter().all(|&id| entries(id) == 0),
            "an entry outlived the pins"
        );
        drop(head);
    }

    #[test]
    fn a_drop_that_panics_in_a_drain_leaves_the_table_unlocked_and_no_pin() {
        let _serial = PIN_TESTS.lock();
        let v = TVar::new(PanicOnDrop(0));
        let pin = epoch::pin();
        crate::atomic(|tx| v.write(tx, PanicOnDrop(1)));
        assert_eq!(v.chain_len(), 1, "the pin kept no chain");
        ARMED.store(true, Ordering::Relaxed);
        let dropped = panics(|| drop(pin));
        ARMED.store(false, Ordering::Relaxed);
        assert!(dropped, "the drain dropped no entry");
        assert!(!epoch::readers_active(), "the unpin left its pin counted");
        assert!(
            CHAINS.try_lock().is_some(),
            "the drain left the table locked"
        );
        assert_eq!(entries(v.id()), 0);
        // Pins and drains go on as before.
        let pin = epoch::pin();
        crate::atomic(|tx| v.write(tx, PanicOnDrop(2)));
        assert_eq!(v.chain_len(), 1);
        drop(pin);
        assert_eq!((entries(v.id()), v.read_committed().0), (0, 2));
    }

    struct Pair {
        a: TCell<u64>,
        b: TCell<u64>,
    }
    // SAFETY: two plain cell fields.
    unsafe impl CellOwner for Pair {}

    fn pair() -> Arc<Pair> {
        Arc::new(Pair {
            a: TCell::new(1),
            b: TCell::new(2),
        })
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    fn row(n: u64) -> Arc<Box<[TCell<u64>]>> {
        Arc::new((0..n).map(TCell::new).collect())
    }

    #[test]
    fn a_moved_chained_cell_leaves_its_chain_at_its_old_address() {
        let _serial = PIN_TESTS.lock();
        let _pin = epoch::pin();
        let mut p = pair();
        let ids = (p.a.id(), p.b.id());
        // Published at horizon 0, as under a pin at 0, each cell keeps its
        // outgoing head: `a`'s chain is [(0, 1)], `b`'s [(0, 2)].
        let (a, b): (&dyn AnyVar, &dyn AnyVar) = (&p.a, &p.b);
        assert!(a.try_lock_commit() && b.try_lock_commit());
        a.apply(&mut Some(10u64), 4, 0);
        b.apply(&mut Some(20u64), 5, 0);
        assert_eq!((p.a.read_at(0), p.b.read_at(0)), (Some(1), Some(2)));
        // Swapped in place, each cell keeps its word and value but reads
        // below its head from the chain at its new address: the other
        // cell's history.
        let q = Arc::get_mut(&mut p).expect("the pair is not shared");
        std::mem::swap(&mut q.a, &mut q.b);
        assert_eq!((p.a.read_committed(), p.b.read_committed()), (20, 10));
        assert_eq!(
            (p.a.read_at(0), p.b.read_at(0)),
            (Some(1), Some(2)),
            "a chain moved with its cell"
        );
        // Moved out and dropped, a cell takes no entry with it: its chain
        // stays until a cell at the old address starts one of its own. An
        // unpinned publish of the fresh cell there leaves it in place.
        let q = Arc::get_mut(&mut p).expect("the pair is not shared");
        drop(std::mem::replace(&mut q.a, TCell::new(0)));
        let a: &dyn AnyVar = &p.a;
        assert!(a.try_lock_commit());
        a.apply(&mut Some(30u64), 6, u64::MAX);
        assert_eq!(entries(ids.0), 1, "the chain left with its cell");
        assert!(a.try_lock_commit());
        a.apply(&mut Some(40u64), 7, 0);
        assert_eq!(
            (p.a.read_at(0), p.a.read_at(6)),
            (None, Some(30)),
            "the new chain is not its own"
        );
        drop(p);
        assert_eq!((entries(ids.0), entries(ids.1)), (0, 0));
    }

    #[test]
    fn the_chain_table_gives_back_the_slots_of_freed_chains() {
        // A burst of 10,000 chains, as writes under a long pin make, then
        // their cells' drops while the pin lasts.
        let _serial = PIN_TESTS.lock();
        let _pin = epoch::pin();
        let vars: Vec<_> = (0..10_000u64).map(TVar::new).collect();
        for v in &vars {
            let any: &dyn AnyVar = &*v.core;
            assert!(any.try_lock_commit());
            any.apply(&mut Some(1u64), 1, 0);
        }
        assert!(CHAINS.lock().chains.capacity() >= 10_000);
        drop(vars);
        // Other tests may hold a few chains meanwhile, never hundreds.
        let slots = CHAINS.lock().chains.capacity();
        assert!(slots < 1_000, "{slots} slots kept after the burst");
    }

    #[test]
    fn cells_are_read_and_written_through_their_owner() {
        let p = pair();
        crate::atomic(|tx| {
            let a = p.a.read(tx, &p);
            p.b.write(tx, &p, a + 10);
            assert_eq!(p.b.read(tx, &p), 11, "own write seen");
        });
        assert_eq!((p.a.read_committed(), p.b.read_committed()), (1, 11));
        assert_eq!(p.a.version(), 0);
        assert!(p.b.version() > 0);
        assert_ne!(p.a.id(), p.b.id());
        // A boxed slice holds its cells outside the box's own bytes.
        let r = row(4);
        crate::atomic(|tx| {
            let x = r[1].read(tx, &r);
            r[3].write(tx, &r, x + 10);
        });
        assert_eq!(r[3].read_committed(), 11);
    }

    #[test]
    fn a_cell_accessed_through_an_arc_that_does_not_hold_it_panics() {
        let (p, q) = (pair(), pair());
        let (r, s) = (row(4), row(4));
        let lone = TCell::new(0u64);
        let var = Arc::new(TCell::new(0u64));
        assert!(panics(|| crate::atomic(|tx| {
            let _ = p.a.read(tx, &q);
        })));
        assert!(panics(|| crate::atomic(|tx| p.b.write(tx, &q, 5))));
        assert!(panics(|| crate::atomic(|tx| {
            let _ = lone.read(tx, &var);
        })));
        assert!(panics(|| crate::atomic(|tx| var.write(tx, &p, 5))));
        assert!(panics(|| crate::atomic(|tx| {
            let _ = r[0].read(tx, &s);
        })));
        assert!(panics(|| crate::atomic(|tx| r[2].write(tx, &p, 5))));
        assert!(panics(|| crate::atomic(|tx| p.a.write(tx, &r, 5))));
        assert_eq!(q.b.read_committed(), 2, "the foreign write never landed");
        assert_eq!(var.read_committed(), 0);
        assert_eq!(r[2].read_committed(), 2);
        assert_eq!(p.a.read_committed(), 1);
    }

    /// A run of a shared row's cells, labelled as an owner of its own.
    struct Window {
        row: Arc<Box<[TCell<u64>]>>,
        range: Range<usize>,
    }

    // SAFETY: the window's cells lie in the row, which it keeps alive and
    // shared, so they stay in place until the window drops.
    unsafe impl CellOwner for Window {
        fn cells(&self) -> Range<usize> {
            let (base, size) = (self.row.as_ptr() as usize, size_of::<TCell<u64>>());
            base + self.range.start * size..base + self.range.end * size
        }
    }

    #[test]
    fn a_dead_label_never_hides_a_live_one() {
        let r = row(16);
        let window = |range| {
            Arc::new(Window {
                row: r.clone(),
                range,
            })
        };
        let inner = window(4..8);
        label_owner(&inner, "inner");
        assert_eq!(var_label(r[5].id()).as_deref(), Some("inner"));
        assert_eq!(var_label(r[8].id()), None);
        drop(inner);
        assert_eq!(var_label(r[5].id()), None, "a label outlived its owner");
        // Left in place, the dead entry starting inside the new block would
        // answer for cells 4..8.
        let outer = window(0..16);
        label_owner(&outer, "outer");
        assert!(r
            .iter()
            .all(|c| var_label(c.id()).as_deref() == Some("outer")));
        label_owner(&outer, "renamed");
        assert_eq!(var_label(r[5].id()).as_deref(), Some("renamed"));
    }

    #[test]
    fn dead_labels_are_pruned_as_the_table_grows() {
        for i in 0..1_000u64 {
            TVar::new(i).set_label("short-lived");
        }
        let len = LABELS.lock().blocks.len();
        assert!(
            len <= 2 * MIN_PRUNE_AT,
            "{len} entries after 1,000 dead labels"
        );
    }

    #[test]
    fn labels_fast_path_and_registration() {
        let v = TVar::new(0u8);
        // Whether or not another test registered a label, this id has none.
        assert_eq!(var_label(v.id()), None);
        v.set_label("counter");
        assert_eq!(var_label(v.id()).as_deref(), Some("counter"));
        let id = v.id();
        drop(v);
        assert_eq!(var_label(id), None, "a label dies with its var");
    }
}
