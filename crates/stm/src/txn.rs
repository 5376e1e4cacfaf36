//! Transaction contexts, nesting frames, and the commit machinery.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).

use crate::clock::{self, CommitGuard, Slot, WriteSet};
use crate::handle::TxHandle;
use crate::handlers::{Handler, LocalUndo, Participant};
use crate::hash::VarIdMap;
use crate::interrupt::{self, AbortCause, TxInterrupt};
use crate::metrics::{self, Total};
use crate::trace;
use crate::tvar::{held, AnyVar, CellOwner, CellPtr, TCell, VarId};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

/// How reads and writes behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMode {
    /// Normal execution: reads are logged and validated, writes are buffered
    /// in a redo log until commit.
    Speculative,
    /// Handler execution under the handler lane: reads see committed state,
    /// writes publish immediately (per-var commit lock + a fresh clock
    /// version each). Nesting operations are flattened.
    Direct,
}

struct ReadEntry {
    cell: CellPtr,
    version: u64,
    /// Virtual-cycle offset within the body at which the read first
    /// happened (simulator timing; meaningless in threaded mode).
    offset: u64,
}

/// What [`Txn::log_read`] made of a validated read.
enum FirstRead {
    /// A frame holds the read at this version already: version unchanged
    /// implies value unchanged.
    Repeated,
    /// The innermost frame logged it; its owner is to be pinned.
    Logged,
    /// The version is past `rv`: extend and read again.
    Stale,
}

/// One frame's buffered writes of one value type: per entry, a cell and a
/// value. The value is the buffered one until a commit moves it into the
/// cell, then the outgoing one or `None` (see `AnyVar::apply`), dropped
/// when the frame is cleared.
struct Log<T> {
    entries: Vec<(NonNull<TCell<T>>, Option<T>)>,
}

// SAFETY: the pointers give only shared access to cells, which are `Sync`
// (`TCell<T>` is for `T: Send + Sync`), and the values are `Send`.
unsafe impl<T: Send + Sync> Send for Log<T> {}

/// A [`Log`] with its value type erased, as a commit or a closed frame's
/// merge reaches it. Every entry's cell lies in an owner block that the
/// frame holding the log pins. Only what needs `T` is here, so each value
/// type adds little code.
trait WriteLog: Any + Send {
    /// Entry `i`'s cell.
    fn var(&self, i: u32) -> &dyn AnyVar;
    /// Publish entry `i`'s value into its cell.
    fn apply(&mut self, i: u32, version: u64, horizon: u64);
    /// Entries in the log.
    fn len(&self) -> usize;
    /// Move entry `i` into `into`, a log of the same value type: its value
    /// onto entry `at`, or the entry onto the end when `at` is `None`.
    fn move_entry(&mut self, i: u32, into: &mut dyn WriteLog, at: Option<u32>);
    /// Drop every entry, and the buffer too if it has room for more than
    /// [`SPARE_FRAME_ENTRIES`].
    fn clear(&mut self);
    /// Entries the log has room for without allocating.
    fn capacity(&self) -> usize;
}

impl<T: Clone + Send + Sync + 'static> WriteLog for Log<T> {
    fn var(&self, i: u32) -> &dyn AnyVar {
        // SAFETY: the frame holding this log pins the cell's owner block.
        unsafe { self.entries[i as usize].0.as_ref() }
    }

    fn apply(&mut self, i: u32, version: u64, horizon: u64) {
        let (cell, val) = &mut self.entries[i as usize];
        // SAFETY: as in `var`.
        AnyVar::apply(unsafe { cell.as_ref() }, val, version, horizon);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn move_entry(&mut self, i: u32, into: &mut dyn WriteLog, at: Option<u32>) {
        let into: &mut dyn Any = into;
        let into: &mut Log<T> = into.downcast_mut().expect("a log of the same type");
        let (cell, val) = &mut self.entries[i as usize];
        match at {
            Some(at) => into.entries[at as usize].1 = val.take(),
            None => into.entries.push((*cell, val.take())),
        }
    }

    fn clear(&mut self) {
        clear_vec(&mut self.entries);
    }

    fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

impl<T: Clone + Send + Sync + 'static> Log<T> {
    /// A new, empty log of `T`s.
    fn empty() -> Box<dyn WriteLog> {
        Box::new(Log::<T> {
            entries: Vec::new(),
        })
    }
}

/// A frame's write log of one value type, found by the type's [`TypeId`]
/// and kept with the function that makes an empty one.
struct TypedLog {
    ty: TypeId,
    empty: fn() -> Box<dyn WriteLog>,
    log: Box<dyn WriteLog>,
}

/// A frame's write logs, one per value type; a write-set [`Slot`] names a
/// log and an entry in it.
#[derive(Default)]
struct Logs(Vec<TypedLog>);

impl Logs {
    /// The index of the log of type `ty`, made by `empty` if the frame has
    /// none yet.
    fn index(&mut self, ty: TypeId, empty: fn() -> Box<dyn WriteLog>) -> usize {
        self.0.iter().position(|l| l.ty == ty).unwrap_or_else(|| {
            let log = empty();
            self.0.push(TypedLog { ty, empty, log });
            self.0.len() - 1
        })
    }

    /// `T`'s log and its index, made on the frame's first write of a `T`.
    fn of<T: Clone + Send + Sync + 'static>(&mut self) -> (u32, &mut Log<T>) {
        let l = self.index(TypeId::of::<T>(), Log::<T>::empty);
        let log: &mut dyn Any = &mut *self.0[l].log;
        (l as u32, log.downcast_mut().expect("a log holds its type"))
    }

    /// The value buffered in `slot`, which holds a `T`.
    fn value<T: 'static>(&self, (l, i): Slot) -> &Option<T> {
        let log: &dyn Any = &*self.0[l as usize].log;
        let log: &Log<T> = log.downcast_ref().expect("write-set type mismatch");
        &log.entries[i as usize].1
    }

    /// [`value`](Self::value), mutably.
    fn value_mut<T: 'static>(&mut self, (l, i): Slot) -> &mut Option<T> {
        let log: &mut dyn Any = &mut *self.0[l as usize].log;
        let log: &mut Log<T> = log.downcast_mut().expect("write-set type mismatch");
        &mut log.entries[i as usize].1
    }
}

impl WriteSet for Logs {
    fn var(&self, (l, i): Slot) -> &dyn AnyVar {
        self.0[l as usize].log.var(i)
    }

    fn apply(&mut self, (l, i): Slot, version: u64, horizon: u64) {
        self.0[l as usize].log.apply(i, version, horizon);
    }
}

/// Why a frame exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum FrameKind {
    /// The outermost frame of a top-level or open-nested transaction.
    #[default]
    Root,
    /// A closed-nested frame with partial-rollback support.
    Closed,
}

/// The most entries a buffer of a frame that a thread keeps for reuse has
/// room for: clearing a frame drops any buffer that grew larger, so one
/// large transaction leaves its thread no more than this per buffer.
pub const SPARE_FRAME_ENTRIES: usize = 256;

/// The most write logs, one per value type, a reused frame keeps.
const SPARE_LOGS: usize = 8;

/// The most cleared frames, and frame stacks, a thread keeps for reuse:
/// enough for a transaction nested a few levels deep. A thread with many
/// transactions in flight, as the simulator's up to 32 speculated ones,
/// frees the rest as they finish instead of keeping their peak.
const SPARE_FRAMES: usize = 8;

#[derive(Default)]
pub(crate) struct Frame {
    kind: FrameKind,
    reads: VarIdMap<ReadEntry>,
    /// Where each buffered var's value is in `logs`.
    writes: VarIdMap<Slot>,
    logs: Logs,
    /// One `Arc` per owner block holding a cell that an entry of this frame
    /// points to, keyed by the block's address: the entries' pins.
    pins: VarIdMap<Arc<dyn CellOwner>>,
    /// The block pinned last, so a run of entries in one block probes
    /// `pins` once.
    last_pin: VarId,
    /// Commit scratch: the write set's `(id, slot)` pairs in lock order.
    order: Vec<(VarId, Slot)>,
    commit_handlers: Vec<Handler>,
    abort_handlers: Vec<Handler>,
    local_undos: Vec<LocalUndo>,
}

impl Frame {
    /// Hold `owner` for this frame's entries, unless the frame already does.
    fn pin<O: CellOwner>(&mut self, owner: &Arc<O>) {
        let block = Arc::as_ptr(owner) as usize as VarId;
        if block != self.last_pin {
            self.pin_block(block, &|| Arc::clone(owner) as Arc<dyn CellOwner>);
        }
    }

    /// [`pin`](Self::pin) past its check of the last block: `owner` clones
    /// the `Arc` of the block at `block`.
    fn pin_block(&mut self, block: VarId, owner: &dyn Fn() -> Arc<dyn CellOwner>) {
        self.last_pin = block;
        if let Entry::Vacant(pin) = self.pins.entry(block) {
            pin.insert(owner());
            metrics::tally(Total::OwnerPins);
        }
    }

    /// Phase one of committing this frame: lock its write set, then
    /// validate its read set against the locks. `None` if a read is stale;
    /// the locks are released with the guard.
    fn lock_and_validate(&mut self) -> Option<CommitGuard<'_>> {
        self.order.clear();
        self.order
            .extend(self.writes.iter().map(|(&id, &slot)| (id, slot)));
        let guard = CommitGuard::lock_write_set(&mut self.logs, &mut self.order);
        self.reads
            .values()
            // SAFETY: this frame pins every entry's owner block.
            .all(|r| guard.read_valid(unsafe { r.cell.get() }, r.version))
            .then_some(guard)
    }

    /// Empty the frame for reuse: its entries, their values and pins, and
    /// its handlers drop here. A buffer with room for more than
    /// [`SPARE_FRAME_ENTRIES`] goes too, and so do the logs past the first
    /// [`SPARE_LOGS`] types.
    fn clear(&mut self) {
        self.logs.0.iter_mut().for_each(|l| l.log.clear());
        self.logs.0.truncate(SPARE_LOGS);
        clear_map(&mut self.reads);
        clear_map(&mut self.writes);
        clear_map(&mut self.pins);
        self.last_pin = 0;
        clear_vec(&mut self.order);
        clear_vec(&mut self.commit_handlers);
        clear_vec(&mut self.abort_handlers);
        clear_vec(&mut self.local_undos);
    }

    /// See [`Txn::frame_capacity`].
    fn capacity(&self) -> usize {
        let logs = self.logs.0.iter().map(|l| l.log.capacity());
        [
            self.reads.capacity(),
            self.writes.capacity(),
            self.pins.capacity(),
            self.order.capacity(),
        ]
        .into_iter()
        .chain(logs)
        .max()
        .unwrap_or(0)
    }
}

/// Clear `map`, keeping its buffer only up to [`SPARE_FRAME_ENTRIES`].
fn clear_map<V>(map: &mut VarIdMap<V>) {
    map.clear();
    if map.capacity() > SPARE_FRAME_ENTRIES {
        *map = VarIdMap::default();
    }
}

/// Clear `v`, keeping its buffer only up to [`SPARE_FRAME_ENTRIES`].
fn clear_vec<T>(v: &mut Vec<T>) {
    v.clear();
    if v.capacity() > SPARE_FRAME_ENTRIES {
        *v = Vec::new();
    }
}

/// What a thread's finished transaction contexts left for its next ones:
/// cleared frames, and the emptied stacks that held them.
struct Spare {
    frames: Vec<Frame>,
    stacks: Vec<Vec<Frame>>,
}

thread_local! {
    static SPARE: RefCell<Spare> = const {
        RefCell::new(Spare {
            frames: Vec::new(),
            stacks: Vec::new(),
        })
    };
}

// No code of a transaction's values or handlers runs while `SPARE` is
// borrowed: a frame is cleared before it goes back, and a cleared frame's
// drop frees only memory. Reaching `SPARE` with `try_with` lets a
// transaction run from a thread-local destructor after it is gone; the
// frames are then made and dropped as needed.

/// A cleared frame of `kind`: a spare one, if this thread keeps any.
fn take_frame(kind: FrameKind) -> Frame {
    let spare = SPARE.try_with(|s| s.borrow_mut().frames.pop());
    let mut frame = spare.ok().flatten().unwrap_or_default();
    frame.kind = kind;
    frame
}

/// Clear `frame` and keep it for this thread's next nesting frame or
/// transaction.
fn give_back(mut frame: Frame) {
    frame.clear();
    let _ = SPARE.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.frames.len() < SPARE_FRAMES {
            s.frames.push(frame);
        }
    });
}

/// A transaction context's frame stack: taken from its thread's spares
/// with a cleared root frame on it, and given back, each frame cleared,
/// when the context drops.
struct Frames(Vec<Frame>);

impl Frames {
    fn take() -> Frames {
        let spare = SPARE.try_with(|s| s.borrow_mut().stacks.pop());
        let mut stack = spare.ok().flatten().unwrap_or_default();
        stack.push(take_frame(FrameKind::Root));
        Frames(stack)
    }
}

impl Deref for Frames {
    type Target = Vec<Frame>;
    fn deref(&self) -> &Vec<Frame> {
        &self.0
    }
}

impl DerefMut for Frames {
    fn deref_mut(&mut self) -> &mut Vec<Frame> {
        &mut self.0
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        let mut stack = std::mem::take(&mut self.0);
        stack.iter_mut().for_each(Frame::clear);
        let _ = SPARE.try_with(|s| {
            let mut s = s.borrow_mut();
            let room = SPARE_FRAMES.saturating_sub(s.frames.len());
            s.frames.extend(stack.drain(..).take(room));
            if s.stacks.len() < SPARE_FRAMES {
                s.stacks.push(stack);
            }
        });
    }
}

/// A transaction context. Obtained from [`crate::atomic`] (top-level),
/// [`Txn::closed`] / [`Txn::open`] (nested), or handler invocation (direct
/// mode).
pub struct Txn {
    mode: TxnMode,
    handle: Arc<TxHandle>,
    /// Read-validity horizon: all logged reads were consistent at this clock
    /// value. Extended incrementally when a newer version is encountered.
    rv: u64,
    frames: Frames,
    /// True for the child context of [`Txn::open`].
    is_open_child: bool,
    /// This attempt's participants in enlistment order, each under an
    /// owner-unique tag (the semantic kernel uses the address of the owning
    /// collection core). Linear scan on purpose: a transaction touches a
    /// handful of collection instances at most.
    participants: Vec<(usize, Box<dyn Participant>)>,
    /// True while an [`Txn::open_read`] body runs: `read_var` serves
    /// committed values and records them into `flat_reads` instead of the
    /// frame read set (the flattened read-only open).
    flat_mode: bool,
    /// Scratch `(var, version)` log for `open_read`, validated when the
    /// body returns; the buffer is reused across calls. The frame that was
    /// innermost at each read pins the var's owner block.
    flat_reads: Vec<(CellPtr, u64)>,
    /// Cached `Arc<TxHandle>` clone reused across this parent's open
    /// children, so `Txn::open` costs one refcount bump per transaction
    /// instead of one per operation.
    spare_open_handle: Option<Arc<TxHandle>>,
    /// `Some(s)` for a snapshot transaction ([`crate::atomic_read`]): every
    /// read is served from the newest chain entry with version `<= s`, with
    /// no read-set entry, no validation, and no semantic locks. `None` for
    /// ordinary transactions.
    snapshot: Option<u64>,
    /// Reads served from the version chains by this snapshot attempt,
    /// flushed to the global counter in one add at completion.
    snapshot_reads_served: u64,
}

impl Txn {
    fn new(handle: Arc<TxHandle>, rv: u64, snapshot: Option<u64>, is_open_child: bool) -> Self {
        Txn {
            mode: TxnMode::Speculative,
            handle,
            rv,
            frames: Frames::take(),
            is_open_child,
            participants: Vec::new(),
            flat_mode: false,
            flat_reads: Vec::new(),
            spare_open_handle: None,
            snapshot,
            snapshot_reads_served: 0,
        }
    }

    pub(crate) fn new_top(handle: Arc<TxHandle>) -> Self {
        trace::txn_begin(handle.id());
        Txn::new(handle, clock::now(), None, false)
    }

    /// Context for a snapshot transaction reading at clock value `s` (the
    /// caller holds the epoch pin protecting the chains down to `s`).
    pub(crate) fn new_snapshot(handle: Arc<TxHandle>, s: u64) -> Self {
        trace::txn_begin(handle.id());
        Txn::new(handle, s, Some(s), false)
    }

    fn new_open_child(handle: Arc<TxHandle>) -> Self {
        Txn::new(handle, clock::now(), None, true)
    }

    /// The top-level handle owning this transaction (also for open-nested
    /// children: lock ownership is always top-level, paper §3.1).
    pub fn handle(&self) -> &Arc<TxHandle> {
        &self.handle
    }

    /// Current execution mode.
    pub fn mode(&self) -> TxnMode {
        self.mode
    }

    /// True for a snapshot transaction (see [`crate::atomic_read`]). The
    /// semantic kernel checks this to skip lock acquisition and registration
    /// entirely; write-shaped entry points reject such transactions.
    pub fn in_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The clock value a snapshot transaction reads at, if this is one.
    pub fn snapshot_version(&self) -> Option<u64> {
        self.snapshot
    }

    /// Abandon the current snapshot attempt: the version chains cannot serve
    /// it (an entry was truncated past the snapshot, or the structure does
    /// not keep per-version history — boosted and eager backends). The
    /// runner re-executes the body on the validated path and counts the
    /// fallback; this is the *counted, never silent* escape hatch.
    ///
    /// No-op outside snapshot mode (so capability checks can call it
    /// unconditionally).
    pub fn snapshot_fallback(&self) {
        if self.snapshot.is_some() {
            interrupt::throw(TxInterrupt::SnapshotFallback);
        }
    }

    /// Abort the attempt cleanly and report `diag` at the `atomic` boundary
    /// — for transactional API calls that are forbidden in the current
    /// context. See [`TxInterrupt::Misuse`].
    fn misuse(&self, diag: &'static str) -> ! {
        interrupt::throw(TxInterrupt::Misuse(diag));
    }

    /// Abort with `diag` if this is a snapshot transaction; no-op otherwise.
    /// Write-shaped entry points in layers above this crate (the semantic
    /// kernel's local-state surface) call this unconditionally so a
    /// buffering operation can never run under a transaction that registers
    /// no handlers to drain it.
    pub fn reject_in_snapshot(&self, diag: &'static str) {
        if self.snapshot.is_some() {
            self.misuse(diag);
        }
    }

    /// Abort immediately if another transaction has doomed this one.
    #[inline]
    fn check_doom(&self) {
        if self.handle.is_doomed() {
            interrupt::throw(TxInterrupt::Retry(AbortCause::Doomed));
        }
    }

    // ------------------------------------------------------------------
    // Read / write
    // ------------------------------------------------------------------

    /// The one read path, for a [`TCell`] inline in `owner` and for a
    /// [`crate::TVar`] (its own owner). The frame that logs an entry pins
    /// `owner`.
    pub(crate) fn read_var<T, O>(&mut self, var: &TCell<T>, owner: &Arc<O>) -> T
    where
        T: Clone + Send + Sync + 'static,
        O: CellOwner,
    {
        if self.mode == TxnMode::Direct {
            return var.read_committed();
        }
        if let Some(s) = self.snapshot {
            // Snapshot read: the newest committed value at or below `s`,
            // straight off the version chain. No read-set entry, no rv
            // extension, no doom check (a snapshot holds no locks and can
            // never be doomed); a truncated chain abandons the attempt.
            match var.read_at(s) {
                Some(val) => {
                    self.snapshot_reads_served += 1;
                    return val;
                }
                None => {
                    self.snapshot_fallback();
                    unreachable!("snapshot_fallback always throws in snapshot mode");
                }
            }
        }
        self.check_doom();
        if self.flat_mode {
            // Flattened read-only open: serve the committed value and log
            // `(var, version)` for the validation sweep at the end of the
            // `open_read` body. Like an open child, this deliberately does
            // *not* see the parent's buffered writes and leaves no entry in
            // the parent's read set.
            let (ver, val) = var.committed_pair();
            let cell = CellPtr::new(owner, var);
            self.current_frame().pin(owner);
            self.flat_reads.push((cell, ver));
            return val;
        }
        let id = var.id();
        // Redo-log lookup, innermost frame first.
        for frame in self.frames.iter().rev() {
            if let Some(&slot) = frame.writes.get(&id) {
                return frame
                    .logs
                    .value::<T>(slot)
                    .as_ref()
                    .expect("write-set type mismatch")
                    .clone();
            }
        }
        let cell = CellPtr::new(owner, var);
        loop {
            let (ver, val) = var.committed_pair();
            match self.log_read(id, cell, ver) {
                FirstRead::Repeated => return val,
                FirstRead::Logged => {
                    self.current_frame().pin(owner);
                    return val;
                }
                // Past `rv`: extend it, then read again.
                FirstRead::Stale => self.extend_or_abort(),
            }
        }
    }

    /// Log the read of `cell` (var `id`) at committed version `ver` in the
    /// innermost frame, unless a frame already holds it, probing that
    /// frame's read set once for the entry or its place. A var that changed
    /// after a frame read it aborts that frame: partially if it is the
    /// innermost closed frame.
    fn log_read(&mut self, id: VarId, cell: CellPtr, ver: u64) -> FirstRead {
        let innermost = self.frames.len() - 1;
        let (frame, outer) = self
            .frames
            .split_last_mut()
            .expect("transaction has no frames");
        let place = match frame.reads.entry(id) {
            Entry::Occupied(r) if r.get().version == ver => return FirstRead::Repeated,
            Entry::Occupied(_) => self.conflict_on_frames(&[innermost]),
            Entry::Vacant(place) => place,
        };
        if let Some((fi, r)) = outer
            .iter()
            .enumerate()
            .rev()
            .find_map(|(fi, f)| Some((fi, f.reads.get(&id)?)))
        {
            if r.version == ver {
                return FirstRead::Repeated;
            }
            self.conflict_on_frames(&[fi]);
        }
        if ver > self.rv {
            return FirstRead::Stale;
        }
        place.insert(ReadEntry {
            cell,
            version: ver,
            offset: crate::cost::current_cost(),
        });
        FirstRead::Logged
    }

    /// The one write path; see [`Txn::read_var`].
    pub(crate) fn write_var<T, O>(&mut self, var: &TCell<T>, owner: &Arc<O>, val: T)
    where
        T: Clone + Send + Sync + 'static,
        O: CellOwner,
    {
        if self.mode == TxnMode::Direct {
            // Handler context (holding the handler lane): lock the var, draw
            // a fresh version, apply-and-release.
            clock::publish_direct(var, &mut Some(val));
            return;
        }
        if self.snapshot.is_some() {
            self.misuse(
                "TVar write inside a snapshot transaction: atomic_read bodies are read-only \
                 (use stm::atomic for read-write transactions)",
            );
        }
        if self.flat_mode {
            // Not a panic: the body is re-executable, so we abort the whole
            // attempt cleanly (compensation runs, locks release) and report
            // the misuse at the `atomic` boundary instead.
            self.misuse(
                "TVar write inside an open_read body: flattened opens are read-only \
                 (use tx.open for read-write open-nested bodies)",
            );
        }
        self.check_doom();
        let frame = self.current_frame();
        match frame.writes.entry(var.id()) {
            // A rewrite replaces the buffered value in place: the entry
            // keeps its slot, and the frame already pins the owner.
            Entry::Occupied(w) => *frame.logs.value_mut(*w.get()) = Some(val),
            Entry::Vacant(w) => {
                let cell = NonNull::from(held(owner, var));
                let (l, log) = frame.logs.of::<T>();
                w.insert((l, log.entries.len() as u32));
                log.entries.push((cell, Some(val)));
                frame.pin(owner);
            }
        }
    }

    fn current_frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("transaction has no frames")
    }

    /// Timestamp extension: re-validate every logged read against current
    /// memory; on success, advance `rv`. On failure, abort — partially if all
    /// invalid reads live in the innermost frame and it is closed-nested.
    fn extend_or_abort(&mut self) {
        // Read the clock *before* validating: any commit that changes a
        // validated var after this point locked it after we checked it, and
        // (lock-all before fetch-add) therefore published with a version
        // above `new_rv` — a later read of that var re-triggers extension.
        // `stable_version` waits out in-flight publishes, so each validated
        // read reflects a complete commit; we hold no locks, so the wait
        // cannot deadlock.
        let new_rv = clock::now();
        let mut invalid_frames: Vec<usize> = Vec::new();
        for (fi, frame) in self.frames.iter().enumerate() {
            for r in frame.reads.values() {
                // SAFETY: the frame pins every entry's owner block.
                if clock::stable_version(unsafe { r.cell.get() }) != r.version {
                    invalid_frames.push(fi);
                    break;
                }
            }
        }
        if invalid_frames.is_empty() {
            self.rv = new_rv;
            return;
        }
        self.conflict_on_frames(&invalid_frames);
    }

    /// Abort in response to invalidated reads in the given frames: a
    /// frame-local retry if the damage is confined to the innermost closed
    /// frame, otherwise a whole-transaction retry.
    fn conflict_on_frames(&mut self, invalid_frames: &[usize]) -> ! {
        let innermost = self.frames.len() - 1;
        let confined = invalid_frames.iter().all(|&fi| fi == innermost);
        if confined && self.frames[innermost].kind == FrameKind::Closed {
            metrics::tally(Total::FrameRetries);
            trace::frame_retry(self.handle.id());
            interrupt::throw(TxInterrupt::RetryFrame(innermost));
        }
        interrupt::throw(TxInterrupt::Retry(AbortCause::ReadInvalid));
    }

    // ------------------------------------------------------------------
    // Handler / undo registration
    // ------------------------------------------------------------------

    /// Snapshot transactions are pure reads: handlers, undos and
    /// participants registered on one would silently never run, so
    /// registration is a misuse abort.
    fn reject_registration_in_snapshot(&self) {
        if self.snapshot.is_some() {
            self.misuse(
                "handler/undo/participant registration inside a snapshot transaction: \
                 atomic_read bodies are read-only and never commit or abort anything",
            );
        }
    }

    /// Register a commit handler on the *current nesting frame* (paper
    /// semantics: discarded if this frame aborts, promoted on commit).
    pub fn on_commit(&mut self, h: impl FnOnce(&mut Txn) + Send + 'static) {
        self.reject_registration_in_snapshot();
        self.current_frame().commit_handlers.push(Box::new(h));
    }

    /// Register an abort handler on the current nesting frame.
    pub fn on_abort(&mut self, h: impl FnOnce(&mut Txn) + Send + 'static) {
        self.reject_registration_in_snapshot();
        self.current_frame().abort_handlers.push(Box::new(h));
    }

    /// Register a commit handler on the **top-level** frame, surviving any
    /// enclosing closed-nested aborts. Collection classes use this because
    /// their semantic locks are owned by the top-level handle.
    pub fn on_commit_top(&mut self, h: impl FnOnce(&mut Txn) + Send + 'static) {
        self.reject_registration_in_snapshot();
        self.frames[0].commit_handlers.push(Box::new(h));
    }

    /// Register an abort handler on the top-level frame.
    pub fn on_abort_top(&mut self, h: impl FnOnce(&mut Txn) + Send + 'static) {
        self.reject_registration_in_snapshot();
        self.frames[0].abort_handlers.push(Box::new(h));
    }

    /// Register a compensation for transaction-local state mutated in the
    /// current frame; runs (in reverse order, handed this transaction) if
    /// this frame aborts.
    pub fn on_local_undo(&mut self, u: impl FnOnce(&mut Txn) + Send + 'static) {
        self.reject_registration_in_snapshot();
        self.current_frame().local_undos.push(Box::new(u));
    }

    /// True while a [`Txn::closed`] body runs: a conflict confined to the
    /// innermost frame can roll back less than the whole attempt, so state
    /// buffered here needs a local undo. At the root frame the only
    /// rollback is the whole attempt's, which the abort handlers see.
    pub fn in_closed_frame(&self) -> bool {
        self.frames.len() > 1
    }

    // ------------------------------------------------------------------
    // Nesting
    // ------------------------------------------------------------------

    /// Run `f` as a closed-nested transaction: it sees the parent's state,
    /// and a conflict confined to it rolls back and re-executes only `f`
    /// (partial rollback, paper §4 "Nested transactions").
    pub fn closed<T>(&mut self, mut f: impl FnMut(&mut Txn) -> T) -> T {
        if self.mode == TxnMode::Direct {
            return f(self); // flat in handler context (holding the lane)
        }
        if self.snapshot.is_some() {
            // Snapshot reads are consistent by construction, so nesting has
            // nothing to isolate: flatten. (Writes inside abort as misuse.)
            return f(self);
        }
        debug_assert!(!self.flat_mode, "closed nesting inside an open_read body");
        let my_index = self.frames.len();
        loop {
            self.frames.push(take_frame(FrameKind::Closed));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
            match outcome {
                Ok(v) => {
                    self.merge_top_frame();
                    return v;
                }
                Err(payload) => {
                    // This frame is aborting no matter what the payload is.
                    let frame = self.frames.pop().expect("frame stack underflow");
                    self.roll_back_frame(frame);
                    match interrupt::classify(payload) {
                        Ok(TxInterrupt::RetryFrame(i)) if i == my_index => {
                            // Damage was confined to us: re-extend over the
                            // remaining frames and re-run the body.
                            self.extend_or_abort();
                            continue;
                        }
                        Ok(other) => interrupt::throw(other),
                        Err(user) => std::panic::resume_unwind(user),
                    }
                }
            }
        }
    }

    /// The frame-abort protocol: run the popped frame's local undos (reverse
    /// order), then drop its entries, pins and handlers with it.
    fn roll_back_frame(&mut self, mut frame: Frame) {
        while let Some(u) = frame.local_undos.pop() {
            u(self);
        }
        give_back(frame);
    }

    /// Merge the innermost frame into its parent (closed-nested commit):
    /// its entries move, and so do the pins of their owner blocks.
    fn merge_top_frame(&mut self) {
        let mut child = self.frames.pop().expect("frame stack underflow");
        let parent = self.current_frame();
        for (id, r) in child.reads.drain() {
            parent.reads.entry(id).or_insert(r);
        }
        // The logs hold every entry the write map names. A var the parent
        // already buffers takes the child's value in place.
        child.writes.clear();
        for TypedLog { ty, empty, log } in &mut child.logs.0 {
            let l = parent.logs.index(*ty, *empty);
            let into = &mut *parent.logs.0[l].log;
            for i in 0..log.len() as u32 {
                match parent.writes.entry(log.var(i).id()) {
                    Entry::Occupied(slot) => log.move_entry(i, into, Some(slot.get().1)),
                    Entry::Vacant(slot) => {
                        slot.insert((l as u32, into.len() as u32));
                        log.move_entry(i, into, None);
                    }
                }
            }
        }
        for (block, pin) in child.pins.drain() {
            parent.pins.entry(block).or_insert(pin);
        }
        parent.commit_handlers.append(&mut child.commit_handlers);
        parent.abort_handlers.append(&mut child.abort_handlers);
        parent.local_undos.append(&mut child.local_undos);
        give_back(child);
    }

    /// Run `f` as an **open-nested** transaction: an independent transaction
    /// that commits (and becomes visible to everyone) immediately, leaving no
    /// read or write dependencies in the parent. Handlers it registers are
    /// promoted to the parent's current frame on commit. A memory conflict
    /// re-executes only `f`; a doom of the top-level handle propagates.
    ///
    /// Unlike Moss's formulation, the child does *not* see the parent's
    /// uncommitted buffered writes: the collection classes keep their
    /// uncommitted state in the parent's participants precisely so that
    /// open children never need it (paper §5 guidelines). The child can
    /// enlist none of its own, which is why a collection operation inside
    /// an open body is a misuse abort ([`Txn::enlist`]).
    pub fn open<T>(&mut self, mut f: impl FnMut(&mut Txn) -> T) -> T {
        if self.mode == TxnMode::Direct {
            return f(self); // handler context: effects are already immediate
        }
        if self.snapshot.is_some() {
            return f(self); // flatten, as in `closed`
        }
        debug_assert!(!self.flat_mode, "open inside an open_read body");
        // One handle clone per parent transaction, not one per op: the clone
        // shuttles between `spare_open_handle` and the child across retries.
        let mut handle = self
            .spare_open_handle
            .take()
            .unwrap_or_else(|| Arc::clone(&self.handle));
        loop {
            self.check_doom();
            let mut child = Txn::new_open_child(handle);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut child)));
            match outcome {
                Ok(v) if child.try_commit_open() => {
                    let (committed, parent) = (&mut child.frames[0], self.current_frame());
                    parent
                        .commit_handlers
                        .append(&mut committed.commit_handlers);
                    parent.abort_handlers.append(&mut committed.abort_handlers);
                    parent.local_undos.append(&mut committed.local_undos);
                    self.spare_open_handle = Some(child.into_handle());
                    metrics::tally(Total::OpenCommits);
                    trace::open_commit(self.handle.id());
                    return v;
                }
                Ok(_) => {
                    handle = child.into_handle();
                    metrics::tally(Total::OpenRetries);
                    trace::open_retry(self.handle.id());
                }
                Err(payload) => {
                    handle = child.into_handle();
                    match interrupt::classify(payload) {
                        // A read conflict inside the child retries only the child.
                        Ok(TxInterrupt::Retry(AbortCause::ReadInvalid))
                        | Ok(TxInterrupt::RetryFrame(_)) => {
                            metrics::tally(Total::OpenRetries);
                            trace::open_retry(self.handle.id());
                        }
                        // Doom / explicit abort concern the whole transaction.
                        Ok(other) => interrupt::throw(other),
                        Err(user) => std::panic::resume_unwind(user),
                    }
                }
            }
        }
    }

    /// Run `f` as a **flattened read-only open** — semantically a
    /// [`Txn::open`] whose body performs no writes and registers nothing,
    /// executed without constructing a child `Txn` or a `catch_unwind`.
    /// Reads inside the body see committed state (never the parent's
    /// buffered writes, exactly like an open child) and are logged into a
    /// reusable scratch buffer; when the body returns, every logged read is
    /// validated against its per-var stamp — the same check as
    /// `try_commit_open`'s read-only path — and a failed validation re-runs
    /// the body. The flattened-read obligation (docs/PROTOCOL.md): this is
    /// observably equivalent to `open` for read-only bodies because both
    /// publish nothing and both return only values whose versions were
    /// simultaneously valid after the last read.
    ///
    /// The body must not write vars (asserted), open children, or register
    /// handlers. A doom of the top-level handle propagates, as in `open`.
    pub fn open_read<T>(&mut self, mut f: impl FnMut(&mut Txn) -> T) -> T {
        if self.mode == TxnMode::Direct {
            return f(self); // handler context: reads are already committed
        }
        if self.snapshot.is_some() {
            // Snapshot mode subsumes the flattened open: every read is
            // already served at one consistent version, so there is no
            // scratch log to validate and no retry loop to run.
            return f(self);
        }
        debug_assert!(!self.flat_mode, "open_read does not nest");
        loop {
            self.check_doom();
            self.flat_reads.clear();
            self.flat_mode = true;
            let v = f(self);
            self.flat_mode = false;
            // SAFETY: the body cannot pop the frame that was innermost at
            // each read: a closed frame it opened and rolled back unwound
            // out of the body, so validation never sees that frame's reads.
            let valid = self
                .flat_reads
                .iter()
                .all(|&(cell, ver)| clock::read_valid(unsafe { cell.get() }, ver));
            if valid {
                metrics::tally(Total::OpenFlattened);
                trace::open_flattened(self.handle.id());
                return v;
            }
            metrics::tally(Total::OpenRetries);
            trace::open_retry(self.handle.id());
        }
    }

    /// Commit an open-nested child: validate and publish, leaving its root
    /// frame's handlers and local undos for the caller to promote. `false`
    /// means validation failed and the child should re-execute.
    fn try_commit_open(&mut self) -> bool {
        debug_assert!(self.is_open_child);
        debug_assert_eq!(self.frames.len(), 1, "open child must end with one frame");
        // Advisory doom check (cheap early exit). The authoritative
        // doom-vs-commit decision for the *top-level* transaction is its own
        // `begin_commit` CAS; an open child that slips past a doom here only
        // publishes effects the abort handlers will compensate.
        if self.handle.is_doomed() {
            interrupt::throw(TxInterrupt::Retry(AbortCause::Doomed));
        }
        let frame = &mut self.frames[0];
        // A *writing* open commit publishes direct-mode-visible state, so it
        // serializes with handler execution: lane first, then var locks (a
        // lane-holder's direct writes spin on var locks, so the lane must
        // never be awaited while var locks are held). A read-only child
        // validates against per-var stamps: no locks, no lane, no clock
        // traffic.
        let lane = (!frame.writes.is_empty()).then(|| clock::lane_lock(self.handle.id()));
        let Some(guard) = frame.lock_and_validate() else {
            return false; // guard + lane drop: locks released, versions unchanged
        };
        guard.publish();
        drop(lane);
        true
    }

    /// Surrender this child's handle clone. `Txn` has no `Drop`, so the
    /// move is free; the child's frames go back to the thread's spares.
    fn into_handle(self) -> Arc<TxHandle> {
        self.handle
    }

    // ------------------------------------------------------------------
    // Participants (the semantic kernel's per-attempt state)
    // ------------------------------------------------------------------

    /// Enlist `p` under `tag`, unique per owner (use the owner's address),
    /// for the rest of this attempt: exactly one of its `commit` and `abort`
    /// runs, once, under the handler lane. Where it could never run, `p` is
    /// rejected: inside a snapshot transaction or a [`Txn::open`] body as a
    /// misuse abort, and from a handler (the participants are already
    /// taken) with a panic.
    pub fn enlist(&mut self, tag: usize, p: Box<dyn Participant>) {
        assert!(
            self.mode == TxnMode::Speculative,
            "Txn::enlist inside a commit/abort handler: this attempt's participants have \
             already been taken, so the new one would never run"
        );
        self.reject_registration_in_snapshot();
        if self.is_open_child {
            self.misuse(
                "collection operation inside a tx.open body: the open child's state dies with it \
                 — call the collection from the enclosing transaction",
            );
        }
        debug_assert!(
            self.participants.iter().all(|(t, _)| *t != tag),
            "duplicate participant tag"
        );
        self.participants.push((tag, p));
    }

    /// The participant enlisted under `tag`, if this attempt has one there
    /// of type `P`. `None` once the handlers have taken the participants.
    pub fn participant<P: Participant>(&mut self, tag: usize) -> Option<&mut P> {
        let (_, p) = self.participants.iter_mut().find(|(t, _)| *t == tag)?;
        let p: &mut dyn Any = &mut **p;
        p.downcast_mut()
    }

    // ------------------------------------------------------------------
    // Top-level commit / abort (driven by the runtime or the simulator)
    // ------------------------------------------------------------------

    /// Attempt the top-level commit — the sharded two-phase commit:
    ///
    /// 1. a transaction with commit handlers or participants first acquires
    ///    the **handler lane** and holds it through step 6 — such
    ///    transactions (every collection-touching transaction is one)
    ///    therefore serialize their whole commit exactly as under the old
    ///    global mutex, which is what keeps the doom protocol's decision
    ///    point (step 4) ordered consistently with handler execution order;
    /// 2. lock the write set in `VarId` order ([`clock::CommitGuard`]);
    /// 3. validate the read set against per-var version stamps, failing fast
    ///    if a read var is locked by another committer;
    /// 4. win the doom-vs-commit race (`TxHandle::begin_commit` — the point
    ///    of no return);
    /// 5. draw one clock `fetch_add` and publish-and-release;
    /// 6. run participants' `commit`, then commit handlers, in direct mode
    ///    (still under the lane).
    ///
    /// Transactions with neither — plain memory transactions, the fast path
    /// this refactor shards — skip steps 1 and 6 and execute the rest fully
    /// in parallel with every other disjoint-write-set committer.
    pub(crate) fn try_commit_top(&mut self) -> Result<(), AbortCause> {
        debug_assert!(!self.is_open_child);
        debug_assert_eq!(self.frames.len(), 1, "unbalanced nesting at commit");
        let commit_t0 = metrics::timer();
        let frame = &mut self.frames[0];
        let has_handlers = !frame.commit_handlers.is_empty() || !self.participants.is_empty();
        // Lane before var locks, never the reverse: a lane-holder's direct
        // writes spin on var locks, so waiting for the lane while holding a
        // var lock could deadlock.
        let lane = has_handlers.then(|| clock::lane_lock(self.handle.id()));
        {
            // Scope the guard (it borrows the frame) so the frame borrow is
            // provably dead before the handlers need `&mut self`.
            let Some(guard) = frame.lock_and_validate() else {
                return Err(AbortCause::ReadInvalid); // guard + lane drop release everything
            };
            if self.handle.begin_commit().is_err() {
                return Err(AbortCause::Doomed);
            }
            // Point of no return: a doom can no longer land. The publish
            // clones no value (each buffered value moves in, see
            // `AnyVar::apply`), so a panicking `Clone` cannot leave the
            // write set half published.
            guard.publish();
        }
        self.handle.mark_committed();
        if has_handlers {
            self.run_handlers(true);
        }
        drop(lane);
        metrics::committed(!has_handlers, commit_t0);
        trace::txn_commit(self.handle.id());
        Ok(())
    }

    /// Complete a successful snapshot attempt. There is nothing to validate,
    /// publish, or run — the attempt logged no reads, buffered no writes,
    /// and was barred from registering handlers — so completion is: mark
    /// committed, flush the batched read counter, emit the trace pair.
    pub(crate) fn finish_snapshot(&mut self) {
        debug_assert!(self.snapshot.is_some());
        self.handle.mark_committed();
        metrics::snapshot_finished(true, self.snapshot_reads_served);
        trace::snapshot_txn(self.handle.id(), self.snapshot_reads_served);
        trace::txn_commit(self.handle.id());
    }

    /// Abandon a snapshot attempt (chain-truncation fallback, misuse, or a
    /// user panic unwinding through the body). A snapshot holds no locks and
    /// buffered nothing, so there is no compensation to run; this closes the
    /// begin/terminal trace pairing and flushes reads served so far. Not
    /// recorded as an abort in [`crate::global_stats`] — the transaction
    /// never speculated anything, and `snapshot_fallbacks` is the
    /// meaningful signal (see docs/OBSERVABILITY.md).
    pub(crate) fn abandon_snapshot(&mut self) {
        debug_assert!(self.snapshot.is_some());
        self.handle.mark_aborted();
        metrics::snapshot_finished(false, self.snapshot_reads_served);
        trace::txn_abort(self.handle.id(), AbortCause::Explicit, 0);
    }

    /// Run the participants' `commit` (`abort`) in enlistment order, then
    /// drain the root frame's commit (abort) handlers, in direct mode. Every
    /// participant leaves the transaction before any runs. The caller holds
    /// the handler lane whenever there is one to run
    /// (committer-holds-lane-through-handlers), so the collections'
    /// apply-buffer-then-doom-scan protocol never interleaves with another
    /// transaction's handlers.
    fn run_handlers(&mut self, commit: bool) {
        self.mode = TxnMode::Direct;
        for (_, p) in std::mem::take(&mut self.participants) {
            metrics::tally(Total::HandlerRuns);
            if commit {
                p.commit(self);
            } else {
                p.abort(self);
            }
        }
        // Drain iteratively so a handler that registers another handler
        // still gets it run.
        loop {
            let root = &mut self.frames[0];
            let hs: Vec<Handler> = std::mem::take(if commit {
                &mut root.commit_handlers
            } else {
                &mut root.abort_handlers
            });
            if hs.is_empty() {
                break;
            }
            for h in hs {
                metrics::tally(Total::HandlerRuns);
                h(self);
            }
        }
    }

    /// The abort path: run local undos (innermost first, reverse order), then
    /// the participants' `abort` in enlistment order and the abort handlers,
    /// in direct mode under the handler lane. Called by the runtime after
    /// any failed attempt and by [`crate::PreparedTxn::abort`].
    pub(crate) fn run_abort_path(&mut self, cause: AbortCause) {
        // A doom may have unwound out of an `open_read` body mid-flight;
        // clear the flag so handler-mode reads behave normally.
        self.flat_mode = false;
        // Undos touch only this transaction's own buffers, so they need no
        // lane. Frames should already be collapsed to the root by unwinding,
        // but be robust to aborts raised with frames still stacked (handlers
        // of un-merged frames are discarded per the paper).
        while self.frames.len() > 1 {
            let f = self.frames.pop().unwrap();
            self.roll_back_frame(f);
        }
        while let Some(u) = self.frames[0].local_undos.pop() {
            u(self);
        }
        // Compensation runs under the handler lane, serialized with all
        // other handler execution and writing open commits.
        let lane = (!self.participants.is_empty() || !self.frames[0].abort_handlers.is_empty())
            .then(|| clock::lane_lock(self.handle.id()));
        self.run_handlers(false);
        self.frames[0].commit_handlers.clear();
        // Mark aborted only now, still holding the lane: compensation (undo
        // of any in-place effects, semantic-lock release) is complete, so
        // observers that treat a non-Active owner's locks as stale can never
        // see un-compensated state. (Marking before the handlers ran let a
        // pessimistic writer's in-place value be read during the undo
        // window.)
        self.handle.mark_aborted();
        drop(lane);
        metrics::abort_counted(cause);
        // Every begun attempt reaches exactly one of `trace::txn_commit` /
        // this emission, so a trace never holds a dangling begin.
        let culprit = if cause == AbortCause::Doomed {
            self.handle.culprit()
        } else {
            0
        };
        trace::txn_abort(self.handle.id(), cause, culprit);
    }

    // ------------------------------------------------------------------
    // Introspection (simulator support)
    // ------------------------------------------------------------------

    /// Ids of every var read (and not overwritten before first read) by the
    /// root frame. Only meaningful once nesting has collapsed.
    pub fn read_ids(&self) -> Vec<VarId> {
        self.frames[0].reads.keys().copied().collect()
    }

    /// `(var, body-cycle-offset)` of every root-frame read — the simulator
    /// uses offsets to decide whether a read had already happened when a
    /// conflicting commit broadcast arrived.
    pub fn read_offsets(&self) -> Vec<(VarId, u64)> {
        self.frames[0]
            .reads
            .iter()
            .map(|(id, r)| (*id, r.offset))
            .collect()
    }

    /// Ids of every var written by the root frame.
    pub fn write_ids(&self) -> Vec<VarId> {
        self.frames[0].writes.keys().copied().collect()
    }

    /// Number of logged reads (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.frames.iter().map(|f| f.reads.len()).sum()
    }

    /// Number of logged writes (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.frames.iter().map(|f| f.writes.len()).sum()
    }

    /// The most entries any one buffer of the innermost frame — its read
    /// set, write set, owner pins, commit scratch or a write log — has room
    /// for without allocating (diagnostics). A frame starts a transaction
    /// with at most [`SPARE_FRAME_ENTRIES`].
    pub fn frame_capacity(&self) -> usize {
        self.frames.last().map_or(0, Frame::capacity)
    }
}
