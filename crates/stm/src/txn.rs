//! Transaction contexts, nesting frames, and the commit machinery.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).

use crate::clock;
use crate::handle::TxHandle;
use crate::handlers::{Handler, LocalUndo, Participant};
use crate::hash::VarIdMap;
use crate::interrupt::{self, AbortCause, TxInterrupt};
use crate::metrics::{self, Total};
use crate::trace;
use crate::tvar::{CellOwner, TCell, VarId, VarRef};
use std::any::Any;
use std::collections::hash_map::Entry;
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
    var: VarRef,
    version: u64,
    /// Virtual-cycle offset within the body at which the read first
    /// happened (simulator timing; meaningless in threaded mode).
    offset: u64,
}

struct WriteEntry {
    var: VarRef,
    /// An `Option<T>` of the var's `T`: the buffered value until a commit
    /// moves it into the var, then the outgoing value or `None`, dropped
    /// with the frame (see `AnyVar::apply`).
    val: Box<dyn Any + Send + Sync>,
}

/// Why a frame exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// The outermost frame of a top-level or open-nested transaction.
    Root,
    /// A closed-nested frame with partial-rollback support.
    Closed,
}

pub(crate) struct Frame {
    kind: FrameKind,
    reads: VarIdMap<ReadEntry>,
    writes: VarIdMap<WriteEntry>,
    commit_handlers: Vec<Handler>,
    abort_handlers: Vec<Handler>,
    local_undos: Vec<LocalUndo>,
}

impl Frame {
    fn new(kind: FrameKind) -> Self {
        Frame {
            kind,
            reads: VarIdMap::default(),
            writes: VarIdMap::default(),
            commit_handlers: Vec::new(),
            abort_handlers: Vec::new(),
            local_undos: Vec::new(),
        }
    }
}

/// Borrowed view of a write set for commit locking and publishing. One Vec
/// is unavoidable (the locks must be sorted by `VarId`), but borrowing
/// avoids an `Arc` refcount bump per written var per commit attempt — the
/// frame outlives the [`clock::CommitGuard`] on every path. An empty write
/// set allocates nothing.
fn write_set(writes: &mut VarIdMap<WriteEntry>) -> Vec<clock::Write<'_>> {
    writes
        .values_mut()
        .map(|w| (w.var.get(), &mut *w.val))
        .collect()
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
    frames: Vec<Frame>,
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
    /// body returns; the buffer is reused across calls.
    flat_reads: Vec<(VarRef, u64)>,
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
    pub(crate) fn new_top(handle: Arc<TxHandle>) -> Self {
        trace::txn_begin(handle.id());
        Txn {
            mode: TxnMode::Speculative,
            handle,
            rv: clock::now(),
            frames: vec![Frame::new(FrameKind::Root)],
            is_open_child: false,
            participants: Vec::new(),
            flat_mode: false,
            flat_reads: Vec::new(),
            spare_open_handle: None,
            snapshot: None,
            snapshot_reads_served: 0,
        }
    }

    /// Context for a snapshot transaction reading at clock value `s` (the
    /// caller holds the epoch pin protecting the chains down to `s`).
    pub(crate) fn new_snapshot(handle: Arc<TxHandle>, s: u64) -> Self {
        trace::txn_begin(handle.id());
        Txn {
            mode: TxnMode::Speculative,
            handle,
            rv: s,
            frames: vec![Frame::new(FrameKind::Root)],
            is_open_child: false,
            participants: Vec::new(),
            flat_mode: false,
            flat_reads: Vec::new(),
            spare_open_handle: None,
            snapshot: Some(s),
            snapshot_reads_served: 0,
        }
    }

    fn new_open_child(handle: Arc<TxHandle>) -> Self {
        Txn {
            mode: TxnMode::Speculative,
            handle,
            rv: clock::now(),
            frames: vec![Frame::new(FrameKind::Root)],
            is_open_child: true,
            participants: Vec::new(),
            flat_mode: false,
            flat_reads: Vec::new(),
            spare_open_handle: None,
            snapshot: None,
            snapshot_reads_served: 0,
        }
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
    /// [`crate::TVar`] (its own owner). Entries it logs pin `owner`.
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
            self.flat_reads.push((VarRef::pin(owner, var), ver));
            return val;
        }
        let id = var.id();
        // Redo-log lookup, innermost frame first.
        for frame in self.frames.iter().rev() {
            if let Some(w) = frame.writes.get(&id) {
                return w
                    .val
                    .downcast_ref::<Option<T>>()
                    .and_then(Option::as_ref)
                    .expect("write-set type mismatch")
                    .clone();
            }
        }
        let (ver, val) = var.committed_pair();
        // Repeated read: version unchanged implies value unchanged.
        if let Some((fi, recorded)) = self.find_read(id) {
            if ver == recorded {
                return val;
            }
            // The var changed under us after we read it: unrecoverable for
            // the frame that read it; partially recoverable if that frame is
            // the innermost closed frame.
            self.conflict_on_frames(&[fi]);
        }
        if ver > self.rv {
            self.extend_or_abort();
            // Re-read: the extension moved rv past the version we saw, unless
            // the var changed yet again (extremely rare); loop via recursion
            // depth 1 amortized — iterate instead.
            let mut pair = var.committed_pair();
            while pair.0 > self.rv {
                self.extend_or_abort();
                pair = var.committed_pair();
            }
            let (ver2, val2) = pair;
            let offset = crate::cost::current_cost();
            self.current_frame().reads.insert(
                id,
                ReadEntry {
                    var: VarRef::pin(owner, var),
                    version: ver2,
                    offset,
                },
            );
            return val2;
        }
        let offset = crate::cost::current_cost();
        self.current_frame().reads.insert(
            id,
            ReadEntry {
                var: VarRef::pin(owner, var),
                version: ver,
                offset,
            },
        );
        val
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
        match self.current_frame().writes.entry(var.id()) {
            // A rewrite replaces the buffered value in place: the entry
            // already pins the owner and keeps its slot in the write set.
            Entry::Occupied(w) => {
                *w.into_mut()
                    .val
                    .downcast_mut::<Option<T>>()
                    .expect("write-set type mismatch") = Some(val);
            }
            Entry::Vacant(slot) => {
                slot.insert(WriteEntry {
                    var: VarRef::pin(owner, var),
                    val: Box::new(Some(val)),
                });
            }
        }
    }

    fn current_frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("transaction has no frames")
    }

    /// Locate an existing read entry; returns (frame index, recorded version).
    fn find_read(&self, id: VarId) -> Option<(usize, u64)> {
        for (fi, frame) in self.frames.iter().enumerate().rev() {
            if let Some(r) = frame.reads.get(&id) {
                return Some((fi, r.version));
            }
        }
        None
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
                if clock::stable_version(r.var.get()) != r.version {
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
            self.frames.push(Frame::new(FrameKind::Closed));
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
    /// order) and drop its handlers with it.
    fn roll_back_frame(&mut self, mut frame: Frame) {
        while let Some(u) = frame.local_undos.pop() {
            u(self);
        }
    }

    /// Merge the innermost frame into its parent (closed-nested commit).
    fn merge_top_frame(&mut self) {
        let child = self.frames.pop().expect("frame stack underflow");
        let parent = self.current_frame();
        for (id, r) in child.reads {
            parent.reads.entry(id).or_insert(r);
        }
        for (id, w) in child.writes {
            parent.writes.insert(id, w);
        }
        parent.commit_handlers.extend(child.commit_handlers);
        parent.abort_handlers.extend(child.abort_handlers);
        parent.local_undos.extend(child.local_undos);
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
                Ok(v) => match child.try_commit_open() {
                    Ok((committed, h)) => {
                        self.spare_open_handle = Some(h);
                        let parent = self.current_frame();
                        parent.commit_handlers.extend(committed.commit_handlers);
                        parent.abort_handlers.extend(committed.abort_handlers);
                        parent.local_undos.extend(committed.local_undos);
                        metrics::tally(Total::OpenCommits);
                        trace::open_commit(self.handle.id());
                        return v;
                    }
                    Err(h) => {
                        handle = h;
                        metrics::tally(Total::OpenRetries);
                        trace::open_retry(self.handle.id());
                        continue;
                    }
                },
                Err(payload) => {
                    handle = child.into_handle();
                    match interrupt::classify(payload) {
                        // A read conflict inside the child retries only the child.
                        Ok(TxInterrupt::Retry(AbortCause::ReadInvalid))
                        | Ok(TxInterrupt::RetryFrame(_)) => {
                            metrics::tally(Total::OpenRetries);
                            trace::open_retry(self.handle.id());
                            continue;
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
            let valid = self
                .flat_reads
                .iter()
                .all(|(var, ver)| clock::read_valid(var.get(), *ver));
            if valid {
                metrics::tally(Total::OpenFlattened);
                trace::open_flattened(self.handle.id());
                return v;
            }
            metrics::tally(Total::OpenRetries);
            trace::open_retry(self.handle.id());
        }
    }

    /// Commit an open-nested child: validate, publish, and surrender its
    /// root frame (handlers and local undos) plus its handle clone to the
    /// caller. `Err(handle)` means validation failed and the child should
    /// re-execute (the handle comes back so the retry reuses it).
    fn try_commit_open(mut self) -> Result<(Frame, Arc<TxHandle>), Arc<TxHandle>> {
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
        if frame.writes.is_empty() {
            // Read-only child: validate against per-var stamps; no locks, no
            // lane, no clock traffic.
            for r in frame.reads.values() {
                if !clock::read_valid(r.var.get(), r.version) {
                    return Err(self.handle);
                }
            }
            let frame = self.frames.pop().unwrap();
            return Ok((frame, self.handle));
        }
        // A *writing* open commit publishes direct-mode-visible state, so it
        // serializes with handler execution: lane first, then var locks (a
        // lane-holder's direct writes spin on var locks, so the lane must
        // never be awaited while var locks are held).
        let lane = clock::lane_lock(self.handle.id());
        let guard = clock::CommitGuard::lock_write_set(write_set(&mut frame.writes));
        for r in frame.reads.values() {
            if !guard.read_valid(r.var.get(), r.version) {
                // guard + lane drop: locks released, versions unchanged
                drop(guard);
                drop(lane);
                return Err(self.handle);
            }
        }
        guard.publish();
        drop(lane);
        let frame = self.frames.pop().unwrap();
        Ok((frame, self.handle))
    }

    /// Surrender this child's handle clone (retry paths that unwound out of
    /// the body). `Txn` has no `Drop`, so the move is free.
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
            let guard = clock::CommitGuard::lock_write_set(write_set(&mut frame.writes));
            for r in frame.reads.values() {
                if !guard.read_valid(r.var.get(), r.version) {
                    return Err(AbortCause::ReadInvalid); // guard + lane drop release everything
                }
            }
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
}
