//! Epoch-based reclamation for the multi-version `TVar` chains.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! Snapshot transactions ([`crate::atomic_read`]) read old committed values
//! out of a per-var history chain (see `tvar.rs`). Those chain entries must
//! stay alive for as long as some snapshot might still read them, and be
//! reclaimed afterwards — the classic epoch problem. The scheme here is the
//! smallest one that is correct:
//!
//! - Every thread that starts a snapshot transaction **pins** the global
//!   clock value it will read at (`pin()`), publishing it in a per-thread
//!   slot registered in a global slot list. Pins nest (an inner
//!   `atomic_read` on the same thread keeps the *older* pin published, since
//!   the older snapshot needs the deeper history).
//! - Committers consult [`min_pinned`] — the oldest clock value any live
//!   snapshot still needs — and truncate each var's chain down to the newest
//!   entry at or below that horizon; everything older is unreachable by any
//!   current *or future* pin (future pins sample a clock that is already
//!   past every committed version).
//! - The unpin that takes the live pin count to zero **drains** the chain
//!   table (`tvar::drain_chains`): with no snapshot left, every chain is
//!   unreachable by the same argument, so history lasts only as long as
//!   some pin does.
//! - [`readers_active`] is the publishers' fast gate: a single relaxed-ish
//!   counter load. When no snapshot is pinned anywhere, the commit path
//!   skips history maintenance entirely, so workloads that never call
//!   `atomic_read` pay one atomic load per published var and nothing else.
//!
//! The pin/publish boundary is closed by [`pin`]'s stabilization loop: a
//! first pin publishes its slot and gate, then re-samples the clock until
//! stable, so any committer that could have missed the pin provably drew a
//! write version at or below the pinned epoch — the new head itself serves
//! the snapshot and no reclaimed entry is needed. The remaining *counted
//! fallback* cases (`StatsSnapshot::snapshot_fallbacks`) are the chain
//! depth bound (a pin outrun by more than `MAX_CHAIN_DEPTH` publishes to
//! one var) and snapshot-incapable backends; neither is ever an
//! inconsistent read.

use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Slot value meaning "this thread has no live pin".
const UNPINNED: u64 = u64::MAX;

/// Count of live pins across all threads — the publishers' fast gate.
static ACTIVE_PINS: AtomicUsize = AtomicUsize::new(0);

/// Registered per-thread pin slots, the list [`min_pinned`] scans. A slot is
/// created on a thread's first pin and **recycled** through [`FREE_SLOTS`]
/// when the thread exits, so the list grows with the *peak* number of
/// concurrently snapshot-running threads, not with the total number of
/// threads ever spawned — a thread-per-request server does not grow the
/// scan without bound.
static SLOTS: RwLock<Vec<Arc<AtomicU64>>> = RwLock::new(Vec::new());

/// Parked slots of exited threads (each at `UNPINNED`), ready for reuse by
/// the next thread that pins for the first time.
static FREE_SLOTS: Mutex<Vec<Arc<AtomicU64>>> = Mutex::new(Vec::new());

/// Per-thread pin state: the published slot (lazily registered) plus the
/// stack of nested pin epochs. The slot always holds the *oldest* live epoch
/// on the stack — epochs are sampled from a monotonic clock, so that is
/// simply the bottom entry.
struct PinState {
    slot: Option<Arc<AtomicU64>>,
    stack: Vec<u64>,
}

impl Drop for PinState {
    /// Thread exit: park the slot on the free list for the next thread. The
    /// slot stays registered in [`SLOTS`] (at `UNPINNED`, which every scan
    /// ignores) until reused — it is never removed, only recycled.
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            debug_assert!(self.stack.is_empty(), "thread exited holding a pin");
            slot.store(UNPINNED, Ordering::SeqCst);
            FREE_SLOTS.lock().push(slot);
        }
    }
}

thread_local! {
    static PIN_STATE: RefCell<PinState> =
        const { RefCell::new(PinState { slot: None, stack: Vec::new() }) };
}

/// RAII pin over a clock epoch. While alive, chain entries at or after the
/// pinned epoch are protected from reclamation (modulo the counted
/// pin/publish races described in the module docs). Dropping unpins.
pub(crate) struct PinGuard {
    epoch: u64,
}

impl PinGuard {
    /// The clock value this pin protects — the snapshot version a snapshot
    /// transaction reads at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        PIN_STATE.with(|st| {
            let mut st = st.borrow_mut();
            let popped = st.stack.pop();
            debug_assert_eq!(popped, Some(self.epoch), "pins must unwind LIFO");
            let slot = st.slot.as_ref().expect("unpin without a registered slot");
            match st.stack.first() {
                Some(&oldest) => slot.store(oldest, Ordering::SeqCst),
                None => slot.store(UNPINNED, Ordering::SeqCst),
            }
        });
        // The last unpin drains the chain table, once the pin state is
        // settled, so a drained value whose drop pins again finds it so.
        // An unpin while its thread unwinds leaves the drain to the next
        // last unpin: a drained value's drop that panicked then would abort.
        if ACTIVE_PINS.fetch_sub(1, Ordering::SeqCst) == 1 && !std::thread::panicking() {
            crate::tvar::drain_chains();
        }
    }
}

/// Pin the current global-clock value and return the guard. The returned
/// epoch is the snapshot version: every committed version `<= epoch` is
/// readable for as long as the guard lives (up to the chain depth bound).
///
/// The first pin on a thread publishes its slot and the gate, then
/// **re-samples the clock until it is stable** (hazard-pointer style): a
/// committer whose horizon sample could have missed this pin must have
/// drawn its write version before the final stable re-read, so that
/// version is `<= epoch` — the head itself serves the snapshot and no
/// reclaimed chain entry is ever needed. This closes the sample/store
/// boundary race; what remains counted-fallback territory is only the
/// depth bound (a pin outrun by more than `MAX_CHAIN_DEPTH` publishes to
/// one var) and snapshot-incapable backends.
pub(crate) fn pin() -> PinGuard {
    crate::metrics::pin_entered();
    let mut epoch = crate::clock::now();
    let first = PIN_STATE.with(|st| {
        let mut st = st.borrow_mut();
        let PinState { slot, stack } = &mut *st;
        let slot = slot.get_or_insert_with(|| {
            // Reuse a parked slot of an exited thread before growing the
            // registered list — this is what bounds min_pinned()'s scan by
            // peak concurrency under thread churn.
            FREE_SLOTS.lock().pop().unwrap_or_else(|| {
                let s = Arc::new(AtomicU64::new(UNPINNED));
                SLOTS.write().push(Arc::clone(&s));
                s
            })
        });
        let first = stack.is_empty();
        if first {
            // Publish the slot *before* bumping the gate, so any publisher
            // that observes the gate up also observes the pinned epoch.
            slot.store(epoch, Ordering::SeqCst);
        }
        first
    });
    ACTIVE_PINS.fetch_add(1, Ordering::SeqCst);
    if first {
        // Stabilize: if the clock moved between our sample and the slot
        // store, a committer may have drawn a newer version *and* sampled
        // its horizon before seeing this pin. Advancing the pin to the
        // fresh clock value and re-checking restores the invariant: once a
        // re-read returns the stored value unchanged, every later commit
        // draws a version above it and is invisible to this snapshot. The
        // stored value only ever advances, so the published horizon stays
        // conservative throughout. (Nested pins skip this: the enclosing
        // pin's older published epoch already protects a superset.)
        loop {
            let now = crate::clock::now();
            if now == epoch {
                break;
            }
            epoch = now;
            PIN_STATE.with(|st| {
                let st = st.borrow_mut();
                st.slot
                    .as_ref()
                    .expect("pin slot vanished mid-pin")
                    .store(epoch, Ordering::SeqCst);
            });
        }
        PIN_STATE.with(|st| {
            let mut st = st.borrow_mut();
            st.stack.push(epoch);
        });
    } else {
        PIN_STATE.with(|st| st.borrow_mut().stack.push(epoch));
    }
    PinGuard { epoch }
}

/// Are any snapshot pins live anywhere? Publishers check this before doing
/// any history-chain work; false means "overwrite in place, as ever".
pub(crate) fn readers_active() -> bool {
    ACTIVE_PINS.load(Ordering::SeqCst) != 0
}

/// Does this thread hold a pin? Only such a reader may look a chain up.
pub(crate) fn pinned_here() -> bool {
    PIN_STATE.with(|st| !st.borrow().stack.is_empty())
}

/// The oldest clock value any live pin still needs, or `u64::MAX` when no
/// pin is live. Chain entries strictly older than the newest entry at or
/// below this horizon are unreachable and may be reclaimed.
pub(crate) fn min_pinned() -> u64 {
    SLOTS
        .read()
        .iter()
        .map(|s| s.load(Ordering::SeqCst))
        .min()
        .unwrap_or(UNPINNED)
}

/// The chain-reclamation horizon for one publishing commit: [`min_pinned`]
/// behind the [`readers_active`] fast gate, so workloads that never snapshot
/// still pay one atomic load and nothing else. Sampled **once per commit**
/// (by `CommitGuard::publish` / `publish_direct`) and threaded into every
/// `apply` — while readers are pinned, the slot scan is O(threads), and
/// resampling it per published var would cost every writer
/// `O(write_set × threads)`. `u64::MAX` means "no reader pinned: skip
/// history maintenance"; a pin that lands after the sample surfaces as that
/// reader's counted fallback, the same benign boundary race as a pin that
/// lands after a `readers_active` check.
pub(crate) fn publish_horizon() -> u64 {
    if readers_active() {
        min_pinned()
    } else {
        UNPINNED
    }
}

/// Number of registered pin slots (diagnostic: the recycling tests assert
/// this tracks peak thread concurrency, not total threads ever spawned).
#[cfg(test)]
fn registered_slots() -> usize {
    SLOTS.read().len()
}

/// Held by every unit test of this crate that pins, so that one checking
/// what its unpin drains knows that unpin is the last.
#[cfg(test)]
pub(crate) static PIN_TESTS: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_pins_keep_oldest_published() {
        let _serial = PIN_TESTS.lock();
        // Pins on this thread only; other tests' threads may hold their own
        // pins, so assert about our slot via min over *our* epochs.
        let outer = pin();
        let e0 = outer.epoch();
        assert!(readers_active());
        assert!(min_pinned() <= e0);
        {
            let inner = pin();
            assert!(inner.epoch() >= e0, "clock is monotonic");
            assert!(min_pinned() <= e0, "oldest pin stays published");
        }
        assert!(min_pinned() <= e0);
        drop(outer);
    }

    #[test]
    fn exited_threads_recycle_their_slots() {
        // Sequential short-lived threads, each pinning once: without the
        // free-list each would register a fresh slot forever (the
        // thread-churn leak); with recycling the registered list grows by
        // at most the one slot the first spawned thread allocates. The
        // slack below absorbs other tests in this binary racing their own
        // first pins while we measure.
        let _serial = PIN_TESTS.lock();
        let before = registered_slots();
        for _ in 0..16 {
            std::thread::spawn(|| {
                let g = pin();
                assert!(g.epoch() != UNPINNED);
            })
            .join()
            .unwrap();
        }
        let grown = registered_slots() - before;
        assert!(grown <= 4, "thread churn leaked {grown} pin slots");
    }

    #[test]
    fn publish_horizon_tracks_pins() {
        // Not UNPINNED while we hold a pin; UNPINNED (skip maintenance)
        // requires no pins anywhere, which concurrent tests may violate —
        // so only the pinned direction is asserted unconditionally.
        let _serial = PIN_TESTS.lock();
        let g = pin();
        assert!(publish_horizon() <= g.epoch());
    }
}
