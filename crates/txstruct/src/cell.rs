//! Transactional scalar cells and counters.

use stm::{TVar, Txn};

/// A single transactional value — a name-level analog of a mutable field in
/// a Java object accessed inside transactions.
pub struct TxCell<T> {
    var: TVar<T>,
}

impl<T> Clone for TxCell<T> {
    fn clone(&self) -> Self {
        TxCell {
            var: self.var.clone(),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TxCell<T> {
    /// Create a cell with an initial value.
    pub fn new(value: T) -> Self {
        TxCell {
            var: TVar::new(value),
        }
    }

    /// Transactional read.
    pub fn get(&self, tx: &mut Txn) -> T {
        self.var.read(tx)
    }

    /// Transactional write.
    pub fn set(&self, tx: &mut Txn, value: T) {
        self.var.write(tx, value)
    }

    /// Committed value, outside any transaction.
    pub fn get_committed(&self) -> T {
        self.var.read_committed()
    }

    /// The underlying variable (for read/write-set introspection in tests).
    pub fn var(&self) -> &TVar<T> {
        &self.var
    }
}

/// A shared integer counter.
///
/// Used two ways in the reproduction, mirroring paper §6.3:
///
/// * [`TxCounter::add`] — a plain transactional update. Inside a long
///   transaction this makes the counter a serialization point: every two
///   updating transactions conflict (the "Atomos Baseline" behaviour).
/// * [`TxCounter::add_open`] / [`TxCounter::next_uid`] — the update runs in
///   an **open-nested** transaction, so the parent carries no dependency on
///   the counter. This trades serializability for performance: an aborted
///   parent leaves a gap in the sequence, which is exactly the UID-generator
///   isolation/serializability trade the paper (and Gray & Reuter) discuss.
#[derive(Clone, Debug)]
pub struct TxCounter {
    var: TVar<i64>,
}

impl Default for TxCounter {
    fn default() -> Self {
        Self::new(0)
    }
}

impl TxCounter {
    /// Create a counter with an initial value.
    pub fn new(initial: i64) -> Self {
        TxCounter {
            var: TVar::new(initial),
        }
    }

    /// Transactional read (creates a dependency on the counter).
    pub fn get(&self, tx: &mut Txn) -> i64 {
        self.var.read(tx)
    }

    /// Transactional add; returns the pre-add value. Fully serializable but
    /// a conflict hotspot inside long transactions.
    pub fn add(&self, tx: &mut Txn, delta: i64) -> i64 {
        let v = self.var.read(tx);
        self.var.write(tx, v + delta);
        v
    }

    /// Open-nested add; returns the pre-add value. The increment commits
    /// immediately and the parent keeps **no dependency** on the counter.
    /// If the parent later aborts, the increment persists (a gap).
    pub fn add_open(&self, tx: &mut Txn, delta: i64) -> i64 {
        tx.open(|otx| {
            let v = self.var.read(otx);
            self.var.write(otx, v + delta);
            v
        })
    }

    /// Open-nested add with a compensating abort handler: if the parent
    /// aborts, the delta is subtracted back. Restores the counter *value*
    /// on abort (but not the serialization order — intermediate values were
    /// already observable, the structured isolation reduction of §3.3).
    pub fn add_open_compensated(&self, tx: &mut Txn, delta: i64) -> i64 {
        let prev = self.add_open(tx, delta);
        let var = self.var.clone();
        tx.on_abort(move |htx| {
            let v = var.read(htx);
            var.write(htx, v - delta);
        });
        prev
    }

    /// Draw a fresh unique id (open-nested increment). Aborted parents leave
    /// gaps; ids are never reused.
    pub fn next_uid(&self, tx: &mut Txn) -> i64 {
        self.add_open(tx, 1)
    }

    /// Committed value, outside any transaction.
    pub fn get_committed(&self) -> i64 {
        self.var.read_committed()
    }

    /// The underlying variable (for read/write-set introspection in tests).
    pub fn var(&self) -> &TVar<i64> {
        &self.var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use stm::atomic;

    #[test]
    fn cell_roundtrip() {
        let c = TxCell::new("a".to_string());
        atomic(|tx| c.set(tx, "b".to_string()));
        assert_eq!(c.get_committed(), "b");
        assert_eq!(atomic(|tx| c.get(tx)), "b");
    }

    #[test]
    fn counter_add_returns_previous() {
        let c = TxCounter::new(10);
        let prev = atomic(|tx| c.add(tx, 5));
        assert_eq!(prev, 10);
        assert_eq!(c.get_committed(), 15);
    }

    #[test]
    fn open_add_survives_parent_abort() {
        let c = TxCounter::new(0);
        let first = AtomicU32::new(1);
        atomic(|tx| {
            c.add_open(tx, 1);
            if first.swap(0, Ordering::SeqCst) == 1 {
                stm::abort_and_retry();
            }
        });
        // Two attempts, each bumped the counter: a gap remains.
        assert_eq!(c.get_committed(), 2);
    }

    #[test]
    fn compensated_open_add_rolls_back_value() {
        let c = TxCounter::new(0);
        let first = AtomicU32::new(1);
        atomic(|tx| {
            c.add_open_compensated(tx, 1);
            if first.swap(0, Ordering::SeqCst) == 1 {
                stm::abort_and_retry();
            }
        });
        assert_eq!(c.get_committed(), 1);
    }

    #[test]
    fn uids_unique_under_concurrency() {
        let c = std::sync::Arc::new(TxCounter::new(0));
        let ids = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let ids = ids.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let id = atomic(|tx| c.next_uid(tx));
                        ids.lock().push(id);
                    }
                });
            }
        });
        let mut v = ids.lock().clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 800, "duplicate UIDs issued");
    }
}
