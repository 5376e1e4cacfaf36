//! Seeded TX013 violation: a snapshot-mode file reaching lock-acquiring /
//! state-buffering kernel entry points. Snapshot transactions run no
//! release sweep and no handlers, so a semantic lock taken here leaks for
//! the lifetime of the table and buffered state is stranded.
//! NOT compiled — input for `txlint --self-test`.

// txlint: snapshot-mode

impl LeakySnapshotMap {
    fn snapshot_get(&self, key: &Key) -> Option<Value> {
        stm::atomic_read(|tx| {
            self.take_key_lock(tx, key); // TX013: semantic lock in snapshot mode
            self.get(tx, key)
        })
    }

    fn snapshot_size(&self) -> usize {
        stm::atomic_read(|tx| {
            self.core.with_local(tx, |s| s.touch()); // TX013: buffered state in snapshot mode
            self.core.local_undo(tx, |s| s.untouch()); // TX013: buffer undo in snapshot mode
            self.size(tx)
        })
    }

    fn snapshot_get_clean(&self, key: &Key) -> Option<Value> {
        // fine: the plain read path — the kernel's snapshot skip handles it
        stm::atomic_read(|tx| self.get(tx, key))
    }
}
