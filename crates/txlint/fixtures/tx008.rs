//! Seeded TX008 violation: direct top-level handler registration in a
//! semantic-tables file that is not the kernel.
//! NOT compiled — input for `txlint --self-test`.
//!
//! txlint: semantic-tables

// A collection class re-implementing first-touch registration by hand
// instead of going through SemanticCore::ensure_registered. Enlisting the
// instance's participant (or registering its handler pair) must live in
// the kernel file only.
fn register(table: &Table, tx: &mut Txn) {
    let id = tx.handle().id();
    tx.on_commit_top(move |htx| table.apply(htx, id)); // TX008
    tx.on_abort_top(move |htx| table.release(htx, id)); // TX008
    tx.enlist(table.tag(), Box::new(TableSlot::default())); // TX008
}
