//! The sanctioned counterparts of every seeded violation, plus allowlist
//! usage: `txlint --self-test` asserts this file produces zero findings.
//! NOT compiled.

fn io_from_commit_handler() {
    atomic(|tx| {
        let v = counter.read(tx);
        counter.write(tx, v + 1);
        tx.on_commit(move |h| {
            println!("committed value {v}"); // handlers may do I/O
        });
        tx.on_abort(|h| {});
    });
}

fn allowlisted_debug_print() {
    atomic(|tx| {
        println!("debugging a doomed txn"); // txlint: allow(TX001)
        counter.write(tx, 0);
    });
}

fn sanctioned_nesting() {
    atomic(|tx| {
        let v = cell.read(tx);
        tx.closed(|tx2| {
            audit.write(tx2, v);
        });
        tx.open(|otx| backing.len(otx));
    });
}

fn paired_handlers(tx: &mut Txn) {
    let taken = queue.poll(tx);
    tx.on_commit_top(move |h| publish(h, taken));
    tx.on_local_undo(move |_| restore(taken));
}

fn allocation_free_trace_emission(owner: &TxHandle, stats: &ClassStats, key: &K) {
    // Integers and the class's pre-interned Sym: the sanctioned payloads.
    trace::sem_lock_acquired(owner.id(), stats.class_sym(), LockKind::Key, key_hash64(key));
}

fn construction_time_interning() -> Sym {
    // intern() once, at class construction — not per event.
    intern("histogram")
}

fn non_transactional_observer() {
    // read_committed outside any transaction is the sanctioned use.
    let snapshot = stats_cell.read_committed();
    report(snapshot);
}
