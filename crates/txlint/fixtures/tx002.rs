//! Seeded TX002 violations: TVar and TCell access that bypasses or escapes
//! transaction context. NOT compiled — input for `txlint --self-test`.

fn read_around_isolation() {
    atomic(|tx| {
        let snapshot = balance.read_committed(); // TX002: bypasses isolation
        if snapshot > 0 {
            balance.write(tx, snapshot - 1);
        }
    });
}

fn escaped_txn_handle() {
    let cell = TVar::new(0u64);
    let stale = steal_txn_handle();
    cell.read(stale); // TX002: outside any transaction context
    cell.write(stale, 7); // TX002: outside any transaction context
}

struct Node {
    key: TCell<u64>,
}

fn escaped_txn_handle_on_a_cell(node: &Arc<Node>) {
    let stale = steal_txn_handle();
    node.key.write(stale, node, 7); // TX002: outside any transaction context
}
