//! The read and write sets a `TxTreeMap` transaction logs.
//!
//! Figs. 2 and 4 measure conflicts that come from every node field being
//! its own transactional location: a rotation or recoloring writes the
//! links and colors it touches, and a search reads every key and link on
//! its path. This test runs a fixed single-threaded script and checks each
//! transaction's exact read-set and write-set sizes, so a change to how
//! node fields are stored cannot change what a transaction conflicts on.

use std::ops::Bound;
use stm::{atomic, Txn};
use txstruct::TxTreeMap;

/// One transaction's `(read_set_len, write_set_len)` at commit time.
fn sets(f: impl Fn(&mut Txn)) -> (usize, usize) {
    atomic(|tx| {
        f(tx);
        (tx.read_set_len(), tx.write_set_len())
    })
}

#[test]
fn tree_transactions_log_the_same_read_and_write_sets() {
    let t: TxTreeMap<u64, u64> = TxTreeMap::new();
    let mut got = Vec::new();
    // An ascending run (left rotations), a descending run (right
    // rotations), then zig-zag triples whose fix-ups rotate twice, once
    // each way.
    let inserts = [
        100, 110, 120, 130, 140, 150, 60, 50, 40, 30, 20, 10, 200, 180, 190, 300, 320, 310,
    ];
    for k in inserts {
        got.push(sets(|tx| {
            t.insert(tx, k, k);
        }));
    }
    // Overwrite: a search plus one value write.
    got.push(sets(|tx| {
        t.insert(tx, 150, 1);
    }));
    // Deletes of nodes with two children swap in their successor first;
    // the last two are a leaf and a missing key.
    for k in [130, 100, 60, 190, 10, 999] {
        got.push(sets(|tx| {
            t.remove(tx, &k);
        }));
    }
    // A range scan: one descent per step.
    got.push(sets(|tx| {
        let r = t.range_entries(tx, Bound::Included(&30), Bound::Excluded(&200));
        assert_eq!(r.len(), 8);
    }));
    atomic(|tx| t.check_invariants(tx)).unwrap();
    let expected = [
        // Inserts.
        (1, 1),
        (4, 5),
        (10, 10),
        (9, 7),
        (13, 12),
        (13, 8),
        (6, 5),
        (13, 12),
        (13, 8),
        (15, 12),
        (18, 10),
        (17, 12),
        (15, 12),
        (15, 8),
        (17, 12),
        (23, 16),
        (17, 12),
        (22, 11),
        // Overwrite.
        (5, 1),
        // Deletes.
        (29, 16),
        (18, 12),
        (13, 7),
        (24, 17),
        (13, 3),
        (9, 0),
        // Range scan.
        (38, 0),
    ];
    assert_eq!(got, expected);
}
