//! The sorted map's range locks live in the paper's flat scanned list
//! (§3.2): re-run the key Table 4/5 range scenarios against it.

mod conflict_harness;
use conflict_harness::assert_cell;
use std::ops::Bound;
use txcollections::TransactionalSortedMap;

fn seeded(keys: &[i64]) -> TransactionalSortedMap<i64, i64> {
    let m = TransactionalSortedMap::new();
    stm::atomic(|tx| {
        for &k in keys {
            m.put_discard(tx, k, k * 10);
        }
    });
    m
}

#[test]
fn flat_scan_semantics() {
    // In-range insert conflicts.
    let m = seeded(&[10, 20, 30, 40]);
    let (r, w) = (m.clone(), m.clone());
    assert_cell(
        true,
        "range [10,30] vs put(25)",
        move |tx| {
            r.range_entries(tx, Bound::Included(10), Bound::Included(30));
        },
        move |tx| {
            w.put(tx, 25, 250);
        },
    );
    // Out-of-range insert commutes.
    let m = seeded(&[10, 20, 30, 40]);
    let (r, w) = (m.clone(), m.clone());
    assert_cell(
        false,
        "range [10,30] vs put(35)",
        move |tx| {
            r.range_entries(tx, Bound::Included(10), Bound::Included(30));
        },
        move |tx| {
            w.put(tx, 35, 350);
        },
    );
    // Growing lock: put past the cursor commutes; put inside conflicts.
    let m = seeded(&[10, 20, 30, 40, 50]);
    let (r, w) = (m.clone(), m.clone());
    assert_cell(
        false,
        "prefix [10,20] vs put(45)",
        move |tx| {
            let mut it = r.iter(tx);
            it.next(tx);
            it.next(tx);
        },
        move |tx| {
            w.put(tx, 45, 450);
        },
    );
    let m = seeded(&[10, 20, 30, 40, 50]);
    let (r, w) = (m.clone(), m.clone());
    assert_cell(
        true,
        "prefix [10,20] vs put(15)",
        move |tx| {
            let mut it = r.iter(tx);
            it.next(tx);
            it.next(tx);
        },
        move |tx| {
            w.put(tx, 15, 150);
        },
    );
    // Exhaustion covers the whole range.
    let m = seeded(&[10, 20]);
    let (r, w) = (m.clone(), m.clone());
    assert_cell(
        true,
        "full iteration vs put(99)",
        move |tx| {
            r.entries(tx);
        },
        move |tx| {
            w.put(tx, 99, 990);
        },
    );
    // Abort releases the range locks too.
    let m = seeded(&[10, 20]);
    let m2 = m.clone();
    let (_, t) = stm::speculate(
        move |tx| {
            m2.range_entries(tx, Bound::Unbounded, Bound::Unbounded);
        },
        0,
    )
    .unwrap();
    t.abort(stm::AbortCause::Explicit);
    let (r, w) = (m.clone(), m.clone());
    assert_cell(
        false,
        "released range lock must not doom anyone",
        move |tx| {
            r.get(tx, &10);
        },
        move |tx| {
            w.put(tx, 15, 150);
        },
    );
}
