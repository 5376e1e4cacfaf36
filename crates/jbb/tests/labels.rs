//! Conflict-attribution labels of a warehouse: one label per labelled
//! block, however many vars the block holds.

use jbb::{TmConfig, TmWarehouse};

#[test]
fn a_transactional_warehouse_makes_26_labels() {
    let start = stm::label_count();
    let w = TmWarehouse::new(TmConfig::Transactional);
    // Each district's two counters, the warehouse's history-uid and ytd
    // counters, and the header and bucket block of the stock and customer
    // tables; the wrapped collections have no vars of their own to label.
    assert_eq!(stm::label_count() - start, 26);
    drop(w);
    assert_eq!(stm::label_count(), start, "a dropped warehouse kept labels");
}
