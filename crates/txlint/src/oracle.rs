//! The conflict-matrix oracle: paper Tables 1–8 as machine-readable data.
//!
//! Each [`TableRow`] is one cell of the paper's conflict tables — a
//! concrete reader operation against a concrete committing update, with the
//! paper's verdict on whether they conflict. The oracle replays every row
//! against [`txcollections::mode_compatible`], the single function the
//! production doom protocol dispatches through (via the key stripes'
//! `KeyLockShard::doom_update` and the whole-collection table's
//! `GlobalLocks::doom` and range dooms, which every class's commit and
//! abort handlers reach through the kernel's `KeyCtx` and `PointCtx`). Any
//! divergence between these rows and that function is a bug in one of
//! them.
//!
//! The same rows are checked *dynamically* by
//! `crates/core/tests/oracle_matrix.rs`, which drives real two-transaction
//! executions through the collections and asserts the doom protocol agrees.
//!
//! Since the lock matrices became *synthesized* from declared conflict
//! graphs, the oracle also validates the synthesis pipeline
//! ([`check_declared_graphs`]): every in-tree
//! [`ConflictGraph`](txcollections::ConflictGraph) declaration must be
//! well-formed, its synthesized matrix must agree with the hand-written
//! [`mode_compatible_spec`] on every cell the graph reaches,
//! and the generated production [`mode_compatible`] must equal the spec on
//! all 84 `(mode, effect, overlap)` cells.

use txcollections::{
    declared_graphs, mode_compatible, mode_compatible_spec, reachable_cells, synthesize, validate,
    ObsMode, UpdateEffect,
};

/// One cell of paper Tables 1–8.
#[derive(Debug, Clone, Copy)]
pub struct TableRow {
    /// Which paper table the cell comes from.
    pub table: &'static str,
    /// The observing (reader) operation.
    pub observer: &'static str,
    /// The committing update.
    pub update: &'static str,
    /// The semantic lock mode the observer holds.
    pub obs: ObsMode,
    /// The abstract effect the update publishes against that mode.
    pub effect: UpdateEffect,
    /// Whether the update's key hits the observed key/range (ignored for
    /// whole-collection modes).
    pub overlap: bool,
    /// The paper's verdict: do the operations conflict (observer doomed)?
    pub conflicts: bool,
}

const fn row(
    table: &'static str,
    observer: &'static str,
    update: &'static str,
    obs: ObsMode,
    effect: UpdateEffect,
    overlap: bool,
    conflicts: bool,
) -> TableRow {
    TableRow {
        table,
        observer,
        update,
        obs,
        effect,
        overlap,
        conflicts,
    }
}

/// Paper Tables 1–8, distilled to (mode, effect, overlap) cells.
pub const ROWS: &[TableRow] = &[
    // ------------------------------------------------------------------
    // Tables 1–2: TransactionalMap — get/containsKey/size/isEmpty vs
    // put/remove.
    // ------------------------------------------------------------------
    row(
        "Table 1",
        "get(k)",
        "put(k, v)",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        true,
        true,
    ),
    row(
        "Table 1",
        "get(k)",
        "put(k', v)",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 1",
        "get(k)",
        "remove(k)",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        true,
        true,
    ),
    row(
        "Table 1",
        "get(k)",
        "remove(k')",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 1",
        "containsKey(k)",
        "put(k, v) [new]",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        true,
        true,
    ),
    row(
        "Table 1",
        "size()",
        "put(k, v) [new key]",
        ObsMode::Size,
        UpdateEffect::SizeChange,
        false,
        true,
    ),
    row(
        "Table 1",
        "size()",
        "put(k, v) [replace]",
        ObsMode::Size,
        UpdateEffect::KeyWrite,
        true,
        false,
    ),
    row(
        "Table 1",
        "size()",
        "remove(k) [present]",
        ObsMode::Size,
        UpdateEffect::SizeChange,
        false,
        true,
    ),
    row(
        "Table 2",
        "isEmpty() [§5.1 primitive]",
        "put into empty map",
        ObsMode::Empty,
        UpdateEffect::ZeroCross,
        false,
        true,
    ),
    row(
        "Table 2",
        "isEmpty() [§5.1 primitive]",
        "put into non-empty map",
        ObsMode::Empty,
        UpdateEffect::SizeChange,
        false,
        false,
    ),
    row(
        "Table 2",
        "isEmpty() [§5.1 primitive]",
        "remove leaving non-empty",
        ObsMode::Empty,
        UpdateEffect::SizeChange,
        false,
        false,
    ),
    row(
        "Table 2",
        "isEmpty() [§5.1 primitive]",
        "remove last element",
        ObsMode::Empty,
        UpdateEffect::ZeroCross,
        false,
        true,
    ),
    row(
        "Table 2",
        "iterator.next() -> k",
        "put(k, v)",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        true,
        true,
    ),
    row(
        "Table 2",
        "exhausted iteration",
        "put(k, v) [new key]",
        ObsMode::Size,
        UpdateEffect::SizeChange,
        false,
        true,
    ),
    // ------------------------------------------------------------------
    // Tables 4–5: TransactionalSortedMap — firstKey/lastKey/subMap
    // iteration vs endpoint-moving and in-range updates.
    // ------------------------------------------------------------------
    row(
        "Table 4",
        "firstKey()",
        "put(k < first)",
        ObsMode::First,
        UpdateEffect::FirstChange,
        false,
        true,
    ),
    row(
        "Table 4",
        "firstKey()",
        "put(interior k)",
        ObsMode::First,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 4",
        "firstKey()",
        "remove(first)",
        ObsMode::First,
        UpdateEffect::FirstChange,
        false,
        true,
    ),
    row(
        "Table 4",
        "lastKey()",
        "put(k > last)",
        ObsMode::Last,
        UpdateEffect::LastChange,
        false,
        true,
    ),
    row(
        "Table 4",
        "lastKey()",
        "put(interior k)",
        ObsMode::Last,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 4",
        "lastKey()",
        "remove(last)",
        ObsMode::Last,
        UpdateEffect::LastChange,
        false,
        true,
    ),
    row(
        "Table 5",
        "subMap(a..b) iteration",
        "put(k in [a,b))",
        ObsMode::Range,
        UpdateEffect::KeyWrite,
        true,
        true,
    ),
    row(
        "Table 5",
        "subMap(a..b) iteration",
        "put(k not in [a,b))",
        ObsMode::Range,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 5",
        "subMap(a..b) iteration",
        "remove(k in [a,b))",
        ObsMode::Range,
        UpdateEffect::KeyWrite,
        true,
        true,
    ),
    row(
        "Table 5",
        "subMap(a..b) iteration",
        "first-key change outside range",
        ObsMode::Range,
        UpdateEffect::FirstChange,
        false,
        false,
    ),
    // ------------------------------------------------------------------
    // Tables 7–8: TransactionalQueue — emptiness/fullness observations vs
    // producing and consuming commits. The queue is deliberately unordered
    // (§3.3), so observing *an* element commutes with everything except a
    // write of that same element.
    // ------------------------------------------------------------------
    row(
        "Table 7",
        "poll() -> null [empty lock]",
        "put() making queue non-empty",
        ObsMode::Empty,
        UpdateEffect::ZeroCross,
        false,
        true,
    ),
    row(
        "Table 7",
        "poll() -> null [empty lock]",
        "put() onto non-empty queue",
        ObsMode::Empty,
        UpdateEffect::SizeChange,
        false,
        false,
    ),
    row(
        "Table 7",
        "peek() -> item",
        "put() of another item",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 7",
        "poll() -> item",
        "take() of another item",
        ObsMode::Key,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
    row(
        "Table 8",
        "offer() -> false [full lock]",
        "take() freeing capacity",
        ObsMode::Full,
        UpdateEffect::Consume,
        false,
        true,
    ),
    row(
        "Table 8",
        "offer() -> false [full lock]",
        "put() onto the full queue",
        ObsMode::Full,
        UpdateEffect::SizeChange,
        false,
        false,
    ),
    row(
        "Table 8",
        "offer() -> false [full lock]",
        "value-replacing update",
        ObsMode::Full,
        UpdateEffect::KeyWrite,
        false,
        false,
    ),
];

/// Replay every table row against `mode_compatible`. Returns one line per
/// mismatch; empty means the production compatibility function agrees with
/// the paper's tables cell-for-cell.
pub fn check() -> Vec<String> {
    let mut errors = Vec::new();
    for r in ROWS {
        let compatible = mode_compatible(r.obs, r.effect, r.overlap);
        if compatible == r.conflicts {
            errors.push(format!(
                "{}: `{}` vs `{}`: paper says conflicts={}, mode_compatible({:?}, {:?}, {}) = {}",
                r.table, r.observer, r.update, r.conflicts, r.obs, r.effect, r.overlap, compatible
            ));
        }
    }
    // Structural invariants of the full matrix, beyond the sampled rows:
    // exactly the seven paired (mode, effect) cells conflict under overlap,
    // and only the five whole-collection pairs conflict without overlap.
    let conflicting_overlap = ObsMode::ALL
        .iter()
        .flat_map(|o| UpdateEffect::ALL.iter().map(move |e| (*o, *e)))
        .filter(|&(o, e)| !mode_compatible(o, e, true))
        .count();
    if conflicting_overlap != 7 {
        errors.push(format!(
            "matrix shape: expected 7 conflicting (mode, effect) pairs with overlap, got {conflicting_overlap}"
        ));
    }
    let conflicting_no_overlap = ObsMode::ALL
        .iter()
        .flat_map(|o| UpdateEffect::ALL.iter().map(move |e| (*o, *e)))
        .filter(|&(o, e)| !mode_compatible(o, e, false))
        .count();
    if conflicting_no_overlap != 5 {
        errors.push(format!(
            "matrix shape: expected 5 conflicting (mode, effect) pairs without overlap, got {conflicting_no_overlap}"
        ));
    }
    errors.extend(check_declared_graphs());
    errors
}

/// Validate every in-tree conflict-graph declaration and the matrices
/// synthesized from them, three ways:
///
/// 1. each declared graph passes [`validate`] (symmetry, reflexivity,
///    commutativity closure, referential integrity);
/// 2. each graph's synthesized matrix agrees with the hand-written
///    [`mode_compatible_spec`] on every `(mode, effect, overlap)` cell the
///    graph's declarations reach;
/// 3. the generated production [`mode_compatible`] (the union of all
///    synthesized matrices) equals the spec on all 84 cells — exhaustively,
///    including cells no single graph reaches.
pub fn check_declared_graphs() -> Vec<String> {
    let mut errors = Vec::new();
    for graph in declared_graphs() {
        let class = graph.class;
        let declaration_errors = validate(graph);
        if !declaration_errors.is_empty() {
            errors.extend(declaration_errors);
            continue;
        }
        match synthesize(graph) {
            Ok(synth) => {
                for (obs, effect, overlap) in reachable_cells(graph) {
                    let got = synth.matrix.compatible(obs, effect, overlap);
                    let want = mode_compatible_spec(obs, effect, overlap);
                    if got != want {
                        errors.push(format!(
                            "{class}: synthesized matrix disagrees with spec on \
                             ({obs:?}, {effect:?}, overlap={overlap}): synthesized={got}, spec={want}"
                        ));
                    }
                }
            }
            Err(es) => errors.extend(es),
        }
    }
    // The production dispatch function is generated from the union of the
    // declarations; it must be *identical* to the historic hand-written
    // table — all 7 modes x 6 effects x 2 overlap values.
    for o in ObsMode::ALL {
        for e in UpdateEffect::ALL {
            for overlap in [false, true] {
                let generated = mode_compatible(o, e, overlap);
                let spec = mode_compatible_spec(o, e, overlap);
                if generated != spec {
                    errors.push(format!(
                        "generated mode_compatible({o:?}, {e:?}, {overlap}) = {generated}, \
                         but mode_compatible_spec says {spec}"
                    ));
                }
            }
        }
    }
    errors
}

/// The class names of the declared graphs the oracle covers.
pub fn declared_graph_classes() -> Vec<&'static str> {
    declared_graphs().iter().map(|g| g.class).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees_with_production_matrix() {
        let errors = check();
        assert!(
            errors.is_empty(),
            "oracle mismatches:\n{}",
            errors.join("\n")
        );
    }

    #[test]
    fn rows_cover_every_observation_mode_and_effect() {
        for o in ObsMode::ALL {
            assert!(
                ROWS.iter().any(|r| r.obs == o),
                "no table row exercises {o:?}"
            );
        }
        for e in UpdateEffect::ALL {
            assert!(
                ROWS.iter().any(|r| r.effect == e),
                "no table row exercises {e:?}"
            );
        }
    }

    #[test]
    fn every_declared_graph_synthesizes_to_the_spec() {
        let errors = check_declared_graphs();
        assert!(
            errors.is_empty(),
            "synthesis mismatches:\n{}",
            errors.join("\n")
        );
    }

    #[test]
    fn every_collection_class_declares_a_graph() {
        let classes = declared_graph_classes();
        for c in [
            "map",
            "sorted_map",
            "queue",
            "set",
            "eager_map",
            "multiset",
            "priority_queue",
            "interval_map",
        ] {
            assert!(classes.contains(&c), "no declared conflict graph for {c}");
        }
    }

    #[test]
    fn rows_include_both_verdicts_per_table() {
        for t in ["Table 1", "Table 4", "Table 5", "Table 7", "Table 8"] {
            assert!(ROWS.iter().any(|r| r.table == t && r.conflicts));
            assert!(ROWS.iter().any(|r| r.table == t && !r.conflicts));
        }
    }
}
