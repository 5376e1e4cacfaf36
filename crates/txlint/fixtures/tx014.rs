//! Seeded TX014 violations: allocating payload construction at metrics
//! emission sites in a marked file.
//! NOT compiled — input for `txlint --self-test`.
//!
//! txlint: metrics

// Every emission below builds its payload on the hot path instead of
// passing integers and a Sym interned once at collection construction.
fn emit_with_allocations(stripe: u64, ns: u64, class_name: &str, label: &Label) {
    // Interning per emission takes the global symbol-table mutex on a path
    // that runs inside the commit machinery; the Sym belongs in the class
    // constructor.
    metrics::doom_landed(intern(class_name), stripe); // TX014

    // format! allocates a String per emission.
    metrics::cache_hit(sym_for(format!("{class_name}-hot"))); // TX014

    // So do String::from and .to_string().
    metrics::stripe_blocked(sym_for(String::from("map")), stripe); // TX014
    metrics::hist_record_ns(kind_of(label.to_string()), ns); // TX014

    // The always-on totals take a fixed `Total`, not a name resolved per
    // event.
    metrics::tally(total_named(&format!("{class_name}_commits"))); // TX014
}
