//! # txcc — Transactional Collection Classes (PPoPP 2007) in Rust
//!
//! Umbrella crate re-exporting the whole reproduction: the STM substrate,
//! the STM-backed data structures, the transactional collection classes
//! (the paper's contribution), the chip-multiprocessor simulator, and the
//! SPECjbb2000-like workload.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

pub use jbb;
pub use sim;
pub use stm;
pub use txcollections;
pub use txstruct;

/// The semantic-class kernel, re-exported at the top level: implement
/// [`SemanticClass`] (the buffer type plus the commit/abort handler bodies)
/// and wrap it in a [`SemanticCore`] to get the paper's §5 protocol —
/// first-touch registration, sharded local state, stripe-sweep ordering,
/// doom dispatch and the conflict counters — without re-implementing any of
/// it. A class names its global stripe
/// ([`SemanticClass::global_stripe`]), where its whole-collection locks and
/// its counters live, so [`SemanticCore::take_point_lock`] can take and
/// cache those locks. [`ClassTables`] adds ready-made key tables beside a
/// global stripe; a [`KeyedClass`] on them takes and caches its key locks
/// through [`SemanticCore::take_key_lock`]. Dooms raised during
/// [`ClassTables::commit_sweep`] go through [`KeyCtx`], and the global
/// phase that the [`GlobalPhase`] token forces to run last dooms
/// whole-collection lock holders through [`PointCtx`] and releases the
/// owner's locks. See `examples/custom_class.rs` for the full walkthrough.
pub use txcollections::{
    ClassTables, GlobalPhase, KeyCtx, KeyedClass, PointCtx, SemanticClass, SemanticCore,
};
