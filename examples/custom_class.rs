//! Building your own transactional class with the paper's §5 guidelines —
//! on the crate's semantic-class kernel.
//!
//! The paper closes: "we have shown a straightforward operational analysis
//! and implementation guidelines that allow programmers to safely design
//! their own concurrent classes." This example walks those guidelines for a
//! `TransactionalHistogram` — shared counting bins with semantic
//! concurrency control — and shows what the kernel leaves for you to write:
//!
//! * **Operational analysis** (yours): `add(bin, n)` operations commute
//!   with each other (blind additions); `count(bin)` conflicts with `add`
//!   to the same bin; `total()` conflicts with any `add`. Since PR 6 that
//!   analysis is *data*, not prose: `HIST_CONFLICT_GRAPH` below declares
//!   the operations and their conflict edges, [`SemanticCore::new`]
//!   synthesizes the lock modes from it and panics at construction if the
//!   declaration is unsound or disagrees with the dispatch matrix, and
//!   txlint's TX010 pass re-checks the declaration without running code.
//! * **Guideline 1** — keep transaction-local state encapsulated: the
//!   `HistLocal` buffer, reached only via [`SemanticCore::with_local`]. It
//!   lives in the transaction itself (in the participant the kernel
//!   enlists), and [`SemanticCore::local_undo`] rolls it back if a closed
//!   frame aborts.
//! * **Guideline 2** — register one commit/abort handler pair on first
//!   touch: [`SemanticCore::ensure_registered`], one call per operation;
//!   the kernel makes it idempotent and enlists the pair with the buffer
//!   it drains, as one participant, in one step.
//! * **Guideline 3** — take semantic locks before reading committed state,
//!   then read open-nested: `count`/`total` below. Bin locks go through
//!   [`SemanticCore::take_key_lock`] (the class says where its key tables
//!   and held bins are, [`KeyedClass`]), whole-collection locks (`total`'s
//!   size lock) through [`SemanticCore::take_point_lock`]; both cache per
//!   transaction, and a bin is on the release list before the read a doom
//!   could unwind.
//! * **Guideline 5-commit** — [`SemanticClass::apply`]: the kernel hands
//!   you the drained buffer inside the commit handler; you apply it and
//!   state what each update *does* ([`UpdateEffect`]); the sweep order and
//!   the who-to-doom case analysis are the kernel's.
//! * **Guideline 4/5-abort** — [`SemanticClass::release`]: drop the buffer
//!   (handed over as the body last wrote it) and release the lock
//!   footprint. Both handlers end in the kernel's global phase, the only
//!   code that releases a whole-collection lock.
//!
//! Everything the pre-kernel version of this example re-implemented by hand
//! — first-touch registration, where the buffer lives and how it drains,
//! lock caching, stripe sweep order, doom dispatch, the counters — is gone:
//! the class (its buffer, `HistClass` and the two trait impls) is under 60
//! lines of code below, and the histogram's operations about 40.
//!
//! ```sh
//! cargo run --release --example custom_class
//! ```

use std::collections::HashMap;
use stm::hash::StripeSet;
use stm::{atomic, TVar, Txn};
use txcollections::{
    edge, op, ClassTables, ConflictGraph, GlobalStripe, KeyedClass, ObsMode, Overlap,
    SemanticClass, SemanticCore, UpdateEffect,
};

const BINS: usize = 16;

// txlint: conflict-graph
/// The histogram's operational analysis as data. `add` is blind (no
/// observation modes) and publishes a per-bin write plus a total change;
/// `count` observes one bin (conflicts with `add` only on the same bin);
/// `total` observes the whole histogram (conflicts with every `add`).
static HIST_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "histogram",
    ops: &[
        op(
            "add",
            &[],
            &[UpdateEffect::KeyWrite, UpdateEffect::SizeChange],
        ),
        op("count", &[ObsMode::Key], &[]),
        op("total", &[ObsMode::Size], &[]),
    ],
    edges: &[
        edge(
            "count",
            "add",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "total",
            "add",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
    ],
};

/// Per-transaction state (guideline 1): buffered deltas plus the bin locks
/// this transaction holds (so `release`/`apply` know the footprint).
#[derive(Default)]
struct HistLocal {
    deltas: HashMap<usize, u64>,
    bin_locks: StripeSet<usize>,
}

/// The variant half: the underlying bins and the semantic-lock tables.
struct HistClass {
    bins: Vec<TVar<u64>>,
    tables: ClassTables<usize>,
}

impl SemanticClass for HistClass {
    type Local = HistLocal;
    // No range locks: the key type is moot.
    type RangeKey = usize;

    fn name(&self) -> &'static str {
        "histogram"
    }

    /// Where the whole-collection locks and the counters live.
    fn global_stripe(&self) -> &GlobalStripe<usize> {
        self.tables.global_stripe()
    }

    /// Declaring the graph makes `SemanticCore::new` synthesize the lock
    /// modes and cross-check them against the dispatch matrix before the
    /// class can run (try removing an edge: construction panics).
    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&HIST_CONFLICT_GRAPH)
    }

    /// Commit handler body (guideline 5): apply the buffered deltas to the
    /// underlying bins in direct mode, dooming readers of each touched bin;
    /// then, in the global phase the kernel forces to run last, doom
    /// `total()` observers (size-lock holders). The sweep order — touched
    /// stripes ascending, global stripe last, own locks released last — is
    /// the kernel's, not ours.
    fn apply(&self, local: HistLocal, htx: &mut Txn) {
        let grew = local.deltas.values().any(|&d| d > 0);
        let global = self.tables.commit_sweep(
            htx.handle().id(),
            local.deltas.iter(),
            local.bin_locks.iter(),
            |&bin, &d, cx| {
                if d != 0 {
                    let cur = self.bins[bin].read(htx);
                    self.bins[bin].write(htx, cur + d);
                    cx.doom(UpdateEffect::KeyWrite, &bin);
                }
            },
        );
        global.finish(|g| {
            if grew {
                g.doom(UpdateEffect::SizeChange);
            }
        });
    }

    /// Abort handler body (guideline 4): writes were only buffered, so the
    /// compensation is pure release. The kernel hands over the buffer as
    /// the body last wrote it (closed frames' writes possibly rolled back);
    /// only the lock list matters here.
    fn release(&self, local: HistLocal, htx: &mut Txn) {
        self.tables
            .release_sweep(htx.handle().id(), local.bin_locks.iter());
    }
}

/// Bins are the keys: their locks live in the tables' key stripes, and the
/// transaction's held bins are both its lock cache and its release list.
impl KeyedClass for HistClass {
    type Key = usize;

    fn key_tables(&self) -> &ClassTables<usize> {
        &self.tables
    }

    fn held_keys(local: &mut HistLocal) -> &mut StripeSet<usize> {
        &mut local.bin_locks
    }
}

#[derive(Clone)]
struct TransactionalHistogram {
    core: SemanticCore<HistClass>,
}

impl TransactionalHistogram {
    fn new() -> Self {
        TransactionalHistogram {
            core: SemanticCore::new(HistClass {
                bins: (0..BINS).map(|_| TVar::new(0)).collect(),
                tables: ClassTables::new(4),
            }),
        }
    }

    /// Blind addition: buffered locally, commutes with every other add
    /// (guideline 3 — no semantic lock because nothing is read).
    fn add(&self, tx: &mut Txn, bin: usize, n: u64) {
        self.core.ensure_registered(tx);
        self.core
            .with_local(tx, |l| *l.deltas.entry(bin).or_insert(0) += n);
        // Registered only inside a closed frame, the one place a conflict
        // can roll back less than the whole attempt.
        self.core
            .local_undo(tx, move |l| *l.deltas.entry(bin).or_insert(0) -= n);
    }

    /// Read one bin: take the bin's key lock, then read open-nested
    /// (guideline 1/3), merging the local buffer.
    fn count(&self, tx: &mut Txn, bin: usize) -> u64 {
        self.core.ensure_registered(tx);
        self.core.take_key_lock(tx, &bin);
        let var = self.core.class().bins[bin].clone();
        let committed = tx.open(move |otx| var.read(otx));
        committed
            + self
                .core
                .with_local(tx, |l| l.deltas.get(&bin).copied().unwrap_or(0))
    }

    /// Read the total: size lock + open-nested sweep.
    fn total(&self, tx: &mut Txn) -> u64 {
        self.core.ensure_registered(tx);
        self.core.take_point_lock(tx, ObsMode::Size);
        let bins = self.core.class().bins.clone();
        let committed: u64 = tx.open(move |otx| bins.iter().map(|b| b.read(otx)).sum());
        committed + self.core.with_local(tx, |l| l.deltas.values().sum::<u64>())
    }
}

fn main() {
    let hist = TransactionalHistogram::new();
    let samples_per_thread = 5_000u64;
    let before = stm::global_stats();

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let hist = hist.clone();
            s.spawn(move || {
                let mut x = 0x9E3779B97F4A7C15u64 ^ t;
                for _ in 0..samples_per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let bin = (x % BINS as u64) as usize;
                    // Long transaction: several adds composed atomically.
                    atomic(|tx| {
                        hist.add(tx, bin, 1);
                        hist.add(tx, (bin + 1) % BINS, 1);
                    });
                }
            });
        }
    });
    let stats = stm::global_stats().diff(&before);

    let total = atomic(|tx| hist.total(tx));
    assert_eq!(total, 4 * samples_per_thread * 2, "histogram lost counts!");
    println!("histogram total = {total} (exact) across 4 threads");
    println!(
        "adds commute: {} commits, {} memory-conflict aborts, {} semantic dooms",
        stats.commits, stats.aborts_read_invalid, stats.aborts_doomed
    );
    let spread: Vec<u64> = (0..BINS).map(|b| atomic(|tx| hist.count(tx, b))).collect();
    println!("bin spread: {spread:?}");
    println!(
        "\nthe §5 recipe on the kernel: a declared conflict graph + two \
         handler bodies; lock synthesis, registration, sweep order and doom \
         dispatch come for free."
    );
}
