//! Spans for the traced round, recorded from outside the program: around
//! each `atomic`/`atomic_read` call (`txn`), around each invocation of the
//! transaction body (`attempt`), and around each collection call
//! (`op.<class>.<name>`). More are derived when the call returns: `begin`
//! (call entry to the first attempt), `retry` (end of an attempt to the
//! start of the next: the abort path and backoff) and `commit` (end of the
//! last attempt to the call's return). Spans inside the runtime (lane wait,
//! apply sweep, publish) need instrumentation in `stm` itself and are not
//! recorded here.

use crate::measure::Hist;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use stm::Txn;

/// Parent of a root span, and the id returned once a buffer is full.
pub(crate) const NONE: u32 = u32::MAX;

/// Traced transactions per thread and round, at most: a thread traces
/// every 16th transaction by sequence number, or a sparser stride when it
/// runs more than 16 times this many, so that its spans fit the buffer and
/// span files stay tens of MB.
const TRACED_PER_THREAD: u64 = 2048;

/// The sampling stride of a thread expected to run `txns` transactions.
pub(crate) fn stride(txns: u64) -> u64 {
    (txns / TRACED_PER_THREAD).max(16)
}

/// Spans one thread may hold; later spans are counted as dropped.
const CAPACITY: usize = 1 << 18;

pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) parent: u32,
    pub(crate) txn: u64,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One load thread's span buffer, preallocated so recording does not
/// allocate. Times are nanoseconds since the round's shared `base`.
pub(crate) struct Recorder {
    base: Instant,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
}

impl Recorder {
    pub(crate) fn new(base: Instant) -> Recorder {
        Recorder {
            base,
            spans: RefCell::new(Vec::with_capacity(CAPACITY)),
            dropped: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn push(&self, name: &'static str, parent: u32, txn: u64, start: u64, end: u64) -> u32 {
        let mut spans = self.spans.borrow_mut();
        if spans.len() == CAPACITY {
            self.dropped.set(self.dropped.get() + 1);
            return NONE;
        }
        spans.push(Span {
            name,
            parent,
            txn,
            start,
            end,
        });
        (spans.len() - 1) as u32
    }

    fn open(&self, name: &'static str, parent: u32, txn: u64) -> u32 {
        let t = self.now();
        self.push(name, parent, txn, t, t)
    }

    fn close(&self, id: u32) {
        if id != NONE {
            let t = self.now();
            self.spans.borrow_mut()[id as usize].end = t;
        }
    }

    /// Add the derived spans of the finished `txn` span `t`, whose attempts
    /// were all recorded after it: `begin`, a `retry` between each two
    /// attempts, and `commit`.
    fn derive_phases(&self, t: u32) {
        if t == NONE {
            return;
        }
        let (txn, start, end, recorded) = {
            let spans = self.spans.borrow();
            let root = &spans[t as usize];
            (root.txn, root.start, root.end, spans.len())
        };
        let (mut first, mut last) = (None, None);
        for i in t as usize + 1..recorded {
            let (a_start, a_end) = {
                let s = &self.spans.borrow()[i];
                if s.parent != t || s.name != "attempt" {
                    continue;
                }
                (s.start, s.end)
            };
            match last {
                None => first = Some(a_start),
                Some(prev_end) => {
                    self.push("retry", t, txn, prev_end, a_start);
                }
            }
            last = Some(a_end);
        }
        if let (Some(first), Some(last)) = (first, last) {
            self.push("begin", t, txn, start, first);
            self.push("commit", t, txn, last, end);
        }
    }

    pub(crate) fn into_parts(self) -> (Vec<Span>, u64) {
        (self.spans.into_inner(), self.dropped.get())
    }
}

/// Where a collection call made inside a transaction body records its
/// span: nowhere for an unsampled transaction.
#[derive(Clone, Copy)]
pub(crate) struct Probe<'a> {
    rec: Option<&'a Recorder>,
    parent: u32,
    txn: u64,
}

impl Probe<'_> {
    const OFF: Probe<'static> = Probe {
        rec: None,
        parent: NONE,
        txn: 0,
    };

    /// Run one collection call as span `name`.
    pub(crate) fn op<T>(self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.rec {
            None => f(),
            Some(r) => {
                let _span = OpenSpan::open(r, name, self.parent, self.txn);
                f()
            }
        }
    }
}

/// Closes its span when dropped, which also happens when a doomed or
/// invalidated attempt leaves the body by unwinding.
struct OpenSpan<'a> {
    rec: &'a Recorder,
    id: u32,
    txn: u64,
}

impl<'a> OpenSpan<'a> {
    fn open(rec: &'a Recorder, name: &'static str, parent: u32, txn: u64) -> OpenSpan<'a> {
        OpenSpan {
            rec,
            id: rec.open(name, parent, txn),
            txn,
        }
    }

    /// A probe whose spans are children of this one.
    fn probe(&self) -> Probe<'a> {
        Probe {
            rec: Some(self.rec),
            parent: self.id,
            txn: self.txn,
        }
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        self.rec.close(self.id);
    }
}

/// `stm::atomic`, traced when `rec` is given.
pub(crate) fn run_txn<T>(
    rec: Option<&Recorder>,
    txn: u64,
    mut body: impl FnMut(&mut Txn, Probe<'_>) -> T,
) -> T {
    let Some(r) = rec else {
        return stm::atomic(|tx| body(tx, Probe::OFF));
    };
    let t = r.open("txn", NONE, txn);
    let v = stm::atomic(|tx| {
        let attempt = OpenSpan::open(r, "attempt", t, txn);
        body(tx, attempt.probe())
    });
    r.close(t);
    r.derive_phases(t);
    v
}

/// `stm::atomic_read`, traced when `rec` is given.
pub(crate) fn run_read<T>(
    rec: Option<&Recorder>,
    txn: u64,
    mut body: impl FnMut(&mut Txn, Probe<'_>) -> T,
) -> T {
    let Some(r) = rec else {
        return stm::atomic_read(|tx| body(tx, Probe::OFF));
    };
    let t = r.open("txn", NONE, txn);
    let v = stm::atomic_read(|tx| {
        let attempt = OpenSpan::open(r, "attempt", t, txn);
        body(tx, attempt.probe())
    });
    r.close(t);
    r.derive_phases(t);
    v
}

/// What the per-layer metrics need from a traced round's spans.
#[derive(Default)]
pub(crate) struct SpanSummary {
    pub(crate) txns: u64,
    pub(crate) dropped: u64,
    /// Summed `txn` span time.
    pub(crate) txn_ns: u64,
    /// Summed time from a transaction's first attempt to its last: the
    /// attempts that aborted, plus the abort path and backoff after them.
    pub(crate) wasted_ns: u64,
    pub(crate) by_name: BTreeMap<&'static str, Hist>,
}

impl SpanSummary {
    pub(crate) fn add_thread(&mut self, spans: &[Span], dropped: u64) {
        self.dropped += dropped;
        let mut first_attempt: BTreeMap<u32, u64> = BTreeMap::new();
        let mut last_attempt: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            self.by_name.entry(s.name).or_default().record(s.dur());
            match s.name {
                "txn" => {
                    self.txns += 1;
                    self.txn_ns += s.dur();
                }
                "attempt" => {
                    first_attempt.entry(s.parent).or_insert(s.start);
                    last_attempt.insert(s.parent, s.start);
                }
                _ => {}
            }
            debug_assert!(s.parent == NONE || (s.parent as usize) < i);
        }
        for (t, first) in first_attempt {
            self.wasted_ns += last_attempt[&t] - first;
        }
    }

    pub(crate) fn p50_ns(&self, name: &str) -> f64 {
        self.quantile_ns(name, 0.5)
    }

    pub(crate) fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |h| h.quantile_ns(q) as f64)
    }
}

/// Write every thread's spans to `path` as one JSON array. A span's
/// `self_ns` is its duration minus its children's (children of one span
/// never overlap: they run one after another on its thread).
pub(crate) fn write_json(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[")?;
    let mut sep = "\n";
    for (thread, spans) in threads.iter().enumerate() {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let gid = |i: u32| ((thread as u64) << 32) | i as u64;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                gid(s.parent).to_string()
            };
            write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {parent}, \"txn\": {}, \"thread\": {thread}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                gid(i as u32),
                s.txn,
                s.name,
                s.start,
                s.end,
                s.dur().saturating_sub(child_ns[i]),
            )?;
            sep = ",\n";
        }
    }
    out.write_all(b"\n]\n")?;
    out.flush()
}
