//! The TXxxx rules, implemented over the token stream from [`crate::lexer`].
//!
//! The central abstraction is the *region*: the argument span of a call
//! that introduces transactional context. A token is "inside a transaction"
//! iff its index falls strictly inside some transaction region and outside
//! every handler region (handlers run under the handler lane after the
//! transaction's fate is decided, so the discipline is relaxed there by
//! design — that is where the collection classes themselves take locks and
//! mutate shared structures).

use crate::lexer::{lex, match_brackets, Tok, TokKind};
use crate::Finding;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Call names whose argument span is a transaction region. `atomic_read`
/// belongs here: its snapshot body re-runs on the validated path after a
/// chain-truncation fallback, so the irrevocability and context rules bind
/// exactly as they do under `atomic`.
const TXN_ENTRY_FNS: [&str; 4] = ["atomic", "atomic_read", "atomic_with", "speculate"];
/// Method names (after `.`) whose argument span is a nested-transaction
/// region.
const TXN_NEST_METHODS: [&str; 2] = ["closed", "open"];
/// Method names whose argument span is a handler region.
const HANDLER_METHODS: [&str; 5] = [
    "on_commit",
    "on_commit_top",
    "on_abort",
    "on_abort_top",
    "on_local_undo",
];
/// Handler methods that register commit-side effects (TX004 trigger).
const COMMIT_HANDLERS: [&str; 2] = ["on_commit", "on_commit_top"];
/// Handler methods that give the transaction an abort/undo path (TX004
/// pairing).
const ABORT_HANDLERS: [&str; 3] = ["on_abort", "on_abort_top", "on_local_undo"];

/// Output macros whose expansion performs irrevocable console I/O.
const IO_MACROS: [&str; 5] = ["print", "println", "eprint", "eprintln", "dbg"];
/// Type paths whose associated functions open files, sockets, or processes.
const IO_TYPES: [&str; 6] = [
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "Command",
];
/// Free functions performing irrevocable effects when called inside a
/// transaction.
const IO_FNS: [&str; 4] = ["stdin", "stdout", "stderr", "sleep"];

/// The `stm::trace` emission entry points. Their argument spans must stay
/// allocation-free: events are fixed-width word-packed records pushed from
/// commit/abort/lock hot paths, and class names are interned to [`Sym`]s
/// once at collection construction, never per event (TX009).
const TRACE_EMITTERS: [&str; 13] = [
    "txn_begin",
    "txn_commit",
    "txn_abort",
    "frame_retry",
    "open_commit",
    "open_retry",
    "lane_enter",
    "lane_exit",
    "var_lock_spin",
    "sem_lock_blocked",
    "sem_lock_acquired",
    "sem_lock_released",
    "doom_edge",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    /// `atomic(..)` / `atomic_with(..)` / `speculate(..)` — a top-level
    /// transaction entry point.
    Entry,
    /// `.closed(..)` / `.open(..)` — a nested transaction.
    Nested,
}

#[derive(Debug)]
struct Region {
    /// Token index of the opening `(`.
    open: usize,
    /// Token index of the matching `)`.
    close: usize,
    kind: RegionKind,
    /// Token index of the call name (for TX005 reporting).
    name_idx: usize,
}

struct FileModel<'a> {
    toks: &'a [Tok],
    txn_regions: Vec<Region>,
    handler_regions: Vec<(usize, usize)>,
    /// Argument spans of `spawn(..)` calls: the closure runs on a fresh
    /// thread, outside any transaction lexically enclosing the call.
    escape_regions: Vec<(usize, usize)>,
    /// Body spans of `fn`s that take a `Txn` parameter — transactional
    /// context for TX002 purposes.
    txn_fn_bodies: Vec<(usize, usize)>,
    /// Names of locals and fields bound to `TVar::new(..)` /
    /// `TCell::new(..)` or typed `: TVar<..>` / `: TCell<..>`.
    tvar_locals: HashSet<String>,
}

impl FileModel<'_> {
    fn in_txn(&self, i: usize) -> bool {
        self.txn_regions.iter().any(|r| {
            r.open < i
                && i < r.close
                // A spawn(..) opened inside this region and containing the
                // token moves it to another thread: not this transaction.
                && !self
                    .escape_regions
                    .iter()
                    .any(|&(eo, ec)| r.open < eo && eo < i && i < ec)
        })
    }

    fn in_handler(&self, i: usize) -> bool {
        self.handler_regions.iter().any(|&(o, c)| o < i && i < c)
    }

    fn in_txn_fn(&self, i: usize) -> bool {
        self.txn_fn_bodies.iter().any(|&(o, c)| o < i && i < c)
    }

    /// Inside a transaction region and not inside a handler region: the
    /// span where the irrevocability discipline applies.
    fn in_strict_txn(&self, i: usize) -> bool {
        self.in_txn(i) && !self.in_handler(i)
    }
}

fn build_model<'a>(toks: &'a [Tok], brackets: &HashMap<usize, usize>) -> FileModel<'a> {
    let mut txn_regions = Vec::new();
    let mut handler_regions = Vec::new();
    let mut escape_regions = Vec::new();
    let mut txn_fn_bodies = Vec::new();
    let mut tvar_locals = HashSet::new();

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is_open = toks.get(i + 1).and_then(Tok::punct) == Some('(');
        let prev_punct = i.checked_sub(1).and_then(|p| toks[p].punct());
        let prev_is_fn_kw = i >= 1 && toks[i - 1].is_ident("fn");

        // Transaction entry calls: `atomic(..)` but not `fn atomic(..)`.
        if TXN_ENTRY_FNS.contains(&t.text.as_str()) && next_is_open && !prev_is_fn_kw {
            if let Some(&close) = brackets.get(&(i + 1)) {
                txn_regions.push(Region {
                    open: i + 1,
                    close,
                    kind: RegionKind::Entry,
                    name_idx: i,
                });
            }
        }
        // `thread::spawn(..)` / `scope.spawn(..)`: the closure runs on a
        // different thread.
        if t.is_ident("spawn") && next_is_open {
            if let Some(&close) = brackets.get(&(i + 1)) {
                escape_regions.push((i + 1, close));
            }
        }

        // Nested transactions and handler registrations are method calls.
        if prev_punct == Some('.') && next_is_open {
            if let Some(&close) = brackets.get(&(i + 1)) {
                if TXN_NEST_METHODS.contains(&t.text.as_str()) {
                    txn_regions.push(Region {
                        open: i + 1,
                        close,
                        kind: RegionKind::Nested,
                        name_idx: i,
                    });
                } else if HANDLER_METHODS.contains(&t.text.as_str()) {
                    handler_regions.push((i + 1, close));
                }
            }
        }

        // `fn name(... Txn ...) { body }` — body is transactional context.
        if t.is_ident("fn") {
            if let Some(params_open) =
                (i + 1..toks.len().min(i + 4)).find(|&j| toks[j].punct() == Some('('))
            {
                if let Some(&params_close) = brackets.get(&params_open) {
                    let takes_txn = toks[params_open..=params_close]
                        .iter()
                        .any(|t| t.is_ident("Txn"));
                    if takes_txn {
                        if let Some(body_open) = (params_close + 1..toks.len())
                            .find(|&j| matches!(toks[j].punct(), Some('{') | Some(';')))
                        {
                            if toks[body_open].punct() == Some('{') {
                                if let Some(&body_close) = brackets.get(&body_open) {
                                    txn_fn_bodies.push((body_open, body_close));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Var bindings: `let x = TVar::new(..)`, `x: TVar<..>`, and the
        // same for `TCell`, whose `read`/`write` also take a `Txn`.
        if t.is_ident("TVar") || t.is_ident("TCell") {
            // `name = TVar :: new` — name is 2 tokens back past `=`.
            if i >= 2 && toks[i - 1].punct() == Some('=') && toks[i - 2].kind == TokKind::Ident {
                tvar_locals.insert(toks[i - 2].text.clone());
            }
            // `name : TVar <` — struct fields and typed lets alike.
            if i >= 2 && toks[i - 1].punct() == Some(':') && toks[i - 2].kind == TokKind::Ident {
                tvar_locals.insert(toks[i - 2].text.clone());
            }
        }
    }

    FileModel {
        toks,
        txn_regions,
        handler_regions,
        escape_regions,
        txn_fn_bodies,
        tvar_locals,
    }
}

fn finding(
    path: &Path,
    t: &Tok,
    code: &'static str,
    message: String,
    help: &'static str,
) -> Finding {
    Finding {
        file: path.to_path_buf(),
        line: t.line,
        col: t.col,
        code,
        message,
        help,
    }
}

/// Run all TXxxx rules over one file's source. Allowlist annotations are
/// NOT applied here — see [`crate::apply_allowlist`].
pub fn analyze_source(path: &Path, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let brackets = match_brackets(&toks);
    let m = build_model(&toks, &brackets);
    let mut out = Vec::new();

    tx001_irrevocable_effects(path, &m, &mut out);
    tx002_tvar_context(path, &m, &mut out);
    tx003_swallowed_abort(path, &m, &mut out);
    tx004_unpaired_commit_handler(path, &m, &mut out);
    tx005_nested_atomic(path, &m, &mut out);
    tx006_commit_internals_visibility(path, src, &m, &mut out);
    tx007_raw_stripe_access(path, src, &m, &mut out);
    tx008_direct_handler_registration(path, src, &m, &mut out);
    tx009_alloc_in_trace_emission(path, &m, &mut out);
    tx010_conflict_graph(path, src, &m, &mut out);
    tx011_unlogged_eager_mutation(path, src, &m, &mut out);
    tx012_read_only_open(path, src, &m, &mut out);
    tx014_alloc_in_metrics_emission(path, src, &m, &mut out);

    out.sort_by_key(|f| (f.line, f.col));
    out
}

fn tx001_irrevocable_effects(path: &Path, m: &FileModel, out: &mut Vec<Finding>) {
    let toks = m.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !m.in_strict_txn(i) {
            continue;
        }
        let next = toks.get(i + 1);
        let next2 = toks.get(i + 2);
        let prev_punct = i.checked_sub(1).and_then(|p| toks[p].punct());
        let name = t.text.as_str();

        // Console output macros: `println!(..)`.
        if IO_MACROS.contains(&name) && next.and_then(Tok::punct) == Some('!') {
            out.push(finding(
                path,
                t,
                "TX001",
                format!("irrevocable console I/O `{name}!` inside a transaction"),
                "buffer output and emit it from an on_commit handler, or move it outside atomic()",
            ));
            continue;
        }
        // File/socket/process constructors: `File::open(..)` etc.
        let is_path_head =
            next.and_then(Tok::punct) == Some(':') && next2.and_then(Tok::punct) == Some(':');
        if IO_TYPES.contains(&name) && is_path_head {
            out.push(finding(
                path,
                t,
                "TX001",
                format!("irrevocable side effect: `{name}::..` inside a transaction"),
                "perform file/network/process effects in an on_commit handler",
            ));
            continue;
        }
        // `fs::..` module path (std::fs::write and friends).
        if name == "fs" && is_path_head {
            out.push(finding(
                path,
                t,
                "TX001",
                "irrevocable filesystem effect `fs::..` inside a transaction".to_string(),
                "perform file effects in an on_commit handler",
            ));
            continue;
        }
        // Free functions: stdin()/stdout()/stderr()/sleep(..).
        if IO_FNS.contains(&name)
            && next.and_then(Tok::punct) == Some('(')
            && prev_punct != Some('.')
        {
            out.push(finding(
                path,
                t,
                "TX001",
                format!("irrevocable effect `{name}(..)` inside a transaction"),
                "transactions may re-execute after a doom; move this outside atomic() or into a handler",
            ));
            continue;
        }
        // Blocking lock acquisition: `.lock()` / `.try_lock()` with no
        // arguments (TVar accessors always take a txn argument, so the
        // empty argument list is the mutex signature).
        if (name == "lock" || name == "try_lock")
            && prev_punct == Some('.')
            && next.and_then(Tok::punct) == Some('(')
            && next2.and_then(Tok::punct) == Some(')')
        {
            out.push(finding(
                path,
                t,
                "TX001",
                format!("lock acquisition `.{name}()` inside a transaction"),
                "a doomed transaction unwinds without running drop-order guarantees you may expect; take locks in commit/abort handlers (they run under the handler lane)",
            ));
            continue;
        }
        // Channel sends: `.send(..)` — the receiver observes the value even
        // if this transaction later aborts.
        if name == "send" && prev_punct == Some('.') && next.and_then(Tok::punct) == Some('(') {
            out.push(finding(
                path,
                t,
                "TX001",
                "channel `.send(..)` inside a transaction leaks uncommitted state".to_string(),
                "buffer the message and send from an on_commit handler (or use TransactionalQueue::put)",
            ));
        }
    }
}

fn tx002_tvar_context(path: &Path, m: &FileModel, out: &mut Vec<Finding>) {
    let toks = m.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_punct = i.checked_sub(1).and_then(|p| toks[p].punct());
        let next_is_open = toks.get(i + 1).and_then(Tok::punct) == Some('(');

        // `.read_committed(..)` inside a transaction bypasses isolation:
        // the transaction acts on a value its read set will never validate.
        if t.is_ident("read_committed")
            && prev_punct == Some('.')
            && next_is_open
            && m.in_strict_txn(i)
        {
            out.push(finding(
                path,
                t,
                "TX002",
                "`read_committed` inside a transaction reads around isolation".to_string(),
                "use TVar::read(tx) inside transactions; read_committed is for non-transactional observers only",
            ));
            continue;
        }

        // `tvar_local.read(..)` / `.write(..)` outside any transactional
        // context: the Txn handle must have escaped its atomic() scope.
        if (t.is_ident("read") || t.is_ident("write")) && prev_punct == Some('.') && next_is_open {
            let recv_is_tvar = i
                .checked_sub(2)
                .map(|p| toks[p].kind == TokKind::Ident && m.tvar_locals.contains(&toks[p].text))
                .unwrap_or(false);
            if recv_is_tvar && !m.in_txn(i) && !m.in_handler(i) && !m.in_txn_fn(i) {
                out.push(finding(
                    path,
                    t,
                    "TX002",
                    format!(
                        "TVar/TCell `.{}(..)` outside any transaction context",
                        t.text
                    ),
                    "TVar accesses must run inside atomic()/speculate() or a fn taking &mut Txn; a Txn handle used here has escaped its transaction",
                ));
            }
        }
    }
}

fn tx003_swallowed_abort(path: &Path, m: &FileModel, out: &mut Vec<Finding>) {
    for (i, t) in m.toks.iter().enumerate() {
        if t.is_ident("catch_unwind") && m.in_strict_txn(i) {
            out.push(finding(
                path,
                t,
                "TX003",
                "`catch_unwind` inside a transaction swallows doom/retry control flow".to_string(),
                "this runtime propagates program-directed aborts by unwinding; catching them turns a doomed transaction into a silently committed one",
            ));
        }
    }
}

fn tx004_unpaired_commit_handler(path: &Path, m: &FileModel, out: &mut Vec<Finding>) {
    for region in &m.txn_regions {
        let mut first_commit: Option<&Tok> = None;
        let mut commit_name = "";
        let mut has_abort = false;
        for i in region.open + 1..region.close {
            let t = &m.toks[i];
            if t.kind != TokKind::Ident
                || m.toks[i - 1].punct() != Some('.')
                || m.toks.get(i + 1).and_then(Tok::punct) != Some('(')
            {
                continue;
            }
            // Only consider handlers registered directly in this region,
            // not in a nested transaction region (which is checked itself).
            let in_deeper = m.txn_regions.iter().any(|r| {
                r.open > region.open && r.close < region.close && r.open < i && i < r.close
            });
            if in_deeper {
                continue;
            }
            if COMMIT_HANDLERS.contains(&t.text.as_str()) && first_commit.is_none() {
                first_commit = Some(t);
                commit_name = match t.text.as_str() {
                    "on_commit" => "on_commit",
                    _ => "on_commit_top",
                };
            }
            if ABORT_HANDLERS.contains(&t.text.as_str()) {
                has_abort = true;
            }
        }
        if let Some(t) = first_commit {
            if !has_abort {
                out.push(finding(
                    path,
                    t,
                    "TX004",
                    format!(
                        "`{commit_name}` registered with no paired abort handler in this transaction"
                    ),
                    "open-nested effects need compensation: register on_abort/on_abort_top/on_local_undo alongside every commit handler",
                ));
            }
        }
    }
}

fn tx005_nested_atomic(path: &Path, m: &FileModel, out: &mut Vec<Finding>) {
    for region in &m.txn_regions {
        if region.kind != RegionKind::Entry {
            continue;
        }
        let i = region.name_idx;
        if m.in_txn(i) && !m.in_handler(i) {
            let name = &m.toks[i].text;
            out.push(finding(
                path,
                &m.toks[i],
                "TX005",
                format!("nested top-level `{name}(..)` inside a transaction"),
                "for nesting use tx.closed(..) (subsumption/partial rollback) or tx.open(..) (open nesting); a nested atomic() would deadlock on the handler lane or flatten semantics",
            ));
        }
    }
}

/// Marker comment (assembled at runtime so txlint's own sources do not
/// carry the contiguous marker text) declaring a file to be commit-path
/// internals: everything in it must stay crate-private.
fn commit_internals_marker() -> String {
    format!("txlint: {}", "commit-internals")
}

fn tx006_commit_internals_visibility(
    path: &Path,
    src: &str,
    m: &FileModel,
    out: &mut Vec<Finding>,
) {
    if !src.contains(&commit_internals_marker()) {
        return;
    }
    let toks = m.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        // `pub(crate)` is the only sanctioned visibility; bare `pub`,
        // `pub(super)`, `pub(in ..)` all leak commit internals.
        let crate_restricted = toks.get(i + 1).and_then(Tok::punct) == Some('(')
            && toks.get(i + 2).is_some_and(|t| t.is_ident("crate"))
            && toks.get(i + 3).and_then(Tok::punct) == Some(')');
        if !crate_restricted {
            out.push(finding(
                path,
                t,
                "TX006",
                "non-`pub(crate)` visibility in a commit-internals file".to_string(),
                "the sharded commit protocol (clock, per-var locks, handler lane) is an internal invariant surface; keep it pub(crate) and export behavior through Txn/TVar",
            ));
        }
    }
}

/// Marker comment (assembled at runtime like the commit-internals one)
/// declaring a file to be a semantic-lock-table *consumer*: it may only
/// acquire stripes through the ordered-acquisition helpers.
fn semantic_tables_marker() -> String {
    format!("txlint: {}", "semantic-tables")
}

fn tx007_raw_stripe_access(path: &Path, src: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !src.contains(&semantic_tables_marker()) {
        return;
    }
    let toks = m.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("stripes") {
            continue;
        }
        // `stripes[i]` — raw indexing into the stripe array. Everything
        // downstream of it (`.lock()`, `.try_lock()`, passing the mutex
        // around) bypasses the stripes-ascending acquisition order, so the
        // indexing itself is the violation.
        if toks.get(i + 1).and_then(Tok::punct) == Some('[') {
            out.push(finding(
                path,
                t,
                "TX007",
                "raw stripe indexing `stripes[..]` in a semantic-tables file".to_string(),
                "acquire stripes only through the ordered helpers (with_stripe_for / for_stripes_ascending / with_global); raw indexing bypasses the stripes-ascending lock order the doom-protocol proof depends on",
            ));
            continue;
        }
        // `stripes.get(..)` / `stripes.get_mut(..)` — indexing in disguise.
        if toks.get(i + 1).and_then(Tok::punct) == Some('.')
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_ident("get") || t.is_ident("get_mut"))
            && toks.get(i + 3).and_then(Tok::punct) == Some('(')
        {
            out.push(finding(
                path,
                &toks[i + 2],
                "TX007",
                format!(
                    "raw stripe access `stripes.{}(..)` in a semantic-tables file",
                    toks[i + 2].text
                ),
                "acquire stripes only through the ordered helpers (with_stripe_for / for_stripes_ascending / with_global); raw indexing bypasses the stripes-ascending lock order the doom-protocol proof depends on",
            ));
        }
    }
}

/// Marker comment (assembled at runtime like the others) declaring a file
/// to be *the* semantic-class kernel — the one semantic-tables file allowed
/// to register top-level commit/abort handlers directly.
fn semantic_kernel_marker() -> String {
    format!("txlint: {}", "semantic-kernel")
}

fn tx008_direct_handler_registration(
    path: &Path,
    src: &str,
    m: &FileModel,
    out: &mut Vec<Finding>,
) {
    // Scope: semantic-tables files (collection classes). The kernel file
    // carries the semantic-kernel marker too and is the sanctioned home of
    // the registration protocol.
    if !src.contains(&semantic_tables_marker()) || src.contains(&semantic_kernel_marker()) {
        return;
    }
    let toks = m.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if (t.is_ident("on_commit_top") || t.is_ident("on_abort_top") || t.is_ident("enlist"))
            && i.checked_sub(1).and_then(|p| toks[p].punct()) == Some('.')
            && toks.get(i + 1).and_then(Tok::punct) == Some('(')
        {
            out.push(finding(
                path,
                t,
                "TX008",
                format!(
                    "direct `.{}(..)` registration in a semantic-tables file",
                    t.text
                ),
                "collection classes must register through SemanticCore::ensure_registered, which enlists the instance's one participant (its buffer and its commit/abort handler pair) once per transaction; only the kernel file (semantic-kernel marker) calls enlist or on_commit_top/on_abort_top directly",
            ));
        }
    }
}

fn tx009_alloc_in_trace_emission(path: &Path, m: &FileModel, out: &mut Vec<Finding>) {
    let toks = m.toks;
    let brackets = match_brackets(toks);
    // Argument spans of trace-emitter *calls* (their `fn` declarations in
    // trace.rs are not call sites).
    let mut spans: Vec<(usize, usize, &str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !TRACE_EMITTERS.contains(&t.text.as_str())
            || (i >= 1 && toks[i - 1].is_ident("fn"))
            || toks.get(i + 1).and_then(Tok::punct) != Some('(')
        {
            continue;
        }
        if let Some(&close) = brackets.get(&(i + 1)) {
            spans.push((i + 1, close, t.text.as_str()));
        }
    }
    if spans.is_empty() {
        return;
    }
    const HELP: &str = "trace events are fixed-width word-packed records pushed from hot paths; pass integers and pre-interned Sym values (intern the class name once at collection construction, not per event)";
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(&(_, _, emitter)) = spans.iter().find(|&&(o, c, _)| o < i && i < c) else {
            continue;
        };
        let prev_punct = i.checked_sub(1).and_then(|p| toks[p].punct());
        let next_punct = toks.get(i + 1).and_then(Tok::punct);
        let next2_punct = toks.get(i + 2).and_then(Tok::punct);
        let name = t.text.as_str();

        // `format!(..)` allocates a String per emission.
        if name == "format" && next_punct == Some('!') {
            out.push(finding(
                path,
                t,
                "TX009",
                format!("allocating `format!` in `{emitter}(..)` trace emission"),
                HELP,
            ));
            continue;
        }
        // `String::from(..)` / `String::new()` and friends.
        if name == "String" && next_punct == Some(':') && next2_punct == Some(':') {
            out.push(finding(
                path,
                t,
                "TX009",
                format!("`String::..` construction in `{emitter}(..)` trace emission"),
                HELP,
            ));
            continue;
        }
        // `.to_string()` / `.to_owned()` on a payload expression.
        if (name == "to_string" || name == "to_owned")
            && prev_punct == Some('.')
            && next_punct == Some('(')
        {
            out.push(finding(
                path,
                t,
                "TX009",
                format!("allocating `.{name}()` in `{emitter}(..)` trace emission"),
                HELP,
            ));
            continue;
        }
        // `intern(..)` per event: interning takes the global symbol-table
        // mutex and is meant to run once per class, at construction.
        if name == "intern" && next_punct == Some('(') {
            out.push(finding(
                path,
                t,
                "TX009",
                format!("per-event `intern(..)` in `{emitter}(..)` trace emission"),
                HELP,
            ));
        }
    }
}

/// The `stm::metrics` emission functions whose argument spans must stay
/// allocation-free (TX014, the counter-store mirror of TX009). Bare
/// call names, matched with the same call-shape test as [`TRACE_EMITTERS`].
const METRICS_EMITTERS: [&str; 11] = [
    "tally",
    "tally_n",
    "committed",
    "snapshot_finished",
    "abort_counted",
    "doom_landed",
    "stripe_blocked",
    "cache_hit",
    "pin_entered",
    "hist_elapsed",
    "hist_record_ns",
];

/// Marker comment (assembled at runtime so this file never carries the
/// contiguous text) declaring a file to contain metrics emission sites
/// whose argument spans must not allocate or format.
fn metrics_marker() -> String {
    format!("txlint: {}", "metrics")
}

/// TX014: no allocation or formatting inside metrics-emitter argument
/// spans, in files carrying the metrics marker. The metrics layer promises
/// one relaxed load per site when disabled and zero allocation when
/// enabled; a `format!`/`String::..`/`.to_string()`/`intern(..)` inside an
/// emitter call defeats that on every emission. Mirror of TX009, gated by
/// the marker because the emitter names are ordinary words that would
/// false-positive in unrelated files.
fn tx014_alloc_in_metrics_emission(path: &Path, src: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !src.contains(&metrics_marker()) {
        return;
    }
    let toks = m.toks;
    let brackets = match_brackets(toks);
    // Argument spans of metrics-emitter *calls* (their `fn` declarations in
    // metrics.rs are not call sites).
    let mut spans: Vec<(usize, usize, &str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !METRICS_EMITTERS.contains(&t.text.as_str())
            || (i >= 1 && toks[i - 1].is_ident("fn"))
            || toks.get(i + 1).and_then(Tok::punct) != Some('(')
        {
            continue;
        }
        if let Some(&close) = brackets.get(&(i + 1)) {
            spans.push((i + 1, close, t.text.as_str()));
        }
    }
    if spans.is_empty() {
        return;
    }
    const HELP: &str = "metrics counters are fixed-key slab increments on hot paths; pass integers and pre-interned Sym values (intern the class name once at collection construction, not per emission)";
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(&(_, _, emitter)) = spans.iter().find(|&&(o, c, _)| o < i && i < c) else {
            continue;
        };
        let prev_punct = i.checked_sub(1).and_then(|p| toks[p].punct());
        let next_punct = toks.get(i + 1).and_then(Tok::punct);
        let next2_punct = toks.get(i + 2).and_then(Tok::punct);
        let name = t.text.as_str();

        // `format!(..)` allocates a String per emission.
        if name == "format" && next_punct == Some('!') {
            out.push(finding(
                path,
                t,
                "TX014",
                format!("allocating `format!` in `{emitter}(..)` metrics emission"),
                HELP,
            ));
            continue;
        }
        // `String::from(..)` / `String::new()` and friends.
        if name == "String" && next_punct == Some(':') && next2_punct == Some(':') {
            out.push(finding(
                path,
                t,
                "TX014",
                format!("`String::..` construction in `{emitter}(..)` metrics emission"),
                HELP,
            ));
            continue;
        }
        // `.to_string()` / `.to_owned()` on a payload expression.
        if (name == "to_string" || name == "to_owned")
            && prev_punct == Some('.')
            && next_punct == Some('(')
        {
            out.push(finding(
                path,
                t,
                "TX014",
                format!("allocating `.{name}()` in `{emitter}(..)` metrics emission"),
                HELP,
            ));
            continue;
        }
        // `intern(..)` per emission: interning takes the global symbol-table
        // mutex and is meant to run once per class, at construction.
        if name == "intern" && next_punct == Some('(') {
            out.push(finding(
                path,
                t,
                "TX014",
                format!("per-emission `intern(..)` in `{emitter}(..)` metrics emission"),
                HELP,
            ));
        }
    }
}

/// Marker comment (assembled at runtime like the others) declaring a file
/// to contain `ConflictGraph` declarations that must be well-formed.
fn conflict_graph_marker() -> String {
    format!("txlint: {}", "conflict-graph")
}

/// One `op("name", &[modes..], &[effects..])` declaration, recovered
/// lexically. Modes/effects are kept as the enum variant names.
struct CgOp {
    name: String,
    observes: Vec<String>,
    effects: Vec<String>,
    /// Token index of the `op` call name, for reporting.
    tok_idx: usize,
}

/// One `edge("observer", "updater", ObsMode::M, UpdateEffect::E,
/// Overlap::W)` declaration, recovered lexically.
struct CgEdge {
    observer: String,
    updater: String,
    obs: String,
    effect: String,
    when: String,
    tok_idx: usize,
}

/// Recover the contents of a string literal from the raw source: the lexer
/// replaces literal text with a placeholder, but records the token's exact
/// 1-based (line, col), so the original can be sliced back out.
fn literal_str(lines: &[&str], t: &Tok) -> Option<String> {
    let line = lines.get(t.line as usize - 1)?;
    let bytes = line.as_bytes();
    let start = t.col as usize - 1;
    if bytes.get(start) != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(out),
            b'\\' => {
                out.push(*bytes.get(i + 1)? as char);
                i += 2;
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    None
}

/// Collect `Enum::Variant` qualified idents for `enum_name` in the token
/// span `(open, close)`.
fn qualified_variants(toks: &[Tok], open: usize, close: usize, enum_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for i in open + 1..close {
        if toks[i].is_ident(enum_name)
            && toks.get(i + 1).and_then(Tok::punct) == Some(':')
            && toks.get(i + 2).and_then(Tok::punct) == Some(':')
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
        {
            out.push(toks[i + 3].text.clone());
        }
    }
    out
}

/// Whether an observation mode (by variant name) is keyed — i.e. names a
/// specific key or key range, so overlap can gate its conflicts.
fn cg_keyed(mode: &str) -> bool {
    mode == "Key" || mode == "Range"
}

/// TX010: lexical well-formedness of `ConflictGraph { .. }` declarations in
/// files carrying the conflict-graph marker. Mirrors the semantic
/// `validate()` in the core crate — referential integrity, commutativity
/// closure, symmetry, reflexivity — so an ill-formed declaration is a lint
/// error before anything runs.
fn tx010_conflict_graph(path: &Path, src: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !src.contains(&conflict_graph_marker()) {
        return;
    }
    let toks = m.toks;
    let brackets = match_brackets(toks);
    let lines: Vec<&str> = src.lines().collect();

    for (gi, gt) in toks.iter().enumerate() {
        // `ConflictGraph {` is an initializer; `ConflictGraph<'static>` /
        // `ConflictGraph<'a>` occurrences are type ascriptions — skip them.
        if !gt.is_ident("ConflictGraph") || toks.get(gi + 1).and_then(Tok::punct) != Some('{') {
            continue;
        }
        let Some(&gclose) = brackets.get(&(gi + 1)) else {
            continue;
        };

        // Recover the op and edge declarations in this initializer.
        let mut ops: Vec<CgOp> = Vec::new();
        let mut edges: Vec<CgEdge> = Vec::new();
        let mut i = gi + 2;
        while i < gclose {
            let t = &toks[i];
            let call_open = i + 1;
            if t.kind == TokKind::Ident && toks.get(call_open).and_then(Tok::punct) == Some('(') {
                if let Some(&call_close) = brackets.get(&call_open) {
                    let lits: Vec<&Tok> = toks[call_open + 1..call_close]
                        .iter()
                        .filter(|t| t.kind == TokKind::Literal)
                        .collect();
                    if t.is_ident("op") {
                        if let Some(name) = lits.first().and_then(|l| literal_str(&lines, l)) {
                            ops.push(CgOp {
                                name,
                                observes: qualified_variants(
                                    toks, call_open, call_close, "ObsMode",
                                ),
                                effects: qualified_variants(
                                    toks,
                                    call_open,
                                    call_close,
                                    "UpdateEffect",
                                ),
                                tok_idx: i,
                            });
                        }
                        i = call_close + 1;
                        continue;
                    }
                    if t.is_ident("edge") && lits.len() >= 2 {
                        let observer = literal_str(&lines, lits[0]);
                        let updater = literal_str(&lines, lits[1]);
                        let obs = qualified_variants(toks, call_open, call_close, "ObsMode");
                        let effect =
                            qualified_variants(toks, call_open, call_close, "UpdateEffect");
                        let when = qualified_variants(toks, call_open, call_close, "Overlap");
                        if let (
                            Some(observer),
                            Some(updater),
                            Some(obs),
                            Some(effect),
                            Some(when),
                        ) = (
                            observer,
                            updater,
                            obs.first().cloned(),
                            effect.first().cloned(),
                            when.first().cloned(),
                        ) {
                            edges.push(CgEdge {
                                observer,
                                updater,
                                obs,
                                effect,
                                when,
                                tok_idx: i,
                            });
                        }
                        i = call_close + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }

        cg_check(path, toks, &ops, &edges, gi, out);
    }
}

/// The well-formedness rules, applied to one recovered graph. Kept in the
/// same order as the semantic validator so the two stay diffable.
fn cg_check(
    path: &Path,
    toks: &[Tok],
    ops: &[CgOp],
    edges: &[CgEdge],
    graph_tok: usize,
    out: &mut Vec<Finding>,
) {
    const HELP: &str = "conflict-graph declarations must satisfy the same rules synthesize() enforces at core construction: edges reference declared ops/modes/effects, overlap-gating only on keyed modes with KeyWrite, the compatibility relation is symmetric, and mutating observers carry their reflexive self-edges";
    let op_by_name = |name: &str| ops.iter().find(|o| o.name == name);
    let has_edge = |observer: &str, updater: &str, obs: &str, effect: &str| {
        edges.iter().any(|e| {
            e.observer == observer && e.updater == updater && e.obs == obs && e.effect == effect
        })
    };

    // Duplicate op names make every by-name reference ambiguous.
    for (i, o) in ops.iter().enumerate() {
        if ops[..i].iter().any(|p| p.name == o.name) {
            out.push(finding(
                path,
                &toks[o.tok_idx],
                "TX010",
                format!("duplicate op declaration `{}` in conflict graph", o.name),
                HELP,
            ));
        }
    }

    for e in edges {
        let t = &toks[e.tok_idx];
        // Referential integrity: both endpoints declared, and the edge's
        // cell is one the endpoints actually declare.
        let obs_op = op_by_name(&e.observer);
        let upd_op = op_by_name(&e.updater);
        if obs_op.is_none() {
            out.push(finding(
                path,
                t,
                "TX010",
                format!("edge references undeclared observer `{}`", e.observer),
                HELP,
            ));
        }
        if upd_op.is_none() {
            out.push(finding(
                path,
                t,
                "TX010",
                format!("edge references undeclared updater `{}`", e.updater),
                HELP,
            ));
        }
        if let Some(o) = obs_op {
            if !o.observes.contains(&e.obs) {
                out.push(finding(
                    path,
                    t,
                    "TX010",
                    format!(
                        "edge observer `{}` does not declare mode {}",
                        e.observer, e.obs
                    ),
                    HELP,
                ));
            }
        }
        if let Some(u) = upd_op {
            if !u.effects.contains(&e.effect) {
                out.push(finding(
                    path,
                    t,
                    "TX010",
                    format!(
                        "edge updater `{}` does not declare effect {}",
                        e.updater, e.effect
                    ),
                    HELP,
                ));
            }
        }

        // Commutativity closure: overlap can only gate conflicts on keyed
        // modes hit by key writes; whole-collection modes conflict always.
        match e.when.as_str() {
            "OnOverlap" if !cg_keyed(&e.obs) || e.effect != "KeyWrite" => {
                out.push(finding(
                    path,
                    t,
                    "TX010",
                    format!(
                        "edge ({}, {}) on cell ({}, {}): overlap cannot gate the conflict (use Always)",
                        e.observer, e.updater, e.obs, e.effect
                    ),
                    HELP,
                ));
            }
            "Always" if cg_keyed(&e.obs) => {
                out.push(finding(
                    path,
                    t,
                    "TX010",
                    format!(
                        "edge ({}, {}) on keyed cell ({}, {}): Always is ill-formed (use OnOverlap)",
                        e.observer, e.updater, e.obs, e.effect
                    ),
                    HELP,
                ));
            }
            _ => {}
        }

        // Symmetry: if the roles also hold in reverse (the observer itself
        // publishes the effect and the updater itself observes the mode),
        // the conflict relation must declare the mirrored edge too.
        if let (Some(o), Some(u)) = (obs_op, upd_op) {
            if o.effects.contains(&e.effect)
                && u.observes.contains(&e.obs)
                && !has_edge(&e.updater, &e.observer, &e.obs, &e.effect)
            {
                out.push(finding(
                    path,
                    t,
                    "TX010",
                    format!(
                        "asymmetric compatibility: edge ({}, {}) on cell ({}, {}) has no mirror ({}, {})",
                        e.observer, e.updater, e.obs, e.effect, e.updater, e.observer
                    ),
                    HELP,
                ));
            }
        }
    }

    // Reflexivity: an op that both observes a mode and publishes an effect
    // the graph declares conflicting must conflict with itself on that cell
    // (two instances of the op race exactly like any observer/updater pair).
    for o in ops {
        for mode in &o.observes {
            for eff in &o.effects {
                let cell_declared = edges.iter().any(|e| e.obs == *mode && e.effect == *eff);
                if cell_declared && !has_edge(&o.name, &o.name, mode, eff) {
                    out.push(finding(
                        path,
                        &toks[o.tok_idx],
                        "TX010",
                        format!(
                            "op `{}` observes {} and publishes {} but declares no reflexive self-edge on that cell",
                            o.name, mode, eff
                        ),
                        HELP,
                    ));
                }
            }
        }
    }

    // An initializer with no ops at all is a broken recovery or an empty
    // graph — either way the marker promised a checkable declaration.
    if ops.is_empty() {
        out.push(finding(
            path,
            &toks[graph_tok],
            "TX010",
            "ConflictGraph initializer declares no ops".to_string(),
            HELP,
        ));
    }
}

/// Marker comment (assembled at runtime like the others) declaring a file
/// to mutate a boosted (non-transactional) backend **eagerly**: every
/// in-place `backend.insert(..)` / `backend.remove(..)` site must pair
/// with an `UndoOp` compensation, or an abort cannot restore the
/// pre-transaction state.
fn boosted_backend_marker() -> String {
    format!("txlint: {}", "boosted-backend")
}

/// How far (in tokens, either direction) from an eager mutation site the
/// undo pairing may sit. Generous enough for the buffered-`old`-value
/// dance around `tx.open`, tight enough that a pairing in an unrelated
/// function does not vouch for a naked mutation.
const TX011_PAIRING_WINDOW: usize = 120;

fn tx011_unlogged_eager_mutation(path: &Path, src: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !src.contains(&boosted_backend_marker()) {
        return;
    }
    let toks = m.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("backend") || toks.get(i + 1).and_then(Tok::punct) != Some('.') {
            continue;
        }
        let Some(method) = toks.get(i + 2) else {
            continue;
        };
        if !(method.is_ident("insert") || method.is_ident("remove"))
            || toks.get(i + 3).and_then(Tok::punct) != Some('(')
        {
            continue;
        }
        let lo = i.saturating_sub(TX011_PAIRING_WINDOW);
        let hi = (i + TX011_PAIRING_WINDOW).min(toks.len());
        let paired = toks[lo..hi].iter().any(|p| p.is_ident("UndoOp"));
        if !paired {
            out.push(finding(
                path,
                method,
                "TX011",
                format!(
                    "eager `backend.{}(..)` with no `UndoOp` logged nearby in a \
                     boosted-backend file",
                    method.text
                ),
                "an in-place mutation against a boosted backend must record its compensation: push an UndoOp onto the undo log in the class's Local (first write per key) so the abort handler can replay it, newest first, before any semantic lock is released",
            ));
        }
    }
}

/// Marker comment (assembled at runtime like the others) declaring a file
/// ported to the single-op fast path: read-only backend observations must
/// go through the flattened `Txn::open_read`, not a full open-nested child
/// with its own frame and unwind guard.
fn fast_path_marker() -> String {
    format!("txlint: {}", "fast-path")
}

/// Backend methods that only observe state. An open-nested body made
/// entirely of these is read-only and should be flattened.
const TX012_READ_METHODS: &[&str] = &[
    "get",
    "contains_key",
    "len",
    "entries",
    "peek_front",
    "first_entry",
    "last_entry",
    "ceiling_entry",
    "floor_entry",
    "next_entry_after",
    "prev_entry_before",
    "range_entries",
    "read",
];

/// Backend methods that mutate state. Their presence in an open body makes
/// it a real open-nested child — `open_read` is read-only by contract.
const TX012_WRITE_METHODS: &[&str] = &[
    "insert",
    "remove",
    "push_back",
    "push_front",
    "pop_front",
    "write",
];

fn tx012_read_only_open(path: &Path, src: &str, m: &FileModel, out: &mut Vec<Finding>) {
    if !src.contains(&fast_path_marker()) {
        return;
    }
    let toks = m.toks;
    let brackets = match_brackets(toks);
    for (i, t) in toks.iter().enumerate() {
        // `<recv>.open(` — `open_read` lexes as its own ident and never
        // matches here.
        if !t.is_ident("open")
            || i.checked_sub(1).and_then(|p| toks[p].punct()) != Some('.')
            || toks.get(i + 1).and_then(Tok::punct) != Some('(')
        {
            continue;
        }
        let Some(&close) = brackets.get(&(i + 1)) else {
            continue;
        };
        let body = &toks[i + 2..close];
        let is_method = |j: usize| {
            j.checked_sub(1).and_then(|p| body[p].punct()) == Some('.')
                && body.get(j + 1).and_then(Tok::punct) == Some('(')
        };
        let mut reads = false;
        let mut writes = false;
        for (j, b) in body.iter().enumerate() {
            if b.kind != TokKind::Ident || !is_method(j) {
                continue;
            }
            let name = b.text.as_str();
            reads |= TX012_READ_METHODS.contains(&name);
            writes |= TX012_WRITE_METHODS.contains(&name);
        }
        if reads && !writes {
            out.push(finding(
                path,
                t,
                "TX012",
                "read-only open-nested body in a fast-path file".to_string(),
                "a body that only observes the backend pays a child frame and an unwind guard for nothing: call Txn::open_read, which validates the logged reads in place and keeps the doom probe",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_source(Path::new("t.rs"), src)
            .iter()
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn tx001_println_in_txn() {
        assert_eq!(
            codes("fn f() { atomic(|tx| { println!(\"hi\"); }); }"),
            vec!["TX001"]
        );
    }

    #[test]
    fn tx001_ok_outside_txn() {
        assert!(codes("fn f() { println!(\"hi\"); }").is_empty());
    }

    #[test]
    fn tx001_ok_inside_commit_handler() {
        let src = "fn f() { atomic(|tx| { tx.on_commit(|h| { println!(\"hi\"); }); tx.on_abort(|h| {}); }); }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn tx001_lock_in_txn_but_not_tvar_read() {
        assert_eq!(
            codes("fn f() { atomic(|tx| { m.lock(); }); }"),
            vec!["TX001"]
        );
        // TVar::read takes an argument: not a mutex acquisition.
        assert!(codes("fn f() { atomic(|tx| { v.read(tx); }); }").is_empty());
    }

    #[test]
    fn tx002_read_committed_in_txn() {
        assert_eq!(
            codes("fn f() { atomic(|tx| { v.read_committed(); }); }"),
            vec!["TX002"]
        );
        assert!(codes("fn f() { v.read_committed(); }").is_empty());
    }

    #[test]
    fn tx002_tvar_access_outside_context() {
        let src = "fn f() { let v = TVar::new(1); v.read(stale); }";
        assert_eq!(codes(src), vec!["TX002"]);
        // Inside a Txn-taking fn it is fine.
        let src = "fn f(tx: &mut Txn) { let v = TVar::new(1); v.read(tx); }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn tx002_tcell_access_outside_context() {
        let src = "struct N { key: TCell<u64> } fn f(n: &Arc<N>) { n.key.write(stale, n, 1); }";
        assert_eq!(codes(src), vec!["TX002"]);
        let src = "fn f(tx: &mut Txn, n: &Arc<N>) { let c = TCell::new(1); c.read(tx, n); }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn tx003_catch_unwind() {
        assert_eq!(
            codes("fn f() { atomic(|tx| { std::panic::catch_unwind(|| g()); }); }"),
            vec!["TX003"]
        );
        assert!(codes("fn f() { std::panic::catch_unwind(|| g()); }").is_empty());
    }

    #[test]
    fn tx004_commit_without_abort() {
        assert_eq!(
            codes("fn f() { atomic(|tx| { tx.on_commit(|h| {}); }); }"),
            vec!["TX004"]
        );
        let paired = "fn f() { atomic(|tx| { tx.on_commit(|h| {}); tx.on_abort(|h| {}); }); }";
        assert!(codes(paired).is_empty());
        let undo =
            "fn f() { atomic(|tx| { tx.on_commit_top(|h| {}); tx.on_local_undo(|_| {}); }); }";
        assert!(codes(undo).is_empty());
    }

    #[test]
    fn tx004_nested_region_scopes_independently() {
        // The outer region's commit handler is paired; the nested closed()
        // region registers only a commit handler -> one finding.
        let src = "fn f() { atomic(|tx| { tx.on_commit(|h| {}); tx.on_abort(|h| {}); \
                   tx.closed(|tx2| { tx2.on_commit(|h| {}); }); }); }";
        assert_eq!(codes(src), vec!["TX004"]);
    }

    #[test]
    fn tx005_nested_atomic() {
        assert_eq!(
            codes("fn f() { atomic(|tx| { atomic(|tx2| { g(); }); }); }"),
            vec!["TX005"]
        );
        // closed/open nesting is the sanctioned form.
        assert!(codes("fn f() { atomic(|tx| { tx.closed(|tx2| { g(); }); }); }").is_empty());
    }

    #[test]
    fn tx006_marker_file_rejects_bare_pub() {
        let marked = |body: &str| format!("// {}\n{body}\n", commit_internals_marker());
        assert_eq!(
            codes(&marked("pub fn fresh_version() -> u64 { 0 }")),
            vec!["TX006"]
        );
        assert_eq!(
            codes(&marked("pub(super) fn now() -> u64 { 0 }")),
            vec!["TX006"]
        );
        assert!(codes(&marked("pub(crate) fn now() -> u64 { 0 }")).is_empty());
        assert!(codes(&marked("fn private() {}")).is_empty());
        // Without the marker, visibility is none of txlint's business.
        assert!(codes("pub fn api() {}").is_empty());
    }

    #[test]
    fn tx007_marker_file_rejects_raw_stripe_access() {
        let marked = |body: &str| format!("// {}\n{body}\n", semantic_tables_marker());
        assert_eq!(
            codes(&marked("fn f(&self) { let g = self.stripes[3].lock(); }")),
            vec!["TX007"]
        );
        assert_eq!(
            codes(&marked("fn f(&self) { let g = self.stripes.get(3); }")),
            vec!["TX007"]
        );
        // The sanctioned helpers do not index the array at the call site.
        assert!(codes(&marked(
            "fn f(&self) { self.tables.with_stripe_for(&k, &self.stats, |s| s.len()); }"
        ))
        .is_empty());
        // Without the marker, stripe indexing is none of txlint's business
        // (locks.rs itself implements the helpers).
        assert!(codes("fn f(&self) { let g = self.stripes[3].lock(); }").is_empty());
    }

    #[test]
    fn tx008_semantic_tables_file_rejects_direct_registration() {
        let marked = |body: &str| format!("// {}\n{body}\n", semantic_tables_marker());
        let direct = "fn reg(tbl: &T, tx: &mut Txn) { \
                      tx.on_commit_top(|h| tbl.apply(h)); \
                      tx.on_abort_top(|h| tbl.release(h)); }";
        assert_eq!(codes(&marked(direct)), vec!["TX008", "TX008"]);
        // Enlisting a participant by hand is the same bypass.
        let enlist = "fn reg(tbl: &T, tx: &mut Txn) { tx.enlist(tbl.tag(), Box::new(Slot)); }";
        assert_eq!(codes(&marked(enlist)), vec!["TX008"]);
        // Routing through the kernel is the sanctioned form.
        let via_core =
            "fn reg(core: &SemanticCore<C>, tx: &mut Txn) { core.ensure_registered(tx); }";
        assert!(codes(&marked(via_core)).is_empty());
        // The kernel file itself carries both markers and is exempt.
        let kernel = format!(
            "// {}\n// {}\n{direct}\n",
            semantic_tables_marker(),
            semantic_kernel_marker()
        );
        assert!(codes(&kernel).is_empty());
        // Without the semantic-tables marker, registration is unrestricted
        // (user code registers its own handlers freely).
        assert!(codes(direct).is_empty());
    }

    #[test]
    fn tx009_allocation_in_trace_emission() {
        assert_eq!(
            codes("fn f() { trace::sem_lock_blocked(intern(class_name), stripe); }"),
            vec!["TX009"]
        );
        assert_eq!(
            codes("fn f() { trace::txn_abort(id, cause, format!(\"{who}\")); }"),
            vec!["TX009"]
        );
        assert_eq!(
            codes("fn f() { trace::lane_enter(label.to_string()); }"),
            vec!["TX009"]
        );
        assert_eq!(
            codes("fn f() { trace::doom_edge(d, v, String::from(\"map\"), k, h, o, e, c); }"),
            vec!["TX009"]
        );
        // Integers and pre-interned syms are the sanctioned payloads.
        assert!(codes(
            "fn f() { trace::sem_lock_acquired(owner.id(), stats.class_sym(), LockKind::Key, key_hash64(&key)); }"
        )
        .is_empty());
        // The emitters' own declarations are not call sites.
        assert!(
            codes("pub fn doom_edge(doomer: u64, victim: u64) { push(doomer, victim); }")
                .is_empty()
        );
        // Allocation outside an emitter span is none of TX009's business.
        assert!(codes("fn f() { let s = format!(\"x\"); trace::txn_begin(id); }").is_empty());
        // Construction-time interning (outside any emission span) is the
        // sanctioned pattern.
        assert!(codes("fn new() -> Self { Self { class: intern(\"map\") } }").is_empty());
    }

    fn cg_marked(body: &str) -> String {
        format!("// {}\n{body}\n", conflict_graph_marker())
    }

    const CG_VALID: &str = r#"static G: ConflictGraph<'static> = ConflictGraph {
        class: "t",
        ops: &[
            op("get", &[ObsMode::Key], &[]),
            op("put", &[ObsMode::Key], &[UpdateEffect::KeyWrite]),
            op("size", &[ObsMode::Size], &[]),
        ],
        edges: &[
            edge("get", "put", ObsMode::Key, UpdateEffect::KeyWrite, Overlap::OnOverlap),
            edge("put", "put", ObsMode::Key, UpdateEffect::KeyWrite, Overlap::OnOverlap),
        ],
    };"#;

    #[test]
    fn tx010_well_formed_graph_is_clean() {
        assert!(codes(&cg_marked(CG_VALID)).is_empty());
        // Without the marker the rule does not run at all.
        assert!(codes(CG_VALID).is_empty());
    }

    #[test]
    fn tx010_missing_mirror_edge() {
        // Both ops observe Key and publish KeyWrite; the (b, a) mirror and
        // both self-edges are missing -> asymmetric + 2x reflexivity.
        let src = cg_marked(
            r#"static G: ConflictGraph<'static> = ConflictGraph {
                class: "t",
                ops: &[
                    op("a", &[ObsMode::Key], &[UpdateEffect::KeyWrite]),
                    op("b", &[ObsMode::Key], &[UpdateEffect::KeyWrite]),
                ],
                edges: &[
                    edge("a", "b", ObsMode::Key, UpdateEffect::KeyWrite, Overlap::OnOverlap),
                ],
            };"#,
        );
        let cs = codes(&src);
        assert_eq!(cs, vec!["TX010"; 3], "asymmetric + two missing self-edges");
        let msgs: Vec<String> = analyze_source(Path::new("t.rs"), &src)
            .iter()
            .map(|f| f.message.clone())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("asymmetric compatibility")));
        assert!(msgs.iter().any(|m| m.contains("no reflexive self-edge")));
    }

    #[test]
    fn tx010_overlap_gating_rules() {
        // Overlap cannot gate a whole-collection mode.
        let src = cg_marked(
            r#"static G: ConflictGraph<'static> = ConflictGraph {
                class: "t",
                ops: &[
                    op("size", &[ObsMode::Size], &[]),
                    op("put", &[], &[UpdateEffect::SizeChange]),
                ],
                edges: &[
                    edge("size", "put", ObsMode::Size, UpdateEffect::SizeChange, Overlap::OnOverlap),
                ],
            };"#,
        );
        let cs = codes(&src);
        assert!(!cs.is_empty() && cs.iter().all(|c| *c == "TX010"));
        // Always on a keyed mode is the dual violation.
        let src = cg_marked(
            r#"static G: ConflictGraph<'static> = ConflictGraph {
                class: "t",
                ops: &[
                    op("get", &[ObsMode::Key], &[]),
                    op("put", &[], &[UpdateEffect::KeyWrite]),
                ],
                edges: &[
                    edge("get", "put", ObsMode::Key, UpdateEffect::KeyWrite, Overlap::Always),
                ],
            };"#,
        );
        let cs = codes(&src);
        assert!(!cs.is_empty() && cs.iter().all(|c| *c == "TX010"));
    }

    #[test]
    fn tx010_referential_integrity() {
        let src = cg_marked(
            r#"static G: ConflictGraph<'static> = ConflictGraph {
                class: "t",
                ops: &[
                    op("size", &[ObsMode::Size], &[]),
                    op("put", &[], &[UpdateEffect::SizeChange]),
                ],
                edges: &[
                    edge("ghost", "put", ObsMode::Size, UpdateEffect::SizeChange, Overlap::Always),
                    edge("size", "put", ObsMode::Empty, UpdateEffect::SizeChange, Overlap::Always),
                ],
            };"#,
        );
        let msgs: Vec<String> = analyze_source(Path::new("t.rs"), &src)
            .iter()
            .map(|f| f.message.clone())
            .collect();
        assert!(msgs
            .iter()
            .any(|m| m.contains("undeclared observer `ghost`")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("does not declare mode Empty")));
    }

    #[test]
    fn tx011_unlogged_eager_mutation_fires() {
        let marked = |body: &str| format!("// {}\n{body}\n", boosted_backend_marker());
        assert_eq!(
            codes(&marked(
                "fn put(&self, htx: &mut Txn) { let _ = self.backend.insert(htx, k, v); }"
            )),
            vec!["TX011"]
        );
        assert_eq!(
            codes(&marked(
                "fn del(&self, htx: &mut Txn) { let _ = self.backend.remove(htx, &k); }"
            )),
            vec!["TX011"]
        );
    }

    #[test]
    fn tx011_logged_mutation_is_clean() {
        let marked = |body: &str| format!("// {}\n{body}\n", boosted_backend_marker());
        // Paired by an UndoOp construction in the window.
        assert!(codes(&marked(
            "fn del(&self, tx: &mut Txn) { let old = self.backend.remove(tx, &k); \
             if let Some(v) = old { log.push(UndoOp::Restore(k, v)); } }"
        ))
        .is_empty());
    }

    #[test]
    fn tx012_read_only_open_fires() {
        let src = "// txlint: fast-path\n\
                   fn f(tx: &mut Txn) { let v = tx.open(|otx| backend.get(otx, &k)); }";
        assert_eq!(codes(src), vec!["TX012"]);
    }

    #[test]
    fn tx012_mutating_open_is_clean() {
        let src = "// txlint: fast-path\n\
                   fn f(tx: &mut Txn) { let v = tx.open(|otx| backend.pop_front(otx)); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn tx012_open_read_is_clean() {
        let src = "// txlint: fast-path\n\
                   fn f(tx: &mut Txn) { let v = tx.open_read(|otx| backend.get(otx, &k)); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn tx012_ignores_unmarked_files() {
        let src = "fn f(tx: &mut Txn) { let v = tx.open(|otx| backend.get(otx, &k)); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    fn metrics_marked(body: &str) -> String {
        format!("// {}\n{body}\n", metrics_marker())
    }

    #[test]
    fn tx014_allocation_in_metrics_emission() {
        assert_eq!(
            codes(&metrics_marked(
                "fn f() { metrics::doom_landed(intern(class_name), stripe); }"
            )),
            vec!["TX014"]
        );
        assert_eq!(
            codes(&metrics_marked(
                "fn f() { metrics::cache_hit(sym_for(format!(\"{class}\"))); }"
            )),
            vec!["TX014"]
        );
        assert_eq!(
            codes(&metrics_marked(
                "fn f() { metrics::stripe_blocked(key_of(label.to_string()), idx); }"
            )),
            vec!["TX014"]
        );
        assert_eq!(
            codes(&metrics_marked(
                "fn f() { metrics::hist_record_ns(kind_of(String::from(\"commit\")), ns); }"
            )),
            vec!["TX014"]
        );
        assert_eq!(
            codes(&metrics_marked(
                "fn f() { metrics::tally(total_named(&format!(\"{name}\"))); }"
            )),
            vec!["TX014"]
        );
    }

    #[test]
    fn tx014_sanctioned_payloads_are_clean() {
        // Integers and pre-interned syms are the sanctioned payloads.
        assert!(codes(&metrics_marked(
            "fn f() { metrics::doom_landed(self.stats.class_sym(), stripe_of(self.key_hash)); }"
        ))
        .is_empty());
        // The emitters' own declarations (metrics.rs) are not call sites.
        assert!(codes(&metrics_marked(
            "pub fn doom_landed(class: Sym, stripe: u64) { bump(class, stripe); }"
        ))
        .is_empty());
        // Allocation outside an emitter span is none of TX014's business.
        assert!(codes(&metrics_marked(
            "fn f() { let s = format!(\"x\"); metrics::tally(Total::Commits); }"
        ))
        .is_empty());
        // Construction-time interning (outside any emission span) stays the
        // sanctioned pattern in marked files too.
        assert!(codes(&metrics_marked(
            "fn new() -> Self { Self { class: intern(\"map\") } }"
        ))
        .is_empty());
    }

    #[test]
    fn tx014_ignores_unmarked_files() {
        // The emitter names are ordinary words; without the marker the rule
        // must not run at all.
        let src = "fn f() { metrics::doom_landed(intern(class_name), stripe); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn tx012_mixed_read_write_body_is_clean() {
        let src = "// txlint: fast-path\n\
                   fn f(tx: &mut Txn) { tx.open(|otx| { let _ = backend.get(otx, &k); \
                   backend.insert(otx, k, v) }); }";
        assert_eq!(codes(src), Vec::<&str>::new());
    }

    #[test]
    fn tx011_ignores_unmarked_files_and_reads() {
        // No marker: none of txlint's business.
        assert!(
            codes("fn put(&self, htx: &mut Txn) { let _ = self.backend.insert(htx, k, v); }")
                .is_empty()
        );
        // Reads in a marked file are not mutations.
        let marked = |body: &str| format!("// {}\n{body}\n", boosted_backend_marker());
        assert!(codes(&marked(
            "fn get(&self, tx: &mut Txn) -> Option<V> { self.backend.get(tx, &k) }"
        ))
        .is_empty());
    }

    #[test]
    fn fn_named_atomic_is_not_a_region() {
        assert!(codes("fn atomic(f: impl FnOnce()) { f(); println!(\"x\"); }").is_empty());
    }

    #[test]
    fn spawned_thread_escapes_the_transaction() {
        // The spawned closure's atomic() runs on a fresh thread: not TX005,
        // and its body is a transaction region of its own.
        let src = "fn f() { atomic(|tx| { std::thread::spawn(move || { \
                   atomic(|tx2| { g(tx2); }); }).join(); v.read(tx); }); }";
        assert!(codes(src).is_empty());
        // But irrevocable effects inside the *spawned* atomic still count.
        let src = "fn f() { atomic(|tx| { std::thread::spawn(move || { \
                   atomic(|tx2| { println!(\"x\"); }); }); }); }";
        assert_eq!(codes(src), vec!["TX001"]);
    }
}
