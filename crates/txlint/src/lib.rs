//! txlint — STM-discipline static analysis for this workspace.
//!
//! The transactional collection classes of the paper only work if user code
//! follows the STM discipline: no irrevocable side effects inside
//! transactions (they cannot be rolled back when the transaction is doomed
//! and re-executed), no unpaired commit handlers (open-nested state needs a
//! compensating abort path), no swallowed abort control flow (doom/retry
//! propagate by unwinding in this runtime). rustc cannot check any of this,
//! so txlint does it lexically: it finds the argument spans of
//! `atomic(..)` / `atomic_with(..)` / `speculate(..)` / `.closed(..)` /
//! `.open(..)` calls (transaction regions) and of `.on_commit*(..)` /
//! `.on_abort*(..)` / `.on_local_undo(..)` calls (handler regions, where
//! the discipline is deliberately relaxed — handlers run under the commit
//! mutex and MAY touch locks and I/O), then applies the TXxxx rules below.
//!
//! | code  | violation |
//! |-------|-----------|
//! | TX001 | irrevocable side effect (I/O, lock acquisition, channel send, sleep) inside a transaction region, outside any handler region |
//! | TX002 | TVar access that bypasses or escapes transaction context (`read_committed` inside a transaction; `TVar::read`/`write` or `TCell::read`/`write` outside any transaction region or `Txn`-taking function) |
//! | TX003 | swallowing abort/retry control flow (`catch_unwind` inside a transaction region) |
//! | TX004 | commit handler registered with no paired abort handler in the same transaction region |
//! | TX005 | nested top-level `atomic`/`atomic_with`/`speculate` inside a transaction region (use `.closed(..)` / `.open(..)`) |
//! | TX006 | non-`pub(crate)` visibility in a file carrying the commit-internals marker comment (the sharded commit protocol's surface — `stm`'s clock/var-lock/handler-lane module — must stay crate-private) |
//! | TX007 | raw stripe access (`stripes[i]` indexing or a `.lock()` on a `stripes` element) in a file carrying the semantic-tables marker comment — stripes must be acquired through the ordered helpers (`with_stripe_for` / `for_stripes_ascending` / `with_global`), which preserve the stripes-ascending lock order the doom-protocol proof depends on |
//! | TX008 | direct `.on_commit_top(..)` / `.on_abort_top(..)` handler registration or `.enlist(..)` in a file carrying the semantic-tables marker but not the semantic-kernel marker — collection classes must register through `SemanticCore::ensure_registered`, so first-touch enlistment of the instance's one participant lives in exactly one place (the kernel file) |
//! | TX009 | allocation inside a trace-emission call (`format!`, `String::..`, `.to_string()`/`.to_owned()`, or per-event `intern(..)` in the argument span of an `stm::trace` emitter) — trace events are fixed-width word-packed records pushed from commit/abort/lock hot paths; class names are interned once at collection construction |
//! | TX010 | ill-formed conflict-graph declaration in a file carrying the conflict-graph marker comment — `ConflictGraph` initializers are checked for referential integrity (edges reference declared ops, modes/effects the ops declare), commutativity closure (overlap-gated edges only on keyed modes with `KeyWrite`; `Always` never on keyed modes), symmetry (no asymmetric compatibility: a conflicting pair whose roles both hold in reverse needs the mirrored edge), and reflexivity (a mutating observer needs its self-edge on every cell the graph declares conflicting). The same rules run semantically via `synthesize()` at core construction; TX010 catches them at lint time, before anything runs |
//! | TX011 | eager `backend.insert(..)` / `backend.remove(..)` with no `UndoOp` nearby in a file carrying the boosted-backend marker comment — an in-place mutation against a boosted (non-transactional) backend must log its compensation in the undo log of the class's `Local` (first write per key), or an abort cannot restore the pre-transaction state; the abort handler replays the log newest first before any semantic lock is released |
//! | TX012 | read-only open-nested body (`tx.open(..)` calling only read-layer backend methods) in a file carrying the fast-path marker — pays the full child-transaction protocol for observations `Txn::open_read` validates in place |
//! | TX014 | allocation inside a metrics-emission call (`format!`, `String::..`, `.to_string()`/`.to_owned()`, or per-emission `intern(..)` in the argument span of an `stm::metrics` emitter) in a file carrying the metrics marker — metrics counters are fixed-key thread-local slab increments on commit/abort/lock hot paths; class names are interned once at collection construction |
//!
//! Findings are suppressed by `// txlint: allow(TXnnn)` on the finding's
//! line or the line above, or `// txlint: allow-file(TXnnn)` anywhere in
//! the file. See `docs/ANALYSIS.md`.
//!
//! Output is rustc-style by default; `--format json` emits the same
//! findings as a JSON array (see [`to_json`]) for editor/CI integration.

pub mod lexer;
pub mod oracle;
mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::analyze_source;

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    /// Rule code, e.g. `"TX001"`.
    pub code: &'static str,
    pub message: String,
    /// A fix-it style hint.
    pub help: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file.display(),
            self.line,
            self.col,
            self.code,
            self.message
        )?;
        write!(f, "    help: {}", self.help)
    }
}

/// All rule codes, for `--explain` style listings and self-tests.
pub const ALL_CODES: [&str; 13] = [
    "TX001", "TX002", "TX003", "TX004", "TX005", "TX006", "TX007", "TX008", "TX009", "TX010",
    "TX011", "TX012", "TX014",
];

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (the `--format json` output mode). The
/// schema is one object per finding:
/// `{"file", "line", "col", "code", "message", "help"}` — stable and
/// machine-parseable, unlike the rustc-style text.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"col\":{},\"code\":\"{}\",\"message\":\"{}\",\"help\":\"{}\"}}",
            json_escape(&f.file.display().to_string()),
            f.line,
            f.col,
            f.code,
            json_escape(&f.message),
            json_escape(f.help)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Apply `// txlint: allow(..)` / `allow-file(..)` annotations: drop every
/// finding whose code is allowed on its own line, the line above, or
/// file-wide.
pub fn apply_allowlist(src: &str, findings: Vec<Finding>) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let file_allows: Vec<String> = lines
        .iter()
        .flat_map(|l| parse_allow(l, "allow-file"))
        .collect();
    findings
        .into_iter()
        .filter(|f| {
            if file_allows.iter().any(|c| c == f.code) {
                return false;
            }
            let here = lines.get(f.line as usize - 1).copied().unwrap_or("");
            let above = if f.line >= 2 {
                lines.get(f.line as usize - 2).copied().unwrap_or("")
            } else {
                ""
            };
            !parse_allow(here, "allow")
                .iter()
                .chain(parse_allow(above, "allow").iter())
                .any(|c| c == f.code)
        })
        .collect()
}

/// Extract codes from a `// txlint: <verb>(TX001, TX002)` comment on
/// `line`. Any `//` segment of the line may carry the annotation; text may
/// follow the closing parenthesis (a rationale is encouraged).
fn parse_allow(line: &str, verb: &str) -> Vec<String> {
    line.split("//")
        .skip(1)
        .filter_map(|comment| {
            let rest = comment.trim().strip_prefix("txlint:")?.trim();
            // `allow-file` must not be matched by the `allow` prefix probe.
            if verb == "allow" && rest.starts_with("allow-file") {
                return None;
            }
            rest.strip_prefix(verb)
                .and_then(|r| r.trim().strip_prefix('('))
                .and_then(|r| r.split(')').next())
        })
        .flat_map(|args| args.split(',').map(|c| c.trim().to_string()))
        .collect()
}

/// Analyze one file from disk: lex, run the rules, apply the allowlist.
pub fn check_file(path: &Path) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    Ok(apply_allowlist(&src, analyze_source(path, &src)))
}

/// Recursively collect workspace `.rs` files under `root`, skipping build
/// output, VCS metadata, vendored shims, and txlint's own violation
/// fixtures.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | ".git" | "fixtures" | "vendor") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        let fs = apply_allowlist(src, analyze_source(Path::new("t.rs"), src));
        fs.iter().map(|f| f.code).collect()
    }

    #[test]
    fn allowlist_same_line_and_above() {
        let src = "fn f() { atomic(|tx| { println!(\"x\"); }); } // txlint: allow(TX001)\n";
        assert!(codes(src).is_empty());
        let src = "// txlint: allow(TX001)\nfn f() { atomic(|tx| { println!(\"x\"); }); }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src =
            "// txlint: allow-file(TX001)\n\n\nfn f() { atomic(|tx| { println!(\"x\"); }); }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_of_other_code_does_not_suppress() {
        let src = "fn f() { atomic(|tx| { println!(\"x\"); }); } // txlint: allow(TX002)\n";
        assert_eq!(codes(src), vec!["TX001"]);
    }

    #[test]
    fn display_is_rustc_style() {
        let f = Finding {
            file: PathBuf::from("a/b.rs"),
            line: 3,
            col: 7,
            code: "TX001",
            message: "m".into(),
            help: "h",
        };
        let s = f.to_string();
        assert!(s.starts_with("a/b.rs:3:7: error[TX001]: m"));
        assert!(s.contains("help: h"));
    }
}
