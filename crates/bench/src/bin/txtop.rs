//! txtop — conflict-provenance reporter over the STM trace layer.
//!
//! `top` for transactions: runs a contended collection soak with tracing
//! enabled (or validates a previously exported trace) and aggregates the
//! event stream into the questions an STM user actually asks:
//!
//! * **Who conflicts with whom?** Doom edges grouped by collection class,
//!   lock table and `(observation, effect)` mode pair — the dynamic
//!   conflict matrix, with the paper-table pair that justified each doom.
//! * **Where?** The hottest keys by stripe hash (doom edges + semantic
//!   lock acquisitions).
//! * **Why do attempts abort?** Cause breakdown, and how many doomed
//!   aborts carry culprit attribution.
//! * **Is the handler lane a bottleneck?** Lane occupancy: share of the
//!   traced interval during which some transaction held the lane.
//!
//! ```sh
//! cargo run -p bench --bin txtop -- --soak --threads 4 --txns 400 \
//!     --export-json trace.json
//! cargo run -p bench --bin txtop -- --validate trace.json
//! cargo run -p bench --bin txtop -- --metrics --threads 4 --txns 400
//! cargo run -p bench --bin txtop -- --metrics --validate
//! ```
//!
//! `--validate FILE` re-parses the exported JSON with a dependency-free
//! recursive-descent parser and checks the structural invariants the CI
//! traced-soak step relies on (schema version, event shapes, begin/terminal
//! pairing, at least one incompatible doom edge, abort/edge attribution
//! agreement). Exit status 0 = valid.
//!
//! `--metrics` runs the soak under the dimensional metrics layer
//! (`stm::metrics`) with the flight recorder armed, then renders the
//! windowed per-class/per-stripe doom-rate table, the hottest contended
//! stripes, and the latency percentiles (commit, semantic-lock wait, txn
//! wall, snapshot read). `--metrics --validate` instead takes two
//! Prometheus scrapes with soak activity between them and checks the
//! exposition is parseable, internally consistent (cumulative buckets,
//! `+Inf` == `_count`), and monotone series-by-series — the CI metrics
//! step. Exit status 0 = valid.

use std::collections::HashMap;
use std::process::ExitCode;
use stm::metrics::{self, MetricKind, ALL_HISTS};
use stm::trace::{self, TraceConfig, TraceEvent};
use stm::{atomic, atomic_read, global_stats, AbortCause};
use txcollections::TransactionalMap;

// ----------------------------------------------------------------------
// Soak workload: a contended map with long, read-heavy transactions
// ----------------------------------------------------------------------

const KEYS: u64 = 16;

/// Run `threads` workers, each committing `txns` long transactions (four
/// key-lock reads, one put) over a 16-key map — enough overlap that live
/// readers routinely hold key and size locks across another thread's commit.
/// With `repeat_keys` the four reads all hit one key, so every read after
/// the first is answered by the txn-local lock cache while the transaction
/// is still exposed to dooms — the traced regression shape for a cache
/// that outlives its locks. One extra observer thread runs the same reads
/// as snapshot transactions so the exported trace carries `snapshot_txn`
/// (and, when a chain outruns a pin, `snapshot_fallback`) events for the
/// validator to check.
fn soak_round(threads: u64, txns: u64, repeat_keys: bool) {
    let map: TransactionalMap<u64, u64> = TransactionalMap::new();
    atomic(|tx| {
        for k in 0..KEYS {
            map.put_discard(tx, k, 0);
        }
    });
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = map.clone();
            s.spawn(move || {
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1) | 1;
                for _ in 0..txns {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let base = x % KEYS;
                    atomic(|tx| {
                        let mut acc = 0u64;
                        for i in 0..4 {
                            let k = if repeat_keys { base } else { (base + i) % KEYS };
                            acc = acc.wrapping_add(map.get(tx, &k).unwrap_or(0));
                        }
                        map.put_discard(tx, base, acc.wrapping_add(1));
                    });
                }
            });
        }
        {
            let map = map.clone();
            s.spawn(move || {
                for i in 0..txns {
                    let _ = atomic_read(|tx| map.get(tx, &(i % KEYS)));
                }
            });
        }
    });
}

// ----------------------------------------------------------------------
// Aggregation over a decoded snapshot
// ----------------------------------------------------------------------

fn report(snap: &trace::TraceSnapshot) {
    let mut causes: HashMap<&'static str, u64> = HashMap::new();
    let mut attributed = 0u64;
    let mut doomed_aborts = 0u64;
    // (class, lock, obs, effect) -> (edge count, distinct victims)
    type MatrixCell = (u64, Vec<u64>);
    let mut matrix: HashMap<(&'static str, &'static str, u8, u8), MatrixCell> = HashMap::new();
    let mut hot_keys: HashMap<u64, (u64, u64)> = HashMap::new(); // hash -> (dooms, acquisitions)
    let mut lane_open: HashMap<u64, u64> = HashMap::new();
    let mut lane_busy_ns = 0u64;
    let (mut min_ts, mut max_ts) = (u64::MAX, 0u64);
    let mut commits = 0u64;
    let (mut snapshot_txns, mut snapshot_served, mut snapshot_fallbacks) = (0u64, 0u64, 0u64);

    for e in &snap.events {
        match e {
            TraceEvent::TxnCommit { ts, .. } => {
                commits += 1;
                min_ts = min_ts.min(*ts);
                max_ts = max_ts.max(*ts);
            }
            TraceEvent::TxnBegin { ts, .. } => {
                min_ts = min_ts.min(*ts);
                max_ts = max_ts.max(*ts);
            }
            TraceEvent::TxnAbort {
                cause, culprit, ts, ..
            } => {
                *causes.entry(trace::cause_name(*cause)).or_default() += 1;
                if *cause == AbortCause::Doomed {
                    doomed_aborts += 1;
                    if *culprit != 0 {
                        attributed += 1;
                    }
                }
                min_ts = min_ts.min(*ts);
                max_ts = max_ts.max(*ts);
            }
            TraceEvent::DoomEdge {
                victim,
                class,
                kind,
                key_hash,
                obs,
                effect,
                ..
            } => {
                let cell = matrix
                    .entry((class.name(), kind.name(), *obs, *effect))
                    .or_default();
                cell.0 += 1;
                if !cell.1.contains(victim) {
                    cell.1.push(*victim);
                }
                if *key_hash != 0 {
                    hot_keys.entry(*key_hash).or_default().0 += 1;
                }
            }
            TraceEvent::SemLockAcquired { key_hash, .. } if *key_hash != 0 => {
                hot_keys.entry(*key_hash).or_default().1 += 1;
            }
            TraceEvent::LaneEnter { txn, ts, .. } => {
                lane_open.insert(*txn, *ts);
            }
            TraceEvent::LaneExit { txn, ts, .. } => {
                if let Some(start) = lane_open.remove(txn) {
                    lane_busy_ns += ts.saturating_sub(start);
                }
            }
            TraceEvent::SnapshotTxn { reads, .. } => {
                snapshot_txns += 1;
                snapshot_served += reads;
            }
            TraceEvent::SnapshotFallback { .. } => snapshot_fallbacks += 1,
            _ => {}
        }
    }

    println!("== txtop: conflict provenance ==");
    println!(
        "events: {} decoded, {} dropped (ring overflow)",
        snap.events.len(),
        snap.dropped
    );
    println!("commits: {commits}");
    println!(
        "snapshot txns: {snapshot_txns} ({snapshot_served} chain reads served, \
         {snapshot_fallbacks} fallbacks to the validated path)"
    );

    println!("\n-- abort causes --");
    let mut cause_rows: Vec<_> = causes.into_iter().collect();
    cause_rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    if cause_rows.is_empty() {
        println!("  (no aborts)");
    }
    for (cause, n) in cause_rows {
        println!("  {cause:<14} {n}");
    }
    println!("  doomed aborts with culprit attribution: {attributed}/{doomed_aborts}");

    println!("\n-- conflict matrix (doom edges by class, lock, mode pair) --");
    let mut rows: Vec<_> = matrix.into_iter().collect();
    rows.sort_by_key(|&(_, (n, _))| std::cmp::Reverse(n));
    if rows.is_empty() {
        println!("  (no semantic dooms traced)");
    }
    for ((class, lock, obs, effect), (n, victims)) in rows {
        println!(
            "  {class:<12} {lock:<9} {:<7} -x- {:<12} {n:>5} edges, {} victims",
            trace::obs_name(obs),
            trace::effect_name(effect),
            victims.len()
        );
    }

    println!("\n-- hottest keys (by stripe hash) --");
    let mut keys: Vec<_> = hot_keys.into_iter().collect();
    keys.sort_by_key(|&(_, counts)| std::cmp::Reverse(counts));
    if keys.is_empty() {
        println!("  (no keyed events)");
    }
    for (hash, (dooms, acqs)) in keys.iter().take(5) {
        println!("  {hash:#018x}  {dooms} dooms, {acqs} lock acquisitions");
    }

    println!("\n-- handler lane --");
    let span = max_ts.saturating_sub(min_ts);
    if span > 0 {
        println!(
            "  occupancy: {:.1}% of the traced interval ({} ms busy / {} ms traced)",
            100.0 * lane_busy_ns as f64 / span as f64,
            lane_busy_ns / 1_000_000,
            span / 1_000_000
        );
    } else {
        println!("  (interval too short to estimate)");
    }
}

// ----------------------------------------------------------------------
// Dimensional metrics mode
// ----------------------------------------------------------------------

/// How many landed dooms on one `(class, stripe)` within the soak window
/// fire a flight-recorder dump.
const METRICS_DOOM_THRESHOLD: u64 = 16;

/// Run the soak under `stm::metrics` with the flight recorder armed, then
/// render the windowed doom-rate table, hottest stripes, and latency
/// percentiles.
fn run_metrics_soak(threads: u64, txns: u64, repeat_keys: bool) -> ExitCode {
    let cfg = metrics::FlightRecorderConfig {
        dir: std::env::temp_dir().join(format!("stm-flightrec-{}", std::process::id())),
        doom_threshold: METRICS_DOOM_THRESHOLD,
        ring_slots: 1 << 16,
    };
    let mut rec = match metrics::FlightRecorder::arm(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("txtop: cannot arm the flight recorder: {e}");
            return ExitCode::FAILURE;
        }
    };

    let before = metrics::window();
    // Same widening loop as --soak: a lucky serialized round on a 1-CPU
    // host may produce no semantic doom at all.
    let mut rounds = 0;
    loop {
        soak_round(threads, txns, repeat_keys);
        rounds += 1;
        let w = metrics::window().diff(&before);
        if w.kind_total(MetricKind::Doom) > 0 || rounds >= 10 {
            break;
        }
    }
    let w = metrics::window().diff(&before);
    let secs = (w.wall_ns() as f64 / 1e9).max(1e-9);

    println!("== txtop: dimensional metrics ==");
    println!(
        "window: {secs:.2}s over {rounds} round(s) ({threads} threads x {txns} txns), \
         {} dropped increments",
        w.dropped()
    );
    println!(
        "commits: {} ({:.0}/s), aborts: {} read-invalid, {} doomed, {} explicit",
        w.kind_total(MetricKind::Commit),
        w.kind_total(MetricKind::Commit) as f64 / secs,
        w.kind_total(MetricKind::AbortReadInvalid),
        w.kind_total(MetricKind::AbortDoomed),
        w.kind_total(MetricKind::AbortExplicit),
    );
    println!(
        "lock cache hits: {}, lane entries: {}, epoch pins: {}, snapshot fallbacks: {}",
        w.kind_total(MetricKind::CacheHit),
        w.kind_total(MetricKind::LaneEntry),
        w.kind_total(MetricKind::EpochPin),
        w.kind_total(MetricKind::SnapshotFallback),
    );

    println!("\n-- doom rate by class and stripe --");
    let dooms = w.by_class_stripe(MetricKind::Doom);
    if dooms.is_empty() {
        println!("  (no semantic dooms in the window)");
    }
    for &(class, stripe, n) in dooms.iter().take(10) {
        println!(
            "  {:<16} stripe {:<7} {n:>6} dooms  ({:.1}/s)",
            class.name(),
            metrics::stripe_label(stripe),
            n as f64 / secs
        );
    }

    println!("\n-- hottest contended stripes (blocked acquisitions) --");
    let blocked = w.by_class_stripe(MetricKind::StripeBlocked);
    if blocked.is_empty() {
        println!("  (no stripe ever blocked)");
    }
    for &(class, stripe, n) in blocked.iter().take(5) {
        println!(
            "  {:<16} stripe {:<7} {n:>6} blocked  ({:.1}/s)",
            class.name(),
            metrics::stripe_label(stripe),
            n as f64 / secs
        );
    }

    println!("\n-- latency percentiles (ns, log2 bucket upper bounds) --");
    println!(
        "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50", "p90", "p99", "max"
    );
    for kind in ALL_HISTS {
        let h = w.histogram(kind);
        if h.count() == 0 {
            continue;
        }
        println!(
            "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            kind.name(),
            h.count(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max
        );
    }

    println!("\n-- flight recorder --");
    match rec.poll() {
        Ok(Some(path)) => println!(
            "  doom threshold ({METRICS_DOOM_THRESHOLD}/window) crossed; dump: {}",
            path.display()
        ),
        Ok(None) => {
            println!("  no (class, stripe) crossed {METRICS_DOOM_THRESHOLD} dooms in the window")
        }
        Err(e) => {
            eprintln!("txtop: flight-recorder dump failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--metrics --validate`: two cumulative Prometheus scrapes with soak
/// activity between them must parse, be internally consistent, and be
/// monotone per series.
fn run_metrics_validate(threads: u64, txns: u64) -> ExitCode {
    let guard = metrics::MetricsConfig::default().enable();
    soak_round(threads, txns, false);
    let first = metrics::window().to_prometheus();
    soak_round(threads, txns, false);
    let second = metrics::window().to_prometheus();
    drop(guard);
    match validate_prometheus(&first, &second) {
        Ok(summary) => {
            println!("txtop: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("txtop: prometheus exposition INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse one Prometheus text-exposition scrape into `(series, value)` rows
/// in file order, checking the structural grammar: `# TYPE` lines carry a
/// known type, sample lines are `name[{labels}] value`, no duplicate
/// series.
fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut series: Vec<(String, f64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(ty) = comment.trim_start().strip_prefix("TYPE ") {
                let mut it = ty.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                let ty = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE {name} without a type"))?;
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                    return Err(format!("line {lineno}: unknown type \"{ty}\" for {name}"));
                }
            }
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {lineno}: sample without a value: {line:?}"));
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparseable value {value:?}"))?;
        let shape_ok = match (name.find('{'), name.ends_with('}')) {
            (None, false) => !name.is_empty(),
            (Some(open), true) => open > 0,
            _ => false,
        };
        if !shape_ok {
            return Err(format!("line {lineno}: malformed series name {name:?}"));
        }
        if series.iter().any(|(s, _)| s == name) {
            return Err(format!("line {lineno}: duplicate series {name:?}"));
        }
        series.push((name.to_string(), value));
    }
    Ok(series)
}

/// Check two scrapes taken in order: each parses, histograms are
/// internally consistent in the later scrape (cumulative `le` buckets,
/// `+Inf` bucket equals `_count`), and every series present in the first
/// scrape is still present and did not decrease in the second.
fn validate_prometheus(first: &str, second: &str) -> Result<String, String> {
    let s1 = parse_prometheus(first)?;
    let s2 = parse_prometheus(second)?;

    if !s2.iter().any(|(n, _)| n.starts_with("stm_events_total{")) {
        return Err("no stm_events_total series after the soak".into());
    }

    // Cumulative buckets never decrease within a family (rows are in `le`
    // order in the exposition), and the +Inf bucket closes at _count.
    let mut last_bucket: HashMap<&str, f64> = HashMap::new();
    for (name, v) in &s2 {
        if let Some(split) = name.find("_bucket{le=") {
            let family = &name[..split];
            if let Some(prev) = last_bucket.get(family) {
                if v < prev {
                    return Err(format!(
                        "{family}: bucket counts not cumulative ({prev} then {v})"
                    ));
                }
            }
            last_bucket.insert(family, *v);
        }
    }
    for (name, count) in &s2 {
        let Some(family) = name.strip_suffix("_count") else {
            continue;
        };
        let inf = format!("{family}_bucket{{le=\"+Inf\"}}");
        match s2.iter().find(|(n, _)| n == &inf) {
            Some((_, v)) if v == count => {}
            Some((_, v)) => {
                return Err(format!("{family}: +Inf bucket {v} != _count {count}"));
            }
            None => return Err(format!("{family}: histogram without an +Inf bucket")),
        }
    }

    for (name, v1) in &s1 {
        let Some((_, v2)) = s2.iter().find(|(n, _)| n == name) else {
            return Err(format!("series {name:?} vanished between scrapes"));
        };
        if v2 < v1 {
            return Err(format!("series {name:?} went backwards: {v1} -> {v2}"));
        }
    }

    Ok(format!(
        "prometheus ok: {} then {} series, parseable, cumulative, monotone",
        s1.len(),
        s2.len()
    ))
}

// ----------------------------------------------------------------------
// Minimal JSON model + recursive-descent parser (no serde by design)
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json parse error at byte {}: {what}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("json parse error at byte {start}: bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            self.pos += 4;
                            out.push(hex.unwrap_or('\u{FFFD}'));
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through byte-wise.
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err("trailing garbage");
        }
        Ok(v)
    }
}

// ----------------------------------------------------------------------
// Validation of an exported trace
// ----------------------------------------------------------------------

const KINDS: &[&str] = &[
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
    "open_flattened",
    "lock_cache_hit",
    "snapshot_txn",
    "snapshot_fallback",
];

fn require_num(ev: &Json, field: &str, i: usize) -> Result<f64, String> {
    ev.get(field)
        .and_then(Json::num)
        .ok_or_else(|| format!("event {i}: missing numeric field \"{field}\""))
}

fn require_str<'j>(ev: &'j Json, field: &str, i: usize) -> Result<&'j str, String> {
    ev.get(field)
        .and_then(Json::str)
        .ok_or_else(|| format!("event {i}: missing string field \"{field}\""))
}

fn validate(text: &str) -> Result<String, String> {
    let root = Parser::new(text).parse()?;
    let version = root
        .get("version")
        .and_then(Json::num)
        .ok_or("missing \"version\"")?;
    if version != 1.0 {
        return Err(format!("unsupported trace version {version}"));
    }
    let dropped = root
        .get("dropped")
        .and_then(Json::num)
        .ok_or("missing \"dropped\"")? as u64;
    let events = match root.get("events") {
        Some(Json::Arr(evs)) => evs,
        _ => return Err("missing \"events\" array".into()),
    };

    let mut begins: HashMap<u64, u64> = HashMap::new();
    let mut terminals: HashMap<u64, u64> = HashMap::new();
    // victim -> doomers seen in edges; victim -> culprit claimed by aborts.
    let mut edge_doomers: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut doomed_culprits: HashMap<u64, u64> = HashMap::new();
    let mut incompatible_edges = 0u64;
    let mut last_seq = 0u64;
    // Snapshot lifecycle: a snapshot_txn attempt must end in a commit; a
    // snapshot_fallback attempt is abandoned and must end as an *explicit*
    // abort with no culprit (a fallback is not a doomed abort — it re-runs
    // under a fresh validated attempt).
    let mut snapshot_commits: Vec<u64> = Vec::new();
    let mut snapshot_fallbacks: Vec<u64> = Vec::new();
    let mut commit_txns: Vec<u64> = Vec::new();
    let mut plain_explicit_aborts: Vec<u64> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let kind = require_str(ev, "kind", i)?;
        if !KINDS.contains(&kind) {
            return Err(format!("event {i}: unknown kind \"{kind}\""));
        }
        let seq = require_num(ev, "seq", i)? as u64;
        if seq <= last_seq {
            return Err(format!("event {i}: seq {seq} not strictly increasing"));
        }
        last_seq = seq;
        match kind {
            "txn_begin" => {
                let txn = require_num(ev, "txn", i)? as u64;
                *begins.entry(txn).or_default() += 1;
            }
            "txn_commit" => {
                let txn = require_num(ev, "txn", i)? as u64;
                *terminals.entry(txn).or_default() += 1;
                commit_txns.push(txn);
            }
            "txn_abort" => {
                let txn = require_num(ev, "txn", i)? as u64;
                let culprit = require_num(ev, "culprit", i)? as u64;
                let cause = require_str(ev, "cause", i)?;
                if !["read_invalid", "doomed", "explicit"].contains(&cause) {
                    return Err(format!("event {i}: unknown abort cause \"{cause}\""));
                }
                if cause == "doomed" && culprit != 0 {
                    doomed_culprits.insert(txn, culprit);
                }
                if cause == "explicit" && culprit == 0 {
                    plain_explicit_aborts.push(txn);
                }
                *terminals.entry(txn).or_default() += 1;
            }
            "doom_edge" => {
                let doomer = require_num(ev, "doomer", i)? as u64;
                let victim = require_num(ev, "victim", i)? as u64;
                require_num(ev, "key_hash", i)?;
                let class = require_str(ev, "class", i)?;
                let lock = require_str(ev, "lock", i)?;
                let obs = require_str(ev, "obs", i)?;
                let effect = require_str(ev, "effect", i)?;
                if class.is_empty() || class == "?" {
                    return Err(format!("event {i}: doom edge lost its class name"));
                }
                if !["key", "size", "empty", "endpoint", "range", "full"].contains(&lock) {
                    return Err(format!("event {i}: unknown lock table \"{lock}\""));
                }
                if !trace::OBS_NAMES.contains(&obs) {
                    return Err(format!("event {i}: unknown obs mode \"{obs}\""));
                }
                if !trace::EFFECT_NAMES.contains(&effect) {
                    return Err(format!("event {i}: unknown effect \"{effect}\""));
                }
                match ev.get("compatible") {
                    Some(Json::Bool(false)) => incompatible_edges += 1,
                    Some(Json::Bool(true)) => {
                        return Err(format!(
                            "event {i}: a landed doom edge claims a compatible mode pair"
                        ))
                    }
                    _ => return Err(format!("event {i}: missing \"compatible\"")),
                }
                edge_doomers.entry(victim).or_default().push(doomer);
            }
            "sem_lock_acquired" | "sem_lock_released" => {
                require_num(ev, "txn", i)?;
                require_str(ev, "class", i)?;
                require_str(ev, "lock", i)?;
            }
            "open_flattened" => {
                require_num(ev, "txn", i)?;
            }
            "lock_cache_hit" => {
                require_num(ev, "txn", i)?;
                require_num(ev, "key_hash", i)?;
                require_str(ev, "class", i)?;
                require_str(ev, "lock", i)?;
            }
            "snapshot_txn" => {
                let txn = require_num(ev, "txn", i)? as u64;
                require_num(ev, "reads", i)?;
                snapshot_commits.push(txn);
            }
            "snapshot_fallback" => {
                let txn = require_num(ev, "txn", i)? as u64;
                if snapshot_commits.contains(&txn) {
                    return Err(format!(
                        "attempt {txn}: both completed as a snapshot and fell back"
                    ));
                }
                snapshot_fallbacks.push(txn);
            }
            _ => {}
        }
    }

    // Begin/terminal pairing is only exact when nothing was dropped.
    if dropped == 0 {
        for (txn, n) in &begins {
            if *n != 1 || terminals.get(txn) != Some(&1) {
                return Err(format!(
                    "attempt {txn}: begins={n}, terminals={:?} (dangling or doubled)",
                    terminals.get(txn)
                ));
            }
        }
        for txn in terminals.keys() {
            if !begins.contains_key(txn) {
                return Err(format!("attempt {txn}: terminal event without a begin"));
            }
        }
        for txn in &snapshot_commits {
            if !commit_txns.contains(txn) {
                return Err(format!(
                    "attempt {txn}: snapshot_txn without a txn_commit terminal"
                ));
            }
        }
        for txn in &snapshot_fallbacks {
            if !plain_explicit_aborts.contains(txn) {
                return Err(format!(
                    "attempt {txn}: snapshot_fallback must terminate as an explicit abort \
                     with no culprit (a fallback is not a doomed abort)"
                ));
            }
        }
    }

    if incompatible_edges == 0 {
        return Err("no doom edge recorded — the soak produced no semantic conflict".into());
    }

    // Where both the edge and the victim's abort were captured, the abort's
    // culprit must be one of the doomers the edges name.
    for (victim, culprit) in &doomed_culprits {
        if let Some(doomers) = edge_doomers.get(victim) {
            if !doomers.contains(culprit) {
                return Err(format!(
                    "attempt {victim}: abort blames {culprit}, but its edges name {doomers:?}"
                ));
            }
        }
    }

    Ok(format!(
        "valid: {} events ({dropped} dropped), {incompatible_edges} doom edges, \
         {} attributed doomed aborts, {} snapshot txns ({} fallbacks)",
        events.len(),
        doomed_culprits.len(),
        snapshot_commits.len(),
        snapshot_fallbacks.len()
    ))
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

fn usage() -> ExitCode {
    eprintln!(
        "usage: txtop --soak [--threads N] [--txns N] [--repeat-keys] [--export-json FILE]\n\
        \x20      txtop --validate FILE\n\
        \x20      txtop --metrics [--threads N] [--txns N] [--repeat-keys]\n\
        \x20      txtop --metrics --validate [--threads N] [--txns N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = None;
    let mut threads = 4u64;
    let mut txns = 400u64;
    let mut export: Option<String> = None;
    let mut validate_file: Option<String> = None;
    let mut repeat_keys = false;

    let mut metrics_validate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--soak" => mode = Some("soak"),
            "--metrics" => mode = Some("metrics"),
            "--validate" if mode == Some("metrics") => metrics_validate = true,
            "--validate" => {
                mode = Some("validate");
                validate_file = it.next().cloned();
            }
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).unwrap_or(threads),
            "--txns" => txns = it.next().and_then(|v| v.parse().ok()).unwrap_or(txns),
            "--repeat-keys" => repeat_keys = true,
            "--export-json" => export = it.next().cloned(),
            _ => return usage(),
        }
    }

    match mode {
        Some("soak") => {
            let before = global_stats();
            // Generous rings: the report is more useful when lifecycle
            // events survive alongside the (rarer) doom edges.
            let guard = TraceConfig {
                ring_slots: 1 << 16,
            }
            .enable();
            // Single-CPU hosts can get lucky and serialize a small round
            // without a single live-across-commit window; widen until the
            // trace shows at least one semantic doom.
            let mut rounds = 0;
            loop {
                soak_round(threads, txns, repeat_keys);
                rounds += 1;
                let snap = trace::snapshot();
                let has_edge = snap
                    .events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::DoomEdge { .. }));
                if has_edge || rounds >= 10 {
                    break;
                }
            }
            let snap = trace::snapshot();
            drop(guard);
            let d = global_stats().diff(&before);
            println!(
                "soak: {threads} threads x {txns} txns x {rounds} round(s), \
                 {} commits, {} doomed aborts (stats)",
                d.commits, d.aborts_doomed
            );
            report(&snap);
            if let Some(path) = export {
                let json = snap.to_json();
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("txtop: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("\nexported {} bytes to {path}", json.len());
            }
            ExitCode::SUCCESS
        }
        Some("metrics") => {
            if metrics_validate {
                run_metrics_validate(threads, txns)
            } else {
                run_metrics_soak(threads, txns, repeat_keys)
            }
        }
        Some("validate") => {
            let Some(path) = validate_file else {
                return usage();
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("txtop: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match validate(&text) {
                Ok(summary) => {
                    println!("txtop: {path}: {summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("txtop: {path}: INVALID: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_scalars_and_nesting() {
        let j = Parser::new(r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null}"#)
            .parse()
            .unwrap();
        assert_eq!(
            j.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(j.get("b").and_then(Json::str), Some("x\"y"));
        assert_eq!(j.get("c"), Some(&Json::Bool(true)));
        assert_eq!(j.get("d"), Some(&Json::Null));
        assert!(Parser::new("{\"a\":1,}").parse().is_err());
        assert!(Parser::new("[1 2]").parse().is_err());
    }

    #[test]
    fn validate_accepts_a_wellformed_trace() {
        let good = r#"{"version":1,"dropped":0,"events":[
            {"kind":"txn_begin","seq":1,"txn":10,"ts":5},
            {"kind":"txn_begin","seq":2,"txn":11,"ts":6},
            {"kind":"sem_lock_acquired","seq":3,"txn":10,"class":"map","lock":"key","key_hash":99,"ts":7},
            {"kind":"doom_edge","seq":4,"doomer":11,"victim":10,"class":"map","lock":"key","key_hash":99,"obs":"Key","effect":"KeyWrite","compatible":false},
            {"kind":"txn_commit","seq":5,"txn":11,"ts":8},
            {"kind":"txn_abort","seq":6,"txn":10,"cause":"doomed","culprit":11,"ts":9},
            {"kind":"txn_begin","seq":7,"txn":20,"ts":10},
            {"kind":"snapshot_txn","seq":8,"txn":20,"reads":4,"ts":11},
            {"kind":"txn_commit","seq":9,"txn":20,"ts":12},
            {"kind":"txn_begin","seq":10,"txn":21,"ts":13},
            {"kind":"snapshot_fallback","seq":11,"txn":21,"ts":14},
            {"kind":"txn_abort","seq":12,"txn":21,"cause":"explicit","culprit":0,"ts":15}
        ]}"#;
        let summary = validate(good).unwrap();
        assert!(summary.contains("1 doom edges"), "{summary}");
        assert!(
            summary.contains("1 snapshot txns (1 fallbacks)"),
            "{summary}"
        );
    }

    #[test]
    fn validate_rejects_broken_snapshot_lifecycles() {
        // A snapshot that "completed" but then aborted: the never-abort
        // guarantee was violated somewhere.
        let aborted_snapshot = r#"{"version":1,"dropped":0,"events":[
            {"kind":"doom_edge","seq":1,"doomer":11,"victim":10,"class":"map","lock":"key","key_hash":0,"obs":"Key","effect":"KeyWrite","compatible":false},
            {"kind":"txn_begin","seq":2,"txn":20,"ts":10},
            {"kind":"snapshot_txn","seq":3,"txn":20,"reads":4,"ts":11},
            {"kind":"txn_abort","seq":4,"txn":20,"cause":"explicit","culprit":0,"ts":12}
        ]}"#;
        assert!(validate(aborted_snapshot)
            .unwrap_err()
            .contains("without a txn_commit"));

        // A fallback whose teardown was recorded as a *doomed* abort:
        // fallbacks must never enter the doom accounting.
        let doomed_fallback = r#"{"version":1,"dropped":0,"events":[
            {"kind":"doom_edge","seq":1,"doomer":11,"victim":21,"class":"map","lock":"key","key_hash":0,"obs":"Key","effect":"KeyWrite","compatible":false},
            {"kind":"txn_begin","seq":2,"txn":21,"ts":10},
            {"kind":"snapshot_fallback","seq":3,"txn":21,"ts":11},
            {"kind":"txn_abort","seq":4,"txn":21,"cause":"doomed","culprit":11,"ts":12}
        ]}"#;
        assert!(validate(doomed_fallback)
            .unwrap_err()
            .contains("not a doomed abort"));

        // One attempt cannot both serve a snapshot and fall back.
        let both = r#"{"version":1,"dropped":0,"events":[
            {"kind":"snapshot_txn","seq":1,"txn":22,"reads":1,"ts":10},
            {"kind":"snapshot_fallback","seq":2,"txn":22,"ts":11}
        ]}"#;
        assert!(validate(both).unwrap_err().contains("both completed"));
    }

    #[test]
    fn validate_rejects_broken_traces() {
        // Dangling begin.
        let dangling = r#"{"version":1,"dropped":0,"events":[
            {"kind":"txn_begin","seq":1,"txn":10,"ts":5},
            {"kind":"doom_edge","seq":2,"doomer":11,"victim":10,"class":"map","lock":"key","key_hash":0,"obs":"Key","effect":"KeyWrite","compatible":false}
        ]}"#;
        assert!(validate(dangling).unwrap_err().contains("dangling"));

        // Abort blames a transaction no edge names.
        let misattributed = r#"{"version":1,"dropped":0,"events":[
            {"kind":"txn_begin","seq":1,"txn":10,"ts":5},
            {"kind":"doom_edge","seq":2,"doomer":11,"victim":10,"class":"map","lock":"key","key_hash":0,"obs":"Key","effect":"KeyWrite","compatible":false},
            {"kind":"txn_abort","seq":3,"txn":10,"cause":"doomed","culprit":77,"ts":9}
        ]}"#;
        assert!(validate(misattributed).unwrap_err().contains("blames 77"));

        // A compatible "doom" is a protocol bug by definition.
        let compat = r#"{"version":1,"dropped":0,"events":[
            {"kind":"doom_edge","seq":1,"doomer":11,"victim":10,"class":"map","lock":"key","key_hash":0,"obs":"Key","effect":"KeyWrite","compatible":true}
        ]}"#;
        assert!(validate(compat).unwrap_err().contains("compatible"));

        // No doom edge at all: the traced soak failed its purpose.
        let empty = r#"{"version":1,"dropped":0,"events":[]}"#;
        assert!(validate(empty).unwrap_err().contains("no doom edge"));
    }

    const SCRAPE_1: &str = "\
# HELP stm_events_total Dimensional STM runtime events.\n\
# TYPE stm_events_total counter\n\
stm_events_total{class=\"map\",stripe=\"3\",kind=\"doom\"} 4\n\
# TYPE stm_commit_latency_ns histogram\n\
stm_commit_latency_ns_bucket{le=\"1023\"} 2\n\
stm_commit_latency_ns_bucket{le=\"+Inf\"} 3\n\
stm_commit_latency_ns_sum 2400\n\
stm_commit_latency_ns_count 3\n";

    const SCRAPE_2: &str = "\
# HELP stm_events_total Dimensional STM runtime events.\n\
# TYPE stm_events_total counter\n\
stm_events_total{class=\"map\",stripe=\"3\",kind=\"doom\"} 9\n\
stm_events_total{class=\"map\",stripe=\"5\",kind=\"doom\"} 1\n\
# TYPE stm_commit_latency_ns histogram\n\
stm_commit_latency_ns_bucket{le=\"1023\"} 5\n\
stm_commit_latency_ns_bucket{le=\"+Inf\"} 7\n\
stm_commit_latency_ns_sum 7100\n\
stm_commit_latency_ns_count 7\n";

    #[test]
    fn prometheus_monotone_scrapes_validate() {
        let summary = validate_prometheus(SCRAPE_1, SCRAPE_2).unwrap();
        assert!(summary.contains("monotone"), "{summary}");
    }

    #[test]
    fn prometheus_validator_rejects_regressions() {
        // A counter going backwards between scrapes.
        assert!(validate_prometheus(SCRAPE_2, SCRAPE_1)
            .unwrap_err()
            .contains("went backwards"));

        // A series vanishing between scrapes.
        let missing = SCRAPE_2.replace(
            "stm_events_total{class=\"map\",stripe=\"5\",kind=\"doom\"} 1\n",
            "",
        );
        assert!(validate_prometheus(SCRAPE_2, &missing)
            .unwrap_err()
            .contains("vanished"));

        // +Inf bucket disagreeing with _count.
        let torn = SCRAPE_2.replace(
            "stm_commit_latency_ns_count 7",
            "stm_commit_latency_ns_count 9",
        );
        assert!(validate_prometheus(SCRAPE_1, &torn)
            .unwrap_err()
            .contains("+Inf"));

        // Non-cumulative buckets.
        let shrink = SCRAPE_2.replace(
            "stm_commit_latency_ns_bucket{le=\"+Inf\"} 7",
            "stm_commit_latency_ns_bucket{le=\"+Inf\"} 4",
        );
        assert!(validate_prometheus(SCRAPE_1, &shrink)
            .unwrap_err()
            .contains("cumulative"));

        // Lexical garbage.
        assert!(parse_prometheus("stm_events_total{unclosed 4\n").is_err());
        assert!(parse_prometheus("stm_events_total four\n").is_err());
        assert!(parse_prometheus("# TYPE stm_events_total frobnitz\n").is_err());
    }
}
