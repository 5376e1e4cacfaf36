//! TCC-mode engine: optimistic transactions with commit-time violation.

use crate::{ABORT_PENALTY, TXN_OVERHEAD};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use stm::hash::VarIdSet;
use stm::{AbortCause, PreparedTxn, VarId};

/// A transactional workload driven by the TM engine.
///
/// Bodies must be **re-executable** (they re-run after violations) and
/// **deterministic given host execution order** — shared state may evolve
/// between attempts, but no wall-clock or host-thread dependence.
pub trait TmWorkload {
    /// Number of transactions CPU `cpu` executes.
    fn txn_count(&self, cpu: usize) -> usize;
    /// Execute transaction `seq` of CPU `cpu`. Charge think time via
    /// [`crate::think`]; `TVar` accesses are charged automatically.
    fn run(&self, cpu: usize, seq: usize, tx: &mut stm::Txn);
}

/// Outcome of a TM-mode simulation.
#[derive(Debug, Clone, Default)]
pub struct TmResult {
    /// Virtual cycles from start until the last commit.
    pub makespan: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Violations (aborted attempts), by cause.
    pub violations_memory: u64,
    /// Violations caused by program-directed abort (semantic conflicts).
    pub violations_semantic: u64,
    /// Silent replays: the conflicting read would not yet have happened at
    /// the committer's broadcast, so real TCC hardware would simply have the
    /// reader observe the new value when it got there. The simulator re-runs
    /// the body for functional consistency without charging lost time.
    pub replays: u64,
    /// Self-aborts: the body aborted itself (pessimistic conflict detection
    /// or explicit retry); the CPU waits for the next commit before trying
    /// again.
    pub self_aborts: u64,
    /// Virtual cycles CPUs spent waiting to retry after a self-abort.
    pub waiting_cycles: u64,
    /// Virtual cycles of discarded (violated) execution.
    pub lost_cycles: u64,
    /// Virtual cycles of committed execution.
    pub useful_cycles: u64,
    /// Lost cycles attributed to the variable whose read/write overlap
    /// caused each memory violation (TAPE-style conflict profiling,
    /// paper §6.3). Label vars with [`stm::TVar::set_label`] or whole
    /// blocks of cells with [`stm::label_owner`] to name them.
    /// Keys are addresses: [`TmResult::top_conflict_sources`] names them.
    pub conflict_sources: HashMap<VarId, u64>,
}

/// The row of [`TmResult::top_conflict_sources`] that sums every var
/// without a live label; it ranks after every labelled row.
pub const UNLABELLED: &str = "(unlabelled vars)";

impl TmResult {
    /// The top-`n` conflict sources as `(label, lost cycles)`: labelled
    /// sources by lost cycles, then one [`UNLABELLED`] row.
    ///
    /// A [`VarId`] is the var's address, so a label names its row exactly
    /// only for a var labelled before the run and still alive: call this
    /// while the workload's structures are in scope. Every other var —
    /// unlabelled, or dropped since — adds to the `UNLABELLED` row, so the
    /// rows never depend on where the allocator placed a var. That row
    /// names no location, so it ranks after every labelled source.
    pub fn top_conflict_sources(&self, n: usize) -> Vec<(String, u64)> {
        // Labels may be shared by several vars (e.g. all districts' order
        // tables): aggregate.
        let mut agg: HashMap<String, u64> = HashMap::new();
        for (id, lost) in &self.conflict_sources {
            let name = stm::var_label(*id).unwrap_or_else(|| UNLABELLED.to_owned());
            *agg.entry(name).or_default() += lost;
        }
        let mut out: Vec<(String, u64)> = agg.into_iter().collect();
        out.sort_by(|a, b| {
            (a.0 == UNLABELLED)
                .cmp(&(b.0 == UNLABELLED))
                .then(b.1.cmp(&a.1))
                .then(a.0.cmp(&b.0))
        });
        out.truncate(n);
        out
    }
}

struct InFlight {
    cpu: usize,
    seq: usize,
    attempt: u32,
    start: u64,
    commit_at: u64,
    prepared: PreparedTxn,
    /// Read footprint with body-cycle offsets: the read of var `v` occurs at
    /// virtual time `start + offset`.
    reads: Vec<(VarId, u64)>,
    writes: Vec<VarId>,
}

/// Run `workload` on `cpus` virtual CPUs under TCC semantics; see the crate
/// docs for the model.
pub fn run_tm(cpus: usize, workload: &dyn TmWorkload) -> TmResult {
    assert!(cpus > 0, "need at least one CPU");
    let mut result = TmResult::default();
    // Commit events ordered by (time, cpu) for determinism.
    let mut events: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut slots: Vec<Option<InFlight>> = Vec::with_capacity(cpus);
    let mut next_seq: Vec<usize> = vec![0; cpus];

    // CPUs whose last speculation self-aborted (pessimistic lock conflict,
    // explicit retry): they wait for the next commit event, which may
    // release whatever they were waiting on.
    let mut blocked: Vec<(usize, usize, u32, u64)> = Vec::new();

    let speculate = |cpu: usize, seq: usize, attempt: u32, now: u64| -> Result<InFlight, u64> {
        stm::reset_cost();
        match stm::speculate(|tx| workload.run(cpu, seq, tx), attempt) {
            Ok((_, prepared)) => {
                let cost = stm::take_cost() + TXN_OVERHEAD;
                let reads = prepared.read_offsets();
                let writes = prepared.write_set();
                Ok(InFlight {
                    cpu,
                    seq,
                    attempt,
                    start: now,
                    commit_at: now + cost,
                    prepared,
                    reads,
                    writes,
                })
            }
            Err(_cause) => Err(stm::take_cost()),
        }
    };

    for cpu in 0..cpus {
        slots.push(None);
        if workload.txn_count(cpu) > 0 {
            next_seq[cpu] = 1;
            match speculate(cpu, 0, 0, 0) {
                Ok(inf) => {
                    events.push(Reverse((inf.commit_at, cpu)));
                    slots[cpu] = Some(inf);
                }
                Err(spent) => {
                    result.self_aborts += 1;
                    blocked.push((cpu, 0, 1, spent));
                }
            }
        }
    }

    while let Some(Reverse((t, cpu))) = events.pop() {
        // The event may be stale (the txn was violated and rescheduled).
        let Some(inf) = slots[cpu].take() else {
            continue;
        };
        if inf.commit_at != t {
            slots[cpu] = Some(inf);
            continue;
        }
        // Commit (TCC: committer always wins). The commit phase — applying
        // redo logs and running commit handlers — occupies the CPU too, so
        // its counted cost delays this CPU's next transaction.
        let writes: VarIdSet = inf.writes.iter().copied().collect();
        stm::reset_cost();
        inf.prepared.commit();
        let commit_cost = stm::take_cost();
        let cpu_free_at = t + commit_cost;
        result.commits += 1;
        result.useful_cycles += cpu_free_at - inf.start;
        result.makespan = result.makespan.max(cpu_free_at);

        // Violate in-flight readers of our writes and semantically doomed
        // transactions (our commit handlers just ran and posted dooms). A
        // read counts as performed only if its virtual time `start + offset`
        // precedes this commit broadcast — later reads would simply have
        // seen the new value on real hardware, so the body is replayed
        // against the new state without any time penalty.
        for other in 0..cpus {
            if other == cpu {
                continue;
            }
            let Some(u) = slots[other].take() else {
                continue;
            };
            let touches = u.reads.iter().any(|(v, _)| writes.contains(v));
            let performed_conflict = u
                .reads
                .iter()
                .any(|(v, off)| writes.contains(v) && u.start + off <= t);
            let semantic_conflict = u.prepared.handle().is_doomed();
            if performed_conflict || semantic_conflict {
                let lost = t.saturating_sub(u.start) + ABORT_PENALTY;
                if performed_conflict {
                    result.violations_memory += 1;
                    // Attribute the lost work to the conflicting var(s).
                    for (v, off) in &u.reads {
                        if writes.contains(v) && u.start + off <= t {
                            *result.conflict_sources.entry(*v).or_default() += lost;
                        }
                    }
                } else {
                    result.violations_semantic += 1;
                }
                result.lost_cycles += lost;
                let (ucpu, useq, uattempt) = (u.cpu, u.seq, u.attempt);
                u.prepared.abort(if performed_conflict {
                    AbortCause::ReadInvalid
                } else {
                    AbortCause::Doomed
                });
                match speculate(ucpu, useq, uattempt + 1, t + ABORT_PENALTY) {
                    Ok(fresh) => {
                        events.push(Reverse((fresh.commit_at, ucpu)));
                        slots[ucpu] = Some(fresh);
                    }
                    Err(spent) => {
                        result.self_aborts += 1;
                        blocked.push((ucpu, useq, uattempt + 2, t + spent));
                    }
                }
            } else if touches {
                // Functional replay: keep the virtual timeline, recompute
                // the results against the committed state.
                result.replays += 1;
                let (ucpu, useq, uattempt, ustart) = (u.cpu, u.seq, u.attempt, u.start);
                u.prepared.abort(AbortCause::ReadInvalid);
                match speculate(ucpu, useq, uattempt, ustart) {
                    Ok(mut fresh) => {
                        // The prefix up to the conflicting access is retained
                        // on real hardware; keep the later completion time
                        // but never commit in the past.
                        fresh.commit_at = fresh.commit_at.max(t + 1);
                        events.push(Reverse((fresh.commit_at, ucpu)));
                        slots[ucpu] = Some(fresh);
                    }
                    Err(spent) => {
                        result.self_aborts += 1;
                        blocked.push((ucpu, useq, uattempt + 1, t + spent));
                    }
                }
            } else {
                slots[other] = Some(u);
            }
        }

        // Start this CPU's next transaction once the commit phase is done.
        let seq = next_seq[cpu];
        if seq < workload.txn_count(cpu) {
            next_seq[cpu] = seq + 1;
            match speculate(cpu, seq, 0, cpu_free_at) {
                Ok(fresh) => {
                    events.push(Reverse((fresh.commit_at, cpu)));
                    slots[cpu] = Some(fresh);
                }
                Err(spent) => {
                    result.self_aborts += 1;
                    blocked.push((cpu, seq, 1, t + spent));
                }
            }
        }

        // A commit may have released what blocked CPUs were waiting on:
        // give every blocked CPU another chance now.
        let waiting = std::mem::take(&mut blocked);
        for (bcpu, bseq, battempt, since) in waiting {
            result.waiting_cycles += t.saturating_sub(since);
            match speculate(bcpu, bseq, battempt, t) {
                Ok(fresh) => {
                    events.push(Reverse((fresh.commit_at, bcpu)));
                    slots[bcpu] = Some(fresh);
                }
                Err(_) => {
                    result.self_aborts += 1;
                    blocked.push((bcpu, bseq, battempt + 1, t));
                }
            }
        }
    }

    assert!(
        blocked.is_empty(),
        "simulation ended with permanently blocked CPUs (lock leak?)"
    );

    debug_assert!(slots.iter().all(Option::is_none), "in-flight txns leaked");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::TVar;

    struct CounterWorkload {
        counter: TVar<u64>,
        txns: usize,
        think: u64,
    }

    impl TmWorkload for CounterWorkload {
        fn txn_count(&self, _cpu: usize) -> usize {
            self.txns
        }
        fn run(&self, _cpu: usize, _seq: usize, tx: &mut stm::Txn) {
            crate::think(self.think);
            let v = self.counter.read(tx);
            self.counter.write(tx, v + 1);
        }
    }

    #[test]
    fn single_cpu_commits_everything_without_violations() {
        let w = CounterWorkload {
            counter: TVar::new(0),
            txns: 20,
            think: 100,
        };
        let r = run_tm(1, &w);
        assert_eq!(r.commits, 20);
        assert_eq!(r.violations_memory + r.violations_semantic, 0);
        assert_eq!(w.counter.read_committed(), 20);
    }

    #[test]
    fn contended_counter_serializes_but_stays_correct() {
        let w = CounterWorkload {
            counter: TVar::new(0),
            txns: 10,
            think: 100,
        };
        let r = run_tm(8, &w);
        assert_eq!(r.commits, 80);
        assert!(
            r.violations_memory > 0,
            "all CPUs read/write one counter: violations expected"
        );
        assert_eq!(w.counter.read_committed(), 80, "lost update in simulator");
    }

    #[test]
    fn disjoint_work_scales_linearly() {
        struct Disjoint {
            counters: Vec<TVar<u64>>,
            txns: usize,
        }
        impl TmWorkload for Disjoint {
            fn txn_count(&self, _cpu: usize) -> usize {
                self.txns
            }
            fn run(&self, cpu: usize, _seq: usize, tx: &mut stm::Txn) {
                crate::think(1000);
                let c = &self.counters[cpu];
                let v = c.read(tx);
                c.write(tx, v + 1);
            }
        }
        let mk = |n: usize| Disjoint {
            counters: (0..n).map(|_| TVar::new(0)).collect(),
            txns: 16,
        };
        let w1 = mk(1);
        let r1 = run_tm(1, &w1);
        let w8 = mk(8);
        let r8 = run_tm(8, &w8);
        assert_eq!(r8.violations_memory + r8.violations_semantic, 0);
        // Same per-CPU txn count: 8 CPUs do 8x the work in the same time.
        let speedup = (8.0 * r1.makespan as f64) / r8.makespan as f64;
        assert!(speedup > 7.5, "disjoint speedup only {speedup}");
    }

    #[test]
    fn unlabelled_conflict_sources_share_one_row() {
        let (hot, a, b) = (TVar::new(0u8), TVar::new(0u8), TVar::new(0u8));
        hot.set_label("hot");
        let dropped = {
            let gone = TVar::new(0u8);
            gone.set_label("gone");
            gone.id()
        };
        let r = TmResult {
            conflict_sources: [(hot.id(), 5), (a.id(), 3), (b.id(), 4), (dropped, 1)].into(),
            ..TmResult::default()
        };
        assert_eq!(
            r.top_conflict_sources(8),
            [("hot".to_owned(), 5), (UNLABELLED.to_owned(), 8)],
            "vars without a live label aggregate under one name, ranked last"
        );
        assert_eq!(r.top_conflict_sources(1), [("hot".to_owned(), 5)]);
    }

    #[test]
    fn deterministic_across_runs() {
        // Fresh state per run so results must match exactly.
        let run = || {
            let w = CounterWorkload {
                counter: TVar::new(0),
                txns: 12,
                think: 77,
            };
            let r = run_tm(4, &w);
            (r.makespan, r.commits, r.violations_memory)
        };
        assert_eq!(run(), run());
    }
}
