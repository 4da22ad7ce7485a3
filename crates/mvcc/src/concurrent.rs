//! Concurrent stress harness: many OS threads hammering one SI protocol
//! instance over a chosen [`VersionStore`].
//!
//! The deterministic [`Scheduler`](crate::Scheduler) is the primary
//! validation tool; this module complements it with *real-concurrency*
//! runs — threads interleave nondeterministically and the run is
//! validated after the fact exactly like a scheduled run (the paper's
//! soundness theorems are what license checking post hoc instead of
//! serialising the engine). One generic `worker` spells the protocol out
//! once; [`StressEngine`] only selects which store it runs over:
//!
//! * [`StressEngine::SingleLock`] — the [`GlobalLockStore`]: the whole
//!   `MultiVersionStore` behind one `RwLock` (reads shared, commit
//!   exclusive). Kept so speedups are *measured against it*, not
//!   asserted.
//! * [`StressEngine::Sharded`] — the lock-striped [`ShardedStore`]:
//!   per-shard `RwLock`s, ascending-order multi-shard commit locking,
//!   watermark publication and epoch GC (see [`crate::shard`]).
//! * [`StressEngine::LockFree`] — the [`LockFreeStore`]: CAS-installed
//!   atomic version chains (readers take no lock at all),
//!   completion-ring watermark publication and epoch-deferred node
//!   reclamation (see [`crate::lockfree`]).
//!
//! Whatever the store, commit records go to a *thread-local* buffer and
//! are merged into one [`Recorder`] after the threads join, so the timed
//! window holds store work only and the three throughputs compare like
//! with like. Each record's snapshot is a constant-size
//! [`VisibleSet::Prefix`], not an enumerated visible set (a 10^5-commit
//! run would otherwise materialise `Θ(n²)` sequence numbers). Per-session
//! commit-seq monotonicity is still enforced: the merge replays each
//! thread's buffer in order through [`Recorder::record`], which panics on
//! any regression.
//!
//! [`stress`] runs a configurable workload (threads × contention ×
//! read/write mix) against the chosen store and reports the validated
//! [`RunResult`] plus wall-clock throughput of the execution phase, so
//! the `engine_throughput` bench can emit honest scaling curves.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use si_model::{History, Obj, Op, Value};

use crate::lockfree::{LockFreeStore, LockFreeStoreConfig};
use crate::probe::{EngineProbe, ProbeEvent};
use crate::recorder::{CommittedTx, Recorder, RunResult, RunStats, VisibleSet};
use crate::shard::{ShardedStore, ShardedStoreConfig};
use crate::version_store::{GcStats, GlobalLockStore, VersionStore};

/// Workload shape for [`stress`]: how many threads, how much work, how
/// skewed the object accesses, how write-heavy the transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressConfig {
    /// Objects in the store.
    pub object_count: usize,
    /// OS threads; each thread is one session.
    pub threads: usize,
    /// Transactions each thread must *commit* (aborts are retried).
    pub txs_per_thread: usize,
    /// Read-modify-write steps per transaction.
    pub ops_per_tx: usize,
    /// Probability that a step writes back `value + 1` after reading.
    pub write_ratio: f64,
    /// Probability that a step targets the hot set instead of the whole
    /// object space (0.0 = uniform).
    pub hot_ratio: f64,
    /// Size of the hot set (objects `0..hot_objects`).
    pub hot_objects: usize,
    /// Probability a transaction is abandoned mid-flight (failure
    /// injection; abandoned attempts do not count towards the quota).
    pub abort_ratio: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl StressConfig {
    /// Low contention: uniform access over a wide object space, so
    /// first-committer-wins conflicts are rare and parallelism is real.
    pub fn low_contention(threads: usize, txs_per_thread: usize, seed: u64) -> Self {
        StressConfig {
            object_count: 1024,
            threads,
            txs_per_thread,
            ops_per_tx: 4,
            write_ratio: 0.5,
            hot_ratio: 0.0,
            hot_objects: 0,
            abort_ratio: 0.02,
            seed,
        }
    }

    /// High contention: most steps hit a four-object hot set, so commit
    /// validation conflicts (and retries) dominate.
    pub fn high_contention(threads: usize, txs_per_thread: usize, seed: u64) -> Self {
        StressConfig {
            object_count: 64,
            threads,
            txs_per_thread,
            ops_per_tx: 4,
            write_ratio: 0.5,
            hot_ratio: 0.8,
            hot_objects: 4,
            abort_ratio: 0.02,
            seed,
        }
    }
}

/// Which store [`stress`] runs the protocol over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressEngine {
    /// The [`GlobalLockStore`], one `RwLock` around everything: the
    /// measured baseline.
    SingleLock,
    /// The lock-striped [`ShardedStore`].
    Sharded {
        /// Lock stripes.
        shards: usize,
        /// Installs per shard between GC passes (0 disables GC).
        gc_interval: u64,
    },
    /// The [`LockFreeStore`]: no locks on reads, CAS commits,
    /// epoch-deferred reclamation.
    LockFree {
        /// Installs between GC passes (0 disables GC).
        gc_interval: u64,
    },
}

/// A finished stress run: the validated result plus the measured
/// execution phase.
#[derive(Debug, Clone)]
pub struct StressOutcome {
    /// The recorded run (history, ground-truth execution, counters),
    /// built *after* the timed window.
    pub result: RunResult,
    /// Wall-clock duration of the execution phase (thread spawn to
    /// join); excludes post-run merging and validation.
    pub elapsed: Duration,
    /// Committed transactions per second of the execution phase.
    pub throughput_tps: f64,
    /// Garbage-collection counters (zero for the single-lock baseline,
    /// which never prunes).
    pub gc: GcStats,
}

/// One buffered commit; the snapshot stays a plain watermark — the
/// recorder receives it as a [`VisibleSet::Prefix`] at merge time.
struct LocalCommit {
    ops: Vec<Op>,
    seq: u64,
    snapshot: u64,
}

/// What one worker hands back after the join.
#[derive(Default)]
struct LocalLog {
    commits: Vec<LocalCommit>,
    aborted: u64,
    ops_executed: u64,
}

fn pick_object(rng: &mut StdRng, cfg: &StressConfig) -> Obj {
    let hot = cfg.hot_objects.min(cfg.object_count);
    if hot > 0 && cfg.hot_ratio > 0.0 && rng.gen_bool(cfg.hot_ratio) {
        Obj::from_index(rng.gen_range(0..hot))
    } else {
        Obj::from_index(rng.gen_range(0..cfg.object_count))
    }
}

/// One thread's workload loop, and the one place the harness spells out
/// the SI protocol: seeded read-modify-write transactions (own writes
/// first, then the snapshot) with failure injection; FCW-refused commits
/// are retried until the quota is met.
fn worker<S: VersionStore>(
    store: &S,
    probe: &EngineProbe,
    cfg: &StressConfig,
    session: usize,
) -> LocalLog {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (session as u64).wrapping_mul(0x9e37));
    let mut log = LocalLog::default();
    while log.commits.len() < cfg.txs_per_thread {
        let inject_abort = cfg.abort_ratio > 0.0 && rng.gen_bool(cfg.abort_ratio);
        let snapshot = store.begin_snapshot(session);
        probe.emit(|| ProbeEvent::SnapshotPrefix { session, upto: snapshot });
        let mut writes = BTreeMap::new();
        let mut ops = Vec::with_capacity(cfg.ops_per_tx * 2);
        for _ in 0..cfg.ops_per_tx {
            let obj = pick_object(&mut rng, cfg);
            let read = match writes.get(&obj) {
                Some(&own) => own,
                None => {
                    let version = store.read_at(obj, snapshot);
                    probe.emit(|| ProbeEvent::VersionObserved {
                        session,
                        obj,
                        seq: version.commit_seq,
                    });
                    version.value
                }
            };
            ops.push(Op::Read(obj, read));
            if cfg.write_ratio > 0.0 && rng.gen_bool(cfg.write_ratio) {
                let written = Value(read.0 + 1);
                writes.insert(obj, written);
                ops.push(Op::Write(obj, written));
            }
        }
        if inject_abort {
            // Abandoned mid-flight; does not count towards the quota.
            store.end_snapshot(session);
            probe.emit(|| ProbeEvent::AttemptDiscarded { session });
            continue;
        }
        match store.commit(session, snapshot, &writes, probe) {
            Ok(seq) => {
                probe.emit(|| ProbeEvent::Committed { session, seq });
                log.ops_executed += ops.len() as u64;
                log.commits.push(LocalCommit { ops, seq, snapshot });
            }
            Err(_) => {
                probe.emit(|| ProbeEvent::AttemptDiscarded { session });
                log.aborted += 1;
            }
        }
    }
    log
}

/// Committed transactions per second of an execution phase.
fn throughput_tps(committed: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        committed as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// The execution phase over one store: spawn a worker per thread, time
/// spawn to join, then merge the buffers in session order (snapshots
/// become constant-size [`VisibleSet::Prefix`] records;
/// `Recorder::record` re-asserts per-session monotonicity).
fn drive<S: VersionStore>(
    store: &S,
    config: &StressConfig,
    probe: &EngineProbe,
) -> (Recorder, Duration, GcStats) {
    let start = Instant::now();
    let logs: Vec<LocalLog> = crossbeam::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|session| scope.spawn(move |_| worker(store, probe, config, session)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("stress thread panicked")).collect()
    })
    .expect("stress thread panicked");
    let elapsed = start.elapsed();

    let mut recorder = Recorder::new();
    for (session, log) in logs.into_iter().enumerate() {
        recorder.stats.aborted += log.aborted;
        recorder.stats.ops_executed += log.ops_executed;
        for c in log.commits {
            recorder.stats.committed += 1;
            recorder.record(CommittedTx {
                session,
                ops: c.ops,
                seq: c.seq,
                visible: VisibleSet::Prefix(c.snapshot),
            });
        }
    }
    (recorder, elapsed, store.gc_stats())
}

/// Runs the configured workload against the chosen back-end and returns
/// the validated result plus execution-phase timing. See [`StressConfig`]
/// and [`StressEngine`].
///
/// # Panics
///
/// Panics if the config is degenerate (zero objects, threads, quota or
/// steps) or a worker thread panics.
pub fn stress(config: &StressConfig, engine: StressEngine) -> StressOutcome {
    stress_probed(config, engine, EngineProbe::disabled())
}

/// [`stress`] with a probe attached: every snapshot, version
/// observation, shard-lock acquisition, install, GC prune, commit, and
/// discarded attempt is reported to the sink. Events from different
/// threads are linearised by the sink, not by a global protocol lock, so
/// consume them with order-insensitive analyses (counting, per-session
/// projections) — the deterministic sanitizer is the tool for
/// order-sensitive auditing.
pub fn stress_probed(
    config: &StressConfig,
    engine: StressEngine,
    probe: EngineProbe,
) -> StressOutcome {
    let initial_values = vec![Value::INITIAL; config.object_count];
    let (recorder, elapsed, gc) = run_stress(config, engine, &probe);
    let result = recorder.finish(&initial_values, config.threads);
    StressOutcome {
        throughput_tps: throughput_tps(result.stats.committed, elapsed),
        result,
        elapsed,
        gc,
    }
}

/// A stress run recorded without ground-truth relations: the history,
/// counters and execution-phase timing, nothing `Θ(n²)`.
#[derive(Debug, Clone)]
pub struct StressHistory {
    /// The client-visible history (init transaction first).
    pub history: History,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Wall-clock duration of the execution phase (thread spawn to
    /// join); excludes post-run merging.
    pub elapsed: Duration,
    /// Committed transactions per second of the execution phase.
    pub throughput_tps: f64,
    /// Garbage-collection counters (zero for the single-lock baseline).
    pub gc: GcStats,
}

/// [`stress`] without the ground-truth execution: dense VIS/CO matrices
/// are `Θ(n²)` bits and their validation is worse, so the 10^5-tx
/// solver smokes and the 10^6-tx bench cells record the history alone —
/// membership certification rebuilds its own evidence (si-solve) rather
/// than trusting engine-reported relations anyway.
pub fn stress_history_only(config: &StressConfig, engine: StressEngine) -> StressHistory {
    let initial_values = vec![Value::INITIAL; config.object_count];
    let (recorder, elapsed, gc) = run_stress(config, engine, &EngineProbe::disabled());
    let (history, stats, _metrics) = recorder.finish_history_only(&initial_values, config.threads);
    StressHistory {
        history,
        stats,
        elapsed,
        throughput_tps: throughput_tps(stats.committed, elapsed),
        gc,
    }
}

/// Checks the config and builds the store [`StressEngine`] names; the
/// execution phase itself is [`drive`].
fn run_stress(
    config: &StressConfig,
    engine: StressEngine,
    probe: &EngineProbe,
) -> (Recorder, Duration, GcStats) {
    assert!(config.object_count > 0, "need at least one object");
    assert!(config.threads > 0, "need at least one thread");
    assert!(config.txs_per_thread > 0, "need a per-thread commit quota");
    assert!(config.ops_per_tx > 0, "transactions need at least one step");

    let (objects, sessions) = (config.object_count, config.threads);
    match engine {
        StressEngine::SingleLock => drive(&GlobalLockStore::new(objects, ()), config, probe),
        StressEngine::Sharded { shards, gc_interval } => {
            let store_config = ShardedStoreConfig { shards, gc_interval, sessions };
            drive(&ShardedStore::new(objects, store_config), config, probe)
        }
        StressEngine::LockFree { gc_interval } => {
            let store_config = LockFreeStoreConfig { gc_interval, sessions };
            drive(&LockFreeStore::new(objects, store_config), config, probe)
        }
    }
}

/// Runs `threads` OS threads against the single-lock baseline, each
/// performing `txs_per_thread` read-modify-write transactions on random
/// objects (each thread is one session). A fraction of transactions is
/// deliberately abandoned mid-flight (failure injection); aborted commits
/// are retried indefinitely.
///
/// Returns the recorded run, validated by the caller (tests assert the
/// result is a legal SI execution). For configurable thread counts,
/// contention and back-ends, use [`stress`].
///
/// # Panics
///
/// Panics if `object_count` is zero or a thread panics.
pub fn stress_si_engine(
    object_count: usize,
    threads: usize,
    txs_per_thread: usize,
    seed: u64,
) -> RunResult {
    stress_si_engine_probed(object_count, threads, txs_per_thread, seed, EngineProbe::disabled())
}

/// [`stress_si_engine`] with a probe attached; see [`stress_probed`] for
/// the trace's ordering caveats.
pub fn stress_si_engine_probed(
    object_count: usize,
    threads: usize,
    txs_per_thread: usize,
    seed: u64,
    probe: EngineProbe,
) -> RunResult {
    let config = StressConfig {
        object_count,
        threads,
        txs_per_thread,
        ops_per_tx: 1,
        write_ratio: 1.0,
        hot_ratio: 0.0,
        hot_objects: 0,
        abort_ratio: 0.1,
        seed,
    };
    stress_probed(&config, StressEngine::SingleLock, probe).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::VecProbe;
    use si_execution::SpecModel;
    use std::sync::Arc;

    /// One row per store; every table-driven test below runs all three.
    const ENGINES: [StressEngine; 3] = [
        StressEngine::SingleLock,
        StressEngine::Sharded { shards: 2, gc_interval: 16 },
        StressEngine::LockFree { gc_interval: 16 },
    ];

    /// Single-step increment transactions: every commit adds exactly one
    /// to exactly one counter.
    fn increments(object_count: usize, threads: usize, txs_per_thread: usize) -> StressConfig {
        StressConfig {
            object_count,
            threads,
            txs_per_thread,
            ops_per_tx: 1,
            write_ratio: 1.0,
            hot_ratio: 0.0,
            hot_objects: 0,
            abort_ratio: 0.1,
            seed: 99,
        }
    }

    fn probed(config: &StressConfig, engine: StressEngine) -> (StressOutcome, Vec<ProbeEvent>) {
        let sink = Arc::new(VecProbe::new());
        let out = stress_probed(config, engine, EngineProbe::new(sink.clone()));
        (out, sink.drain())
    }

    #[test]
    fn concurrent_run_is_a_legal_si_execution() {
        let result = stress_si_engine(4, 4, 25, 0xC0FFEE);
        assert_eq!(result.stats.committed, 100);
        assert!(SpecModel::Si.check(&result.execution).is_ok());
    }

    #[test]
    fn stress_runs_are_legal_si_executions() {
        let config = StressConfig {
            object_count: 8,
            threads: 4,
            txs_per_thread: 25,
            ops_per_tx: 2,
            write_ratio: 0.7,
            hot_ratio: 0.5,
            hot_objects: 2,
            abort_ratio: 0.05,
            seed: 0xBEEF,
        };
        for engine in ENGINES {
            let out = stress(&config, engine);
            assert_eq!(out.result.stats.committed, 100, "{engine:?}");
            assert!(SpecModel::Si.check(&out.result.execution).is_ok(), "{engine:?}");
        }
    }

    #[test]
    fn counters_never_lose_updates() {
        // The sum of final values must equal the committed count, i.e.
        // first-committer-wins held across shards, CAS races and threads.
        let config = increments(4, 4, 25);
        for engine in ENGINES {
            let out = stress(&config, engine);
            let history = &out.result.history;
            let mut finals = [Value::INITIAL; 4];
            // Replay the version order: the last committed write per object.
            for i in 1..history.tx_count() {
                let t = history.transaction(si_relations::TxId::from_index(i));
                for op in t.ops() {
                    if op.is_write() {
                        finals[op.obj().index()] = op.value();
                    }
                }
            }
            let total: u64 = finals.iter().map(|v| v.0).sum();
            assert_eq!(total, out.result.stats.committed, "{engine:?}");
        }
    }

    #[test]
    fn probed_run_reports_every_commit() {
        for engine in ENGINES {
            let (out, events) = probed(&increments(2, 2, 10), engine);
            let commits =
                events.iter().filter(|e| matches!(e, ProbeEvent::Committed { .. })).count() as u64;
            assert_eq!(commits, out.result.stats.committed, "{engine:?}");
            // Installs are published before the commit fence: every
            // Committed { seq } is preceded in the log by its installs.
            for (i, e) in events.iter().enumerate() {
                if let ProbeEvent::Committed { seq, .. } = e {
                    let installed = events[..i].iter().any(
                        |p| matches!(p, ProbeEvent::VersionInstalled { seq: s, .. } if s == seq),
                    );
                    assert!(installed, "{engine:?}: commit {seq} published before its installs");
                }
            }
        }
    }

    #[test]
    fn commit_sequence_is_dense_and_duplicate_free() {
        // Regression for the commit-counter publication protocol: the
        // `load(Relaxed) + 1 … store(Release)` pair in
        // `GlobalLockStore::commit` relies on the exclusive store lock
        // for mutual exclusion. If that coupling ever broke (an unlocked
        // fast path, or a `fetch_add` moved before the installs),
        // concurrent committers would mint duplicate or gapped sequence
        // numbers, or publish a sequence number whose versions are not
        // yet installed. The other two stores allocate by `fetch_add`
        // after validation and owe the same density.
        for engine in ENGINES {
            let (out, events) = probed(&increments(4, 8, 50), engine);
            let committed = out.result.stats.committed;
            let mut seqs: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    ProbeEvent::Committed { seq, .. } => Some(*seq),
                    _ => None,
                })
                .collect();
            seqs.sort_unstable();
            let expected: Vec<u64> = (1..=committed).collect();
            assert_eq!(seqs, expected, "{engine:?}: commit sequence must be exactly 1..=committed");
            // Every installed version belongs to a committed transaction —
            // no version was minted under a sequence number that never
            // published.
            for e in &events {
                if let ProbeEvent::VersionInstalled { seq, .. } = e {
                    assert!(*seq >= 1 && *seq <= committed, "{engine:?}: orphaned install {seq}");
                }
            }
        }
    }

    #[test]
    fn stress_exercises_gc_where_the_store_collects() {
        let config = StressConfig { abort_ratio: 0.0, ..increments(4, 2, 50) };
        for engine in [
            StressEngine::Sharded { shards: 2, gc_interval: 4 },
            StressEngine::LockFree { gc_interval: 4 },
        ] {
            let out = stress(&config, engine);
            assert!(out.gc.passes > 0, "{engine:?}: GC never fired under stress");
            assert!(SpecModel::Si.check(&out.result.execution).is_ok(), "{engine:?}");
        }
        assert_eq!(stress(&config, StressEngine::SingleLock).gc, GcStats::default());
    }

    #[test]
    fn all_three_stores_meet_the_same_quota() {
        for seed in [0xD0_0D, 0xD00E] {
            let config = StressConfig::high_contention(3, 15, seed);
            for engine in ENGINES {
                let out = stress(&config, engine);
                assert_eq!(out.result.stats.committed, 45, "{engine:?}");
                assert!(SpecModel::Si.check(&out.result.execution).is_ok(), "{engine:?}");
            }
        }
    }
}
