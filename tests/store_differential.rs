//! Differential validation of the SI protocol over every [`VersionStore`].
//!
//! Two obligations, one per execution regime, written once and
//! instantiated for the global-lock, lock-striped and lock-free stores:
//!
//! * **Deterministic** — driven by the [`Scheduler`], a
//!   [`StoreSiEngine`] must be *observationally identical* to the
//!   reference [`SiEngine`]: the recorded history serialises to
//!   byte-identical JSON and the run counters match, for every seed,
//!   workload shape, stripe count and GC interval. Striping, atomic
//!   version chains, the completion ring and epoch GC / reclamation are
//!   pure synchronisation changes; any visible divergence is a bug.
//! * **Concurrent** — under the real multi-threaded stress harness the
//!   interleaving is no longer deterministic, so there is no reference
//!   run to compare against. Instead every recorded run must satisfy the
//!   paper's ground truth: the Definition 4 axiom instantiation of SI
//!   and membership in `GraphSI` (Theorem 9).

use analysing_si::analysis::check_si;
use analysing_si::depgraph::extract;
use analysing_si::execution::SpecModel;
use analysing_si::mvcc::{
    stress, Engine, GcStats, GlobalLockStore, LockFreeStore, LockFreeStoreConfig, RunResult,
    Scheduler, SchedulerConfig, ShardedStore, ShardedStoreConfig, SiEngine, StoreSiEngine,
    StressConfig, StressEngine, VersionStore, Workload,
};
use analysing_si::workloads::random::{random_mix, RandomMix};
use proptest::prelude::*;

/// A store under test: how the generated knobs become its config and
/// its stress back-end, and what eager GC must have left behind.
trait Subject: VersionStore {
    fn config(shards: usize, gc_interval: u64) -> Self::Config;
    fn stress_engine(shards: usize, gc_interval: u64) -> StressEngine;
    /// Checked after a scheduled run at `gc_interval: 1` that committed.
    fn assert_collected(store: &Self);
}

impl Subject for GlobalLockStore {
    fn config(_shards: usize, _gc_interval: u64) {}
    fn stress_engine(_shards: usize, _gc_interval: u64) -> StressEngine {
        StressEngine::SingleLock
    }
    fn assert_collected(store: &Self) {
        assert_eq!(store.gc_stats(), GcStats::default(), "the global-lock store never prunes");
    }
}

impl Subject for ShardedStore {
    fn config(shards: usize, gc_interval: u64) -> ShardedStoreConfig {
        ShardedStoreConfig { shards, gc_interval, ..Default::default() }
    }
    fn stress_engine(shards: usize, gc_interval: u64) -> StressEngine {
        StressEngine::Sharded { shards, gc_interval }
    }
    fn assert_collected(store: &Self) {
        assert!(store.gc_stats().passes > 0, "GC never ran");
    }
}

impl Subject for LockFreeStore {
    fn config(_shards: usize, gc_interval: u64) -> LockFreeStoreConfig {
        LockFreeStoreConfig { gc_interval, ..Default::default() }
    }
    fn stress_engine(_shards: usize, gc_interval: u64) -> StressEngine {
        StressEngine::LockFree { gc_interval }
    }
    fn assert_collected(store: &Self) {
        assert!(store.gc_stats().passes > 0, "GC never ran");
        // The arena must actually recycle nodes, or the epoch fence
        // never cleared.
        assert!(store.arena_stats().recycled > 0, "no node was ever recycled");
    }
}

fn scheduled(seed: u64, engine: &mut impl Engine, w: &Workload) -> RunResult {
    Scheduler::new(SchedulerConfig { seed, ..Default::default() }).run(engine, w)
}

/// Runs `mix` on the reference engine and on `S` under the same
/// scheduler seed; the two recordings must be byte-identical.
fn assert_identical_to_reference<S: Subject>(
    mix: &RandomMix,
    config: S::Config,
) -> (StoreSiEngine<S>, RunResult) {
    let w = random_mix(mix);
    let reference = scheduled(mix.seed, &mut SiEngine::new(mix.objects), &w);
    let mut engine = StoreSiEngine::<S>::with_config(mix.objects, config);
    let run = scheduled(mix.seed, &mut engine, &w);
    assert_eq!(
        serde_json::to_string(&run.history).unwrap(),
        serde_json::to_string(&reference.history).unwrap(),
        "{}: recorder output diverged",
        S::NAME
    );
    assert_eq!(run.stats, reference.stats, "{}", S::NAME);
    (engine, run)
}

/// The GC-on-every-install configuration is the most adversarial: the
/// store prunes (cuts and retires) as eagerly as the live-snapshot floor
/// allows while the scheduler holds snapshots open. Identity must still
/// hold, and the collector must actually have run.
fn eager_gc_does_not_change_observable_behaviour<S: Subject>() {
    for seed in 0..40 {
        let mix =
            RandomMix { seed, sessions: 3, txs_per_session: 6, objects: 4, ..Default::default() };
        let (engine, run) = assert_identical_to_reference::<S>(&mix, S::config(3, 1));
        if run.stats.committed > 0 {
            S::assert_collected(engine.store());
        }
    }
}

/// Ground truth: concurrent runs are legal SI executions.
fn concurrent_run_satisfies_si_axioms_and_graph(config: &StressConfig, engine: StressEngine) {
    let outcome = stress(config, engine);
    assert!(SpecModel::Si.check(&outcome.result.execution).is_ok(), "axioms failed");
    let g = extract(&outcome.result.execution).unwrap();
    assert!(check_si(&g).is_ok(), "left GraphSI");
}

/// The whole suite, once per store.
macro_rules! store_suite {
    ($($module:ident: $store:ty),* $(,)?) => {$(
        mod $module {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]

                #[test]
                fn scheduled_runs_are_byte_identical_to_reference(
                    seed in 0u64..500,
                    sessions in 2usize..5,
                    txs in 2usize..6,
                    objects in 2usize..9,
                    read_pct in 0u32..80,
                    shards in 1usize..6,
                    gc_interval in 0u64..3,
                ) {
                    let read_ratio = f64::from(read_pct) / 100.0;
                    let mix = RandomMix {
                        seed, sessions, txs_per_session: txs, objects, read_ratio,
                        ..Default::default()
                    };
                    let config = <$store>::config(shards, gc_interval);
                    assert_identical_to_reference::<$store>(&mix, config);
                }

                #[test]
                fn concurrent_runs_satisfy_si_axioms_and_graph(
                    seed in 0u64..200,
                    threads in 2usize..5,
                    shards in 1usize..5,
                    hot in any::<bool>(),
                ) {
                    let config = if hot {
                        StressConfig::high_contention(threads, 12, seed)
                    } else {
                        StressConfig::low_contention(threads, 12, seed)
                    };
                    let engine = <$store>::stress_engine(shards, 16);
                    concurrent_run_satisfies_si_axioms_and_graph(&config, engine);
                }
            }

            #[test]
            fn eager_gc_does_not_change_observable_behaviour() {
                super::eager_gc_does_not_change_observable_behaviour::<$store>();
            }
        }
    )*};
}

store_suite!(global_lock: GlobalLockStore, sharded: ShardedStore, lockfree: LockFreeStore);
