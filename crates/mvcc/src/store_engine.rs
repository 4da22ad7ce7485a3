//! The SI engine over any [`VersionStore`]: same observable protocol as
//! [`SiEngine`](crate::SiEngine), with the synchronisation substrate a
//! type parameter.

use std::collections::BTreeMap;

use si_model::{Obj, Value};
use si_telemetry::{AbortCause, Event, Telemetry};

use crate::engine::{AbortReason, CommitInfo, Engine, TxToken};
use crate::lockfree::LockFreeStore;
use crate::probe::{EngineProbe, ProbeEvent};
use crate::shard::ShardedStore;
use crate::version_store::{GcStats, GlobalLockStore, VersionStore};

#[derive(Debug)]
struct ActiveTx {
    session: usize,
    snapshot: u64,
    writes: BTreeMap<Obj, Value>,
    finished: bool,
}

/// Strong session snapshot isolation over a concurrent store `S`:
/// snapshot reads, first-committer-wins and prefix visibility exactly as
/// in [`SiEngine`](crate::SiEngine), with `S`'s locking (or lack of it),
/// watermark publication and GC underneath.
///
/// Driven single-threaded (by the [`Scheduler`](crate::Scheduler) or the
/// sanitizer's explorer) the engine is fully deterministic: commits are
/// serial, sequence allocation is contiguous, the watermark never has a
/// hole, and the recorded run is *byte-identical* to the reference
/// engine's — the differential tests assert exactly that for every
/// store. The same store code then runs multi-threaded in the stress
/// harness ([`stress`](crate::stress)), where only the interleaving (not
/// the protocol) changes.
#[derive(Debug)]
pub struct StoreSiEngine<S> {
    store: S,
    active: Vec<ActiveTx>,
    session_high_water: Vec<u64>,
    telemetry: Telemetry,
    probe: EngineProbe,
}

/// SI over the lock-striped [`ShardedStore`] (per-shard locking,
/// watermark publication, epoch GC).
pub type ShardedSiEngine = StoreSiEngine<ShardedStore>;

/// SI over the [`LockFreeStore`] (CAS-installed version chains,
/// completion-ring publication, epoch-deferred reclamation — readers
/// take no lock of any kind).
pub type LockFreeSiEngine = StoreSiEngine<LockFreeStore>;

/// SI over the [`GlobalLockStore`], the single-lock baseline.
pub type GlobalLockSiEngine = StoreSiEngine<GlobalLockStore>;

impl<S: VersionStore> StoreSiEngine<S> {
    /// Creates an engine over `object_count` objects with the store's
    /// default configuration.
    pub fn new(object_count: usize) -> Self {
        Self::with_config(object_count, S::Config::default())
    }

    /// Creates an engine with an explicit store configuration.
    ///
    /// # Panics
    ///
    /// Panics if the store rejects `config` (a zero shard or session
    /// count).
    pub fn with_config(object_count: usize, config: S::Config) -> Self {
        StoreSiEngine {
            store: S::new(object_count, config),
            active: Vec::new(),
            session_high_water: Vec::new(),
            telemetry: Telemetry::disabled(),
            probe: EngineProbe::disabled(),
        }
    }

    /// Read-only access to the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// GC counters accumulated so far.
    pub fn gc_stats(&self) -> GcStats {
        self.store.gc_stats()
    }

    fn tx(&mut self, token: TxToken) -> &mut ActiveTx {
        let tx = &mut self.active[token.raw()];
        assert!(!tx.finished, "transaction already committed or aborted");
        tx
    }
}

impl<S: VersionStore> Engine for StoreSiEngine<S> {
    fn object_count(&self) -> usize {
        self.store.object_count()
    }

    fn set_initial(&mut self, obj: Obj, value: Value) {
        self.store.set_initial(obj, value);
    }

    fn initial(&self, obj: Obj) -> Value {
        self.store.initial(obj)
    }

    fn begin(&mut self, session: usize) -> TxToken {
        if session >= self.session_high_water.len() {
            self.session_high_water.resize(session + 1, 0);
        }
        let snapshot = self.store.begin_snapshot(session);
        // Strong session SI: the monotone watermark covers everything
        // this session previously committed.
        debug_assert!(snapshot >= self.session_high_water[session]);
        self.telemetry.emit(|| Event::TxBegin { session });
        self.probe.emit(|| ProbeEvent::SnapshotPrefix { session, upto: snapshot });
        self.active.push(ActiveTx { session, snapshot, writes: BTreeMap::new(), finished: false });
        TxToken::from_raw(self.active.len() - 1)
    }

    fn read(&mut self, tx: TxToken, obj: Obj) -> Value {
        let (session, snapshot) = {
            let t = self.tx(tx);
            if let Some(&v) = t.writes.get(&obj) {
                return v;
            }
            (t.session, t.snapshot)
        };
        let version = self.store.read_at(obj, snapshot);
        self.probe.emit(|| ProbeEvent::VersionObserved { session, obj, seq: version.commit_seq });
        version.value
    }

    fn write(&mut self, tx: TxToken, obj: Obj, value: Value) {
        self.tx(tx).writes.insert(obj, value);
    }

    fn commit(&mut self, tx: TxToken) -> Result<CommitInfo, AbortReason> {
        let token = tx;
        let (session, snapshot, writes) = {
            let t = self.tx(token);
            (t.session, t.snapshot, t.writes.clone())
        };
        self.active[token.raw()].finished = true;
        let gc_before =
            if self.telemetry.is_enabled() { self.store.gc_stats() } else { GcStats::default() };
        match self.store.commit(session, snapshot, &writes, &self.probe) {
            Err(obj) => {
                self.telemetry.emit(|| Event::TxAbort {
                    session,
                    cause: AbortCause::WwConflict,
                    obj: Some(obj.0),
                });
                self.probe.emit(|| ProbeEvent::AttemptDiscarded { session });
                Err(AbortReason::WriteConflict(obj))
            }
            Ok(seq) => {
                self.session_high_water[session] = self.session_high_water[session].max(seq);
                if self.telemetry.is_enabled() {
                    let gc = self.store.gc_stats();
                    if gc.passes > gc_before.passes {
                        self.telemetry.emit(|| Event::GcPass {
                            session,
                            passes: gc.passes - gc_before.passes,
                            pruned: gc.pruned - gc_before.pruned,
                        });
                    }
                }
                self.telemetry.emit(|| Event::TxCommit { session, seq, ops: writes.len() });
                self.probe.emit(|| ProbeEvent::Committed { session, seq });
                Ok(CommitInfo { seq, visible: (1..=snapshot).collect() })
            }
        }
    }

    fn abort(&mut self, tx: TxToken) {
        let t = self.tx(tx);
        t.finished = true;
        let session = t.session;
        self.store.end_snapshot(session);
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
        self.probe.emit(|| ProbeEvent::AttemptDiscarded { session });
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn set_probe(&mut self, probe: EngineProbe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockfree::LockFreeStoreConfig;
    use crate::shard::ShardedStoreConfig;

    fn sharded(shards: usize, gc_interval: u64) -> ShardedSiEngine {
        ShardedSiEngine::with_config(2, ShardedStoreConfig { shards, gc_interval, sessions: 8 })
    }

    fn lockfree(gc_interval: u64) -> LockFreeSiEngine {
        LockFreeSiEngine::with_config(2, LockFreeStoreConfig { gc_interval, sessions: 8 })
    }

    /// One engine per store, GC off: the protocol tests' table.
    fn engines() -> [Box<dyn Engine>; 3] {
        [Box::new(sharded(2, 0)), Box::new(lockfree(0)), Box::new(GlobalLockSiEngine::new(2))]
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        for mut e in engines() {
            let x = Obj(0);
            let t1 = e.begin(0);
            let t2 = e.begin(1);
            e.write(t1, x, Value(5));
            e.commit(t1).unwrap();
            assert_eq!(e.read(t2, x), Value::INITIAL, "{}", e.name());
        }
    }

    #[test]
    fn first_committer_wins() {
        for mut e in engines() {
            let x = Obj(0);
            let t1 = e.begin(0);
            let t2 = e.begin(1);
            e.write(t1, x, Value(1));
            e.write(t2, x, Value(2));
            assert!(e.commit(t1).is_ok(), "{}", e.name());
            assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(x)), "{}", e.name());
        }
    }

    #[test]
    fn write_skew_commits() {
        for mut e in engines() {
            let (x, y) = (Obj(0), Obj(1));
            e.set_initial(x, Value(60));
            e.set_initial(y, Value(60));
            let t1 = e.begin(0);
            let t2 = e.begin(1);
            assert_eq!(e.read(t1, x), Value(60), "{}", e.name());
            assert_eq!(e.read(t2, y), Value(60), "{}", e.name());
            e.write(t1, x, Value(0));
            e.write(t2, y, Value(0));
            assert!(e.commit(t1).is_ok(), "{}", e.name());
            assert!(e.commit(t2).is_ok(), "{}", e.name());
        }
    }

    #[test]
    fn session_snapshots_advance() {
        for mut e in engines() {
            let x = Obj(0);
            let t1 = e.begin(0);
            e.write(t1, x, Value(1));
            e.commit(t1).unwrap();
            let t2 = e.begin(0);
            assert_eq!(e.read(t2, x), Value(1), "{}", e.name());
        }
    }

    #[test]
    fn aborted_tx_releases_its_snapshot_slot() {
        for mut e in engines() {
            let t1 = e.begin(0);
            e.abort(t1);
            // A second begin on the same session must not trip the registry.
            let t2 = e.begin(0);
            e.write(t2, Obj(0), Value(1));
            assert!(e.commit(t2).is_ok(), "{}", e.name());
        }
    }

    #[test]
    fn engines_report_their_stores_name() {
        let names: Vec<_> = engines().iter().map(|e| e.name()).collect();
        assert_eq!(names, ["SI-sharded", "SI-lockfree", "SI-global-lock"]);
    }

    /// Ten serial overwrites of one object with GC on every install.
    fn overwrite_ten_times<S: VersionStore>(e: &mut StoreSiEngine<S>) {
        let x = Obj(0);
        for i in 1..=10 {
            let t = e.begin(0);
            e.write(t, x, Value(i));
            e.commit(t).unwrap();
        }
        let t = e.begin(0);
        assert_eq!(e.read(t, x), Value(10), "{}", S::NAME);
        e.abort(t);
    }

    fn gc_runs_and_surfaces_in_telemetry<S: VersionStore>(mut e: StoreSiEngine<S>) {
        let sink = std::sync::Arc::new(si_telemetry::CountingSink::new());
        e.set_telemetry(Telemetry::new(sink.clone()));
        overwrite_ten_times(&mut e);
        let stats = e.gc_stats();
        assert!(stats.passes > 0 && stats.pruned > 0, "{}: GC never fired: {stats:?}", S::NAME);
        assert!(sink.gc_passes() > 0, "{}: no GcPass events reached the sink", S::NAME);
        assert_eq!(sink.gc_pruned(), stats.pruned, "{}", S::NAME);
    }

    #[test]
    fn gc_runs_under_the_scheduler_protocol_and_surfaces_in_telemetry() {
        gc_runs_and_surfaces_in_telemetry(sharded(1, 1));
        gc_runs_and_surfaces_in_telemetry(lockfree(1));
    }

    #[test]
    fn global_lock_store_never_prunes() {
        let mut e = GlobalLockSiEngine::new(2);
        overwrite_ten_times(&mut e);
        assert_eq!(e.gc_stats(), GcStats::default());
    }

    #[test]
    fn arena_recycles_under_scheduler_driving() {
        let mut e = lockfree(1);
        let x = Obj(0);
        for i in 1..=32 {
            let t = e.begin(0);
            e.write(t, x, Value(i));
            e.commit(t).unwrap();
        }
        let arena = e.store().arena_stats();
        assert!(arena.recycled > 0, "expected recycled nodes, got {arena:?}");
    }
}
