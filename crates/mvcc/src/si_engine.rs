//! The snapshot-isolation engine: the paper's §1 idealised algorithm.

use std::collections::BTreeMap;

use si_model::{Obj, Value};
use si_telemetry::{AbortCause, Event, Telemetry};

use crate::engine::{AbortReason, CommitInfo, Engine, TxToken};
use crate::probe::{EngineProbe, ProbeEvent};
use crate::store::MultiVersionStore;

#[derive(Debug)]
struct ActiveTx {
    session: usize,
    snapshot: u64,
    writes: BTreeMap<Obj, Value>,
    finished: bool,
}

/// Strong session snapshot isolation, exactly as sketched in §1 of the
/// paper:
///
/// * `begin` takes a snapshot — all versions committed so far. (Because
///   the snapshot is "latest as of begin", it automatically includes the
///   session's own previous commits, giving the *strong session*
///   guarantee; the engine still tracks per-session high-water marks and
///   asserts this invariant.)
/// * `read` returns the transaction's own last write to the object, or
///   the newest version within the snapshot.
/// * `commit` performs write-conflict detection: if any object in the
///   write set has a committed version newer than the snapshot, the
///   transaction aborts (first committer wins). Otherwise all writes are
///   installed atomically at the next commit sequence number.
#[derive(Debug)]
pub struct SiEngine {
    store: MultiVersionStore,
    commit_counter: u64,
    active: Vec<ActiveTx>,
    session_high_water: Vec<u64>,
    telemetry: Telemetry,
    probe: EngineProbe,
}

impl SiEngine {
    /// Creates an engine over `object_count` objects initialised to 0.
    pub fn new(object_count: usize) -> Self {
        SiEngine {
            store: MultiVersionStore::new(object_count),
            commit_counter: 0,
            active: Vec::new(),
            session_high_water: Vec::new(),
            telemetry: Telemetry::disabled(),
            probe: EngineProbe::disabled(),
        }
    }

    /// Read-only access to the underlying store (for assertions and
    /// examples).
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    fn tx(&mut self, token: TxToken) -> &mut ActiveTx {
        let tx = &mut self.active[token.0];
        assert!(!tx.finished, "transaction already committed or aborted");
        tx
    }
}

impl Engine for SiEngine {
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
        let snapshot = self.commit_counter;
        // Strong session SI: the snapshot must include everything this
        // session previously committed. A monotone global counter makes
        // this automatic.
        debug_assert!(snapshot >= self.session_high_water[session]);
        self.telemetry.emit(|| Event::TxBegin { session });
        self.probe.emit(|| ProbeEvent::SnapshotPrefix { session, upto: snapshot });
        self.active.push(ActiveTx { session, snapshot, writes: BTreeMap::new(), finished: false });
        TxToken(self.active.len() - 1)
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
        // First-committer-wins write-conflict detection.
        for &obj in writes.keys() {
            if self.store.latest_seq(obj) > snapshot {
                self.active[token.0].finished = true;
                self.telemetry.emit(|| Event::TxAbort {
                    session,
                    cause: AbortCause::WwConflict,
                    obj: Some(obj.0),
                });
                self.probe.emit(|| ProbeEvent::AttemptDiscarded { session });
                return Err(AbortReason::WriteConflict(obj));
            }
        }
        self.commit_counter += 1;
        let seq = self.commit_counter;
        self.session_high_water[session] = self.session_high_water[session].max(seq);
        for (&obj, &value) in &writes {
            self.store.install(obj, value, seq);
            self.probe.emit(|| ProbeEvent::VersionInstalled { session, obj, seq });
        }
        self.active[token.0].finished = true;
        self.telemetry.emit(|| Event::TxCommit { session, seq, ops: writes.len() });
        self.probe.emit(|| ProbeEvent::Committed { session, seq });
        Ok(CommitInfo { seq, visible: (1..=snapshot).collect() })
    }

    fn abort(&mut self, tx: TxToken) {
        let t = self.tx(tx);
        t.finished = true;
        let session = t.session;
        self.telemetry.emit(|| Event::TxAbort { session, cause: AbortCause::Explicit, obj: None });
        self.probe.emit(|| ProbeEvent::AttemptDiscarded { session });
    }

    fn name(&self) -> &'static str {
        "SI"
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

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, x, Value(5));
        e.commit(t1).unwrap();
        // t2's snapshot predates t1's commit.
        assert_eq!(e.read(t2, x), Value::INITIAL);
    }

    #[test]
    fn own_writes_visible() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t = e.begin(0);
        e.write(t, x, Value(9));
        assert_eq!(e.read(t, x), Value(9));
    }

    #[test]
    fn first_committer_wins() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        e.write(t1, x, Value(1));
        e.write(t2, x, Value(2));
        assert!(e.commit(t1).is_ok());
        assert_eq!(e.commit(t2), Err(AbortReason::WriteConflict(x)));
    }

    #[test]
    fn write_skew_commits() {
        // The defining SI anomaly: disjoint write sets pass conflict
        // detection even though both read stale data.
        let mut e = SiEngine::new(2);
        let (x, y) = (Obj(0), Obj(1));
        e.set_initial(x, Value(60));
        e.set_initial(y, Value(60));
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        assert_eq!(e.read(t1, x), Value(60));
        assert_eq!(e.read(t1, y), Value(60));
        assert_eq!(e.read(t2, x), Value(60));
        assert_eq!(e.read(t2, y), Value(60));
        e.write(t1, x, Value(0));
        e.write(t2, y, Value(0));
        assert!(e.commit(t1).is_ok());
        assert!(e.commit(t2).is_ok()); // disjoint writes: no conflict
    }

    #[test]
    fn lost_update_prevented() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        let t2 = e.begin(1);
        let v1 = e.read(t1, x);
        let v2 = e.read(t2, x);
        e.write(t1, x, Value(v1.0 + 50));
        e.write(t2, x, Value(v2.0 + 25));
        assert!(e.commit(t1).is_ok());
        assert!(e.commit(t2).is_err()); // the increment cannot be lost
    }

    #[test]
    fn session_snapshots_advance() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        e.commit(t1).unwrap();
        let t2 = e.begin(0); // same session
        assert_eq!(e.read(t2, x), Value(1));
    }

    #[test]
    fn commit_records_the_session_high_water_mark() {
        // What `begin`'s strong-session assertion compares against.
        let mut e = SiEngine::new(1);
        for seq in 1..=2 {
            let t = e.begin(3);
            e.write(t, Obj(0), Value(seq));
            e.commit(t).unwrap();
            assert_eq!(e.session_high_water[3], seq);
        }
    }

    #[test]
    fn commit_info_reports_snapshot() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        e.write(t1, x, Value(1));
        let info1 = e.commit(t1).unwrap();
        assert_eq!(info1.seq, 1);
        assert!(info1.visible.is_empty());
        let t2 = e.begin(0);
        e.write(t2, x, Value(2));
        let info2 = e.commit(t2).unwrap();
        assert_eq!(info2.seq, 2);
        assert_eq!(info2.visible, vec![1]);
    }

    #[test]
    fn aborted_tx_leaves_no_trace() {
        let mut e = SiEngine::new(1);
        let x = Obj(0);
        let t1 = e.begin(0);
        e.write(t1, x, Value(9));
        e.abort(t1);
        let t2 = e.begin(0);
        assert_eq!(e.read(t2, x), Value::INITIAL);
    }

    #[test]
    #[should_panic(expected = "already committed")]
    fn using_finished_token_panics() {
        let mut e = SiEngine::new(1);
        let t = e.begin(0);
        e.commit(t).unwrap();
        e.read(t, Obj(0));
    }
}
