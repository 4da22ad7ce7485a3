//! Property tests for the lock-free store: chain-walk reads must agree
//! with the plain [`MultiVersionStore`] on random histories, the
//! completion-ring watermark must stay dense and monotone under
//! concurrent commit storms, and epoch reclamation must never free a
//! version reachable from a live registered snapshot. Plus a source
//! lint enforcing the "readers take zero locks" acceptance criterion.

use std::collections::BTreeMap;

use proptest::prelude::*;
use si_mvcc::lockfree::{LockFreeStore, LockFreeStoreConfig};
use si_mvcc::{EngineProbe, MultiVersionStore, Obj, Value, VersionStore};

/// One committed transaction of a generated history: session plus write
/// set (object index → value).
#[derive(Debug, Clone)]
struct GenTx {
    session: usize,
    writes: Vec<(usize, u64)>,
}

fn gen_history(
    objects: usize,
    sessions: usize,
    max_txs: usize,
) -> impl Strategy<Value = Vec<GenTx>> {
    let tx = (0..sessions, proptest::collection::vec((0..objects, 1u64..1000), 1..4)).prop_map(
        |(session, mut writes)| {
            // Distinct objects per transaction (BTreeMap semantics).
            writes.sort_by_key(|&(o, _)| o);
            writes.dedup_by_key(|&mut (o, _)| o);
            GenTx { session, writes }
        },
    );
    proptest::collection::vec(tx, 1..max_txs)
}

/// Applies the history to a lock-free store (full begin/commit protocol,
/// conflicts retried with a fresh snapshot so every transaction lands)
/// and mirrors each install into a reference [`MultiVersionStore`].
fn apply(
    history: &[GenTx],
    gc_interval: u64,
    pin_session: Option<usize>,
) -> (LockFreeStore, MultiVersionStore, usize, u64) {
    let objects = 8;
    let store = LockFreeStore::new(objects, LockFreeStoreConfig { gc_interval, sessions: 16 });
    let mut reference = MultiVersionStore::new(objects);
    let pinned_at = pin_session.map(|s| store.begin_snapshot(s)).unwrap_or(0);
    for tx in history {
        let session = tx.session;
        let writes: BTreeMap<Obj, Value> =
            tx.writes.iter().map(|&(o, v)| (Obj::from_index(o), Value(v))).collect();
        // Single-threaded: the first attempt's snapshot is the current
        // watermark, so validation always passes.
        let snapshot = store.begin_snapshot(session);
        let seq = store
            .commit(session, snapshot, &writes, &EngineProbe::disabled())
            .expect("no concurrent committer, validation cannot fail");
        for (&obj, &value) in &writes {
            reference.install(obj, value, seq);
        }
    }
    (store, reference, objects, pinned_at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without GC every version survives: `read_at` must agree with the
    /// reference store at *every* snapshot, and so must `latest_seq`.
    #[test]
    fn chain_walk_reads_match_multiversion_store(history in gen_history(8, 4, 24)) {
        let (store, reference, objects, _) = apply(&history, 0, None);
        let top = store.published();
        for obj in (0..objects).map(Obj::from_index) {
            prop_assert_eq!(store.latest_seq(obj), reference.latest_seq(obj));
            for snapshot in 0..=top {
                let got = store.read_at(obj, snapshot);
                let want = reference.read_at(obj, snapshot);
                prop_assert_eq!(got.value, want.value);
                prop_assert_eq!(got.commit_seq, want.commit_seq);
            }
        }
    }

    /// With GC as aggressive as possible, reads at or above the floor
    /// (here: the watermark, since nothing is pinned) still agree.
    #[test]
    fn gc_preserves_reads_at_the_watermark(history in gen_history(8, 4, 24)) {
        let (store, reference, objects, _) = apply(&history, 1, None);
        let top = store.published();
        for obj in (0..objects).map(Obj::from_index) {
            let got = store.read_at(obj, top);
            let want = reference.read_at(obj, top);
            prop_assert_eq!(got.value, want.value);
            prop_assert_eq!(got.commit_seq, want.commit_seq);
        }
    }

    /// A live registered snapshot pins the floor: even under maximal GC
    /// pressure, every read the pinned session could issue — at any
    /// object — must still return exactly the reference version, i.e.
    /// epoch reclamation never freed anything it can reach.
    #[test]
    fn reclaim_never_frees_versions_reachable_from_live_snapshots(
        history in gen_history(8, 4, 24),
    ) {
        let pin_session = 15; // outside the generated session range
        let (store, reference, objects, pinned_at) = apply(&history, 1, Some(pin_session));
        for obj in (0..objects).map(Obj::from_index) {
            let got = store.read_at(obj, pinned_at);
            let want = reference.read_at(obj, pinned_at);
            prop_assert_eq!(got.value, want.value);
            prop_assert_eq!(got.commit_seq, want.commit_seq);
            // The version it reads is genuinely resident, not a stale
            // node: it appears in the reachable chain.
            let resident = store.versions(obj);
            prop_assert!(resident.iter().any(|v| v.commit_seq == got.commit_seq));
        }
        store.end_snapshot(pin_session);
    }
}

/// Concurrent commit storm: the watermark must only ever move forward,
/// never skip a sequence, and end exactly dense at the commit count.
#[test]
fn watermark_is_dense_and_monotone_under_concurrent_storms() {
    let threads = 4;
    let per_thread = 200u64;
    let store =
        LockFreeStore::new(16, LockFreeStoreConfig { gc_interval: 16, sessions: threads + 1 });
    let stop = std::sync::atomic::AtomicBool::new(false);
    crossbeam::scope(|scope| {
        // Sampler: watches the watermark the whole run; any decrease is
        // a monotonicity violation, any value above the final count a
        // denseness violation (sequences are only published once fully
        // installed, so the watermark can never outrun the allocator).
        let store_ref = &store;
        let stop_ref = &stop;
        scope.spawn(move |_| {
            let mut last = 0;
            while !stop_ref.load(std::sync::atomic::Ordering::SeqCst) {
                let now = store_ref.published();
                assert!(now >= last, "watermark regressed: {last} -> {now}");
                last = now;
                std::thread::yield_now();
            }
        });
        let committers: Vec<_> = (0..threads)
            .map(|session| {
                scope.spawn(move |_| {
                    let mut done = 0u64;
                    let mut attempt = 0u64;
                    while done < per_thread {
                        attempt += 1;
                        let snapshot = store_ref.begin_snapshot(session);
                        // Mostly disjoint objects to keep conflicts rare
                        // but present.
                        let obj = Obj::from_index(((session as u64 * 7 + attempt) % 16) as usize);
                        let v = store_ref.read_at(obj, snapshot).value;
                        let writes = BTreeMap::from([(obj, Value(v.0 + 1))]);
                        if store_ref
                            .commit(session, snapshot, &writes, &EngineProbe::disabled())
                            .is_ok()
                        {
                            done += 1;
                        }
                    }
                })
            })
            .collect();
        for c in committers {
            c.join().unwrap();
        }
        // Release the sampler only after every committer is done, so it
        // observes the entire storm.
        stop_ref.store(true, std::sync::atomic::Ordering::SeqCst);
    })
    .unwrap();
    assert_eq!(store.published(), threads as u64 * per_thread);
}

/// Acceptance criterion: readers take zero locks. The read path is
/// delimited by markers in `lockfree.rs`; nothing in that region may
/// name a blocking primitive.
#[test]
fn read_path_source_contains_no_locks() {
    let source = include_str!("../src/lockfree.rs");
    let begin = source
        .find("BEGIN LOCK-FREE READ PATH")
        .expect("read-path begin marker missing from lockfree.rs");
    let end = source
        .find("END LOCK-FREE READ PATH")
        .expect("read-path end marker missing from lockfree.rs");
    assert!(begin < end, "markers out of order");
    let region = &source[begin..end];
    for forbidden in ["Mutex", "RwLock", ".lock()", ".read()", ".write()", "yield_now"] {
        assert!(
            !region.contains(forbidden),
            "blocking primitive `{forbidden}` found on the lock-free read path"
        );
    }
}
