//! The store contract the SI protocol is written against, and what every
//! implementation of it shares.
//!
//! The paper's §1 algorithm is one protocol — snapshot at `begin`,
//! own-writes-then-snapshot `read`, first-committer-wins `commit`. What
//! varies between [`GlobalLockStore`], [`ShardedStore`](crate::ShardedStore)
//! and [`LockFreeStore`](crate::LockFreeStore) is only the
//! synchronisation that keeps snapshot reads and per-object
//! first-committer-wins atomic. [`VersionStore`] is that boundary: the
//! [`StoreSiEngine`](crate::StoreSiEngine) and the [`stress`](crate::stress)
//! worker are each written once against it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use si_model::{Obj, Value};

use crate::probe::{EngineProbe, ProbeEvent};
use crate::store::{MultiVersionStore, Version};

/// A concurrent multi-version store that keeps snapshot reads and
/// per-object first-committer-wins atomic. All protocol methods take
/// `&self`; the store is shared across threads by reference.
///
/// Implementations owe the protocol three things:
///
/// * [`begin_snapshot`](Self::begin_snapshot) registers the session as
///   live *before* it reads the watermark it returns, so a concurrent GC
///   pass never floors above a snapshot it could not see;
/// * [`commit`](Self::commit) unregisters the session on *both* outcomes
///   (callers use [`end_snapshot`](Self::end_snapshot) only to abandon a
///   transaction without committing);
/// * [`commit`](Self::commit) returns only after its own sequence number
///   is published, so the session's next snapshot includes its own
///   writes (strong session SI).
pub trait VersionStore: Sized + Sync {
    /// Synchronisation and GC parameters of the store.
    type Config: Default;

    /// What an SI engine over this store reports as
    /// [`Engine::name`](crate::Engine::name).
    const NAME: &'static str;

    /// Creates a store over `object_count` objects, all initialised to 0
    /// at sequence 0.
    fn new(object_count: usize, config: Self::Config) -> Self;

    /// Number of objects.
    fn object_count(&self) -> usize;

    /// Overrides an object's initial value (sequence 0).
    ///
    /// # Panics
    ///
    /// Panics if any commit already happened or `obj` is out of range.
    fn set_initial(&mut self, obj: Obj, value: Value);

    /// The initial value of an object.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    fn initial(&self, obj: Obj) -> Value;

    /// Takes a snapshot for `session` and registers it as live. Every
    /// commit in `1..=snapshot` is fully installed and safe from GC
    /// until the session's [`commit`](Self::commit) or
    /// [`end_snapshot`](Self::end_snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the session already has a transaction in flight or
    /// exceeds the store's session capacity.
    fn begin_snapshot(&self, session: usize) -> u64;

    /// Unregisters the session's live snapshot without committing.
    fn end_snapshot(&self, session: usize);

    /// The newest version of `obj` at or below `snapshot`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    fn read_at(&self, obj: Obj, snapshot: u64) -> Version;

    /// First-committer-wins validation, installation and publication.
    /// Returns the commit sequence number, or the first conflicting
    /// object.
    ///
    /// Installs (and lock acquisitions, GC prunes) are reported through
    /// `probe`; the caller owns the `Committed` / `AttemptDiscarded`
    /// fence events.
    fn commit(
        &self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        probe: &EngineProbe,
    ) -> Result<u64, Obj>;

    /// GC counters so far (zero for a store that never prunes).
    fn gc_stats(&self) -> GcStats;
}

/// Counters of a store's garbage collector, snapshotted by
/// [`VersionStore::gc_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct GcStats {
    /// Prune passes that ran (one per shard per trigger).
    pub passes: u64,
    /// Versions dropped across all passes.
    pub pruned: u64,
}

/// Registry slot value meaning "no transaction in flight".
const IDLE: u64 = u64::MAX;

/// Tracks the snapshot of every in-flight transaction so GC can bound
/// the oldest live snapshot. One fixed slot per session: sessions are
/// sequential clients, so each has at most one transaction in flight.
///
/// An atomic live count lets the per-GC-pass `oldest` scan early-exit
/// when nothing is in flight — with large session capacities the scan
/// is otherwise O(slots) of SeqCst loads on every pass even on an idle
/// store, which the 10^6-transaction grids can feel. The count is
/// incremented *before* the slot store and decremented *after* the
/// slot clear, so "live = 0" always implies "every slot is idle".
#[derive(Debug)]
pub struct SnapshotRegistry {
    slots: Vec<AtomicU64>,
    live: AtomicU64,
}

impl SnapshotRegistry {
    pub(crate) fn new(sessions: usize) -> Self {
        SnapshotRegistry {
            slots: (0..sessions).map(|_| AtomicU64::new(IDLE)).collect(),
            live: AtomicU64::new(0),
        }
    }

    /// Marks `session` live with a conservative snapshot bound. Must be
    /// stored *before* the real snapshot is taken (see the `shard`
    /// module docs for why that ordering closes the race with a
    /// concurrent GC scan).
    pub(crate) fn register(&self, session: usize, guess: u64) {
        assert!(
            session < self.slots.len(),
            "session {session} exceeds the snapshot registry's {} slots; \
             raise `sessions` in the store config",
            self.slots.len()
        );
        self.live.fetch_add(1, Ordering::SeqCst);
        let prev = self.slots[session].swap(guess, Ordering::SeqCst);
        assert_eq!(prev, IDLE, "session {session} already has a transaction in flight");
    }

    /// Clears the session's slot once its transaction commits or aborts.
    pub(crate) fn release(&self, session: usize) {
        self.slots[session].store(IDLE, Ordering::SeqCst);
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Number of sessions currently registered (a point-in-time bound).
    pub(crate) fn live(&self) -> u64 {
        self.live.load(Ordering::SeqCst)
    }

    /// The minimum registered snapshot bound, or `None` when no
    /// transaction is live. Early-exits on the live count without
    /// touching any slot when the store is idle.
    pub(crate) fn oldest(&self) -> Option<u64> {
        if self.live() == 0 {
            return None;
        }
        self.slots.iter().map(|s| s.load(Ordering::SeqCst)).filter(|&s| s != IDLE).min()
    }
}

/// The whole [`MultiVersionStore`] behind one [`RwLock`] (reads shared,
/// commit exclusive) with the commit counter as an acquire/release
/// [`AtomicU64`]: the baseline the striped and lock-free stores are
/// *measured against*. It never prunes, so it keeps no snapshot registry
/// and accepts any session index.
#[derive(Debug)]
pub struct GlobalLockStore {
    store: RwLock<MultiVersionStore>,
    /// Highest fully installed commit sequence number. Published with
    /// release ordering after the installs it covers; `begin_snapshot`
    /// reads it with acquire ordering.
    commit_counter: AtomicU64,
}

impl VersionStore for GlobalLockStore {
    type Config = ();

    const NAME: &'static str = "SI-global-lock";

    fn new(object_count: usize, (): ()) -> Self {
        GlobalLockStore {
            store: RwLock::new(MultiVersionStore::new(object_count)),
            commit_counter: AtomicU64::new(0),
        }
    }

    fn object_count(&self) -> usize {
        self.store.read().object_count()
    }

    fn set_initial(&mut self, obj: Obj, value: Value) {
        self.store.write().set_initial(obj, value);
    }

    fn initial(&self, obj: Obj) -> Value {
        self.store.read().initial(obj)
    }

    /// Takes a snapshot: a single atomic load, no lock. Nothing is ever
    /// pruned, so there is nothing to register.
    fn begin_snapshot(&self, _session: usize) -> u64 {
        self.commit_counter.load(Ordering::Acquire)
    }

    fn end_snapshot(&self, _session: usize) {}

    /// Snapshot read under the *shared* store lock; concurrent readers
    /// never block each other.
    fn read_at(&self, obj: Obj, snapshot: u64) -> Version {
        self.store.read().read_at(obj, snapshot)
    }

    /// First-committer-wins validation and install, atomic under the
    /// exclusive store lock.
    fn commit(
        &self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        probe: &EngineProbe,
    ) -> Result<u64, Obj> {
        let mut store = self.store.write();
        for &obj in writes.keys() {
            if store.latest_seq(obj) > snapshot {
                return Err(obj);
            }
        }
        // The unsynchronised-looking `load + 1 … store` is sound, and
        // deliberately NOT a `fetch_add`:
        //
        // * No lost increments: `commit_counter` is only ever stored
        //   while holding the exclusive store lock (we are inside it),
        //   so commit bodies — load, installs, store — are serialised
        //   and each commit sees the previous one's value. The `Relaxed`
        //   load is ordered by the lock's acquire barrier, which
        //   happens-after the previous holder's release.
        // * `fetch_add` up front would be a real bug, not a cleanup: it
        //   publishes the new sequence number *before* the versions are
        //   installed, so the lock-free `begin` below could take a
        //   snapshot that includes `seq` yet miss its writes entirely.
        let seq = self.commit_counter.load(Ordering::Relaxed) + 1;
        for (&obj, &value) in writes {
            store.install(obj, value, seq);
            probe.emit(|| ProbeEvent::VersionInstalled { session, obj, seq });
        }
        // Publish only after every install, still under the write lock:
        // a lock-free `begin` that observes `seq` must find all of its
        // versions in place.
        self.commit_counter.store(seq, Ordering::Release);
        Ok(seq)
    }

    fn gc_stats(&self) -> GcStats {
        GcStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "session 2 exceeds the snapshot registry's 2 slots")]
    fn out_of_range_session_names_the_registry_capacity() {
        // Reached through the lock-free store, which used to die on its
        // epoch-slot index before ever reaching the registry; the
        // sharded store registers through the same line.
        let config = crate::LockFreeStoreConfig { sessions: 2, ..Default::default() };
        crate::LockFreeStore::new(1, config).begin_snapshot(2);
    }
}
