//! Lock-striped multi-version store with epoch-based garbage collection.
//!
//! [`MultiVersionStore`](crate::MultiVersionStore) behind one exclusive
//! lock serialises every commit; the paper's soundness results (Theorems
//! 9/10) say that is unnecessary — any run can be validated *after the
//! fact*, so the engine only has to keep first-committer-wins atomic per
//! object, not globally. [`ShardedStore`] therefore partitions the
//! object space into hash shards (object index modulo shard count), each
//! behind its own [`RwLock`], and decomposes the protocol as:
//!
//! * **begin** — one SeqCst load of the `published` watermark, no lock.
//!   The session's snapshot is additionally registered in the
//!   [`SnapshotRegistry`] so GC can compute the oldest live snapshot.
//! * **read** — shared lock of the *one* shard holding the object;
//!   readers of different shards (and of the same shard) never block
//!   each other.
//! * **commit** — write locks of exactly the shards the transaction
//!   wrote, always acquired in ascending shard order (total order ⇒ no
//!   deadlock). First-committer-wins is validated and the new versions
//!   installed under those locks only; disjoint transactions commit in
//!   genuine parallel.
//! * **publication** — commit sequences come from a global atomic
//!   allocator, but a snapshot may only observe *fully installed*
//!   prefixes. Because two committers may finish installation out of
//!   sequence order, completed sequences are announced to the shared
//!   lock-free [`CompletionRing`] and the `published` watermark
//!   advances to the longest contiguous prefix — exactly the largest
//!   `s` for which "all of `1..=s` is in place" holds. A committer does
//!   not *return* until the watermark covers its own sequence:
//!   otherwise the session's next begin could take a snapshot below its
//!   own commit and miss its own writes (a read-your-writes violation
//!   `si-solve` caught in stress recordings — the watermark lags
//!   whenever an earlier-allocated sequence is still installing).
//! * **epoch GC** — every `gc_interval` installs into a shard, the shard
//!   prunes versions no live snapshot can reach. The floor is
//!   `min(published, oldest registered snapshot)`; for each object the
//!   newest version at or below the floor plus everything newer is kept,
//!   so `read_at(obj, s)` for any live `s ≥ floor` is unaffected.
//!
//! The registration protocol makes the floor race-free: `begin` first
//! stores a *conservative guess* (the watermark before the snapshot
//! load) into its registry slot and only then takes the real snapshot.
//! GC reads the watermark *before* scanning slots. Either the scan sees
//! the slot (floor ≤ guess ≤ snapshot), or the slot was stored after the
//! scan's watermark read — and then the snapshot, taken even later, is
//! at least that watermark, which bounds the floor. Both ways, floor ≤
//! snapshot for every live transaction. `published` is monotone, which
//! is what the argument leans on.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use si_model::{Obj, Value};

use crate::probe::{EngineProbe, ProbeEvent};
use crate::ring::CompletionRing;
use crate::store::Version;
use crate::version_store::VersionStore;
pub use crate::version_store::{GcStats, SnapshotRegistry};

/// Configuration of a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedStoreConfig {
    /// Number of lock stripes. Objects map to shards by index modulo
    /// this count.
    pub shards: usize,
    /// Installs into one shard between GC passes over it; `0` disables
    /// garbage collection.
    pub gc_interval: u64,
    /// Capacity of the snapshot registry: the highest session index that
    /// may run transactions, plus one.
    pub sessions: usize,
}

impl Default for ShardedStoreConfig {
    fn default() -> Self {
        ShardedStoreConfig { shards: 8, gc_interval: 128, sessions: 64 }
    }
}

/// One lock stripe: the version chains of the objects it owns, plus GC
/// bookkeeping. Object `i` lives in shard `i % shards` at local index
/// `i / shards`.
#[derive(Debug)]
struct Shard {
    chains: Vec<Vec<Version>>,
    installs_since_gc: u64,
}

impl Shard {
    /// Drops every version strictly older than the newest version at or
    /// below `floor`; returns how many were dropped. Any snapshot `s ≥
    /// floor` reads either a kept version above the floor or exactly the
    /// kept floor version, so live reads are unaffected.
    fn prune(&mut self, floor: u64) -> u64 {
        let mut pruned = 0;
        for chain in &mut self.chains {
            let keep_from = chain
                .iter()
                .rposition(|v| v.commit_seq <= floor)
                .expect("sequence 0 always satisfies the floor");
            if keep_from > 0 {
                chain.drain(..keep_from);
                pruned += keep_from as u64;
            }
        }
        pruned
    }
}

/// The lock-striped multi-version store (see the module docs for the
/// protocol). All methods take `&self`; the store is shared across
/// threads by reference.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<RwLock<Shard>>,
    object_count: usize,
    initials: Vec<Value>,
    /// Commit sequence allocator: the next sequence is `alloc + 1`.
    alloc: AtomicU64,
    /// Out-of-order publication; owns the monotone `published`
    /// watermark that snapshots read and GC floors on. Shared with the
    /// lock-free store — one publication path for both engines.
    ring: CompletionRing,
    registry: SnapshotRegistry,
    gc_interval: u64,
    gc_passes: AtomicU64,
    gc_pruned: AtomicU64,
    /// Highest floor any GC pass has pruned at. The raw
    /// `min(published, oldest registered)` is *not* monotone: the
    /// registration race lets a conservative guess surface in the
    /// registry *after* a scan that missed it already pruned at a
    /// higher floor. Any floor ever computed stays a valid lower bound
    /// forever (the watermark is monotone, so every future snapshot is
    /// at least it), so clamping to the high-water mark is sound — and
    /// without the clamp a floor regression makes `prune` look for a
    /// version below a bottom that was already dropped.
    floor_hwm: AtomicU64,
}

impl VersionStore for ShardedStore {
    type Config = ShardedStoreConfig;

    const NAME: &'static str = "SI-sharded";

    /// Creates a store over `object_count` objects (all initialised to
    /// 0 at sequence 0) with the given striping and GC configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.sessions` is zero.
    fn new(object_count: usize, config: ShardedStoreConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.sessions > 0, "need at least one session slot");
        let shards = (0..config.shards)
            .map(|s| {
                let owned =
                    if object_count > s { (object_count - s).div_ceil(config.shards) } else { 0 };
                RwLock::new(Shard {
                    chains: (0..owned)
                        .map(|_| vec![Version { value: Value::INITIAL, commit_seq: 0 }])
                        .collect(),
                    installs_since_gc: 0,
                })
            })
            .collect();
        ShardedStore {
            shards,
            object_count,
            initials: vec![Value::INITIAL; object_count],
            alloc: AtomicU64::new(0),
            ring: CompletionRing::new(config.sessions),
            registry: SnapshotRegistry::new(config.sessions),
            gc_interval: config.gc_interval,
            gc_passes: AtomicU64::new(0),
            gc_pruned: AtomicU64::new(0),
            floor_hwm: AtomicU64::new(0),
        }
    }

    fn object_count(&self) -> usize {
        self.object_count
    }

    fn set_initial(&mut self, obj: Obj, value: Value) {
        assert_eq!(
            self.alloc.load(Ordering::SeqCst),
            0,
            "cannot reset initial value after commits"
        );
        let shard = self.shard_of(obj);
        let local = self.local(obj);
        self.shards[shard].write().chains[local][0].value = value;
        self.initials[obj.index()] = value;
    }

    fn initial(&self, obj: Obj) -> Value {
        self.initials[obj.index()]
    }

    fn begin_snapshot(&self, session: usize) -> u64 {
        // Conservative guess first, snapshot second: `published` is
        // monotone, so guess ≤ snapshot, and a GC scan either sees the
        // guess or floors on a watermark the snapshot dominates.
        let guess = self.ring.published();
        self.registry.register(session, guess);
        self.ring.published()
    }

    fn end_snapshot(&self, session: usize) {
        self.registry.release(session);
    }

    /// Snapshot read under the object's shard lock (shared).
    fn read_at(&self, obj: Obj, snapshot: u64) -> Version {
        let shard = self.shards[self.shard_of(obj)].read();
        *shard.chains[self.local(obj)]
            .iter()
            .rev()
            .find(|v| v.commit_seq <= snapshot)
            .expect("GC keeps the newest version at or below every live snapshot")
    }

    /// First-committer-wins validation, installation and publication,
    /// under the write locks of exactly the shards in the write set
    /// (ascending order).
    fn commit(
        &self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        probe: &EngineProbe,
    ) -> Result<u64, Obj> {
        let result = self.commit_locked(session, snapshot, writes, probe);
        self.registry.release(session);
        result
    }

    fn gc_stats(&self) -> GcStats {
        GcStats {
            passes: self.gc_passes.load(Ordering::Relaxed),
            pruned: self.gc_pruned.load(Ordering::Relaxed),
        }
    }
}

impl ShardedStore {
    fn shard_of(&self, obj: Obj) -> usize {
        obj.index() % self.shards.len()
    }

    fn local(&self, obj: Obj) -> usize {
        obj.index() / self.shards.len()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The commit sequence of the newest committed version of `obj`,
    /// read under the shard lock (shared).
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn latest_seq(&self, obj: Obj) -> u64 {
        let shard = self.shards[self.shard_of(obj)].read();
        shard.chains[self.local(obj)].last().expect("version 0 always present").commit_seq
    }

    fn commit_locked(
        &self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        probe: &EngineProbe,
    ) -> Result<u64, Obj> {
        // Deterministic ascending acquisition order: any two committers
        // take their common shards in the same order, so the wait-for
        // graph is acyclic.
        let shard_ids: Vec<usize> = writes
            .keys()
            .map(|&obj| self.shard_of(obj))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut guards: Vec<_> = shard_ids.iter().map(|&s| self.shards[s].write()).collect();
        if !shard_ids.is_empty() {
            probe.emit(|| ProbeEvent::ShardLocksAcquired { session, shards: shard_ids.clone() });
        }

        let chain_of = |obj: Obj| {
            let slot = shard_ids
                .binary_search(&self.shard_of(obj))
                .expect("every written object's shard is locked");
            (slot, self.local(obj))
        };

        // First-committer-wins: atomic per object because the object's
        // entire version chain is under the shard lock we hold.
        for &obj in writes.keys() {
            let (slot, local) = chain_of(obj);
            let latest = guards[slot].chains[local].last().expect("version 0 present").commit_seq;
            if latest > snapshot {
                return Err(obj);
            }
        }

        // Allocate only after validation passes: refused attempts leave
        // no hole in the sequence space.
        let seq = self.alloc.fetch_add(1, Ordering::Relaxed) + 1;
        for (&obj, &value) in writes {
            let (slot, local) = chain_of(obj);
            guards[slot].chains[local].push(Version { value, commit_seq: seq });
            probe.emit(|| ProbeEvent::VersionInstalled { session, obj, seq });
        }

        if self.gc_interval > 0 {
            for (slot, &shard_id) in shard_ids.iter().enumerate() {
                let installs =
                    writes.keys().filter(|&&obj| self.shard_of(obj) == shard_id).count() as u64;
                let guard = &mut guards[slot];
                guard.installs_since_gc += installs;
                if guard.installs_since_gc >= self.gc_interval {
                    guard.installs_since_gc = 0;
                    let floor = self.gc_floor();
                    let pruned = guard.prune(floor);
                    self.gc_passes.fetch_add(1, Ordering::Relaxed);
                    self.gc_pruned.fetch_add(pruned, Ordering::Relaxed);
                    if pruned > 0 {
                        probe.emit(|| ProbeEvent::VersionsPruned {
                            shard: shard_id,
                            floor,
                            pruned,
                        });
                    }
                }
            }
        }

        drop(guards);
        self.ring.publish(seq);
        // Session visibility: don't report the commit until the
        // watermark covers it, so the session's next `begin` (a single
        // watermark load) observes this transaction's writes. Only
        // committers holding *smaller* sequences can delay publication,
        // and they never wait on larger ones, so the wait is bounded
        // and deadlock-free.
        self.ring.wait_published(seq);
        Ok(seq)
    }

    /// A lower bound on every snapshot any live or future transaction
    /// can hold. Reads the watermark *before* scanning registry slots —
    /// the ordering the registration protocol's race argument needs.
    fn gc_floor(&self) -> u64 {
        let watermark = self.ring.published();
        let raw = match self.registry.oldest() {
            Some(oldest) => watermark.min(oldest),
            None => watermark,
        };
        // Monotone clamp (see `floor_hwm`): never prune below a floor a
        // previous pass already pruned at.
        self.floor_hwm.fetch_max(raw, Ordering::SeqCst).max(raw)
    }

    /// The current `published` watermark (what the next snapshot would
    /// observe).
    pub fn published(&self) -> u64 {
        self.ring.published()
    }

    /// Total versions currently resident across all shards (including
    /// the per-object floor versions).
    pub fn resident_versions(&self) -> usize {
        self.shards.iter().map(|s| s.read().chains.iter().map(Vec::len).sum::<usize>()).sum()
    }

    /// All resident versions of an object, oldest first (for tests and
    /// assertions; clones because the chain lives under the shard lock).
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn versions(&self, obj: Obj) -> Vec<Version> {
        self.shards[self.shard_of(obj)].read().chains[self.local(obj)].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(shards: usize, gc_interval: u64) -> ShardedStoreConfig {
        ShardedStoreConfig { shards, gc_interval, sessions: 8 }
    }

    fn commit_one(store: &ShardedStore, session: usize, obj: Obj, value: Value) -> u64 {
        let snapshot = store.begin_snapshot(session);
        let writes = BTreeMap::from([(obj, value)]);
        store.commit(session, snapshot, &writes, &EngineProbe::disabled()).unwrap()
    }

    #[test]
    fn snapshot_reads_match_unsharded_semantics() {
        let store = ShardedStore::new(5, config(2, 0));
        let x = Obj(3);
        commit_one(&store, 0, x, Value(10));
        commit_one(&store, 0, x, Value(20));
        assert_eq!(store.read_at(x, 0).value, Value::INITIAL);
        assert_eq!(store.read_at(x, 1).value, Value(10));
        assert_eq!(store.read_at(x, 2).value, Value(20));
        assert_eq!(store.latest_seq(x), 2);
        assert_eq!(store.published(), 2);
    }

    #[test]
    fn first_committer_wins_across_shards() {
        let store = ShardedStore::new(4, config(2, 0));
        let (x, y) = (Obj(0), Obj(1)); // different shards
        let s0 = store.begin_snapshot(0);
        let s1 = store.begin_snapshot(1);
        let w0 = BTreeMap::from([(x, Value(1)), (y, Value(1))]);
        let w1 = BTreeMap::from([(y, Value(2))]);
        assert!(store.commit(0, s0, &w0, &EngineProbe::disabled()).is_ok());
        // Session 1's snapshot predates the commit to y: refused.
        assert_eq!(store.commit(1, s1, &w1, &EngineProbe::disabled()), Err(y));
        // Refused attempts leave no sequence hole.
        assert_eq!(store.published(), 1);
    }

    #[test]
    fn gc_prunes_dead_versions_but_keeps_the_floor() {
        let store = ShardedStore::new(1, config(1, 4));
        let x = Obj(0);
        for i in 1..=12 {
            commit_one(&store, 0, x, Value(i));
        }
        let stats = store.gc_stats();
        assert!(stats.passes >= 2, "expected repeated GC passes, got {stats:?}");
        assert!(stats.pruned > 0);
        // The newest version is always reachable.
        assert_eq!(store.read_at(x, 12).value, Value(12));
        // Pruned chains are strictly shorter than the full history.
        assert!(store.resident_versions() < 13, "nothing was pruned");
    }

    #[test]
    fn stale_conservative_guess_cannot_regress_the_gc_floor() {
        // The registration race in miniature: GC prunes at a high floor
        // while a conservative guess from *before* that pass is still
        // being registered. When the stale slot finally surfaces, the
        // raw `min(published, oldest)` drops below the already-pruned
        // floor; the high-water clamp must hold it, or the next prune
        // looks for a version below a bottom that no longer exists.
        let store = ShardedStore::new(1, config(1, 4));
        let x = Obj(0);
        for i in 1..=8 {
            commit_one(&store, 0, x, Value(i));
        }
        assert!(store.gc_stats().pruned > 0, "setup: a pass must have pruned");
        // Session 1 surfaces with a guess loaded before every prune.
        store.registry.register(1, 0);
        for i in 9..=16 {
            commit_one(&store, 0, x, Value(i));
        }
        store.registry.release(1);
        assert_eq!(store.read_at(x, 16).value, Value(16));
    }

    #[test]
    fn gc_respects_live_snapshots() {
        let store = ShardedStore::new(1, config(1, 1));
        let x = Obj(0);
        commit_one(&store, 0, x, Value(1));
        // Session 1 holds snapshot 1 across many later commits.
        let pinned = store.begin_snapshot(1);
        assert_eq!(pinned, 1);
        for i in 2..=10 {
            commit_one(&store, 0, x, Value(i));
        }
        // The pinned snapshot must still read its version.
        assert_eq!(store.read_at(x, pinned).value, Value(1));
        store.end_snapshot(1);
        // Once released, a later pass may collect it.
        commit_one(&store, 0, x, Value(11));
        assert!(store.versions(x).first().unwrap().commit_seq >= 1);
    }

    #[test]
    fn set_initial_round_trips() {
        let mut store = ShardedStore::new(3, config(2, 0));
        store.set_initial(Obj(2), Value(77));
        assert_eq!(store.initial(Obj(2)), Value(77));
        assert_eq!(store.read_at(Obj(2), 0).value, Value(77));
        assert_eq!(store.initial(Obj(0)), Value::INITIAL);
    }

    #[test]
    #[should_panic(expected = "already has a transaction in flight")]
    fn double_begin_per_session_panics() {
        let store = ShardedStore::new(1, config(1, 0));
        store.begin_snapshot(0);
        store.begin_snapshot(0);
    }

    #[test]
    fn probe_reports_ascending_shard_locks() {
        let sink = std::sync::Arc::new(crate::probe::VecProbe::new());
        let probe = EngineProbe::new(sink.clone());
        let store = ShardedStore::new(6, config(3, 0));
        let snapshot = store.begin_snapshot(0);
        // Objects 5, 1, 4 → shards {2, 1}: reported as [1, 2].
        let writes = BTreeMap::from([(Obj(5), Value(1)), (Obj(1), Value(2)), (Obj(4), Value(3))]);
        store.commit(0, snapshot, &writes, &probe).unwrap();
        let events = sink.drain();
        assert!(events.iter().any(
            |e| matches!(e, ProbeEvent::ShardLocksAcquired { shards, .. } if shards == &[1, 2])
        ));
    }
}
