//! Lock-free multi-version store: atomic version chains, a
//! commit-completion ring, and epoch-deferred reclamation.
//!
//! The paper's soundness theorems (9/10) licence checking runs *after
//! the fact*, so an SI engine needs no global serialisation point — and,
//! pushing past the lock-striped [`ShardedStore`](crate::ShardedStore),
//! not even per-object locks. [`LockFreeStore`] keeps each object's
//! version chain as a linked list of arena nodes threaded through atomic
//! indices (newest first) and decomposes the protocol as:
//!
//! * **begin** — one SeqCst load of the ring's `published` watermark
//!   plus a [`SnapshotRegistry`] slot store; no lock, same
//!   guess-before-snapshot protocol as the sharded store.
//! * **read** — a pure pointer walk: load the chain head, follow `next`
//!   links until the first version at or below the snapshot. Readers
//!   take **no lock of any kind** (enforced by a source lint over the
//!   marked read-path region) and never wait: uncommitted intents carry
//!   a `PENDING` sequence that no snapshot can include, so walks skip
//!   them.
//! * **commit** — first-committer-wins by CAS on the chain head, one
//!   object at a time in ascending object order. A committer first
//!   *validates* the head (spinning out any other committer's pending
//!   intent — waits only ever target higher-numbered objects, so the
//!   wait graph is acyclic exactly like the sharded store's ascending
//!   lock order), then installs its own intent node with `PENDING`
//!   sequence by CAS. A validation failure unlinks the already-placed
//!   intents (the CAS back always succeeds: nobody installs above a
//!   pending intent) and returns the conflict. Once every intent is in
//!   place the sequence is allocated by `fetch_add` and stored into the
//!   intents, making them committed versions.
//! * **publication** — sequences complete out of order; the
//!   [`CompletionRing`] advances the dense `published` watermark over
//!   the contiguous prefix. As in the sharded store, a committer does
//!   not return until the watermark covers its own sequence (the
//!   read-your-writes regression si-solve caught).
//! * **epoch GC & reclamation** — every `gc_interval` installs, a pass
//!   (serialised by a try-lock; skipped when contended) computes the
//!   floor `min(published, oldest registered snapshot)` and for each
//!   chain cuts everything strictly below the newest version at or
//!   below the floor. The cut tail is *retired*, tagged with the pass
//!   epoch — not freed: node indices are recycled through the arena's
//!   free list only once **every registered snapshot has advanced past
//!   the retiring epoch** (crossbeam-style deferred reclamation). The
//!   floor argument from `shard.rs` carries over: every in-progress
//!   walk belongs to a registered session whose snapshot is at least
//!   the floor, so it stops at or above the kept floor version and
//!   never enters a retired tail; the epoch fence additionally keeps
//!   any such walk's nodes unrecycled until the session releases.
//!
//! The whole structure is index-based (`u64` arena indices instead of
//! raw pointers) so it stays within the crate's `#![forbid(unsafe_code)]`:
//! the worst an ABA or stale index could ever do is a *semantic* error,
//! which the sanitizer's oracles and the differential suites would
//! catch, not memory unsafety. The free list is a tag-stamped Treiber
//! stack (40-bit index, 24-bit ABA tag in one `u64`), and hot-path
//! scratch lists use [`SmallVec`] to keep commits allocation-free for
//! write sets of up to eight objects.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use si_model::{Obj, Value};

use crate::probe::{EngineProbe, ProbeEvent};
use crate::ring::CompletionRing;
use crate::small::SmallVec;
use crate::store::Version;
use crate::version_store::{GcStats, SnapshotRegistry, VersionStore};

/// `next` sentinel: end of a chain / no node.
const NIL: u64 = u64::MAX;
/// `commit_seq` sentinel: an installed but uncommitted intent. Greater
/// than every possible snapshot, so readers skip intents for free.
const PENDING: u64 = u64::MAX;
/// Registration-epoch sentinel: session not in flight.
const EPOCH_IDLE: u64 = u64::MAX;

/// Nodes in the first arena segment; segment `s` holds `1024 << s`.
const SEG_BASE_BITS: u32 = 10;
/// Upper bound on arena segments (capacity ≈ 4 × 10^12 nodes).
const MAX_SEGMENTS: usize = 32;

/// Free-list head encoding: low 40 bits are `index + 1` (0 = empty
/// list), high 24 bits an ABA tag bumped by every successful push/pop.
const FREE_IDX_BITS: u32 = 40;
const FREE_IDX_MASK: u64 = (1 << FREE_IDX_BITS) - 1;

/// One version node. All fields are atomics so the node can be read
/// while concurrent commits extend the chain above it and recycled
/// without ever being dropped.
#[derive(Debug, Default)]
struct Node {
    value: AtomicU64,
    commit_seq: AtomicU64,
    next: AtomicU64,
}

/// Segmented node arena: a fixed table of lazily-initialised segments of
/// doubling size, so an index resolves to a slot in O(1) with plain
/// atomic loads (`OnceLock::get`), and growth never moves existing
/// nodes. Freed indices are recycled through a tagged Treiber stack
/// threaded through the nodes' own `next` fields.
#[derive(Debug)]
struct NodeArena {
    segments: Vec<OnceLock<Box<[Node]>>>,
    /// Next never-used index.
    bump: AtomicU64,
    /// Tagged free-list head (see `FREE_IDX_BITS`).
    free: AtomicU64,
    /// Indices recycled through the free list, cumulatively.
    recycled: AtomicU64,
}

/// `index` → (segment, offset): segment `s` starts at
/// `(2^s - 1) * 1024` and holds `1024 << s` nodes.
fn locate(index: u64) -> (usize, usize) {
    let chunk = index >> SEG_BASE_BITS;
    let seg = (chunk + 1).ilog2();
    let offset = index - (((1u64 << seg) - 1) << SEG_BASE_BITS);
    (seg as usize, offset as usize)
}

impl NodeArena {
    fn new() -> Self {
        NodeArena {
            segments: (0..MAX_SEGMENTS).map(|_| OnceLock::new()).collect(),
            bump: AtomicU64::new(0),
            free: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        }
    }

    /// Allocates a node index: recycled if available, fresh otherwise.
    /// Fresh allocation may initialise a new segment (a one-time
    /// blocking event per segment, off the read path).
    fn alloc(&self) -> u64 {
        if let Some(idx) = self.pop_free() {
            return idx;
        }
        let idx = self.bump.fetch_add(1, Ordering::SeqCst);
        let (seg, _) = locate(idx);
        assert!(seg < MAX_SEGMENTS, "node arena exhausted");
        self.segments[seg].get_or_init(|| {
            (0..(1usize << SEG_BASE_BITS) << seg).map(|_| Node::default()).collect()
        });
        idx
    }

    /// Pushes a no-longer-reachable index onto the free list. The
    /// node's `next` field becomes the free-list link.
    fn free(&self, idx: u64) {
        loop {
            let head = self.free.load(Ordering::SeqCst);
            let first = head & FREE_IDX_MASK;
            self.node(idx).next.store(if first == 0 { NIL } else { first - 1 }, Ordering::SeqCst);
            let tagged = Self::retag(head) | (idx + 1);
            if self.free.compare_exchange(head, tagged, Ordering::SeqCst, Ordering::SeqCst).is_ok()
            {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    fn pop_free(&self) -> Option<u64> {
        loop {
            let head = self.free.load(Ordering::SeqCst);
            let first = head & FREE_IDX_MASK;
            if first == 0 {
                return None;
            }
            let idx = first - 1;
            // If another thread pops and recycles `idx` concurrently,
            // this `next` read is stale — but then the tag has moved and
            // the CAS below fails, so the stale value is never used.
            let next = self.node(idx).next.load(Ordering::SeqCst);
            let tagged = Self::retag(head) | (if next == NIL { 0 } else { next + 1 });
            if self.free.compare_exchange(head, tagged, Ordering::SeqCst, Ordering::SeqCst).is_ok()
            {
                return Some(idx);
            }
        }
    }

    /// The head's tag field, bumped and shifted back into place.
    fn retag(head: u64) -> u64 {
        ((head >> FREE_IDX_BITS).wrapping_add(1) & (u64::MAX >> FREE_IDX_BITS)) << FREE_IDX_BITS
    }

    fn allocated(&self) -> u64 {
        self.bump.load(Ordering::SeqCst)
    }

    fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }
}

// ======================= BEGIN LOCK-FREE READ PATH =======================
// Everything down to the END marker — it sits inside the `VersionStore`
// impl, after `read_at` — is what a read-only transaction executes:
// begin, read, abandon. It must never block: plain atomic operations
// only, no blocking or spinning primitive of any kind. The source lint in
// crates/mvcc/tests/lockfree_properties.rs greps this region for the
// forbidden tokens and fails if one ever creeps in.

impl NodeArena {
    /// Resolves an allocated index to its node: two O(1) index
    /// computations and one `OnceLock` acquire load.
    fn node(&self, idx: u64) -> &Node {
        let (seg, off) = locate(idx);
        &self.segments[seg].get().expect("node index was allocated")[off]
    }
}

impl LockFreeStore {
    /// The commit sequence of the newest *committed* version of `obj`
    /// (pending intents are skipped), also lock-free.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn latest_seq(&self, obj: Obj) -> u64 {
        let mut idx = self.heads[obj.index()].load(Ordering::SeqCst);
        loop {
            assert!(idx != NIL, "chains always retain a committed version");
            let node = self.arena.node(idx);
            let seq = node.commit_seq.load(Ordering::SeqCst);
            if seq != PENDING {
                return seq;
            }
            idx = node.next.load(Ordering::SeqCst);
        }
    }
}

impl VersionStore for LockFreeStore {
    type Config = LockFreeStoreConfig;

    const NAME: &'static str = "SI-lockfree";

    /// The same conservative-guess-first protocol as the sharded store
    /// (the race argument in `shard.rs` applies verbatim: `published` is
    /// monotone and GC reads it before scanning slots). Additionally
    /// stamps the session's registration epoch, which fences retired
    /// nodes from reclamation for as long as the session stays live.
    fn begin_snapshot(&self, session: usize) -> u64 {
        // Conservative epoch first (a concurrent GC pass that bumps the
        // epoch after this load merely keeps the batch longer), then the
        // guess/snapshot pair. The stamp is stored once `register` has
        // range-checked the session — still ahead of the session's
        // first chain walk, which is all the fence protects.
        let epoch = self.epoch.load(Ordering::SeqCst);
        let guess = self.ring.published();
        self.registry.register(session, guess);
        self.reg_epochs[session].store(epoch, Ordering::SeqCst);
        self.ring.published()
    }

    fn end_snapshot(&self, session: usize) {
        self.registry.release(session);
        self.reg_epochs[session].store(EPOCH_IDLE, Ordering::SeqCst);
    }

    /// Snapshot read: a pure chain walk. Skips pending intents (their
    /// `PENDING` sequence exceeds every snapshot) and returns the
    /// newest version at or below `snapshot`. Takes no lock and never
    /// waits on another thread.
    fn read_at(&self, obj: Obj, snapshot: u64) -> Version {
        let mut idx = self.heads[obj.index()].load(Ordering::SeqCst);
        loop {
            assert!(idx != NIL, "GC keeps the newest version at or below every live snapshot");
            let node = self.arena.node(idx);
            let seq = node.commit_seq.load(Ordering::SeqCst);
            if seq <= snapshot {
                return Version {
                    value: Value(node.value.load(Ordering::SeqCst)),
                    commit_seq: seq,
                };
            }
            idx = node.next.load(Ordering::SeqCst);
        }
    }

    // ======================== END LOCK-FREE READ PATH ========================

    /// # Panics
    ///
    /// Panics if `config.sessions` is zero.
    fn new(object_count: usize, config: LockFreeStoreConfig) -> Self {
        assert!(config.sessions > 0, "need at least one session slot");
        let arena = NodeArena::new();
        let heads = (0..object_count)
            .map(|_| {
                let idx = arena.alloc();
                let node = arena.node(idx);
                node.value.store(Value::INITIAL.0, Ordering::SeqCst);
                node.commit_seq.store(0, Ordering::SeqCst);
                node.next.store(NIL, Ordering::SeqCst);
                AtomicU64::new(idx)
            })
            .collect();
        LockFreeStore {
            arena,
            heads,
            object_count,
            initials: vec![Value::INITIAL; object_count],
            alloc: AtomicU64::new(0),
            ring: CompletionRing::new(config.sessions),
            registry: SnapshotRegistry::new(config.sessions),
            reg_epochs: (0..config.sessions).map(|_| AtomicU64::new(EPOCH_IDLE)).collect(),
            epoch: AtomicU64::new(0),
            retired: Mutex::new(VecDeque::new()),
            gc_guard: Mutex::new(()),
            floor_hwm: AtomicU64::new(0),
            installs_since_gc: AtomicU64::new(0),
            gc_interval: config.gc_interval,
            gc_passes: AtomicU64::new(0),
            gc_pruned: AtomicU64::new(0),
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
        let idx = self.heads[obj.index()].load(Ordering::SeqCst);
        self.arena.node(idx).value.store(value.0, Ordering::SeqCst);
        self.initials[obj.index()] = value;
    }

    fn initial(&self, obj: Obj) -> Value {
        self.initials[obj.index()]
    }

    /// First-committer-wins validation, intent installation, sequence
    /// allocation and ring publication.
    fn commit(
        &self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        probe: &EngineProbe,
    ) -> Result<u64, Obj> {
        let result = self.commit_unregistered(session, snapshot, writes, probe);
        self.end_snapshot(session);
        result
    }

    fn gc_stats(&self) -> GcStats {
        GcStats {
            passes: self.gc_passes.load(Ordering::Relaxed),
            pruned: self.gc_pruned.load(Ordering::Relaxed),
        }
    }
}

/// Configuration of a [`LockFreeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockFreeStoreConfig {
    /// Installed versions between GC passes; `0` disables garbage
    /// collection (and therefore reclamation).
    pub gc_interval: u64,
    /// Capacity of the snapshot registry and the completion ring: the
    /// highest session index that may run transactions, plus one.
    pub sessions: usize,
}

impl Default for LockFreeStoreConfig {
    fn default() -> Self {
        LockFreeStoreConfig { gc_interval: 128, sessions: 64 }
    }
}

/// Allocator counters, snapshotted by [`LockFreeStore::arena_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ArenaStats {
    /// Fresh node indices handed out by the bump allocator.
    pub allocated: u64,
    /// Indices recycled through the free list (cumulative).
    pub recycled: u64,
    /// Retired nodes awaiting their epoch fence.
    pub retired_pending: u64,
}

/// A batch of retired node indices, freed once every registered
/// snapshot has advanced past `epoch`.
#[derive(Debug)]
struct RetireBatch {
    epoch: u64,
    nodes: Vec<u64>,
}

/// The lock-free multi-version store (see the module docs for the full
/// protocol). All methods take `&self`; the store is shared across
/// threads by reference.
#[derive(Debug)]
pub struct LockFreeStore {
    arena: NodeArena,
    /// Per-object chain head: an arena index, newest version first.
    heads: Vec<AtomicU64>,
    object_count: usize,
    initials: Vec<Value>,
    /// Commit sequence allocator: the next sequence is `alloc + 1`.
    alloc: AtomicU64,
    /// Out-of-order publication; owns the `published` watermark.
    ring: CompletionRing,
    registry: SnapshotRegistry,
    /// Epoch at which each live session registered (`EPOCH_IDLE` when
    /// idle); gates batch reclamation.
    reg_epochs: Vec<AtomicU64>,
    /// GC pass counter; retiring passes stamp their batches with it.
    epoch: AtomicU64,
    /// Retired batches awaiting their epoch fence (GC path only).
    retired: Mutex<VecDeque<RetireBatch>>,
    /// Serialises GC passes; contended passes are skipped, never waited
    /// for.
    gc_guard: Mutex<()>,
    /// Highest floor any GC pass has cut at. The raw
    /// `min(published, oldest registered)` is not monotone (the
    /// sharded store's registration race applies verbatim: a
    /// conservative guess can surface after a scan that missed it
    /// pruned at a higher floor), and the floor-hunt below assumes
    /// every chain still holds a version at or below the floor — a
    /// regressed floor would walk past the chain bottom onto NIL.
    /// Every floor ever computed stays valid forever (the watermark is
    /// monotone, so future snapshots are at least it), so the clamp is
    /// sound.
    floor_hwm: AtomicU64,
    installs_since_gc: AtomicU64,
    gc_interval: u64,
    gc_passes: AtomicU64,
    gc_pruned: AtomicU64,
}

impl LockFreeStore {
    fn commit_unregistered(
        &self,
        session: usize,
        snapshot: u64,
        writes: &BTreeMap<Obj, Value>,
        probe: &EngineProbe,
    ) -> Result<u64, Obj> {
        // Intents go in ascending object order (BTreeMap iteration
        // order): a committer only ever *waits* on objects above its
        // already-placed intents, so the wait graph is acyclic — the
        // CAS-era equivalent of the sharded store's ascending lock
        // order.
        let mut intents: SmallVec<(u32, u64), 8> = SmallVec::new();
        for (&obj, &value) in writes {
            match self.place_intent(obj, value, snapshot) {
                Ok(idx) => intents.push((obj.0, idx)),
                Err(()) => {
                    // Unlink own intents, newest placement first. The
                    // CAS must succeed: nobody installs above a pending
                    // intent, so each intent is still its chain's head.
                    //
                    // The unlinked intents were *published* (they were
                    // chain heads), so a concurrent walker — a reader
                    // skipping the PENDING sentinel, or a GC pass
                    // hunting the floor version — may still hold their
                    // indices and be about to follow `next`. Freeing
                    // here would overwrite `next` with a free-list link
                    // and send that walker into the free list (or to
                    // NIL). Retire through the epoch fence instead,
                    // exactly like GC tails: the intents' `next` still
                    // points into the live chain, so in-flight walkers
                    // pass through them harmlessly until every
                    // registration from before this instant is gone.
                    let mut unlinked = Vec::with_capacity(intents.len());
                    for &(obj_raw, idx) in intents.iter().rev() {
                        let head = &self.heads[obj_raw as usize];
                        let next = self.arena.node(idx).next.load(Ordering::SeqCst);
                        let swapped =
                            head.compare_exchange(idx, next, Ordering::SeqCst, Ordering::SeqCst);
                        debug_assert!(swapped.is_ok(), "intent was displaced while pending");
                        unlinked.push(idx);
                    }
                    if !unlinked.is_empty() {
                        let epoch = self.epoch.load(Ordering::SeqCst);
                        self.retired.lock().push_back(RetireBatch { epoch, nodes: unlinked });
                    }
                    return Err(obj);
                }
            }
        }

        // Allocate only after validation: refused attempts leave no hole
        // in the sequence space. Storing the sequence into each intent
        // is what commits it — readers switch from skipping to
        // observing the version at that instant.
        let seq = self.alloc.fetch_add(1, Ordering::SeqCst) + 1;
        for &(obj_raw, idx) in intents.iter() {
            self.arena.node(idx).commit_seq.store(seq, Ordering::SeqCst);
            let obj = Obj(obj_raw);
            probe.emit(|| ProbeEvent::VersionInstalled { session, obj, seq });
        }
        self.ring.publish(seq);

        if self.gc_interval > 0 {
            let installed = writes.len() as u64;
            let before = self.installs_since_gc.fetch_add(installed, Ordering::SeqCst);
            if before + installed >= self.gc_interval {
                self.installs_since_gc.store(0, Ordering::SeqCst);
                self.gc(probe);
            }
        }

        // Session visibility: as in the sharded store, don't report the
        // commit until the watermark covers it, so the session's next
        // begin observes its own writes. Only committers holding
        // *smaller* sequences can delay publication, and they never
        // wait on larger ones, so the wait is bounded.
        self.ring.wait_published(seq);
        Ok(seq)
    }

    /// Validates first-committer-wins on `obj` and installs a pending
    /// intent by CAS on the chain head. Waits out other committers'
    /// pending intents (they resolve to a committed sequence or unlink);
    /// returns `Err` on a conflicting committed version.
    fn place_intent(&self, obj: Obj, value: Value, snapshot: u64) -> Result<u64, ()> {
        let head = &self.heads[obj.index()];
        let mut node_idx = NIL;
        loop {
            let h = head.load(Ordering::SeqCst);
            let head_seq = self.arena.node(h).commit_seq.load(Ordering::SeqCst);
            if head_seq == PENDING {
                // Another committer's intent: it either commits in
                // place (head_seq becomes its sequence) or unlinks.
                std::thread::yield_now();
                continue;
            }
            if head_seq > snapshot {
                if node_idx != NIL {
                    self.arena.free(node_idx);
                }
                return Err(());
            }
            if node_idx == NIL {
                node_idx = self.arena.alloc();
                let node = self.arena.node(node_idx);
                node.value.store(value.0, Ordering::SeqCst);
                node.commit_seq.store(PENDING, Ordering::SeqCst);
            }
            self.arena.node(node_idx).next.store(h, Ordering::SeqCst);
            if head.compare_exchange(h, node_idx, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                return Ok(node_idx);
            }
        }
    }

    /// One GC pass: cut every chain at the floor, retire the tails under
    /// the current epoch, then reclaim every batch whose epoch fence has
    /// cleared. Passes are serialised by a try-lock — a contended pass
    /// is simply skipped (the next trigger retries), never waited for.
    fn gc(&self, probe: &EngineProbe) {
        let Some(_guard) = self.gc_guard.try_lock() else {
            return;
        };
        // Watermark before registry scan: the registration protocol's
        // race argument (see `shard.rs` module docs) needs this order.
        let watermark = self.ring.published();
        let raw = match self.registry.oldest() {
            Some(oldest) => watermark.min(oldest),
            None => watermark,
        };
        // Monotone clamp (see `floor_hwm`).
        let floor = self.floor_hwm.fetch_max(raw, Ordering::SeqCst).max(raw);
        let pass_epoch = self.epoch.fetch_add(1, Ordering::SeqCst);

        let mut batch = Vec::new();
        for head in &self.heads {
            // Find the floor version: the newest at or below the floor.
            // Pending intents and too-new versions are walked over; the
            // sequence-0 node guarantees termination.
            let mut idx = head.load(Ordering::SeqCst);
            loop {
                let node = self.arena.node(idx);
                if node.commit_seq.load(Ordering::SeqCst) <= floor {
                    // Cut: everything below the floor version is
                    // unreachable to every live and future snapshot.
                    let mut tail = node.next.swap(NIL, Ordering::SeqCst);
                    while tail != NIL {
                        batch.push(tail);
                        tail = self.arena.node(tail).next.load(Ordering::SeqCst);
                    }
                    break;
                }
                idx = node.next.load(Ordering::SeqCst);
            }
        }

        let pruned = batch.len() as u64;
        self.gc_passes.fetch_add(1, Ordering::Relaxed);
        if pruned > 0 {
            self.gc_pruned.fetch_add(pruned, Ordering::Relaxed);
            probe.emit(|| ProbeEvent::VersionsPruned { shard: 0, floor, pruned });
            self.retired.lock().push_back(RetireBatch { epoch: pass_epoch, nodes: batch });
        }
        self.reclaim();
    }

    /// Frees every retired batch whose epoch every live registration has
    /// advanced past. Called with the GC guard held.
    fn reclaim(&self) {
        let fence = self.min_live_registration_epoch();
        let mut retired = self.retired.lock();
        while let Some(batch) = retired.front() {
            if batch.epoch >= fence {
                break;
            }
            let batch = retired.pop_front().expect("front exists");
            for idx in batch.nodes {
                self.arena.free(idx);
            }
        }
    }

    /// The oldest epoch any live session registered at, or `u64::MAX`
    /// when nothing is in flight (early-exits on the registry's live
    /// count, so an idle store scans nothing).
    fn min_live_registration_epoch(&self) -> u64 {
        if self.registry.live() == 0 {
            return u64::MAX;
        }
        self.reg_epochs.iter().map(|e| e.load(Ordering::SeqCst)).min().unwrap_or(u64::MAX)
    }

    /// The current `published` watermark (what the next snapshot would
    /// observe).
    pub fn published(&self) -> u64 {
        self.ring.published()
    }

    /// Allocator counters so far.
    pub fn arena_stats(&self) -> ArenaStats {
        ArenaStats {
            allocated: self.arena.allocated(),
            recycled: self.arena.recycled(),
            retired_pending: self.retired.lock().iter().map(|b| b.nodes.len() as u64).sum(),
        }
    }

    /// Total versions currently reachable across all chains (including
    /// pending intents; for tests and assertions on a quiesced store).
    pub fn resident_versions(&self) -> usize {
        (0..self.object_count).map(|i| self.versions(Obj::from_index(i)).len()).sum()
    }

    /// All reachable versions of an object, oldest first, including a
    /// pending intent if one is in flight (for tests and assertions on a
    /// quiesced store).
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    pub fn versions(&self, obj: Obj) -> Vec<Version> {
        let mut out = Vec::new();
        let mut idx = self.heads[obj.index()].load(Ordering::SeqCst);
        while idx != NIL {
            let node = self.arena.node(idx);
            out.push(Version {
                value: Value(node.value.load(Ordering::SeqCst)),
                commit_seq: node.commit_seq.load(Ordering::SeqCst),
            });
            idx = node.next.load(Ordering::SeqCst);
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(gc_interval: u64) -> LockFreeStoreConfig {
        LockFreeStoreConfig { gc_interval, sessions: 8 }
    }

    fn commit_one(store: &LockFreeStore, session: usize, obj: Obj, value: Value) -> u64 {
        let snapshot = store.begin_snapshot(session);
        let writes = BTreeMap::from([(obj, value)]);
        store.commit(session, snapshot, &writes, &EngineProbe::disabled()).unwrap()
    }

    #[test]
    fn locate_maps_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(7168), (3, 0));
    }

    #[test]
    fn arena_recycles_freed_indices() {
        let arena = NodeArena::new();
        let a = arena.alloc();
        let b = arena.alloc();
        assert_ne!(a, b);
        arena.free(a);
        assert_eq!(arena.alloc(), a, "free list is LIFO");
        arena.free(b);
        arena.free(a);
        assert_eq!(arena.alloc(), a);
        assert_eq!(arena.alloc(), b);
        assert_eq!(arena.recycled(), 3);
    }

    #[test]
    fn stale_conservative_guess_cannot_regress_the_gc_floor() {
        // Same registration race as the sharded store's test: a
        // conservative guess from before every GC pass surfaces after
        // passes have already cut chains at a higher floor. Unclamped,
        // the raw floor regresses and the floor-hunt walks past the
        // chain bottom onto NIL.
        let store = LockFreeStore::new(1, config(4));
        let x = Obj(0);
        for i in 1..=8 {
            commit_one(&store, 0, x, Value(i));
        }
        assert!(store.gc_stats().pruned > 0, "setup: a pass must have pruned");
        store.registry.register(1, 0);
        store.reg_epochs[1].store(store.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        for i in 9..=16 {
            commit_one(&store, 0, x, Value(i));
        }
        store.registry.release(1);
        store.reg_epochs[1].store(EPOCH_IDLE, Ordering::SeqCst);
        assert_eq!(store.read_at(x, 16).value, Value(16));
    }

    #[test]
    fn snapshot_reads_match_unsharded_semantics() {
        let store = LockFreeStore::new(5, config(0));
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
    fn first_committer_wins_multi_object() {
        let store = LockFreeStore::new(4, config(0));
        let (x, y) = (Obj(0), Obj(1));
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
    fn refused_commit_unlinks_its_intents() {
        let store = LockFreeStore::new(2, config(0));
        let (x, y) = (Obj(0), Obj(1));
        commit_one(&store, 0, y, Value(7));
        // Session 1 began before that commit: its write set {x, y}
        // validates x (clean), places an intent, then hits the y
        // conflict — the x intent must be unlinked and recycled.
        let s1 = 0; // the registry slot is free again after commit_one
        let snap = 0;
        store.registry.register(s1, snap);
        let writes = BTreeMap::from([(x, Value(1)), (y, Value(2))]);
        assert_eq!(store.commit(s1, snap, &writes, &EngineProbe::disabled()), Err(y));
        assert_eq!(store.versions(x).len(), 1, "x intent still linked");
        assert_eq!(store.read_at(x, 1).value, Value::INITIAL);
        // Unlinked intents were published chain heads, so they go
        // through the epoch fence like GC tails instead of straight to
        // the free list (a concurrent walker may still be about to
        // follow their `next`).
        assert!(
            store.arena_stats().retired_pending >= 1,
            "unlinked intent was not retired for epoch reclamation"
        );
    }

    #[test]
    fn gc_prunes_dead_versions_and_reclaims_nodes() {
        let store = LockFreeStore::new(1, config(4));
        let x = Obj(0);
        for i in 1..=24 {
            commit_one(&store, 0, x, Value(i));
        }
        let stats = store.gc_stats();
        assert!(stats.passes >= 2, "expected repeated GC passes, got {stats:?}");
        assert!(stats.pruned > 0);
        assert_eq!(store.read_at(x, 24).value, Value(24));
        assert!(store.resident_versions() < 25, "nothing was pruned");
        // With no snapshot live across passes, later passes reclaim the
        // earlier passes' batches and the arena recycles their indices.
        assert!(store.arena_stats().recycled > 0, "no node was ever recycled");
    }

    #[test]
    fn gc_respects_live_snapshots() {
        let store = LockFreeStore::new(1, config(1));
        let x = Obj(0);
        commit_one(&store, 0, x, Value(1));
        // Session 1 holds snapshot 1 across many later commits.
        let pinned = store.begin_snapshot(1);
        assert_eq!(pinned, 1);
        for i in 2..=10 {
            commit_one(&store, 0, x, Value(i));
        }
        // The pinned snapshot must still read its version, and nothing
        // it can reach may have entered the free list.
        assert_eq!(store.read_at(x, pinned).value, Value(1));
        store.end_snapshot(1);
        // Once released, later passes may collect and recycle.
        commit_one(&store, 0, x, Value(11));
        assert!(store.versions(x).first().unwrap().commit_seq >= 1);
    }

    #[test]
    fn retired_batches_wait_for_the_epoch_fence() {
        let store = LockFreeStore::new(1, config(1));
        let x = Obj(0);
        commit_one(&store, 0, x, Value(1));
        let _pinned = store.begin_snapshot(1);
        let before = store.arena_stats();
        for i in 2..=6 {
            commit_one(&store, 0, x, Value(i));
        }
        // Session 1 is pinned at the registration epoch of its begin:
        // every batch retired since then must still be waiting.
        let during = store.arena_stats();
        assert_eq!(during.recycled, before.recycled, "reclaimed under a live epoch fence");
        store.end_snapshot(1);
        for i in 7..=10 {
            commit_one(&store, 0, x, Value(i));
        }
        assert!(store.arena_stats().recycled > during.recycled, "fence never cleared");
    }

    #[test]
    fn set_initial_round_trips() {
        let mut store = LockFreeStore::new(3, config(0));
        store.set_initial(Obj(2), Value(77));
        assert_eq!(store.initial(Obj(2)), Value(77));
        assert_eq!(store.read_at(Obj(2), 0).value, Value(77));
        assert_eq!(store.initial(Obj(0)), Value::INITIAL);
    }

    #[test]
    #[should_panic(expected = "already has a transaction in flight")]
    fn double_begin_per_session_panics() {
        let store = LockFreeStore::new(1, config(0));
        store.begin_snapshot(0);
        store.begin_snapshot(0);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        // Four threads increment one counter through full FCW retry
        // loops: the final value must equal the number of commits.
        let store = LockFreeStore::new(1, LockFreeStoreConfig { gc_interval: 8, sessions: 4 });
        let x = Obj(0);
        let per_thread = 50u64;
        crossbeam::scope(|scope| {
            for session in 0..4 {
                let store = &store;
                scope.spawn(move |_| {
                    let mut done = 0;
                    while done < per_thread {
                        let snapshot = store.begin_snapshot(session);
                        let v = store.read_at(x, snapshot).value;
                        let writes = BTreeMap::from([(x, Value(v.0 + 1))]);
                        if store
                            .commit(session, snapshot, &writes, &EngineProbe::disabled())
                            .is_ok()
                        {
                            done += 1;
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(store.published(), 200);
        assert_eq!(store.read_at(x, 200).value, Value(200));
    }
}
