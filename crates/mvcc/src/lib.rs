//! Multi-version concurrency-control engines: the operational side of
//! *Analysing Snapshot Isolation* (Cerone & Gotsman, PODC 2016).
//!
//! The paper *defines* SI by an idealised algorithm (§1): a transaction
//! reads from a snapshot taken at start and commits only if no concurrent
//! committed transaction wrote an object it also wrote (first-committer
//! wins). This crate implements that algorithm — and the serializable and
//! parallel-SI comparison points — as deterministic, single-threaded
//! engines driven by a seeded [`Scheduler`], so that the declarative
//! theory of the other crates can be validated against running code:
//!
//! * [`SiEngine`] — snapshot reads + write-conflict detection (strong
//!   session SI: a session's next snapshot always includes its previous
//!   commits);
//! * [`SerEngine`] — optimistic concurrency control validating *both*
//!   read and write sets, a serializable baseline;
//! * [`PsiEngine`] — parallel SI in the style of Walter \[31\]: per-replica
//!   causally-closed snapshots with explicit, scheduler-controlled
//!   replication, so long forks are actually reachable;
//! * [`SsiEngine`] — serializable SI (Cahill et al.): the SI protocol plus
//!   runtime prevention of the Theorem 19 dangerous structure (a pivot
//!   with adjacent inbound and outbound anti-dependencies), so every
//!   committed run is serializable while retaining SI's reads;
//! * [`StoreSiEngine`] — the same SI protocol, written once over the
//!   [`VersionStore`] contract and instantiated per store. Driven by the
//!   scheduler every instance is deterministic and byte-identical to
//!   [`SiEngine`]; the [`stress`] harness runs the same stores genuinely
//!   parallel and validates the run post hoc:
//!   * [`ShardedSiEngine`] over the lock-striped [`ShardedStore`]
//!     (per-shard `RwLock`s, ascending-order multi-shard commit locking,
//!     watermark publication, epoch GC);
//!   * [`LockFreeSiEngine`] over the [`LockFreeStore`]: atomic version
//!     chains (readers take **no** lock), CAS-validated
//!     first-committer-wins, a lock-free commit-completion ring for
//!     out-of-order watermark publication, and epoch-deferred node
//!     reclamation;
//!   * [`GlobalLockSiEngine`] over the [`GlobalLockStore`], one `RwLock`
//!     around the whole [`MultiVersionStore`]: the baseline the other
//!     two are measured against.
//!
//! Every engine reports ground truth on commit: its commit sequence
//! number and the set of transactions visible to its snapshot. The
//! [`Recorder`] turns a finished run into a [`History`] and an
//! [`AbstractExecution`](si_execution::AbstractExecution), which tests
//! check against the paper's axioms and dependency-graph
//! characterisations (e.g. *every* SI-engine run must land in `GraphSI`).
//!
//! Transactions are expressed in a small deterministic script language
//! ([`Script`]) sufficient for the paper's workloads — bank transfers,
//! balance checks, counters, long forks — with conditional early commit
//! for write-skew-style guards. Aborted transactions are retried, per the
//! paper's §5 assumption that clients resubmit aborted pieces.
//!
//! # Example: write skew happens under SI, not under OCC serializability
//!
//! ```
//! use si_mvcc::{Scheduler, SchedulerConfig, Script, SiEngine, SerEngine, Workload};
//! use si_model::Obj;
//!
//! let (x, y) = (Obj(0), Obj(1));
//! // Two "withdraw if the combined balance allows it" transactions.
//! let w1 = Script::new().read(x).read(y).write_const(x, 0);
//! let w2 = Script::new().read(x).read(y).write_const(y, 0);
//! let workload = Workload::new(2)
//!     .initial(x, 60)
//!     .initial(y, 60)
//!     .session([w1])
//!     .session([w2]);
//!
//! let mut scheduler = Scheduler::new(SchedulerConfig { seed: 7, ..Default::default() });
//! let si_run = scheduler.run(&mut SiEngine::new(2), &workload);
//! // Under SI both may commit (write skew is allowed); under OCC
//! // serializability at least one observes the other or aborts-and-retries.
//! assert_eq!(si_run.stats.committed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod concurrent;
mod engine;
pub mod lockfree;
pub mod probe;
mod psi_engine;
mod recorder;
mod ring;
mod scheduler;
mod script;
mod ser_engine;
pub mod shard;
mod si_engine;
mod small;
mod ssi_engine;
mod store;
mod store_engine;
mod version_store;

pub use concurrent::{
    stress, stress_history_only, stress_probed, stress_si_engine, stress_si_engine_probed,
    StressConfig, StressEngine, StressHistory, StressOutcome,
};
pub use engine::{AbortReason, CommitInfo, Engine, TxToken};
pub use lockfree::{ArenaStats, LockFreeStore, LockFreeStoreConfig};
pub use probe::{EngineProbe, ProbeEvent, ProbeSink, VecProbe};
pub use psi_engine::PsiEngine;
pub use recorder::{CommittedTx, Recorder, RunResult, RunStats, VisibleSet};
pub use ring::CompletionRing;
pub use scheduler::{Scheduler, SchedulerConfig, Workload};
pub use script::{Script, ScriptOp};
pub use ser_engine::SerEngine;
pub use shard::{ShardedStore, ShardedStoreConfig};
pub use si_engine::SiEngine;
pub use small::SmallVec;
pub use ssi_engine::SsiEngine;
pub use store::{MultiVersionStore, Version};
pub use store_engine::{GlobalLockSiEngine, LockFreeSiEngine, ShardedSiEngine, StoreSiEngine};
pub use version_store::{GcStats, GlobalLockStore, SnapshotRegistry, VersionStore};

pub use si_model::{History, Obj, Value};
pub use si_telemetry::{
    AbortCause, CountingSink, Event, JsonlSink, MetricsRegistry, MetricsReport, NullSink,
    Telemetry, TelemetrySink,
};
