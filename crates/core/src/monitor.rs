//! An incremental, online SI checker — the runtime-monitoring application
//! the paper motivates in §1 ("this way of specifying consistency models
//! has been shown to be particularly appropriate for … run-time
//! monitoring [9, 36]").
//!
//! The monitor receives committed transactions one at a time, each with
//! the dependencies the system observed (which writer each read saw, and
//! the object version orders), and flags the *first* transaction whose
//! arrival takes the accumulated dependency graph outside the chosen
//! graph class. Because edges only ever get added, a violation is final —
//! exactly the monotonicity that makes Theorem 9's acyclicity condition
//! monitorable online.
//!
//! Two engines implement the check, each with its own edge rule:
//!
//! * the default **incremental** engine ([`IncrementalClass`]) maintains
//!   the class's characteristic relation under edge insertion
//!   (Pearce–Kelly online topological order), fed only the *covering*
//!   edges of [`DependencyGraph::covering_edges`]: `SO` from the session
//!   predecessor, `WR`, `WW` from the previous version, and one `RW` per
//!   read, to the immediate overwriter of the version read. Per object
//!   it keeps the version order and the readers of the live version
//!   only; a read of an older version finds its overwriter by binary
//!   search (versions arrive in `TxId` order), a read of the live version
//!   waits in that list for the next write, which takes the whole list.
//!   So an append feeds O(ops) edges and costs the bounded searches they
//!   trigger — the way production black-box checkers such as PolySI
//!   scale;
//! * the **dense oracle** engine ([`SiMonitor::new_dense`]) derives the
//!   full Definition 5/6 relations (`SO` closed along the session chain,
//!   every earlier version, every later overwriter) and recomputes the
//!   composed relation from scratch with the bitset [`Relation`] algebra
//!   on every append — `O(n³/64)` per append. It is the
//!   differential-testing oracle (`tests/monitor.rs` compares the two
//!   after every append, which tests the covering-edge lemma online) and
//!   the baseline of `crates/bench/benches/monitor_scaling`.

use si_depgraph::DependencyGraph;
use si_execution::SpecModel;
use si_model::Obj;
use si_relations::{ClassKind, DepEdgeKind, IncrementalClass, IncrementalStats, Relation, TxId};
use si_telemetry::{EdgeKind, Event, SpanTimer, Telemetry};

/// A transaction reported to the monitor: its dependencies as observed by
/// the system.
#[derive(Debug, Clone, Default)]
pub struct ObservedTx {
    /// Session predecessor, if any (the previous transaction of the same
    /// session); induces the `SO` edge `predecessor → this` (the dense
    /// oracle also adds the edges from the predecessor's own
    /// predecessors, closing `SO` transitively).
    pub session_predecessor: Option<TxId>,
    /// `(object, writer)` pairs: this transaction's external read of
    /// `object` observed `writer`'s version. `writer` must already have
    /// been appended with `object` among its writes.
    pub reads_from: Vec<(Obj, TxId)>,
    /// Objects this transaction wrote. The monitor appends it to each
    /// object's version order (systems report commits in version order —
    /// true of first-committer-wins implementations).
    pub writes: Vec<Obj>,
}

/// The verdict for one appended transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// The accumulated graph is still in the monitored class.
    Consistent,
    /// This transaction's edges closed a forbidden cycle; the monitored
    /// class is violated from this transaction on.
    Violation {
        /// A witness cycle of the class's composed relation.
        cycle: Vec<TxId>,
    },
}

/// The check engine backing a monitor, with the derivation state its
/// edge rule needs (module docs).
#[derive(Debug, Clone)]
enum MonitorEngine {
    /// Online maintenance of the class's characteristic relation over the
    /// covering edges.
    Incremental {
        /// Boxed: the maintainer's index vectors dwarf the other handles.
        class: Box<IncrementalClass>,
        /// Per object: the readers of its live (newest) version, whose
        /// anti-dependency goes to the next version when it arrives.
        live_readers: Vec<Vec<TxId>>, // indexed by Obj
    },
    /// From-scratch dense recomposition per append over the full
    /// relations (the oracle).
    Dense {
        /// `SO ∪ WR ∪ WW` so far.
        dep: Relation,
        /// `RW` so far.
        rw: Relation,
        /// Per transaction: its session predecessor, walked to close `SO`.
        so_pred: Vec<Option<TxId>>,
        /// Per object: every transaction that externally read one of its
        /// versions, each anti-depending on every later version.
        readers_of: Vec<Vec<TxId>>, // indexed by Obj
    },
}

/// Incremental SI/SER/PSI monitor over a stream of committed
/// transactions.
///
/// # Example
///
/// ```
/// use si_core::{ObservedTx, SiMonitor};
/// use si_execution::SpecModel;
/// use si_model::Obj;
///
/// let mut monitor = SiMonitor::new(SpecModel::Si);
/// let x = Obj(0);
/// let y = Obj(1);
/// let init = monitor.append(ObservedTx { writes: vec![x, y], ..Default::default() });
/// assert!(monitor.is_consistent());
///
/// // Write skew: both read the initial versions, write disjointly — SI
/// // tolerates it…
/// let _t1 = monitor.append(ObservedTx {
///     reads_from: vec![(x, init), (y, init)],
///     writes: vec![x],
///     ..Default::default()
/// });
/// let _t2 = monitor.append(ObservedTx {
///     reads_from: vec![(x, init), (y, init)],
///     writes: vec![y],
///     ..Default::default()
/// });
/// assert!(monitor.is_consistent());
/// ```
#[derive(Debug, Clone)]
pub struct SiMonitor {
    model: SpecModel,
    engine: MonitorEngine,
    /// Version order per object, in append (hence `TxId`) order.
    version_order: Vec<Vec<TxId>>, // indexed by Obj
    violated: Option<Vec<TxId>>,
    next_tx: u32,
    telemetry: Telemetry,
    /// Reusable per-append edge buffer.
    scratch: Vec<(EdgeKind, TxId, TxId)>,
}

fn dep_kind(kind: EdgeKind) -> DepEdgeKind {
    match kind {
        EdgeKind::So => DepEdgeKind::So,
        EdgeKind::Wr => DepEdgeKind::Wr,
        EdgeKind::Ww => DepEdgeKind::Ww,
        EdgeKind::Rw => DepEdgeKind::Rw,
    }
}

fn class_of(model: SpecModel) -> ClassKind {
    match model {
        SpecModel::Si => ClassKind::Si,
        SpecModel::Ser => ClassKind::Ser,
        SpecModel::Psi => ClassKind::Psi,
    }
}

/// The index of `writer`'s version in `x`'s version `order`, which is
/// sorted: versions are appended in `TxId` order.
///
/// # Panics
///
/// Panics if `writer` has not written `x`: the read's anti-dependencies
/// could not be derived, and skipping them would hide cycles.
fn version_index(order: &[TxId], x: Obj, writer: TxId) -> usize {
    order
        .binary_search(&writer)
        .unwrap_or_else(|_| panic!("read of {x} from {writer}, which has not written {x}"))
}

/// The dense oracle's verdict over accumulated `dep`/`rw` relations.
fn dense_verdict(model: SpecModel, dep: &Relation, rw: &Relation) -> (Relation, Option<Vec<TxId>>) {
    let composed = match model {
        SpecModel::Si => dep.compose_opt(rw),
        SpecModel::Ser => dep.union(rw),
        SpecModel::Psi => dep.transitive_closure().compose_opt(rw),
    };
    let cycle = match model {
        SpecModel::Psi => (0..composed.universe() as u32)
            .map(TxId)
            .find(|&t| composed.contains(t, t))
            .map(|t| vec![t]),
        _ => composed.find_cycle(),
    };
    (composed, cycle)
}

impl SiMonitor {
    /// Creates a monitor for the given model's graph class, backed by the
    /// incremental engine.
    pub fn new(model: SpecModel) -> Self {
        Self::with_engine(
            model,
            MonitorEngine::Incremental {
                class: Box::new(IncrementalClass::new(class_of(model), 0)),
                live_readers: Vec::new(),
            },
        )
    }

    /// Creates a monitor backed by the dense from-scratch engine over the
    /// full Definition 5/6 relations — `O(n³/64)` per append.
    /// Verdict-equivalent to [`SiMonitor::new`] (witness cycles may
    /// differ); kept as the differential-testing oracle and benchmark
    /// baseline.
    pub fn new_dense(model: SpecModel) -> Self {
        Self::with_engine(
            model,
            MonitorEngine::Dense {
                dep: Relation::new(0),
                rw: Relation::new(0),
                so_pred: Vec::new(),
                readers_of: Vec::new(),
            },
        )
    }

    fn with_engine(model: SpecModel, engine: MonitorEngine) -> Self {
        SiMonitor {
            model,
            engine,
            version_order: Vec::new(),
            violated: None,
            next_tx: 0,
            telemetry: Telemetry::disabled(),
            scratch: Vec::new(),
        }
    }

    /// Creates a monitor that emits
    /// [`EdgeAdded`](si_telemetry::Event::EdgeAdded) /
    /// [`CycleSearchStep`](si_telemetry::Event::CycleSearchStep) /
    /// [`VerdictEmitted`](si_telemetry::Event::VerdictEmitted) telemetry.
    pub fn with_telemetry(model: SpecModel, telemetry: Telemetry) -> Self {
        let mut monitor = SiMonitor::new(model);
        monitor.telemetry = telemetry;
        monitor
    }

    /// Attaches (or replaces) the telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether this monitor runs the dense from-scratch oracle engine.
    pub fn is_dense_oracle(&self) -> bool {
        matches!(self.engine, MonitorEngine::Dense { .. })
    }

    /// Warm-starts a monitor as if the first `prefix` transactions of
    /// `graph` (in `TxId` order) had been appended, paying only the edge
    /// application plus a *single* verdict check at the end — the cheap
    /// way to resume monitoring from an offline-validated checkpoint, and
    /// what lets benchmarks measure steady-state append cost without
    /// replaying the dense engine's per-append checks.
    ///
    /// Requires the graph's dependencies to point backwards in `TxId`
    /// order (true of engine-extracted, commit-ordered graphs); panics
    /// otherwise. Set `dense` for the dense oracle engine.
    pub fn resume_from_graph(
        model: SpecModel,
        graph: &DependencyGraph,
        prefix: usize,
        dense: bool,
    ) -> Self {
        let mut monitor = if dense { Self::new_dense(model) } else { Self::new(model) };
        let h = graph.history();
        let mut last_of_session: Vec<Option<TxId>> = vec![None; h.session_count()];
        for t in h.tx_ids().take(prefix) {
            let session = h.session_of(t);
            let tx = ObservedTx {
                session_predecessor: session.and_then(|s| last_of_session[s.index()]),
                reads_from: h
                    .transaction(t)
                    .external_read_set()
                    .into_iter()
                    .map(|x| (x, graph.writer_for(t, x).expect("reads have writers")))
                    .collect(),
                writes: h.transaction(t).write_set(),
            };
            if let Some(s) = session {
                last_of_session[s.index()] = Some(t);
            }
            let id = TxId(monitor.next_tx);
            monitor.next_tx += 1;
            monitor.grow(monitor.next_tx as usize);
            monitor.apply_observed(&tx, id);
        }
        // One verdict for the whole prefix (the incremental engine has
        // been checking all along; the dense engine composes once).
        monitor.violated = match &monitor.engine {
            MonitorEngine::Incremental { class, .. } => class.violation().map(<[TxId]>::to_vec),
            MonitorEngine::Dense { dep, rw, .. } => dense_verdict(model, dep, rw).1,
        };
        monitor
    }

    /// The telemetry label of this monitor's verdicts.
    fn check_label(&self) -> &'static str {
        match self.model {
            SpecModel::Si => "monitor.si",
            SpecModel::Ser => "monitor.ser",
            SpecModel::Psi => "monitor.psi",
        }
    }

    /// Number of transactions appended so far.
    pub fn tx_count(&self) -> usize {
        self.next_tx as usize
    }

    /// Whether no violation has been flagged yet.
    pub fn is_consistent(&self) -> bool {
        self.violated.is_none()
    }

    /// The first violation's witness cycle, if any.
    pub fn violation(&self) -> Option<&[TxId]> {
        self.violated.as_deref()
    }

    /// Appends a committed transaction and returns its [`TxId`]; query
    /// the monitor state with
    /// [`SiMonitor::is_consistent`] / [`SiMonitor::violation`].
    ///
    /// Once a violation is flagged the monitor stays violated (edges are
    /// only added, so the forbidden cycle never disappears).
    ///
    /// # Panics
    ///
    /// Panics if a read names a writer that has not (yet) been appended
    /// with that object among its writes: such a read has no place in the
    /// version order, so its anti-dependencies cannot be derived.
    pub fn append(&mut self, tx: ObservedTx) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.grow(self.next_tx as usize);

        let check_needed = self.violated.is_none();
        let timer = SpanTimer::start();
        let stats_before = match &self.engine {
            MonitorEngine::Incremental { class, .. } => class.stats(),
            MonitorEngine::Dense { .. } => IncrementalStats::default(),
        };

        self.apply_observed(&tx, id);

        if check_needed {
            let check = self.check_label();
            let (cycle, edges, stats) = match &mut self.engine {
                MonitorEngine::Incremental { class, .. } => {
                    let mut stats = class.stats();
                    stats.visited -= stats_before.visited;
                    stats.reordered -= stats_before.reordered;
                    (class.violation().map(<[TxId]>::to_vec), class.maintained_edge_count(), stats)
                }
                MonitorEngine::Dense { dep, rw, .. } => {
                    let (composed, cycle) = dense_verdict(self.model, dep, rw);
                    (cycle, composed.edge_count(), IncrementalStats::default())
                }
            };
            let nanos = timer.elapsed_nanos();
            self.telemetry.emit(|| Event::CycleSearchStep {
                check,
                nodes: u64::from(self.next_tx),
                edges: edges as u64,
                visited: stats.visited,
                reordered: stats.reordered,
            });
            self.telemetry.emit(|| Event::VerdictEmitted { check, ok: cycle.is_none(), nanos });
            self.violated = cycle;
        }
        id
    }

    /// Derives `id`'s dependency edges by the engine's rule and applies
    /// them to the engine (emitting [`Event::EdgeAdded`] per edge),
    /// without checking.
    fn apply_observed(&mut self, tx: &ObservedTx, id: TxId) {
        let mut edges = std::mem::take(&mut self.scratch);
        edges.clear();
        let touched = tx.reads_from.iter().map(|&(x, _)| x).chain(tx.writes.iter().copied());
        if let Some(x) = touched.max() {
            self.ensure_obj(x);
        }
        let version_order = &mut self.version_order;

        match &mut self.engine {
            MonitorEngine::Incremental { live_readers, .. } => {
                if let Some(pred) = tx.session_predecessor {
                    edges.push((EdgeKind::So, pred, id));
                }
                // `id` is not in any version order yet, so the immediate
                // overwriter of a version it read is never `id` itself.
                for &(x, writer) in &tx.reads_from {
                    edges.push((EdgeKind::Wr, writer, id));
                    let order = &version_order[x.index()];
                    match order.get(version_index(order, x, writer) + 1) {
                        Some(&overwriter) => edges.push((EdgeKind::Rw, id, overwriter)),
                        None => live_readers[x.index()].push(id),
                    }
                }
                // The new version overwrites the live one: `WW` from it,
                // `RW` from each of its readers but `id` (for whom the
                // dropped edges are paths through `id -WW→ next`).
                for &x in &tx.writes {
                    let order = &mut version_order[x.index()];
                    if let Some(&prev) = order.last() {
                        edges.push((EdgeKind::Ww, prev, id));
                    }
                    for reader in live_readers[x.index()].drain(..) {
                        if reader != id {
                            edges.push((EdgeKind::Rw, reader, id));
                        }
                    }
                    order.push(id);
                }
            }
            MonitorEngine::Dense { so_pred, readers_of, .. } => {
                // SO edge, transitively extended along the session chain.
                if let Some(pred) = tx.session_predecessor {
                    let mut cur = Some(pred);
                    while let Some(p) = cur {
                        edges.push((EdgeKind::So, p, id));
                        cur = so_pred[p.index()];
                    }
                    so_pred[id.index()] = Some(pred);
                }
                // WR edges, and RW edges towards every writer that already
                // overwrote the observed version.
                for &(x, writer) in &tx.reads_from {
                    edges.push((EdgeKind::Wr, writer, id));
                    let order = &version_order[x.index()];
                    for &s in &order[version_index(order, x, writer) + 1..] {
                        edges.push((EdgeKind::Rw, id, s));
                    }
                    readers_of[x.index()].push(id);
                }
                // WW edges from every earlier version; every earlier reader
                // of the object now anti-depends on this one.
                for &x in &tx.writes {
                    for &prev in &version_order[x.index()] {
                        edges.push((EdgeKind::Ww, prev, id));
                    }
                    for &reader in &readers_of[x.index()] {
                        if reader != id {
                            edges.push((EdgeKind::Rw, reader, id));
                        }
                    }
                    version_order[x.index()].push(id);
                }
            }
        }

        for &(kind, from, to) in &edges {
            self.telemetry.emit(|| Event::EdgeAdded { kind, from: from.0, to: to.0 });
            match &mut self.engine {
                MonitorEngine::Incremental { class, .. } => {
                    class.add(dep_kind(kind), from, to);
                }
                MonitorEngine::Dense { dep, rw, .. } => {
                    match kind {
                        EdgeKind::Rw => rw.insert(from, to),
                        _ => dep.insert(from, to),
                    };
                }
            }
        }
        self.scratch = edges;
    }

    fn grow(&mut self, n: usize) {
        match &mut self.engine {
            MonitorEngine::Incremental { class, .. } => class.grow(n),
            MonitorEngine::Dense { dep, rw, so_pred, .. } => {
                *dep = dep.grown(n);
                *rw = rw.grown(n);
                so_pred.resize(n, None);
            }
        }
    }

    fn ensure_obj(&mut self, x: Obj) {
        let n = x.index() + 1;
        if n > self.version_order.len() {
            self.version_order.resize(n, Vec::new());
            match &mut self.engine {
                MonitorEngine::Incremental { live_readers, .. } => {
                    live_readers.resize(n, Vec::new())
                }
                MonitorEngine::Dense { readers_of, .. } => readers_of.resize(n, Vec::new()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Obj {
        Obj(0)
    }
    fn y() -> Obj {
        Obj(1)
    }

    /// Both engines, so every scenario differentially tests the
    /// incremental path against the dense oracle.
    fn monitors(model: SpecModel) -> [SiMonitor; 2] {
        [SiMonitor::new(model), SiMonitor::new_dense(model)]
    }

    fn init(monitor: &mut SiMonitor) -> TxId {
        monitor.append(ObservedTx { writes: vec![x(), y()], ..Default::default() })
    }

    #[test]
    fn write_skew_tolerated_by_si_flagged_by_ser() {
        for (model, expect_ok) in [(SpecModel::Si, true), (SpecModel::Ser, false)] {
            for mut m in monitors(model) {
                let i = init(&mut m);
                m.append(ObservedTx {
                    reads_from: vec![(x(), i), (y(), i)],
                    writes: vec![x()],
                    ..Default::default()
                });
                m.append(ObservedTx {
                    reads_from: vec![(x(), i), (y(), i)],
                    writes: vec![y()],
                    ..Default::default()
                });
                assert_eq!(m.is_consistent(), expect_ok, "{model} dense={}", m.is_dense_oracle());
            }
        }
    }

    #[test]
    fn lost_update_flagged_by_all() {
        for model in SpecModel::ALL {
            for mut m in monitors(model) {
                let i = init(&mut m);
                m.append(ObservedTx {
                    reads_from: vec![(x(), i)],
                    writes: vec![x()],
                    ..Default::default()
                });
                m.append(ObservedTx {
                    reads_from: vec![(x(), i)],
                    writes: vec![x()],
                    ..Default::default()
                });
                assert!(!m.is_consistent(), "{model} missed the lost update");
            }
        }
    }

    #[test]
    fn long_fork_tolerated_only_by_psi() {
        for (model, expect_ok) in
            [(SpecModel::Psi, true), (SpecModel::Si, false), (SpecModel::Ser, false)]
        {
            for mut m in monitors(model) {
                let i = init(&mut m);
                let w1 = m.append(ObservedTx { writes: vec![x()], ..Default::default() });
                let w2 = m.append(ObservedTx { writes: vec![y()], ..Default::default() });
                m.append(ObservedTx {
                    reads_from: vec![(x(), w1), (y(), i)],
                    ..Default::default()
                });
                m.append(ObservedTx {
                    reads_from: vec![(x(), i), (y(), w2)],
                    ..Default::default()
                });
                assert_eq!(m.is_consistent(), expect_ok, "{model}");
            }
        }
    }

    #[test]
    fn violation_is_sticky_and_witnessed() {
        for mut m in monitors(SpecModel::Si) {
            let i = init(&mut m);
            m.append(ObservedTx {
                reads_from: vec![(x(), i)],
                writes: vec![x()],
                ..Default::default()
            });
            m.append(ObservedTx {
                reads_from: vec![(x(), i)],
                writes: vec![x()],
                ..Default::default()
            });
            assert!(!m.is_consistent());
            let witness = m.violation().unwrap().to_vec();
            assert!(!witness.is_empty());
            // Appending a harmless transaction does not clear the flag.
            m.append(ObservedTx { writes: vec![y()], ..Default::default() });
            assert!(!m.is_consistent());
            assert_eq!(m.violation().unwrap(), witness.as_slice());
        }
    }

    #[test]
    fn session_chains_count() {
        // T1 writes x; same session's T2 "reads stale x" (observes init
        // although T1 precedes it in the session) — SESSION makes this a
        // violation in every model.
        for mut m in monitors(SpecModel::Si) {
            let i = init(&mut m);
            let t1 = m.append(ObservedTx { writes: vec![x()], ..Default::default() });
            m.append(ObservedTx {
                session_predecessor: Some(t1),
                reads_from: vec![(x(), i)],
                ..Default::default()
            });
            assert!(!m.is_consistent());
        }
    }

    #[test]
    #[should_panic(expected = "read of x0 from T0, which has not written x0")]
    fn read_from_a_non_writer_panics() {
        let mut m = SiMonitor::new(SpecModel::Si);
        let t0 = m.append(ObservedTx { writes: vec![y()], ..Default::default() });
        m.append(ObservedTx { reads_from: vec![(x(), t0)], ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "read of x1 from T2, which has not written x1")]
    fn dense_oracle_read_from_a_future_writer_panics() {
        let mut m = SiMonitor::new_dense(SpecModel::Si);
        init(&mut m);
        m.append(ObservedTx { reads_from: vec![(y(), TxId(2))], ..Default::default() });
    }

    #[test]
    fn covering_feed_sends_one_anti_dependency_per_read() {
        // Four readers of init's x, then four overwriters: the dense rule
        // draws 16 RW edges, the covering rule one per reader (to the
        // first overwriter) and one WW per version.
        let sink = std::sync::Arc::new(si_telemetry::CountingSink::default());
        let mut m = SiMonitor::with_telemetry(SpecModel::Si, Telemetry::new(sink.clone()));
        let i = init(&mut m);
        for _ in 0..4 {
            m.append(ObservedTx { reads_from: vec![(x(), i)], ..Default::default() });
        }
        for _ in 0..4 {
            m.append(ObservedTx { writes: vec![x()], ..Default::default() });
        }
        assert!(m.is_consistent());
        assert_eq!(sink.edges(EdgeKind::Wr), 4);
        assert_eq!(sink.edges(EdgeKind::Rw), 4);
        assert_eq!(sink.edges(EdgeKind::Ww), 4);
        // A late reader of the first version gets its single edge to the
        // immediate overwriter, found by binary search.
        let first = TxId(i.0 + 5);
        m.append(ObservedTx { reads_from: vec![(x(), first)], ..Default::default() });
        assert_eq!(sink.edges(EdgeKind::Rw), 5);
    }

    #[test]
    fn serial_stream_stays_consistent() {
        for mut m in monitors(SpecModel::Ser) {
            let mut last = init(&mut m);
            for _ in 0..10 {
                last = m.append(ObservedTx {
                    session_predecessor: Some(last),
                    reads_from: vec![(x(), last)],
                    writes: vec![x()],
                });
                assert!(m.is_consistent());
            }
            assert_eq!(m.tx_count(), 11); // init + 10 increments
        }
    }
}
