//! The covering-edge lemma, tested differentially.
//!
//! `DependencyGraph::covering_edges` keeps `SO` to the session successor,
//! every `WR`, `WW` to the next version and `RW` to the immediate
//! overwriter. The lemma (DESIGN.md §5, "Covering edges") says the
//! characteristic relations of SER, SI, PSI and PC built from them give
//! the verdicts the full Definition 5/6 relations give. Here every input
//! is decided three ways: the covering feed and the full feed on one
//! `IncrementalClass`, and the dense bitset relations. The inputs are
//! random graphs (version orders in any order), generated histories with
//! each seeded anomaly cluster at a size where `check_si` / `check_ser`
//! take the incremental path, and scheduler-driven engine recordings.
//!
//! The edge counts that make the lemma worth having are tested by
//! counting, not timing: the monitor feeds at most
//! `n + 2·Σ|reads| + Σ|writes|` edges, and `check_si` maintains at most
//! `|D_cov| · (1 + max reads per transaction)` composed edges.

mod common;

use std::sync::{Arc, Mutex};

use common::arb_dependency_graph;
use proptest::prelude::*;

use analysing_si::analysis::pc::check_pc_graph;
use analysing_si::analysis::{
    check_ser, check_si, check_si_traced, MembershipError, ObservedTx, SiMonitor,
    INCREMENTAL_CROSSOVER,
};
use analysing_si::depgraph::{extract, DepGraphBuilder, DependencyGraph};
use analysing_si::execution::SpecModel;
use analysing_si::model::{History, HistoryBuilder, Op};
use analysing_si::mvcc::{
    stress, Engine, PsiEngine, Scheduler, SchedulerConfig, SerEngine, SiEngine, SsiEngine,
    StressConfig, StressEngine,
};
use analysing_si::relations::{ClassKind, DepEdgeKind, IncrementalClass, Relation, TxId};
use analysing_si::telemetry::{CountingSink, Event, Telemetry, TelemetrySink};
use analysing_si::workloads::histgen::{generate, Anomaly, HistGen};
use analysing_si::workloads::random::{random_mix, RandomMix};

type Edge = (DepEdgeKind, TxId, TxId);

const CLASSES: [ClassKind; 4] = [ClassKind::Ser, ClassKind::Si, ClassKind::Psi, ClassKind::Pc];

/// The full feed: every `SO` pair, every ordered pair of each version
/// order, an `RW` edge from each reader to every later overwriter — the
/// Definition 5/6 relations edge by edge. Anti-dependencies go last, so
/// the PSI class sweeps once per anti-dependency rather than once per
/// dependency (the verdict does not depend on the order).
fn full_edges(g: &DependencyGraph) -> Vec<Edge> {
    let mut edges: Vec<Edge> =
        g.so_relation().iter_pairs().map(|(a, b)| (DepEdgeKind::So, a, b)).collect();
    for x in g.objects() {
        edges.extend(g.wr_pairs(x).into_iter().map(|(a, b)| (DepEdgeKind::Wr, a, b)));
        edges.extend(g.ww_pairs(x).into_iter().map(|(a, b)| (DepEdgeKind::Ww, a, b)));
    }
    for x in g.objects() {
        edges.extend(g.rw_pairs(x).into_iter().map(|(a, b)| (DepEdgeKind::Rw, a, b)));
    }
    edges
}

/// Whether `kind`'s condition holds after feeding `edges`.
fn fed_consistent(kind: ClassKind, n: usize, edges: impl IntoIterator<Item = Edge>) -> bool {
    let mut class = IncrementalClass::new(kind, n);
    edges.into_iter().all(|(edge, a, b)| class.add(edge, a, b))
}

/// The characteristic condition of `kind` on the dense full relations.
fn dense_consistent(kind: ClassKind, g: &DependencyGraph) -> bool {
    match kind {
        ClassKind::Ser => g.all_relation().is_acyclic(),
        ClassKind::Si => g.dep_relation().compose_opt(&g.rw_relation()).is_acyclic(),
        ClassKind::Psi => {
            let composed = g.dep_relation().transitive_closure().compose_opt(&g.rw_relation());
            g.history().tx_ids().all(|t| !composed.contains(t, t))
        }
        // Dense at every size; the inputs here all satisfy INT.
        ClassKind::Pc => check_pc_graph(g).is_ok(),
    }
}

/// The lemma on one graph: covering feed = full feed = dense, per class.
/// Returns the verdicts in [`CLASSES`] order.
fn assert_lemma(g: &DependencyGraph) -> [bool; 4] {
    let n = g.tx_count();
    let full = full_edges(g);
    CLASSES.map(|kind| {
        let covering = fed_consistent(kind, n, g.covering_edges());
        assert_eq!(covering, fed_consistent(kind, n, full.iter().copied()), "{kind:?}: full feed");
        assert_eq!(covering, dense_consistent(kind, g), "{kind:?}: dense relations");
        covering
    })
}

fn assert_cycle_of(relation: &Relation, nodes: &[TxId]) {
    assert!(!nodes.is_empty(), "empty witness");
    for (i, &a) in nodes.iter().enumerate() {
        let b = nodes[(i + 1) % nodes.len()];
        assert!(relation.contains(a, b), "witness step {a} -> {b} is not an edge");
    }
}

/// Every cycle `check_si` / `check_ser` reports is a cycle of the dense
/// composed relation its class names, whichever path decided it.
fn assert_witnesses_are_dense_cycles(g: &DependencyGraph) {
    if let Err(MembershipError::Cycle { nodes, .. }) = check_si(g) {
        assert_cycle_of(&g.dep_relation().compose_opt(&g.rw_relation()), &nodes);
    }
    if let Err(MembershipError::Cycle { nodes, .. }) = check_ser(g) {
        assert_cycle_of(&g.all_relation(), &nodes);
    }
}

fn graph_of(h: History) -> DependencyGraph {
    let mut builder = DepGraphBuilder::new(h);
    builder.infer_wr();
    builder.build().expect("distinct values pin every writer; versions in commit order")
}

/// A generated history big enough for the incremental path, with
/// distinct written values so each read names its writer.
fn generated(seed: u64, inject: Option<Anomaly>) -> DependencyGraph {
    graph_of(generate(&HistGen {
        sessions: 8,
        txs_per_session: 40,
        ops_per_tx: 4,
        objects: 64,
        read_ratio: 0.5,
        blind_write_ratio: 0.05,
        duplicate_ratio: 0.0,
        zipf_s: 0.5,
        seed,
        inject,
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random graphs: arbitrary sessions, reads of any writer, version
    /// orders in any permutation (not only commit order).
    #[test]
    fn covering_feed_matches_full_feed_on_random_graphs(g in arb_dependency_graph(8, 3)) {
        assert_lemma(&g);
        assert_witnesses_are_dense_cycles(&g);
    }
}

#[test]
fn covering_feed_matches_full_feed_on_seeded_anomalies() {
    // (cluster, in GraphSI): the clean body is in GraphSI by construction.
    let cases = [
        (None, true),
        (Some(Anomaly::LostUpdate), false),
        (Some(Anomaly::WriteSkew), true),
        (Some(Anomaly::LongFork), false),
    ];
    for seed in 0..2 {
        for (inject, in_si) in cases {
            let g = generated(seed, inject);
            assert!(g.tx_count() >= INCREMENTAL_CROSSOVER, "{} txs", g.tx_count());
            let [ser, si, _, _] = assert_lemma(&g);
            assert_eq!(si, in_si, "seed {seed}, {inject:?}");
            // The production path agrees, and its witnesses are genuine.
            assert_eq!(check_si(&g).is_ok(), si, "seed {seed}, {inject:?}");
            assert_eq!(check_ser(&g).is_ok(), ser, "seed {seed}, {inject:?}");
            assert_witnesses_are_dense_cycles(&g);
        }
    }
}

#[test]
fn covering_feed_matches_full_feed_on_engine_recordings() {
    // Per engine, the transactions per session of its run above the
    // crossover: the replicated PSI engine commits about half of its
    // attempts.
    type MakeEngine = fn(usize) -> Box<dyn Engine>;
    let engines: [(MakeEngine, usize); 4] = [
        (|objects| Box::new(SiEngine::new(objects)), 50),
        (|objects| Box::new(SerEngine::new(objects)), 50),
        (|objects| Box::new(SsiEngine::new(objects)), 50),
        (|objects| Box::new(PsiEngine::new(objects, 3)), 100),
    ];
    let (mut outside_si, mut above_crossover) = (0, 0);
    for (make, large) in engines {
        // (seed, sessions, transactions per session, objects).
        let mut runs: Vec<_> = (0..6).map(|seed| (seed, 4, 6, 5)).collect();
        runs.push((0, 6, large, 96));
        for (seed, sessions, txs_per_session, objects) in runs {
            let mix = RandomMix { seed, sessions, txs_per_session, objects, ..Default::default() };
            let mut engine = make(objects);
            let mut scheduler = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
            let run = scheduler.run(engine.as_mut(), &random_mix(&mix));
            let g = extract(&run.execution).expect("recordings extract");
            let [_, si, _, _] = assert_lemma(&g);
            assert_witnesses_are_dense_cycles(&g);
            outside_si += usize::from(!si);
            above_crossover += usize::from(g.tx_count() >= INCREMENTAL_CROSSOVER);
        }
    }
    assert!(outside_si > 0, "the PSI engine's recordings should leave GraphSI at least once");
    assert_eq!(
        above_crossover,
        engines.len(),
        "every engine's large run takes the incremental path"
    );
}

/// A reader that is itself the immediate overwriter gets no covering
/// `RW` edge: its dropped `r -RW→ c` is `r -WW→ c`. T1 reads init's x
/// and writes x, T2 overwrites T1 and writes the y T1 read: the only
/// cycle is T1 -RW/WW→ T2 -WR→ T1.
#[test]
fn reader_that_is_the_immediate_overwriter() {
    let mut b = HistoryBuilder::new();
    let (x, y) = (b.object("x"), b.object("y"));
    let (s1, s2) = (b.session(), b.session());
    b.push_tx(s1, [Op::read(x, 0), Op::read(y, 7), Op::write(x, 1)]);
    b.push_tx(s2, [Op::write(x, 2), Op::write(y, 7)]);
    let g = graph_of(b.build());
    assert_eq!(g.rw_pairs(x), vec![(TxId(1), TxId(2))]);
    assert!(g.covering_edges().all(|(edge, _, _)| edge != DepEdgeKind::Rw));
    assert_eq!(assert_lemma(&g), [false; 4]);
}

/// PSI's reflexive pair moves to the immediate overwriter. T3 reads
/// init's x, which T1 then T2 overwrite; T3 reads y from T2. The full
/// relations close `T2 -WR→ T3 -RW→ T2`; the covering ones drop
/// `T3 -RW→ T2` and close `T1 -WW→ T2 -WR→ T3 -RW→ T1` instead.
#[test]
fn psi_reflexive_pair_moves_to_the_immediate_overwriter() {
    let mut b = HistoryBuilder::new();
    let (x, y) = (b.object("x"), b.object("y"));
    let sessions: Vec<_> = (0..3).map(|_| b.session()).collect();
    b.push_tx(sessions[0], [Op::write(x, 1)]);
    b.push_tx(sessions[1], [Op::write(x, 2), Op::write(y, 1)]);
    b.push_tx(sessions[2], [Op::read(x, 0), Op::read(y, 1)]);
    let g = graph_of(b.build());
    let (t1, t2) = (TxId(1), TxId(2));

    let full = g.dep_relation().transitive_closure().compose_opt(&g.rw_relation());
    assert!(full.contains(t2, t2));

    let n = g.tx_count();
    let (mut dep, mut rw) = (Relation::new(n), Relation::new(n));
    for (edge, a, b) in g.covering_edges() {
        match edge {
            DepEdgeKind::Rw => rw.insert(a, b),
            _ => dep.insert(a, b),
        };
    }
    let covering = dep.transitive_closure().compose_opt(&rw);
    assert!(!covering.contains(t2, t2), "the covering feed has no T3 -RW-> T2");
    assert!(covering.contains(t1, t1));
    assert!(!assert_lemma(&g)[2], "outside GraphPSI either way");
}

/// Records the `edges` of every `CycleSearchStep` a check emits.
#[derive(Default)]
struct StepEdges(Mutex<Vec<u64>>);

impl TelemetrySink for StepEdges {
    fn record(&self, event: &Event) {
        if let Event::CycleSearchStep { edges, .. } = event {
            self.0.lock().unwrap().push(*edges);
        }
    }
}

/// `check_si` on a hot-key engine recording maintains a linear number of
/// composed edges: each covering `SO/WR/WW` edge into `b` composes with
/// `b`'s covering `RW` edges, one per read at most.
#[test]
fn check_si_maintains_a_linear_number_of_edges() {
    let outcome =
        stress(&StressConfig::high_contention(2, 1_000, 0xC0FE), StressEngine::SingleLock);
    let g = extract(&outcome.result.execution).expect("recordings extract");
    assert!(g.tx_count() > 2_000);

    let steps = Arc::new(StepEdges::default());
    check_si_traced(&g, &Telemetry::new(steps.clone())).expect("engine recordings are in GraphSI");
    let edges = steps.0.lock().unwrap().clone();

    let d_cov = g.covering_edges().filter(|&(edge, _, _)| edge != DepEdgeKind::Rw).count();
    let max_reads =
        g.history().transactions().map(|(_, t)| t.external_read_set().len()).max().unwrap();
    let bound = d_cov * (1 + max_reads);
    assert_eq!(edges.len(), 1);
    assert!(edges[0] < bound as u64, "{} composed edges, linear bound {bound}", edges[0]);
}

/// The monitor feeds at most one `SO` edge per append, one `WR` and one
/// `RW` edge per read and one `WW` edge per write.
#[test]
fn monitor_feeds_o_ops_edges_per_append() {
    let g = graph_of(generate(&HistGen {
        sessions: 20,
        txs_per_session: 100,
        ops_per_tx: 4,
        objects: 400,
        read_ratio: 0.5,
        blind_write_ratio: 0.05,
        duplicate_ratio: 0.0,
        zipf_s: 0.5,
        seed: 7,
        inject: None,
    }));
    let h = g.history();
    let mut last_of_session: Vec<Option<TxId>> = vec![None; h.session_count()];
    let mut stream = Vec::new();
    for t in h.tx_ids() {
        let session = h.session_of(t);
        stream.push(ObservedTx {
            session_predecessor: session.and_then(|s| last_of_session[s.index()]),
            reads_from: h
                .transaction(t)
                .external_read_set()
                .into_iter()
                .map(|x| (x, g.writer_for(t, x).expect("reads have writers")))
                .collect(),
            writes: h.transaction(t).write_set(),
        });
        if let Some(s) = session {
            last_of_session[s.index()] = Some(t);
        }
    }
    let reads: usize = stream.iter().map(|tx| tx.reads_from.len()).sum();
    let writes: usize = stream.iter().map(|tx| tx.writes.len()).sum();
    let bound = (stream.len() + 2 * reads + writes) as u64;

    for model in [SpecModel::Si, SpecModel::Ser, SpecModel::Psi] {
        let sink = Arc::new(CountingSink::default());
        let mut monitor = SiMonitor::with_telemetry(model, Telemetry::new(sink.clone()));
        for tx in stream.iter().cloned() {
            monitor.append(tx);
        }
        if model != SpecModel::Ser {
            assert!(monitor.is_consistent(), "{model}: the clean stream is in the class");
        }
        assert!(
            sink.total_edges() <= bound,
            "{model}: {} edges, bound {bound}",
            sink.total_edges()
        );
    }
}
