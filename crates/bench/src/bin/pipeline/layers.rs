//! Unit costs of single layers, by direct calls. Only the traced pass runs
//! these, outside its measured wall.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use si_core::{ObservedTx, SiMonitor};
use si_execution::SpecModel;
use si_model::{History, Obj, TxId, Value};
use si_mvcc::{
    Engine, LockFreeSiEngine, LockFreeStoreConfig, ShardedSiEngine, ShardedStoreConfig, SiEngine,
};
use si_relations::{ClassKind, DepEdgeKind, IncrementalClass, IncrementalDag};
use si_solve::{solve, solve_traced, SolveBudget, SolveOutcome, SolverMode};
use si_telemetry::{time, CountingSink, Event, Telemetry, TelemetrySink};
use si_workloads::histgen::generate;

use crate::run::{derive_seed, Pass};
use crate::stats::median;
use crate::workloads::{grid, monitor_pass};

/// `telemetry.solve_overhead_ratio`: `solve_traced` into a `CountingSink`
/// over `solve` with telemetry disabled, on the workload's own history.
/// Every end-to-end number is taken with telemetry disabled; this pins
/// what switching it on costs.
pub fn solve_telemetry(p: &mut Pass, history: &History) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        // Freeing the certificate is inside both timings: left outside, the
        // allocator's state favoured one side by a tenth.
        off.push(time(|| drop(solve(history, SolverMode::Si))).1 as f64);
        let telemetry = Telemetry::new(Arc::new(CountingSink::new()));
        let budget = SolveBudget::default();
        on.push(time(|| drop(solve_traced(history, SolverMode::Si, budget, &telemetry))).1 as f64);
    }
    p.sample("telemetry.solve_overhead_ratio", median(&on) / median(&off));
}

/// Sums what `CountingSink` only counts: the monitor's edges and the
/// search effort its `CycleSearchStep` events report.
#[derive(Debug, Default)]
struct MonitorEffort {
    edges: AtomicU64,
    visited: AtomicU64,
    reordered: AtomicU64,
}

impl TelemetrySink for MonitorEffort {
    fn record(&self, event: &Event) {
        match event {
            Event::EdgeAdded { .. } => {
                self.edges.fetch_add(1, Ordering::Relaxed);
            }
            Event::CycleSearchStep { visited, reordered, .. } => {
                self.visited.fetch_add(*visited, Ordering::Relaxed);
                self.reordered.fetch_add(*reordered, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// `core.monitor.*_per_append` and `telemetry.monitor_overhead_ratio`:
/// the same stream through a monitor with telemetry disabled and through
/// one with a counting sink attached, three times each, in turn.
pub fn monitor_telemetry(p: &mut Pass, stream: &[ObservedTx]) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut effort = Arc::new(MonitorEffort::default());
    for _ in 0..3 {
        off.push(monitor_pass(p, SiMonitor::new(SpecModel::Si), stream.to_vec()).2);
        effort = Arc::new(MonitorEffort::default());
        let monitor = SiMonitor::with_telemetry(SpecModel::Si, Telemetry::new(effort.clone()));
        on.push(monitor_pass(p, monitor, stream.to_vec()).2);
    }
    p.sample("telemetry.monitor_overhead_ratio", median(&on) / median(&off));
    for (name, total) in
        [("edges", &effort.edges), ("visited", &effort.visited), ("reordered", &effort.reordered)]
    {
        let total = total.load(Ordering::Relaxed);
        p.tracer.count(name, total);
        p.sample(&format!("core.monitor.{name}_per_append"), total as f64 / stream.len() as f64);
    }
}

/// `mvcc.<e>.{begin,read,write,commit}_ns`: the three SI engines through
/// the `Engine` trait, single-threaded, in batches of one kind of call.
/// Every transaction of a batch begins before any commits and writes its
/// own object, so nothing conflicts and `CommitInfo.visible` stays empty:
/// what is left is the protocol's own cost.
pub fn engine_ops(p: &mut Pass) {
    type Make = fn(usize) -> Box<dyn Engine>;
    let n = p.sizes.op_batch;
    let engines: [(&str, Make); 3] = [
        ("si", |n| Box::new(SiEngine::new(n))),
        ("sharded", |n| {
            let config = ShardedStoreConfig { sessions: n, ..ShardedStoreConfig::default() };
            Box::new(ShardedSiEngine::with_config(n, config))
        }),
        ("lockfree", |n| {
            let config = LockFreeStoreConfig { sessions: n, ..LockFreeStoreConfig::default() };
            Box::new(LockFreeSiEngine::with_config(n, config))
        }),
    ];
    for (name, make) in engines {
        let mut ns: [Vec<f64>; 4] = Default::default();
        for _ in 0..32 {
            let mut engine = make(n);
            let engine = engine.as_mut();
            let mut txs = Vec::with_capacity(n);
            let per_call = |secs: f64| secs * 1e9 / n as f64;
            let ((), secs) =
                p.span("mvcc.ops.begin", |_| txs.extend((0..n).map(|s| engine.begin(s))));
            ns[0].push(per_call(secs));
            let ((), secs) = p.span("mvcc.ops.read", |_| {
                for (i, &tx) in txs.iter().enumerate() {
                    std::hint::black_box(engine.read(tx, Obj::from_index(i)));
                }
            });
            ns[1].push(per_call(secs));
            let ((), secs) = p.span("mvcc.ops.write", |_| {
                for (i, &tx) in txs.iter().enumerate() {
                    engine.write(tx, Obj::from_index(i), Value(1));
                }
            });
            ns[2].push(per_call(secs));
            let (committed, secs) = p.span("mvcc.ops.commit", |_| {
                txs.iter().filter(|&&tx| engine.commit(tx).is_ok()).count()
            });
            ns[3].push(per_call(secs));
            p.verdict("disjoint writers all commit", committed == n, true);
        }
        for (op, ns) in ["begin", "read", "write", "commit"].into_iter().zip(&ns) {
            p.sample(&format!("mvcc.{name}.{op}_ns"), median(ns));
        }
    }
}

/// `relations.*`: the incremental structures under the solver's theory,
/// the monitor and `check_si`, fed directly.
pub fn relations(p: &mut Pass) {
    let (vertices, edges) = (4096u64, p.sizes.dag_edges as u64);
    // A seeded stream of distinct-endpoint pairs, low vertex first.
    let pairs: Vec<(TxId, TxId)> = (0..edges)
        .filter_map(|i| {
            let r = derive_seed(p.seed, i);
            let (a, b) = ((r % vertices) as u32, ((r >> 32) % vertices) as u32);
            (a != b).then(|| (TxId(a.min(b)), TxId(a.max(b))))
        })
        .collect();
    let per_edge = |secs: f64, edges: usize| secs * 1e9 / edges as f64;
    let (mut insert, mut reorder, mut undo) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        // Low → high agrees with the initial order: the O(1) path.
        let mut dag = IncrementalDag::new(vertices as usize);
        let mark = dag.mark();
        let ((), secs) = p.span("relations.dag_insert", |_| {
            for &(a, b) in &pairs {
                let _ = std::hint::black_box(dag.add_edge(a, b));
            }
        });
        insert.push(per_edge(secs, pairs.len()));
        let inserted = dag.edge_count();
        let ((), secs) = p.span("relations.undo", |_| dag.undo_to(mark));
        undo.push(per_edge(secs, inserted));
        // High → low contradicts it: every edge searches and reorders
        // until the order has turned over. Acyclic, so none is refused.
        let mut dag = IncrementalDag::new(vertices as usize);
        let ((), secs) = p.span("relations.dag_reorder", |_| {
            for &(a, b) in &pairs {
                let _ = std::hint::black_box(dag.add_edge(b, a));
            }
        });
        reorder.push(per_edge(secs, pairs.len()));
    }
    p.sample("relations.dag_insert_ns", median(&insert));
    p.sample("relations.undo_ns_per_edge", median(&undo));
    p.sample("relations.dag_reorder_ns", median(&reorder));

    // `IncrementalClass::add` in SI mode, on the labelled edges of a
    // generated history's graph, in the order `check_si` feeds them.
    let history = generate(&grid(p.sizes.generated_confirm, p.seed, 0.05, None));
    let SolveOutcome::Sat(witness) = solve(&history, SolverMode::Si).outcome else {
        p.verdict("clean history in HistSI", false, p.answers.clean_in_si);
        return;
    };
    let graph = witness.to_graph(&history).expect("a witness is a well-formed graph");
    let mut labelled: Vec<(DepEdgeKind, TxId, TxId)> =
        graph.so_relation().iter_pairs().map(|(a, b)| (DepEdgeKind::So, a, b)).collect();
    for x in graph.objects() {
        labelled.extend(graph.wr_pairs(x).into_iter().map(|(a, b)| (DepEdgeKind::Wr, a, b)));
        labelled.extend(graph.ww_pairs(x).into_iter().map(|(a, b)| (DepEdgeKind::Ww, a, b)));
        labelled.extend(graph.rw_pairs(x).into_iter().map(|(a, b)| (DepEdgeKind::Rw, a, b)));
    }
    let mut add = Vec::new();
    for _ in 0..3 {
        let mut class = IncrementalClass::new(ClassKind::Si, history.tx_count());
        let ((), secs) = p.span("relations.class_add", |_| {
            for &(kind, a, b) in &labelled {
                class.add(kind, a, b);
            }
        });
        p.verdict("the fed class stays consistent", class.is_consistent(), p.answers.clean_in_si);
        add.push(per_edge(secs, labelled.len()));
    }
    p.sample("relations.class_add_ns", median(&add));
}
