//! The five workloads. Each drives the loop through public functions
//! only, times every call from outside and checks every verdict against
//! `spec::KnownAnswers`. The seed reaches only `StressConfig.seed` and
//! `HistGen.seed`; the layers see generated inputs.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use si_core::{check_si, ObservedTx, SiMonitor};
use si_depgraph::{DepGraphBuilder, DepGraphError, DependencyGraph};
use si_execution::SpecModel;
use si_model::{History, Obj, TxId, Value};
use si_mvcc::{stress_history_only, StressConfig, StressEngine, StressHistory};
use si_solve::{solve, SolveOutcome, SolveResult, SolveWitness, SolverMode, SolverStats};
use si_workloads::histgen::{generate, Anomaly, HistGen};

use crate::layers;
use crate::run::{await_parallel, derive_seed, Pass, Sizes};
use crate::spec::Workload;
use crate::stats;

pub fn run(p: &mut Pass) {
    match p.workload {
        Workload::StressUniform => stress(p, false),
        Workload::StressHot => stress(p, true),
        Workload::CheckGenerated => check_generated(p),
        Workload::CheckAmbiguous => check_ambiguous(p),
        Workload::MonitorStream => monitor_stream(p),
    }
}

/// The stores under test, interleaved round-robin so that drift in the
/// machine's state falls on all three alike.
pub const STORES: [(&str, StressEngine); 3] = [
    ("single_lock", StressEngine::SingleLock),
    ("sharded", StressEngine::Sharded { shards: 8, gc_interval: 128 }),
    ("lockfree", StressEngine::LockFree { gc_interval: 128 }),
];

/// `stress_uniform` / `stress_hot`: the whole loop, engine first. Engine
/// rounds time the stores alone; loop rounds go on to a verdict; confirm
/// rounds take a short recording's witness through `to_graph` and
/// `check_si`, which is where long version chains cost (about n⁴ on the
/// hot set: a third of a second at 500 commits, 2 s at 800).
fn stress(p: &mut Pass, hot: bool) {
    let sizes = p.sizes;
    let mut inputs = 0u64;
    let mut config = |p: &Pass, commits: usize| {
        inputs += 1;
        let (per_thread, seed) = ((commits / p.threads).max(1), derive_seed(p.seed, inputs));
        if hot {
            StressConfig::high_contention(p.threads, per_thread, seed)
        } else {
            StressConfig::low_contention(p.threads, per_thread, seed)
        }
    };

    // A store's first round in a process runs before its threads' stacks
    // and the allocator's arenas exist; it is set-up, not throughput.
    // Throughput of two threads means nothing while they share a core.
    let side_by_side = |p: &Pass| await_parallel(p.threads, 1, Duration::from_secs(2));
    p.repeat("setup", 0.0, (3, 3), |p, _| {
        side_by_side(p);
        let ((), secs) = p.span("mvcc.warmup", |p| {
            for (_, engine) in STORES {
                stress_history_only(&config(p, sizes.engine_round), engine);
            }
        });
        p.sample("setup_s", secs);
    });
    p.start_clock();

    p.repeat("engine", 0.35, (3, usize::MAX), |p, _| {
        side_by_side(p);
        for (store, engine) in STORES {
            let cfg = config(p, sizes.engine_round);
            let (h, wall) = record(p, &cfg, engine);
            let quota = (cfg.threads * cfg.txs_per_thread) as u64;
            p.verdict("an engine round commits its quota", h.stats.committed == quota, true);
            p.sample(&format!("commit_tps_{store}"), h.throughput_tps);
            p.sample(&format!("mvcc.{store}.exec_s"), h.elapsed.as_secs_f64());
            // First-committer-wins refusals are designed behaviour, not
            // failures: they are this ratio.
            let attempts = (h.stats.aborted + h.stats.committed) as f64;
            p.sample(&format!("mvcc.{store}.abort_ratio"), h.stats.aborted as f64 / attempts);
            if store != "single_lock" {
                p.sample(&format!("mvcc.{store}.gc_passes"), h.gc.passes as f64);
                p.sample(&format!("mvcc.{store}.gc_pruned"), h.gc.pruned as f64);
            }
            sample_recorder(p, &h, wall);
        }
    });

    p.repeat("confirm", 0.60, (5, 15), |p, i| {
        let cfg = config(p, sizes.confirm_slice);
        let (h, _) = record(p, &cfg, STORES[i % STORES.len()].1);
        let want = p.answers.recording_in_si;
        if let Some(witness) = certify(p, &h.history, want) {
            confirm(p, &witness, &h.history, want);
        }
    });

    let mut last = None;
    p.repeat("loop", 1.0, (3, usize::MAX), |p, i| {
        let cfg = config(p, sizes.loop_round);
        let (h, stress_s) = record(p, &cfg, STORES[i % STORES.len()].1);
        let (r, solve_s) = p.span("solver.solve", |_| solve(&h.history, SolverMode::Si));
        p.verdict("recording in HistSI", r.outcome.is_member(), p.answers.recording_in_si);
        p.sample("certified_tps", h.stats.committed as f64 / (stress_s + solve_s));
        p.sample("verdict_s", solve_s);
        sample_recorder(p, &h, stress_s);
        sample_solver(p, &r.stats, solve_s);
        last = Some(h.history);
    });

    p.extra(|p| {
        layers::solve_telemetry(p, last.as_ref().expect("at least one loop round"));
        // Single-threaded and free of contention, so one workload's run
        // says all there is.
        if !hot {
            layers::engine_ops(p);
        }
    });
}

/// One closed-loop stress run through the recorder. `mvcc.exec` is the
/// window the engine timed itself; the rest of `mvcc.stress` is the
/// record stage (buffer merge and `History` build).
fn record(p: &mut Pass, cfg: &StressConfig, engine: StressEngine) -> (StressHistory, f64) {
    p.span("mvcc.stress", |p| {
        let h = stress_history_only(cfg, engine);
        p.tracer.child("mvcc.exec", h.elapsed);
        h
    })
}

fn sample_recorder(p: &mut Pass, h: &StressHistory, wall: f64) {
    let record_s = (wall - h.elapsed.as_secs_f64()).max(0.0);
    p.sample("mvcc.record.ns_per_tx", record_s * 1e9 / h.stats.committed as f64);
}

fn sample_solver(p: &mut Pass, s: &SolverStats, secs: f64) {
    p.sample("solver.solve_s", secs);
    p.sample("solver.vars_per_tx", s.vars as f64 / s.tx_count as f64);
    for (name, count) in [
        ("wr_vars", s.wr_vars),
        ("pair_vars", s.pair_vars),
        ("forced_reads", s.forced_reads),
        ("decisions", s.decisions),
        ("propagations", s.propagations),
        ("conflicts", s.conflicts),
        ("learned", s.learned),
        ("restarts", s.restarts),
        ("theory_edges", s.theory_edges),
    ] {
        p.sample(&format!("solver.{name}"), count as f64);
    }
    p.sample("solver.propagations_per_s", s.propagations as f64 / secs);
    p.sample("solver.theory_edges_per_s", s.theory_edges as f64 / secs);
}

/// An untimed `solve` whose witness a confirm round needs.
fn certify(p: &mut Pass, history: &History, want: bool) -> Option<SolveWitness> {
    let outcome = solve(history, SolverMode::Si).outcome;
    p.verdict("confirm slice in HistSI", outcome.is_member(), want);
    match outcome {
        SolveOutcome::Sat(witness) => Some(witness),
        SolveOutcome::Unsat(_) => None,
    }
}

/// Witness → independently confirmed: rebuild the dependency graph the
/// witness describes and let the graph checker decide Theorem 9 afresh.
fn confirm(p: &mut Pass, witness: &SolveWitness, history: &History, want: bool) {
    let (graph, to_graph_s) = p.span("depgraph.to_graph", |_| witness.to_graph(history));
    confirm_graph(p, graph, to_graph_s, want);
}

fn confirm_graph(
    p: &mut Pass,
    graph: Result<DependencyGraph, DepGraphError>,
    to_graph_s: f64,
    want: bool,
) {
    let Ok(graph) = graph else {
        p.verdict("the witness is a well-formed dependency graph", false, true);
        return;
    };
    let (checked, check_s) = p.span("core.check", |_| check_si(&graph));
    p.verdict("the witness passes check_si", checked.is_ok(), want);
    p.sample("confirm_s", to_graph_s + check_s);
    p.sample("depgraph.to_graph_s", to_graph_s);
    p.sample("core.check_s", check_s);
}

/// The `BENCH_check.json` grid shape: 20 sessions, `n / 5` objects, four
/// operations, half of them reads, 5 % blind writes, mild skew. About 0.8
/// decision variables per transaction and at most one conflict, so
/// encoding, propagation and the incremental theory are what is timed.
pub fn grid(n: usize, seed: u64, duplicate_ratio: f64, inject: Option<Anomaly>) -> HistGen {
    let sessions = 20.min(n / 2).max(1);
    HistGen {
        sessions,
        txs_per_session: n / sessions,
        ops_per_tx: 4,
        objects: (n / 5).max(4),
        read_ratio: 0.5,
        blind_write_ratio: 0.05,
        duplicate_ratio,
        zipf_s: 0.5,
        seed,
        inject,
    }
}

/// `check_generated`'s inputs: the clean history and its long-fork twin,
/// a clean history and a twin at the sizes PSI mode is run at, and the
/// history whose witness is confirmed.
pub fn generated_inputs(sizes: &Sizes, seed: u64) -> [History; 5] {
    let fork = Some(Anomaly::LongFork);
    [
        generate(&grid(sizes.generated, derive_seed(seed, 0), 0.05, None)),
        generate(&grid(sizes.generated, derive_seed(seed, 0), 0.05, fork)),
        generate(&grid(sizes.generated_psi, derive_seed(seed, 1), 0.05, None)),
        generate(&grid(sizes.generated_psi_twin, derive_seed(seed, 1), 0.05, fork)),
        generate(&grid(sizes.generated_confirm, derive_seed(seed, 2), 0.05, None)),
    ]
}

/// `check_generated`: black-box checking at scale, no engine.
fn check_generated(p: &mut Pass) {
    let sizes = p.sizes;
    let seed = p.seed;
    let mut inputs = None;
    p.repeat("setup", 0.0, (3, 3), |p, _| {
        let (made, secs) = p.span("setup", |p| {
            let (histories, generate_s) =
                p.span("workloads.generate", |_| generated_inputs(&sizes, seed));
            p.sample("workloads.generate_s", generate_s);
            let want = p.answers.clean_in_si;
            let witness = certify(p, &histories[4], want);
            (histories, witness)
        });
        p.sample("setup_s", secs);
        inputs = Some(made);
    });
    let ([clean, twin, psi_clean, psi_twin, slice], witness) = inputs.expect("set-up ran");
    p.start_clock();

    p.repeat("verdict", 0.40, (3, usize::MAX), |p, _| {
        let (r, secs) = p.span("solver.solve", |_| solve(&clean, SolverMode::Si));
        p.verdict("clean history in HistSI", r.outcome.is_member(), p.answers.clean_in_si);
        p.sample("verdict_s", secs);
        p.sample("certified_tps", (clean.tx_count() - 1) as f64 / secs);
        sample_solver(p, &r.stats, secs);
    });
    p.repeat("refute", 0.65, (3, usize::MAX), |p, _| {
        let (r, secs) = p.span("solver.refute", |_| solve(&twin, SolverMode::Si));
        p.verdict("long-fork twin in HistSI", r.outcome.is_member(), p.answers.twin_in_si);
        p.sample("refute_s", secs);
        p.sample("solver.refute_s", secs);
    });
    p.repeat("psi", 0.82, (3, usize::MAX), |p, _| {
        let (r, secs) = p.span("solver.psi_solve", |_| solve(&psi_clean, SolverMode::Psi));
        p.verdict("clean history in HistPSI", r.outcome.is_member(), p.answers.clean_in_psi);
        p.sample("psi_verdict_s", secs);
        p.sample("solver.psi_solve_s", secs);
    });
    p.repeat("confirm", 1.0, (3, usize::MAX), |p, _| {
        if let Some(witness) = &witness {
            confirm(p, witness, &slice, p.answers.clean_in_si);
        }
    });

    // The rest of the known-answer table, untimed.
    let in_psi = solve(&psi_twin, SolverMode::Psi).outcome.is_member();
    p.verdict("long-fork twin in HistPSI", in_psi, p.answers.twin_in_psi);

    p.extra(|p| layers::solve_telemetry(p, &clean));
}

/// The Biswas–Enea hard shape: 60 % blind writes and 30 % duplicate
/// values over 32 skewed objects leave the `WW` order of almost every
/// object open (7 pair variables per transaction at this length, 60 at
/// 800 transactions), so 1UIP learning, VSIDS, restarts and
/// `mark`/`undo_to` do the work. Histories are short
/// (20 sessions × 5) and many: solve time per history is heavy-tailed at
/// every size (standard deviation 1.1–1.5 × the mean from 100 to 800
/// transactions), and only a sum over thousands is steady from seed to
/// seed — eight histories of 800 ranged from 5.6 s to 20.5 s.
pub fn ambiguous(seed: u64, inject: Option<Anomaly>) -> HistGen {
    HistGen {
        sessions: 20,
        txs_per_session: 5,
        ops_per_tx: 4,
        objects: 32,
        read_ratio: 0.5,
        blind_write_ratio: 0.6,
        duplicate_ratio: 0.3,
        zipf_s: 0.9,
        seed,
        inject,
    }
}

/// The `b`-th batch of a run: fresh histories and their long-fork twins.
pub fn ambiguous_batch(sizes: &Sizes, seed: u64, b: usize) -> (Vec<History>, Vec<History>) {
    let batch = sizes.ambiguous_batch as u64;
    let seeds = (0..batch).map(|i| derive_seed(seed, b as u64 * batch + i));
    let clean = seeds.clone().map(|s| generate(&ambiguous(s, None))).collect();
    let twins = seeds.map(|s| generate(&ambiguous(s, Some(Anomaly::LongFork)))).collect();
    (clean, twins)
}

/// `check_ambiguous`: batch after batch of fresh ambiguous histories;
/// every repetition is one batch certified, refuted (twins) and
/// confirmed.
fn check_ambiguous(p: &mut Pass) {
    let sizes = p.sizes;
    let batch = sizes.ambiguous_batch as u64;
    let seed = p.seed;
    p.start_clock();
    p.repeat("batch", 1.0, (4, usize::MAX), |p, b| {
        let ((clean, twins), generate_s) =
            p.span("workloads.generate", |_| ambiguous_batch(&sizes, seed, b));
        p.sample("setup_s", generate_s);
        p.sample("workloads.generate_s", generate_s);

        let (results, solve_s) = p.span("solver.solve", |_| {
            clean.iter().map(|h| solve(h, SolverMode::Si)).collect::<Vec<SolveResult>>()
        });
        let mut total = SolverStats::default();
        for r in &results {
            p.verdict("ambiguous history in HistSI", r.outcome.is_member(), p.answers.clean_in_si);
            add_stats(&mut total, &r.stats);
        }
        p.sample("verdict_s", solve_s);
        p.sample("certified_tps", (total.tx_count - batch) as f64 / solve_s);
        sample_solver(p, &total, solve_s);

        // About 0.1 ms apiece: checked, and timed only as a layer.
        let (members, refute_s) = p.span("solver.refute", |_| {
            twins.iter().map(|h| solve(h, SolverMode::Si).outcome.is_member()).collect::<Vec<_>>()
        });
        for member in members {
            p.verdict("ambiguous long-fork twin in HistSI", member, p.answers.twin_in_si);
        }
        p.sample("solver.refute_s", refute_s);

        let (graphs, to_graph_s) = p.span("depgraph.to_graph", |_| {
            results
                .iter()
                .zip(&clean)
                .filter_map(|(r, h)| match &r.outcome {
                    SolveOutcome::Sat(witness) => Some(witness.to_graph(h)),
                    SolveOutcome::Unsat(_) => None,
                })
                .collect::<Vec<_>>()
        });
        let (checks, check_s) = p.span("core.check", |_| {
            graphs.iter().map(|g| g.as_ref().is_ok_and(|g| check_si(g).is_ok())).collect::<Vec<_>>()
        });
        for ok in checks {
            p.verdict("the witness passes check_si", ok, p.answers.clean_in_si);
        }
        p.sample("confirm_s", to_graph_s + check_s);
        p.sample("depgraph.to_graph_s", to_graph_s);
        p.sample("core.check_s", check_s);
    });
    p.extra(layers::relations);
}

fn add_stats(total: &mut SolverStats, s: &SolverStats) {
    total.tx_count += s.tx_count;
    total.vars += s.vars;
    total.wr_vars += s.wr_vars;
    total.pair_vars += s.pair_vars;
    total.segments += s.segments;
    total.forced_reads += s.forced_reads;
    total.decisions += s.decisions;
    total.propagations += s.propagations;
    total.conflicts += s.conflicts;
    total.learned += s.learned;
    total.restarts += s.restarts;
    total.theory_edges += s.theory_edges;
}

/// What a system would report to the monitor about `history`, one entry
/// per transaction in `TxId` order: session predecessor, the writer of
/// every value read, the objects written.
///
/// # Panics
///
/// Panics unless every `(object, value)` has exactly one writer — true of
/// `histgen` with `duplicate_ratio = 0` and of read-modify-write engine
/// runs, where value → writer is a function.
pub fn observe(history: &History) -> Vec<ObservedTx> {
    let mut writer_of: HashMap<(Obj, Value), TxId> = HashMap::new();
    for (t, tx) in history.transactions() {
        for x in tx.write_set() {
            let value = tx.final_write(x).expect("write set lists written objects");
            assert!(writer_of.insert((x, value), t).is_none(), "{value:?} written to {x} twice");
        }
    }
    let mut last_of_session: Vec<Option<TxId>> = vec![None; history.session_count()];
    history
        .transactions()
        .map(|(t, tx)| {
            let session = history.session_of(t);
            let observed = ObservedTx {
                session_predecessor: session.and_then(|s| last_of_session[s.index()]),
                reads_from: tx
                    .external_read_set()
                    .into_iter()
                    .map(|x| {
                        let value = tx.external_read(x).expect("read set lists read objects");
                        (x, *writer_of.get(&(x, value)).expect("every value read was written"))
                    })
                    .collect(),
                writes: tx.write_set(),
            };
            if let Some(s) = session {
                last_of_session[s.index()] = Some(t);
            }
            observed
        })
        .collect()
}

/// The first `k` transactions of a commit-ordered history (init
/// included) as a history of its own.
pub fn prefix(history: &History, k: usize) -> History {
    let transactions = history.tx_ids().take(k).map(|t| history.transaction(t).clone()).collect();
    let sessions = history
        .sessions()
        .map(|(_, txs)| txs.iter().copied().filter(|t| t.index() < k).collect())
        .collect();
    History::from_parts(transactions, sessions, history.init_tx(), history.object_names().to_vec())
        .expect("a prefix keeps the session structure")
}

/// The dependency graph the monitor was told about: `WR` as observed,
/// `WW` in stream order.
fn observed_graph(
    history: &History,
    stream: &[ObservedTx],
) -> Result<DependencyGraph, DepGraphError> {
    let mut builder = DepGraphBuilder::new(history.clone());
    let mut orders: BTreeMap<Obj, Vec<TxId>> = BTreeMap::new();
    for (i, tx) in stream.iter().enumerate() {
        let t = TxId::from_index(i);
        for &(x, writer) in &tx.reads_from {
            builder.wr(x, writer, t);
        }
        for &x in &tx.writes {
            orders.entry(x).or_default().push(t);
        }
    }
    for (x, order) in orders {
        builder.ww_order(x, order);
    }
    builder.build()
}

/// One pass of `stream` through `monitor`, every append timed. Returns the
/// monitor, the latencies in seconds and their sum, the pass's wall time.
/// The reference loop runs after every half second of appends.
pub fn monitor_pass(
    p: &mut Pass,
    mut monitor: SiMonitor,
    stream: Vec<ObservedTx>,
) -> (SiMonitor, Vec<f64>, f64) {
    let mut latencies = Vec::with_capacity(stream.len());
    let (mut wall, mut next_reference) = (0.0, 0.5);
    p.span("core.monitor.pass", |p| {
        for tx in stream {
            let (_, secs) = p.span("core.monitor.append", |_| monitor.append(tx));
            latencies.push(secs);
            wall += secs;
            if wall >= next_reference {
                p.reference();
                next_reference += 0.5;
            }
        }
    });
    (monitor, latencies, wall)
}

/// `monitor_stream`'s inputs: the twin's stream, whose last `CLUSTER`
/// entries are the long fork and whose rest is the clean stream, and the
/// history of the prefix that is confirmed offline.
pub fn stream_inputs(sizes: &Sizes, seed: u64) -> (Vec<ObservedTx>, History) {
    let twin = generate(&grid(sizes.stream, seed, 0.0, Some(Anomaly::LongFork)));
    let head = prefix(&twin, sizes.generated_confirm.min(sizes.stream) + 1);
    (observe(&twin), head)
}

/// Transactions of `histgen`'s long-fork cluster.
pub const CLUSTER: usize = 4;

/// `monitor_stream`: online certification by one producer. The stream is
/// the grid shape with `duplicate_ratio = 0`, so value → writer is unique,
/// in commit order; its long-fork twin is the same stream plus the four
/// transactions of the cluster, which the monitor must flag as they
/// arrive.
fn monitor_stream(p: &mut Pass) {
    let sizes = p.sizes;
    let seed = p.seed;
    let mut inputs = None;
    p.repeat("setup", 0.0, (3, 3), |p, _| {
        let (made, secs) = p.span("workloads.generate", |_| stream_inputs(&sizes, seed));
        p.sample("setup_s", secs);
        p.sample("workloads.generate_s", secs);
        inputs = Some(made);
    });
    let (stream, head) = inputs.expect("set-up ran");
    let body = stream.len() - CLUSTER;
    p.start_clock();

    p.repeat("pass", 0.70, (1, usize::MAX), |p, _| {
        let feed = stream[..body].to_vec();
        let (mut monitor, latencies, wall) = monitor_pass(p, SiMonitor::new(SpecModel::Si), feed);
        p.verdict("monitor on the clean stream", monitor.is_consistent(), p.answers.clean_in_si);
        for tx in &stream[body..] {
            monitor.append(tx.clone());
        }
        p.verdict("monitor on the long-fork twin", monitor.is_consistent(), p.answers.twin_in_si);

        p.sample("verdict_s", wall);
        p.sample("certified_tps", body as f64 / wall);
        p.sample("monitor_appends_per_s", body as f64 / wall);
        let sorted = stats::sorted(&latencies);
        p.sample("monitor_append_p50_us", stats::quantile(&sorted, 0.50) * 1e6);
        p.sample("monitor_append_p99_us", stats::quantile(&sorted, 0.99) * 1e6);
        p.sample("core.monitor.append_ns", wall * 1e9 / body as f64);
    });

    // The monitor's verdict is final, so consistent at the end means
    // consistent at every prefix; the graph checker must agree on one.
    p.repeat("confirm", 1.0, (3, usize::MAX), |p, _| {
        let (graph, to_graph_s) =
            p.span("depgraph.to_graph", |_| observed_graph(&head, &stream[..head.tx_count()]));
        confirm_graph(p, graph, to_graph_s, p.answers.clean_in_si);
    });

    p.extra(|p| {
        layers::monitor_telemetry(p, &stream[..head.tx_count()]);
        layers::relations(p);
    });
}
