//! Graph-class membership: Theorems 8, 9 and 21.
//!
//! Each acyclicity check has two implementations:
//!
//! * a **dense** one-shot pass — build the composed relation with the
//!   bitset [`Relation`](si_relations::Relation) algebra and run
//!   [`find_cycle`](si_relations::Relation::find_cycle); and
//! * an **incremental** pass — feed the graph's *covering* edges
//!   ([`DependencyGraph::covering_edges`]: `SO` to the session successor,
//!   `WR`, `WW` to the next version, `RW` to the immediate overwriter)
//!   into an [`IncrementalClass`], which maintains the composed relation
//!   under online topological-order maintenance and stops at the first
//!   violating edge. Every dropped edge of the full relations is a path of
//!   covering ones, so the verdict is the full relations' verdict, and
//!   O(n + Σ ops) edges are fed instead of every ordered pair of each
//!   session and version chain (DESIGN.md §5, "Covering edges").
//!
//! For SER and SI the incremental pass takes over above
//! [`INCREMENTAL_CROSSOVER`] transactions, where the dense `O(n³/64)`
//! composition dominates; below it, the word-parallel dense algebra is
//! faster than per-edge bookkeeping. PSI stays dense at every size for
//! one-shot checks: its condition needs `D⁺`, and a single word-parallel
//! Warshall closure beats per-edge reachability sweeps when the whole
//! graph is already known (the incremental PSI engine earns its keep in
//! the *streaming* monitor, where re-running the closure per append is
//! the `O(n⁴/64)` alternative).

use core::fmt;

use si_depgraph::DependencyGraph;
use si_model::IntViolation;
use si_relations::{ClassKind, IncrementalClass, TxId};
use si_telemetry::{Event, SpanTimer, Telemetry};

/// Transaction count at which the SER/SI membership checks switch from
/// the dense bitset pass to the incremental engine.
pub const INCREMENTAL_CROSSOVER: usize = 256;

/// Feeds the covering edges of `graph`
/// ([`DependencyGraph::covering_edges`]: session successors, `WR`, next
/// versions, immediate overwriters) into a fresh [`IncrementalClass`],
/// stopping at the first violation. They give every class the verdict the
/// full relations give, and the violation found is a cycle of the full
/// composed relation, in O(n + Σ ops) edges instead of a quadratic
/// number.
fn feed_class(kind: ClassKind, graph: &DependencyGraph) -> IncrementalClass {
    let mut class = IncrementalClass::new(kind, graph.tx_count());
    for (edge, a, b) in graph.covering_edges() {
        if !class.add(edge, a, b) {
            break;
        }
    }
    class
}

/// Whether `SO ∪ WR ∪ WW ∪ RW` is acyclic — SER's characteristic test
/// (Theorem 8) without the INT precondition. Picks the dense or
/// incremental engine by [`INCREMENTAL_CROSSOVER`].
pub fn ser_characteristic_acyclic(graph: &DependencyGraph) -> bool {
    if graph.history().tx_count() >= INCREMENTAL_CROSSOVER {
        feed_class(ClassKind::Ser, graph).is_consistent()
    } else {
        graph.all_relation().is_acyclic()
    }
}

/// Whether `(SO ∪ WR ∪ WW) ; RW?` is acyclic — SI's characteristic test
/// (Theorem 9) without the INT precondition. Picks the dense or
/// incremental engine by [`INCREMENTAL_CROSSOVER`].
pub fn si_characteristic_acyclic(graph: &DependencyGraph) -> bool {
    if graph.history().tx_count() >= INCREMENTAL_CROSSOVER {
        feed_class(ClassKind::Si, graph).is_consistent()
    } else {
        graph.dep_relation().compose_opt(&graph.rw_relation()).is_acyclic()
    }
}

/// Whether `(SO ∪ WR ∪ WW)⁺ ; RW?` is irreflexive — PSI's characteristic
/// test (Theorem 21) without the INT precondition. Always dense (module
/// docs explain why one-shot PSI keeps the Warshall closure).
pub fn psi_characteristic_irreflexive(graph: &DependencyGraph) -> bool {
    let composed = graph.dep_relation().transitive_closure().compose_opt(&graph.rw_relation());
    graph.history().tx_ids().all(|t| !composed.contains(t, t))
}

/// The dependency-graph classes characterising the three consistency
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// `GraphSER` (Theorem 8): acyclic `SO ∪ WR ∪ WW ∪ RW`.
    Ser,
    /// `GraphSI` (Theorem 9): acyclic `(SO ∪ WR ∪ WW) ; RW?`.
    Si,
    /// `GraphPSI` (Theorem 21): irreflexive `(SO ∪ WR ∪ WW)⁺ ; RW?`.
    Psi,
    /// `GraphPC` (this repository's §7 extension): acyclic
    /// `((SO ∪ WR) ; RW?) ∪ WW` — prefix consistency, SI without
    /// NOCONFLICT. See [`crate::pc`].
    Pc,
}

impl GraphClass {
    /// Checks membership of `graph` in this class.
    ///
    /// # Errors
    ///
    /// See [`check_ser`], [`check_si`], [`check_psi`],
    /// [`crate::pc::check_pc_graph`].
    pub fn check(self, graph: &DependencyGraph) -> Result<(), MembershipError> {
        match self {
            GraphClass::Ser => check_ser(graph),
            GraphClass::Si => check_si(graph),
            GraphClass::Psi => check_psi(graph),
            GraphClass::Pc => crate::pc::check_pc_graph(graph),
        }
    }

    /// Like [`GraphClass::check`], reporting composed-relation sizes and
    /// check timings through `telemetry`.
    ///
    /// # Errors
    ///
    /// Same as [`GraphClass::check`].
    pub fn check_traced(
        self,
        graph: &DependencyGraph,
        telemetry: &Telemetry,
    ) -> Result<(), MembershipError> {
        match self {
            GraphClass::Ser => check_ser_traced(graph, telemetry),
            GraphClass::Si => check_si_traced(graph, telemetry),
            GraphClass::Psi => check_psi_traced(graph, telemetry),
            GraphClass::Pc => {
                let timer = SpanTimer::start();
                let result = crate::pc::check_pc_graph(graph);
                let nanos = timer.elapsed_nanos();
                let ok = result.is_ok();
                telemetry.emit(|| Event::VerdictEmitted { check: "check_pc", ok, nanos });
                result
            }
        }
    }
}

impl fmt::Display for GraphClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphClass::Ser => write!(f, "GraphSER"),
            GraphClass::Si => write!(f, "GraphSI"),
            GraphClass::Psi => write!(f, "GraphPSI"),
            GraphClass::Pc => write!(f, "GraphPC"),
        }
    }
}

/// Why a dependency graph is not in the queried class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// A transaction violates internal consistency.
    Int {
        /// The offending transaction.
        tx: TxId,
        /// The violation.
        violation: IntViolation,
    },
    /// The class's characteristic relation has a cycle. The vertices are a
    /// cycle of the *composed* relation named by the class (for `GraphSI`,
    /// each step is one `SO/WR/WW` edge optionally followed by one `RW`
    /// edge; for `GraphPSI` a `D⁺`-path optionally followed by one `RW`
    /// edge; for `GraphSER` a single edge).
    Cycle {
        /// The class whose condition failed.
        class: GraphClass,
        /// A witness cycle in the composed relation (first vertex not
        /// repeated).
        nodes: Vec<TxId>,
    },
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::Int { tx, violation } => {
                write!(f, "INT fails in {tx}: {violation}")
            }
            MembershipError::Cycle { class, nodes } => {
                write!(f, "not in {class}: witness cycle ")?;
                for n in nodes {
                    write!(f, "{n} -> ")?;
                }
                match nodes.first() {
                    Some(first) => write!(f, "{first}"),
                    None => write!(f, "<empty>"),
                }
            }
        }
    }
}

impl std::error::Error for MembershipError {}

fn check_int(graph: &DependencyGraph) -> Result<(), MembershipError> {
    graph.history().check_int().map_err(|(tx, violation)| MembershipError::Int { tx, violation })
}

/// Theorem 8 (after Adya): `G ∈ GraphSER` iff `T_G ⊨ INT` and
/// `SO ∪ WR ∪ WW ∪ RW` is acyclic.
///
/// # Errors
///
/// Returns the INT violation or a witness cycle.
pub fn check_ser(graph: &DependencyGraph) -> Result<(), MembershipError> {
    check_ser_traced(graph, &Telemetry::disabled())
}

/// [`check_ser`] with telemetry: emits one
/// [`CycleSearchStep`](Event::CycleSearchStep) with the size of
/// `SO ∪ WR ∪ WW ∪ RW` (above [`INCREMENTAL_CROSSOVER`], of its covering
/// edges) and one [`VerdictEmitted`](Event::VerdictEmitted) with the
/// acyclicity-check wall-clock time.
///
/// # Errors
///
/// Same as [`check_ser`].
pub fn check_ser_traced(
    graph: &DependencyGraph,
    telemetry: &Telemetry,
) -> Result<(), MembershipError> {
    check_int(graph)?;
    let timer = SpanTimer::start();
    let (cycle, edges, visited, reordered) = if graph.history().tx_count() >= INCREMENTAL_CROSSOVER
    {
        let class = feed_class(ClassKind::Ser, graph);
        let stats = class.stats();
        let cycle = class.violation().map(<[TxId]>::to_vec);
        (cycle, class.maintained_edge_count(), stats.visited, stats.reordered)
    } else {
        let all = graph.all_relation();
        (all.find_cycle(), all.edge_count(), 0, 0)
    };
    let nanos = timer.elapsed_nanos();
    telemetry.emit(|| Event::CycleSearchStep {
        check: "check_ser",
        nodes: graph.history().tx_count() as u64,
        edges: edges as u64,
        visited,
        reordered,
    });
    let ok = cycle.is_none();
    telemetry.emit(|| Event::VerdictEmitted { check: "check_ser", ok, nanos });
    match cycle {
        None => Ok(()),
        Some(nodes) => Err(MembershipError::Cycle { class: GraphClass::Ser, nodes }),
    }
}

/// Theorem 9 — the paper's central result: `G ∈ GraphSI` iff `T_G ⊨ INT`
/// and `(SO ∪ WR ∪ WW) ; RW?` is acyclic. Equivalently, every cycle of `G`
/// has at least two *adjacent* anti-dependency edges (the SI write-skew
/// shape is the only cyclic shape SI admits).
///
/// # Errors
///
/// Returns the INT violation or a witness cycle of the composed relation.
pub fn check_si(graph: &DependencyGraph) -> Result<(), MembershipError> {
    check_si_traced(graph, &Telemetry::disabled())
}

/// [`check_si`] with telemetry: emits one
/// [`CycleSearchStep`](Event::CycleSearchStep) with the size of the
/// composed relation `(SO ∪ WR ∪ WW) ; RW?` (above
/// [`INCREMENTAL_CROSSOVER`], of its composition over the covering edges:
/// at most `|D_cov| · (1 + max reads per transaction)`, where `D_cov` is
/// the covering `SO ∪ WR ∪ WW`) and one
/// [`VerdictEmitted`](Event::VerdictEmitted) with the composition +
/// acyclicity wall-clock time.
///
/// # Errors
///
/// Same as [`check_si`].
pub fn check_si_traced(
    graph: &DependencyGraph,
    telemetry: &Telemetry,
) -> Result<(), MembershipError> {
    check_int(graph)?;
    let timer = SpanTimer::start();
    let (cycle, edges, visited, reordered) = if graph.history().tx_count() >= INCREMENTAL_CROSSOVER
    {
        let class = feed_class(ClassKind::Si, graph);
        let stats = class.stats();
        let cycle = class.violation().map(<[TxId]>::to_vec);
        (cycle, class.maintained_edge_count(), stats.visited, stats.reordered)
    } else {
        let composed = graph.dep_relation().compose_opt(&graph.rw_relation());
        (composed.find_cycle(), composed.edge_count(), 0, 0)
    };
    let nanos = timer.elapsed_nanos();
    telemetry.emit(|| Event::CycleSearchStep {
        check: "check_si",
        nodes: graph.history().tx_count() as u64,
        edges: edges as u64,
        visited,
        reordered,
    });
    let ok = cycle.is_none();
    telemetry.emit(|| Event::VerdictEmitted { check: "check_si", ok, nanos });
    match cycle {
        None => Ok(()),
        Some(nodes) => Err(MembershipError::Cycle { class: GraphClass::Si, nodes }),
    }
}

/// Theorem 21 (after \[11\]): `G ∈ GraphPSI` iff `T_G ⊨ INT` and
/// `(SO ∪ WR ∪ WW)⁺ ; RW?` is irreflexive. Equivalently, every cycle of
/// `G` has at least two anti-dependency edges (not necessarily adjacent).
///
/// # Errors
///
/// Returns the INT violation or a witness: the transaction `T` with
/// `(T, T)` in the composed relation.
pub fn check_psi(graph: &DependencyGraph) -> Result<(), MembershipError> {
    check_psi_traced(graph, &Telemetry::disabled())
}

/// [`check_psi`] with telemetry: emits one
/// [`CycleSearchStep`](Event::CycleSearchStep) with the size of the
/// composed relation `(SO ∪ WR ∪ WW)⁺ ; RW?` and one
/// [`VerdictEmitted`](Event::VerdictEmitted) with the closure +
/// irreflexivity wall-clock time.
///
/// # Errors
///
/// Same as [`check_psi`].
pub fn check_psi_traced(
    graph: &DependencyGraph,
    telemetry: &Telemetry,
) -> Result<(), MembershipError> {
    check_int(graph)?;
    let timer = SpanTimer::start();
    let dep_plus = graph.dep_relation().transitive_closure();
    let composed = dep_plus.compose_opt(&graph.rw_relation());
    let reflexive = graph.history().tx_ids().find(|&t| composed.contains(t, t));
    let nanos = timer.elapsed_nanos();
    telemetry.emit(|| Event::CycleSearchStep {
        check: "check_psi",
        nodes: graph.history().tx_count() as u64,
        edges: composed.edge_count() as u64,
        visited: 0,
        reordered: 0,
    });
    let ok = reflexive.is_none();
    telemetry.emit(|| Event::VerdictEmitted { check: "check_psi", ok, nanos });
    match reflexive {
        None => Ok(()),
        Some(t) => Err(MembershipError::Cycle { class: GraphClass::Psi, nodes: vec![t] }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_depgraph::DepGraphBuilder;
    use si_model::{HistoryBuilder, Op};

    /// Figure 2(d): write skew — SI and PSI, not SER.
    fn write_skew() -> DependencyGraph {
        let mut b = HistoryBuilder::new();
        let x = b.object("acct1");
        let y = b.object("acct2");
        let (s1, s2) = (b.session(), b.session());
        b.push_tx(s1, [Op::read(x, 0), Op::read(y, 0), Op::write(x, 1)]);
        b.push_tx(s2, [Op::read(x, 0), Op::read(y, 0), Op::write(y, 1)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.infer_wr();
        g.build().unwrap()
    }

    /// Figure 2(b): lost update — none of the three.
    fn lost_update() -> DependencyGraph {
        let mut b = HistoryBuilder::new();
        let acct = b.object("acct");
        let (s1, s2) = (b.session(), b.session());
        b.push_tx(s1, [Op::read(acct, 0), Op::write(acct, 50)]);
        b.push_tx(s2, [Op::read(acct, 0), Op::write(acct, 25)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.infer_wr();
        g.build().unwrap()
    }

    /// Figure 2(c): long fork — PSI only.
    fn long_fork() -> DependencyGraph {
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let (s1, s2, s3, s4) = (b.session(), b.session(), b.session(), b.session());
        b.push_tx(s1, [Op::write(x, 1)]);
        b.push_tx(s2, [Op::write(y, 1)]);
        b.push_tx(s3, [Op::read(x, 1), Op::read(y, 0)]);
        b.push_tx(s4, [Op::read(x, 0), Op::read(y, 1)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.infer_wr();
        g.build().unwrap()
    }

    /// A serializable chain: in all three classes.
    fn serial_chain() -> DependencyGraph {
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let s = b.session();
        b.push_tx(s, [Op::write(x, 1)]);
        b.push_tx(s, [Op::read(x, 1), Op::write(x, 2)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.infer_wr();
        g.build().unwrap()
    }

    #[test]
    fn write_skew_class_memberships() {
        let g = write_skew();
        assert!(check_si(&g).is_ok());
        assert!(check_psi(&g).is_ok());
        let err = check_ser(&g).unwrap_err();
        assert!(matches!(err, MembershipError::Cycle { class: GraphClass::Ser, .. }));
    }

    #[test]
    fn lost_update_class_memberships() {
        let g = lost_update();
        assert!(check_si(&g).is_err());
        assert!(check_psi(&g).is_err());
        assert!(check_ser(&g).is_err());
    }

    #[test]
    fn long_fork_class_memberships() {
        let g = long_fork();
        assert!(check_psi(&g).is_ok());
        assert!(check_si(&g).is_err());
        assert!(check_ser(&g).is_err());
    }

    #[test]
    fn serial_chain_in_all_classes() {
        let g = serial_chain();
        for class in [GraphClass::Ser, GraphClass::Si, GraphClass::Psi] {
            assert!(class.check(&g).is_ok(), "{class} rejected a serial chain");
        }
    }

    #[test]
    fn si_witness_cycle_is_reported() {
        let g = lost_update();
        let MembershipError::Cycle { class, nodes } = check_si(&g).unwrap_err() else {
            panic!("expected a cycle");
        };
        assert_eq!(class, GraphClass::Si);
        assert!(!nodes.is_empty());
        let composed = g.dep_relation().compose_opt(&g.rw_relation());
        for w in nodes.windows(2) {
            assert!(composed.contains(w[0], w[1]));
        }
        assert!(composed.contains(*nodes.last().unwrap(), nodes[0]));
    }

    #[test]
    fn incremental_feed_agrees_with_dense_on_canonical_graphs() {
        // The canonical graphs all satisfy INT, so the dense check_*
        // verdicts are exactly the characteristic tests — which the
        // incremental feed must reproduce for every class.
        for g in [write_skew(), lost_update(), long_fork(), serial_chain()] {
            let expectations = [
                (ClassKind::Ser, check_ser(&g).is_ok()),
                (ClassKind::Si, check_si(&g).is_ok()),
                (ClassKind::Psi, check_psi(&g).is_ok()),
                (ClassKind::Pc, crate::pc::check_pc_graph(&g).is_ok()),
            ];
            for (kind, dense_ok) in expectations {
                assert_eq!(feed_class(kind, &g).is_consistent(), dense_ok, "{kind:?}");
            }
        }
    }

    #[test]
    fn characteristic_helpers_match_checks_on_int_satisfying_graphs() {
        for g in [write_skew(), lost_update(), long_fork(), serial_chain()] {
            assert_eq!(ser_characteristic_acyclic(&g), check_ser(&g).is_ok());
            assert_eq!(si_characteristic_acyclic(&g), check_si(&g).is_ok());
            assert_eq!(psi_characteristic_irreflexive(&g), check_psi(&g).is_ok());
        }
    }

    #[test]
    fn int_violation_blocks_all_classes() {
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let s = b.session();
        b.push_tx(s, [Op::write(x, 1), Op::read(x, 2)]);
        let h = b.build();
        let g = DepGraphBuilder::new(h).build().unwrap();
        for class in [GraphClass::Ser, GraphClass::Si, GraphClass::Psi] {
            assert!(matches!(class.check(&g), Err(MembershipError::Int { .. })));
        }
    }

    #[test]
    fn class_inclusions_on_examples() {
        // GraphSER ⊆ GraphSI ⊆ GraphPSI on all four canonical graphs.
        for g in [write_skew(), lost_update(), long_fork(), serial_chain()] {
            if check_ser(&g).is_ok() {
                assert!(check_si(&g).is_ok());
            }
            if check_si(&g).is_ok() {
                assert!(check_psi(&g).is_ok());
            }
        }
    }
}
