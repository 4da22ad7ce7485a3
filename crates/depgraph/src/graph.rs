//! The [`DependencyGraph`] type.

use std::collections::BTreeMap;

use si_model::{History, Obj};
use si_relations::{DepEdgeKind, Relation, TxId};

use crate::validate::{validate, DepGraphError};

/// Read dependencies per object: `wr[x][reader] = writer`. Uniqueness of
/// the writer (last condition of Definition 6) is structural.
pub type WrMap = BTreeMap<Obj, BTreeMap<TxId, TxId>>;

/// Write dependencies per object: `ww[x]` lists the transactions writing
/// `x` in version order (the strict total order `WW(x)` is "earlier in the
/// vector → overwritten by later entries").
pub type WwMap = BTreeMap<Obj, Vec<TxId>>;

/// A dependency graph `G = (T, SO, WR, WW, RW)` (Definition 6), with `RW`
/// derived from `WR` and `WW` per Definition 5.
///
/// Construct with [`DepGraphBuilder`](crate::DepGraphBuilder), extract from
/// an execution with [`extract`](crate::extract), or validate raw maps with
/// [`DependencyGraph::new`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DependencyGraph {
    history: History,
    wr: WrMap,
    ww: WwMap,
}

impl DependencyGraph {
    /// Builds and validates a dependency graph against Definition 6.
    ///
    /// # Errors
    ///
    /// Returns the first violated well-formedness condition.
    pub fn new(history: History, wr: WrMap, ww: WwMap) -> Result<Self, DepGraphError> {
        validate(&history, &wr, &ww)?;
        Ok(DependencyGraph { history, wr, ww })
    }

    /// The underlying history.
    #[inline]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Number of transactions.
    #[inline]
    pub fn tx_count(&self) -> usize {
        self.history.tx_count()
    }

    /// The raw read-dependency map.
    #[inline]
    pub fn wr(&self) -> &WrMap {
        &self.wr
    }

    /// The raw write-dependency map.
    #[inline]
    pub fn ww(&self) -> &WwMap {
        &self.ww
    }

    /// The writer `S` reads `x` from, if `S` reads `x` externally:
    /// `writer_for(S, x) = T` iff `T -WR(x)→ S`.
    pub fn writer_for(&self, reader: TxId, x: Obj) -> Option<TxId> {
        self.wr.get(&x).and_then(|m| m.get(&reader)).copied()
    }

    /// The version order of `x`'s writers (empty slice if nobody writes
    /// `x`).
    pub fn ww_order(&self, x: Obj) -> &[TxId] {
        self.ww.get(&x).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Read-dependency pairs `(writer, reader)` for `x`.
    pub fn wr_pairs(&self, x: Obj) -> Vec<(TxId, TxId)> {
        self.wr
            .get(&x)
            .map(|m| m.iter().map(|(&reader, &writer)| (writer, reader)).collect())
            .unwrap_or_default()
    }

    /// Write-dependency pairs `(overwritten, overwriter)` for `x` — all
    /// ordered pairs of the version order, i.e. the strict total order
    /// `WW(x)`.
    ///
    /// Quadratic in the chain length: this is the Definition 6 spec, for
    /// the dense relations, explanations and tests. Cycle checks feed
    /// [`DependencyGraph::covering_edges`] instead.
    pub fn ww_pairs(&self, x: Obj) -> Vec<(TxId, TxId)> {
        let order = self.ww_order(x);
        let mut pairs = Vec::new();
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                pairs.push((a, b));
            }
        }
        pairs
    }

    /// Anti-dependency pairs for `x`, derived per Definition 5:
    /// `T -RW(x)→ S` iff `T ≠ S ∧ ∃T'. T' -WR(x)→ T ∧ T' -WW(x)→ S`.
    ///
    /// One edge per reader *and* later overwriter: this is the
    /// Definition 5 spec, for the dense relations, explanations and
    /// tests. Cycle checks feed [`DependencyGraph::covering_edges`]
    /// instead.
    pub fn rw_pairs(&self, x: Obj) -> Vec<(TxId, TxId)> {
        let mut pairs = Vec::new();
        let order = self.ww_order(x);
        let Some(readers) = self.wr.get(&x) else {
            return pairs;
        };
        for (&reader, &writer) in readers {
            // All transactions after `writer` in the version order
            // overwrite the version `reader` read.
            if let Some(pos) = order.iter().position(|&t| t == writer) {
                for &overwriter in &order[pos + 1..] {
                    if overwriter != reader {
                        pairs.push((reader, overwriter));
                    }
                }
            }
        }
        pairs
    }

    /// The covering edges of `G`, labelled `(kind, from, to)`: `SO` to the
    /// session successor, every `WR`, `WW` to the next version, and `RW`
    /// from each reader to the *immediate* overwriter of the version it
    /// read (none if that overwriter is the reader itself). Session order
    /// comes first, then per object its `WR`, `WW` and `RW` edges.
    ///
    /// There are O(n + Σ ops) of them, against the quadratic
    /// [`so_relation`](Self::so_relation), [`ww_pairs`](Self::ww_pairs) and
    /// [`rw_pairs`](Self::rw_pairs). Each is an edge of the full relation
    /// of its kind, and every dropped edge is a path of kept ones: `a -WW→
    /// c` is `a -WW→ b -WW→ c`, and `r -RW→ c` is `r -RW→ b -WW→ c` (or
    /// `r -WW→ c` when `r` is the immediate overwriter `b`). So the
    /// characteristic relations of SER, SI, PSI and PC built from these
    /// edges give the same verdict as the ones built from the full
    /// relations, and a cycle found here is a cycle of `G` verbatim
    /// (DESIGN.md §5, "Covering edges").
    pub fn covering_edges(&self) -> impl Iterator<Item = (DepEdgeKind, TxId, TxId)> + '_ {
        let so = self
            .history
            .sessions()
            .flat_map(|(_, txs)| txs.windows(2).map(|w| (DepEdgeKind::So, w[0], w[1])));
        // `position[t]` is `t`'s index in the current object's version
        // order. Every `WR` writer is in that order (Definition 6), so
        // entries left over from earlier objects are never read.
        let mut position = vec![0usize; self.tx_count()];
        let per_object = self.objects().into_iter().flat_map(move |x| {
            let order = self.ww_order(x);
            for (i, &t) in order.iter().enumerate() {
                position[t.index()] = i;
            }
            let readers = self.wr.get(&x).into_iter().flatten();
            let mut edges: Vec<_> =
                readers.clone().map(|(&r, &w)| (DepEdgeKind::Wr, w, r)).collect();
            edges.extend(order.windows(2).map(|w| (DepEdgeKind::Ww, w[0], w[1])));
            edges.extend(readers.filter_map(|(&reader, &writer)| {
                debug_assert_eq!(order[position[writer.index()]], writer);
                let next = *order.get(position[writer.index()] + 1)?;
                (next != reader).then_some((DepEdgeKind::Rw, reader, next))
            }));
            edges
        });
        so.chain(per_object)
    }

    /// All objects with a read or write dependency.
    pub fn objects(&self) -> Vec<Obj> {
        let mut objs: Vec<Obj> = self.wr.keys().chain(self.ww.keys()).copied().collect();
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// The session order `SO` as a relation.
    pub fn so_relation(&self) -> Relation {
        self.history.session_order()
    }

    /// `WR = ⋃ₓ WR(x)` as a relation.
    pub fn wr_relation(&self) -> Relation {
        let mut rel = Relation::new(self.tx_count());
        for x in self.wr.keys() {
            for (writer, reader) in self.wr_pairs(*x) {
                rel.insert(writer, reader);
            }
        }
        rel
    }

    /// `WW = ⋃ₓ WW(x)` as a relation.
    pub fn ww_relation(&self) -> Relation {
        let mut rel = Relation::new(self.tx_count());
        for x in self.ww.keys() {
            for (a, b) in self.ww_pairs(*x) {
                rel.insert(a, b);
            }
        }
        rel
    }

    /// `RW = ⋃ₓ RW(x)` as a relation.
    pub fn rw_relation(&self) -> Relation {
        let mut rel = Relation::new(self.tx_count());
        let objs: Vec<Obj> = self.wr.keys().copied().collect();
        for x in objs {
            for (a, b) in self.rw_pairs(x) {
                rel.insert(a, b);
            }
        }
        rel
    }

    /// The paper's `D = SO ∪ WR ∪ WW`, the left-hand side of the Theorem 9
    /// acyclicity condition.
    pub fn dep_relation(&self) -> Relation {
        let mut rel = self.so_relation();
        rel.union_with(&self.wr_relation());
        rel.union_with(&self.ww_relation());
        rel
    }

    /// All four relations unioned: `SO ∪ WR ∪ WW ∪ RW`, the serializability
    /// condition of Theorem 8.
    pub fn all_relation(&self) -> Relation {
        let mut rel = self.dep_relation();
        rel.union_with(&self.rw_relation());
        rel
    }

    /// Decomposes into parts (history, WR, WW).
    pub fn into_parts(self) -> (History, WrMap, WwMap) {
        (self.history, self.wr, self.ww)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DepGraphBuilder;
    use si_model::{HistoryBuilder, Op};

    /// init writes x,y; T1 reads x writes y; T2 reads y writes x.
    fn cross_graph() -> DependencyGraph {
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let y = b.object("y");
        let s1 = b.session();
        let s2 = b.session();
        b.push_tx(s1, [Op::read(x, 0), Op::write(y, 1)]);
        b.push_tx(s2, [Op::read(y, 0), Op::write(x, 1)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.wr(x, TxId(0), TxId(1));
        g.wr(y, TxId(0), TxId(2));
        g.ww_order(x, [TxId(0), TxId(2)]);
        g.ww_order(y, [TxId(0), TxId(1)]);
        g.build().unwrap()
    }

    #[test]
    fn relations_are_consistent() {
        let g = cross_graph();
        let wr = g.wr_relation();
        assert!(wr.contains(TxId(0), TxId(1)));
        assert!(wr.contains(TxId(0), TxId(2)));
        assert_eq!(wr.edge_count(), 2);

        let ww = g.ww_relation();
        assert!(ww.contains(TxId(0), TxId(1)));
        assert!(ww.contains(TxId(0), TxId(2)));
        assert_eq!(ww.edge_count(), 2);

        // T1 read x from init; T2 overwrote x ⇒ T1 -RW-> T2; symmetrically.
        let rw = g.rw_relation();
        assert!(rw.contains(TxId(1), TxId(2)));
        assert!(rw.contains(TxId(2), TxId(1)));
        assert_eq!(rw.edge_count(), 2);
    }

    #[test]
    fn rw_excludes_self_pairs() {
        // T1 reads x from init then also writes x itself: T1 must not get
        // an RW edge to itself.
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let s = b.session();
        b.push_tx(s, [Op::read(x, 0), Op::write(x, 1)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.wr(x, TxId(0), TxId(1));
        g.ww_order(x, [TxId(0), TxId(1)]);
        let g = g.build().unwrap();
        assert!(g.rw_pairs(x).is_empty());
    }

    #[test]
    fn accessors() {
        let g = cross_graph();
        assert_eq!(g.writer_for(TxId(1), Obj(0)), Some(TxId(0)));
        assert_eq!(g.writer_for(TxId(1), Obj(1)), None);
        assert_eq!(g.ww_order(Obj(0)), &[TxId(0), TxId(2)]);
        assert_eq!(g.ww_order(Obj(9)), &[] as &[TxId]);
        assert_eq!(g.objects(), vec![Obj(0), Obj(1)]);
        assert_eq!(g.wr_pairs(Obj(0)), vec![(TxId(0), TxId(1))]);
    }

    #[test]
    fn dep_and_all_relations() {
        let g = cross_graph();
        let dep = g.dep_relation();
        assert!(dep.is_acyclic()); // SO empty here, WR/WW from init only
        let all = g.all_relation();
        assert!(!all.is_acyclic()); // RW cycle T1 <-> T2
    }

    #[test]
    fn covering_edges_keep_successors_and_immediate_overwriters() {
        // One session T1 T2 T3, all writing x: init < T1 < T2 < T3. T2
        // reads init's x (its immediate overwriter is T1), T3 reads T1's
        // x (its immediate overwriter is T2).
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let s = b.session();
        b.push_tx(s, [Op::write(x, 1)]);
        b.push_tx(s, [Op::read(x, 0), Op::write(x, 2)]);
        b.push_tx(s, [Op::read(x, 1), Op::write(x, 3)]);
        let mut g = DepGraphBuilder::new(b.build());
        g.infer_wr();
        let g = g.build().unwrap();
        let t = TxId;
        assert_eq!(
            g.covering_edges().collect::<Vec<_>>(),
            vec![
                (DepEdgeKind::So, t(1), t(2)),
                (DepEdgeKind::So, t(2), t(3)),
                (DepEdgeKind::Wr, t(0), t(2)),
                (DepEdgeKind::Wr, t(1), t(3)),
                (DepEdgeKind::Ww, t(0), t(1)),
                (DepEdgeKind::Ww, t(1), t(2)),
                (DepEdgeKind::Ww, t(2), t(3)),
                (DepEdgeKind::Rw, t(2), t(1)),
                (DepEdgeKind::Rw, t(3), t(2)),
            ]
        );
        // The full relations have SO (1,3), WW (0,2) (0,3) (1,3) and RW
        // (2,3): all paths of the edges above.
        assert_eq!(g.so_relation().edge_count(), 3);
        assert_eq!(g.ww_pairs(x).len(), 6);
        assert_eq!(g.rw_pairs(x).len(), 3);
    }

    #[test]
    fn covering_rw_skips_a_reader_that_is_the_immediate_overwriter() {
        // `rw_excludes_self_pairs`' shape plus a later writer: T1 reads
        // init's x and overwrites it, T2 overwrites T1. The dropped
        // T1 -RW→ T2 is T1 -WW→ T2.
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let (s1, s2) = (b.session(), b.session());
        b.push_tx(s1, [Op::read(x, 0), Op::write(x, 1)]);
        b.push_tx(s2, [Op::write(x, 2)]);
        let mut g = DepGraphBuilder::new(b.build());
        g.infer_wr();
        let g = g.build().unwrap();
        assert_eq!(g.rw_pairs(x), vec![(TxId(1), TxId(2))]);
        assert!(g.covering_edges().all(|(kind, _, _)| kind != DepEdgeKind::Rw));
        assert!(g.covering_edges().any(|e| e == (DepEdgeKind::Ww, TxId(1), TxId(2))));
    }

    #[test]
    fn ww_pairs_are_all_ordered_pairs() {
        let mut b = HistoryBuilder::new();
        let x = b.object("x");
        let s = b.session();
        b.push_tx(s, [Op::write(x, 1)]);
        b.push_tx(s, [Op::write(x, 2)]);
        let h = b.build();
        let mut g = DepGraphBuilder::new(h);
        g.ww_order(x, [TxId(0), TxId(1), TxId(2)]);
        let g = g.build().unwrap();
        assert_eq!(
            g.ww_pairs(x),
            vec![(TxId(0), TxId(1)), (TxId(0), TxId(2)), (TxId(1), TxId(2)),]
        );
    }
}
