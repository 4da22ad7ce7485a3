//! The benchmark's vocabulary: workloads and metrics by name, with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root states the same lists (a test compares them); later issues name
//! their claims in these words.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a metric is measured and how it is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Reported by every workload from the untraced pass;
    /// `BENCHMARK.json`'s `end_to_end`, bounded there.
    EndToEnd,
    /// End to end on the workloads that exercise it, from the untraced
    /// pass. `BENCHMARK.json` has no per-workload metric lists and wants
    /// every `end_to_end` metric non-zero on every workload, so these sit
    /// under its `per_layer`; `--compare` still holds them to a bound.
    Scoped,
    /// One layer's time, count or ratio, from the traced pass. Unbounded.
    Layer,
}

impl Scope {
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::EndToEnd => "end_to_end",
            Scope::Scoped => "scoped",
            Scope::Layer => "layer",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
}

impl Metric {
    /// The share of the baseline median by which a later change may
    /// worsen the metric; `None` for layer metrics. A quarter is the widest
    /// `BENCHMARK.json` allows, and what timings need on a machine whose
    /// neighbours move the medians of ten runs by up to a tenth (README,
    /// "Reference seconds"); memory is steadier.
    pub fn bound(&self) -> Option<f64> {
        match self.scope {
            Scope::Layer => None,
            _ if self.name == "peak_rss_mb" => Some(0.15),
            _ => Some(0.25),
        }
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> Metric {
    Metric { name, unit, better, scope }
}

use Better::{Higher, Lower};
use Scope::{EndToEnd, Layer, Scoped};

pub const METRICS: &[Metric] = &[
    m("setup_s", "s", Lower, EndToEnd),
    m("certified_tps", "tx/s", Higher, EndToEnd),
    m("verdict_s", "s", Lower, EndToEnd),
    m("confirm_s", "s", Lower, EndToEnd),
    m("peak_rss_mb", "MB", Lower, EndToEnd),
    m("commit_tps_single_lock", "commits/s", Higher, Scoped),
    m("commit_tps_sharded", "commits/s", Higher, Scoped),
    m("commit_tps_lockfree", "commits/s", Higher, Scoped),
    m("refute_s", "s", Lower, Scoped),
    m("psi_verdict_s", "s", Lower, Scoped),
    m("monitor_appends_per_s", "1/s", Higher, Scoped),
    m("monitor_append_p50_us", "us", Lower, Scoped),
    m("monitor_append_p99_us", "us", Lower, Scoped),
    m("mvcc.single_lock.exec_s", "s", Lower, Layer),
    m("mvcc.sharded.exec_s", "s", Lower, Layer),
    m("mvcc.lockfree.exec_s", "s", Lower, Layer),
    m("mvcc.single_lock.abort_ratio", "ratio", Lower, Layer),
    m("mvcc.sharded.abort_ratio", "ratio", Lower, Layer),
    m("mvcc.lockfree.abort_ratio", "ratio", Lower, Layer),
    m("mvcc.sharded.gc_passes", "count", Lower, Layer),
    m("mvcc.sharded.gc_pruned", "count", Higher, Layer),
    m("mvcc.lockfree.gc_passes", "count", Lower, Layer),
    m("mvcc.lockfree.gc_pruned", "count", Higher, Layer),
    m("mvcc.si.begin_ns", "ns", Lower, Layer),
    m("mvcc.si.read_ns", "ns", Lower, Layer),
    m("mvcc.si.write_ns", "ns", Lower, Layer),
    m("mvcc.si.commit_ns", "ns", Lower, Layer),
    m("mvcc.sharded.begin_ns", "ns", Lower, Layer),
    m("mvcc.sharded.read_ns", "ns", Lower, Layer),
    m("mvcc.sharded.write_ns", "ns", Lower, Layer),
    m("mvcc.sharded.commit_ns", "ns", Lower, Layer),
    m("mvcc.lockfree.begin_ns", "ns", Lower, Layer),
    m("mvcc.lockfree.read_ns", "ns", Lower, Layer),
    m("mvcc.lockfree.write_ns", "ns", Lower, Layer),
    m("mvcc.lockfree.commit_ns", "ns", Lower, Layer),
    m("mvcc.record.ns_per_tx", "ns", Lower, Layer),
    m("solver.solve_s", "s", Lower, Layer),
    m("solver.refute_s", "s", Lower, Layer),
    m("solver.psi_solve_s", "s", Lower, Layer),
    m("solver.vars_per_tx", "ratio", Lower, Layer),
    m("solver.wr_vars", "count", Lower, Layer),
    m("solver.pair_vars", "count", Lower, Layer),
    m("solver.forced_reads", "count", Higher, Layer),
    m("solver.decisions", "count", Lower, Layer),
    m("solver.propagations", "count", Lower, Layer),
    m("solver.conflicts", "count", Lower, Layer),
    m("solver.learned", "count", Lower, Layer),
    m("solver.restarts", "count", Lower, Layer),
    m("solver.theory_edges", "count", Lower, Layer),
    m("solver.propagations_per_s", "1/s", Higher, Layer),
    m("solver.theory_edges_per_s", "1/s", Higher, Layer),
    m("depgraph.to_graph_s", "s", Lower, Layer),
    m("core.check_s", "s", Lower, Layer),
    m("core.monitor.append_ns", "ns", Lower, Layer),
    m("core.monitor.edges_per_append", "count", Lower, Layer),
    m("core.monitor.visited_per_append", "count", Lower, Layer),
    m("core.monitor.reordered_per_append", "count", Lower, Layer),
    m("relations.dag_insert_ns", "ns", Lower, Layer),
    m("relations.dag_reorder_ns", "ns", Lower, Layer),
    m("relations.class_add_ns", "ns", Lower, Layer),
    m("relations.undo_ns_per_edge", "ns", Lower, Layer),
    m("workloads.generate_s", "s", Lower, Layer),
    m("telemetry.solve_overhead_ratio", "ratio", Lower, Layer),
    m("telemetry.monitor_overhead_ratio", "ratio", Lower, Layer),
    m("trace.overhead_ratio", "ratio", Lower, Layer),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The five inputs. Each is one process, so `peak_rss_mb` is its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StressUniform,
    StressHot,
    CheckGenerated,
    CheckAmbiguous,
    MonitorStream,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::StressUniform,
        Workload::StressHot,
        Workload::CheckGenerated,
        Workload::CheckAmbiguous,
        Workload::MonitorStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StressUniform => "stress_uniform",
            Workload::StressHot => "stress_hot",
            Workload::CheckGenerated => "check_generated",
            Workload::CheckAmbiguous => "check_ambiguous",
            Workload::MonitorStream => "monitor_stream",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the paper says every verdict must be (Theorems 9, 10(ii), 21 and
/// `histgen`'s construction). A run counts each verdict that differs as
/// failed; tests flip one field to see the run fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownAnswers {
    /// Engine recordings are in HistSI and their witnesses pass `check_si`.
    pub recording_in_si: bool,
    /// `histgen` without injection is in HistSI (monitor: consistent).
    pub clean_in_si: bool,
    pub clean_in_psi: bool,
    /// The long-fork twin is outside HistSI (monitor: flagged)...
    pub twin_in_si: bool,
    /// ...and inside HistPSI.
    pub twin_in_psi: bool,
}

pub const PAPER: KnownAnswers = KnownAnswers {
    recording_in_si: true,
    clean_in_si: true,
    clean_in_psi: true,
    twin_in_si: false,
    twin_in_psi: true,
};
