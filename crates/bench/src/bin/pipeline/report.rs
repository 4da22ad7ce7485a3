//! What a run leaves behind: the table on standard output, the result
//! line `BENCHMARK.json`'s driver reads, the JSON report, and the
//! comparison of two reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use serde::{Content, Deserialize};

use crate::run::{client_threads, Warmup};
use crate::spec::{self, Better, Metric, Scope, Workload};
use crate::stats::{self, Summary};

pub const SCHEMA: &str = "si-pipeline/1";

pub fn map<const N: usize>(entries: [(&str, Content); N]) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> Content {
    Content::Str(s.to_owned())
}

/// One workload, run once: one process.
pub struct Run {
    pub workload: Workload,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub warmup: Warmup,
    pub wall_s: f64,
    pub rounds: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// In reference seconds: see `Pass::settle`.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// As the wall clock gave them, for the metrics a repetition sampled.
    pub wall_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Reference seconds per wall second, repetition by repetition.
    pub scales: Vec<f64>,
}

impl Run {
    /// Per measured metric, in the order of the spec: the summary of its
    /// samples and their median by the wall clock.
    fn summaries(&self) -> impl Iterator<Item = (&'static Metric, Summary, f64)> + '_ {
        spec::METRICS.iter().filter_map(|m| {
            let summary = stats::summarize(self.samples.get(m.name)?);
            let wall = self.wall_samples.get(m.name).map_or(summary.median, |s| stats::median(s));
            Some((m, summary, wall))
        })
    }

    /// Reference seconds per wall second over the run's repetitions (1 if
    /// it died before its first).
    fn clock_scale(&self) -> Summary {
        stats::summarize(if self.scales.is_empty() { &[1.0] } else { &self.scales })
    }

    /// Every metric by name and unit, with the spread of its repetitions.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {} s, {}, {} client threads, warm-up {:.2} s at parallel ratio {:.2})\n",
            self.workload.name(),
            self.seed,
            self.seconds,
            if self.traced { "untraced pass then traced pass" } else { "untraced" },
            client_threads(),
            self.warmup.seconds,
            self.warmup.parallel_ratio,
        );
        let rounds: Vec<String> = self.rounds.iter().map(|(k, v)| format!("{k} {v}")).collect();
        let scale = self.clock_scale();
        let _ = writeln!(
            out,
            "repetitions: {}; wall {:.2} s; a wall second was {:.3} reference seconds ({:.3} to {:.3})",
            rounds.join(", "),
            self.wall_s,
            scale.median,
            scale.min,
            scale.max
        );
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>6} {:>6} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "metric",
            "unit",
            "better",
            "bound",
            "n",
            "median",
            "min",
            "q1",
            "q3",
            "max",
            "by wall clock"
        );
        for (m, s, wall) in self.summaries() {
            let bound = m.bound().map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>6} {:>6} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
                m.name,
                m.unit,
                m.better.as_str(),
                bound,
                s.n,
                s.median,
                s.min,
                s.q1,
                s.q3,
                s.max,
                wall
            );
        }
        let _ = writeln!(
            out,
            "verdicts: {} attempted, {} differ from the known answer",
            self.attempted,
            self.failures.len()
        );
        for failure in self.failures.iter().take(10) {
            let _ = writeln!(out, "  FAILED {failure}");
        }
        out
    }

    /// The last line of standard output: the untraced run prints every
    /// `end_to_end` metric of `BENCHMARK.json`, the traced run every
    /// `per_layer` one. A layer the workload never calls did no work: 0.
    pub fn result_line(&self) -> String {
        let metrics = spec::METRICS
            .iter()
            .filter(|m| (m.scope == Scope::EndToEnd) != self.traced)
            .map(|m| {
                let value = self.samples.get(m.name).map_or(0.0, |s| stats::median(s));
                (m.name.to_owned(), map([("value", Content::F64(value)), ("unit", text(m.unit))]))
            })
            .collect();
        let line = map([
            ("correct", Content::Bool(self.failures.is_empty())),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failures.len() as u64)),
            ("metrics", Content::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a content tree renders")
    }

    /// The report entry: environment stamp, repetition counts and, per
    /// metric, unit, direction, bound, sample count and five-number
    /// summary.
    fn to_content(&self) -> Content {
        let metrics = self
            .summaries()
            .map(|(m, s, wall)| {
                let row = map([
                    ("unit", text(m.unit)),
                    ("better", text(m.better.as_str())),
                    ("scope", text(m.scope.as_str())),
                    ("bound", m.bound().map_or(Content::Null, Content::F64)),
                    ("n", Content::U64(s.n as u64)),
                    ("min", Content::F64(s.min)),
                    ("q1", Content::F64(s.q1)),
                    ("median", Content::F64(s.median)),
                    ("q3", Content::F64(s.q3)),
                    ("max", Content::F64(s.max)),
                    ("wall_median", Content::F64(wall)),
                ]);
                (m.name.to_owned(), row)
            })
            .collect();
        let command_line = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or("unknown".to_owned(), |o| {
                    String::from_utf8_lossy(&o.stdout).trim().to_owned()
                })
        };
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        map([
            ("workload", text(self.workload.name())),
            ("traced", Content::Bool(self.traced)),
            ("seed", Content::U64(self.seed)),
            ("seconds", Content::F64(self.seconds)),
            (
                "env",
                map([
                    ("available_parallelism", Content::U64(parallelism as u64)),
                    ("threads", Content::U64(client_threads() as u64)),
                    ("rustc", text(&command_line("rustc", &["-V"]))),
                    ("git_commit", text(&command_line("git", &["rev-parse", "HEAD"]))),
                    ("warmup_s", Content::F64(self.warmup.seconds)),
                    ("parallel_ratio", Content::F64(self.warmup.parallel_ratio)),
                ]),
            ),
            (
                "rounds",
                Content::Map(
                    self.rounds
                        .iter()
                        .map(|(k, &v)| ((*k).to_owned(), Content::U64(v as u64)))
                        .collect(),
                ),
            ),
            ("wall_s", Content::F64(self.wall_s)),
            ("clock_scale", {
                let s = self.clock_scale();
                map([
                    ("min", Content::F64(s.min)),
                    ("median", Content::F64(s.median)),
                    ("max", Content::F64(s.max)),
                ])
            }),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failures.len() as u64)),
            ("failures", Content::Seq(self.failures.iter().map(|f| text(f)).collect())),
            ("metrics", Content::Map(metrics)),
        ])
    }

    /// Appends this run to the report at `path`, creating it if need be: a
    /// report file gathers runs, which is how `--all` and a baseline of
    /// several sets are put together. One run per line.
    pub fn append_to(&self, path: &Path) -> Result<(), String> {
        let mut runs = if path.exists() { read_runs(path)? } else { Vec::new() };
        runs.push(self.to_content());
        let lines: Vec<String> = runs
            .iter()
            .map(|r| serde_json::to_string(r).expect("a content tree renders"))
            .collect();
        let json = format!("{{\"schema\":\"{SCHEMA}\",\"runs\":[\n{}\n]}}\n", lines.join(",\n"));
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub fn read_runs(path: &Path) -> Result<Vec<Content>, String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let json = std::fs::read_to_string(path).map_err(|e| at(&e))?;
    let report: Content = serde_json::from_str(&json).map_err(|e| at(&e))?;
    match (report.get("schema"), report.get("runs")) {
        (Some(Content::Str(s)), Some(Content::Seq(runs))) if s == SCHEMA => Ok(runs.clone()),
        _ => Err(at(&format!("not a {SCHEMA} report"))),
    }
}

fn number(c: Option<&Content>) -> Option<f64> {
    f64::from_content(c?).ok()
}

/// One (workload, metric) across a report's runs: each run's median, and
/// the widest interquartile range of any single run as a share of its
/// median.
#[derive(Debug, Default, Clone)]
struct Cell {
    medians: Vec<f64>,
    iqr_share: f64,
}

impl Cell {
    /// Run-to-run spread as a share of the median; within one run when
    /// the report has only one.
    fn spread(&self) -> f64 {
        if self.medians.len() < 2 {
            return self.iqr_share;
        }
        let s = stats::sorted(&self.medians);
        (s[s.len() - 1] - s[0]) / stats::quantile(&s, 0.5)
    }
}

type Cells = BTreeMap<(String, &'static str), Cell>;

/// The bounded metrics of a report, and how many of its verdicts failed.
fn cells(runs: &[Content]) -> (Cells, u64) {
    let mut cells = Cells::new();
    let mut failed = 0;
    for run in runs {
        failed += number(run.get("failed")).unwrap_or(0.0) as u64;
        let (Some(Content::Str(workload)), Some(Content::Map(metrics))) =
            (run.get("workload"), run.get("metrics"))
        else {
            continue;
        };
        for (name, row) in metrics {
            let Some(metric) = spec::metric(name).filter(|m| m.bound().is_some()) else { continue };
            let (Some(median), Some(q1), Some(q3)) =
                (number(row.get("median")), number(row.get("q1")), number(row.get("q3")))
            else {
                continue;
            };
            let cell = cells.entry((workload.clone(), metric.name)).or_default();
            cell.medians.push(median);
            cell.iqr_share = cell.iqr_share.max((q3 - q1) / median);
        }
    }
    (cells, failed)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    /// The spread is wider than the bound and the two reports' runs
    /// interleave: neither "unchanged" nor "worse" can be said.
    Unresolved,
}

/// Judges `b` against the baseline `a`.
fn judge(metric: &Metric, a: &Cell, b: &Cell) -> (f64, f64, Status) {
    let bound = metric.bound().expect("only bounded metrics are compared");
    let (ma, mb) = (stats::median(&a.medians), stats::median(&b.medians));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| {
        b.medians.iter().all(|&x| a.medians.iter().all(|&y| f(x, y)))
    };
    let interleave = !all(&|x, y| better(x, y)) && !all(&|x, y| better(y, x));
    let status = if a.spread().max(b.spread()) > bound && interleave {
        Status::Unresolved
    } else if worse_by > bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (ma, mb, status)
}

/// `--compare a.json b.json`: per (workload, metric) both medians, their
/// ratio with its base, the bound and the judgement; `false` beside the
/// table when anything regressed or any verdict failed.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (cells_a, failed_a) = cells(&read_runs(a)?);
    let (cells_b, failed_b) = cells(&read_runs(b)?);
    let mut out = format!("a = {} (the base), b = {}\n", a.display(), b.display());
    let _ = writeln!(
        out,
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>6}  status",
        "workload", "metric", "median a", "median b", "b / a", "bound"
    );
    let mut regressed = 0;
    for ((workload, name), cell_a) in &cells_a {
        let Some(cell_b) = cells_b.get(&(workload.clone(), *name)) else { continue };
        let metric = spec::metric(name).expect("cells hold known metrics");
        let (ma, mb, status) = judge(metric, cell_a, cell_b);
        regressed += u32::from(status == Status::Regressed);
        let _ = writeln!(
            out,
            "{:<16} {:<26} {:>14.6} {:>14.6} {:>8.3} {:>5.0}%  {}",
            workload,
            name,
            ma,
            mb,
            mb / ma,
            metric.bound().unwrap_or(0.0) * 100.0,
            match status {
                Status::Ok => "ok",
                Status::Regressed => "regressed",
                Status::Unresolved => "unresolved",
            }
        );
    }
    let _ = writeln!(out, "verdict_errors: a {failed_a}, b {failed_b}; regressed: {regressed}");
    Ok((out, regressed == 0 && failed_a + failed_b == 0))
}

/// The one table `--all` ends with: the bounded metrics of the last
/// `runs` runs of the report, a row per (workload, metric).
pub fn summary(path: &Path, runs: usize) -> Result<String, String> {
    let all = read_runs(path)?;
    let (cells, failed) = cells(&all[all.len().saturating_sub(runs)..]);
    let mut out = format!(
        "{:<16} {:<26} {:>10} {:>14} {:>5}\n",
        "workload", "metric", "unit", "median", "runs"
    );
    for workload in Workload::ALL {
        for metric in spec::METRICS {
            if let Some(cell) = cells.get(&(workload.name().to_owned(), metric.name)) {
                let _ = writeln!(
                    out,
                    "{:<16} {:<26} {:>10} {:>14.6} {:>5}",
                    workload.name(),
                    metric.name,
                    metric.unit,
                    stats::median(&cell.medians),
                    cell.medians.len()
                );
            }
        }
    }
    let _ = writeln!(out, "verdict_errors: {failed}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(medians: &[f64]) -> Cell {
        Cell { medians: medians.to_vec(), iqr_share: 0.0 }
    }

    #[test]
    fn compare_tells_regressed_from_unresolved() {
        let lower = spec::metric("verdict_s").unwrap();
        let higher = spec::metric("certified_tps").unwrap();
        assert_eq!(lower.bound(), Some(0.25));
        // Tight runs, 40 % slower: regressed. 10 % slower: within the bound.
        assert_eq!(judge(lower, &cell(&[1.0, 1.01]), &cell(&[1.4, 1.41])).2, Status::Regressed);
        assert_eq!(judge(lower, &cell(&[1.0, 1.01]), &cell(&[1.1, 1.11])).2, Status::Ok);
        assert_eq!(
            judge(higher, &cell(&[100.0, 101.0]), &cell(&[70.0, 71.0])).2,
            Status::Regressed
        );
        assert_eq!(judge(higher, &cell(&[100.0, 101.0]), &cell(&[140.0, 141.0])).2, Status::Ok);
        // Runs 50 % apart that interleave say nothing either way.
        assert_eq!(judge(lower, &cell(&[1.0, 1.5]), &cell(&[1.2, 1.7])).2, Status::Unresolved);
        // Wide, but every run of b is worse than every run of a.
        assert_eq!(judge(lower, &cell(&[1.0, 1.5]), &cell(&[1.9, 2.4])).2, Status::Regressed);
        // One run each: the spread is the run's own interquartile range.
        let noisy = Cell { medians: vec![1.0], iqr_share: 0.5 };
        assert_eq!(judge(lower, &noisy, &cell(&[1.4])).2, Status::Regressed);
    }
}
