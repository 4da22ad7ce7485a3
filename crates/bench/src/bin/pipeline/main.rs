//! `pipeline`: one benchmark for the whole loop — engine → recorder →
//! verdict → confirmed certificate — with a unit cost for every layer
//! under it and a traced run. See `README.md` beside this file.
//!
//! ```text
//! pipeline --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--spans FILE]
//! pipeline --all --json FILE [--seed N] [--seconds S]
//! pipeline --compare A.json B.json
//! pipeline --check
//! ```

#![forbid(unsafe_code)]

mod check;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::{Budget, Pass, PassResult, Plan, Sizes, Warmup};
use spec::Workload;

const USAGE: &str = "usage:
  pipeline --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--spans FILE]
  pipeline --all --json FILE [--seed N] [--seconds S]
  pipeline --compare A.json B.json
  pipeline --check
workloads: stress_uniform stress_hot check_generated check_ambiguous monitor_stream";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Options {
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

enum Mode {
    Workload(Workload),
    All,
    Compare(PathBuf, PathBuf),
    Check,
}

fn parse(args: &[String]) -> Result<(Mode, Options), String> {
    let mut mode = None;
    let mut o =
        Options { seed: 1, seconds: DEFAULT_SECONDS, trace: false, json: None, spans: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
                mode = Some(Mode::Workload(workload));
            }
            "--all" => mode = Some(Mode::All),
            "--check" => mode = Some(Mode::Check),
            "--compare" => mode = Some(Mode::Compare(value()?.into(), value()?.into())),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => o.json = Some(value()?.into()),
            "--spans" => o.spans = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((mode.ok_or("one of --workload, --all, --compare, --check is needed")?, o))
}

/// One pass of `workload`, under a root span that every other span
/// descends from. A panic inside a layer is a failed verdict, not a lost
/// run.
fn pass(workload: Workload, plan: &Plan, budget: Budget, traced: bool) -> PassResult {
    let mut p = Pass::new(workload, plan, budget, traced);
    p.tracer.enter(workload.name(), 0);
    let finished = catch_unwind(AssertUnwindSafe(|| workloads::run(&mut p)));
    p.tracer.exit_all();
    if finished.is_err() {
        p.verdict("the workload ran to its end without a panic", false, true);
    }
    p.finish()
}

/// The untraced pass and, when asked, the same repetitions again with
/// spans on. End-to-end metrics come from the first only, layer metrics
/// from the second only; `trace.overhead_ratio` is the second's busy time
/// over the first's.
fn measure(
    workload: Workload,
    plan: &Plan,
    warmup: Warmup,
) -> (report::Run, Option<trace::Tracer>) {
    let start = Instant::now();
    let untraced = pass(workload, plan, Budget::Timed(plan.seconds), false);
    let mut run = report::Run {
        workload,
        traced: plan.trace,
        seed: plan.seed,
        seconds: plan.seconds,
        warmup,
        wall_s: 0.0,
        rounds: untraced.reps.clone(),
        attempted: untraced.attempted,
        failures: untraced.failures,
        samples: untraced.samples,
        wall_samples: untraced.wall_samples,
        scales: untraced.scales,
    };
    // Here, before any traced pass, the process's high-water mark is the
    // untraced pass's.
    if let Some(mb) = run::peak_rss_mb() {
        run.samples.insert("peak_rss_mb", vec![mb]);
    }
    let mut tracer = None;
    if plan.trace {
        let traced = pass(workload, plan, Budget::Replay(untraced.reps), true);
        run.attempted += traced.attempted;
        run.failures.extend(traced.failures);
        run.samples.extend(traced.samples);
        run.wall_samples.extend(traced.wall_samples);
        run.samples.insert("trace.overhead_ratio", vec![traced.busy / untraced.busy]);
        run.scales.extend(traced.scales);
        tracer = Some(traced.tracer);
    }
    for m in spec::METRICS.iter().filter(|m| m.scope == spec::Scope::EndToEnd) {
        if !run.samples.contains_key(m.name) {
            run.failures.push(format!("{} was not measured", m.name));
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    (run, tracer)
}

fn run_workload(workload: Workload, o: &Options) -> Result<ExitCode, String> {
    let warmup = run::warm_machine(run::client_threads());
    let plan = Plan {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        sizes: Sizes::FULL,
        answers: spec::PAPER,
    };
    let (run, tracer) = measure(workload, &plan, warmup);
    print!("{}", run.table());
    if let Some(path) = &o.json {
        run.append_to(path)?;
    }
    if let (Some(path), Some(tracer)) = (&o.spans, &tracer) {
        let json = serde_json::to_string(&tracer.to_content(workload.name()))
            .expect("a content tree renders");
        std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", run.result_line());
    Ok(if run.failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload with `--trace 1`, which measures all there is, each in
/// a process of its own so that `peak_rss_mb` is that workload's; all
/// append to one report.
fn run_all(o: &Options) -> Result<ExitCode, String> {
    let json = o.json.as_deref().ok_or("--all needs --json FILE to gather the runs in")?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut failed = false;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name(), "--trace", "1"])
            .args(["--seed", &o.seed.to_string(), "--seconds", &o.seconds.to_string()])
            .arg("--json")
            .arg(json)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        failed |= !status.success();
    }
    print!("{}", report::summary(json, Workload::ALL.len())?);
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (table, passed) = report::compare(a, b)?;
    print!("{table}");
    Ok(if passed { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(mode, o)| match mode {
        Mode::Workload(workload) => run_workload(workload, &o),
        Mode::All => run_all(&o),
        Mode::Compare(a, b) => compare(&a, &b),
        Mode::Check => check::check().map(|()| {
            println!("check: ok");
            ExitCode::SUCCESS
        }),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("pipeline: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
