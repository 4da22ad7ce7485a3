//! `--check`: every workload at about a hundredth of its size, in
//! seconds, against the known-answer table — plus the properties the
//! numbers rest on: a flipped answer fails the run, inputs and solver
//! counters are a function of the seed, the monitor's input says what the
//! dependency graph says. `cargo test -p si-bench` runs it.

use si_solve::{solve, SolverMode};

use crate::run::{Plan, Sizes, Warmup};
use crate::spec::{self, KnownAnswers, Scope, Workload, PAPER};
use crate::workloads::{ambiguous_batch, generated_inputs, observe, stream_inputs, CLUSTER};

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn small(seed: u64, trace: bool, answers: KnownAnswers) -> Plan {
    Plan { seed, seconds: 0.2, trace, sizes: Sizes::CHECK, answers }
}

const NO_WARMUP: Warmup = Warmup { seconds: 0.0, parallel_ratio: 0.0 };

/// Both passes of every workload: no verdict differs from the paper's,
/// every end-to-end metric is measured and positive, every span descends
/// from the root and the self times add up to it.
fn workloads_pass() -> Result<(), String> {
    for workload in Workload::ALL {
        let name = workload.name();
        let (run, tracer) = crate::measure(workload, &small(7, true, PAPER), NO_WARMUP);
        ensure(run.failures.is_empty(), || format!("{name}: {:?}", run.failures))?;
        ensure(run.attempted > 0, || format!("{name}: no verdict was attempted"))?;
        for m in spec::METRICS.iter().filter(|m| m.scope == Scope::EndToEnd) {
            let measured = run.samples.get(m.name).is_some_and(|s| s.iter().all(|&v| v > 0.0));
            ensure(measured, || format!("{name}: {} is missing or not positive", m.name))?;
        }
        for (metric, samples) in &run.samples {
            ensure(samples.iter().all(|v| v.is_finite()), || {
                format!("{name}: {metric} has a sample that is not a number")
            })?;
        }
        ensure(run.samples.contains_key("trace.overhead_ratio"), || {
            format!("{name}: the traced pass left no overhead ratio")
        })?;

        let tracer = tracer.expect("a traced run keeps its tracer");
        let (spans, own) = (tracer.spans(), tracer.self_times());
        let root = spans.first().ok_or(format!("{name}: no span was recorded"))?;
        ensure(root.name == name && root.parent.is_none(), || format!("{name}: no root span"))?;
        ensure(spans[1..].iter().all(|s| s.parent.is_some()), || {
            format!("{name}: a span has no parent")
        })?;
        ensure(own.iter().sum::<u64>() == root.end_ns - root.start_ns, || {
            format!("{name}: self times do not sum to the root span")
        })?;
    }
    Ok(())
}

/// One wrong entry in the known-answer table must fail the run that
/// checks it, so that a verdict gone wrong cannot pass for a fast one.
fn flipped_answers_fail() -> Result<(), String> {
    let flips = [
        (Workload::StressUniform, KnownAnswers { recording_in_si: false, ..PAPER }),
        (Workload::CheckGenerated, KnownAnswers { twin_in_si: true, ..PAPER }),
        (Workload::CheckGenerated, KnownAnswers { twin_in_psi: false, ..PAPER }),
        (Workload::CheckGenerated, KnownAnswers { clean_in_psi: false, ..PAPER }),
        (Workload::CheckAmbiguous, KnownAnswers { clean_in_si: false, ..PAPER }),
        (Workload::MonitorStream, KnownAnswers { twin_in_si: true, ..PAPER }),
        (Workload::MonitorStream, KnownAnswers { clean_in_si: false, ..PAPER }),
    ];
    for (workload, answers) in flips {
        let (run, _) = crate::measure(workload, &small(7, false, answers), NO_WARMUP);
        ensure(!run.failures.is_empty(), || {
            format!("{} passed against the wrong answers {answers:?}", workload.name())
        })?;
        ensure(run.result_line().contains("\"correct\":false"), || {
            format!("{}: the result line hides the failure", workload.name())
        })?;
    }
    Ok(())
}

/// The generated inputs of a seed, as text, and the solver's effort on
/// them.
fn inputs_and_effort(seed: u64) -> (String, Vec<u64>) {
    let sizes = Sizes::CHECK;
    let generated = generated_inputs(&sizes, seed);
    let (clean, twins) = ambiguous_batch(&sizes, seed, 0);
    let (stream, head) = stream_inputs(&sizes, seed);
    let text = format!(
        "{}{}{}{}{stream:?}",
        serde_json::to_string(&generated.to_vec()).expect("histories render"),
        serde_json::to_string(&clean).expect("histories render"),
        serde_json::to_string(&twins).expect("histories render"),
        serde_json::to_string(&head).expect("histories render"),
    );
    let effort = generated
        .iter()
        .chain(&clean)
        .chain(&twins)
        .flat_map(|h| {
            let s = solve(h, SolverMode::Si).stats;
            [s.decisions, s.propagations, s.conflicts, s.theory_edges]
        })
        .collect();
    (text, effort)
}

/// The same seed gives byte-identical inputs and exactly repeating solver
/// counters; another seed changes both.
fn seeds_decide_inputs() -> Result<(), String> {
    let (first, again, other) = (inputs_and_effort(7), inputs_and_effort(7), inputs_and_effort(8));
    ensure(first.0 == again.0, || "the same seed generated different inputs".into())?;
    ensure(first.1 == again.1, || "solver counters differ between two runs of a seed".into())?;
    ensure(first.0 != other.0, || "a second seed generated the same inputs".into())?;
    ensure(first.1 != other.1, || "a second seed left every solver counter unchanged".into())
}

/// The twin's stream is the clean stream plus the cluster: the monitor
/// workload relies on it to check both with one pass.
fn twin_extends_clean() -> Result<(), String> {
    use si_workloads::histgen::generate;
    let sizes = Sizes::CHECK;
    let (twin, _) = stream_inputs(&sizes, 7);
    let clean = observe(&generate(&crate::workloads::grid(sizes.stream, 7, 0.0, None)));
    let body = twin.len() - CLUSTER;
    ensure(clean.len() == body, || "the twin is not four transactions longer".into())?;
    // The init transaction also initialises the cluster's two objects.
    ensure(format!("{:?}", &clean[1..]) == format!("{:?}", &twin[1..body]), || {
        "the twin's stream does not start with the clean stream".into()
    })
}

/// `observe` against the engine's own ground truth: on a scheduled
/// `SiEngine` run, every read's writer is the one `extract` derives from
/// the recorded visibility.
fn observe_matches_writer_for() -> Result<(), String> {
    use si_mvcc::{Scheduler, SchedulerConfig, SiEngine};
    use si_workloads::random::{random_mix, RandomMix};
    for seed in 0..4 {
        let mix = RandomMix {
            sessions: 4,
            txs_per_session: 12,
            objects: 6,
            seed,
            ..RandomMix::default()
        };
        let mut scheduler = Scheduler::new(SchedulerConfig { seed, ..SchedulerConfig::default() });
        let run = scheduler.run(&mut SiEngine::new(mix.objects), &random_mix(&mix));
        let graph = si_depgraph::extract(&run.execution).map_err(|e| format!("extract: {e}"))?;
        let observed = observe(&run.history);
        ensure(observed.len() == run.history.tx_count(), || "one entry per transaction".into())?;
        let mut reads = 0;
        for (t, tx) in run.history.transactions() {
            let entry = &observed[t.index()];
            ensure(entry.writes == tx.write_set(), || format!("seed {seed}: {t} writes"))?;
            ensure(entry.reads_from.len() == tx.external_read_set().len(), || {
                format!("seed {seed}: {t} reads")
            })?;
            for &(x, writer) in &entry.reads_from {
                reads += 1;
                ensure(graph.writer_for(t, x) == Some(writer), || {
                    format!(
                        "seed {seed}: {t} read {x} from {writer}, not {:?}",
                        graph.writer_for(t, x)
                    )
                })?;
            }
        }
        ensure(reads > 0, || format!("seed {seed}: the run read nothing"))?;
    }
    Ok(())
}

pub fn check() -> Result<(), String> {
    workloads_pass()?;
    flipped_answers_fail()?;
    seeds_decide_inputs()?;
    twin_extends_clean()?;
    observe_matches_writer_for()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_pass_at_check_size() {
        workloads_pass().unwrap();
    }

    #[test]
    fn a_flipped_known_answer_fails_the_run() {
        flipped_answers_fail().unwrap();
    }

    #[test]
    fn inputs_and_solver_counters_are_a_function_of_the_seed() {
        seeds_decide_inputs().unwrap();
    }

    #[test]
    fn the_twin_stream_extends_the_clean_stream() {
        twin_extends_clean().unwrap();
    }

    #[test]
    fn observed_reads_equal_writer_for() {
        observe_matches_writer_for().unwrap();
    }

    /// `BENCHMARK.json` names what `spec` names: the same workloads, and
    /// every metric under the same unit, direction and bound.
    #[test]
    fn benchmark_json_states_the_spec() {
        use serde::Content;
        let json: Content =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| match json.get(key) {
            Some(Content::Seq(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |c: &Content, key: &str| match c.get(key) {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let listed = list(key);
            let spec: Vec<_> = spec::METRICS
                .iter()
                .filter(|m| (m.scope == Scope::EndToEnd) == end_to_end)
                .collect();
            assert_eq!(listed.len(), spec.len(), "{key}");
            for (row, m) in listed.iter().zip(spec) {
                assert_eq!(text(row, "name"), m.name);
                assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(row, "better"), m.better.as_str(), "{}", m.name);
                if end_to_end {
                    assert_eq!(
                        row.get("bound"),
                        Some(&Content::F64(m.bound().unwrap())),
                        "{}",
                        m.name
                    );
                }
            }
        }
        assert_eq!(json.get("run_seconds"), Some(&Content::U64(crate::DEFAULT_SECONDS as u64)));
    }
}
