//! One pass over a workload: how often each phase repeats, the samples it
//! yields, the verdicts it checked and the spans around its calls.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::spec::{self, KnownAnswers, Metric, Scope, Workload};
use crate::trace::Tracer;

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `CHECK` is the
/// same plan at about a hundredth, for `--check` and the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Commits per engine round (one `stress_history_only` call).
    pub engine_round: usize,
    /// Commits per loop round (stress, then `solve`).
    pub loop_round: usize,
    /// Commits per recording whose witness is confirmed.
    pub confirm_slice: usize,
    /// `check_generated`: transactions of the clean history and its twin.
    pub generated: usize,
    /// `check_generated`: transactions of the PSI-mode history, and of the
    /// twin whose PSI membership is checked untimed (PSI mode is about a
    /// hundred times SI mode at these sizes and grows quadratically).
    pub generated_psi: usize,
    pub generated_psi_twin: usize,
    /// `check_generated`: transactions of the confirmed history; also the
    /// monitor's confirmed prefix and the graph `relations.class_add_ns`
    /// feeds.
    pub generated_confirm: usize,
    /// `check_ambiguous`: histories per batch.
    pub ambiguous_batch: usize,
    /// `monitor_stream`: appends per pass.
    pub stream: usize,
    /// Calls of one kind per batch of the per-op engine microbench.
    pub op_batch: usize,
    /// Edges per stream of the `relations` microbench.
    pub dag_edges: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        engine_round: 100_000,
        loop_round: 100_000,
        confirm_slice: 500,
        generated: 100_000,
        generated_psi: 3_000,
        generated_psi_twin: 1_000,
        generated_confirm: 3_000,
        ambiguous_batch: 250,
        stream: 10_000,
        op_batch: 1_024,
        dag_edges: 20_000,
    };

    pub const CHECK: Sizes = Sizes {
        engine_round: 2_000,
        loop_round: 1_000,
        confirm_slice: 100,
        generated: 1_000,
        generated_psi: 200,
        generated_psi_twin: 100,
        generated_confirm: 200,
        ambiguous_batch: 4,
        stream: 300,
        op_batch: 64,
        dag_edges: 500,
    };
}

/// What to run a workload with.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// How long the untraced pass measures (`--seconds`).
    pub seconds: f64,
    /// Whether a traced pass follows the untraced one (`--trace 1`).
    pub trace: bool,
    pub sizes: Sizes,
    pub answers: KnownAnswers,
}

/// How a pass decides the repetitions of its phases.
#[derive(Debug, Clone)]
pub enum Budget {
    /// Measure for this many seconds, split among the phases.
    Timed(f64),
    /// Repeat each phase as often as an earlier timed pass did, so that a
    /// traced pass does the same work as the untraced one before it.
    Replay(BTreeMap<&'static str, usize>),
}

pub struct Pass {
    pub workload: Workload,
    pub seed: u64,
    /// Closed-loop clients: `min(2, available_parallelism)`.
    pub threads: usize,
    pub sizes: Sizes,
    pub answers: KnownAnswers,
    pub tracer: Tracer,
    budget: Budget,
    clock: Instant,
    round: u32,
    samples: BTreeMap<&'static str, Vec<f64>>,
    wall_samples: BTreeMap<&'static str, Vec<f64>>,
    /// The repetition in progress: its samples as the wall clock gave
    /// them, until the repetition's end tells how fast the machine ran.
    pending: Vec<(&'static Metric, f64)>,
    /// Reference-loop timings taken inside the repetition in progress.
    midway: Vec<f64>,
    scales: Vec<f64>,
    busy: f64,
    reps: BTreeMap<&'static str, usize>,
    attempted: u64,
    failures: Vec<String>,
}

/// What a finished pass leaves behind.
pub struct PassResult {
    /// In reference seconds.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The same samples as the wall clock gave them.
    pub wall_samples: BTreeMap<&'static str, Vec<f64>>,
    pub reps: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Reference seconds spent in repetitions, traced-only extras left
    /// out: what `trace.overhead_ratio` compares.
    pub busy: f64,
    /// The clock scale of every repetition.
    pub scales: Vec<f64>,
    pub tracer: Tracer,
}

/// Iterations of the reference loop, and the seconds they take on the
/// reference machine: one vCPU of a 2.1 GHz Sapphire Rapids guest while its
/// neighbours are busy, the state this benchmark was sized in.
const REFERENCE_SPIN: u64 = 10_000_000;
const REFERENCE_SPIN_S: f64 = 0.0125;

fn spin(iterations: u64) -> u64 {
    (0..iterations).fold(0, |x: u64, i| {
        std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i))
    })
}

/// Seconds the reference loop takes right now. A tenth of it runs untimed
/// first: a core that idled while worker threads ran wakes up slow.
fn reference_spin_s() -> f64 {
    spin(REFERENCE_SPIN / 10);
    let start = Instant::now();
    spin(REFERENCE_SPIN);
    start.elapsed().as_secs_f64()
}

/// A sample in reference seconds: times grow with the scale, rates shrink,
/// counts and ratios stay.
fn scaled(metric: &Metric, value: f64, scale: f64) -> f64 {
    match metric.unit {
        "s" | "us" | "ns" => value * scale,
        "tx/s" | "commits/s" | "1/s" => value / scale,
        _ => value,
    }
}

impl Pass {
    pub fn new(workload: Workload, plan: &Plan, budget: Budget, traced: bool) -> Self {
        Pass {
            workload,
            seed: plan.seed,
            threads: client_threads(),
            sizes: plan.sizes,
            answers: plan.answers,
            tracer: Tracer::new(traced),
            budget,
            clock: Instant::now(),
            round: 0,
            samples: BTreeMap::new(),
            wall_samples: BTreeMap::new(),
            pending: Vec::new(),
            midway: Vec::new(),
            scales: Vec::new(),
            busy: 0.0,
            reps: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records one value of the repetition in progress. Layer metrics come
    /// from the traced pass only and end-to-end metrics from the untraced
    /// pass only.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec::METRICS` does not list.
    pub fn sample(&mut self, name: &str, value: f64) {
        let metric = spec::metric(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        if (metric.scope == Scope::Layer) == self.traced() {
            self.pending.push((metric, value));
        }
    }

    /// Ends a repetition that the reference loop timed at `before` and
    /// `after` seconds: its samples become reference seconds.
    ///
    /// The machine under this benchmark changes speed by a fifth for tens
    /// of seconds at a time (the reference loop alone, over two minutes:
    /// quartiles 19 % apart), far longer than a repetition and about as
    /// long as a run, so that neither repeating nor medians remove it.
    /// Timing the same loop beside every repetition does: medians of 15 s
    /// windows of one CPU-bound call were 6 % apart raw and 2 % scaled, of a
    /// memory-bound one 9 % and 5 %.
    fn settle(&mut self, before: f64, after: f64) -> f64 {
        let timings = 2.0 + self.midway.len() as f64;
        let scale =
            timings * REFERENCE_SPIN_S / (before + after + self.midway.drain(..).sum::<f64>());
        for (metric, value) in self.pending.drain(..) {
            self.samples.entry(metric.name).or_default().push(scaled(metric, value, scale));
            self.wall_samples.entry(metric.name).or_default().push(value);
        }
        self.scales.push(scale);
        scale
    }

    /// Times `f`, one call into a layer, and records it as a span when
    /// tracing. Returns `f`'s result and the seconds it took.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Pass) -> T) -> (T, f64) {
        let start = Instant::now();
        self.tracer.enter(name, self.round);
        let out = f(self);
        self.tracer.exit();
        (out, start.elapsed().as_secs_f64())
    }

    /// Times the reference loop inside a repetition that lasts seconds and
    /// can pause (a monitor pass), so that its scale is the mean over the
    /// repetition and not of its two ends only. The caller keeps the
    /// loop's time out of what it samples.
    pub fn reference(&mut self) {
        self.midway.push(reference_spin_s());
    }

    /// Runs `body` as phase `name`. A timed pass repeats it `min` times and
    /// then for as long as another repetition should end before `until`, a
    /// share of the budget, up to `max` times; a replayed pass repeats it
    /// as often as the timed one did.
    pub fn repeat(
        &mut self,
        name: &'static str,
        until: f64,
        (min, max): (usize, usize),
        mut body: impl FnMut(&mut Pass, usize),
    ) {
        let mut done = 0;
        let mut last = 0.0;
        let mut before = reference_spin_s();
        loop {
            let go_on = match &self.budget {
                Budget::Replay(reps) => done < reps.get(name).copied().unwrap_or(min),
                Budget::Timed(seconds) => {
                    let left = until * seconds - self.clock.elapsed().as_secs_f64();
                    done < min || (done < max && last <= left)
                }
            };
            if !go_on {
                break;
            }
            self.round = done as u32;
            let start = Instant::now();
            body(self, done);
            let raw = start.elapsed().as_secs_f64();
            let after = reference_spin_s();
            self.busy += raw * self.settle(before, after);
            before = after;
            last = start.elapsed().as_secs_f64();
            done += 1;
        }
        self.round = 0;
        self.reps.insert(name, done);
    }

    /// Starts the measuring clock; set-up before this call is outside the
    /// budget.
    pub fn start_clock(&mut self) {
        self.clock = Instant::now();
    }

    /// Counts one verdict against its known answer.
    pub fn verdict(&mut self, what: &str, got: bool, want: bool) {
        self.attempted += 1;
        if got != want {
            self.failures.push(format!("{what}: got {got}, the known answer is {want}"));
        }
    }

    /// Work only the traced pass does (unit-cost microbenches, runs with a
    /// telemetry sink attached), as one repetition that does not count as
    /// busy time, so that `trace.overhead_ratio` compares like with like.
    pub fn extra(&mut self, f: impl FnOnce(&mut Pass)) {
        if self.traced() {
            let before = reference_spin_s();
            f(self);
            self.settle(before, reference_spin_s());
        }
    }

    pub fn finish(self) -> PassResult {
        PassResult {
            samples: self.samples,
            wall_samples: self.wall_samples,
            reps: self.reps,
            attempted: self.attempted,
            failures: self.failures,
            busy: self.busy,
            scales: self.scales,
            tracer: self.tracer,
        }
    }
}

pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

/// A derived seed for the `index`-th input of a run (splitmix64), so that
/// neighbouring `--seed`s share no input.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the warm-up saw.
#[derive(Debug, Clone, Copy)]
pub struct Warmup {
    pub seconds: f64,
    /// Wall time of `threads` spinning threads over that of one; 1 when
    /// they run side by side, `threads` when they share a core.
    pub parallel_ratio: f64,
}

/// Spins until `threads` threads have run side by side `calm` times in a
/// row, for `patience` at most. After an idle spell this VM gives a process
/// about one core for its first two seconds, and now and then it takes the
/// second core away for seconds in the middle of a run: two stress threads
/// then never meet (3 to 4 M commits/s, ~10 refusals in 10⁵ commits) where
/// a moment later they contend (0.9 M commits/s, ~300 refusals). Not part
/// of `setup_s`: it is the machine's state, not work the system does.
pub fn await_parallel(threads: usize, calm: u32, patience: Duration) -> Warmup {
    const CHUNK: u64 = 2 * REFERENCE_SPIN;
    let start = Instant::now();
    let mut ratio = threads as f64;
    let mut seen = 0;
    while seen < calm && start.elapsed() < patience {
        let t = Instant::now();
        spin(CHUNK);
        let alone = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| spin(CHUNK));
            }
        });
        ratio = t.elapsed().as_secs_f64() / alone;
        seen = if threads == 1 || ratio < 1.25 { seen + 1 } else { 0 };
    }
    Warmup { seconds: start.elapsed().as_secs_f64(), parallel_ratio: ratio }
}

/// The wait before a run's first pass.
pub fn warm_machine(threads: usize) -> Warmup {
    await_parallel(threads, 3, Duration::from_secs(5))
}

/// `VmHWM` of this process in MB, or `None` where `/proc` has none.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
