//! Differential testing of the CDCL membership solver against the
//! backtracking enumerator: two independent implementations of the same
//! Theorem 8 / 9 / 21 characterisations must agree on every random
//! history, at every isolation level — and when the solver says *member*
//! its extracted abstract execution must independently pass the
//! corresponding graph check.
//!
//! A deterministic suite rounds this out with `histgen`'s seeded
//! anomalies, pinning the expected verdict pattern per class (lost
//! update outside everything, write skew SI-but-not-SER, long fork
//! PSI-but-not-SI).

mod common;

use std::time::Instant;

use common::arb_history;
use proptest::prelude::*;

use analysing_si::analysis::{check_psi, check_ser, check_si, history_membership, SearchBudget};
use analysing_si::execution::SpecModel;
use analysing_si::model::History;
use analysing_si::mvcc::{stress, stress_history_only, StressConfig, StressEngine};
use analysing_si::solver::{solve, SolveOutcome, SolverMode};
use analysing_si::workloads::histgen::{generate, Anomaly, HistGen};

/// Enumerator verdict under a budget comfortably above anything a
/// ≤ 12-transaction history needs.
fn enumerate(spec: SpecModel, h: &History) -> bool {
    history_membership(spec, h, &SearchBudget { max_nodes: 20_000_000 })
        .expect("tiny histories fit the enumerator budget")
}

/// Asserts solver/enumerator agreement for one class, and that a SAT
/// witness survives the independent dependency-graph check.
fn assert_agreement(h: &History, mode: SolverMode, spec: SpecModel) {
    let via_enumerator = enumerate(spec, h);
    let result = solve(h, mode);
    prop_assert_eq!(
        result.outcome.is_member(),
        via_enumerator,
        "{:?}: solver and enumerator disagree on:\n{}",
        mode,
        h
    );
    if let SolveOutcome::Sat(witness) = &result.outcome {
        let graph = witness.to_graph(h).expect("witness rebuilds a dependency graph");
        let checked = match mode {
            SolverMode::Ser => check_ser(&graph),
            SolverMode::Si => check_si(&graph),
            SolverMode::Psi => check_psi(&graph),
        };
        prop_assert!(
            checked.is_ok(),
            "{:?}: witness fails the graph check ({:?}) on:\n{}",
            mode,
            checked.err(),
            h
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ser_solver_matches_enumerator(h in arb_history(12, 4)) {
        assert_agreement(&h, SolverMode::Ser, SpecModel::Ser);
    }

    #[test]
    fn si_solver_matches_enumerator(h in arb_history(12, 4)) {
        assert_agreement(&h, SolverMode::Si, SpecModel::Si);
    }

    #[test]
    fn psi_solver_matches_enumerator(h in arb_history(12, 4)) {
        assert_agreement(&h, SolverMode::Psi, SpecModel::Psi);
    }
}

/// The scale smoke: a 10^4-transaction history is far beyond the
/// enumerator, but the solver must certify it (and refute its long-fork
/// twin) in seconds. Runs in release only — the point is the release
/// fast path CI exercises, not a slow debug walk.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only scale smoke")]
fn solver_certifies_ten_thousand_txs() {
    let cfg = HistGen {
        sessions: 20,
        txs_per_session: 500,
        ops_per_tx: 4,
        objects: 2_000,
        read_ratio: 0.5,
        blind_write_ratio: 0.05,
        duplicate_ratio: 0.05,
        zipf_s: 0.5,
        seed: 0xC0DE,
        inject: None,
    };
    let clean = generate(&cfg);
    assert!(clean.tx_count() > 10_000);
    assert!(solve(&clean, SolverMode::Si).outcome.is_member(), "clean 10^4-tx load is SI");

    let forked = generate(&HistGen { inject: Some(Anomaly::LongFork), ..cfg });
    assert!(
        !solve(&forked, SolverMode::Si).outcome.is_member(),
        "seeded long fork must be refuted at 10^4 tx"
    );
}

/// Regression: `ShardedStore::commit` once returned before the
/// publication watermark covered its own sequence, so a session's next
/// snapshot — a single watermark load — could miss the session's *own
/// just-committed writes* whenever an earlier-allocated sequence was
/// still installing on another thread. The resulting histories violated
/// read-your-writes and fell outside SER, SI *and* PSI; si-solve caught
/// it by refuting a 20k-transaction stress recording. The window needs
/// real threads and enough transactions for a preemption to land between
/// sequence allocation and publication, hence the scale (and the
/// release-only gate).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only scale smoke")]
fn sharded_stress_recordings_stay_in_hist_si() {
    for (txs_per_thread, seed) in [(3_000usize, 0x5EED ^ 3_000u64), (5_000, 0x5EED ^ 5_000)] {
        let config = StressConfig::low_contention(4, txs_per_thread, seed);
        let outcome = stress(&config, StressEngine::Sharded { shards: 8, gc_interval: 512 });
        let h = outcome.result.history;
        let result = solve(&h, SolverMode::Si);
        assert!(
            result.outcome.is_member(),
            "sharded stress recording ({} txs, seed {seed:#x}) fell outside HistSI",
            h.tx_count()
        );
    }
}

/// The lock-free analogue of the sharded regression smoke, scaled up: a
/// 10^5-transaction stress recording from the CAS-based commit path —
/// intent placement, out-of-order ring publication and epoch-fenced
/// reclamation all running under real preemption — must be certified a
/// member of HistSI by si-solve. This is the strongest end-to-end
/// evidence the lock-free engine has: the solver independently rebuilds
/// a witness for every recorded transaction — and the witness is then
/// confirmed: rebuilt as a dependency graph and passed through
/// `check_si`, which feeds the covering edges only. The confirmation's
/// wall time is printed (`-- --nocapture` shows it).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only scale smoke")]
fn lockfree_stress_recordings_stay_in_hist_si() {
    let (threads, txs_per_thread, seed) = (4usize, 25_000usize, 0x10CF ^ 25_000u64);
    let config = StressConfig::low_contention(threads, txs_per_thread, seed);
    let outcome = stress_history_only(&config, StressEngine::LockFree { gc_interval: 512 });
    let h = outcome.history;
    assert!(h.tx_count() >= 100_000, "expected a 10^5-tx recording, got {}", h.tx_count());
    let result = solve(&h, SolverMode::Si);
    let SolveOutcome::Sat(witness) = &result.outcome else {
        panic!(
            "lock-free stress recording ({} txs, seed {seed:#x}) fell outside HistSI",
            h.tx_count()
        );
    };
    let started = Instant::now();
    let graph = witness.to_graph(&h).expect("witness rebuilds a dependency graph");
    let to_graph = started.elapsed();
    let checked = check_si(&graph);
    eprintln!(
        "confirmed a {}-tx witness in {:.2?} (to_graph {to_graph:.2?}, check_si {:.2?})",
        h.tx_count(),
        started.elapsed(),
        started.elapsed() - to_graph
    );
    assert!(checked.is_ok(), "the witness fails check_si: {:?}", checked.err());
}

/// The seeded-anomaly suite: generated base loads with one injected
/// anomaly cluster, checked against the verdict pattern the paper's
/// Figure 2 fixes for each class.
mod seeded_anomalies {
    use super::*;

    fn base(seed: u64, inject: Option<Anomaly>) -> History {
        generate(&HistGen {
            sessions: 3,
            txs_per_session: 3,
            ops_per_tx: 2,
            objects: 4,
            seed,
            inject,
            ..HistGen::default()
        })
    }

    /// `(SER, SI, PSI)` solver verdicts, each cross-checked against the
    /// enumerator.
    fn verdicts(h: &History) -> (bool, bool, bool) {
        let pairs = [
            (SolverMode::Ser, SpecModel::Ser),
            (SolverMode::Si, SpecModel::Si),
            (SolverMode::Psi, SpecModel::Psi),
        ];
        let mut out = [false; 3];
        for (i, &(mode, spec)) in pairs.iter().enumerate() {
            let member = solve(h, mode).outcome.is_member();
            assert_eq!(member, enumerate(spec, h), "{mode:?} disagreement on:\n{h}");
            out[i] = member;
        }
        (out[0], out[1], out[2])
    }

    #[test]
    fn clean_loads_stay_in_hist_si() {
        for seed in 0..4 {
            let (_, si, psi) = verdicts(&base(seed, None));
            assert!(si, "seed {seed}: clean generated history left HistSI");
            assert!(psi, "seed {seed}: HistSI ⊆ HistPSI violated");
        }
    }

    #[test]
    fn lost_update_leaves_every_class() {
        for seed in 0..4 {
            let (ser, si, psi) = verdicts(&base(seed, Some(Anomaly::LostUpdate)));
            assert!(!ser && !si && !psi, "seed {seed}: lost update must refute all classes");
        }
    }

    #[test]
    fn write_skew_splits_ser_from_si() {
        for seed in 0..4 {
            let (ser, si, psi) = verdicts(&base(seed, Some(Anomaly::WriteSkew)));
            assert!(!ser, "seed {seed}: write skew must leave HistSER");
            assert!(si && psi, "seed {seed}: write skew stays in HistSI and HistPSI");
        }
    }

    #[test]
    fn long_fork_splits_si_from_psi() {
        for seed in 0..4 {
            let (ser, si, psi) = verdicts(&base(seed, Some(Anomaly::LongFork)));
            assert!(!ser && !si, "seed {seed}: long fork must leave HistSER and HistSI");
            assert!(psi, "seed {seed}: long fork stays in HistPSI");
        }
    }
}
