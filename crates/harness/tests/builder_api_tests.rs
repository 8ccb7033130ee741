//! The `RunBuilder` API contract: `run_suite` honours the builder's
//! optimisation target, a cycle budget cuts the profiling pass or the
//! mapped run deterministically on every run path, and
//! `LiveFaultOptionsBuilder::build` rejects each structurally invalid
//! field with the right typed error.

use ftspm_core::OptimizeFor;
use ftspm_harness::{
    evaluate_workload, report, FaultOptionsError, LiveFaultOptions, RunBuilder, RunError,
};
use ftspm_obs::Recorder;
use ftspm_workloads::multicore::MultiWorkload;
use ftspm_workloads::{find_multicore, CaseStudy, Workload};

#[test]
fn run_suite_honours_the_builder_optimize_target() {
    let case = || -> Vec<Box<dyn Workload>> { vec![Box::new(CaseStudy::new())] };
    let suite = RunBuilder::new()
        .optimize(OptimizeFor::Performance)
        .run_suite(case());
    let direct = evaluate_workload(&mut CaseStudy::new(), OptimizeFor::Performance);
    assert_eq!(report::suite_csv(&suite), report::suite_csv(&[direct]));
    let reliability = RunBuilder::new().run_suite(case());
    assert_ne!(
        report::suite_csv(&suite),
        report::suite_csv(&reliability),
        "the two targets must map the case study differently for this test to bite"
    );
}

/// The three run paths a cycle budget can cut.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// A single-core kernel on the plain machine.
    Plain,
    /// The same kernel through the `.cores(1)` oracle.
    Oracle,
    /// A 2-core kernel in lockstep.
    TwoCore,
}

/// Runs `path` under an optional budget into `rec`, returning the run's
/// cycles and its `{:?}`-rendered metrics.
fn run_path(
    path: Path,
    deadline: Option<u64>,
    rec: &mut Recorder,
) -> Result<(u64, String), RunError> {
    let mut case = CaseStudy::new();
    let mut multi: Box<dyn MultiWorkload>;
    let mut b = match path {
        Path::Plain => RunBuilder::new().workload(&mut case),
        Path::Oracle => RunBuilder::new().workload(&mut case).cores(1),
        Path::TwoCore => {
            multi = find_multicore("producer_consumer")
                .expect("registered")
                .build(2, None);
            RunBuilder::new().workload_multi(multi.as_mut())
        }
    };
    if let Some(budget) = deadline {
        b = b.deadline_cycles(budget);
    }
    let b = b.recorder(rec);
    match path {
        Path::TwoCore => b.try_run_multi().map(|m| (m.base.cycles, format!("{m:?}"))),
        Path::Plain | Path::Oracle => b.try_run().map(|m| (m.cycles, format!("{m:?}"))),
    }
}

fn phase_names(rec: &Recorder) -> Vec<&'static str> {
    rec.trace().phases().iter().map(|p| p.name).collect()
}

fn cut_at(err: RunError, budget: u64) -> bool {
    matches!(err, RunError::DeadlineExceeded { deadline_cycles, .. } if deadline_cycles == budget)
}

#[test]
fn deadline_cuts_land_in_the_pass_the_budget_runs_out_in() {
    for path in [Path::Plain, Path::Oracle, Path::TwoCore] {
        let mut rec = Recorder::recovery_only(64);
        let (run_cycles, unbounded) = run_path(path, None, &mut rec).expect("no budget");
        let span = rec.trace().phases()[0];
        assert_eq!(span.name, "profile");
        let profile_cycles = span.end - span.start;
        assert!(profile_cycles < run_cycles, "{path:?}");

        // Below the profile's cycles: the profiling pass is cut, before
        // any phase is recorded.
        let budget = profile_cycles / 2;
        let mut rec = Recorder::recovery_only(64);
        let err = run_path(path, Some(budget), &mut rec).unwrap_err();
        assert!(cut_at(err, budget), "{path:?}: {err:?}");
        assert!(phase_names(&rec).is_empty(), "{path:?}");

        // Between the profile's and the run's cycles: profiling
        // completes and the mapped run is cut, at the same cycle on a
        // repeat run.
        let budget = (profile_cycles + run_cycles) / 2;
        let mut rec = Recorder::recovery_only(64);
        let err = run_path(path, Some(budget), &mut rec).unwrap_err();
        assert!(cut_at(err, budget), "{path:?}: {err:?}");
        assert_eq!(phase_names(&rec), ["profile", "mda"], "{path:?}");
        let again = run_path(path, Some(budget), &mut Recorder::recovery_only(64)).unwrap_err();
        assert_eq!(err, again, "{path:?}");

        // At or above the run's cycles: the budget is inert.
        for budget in [run_cycles, 2 * run_cycles] {
            let mut rec = Recorder::recovery_only(64);
            let (_, bounded) =
                run_path(path, Some(budget), &mut rec).expect("budget covers the run");
            assert_eq!(bounded, unbounded, "{path:?} budget {budget}");
        }
    }
}

#[test]
fn builder_defaults_build_cleanly() {
    let opts = LiveFaultOptions::builder(7, 1_000.0)
        .build()
        .expect("defaults are valid");
    assert_eq!(opts.seed, 7);
    assert_eq!(opts.due_retry_limit, 3);
    assert_eq!(opts.scrub_interval, None);
}

#[test]
fn builder_rejects_invalid_strike_means() {
    for mean in [0.0, 0.5, -1.0, f64::NAN, f64::INFINITY] {
        assert_eq!(
            LiveFaultOptions::builder(0, mean).build().unwrap_err(),
            FaultOptionsError::InvalidStrikeMean,
            "mean={mean}"
        );
    }
}

#[test]
fn builder_rejects_zero_bounds() {
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .due_retry_limit(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroRetryLimit
    );
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .quarantine_due_threshold(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroQuarantineThreshold
    );
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .scrub_interval(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroScrubInterval
    );
    assert_eq!(
        LiveFaultOptions::builder(0, 1_000.0)
            .line_write_budget(0)
            .build()
            .unwrap_err(),
        FaultOptionsError::ZeroWriteBudget
    );
}

#[test]
fn fault_options_errors_display_the_offending_field() {
    let msg = FaultOptionsError::ZeroScrubInterval.to_string();
    assert!(msg.contains("scrub_interval"), "{msg}");
    let msg = FaultOptionsError::InvalidStrikeMean.to_string();
    assert!(msg.contains("mean_cycles_between_strikes"), "{msg}");
}
