//! [`RunBuilder`]: the chainable front door to the harness.
//!
//! Everything the pipeline needs — structure, mapping, profile, fault
//! options, thread count, observability sink — is an optional chainable
//! setter with a sensible default; missing inputs are computed
//! (profiling pass, MDA/baseline mapping) rather than demanded.
//! [`RunBuilder::try_run`] and [`RunBuilder::try_run_multi`] only pick
//! the kind of run; one private `drive` does the rest.
//!
//! ```no_run
//! use ftspm_harness::{LiveFaultOptions, RunBuilder};
//! # let mut workload = ftspm_workloads::evaluation_set().remove(0);
//! let faults = LiveFaultOptions::builder(0xF00D, 10_000.0)
//!     .scrub_interval(50_000)
//!     .build()
//!     .expect("valid options");
//! let metrics = RunBuilder::new()
//!     .workload(workload.as_mut())
//!     .faults(faults)
//!     .run();
//! ```

use std::num::NonZeroUsize;

use ftspm_core::mda::MdaOutput;
use ftspm_core::{OptimizeFor, SpmStructure};
use ftspm_obs::Recorder;
use ftspm_profile::Profile;
use ftspm_sim::{NullObserver, Observer};
use ftspm_workloads::multicore::MultiWorkload;
use ftspm_workloads::Workload;

use crate::metrics::{MultiRunMetrics, RunMetrics, StructureKind, WorkloadEvaluation};
use crate::pipeline::{
    evaluate_workload_observed, map, profile, run, Job, LiveFaultOptions, RunError,
};

/// A builder workload slot: absent, borrowed from the caller, or owned
/// outright (the deserialized-job-spec path used by `ftspm-serve`,
/// where no longer-lived owner exists to borrow from).
enum Slot<'a, T: ?Sized + 'a> {
    None,
    Borrowed(&'a mut T),
    Owned(Box<T>),
}

impl<T: ?Sized> Slot<'_, T> {
    fn get(&mut self) -> Option<&mut T> {
        match self {
            Slot::None => None,
            Slot::Borrowed(w) => Some(&mut **w),
            Slot::Owned(b) => Some(b.as_mut()),
        }
    }
}

/// Chainable configuration for a harness run.
///
/// Terminal methods: [`run`](Self::run) measures one workload on one
/// structure; [`run_multi`](Self::run_multi) does the same for an N-core
/// workload; [`run_suite`](Self::run_suite) evaluates a workload set on
/// FTSPM plus both baselines, sharded over `ftspm_testkit::par`.
///
/// Observability is opt-in and exclusive: attach **either** a raw
/// [`Observer`] ([`observer`](Self::observer)) **or** an
/// [`ftspm_obs::Recorder`] ([`recorder`](Self::recorder)). The recorder
/// path additionally records `profile → mda → run → report` phase spans
/// and folds the run's final `FaultStats` into `faults.*` counters.
/// With neither attached the run uses [`NullObserver`] — the
/// near-zero-cost disabled path the `armed_idle_guard` test pins.
pub struct RunBuilder<'a> {
    workload: Slot<'a, dyn Workload>,
    workload_multi: Slot<'a, dyn MultiWorkload>,
    cores: Option<usize>,
    structure: Option<(SpmStructure, StructureKind)>,
    mapping: Option<MdaOutput>,
    profile: Option<&'a Profile>,
    optimize: OptimizeFor,
    faults: Option<LiveFaultOptions>,
    deadline_cycles: Option<u64>,
    threads: Option<NonZeroUsize>,
    observer: Option<&'a mut dyn Observer>,
    recorder: Option<&'a mut Recorder>,
}

impl Default for RunBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> RunBuilder<'a> {
    /// A builder with nothing attached: FTSPM structure, computed
    /// profile and mapping, reliability-optimised MDA, no faults, no
    /// observability, `FTSPM_THREADS` parallelism.
    pub fn new() -> Self {
        Self {
            workload: Slot::None,
            workload_multi: Slot::None,
            cores: None,
            structure: None,
            mapping: None,
            profile: None,
            optimize: OptimizeFor::Reliability,
            faults: None,
            deadline_cycles: None,
            threads: None,
            observer: None,
            recorder: None,
        }
    }

    /// The workload to run ([`run`](Self::run) only; suites take their
    /// workloads as a terminal argument).
    #[must_use]
    pub fn workload(mut self, workload: &'a mut dyn Workload) -> Self {
        self.workload = Slot::Borrowed(workload);
        self
    }

    /// Like [`workload`](Self::workload), but the builder takes
    /// ownership — the natural shape when the workload was just
    /// constructed from a deserialized job spec (`ftspm-serve`) and has
    /// no other owner to outlive the builder.
    #[must_use]
    pub fn workload_boxed(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Slot::Owned(workload);
        self
    }

    /// An N-core workload for [`run_multi`](Self::run_multi); its core
    /// count fixes the machine's.
    #[must_use]
    pub fn workload_multi(mut self, workload: &'a mut dyn MultiWorkload) -> Self {
        self.workload_multi = Slot::Borrowed(workload);
        self
    }

    /// Like [`workload_multi`](Self::workload_multi), but the builder
    /// takes ownership (the deserialized-job-spec path).
    #[must_use]
    pub fn workload_multi_boxed(mut self, workload: Box<dyn MultiWorkload>) -> Self {
        self.workload_multi = Slot::Owned(workload);
        self
    }

    /// Routes the run through an N-core [`ftspm_sim::MultiMachine`].
    ///
    /// With a regular [`workload`](Self::workload) only `cores == 1` is
    /// meaningful (a single-core kernel cannot be sharded), and
    /// [`run`](Self::run) executes it through a 1-core `MultiMachine` —
    /// the differential oracle that pins the multi-core machinery as
    /// byte-inert. With a [`workload_multi`](Self::workload_multi) the
    /// value must match the workload's own core count (which is fixed
    /// at construction).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// The SPM structure to run on and how to label it in metrics.
    /// Defaults to [`SpmStructure::ftspm`] / [`StructureKind::Ftspm`].
    #[must_use]
    pub fn structure(mut self, structure: &SpmStructure, kind: StructureKind) -> Self {
        self.structure = Some((structure.clone(), kind));
        self
    }

    /// A precomputed mapping. Without one, [`run`](Self::run) maps the
    /// program itself: MDA for [`StructureKind::Ftspm`], the baseline
    /// mapper otherwise.
    #[must_use]
    pub fn mapping(mut self, mapping: MdaOutput) -> Self {
        self.mapping = Some(mapping);
        self
    }

    /// A precomputed profiling pass for the same workload. Without one,
    /// [`run`](Self::run) profiles the workload first.
    #[must_use]
    pub fn profile(mut self, profile: &'a Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The MDA optimisation target used when the builder computes a
    /// mapping ([`run`](Self::run)) or evaluates a suite
    /// ([`run_suite`](Self::run_suite)).
    #[must_use]
    pub fn optimize(mut self, optimize: OptimizeFor) -> Self {
        self.optimize = optimize;
        self
    }

    /// Enables live fault injection with `options` (build them with
    /// [`LiveFaultOptions::builder`]).
    #[must_use]
    pub fn faults(mut self, options: LiveFaultOptions) -> Self {
        self.faults = Some(options);
        self
    }

    /// A cycle budget for the run: the machine refuses the access that
    /// would execute at or past `deadline` cycles, and
    /// [`try_run`](Self::try_run) returns
    /// [`RunError::DeadlineExceeded`]. The budget covers the profiling
    /// pass too (a runaway workload loops there first), and the cut
    /// lands at a deterministic cycle, so the same spec times out
    /// identically on every run. Costs one cached `u64` compare per
    /// access when set; nothing when not.
    #[must_use]
    pub fn deadline_cycles(mut self, deadline: u64) -> Self {
        self.deadline_cycles = Some(deadline);
        self
    }

    /// Explicit suite parallelism; defaults to the `FTSPM_THREADS`
    /// knob. Single runs are always sequential.
    #[must_use]
    pub fn threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches a raw observer to the run.
    ///
    /// # Panics
    ///
    /// Panics if a recorder is already attached — the sinks are
    /// exclusive (a [`Recorder`] *is* an observer; attach it with
    /// [`recorder`](Self::recorder) to also get phase spans and
    /// `faults.*` counters).
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn Observer) -> Self {
        assert!(
            self.recorder.is_none(),
            "RunBuilder: attach either .observer(..) or .recorder(..), not both"
        );
        self.observer = Some(observer);
        self
    }

    /// Attaches an [`ftspm_obs::Recorder`]: counters and trace from the
    /// run, plus phase spans and fault-stat counters.
    ///
    /// # Panics
    ///
    /// Panics if a raw observer is already attached (see
    /// [`observer`](Self::observer)).
    #[must_use]
    pub fn recorder(mut self, recorder: &'a mut Recorder) -> Self {
        assert!(
            self.observer.is_none(),
            "RunBuilder: attach either .observer(..) or .recorder(..), not both"
        );
        self.recorder = Some(recorder);
        self
    }

    /// Runs the configured workload on the configured structure and
    /// returns its metrics.
    ///
    /// Missing inputs are computed in pipeline order — profiling pass,
    /// then MDA (or baseline) mapping — and, when a recorder is
    /// attached, show up as `profile` and `mda` phase spans ahead of
    /// the `run` span.
    ///
    /// # Panics
    ///
    /// Panics if no workload was attached, on simulator errors
    /// (workloads and MDA mappings are trusted fixtures), or when a
    /// [`deadline_cycles`](Self::deadline_cycles) budget runs out — use
    /// [`try_run`](Self::try_run) to handle cancellation as a value.
    pub fn run(self) -> RunMetrics {
        self.try_run().unwrap_or_else(|e| panic!("run failed: {e}"))
    }

    /// [`run`](Self::run), but deadline exhaustion is an `Err` instead
    /// of a panic — the entry point the serving layer uses so a
    /// cancelled job becomes a typed 504 body, not a dead worker.
    ///
    /// # Errors
    ///
    /// [`RunError::DeadlineExceeded`] when a
    /// [`deadline_cycles`](Self::deadline_cycles) budget is exhausted
    /// during the profiling pass or the mapped run.
    ///
    /// # Panics
    ///
    /// Panics if no workload was attached, or on simulator errors
    /// (workloads and MDA mappings are trusted fixtures).
    pub fn try_run(mut self) -> Result<RunMetrics, RunError> {
        let mut slot = std::mem::replace(&mut self.workload, Slot::None);
        let workload = slot.get().expect("RunBuilder::run requires .workload(..)");
        let job = match self.cores {
            None => Job::Plain(workload),
            Some(1) => Job::ViaMulti(workload),
            Some(n) => panic!(
                "RunBuilder::try_run with .cores({n}): a single-core workload cannot shard; \
                 attach .workload_multi(..) and call try_run_multi()"
            ),
        };
        Ok(self.drive(job)?.base)
    }

    /// Runs the configured N-core workload
    /// ([`workload_multi`](Self::workload_multi)) on the configured
    /// structure in deterministic lockstep and returns its metrics plus
    /// the coherence-side measurements.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run), for the multi-core path — use
    /// [`try_run_multi`](Self::try_run_multi) to handle deadline
    /// cancellation as a value.
    pub fn run_multi(self) -> MultiRunMetrics {
        self.try_run_multi()
            .unwrap_or_else(|e| panic!("multi-core run failed: {e}"))
    }

    /// [`run_multi`](Self::run_multi), with deadline exhaustion as an
    /// `Err`.
    ///
    /// Missing inputs are computed as in [`try_run`](Self::try_run),
    /// with one multi-core twist: the profiling pass also measures
    /// per-block *sharer counts*, and a computed FTSPM mapping uses
    /// [`run_mda_multicore`](ftspm_core::mda::run_mda_multicore) so
    /// blocks shared across cores weigh their cross-core fault exposure
    /// in the eviction and ECC/parity splits.
    ///
    /// # Errors
    ///
    /// [`RunError::DeadlineExceeded`] as [`try_run`](Self::try_run).
    ///
    /// # Panics
    ///
    /// Panics if no multi-core workload was attached, if
    /// [`cores`](Self::cores) disagrees with the workload's own core
    /// count, or on simulator errors.
    pub fn try_run_multi(mut self) -> Result<MultiRunMetrics, RunError> {
        let mut slot = std::mem::replace(&mut self.workload_multi, Slot::None);
        let workload = slot
            .get()
            .expect("RunBuilder::run_multi requires .workload_multi(..)");
        if let Some(cores) = self.cores {
            assert_eq!(
                cores,
                workload.cores(),
                "RunBuilder::cores({cores}) disagrees with the workload's core count"
            );
        }
        self.drive(Job::Lockstep(workload))
    }

    /// Shared by [`try_run`](Self::try_run) and
    /// [`try_run_multi`](Self::try_run_multi): computes a missing
    /// profile and mapping, then runs `job` into the attached sink.
    fn drive(self, mut job: Job<'_>) -> Result<MultiRunMetrics, RunError> {
        let (structure, kind) = self
            .structure
            .unwrap_or_else(|| (SpmStructure::ftspm(), StructureKind::Ftspm));
        let computed;
        let (profile, sharers) = match self.profile {
            Some(p) => (p, None),
            None => {
                computed = profile(&mut job, self.deadline_cycles)?;
                (&computed.0, computed.1.as_deref())
            }
        };
        let mapping = self.mapping.unwrap_or_else(|| {
            map(
                job.program(),
                profile,
                &structure,
                kind,
                self.optimize,
                sharers,
            )
        });
        let faults = self.faults.as_ref();
        let deadline = self.deadline_cycles;
        let Some(recorder) = self.recorder else {
            let mut null = NullObserver;
            let observer: &mut dyn Observer = match self.observer {
                Some(observer) => observer,
                None => &mut null,
            };
            return run(
                &mut job, &structure, kind, mapping, profile, faults, deadline, observer,
            );
        };
        recorder.phase("profile", profile.total_cycles);
        recorder.phase("mda", 1);
        // The run span's length is only known afterwards: align events
        // now, append the span once cycles are in.
        recorder.align_to_phases();
        let metrics = run(
            &mut job, &structure, kind, mapping, profile, faults, deadline, recorder,
        )?;
        recorder.phase("run", metrics.base.cycles);
        if let Some(stats) = &metrics.base.recovery {
            recorder.record_fault_stats(stats);
        }
        if matches!(job, Job::Lockstep(_)) {
            recorder.record_coherence(&metrics.coherence, &metrics.per_core);
        }
        recorder.phase("report", 1);
        Ok(metrics)
    }

    /// Evaluates every workload on FTSPM and both baselines, one
    /// workload per executor task (`ftspm_testkit::par`, honouring
    /// [`threads`](Self::threads) / the `FTSPM_THREADS` knob).
    ///
    /// Each evaluation is an independent deterministic simulation and
    /// results return in input order, so the output is identical at
    /// every thread count, including 1. With a recorder attached, each
    /// shard records into a private registry and the registries merge
    /// into the recorder **in input order** — so the merged counters
    /// are bit-identical at every thread count too. Shard traces are
    /// discarded (interleaving them has no single timeline); suite
    /// observability is counters-only.
    ///
    /// # Panics
    ///
    /// Panics if fault options or a raw observer are attached: live
    /// injection is a single-run feature, and one `&mut` observer
    /// cannot be shared across shards.
    pub fn run_suite(self, workloads: Vec<Box<dyn Workload>>) -> Vec<WorkloadEvaluation> {
        assert!(
            self.faults.is_none(),
            "RunBuilder::run_suite does not support fault injection; use .faults(..).run() per workload"
        );
        assert!(
            self.observer.is_none(),
            "RunBuilder::run_suite cannot share one observer across shards; use .recorder(..)"
        );
        let optimize = self.optimize;
        let threads = self
            .threads
            .unwrap_or_else(ftspm_testkit::par::thread_count);
        match self.recorder {
            None => ftspm_testkit::par::par_map_threads(threads, workloads, |mut w| {
                evaluate_workload_observed(w.as_mut(), optimize, &mut NullObserver)
            }),
            Some(recorder) => {
                let config = recorder.config();
                let sharded = ftspm_testkit::par::par_map_threads(threads, workloads, |mut w| {
                    let mut shard = Recorder::new(config);
                    let eval = evaluate_workload_observed(w.as_mut(), optimize, &mut shard);
                    (eval, shard.into_parts().0)
                });
                sharded
                    .into_iter()
                    .map(|(eval, registry)| {
                        recorder.registry_mut().merge(&registry);
                        eval
                    })
                    .collect()
            }
        }
    }
}
