//! The profile → map → re-run pipeline.
//!
//! Every harness run — the profiling pass, a mapped run on the plain
//! machine, the 1-core `MultiMachine` oracle and an N-core lockstep run
//! — goes through one private `execute`; [`crate::RunBuilder`] and
//! [`evaluate_workload`] are built on it.

use std::fmt;

use ftspm_core::mda::{run_baseline, run_mda, run_mda_multicore, MdaOutput};
use ftspm_core::{reliability, remap, OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_profile::{Profile, Profiler};
use ftspm_sim::{
    BlockKind, CoherenceStats, CoreFaultView, Cpu, FaultConfig, Machine, MachineConfig,
    MachineStats, MultiMachine, NullObserver, Observer, PlacementMap, Program, SimError,
    SpmRegionSpec,
};
use ftspm_workloads::multicore::{run_lockstep, MultiWorkload};
use ftspm_workloads::Workload;

use crate::metrics::{
    MultiRunMetrics, RegionTraffic, RunMetrics, StructureKind, WorkloadEvaluation,
};

/// The idealised structure used for the profiling pass: two 256 KiB
/// 1-cycle regions so that *every* block (even ones the real SPM cannot
/// hold) is mapped and the profile is placement-neutral. This is also the
/// "ideal situation" the paper's overhead thresholds are defined against.
pub fn profiling_structure() -> SpmStructure {
    let ideal = |name| {
        SpmRegionSpec::new(
            name,
            Technology::SramUnprotected,
            ProtectionScheme::None,
            RegionGeometry::from_kib(256),
        )
    };
    SpmStructure::new(
        "profiling (ideal)",
        vec![
            (RegionRole::Instruction, ideal("ideal I")),
            (RegionRole::DataStt, ideal("ideal D")),
        ],
    )
}

fn map_everything(program: &Program, structure: &SpmStructure) -> PlacementMap {
    let specs = structure.specs();
    let mut map = PlacementMap::new(program, &specs);
    for (id, spec) in program.iter() {
        let role = match spec.kind() {
            BlockKind::Code => RegionRole::Instruction,
            BlockKind::Data => RegionRole::DataStt,
        };
        let region = structure.region_id(role).expect("ideal structure roles");
        map.place(program, id, region)
            .expect("ideal regions hold everything");
    }
    map
}

/// Why a harness run stopped without producing metrics. Unlike the
/// panicking paths (which guard *trusted fixtures*), these are runtime
/// conditions a caller is expected to handle — the serving layer maps
/// them to typed HTTP errors instead of losing a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The run's cycle budget ([`crate::RunBuilder::deadline_cycles`])
    /// was exhausted; the machine refused the access that would have run
    /// at or past the deadline.
    DeadlineExceeded {
        /// The configured budget.
        deadline_cycles: u64,
        /// The deterministic machine cycle at which the run was cut.
        cycle: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded {
                deadline_cycles,
                cycle,
            } => write!(
                f,
                "run exceeded its deadline of {deadline_cycles} cycles at cycle {cycle}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs the profiling pass: the paper's phase-one static profiling,
/// producing Table I statistics and the access sequence.
///
/// # Panics
///
/// Panics if the workload misbehaves (out-of-bounds access) — workloads
/// are trusted fixtures.
pub fn profile_workload(workload: &mut dyn Workload) -> Profile {
    profile(&mut Job::Plain(workload), None)
        .expect("profiling run has no deadline")
        .0
}

/// Options for a live fault-injected run: the runtime counterpart of the
/// offline campaign tooling in `ftspm-faults`, expressed in structure
/// roles rather than raw region ids.
#[derive(Debug, Clone)]
pub struct LiveFaultOptions {
    /// MBU cluster-size distribution of injected strikes.
    pub mbu: MbuDistribution,
    /// Mean cycles between strikes (exponential inter-arrival).
    pub mean_cycles_between_strikes: f64,
    /// RNG seed; a faulted run replays bit-for-bit per seed.
    pub seed: u64,
    /// Scrub-daemon period in cycles (`None` disables scrubbing).
    pub scrub_interval: Option<u64>,
    /// DUE recovery re-fetch attempts before quarantining the line.
    pub due_retry_limit: u32,
    /// DUE traps on one word line before it is quarantined.
    pub quarantine_due_threshold: u32,
    /// Per-line write budget for STT-RAM wear quarantine (`None` = off).
    pub line_write_budget: Option<u64>,
    /// Restrict strikes to regions filling these roles (`None` = all).
    pub restrict_to: Option<Vec<RegionRole>>,
    /// Route the run through the simulator's reference (pre-optimization)
    /// fault path instead of the event-gated fast path. The two are
    /// byte-identical — the fast-path differential suite proves it — so
    /// this exists as the equivalence oracle, at a throughput cost.
    pub reference_path: bool,
}

/// A [`LiveFaultOptions`] field rejected by
/// [`LiveFaultOptionsBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOptionsError {
    /// `mean_cycles_between_strikes` was not a finite value ≥ 1.0 —
    /// the injector draws exponential inter-arrival gaps from it and a
    /// sub-cycle or NaN mean is meaningless.
    InvalidStrikeMean,
    /// `due_retry_limit` was 0: a DUE trap with no re-fetch attempt can
    /// never recover, which is a misconfiguration, not a policy.
    ZeroRetryLimit,
    /// `quarantine_due_threshold` was 0: lines would be quarantined
    /// before their first fault.
    ZeroQuarantineThreshold,
    /// `scrub_interval` was `Some(0)`: the scrub daemon would run every
    /// cycle. Disable scrubbing with `None` instead.
    ZeroScrubInterval,
    /// `line_write_budget` was `Some(0)`: every line would wear out on
    /// its first write. Disable wear quarantine with `None` instead.
    ZeroWriteBudget,
}

impl fmt::Display for FaultOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidStrikeMean => {
                write!(f, "mean_cycles_between_strikes must be finite and >= 1.0")
            }
            Self::ZeroRetryLimit => write!(f, "due_retry_limit must be >= 1"),
            Self::ZeroQuarantineThreshold => write!(f, "quarantine_due_threshold must be >= 1"),
            Self::ZeroScrubInterval => write!(f, "scrub_interval must be >= 1 (None disables)"),
            Self::ZeroWriteBudget => write!(f, "line_write_budget must be >= 1 (None disables)"),
        }
    }
}

impl std::error::Error for FaultOptionsError {}

/// Validating builder for [`LiveFaultOptions`].
///
/// Setters are chainable and unchecked; [`build`](Self::build) performs
/// all validation at once so a caller gets the first structural problem
/// as a typed [`FaultOptionsError`] instead of a mid-run panic from the
/// injector.
#[derive(Debug, Clone)]
pub struct LiveFaultOptionsBuilder {
    opts: LiveFaultOptions,
}

impl LiveFaultOptionsBuilder {
    /// Sets the MBU cluster-size distribution.
    #[must_use]
    pub fn mbu(mut self, mbu: MbuDistribution) -> Self {
        self.opts.mbu = mbu;
        self
    }

    /// Sets the mean strike inter-arrival time in cycles.
    #[must_use]
    pub fn mean_cycles_between_strikes(mut self, mean: f64) -> Self {
        self.opts.mean_cycles_between_strikes = mean;
        self
    }

    /// Enables the scrub daemon with the given period in cycles.
    #[must_use]
    pub fn scrub_interval(mut self, interval: u64) -> Self {
        self.opts.scrub_interval = Some(interval);
        self
    }

    /// Sets the DUE re-fetch retry bound.
    #[must_use]
    pub fn due_retry_limit(mut self, limit: u32) -> Self {
        self.opts.due_retry_limit = limit;
        self
    }

    /// Sets how many DUE traps quarantine a word line.
    #[must_use]
    pub fn quarantine_due_threshold(mut self, threshold: u32) -> Self {
        self.opts.quarantine_due_threshold = threshold;
        self
    }

    /// Enables STT-RAM wear quarantine with the given per-line budget.
    #[must_use]
    pub fn line_write_budget(mut self, budget: u64) -> Self {
        self.opts.line_write_budget = Some(budget);
        self
    }

    /// Restricts strikes to regions filling `roles`.
    #[must_use]
    pub fn restrict_to(mut self, roles: Vec<RegionRole>) -> Self {
        self.opts.restrict_to = Some(roles);
        self
    }

    /// Selects the simulator's reference fault path (the differential
    /// oracle) instead of the event-gated fast path.
    #[must_use]
    pub fn reference_path(mut self, reference: bool) -> Self {
        self.opts.reference_path = reference;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultOptionsError`] among: a non-finite or
    /// sub-1.0 strike mean, a zero retry limit, a zero quarantine
    /// threshold, a zero scrub interval, or a zero write budget.
    pub fn build(self) -> Result<LiveFaultOptions, FaultOptionsError> {
        let o = &self.opts;
        if !o.mean_cycles_between_strikes.is_finite() || o.mean_cycles_between_strikes < 1.0 {
            return Err(FaultOptionsError::InvalidStrikeMean);
        }
        if o.due_retry_limit == 0 {
            return Err(FaultOptionsError::ZeroRetryLimit);
        }
        if o.quarantine_due_threshold == 0 {
            return Err(FaultOptionsError::ZeroQuarantineThreshold);
        }
        if o.scrub_interval == Some(0) {
            return Err(FaultOptionsError::ZeroScrubInterval);
        }
        if o.line_write_budget == Some(0) {
            return Err(FaultOptionsError::ZeroWriteBudget);
        }
        Ok(self.opts)
    }
}

impl LiveFaultOptions {
    /// Defaults matching [`FaultConfig::new`]: 40 nm MBU distribution,
    /// 3 retries, quarantine after 3 DUEs, scrubbing and wear budget off.
    pub fn new(seed: u64, mean_cycles_between_strikes: f64) -> Self {
        Self {
            mbu: MbuDistribution::default(),
            mean_cycles_between_strikes,
            seed,
            scrub_interval: None,
            due_retry_limit: 3,
            quarantine_due_threshold: 3,
            line_write_budget: None,
            restrict_to: None,
            reference_path: false,
        }
    }

    /// A validating [`LiveFaultOptionsBuilder`] seeded with
    /// [`LiveFaultOptions::new`]'s defaults.
    pub fn builder(seed: u64, mean_cycles_between_strikes: f64) -> LiveFaultOptionsBuilder {
        LiveFaultOptionsBuilder {
            opts: Self::new(seed, mean_cycles_between_strikes),
        }
    }

    /// Lowers the options onto `structure`: roles become region ids and
    /// the demotion map comes from the core remap policy.
    pub(crate) fn config(&self, structure: &SpmStructure) -> FaultConfig {
        let mut cfg = FaultConfig::new(self.seed, self.mean_cycles_between_strikes);
        cfg.mbu = self.mbu;
        cfg.scrub_interval = self.scrub_interval;
        cfg.due_retry_limit = self.due_retry_limit;
        cfg.quarantine_due_threshold = self.quarantine_due_threshold;
        cfg.line_write_budget = self.line_write_budget;
        cfg.targets = self.restrict_to.as_ref().map(|roles| {
            roles
                .iter()
                .filter_map(|r| structure.region_id(*r))
                .collect()
        });
        cfg.demotion = remap::demotion_map(structure, self.mbu);
        cfg.reference_path = self.reference_path;
        cfg
    }
}

/// The three ways the harness executes a workload.
pub(crate) enum Job<'w> {
    /// A single-core kernel on the plain [`Machine`].
    Plain(&'w mut dyn Workload),
    /// A single-core kernel on a 1-core [`MultiMachine`]: the
    /// differential oracle that pins the multi-core machinery as
    /// byte-inert (`harness/tests/multicore_differential.rs`).
    ViaMulti(&'w mut dyn Workload),
    /// An N-core kernel in deterministic lockstep on a [`MultiMachine`].
    Lockstep(&'w mut dyn MultiWorkload),
}

impl Job<'_> {
    pub(crate) fn program(&self) -> &Program {
        match self {
            Job::Plain(w) | Job::ViaMulti(w) => w.program(),
            Job::Lockstep(w) => w.program(),
        }
    }

    fn name(&self) -> &str {
        match self {
            Job::Plain(w) | Job::ViaMulti(w) => w.name(),
            Job::Lockstep(w) => w.name(),
        }
    }

    fn expected_checksum(&self) -> u64 {
        match self {
            Job::Plain(w) | Job::ViaMulti(w) => w.expected_checksum(),
            Job::Lockstep(w) => w.expected_checksum(),
        }
    }

    fn cores(&self) -> usize {
        match self {
            Job::Plain(_) | Job::ViaMulti(_) => 1,
            Job::Lockstep(w) => w.cores(),
        }
    }
}

/// What one [`execute`] call leaves behind. The plain machine has no
/// sharing side: its coherence counters are zero and the per-core views
/// and sharer counts empty.
struct Executed {
    checksum: u64,
    /// The machine cycle before `finish` (the profiler's run length).
    cycles: u64,
    stats: MachineStats,
    coherence: CoherenceStats,
    per_core: Vec<CoreFaultView>,
    sharer_counts: Vec<u32>,
}

/// The machine configuration for a run on `structure`.
fn machine_config(
    structure: &SpmStructure,
    faults: Option<&LiveFaultOptions>,
    deadline_cycles: Option<u64>,
) -> MachineConfig {
    let mut config = MachineConfig::with_regions(structure.specs());
    if let Some(opts) = faults {
        config = config.with_faults(opts.config(structure));
    }
    config.deadline_cycles = deadline_cycles;
    config
}

/// Builds the machine `job` needs, initialises DRAM, runs the workload
/// under `observer` and finishes the machine — the one place every
/// harness run goes through.
///
/// # Panics
///
/// Panics on any simulator error other than a deadline cut — workloads
/// and mappings are trusted fixtures.
fn execute(
    job: &mut Job<'_>,
    config: MachineConfig,
    placement: PlacementMap,
    observer: &mut dyn Observer,
    what: &str,
) -> Result<Executed, RunError> {
    let cut = |result: Result<u64, SimError>| match result {
        Ok(checksum) => Ok(checksum),
        Err(SimError::DeadlineExceeded {
            cycle,
            deadline_cycles,
        }) => Err(RunError::DeadlineExceeded {
            deadline_cycles,
            cycle,
        }),
        Err(e) => panic!("{what} failed: {e}"),
    };
    let program = job.program().clone();
    let cores = job.cores();
    // Plain single-core stays on the plain machine: a 1-core
    // `MultiMachine` would attach the coherence hub and its per-access
    // hook.
    if let Job::Plain(w) = job {
        let mut machine = Machine::new(config, program, placement).expect("harness machine");
        w.init(machine.dram_mut());
        let checksum = cut(w.run(&mut Cpu::new(&mut machine, observer)))?;
        let cycles = machine.cycle();
        let stats = machine.finish(observer);
        return Ok(Executed {
            checksum,
            cycles,
            stats,
            coherence: CoherenceStats::default(),
            per_core: Vec::new(),
            sharer_counts: Vec::new(),
        });
    }
    let mut mm = MultiMachine::new(config, program, placement, cores).expect("harness machine");
    let checksum = match job {
        Job::ViaMulti(w) => {
            w.init(mm.machine_mut().dram_mut());
            cut(mm.with_core(0, observer, |cpu| w.run(cpu)))?
        }
        Job::Lockstep(w) => {
            w.init(mm.machine_mut().dram_mut());
            cut(run_lockstep(&mut mm, &mut **w, observer))?
        }
        Job::Plain(_) => unreachable!("handled above"),
    };
    let cycles = mm.machine().cycle();
    let sharer_counts = mm
        .machine()
        .program()
        .iter()
        .map(|(id, _)| mm.machine().sharer_mask(id).count_ones())
        .collect();
    let stats = mm.finish(observer);
    Ok(Executed {
        checksum,
        cycles,
        stats,
        coherence: mm.coherence_stats(),
        per_core: mm.core_fault_views().to_vec(),
        sharer_counts,
    })
}

/// The profiling pass for `job` on the ideal, placement-neutral
/// [`profiling_structure`]. Returns the profile plus, for a lockstep
/// job, per-block sharer counts — the extra dimension
/// [`ftspm_core::mda::run_mda_multicore`] weights by.
///
/// # Errors
///
/// [`RunError::DeadlineExceeded`] when the budget runs out mid-profile.
pub(crate) fn profile(
    job: &mut Job<'_>,
    deadline_cycles: Option<u64>,
) -> Result<(Profile, Option<Vec<u32>>), RunError> {
    let program = job.program().clone();
    let structure = profiling_structure();
    let placement = map_everything(&program, &structure);
    let config = machine_config(&structure, None, deadline_cycles);
    let mut profiler = Profiler::new(&program);
    let ran = match job {
        // The 1-core oracle profiles on the plain machine, as a plain
        // run does.
        Job::ViaMulti(w) => execute(
            &mut Job::Plain(&mut **w),
            config,
            placement,
            &mut profiler,
            "profiling run",
        )?,
        _ => execute(job, config, placement, &mut profiler, "profiling run")?,
    };
    let sharers = matches!(job, Job::Lockstep(_)).then_some(ran.sharer_counts);
    Ok((profiler.finish(&program, ran.cycles), sharers))
}

/// Maps `program` onto `structure`: MDA for [`StructureKind::Ftspm`]
/// (sharer-weighted when per-block sharer counts are known), the
/// baseline mapper otherwise.
pub(crate) fn map(
    program: &Program,
    profile: &Profile,
    structure: &SpmStructure,
    kind: StructureKind,
    optimize: OptimizeFor,
    sharers: Option<&[u32]>,
) -> MdaOutput {
    let thresholds = optimize.thresholds();
    match (kind, sharers) {
        (StructureKind::Ftspm, Some(sharers)) => {
            run_mda_multicore(program, profile, structure, &thresholds, sharers)
        }
        (StructureKind::Ftspm, None) => run_mda(program, profile, structure, &thresholds),
        _ => run_baseline(program, profile, structure),
    }
}

/// Runs `job` on `structure` under `mapping`, with live fault injection
/// when `faults` is set, and collects its metrics. `profile` must be the
/// profiling-pass output for the same workload (it feeds the analytic
/// vulnerability model).
///
/// # Errors
///
/// [`RunError::DeadlineExceeded`] when the budget runs out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    job: &mut Job<'_>,
    structure: &SpmStructure,
    kind: StructureKind,
    mapping: MdaOutput,
    profile: &Profile,
    faults: Option<&LiveFaultOptions>,
    deadline_cycles: Option<u64>,
    observer: &mut dyn Observer,
) -> Result<MultiRunMetrics, RunError> {
    let placement = mapping
        .placement(job.program(), structure)
        .expect("MDA placements fit by construction");
    let config = machine_config(structure, faults, deadline_cycles);
    let ran = execute(job, config, placement, observer, "mapped run")?;
    let stats = &ran.stats;
    let vuln = reliability::vulnerability(profile, &mapping, structure, MbuDistribution::default());
    let spm_energy = stats.spm_energy();
    let stt_regions = || {
        stats
            .regions
            .iter()
            .zip(structure.regions())
            .filter(|(_, (_, spec))| spec.technology() == Technology::SttRam)
    };
    let base = RunMetrics {
        structure: kind,
        workload: job.name().to_string(),
        cycles: stats.cycles,
        instructions: stats.instructions,
        spm_dynamic_pj: spm_energy.dynamic_pj(),
        spm_static_pj: spm_energy.static_pj,
        spm_leakage_mw: stats.spm_leakage_mw(),
        vulnerability: vuln.vulnerability(),
        reliability: vuln.reliability(),
        stt_max_line_writes: stt_regions()
            .map(|(r, _)| r.max_line_writes)
            .max()
            .unwrap_or(0),
        stt_total_writes: stt_regions().map(|(r, _)| r.total_writes).sum(),
        stt_lines: stt_regions()
            .map(|(_, (_, spec))| spec.geometry().words())
            .sum(),
        traffic: stats
            .regions
            .iter()
            .map(|r| RegionTraffic {
                region: r.name.clone(),
                reads: r.program_reads,
                writes: r.program_writes,
            })
            .collect(),
        checksum_ok: ran.checksum == job.expected_checksum(),
        recovery: stats.faults,
        mapping,
        vulnerability_report: vuln,
    };
    Ok(MultiRunMetrics {
        base,
        cores: job.cores(),
        coherence: ran.coherence,
        per_core: ran.per_core,
        sharer_counts: ran.sharer_counts,
    })
}

/// Profiles `workload`, maps it with MDA under `optimize`, and measures
/// it on FTSPM and both baselines.
pub fn evaluate_workload(workload: &mut dyn Workload, optimize: OptimizeFor) -> WorkloadEvaluation {
    evaluate_workload_observed(workload, optimize, &mut NullObserver)
}

/// [`evaluate_workload`] with an observer watching all three mapped
/// runs (the profiling pass reports to the profiler, not `observer`).
pub(crate) fn evaluate_workload_observed(
    workload: &mut dyn Workload,
    optimize: OptimizeFor,
    observer: &mut dyn Observer,
) -> WorkloadEvaluation {
    let profile = profile_workload(workload);
    let [ftspm, pure_sram, pure_stt] = StructureKind::ALL.map(|kind| {
        let structure = kind.structure();
        let mapping = map(
            workload.program(),
            &profile,
            &structure,
            kind,
            optimize,
            None,
        );
        run(
            &mut Job::Plain(workload),
            &structure,
            kind,
            mapping,
            &profile,
            None,
            None,
            observer,
        )
        .expect("run without a deadline cannot be cancelled")
        .base
    });
    WorkloadEvaluation {
        workload: workload.name().to_string(),
        profile,
        ftspm,
        pure_sram,
        pure_stt,
    }
}
