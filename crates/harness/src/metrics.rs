//! Result types collected from an evaluated run.

use ftspm_core::mda::MdaOutput;
use ftspm_core::reliability::VulnerabilityReport;
use ftspm_core::SpmStructure;
use ftspm_profile::Profile;

/// Which of the three compared structures a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// The proposed hybrid structure.
    Ftspm,
    /// The pure SEC-DED SRAM baseline.
    PureSram,
    /// The pure STT-RAM baseline.
    PureStt,
}

impl StructureKind {
    /// All three, in the paper's comparison order.
    pub const ALL: [StructureKind; 3] = [
        StructureKind::Ftspm,
        StructureKind::PureSram,
        StructureKind::PureStt,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::Ftspm => "FTSPM",
            StructureKind::PureSram => "pure SRAM",
            StructureKind::PureStt => "pure STT-RAM",
        }
    }

    /// The structure this kind names.
    pub fn structure(self) -> SpmStructure {
        match self {
            StructureKind::Ftspm => SpmStructure::ftspm(),
            StructureKind::PureSram => SpmStructure::pure_sram(),
            StructureKind::PureStt => SpmStructure::pure_stt(),
        }
    }
}

/// Program (non-DMA) traffic served by one SPM region (Figs. 2 and 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTraffic {
    /// Region name.
    pub region: String,
    /// Program reads (including instruction fetches).
    pub reads: u64,
    /// Program writes.
    pub writes: u64,
}

/// Everything measured from one workload on one structure.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// The structure the run used.
    pub structure: StructureKind,
    /// Workload name.
    pub workload: String,
    /// Total cycles of the mapped run.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// SPM dynamic energy, pJ (Fig. 7's quantity).
    pub spm_dynamic_pj: f64,
    /// SPM static (leakage) energy over the run, pJ (Fig. 6's quantity).
    pub spm_static_pj: f64,
    /// SPM leakage power, mW.
    pub spm_leakage_mw: f64,
    /// Analytic vulnerability (Fig. 5's quantity).
    pub vulnerability: f64,
    /// `1 − vulnerability` (§IV's headline).
    pub reliability: f64,
    /// Peak per-line write count across STT-RAM regions (Table III /
    /// Fig. 8 input); 0 when the structure has no STT-RAM.
    pub stt_max_line_writes: u64,
    /// Total writes absorbed by STT-RAM lines (wear-levelling model).
    pub stt_total_writes: u64,
    /// Word lines across the STT-RAM regions.
    pub stt_lines: u32,
    /// Per-region program traffic (Figs. 2 / 4).
    pub traffic: Vec<RegionTraffic>,
    /// Whether the run's checksum matched the host reference.
    pub checksum_ok: bool,
    /// Live fault-injection and recovery counters (`None` for clean
    /// runs; set when [`crate::RunBuilder::faults`] is attached).
    pub recovery: Option<ftspm_sim::FaultStats>,
    /// The mapping that produced the run.
    pub mapping: MdaOutput,
    /// The full vulnerability report.
    pub vulnerability_report: VulnerabilityReport,
}

impl RunMetrics {
    /// Total program accesses served by the SPM.
    pub fn spm_accesses(&self) -> u64 {
        self.traffic.iter().map(|t| t.reads + t.writes).sum()
    }
}

/// [`RunMetrics`] plus the sharing-side measurements only an N-core run
/// produces.
#[derive(Debug, Clone)]
pub struct MultiRunMetrics {
    /// The single-machine metrics of the shared backend (cycles, energy,
    /// vulnerability, recovery, …) — comparable 1:1 with a plain run.
    pub base: RunMetrics,
    /// Core count of the run.
    pub cores: usize,
    /// Bus-level coherence counters (invalidations, dirty flushes,
    /// shared-block fault propagation).
    pub coherence: ftspm_sim::CoherenceStats,
    /// Per-core fault observation views, indexed by core.
    pub per_core: Vec<ftspm_sim::CoreFaultView>,
    /// Per-block sharer counts (how many cores touched each block),
    /// in block-id order — the input [`ftspm_core::mda::run_mda_multicore`]
    /// weights by.
    pub sharer_counts: Vec<u32>,
}

/// One workload evaluated on all three structures.
#[derive(Debug, Clone)]
pub struct WorkloadEvaluation {
    /// Workload name.
    pub workload: String,
    /// The profiling-phase output (Table I for this workload).
    pub profile: Profile,
    /// FTSPM run.
    pub ftspm: RunMetrics,
    /// Pure SEC-DED SRAM baseline run.
    pub pure_sram: RunMetrics,
    /// Pure STT-RAM baseline run.
    pub pure_stt: RunMetrics,
}

impl WorkloadEvaluation {
    /// The run for a given structure.
    pub fn run(&self, s: StructureKind) -> &RunMetrics {
        match s {
            StructureKind::Ftspm => &self.ftspm,
            StructureKind::PureSram => &self.pure_sram,
            StructureKind::PureStt => &self.pure_stt,
        }
    }

    /// All three runs passed their checksum self-check.
    pub fn all_checksums_ok(&self) -> bool {
        self.ftspm.checksum_ok && self.pure_sram.checksum_ok && self.pure_stt.checksum_ok
    }
}
