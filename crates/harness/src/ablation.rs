//! Ablation studies over the design choices DESIGN.md calls out:
//! the D-SPM size split, the STT-RAM write threshold, and the MBU size
//! distribution (technology node).

use std::fmt::Write as _;

use ftspm_core::mda::{run_mda, MapDecision};
use ftspm_core::{reliability, MdaThresholds, OptimizeFor, SpmStructure};
use ftspm_ecc::MbuDistribution;
use ftspm_workloads::Workload;

use crate::builder::RunBuilder;
use crate::metrics::StructureKind;
use crate::pipeline::profile_workload;

/// One row of the size-split ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeSplitRow {
    /// STT / ECC / parity KiB of the data SPM.
    pub split: (u64, u64, u64),
    /// Run cycles.
    pub cycles: u64,
    /// Analytic vulnerability.
    pub vulnerability: f64,
    /// SPM dynamic energy, pJ.
    pub dynamic_pj: f64,
    /// SPM leakage, mW.
    pub leakage_mw: f64,
    /// Hottest STT line writes.
    pub stt_max_line_writes: u64,
}

/// Sweeps the data-SPM split (STT/ECC/parity KiB, total 16) for one
/// workload and returns a row per split.
///
/// The paper fixes 12/2/2 without justification; this sweep shows the
/// trade-off that choice sits on.
pub fn size_split_sweep(
    workload: &mut dyn Workload,
    splits: &[(u64, u64, u64)],
    optimize: OptimizeFor,
) -> Vec<SizeSplitRow> {
    let profile = profile_workload(workload);
    splits
        .iter()
        .map(|&(stt, ecc, parity)| {
            assert_eq!(stt + ecc + parity, 16, "data SPM stays 16 KiB");
            let structure = SpmStructure::ftspm_with_sizes(16, stt, ecc, parity);
            let run = RunBuilder::new()
                .workload(workload)
                .structure(&structure, StructureKind::Ftspm)
                .optimize(optimize)
                .profile(&profile)
                .run();
            assert!(run.checksum_ok, "ablation run must self-verify");
            SizeSplitRow {
                split: (stt, ecc, parity),
                cycles: run.cycles,
                vulnerability: run.vulnerability,
                dynamic_pj: run.spm_dynamic_pj,
                leakage_mw: run.spm_leakage_mw,
                stt_max_line_writes: run.stt_max_line_writes,
            }
        })
        .collect()
}

/// Renders a size-split sweep.
pub fn render_size_split(workload: &str, rows: &[SizeSplitRow]) -> String {
    let mut s = format!("Ablation — D-SPM size split (STT/ECC/parity KiB), {workload}\n");
    let _ = writeln!(
        s,
        "{:<12} {:>12} {:>14} {:>14} {:>10} {:>12}",
        "split", "cycles", "vulnerability", "dynamic (pJ)", "leak (mW)", "hottest line"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>2}/{:>2}/{:>2}     {:>12} {:>14.4} {:>14.0} {:>10.2} {:>12}",
            r.split.0,
            r.split.1,
            r.split.2,
            r.cycles,
            r.vulnerability,
            r.dynamic_pj,
            r.leakage_mw,
            r.stt_max_line_writes
        );
    }
    s
}

/// One row of the write-threshold ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRow {
    /// The per-block STT write budget.
    pub threshold: u64,
    /// Data blocks left in STT-RAM.
    pub blocks_in_stt: usize,
    /// Analytic vulnerability.
    pub vulnerability: f64,
    /// Hottest STT line writes.
    pub stt_max_line_writes: u64,
    /// Run cycles.
    pub cycles: u64,
}

/// Sweeps the endurance write threshold (Algorithm 1, line 24) for one
/// workload: tighter budgets empty the STT region, trading vulnerability
/// for wear.
pub fn write_threshold_sweep(workload: &mut dyn Workload, thresholds: &[u64]) -> Vec<ThresholdRow> {
    let profile = profile_workload(workload);
    let program = workload.program().clone();
    let structure = SpmStructure::ftspm();
    thresholds
        .iter()
        .map(|&t| {
            let base = OptimizeFor::Reliability.thresholds();
            let th = MdaThresholds::new(base.perf_overhead_frac, base.energy_overhead_frac, t);
            let mapping = run_mda(&program, &profile, &structure, &th);
            let in_stt = mapping.blocks_with(MapDecision::DataStt).len();
            let run = RunBuilder::new()
                .workload(workload)
                .structure(&structure, StructureKind::Ftspm)
                .mapping(mapping)
                .profile(&profile)
                .run();
            assert!(run.checksum_ok);
            ThresholdRow {
                threshold: t,
                blocks_in_stt: in_stt,
                vulnerability: run.vulnerability,
                stt_max_line_writes: run.stt_max_line_writes,
                cycles: run.cycles,
            }
        })
        .collect()
}

/// Renders a write-threshold sweep.
pub fn render_write_threshold(workload: &str, rows: &[ThresholdRow]) -> String {
    let mut s = format!("Ablation — STT write threshold, {workload}\n");
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>14} {:>14} {:>12}",
        "threshold", "in STT", "vulnerability", "hottest line", "cycles"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:>14.4} {:>14} {:>12}",
            r.threshold, r.blocks_in_stt, r.vulnerability, r.stt_max_line_writes, r.cycles
        );
    }
    s
}

/// One row of the write-fraction crossover study.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    /// Fraction of data accesses that are writes.
    pub write_fraction: f64,
    /// Pure-SRAM SPM dynamic energy, pJ.
    pub sram_pj: f64,
    /// Pure-STT SPM dynamic energy, pJ.
    pub stt_pj: f64,
    /// FTSPM dynamic energy, pJ.
    pub ftspm_pj: f64,
    /// Pure-SRAM cycles.
    pub sram_cycles: u64,
    /// Pure-STT cycles.
    pub stt_cycles: u64,
}

/// Sweeps the synthetic workload's write fraction and measures dynamic
/// energy on all three structures — locating the crossover where pure
/// STT-RAM's expensive writes overtake its cheap reads (the structural
/// reason FTSPM exists).
pub fn write_fraction_sweep(fractions: &[f64]) -> Vec<CrossoverRow> {
    use crate::pipeline::evaluate_workload;
    fractions
        .iter()
        .map(|&wf| {
            let mut w = ftspm_workloads::Synthetic::new(ftspm_workloads::SyntheticConfig {
                write_fraction: wf,
                ..Default::default()
            });
            let eval = evaluate_workload(&mut w, OptimizeFor::Reliability);
            assert!(eval.all_checksums_ok());
            CrossoverRow {
                write_fraction: wf,
                sram_pj: eval.pure_sram.spm_dynamic_pj,
                stt_pj: eval.pure_stt.spm_dynamic_pj,
                ftspm_pj: eval.ftspm.spm_dynamic_pj,
                sram_cycles: eval.pure_sram.cycles,
                stt_cycles: eval.pure_stt.cycles,
            }
        })
        .collect()
}

/// Renders a write-fraction crossover sweep.
pub fn render_crossover(rows: &[CrossoverRow]) -> String {
    let mut s = String::from("Crossover — dynamic energy vs write fraction (synthetic workload)\n");
    let _ = writeln!(
        s,
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "writes", "pure SRAM pJ", "pure STT pJ", "FTSPM pJ", "STT/SRAM"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10.2} {:>14.0} {:>14.0} {:>14.0} {:>12.2}",
            r.write_fraction,
            r.sram_pj,
            r.stt_pj,
            r.ftspm_pj,
            r.stt_pj / r.sram_pj
        );
    }
    s
}

/// Named MBU distributions for the technology-node sensitivity study.
///
/// Older nodes see almost exclusively single-bit upsets; scaling shifts
/// mass into multi-bit clusters (the trend Dixit & Wood report). The
/// 40 nm row is the paper's.
pub fn mbu_nodes() -> Vec<(&'static str, MbuDistribution)> {
    vec![
        ("130nm", MbuDistribution::new(0.95, 0.04, 0.007, 0.003)),
        ("65nm", MbuDistribution::new(0.80, 0.15, 0.03, 0.02)),
        ("40nm (paper)", MbuDistribution::DIXIT_WOOD_40NM),
        ("22nm (proj.)", MbuDistribution::new(0.45, 0.30, 0.12, 0.13)),
    ]
}

/// One row of the MBU sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct MbuRow {
    /// Node label.
    pub node: &'static str,
    /// Pure-SRAM (SEC-DED) vulnerability.
    pub pure_sram: f64,
    /// FTSPM vulnerability.
    pub ftspm: f64,
}

/// Evaluates one workload's vulnerability under each node's MBU
/// distribution (mapping fixed at the paper's 40 nm thresholds, as the
/// mapper has no technology input).
pub fn mbu_sweep(workload: &mut dyn Workload) -> Vec<MbuRow> {
    let profile = profile_workload(workload);
    let program = workload.program().clone();
    let ftspm_structure = SpmStructure::ftspm();
    let sram_structure = SpmStructure::pure_sram();
    let mapping = run_mda(
        &program,
        &profile,
        &ftspm_structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let sram_mapping = ftspm_core::mda::run_baseline(&program, &profile, &sram_structure);
    mbu_nodes()
        .into_iter()
        .map(|(node, mbu)| MbuRow {
            node,
            pure_sram: reliability::vulnerability(&profile, &sram_mapping, &sram_structure, mbu)
                .vulnerability(),
            ftspm: reliability::vulnerability(&profile, &mapping, &ftspm_structure, mbu)
                .vulnerability(),
        })
        .collect()
}

/// Renders an MBU sensitivity study.
pub fn render_mbu(workload: &str, rows: &[MbuRow]) -> String {
    let mut s = format!("Ablation — MBU distribution (technology node), {workload}\n");
    let _ = writeln!(
        s,
        "{:<14} {:>12} {:>12} {:>9}",
        "node", "pure SRAM", "FTSPM", "ratio"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<14} {:>12.4} {:>12.4} {:>8.1}x",
            r.node,
            r.pure_sram,
            r.ftspm,
            if r.ftspm > 0.0 {
                r.pure_sram / r.ftspm
            } else {
                f64::INFINITY
            }
        );
    }
    s
}
