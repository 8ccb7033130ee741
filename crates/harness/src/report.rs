//! Renderers for the paper's tables and figures.
//!
//! Each function returns a human-readable text block (the `repro` binary
//! prints these); the `*_csv` variants return machine-readable CSV for
//! plotting. Table/figure numbering follows the paper.

use std::fmt::Write as _;

use ftspm_core::endurance::{self, TABLE_III_THRESHOLDS};
use ftspm_core::mda::MdaOutput;
use ftspm_mem::{Clock, RegionGeometry, Technology};
use ftspm_profile::{Profile, ProfileTable};

use crate::{RunMetrics, StructureKind, WorkloadEvaluation};

/// Table I: the profiling results of one workload.
pub fn table1(profile: &Profile) -> String {
    format!(
        "Table I — profiling of `{}` ({} cycles total)\n{}",
        profile.program,
        profile.total_cycles,
        ProfileTable::new(profile)
    )
}

/// Table II: the MDA output for one workload.
pub fn table2(mapping: &MdaOutput) -> String {
    let mut s = format!(
        "Table II — MDA output for `{}` (perf overhead {:.1} %, energy overhead {:.1} %)\n",
        mapping.structure,
        mapping.perf_overhead * 100.0,
        mapping.energy_overhead * 100.0
    );
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:<18} {:<22}",
        "Block", "Mapped", "Region", "Reason"
    );
    for d in &mapping.decisions {
        let mapped = if d.decision.role().is_some() {
            "Yes"
        } else {
            "No"
        };
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:<18} {:<22}",
            d.name,
            mapped,
            d.decision.label(),
            format!("{:?}", d.reason)
        );
    }
    s
}

/// Table III: endurance lifetimes, pure STT-RAM vs FTSPM, from the two
/// runs' observed hottest-line write rates, plus the projection for a
/// wear-levelled pure STT-RAM SPM (an extension of the paper's table).
pub fn table3(ftspm: &RunMetrics, pure_stt: &RunMetrics, clock: Clock) -> String {
    let mut s = String::from("Table III — endurance (hottest STT-RAM line)\n");
    let _ = writeln!(
        s,
        "{:<14} {:>22} {:>22} {:>24}",
        "Threshold", "pure STT-RAM SPM", "FTSPM", "pure STT (levelled)"
    );
    for &t in &TABLE_III_THRESHOLDS {
        let stt =
            endurance::lifetime_seconds(t, pure_stt.stt_max_line_writes, pure_stt.cycles, clock);
        let ft = endurance::lifetime_seconds(t, ftspm.stt_max_line_writes, ftspm.cycles, clock);
        let leveled = endurance::lifetime_seconds_leveled(
            t,
            pure_stt.stt_total_writes,
            pure_stt.stt_lines.max(1),
            pure_stt.cycles,
            clock,
        );
        let _ = writeln!(
            s,
            "{:<14.0e} {:>22} {:>22} {:>24}",
            t as f64,
            endurance::format_duration(stt),
            endurance::format_duration(ft),
            endurance::format_duration(leveled)
        );
    }
    s
}

/// Table IV: the simulator configuration of all three structures.
pub fn table4() -> String {
    let mut s = String::from("Table IV — configuration parameters\n");
    let _ = writeln!(
        s,
        "{:<22} {:<22} {:>8} {:>10} {:>10}",
        "Structure", "Region", "Size", "Read", "Write"
    );
    for kind in [
        StructureKind::PureSram,
        StructureKind::PureStt,
        StructureKind::Ftspm,
    ] {
        for (_, spec) in kind.structure().regions() {
            let p = spec.params();
            let _ = writeln!(
                s,
                "{:<22} {:<22} {:>6}KB {:>8} c {:>8} c",
                kind.name(),
                spec.name(),
                spec.geometry().bytes() / 1024,
                p.read_latency,
                p.write_latency
            );
        }
    }
    let _ = writeln!(
        s,
        "{:<22} {:<22} {:>8} {:>10} {:>10}",
        "(all)", "L1 I/D caches", "8KB", "1 c", "1 c"
    );
    s
}

/// Fig. 2 / Fig. 4: per-region read/write distribution of one run, in
/// percent of SPM program traffic.
pub fn fig_traffic(run: &RunMetrics) -> String {
    let total: u64 = run.traffic.iter().map(|t| t.reads + t.writes).sum();
    let mut s = format!(
        "Read/write distribution — {} on {} ({} SPM accesses)\n",
        run.workload,
        run.structure.name(),
        total
    );
    for t in &run.traffic {
        let pct = |v: u64| {
            if total == 0 {
                0.0
            } else {
                v as f64 * 100.0 / total as f64
            }
        };
        let _ = writeln!(
            s,
            "  {:<22} reads {:>10} ({:>5.1} %)  writes {:>10} ({:>5.1} %)",
            t.region,
            t.reads,
            pct(t.reads),
            t.writes,
            pct(t.writes)
        );
    }
    s
}

/// Fig. 3: dynamic energy per access of each region technology.
pub fn fig3() -> String {
    let mut s = String::from("Fig. 3 — dynamic energy per access (pJ, 16 KiB array)\n");
    let g = RegionGeometry::from_kib(16);
    for t in Technology::ALL {
        let p = t.params_40nm();
        let _ = writeln!(
            s,
            "  {:<22} read {:>7.1}  write {:>7.1}",
            t.name(),
            p.read_energy_pj(g),
            p.write_energy_pj(g)
        );
    }
    s
}

/// Fig. 5: vulnerability per workload, FTSPM vs pure SRAM, plus the
/// average improvement factor (the paper's "about 7x").
pub fn fig5(evals: &[WorkloadEvaluation]) -> String {
    let mut s = String::from("Fig. 5 — SPM vulnerability (lower is better)\n");
    let _ = writeln!(
        s,
        "{:<14} {:>12} {:>12} {:>10}",
        "Workload", "pure SRAM", "FTSPM", "ratio"
    );
    let mut ratios = Vec::new();
    for e in evals {
        let sram = e.pure_sram.vulnerability;
        let ft = e.ftspm.vulnerability;
        let ratio = if ft > 0.0 { sram / ft } else { f64::INFINITY };
        if ratio.is_finite() {
            ratios.push(ratio);
        }
        let _ = writeln!(
            s,
            "{:<14} {:>12.4} {:>12.4} {:>9.1}x",
            e.workload, sram, ft, ratio
        );
    }
    let avg_sram: f64 =
        evals.iter().map(|e| e.pure_sram.vulnerability).sum::<f64>() / evals.len() as f64;
    let avg_ft: f64 = evals.iter().map(|e| e.ftspm.vulnerability).sum::<f64>() / evals.len() as f64;
    let _ = writeln!(
        s,
        "{:<14} {:>12.4} {:>12.4} {:>9.1}x  (suite average; paper reports ~7x)",
        "AVERAGE",
        avg_sram,
        avg_ft,
        if avg_ft > 0.0 {
            avg_sram / avg_ft
        } else {
            f64::INFINITY
        }
    );
    s
}

/// Fig. 6: static energy per workload, normalised to pure SRAM.
pub fn fig6(evals: &[WorkloadEvaluation]) -> String {
    energy_figure(
        evals,
        "Fig. 6 — SPM static energy (normalised to pure SRAM)",
        |r| r.spm_static_pj,
    )
}

/// Fig. 7: dynamic energy per workload, normalised to pure SRAM.
pub fn fig7(evals: &[WorkloadEvaluation]) -> String {
    energy_figure(
        evals,
        "Fig. 7 — SPM dynamic energy (normalised to pure SRAM)",
        |r| r.spm_dynamic_pj,
    )
}

fn energy_figure(
    evals: &[WorkloadEvaluation],
    title: &str,
    f: impl Fn(&RunMetrics) -> f64,
) -> String {
    let mut s = format!("{title}\n");
    let _ = writeln!(
        s,
        "{:<14} {:>12} {:>12} {:>12}",
        "Workload", "pure SRAM", "pure STT", "FTSPM"
    );
    let mut sums = [0.0f64; 3];
    for e in evals {
        let base = f(&e.pure_sram);
        let norm = |v: f64| if base > 0.0 { v / base } else { 0.0 };
        let row = [1.0, norm(f(&e.pure_stt)), norm(f(&e.ftspm))];
        sums[0] += row[0];
        sums[1] += row[1];
        sums[2] += row[2];
        let _ = writeln!(
            s,
            "{:<14} {:>12.3} {:>12.3} {:>12.3}",
            e.workload, row[0], row[1], row[2]
        );
    }
    let n = evals.len() as f64;
    let _ = writeln!(
        s,
        "{:<14} {:>12.3} {:>12.3} {:>12.3}",
        "AVERAGE",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    s
}

/// Fig. 8: endurance lifetime per workload (at the 10^14 threshold),
/// pure STT vs FTSPM.
pub fn fig8(evals: &[WorkloadEvaluation], clock: Clock) -> String {
    let threshold = TABLE_III_THRESHOLDS[2];
    let mut s = format!(
        "Fig. 8 — endurance lifetime at threshold 1e{} writes\n",
        (threshold as f64).log10() as u32
    );
    let _ = writeln!(
        s,
        "{:<14} {:>18} {:>18} {:>10}",
        "Workload", "pure STT-RAM", "FTSPM", "gain"
    );
    for e in evals {
        let stt = endurance::lifetime_seconds(
            threshold,
            e.pure_stt.stt_max_line_writes,
            e.pure_stt.cycles,
            clock,
        );
        let ft = endurance::lifetime_seconds(
            threshold,
            e.ftspm.stt_max_line_writes,
            e.ftspm.cycles,
            clock,
        );
        let gain = if stt > 0.0 { ft / stt } else { f64::INFINITY };
        let _ = writeln!(
            s,
            "{:<14} {:>18} {:>18} {:>9.0}x",
            e.workload,
            endurance::format_duration(stt),
            endurance::format_duration(ft),
            gain
        );
    }
    s
}

/// Recovery report of one live fault-injected run: the runtime
/// counterpart of Fig. 5's analytic vulnerability, from observed strikes.
pub fn recovery(run: &RunMetrics) -> String {
    let mut s = format!(
        "Recovery — {} on {} ({} cycles, checksum {})\n",
        run.workload,
        run.structure.name(),
        run.cycles,
        if run.checksum_ok { "ok" } else { "FAIL" }
    );
    let Some(f) = run.recovery else {
        let _ = writeln!(s, "  (clean run: no fault injection configured)");
        return s;
    };
    let _ = writeln!(s, "  strikes injected       {:>10}", f.strikes);
    let _ = writeln!(s, "  masked (immune STT)    {:>10}", f.masked);
    let _ = writeln!(s, "  corrections (DRE)      {:>10}", f.corrections);
    let _ = writeln!(s, "  DUE traps              {:>10}", f.due_traps);
    let _ = writeln!(s, "  DUE recovery retries   {:>10}", f.due_retries);
    let _ = writeln!(s, "  SDC escapes            {:>10}", f.sdc_escapes);
    let _ = writeln!(s, "  scrub passes           {:>10}", f.scrub_passes);
    let _ = writeln!(s, "  scrub corrections      {:>10}", f.scrub_corrections);
    let _ = writeln!(s, "  quarantined lines      {:>10}", f.quarantined_lines);
    let _ = writeln!(s, "  remapped blocks        {:>10}", f.remapped_blocks);
    let _ = writeln!(
        s,
        "  recovery overhead      {:>10} cycles ({:.3} % of run)",
        f.recovery_cycles,
        if run.cycles > 0 {
            f.recovery_cycles as f64 * 100.0 / run.cycles as f64
        } else {
            0.0
        }
    );
    s
}

/// A compact per-workload summary (checksums, cycles, headline ratios).
pub fn summary(evals: &[WorkloadEvaluation]) -> String {
    let mut s = String::from("Summary\n");
    let _ = writeln!(
        s,
        "{:<14} {:>9} {:>14} {:>14} {:>14} {:>10}",
        "Workload", "checks", "FTSPM cycles", "SRAM cycles", "STT cycles", "perf vs SRAM"
    );
    for e in evals {
        let overhead = e.ftspm.cycles as f64 / e.pure_sram.cycles as f64 - 1.0;
        let _ = writeln!(
            s,
            "{:<14} {:>9} {:>14} {:>14} {:>14} {:>9.1} %",
            e.workload,
            if e.all_checksums_ok() { "ok" } else { "FAIL" },
            e.ftspm.cycles,
            e.pure_sram.cycles,
            e.pure_stt.cycles,
            overhead * 100.0
        );
    }
    s
}

/// CSV across the suite: one row per (workload, structure) with every
/// headline metric. For plotting.
pub fn suite_csv(evals: &[WorkloadEvaluation]) -> String {
    let mut s = String::from(
        "workload,structure,cycles,instructions,spm_dynamic_pj,spm_static_pj,\
         spm_leakage_mw,vulnerability,reliability,stt_max_line_writes,checksum_ok\n",
    );
    for e in evals {
        for kind in StructureKind::ALL {
            let r = e.run(kind);
            let _ = writeln!(
                s,
                "{},{},{},{},{:.1},{:.1},{:.3},{:.6},{:.6},{},{}",
                e.workload,
                kind.name(),
                r.cycles,
                r.instructions,
                r.spm_dynamic_pj,
                r.spm_static_pj,
                r.spm_leakage_mw,
                r.vulnerability,
                r.reliability,
                r.stt_max_line_writes,
                r.checksum_ok
            );
        }
    }
    s
}
