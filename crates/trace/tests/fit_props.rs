//! Property tests of model extraction: a workload fitted from a trace
//! must regenerate behaviour that *re-fits to the same model* — same
//! block table, write fraction within two points, same phase count.
//! Failures shrink and persist their seeds next to this file.

use ftspm_sim::{Cpu, Dram, Program, SimError};
use ftspm_testkit::prop::{check, int_range, Config};
use ftspm_trace::{fit, record, FittedWorkload, Tail, Trace};
use ftspm_workloads::{Synthetic, SyntheticConfig, Workload};

fn cfg() -> Config {
    Config::with_cases(32).persisting(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fit_props.regressions"
    ))
}

/// Fit → regenerate → re-record → re-fit: the regenerated workload's
/// model matches the source's where the issue's acceptance bar draws
/// the line — block count exactly, R/W mix within ±2%, phase count
/// equal.
#[test]
fn refit_matches_source_model() {
    check(
        &cfg(),
        &(
            int_range(0u32..61),
            int_range(400u32..1600),
            int_range(32u32..96),
            int_range(1u32..6),
            int_range(0u32..10_000),
        ),
        |&(wf_pct, accesses, buffer_words, run_length, seed)| {
            let mut source = Synthetic::new(SyntheticConfig {
                write_fraction: f64::from(wf_pct) / 100.0,
                buffer_words,
                accesses,
                run_length,
                seed: u64::from(seed) | 0x5EED_0000,
            });
            let trace = record(&mut source).expect("synthetic records");
            let model = fit(&trace);
            let mut fitted = FittedWorkload::from_model(&trace, &model);
            let regenerated = record(&mut fitted).expect("fitted workload records");
            // Block count: exact — the fitted workload carries the
            // source program block-for-block.
            assert_eq!(regenerated.program, trace.program);
            let refit = fit(&regenerated);
            assert_eq!(refit.blocks.len(), model.blocks.len());
            // R/W mix: within two percentage points.
            let drift = (refit.write_fraction() - model.write_fraction()).abs();
            assert!(
                drift <= 0.02,
                "write fraction drifted {drift:.4}: {} -> {}",
                model.write_fraction(),
                refit.write_fraction()
            );
            // Phase structure: the regenerated density curve segments
            // into the same number of phases.
            assert_eq!(
                refit.phases.len(),
                model.phases.len(),
                "phase structure not preserved: {:?} -> {:?}",
                model.phases,
                refit.phases
            );
        },
    );
}

/// A two-density workload for the phase detector: a burst phase and a
/// sparse phase an order of magnitude apart.
#[derive(Debug)]
struct TwoPhase {
    program: Program,
}

impl TwoPhase {
    fn new() -> Self {
        let mut b = Program::builder("two_phase");
        b.code("Kernel", 1024, 32);
        b.data("Buf", 2048);
        b.stack(512);
        Self { program: b.build() }
    }
}

impl Workload for TwoPhase {
    fn name(&self) -> &str {
        "two_phase"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn init(&mut self, _dram: &mut Dram) {}

    fn run(&mut self, cpu: &mut Cpu<'_, '_>) -> Result<u64, SimError> {
        let code = self.program.code_blocks()[0];
        let buf = self.program.find("Buf").expect("declared above");
        cpu.call(code)?;
        let mut acc = 0u64;
        for i in 0..600u32 {
            acc = acc.wrapping_add(u64::from(cpu.read_u32(buf, (i % 512) * 4)?));
            cpu.execute(2)?;
        }
        for i in 0..600u32 {
            cpu.write_u32(buf, (i % 512) * 4, i)?;
            cpu.execute(24)?;
        }
        cpu.ret()?;
        Ok(acc)
    }

    fn expected_checksum(&self) -> u64 {
        0
    }
}

/// The detector finds both phases of a two-density workload, and the
/// fitted regeneration preserves them — including their very different
/// write fractions.
#[test]
fn two_phase_structure_survives_refit() {
    let trace = record(&mut TwoPhase::new()).expect("records");
    let model = fit(&trace);
    assert_eq!(model.phases.len(), 2, "detector missed a phase: {model:#?}");
    assert!(model.phases[0].write_fraction() < 0.1);
    assert!(model.phases[1].write_fraction() > 0.9);
    let mut fitted = FittedWorkload::from_model(&trace, &model);
    let regenerated = record(&mut fitted).expect("fitted records");
    let refit = fit(&regenerated);
    assert_eq!(
        refit.phases.len(),
        2,
        "refit lost the phase split: {refit:#?}"
    );
    assert!(refit.phases[0].write_fraction() < 0.1);
    assert!(refit.phases[1].write_fraction() > 0.9);
}

/// The gap histogram and run-length summary are populated and sane.
#[test]
fn model_summaries_are_sane() {
    let trace = record(&mut Synthetic::new(SyntheticConfig {
        accesses: 500,
        ..SyntheticConfig::default()
    }))
    .expect("records");
    let model = fit(&trace);
    assert!(model.accesses >= 500);
    assert!(model.gap_histogram.iter().sum::<u64>() >= model.accesses - 1);
    assert!(model.mean_run_length >= 1.0);
    assert!(model.synthetic.run_length >= 1);
    assert_eq!(model.blocks.len(), trace.program.len());
    // Block stats partition the totals.
    let reads: u64 = model.blocks.iter().map(|b| b.reads).sum();
    let writes: u64 = model.blocks.iter().map(|b| b.writes).sum();
    assert_eq!(reads + writes, model.accesses);
    assert_eq!(writes, model.writes);
}

/// A short synthetic trace with every stamp shifted so the last record
/// lands on `last_cycle`, round-tripped through the wire format — the
/// shape of an upload whose cycle stamps sit near the top of `u64`.
fn restamped(last_cycle: u64) -> Trace {
    let mut trace = record(&mut Synthetic::new(SyntheticConfig {
        accesses: 16,
        buffer_words: 32,
        ..SyntheticConfig::default()
    }))
    .expect("records");
    let shift = last_cycle - trace.records.last().expect("ops recorded").cycle;
    for rec in &mut trace.records {
        rec.cycle += shift;
    }
    let (decoded, tail) = Trace::decode(&trace.encode()).expect("restamped trace decodes");
    assert!(tail == Tail::Clean && decoded.complete());
    decoded
}

/// Fits a restamped trace and checks the phases still cover the
/// records: the last phase ends at or after the last record's cycle.
fn fit_covers_the_trace(last_cycle: u64) {
    let trace = restamped(last_cycle);
    let model = fit(&trace);
    let last = model.phases.last().expect("one phase");
    assert!(
        last.end_cycle >= last_cycle,
        "last phase {last:?} ends before the last record at {last_cycle}"
    );
    assert!(model.phases.iter().all(|p| p.start_cycle < p.end_cycle));
    // The model still regenerates a runnable workload.
    let mut fitted = FittedWorkload::from_model(&trace, &model);
    record(&mut fitted).expect("fitted workload records");
}

/// Stamps ending at `u64::MAX`: `end_cycle` saturates instead of
/// wrapping to 0 (which divided by zero when bucketing windows).
#[test]
fn fit_handles_stamps_ending_at_u64_max() {
    fit_covers_the_trace(u64::MAX);
}

/// Stamps ending at `u64::MAX / 8`: window spans are computed without
/// overflowing (a wrapped `end_cycle * i` placed the only phase at
/// `[0, 0)`).
#[test]
fn fit_places_phases_for_stamps_ending_at_u64_max_over_8() {
    fit_covers_the_trace(u64::MAX / 8);
}
