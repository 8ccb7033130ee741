//! `fault_storm`: live fault injection and Monte Carlo campaigns.
//!
//! Setup profiles and maps the case study once (outside the timed
//! region), builds the campaign images and the fixed ECC word set. A
//! pass then runs the case study clean, armed-idle (faults on, no strike
//! ever due) and over the recovery grid's strike rates × scrub
//! intervals; runs every multicore cell (2 and 4 cores, FTSPM and pure
//! SRAM) under strikes; and runs fixed-size campaigns on SEC-DED and
//! parity images, plain and 4-way interleaved, plus a scrub study.
//!
//! The live runs use the committed artifacts' fault seeds and kernel
//! inputs at every seed, so `results/recovery.csv` and
//! `results/multicore.csv` are checked row for row on every run and the
//! simulated work never changes with the seed; the seed draws the
//! campaign images, campaign strike streams and the ECC word set.
//!
//! Pass = all of the above; operation = one live run or one campaign.

use std::time::Instant;

use ftspm_bench::sweeps::{
    self, MulticoreCell, RecoveryCell, MULTICORE_FAULT_SEED, MULTICORE_STRIKE_MEAN, RECOVERY_SEED,
};
use ftspm_core::mda::{run_mda, MdaOutput};
use ftspm_core::{OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::{MbuDistribution, ParityWord, ProtectionScheme, HAMMING_32};
use ftspm_faults::{
    run_campaign, run_campaign_interleaved, run_scrub_study, CampaignResult, RegionImage,
    ScrubResult,
};
use ftspm_harness::{profile_workload, LiveFaultOptions, RunBuilder, RunMetrics, StructureKind};
use ftspm_profile::Profile;
use ftspm_testkit::{black_box, derive_seed, Rng};
use ftspm_workloads::{find_multicore, CaseStudy, Workload};

use crate::span::{self, Tracer};
use crate::{repeated_setup, stats, Config, Outcome};

/// Committed recovery-grid and multicore results the default-seed pass
/// must reproduce row for row.
const COMMITTED_RECOVERY_CSV: &str = "results/recovery.csv";
const COMMITTED_MULTICORE_CSV: &str = "results/multicore.csv";
/// Words per campaign image (a 2 KiB region).
const IMAGE_WORDS: u32 = 512;
/// Strikes per campaign; four campaigns per pass.
const CAMPAIGN_STRIKES: u64 = 1_000_000;
/// Interleaving ways of the interleaved campaigns.
const WAYS: u32 = 4;
/// Scrub study shape: strikes between scrubs, scrub intervals.
const SCRUB_STRIKES: u64 = 8;
const SCRUB_INTERVALS: u64 = 2_000;
/// Words in the fixed ECC codec word set.
const ECC_WORDS: usize = 1 << 16;
/// Passes run even when `--seconds` is short.
const MIN_PASSES: usize = 3;

struct Setup {
    case: CaseStudy,
    profile: Profile,
    structure: SpmStructure,
    mapping: MdaOutput,
    images: [RegionImage; 2],
    words: Vec<u32>,
}

fn setup(seed: u64) -> Setup {
    let mut case = CaseStudy::new();
    let profile = profile_workload(&mut case);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        case.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let images = [
        RegionImage::random(ProtectionScheme::SecDed, IMAGE_WORDS, derive_seed(seed, 10)),
        RegionImage::random(ProtectionScheme::Parity, IMAGE_WORDS, derive_seed(seed, 11)),
    ];
    let mut rng = Rng::seed_from_u64(derive_seed(seed, 12));
    let words = (0..ECC_WORDS).map(|_| rng.next_u32()).collect();
    Setup {
        case,
        profile,
        structure,
        mapping,
        images,
        words,
    }
}

/// One pass's deterministic results, compared across passes.
#[derive(Default)]
struct PassResult {
    clean: Option<RunMetrics>,
    grid: Vec<RecoveryCell>,
    multicore: Vec<MulticoreCell>,
    campaigns: Vec<CampaignResult>,
    scrub: ScrubResult,
    /// Host ms per operation.
    op_ms: Vec<f64>,
}

impl PassResult {
    fn digest(&self) -> String {
        let mut s = String::new();
        if let Some(c) = &self.clean {
            s.push_str(&format!(
                "{}:{}:{}\n",
                c.cycles, c.instructions, c.checksum_ok
            ));
        }
        for cell in &self.grid {
            s.push_str(&sweeps::recovery_csv_row(cell));
        }
        for cell in &self.multicore {
            s.push_str(&sweeps::multicore_csv_row(cell));
        }
        s.push_str(&format!("{:?}\n{:?}\n", self.campaigns, self.scrub));
        s
    }
}

fn case_run(s: &mut Setup, faults: Option<LiveFaultOptions>) -> RunMetrics {
    let mut b = RunBuilder::new()
        .workload(&mut s.case)
        .structure(&s.structure, StructureKind::Ftspm)
        .mapping(s.mapping.clone())
        .profile(&s.profile);
    if let Some(f) = faults {
        b = b.faults(f);
    }
    b.run()
}

/// Runs `f` as operation `name` for `item`: timed into `ops`, and a span
/// when tracing.
fn op<R>(
    ops: &mut Vec<f64>,
    t: &mut Tracer,
    name: &'static str,
    item: u64,
    f: impl FnOnce() -> R,
) -> R {
    t.enter(name, item);
    let t0 = Instant::now();
    let r = f();
    ops.push(t0.elapsed().as_secs_f64() * 1e3);
    t.exit();
    r
}

fn one_pass(s: &mut Setup, seed: u64, t: &mut Tracer) -> PassResult {
    let mut r = PassResult::default();
    let mut ops = Vec::new();
    t.enter("faults.sweep", 0);
    r.clean = Some(op(&mut ops, t, "sim.clean_run", 0, || case_run(s, None)));
    let idle = LiveFaultOptions::builder(RECOVERY_SEED, 1e15)
        .restrict_to(vec![RegionRole::DataEcc])
        .build()
        .expect("valid fault options");
    op(&mut ops, t, "sim.armed_idle_run", 1, || {
        case_run(s, Some(idle))
    });
    for (i, (mean, scrub)) in sweeps::recovery_grid().into_iter().enumerate() {
        // The recovery grid's cell shape: single-bit strikes on the data
        // regions, optional scrub daemon.
        let mut b = LiveFaultOptions::builder(RECOVERY_SEED, mean)
            .mbu(MbuDistribution::new(1.0, 0.0, 0.0, 0.0))
            .restrict_to(vec![RegionRole::DataEcc, RegionRole::DataParity]);
        if let Some(interval) = scrub {
            b = b.scrub_interval(interval);
        }
        let opts = b.build().expect("valid fault options");
        let run = op(&mut ops, t, "sim.strike_run", 10 + i as u64, || {
            case_run(s, Some(opts))
        });
        r.grid.push(RecoveryCell { mean, scrub, run });
    }
    for (i, (kernel, cores, kind)) in sweeps::multicore_grid().into_iter().enumerate() {
        let run = op(&mut ops, t, "sim.multi_run", 100 + i as u64, || {
            let entry = find_multicore(kernel).expect("grid names registered kernels");
            let mut w = entry.build(cores, None);
            let structure = match kind {
                StructureKind::Ftspm => SpmStructure::ftspm(),
                StructureKind::PureSram => SpmStructure::pure_sram(),
                StructureKind::PureStt => SpmStructure::pure_stt(),
            };
            let opts = LiveFaultOptions::builder(MULTICORE_FAULT_SEED, MULTICORE_STRIKE_MEAN)
                .restrict_to(vec![
                    RegionRole::DataStt,
                    RegionRole::DataEcc,
                    RegionRole::DataParity,
                ])
                .scrub_interval(20_000)
                .build()
                .expect("valid fault options");
            RunBuilder::new()
                .workload_multi(w.as_mut())
                .cores(cores)
                .structure(&structure, kind)
                .optimize(OptimizeFor::Reliability)
                .faults(opts)
                .run_multi()
        });
        r.multicore.push(MulticoreCell {
            kernel,
            cores,
            structure: kind,
            run,
        });
    }
    t.exit();

    let mbu = MbuDistribution::default();
    t.enter("faults.campaigns", 0);
    for (i, image) in s.images.iter().enumerate() {
        let cseed = derive_seed(seed, 20 + i as u64);
        let plain = op(&mut ops, t, "faults.campaign", 200 + i as u64, || {
            run_campaign(image, mbu, CAMPAIGN_STRIKES, cseed)
        });
        let inter = op(&mut ops, t, "faults.interleaved", 210 + i as u64, || {
            run_campaign_interleaved(image, mbu, WAYS, CAMPAIGN_STRIKES, cseed)
        });
        r.campaigns.push(plain);
        r.campaigns.push(inter);
    }
    let sseed = derive_seed(seed, 30);
    r.scrub = op(&mut ops, t, "faults.scrub_study", 220, || {
        run_scrub_study(&s.images[0], mbu, SCRUB_STRIKES, SCRUB_INTERVALS, sseed)
    });
    t.exit();
    r.op_ms = ops;
    r
}

/// Times the ECC codecs over the fixed word set: SEC-DED encode, SEC-DED
/// decode of single-bit-flipped codewords, parity encode + decode.
/// Returns ns per word for each.
fn ecc_probe(words: &[u32], t: &mut Tracer) -> [f64; 3] {
    let n = words.len() as f64;
    t.enter("ecc.secded_encode", 0);
    let t0 = Instant::now();
    let coded: Vec<u128> = words
        .iter()
        .map(|&w| HAMMING_32.encode(u64::from(w)))
        .collect();
    let encode = t0.elapsed().as_nanos() as f64 / n;
    t.exit();
    t.enter("ecc.secded_decode", 0);
    let t0 = Instant::now();
    let mut wrong = 0usize;
    for (i, (&c, &w)) in coded.iter().zip(words).enumerate() {
        let flipped = HAMMING_32.flip_bit(c, i as u32 % HAMMING_32.stored_bits());
        if black_box(HAMMING_32.decode(flipped)).data != u64::from(w) {
            wrong += 1;
        }
    }
    let decode = t0.elapsed().as_nanos() as f64 / n;
    t.exit();
    t.enter("ecc.parity", 0);
    let t0 = Instant::now();
    for &w in words {
        if black_box(ParityWord::encode(w)).decode().data != w {
            wrong += 1;
        }
    }
    let parity = t0.elapsed().as_nanos() as f64 / n;
    t.exit();
    assert_eq!(wrong, 0, "codec round trip failed");
    [encode, decode, parity]
}

fn committed_rows(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .skip(1)
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = repeated_setup(|| setup(cfg.seed));
    out.set("setup_s", setup_s);

    let mut tracer = Tracer::new(Instant::now());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut op_ms = Vec::new();
    let mut first: Option<PassResult> = None;
    let mut traced_results: Option<PassResult> = None;
    let mut sweep_s = Vec::new();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || start.elapsed() < cfg.seconds {
        let tracing = cfg.trace && pass % 2 == 1;
        let mut off = Tracer::disabled();
        let t = if tracing { &mut tracer } else { &mut off };
        let t0 = Instant::now();
        let r = one_pass(&mut s, cfg.seed, t);
        let pass_s = t0.elapsed().as_secs_f64();
        (if tracing { &mut traced } else { &mut untraced }).push(pass_s);
        let ops = r.op_ms.len() as u64;
        out.attempted += ops;
        if !tracing {
            // Every pass runs the same operations in the same order.
            op_ms.resize(r.op_ms.len(), Vec::new());
            for (samples, &ms) in op_ms.iter_mut().zip(&r.op_ms) {
                samples.push(ms);
            }
            // The live-injection share of the pass (the campaigns are
            // the last five operations).
            sweep_s.push(r.op_ms[..r.op_ms.len() - 5].iter().sum::<f64>() / 1e3);
        }
        match &first {
            None => first = Some(r),
            Some(f) => {
                let same = f.digest() == r.digest();
                out.check(same, || {
                    format!("pass {pass}: fault results differ from pass 0")
                });
                out.failed += if same { 0 } else { ops };
                if tracing {
                    traced_results = Some(r);
                }
            }
        }
        pass += 1;
    }
    let first = first.expect("MIN_PASSES >= 1");
    check_first(&mut out, &first);

    let pass_s = stats::sum_of_fastest(&op_ms).expect("ops ran") / 1e3;
    out.set("pass_s", pass_s);
    out.set(
        "op_p50_ms",
        stats::median_of_fastest(&op_ms).expect("ops ran"),
    );
    let tail = stats::tail(&op_ms.concat()).expect("ops ran");
    let sweep = stats::median(&sweep_s).expect("untraced passes ran");
    let campaign_rate = campaign_rate(&first);
    out.note(format!(
        "fault_sweep_s {sweep:.6} s; campaign_mstrikes_per_s {campaign_rate:.4} M/s; \
         whole untraced passes: {}; op tail {:.4} ms = p{} of {} operations",
        stats::summary(&untraced),
        tail.value,
        tail.pct,
        tail.samples
    ));

    if cfg.trace {
        let ecc = ecc_probe(&s.words, &mut tracer);
        let spans = tracer.into_spans();
        let r = traced_results.as_ref().unwrap_or(&first);
        layer_metrics(&mut out, &spans, traced.len(), r);
        out.set("faults.sweep_s", sweep);
        out.set("faults.campaign_mstrikes_per_s", campaign_rate);
        out.set("ecc.secded_encode_ns", ecc[0]);
        out.set("ecc.secded_decode_ns", ecc[1]);
        out.set("ecc.parity_ns", ecc[2]);
        crate::tracing_overhead(&mut out, &untraced, &traced);
        crate::write_spans(&mut out, "fault_storm", cfg.seed, &spans);
    }
    out
}

/// Campaign strikes decoded per host second (millions), from the pass's
/// campaign operations.
fn campaign_rate(r: &PassResult) -> f64 {
    let n = r.op_ms.len();
    let campaign_ms: f64 = r.op_ms[n - 5..n - 1].iter().sum();
    let strikes: u64 = r.campaigns.iter().map(|c| c.strikes).sum();
    strikes as f64 / (campaign_ms / 1e3) / 1e6
}

fn check_first(out: &mut Outcome, r: &PassResult) {
    let clean_ok = r.clean.as_ref().is_some_and(|c| c.checksum_ok);
    out.check(clean_ok, || "clean case-study checksum failed".into());
    // Struck runs may legitimately end with a bad checksum (an SDC
    // escaped); they are checked against the committed rows instead.
    let grid: Vec<String> = r.grid.iter().map(sweeps::recovery_csv_row).collect();
    out.check(grid == committed_rows(COMMITTED_RECOVERY_CSV), || {
        format!("recovery grid rows differ from {COMMITTED_RECOVERY_CSV}")
    });
    let multi: Vec<String> = r.multicore.iter().map(sweeps::multicore_csv_row).collect();
    out.check(multi == committed_rows(COMMITTED_MULTICORE_CSV), || {
        format!("multicore rows differ from {COMMITTED_MULTICORE_CSV}")
    });
}

fn layer_metrics(out: &mut Outcome, spans: &[span::Span], passes: usize, r: &PassResult) {
    let totals = span::by_name(spans);
    // (total ns, count) of a span name.
    let total = |name: &str| {
        totals
            .get(name)
            .map_or((0.0, 0.0), |&(_, t, n)| (t as f64, n as f64))
    };
    let mean_ms = |name: &str| {
        let (t, n) = total(name);
        if n == 0.0 {
            0.0
        } else {
            t / n / 1e6
        }
    };
    let clean = mean_ms("sim.clean_run");
    let strike = mean_ms("sim.strike_run");
    out.set("sim.clean_run_ms", clean);
    out.set("sim.armed_idle_run_ms", mean_ms("sim.armed_idle_run"));
    out.set("sim.strike_run_ms", strike);
    out.set("sim.fault_overhead_x", strike / clean);
    out.set("sim.multi_run_ms", mean_ms("sim.multi_run"));
    let strikes_of = |name: &str| {
        let (t, _) = total(name);
        let campaigns = (passes * 2) as f64;
        t / (campaigns * CAMPAIGN_STRIKES as f64)
    };
    out.set(
        "faults.campaign_ns_per_strike",
        strikes_of("faults.campaign"),
    );
    out.set(
        "faults.interleaved_ns_per_strike",
        strikes_of("faults.interleaved"),
    );
    out.set(
        "faults.scrub_study_s",
        total("faults.scrub_study").0 / 1e9 / passes as f64,
    );

    // Simulated counts, summed over the recovery grid.
    let stats: Vec<_> = r.grid.iter().filter_map(|c| c.run.recovery).collect();
    let sum = |f: &dyn Fn(&ftspm_sim::FaultStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    out.set("faults.live.strikes", sum(&|s| s.strikes));
    out.set("faults.live.corrections", sum(&|s| s.corrections));
    out.set("faults.live.due_traps", sum(&|s| s.due_traps));
    out.set("faults.live.sdc_escapes", sum(&|s| s.sdc_escapes));
    out.set("faults.live.scrub_passes", sum(&|s| s.scrub_passes));
    out.set(
        "faults.live.quarantined_lines",
        sum(&|s| s.quarantined_lines),
    );
    let cycles: u64 = r.grid.iter().map(|c| c.run.cycles).sum();
    out.set(
        "faults.live.recovery_cycle_share",
        sum(&|s| s.recovery_cycles) / cycles as f64,
    );
    let coh = |f: &dyn Fn(&MulticoreCell) -> u64| r.multicore.iter().map(f).sum::<u64>() as f64;
    out.set(
        "coherence.invalidations",
        coh(&|c| c.run.coherence.invalidations),
    );
    out.set(
        "coherence.shared_block_faults",
        coh(&|c| c.run.coherence.shared_block_faults),
    );
}
