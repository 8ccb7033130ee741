//! Host-time benchmark of the FTSPM reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_suite --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: the correctness checks compare
//! against the committed `results/*.csv`. Three workloads:
//!
//! - `paper_suite` — the paper's clean evaluation (profile → MDA → FTSPM,
//!   pure-SRAM and pure-STT runs → Figs. 5–8 and the suite CSV);
//! - `fault_storm` — live fault injection on the case study and the
//!   multicore kernels, plus Monte Carlo strike campaigns;
//! - `serve_mix` — open-loop HTTP traffic against an in-process server.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that attributes time to layers
//! (spans are written to `perfbench/out/`). The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. A failed
//! correctness check exits 1.

mod load;
mod serve_mix;
mod span;
mod stats;
mod storm;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;
/// A seed never used while the benchmark was tuned; claims of a gain
/// must also hold at it.
pub const HELD_OUT_SEED: u64 = 0x5EED_0B5E;
/// Setups per run — at least `MIN_SETUPS`, and more while they fit in
/// `SETUP_BUDGET`; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// `FTSPM_THREADS` for the simulation workloads: one thread, so host
/// time is per-core simulator speed and not the box's contention.
pub const SIM_THREADS: usize = 1;

/// End-to-end metrics (tracing off), with units. Every workload reports
/// all of them; each workload defines its pass and its operations.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms")];

/// Per-layer metrics (traced run), with units. A layer the workload does
/// not drive reports 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("process.peak_rss_mb", "MB"),
    ("tracing.overhead_pct", "%"),
    ("tracing.untraced_pass_s", "s"),
    ("profile.self_s", "s"),
    ("profile.ns_per_instr", "ns"),
    ("mda.self_s", "s"),
    ("sim.run_ftspm_s", "s"),
    ("sim.run_pure_sram_s", "s"),
    ("sim.run_pure_stt_s", "s"),
    ("sim.ns_per_instr", "ns"),
    ("sim.instr", "count"),
    ("sim.cycles", "count"),
    ("report.render_s", "s"),
    ("accuracy.vuln_ratio_vs_secded", "x"),
    ("accuracy.dyn_energy_saving_vs_sram", "%"),
    ("accuracy.dyn_energy_saving_vs_stt", "%"),
    ("sim.clean_run_ms", "ms"),
    ("sim.armed_idle_run_ms", "ms"),
    ("sim.strike_run_ms", "ms"),
    ("sim.fault_overhead_x", "x"),
    ("faults.live.strikes", "count"),
    ("faults.live.corrections", "count"),
    ("faults.live.due_traps", "count"),
    ("faults.live.sdc_escapes", "count"),
    ("faults.live.scrub_passes", "count"),
    ("faults.live.quarantined_lines", "count"),
    ("faults.live.recovery_cycle_share", "ratio"),
    ("sim.multi_run_ms", "ms"),
    ("coherence.invalidations", "count"),
    ("coherence.shared_block_faults", "count"),
    ("faults.sweep_s", "s"),
    ("faults.campaign_ns_per_strike", "ns"),
    ("faults.interleaved_ns_per_strike", "ns"),
    ("faults.campaign_mstrikes_per_s", "M/s"),
    ("faults.scrub_study_s", "s"),
    ("ecc.secded_encode_ns", "ns"),
    ("ecc.secded_decode_ns", "ns"),
    ("ecc.parity_ns", "ns"),
    ("serve.http_parse_us", "us"),
    ("serve.job_decode_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.job_run_ms.cold", "ms"),
    ("serve.job_run_ms.multicore", "ms"),
    ("serve.job_run_ms.replay", "ms"),
    ("serve.wait_io_ms.warm", "ms"),
    ("serve.wait_io_ms.cold", "ms"),
    ("serve.wait_io_ms.multicore", "ms"),
    ("serve.wait_io_ms.replay", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.refused", "count"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p99_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.fail_ratio", "ratio"),
    ("serve.batch8_p50_ms", "ms"),
    ("serve.async_p50_ms", "ms"),
    ("serve.multicore_p50_ms", "ms"),
    ("trace.upload_p50_ms", "ms"),
    ("trace.replay_p50_ms", "ms"),
    ("trace.record_ms", "ms"),
    ("trace.fit_ms", "ms"),
    ("load.late_p99_ms", "ms"),
    ("load.closed_pass_rps", "1/s"),
    ("serve.requests", "count"),
];

/// What one invocation asked for.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed; the program only ever sees inputs derived from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures; any entry fails the run.
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a detail line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Runs `f` at least [`MIN_SETUPS`] times and until [`SETUP_BUDGET`] has
/// gone by (at most [`MAX_SETUPS`]), returning the last result and the
/// median setup time in seconds.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < MIN_SETUPS || (start.elapsed() < SETUP_BUDGET && times.len() < MAX_SETUPS) {
        // Drop the previous setup's state untimed, and before the next
        // setup, so peak memory holds one setup's state.
        drop(last.take());
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (
        last.expect("MIN_SETUPS >= 1"),
        stats::median(&times).expect("MIN_SETUPS >= 1"),
    )
}

/// Reports the traced run's overhead: fastest traced whole pass against
/// the fastest untraced one, which is also reported as the base.
pub fn tracing_overhead(out: &mut Outcome, untraced: &[f64], traced: &[f64]) {
    let base = stats::fastest(untraced).expect("untraced passes ran");
    let with = stats::fastest(traced).expect("traced passes ran");
    out.set("tracing.untraced_pass_s", base);
    out.set("tracing.overhead_pct", 100.0 * (with - base) / base);
}

/// Directory the traced run writes its spans to.
pub const SPAN_DIR: &str = "perfbench/out";

/// Writes the traced run's spans as CSV under [`SPAN_DIR`]; a write
/// failure fails the run.
pub fn write_spans(out: &mut Outcome, workload: &str, seed: u64, spans: &[span::Span]) {
    let path = format!("{SPAN_DIR}/{workload}-seed{seed}.spans.csv");
    let written =
        std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, span::to_csv(spans)));
    match written {
        Ok(()) => out.note(format!("{} spans written to {path}", spans.len())),
        Err(e) => out.failures.push(format!("cannot write {path}: {e}")),
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One line of `cmd args…` output, or `unknown`. The child is waited for.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run-metadata stamp printed with every result.
fn metadata(cfg: &Config, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED},\
         \"ftspm_threads\":{SIM_THREADS},\"serve_workers\":{},\"cpu\":{},\"rustc\":{},\
         \"profile\":{},\"git_sha\":{}}}",
        json_str(workload),
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace),
        serve_mix::workers(),
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["-V"])),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected u64"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad("expected seconds"))?;
                if s == 0 {
                    return Err(bad("must be >= 1"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Config {
            seed: seed.unwrap_or(DEFAULT_SEED),
            seconds: seconds.unwrap_or(Duration::from_secs(20)),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <paper_suite|fault_storm|serve_mix> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Pinned, never inherited: the simulators' par executor reads it.
    std::env::set_var("FTSPM_THREADS", SIM_THREADS.to_string());
    if !std::path::Path::new(suite::COMMITTED_SUITE_CSV).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            suite::COMMITTED_SUITE_CSV
        );
        return ExitCode::from(2);
    }
    let mut outcome = match workload.as_str() {
        "paper_suite" => suite::run(&cfg),
        "fault_storm" => storm::run(&cfg),
        "serve_mix" => serve_mix::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let rss = peak_rss_mb();
    outcome.check(rss.is_some(), || "cannot read VmHWM".to_string());
    let rss = rss.unwrap_or(0.0);
    outcome.note(format!("peak_rss_mb {rss} MB"));
    outcome.set("process.peak_rss_mb", rss);
    println!("# meta {}", metadata(&cfg, &workload));
    for line in &outcome.notes {
        println!("# {line}");
    }
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // An idle layer did no work in this workload.
            None if cfg.trace => 0.0,
            None => {
                outcome
                    .failures
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.failures.push(format!("metric {name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} {value} {unit}");
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        );
    }
    for f in &outcome.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
