//! `serve_mix`: open-loop HTTP traffic against an in-process `Server`.
//!
//! Setup records and fits two kernel traces, boots the server, uploads
//! the traces and primes the result cache with the warm specs. The timed
//! phase then offers a fixed class mix at a few fixed rates (open loop,
//! timed from each request's due time), and finally runs one cycle of
//! the mix after another, back to back on one connection. The generator
//! uses at most `nproc` threads, each with one keep-alive connection.
//!
//! Classes: warm repeat specs (cache hits); cold unique-seed synthetic
//! jobs (miss → simulate → insert → eventual LRU eviction); 8-job
//! `/v1/batch` (6 warm + 2 cold); async `/v1/jobs` submit + poll of a
//! cold job; `"cores":2` reduction jobs; `POST /v1/traces` re-uploads;
//! and trace-replay jobs.
//!
//! Pass = one cycle of the mix, [`PASS_REQUESTS`] requests, reported as
//! the sum over its positions of each position's fastest service time;
//! operation = one request of the cycle. The open-loop latencies per
//! class and rate are per-layer figures.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftspm_serve::{http, CacheKey, JobSpec, ServeConfig, Server};
use ftspm_testkit::{derive_seed, ephemeral_listener, HttpClient, HttpReply};
use ftspm_trace::{fit, record, Trace, TraceId, TraceResolver};
use ftspm_workloads::find;

use crate::load::{self, Observed, Planned};
use crate::span::Tracer;
use crate::{repeated_setup, stats, Config, Outcome};

/// Offered rates of the open-loop steps, requests per second.
const RATES: [f64; 4] = [60.0, 120.0, 240.0, 480.0];
/// The rate whose latencies are the reported operation latencies.
const REFERENCE_RATE: f64 = 60.0;
/// Shares of `--seconds` spent at the reference rate and at each other
/// rate; the rest goes to the closed-loop passes.
const REFERENCE_SHARE: f64 = 0.4;
const OTHER_RATE_SHARE: f64 = 0.2 / 3.0;
/// Tail-latency limit of the max-rate test.
const LIMIT_MS: f64 = 100.0;
/// Requests per closed-loop pass: one cycle of the mix.
const PASS_REQUESTS: usize = MIX.len();
/// Result-cache entries: small enough that cold inserts evict.
const CACHE_CAPACITY: usize = 48;
/// Every Nth request of a class has its body checked in-process.
const SAMPLE_EVERY: u64 = 7;
/// Pause between polls of a pending async job.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Socket timeout of the generator's connections.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Kernels recorded as traces (uploaded, then replayed).
const TRACE_KERNELS: [&str; 2] = ["crc32", "bitcount"];
/// Warm specs, primed in setup and then always cache hits.
const WARM: [&str; 6] = [
    r#"{"workload":"crc32"}"#,
    r#"{"workload":"bitcount","structure":"pure_sram"}"#,
    r#"{"workload":"adpcm","structure":"pure_stt"}"#,
    r#"{"workload":{"name":"qsort","seed":7},"optimize":"performance"}"#,
    r#"{"workload":"stringsearch"}"#,
    r#"{"workload":{"synthetic":{"buffer_words":256,"accesses":20000,"seed":1}}}"#,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Warm,
    Cold,
    Batch8,
    Async,
    Multicore,
    Upload,
    Replay,
}

impl Class {
    const ALL: [Class; 7] = [
        Class::Warm,
        Class::Cold,
        Class::Batch8,
        Class::Async,
        Class::Multicore,
        Class::Upload,
        Class::Replay,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Cold => "cold",
            Class::Batch8 => "batch8",
            Class::Async => "async",
            Class::Multicore => "multicore",
            Class::Upload => "upload",
            Class::Replay => "replay",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Warm => "serve.request.warm",
            Class::Cold => "serve.request.cold",
            Class::Batch8 => "serve.request.batch8",
            Class::Async => "serve.request.async",
            Class::Multicore => "serve.request.multicore",
            Class::Upload => "trace.upload",
            Class::Replay => "trace.replay",
        }
    }
}

/// One 20-request cycle of the class mix: 40 % warm hits, 35 % cold,
/// 5 % each of the rest — so the median request of a cycle is a cold
/// job, whose cost is the simulator's rather than the wake-up latency
/// of a sub-millisecond hit.
const MIX: [Class; 20] = {
    use Class::*;
    [
        Warm, Cold, Warm, Multicore, Cold, Warm, Replay, Cold, Warm, Batch8, Cold, Warm, Cold,
        Async, Cold, Warm, Upload, Cold, Warm, Warm,
    ]
};

/// Server worker threads, and generator connections: one per core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// A recorded kernel trace, as uploaded.
struct RecordedTrace {
    trace: Arc<Trace>,
    bytes: Vec<u8>,
    id: TraceId,
}

/// The inputs every request is built from.
struct Inputs {
    seed: u64,
    traces: Vec<RecordedTrace>,
}

impl TraceResolver for Inputs {
    fn resolve(&self, id: TraceId) -> Option<Arc<Trace>> {
        self.traces
            .iter()
            .find(|t| t.id == id)
            .map(|t| Arc::clone(&t.trace))
    }
}

fn cold_spec(seed: u64) -> String {
    format!(
        r#"{{"workload":{{"synthetic":{{"buffer_words":256,"accesses":20000,"seed":{seed}}}}}}}"#
    )
}

/// A request: method, path, body.
struct Req {
    method: &'static str,
    path: String,
    body: Vec<u8>,
}

impl Inputs {
    fn job_seed(&self, seq: u64, k: u64) -> u64 {
        derive_seed(self.seed, seq * 4 + k)
    }

    fn request(&self, class: Class, seq: u64) -> Req {
        let post = |path: &str, body: String| Req {
            method: "POST",
            path: path.to_string(),
            body: body.into_bytes(),
        };
        match class {
            Class::Warm => post(
                "/v1/run",
                WARM[(seq % WARM.len() as u64) as usize].to_string(),
            ),
            Class::Cold => post("/v1/run", cold_spec(self.job_seed(seq, 0))),
            Class::Batch8 => post("/v1/batch", format!("[{}]", self.batch(seq).join(","))),
            Class::Async => post("/v1/jobs", cold_spec(self.job_seed(seq, 0))),
            Class::Multicore => post(
                "/v1/run",
                format!(
                    r#"{{"workload":{{"name":"reduction","seed":{}}},"cores":2}}"#,
                    self.job_seed(seq, 0)
                ),
            ),
            Class::Upload => Req {
                method: "POST",
                path: "/v1/traces".to_string(),
                body: self.traces[(seq % 2) as usize].bytes.clone(),
            },
            // A distinct (never binding) cycle budget gives every replay
            // its own cache address, so each one really replays.
            Class::Replay => post(
                "/v1/run",
                format!(
                    r#"{{"workload":{{"trace":"{}"}},"deadline_cycles":{}}}"#,
                    self.traces[(seq % 2) as usize].id.hex(),
                    1_000_000_000_000 + seq
                ),
            ),
        }
    }

    /// The exact bytes the generator's client puts on the wire.
    fn wire_bytes(req: &Req, addr: SocketAddr) -> Vec<u8> {
        let mut bytes = format!(
            "{} {} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
            req.method,
            req.path,
            req.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(&req.body);
        bytes
    }

    /// The body the server must answer `class`/`seq` with, computed
    /// in-process through `JobSpec::run_with` (`None` for uploads).
    fn expected_body(&self, class: Class, seq: u64) -> Option<String> {
        let run = |body: &[u8]| {
            JobSpec::parse(body)
                .expect("generator specs are valid")
                .run_with(self)
                .expect("generator specs run")
                .body
        };
        match class {
            Class::Upload => None,
            Class::Batch8 => {
                let bodies: Vec<String> =
                    self.batch(seq).iter().map(|s| run(s.as_bytes())).collect();
                Some(format!("[{}]", bodies.join(",")))
            }
            _ => Some(run(&self.request(class, seq).body)),
        }
    }

    /// The specs of batch `seq`: six warm, two cold.
    fn batch(&self, seq: u64) -> Vec<String> {
        let mut items: Vec<String> = (0..6)
            .map(|k| WARM[((seq + k) % WARM.len() as u64) as usize].to_string())
            .collect();
        items.push(cold_spec(self.job_seed(seq, 0)));
        items.push(cold_spec(self.job_seed(seq, 1)));
        items
    }
}

/// A response kept for the in-process body check.
struct Sample {
    class: Class,
    seq: u64,
    body: Vec<u8>,
}

/// One generator connection (keep-alive; reopened whenever the server
/// closes it, e.g. at its per-connection request bound).
struct Conn {
    addr: SocketAddr,
    client: HttpClient,
    tracer: Tracer,
    /// HTTP requests this connection sent (polls included).
    sent: u64,
    samples: Vec<Sample>,
}

fn connect(addr: SocketAddr) -> HttpClient {
    HttpClient::connect_with_timeout(addr, IO_TIMEOUT).expect("connect to the in-process server")
}

impl Conn {
    fn open(addr: SocketAddr, tracer: Tracer) -> Conn {
        Conn {
            addr,
            client: connect(addr),
            tracer,
            sent: 0,
            samples: Vec::new(),
        }
    }

    fn call(&mut self, req: &Req) -> Option<HttpReply> {
        self.sent += 1;
        let reply = self.client.request(req.method, &req.path, &req.body).ok();
        if reply
            .as_ref()
            .is_none_or(|r| r.header("connection") == Some("close"))
        {
            self.client = connect(self.addr);
        }
        reply
    }

    /// Performs one planned request; returns when it was sent and
    /// whether it succeeded.
    fn perform(&mut self, inputs: &Inputs, p: &Planned<Class>) -> (Instant, bool) {
        let req = inputs.request(p.class, p.seq);
        let sent = Instant::now();
        let mut reply = self.call(&req);
        let mut ok = match p.class {
            Class::Async => reply.as_ref().is_some_and(|r| r.status == 202),
            _ => reply.as_ref().is_some_and(|r| r.status == 200),
        };
        if ok && p.class == Class::Async {
            let id = reply
                .as_ref()
                .and_then(|r| job_id(r.body_str()))
                .unwrap_or_default();
            let poll = Req {
                method: "GET",
                path: format!("/v1/jobs/{id}"),
                body: Vec::new(),
            };
            loop {
                reply = self.call(&poll);
                match &reply {
                    Some(r) if r.status == 200 && r.body_str().starts_with("{\"job\":") => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Some(r) => {
                        ok = r.status == 200;
                        break;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        self.tracer
            .record(p.class.span(), p.seq, sent, Instant::now());
        if ok && (p.class == Class::Warm || p.seq.is_multiple_of(SAMPLE_EVERY)) {
            if let Some(r) = reply {
                self.samples.push(Sample {
                    class: p.class,
                    seq: p.seq,
                    body: r.body,
                });
            }
        }
        (sent, ok)
    }
}

/// The job id of a `202` submit body `{"job":"<id>","state":…}`.
fn job_id(body: &str) -> Option<String> {
    let rest = body.strip_prefix("{\"job\":\"")?;
    Some(rest[..rest.find('"')?].to_string())
}

struct Setup {
    server: Server,
    inputs: Inputs,
    /// Requests sent to this server during setup.
    sent: u64,
    /// Wire bodies of the warm specs, from priming.
    warm_bodies: Vec<Vec<u8>>,
    record_ms: f64,
    fit_ms: f64,
    upload_ok: bool,
}

fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    let mut traces = Vec::new();
    let mut fit_ns = 0u128;
    for name in TRACE_KERNELS {
        let entry = find(name).expect("registered kernel");
        // Default inputs: the traces (and so setup) are the same at
        // every seed.
        let mut w = entry.build(None);
        let trace = record(w.as_mut()).expect("suite kernels record");
        let f0 = Instant::now();
        std::hint::black_box(fit(&trace));
        fit_ns += f0.elapsed().as_nanos();
        let bytes = trace.encode();
        let id = TraceId::of(&bytes);
        traces.push(RecordedTrace {
            trace: Arc::new(trace),
            bytes,
            id,
        });
    }
    let fit_ms = fit_ns as f64 / 1e6;
    let record_ms = t0.elapsed().as_secs_f64() * 1e3 - fit_ms;

    let (listener, _) = ephemeral_listener();
    let config = ServeConfig {
        workers: NonZeroUsize::new(workers()).expect("nonzero"),
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    };
    let server = Server::start(listener, config).expect("boot the server");
    let inputs = Inputs { seed, traces };
    let mut conn = Conn::open(server.addr(), Tracer::disabled());
    let mut upload_ok = true;
    for t in &inputs.traces {
        let reply = conn.call(&Req {
            method: "POST",
            path: "/v1/traces".to_string(),
            body: t.bytes.clone(),
        });
        upload_ok &= reply.is_some_and(|r| r.status == 200 && r.body_str().contains(&t.id.hex()));
    }
    let warm_bodies = WARM
        .iter()
        .map(|spec| {
            conn.call(&Req {
                method: "POST",
                path: "/v1/run".to_string(),
                body: spec.as_bytes().to_vec(),
            })
            .filter(|r| r.status == 200)
            .map(|r| r.body)
            .unwrap_or_default()
        })
        .collect();
    Setup {
        sent: conn.sent,
        server,
        inputs,
        warm_bodies,
        record_ms,
        fit_ms,
        upload_ok,
    }
}

/// Per-class latency summary of a set of observations.
fn by_class(obs: &[Observed<Class>]) -> BTreeMap<Class, Vec<f64>> {
    let mut m: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for o in obs.iter().filter(|o| o.ok) {
        m.entry(o.class).or_default().push(o.latency_ms);
    }
    m
}

/// `/metrics` counters by name.
fn counters(csv: &str) -> BTreeMap<String, u64> {
    csv.lines()
        .filter_map(|l| {
            let mut f = l.split(',');
            let name = f.next()?;
            (f.next()? == "counter").then_some(())?;
            let value = f.nth(1)?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s) = repeated_setup(|| setup(cfg.seed));
    out.set("setup_s", setup_s);
    out.check(s.upload_ok, || "trace upload failed in setup".into());
    let addr = s.server.addr();
    let gen = workers();
    let origin = Instant::now();

    let mut sent = s.sent;
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let mut seq = 0u64;
    let mut steps = Vec::new();
    let mut all_obs = Vec::new();
    let mut reference = Vec::new();
    let mut run_plan = |plan: &[Planned<Class>], connections: usize, tracing: bool| {
        let (obs, conns) = load::run_open_loop(
            plan,
            connections,
            |_| {
                let tracer = if tracing {
                    Tracer::new(origin)
                } else {
                    Tracer::disabled()
                };
                Conn::open(addr, tracer)
            },
            |c, p| c.perform(&s.inputs, p),
        );
        for c in conns {
            sent += c.sent;
            samples.extend(c.samples);
            spans.extend(c.tracer.into_spans());
        }
        obs
    };

    // Open-loop rate steps.
    for rate in RATES {
        let share = if rate == REFERENCE_RATE {
            REFERENCE_SHARE
        } else {
            OTHER_RATE_SHARE
        };
        let step = cfg.seconds.as_secs_f64() * share;
        let count = ((rate * step).round() as usize).max(MIX.len());
        let plan = load::schedule(rate, count, &MIX, seq);
        seq += count as u64;
        let obs = run_plan(&plan, gen, false);
        let ok = load::sustained(&obs, LIMIT_MS);
        let late = stats::tail(&obs.iter().map(|o| o.own_lag_ms).collect::<Vec<_>>());
        let tail = stats::tail(&load::limit_samples(&obs)).expect("requests ran");
        let mut line = format!(
            "rate {rate} rps: {} sent, {} failed, p{} {:.3} ms over {}, backlog {}, sustained {ok}, generator late p{} {:.3} ms;",
            obs.len(),
            obs.iter().filter(|o| !o.ok).count(),
            tail.pct,
            tail.value,
            tail.samples,
            if load::backlog_grows(&obs, LIMIT_MS) { "grows" } else { "steady" },
            late.map_or(0.0, |t| t.pct),
            late.map_or(0.0, |t| t.value),
        );
        for c in Class::ALL {
            let n = obs.iter().filter(|o| o.class == c).count();
            let bad = obs.iter().filter(|o| o.class == c && !o.ok).count();
            line.push_str(&format!(" {} {}/{}", c.name(), n - bad, n));
        }
        out.note(line);
        steps.push((rate, ok));
        if rate == REFERENCE_RATE {
            reference = obs.clone();
        }
        all_obs.extend(obs);
    }

    // Closed-loop passes: cycles of the mix back to back on one
    // connection (one generator thread per block), so each request's
    // time is its own. `positions` holds each mix position's service
    // times across the untraced passes.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut positions = vec![Vec::new(); PASS_REQUESTS];
    let closed_time = cfg
        .seconds
        .mul_f64(1.0 - REFERENCE_SHARE - 3.0 * OTHER_RATE_SHARE);
    // A timed warm-up pass sizes the blocks; the traced run alternates
    // untraced and traced blocks.
    let t0 = Instant::now();
    let plan = load::schedule(f64::INFINITY, PASS_REQUESTS, &MIX, seq);
    seq += PASS_REQUESTS as u64;
    all_obs.extend(run_plan(&plan, 1, false));
    let blocks = if cfg.trace { 4 } else { 1 };
    let per_block = (closed_time.as_secs_f64() / t0.elapsed().as_secs_f64()) as usize / blocks;
    for block in 0..blocks {
        let tracing = block % 2 == 1;
        let n = per_block.max(3) * PASS_REQUESTS;
        let plan = load::schedule(f64::INFINITY, n, &MIX, seq);
        seq += n as u64;
        let obs = run_plan(&plan, 1, tracing);
        for pass in obs.chunks(PASS_REQUESTS) {
            let service: Vec<f64> = pass.iter().map(|o| o.latency_ms - o.queued_ms).collect();
            let secs = service.iter().sum::<f64>() / 1e3;
            (if tracing { &mut traced } else { &mut untraced }).push(secs);
            if !tracing {
                for (group, ms) in positions.iter_mut().zip(service) {
                    group.push(ms);
                }
            }
        }
        all_obs.extend(obs);
    }

    out.attempted = all_obs.len() as u64;
    out.failed = all_obs.iter().filter(|o| !o.ok).count() as u64;
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} requests failed"));

    let pass_s = stats::sum_of_fastest(&positions).expect("closed passes ran") / 1e3;
    out.set("pass_s", pass_s);
    out.set(
        "op_p50_ms",
        stats::median_of_fastest(&positions).expect("closed passes ran"),
    );
    let mut line = String::from("fastest service ms per pass by class:");
    for c in Class::ALL {
        let ms: f64 = MIX
            .iter()
            .zip(&positions)
            .filter(|(m, _)| **m == c)
            .filter_map(|(_, g)| stats::fastest(g))
            .sum();
        line.push_str(&format!(" {} {ms:.4}", c.name()));
    }
    out.note(line);
    let classes = by_class(&reference);
    let class_p50 = |c: Class| {
        classes
            .get(&c)
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0)
    };
    let class_tail = |c: Class| classes.get(&c).and_then(|v| stats::tail(v));
    let max_rps = load::max_sustained_rate(&steps);
    for c in [Class::Cold, Class::Warm] {
        if let Some(t) = class_tail(c) {
            out.note(format!(
                "serve_{}_p50_ms {:.4}; serve_{}_tail_ms {:.4} (p{} of {})",
                c.name(),
                class_p50(c),
                c.name(),
                t.value,
                t.pct,
                t.samples
            ));
        }
    }
    out.note(format!(
        "serve_max_rps {max_rps} (tail limit {LIMIT_MS} ms); serve_fail_ratio {}; \
         pass = {PASS_REQUESTS} requests back to back on one connection, {} untraced passes",
        out.failed as f64 / out.attempted.max(1) as f64,
        untraced.len()
    ));

    // In-process checks, outside every timed region.
    for (spec, wire) in WARM.iter().zip(&s.warm_bodies) {
        let want = JobSpec::parse(spec.as_bytes())
            .expect("warm spec parses")
            .run()
            .expect("warm spec runs")
            .body;
        out.check(want.as_bytes() == wire.as_slice(), || {
            format!("warm body differs in-process: {spec}")
        });
    }
    let mut checked = 0usize;
    for sample in &samples {
        let want = match sample.class {
            Class::Warm => Some(s.warm_bodies[(sample.seq % WARM.len() as u64) as usize].clone()),
            c => s
                .inputs
                .expected_body(c, sample.seq)
                .map(String::into_bytes),
        };
        if let Some(want) = want {
            checked += 1;
            out.check(want == sample.body, || {
                format!(
                    "{} request {} body differs in-process",
                    sample.class.name(),
                    sample.seq
                )
            });
        }
    }
    out.note(format!(
        "{checked} response bodies checked against in-process runs"
    ));

    // /metrics must reconcile with what the generator sent.
    let mut probe = Conn::open(addr, Tracer::disabled());
    let metrics = probe
        .call(&Req {
            method: "GET",
            path: "/metrics".to_string(),
            body: Vec::new(),
        })
        .map(|r| r.body_str().to_string())
        .unwrap_or_default();
    drop(probe);
    let m = counters(&metrics);
    let get = |k: &str| m.get(k).copied().unwrap_or(0);
    let jobs_sent = all_obs
        .iter()
        .map(|o| match o.class {
            Class::Batch8 => 8,
            Class::Upload => 0,
            _ => 1,
        })
        .sum::<u64>()
        + WARM.len() as u64;
    out.check(get("serve.requests") == sent, || {
        format!(
            "/metrics serve.requests {} != {sent} sent",
            get("serve.requests")
        )
    });
    let executed = get("serve.cache.hit") + get("serve.cache.miss");
    out.check(executed == jobs_sent, || {
        format!("/metrics hit+miss {executed} != {jobs_sent} jobs sent")
    });
    out.check(get("serve.refused") == 0, || {
        "server refused connections".into()
    });
    s.server.shutdown();

    if cfg.trace {
        crate::tracing_overhead(&mut out, &untraced, &traced);
        out.set("trace.record_ms", s.record_ms);
        out.set("trace.fit_ms", s.fit_ms);
        out.set("serve.max_rps", max_rps);
        out.set(
            "serve.fail_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.set("serve.cold_p50_ms", class_p50(Class::Cold));
        out.set("serve.warm_p50_ms", class_p50(Class::Warm));
        out.set(
            "serve.cold_p99_ms",
            class_tail(Class::Cold).map_or(0.0, |t| t.value),
        );
        out.set(
            "serve.warm_p99_ms",
            class_tail(Class::Warm).map_or(0.0, |t| t.value),
        );
        out.set("serve.batch8_p50_ms", class_p50(Class::Batch8));
        out.set("serve.async_p50_ms", class_p50(Class::Async));
        out.set("serve.multicore_p50_ms", class_p50(Class::Multicore));
        out.set("trace.upload_p50_ms", class_p50(Class::Upload));
        out.set("trace.replay_p50_ms", class_p50(Class::Replay));
        let late: Vec<f64> = all_obs.iter().map(|o| o.own_lag_ms).collect();
        out.set(
            "load.late_p99_ms",
            stats::tail(&late).map_or(0.0, |t| t.value),
        );
        out.set("load.closed_pass_rps", PASS_REQUESTS as f64 / pass_s);
        out.set("serve.requests", get("serve.requests") as f64);
        out.set("serve.cache_evictions", get("serve.cache.evict") as f64);
        out.set("serve.refused", get("serve.refused") as f64);
        out.set(
            "serve.cache_hit_ratio",
            get("serve.cache.hit") as f64 / executed as f64,
        );
        let mut t = Tracer::new(origin);
        probes(&mut out, &s.inputs, addr, seq, &mut t, &class_p50);
        spans.extend(t.into_spans());
        crate::write_spans(&mut out, "serve_mix", cfg.seed, &spans);
    }
    out
}

/// In-process per-layer probes on the generator's own request bytes:
/// HTTP parse, job decode, cache key, and the job run per class; the
/// wire latency left over is wait + I/O.
fn probes(
    out: &mut Outcome,
    inputs: &Inputs,
    addr: SocketAddr,
    first_seq: u64,
    t: &mut Tracer,
    wire_p50: &dyn Fn(Class) -> f64,
) {
    const REPS: u64 = 20;
    let mut parse = Vec::new();
    let mut decode = Vec::new();
    let mut key = Vec::new();
    let mut run_ms: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for i in 0..REPS {
        for class in [Class::Warm, Class::Cold, Class::Multicore, Class::Replay] {
            let seq = first_seq + i * 4 + class as u64;
            let req = inputs.request(class, seq);
            let bytes = Inputs::wire_bytes(&req, addr);
            t.enter("serve.http_parse", seq);
            let t0 = Instant::now();
            let parsed = http::read_request(&mut BufReader::new(bytes.as_slice()));
            parse.push(t0.elapsed().as_secs_f64() * 1e6);
            t.exit();
            let body = parsed.expect("generator requests parse").body;
            t.enter("serve.job_decode", seq);
            let t0 = Instant::now();
            let spec = JobSpec::parse(&body).expect("generator specs decode");
            decode.push(t0.elapsed().as_secs_f64() * 1e6);
            t.exit();
            t.enter("serve.cache_key", seq);
            let t0 = Instant::now();
            std::hint::black_box(CacheKey::of(&spec.canonical()));
            key.push(t0.elapsed().as_secs_f64() * 1e6);
            t.exit();
            if class != Class::Warm {
                t.enter("serve.job_run", seq);
                let t0 = Instant::now();
                std::hint::black_box(spec.run_with(inputs).expect("generator specs run"));
                run_ms
                    .entry(class)
                    .or_default()
                    .push(t0.elapsed().as_secs_f64() * 1e3);
                t.exit();
            }
        }
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let front_ms = (med(&parse) + med(&decode) + med(&key)) / 1e3;
    out.set("serve.http_parse_us", med(&parse));
    out.set("serve.job_decode_us", med(&decode));
    out.set("serve.cache_key_us", med(&key));
    let run_of = |c: Class| run_ms.get(&c).map_or(0.0, |v| med(v));
    out.set("serve.job_run_ms.cold", run_of(Class::Cold));
    out.set("serve.job_run_ms.multicore", run_of(Class::Multicore));
    out.set("serve.job_run_ms.replay", run_of(Class::Replay));
    out.set("serve.wait_io_ms.warm", wire_p50(Class::Warm) - front_ms);
    for (name, c) in [
        ("serve.wait_io_ms.cold", Class::Cold),
        ("serve.wait_io_ms.multicore", Class::Multicore),
        ("serve.wait_io_ms.replay", Class::Replay),
    ] {
        out.set(name, wire_p50(c) - front_ms - run_of(c));
    }
}
