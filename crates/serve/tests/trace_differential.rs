//! The trace ingestion loop, pinned end to end: record a real suite
//! kernel in-process, upload the encoded trace over `POST /v1/traces`,
//! replay it through `POST /v1/run` — and the served report is
//! byte-identical to running the same trace-backed spec in-process
//! through [`JobSpec::run_with`]. The fit path gets the same
//! treatment, plus the failure surface: unknown ids answer a typed
//! 422, damaged uploads a typed 400, re-uploads dedupe, and a full
//! trace table evicts its oldest upload.

use std::num::NonZeroUsize;
use std::sync::Arc;

use ftspm_serve::{JobSpec, ServeConfig, Server, TraceId, TraceTable};
use ftspm_testkit::{ephemeral_listener, http_request, par};
use ftspm_trace::record;
use ftspm_workloads::{registry, Synthetic, SyntheticConfig};

fn serve_at(workers: usize) -> Server {
    let (listener, _) = ephemeral_listener();
    Server::start(
        listener,
        ServeConfig {
            workers: NonZeroUsize::new(workers).expect("nonzero workers"),
            ..ServeConfig::default()
        },
    )
    .expect("boot")
}

/// Records the `bitcount` suite kernel (its encoded trace sits well
/// under the 1 MiB body cap) and returns `(encoded bytes, id)`.
fn recorded_kernel() -> (Vec<u8>, TraceId) {
    let entry = registry::find("bitcount").expect("suite kernel");
    let mut workload = entry.build(None);
    let trace = record(&mut *workload).expect("records");
    let bytes = trace.encode();
    let id = TraceId::of(&bytes);
    (bytes, id)
}

#[test]
fn uploaded_replay_is_byte_identical_to_in_process_at_any_pool_size() {
    let (bytes, id) = recorded_kernel();

    // The in-process truth: the same trace resolved from a local table.
    let mut table = TraceTable::new(4);
    let (trace, _tail) = ftspm_trace::Trace::decode(&bytes).expect("own encoding decodes");
    table.insert(id, Arc::new(trace));
    let replay_spec = format!(r#"{{"workload": {{"trace": "{id}"}}}}"#);
    let fit_spec = format!(r#"{{"workload": {{"fit": "{id}"}}, "metrics": true}}"#);
    let expected_replay = JobSpec::parse(replay_spec.as_bytes())
        .expect("decodes")
        .run_with(&table)
        .expect("replays")
        .body;
    let expected_fit = JobSpec::parse(fit_spec.as_bytes())
        .expect("decodes")
        .run_with(&table)
        .expect("fits")
        .body;

    for workers in [1, par::thread_count().get()] {
        let server = serve_at(workers);
        let upload = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("upload");
        assert_eq!(upload.status, 200, "{}", upload.body_str());
        assert!(
            upload.body_str().contains(&id.to_string()),
            "{}",
            upload.body_str()
        );
        assert!(upload.body_str().contains("\"state\":\"stored\""));

        let reply =
            http_request(server.addr(), "POST", "/v1/run", replay_spec.as_bytes()).expect("replay");
        assert_eq!(reply.status, 200, "{}", reply.body_str());
        assert_eq!(
            reply.body_str(),
            expected_replay,
            "served replay diverged from in-process (workers={workers})"
        );
        // The replayed report carries the source kernel's name and a
        // verified checksum — the replay reproduced every load the
        // recorded run observed.
        assert!(reply.body_str().contains("\"workload\":\"bitcount\""));
        assert!(reply.body_str().contains("\"checksum_ok\":true"));

        let fitted =
            http_request(server.addr(), "POST", "/v1/run", fit_spec.as_bytes()).expect("fit");
        assert_eq!(fitted.status, 200, "{}", fitted.body_str());
        assert_eq!(
            fitted.body_str(),
            expected_fit,
            "served fit diverged from in-process (workers={workers})"
        );

        let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        let csv = metrics.body_str();
        assert!(csv.contains("trace.uploaded,counter,,1"), "{csv}");
        assert!(csv.contains("trace.replayed,counter,,1"), "{csv}");
        assert!(csv.contains("trace.fitted,counter,,1"), "{csv}");
    }
}

#[test]
fn reuploads_dedupe_and_damage_is_typed() {
    let (bytes, id) = recorded_kernel();
    let server = serve_at(2);

    let first = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("first");
    assert_eq!(first.status, 200);
    let second = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("second");
    assert_eq!(second.status, 200);
    assert!(
        second.body_str().contains("\"state\":\"exists\""),
        "{}",
        second.body_str()
    );

    // Junk bytes: typed 400, counted as a rejection.
    let junk = http_request(server.addr(), "POST", "/v1/traces", b"not a trace").expect("junk");
    assert_eq!(junk.status, 400, "{}", junk.body_str());
    assert!(junk.body_str().contains("\"kind\":\"bad_trace\""));

    // A torn tail (valid prefix, cut upload): rejected too — replay
    // needs the complete op stream.
    let torn = &bytes[..bytes.len() - 100];
    let torn = http_request(server.addr(), "POST", "/v1/traces", torn).expect("torn");
    assert_eq!(torn.status, 400, "{}", torn.body_str());

    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("trace.uploaded,counter,,1"), "{csv}");
    assert!(csv.contains("trace.rejected,counter,,2"), "{csv}");

    // The stored trace still resolves after the failed uploads.
    let spec = format!(r#"{{"workload": {{"trace": "{id}"}}}}"#);
    let reply = http_request(server.addr(), "POST", "/v1/run", spec.as_bytes()).expect("run");
    assert_eq!(reply.status, 200, "{}", reply.body_str());
}

#[test]
fn unknown_trace_ids_answer_422_and_are_never_cached() {
    let server = serve_at(2);
    let (bytes, id) = recorded_kernel();
    let spec = format!(r#"{{"workload": {{"trace": "{id}"}}}}"#);

    // Running before uploading: a typed 422 naming the trace.
    let miss = http_request(server.addr(), "POST", "/v1/run", spec.as_bytes()).expect("miss");
    assert_eq!(miss.status, 422, "{}", miss.body_str());
    assert!(
        miss.body_str().contains("\"kind\":\"unresolved_workload\""),
        "{}",
        miss.body_str()
    );

    // The 422 was not cached: upload the trace and the *same spec*
    // (same content address, same cache key) now runs to a report.
    let upload = http_request(server.addr(), "POST", "/v1/traces", &bytes).expect("upload");
    assert_eq!(upload.status, 200);
    let hit = http_request(server.addr(), "POST", "/v1/run", spec.as_bytes()).expect("run");
    assert_eq!(hit.status, 200, "{}", hit.body_str());

    let metrics = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
    let csv = metrics.body_str();
    assert!(csv.contains("trace.unresolved,counter,,1"), "{csv}");
    assert!(csv.contains("serve.malformed.422,counter,,1"), "{csv}");
}

/// A short synthetic trace whose stamps end at `u64::MAX` — the
/// decoder accepts it, and fitting it must not overflow.
fn max_stamped_trace() -> Vec<u8> {
    let mut trace = record(&mut Synthetic::new(SyntheticConfig {
        accesses: 16,
        buffer_words: 32,
        ..SyntheticConfig::default()
    }))
    .expect("records");
    let shift = u64::MAX - trace.records.last().expect("ops recorded").cycle;
    for rec in &mut trace.records {
        rec.cycle += shift;
    }
    trace.encode()
}

#[test]
fn a_full_trace_table_evicts_the_oldest_upload_and_reuploads_restore_it() {
    let (listener, _) = ephemeral_listener();
    let config = ServeConfig {
        trace_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(listener, config).expect("boot");
    let post =
        |path: &str, body: &[u8]| http_request(server.addr(), "POST", path, body).expect(path);
    let metrics = || {
        let reply = http_request(server.addr(), "GET", "/metrics", b"").expect("metrics");
        reply.body_str().to_string()
    };
    let (kernel, kernel_id) = recorded_kernel();
    let stamped = max_stamped_trace();
    let replay_spec = format!(r#"{{"workload": {{"trace": "{kernel_id}"}}}}"#);

    assert_eq!(post("/v1/traces", &kernel).status, 200);
    // The second upload fills the one slot and evicts the first.
    let second = post("/v1/traces", &stamped);
    assert_eq!(second.status, 200, "{}", second.body_str());
    assert!(second.body_str().contains("\"state\":\"stored\""));
    let csv = metrics();
    assert!(csv.contains("trace.evicted,counter,,1"), "{csv}");

    // The evicted id no longer resolves: a typed 422, counted.
    let miss = post("/v1/run", replay_spec.as_bytes());
    assert_eq!(miss.status, 422, "{}", miss.body_str());
    assert!(miss.body_str().contains("\"kind\":\"unresolved_workload\""));
    let csv = metrics();
    assert!(csv.contains("trace.unresolved,counter,,1"), "{csv}");

    // The resident trace's stamps end at u64::MAX; fitting it answers a
    // report, not a panic.
    let fit_spec = format!(r#"{{"workload": {{"fit": "{}"}}}}"#, TraceId::of(&stamped));
    let fitted = post("/v1/run", fit_spec.as_bytes());
    assert_eq!(fitted.status, 200, "{}", fitted.body_str());

    // Re-uploading restores the same content-addressed id, and the
    // replay answers byte-identical to the in-process run.
    let again = post("/v1/traces", &kernel);
    assert_eq!(again.status, 200, "{}", again.body_str());
    assert!(again.body_str().contains(&kernel_id.to_string()));
    assert!(again.body_str().contains("\"state\":\"stored\""));
    let mut table = TraceTable::new(1);
    let (trace, _tail) = ftspm_trace::Trace::decode(&kernel).expect("own encoding decodes");
    table.insert(kernel_id, Arc::new(trace));
    let expected = JobSpec::parse(replay_spec.as_bytes())
        .expect("decodes")
        .run_with(&table)
        .expect("replays")
        .body;
    let hit = post("/v1/run", replay_spec.as_bytes());
    assert_eq!(hit.status, 200, "{}", hit.body_str());
    assert_eq!(hit.body_str(), expected);
}
