//! Open-loop load generation.
//!
//! A rate step offers `rate` requests per second for a fixed time,
//! evenly spaced. A fixed pool of connections (at most `nproc`) pulls
//! the next request off one shared schedule: a free connection sleeps
//! until the request is due and sends it; a request that comes due while
//! every connection is busy is sent as soon as one frees up.
//!
//! Every request is timed from when it was *due*, so a stall is charged
//! to all the requests queued behind it. The generator's own lag — the
//! time between a request being sendable (due, and a connection free)
//! and actually going out — is kept apart, so an overloaded generator
//! cannot pass for a fast server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats;

/// One request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned<C> {
    /// Offset from the step's start at which the request is due.
    pub due: Duration,
    /// Request class.
    pub class: C,
    /// Sequence number, unique within the run.
    pub seq: u64,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed<C> {
    /// Request class.
    pub class: C,
    /// Sequence number.
    pub seq: u64,
    /// Due → response complete, ms.
    pub latency_ms: f64,
    /// Due → a connection picked it up, ms (0 when one was free).
    pub queued_ms: f64,
    /// Sendable → sent, ms: the generator's own lag.
    pub own_lag_ms: f64,
    /// Whether the request succeeded.
    pub ok: bool,
}

/// Evenly spaced schedule of `count` requests at `rate` per second, with
/// classes taken in order from `classes` (cycled).
pub fn schedule<C: Copy>(
    rate: f64,
    count: usize,
    classes: &[C],
    first_seq: u64,
) -> Vec<Planned<C>> {
    (0..count)
        .map(|i| Planned {
            due: Duration::from_secs_f64(i as f64 / rate),
            class: classes[i % classes.len()],
            seq: first_seq + i as u64,
        })
        .collect()
}

/// Runs `plan` open-loop over `connections` connections. `connect`
/// opens one connection's state; `send` performs one request on it and
/// returns its success; it is handed the instant it should treat as the
/// send time's lower bound and returns when the response is complete.
///
/// Returns the observations in schedule order, and each connection's
/// final state.
pub fn run_open_loop<C, S, F>(
    plan: &[Planned<C>],
    connections: usize,
    connect: impl Fn(usize) -> S + Sync,
    send: F,
) -> (Vec<Observed<C>>, Vec<S>)
where
    C: Copy + Send + Sync,
    S: Send,
    F: Fn(&mut S, &Planned<C>) -> (Instant, bool) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<(Vec<Observed<C>>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections.max(1))
            .map(|c| {
                let (cursor, connect, send) = (&cursor, &connect, &send);
                scope.spawn(move || {
                    let mut conn = connect(c);
                    let mut seen = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = start + p.due;
                        let taken = Instant::now();
                        if taken < due {
                            std::thread::sleep(due - taken);
                        }
                        let sendable = taken.max(due);
                        let (sent, ok) = send(&mut conn, p);
                        let done = Instant::now();
                        seen.push(Observed {
                            class: p.class,
                            seq: p.seq,
                            latency_ms: ms(done.saturating_duration_since(due)),
                            queued_ms: ms(taken.saturating_duration_since(due)),
                            own_lag_ms: ms(sent.saturating_duration_since(sendable)),
                            ok,
                        });
                    }
                    (seen, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut all = Vec::with_capacity(plan.len());
    let mut states = Vec::with_capacity(per_conn.len());
    for (seen, conn) in per_conn {
        all.extend(seen);
        states.push(conn);
    }
    all.sort_by_key(|o| o.seq);
    (all, states)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency samples for the limit test: failed requests count as
/// infinitely slow, so they miss any limit.
pub fn limit_samples<C>(obs: &[Observed<C>]) -> Vec<f64> {
    obs.iter()
        .map(|o| if o.ok { o.latency_ms } else { f64::INFINITY })
        .collect()
}

/// Whether the connection-wait backlog grew over the step: the mean
/// queueing delay of the last quarter of the schedule exceeds the first
/// quarter's by more than a quarter of the latency limit.
pub fn backlog_grows<C>(obs: &[Observed<C>], limit_ms: f64) -> bool {
    let q = obs.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[Observed<C>]| s.iter().map(|o| o.queued_ms).sum::<f64>() / s.len() as f64;
    mean(&obs[obs.len() - q..]) - mean(&obs[..q]) > limit_ms / 4.0
}

/// Whether a step sustained its rate: its tail latency (failures
/// counting as misses) is within the limit and its backlog did not grow.
pub fn sustained<C>(obs: &[Observed<C>], limit_ms: f64) -> bool {
    stats::tail(&limit_samples(obs)).is_some_and(|t| t.value <= limit_ms)
        && !backlog_grows(obs, limit_ms)
}

/// The highest offered rate whose step was sustained; 0 when none was.
pub fn max_sustained_rate(steps: &[(f64, bool)]) -> f64 {
    steps
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(queued: &[f64], latency: f64) -> Vec<Observed<u8>> {
        queued
            .iter()
            .enumerate()
            .map(|(i, &q)| Observed {
                class: 0,
                seq: i as u64,
                latency_ms: latency + q,
                queued_ms: q,
                own_lag_ms: 0.0,
                ok: true,
            })
            .collect()
    }

    #[test]
    fn schedule_is_evenly_spaced_and_cycles_classes() {
        let s = schedule(4.0, 5, &['a', 'b'], 10);
        let dues: Vec<f64> = s.iter().map(|p| p.due.as_secs_f64()).collect();
        assert_eq!(dues, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(s[2].class, 'a');
        assert_eq!(s[3].class, 'b');
        assert_eq!(s[4].seq, 14);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // One connection, 20 ms service, requests due every 5 ms: each
        // waits behind the previous one, so latency grows by ~15 ms per
        // request even though every send returns after 20 ms.
        let plan = schedule(200.0, 4, &[0u8], 0);
        let (seen, _) = run_open_loop(
            &plan,
            1,
            |_| (),
            |_, _| {
                let sent = Instant::now();
                std::thread::sleep(Duration::from_millis(20));
                (sent, true)
            },
        );
        assert_eq!(seen.len(), 4);
        for (i, o) in seen.iter().enumerate() {
            let expect = 20.0 * (i as f64 + 1.0) - 5.0 * i as f64;
            assert!(o.latency_ms >= expect - 0.5, "{i}: {o:?}");
            // Queueing is charged to latency, not to the generator.
            assert!(o.queued_ms >= expect - 20.5);
            assert!(o.own_lag_ms < 5.0, "{i}: {o:?}");
        }
        assert!(seen[3].queued_ms > 40.0);
    }

    #[test]
    fn failures_miss_any_limit() {
        let mut o = obs(&[0.0; 40], 1.0);
        assert!(sustained(&o, 10.0));
        // 40 samples: the tail is p75 (10 beyond), so 11 failures fail
        // the step and 10 do not.
        for x in o.iter_mut().take(10) {
            x.ok = false;
        }
        assert!(sustained(&o, 10.0));
        o[10].ok = false;
        assert!(!sustained(&o, 10.0));
    }

    #[test]
    fn backlog_growth_detects_a_ramp() {
        let steady = obs(&[2.0; 40], 1.0);
        assert!(!backlog_grows(&steady, 20.0));
        let ramp: Vec<f64> = (0..40).map(|i| f64::from(i) * 1.0).collect();
        // Last quarter mean 34.5, first 4.5: grew by 30 > 20/4.
        assert!(backlog_grows(&obs(&ramp, 1.0), 20.0));
        // Same ramp under a loose limit is not growth.
        assert!(!backlog_grows(&obs(&ramp, 1.0), 200.0));
        assert!(!sustained(&obs(&ramp, 1.0), 20.0));
    }

    #[test]
    fn max_rate_is_the_highest_sustained_step() {
        assert_eq!(
            max_sustained_rate(&[(50.0, true), (100.0, true), (200.0, false)]),
            100.0
        );
        assert_eq!(max_sustained_rate(&[(50.0, false)]), 0.0);
    }
}
