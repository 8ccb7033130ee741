//! Self-contained deterministic test substrate for the FTSPM workspace.
//!
//! Five layers, zero external dependencies (the workspace must build
//! and test with no registry access):
//!
//! - [`rng`]: a SplitMix64-seeded xoshiro256** PRNG with the subset of
//!   the `rand` API the repo uses — seeded fault campaigns, workload
//!   input generation, weighted MBU-size sampling.
//! - [`prop`]: property-based testing with composable strategies,
//!   integer/vec shrinking, and persisted regression seeds — the
//!   `proptest` replacement.
//! - [`par`]: a deterministic parallel executor (`std::thread::scope`
//!   `par_map` with ordered results and an `FTSPM_THREADS` knob) — the
//!   `rayon` replacement behind sharded Monte-Carlo campaigns.
//! - [`net`]: ephemeral loopback listeners and a one-shot HTTP/1.1
//!   client for exercising the `ftspm-serve` service in tests and the
//!   CI smoke stage.
//! - [`chaos`]: a seeded in-process TCP proxy that injects
//!   deterministic transport failures (stalls, byte dribble, torn
//!   requests, mid-body cuts, dropped connections) for the chaos soak
//!   battery, plus pure client-side keep-alive chaos plans (torn
//!   pipelined frames, idle stalls, cuts between responses).

#![warn(missing_docs)]

pub mod chaos;
pub mod net;
pub mod par;
pub mod prop;
pub mod rng;

pub use net::{ephemeral_listener, http_request, http_request_timeout, HttpClient, HttpReply};
pub use par::{par_map, par_map_threads, thread_count};
pub use rng::{derive_seed, Random, Rng, SampleRange};
pub use std::hint::black_box;
