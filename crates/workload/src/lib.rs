#![warn(missing_docs)]

//! # deliba-workload — workload generators
//!
//! The paper evaluates DeLiBA-K with two workload families (§III-C1):
//!
//! * synthetic fio microbenchmarks (seq/rand × read/write across block
//!   sizes) — those live in `deliba-core::FioSpec`; this crate adds the
//!   *mixed* read/write generator fio's `rw=randrw` mode provides;
//! * "real-world applications and tasks that are part of a proprietary
//!   test suite regularly used by data center users in the industrial
//!   research lab": **OLAP** (analytical scans, bulk loads) and **OLTP**
//!   (small random transactional I/O) — modeled here from their
//!   published I/O characteristics, since the suite itself is
//!   confidential.
//!
//! All generators emit per-job [`TraceOp`](deliba_core::engine::TraceOp)
//! streams for
//! [`Engine::run_trace`](deliba_core::Engine), including application
//! *think time* so the real-world workloads are only partially I/O-bound
//! (that is what makes the paper's ≈30 % end-to-end reduction, rather
//! than the raw 2–3× I/O speedup, the right expectation).
//!
//! The [`arrival`] module adds *open-loop* traffic on top: seeded
//! arrival processes (Poisson, bursty MMPP, diurnal envelope) and
//! Zipf-skewed block selection emitting `(intended_arrival_time, op)`
//! streams for
//! [`Engine::run_open_loop`](deliba_core::Engine::run_open_loop) —
//! the latency-under-load methodology closed-loop fio cannot express.

pub mod arrival;
pub mod mixed;
pub mod olap;
pub mod oltp;

pub use arrival::{ArrivalKind, OpenLoopSpec, Zipf};
pub use mixed::MixedSpec;
pub use olap::OlapSpec;
pub use oltp::OltpSpec;
