#![warn(missing_docs)]

//! # deliba-sim — deterministic discrete-event simulation substrate
//!
//! Every timing experiment in the DeLiBA-K reproduction runs on a virtual
//! clock.  The paper's testbed (Alveo U280 behind PCIe Gen3 x16, a 10 GbE
//! Ceph cluster with 32 OSDs, RHEL 9.4 client) is replaced by a
//! discrete-event simulation so that results are exactly reproducible and
//! independent of the host the reproduction runs on.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time;
//! * [`LaneQueue`] — the engine's event queue, one 4-ary heap with
//!   stable FIFO ordering for simultaneous events;
//! * [`rng`] — small, fast, seedable PRNGs (`SplitMix64`, `Xoshiro256`)
//!   used wherever the simulation needs randomness that must not depend on
//!   platform or `std` hash ordering;
//! * [`metrics`] — latency histograms and counters used by the benchmark
//!   harness to print the paper's tables and figures;
//! * [`observe`] — the one [`Observer`] handle every layer emits
//!   through: `None` when nothing is observed, otherwise the stage
//!   histograms, the event ring and the telemetry recorder below;
//! * [`stage`] — per-I/O stage-span tracing ([`Stage`] taxonomy +
//!   [`StageTracer`]) behind the engine's latency-breakdown reports;
//! * [`trace`] — the per-I/O flight recorder ([`trace::TraceSink`]): a
//!   bounded ring of typed events with Chrome-trace export and worst-K
//!   span-chain reconstruction;
//! * [`resource`] — queueing-theory building blocks (single/multi servers,
//!   bandwidth pipes) shared by the network, OSD, PCIe and host-CPU
//!   models;
//! * [`timeseries`] — the time-resolved telemetry plane
//!   ([`timeseries::MetricsRecorder`]):
//!   fixed-width virtual-time windows of ops/latency/gauge series with
//!   SLO burn-rate alerts and a timeline JSON exporter.

pub mod metrics;
pub mod observe;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stage;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use queue::LaneQueue;
pub use metrics::{Counter, Histogram};
pub use observe::Observer;
pub use stage::{Stage, StageTracer};
pub use timeseries::{GaugeSnapshot, SloAlert, SloSummary, TelemetryConfig};
pub use trace::{InstantKind, TraceDepth, TraceLayer};
pub use resource::{Bandwidth, MultiServer, Server};
pub use rng::{SimRng, SplitMix64, Xoshiro256};
pub use time::{round_nonneg, SimDuration, SimTime};
