#![warn(missing_docs)]

//! # deliba-core — the DeLiBA-K framework
//!
//! This crate is the paper's primary contribution assembled over the
//! substrate crates: the three generations of the Development of Linux
//! Block I/O Accelerators framework as configurable host I/O paths, and
//! the end-to-end engine that runs workloads against the simulated
//! cluster and produces the latency / throughput / IOPS numbers of
//! Figs. 3–9 and Tables I–II.
//!
//! The host stack of each generation (io_uring or NBD read()/write(), blk-mq or
//! the DMQ bypass, the UIFD driver, QDMA or XDMA descriptors) is not
//! executed: each of its Table II stages is a calibrated per-I/O
//! constant in [`calib`], charged by [`hostpath`].
//!
//! * [`generation`] — [`Generation`]: DeLiBA-1, DeLiBA-2, DeLiBA-K, and
//!   the structural differences between them (user/kernel crossings,
//!   memory copies, API, scheduler bypass, DMA engine, TCP stack,
//!   accelerator generation);
//! * [`calib`] — every timing constant of the host-path model, each
//!   documented with its provenance (measured Table I/II values or
//!   microarchitectural reasoning);
//! * [`hostpath`] — per-I/O host-side cost computation;
//! * [`engine`] — the closed-loop virtual-time engine;
//! * [`report`] — serializable run reports consumed by the benchmark
//!   harness.

pub mod calib;
pub mod engine;
pub mod generation;
pub mod hostpath;
mod oracle;
pub mod report;

pub use engine::{
    ArrivalOp, Engine, EngineConfig, FioSpec, Mode, OpenLoopRun, Pattern, RwMode, TraceOp,
    IMAGE_BYTES,
};
pub use generation::Generation;
pub use report::{
    LoadCurve, LoadPoint, PerfCounters, RecoveryCounters, ResilienceCounters, RunReport,
    StageBreakdown, StageSpanReport,
};
