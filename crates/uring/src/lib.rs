#![warn(missing_docs)]

//! # deliba-uring — the io_uring model of DeLiBA-K
//!
//! DeLiBA-K replaces the read()/write()+NBD plumbing of DeLiBA-1/-2 with
//! the io_uring asynchronous I/O interface (paper §III-A).  This crate
//! reproduces the interface's *mechanics* faithfully:
//!
//! * [`spsc`] — true lock-free single-producer/single-consumer ring
//!   buffers built on `Acquire`/`Release` atomics, the data structure
//!   behind both the submission queue (SQ) and completion queue (CQ);
//! * [`entry`] — SQE/CQE layouts with opcode, fd, buffer index, length,
//!   offset, flags and `user_data` (the fields §III-A enumerates);
//! * [`instance`] — an [`instance::IoUring`] instance:
//!   `setup` → `prepare` (queue SQEs) → `enter` (one "syscall" submits the
//!   whole batch) → completions harvested from the CQ; supports the three
//!   modes named in the paper (interrupt-driven, polled, kernel-polled —
//!   DeLiBA-K uses **kernel-polled**) and registered buffers for the
//!   zero-copy path;
//! * [`group`] — the multi-instance design: DeLiBA-K creates *three*
//!   io_uring instances, each bound to a dedicated CPU core via the
//!   `sched_setaffinity` mechanism, to avoid submission-thread contention
//!   and preserve cache locality.
//!
//! The rings are real concurrent structures (exercised by multi-threaded
//! tests). No other crate depends on this one: the engine charges the
//! submit stage as the calibrated constant `deliba_core::calib::URING_PER_IO`
//! and never drives these rings.

pub mod entry;
pub mod group;
pub mod instance;
pub mod registry;
pub mod spsc;

pub use entry::{Cqe, Opcode, Sqe, SqeFlags};
pub use group::{CoreId, UringGroup};
pub use instance::{Completer, EnterResult, IoUring, RingMode, SetupError};
pub use registry::BufRegistry;
