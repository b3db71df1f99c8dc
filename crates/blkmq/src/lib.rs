#![warn(missing_docs)]

//! # deliba-blkmq — the Linux multi-queue block layer model ("DMQ")
//!
//! Since Linux 3.13 the kernel block layer is multi-queue: per-CPU
//! *software* queues feed per-device *hardware* queue contexts, with tag
//! sets bounding in-flight requests (paper §II, Fig. 1).  DeLiBA-K ships
//! a modified MQ layer — the **DMQ** — whose defining change is
//! *bypassing the MQ I/O scheduler*: "each io_uring instance … is
//! already bound to a specific CPU core, rendering the block I/O
//! scheduler's operations unnecessary" (§III-B).
//!
//! The crate provides the structural pieces:
//!
//! * [`request`] — block requests with sector/byte extents and merge
//!   rules;
//! * [`tag`] — a sharded atomic-bitmap tag allocator (the `blk_mq_tags`
//!   equivalent), safe under real multi-threaded contention;
//! * [`sched`] — pluggable I/O schedulers: [`sched::SchedPolicy::None`]
//!   (the DeLiBA-K bypass), FIFO, and an mq-deadline model with
//!   read/write deadlines and batch dispatch;
//! * [`queue`] — the [`queue::MultiQueue`]: per-CPU software queues
//!   mapped onto hardware contexts, mirroring how the DMQ aligns each
//!   pinned io_uring instance with a dedicated QDMA hardware queue.
//!
//! No other crate depends on this one: the engine charges the block-layer
//! stage as the calibrated constants `deliba_core::calib::MQ_SCHED`
//! (scheduler on) and `MQ_BYPASS` (the DMQ bypass) and never drives
//! these queues.

pub mod queue;
pub mod request;
pub mod sched;
pub mod tag;

pub use queue::{HardwareCtx, MultiQueue, QueueStats};
pub use request::{BlockRequest, ReqOp, SECTOR_SIZE};
pub use sched::SchedPolicy;
pub use tag::TagSet;
