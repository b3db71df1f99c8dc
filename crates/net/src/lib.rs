#![warn(missing_docs)]

//! # deliba-net — the 10 GbE network substrate
//!
//! The paper's testbed connects the client to two storage servers over a
//! 10 GbE network measured at 9.8 Gb/s raw with iperf (§III-C1).  The
//! crucial architectural difference between DeLiBA generations is *where
//! the TCP/IP stack runs*:
//!
//! * DeLiBA-1: host-software TCP for the NBD control path, HLS TCP on
//!   the FPGA data path;
//! * DeLiBA-2: HLS-generated TCP/IP block on the FPGA;
//! * DeLiBA-K: TX and RX paths re-written in Verilog RTL, clocked with
//!   the 260 MHz CMAC (§IV-D) — lower per-packet latency and zero host
//!   CPU per packet.
//!
//! Modules:
//!
//! * [`frame`] — Ethernet framing math: per-frame wire overhead,
//!   standard (1518 B) and jumbo (9018 B) MTUs, segmentation;
//! * [`tcp`] — the three stack models with per-segment latency and host
//!   CPU cost;
//! * [`link`] — a serializing 10 GbE pipe with propagation delay and
//!   frame-overhead-aware goodput;
//! * [`fault`] — deterministic frame drop/corruption injection for the
//!   chaos fault plane;
//! * [`topology`] — the client ↔ servers star used by the cluster
//!   substrate.

pub mod fault;
pub mod frame;
pub mod link;
pub mod tcp;
pub mod topology;

pub use fault::{LinkFaultInjector, LinkFaultProfile, LinkVerdict};
pub use frame::FrameConfig;
pub use tcp::{TcpStack, TcpStackKind};
pub use topology::Topology;
