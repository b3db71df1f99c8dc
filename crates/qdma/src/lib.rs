#![warn(missing_docs)]

//! # deliba-qdma — the QDMA timing the engine charges
//!
//! DeLiBA-K's UIFD kernel driver talks to the Alveo U280 through a
//! customized **Queue DMA** (QDMA) IP (paper §III-B, §IV-A).  This crate
//! keeps the two parts of that path the engine runs on every I/O:
//!
//! * [`PciePipes`] — one bandwidth pipe per PCIe direction (H2C, C2H),
//!   which times each payload transfer and reports link utilization;
//! * [`DmaFaultInjector`] — seeded completion errors and
//!   descriptor-exhaustion stalls while a `DmaDegrade` fault is active.
//!
//! The per-I/O descriptor cost (queue-set lookup, 128-byte descriptor
//! fetch, completion write-back) is not modeled here: it is the
//! calibrated constant `deliba_core::calib::QDMA_DESC`.
//! No descriptor rings, queue sets or SR-IOV functions are simulated.

pub mod fault;
pub mod pcie;

pub use fault::{DmaFaultInjector, DmaFaultProfile, DESCRIPTOR_STALL};
pub use pcie::PciePipes;
