#![warn(missing_docs)]

//! # deliba-qdma — the AMD/Xilinx QDMA subsystem model
//!
//! DeLiBA-K's UIFD kernel driver talks to the Alveo U280 through a
//! customized **Queue DMA** (QDMA) IP (paper §III-B, §IV-A).  The model
//! reproduces the architecture the paper describes:
//!
//! * up to **2048 queue sets**, each a triple of rings — H2C descriptor
//!   ring, C2H descriptor ring, C2H completion ring — individually
//!   configured as *replication* or *erasure-coding* queues;
//! * **128-byte descriptors** defining the five DMA parameters (source
//!   address, destination address, length, control, next-descriptor
//!   pointer), with a 64 KiB aggregate descriptor budget held in
//!   UltraRAM;
//! * the five RTL modules of Fig. 2 circle ③: Requester Request
//!   ([`engine::DescriptorEngine`] fetch path), Descriptor Engine,
//!   H2C/C2H streaming engines (256 concurrent I/Os, 32 KiB reorder
//!   buffer) and the Completion Engine;
//! * **SR-IOV**: physical/virtual functions partitioning the queue-set
//!   space, the thin-hypervisor passthrough model the paper uses for VM
//!   tenants ([`function`]).
//!
//! Payload movement is real: descriptors reference a [`mem::SparseMemory`]
//! host address space and the engines move actual bytes, so DMA
//! correctness is testable end-to-end.

pub mod descriptor;
pub mod engine;
pub mod fault;
pub mod function;
pub mod mem;
pub mod pcie;
pub mod queue;
pub mod ring;

pub use descriptor::{DescControl, Descriptor, IfType, DESCRIPTOR_BYTES};
pub use engine::{DescriptorEngine, EngineConfig};
pub use fault::{DmaFaultInjector, DmaFaultProfile, DESCRIPTOR_STALL};
pub use function::{FunctionId, FunctionKind, FunctionMap};
pub use mem::SparseMemory;
pub use pcie::PciePipes;
pub use queue::{CmptEntry, QueueSet, MAX_QUEUE_SETS};
pub use ring::DescriptorRing;
