#![warn(missing_docs)]

//! # deliba-crush — CRUSH placement for the DeLiBA-K reproduction
//!
//! CRUSH (Controlled Replication Under Scalable Hashing, Weil et al.,
//! SC'06) is the placement function at the heart of Ceph: given an object
//! identifier and a cluster map, it deterministically computes the set of
//! OSDs that store the object — no directory lookups, no central
//! metadata.
//!
//! DeLiBA-K offloads exactly this computation to the FPGA: Table I of the
//! paper profiles five bucket-selection kernels (**Straw**, **Straw2**,
//! **List**, **Tree**, **Uniform**) plus the Reed-Solomon encoder, and
//! Table III gives their synthesized resource footprints.  This crate is
//! the *functional* implementation used by
//!
//! * the software baseline (host-side CRUSH, Figs. 3–4),
//! * the FPGA accelerator models in `deliba-fpga` (which wrap these same
//!   functions in cycle-cost envelopes so hardware and software paths are
//!   bit-identical), and
//! * the cluster substrate in `deliba-cluster` (PG → OSD mapping).
//!
//! The implementation follows the published CRUSH algorithm: rjenkins1
//! hashing, 16.16 fixed-point weights, negative bucket ids, and rule
//! programs of `take` / `chooseleaf` / `emit` steps.

pub mod bucket;
pub mod cache;
pub mod fixed;
pub mod hash;
pub mod map;
pub mod rule;

pub use bucket::{Bucket, BucketAlg, BucketId};
pub use cache::{CacheStats, PlacementCache};
pub use map::{CrushMap, DeviceId, MapBuilder};
pub use rule::{Rule, RuleStep};

/// CRUSH weights are 16.16 fixed-point, with 1.0 = `0x10000`
/// (one weight unit conventionally means 1 TiB).
pub const WEIGHT_ONE: u32 = 0x10000;
