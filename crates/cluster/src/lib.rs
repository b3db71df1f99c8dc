#![warn(missing_docs)]

//! # deliba-cluster — the Ceph-like distributed storage substrate
//!
//! DeLiBA accelerates the *client side* of Ceph; to evaluate it we need
//! the rest of the cluster.  This crate provides a functional,
//! virtual-time model of the paper's testbed: "a single Ceph kernel
//! client and two remote servers, with each server housing 16 OSDs for a
//! total cluster of 32 OSDs" (§III-C1), with real data stored and
//! real CRUSH placement:
//!
//! * [`object`] — object identifiers and versioned object stores;
//! * [`osd`] — OSDs with service-time profiles and actual storage;
//! * [`pool`] — replicated (size = 3) and erasure-coded (k = 4, m = 2)
//!   pools, placement-group math;
//! * [`osdmap`] — the cluster map: epochs, CRUSH, OSD up/down states;
//! * [`cluster`] — the assembled cluster with its network topology and
//!   the full write/read pipelines (primary-copy replication, EC
//!   fan-out, degraded reads, scrub);
//! * [`rbd`] — RADOS Block Device image striping, the virtual-disk layer
//!   the UIFD's RBD driver exposes (§III-B).

pub mod cluster;
pub mod object;
pub mod osd;
pub mod osdmap;
pub mod pool;
pub mod rbd;
pub mod recovery;

pub use cluster::{Cluster, IoOutcome};
pub use object::{ObjectId, ObjectStore, OidHasher, OidMap};
pub use osd::{Osd, OsdProfile};
pub use osdmap::OsdMap;
pub use pool::{PgId, PoolConfig, PoolKind};
pub use rbd::RbdImage;
pub use recovery::{PgHealth, RecoveryPolicy, RecoveryScheduler, RecoveryStats, ScrubTick};
