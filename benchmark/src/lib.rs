//! The repository benchmark: four workloads, host-cost end-to-end
//! metrics, and a traced per-layer replay.  See `README.md`.

pub mod alloc;
pub mod bench;
pub mod checks;
pub mod clock;
pub mod measure;
pub mod model;
pub mod replay;
pub mod spans;
pub mod workloads;
