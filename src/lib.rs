#![warn(missing_docs)]

//! # DeLiBA-K — umbrella crate
//!
//! Re-exports the public API of every subsystem of the DeLiBA-K
//! reproduction.  See the workspace README for the architecture overview
//! and DESIGN.md for the paper-to-module map.

pub use deliba_cluster as cluster;
pub use deliba_core as core;
pub use deliba_crush as crush;
pub use deliba_ec as ec;
pub use deliba_fault as fault;
pub use deliba_fpga as fpga;
pub use deliba_net as net;
pub use deliba_qdma as qdma;
pub use deliba_sim as sim;
pub use deliba_workload as workload;
