#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # deliba-ec — Reed-Solomon erasure coding over GF(2^8)
//!
//! Ceph's erasure-coded pools split each object into `k` data chunks and
//! compute `m` parity chunks such that any `k` of the `k + m` chunks
//! reconstruct the object.  DeLiBA-K offloads the encoder to the FPGA:
//! Table I profiles the **Reed-Solomon Encoder** kernel at 65 µs in
//! software (70 % of runtime) vs. 150 RTL cycles / 0.345 µs of pure
//! hardware latency, and Table III shows it is the largest static-region
//! accelerator (92,355 LUTs).
//!
//! This crate is the functional implementation shared by the software
//! baseline and the FPGA accelerator model:
//!
//! * [`gf256`] — arithmetic in GF(2^8) with the 0x11D polynomial (the
//!   same field ISA-L and jerasure use): log/exp tables built at first
//!   use, plus two SIMD kernels for the codec's slice multiply, GFNI
//!   bit-matrix multiplies and AVX2 split-nibble byte shuffles;
//! * [`matrix`] — dense matrices over the field, with inversion;
//! * [`rs`] — systematic Reed-Solomon codes from Vandermonde-derived
//!   encoding matrices: [`rs::ReedSolomon::encode_into`] (one fused
//!   pass into a caller's recycled buffer), [`rs::ReedSolomon::encode`]
//!   and [`rs::ReedSolomon::reconstruct`].

pub mod gf256;
pub mod matrix;
pub mod rs;

pub use rs::{EcError, ReedSolomon};
