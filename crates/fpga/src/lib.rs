#![warn(missing_docs)]

//! # deliba-fpga — the Alveo U280 device model
//!
//! The paper's hardware contribution is a set of Verilog RTL accelerators
//! on a 16 nm AMD Alveo U280 (XCU280-L2FSVH2892E): five CRUSH
//! bucket-selection kernels and a Reed-Solomon encoder, plus an RTL
//! TCP/IP path, all fed by QDMA and partially reconfigurable through
//! DFX.  Without the physical card, this crate models the device at the
//! level the evaluation depends on:
//!
//! * [`clock`] — clock domains: accelerators at 235 MHz, CMAC at
//!   260 MHz (§IV-B, §IV-D);
//! * [`resources`] — LUT/FF/BRAM/URAM/DSP accounting for the whole chip,
//!   its three SLRs, and every accelerator from Table III;
//! * [`accel`] — cycle-accurate accelerator models: each kernel is a
//!   four-stage FSM (rule evaluation → hash computation → data mapping →
//!   replication, §IV-B) whose per-stage cycle budgets sum to the RTL
//!   cycle counts of Table I; placements come from the real CRUSH
//!   rule through the cluster's placement cache, and the RS encoder
//!   runs the real codec;
//! * [`dfx`] — Dynamic Function eXchange: one reconfigurable partition
//!   in SLR0 hosting the List/Tree/Uniform reconfigurable modules,
//!   MCAP-based partial bitstream loading with realistic timing, and a
//!   `pr_verify`-style configuration check (§IV-C);
//! * [`power`] — the power model behind §V-c (195 W at full load
//!   without partial reconfiguration, 170 W with it);
//! * [`device`] — [`device::AlveoU280`] assembling the above into the
//!   card the engine places and encodes on.

pub mod accel;
pub mod clock;
pub mod device;
pub mod dfx;
pub mod power;
pub mod resources;

pub use accel::{AccelKind, CrushAccelerator, RsEncoderAccel, TableIRow, TABLE_I};
pub use clock::{ClockDomain, ACCEL_CLOCK, CMAC_CLOCK};
pub use device::AlveoU280;
pub use dfx::{DfxController, DfxError, DfxState, RmId};
pub use power::PowerModel;
pub use resources::{ResourceVec, SLR0, U280_TOTAL};
