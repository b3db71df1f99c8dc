//! Dynamic Function eXchange — DFX partial reconfiguration (§IV-C).
//!
//! DeLiBA-K floorplans one reconfigurable partition (RP) in SLR0 of the
//! U280 holding three reconfigurable modules (RMs): the **List**,
//! **Tree** and **Uniform** bucket accelerators, each matched to a
//! cluster shape (expanding / large-nested / homogeneous).  Partial
//! bitstreams are loaded through the **MCAP** ("a dedicated connection
//! to the configuration engine from one specific PCIe block"), so an
//! accelerator can be swapped while the rest of the design — Straw,
//! Straw2, RS encoder, QDMA, TCP — keeps serving I/O.
//!
//! The model captures everything the evaluation observes: which RM is
//! active, how long a swap takes (bitstream size / MCAP bandwidth),
//! that requests routed to the partition during a swap must fall back to
//! the static Straw2 accelerator, and a `pr_verify`-style check that
//! every RM fits the RP's Pblock.

use crate::accel::AccelKind;
use crate::resources::{ResourceVec, RM_LIST, RM_TREE, RM_UNIFORM, SLR0};
use deliba_sim::{SimDuration, SimTime};

/// Identifier of a reconfigurable module within the RP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmId {
    /// RM 1 — List bucket accelerator (expanding clusters).
    List,
    /// RM 2 — Tree bucket accelerator (large / nested clusters).
    Tree,
    /// RM 3 — Uniform bucket accelerator (homogeneous clusters).
    Uniform,
}

impl RmId {
    /// The accelerator kernel this RM implements.
    pub(crate) fn accel_kind(self) -> AccelKind {
        match self {
            RmId::List => AccelKind::List,
            RmId::Tree => AccelKind::Tree,
            RmId::Uniform => AccelKind::Uniform,
        }
    }

    /// Resource footprint (Table III lower half).
    pub fn resources(self) -> ResourceVec {
        match self {
            RmId::List => RM_LIST,
            RmId::Tree => RM_TREE,
            RmId::Uniform => RM_UNIFORM,
        }
    }

    /// Partial-bitstream size.  A partial bitstream covers the RP's
    /// Pblock frames; sized here from the RM footprint against SLR0
    /// (full-SLR bitstreams on the U280 run ≈ 45 MB; the RP occupies a
    /// fraction of SLR0).
    pub fn bitstream_bytes(self) -> u64 {
        let (luts_pct, ..) = self.resources().percent_of(&SLR0);
        // Pblock must enclose the largest RM with margin; frames are
        // allocated for the whole Pblock regardless of RM.
        let pblock_fraction: f64 = 0.25; // quarter of SLR0
        let _ = luts_pct;
        (45_000_000.0 * pblock_fraction) as u64
    }
}

/// All three RMs.
pub(crate) const ALL_RMS: [RmId; 3] = [RmId::List, RmId::Tree, RmId::Uniform];

/// MCAP effective programming bandwidth (xapp1338-class PCIe MCAP
/// streaming).
pub(crate) const MCAP_BYTES_PER_SEC: f64 = 400e6;

/// State of the reconfigurable partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DfxState {
    /// An RM is active and serving.
    Active(RmId),
    /// A partial bitstream is streaming in until the given instant;
    /// the partition output is decoupled.
    Reconfiguring {
        /// RM being loaded.
        target: RmId,
        /// Completion instant.
        until: SimTime,
    },
}

/// DFX administration errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfxError {
    /// A reconfiguration is already in flight.
    Busy,
    /// The requested RM is already active.
    AlreadyActive,
}

/// The DFX controller for the single RP in SLR0.
#[derive(Debug)]
pub(crate) struct DfxController {
    state: DfxState,
}

impl DfxController {
    /// Controller with `initial` RM loaded (part of the full bitstream).
    pub(crate) fn new(initial: RmId) -> Self {
        DfxController {
            state: DfxState::Active(initial),
        }
    }

    /// Current state, folding in the clock: a reconfiguration whose
    /// deadline passed becomes Active.
    pub(crate) fn state(&mut self, now: SimTime) -> DfxState {
        if let DfxState::Reconfiguring { target, until } = self.state {
            if now >= until {
                self.state = DfxState::Active(target);
            }
        }
        self.state
    }

    /// The active RM at `now`, or `None` mid-reconfiguration (callers
    /// fall back to the static Straw2 accelerator).
    pub(crate) fn active_rm(&mut self, now: SimTime) -> Option<RmId> {
        match self.state(now) {
            DfxState::Active(rm) => Some(rm),
            DfxState::Reconfiguring { .. } => None,
        }
    }

    /// Begin swapping in `target` at `now`.  Returns the completion time.
    pub(crate) fn reconfigure(&mut self, now: SimTime, target: RmId) -> Result<SimTime, DfxError> {
        match self.state(now) {
            DfxState::Reconfiguring { .. } => return Err(DfxError::Busy),
            DfxState::Active(cur) if cur == target => return Err(DfxError::AlreadyActive),
            DfxState::Active(_) => {}
        }
        let dur = SimDuration::from_secs_f64(target.bitstream_bytes() as f64 / MCAP_BYTES_PER_SEC);
        let until = now + dur;
        self.state = DfxState::Reconfiguring { target, until };
        Ok(until)
    }
}

/// A `pr_verify`-style configuration check plus the DFX Configuration
/// Analysis comparison (§IV-C): every RM must fit the RP Pblock, and the
/// report lists per-RM resource usage for floorplanning review.
#[derive(Debug, Clone)]
pub struct ConfigurationReport {
    /// (RM, footprint, fits) triples.
    pub rows: Vec<(RmId, ResourceVec, bool)>,
}

/// Run the configuration analysis for the standard RP.
pub fn configuration_analysis() -> ConfigurationReport {
    // The Pblock encloses the largest RM with routing margin, and must
    // itself fit in SLR0 alongside the static region's SLR0 share.
    let pblock = ResourceVec {
        luts: 90_000,
        regs: 180_000,
        bram: 120,
        uram: 48,
        dsp: 256,
    };
    assert!(pblock.fits_in(&SLR0), "Pblock must fit its SLR");
    let rows = ALL_RMS
        .iter()
        .map(|&rm| (rm, rm.resources(), rm.resources().fits_in(&pblock)))
        .collect();
    ConfigurationReport { rows }
}

impl ConfigurationReport {
    /// True when every RM fits the Pblock (pr_verify passes).
    pub fn all_fit(&self) -> bool {
        self.rows.iter().all(|&(_, _, fits)| fits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn initial_state_active() {
        let mut c = DfxController::new(RmId::Uniform);
        assert_eq!(c.active_rm(SimTime::ZERO), Some(RmId::Uniform));
    }

    #[test]
    fn swap_lifecycle() {
        let mut c = DfxController::new(RmId::Uniform);
        let done = c.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();
        // ~11.25 MB at 400 MB/s ≈ 28 ms.
        assert!((20 * MS..40 * MS).contains(&done.as_nanos()), "{done}");
        // Mid-swap: partition unavailable.
        assert_eq!(c.active_rm(SimTime::from_nanos(MS)), None);
        // After completion: the new RM serves.
        assert_eq!(c.active_rm(done), Some(RmId::Tree));
    }

    #[test]
    fn busy_and_already_active_errors() {
        let mut c = DfxController::new(RmId::List);
        assert_eq!(
            c.reconfigure(SimTime::ZERO, RmId::List),
            Err(DfxError::AlreadyActive)
        );
        let done = c.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();
        assert_eq!(
            c.reconfigure(SimTime::from_nanos(1), RmId::Uniform),
            Err(DfxError::Busy)
        );
        // After completion a new swap is allowed.
        assert!(c.reconfigure(done, RmId::Uniform).is_ok());
    }

    #[test]
    fn swap_is_much_faster_than_full_reprogram() {
        // The point of DFX: a partial bitstream (quarter SLR) beats a
        // full-chip bitstream (~3 SLRs ≈ 135 MB) by an order of
        // magnitude.
        let partial = RmId::Tree.bitstream_bytes();
        let full = 135_000_000u64;
        assert!(partial * 10 <= full);
    }

    #[test]
    fn pr_verify_all_rms_fit() {
        let report = configuration_analysis();
        assert!(report.all_fit(), "{report:?}");
        assert_eq!(report.rows.len(), 3);
    }

    #[test]
    fn rm_metadata() {
        assert_eq!(RmId::List.accel_kind(), AccelKind::List);
        assert_eq!(RmId::Tree.accel_kind(), AccelKind::Tree);
        assert_eq!(RmId::Uniform.accel_kind(), AccelKind::Uniform);
        for rm in ALL_RMS {
            assert!(rm.bitstream_bytes() > 1_000_000);
        }
    }
}
