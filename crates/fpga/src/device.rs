//! The assembled Alveo U280 card.
//!
//! [`AlveoU280`] is the card the engine in `deliba-core` drives on the
//! accelerated path: the static accelerators (Straw, Straw2, RS
//! encoder — §IV-C puts them "in the static region, spanning across two
//! SLRs"), the DFX partition with its three swappable bucket
//! accelerators, and the resource/power books.  Placement requests
//! route to the RM matching the requested bucket algorithm when it is
//! resident, falling back to the static Straw2 kernel during a swap.

use crate::accel::{AccelKind, CrushAccelerator, RsEncoderAccel};
use crate::dfx::{configuration_analysis, DfxController, DfxError, RmId};
use crate::power::PowerModel;
use crate::resources::{ResourceVec, RS_ENCODER_STATIC, STRAW2_STATIC, STRAW_STATIC};
use deliba_sim::{InstantKind, Observer, SimDuration, SimTime, TraceLayer};

/// The modeled U280 card.
pub struct AlveoU280 {
    straw2: CrushAccelerator,
    rs: RsEncoderAccel,
    rm_accels: [CrushAccelerator; 3],
    /// DFX controller for the SLR0 partition.
    pub dfx: DfxController,
    /// Power model.
    pub power: PowerModel,
    dfx_fallbacks: u64,
    accel_busy: SimDuration,
    /// Card health: false while a card-level fault (XRT reset, AXI
    /// firewall trip, thermal shutdown) is in effect.  The datapath
    /// checks this before routing I/O through the card and degrades to
    /// the software host path while it is down.
    healthy: bool,
    faults_injected: u64,
    /// Flight recorder (full-depth recording marks placements; DFX
    /// swaps are marked at any depth — they are fault-class events).
    trace: Observer,
}

impl AlveoU280 {
    /// A card programmed with the DeLiBA-K full bitstream: static
    /// Straw/Straw2/RS plus `initial_rm` resident in the partition,
    /// RS(k, m) erasure profile.
    pub fn new(initial_rm: RmId, k: usize, m: usize) -> Self {
        // pr_verify gate: refuse to "program" a configuration whose RMs
        // do not fit the partition.
        assert!(
            configuration_analysis().all_fit(),
            "DFX configuration fails pr_verify"
        );
        AlveoU280 {
            straw2: CrushAccelerator::new(AccelKind::Straw2),
            rs: RsEncoderAccel::new(k, m),
            rm_accels: [
                CrushAccelerator::new(AccelKind::List),
                CrushAccelerator::new(AccelKind::Tree),
                CrushAccelerator::new(AccelKind::Uniform),
            ],
            dfx: DfxController::new(initial_rm),
            power: PowerModel::default(),
            dfx_fallbacks: 0,
            accel_busy: SimDuration::ZERO,
            healthy: true,
            faults_injected: 0,
            trace: Observer::off(),
        }
    }

    /// Attach the run's observer.
    pub fn set_trace(&mut self, trace: Observer) {
        self.trace = trace;
    }

    /// The paper's default card: Uniform RM resident, RS(4, 2).
    pub fn deliba_k_default() -> Self {
        Self::new(RmId::Uniform, 4, 2)
    }

    fn rm_accel(&mut self, rm: RmId) -> &mut CrushAccelerator {
        match rm {
            RmId::List => &mut self.rm_accels[0],
            RmId::Tree => &mut self.rm_accels[1],
            RmId::Uniform => &mut self.rm_accels[2],
        }
    }

    /// Charge one placement on the card at `now`.  The caller resolves
    /// the devices itself (through the epoch-keyed placement cache in
    /// `deliba-cluster`): the RTL kernels consume a fixed Table I cycle
    /// budget per operation, so the time charged never depends on the
    /// map or the result.  The kernel matching `preferred` (a DFX RM
    /// kind) serves when it is resident; otherwise the static Straw2
    /// kernel does, and the fallback is counted.  Returns the compute
    /// time and the kernel used.
    pub fn place_prefetched(
        &mut self,
        now: SimTime,
        preferred: Option<RmId>,
    ) -> (SimDuration, AccelKind) {
        let (d, kind, on_rm) = match preferred {
            Some(want) => match self.dfx.active_rm(now) {
                Some(active) if active == want => {
                    (self.rm_accel(want).charge_place(), want.accel_kind(), true)
                }
                _ => {
                    // Partition busy or hosting another RM: static straw2
                    // serves every placement correctly (it is the default
                    // Ceph algorithm), with its own cycle profile.
                    self.dfx_fallbacks += 1;
                    (self.straw2.charge_place(), AccelKind::Straw2, false)
                }
            },
            None => (self.straw2.charge_place(), AccelKind::Straw2, false),
        };
        self.accel_busy += d;
        if self.trace.full() {
            self.trace
                .instant(now, TraceLayer::Accel, InstantKind::AccelPlace, on_rm as u64);
        }
        (d, kind)
    }

    /// Encode a block through the RS accelerator.
    pub fn encode(&mut self, data: &[u8]) -> (Vec<Vec<u8>>, SimDuration) {
        let (shards, d) = self.rs.encode(data);
        self.accel_busy += d;
        (shards, d)
    }

    /// Begin a DFX swap.
    pub fn reconfigure(&mut self, now: SimTime, target: RmId) -> Result<SimTime, DfxError> {
        let done = self.dfx.reconfigure(now, target)?;
        let rm_index = match target {
            RmId::List => 0u64,
            RmId::Tree => 1,
            RmId::Uniform => 2,
        };
        self.trace
            .instant_lane(now, TraceLayer::Accel, 0, InstantKind::DfxSwap, rm_index);
        Ok(done)
    }

    /// Inject a card-level fault (the accelerator-fault case of the
    /// fault plane): the card stops serving until
    /// [`clear_fault`](AlveoU280::clear_fault) — an `xbutil reset` in the
    /// real system.
    pub fn inject_fault(&mut self) {
        if self.healthy {
            self.healthy = false;
            self.faults_injected += 1;
        }
    }

    /// Recover the card after a fault.
    pub fn clear_fault(&mut self) {
        self.healthy = true;
    }

    /// Is the card currently serving?
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// Card-level faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Placements that fell back to Straw2 because the partition was
    /// unavailable.
    pub fn dfx_fallbacks(&self) -> u64 {
        self.dfx_fallbacks
    }

    /// Cumulative kernel compute time across all accelerators (the
    /// card-side contribution to the `Accel` stage of the latency
    /// breakdown).
    pub fn accel_busy(&self) -> SimDuration {
        self.accel_busy
    }

    /// Static-region resource usage (Table III upper half).
    pub fn static_resources(&self) -> ResourceVec {
        STRAW_STATIC + STRAW2_STATIC + RS_ENCODER_STATIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::U280_TOTAL;

    #[test]
    fn default_card_places_correctly() {
        let mut card = AlveoU280::deliba_k_default();
        let (d, kind) = card.place_prefetched(SimTime::ZERO, None);
        assert_eq!(kind, AccelKind::Straw2);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn preferred_rm_used_when_resident() {
        let mut card = AlveoU280::deliba_k_default();
        let (_, kind) = card.place_prefetched(SimTime::ZERO, Some(RmId::Uniform));
        assert_eq!(kind, AccelKind::Uniform);
        assert_eq!(card.dfx_fallbacks(), 0);
    }

    #[test]
    fn fallback_during_reconfiguration() {
        let mut card = AlveoU280::deliba_k_default();
        let done = card.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();

        // Mid-swap: wants Tree, gets Straw2.
        let mid = SimTime::from_nanos(1000);
        let (_, kind) = card.place_prefetched(mid, Some(RmId::Tree));
        assert_eq!(kind, AccelKind::Straw2);
        assert_eq!(card.dfx_fallbacks(), 1);

        // After the swap: the Tree RM serves.
        let (_, kind) = card.place_prefetched(done, Some(RmId::Tree));
        assert_eq!(kind, AccelKind::Tree);
    }

    #[test]
    fn wrong_resident_rm_falls_back() {
        let mut card = AlveoU280::new(RmId::List, 4, 2);
        let (_, kind) = card.place_prefetched(SimTime::ZERO, Some(RmId::Uniform));
        assert_eq!(kind, AccelKind::Straw2);
    }

    #[test]
    fn rs_encode_through_card() {
        let mut card = AlveoU280::deliba_k_default();
        let data = vec![7u8; 8192];
        let (shards, d) = card.encode(&data);
        assert_eq!(shards.len(), 6);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn accel_busy_accumulates_kernel_time() {
        let mut card = AlveoU280::deliba_k_default();
        assert_eq!(card.accel_busy(), SimDuration::ZERO);
        let (p, _) = card.place_prefetched(SimTime::ZERO, None);
        let (_, e) = card.encode(&[0u8; 4096]);
        let (u, _) = card.place_prefetched(SimTime::ZERO, Some(RmId::Uniform));
        assert_eq!(card.accel_busy(), p + e + u);
    }

    #[test]
    fn utilization_accounting() {
        let card = AlveoU280::deliba_k_default();
        let (without, ..) = card.static_resources().percent_of(&U280_TOTAL);
        let with_rm = card.static_resources() + RmId::Uniform.resources();
        let (with, ..) = with_rm.percent_of(&U280_TOTAL);
        assert!(with > without);
        // Static region ≈ (78.5 + 82.3 + 92.4)K / 1304K ≈ 19.4 %.
        assert!((without - 19.4).abs() < 1.0, "{without}");
    }

    #[test]
    fn card_fault_and_recovery_cycle() {
        let mut card = AlveoU280::deliba_k_default();
        assert!(card.is_healthy());
        card.inject_fault();
        assert!(!card.is_healthy());
        // Re-injecting while down is not a second fault.
        card.inject_fault();
        assert_eq!(card.faults_injected(), 1);
        card.clear_fault();
        assert!(card.is_healthy());
        card.inject_fault();
        assert_eq!(card.faults_injected(), 2);
    }
}
