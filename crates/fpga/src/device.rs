//! The assembled Alveo U280 card.
//!
//! [`AlveoU280`] is what the UIFD driver layer in `deliba-core` binds
//! to: the static accelerators (Straw, Straw2, RS encoder — §IV-C puts
//! them "in the static region, spanning across two SLRs"), the DFX
//! partition with its three swappable bucket accelerators, and the
//! resource/power books.  Placement requests route to the RM matching
//! the requested bucket algorithm when it is resident, falling back to
//! the static Straw2 kernel during a swap.

use crate::accel::{AccelKind, CrushAccelerator, RsEncoderAccel};
use crate::dfx::{configuration_analysis, DfxController, DfxError, RmId};
use crate::power::PowerModel;
use crate::resources::{ResourceVec, RS_ENCODER_STATIC, STRAW2_STATIC, STRAW_STATIC, U280_TOTAL};
use deliba_crush::{CrushMap, DeviceId};
use deliba_sim::{InstantKind, Observer, SimDuration, SimTime, TraceLayer};

/// The modeled U280 card.
pub struct AlveoU280 {
    straw: CrushAccelerator,
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
            straw: CrushAccelerator::new(AccelKind::Straw),
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

    /// Run a placement on the card at `now`, preferring the accelerator
    /// matching `preferred` (a DFX RM kind) and falling back to the
    /// static Straw2 kernel when the partition is reconfiguring or hosts
    /// a different RM.  Returns (devices, compute time, kernel used).
    pub fn place(
        &mut self,
        now: SimTime,
        map: &CrushMap,
        rule: u32,
        x: u32,
        num: usize,
        preferred: Option<RmId>,
    ) -> (Vec<DeviceId>, SimDuration, AccelKind) {
        let (devs, d, kind) = match preferred {
            Some(want) => match self.dfx.active_rm(now) {
                Some(active) if active == want => {
                    let (devs, d) = self.rm_accel(want).place(map, rule, x, num);
                    (devs, d, want.accel_kind())
                }
                _ => {
                    // Partition busy or hosting another RM: static straw2
                    // serves every placement correctly (it is the default
                    // Ceph algorithm), just without the specialized
                    // kernel's cycle profile.
                    self.dfx_fallbacks += 1;
                    let (devs, d) = self.straw2.place(map, rule, x, num);
                    (devs, d, AccelKind::Straw2)
                }
            },
            None => {
                let (devs, d) = self.straw2.place(map, rule, x, num);
                (devs, d, AccelKind::Straw2)
            }
        };
        self.accel_busy += d;
        (devs, d, kind)
    }

    /// Charge a placement whose devices the caller already resolved
    /// (via the epoch-keyed placement cache in `deliba-cluster`).  Kernel
    /// routing, fallback accounting, per-accelerator counters and busy
    /// time advance exactly as [`place`](AlveoU280::place) would: the RTL
    /// kernels consume a fixed Table I cycle budget per operation, so the
    /// time charged never depends on the map or the result.
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

    /// Run a placement on the static Straw kernel (legacy pools).
    pub fn place_straw(
        &mut self,
        map: &CrushMap,
        rule: u32,
        x: u32,
        num: usize,
    ) -> (Vec<DeviceId>, SimDuration) {
        let (devs, d) = self.straw.place(map, rule, x, num);
        self.accel_busy += d;
        (devs, d)
    }

    /// Encode a block through the RS accelerator.
    pub fn encode(&mut self, data: &[u8]) -> (Vec<Vec<u8>>, SimDuration) {
        let (shards, d) = self.rs.encode(data);
        self.accel_busy += d;
        (shards, d)
    }

    /// The erasure codec configured on the card.
    pub fn rs_codec(&self) -> &deliba_ec::ReedSolomon {
        self.rs.codec()
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
    /// fault plane): the card stops serving until [`clear_fault`]
    /// (AlveoU280::clear_fault) — an `xbutil reset` in the real system.
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

    /// Whole-card utilization against the chip, in percent LUTs.
    pub fn lut_utilization_pct(&self, resident_rm: Option<RmId>) -> f64 {
        let mut used = self.static_resources();
        if let Some(rm) = resident_rm {
            used += rm.resources();
        }
        let (l, ..) = used.percent_of(&U280_TOTAL);
        l
    }

    /// An `xbutil examine`-style status report: clocks, resident
    /// kernels, DFX partition state, counters and power.
    pub fn status_report(&mut self, now: SimTime) -> String {
        use crate::clock::{ACCEL_CLOCK, CMAC_CLOCK};
        let dfx_state = match self.dfx.state(now) {
            crate::dfx::DfxState::Active(rm) => format!("active: {rm:?}"),
            crate::dfx::DfxState::Reconfiguring { target, until } => {
                format!("reconfiguring → {target:?} (until {until})")
            }
        };
        let (straw_ops, _) = self.straw.counters();
        let (straw2_ops, straw2_cycles) = self.straw2.counters();
        let (rs_ops, rs_bytes) = self.rs.counters();
        let used = self.static_resources();
        let (lut_pct, reg_pct, bram_pct, uram_pct, _) = used.percent_of(&U280_TOTAL);
        format!(
            "Device: XCU280-L2FSVH2892E (model)\n\
             Clocks: accelerators {:.0} MHz, CMAC {:.0} MHz\n\
             Static region: Straw, Straw2, RS-Encoder \
             (LUT {:.1} %, FF {:.1} %, BRAM {:.1} %, URAM {:.1} %)\n\
             DFX partition (SLR0): {}\n\
             Counters: straw {} ops, straw2 {} ops / {} cycles, \
             rs-encoder {} ops / {} bytes, dfx fallbacks {}\n\
             Power: {:.0} W full-load (DFX), {:.0} W idle\n",
            ACCEL_CLOCK.freq_mhz,
            CMAC_CLOCK.freq_mhz,
            lut_pct,
            reg_pct,
            bram_pct,
            uram_pct,
            dfx_state,
            straw_ops,
            straw2_ops,
            straw2_cycles,
            rs_ops,
            rs_bytes,
            self.dfx_fallbacks,
            self.power.full_load_dfx_w(),
            self.power.idle_w(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deliba_crush::{BucketAlg, MapBuilder};

    #[test]
    fn default_card_places_correctly() {
        let mut card = AlveoU280::deliba_k_default();
        let map = MapBuilder::new().build(8, 4);
        let (devs, d, kind) = card.place(SimTime::ZERO, &map, 0, 42, 3, None);
        assert_eq!(devs, map.do_rule(0, 42, 3));
        assert_eq!(kind, AccelKind::Straw2);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn preferred_rm_used_when_resident() {
        let mut card = AlveoU280::deliba_k_default();
        let map = MapBuilder::new().host_alg(BucketAlg::Uniform).build(8, 4);
        let (_, _, kind) = card.place(SimTime::ZERO, &map, 0, 1, 3, Some(RmId::Uniform));
        assert_eq!(kind, AccelKind::Uniform);
        assert_eq!(card.dfx_fallbacks(), 0);
    }

    #[test]
    fn fallback_during_reconfiguration() {
        let mut card = AlveoU280::deliba_k_default();
        let map = MapBuilder::new().host_alg(BucketAlg::Tree).build(8, 4);
        let done = card.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();

        // Mid-swap: wants Tree, gets Straw2 — but the *placement result*
        // for the pool's rule is still correct CRUSH output.
        let mid = SimTime::from_nanos(1000);
        let (devs, _, kind) = card.place(mid, &map, 0, 7, 3, Some(RmId::Tree));
        assert_eq!(kind, AccelKind::Straw2);
        assert_eq!(devs, map.do_rule(0, 7, 3));
        assert_eq!(card.dfx_fallbacks(), 1);

        // After the swap: the Tree RM serves.
        let (_, _, kind) = card.place(done, &map, 0, 8, 3, Some(RmId::Tree));
        assert_eq!(kind, AccelKind::Tree);
    }

    #[test]
    fn place_prefetched_mirrors_place_exactly() {
        // Same kernel routing, timing, fallback and busy accounting as
        // place() — only the do_rule execution is elided.
        let map = MapBuilder::new().host_alg(BucketAlg::Uniform).build(8, 4);
        let mut a = AlveoU280::deliba_k_default();
        let mut b = AlveoU280::deliba_k_default();
        for (x, preferred) in [(1u32, None), (2, Some(RmId::Uniform)), (3, Some(RmId::Tree))] {
            let (_, d_full, k_full) = a.place(SimTime::ZERO, &map, 0, x, 3, preferred);
            let (d_pre, k_pre) = b.place_prefetched(SimTime::ZERO, preferred);
            assert_eq!(d_full, d_pre);
            assert_eq!(k_full, k_pre);
        }
        assert_eq!(a.dfx_fallbacks(), b.dfx_fallbacks());
        assert_eq!(a.accel_busy(), b.accel_busy());
        assert_eq!(a.status_report(SimTime::ZERO), b.status_report(SimTime::ZERO));
    }

    #[test]
    fn wrong_resident_rm_falls_back() {
        let mut card = AlveoU280::new(RmId::List, 4, 2);
        let map = MapBuilder::new().build(8, 4);
        let (_, _, kind) = card.place(SimTime::ZERO, &map, 0, 1, 3, Some(RmId::Uniform));
        assert_eq!(kind, AccelKind::Straw2);
    }

    #[test]
    fn rs_encode_through_card() {
        let mut card = AlveoU280::deliba_k_default();
        let data = vec![7u8; 8192];
        let (shards, d) = card.encode(&data);
        assert_eq!(shards.len(), 6);
        assert!(d.as_nanos() > 0);
        assert_eq!(card.rs_codec().k(), 4);
    }

    #[test]
    fn accel_busy_accumulates_kernel_time() {
        let mut card = AlveoU280::deliba_k_default();
        assert_eq!(card.accel_busy(), SimDuration::ZERO);
        let map = MapBuilder::new().build(8, 4);
        let (_, p, _) = card.place(SimTime::ZERO, &map, 0, 42, 3, None);
        let (_, e) = card.encode(&[0u8; 4096]);
        let (_, s) = card.place_straw(&map, 0, 5, 3);
        assert_eq!(card.accel_busy(), p + e + s);
    }

    #[test]
    fn utilization_accounting() {
        let card = AlveoU280::deliba_k_default();
        let without = card.lut_utilization_pct(None);
        let with = card.lut_utilization_pct(Some(RmId::Uniform));
        assert!(with > without);
        // Static region ≈ (78.5 + 82.3 + 92.4)K / 1304K ≈ 19.4 %.
        assert!((without - 19.4).abs() < 1.0, "{without}");
    }

    #[test]
    fn status_report_reflects_device_state() {
        let mut card = AlveoU280::deliba_k_default();
        let map = MapBuilder::new().build(4, 4);
        card.place(SimTime::ZERO, &map, 0, 1, 3, None);
        card.encode(&[0u8; 1024]);
        let report = card.status_report(SimTime::ZERO);
        assert!(report.contains("235 MHz"));
        assert!(report.contains("260 MHz"));
        assert!(report.contains("active: Uniform"));
        assert!(report.contains("straw2 1 ops"));
        assert!(report.contains("rs-encoder 1 ops / 1024 bytes"));
        assert!(report.contains("170 W full-load"));
        // Mid-swap state shows in the report too.
        card.reconfigure(SimTime::ZERO, RmId::Tree).unwrap();
        let report = card.status_report(SimTime::from_nanos(10));
        assert!(report.contains("reconfiguring → Tree"), "{report}");
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

    #[test]
    fn straw_kernel_available_for_legacy_pools() {
        let mut card = AlveoU280::deliba_k_default();
        let map = MapBuilder::new().build(8, 4);
        let (devs, d) = card.place_straw(&map, 0, 5, 3);
        assert_eq!(devs.len(), 3);
        // Straw kernel: 105 cycles ≈ 447 ns.
        assert!((400..500).contains(&d.as_nanos()));
    }
}
