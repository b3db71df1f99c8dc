#![warn(missing_docs)]

//! # deliba-fault — the deterministic fault plane
//!
//! A production storage path is judged by what happens when things
//! break mid-flight: an OSD dies while a trace is running, the link
//! starts dropping frames, the QDMA engine reports completion errors,
//! the accelerator card faults and has to be taken out of the path.
//! This crate provides the *schedule* of such events and the machinery
//! that replays them bit-reproducibly:
//!
//! * [`FaultKind`] / [`TimedFault`] — the fault taxonomy, each event
//!   pinned to a virtual-time instant;
//! * [`FaultSchedule`] — a builder for timed fault sequences (crash,
//!   flap, degrade windows, card outages, DFX swaps);
//! * [`FaultPlane`] — the live plane the engine consults: a cursor over
//!   the schedule plus the per-layer probabilistic injectors
//!   ([`LinkFaultInjector`], [`DmaFaultInjector`]), every draw coming
//!   from dedicated [`Xoshiro256`] streams so fault injection can never
//!   perturb the workload or service-time streams;
//! * [`ResiliencePolicy`] — the engine-side answer: per-I/O deadline,
//!   bounded retry with exponential backoff and deterministic jitter;
//! * [`FailCause`] — why an individual I/O attempt failed.
//!
//! Everything is off by default; a run without a schedule and without a
//! policy draws nothing and times nothing differently.

use deliba_fpga::RmId;
use deliba_net::{LinkFaultInjector, LinkFaultProfile};
use deliba_qdma::{DmaFaultInjector, DmaFaultProfile};
use deliba_sim::{SimDuration, SimRng, SimTime, Xoshiro256};

/// One kind of fault the plane can apply at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// An OSD dies: marked down/out, epoch bump, placement moves.
    OsdCrash {
        /// The OSD device id.
        osd: i32,
    },
    /// A downed OSD returns to service (the second half of a flap).
    OsdRevive {
        /// The OSD device id.
        osd: i32,
    },
    /// The client↔server link switches to the given drop/corrupt
    /// probabilities (use [`LinkFaultProfile::HEALTHY`] to restore).
    LinkDegrade(LinkFaultProfile),
    /// The QDMA engine switches to the given completion-error and
    /// descriptor-exhaustion probabilities.
    DmaDegrade(DmaFaultProfile),
    /// The accelerator card faults; the datapath must degrade to the
    /// software host path until [`FaultKind::CardRecover`].
    CardFault,
    /// The card completes its reset and rejoins the datapath.
    CardRecover,
    /// An operator-initiated DFX swap starts mid-flight (placements
    /// fall back to static Straw2 while the partition reconfigures).
    DfxSwap {
        /// Target reconfigurable module.
        target: RmId,
    },
    /// Silent corruption: flip a byte in `copies` stored object copies
    /// (replica copies or EC shards), chosen deterministically from the
    /// plane's bit-rot stream.  No error is reported at injection time —
    /// only deep scrub or checksum verification can find it.
    BitRot {
        /// How many distinct stored copies to corrupt at this instant.
        copies: u32,
    },
}

impl FaultKind {
    /// A stable snake_case label for schedules printed in reports and
    /// trace manifests.  Degrade events carrying the `HEALTHY` profile
    /// label as the matching restore (that is how
    /// [`FaultSchedule::link_restore`] and
    /// [`FaultSchedule::dma_restore`] encode them).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::OsdCrash { .. } => "osd_crash",
            FaultKind::OsdRevive { .. } => "osd_revive",
            FaultKind::LinkDegrade(p) if p.is_healthy() => "link_restore",
            FaultKind::LinkDegrade(_) => "link_degrade",
            FaultKind::DmaDegrade(p) if p.is_healthy() => "dma_restore",
            FaultKind::DmaDegrade(_) => "dma_degrade",
            FaultKind::CardFault => "card_fault",
            FaultKind::CardRecover => "card_recover",
            FaultKind::DfxSwap { .. } => "dfx_swap",
            FaultKind::BitRot { .. } => "bit_rot",
        }
    }
}

/// A fault pinned to a virtual-time instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// When the fault fires (applied at the first op processed at or
    /// after this instant).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic sequence of timed faults.
///
/// Built fluently, replayed in time order (ties fire in insertion
/// order — the sort is stable):
///
/// ```
/// use deliba_fault::FaultSchedule;
/// use deliba_net::LinkFaultProfile;
/// use deliba_sim::{SimDuration, SimTime};
///
/// let s = FaultSchedule::new()
///     .osd_crash(SimTime::from_nanos(5_000_000), 3)
///     .link_degrade(
///         SimTime::from_nanos(10_000_000),
///         LinkFaultProfile { drop_p: 0.05, corrupt_p: 0.02 },
///     )
///     .link_restore(SimTime::from_nanos(20_000_000))
///     .card_outage(SimTime::from_nanos(30_000_000), SimDuration::from_millis(15));
/// assert_eq!(s.len(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an arbitrary timed fault.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(TimedFault { at, kind });
        self
    }

    /// An OSD dies at `at`.
    pub fn osd_crash(self, at: SimTime, osd: i32) -> Self {
        self.at(at, FaultKind::OsdCrash { osd })
    }

    /// A downed OSD returns at `at`.
    pub fn osd_revive(self, at: SimTime, osd: i32) -> Self {
        self.at(at, FaultKind::OsdRevive { osd })
    }

    /// An OSD flaps: down at `at`, back up `down_for` later.
    pub fn osd_flap(self, at: SimTime, osd: i32, down_for: SimDuration) -> Self {
        self.osd_crash(at, osd).osd_revive(at + down_for, osd)
    }

    /// The link degrades to `profile` at `at`.
    pub fn link_degrade(self, at: SimTime, profile: LinkFaultProfile) -> Self {
        self.at(at, FaultKind::LinkDegrade(profile))
    }

    /// The link returns to healthy at `at`.
    pub fn link_restore(self, at: SimTime) -> Self {
        self.link_degrade(at, LinkFaultProfile::HEALTHY)
    }

    /// The DMA engine degrades to `profile` at `at`.
    pub fn dma_degrade(self, at: SimTime, profile: DmaFaultProfile) -> Self {
        self.at(at, FaultKind::DmaDegrade(profile))
    }

    /// The DMA engine returns to healthy at `at`.
    pub fn dma_restore(self, at: SimTime) -> Self {
        self.dma_degrade(at, DmaFaultProfile::HEALTHY)
    }

    /// The card faults at `at` and recovers `down_for` later.
    pub fn card_outage(self, at: SimTime, down_for: SimDuration) -> Self {
        self.at(at, FaultKind::CardFault)
            .at(at + down_for, FaultKind::CardRecover)
    }

    /// A DFX swap to `target` starts at `at`.
    pub fn dfx_swap(self, at: SimTime, target: RmId) -> Self {
        self.at(at, FaultKind::DfxSwap { target })
    }

    /// Silent corruption strikes `copies` stored object copies at `at`.
    pub fn bit_rot(self, at: SimTime, copies: u32) -> Self {
        self.at(at, FaultKind::BitRot { copies })
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// No events scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in insertion order (the plane sorts stably by time).
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }
}

/// The live fault plane an [`Engine`](../deliba_core/engine/struct.Engine.html)
/// run consults: the schedule cursor plus the per-layer injectors.
///
/// All randomness comes from streams derived from a single seed —
/// independent of the engine's workload RNG — so the same seed and
/// schedule replay the identical fault pattern, and an empty plane
/// draws nothing at all.
#[derive(Debug)]
pub struct FaultPlane {
    timeline: Vec<TimedFault>,
    next: usize,
    link_windows: Vec<(SimTime, LinkFaultProfile)>,
    dma_windows: Vec<(SimTime, DmaFaultProfile)>,
    rng: Xoshiro256,
    bitrot: Xoshiro256,
    /// Link drop/corruption injector (the `deliba-net` layer).
    pub link: LinkFaultInjector,
    /// DMA completion-error / descriptor-exhaustion injector (the
    /// `deliba-qdma` layer).
    pub dma: DmaFaultInjector,
}

impl FaultPlane {
    /// Arm a plane with `schedule`, deriving every injector stream from
    /// `seed`.
    pub fn new(schedule: FaultSchedule, seed: u64) -> Self {
        let mut timeline = schedule.events;
        timeline.sort_by_key(|f| f.at); // stable: ties keep insertion order
        // Profile windows are *time-indexed*, not cursor-driven: an
        // attempt (or a backed-off retry) at time t sees the profile in
        // force at t, regardless of what order the engine evaluates ops.
        let link_windows = timeline
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::LinkDegrade(p) => Some((f.at, p)),
                _ => None,
            })
            .collect();
        let dma_windows = timeline
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::DmaDegrade(p) => Some((f.at, p)),
                _ => None,
            })
            .collect();
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xFA17_F1A6);
        let link = LinkFaultInjector::new(rng.jump());
        let dma = DmaFaultInjector::new(rng.jump());
        // The bit-rot stream is seeded independently rather than jumped
        // off `rng`: an extra jump would shift the jitter stream and
        // perturb every pre-existing schedule's backoff timing.
        let bitrot = Xoshiro256::seed_from_u64(seed ^ 0xB17_2070);
        FaultPlane { timeline, next: 0, link_windows, dma_windows, rng, bitrot, link, dma }
    }

    /// The link profile in force at `at` (healthy before the first
    /// scheduled window).
    pub fn link_profile_at(&self, at: SimTime) -> LinkFaultProfile {
        self.link_windows
            .iter()
            .rev()
            .find(|(t, _)| *t <= at)
            .map_or(LinkFaultProfile::HEALTHY, |(_, p)| *p)
    }

    /// The DMA profile in force at `at` (healthy before the first
    /// scheduled window).
    pub fn dma_profile_at(&self, at: SimTime) -> DmaFaultProfile {
        self.dma_windows
            .iter()
            .rev()
            .find(|(t, _)| *t <= at)
            .map_or(DmaFaultProfile::HEALTHY, |(_, p)| *p)
    }

    /// Sync the link injector to the profile in force at `at` and return
    /// whether any draw can fire there (false ⇒ the attempt must not
    /// consult the injector, keeping healthy spans stream-invisible).
    pub fn sync_link(&mut self, at: SimTime) -> bool {
        let p = self.link_profile_at(at);
        self.link.set_profile(p);
        !p.is_healthy()
    }

    /// Sync the DMA injector to the profile in force at `at`; see
    /// [`FaultPlane::sync_link`].
    pub fn sync_dma(&mut self, at: SimTime) -> bool {
        let p = self.dma_profile_at(at);
        self.dma.set_profile(p);
        !p.is_healthy()
    }

    /// Pop the next scheduled fault due at or before `now`, advancing
    /// the cursor.  Call in a loop to drain all due events.
    pub fn due(&mut self, now: SimTime) -> Option<FaultKind> {
        let f = self.timeline.get(self.next)?;
        if f.at <= now {
            self.next += 1;
            Some(f.kind)
        } else {
            None
        }
    }

    /// Scheduled events not yet fired.
    pub fn pending(&self) -> usize {
        self.timeline.len() - self.next
    }

    /// Uniform draw in `[0, 1)` from the plane's own stream — the
    /// deterministic jitter source for backoff randomization.
    pub fn jitter_unit(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// The dedicated bit-rot stream: picks which stored copies silently
    /// corrupt when a [`FaultKind::BitRot`] event fires.  Independent of
    /// the jitter and injector streams, so arming bit rot never moves a
    /// backoff or drop draw.
    pub fn bitrot_rng(&mut self) -> &mut Xoshiro256 {
        &mut self.bitrot
    }
}

/// Why a single I/O attempt failed (the retry loop's input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailCause {
    /// Request frame lost in flight — detected only by deadline expiry.
    LinkDrop,
    /// Response frame failed its checksum and was discarded — detected
    /// on arrival.
    LinkCorrupt,
    /// H2C DMA completed in error — reported by the completion engine.
    DmaH2c,
    /// C2H DMA completed in error — reported by the completion engine.
    DmaC2h,
    /// The cluster could not serve the op (too many replicas/shards
    /// unavailable at this epoch).
    ClusterUnavailable,
}

impl FailCause {
    /// Is this failure only observable via deadline expiry (no explicit
    /// error signal reaches the requester)?
    pub fn is_silent(self) -> bool {
        matches!(self, FailCause::LinkDrop)
    }
}

/// Engine resilience policy: deadline, bounded retry, backoff shape.
///
/// `Copy` so it rides inside `EngineConfig` the way every other knob
/// does; `None` there means "fail fast exactly as before".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Per-I/O deadline: a silent failure is detected this long after
    /// submission, and any op (even a successful one) exceeding it is
    /// counted as a timeout.
    pub deadline: SimDuration,
    /// Retry budget after the first attempt.
    pub max_retries: u32,
    /// First backoff interval (doubles each retry).
    pub backoff_base: SimDuration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Jitter fraction in `[0, 1]`: the backoff is stretched by
    /// `1 + jitter_frac * u` with `u` uniform in `[0, 1)` from the
    /// plane's deterministic stream.
    pub jitter_frac: f64,
}

impl Default for ResiliencePolicy {
    /// Paper-testbed scale: sub-100 µs datapath latencies, so a 10 ms
    /// deadline is a generous RTO; four retries with 200 µs → 3.2 ms
    /// exponential backoff ride out flaps and degrade windows.
    fn default() -> Self {
        ResiliencePolicy {
            deadline: SimDuration::from_millis(10),
            max_retries: 4,
            backoff_base: SimDuration::from_micros(200),
            backoff_cap: SimDuration::from_millis(10),
            jitter_frac: 0.5,
        }
    }
}

impl ResiliencePolicy {
    /// Backoff before retry number `attempt` (0-based), stretched by a
    /// unit jitter draw: `min(cap, base·2^attempt) · (1 + jitter·u)`.
    pub fn backoff(&self, attempt: u32, unit: f64) -> SimDuration {
        let doubled = self
            .backoff_base
            .times(1u64 << attempt.min(20))
            .min(self.backoff_cap);
        doubled * (1.0 + self.jitter_frac * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_builder_and_flap_sugar() {
        let t = SimTime::from_nanos;
        let s = FaultSchedule::new()
            .osd_flap(t(100), 7, SimDuration::from_nanos(50))
            .dfx_swap(t(10), RmId::Tree);
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].kind, FaultKind::OsdCrash { osd: 7 });
        assert_eq!(s.events()[1], TimedFault { at: t(150), kind: FaultKind::OsdRevive { osd: 7 } });
    }

    #[test]
    fn plane_fires_in_time_order_with_stable_ties() {
        let t = SimTime::from_nanos;
        // Inserted out of order, plus a tie at t=50 whose insertion
        // order (CardFault before CardRecover) must survive the sort.
        let s = FaultSchedule::new()
            .osd_crash(t(90), 1)
            .at(t(50), FaultKind::CardFault)
            .at(t(50), FaultKind::CardRecover)
            .osd_crash(t(10), 2);
        let mut plane = FaultPlane::new(s, 42);
        assert_eq!(plane.pending(), 4);
        assert_eq!(plane.due(t(5)), None);
        assert_eq!(plane.due(t(60)), Some(FaultKind::OsdCrash { osd: 2 }));
        assert_eq!(plane.due(t(60)), Some(FaultKind::CardFault));
        assert_eq!(plane.due(t(60)), Some(FaultKind::CardRecover));
        assert_eq!(plane.due(t(60)), None, "t=90 event is not yet due");
        assert_eq!(plane.due(t(90)), Some(FaultKind::OsdCrash { osd: 1 }));
        assert_eq!(plane.due(t(1_000_000)), None);
        assert_eq!(plane.pending(), 0);
    }

    #[test]
    fn plane_streams_are_deterministic_and_independent() {
        let mk = |seed| FaultPlane::new(FaultSchedule::new(), seed);
        let mut a = mk(7);
        let mut b = mk(7);
        assert_eq!(a.jitter_unit(), b.jitter_unit());
        let mut c = mk(8);
        assert_ne!(a.jitter_unit(), c.jitter_unit());
        // Jitter draws do not move the injector streams: after draining
        // jitter from `a` only, both injectors still agree with `b`'s.
        for _ in 0..100 {
            a.jitter_unit();
        }
        a.link.set_profile(LinkFaultProfile { drop_p: 0.5, corrupt_p: 0.5 });
        b.link.set_profile(LinkFaultProfile { drop_p: 0.5, corrupt_p: 0.5 });
        for _ in 0..64 {
            assert_eq!(a.link.assess_request(), b.link.assess_request());
            assert_eq!(a.link.assess_response(), b.link.assess_response());
        }
    }

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let p = ResiliencePolicy::default();
        let b0 = p.backoff(0, 0.0);
        let b1 = p.backoff(1, 0.0);
        let b2 = p.backoff(2, 0.0);
        assert_eq!(b1.as_nanos(), 2 * b0.as_nanos());
        assert_eq!(b2.as_nanos(), 4 * b0.as_nanos());
        // Deep attempts hit the cap instead of overflowing.
        assert_eq!(p.backoff(30, 0.0), p.backoff(31, 0.0));
        assert_eq!(p.backoff(30, 0.0), p.backoff_cap);
        // Full jitter stretches by 1 + jitter_frac.
        let jittered = p.backoff(0, 0.999999);
        assert!(jittered > b0 && jittered.as_nanos() <= (b0 * (1.0 + p.jitter_frac)).as_nanos());
    }

    #[test]
    fn fault_kind_labels_distinguish_degrade_from_restore() {
        assert_eq!(FaultKind::OsdCrash { osd: 3 }.label(), "osd_crash");
        assert_eq!(FaultKind::OsdRevive { osd: 3 }.label(), "osd_revive");
        let degraded = LinkFaultProfile { drop_p: 0.1, corrupt_p: 0.0 };
        assert_eq!(FaultKind::LinkDegrade(degraded).label(), "link_degrade");
        assert_eq!(FaultKind::LinkDegrade(LinkFaultProfile::HEALTHY).label(), "link_restore");
        assert_eq!(FaultKind::DmaDegrade(DmaFaultProfile::HEALTHY).label(), "dma_restore");
        assert_eq!(FaultKind::CardFault.label(), "card_fault");
        assert_eq!(FaultKind::CardRecover.label(), "card_recover");
        assert_eq!(FaultKind::DfxSwap { target: RmId::Tree }.label(), "dfx_swap");
        assert_eq!(FaultKind::BitRot { copies: 4 }.label(), "bit_rot");
    }

    #[test]
    fn bit_rot_sugar_and_independent_stream() {
        let t = SimTime::from_nanos;
        let s = FaultSchedule::new().bit_rot(t(100), 6);
        assert_eq!(s.events()[0], TimedFault { at: t(100), kind: FaultKind::BitRot { copies: 6 } });

        // Draining the bit-rot stream must not move the jitter stream,
        // and vice versa: each is its own seeded generator.
        let mut a = FaultPlane::new(FaultSchedule::new(), 7);
        let mut b = FaultPlane::new(FaultSchedule::new(), 7);
        for _ in 0..100 {
            a.bitrot_rng().next_u64();
        }
        assert_eq!(a.jitter_unit(), b.jitter_unit());
        for _ in 0..100 {
            b.jitter_unit();
            b.bitrot_rng().next_u64();
        }
        assert_eq!(a.bitrot_rng().next_u64(), b.bitrot_rng().next_u64());
        // Different seeds diverge.
        let mut c = FaultPlane::new(FaultSchedule::new(), 8);
        assert_ne!(a.bitrot_rng().next_u64(), c.bitrot_rng().next_u64());
    }

    #[test]
    fn fail_cause_detection_classes() {
        assert!(FailCause::LinkDrop.is_silent());
        for c in [
            FailCause::LinkCorrupt,
            FailCause::DmaH2c,
            FailCause::DmaC2h,
            FailCause::ClusterUnavailable,
        ] {
            assert!(!c.is_silent(), "{c:?} carries an explicit error signal");
        }
    }
}
