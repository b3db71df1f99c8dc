//! Link-level fault injection: probabilistic frame drop and corruption.
//!
//! The 10 GbE pipe between the client and the storage servers is the
//! one segment of the paper's datapath with no hardware error signal —
//! a lost frame is only discovered by the requester's own deadline, and
//! a corrupted frame is caught by the Ethernet FCS / TCP checksum and
//! discarded at the receiver.  [`LinkFaultInjector`] models both as
//! Bernoulli trials over a deterministic PRNG stream, so a seeded run
//! replays the exact same loss pattern every time.

use deliba_sim::{SimRng, Xoshiro256};

/// Probabilities the link applies to each request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultProfile {
    /// Probability the request frame is dropped in flight (detected
    /// only by deadline expiry at the requester).
    pub drop_p: f64,
    /// Probability the response frame arrives corrupted (detected by
    /// the FCS/checksum at the receiver and discarded).
    pub corrupt_p: f64,
}

impl LinkFaultProfile {
    /// A healthy link: nothing dropped, nothing corrupted.
    pub const HEALTHY: LinkFaultProfile = LinkFaultProfile { drop_p: 0.0, corrupt_p: 0.0 };

    /// Both probabilities zero?
    pub fn is_healthy(&self) -> bool {
        self.drop_p <= 0.0 && self.corrupt_p <= 0.0
    }
}

impl Default for LinkFaultProfile {
    fn default() -> Self {
        Self::HEALTHY
    }
}

/// What happened to one frame exchange on a degraded link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Frame delivered intact.
    Deliver,
    /// Frame lost in flight.
    Drop,
    /// Frame delivered but fails its checksum at the receiver.
    Corrupt,
}

/// Deterministic per-link fault source.
///
/// Holds its own PRNG stream (seeded by the fault plane) so the loss
/// pattern is independent of — and cannot perturb — the workload and
/// service-time streams.  When the profile is healthy the injector
/// draws nothing, so an idle injector is timing- and stream-invisible.
#[derive(Debug)]
pub struct LinkFaultInjector {
    profile: LinkFaultProfile,
    rng: Xoshiro256,
    drops: u64,
    corrupts: u64,
}

impl LinkFaultInjector {
    /// A healthy injector over its own PRNG stream.
    pub fn new(rng: Xoshiro256) -> Self {
        LinkFaultInjector {
            profile: LinkFaultProfile::HEALTHY,
            rng,
            drops: 0,
            corrupts: 0,
        }
    }

    /// Swap the active probabilities (a timed `LinkDegrade` event).
    pub fn set_profile(&mut self, profile: LinkFaultProfile) {
        self.profile = profile;
    }

    /// Judge the request frame: lost in flight?
    pub fn assess_request(&mut self) -> LinkVerdict {
        if self.profile.drop_p > 0.0 && self.rng.gen_bool(self.profile.drop_p) {
            self.drops += 1;
            return LinkVerdict::Drop;
        }
        LinkVerdict::Deliver
    }

    /// Judge the response frame: corrupted on the wire?
    pub fn assess_response(&mut self) -> LinkVerdict {
        if self.profile.corrupt_p > 0.0 && self.rng.gen_bool(self.profile.corrupt_p) {
            self.corrupts += 1;
            return LinkVerdict::Corrupt;
        }
        LinkVerdict::Deliver
    }

    /// Frames dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Frames corrupted so far.
    pub fn corrupts(&self) -> u64 {
        self.corrupts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(seed: u64) -> LinkFaultInjector {
        LinkFaultInjector::new(Xoshiro256::seed_from_u64(seed))
    }

    #[test]
    fn healthy_link_never_faults_and_draws_nothing() {
        let mut a = injector(7);
        for _ in 0..1000 {
            assert_eq!(a.assess_request(), LinkVerdict::Deliver);
            assert_eq!(a.assess_response(), LinkVerdict::Deliver);
        }
        assert_eq!((a.drops(), a.corrupts()), (0, 0));
        // Zero-probability assessments consume no randomness: the stream
        // is untouched, so a fresh twin produces the same next value.
        let mut b = injector(7);
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn degraded_link_faults_deterministically() {
        let run = |seed| {
            let mut inj = injector(seed);
            inj.set_profile(LinkFaultProfile { drop_p: 0.2, corrupt_p: 0.1 });
            let mut pattern = Vec::new();
            for _ in 0..500 {
                pattern.push((inj.assess_request(), inj.assess_response()));
            }
            (pattern, inj.drops(), inj.corrupts())
        };
        let (p1, d1, c1) = run(42);
        let (p2, d2, c2) = run(42);
        assert_eq!(p1, p2, "same seed must replay the same loss pattern");
        assert_eq!((d1, c1), (d2, c2));
        assert!(d1 > 50 && d1 < 150, "≈20 % of 500: {d1}");
        assert!(c1 > 20 && c1 < 100, "≈10 % of 500: {c1}");
        let (p3, ..) = run(43);
        assert_ne!(p1, p3, "different seeds give different patterns");
    }

    #[test]
    fn profile_swap_applies_immediately() {
        let mut inj = injector(1);
        inj.set_profile(LinkFaultProfile { drop_p: 1.0, corrupt_p: 1.0 });
        assert_eq!(inj.assess_request(), LinkVerdict::Drop);
        assert_eq!(inj.assess_response(), LinkVerdict::Corrupt);
        inj.set_profile(LinkFaultProfile::HEALTHY);
        assert!(inj.profile.is_healthy());
        assert_eq!(inj.assess_request(), LinkVerdict::Deliver);
    }
}
