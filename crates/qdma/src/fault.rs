//! QDMA-level fault injection: completion errors and descriptor
//! exhaustion.
//!
//! On the card, the QDMA completion engine reports per-descriptor
//! status; a C2H or H2C transfer that completes in error is visible to
//! the driver immediately (unlike a lost network frame), so the engine
//! fails the I/O fast and lets its retry policy take over.  Descriptor
//! exhaustion — the 64 KiB UltraRAM descriptor budget momentarily empty
//! — is not an error at all: the fetch engine stalls the queue until
//! credits return, which the engine charges as added H2C latency, not a
//! failure.  Neither the rings nor the budget are simulated; the
//! injector draws both outcomes from the active [`DmaFaultProfile`].

use deliba_sim::{SimDuration, SimRng, Xoshiro256};

/// Probabilities applied to each DMA transfer while a `DmaDegrade`
/// fault is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaFaultProfile {
    /// Probability an H2C (host→card) transfer completes in error.
    pub h2c_error_p: f64,
    /// Probability a C2H (card→host) transfer completes in error.
    pub c2h_error_p: f64,
    /// Probability the descriptor fetch finds the ring momentarily out
    /// of credits and stalls for [`DESCRIPTOR_STALL`].
    pub exhaust_p: f64,
}

impl DmaFaultProfile {
    /// A healthy DMA engine.
    pub const HEALTHY: DmaFaultProfile =
        DmaFaultProfile { h2c_error_p: 0.0, c2h_error_p: 0.0, exhaust_p: 0.0 };

    /// All probabilities zero?
    pub fn is_healthy(&self) -> bool {
        self.h2c_error_p <= 0.0 && self.c2h_error_p <= 0.0 && self.exhaust_p <= 0.0
    }
}

impl Default for DmaFaultProfile {
    fn default() -> Self {
        Self::HEALTHY
    }
}

/// Stall charged when the descriptor budget is exhausted: the fetch
/// engine waits one credit-replenish round trip over PCIe (~5 µs at
/// Gen3 ×16 latencies) before re-issuing the fetch.
pub const DESCRIPTOR_STALL: SimDuration = SimDuration::from_micros(5);

/// Deterministic DMA fault source with per-direction error counters.
///
/// Like the link injector, a healthy profile draws nothing from the
/// PRNG stream, so an inactive injector cannot perturb a run.
#[derive(Debug)]
pub struct DmaFaultInjector {
    profile: DmaFaultProfile,
    rng: Xoshiro256,
    h2c_errors: u64,
    c2h_errors: u64,
    stalls: u64,
}

impl DmaFaultInjector {
    /// A healthy injector over its own PRNG stream.
    pub fn new(rng: Xoshiro256) -> Self {
        DmaFaultInjector {
            profile: DmaFaultProfile::HEALTHY,
            rng,
            h2c_errors: 0,
            c2h_errors: 0,
            stalls: 0,
        }
    }

    /// Swap the active probabilities (a timed `DmaDegrade` event).
    pub fn set_profile(&mut self, profile: DmaFaultProfile) {
        self.profile = profile;
    }

    /// The active probabilities.
    pub fn profile(&self) -> DmaFaultProfile {
        self.profile
    }

    /// Does this H2C transfer complete in error?
    pub fn assess_h2c(&mut self) -> bool {
        if self.profile.h2c_error_p > 0.0 && self.rng.gen_bool(self.profile.h2c_error_p) {
            self.h2c_errors += 1;
            return true;
        }
        false
    }

    /// Does this C2H transfer complete in error?
    pub fn assess_c2h(&mut self) -> bool {
        if self.profile.c2h_error_p > 0.0 && self.rng.gen_bool(self.profile.c2h_error_p) {
            self.c2h_errors += 1;
            return true;
        }
        false
    }

    /// Descriptor-fetch credit check: `Some(stall)` when the ring is
    /// momentarily exhausted and the transfer is delayed (not failed).
    pub fn assess_fetch(&mut self) -> Option<SimDuration> {
        if self.profile.exhaust_p > 0.0 && self.rng.gen_bool(self.profile.exhaust_p) {
            self.stalls += 1;
            return Some(DESCRIPTOR_STALL);
        }
        None
    }

    /// H2C completion errors so far.
    pub fn h2c_errors(&self) -> u64 {
        self.h2c_errors
    }

    /// C2H completion errors so far.
    pub fn c2h_errors(&self) -> u64 {
        self.c2h_errors
    }

    /// Descriptor-exhaustion stalls so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(seed: u64) -> DmaFaultInjector {
        DmaFaultInjector::new(Xoshiro256::seed_from_u64(seed))
    }

    #[test]
    fn healthy_engine_never_faults_and_draws_nothing() {
        let mut a = injector(9);
        for _ in 0..1000 {
            assert!(!a.assess_h2c());
            assert!(!a.assess_c2h());
            assert_eq!(a.assess_fetch(), None);
        }
        assert_eq!((a.h2c_errors(), a.c2h_errors(), a.stalls()), (0, 0, 0));
        let mut b = injector(9);
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn degraded_engine_errors_deterministically() {
        let run = |seed| {
            let mut inj = injector(seed);
            inj.set_profile(DmaFaultProfile {
                h2c_error_p: 0.15,
                c2h_error_p: 0.1,
                exhaust_p: 0.25,
            });
            let mut pattern = Vec::new();
            for _ in 0..400 {
                pattern.push((inj.assess_h2c(), inj.assess_c2h(), inj.assess_fetch()));
            }
            (pattern, inj.h2c_errors(), inj.c2h_errors(), inj.stalls())
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay the same error pattern");
        let (_, h2c, c2h, stalls) = a;
        assert!(h2c > 20 && h2c < 120, "≈15 % of 400: {h2c}");
        assert!(c2h > 10 && c2h < 90, "≈10 % of 400: {c2h}");
        assert!(stalls > 50 && stalls < 160, "≈25 % of 400: {stalls}");
    }

    #[test]
    fn exhaustion_stalls_instead_of_failing() {
        let mut inj = injector(3);
        inj.set_profile(DmaFaultProfile { h2c_error_p: 0.0, c2h_error_p: 0.0, exhaust_p: 1.0 });
        assert_eq!(inj.assess_fetch(), Some(DESCRIPTOR_STALL));
        assert!(!inj.assess_h2c(), "stall pressure is not a completion error");
        assert_eq!(inj.stalls(), 1);
    }
}
