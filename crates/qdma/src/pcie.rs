//! PCIe DMA pipes — the payload timing of the QDMA path.
//!
//! The QDMA moves payloads over two independent PCIe directions (H2C
//! and C2H share the link but not each other's queues).  [`PciePipes`]
//! bundles one [`Bandwidth`] pipe per direction so the engine charges
//! DMA time (the `qdma_h2c` and `qdma_c2h` stages) and reads link
//! utilization through one type.  The per-I/O descriptor cost is not
//! charged here: it is a calibrated constant of the driver stage.

use deliba_sim::{Bandwidth, InstantKind, Observer, SimDuration, SimTime, TraceLayer};

/// Paired host→card / card→host PCIe pipes.
#[derive(Debug, Clone)]
pub struct PciePipes {
    h2c: Bandwidth,
    c2h: Bandwidth,
    trace: Observer,
}

impl PciePipes {
    /// Pipes with `gbytes_per_sec` effective rate per direction and no
    /// propagation delay (PCIe flight time is folded into the
    /// descriptor-cost calibration).
    pub fn new(gbytes_per_sec: f64) -> Self {
        PciePipes {
            h2c: Bandwidth::new(gbytes_per_sec * 1e9, SimDuration::ZERO),
            c2h: Bandwidth::new(gbytes_per_sec * 1e9, SimDuration::ZERO),
            trace: Observer::off(),
        }
    }

    /// Attach the run's observer (full-depth recording marks each
    /// DMA transfer on the timeline; lane 0 = H2C, lane 1 = C2H).
    pub fn set_trace(&mut self, trace: Observer) {
        self.trace = trace;
    }

    /// DMA `bytes` host→card starting no earlier than `now`; returns
    /// arrival time at the card.
    pub fn h2c_transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let done = self.h2c.transfer(now, bytes);
        if self.trace.full() {
            self.trace
                .instant_lane(done, TraceLayer::Qdma, 0, InstantKind::DmaH2c, bytes);
        }
        done
    }

    /// DMA `bytes` card→host starting no earlier than `now`; returns
    /// arrival time in host memory.
    pub fn c2h_transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let done = self.c2h.transfer(now, bytes);
        if self.trace.full() {
            self.trace
                .instant_lane(done, TraceLayer::Qdma, 1, InstantKind::DmaC2h, bytes);
        }
        done
    }

    /// Busiest-direction link utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.h2c.utilization(horizon).max(self.c2h.utilization(horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_do_not_queue_on_each_other() {
        let mut p = PciePipes::new(1.0); // 1 GB/s → 1 ns per byte
        let h = p.h2c_transfer(SimTime::ZERO, 1000);
        let c = p.c2h_transfer(SimTime::ZERO, 1000);
        assert_eq!(h.as_nanos(), 1000);
        assert_eq!(c.as_nanos(), 1000, "full-duplex: C2H not behind H2C");
        // Same direction does queue.
        let h2 = p.h2c_transfer(SimTime::ZERO, 1000);
        assert_eq!(h2.as_nanos(), 2000);
    }

    #[test]
    fn utilization_tracks_the_busier_direction() {
        let mut p = PciePipes::new(1.0);
        p.h2c_transfer(SimTime::ZERO, 800);
        p.c2h_transfer(SimTime::ZERO, 200);
        let horizon = SimTime::from_nanos(1000);
        assert!((p.utilization(horizon) - 0.8).abs() < 1e-9);
    }
}
