//! The 10 GbE link: serialization, propagation and framing overhead.

use crate::frame::FrameConfig;
use deliba_sim::{Bandwidth, SimDuration, SimTime};

/// Raw bandwidth the paper measured with iperf (§III-C1).
pub const MEASURED_GBPS: f64 = 9.8;

/// One-way propagation + switch latency inside the lab network.
pub const PROPAGATION: SimDuration = SimDuration(500); // switch + serialization slack

/// A serializing Ethernet link.
#[derive(Debug, Clone)]
pub(crate) struct EthLink {
    bw: Bandwidth,
    frames: FrameConfig,
}

impl EthLink {
    /// A link with explicit rate and framing.
    pub(crate) fn new(gbps: f64, propagation: SimDuration, frames: FrameConfig) -> Self {
        EthLink {
            bw: Bandwidth::from_gbps(gbps, propagation),
            frames,
        }
    }

    /// Send `payload` application bytes starting no earlier than `now`;
    /// returns when the last bit arrives.  Wire overhead (headers, IFG,
    /// runt padding) is charged on top of the payload.
    pub(crate) fn send(&mut self, now: SimTime, payload: u64) -> SimTime {
        let wire = self.frames.wire_bytes(payload);
        self.bw.transfer(now, wire)
    }

    /// Cumulative serialization (busy) time — the telemetry plane
    /// differences samples of this for per-window link utilization.
    pub(crate) fn busy_time(&self) -> SimDuration {
        self.bw.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's lab link: 9.8 Gb/s, 2 µs propagation, standard MTU.
    fn lab_10g() -> EthLink {
        EthLink::new(MEASURED_GBPS, PROPAGATION, FrameConfig::standard())
    }

    /// Serialization time for `payload` bytes without queueing or
    /// propagation.
    fn serialization(link: &EthLink, payload: u64) -> SimDuration {
        link.bw.serialization(link.frames.wire_bytes(payload))
    }

    #[test]
    fn four_k_serialization_near_theory() {
        let link = lab_10g();
        // 4 KiB = 3 frames: 4096 + 3*78 = 4330 wire bytes at 9.8 Gb/s
        // ≈ 3.53 µs.
        let t = serialization(&link, 4096).as_nanos();
        assert!((3_400..3_700).contains(&t), "{t} ns");
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut link = lab_10g();
        let a = link.send(SimTime::ZERO, 128 * 1024);
        let b = link.send(SimTime::ZERO, 128 * 1024);
        assert!(b > a, "second transfer serializes behind the first");
        let gap = (b - a).as_nanos();
        let ser = serialization(&link, 128 * 1024).as_nanos();
        assert_eq!(gap, ser);
    }

    #[test]
    fn propagation_added_once() {
        let mut link = EthLink::new(10.0, SimDuration::from_micros(5), FrameConfig::standard());
        let arrive = link.send(SimTime::ZERO, 1000);
        assert!(arrive.as_nanos() > 5_000);
        assert!(arrive.as_nanos() < 7_000);
    }

    #[test]
    fn sustained_goodput_below_line_rate() {
        // Pushing 100 MB of 4 KiB messages: goodput must be below
        // 9.8 Gb/s × efficiency but above 85 % of it.
        let mut link = lab_10g();
        let mut t = SimTime::ZERO;
        let n = 25_600; // 100 MiB offered at t = 0, draining at line rate
        for _ in 0..n {
            t = link.send(SimTime::ZERO, 4096);
        }
        let secs = t.as_secs_f64();
        let goodput_gbps = (n as f64 * 4096.0 * 8.0) / secs / 1e9;
        assert!(goodput_gbps < MEASURED_GBPS);
        assert!(goodput_gbps > 0.85 * MEASURED_GBPS, "{goodput_gbps}");
    }
}
