//! Queueing resources shared by all timing models.
//!
//! The DeLiBA-K end-to-end pipeline is a chain of contended resources:
//! per-core host CPUs, the NBD daemon event loop (DeLiBA-1/-2), the PCIe
//! link, the FPGA accelerator pipeline, the 10 GbE link and the OSDs.
//! Each is modeled with one of the primitives here.  All of them operate
//! on *virtual* time supplied by the caller — they never consult a real
//! clock — so the same structs serve both the analytic latency probes
//! (Table II) and the saturation experiments (Figs. 6–9).

use crate::time::{SimDuration, SimTime};

/// A single FIFO server: one request in service at a time.
///
/// `begin(now, service)` returns the interval during which the request is
/// actually served, after waiting for everything already queued.
#[derive(Debug, Clone, Default)]
pub struct Server {
    next_free: SimTime,
    busy: SimDuration,
}

impl Server {
    /// New idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue work arriving at `now` needing `service` time; returns
    /// (start, finish).
    pub fn begin(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = if self.next_free > now { self.next_free } else { now };
        let finish = start + service;
        self.next_free = finish;
        self.busy += service;
        (start, finish)
    }

    /// Earliest time a request arriving at `now` would start service.
    pub fn earliest_start(&self, now: SimTime) -> SimTime {
        if self.next_free > now {
            self.next_free
        } else {
            now
        }
    }

    /// Cumulative busy time (for utilization reports).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Utilization over the window `[0, horizon]`.
    pub(crate) fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_nanos() == 0 {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

/// A bank of `c` identical FIFO servers (e.g. the three io_uring
/// submission cores, or an OSD with internal parallelism).
#[derive(Debug, Clone)]
pub struct MultiServer {
    next_free: Vec<SimTime>,
    busy: SimDuration,
    served: u64,
}

impl MultiServer {
    /// `servers` identical servers, all idle.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        MultiServer {
            next_free: vec![SimTime::ZERO; servers],
            busy: SimDuration::ZERO,
            served: 0,
        }
    }

    /// Serve a request arriving at `now` on the earliest-free server;
    /// returns (start, finish).
    pub fn begin(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        // Pick the server that frees up first (deterministic: lowest index
        // wins ties).
        let (idx, &free) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .expect("at least one server");
        let start = if free > now { free } else { now };
        let finish = start + service;
        self.next_free[idx] = finish;
        self.busy += service;
        self.served += 1;
        (start, finish)
    }

    /// Requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cumulative busy time across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Servers still occupied at `at` — the instantaneous queue depth
    /// the telemetry plane samples at window boundaries.
    pub fn busy_at(&self, at: SimTime) -> u32 {
        self.next_free.iter().filter(|&&t| t > at).count() as u32
    }

    /// Mean utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_nanos() == 0 {
            return 0.0;
        }
        self.busy.as_nanos() as f64
            / (horizon.as_nanos() as f64 * self.next_free.len() as f64)
    }
}

/// A serializing bandwidth pipe (a link): transfers occupy the pipe for
/// `bytes / rate` and queue behind one another.
///
/// Propagation latency is added after serialization completes, matching
/// the usual store-and-forward model.
#[derive(Debug, Clone)]
pub struct Bandwidth {
    bytes_per_sec: f64,
    propagation: SimDuration,
    pipe: Server,
    bytes_moved: u64,
    /// Last `bytes → serialization` pair.  Transfer sizes on any given
    /// pipe repeat op after op (a fixed control frame, a fixed payload
    /// frame), so this one-entry memo hits almost always and skips the
    /// f64 divide + round on the hot path.  Exact by construction: the
    /// cached value is what [`Bandwidth::serialization`] returned for
    /// the identical input.
    memo_bytes: u64,
    memo_ser: SimDuration,
}

impl Bandwidth {
    /// A pipe with the given rate and propagation delay.
    pub fn new(bytes_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(bytes_per_sec > 0.0);
        Bandwidth {
            bytes_per_sec,
            propagation,
            pipe: Server::new(),
            bytes_moved: 0,
            // (0 bytes, zero delay) is itself a valid memo entry.
            memo_bytes: 0,
            memo_ser: SimDuration::ZERO,
        }
    }

    /// Convenience: rate given in Gbit/s.
    pub fn from_gbps(gbps: f64, propagation: SimDuration) -> Self {
        Self::new(gbps * 1e9 / 8.0, propagation)
    }

    /// Pure serialization delay for `bytes` (no queueing, no propagation).
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Transfer `bytes` starting no earlier than `now`; returns the time
    /// the last bit arrives at the far end.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        if bytes != self.memo_bytes {
            self.memo_bytes = bytes;
            self.memo_ser = self.serialization(bytes);
        }
        let (_, fin) = self.pipe.begin(now, self.memo_ser);
        self.bytes_moved += bytes;
        fin + self.propagation
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Link utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.pipe.utilization(horizon)
    }

    /// Cumulative serialization (busy) time of the pipe — the
    /// telemetry plane differences consecutive samples of this for
    /// per-window link utilization.
    pub fn busy_time(&self) -> SimDuration {
        self.pipe.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn server_fifo_queueing() {
        let mut s = Server::new();
        let (a0, a1) = s.begin(SimTime(0), SimDuration(10 * US));
        assert_eq!((a0, a1), (SimTime(0), SimTime(10 * US)));
        // Second request arrives while the first is in service.
        let (b0, b1) = s.begin(SimTime(3 * US), SimDuration(10 * US));
        assert_eq!(b0, SimTime(10 * US));
        assert_eq!(b1, SimTime(20 * US));
        // Third arrives after the queue drained.
        let (c0, _) = s.begin(SimTime(50 * US), SimDuration(US));
        assert_eq!(c0, SimTime(50 * US));
        assert_eq!(s.busy_time(), SimDuration(21 * US));
    }

    #[test]
    fn multiserver_parallelism() {
        let mut m = MultiServer::new(3);
        // Three simultaneous arrivals are served in parallel.
        for _ in 0..3 {
            let (start, fin) = m.begin(SimTime(0), SimDuration(10 * US));
            assert_eq!(start, SimTime(0));
            assert_eq!(fin, SimTime(10 * US));
        }
        // Fourth queues behind the earliest-free server.
        let (start, fin) = m.begin(SimTime(0), SimDuration(10 * US));
        assert_eq!(start, SimTime(10 * US));
        assert_eq!(fin, SimTime(20 * US));
    }

    #[test]
    fn multiserver_picks_earliest_free() {
        let mut m = MultiServer::new(2);
        m.begin(SimTime(0), SimDuration(100));
        m.begin(SimTime(0), SimDuration(10));
        // Server 1 frees at 10, server 0 at 100.
        let (start, _) = m.begin(SimTime(0), SimDuration(5));
        assert_eq!(start, SimTime(10));
    }

    #[test]
    fn bandwidth_serialization_math() {
        // 10 Gbit/s = 1.25 GB/s: 4 KiB should serialize in ~3.277 µs.
        let bw = Bandwidth::from_gbps(10.0, SimDuration::ZERO);
        let t = bw.serialization(4096);
        let expected_ns = (4096.0 * 8.0 / 10e9 * 1e9) as i64;
        assert!((t.as_nanos() as i64 - expected_ns).abs() <= 1);
    }

    #[test]
    fn bandwidth_transfers_queue() {
        let mut bw = Bandwidth::new(1_000_000_000.0, SimDuration(500)); // 1 GB/s, 500ns prop
        let fin1 = bw.transfer(SimTime(0), 1_000_000); // 1 MB → 1 ms serialize
        assert_eq!(fin1, SimTime(1_000_000 + 500));
        let fin2 = bw.transfer(SimTime(0), 1_000_000);
        assert_eq!(fin2, SimTime(2_000_000 + 500), "second transfer queues");
        assert_eq!(bw.bytes_moved(), 2_000_000);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Server::new();
        s.begin(SimTime(0), SimDuration(25));
        s.begin(SimTime(0), SimDuration(25));
        assert!((s.utilization(SimTime(100)) - 0.5).abs() < 1e-9);

        let mut m = MultiServer::new(2);
        m.begin(SimTime(0), SimDuration(50));
        assert!((m.utilization(SimTime(100)) - 0.25).abs() < 1e-9);
    }
}
