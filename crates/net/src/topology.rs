//! The client ↔ storage-servers star topology of the testbed.
//!
//! One client node (with the U280) and `n` storage servers, each behind
//! its own 10 GbE port on a common switch.  The client's port is the
//! shared bottleneck for all client↔cluster traffic; server↔server
//! replication traffic rides each server's own port.

use crate::frame::FrameConfig;
use crate::link::EthLink;
use deliba_sim::{InstantKind, Observer, SimDuration, SimTime, TraceLayer};

/// The star topology.
///
/// Each storage server has *two* ports, following standard Ceph
/// deployment practice: a **public** port (client traffic) and a
/// **cluster** port (replication/recovery traffic between OSD hosts), so
/// replica fan-out does not contend with client I/O.
#[derive(Debug, Clone)]
pub struct Topology {
    client_tx: EthLink,
    client_rx: EthLink,
    server_tx: Vec<EthLink>,
    server_rx: Vec<EthLink>,
    cluster_tx: Vec<EthLink>,
    cluster_rx: Vec<EthLink>,
    trace: Observer,
}

impl Topology {
    /// `servers` storage servers, all ports at `gbps` with the given
    /// framing.
    pub fn new(servers: usize, gbps: f64, propagation: SimDuration, frames: FrameConfig) -> Self {
        assert!(servers > 0);
        let mk = || EthLink::new(gbps, propagation, frames);
        Topology {
            client_tx: mk(),
            client_rx: mk(),
            server_tx: (0..servers).map(|_| mk()).collect(),
            server_rx: (0..servers).map(|_| mk()).collect(),
            cluster_tx: (0..servers).map(|_| mk()).collect(),
            cluster_rx: (0..servers).map(|_| mk()).collect(),
            trace: Observer::off(),
        }
    }

    /// Attach the run's observer (full-depth recording marks each
    /// link departure; the lane is the destination port).
    pub fn set_trace(&mut self, trace: Observer) {
        self.trace = trace;
    }

    /// Number of storage servers.
    pub(crate) fn servers(&self) -> usize {
        self.server_tx.len()
    }

    /// Client sends `payload` bytes to `server`; returns arrival time.
    /// Occupies the client TX port and the server RX port.
    pub fn client_to_server(&mut self, now: SimTime, server: usize, payload: u64) -> SimTime {
        if self.trace.full() {
            self.trace
                .instant_lane(now, TraceLayer::Net, server as u32, InstantKind::LinkTx, payload);
        }
        let on_wire = self.client_tx.send(now, payload);
        // Store-and-forward through the switch into the server port.
        self.server_rx[server].send(on_wire, payload)
    }

    /// Server sends `payload` bytes back to the client.
    pub fn server_to_client(&mut self, now: SimTime, server: usize, payload: u64) -> SimTime {
        let on_wire = self.server_tx[server].send(now, payload);
        self.client_rx.send(on_wire, payload)
    }

    /// Server-to-server transfer (replication fan-out between OSD hosts)
    /// — rides the dedicated cluster network.
    pub fn server_to_server(&mut self, now: SimTime, from: usize, to: usize, payload: u64) -> SimTime {
        if self.trace.full() {
            self.trace
                .instant_lane(now, TraceLayer::Net, to as u32, InstantKind::LinkTx, payload);
        }
        let on_wire = self.cluster_tx[from].send(now, payload);
        self.cluster_rx[to].send(on_wire, payload)
    }

    /// Cumulative busy time per link class, with the pipe count of each
    /// class: `(client_tx, client_rx, server public tx+rx, cluster
    /// tx+rx)`.  The telemetry plane differences consecutive samples
    /// for per-window, per-class link utilization.
    pub fn class_busy_times(&self) -> ([SimDuration; 4], [u32; 4]) {
        let sum = |links: &[EthLink]| -> SimDuration {
            links.iter().fold(SimDuration::ZERO, |acc, l| acc + l.busy_time())
        };
        let busy = [
            self.client_tx.busy_time(),
            self.client_rx.busy_time(),
            sum(&self.server_tx) + sum(&self.server_rx),
            sum(&self.cluster_tx) + sum(&self.cluster_rx),
        ];
        let n = self.servers() as u32;
        let pipes = [1, 1, 2 * n, 2 * n];
        (busy, pipes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's lab: 2 servers on 9.8 Gb/s effective 10 GbE.
    fn lab() -> Topology {
        Topology::new(
            2,
            crate::link::MEASURED_GBPS,
            crate::link::PROPAGATION,
            FrameConfig::standard(),
        )
    }

    #[test]
    fn client_port_is_shared_bottleneck() {
        let mut t = lab();
        // Two sends to *different* servers still serialize on the client
        // TX port.
        let a = t.client_to_server(SimTime::ZERO, 0, 128 * 1024);
        let b = t.client_to_server(SimTime::ZERO, 1, 128 * 1024);
        assert!(b > a);
    }

    #[test]
    fn server_ports_are_independent() {
        let mut t = lab();
        // Replies from different servers do not serialize against each
        // other on the server side (only on client RX).
        let a = t.server_to_client(SimTime::ZERO, 0, 4096);
        let b = t.server_to_client(SimTime::ZERO, 1, 4096);
        // Client RX is shared, so b lands after a but by only one
        // serialization, not a full server-side stall.
        assert!(b >= a);
    }

    #[test]
    fn server_to_server_bypasses_client() {
        let mut t = lab();
        // Saturate the client port.
        for _ in 0..100 {
            t.client_to_server(SimTime::ZERO, 0, 128 * 1024);
        }
        // Server-to-server traffic is unaffected by client port backlog.
        let s2s = t.server_to_server(SimTime::ZERO, 0, 1, 4096);
        assert!(s2s.as_nanos() < 50_000, "{s2s}");
    }

    #[test]
    fn round_trip_latency_sane() {
        let mut t = lab();
        let req = t.client_to_server(SimTime::ZERO, 0, 4096);
        let resp = t.server_to_client(req, 0, 4096);
        // Two store-and-forward hops each way with 2 µs propagation:
        // ~7 µs per direction for 4 KiB.
        let total = resp.as_nanos();
        assert!((10_000..30_000).contains(&total), "{total} ns");
    }
}
