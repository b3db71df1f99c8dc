//! TCP/IP stack models: host software vs. HLS FPGA vs. RTL FPGA.
//!
//! §IV-D: "In the previous version of DeLiBA, the storage accelerators
//! relied on a High-Level Synthesis (HLS)-based communication library
//! and a HLS-based open-source TCP/IP block.  In DeLiBA-K … the RX and
//! TX modules … have been redesigned in Verilog, addressing the
//! performance limitations inherent in the HLS-based design."
//!
//! The model charges each stack a per-segment processing latency and a
//! per-segment host-CPU cost (zero for the on-FPGA stacks — that is the
//! offload benefit).

use crate::frame::FrameConfig;
use deliba_sim::SimDuration;

/// Which TCP/IP implementation processes a flow's segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpStackKind {
    /// Linux kernel TCP on the host (interrupts, softirq, socket locks).
    HostSoftware,
    /// The open-source HLS TCP block used by DeLiBA-1/-2.
    HlsFpga,
    /// The DeLiBA-K Verilog RTL TX/RX path at the 260 MHz CMAC clock.
    RtlFpga,
}

/// Per-segment pipeline latencies.  The HLS block is dominated by its
/// deep, II-limited pipeline; the RTL redesign cuts both the cycle count
/// and the host round-trips (§IV-D).  Host software pays the full
/// softirq + socket path.
const HOST_SW_PER_SEGMENT_NS: u64 = 2_300;
const HLS_PER_SEGMENT_NS: u64 = 1_150;
const RTL_PER_SEGMENT_NS: u64 = 260;

/// Host CPU consumed per segment (only the software stack).
const HOST_SW_CPU_PER_SEGMENT_NS: u64 = 1_800;

/// Fixed per-message (per I/O) protocol cost: connection/session state
/// touch, one ACK round on the return path, etc.
const HOST_SW_PER_MSG_NS: u64 = 3_000;
const HLS_PER_MSG_NS: u64 = 1_600;
const RTL_PER_MSG_NS: u64 = 700;

/// A TCP stack instance bound to a framing config.
#[derive(Debug, Clone, Copy)]
pub struct TcpStack {
    /// Implementation flavour.
    pub kind: TcpStackKind,
    /// Framing in use on the link.
    pub(crate) frames: FrameConfig,
}

impl TcpStack {
    /// A stack of the given kind with standard framing.
    pub fn new(kind: TcpStackKind) -> Self {
        TcpStack {
            kind,
            frames: FrameConfig::standard(),
        }
    }

    /// True when segment processing runs on the FPGA — the stack's
    /// latency then belongs to the card-side `NetTx` stage of the
    /// breakdown rather than to host CPU time.
    pub fn is_offloaded(&self) -> bool {
        self.kind != TcpStackKind::HostSoftware
    }

    fn per_segment_ns(&self) -> u64 {
        match self.kind {
            TcpStackKind::HostSoftware => HOST_SW_PER_SEGMENT_NS,
            TcpStackKind::HlsFpga => HLS_PER_SEGMENT_NS,
            TcpStackKind::RtlFpga => RTL_PER_SEGMENT_NS,
        }
    }

    fn per_msg_ns(&self) -> u64 {
        match self.kind {
            TcpStackKind::HostSoftware => HOST_SW_PER_MSG_NS,
            TcpStackKind::HlsFpga => HLS_PER_MSG_NS,
            TcpStackKind::RtlFpga => RTL_PER_MSG_NS,
        }
    }

    /// Stack processing latency for a `payload`-byte message (excludes
    /// wire serialization, which the link model charges).
    ///
    /// Segmentation is pipelined: the stack's contribution to latency is
    /// the per-message cost plus one segment's processing (the pipeline
    /// fill), not the sum over all segments.
    pub fn latency(&self, payload: u64) -> SimDuration {
        let _ = payload; // size-independent: segmentation pipelines
        SimDuration::from_nanos(self.per_msg_ns() + self.per_segment_ns())
    }

    /// Host CPU time consumed to push/pull `payload` bytes through the
    /// stack (all segments; this is real occupancy, not pipeline depth).
    pub fn host_cpu(&self, payload: u64) -> SimDuration {
        match self.kind {
            TcpStackKind::HostSoftware => {
                let segs = self.frames.segments(payload);
                SimDuration::from_nanos(segs * HOST_SW_CPU_PER_SEGMENT_NS + HOST_SW_PER_MSG_NS)
            }
            // Offloaded stacks cost the host nothing per packet.
            TcpStackKind::HlsFpga | TcpStackKind::RtlFpga => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtl_beats_hls_beats_software() {
        let payload = 4096;
        let sw = TcpStack::new(TcpStackKind::HostSoftware).latency(payload);
        let hls = TcpStack::new(TcpStackKind::HlsFpga).latency(payload);
        let rtl = TcpStack::new(TcpStackKind::RtlFpga).latency(payload);
        assert!(rtl < hls, "RTL must beat HLS");
        assert!(hls < sw, "any offload must beat host software");
    }

    #[test]
    fn offloaded_stacks_cost_no_host_cpu() {
        for kind in [TcpStackKind::HlsFpga, TcpStackKind::RtlFpga] {
            let stack = TcpStack::new(kind);
            assert!(stack.is_offloaded());
            assert_eq!(stack.host_cpu(128 * 1024), SimDuration::ZERO);
        }
        assert!(!TcpStack::new(TcpStackKind::HostSoftware).is_offloaded());
        assert!(
            TcpStack::new(TcpStackKind::HostSoftware).host_cpu(128 * 1024)
                > SimDuration::from_micros(100)
        );
    }

    #[test]
    fn host_cpu_scales_with_segments() {
        let sw = TcpStack::new(TcpStackKind::HostSoftware);
        let small = sw.host_cpu(4096);
        let large = sw.host_cpu(128 * 1024);
        // 4 KiB = 3 segments, 128 KiB = 90 segments.
        assert!(large.as_nanos() > 20 * small.as_nanos() / 3);
    }

    #[test]
    fn latency_is_size_independent_pipeline_fill() {
        let rtl = TcpStack::new(TcpStackKind::RtlFpga);
        assert_eq!(rtl.latency(4096), rtl.latency(128 * 1024));
    }
}
