//! Ethernet framing arithmetic.
//!
//! §IV-B: "The minimum packet length in DeLiBA-K is 64 bytes.  In
//! contrast, the maximum packet length is configurable to support the
//! required MTU plus overhead, ranging from 1518 bytes for standard
//! Ethernet to 9018 bytes for Jumbo frames."

/// Standard Ethernet maximum frame (1500 B MTU + 18 B L2 overhead).
pub(crate) const STANDARD_MTU_FRAME: usize = 1518;

/// Jumbo maximum frame (9000 B MTU + 18 B L2 overhead).
pub(crate) const JUMBO_MTU_FRAME: usize = 9018;

/// Minimum frame size.
pub(crate) const MIN_FRAME: usize = 64;

/// Bytes on the wire that are not part of the L2 frame itself:
/// preamble (7) + SFD (1) + inter-frame gap (12).
pub(crate) const WIRE_EXTRA: usize = 20;

/// L2 header + FCS inside the frame: 14 (Ethernet) + 4 (FCS).
pub(crate) const L2_OVERHEAD: usize = 18;

/// IP (20) + TCP (20) headers consumed from the frame payload.
pub(crate) const L3L4_OVERHEAD: usize = 40;

/// Framing configuration (standard vs jumbo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameConfig {
    /// Maximum frame size on the link (1518 or 9018).
    pub(crate) max_frame: usize,
}

impl FrameConfig {
    /// Standard 1500-byte-MTU framing.
    pub fn standard() -> Self {
        FrameConfig {
            max_frame: STANDARD_MTU_FRAME,
        }
    }

    /// Jumbo 9000-byte-MTU framing.
    pub fn jumbo() -> Self {
        FrameConfig {
            max_frame: JUMBO_MTU_FRAME,
        }
    }

    /// TCP maximum segment size: payload left after L2 + IP + TCP
    /// headers.
    pub(crate) fn mss(&self) -> usize {
        self.max_frame - L2_OVERHEAD - L3L4_OVERHEAD
    }

    /// Number of TCP segments needed for `payload` bytes.
    pub(crate) fn segments(&self, payload: u64) -> u64 {
        if payload == 0 {
            return 1; // even a zero-length op carries one control segment
        }
        payload.div_ceil(self.mss() as u64)
    }

    /// Total bytes on the wire for `payload` bytes of application data,
    /// including all framing layers and the inter-frame gap.
    pub(crate) fn wire_bytes(&self, payload: u64) -> u64 {
        let segs = self.segments(payload);
        let per_frame = (L2_OVERHEAD + L3L4_OVERHEAD + WIRE_EXTRA) as u64;
        let total = payload + segs * per_frame;
        // Runt padding for tiny payloads.
        total.max(segs * (MIN_FRAME + WIRE_EXTRA) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mss_values() {
        assert_eq!(FrameConfig::standard().mss(), 1460);
        assert_eq!(FrameConfig::jumbo().mss(), 8960);
    }

    #[test]
    fn segment_counts() {
        let std = FrameConfig::standard();
        assert_eq!(std.segments(0), 1);
        assert_eq!(std.segments(1), 1);
        assert_eq!(std.segments(1460), 1);
        assert_eq!(std.segments(1461), 2);
        assert_eq!(std.segments(4096), 3);
        assert_eq!(std.segments(128 * 1024), 90);
        let jumbo = FrameConfig::jumbo();
        assert_eq!(jumbo.segments(4096), 1);
        assert_eq!(jumbo.segments(128 * 1024), 15);
    }

    #[test]
    fn wire_bytes_exceed_payload() {
        let cfg = FrameConfig::standard();
        for payload in [1u64, 512, 4096, 65_536] {
            assert!(cfg.wire_bytes(payload) > payload);
        }
    }

    #[test]
    fn runt_padding_applies() {
        let cfg = FrameConfig::standard();
        // 1 byte payload still occupies a 64-byte frame + wire extra.
        assert_eq!(cfg.wire_bytes(1), (MIN_FRAME + WIRE_EXTRA) as u64);
    }

    #[test]
    fn jumbo_is_more_efficient_for_large_io() {
        let std = FrameConfig::standard();
        let jumbo = FrameConfig::jumbo();
        let payload = 128 * 1024;
        let efficiency = |cfg: FrameConfig| payload as f64 / cfg.wire_bytes(payload) as f64;
        assert!(efficiency(jumbo) > efficiency(std));
        assert!(efficiency(std) > 0.9);
        assert!(efficiency(jumbo) > 0.98);
    }
}
