//! The three DeLiBA generations and their structural differences.
//!
//! | Aspect | DeLiBA-1 | DeLiBA-2 | DeLiBA-K |
//! |---|---|---|---|
//! | host API | read()/write() + NBD | read()/write() + NBD | io_uring, 3 kernel-polled instances |
//! | user/kernel crossings per I/O | 6 | 5 | amortized ≈ 0 (SQ polling) |
//! | memory copies per I/O | 6 | 5 | 1 (registered buffer → DMA) |
//! | MQ scheduler | on | on | bypassed (DMQ) |
//! | DMA | XDMA-like single queue | XDMA-like | QDMA multi-queue per core |
//! | accelerators | HLS | HLS | Verilog RTL (Table I) |
//! | TCP/IP | host software | HLS on FPGA | Verilog RTL on FPGA |
//! | completion | interrupt | interrupt | polled CQ |
//!
//! (§I, §III; the crossing/copy counts are the paper's own: "DeLiBA-1
//! had at least six such context switches each per read()/write() call,
//! with the previous DeLiBA-2 going through this copying process five
//! times".)

use deliba_net::TcpStackKind;

/// The decomposed host-path feature set — one knob per optimization the
/// paper's Fig. 2 highlights.  [`Generation`] is a preset over these;
/// the ablation experiment flips them one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathFeatures {
    /// User/kernel crossings per I/O.
    pub crossings: u32,
    /// Host payload copies per I/O.
    pub copies: u32,
    /// DMQ scheduler bypass (circle ②).
    pub sched_bypass: bool,
    /// QDMA multi-queue DMA vs XDMA-style single queue (circle ③).
    pub qdma: bool,
    /// RTL accelerators vs the HLS generation (circle ④).
    pub rtl_accel: bool,
    /// Polled completion (kernel-polled rings) vs interrupts (circle ⑤).
    pub polled_completion: bool,
    /// TCP stack when the FPGA is present (circle ⑥).
    pub hw_tcp: TcpStackKind,
    /// NBD read()/write() plumbing with one synchronous user-space
    /// daemon that holds each request for its round trip (D1/D2), vs
    /// io_uring, whose instances pipeline (circle ①).
    pub sync_daemon: bool,
    /// Concurrent submission contexts (io_uring instances for DeLiBA-K,
    /// the NBD daemon otherwise).
    pub contexts: usize,
    /// Which generation's fitted residual anchors this path (see
    /// `calib::residual`).
    pub(crate) residual_of: Generation,
}

/// A DeLiBA framework generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// DeLiBA-1 (FPL'22) — "D1" in the figures.
    DeLiBA1,
    /// DeLiBA-2 (TRETS'24) — "D2" in the figures.
    DeLiBA2,
    /// DeLiBA-K (this paper) — "D3"/"DK" in the figures.
    DeLiBAK,
}

impl Generation {
    /// Display label used in the paper's charts.
    pub fn label(self) -> &'static str {
        match self {
            Generation::DeLiBA1 => "D1",
            Generation::DeLiBA2 => "D2",
            Generation::DeLiBAK => "DeLiBA-K",
        }
    }

    /// The generation's feature preset: one row of the table above.
    pub fn features(self) -> PathFeatures {
        match self {
            Generation::DeLiBA1 => PathFeatures {
                crossings: 6,
                copies: 6,
                sched_bypass: false,
                qdma: false,
                rtl_accel: false,
                polled_completion: false,
                // D1 accelerated storage only; networking stayed on the host.
                hw_tcp: TcpStackKind::HostSoftware,
                sync_daemon: true,
                contexts: 1,
                residual_of: self,
            },
            Generation::DeLiBA2 => PathFeatures {
                crossings: 5,
                copies: 5,
                sched_bypass: false,
                qdma: false,
                rtl_accel: false,
                polled_completion: false,
                hw_tcp: TcpStackKind::HlsFpga,
                sync_daemon: true,
                contexts: 1,
                residual_of: self,
            },
            Generation::DeLiBAK => PathFeatures {
                // Kernel-polled io_uring: no syscall in steady state; the
                // residual crossing cost is amortized over whole batches
                // and charged separately in the host path.
                crossings: 0,
                copies: 1,
                sched_bypass: true,
                qdma: true,
                rtl_accel: true,
                polled_completion: true,
                hw_tcp: TcpStackKind::RtlFpga,
                sync_daemon: false,
                // §III-A fixes the io_uring instances at 3.
                contexts: 3,
                residual_of: self,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(Generation::DeLiBA1.features().crossings, 6);
        assert_eq!(Generation::DeLiBA2.features().copies, 5);
        assert_eq!(Generation::DeLiBAK.features().copies, 1);
        assert_eq!(Generation::DeLiBAK.features().contexts, 3);
    }

    #[test]
    fn structural_ordering() {
        // Every structural overhead is non-increasing across generations.
        let gens = [
            Generation::DeLiBA1,
            Generation::DeLiBA2,
            Generation::DeLiBAK,
        ];
        for w in gens.windows(2) {
            let (a, b) = (w[0].features(), w[1].features());
            assert!(a.crossings >= b.crossings);
            assert!(a.copies >= b.copies);
        }
    }

    #[test]
    fn stacks_match_paper_history() {
        assert_eq!(
            Generation::DeLiBA1.features().hw_tcp,
            TcpStackKind::HostSoftware,
            "D2 'moved the network stack onto the FPGA as well' — so D1 had it on the host"
        );
        assert_eq!(Generation::DeLiBA2.features().hw_tcp, TcpStackKind::HlsFpga);
        assert_eq!(Generation::DeLiBAK.features().hw_tcp, TcpStackKind::RtlFpga);
    }

    #[test]
    fn only_deliba_k_bypasses_and_polls() {
        let (d1, d2, dk) = (
            Generation::DeLiBA1.features(),
            Generation::DeLiBA2.features(),
            Generation::DeLiBAK.features(),
        );
        assert!(!d1.sched_bypass);
        assert!(!d2.polled_completion);
        assert!(dk.sched_bypass);
        assert!(dk.polled_completion);
        assert!(!dk.sync_daemon);
    }
}
