//! Per-I/O host-side cost computation.
//!
//! Splits every host cost into two channels:
//!
//! * **latency** — time added to the I/O's critical path;
//! * **occupancy** — time the submission context (an io_uring core or
//!   the NBD daemon) is busy and unavailable to other I/Os.  Occupancy,
//!   not latency, bounds IOPS.
//!
//! The structure (who pays what) comes from
//! [`Generation`](crate::Generation); magnitudes from [`crate::calib`].

use crate::calib;
use crate::engine::Mode;
use crate::generation::PathFeatures;
#[cfg(test)]
use crate::Generation;
use deliba_net::{TcpStack, TcpStackKind};
use deliba_sim::SimDuration;

/// Host-side submission latency, decomposed by pipeline stage.
///
/// The parts sum to [`HostCosts::submit_latency`] exactly — they are
/// the same costs, attributed rather than pooled — and feed the
/// [`deliba_sim::Stage`] spans when tracing is enabled:
///
/// * `ring_enter` — user/kernel crossings (D1 pays 6; DeLiBA-K's
///   registered rings amortize the enter into the per-I/O io_uring
///   cost charged under `submit`, leaving this zero);
/// * `submit` — API per-I/O cost + payload copies + the latency share
///   of the client protocol;
/// * `blk_mq` — MQ *scheduler* cost only: exactly zero under the DMQ
///   bypass (the bypass's tag-alloc cost belongs to the driver stage);
/// * `uifd` — driver submission: bypass tag alloc + DMA descriptor
///   post/doorbell;
/// * `accel` — host-software placement/encode (CRUSH, RS) when no FPGA
///   carries them;
/// * `net_tx` — host TCP transmit processing when the stack runs in
///   software.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct HostStageParts {
    /// Kernel-boundary crossings.
    pub(crate) ring_enter: SimDuration,
    /// API + copies + protocol latency share.
    pub(crate) submit: SimDuration,
    /// MQ scheduler (zero under bypass).
    pub(crate) blk_mq: SimDuration,
    /// Driver submission (bypass tag alloc + descriptor).
    pub(crate) uifd: SimDuration,
    /// Software placement/encode.
    pub(crate) accel: SimDuration,
    /// Software TCP transmit round.
    pub net_tx: SimDuration,
}

impl HostStageParts {
    /// Total submission-side critical-path latency.
    pub(crate) fn total(&self) -> SimDuration {
        self.ring_enter + self.submit + self.blk_mq + self.uifd + self.accel + self.net_tx
    }
}

/// Host-side costs of one I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCosts {
    /// Critical-path latency on the submission side (before the wire);
    /// always equals `parts.total()`.
    pub submit_latency: SimDuration,
    /// The same submission latency, attributed per stage.
    pub(crate) parts: HostStageParts,
    /// Submission-context busy time.
    pub occupancy: SimDuration,
    /// Critical-path latency on the completion side.
    pub complete_latency: SimDuration,
}

/// Compute host costs for one I/O from a decomposed feature set.
///
/// `fpga` selects hardware acceleration vs. the pure software baseline
/// (§III-C); `write`/`bytes` describe the I/O; `mode` decides whether a
/// software EC encode is charged on the write path.
pub fn host_costs(
    features: &PathFeatures,
    fpga: bool,
    write: bool,
    random: bool,
    bytes: u64,
    mode: Mode,
) -> HostCosts {
    let mut parts = HostStageParts::default();
    let mut occupancy = SimDuration::ZERO;

    // API + crossings + copies.
    let crossings = calib::CROSSING * features.crossings as u64;
    let copies = calib::copy_time(bytes, features.copies);
    let api = if features.sync_daemon {
        calib::NBD_PER_IO
    } else {
        calib::URING_PER_IO
    };
    parts.ring_enter += crossings;
    parts.submit += copies + api;
    occupancy += crossings + copies + api;

    // Non-offloadable client protocol work.
    let proto = if write {
        calib::CLIENT_PROTO_WRITE
            + SimDuration::from_nanos(bytes.div_ceil(1024) * calib::WRITE_CRC_NS_PER_KIB)
    } else {
        calib::CLIENT_PROTO_READ
            + SimDuration::from_nanos(bytes.div_ceil(1024) * calib::READ_CRC_NS_PER_KIB)
    };
    let share = if write {
        calib::PROTO_LATENCY_SHARE_WRITE
    } else {
        calib::PROTO_LATENCY_SHARE_READ
    };
    parts.submit += proto * share;
    occupancy += proto;

    // Block layer.  The bypass's tag allocation is driver work (the
    // DMQ path hands the request straight to the UIFD), so it lands on
    // the `uifd` part and the MQ-scheduler stage is exactly zero under
    // bypass — an invariant the breakdown tests pin.
    if features.sched_bypass {
        parts.uifd += calib::MQ_BYPASS;
        occupancy += calib::MQ_BYPASS;
    } else {
        parts.blk_mq += calib::MQ_SCHED;
        occupancy += calib::MQ_SCHED;
    }

    // Placement (+ EC encode for writes) in software when no FPGA.
    if !fpga {
        let mut sw = calib::SW_CRUSH;
        if write && mode == Mode::ErasureCoding {
            sw += calib::SW_RS_BASE
                + SimDuration::from_nanos(
                    bytes.saturating_sub(4096).div_ceil(1024) * calib::SW_RS_NS_PER_KIB,
                );
        }
        parts.accel += sw;
        occupancy += sw;
    }

    // Driver/DMA submission side.
    if fpga {
        let desc = if features.qdma {
            calib::QDMA_DESC
        } else {
            calib::XDMA_DESC
        };
        parts.uifd += desc;
        occupancy += desc; // doorbell + descriptor fill are CPU work
    }

    // Host network processing when the TCP stack runs in software
    // (either the software baseline, or D1's host-network hardware
    // configuration).
    let stack_kind = if fpga {
        features.hw_tcp
    } else {
        TcpStackKind::HostSoftware
    };
    if stack_kind == TcpStackKind::HostSoftware {
        let tcp = TcpStack::new(TcpStackKind::HostSoftware);
        parts.net_tx += calib::SW_NET_ROUND;
        occupancy += tcp.host_cpu(bytes);
    }

    // Completion side.
    let completion = if features.polled_completion {
        calib::POLLED_COMPLETION
    } else {
        calib::IRQ_COMPLETION
    };
    let residual = calib::residual(features.residual_of, write, random);

    HostCosts {
        submit_latency: parts.total(),
        parts,
        occupancy: occupancy + completion,
        complete_latency: completion + residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB4: u64 = 4096;

    #[test]
    fn deliba_k_hw_is_cheapest_everywhere() {
        for write in [false, true] {
            let d1 = host_costs(&Generation::DeLiBA1.features(), true, write, true, KB4, Mode::Replication);
            let d2 = host_costs(&Generation::DeLiBA2.features(), true, write, true, KB4, Mode::Replication);
            let dk = host_costs(&Generation::DeLiBAK.features(), true, write, true, KB4, Mode::Replication);
            assert!(dk.submit_latency < d2.submit_latency);
            assert!(d2.submit_latency < d1.submit_latency);
            assert!(dk.occupancy < d2.occupancy);
            // Total critical-path latency shrinks across generations
            // (per-side terms may reorder because the fitted residuals
            // land on the completion side).
            let total = |c: &HostCosts| c.submit_latency + c.complete_latency;
            assert!(total(&dk) < total(&d2));
            assert!(total(&d2) < total(&d1));
        }
    }

    #[test]
    fn software_baseline_charges_crush() {
        let hw = host_costs(&Generation::DeLiBAK.features(), true, false, true, KB4, Mode::Replication);
        let sw = host_costs(&Generation::DeLiBAK.features(), false, false, true, KB4, Mode::Replication);
        let delta = sw.submit_latency - hw.submit_latency;
        // SW path adds CRUSH (48 µs) + SW net round, minus the QDMA
        // descriptor cost.
        assert!(
            delta >= calib::SW_CRUSH,
            "delta {delta} must cover software CRUSH"
        );
    }

    #[test]
    fn ec_writes_charge_software_encode() {
        let rep = host_costs(&Generation::DeLiBA2.features(), false, true, true, KB4, Mode::Replication);
        let ec = host_costs(&Generation::DeLiBA2.features(), false, true, true, KB4, Mode::ErasureCoding);
        let delta = ec.submit_latency - rep.submit_latency;
        assert_eq!(delta, calib::SW_RS_BASE, "4 kB pays the base encode");
        // Reads never pay the encoder.
        let ec_r = host_costs(&Generation::DeLiBA2.features(), false, false, true, KB4, Mode::ErasureCoding);
        let rep_r = host_costs(&Generation::DeLiBA2.features(), false, false, true, KB4, Mode::Replication);
        assert_eq!(ec_r, rep_r);
    }

    #[test]
    fn copies_dominate_large_blocks_for_old_generations() {
        let small = host_costs(&Generation::DeLiBA1.features(), true, true, true, KB4, Mode::Replication);
        let large = host_costs(&Generation::DeLiBA1.features(), true, true, true, 128 * 1024, Mode::Replication);
        let growth = large.submit_latency - small.submit_latency;
        // 124 KiB × 6 copies ≈ 59 µs of extra memcpy plus crc.
        assert!(growth > SimDuration::from_micros(60), "growth {growth}");
    }

    #[test]
    fn d1_pays_host_network_even_with_fpga() {
        let d1 = host_costs(&Generation::DeLiBA1.features(), true, false, true, KB4, Mode::Replication);
        let d2 = host_costs(&Generation::DeLiBA2.features(), true, false, true, KB4, Mode::Replication);
        // D1's gap over D2 includes the software net round (14 µs) plus
        // one extra crossing and copy.
        let gap = d1.submit_latency - d2.submit_latency;
        assert!(gap > calib::SW_NET_ROUND, "gap {gap}");
    }

    #[test]
    fn stage_parts_telescope_submit_latency() {
        for generation in [Generation::DeLiBA1, Generation::DeLiBA2, Generation::DeLiBAK] {
            for fpga in [false, true] {
                for write in [false, true] {
                    for mode in [Mode::Replication, Mode::ErasureCoding] {
                        let c = host_costs(&generation.features(), fpga, write, true, KB4, mode);
                        assert_eq!(
                            c.parts.total(),
                            c.submit_latency,
                            "{generation:?} fpga={fpga} write={write} {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bypass_zeroes_the_mq_scheduler_stage() {
        let dk = host_costs(&Generation::DeLiBAK.features(), true, false, true, KB4, Mode::Replication);
        assert!(Generation::DeLiBAK.features().sched_bypass);
        assert_eq!(dk.parts.blk_mq, SimDuration::ZERO);
        // The bypass tag alloc moved to the driver stage, not vanished.
        assert!(dk.parts.uifd >= calib::MQ_BYPASS);

        let d1 = host_costs(&Generation::DeLiBA1.features(), true, false, true, KB4, Mode::Replication);
        assert_eq!(d1.parts.blk_mq, calib::MQ_SCHED);
        // D1 pays all six kernel crossings on the ring-enter stage.
        assert_eq!(d1.parts.ring_enter, calib::CROSSING * 6);
    }

    #[test]
    fn occupancy_drives_iops_shape() {
        // DeLiBA-K read occupancy ≈ 50 µs → 3 cores ≈ 60 K IOPS — the
        // §VI "59 K IOPS" regime.
        let dk = host_costs(&Generation::DeLiBAK.features(), true, false, true, KB4, Mode::Replication);
        let iops = 3.0 / dk.occupancy.as_secs_f64();
        assert!((52_000.0..68_000.0).contains(&iops), "{iops}");
    }
}
