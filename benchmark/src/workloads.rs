//! The four benchmark workloads and their seeded inputs.
//!
//! Every workload runs DeLiBA-K with the FPGA and 4 KiB blocks unless
//! stated otherwise.  Each stresses a different set of layers, so an
//! optimisation of one layer has a workload that exercises it and one
//! that bypasses it (where the prediction is "no change"):
//!
//! * `engine-randread` — the Fig. 7 peak cell: closed loop, 3 jobs ×
//!   qd 32, uniform 4 KiB reads of a fresh 1 GiB image, replication.
//!   Per-op work is tiny, so the event queue, placement and the read
//!   path's cost walk dominate; no EC, payload, checksum, store write or
//!   recovery work.
//! * `ec-randwrite` — closed loop, 3 × 32, random 16 KiB writes to an
//!   RS(4, 2) pool over an 8 MiB region (512 extents) that the shard
//!   store covers within the first fifth of a repetition, so most of the
//!   run overwrites.  RS encode, payload fill, checksums and shard
//!   allocation appear in no other workload.
//! * `oltp-open` — open loop, Poisson arrivals at 40 KIOPS (below the
//!   ≈60 KIOPS knee), 30 % writes, Zipf 0.9, replication, admission cap
//!   256.  The same placement and cluster layers as `engine-randread`,
//!   but with 3-replica writes beside verified reads and two events per
//!   op, so a read-path gain that costs writes, or a store change that
//!   costs memory, shows here.
//! * `degraded-scrub` — open loop at 24 KIOPS, Zipf 0.9: a 50 % write
//!   phase, then a read-only phase.  Resilience and recovery are armed
//!   (16 backfills in flight) with a deep scrub of 32 objects every 1 ms
//!   of virtual time.  OSD 9 crashes 2 % into the write phase and 12
//!   copies rot between the phases, so no later write can mask a flip.
//!   Background recovery and scrub dominate host time, and the crash
//!   invalidates the placement cache.
//!
//! Both open-loop workloads run on a thin image: every one of the 256
//! RBD objects is used only in its first 64 KiB, so the data set (16 MiB,
//! three copies) still spreads over every placement group.  The stream
//! first fills the data set with one sequential write per block, so the
//! store holds the same bytes whatever the seed, and then Zipf-selected
//! blocks are folded into it.
//!
//! The seed only generates the inputs (and the fault instants placed
//! relative to them); the engine configuration, and with it the
//! engine's own seed, is fixed per workload.

use deliba_cluster::rbd::DEFAULT_OBJECT_SIZE;
use deliba_cluster::RecoveryPolicy;
use deliba_core::{ArrivalOp, EngineConfig, Generation, Mode, TraceOp, IMAGE_BYTES};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_sim::{SimDuration, SimRng, SimTime, Xoshiro256};
use deliba_workload::{ArrivalKind, OpenLoopSpec};
use serde::Value;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop uniform 4 KiB reads, replication.
    EngineRandread,
    /// Closed-loop random 16 KiB writes, RS(4, 2).
    EcRandwrite,
    /// Open-loop 70/30 read/write mix under Zipf skew, replication.
    OltpOpen,
    /// Open-loop write-then-read phases with an OSD crash, bit rot and
    /// deep scrub.
    DegradedScrub,
}

/// Closed-loop shape (the paper's fio random-I/O shape: one job per
/// io_uring instance, queue depth 32).
const JOBS: usize = 3;
const IODEPTH: u32 = 32;
/// Bytes `ec-randwrite` writes over.
const EC_SPAN: u64 = 8 << 20;
/// Open-loop admission cap (in-flight ops before arrivals are shed).
const ADMISSION_CAP: u32 = 256;
/// Bytes of each RBD object the open-loop workloads use.
const OBJECT_PREFIX: u64 = 64 << 10;
/// `degraded-scrub`'s crashed OSD and rotted copies.
const CRASH_OSD: i32 = 9;
const ROT_COPIES: u32 = 12;

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::EngineRandread,
        Workload::EcRandwrite,
        Workload::OltpOpen,
        Workload::DegradedScrub,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineRandread => "engine-randread",
            Workload::EcRandwrite => "ec-randwrite",
            Workload::OltpOpen => "oltp-open",
            Workload::DegradedScrub => "degraded-scrub",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool mode.
    pub fn mode(self) -> Mode {
        match self {
            Workload::EcRandwrite => Mode::ErasureCoding,
            _ => Mode::Replication,
        }
    }

    /// Operations one full-size repetition offers after any fill, sized
    /// so a repetition takes a few tenths of a second on one core.
    fn base_ops(self) -> u64 {
        match self {
            Workload::EngineRandread => 1_500_000,
            Workload::EcRandwrite => 15_000,
            Workload::OltpOpen => 100_000,
            Workload::DegradedScrub => 6_000,
        }
    }

    /// Operations one repetition offers at `scale` after any fill (at
    /// least one per closed-loop job, and one per open-loop phase).
    pub fn ops(self, scale: f64) -> u64 {
        ((self.base_ops() as f64 * scale).round() as u64).max(JOBS as u64)
    }

    /// Offered open-loop rate, KIOPS.
    fn rate_kiops(self) -> f64 {
        match self {
            Workload::DegradedScrub => 24.0,
            _ => 40.0,
        }
    }

    /// The engine configuration (fixed: it does not depend on the seed).
    pub fn config(self) -> EngineConfig {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, self.mode());
        match self {
            Workload::DegradedScrub => cfg
                .with_resilience(ResiliencePolicy::default())
                .with_recovery(
                    RecoveryPolicy::with_max_active(16).with_scrub(SimDuration::from_millis(1), 32),
                ),
            _ => cfg,
        }
    }

    /// Generate one repetition's inputs from `seed`.
    pub fn inputs(self, seed: u64, scale: f64) -> Inputs {
        let ops = self.ops(scale);
        let rate = self.rate_kiops();
        let (load, faults) = match self {
            Workload::EngineRandread => (
                Load::Closed {
                    jobs: uniform_jobs(seed, ops, 4096, IMAGE_BYTES, false),
                    iodepth: IODEPTH,
                },
                None,
            ),
            Workload::EcRandwrite => (
                Load::Closed {
                    jobs: uniform_jobs(seed, ops, 16384, EC_SPAN, true),
                    iodepth: IODEPTH,
                },
                None,
            ),
            Workload::OltpOpen => {
                let mut stream = fill();
                append(&mut stream, zipf_stream(seed, ops, rate, 0.3));
                (
                    Load::Open {
                        stream,
                        admission_cap: ADMISSION_CAP,
                    },
                    None,
                )
            }
            Workload::DegradedScrub => {
                let mut stream = fill();
                let mix_start = stream.len();
                let writes = ops / 2;
                append(&mut stream, zipf_stream(seed, writes, rate, 0.5));
                let last_write = stream.last().map_or(SimTime::ZERO, |a| a.at);
                append(
                    &mut stream,
                    zipf_stream(seed ^ 0x5EED, ops - writes, rate, 0.0),
                );
                let faults = FaultSchedule::new()
                    .osd_crash(stream[mix_start + writes as usize / 50].at, CRASH_OSD)
                    .bit_rot(last_write + PHASE_GAP / 2, ROT_COPIES);
                (
                    Load::Open {
                        stream,
                        admission_cap: ADMISSION_CAP,
                    },
                    Some(faults),
                )
            }
        };
        Inputs { load, faults }
    }

    /// The workload's parameters, for the run manifest.
    pub fn params(self, scale: f64) -> Value {
        let mut fields = vec![
            (
                "mode".to_string(),
                Value::Str(self.mode().label().to_string()),
            ),
            ("ops_per_rep".to_string(), Value::UInt(self.ops(scale))),
        ];
        let mut push = |k: &str, v: Value| fields.push((k.to_string(), v));
        match self {
            Workload::EngineRandread | Workload::EcRandwrite => {
                push("loop", Value::Str("closed".into()));
                push("jobs", Value::UInt(JOBS as u64));
                push("iodepth", Value::UInt(IODEPTH as u64));
                let (block, span) = match self {
                    Workload::EcRandwrite => (16384, EC_SPAN),
                    _ => (4096, IMAGE_BYTES),
                };
                push("block_bytes", Value::UInt(block));
                push("span_bytes", Value::UInt(span));
            }
            Workload::OltpOpen | Workload::DegradedScrub => {
                push("loop", Value::Str("open".into()));
                push("rate_kiops", Value::Float(self.rate_kiops()));
                push("zipf_s", Value::Float(0.9));
                push("admission_cap", Value::UInt(ADMISSION_CAP as u64));
                push("object_prefix_bytes", Value::UInt(OBJECT_PREFIX));
                push("fill_ops", Value::UInt(fill_blocks()));
            }
        }
        match self {
            Workload::OltpOpen => push("write_frac", Value::Float(0.3)),
            Workload::DegradedScrub => {
                push("write_frac", Value::Str("0.5, then 0".into()));
                push("scrub", Value::Str("32 objects every 1 ms".into()));
                push("recovery_max_active", Value::UInt(16));
                push(
                    "faults",
                    Value::Str(format!(
                        "OSD {CRASH_OSD} crashes 2 % into the writes; {ROT_COPIES} copies rot between the phases"
                    )),
                );
            }
            _ => {}
        }
        Value::Object(fields)
    }
}

/// One repetition's inputs: the load and the fault schedule placed
/// relative to it.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The operations, in the shape the engine's entry point takes.
    pub load: Load,
    /// Faults to arm before the run.
    pub faults: Option<FaultSchedule>,
}

/// The operations of one repetition.
#[derive(Debug, Clone)]
pub enum Load {
    /// Per-job op lists for [`deliba_core::Engine::run_trace`].
    Closed {
        /// One op list per job.
        jobs: Vec<Vec<TraceOp>>,
        /// Outstanding ops per job.
        iodepth: u32,
    },
    /// A time-sorted arrival stream for
    /// [`deliba_core::Engine::run_open_loop`].
    Open {
        /// Intended arrivals.
        stream: Vec<ArrivalOp>,
        /// In-flight cap before arrivals are dropped.
        admission_cap: u32,
    },
}

impl Load {
    /// Operations offered (closed-loop ops or open-loop arrivals).
    pub fn len(&self) -> u64 {
        match self {
            Load::Closed { jobs, .. } => jobs.iter().map(|j| j.len() as u64).sum(),
            Load::Open { stream, .. } => stream.len() as u64,
        }
    }

    /// True when no operation is offered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes offered.
    pub fn writes(&self) -> u64 {
        match self {
            Load::Closed { jobs, .. } => jobs.iter().flatten().filter(|op| op.write).count() as u64,
            Load::Open { stream, .. } => stream.iter().filter(|a| a.op.write).count() as u64,
        }
    }
}

/// `ops` block-aligned uniform random ops of `block` bytes over
/// `[0, span)`, split evenly over the closed-loop jobs.
fn uniform_jobs(seed: u64, ops: u64, block: u32, span: u64, write: bool) -> Vec<Vec<TraceOp>> {
    let blocks = span / block as u64;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let per_job = ops / JOBS as u64;
    (0..JOBS)
        .map(|_| {
            (0..per_job)
                .map(|_| {
                    let offset = rng.gen_range(blocks) * block as u64;
                    if write {
                        TraceOp::write(offset, block, true)
                    } else {
                        TraceOp::read(offset, block, true)
                    }
                })
                .collect()
        })
        .collect()
}

/// Gap between an open-loop stream's phases.
const PHASE_GAP: SimDuration = SimDuration(100_000);

/// Blocks in the thin image's data set.
fn fill_blocks() -> u64 {
    IMAGE_BYTES / DEFAULT_OBJECT_SIZE * (OBJECT_PREFIX / 4096)
}

/// Fold an image offset into its object's used prefix.
fn thin(offset: u64) -> u64 {
    offset / DEFAULT_OBJECT_SIZE * DEFAULT_OBJECT_SIZE + offset % OBJECT_PREFIX
}

/// Rate of the fill writes, KIOPS: well below DeLiBA-K's ≈35 KIOPS
/// write capacity (the client protocol's 80 µs per write over three
/// submission contexts), so the fill never overflows the admission cap.
const FILL_KIOPS: f64 = 20.0;

/// One sequential write per data-set block, object by object, evenly
/// spaced at [`FILL_KIOPS`].
fn fill() -> Vec<ArrivalOp> {
    let gap_ns = 1e6 / FILL_KIOPS;
    let per_object = OBJECT_PREFIX / 4096;
    (0..fill_blocks())
        .map(|i| {
            let offset = i / per_object * DEFAULT_OBJECT_SIZE + i % per_object * 4096;
            ArrivalOp {
                at: SimTime::from_nanos((i as f64 * gap_ns) as u64),
                op: TraceOp::write(offset, 4096, false),
            }
        })
        .collect()
}

/// Poisson arrivals over Zipf(0.9)-selected 4 KiB blocks of the image,
/// folded into the thin image.
fn zipf_stream(seed: u64, ops: u64, rate_kiops: f64, write_frac: f64) -> Vec<ArrivalOp> {
    let mut stream = OpenLoopSpec {
        rate_kiops,
        ops,
        block_size: 4096,
        write_frac,
        arrival: ArrivalKind::Poisson,
        zipf_s: 0.9,
        seed,
    }
    .generate();
    for a in &mut stream {
        a.op.offset = thin(a.op.offset);
    }
    stream
}

/// Append `phase` to `stream`, starting [`PHASE_GAP`] after its last
/// arrival.
fn append(stream: &mut Vec<ArrivalOp>, phase: Vec<ArrivalOp>) {
    let start = stream.last().map_or(SimTime::ZERO, |a| a.at + PHASE_GAP);
    stream.extend(phase.into_iter().map(|a| ArrivalOp {
        at: start + a.at.saturating_since(SimTime::ZERO),
        op: a.op,
    }));
}
