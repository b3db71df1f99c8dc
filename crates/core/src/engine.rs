//! The end-to-end engine.
//!
//! An [`Engine`] couples a framework generation (host path) to the
//! simulated testbed (FPGA card, PCIe, 10 GbE, the 32-OSD cluster) and
//! runs fio-style job specifications against an RBD image on virtual
//! time, producing the latency / throughput / IOPS numbers of the
//! paper's figures.
//!
//! Closed- and open-loop runs share one event loop and differ only in
//! how ops are admitted.  Closed-loop semantics match fio: each of
//! `numjobs` jobs keeps `iodepth` I/Os outstanding; a completion
//! immediately issues the next I/O.  Open-loop runs admit each op at its
//! intended arrival instant, whatever the completions.  DeLiBA-1/-2
//! have an additional architectural serialization point — the
//! synchronous NBD daemon holds each request for its full round trip
//! (§III: the user-space library structure that io_uring removes);
//! DeLiBA-K's three pinned io_uring instances pipeline independently.

use crate::calib;
use crate::generation::PathFeatures;
use crate::hostpath::{host_costs, HostCosts};
use crate::report::RunReport;
use crate::Generation;
use crate::report::ResilienceCounters;
use deliba_cluster::{Cluster, ObjectId, OidMap, RbdImage, RecoveryPolicy, RecoveryScheduler};
use deliba_fault::{FailCause, FaultKind, FaultPlane, FaultSchedule, ResiliencePolicy};
use deliba_fpga::accel::HLS_LATENCY_INFLATION;
use deliba_fpga::{AlveoU280, RmId};
use deliba_net::{LinkVerdict, TcpStack};
use deliba_qdma::PciePipes;
use deliba_sim::{
    Counter, GaugeSnapshot, Histogram, InstantKind, LaneQueue, Observer, Server, SimDuration,
    SimRng, SimTime, SplitMix64, Stage, TelemetryConfig, TraceDepth, TraceLayer, Xoshiro256,
};

/// Pool / durability mode under test (every figure reports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Replicated pool (size 3).
    Replication,
    /// Erasure-coded pool (k 4, m 2).
    ErasureCoding,
}

impl Mode {
    /// Label used in figure titles.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Replication => "replication",
            Mode::ErasureCoding => "erasure-coding",
        }
    }
}

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Sequential within each job's region.
    Seq,
    /// Uniform random over the image.
    Rand,
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RwMode {
    /// 100 % reads.
    Read,
    /// 100 % writes.
    Write,
}

/// A fio-style job specification.
#[derive(Debug, Clone, Copy)]
pub struct FioSpec {
    /// Read or write.
    pub rw: RwMode,
    /// Sequential or random.
    pub pattern: Pattern,
    /// Block size in bytes.
    pub block_size: u32,
    /// Outstanding I/Os per job.
    pub iodepth: u32,
    /// Parallel jobs.
    pub numjobs: u32,
    /// Total operations across all jobs.
    pub ops: u64,
}

impl FioSpec {
    /// The paper's measurement shape: random workloads run 3 jobs (one
    /// per io_uring instance), sequential streams run 1; queue depth 32.
    pub fn paper(rw: RwMode, pattern: Pattern, block_size: u32, ops: u64) -> Self {
        let numjobs = match pattern {
            Pattern::Rand => 3,
            Pattern::Seq => 1,
        };
        FioSpec {
            rw,
            pattern,
            block_size,
            iodepth: 32,
            numjobs,
            ops,
        }
    }

    /// A queue-depth-1 latency probe (Table II methodology).
    pub fn latency_probe(rw: RwMode, pattern: Pattern, block_size: u32, ops: u64) -> Self {
        FioSpec {
            rw,
            pattern,
            block_size,
            iodepth: 1,
            numjobs: 1,
            ops,
        }
    }

    /// fio-style label, e.g. `"rand-write 4k"`.
    pub fn label(&self) -> String {
        let pat = match self.pattern {
            Pattern::Seq => "seq",
            Pattern::Rand => "rand",
        };
        let rw = match self.rw {
            RwMode::Read => "read",
            RwMode::Write => "write",
        };
        format!("{pat}-{rw} {}k", self.block_size / 1024)
    }
}

/// One operation of a trace (used by the OLAP/OLTP replayers).
#[derive(Debug, Clone, Copy)]
pub struct TraceOp {
    /// Write (true) or read.
    pub write: bool,
    /// Byte offset on the virtual disk (block aligned).
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// Random access (charges the OSD seek penalty)?
    pub random: bool,
    /// Application compute time before this op is issued (ns) — models
    /// the non-I/O fraction of OLAP/OLTP work (zero for fio workloads).
    pub think_ns: u64,
}

impl TraceOp {
    /// A read op with no think time.
    pub fn read(offset: u64, len: u32, random: bool) -> Self {
        TraceOp { write: false, offset, len, random, think_ns: 0 }
    }

    /// A write op with no think time.
    pub fn write(offset: u64, len: u32, random: bool) -> Self {
        TraceOp { write: true, offset, len, random, think_ns: 0 }
    }

    /// Attach application think time.
    pub fn with_think(mut self, think_ns: u64) -> Self {
        self.think_ns = think_ns;
        self
    }
}

/// One operation of an open-loop stream: a [`TraceOp`] plus the instant
/// the traffic source *intends* to issue it, independent of any
/// completion.  The open-loop scheduler admits it at exactly `at` (or
/// drops it if the admission queue is full) and measures its latency
/// from `at` — never from submission — so a backed-up engine cannot
/// hide queueing delay (coordinated omission is structurally
/// impossible).
#[derive(Debug, Clone, Copy)]
pub struct ArrivalOp {
    /// Intended arrival instant on the virtual clock.
    pub at: SimTime,
    /// The operation.
    pub op: TraceOp,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Framework generation.
    pub generation: Generation,
    /// Hardware acceleration on (false = software baseline, §III-C).
    pub fpga: bool,
    /// Pool mode.
    pub mode: Mode,
    /// Preferred DFX reconfigurable module for placement (None routes
    /// everything through the static Straw2 kernel).
    pub preferred_rm: Option<RmId>,
    /// Host-path feature set (defaults to the generation's preset; the
    /// ablation experiments override individual knobs).
    pub features: PathFeatures,
    /// Jumbo (9000 B MTU) Ethernet framing instead of standard 1500 B
    /// (§IV-B supports both).
    pub jumbo_frames: bool,
    /// Resilience policy: per-I/O deadline, bounded retry with
    /// exponential backoff + deterministic jitter.  `None` (the
    /// default) fails fast exactly as before — no retries, no deadline
    /// accounting, and `RunReport` carries no resilience block.
    pub resilience: Option<ResiliencePolicy>,
    /// Observation depth (`Off` by default).  `Stages` keeps per-stage
    /// latency histograms (the report's breakdown section); `Spans`
    /// adds a bounded ring of per-I/O span chains and fault/retry
    /// instants, and `Full` per-layer events and counter samples.
    /// Recording draws no randomness and advances no timeline, so it
    /// never perturbs results.
    pub trace_depth: TraceDepth,
    /// Background recovery/backfill/scrub policy.  `None` (the default)
    /// leaves cluster dynamics off entirely: no background tokens, no
    /// extra event-queue shard, and `RunReport` carries no recovery
    /// block — pre-existing runs stay byte-identical.
    pub recovery: Option<RecoveryPolicy>,
    /// Time-resolved telemetry plane (windowed metric series + SLO
    /// burn-rate alerts).  `None` (the default) allocates nothing and
    /// leaves every emit site a single branch.  Recording draws no
    /// randomness and advances no timeline, so it never perturbs
    /// results.
    pub telemetry: Option<TelemetryConfig>,
    /// Simulation seed.
    pub seed: u64,
}

impl EngineConfig {
    /// Shorthand constructor.
    pub fn new(generation: Generation, fpga: bool, mode: Mode) -> Self {
        EngineConfig {
            generation,
            fpga,
            mode,
            preferred_rm: None,
            features: generation.features(),
            jumbo_frames: false,
            resilience: None,
            trace_depth: TraceDepth::Off,
            recovery: None,
            telemetry: None,
            seed: 42,
        }
    }

    /// Observe runs at `depth`.
    pub fn with_trace_depth(mut self, depth: TraceDepth) -> Self {
        self.trace_depth = depth;
        self
    }

    /// Enable the retry/timeout/failover policy.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = Some(policy);
        self
    }

    /// Arm background recovery/backfill/scrub with the given policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Arm the time-resolved telemetry plane.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Label like `"DeLiBA-K (HW, replication)"`.
    pub fn label(&self) -> String {
        format!(
            "{} ({}, {})",
            self.generation.label(),
            if self.fpga { "HW" } else { "SW" },
            self.mode.label()
        )
    }
}

/// Image size the benchmarks address (1 GiB working set).
pub const IMAGE_BYTES: u64 = 1 << 30;

/// 64-bit FNV-1a offset basis and prime (the verify checksum's).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fill `out` with the payload bytes of `key`: four xorshift128+
/// lanes, seeded from `key` through [`SplitMix64`] (every lane's first
/// state word, then every lane's second).  Word `j` of each 32-byte
/// block comes from lane `j`, the layout of [`Engine::checksum`], so the
/// four lanes step side by side and no dependency chain is longer than
/// one lane step; a `< 32`-byte tail is cut from one more step of every
/// lane, little-endian.
fn fill_payload(key: u64, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU runs AVX2, checked just above.
        return unsafe { fill_payload_avx2(key, out) };
    }
    fill_payload_lanes(key, out);
}

/// [`fill_payload`] compiled for AVX2, which steps the four lanes in
/// one 256-bit register; the shared body makes its bytes the portable
/// version's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_payload_avx2(key: u64, out: &mut [u8]) {
    fill_payload_lanes(key, out);
}

/// The body of [`fill_payload`], inlined into the portable caller and
/// into the AVX2 copy.
#[inline(always)]
fn fill_payload_lanes(key: u64, out: &mut [u8]) {
    let mut seed = SplitMix64::new(key);
    // SplitMix64 maps distinct states to distinct outputs, so a lane's
    // two state words are never both zero, xorshift's fixed point.
    let mut a: [u64; 4] = std::array::from_fn(|_| seed.next_u64());
    let mut b: [u64; 4] = std::array::from_fn(|_| seed.next_u64());
    let mut step = || -> [u8; 32] {
        let mut block = [0u8; 32];
        for (j, w) in block.chunks_exact_mut(8).enumerate() {
            let (mut x, y) = (a[j], b[j]);
            w.copy_from_slice(&x.wrapping_add(y).to_le_bytes());
            x ^= x << 23;
            a[j] = y;
            b[j] = x ^ y ^ (x >> 17) ^ (y >> 26);
        }
        block
    };
    let mut blocks = out.chunks_exact_mut(32);
    for block in blocks.by_ref() {
        block.copy_from_slice(&step());
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let n = tail.len();
        tail.copy_from_slice(&step()[..n]);
    }
}

/// A committed write extent of one object and its payload checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    off: u32,
    len: u32,
    sum: u64,
}

impl Extent {
    fn end(&self) -> u32 {
        self.off.saturating_add(self.len)
    }

    /// The sort key of an object's extent list.
    fn key(&self) -> (u32, u32) {
        (self.off, self.len)
    }
}

/// One object's committed write extents, sorted by `(off, len)` and
/// pairwise disjoint.  A lone extent, as every EC sub-object holds,
/// sits inline rather than in a heap allocation of its own.
#[derive(Debug, PartialEq, Eq)]
enum Extents {
    One(Extent),
    Many(Vec<Extent>),
}

impl Extents {
    fn as_slice(&self) -> &[Extent] {
        match self {
            Extents::One(x) => std::slice::from_ref(x),
            Extents::Many(v) => v,
        }
    }

    /// Record `new`, replacing every extent it overlaps, and an equal
    /// (zero-length) one.
    ///
    /// The extents are sorted and disjoint, so their ends are sorted
    /// too, and the replaced ones form one window: those before it end
    /// by `new.off` and sort below `new`, those after it start at or
    /// past `new`'s end and sort above it.
    fn record(&mut self, new: Extent) {
        let extents = self.as_slice();
        let (end, key) = (new.end(), new.key());
        let lo = extents.partition_point(|e| e.end() <= new.off && e.key() < key);
        let hi = lo + extents[lo..].partition_point(|e| e.off < end || e.key() <= key);
        match self {
            Extents::One(_) if hi > lo => *self = Extents::One(new),
            Extents::One(old) => {
                let pair = if lo == 0 { [new, *old] } else { [*old, new] };
                *self = Extents::Many(pair.to_vec());
            }
            Extents::Many(v) => {
                v.splice(lo..hi, [new]);
            }
        }
    }
}

/// A failed attempt: the instant it failed and why.
type Failed = (SimTime, FailCause);

/// One I/O attempt on its way down the path: the state the per-layer
/// steps of [`Engine::attempt_io`] share, held on the stack.
struct Attempt {
    op: TraceOp,
    /// The card carries this attempt (configured and not faulted).
    fpga: bool,
    costs: HostCosts,
    /// Submission context.
    ctx: usize,
    /// When the submission context picked the op up.
    start: SimTime,
    /// How far along the path the op has got.
    t: SimTime,
    /// Stage spans in `Stage` order, recorded if the attempt completes.
    spans: [(Stage, SimDuration); 11],
    /// The RBD object the op addresses (the card places it).
    obj: ObjectId,
    /// The object the cluster stores (`obj`, or the op's own EC object)
    /// and the op's offset within it, which also keys `written`.
    target: ObjectId,
    off: u32,
    /// Write payload and its checksum.
    payload: Option<(Vec<u8>, u64)>,
}

/// What the scheduler does with an op after one attempt.
enum IoDisposition {
    /// The op is finished (served, abandoned, or fast-failed) — record
    /// its latency and free the queue-depth slot.
    Done { start: SimTime, complete: SimTime },
    /// Re-enqueue the op at `at` (backoff elapsed); the slot stays held.
    Retry { at: SimTime, attempt: u32, first_start: SimTime },
}

/// Event-queue token.  `lane` is the shard an op's tokens live on and
/// the flight recorder's tid, `io` the recorder's I/O id; both ride a
/// retry so it resumes the identity it was issued under.
#[derive(Clone, Copy)]
enum Token {
    /// A free closed-loop slot pulling its job's next op, or the
    /// open-loop arrival cursor.
    Admit { lane: u32 },
    /// A backed-off attempt returning; `intended` is the op's arrival.
    Retry { lane: u32, io: u64, op: TraceOp, attempt: u32, first_start: SimTime, intended: SimTime },
    /// An open-loop completion settling: frees its admission slot and
    /// records latency from intended arrival.
    Settle { intended: SimTime, len: u32 },
    /// Dispatch one backfill wave (or rescan when the queue drained).
    /// Lives on the dedicated background shard; present only when a
    /// recovery policy is armed.
    Recovery,
    /// Run one deep-scrub tick (periodic during foreground, then the
    /// end-of-run drain passes).
    Scrub,
}

/// What an admission source did with an `Admit` token.
enum Admitted {
    Issue { ready: SimTime, lane: u32, io: u64, op: TraceOp },
    /// Refused at the admission cap (open loop).
    Dropped,
    /// The slot's job ran out of ops (closed loop); `drained` when it
    /// was the last live slot.
    Retired { drained: bool },
}

/// How foreground ops enter the event loop — the one difference between
/// closed- and open-loop runs.  [`Engine::event_loop`] shares the rest.
trait Admission {
    /// The report's workload label.
    const WORKLOAD: &'static str;
    /// Completions settle in place and re-arm their slot (closed loop)
    /// instead of through a `Settle` token (open loop).
    const REARM: bool;
    /// Build and seed the queue, appending a background shard when
    /// `background`; returns the queue, that shard, and the foreground
    /// start (`None` when there is nothing to run).
    fn seed(&mut self, background: bool) -> (LaneQueue<Token>, usize, Option<SimTime>);
    /// Handle an `Admit` token popped at `now` on `lane`.
    fn admit(&mut self, now: SimTime, lane: u32, queue: &mut LaneQueue<Token>) -> Admitted;
    /// Submission context of the ops on `lane`.
    fn context(&self, lane: u32) -> u32 {
        lane
    }
    /// A `Settle` token freed its slot; returns whether the foreground
    /// drained (nothing in flight, nothing left to admit).  Only sources
    /// that do not `REARM` see `Settle` tokens.
    fn settle(&mut self) -> bool {
        unreachable!("re-armed completions settle in place")
    }
    /// Ops in flight, given `queued` pending tokens.
    fn inflight(&self, queued: usize) -> u32;
    /// Sample the flight recorder's counter tracks at a completion.
    fn sample_counters(&self, obs: &Observer, at: SimTime, queued: usize);
}

/// Closed-loop admission (fio semantics): each job keeps `iodepth`
/// slots; a slot pulls its job's next op when it frees and re-arms on
/// completion.  Lane `job * iodepth + k` is slot `k` of `job`, one
/// shard each, seeded 100 ns apart.
#[derive(Default)]
struct ClosedLoop<'a> {
    jobs: &'a [Vec<TraceOp>],
    iodepth: u32,
    cursors: Vec<usize>,
    live_slots: usize,
    /// Flight-recorder I/O ids, issued in dispatch order.
    io_seq: u64,
}

impl Admission for ClosedLoop<'_> {
    const WORKLOAD: &'static str = "trace";
    const REARM: bool = true;

    fn seed(&mut self, background: bool) -> (LaneQueue<Token>, usize, Option<SimTime>) {
        let lanes = (self.jobs.len() * self.iodepth as usize).max(1);
        let shards = lanes + background as usize;
        let mut queue = LaneQueue::new(shards, 0);
        for (j, ops) in self.jobs.iter().enumerate() {
            let slots = (self.iodepth as usize).min(ops.len());
            self.live_slots += slots;
            for k in 0..slots {
                let lane = (j * self.iodepth as usize + k) as u32;
                let at = SimTime::from_nanos(100 * lane as u64);
                queue.schedule_at(lane as usize, at, Token::Admit { lane });
            }
        }
        (queue, lanes, (self.live_slots > 0).then_some(SimTime::ZERO))
    }

    fn admit(&mut self, now: SimTime, lane: u32, _: &mut LaneQueue<Token>) -> Admitted {
        let job = self.context(lane) as usize;
        let idx = self.cursors[job];
        let Some(&op) = self.jobs[job].get(idx) else {
            self.live_slots -= 1;
            return Admitted::Retired { drained: self.live_slots == 0 };
        };
        self.cursors[job] += 1;
        let io = self.io_seq;
        self.io_seq += 1;
        // Application compute between ops runs on the app's own core,
        // off every modeled resource.
        let ready = now + SimDuration::from_nanos(op.think_ns);
        Admitted::Issue { ready, lane, io, op }
    }

    fn context(&self, lane: u32) -> u32 {
        lane / self.iodepth
    }

    fn inflight(&self, queued: usize) -> u32 {
        // Pending tokens plus the slot in hand.
        queued as u32 + 1
    }

    fn sample_counters(&self, obs: &Observer, at: SimTime, queued: usize) {
        obs.counter(at, "inflight_ops", self.inflight(queued) as u64);
        obs.counter(at, "queue_depth", queued as u64);
    }
}

/// Open-loop admission: ops arrive at their intended instants from a
/// stream cursor whatever the completions, bounded by an admission cap
/// (arrivals past it are dropped and counted).  Admitted ops
/// round-robin across one lane per submission context; the arrival
/// chain has its own shard after them.
#[derive(Default)]
struct OpenLoop<'a> {
    stream: &'a [ArrivalOp],
    cap: u32,
    contexts: u32,
    cursor: usize,
    inflight: u32,
    admitted: u64,
    dropped: u64,
}

impl OpenLoop<'_> {
    /// The sweep point: offered load is empirical — intended arrivals
    /// over the span of the stream — so replayed traces report their
    /// true rate without needing a configured one.
    fn point(&self, report: &RunReport, hist: &Histogram) -> crate::report::LoadPoint {
        let stream = self.stream;
        let span = stream.last().map_or(SimDuration::ZERO, |l| l.at.saturating_since(stream[0].at));
        let offered_kiops = match span.as_secs_f64() {
            secs if secs > 0.0 => (stream.len() as f64 - 1.0) / secs / 1_000.0,
            _ => 0.0,
        };
        crate::report::LoadPoint {
            offered_kiops,
            achieved_kiops: report.kiops,
            mean_us: hist.mean_us(),
            p50_us: hist.quantile(0.5) / 1_000.0,
            p99_us: hist.quantile(0.99) / 1_000.0,
            p999_us: hist.quantile(0.999) / 1_000.0,
            admitted: self.admitted,
            dropped: self.dropped,
        }
    }
}

impl Admission for OpenLoop<'_> {
    const WORKLOAD: &'static str = "open-loop";
    const REARM: bool = false;

    fn seed(&mut self, background: bool) -> (LaneQueue<Token>, usize, Option<SimTime>) {
        let lane = self.contexts;
        let shards = lane as usize + 1 + background as usize;
        let mut queue = LaneQueue::new(shards, 0);
        let start = self.stream.first().map(|a| a.at);
        if let Some(at) = start {
            queue.schedule_at(lane as usize, at, Token::Admit { lane });
        }
        (queue, lane as usize + 1, start)
    }

    fn admit(&mut self, now: SimTime, lane: u32, queue: &mut LaneQueue<Token>) -> Admitted {
        let op = self.stream[self.cursor].op;
        self.cursor += 1;
        if let Some(next) = self.stream.get(self.cursor) {
            queue.schedule_at(lane as usize, next.at.max(now), Token::Admit { lane });
        }
        if self.inflight >= self.cap {
            // Admission queue full: the op is refused at its arrival
            // instant — a load shed, not a deferral.
            self.dropped += 1;
            return Admitted::Dropped;
        }
        self.inflight += 1;
        let io = self.admitted;
        self.admitted += 1;
        // Round-robin across submission contexts (DeLiBA-K's three
        // io_uring instances; one NBD daemon for D1/D2).
        let lane = (io % self.contexts as u64) as u32;
        Admitted::Issue { ready: now, lane, io, op }
    }

    fn settle(&mut self) -> bool {
        self.inflight -= 1;
        self.inflight == 0 && self.cursor >= self.stream.len()
    }

    fn inflight(&self, _: usize) -> u32 {
        self.inflight
    }

    fn sample_counters(&self, obs: &Observer, at: SimTime, _: usize) {
        obs.counter(at, "inflight_ops", self.inflight as u64);
        obs.counter(at, "admission_drops", self.dropped);
    }
}

/// Result of an open-loop run: the full report (latency columns measured
/// from intended arrival) plus the sweep-point summary the `loadcurve`
/// experiment aggregates into a [`LoadCurve`](crate::report::LoadCurve).
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// The run report; `mean_latency_us`/`p99_latency_us` are from
    /// intended arrival, not submission.
    pub report: RunReport,
    /// The curve point (offered/achieved rate, quantiles, drop counts).
    pub point: crate::report::LoadPoint,
}

/// The end-to-end engine.
pub struct Engine {
    cfg: EngineConfig,
    cluster: Cluster,
    card: Option<AlveoU280>,
    /// One server per submission context (3 io_uring cores or 1 NBD
    /// daemon).
    contexts: Vec<Server>,
    /// PCIe is full duplex: independent host→card and card→host pipes.
    pcie: PciePipes,
    image: RbdImage,
    rng: Xoshiro256,
    /// Committed write extents for integrity verification, per target
    /// object.  A write drops every extent of its object that it
    /// overlaps, so each entry still describes the bytes stored at its
    /// extent.
    written: OidMap<Extents>,
    verify_failures: u64,
    degraded_ops: u64,
    /// Recycled payload buffer: write payloads are generated into this
    /// scratch space instead of a fresh allocation per op.
    scratch: Vec<u8>,
    /// Recycled read buffer: cluster reads land here instead of a fresh
    /// allocation per op.
    read_buf: Vec<u8>,
    /// Recycled encode buffer: an EC write's parity, after any padded
    /// data chunk, as `ReedSolomon::encode_into` fills it.  The payload
    /// lends its whole chunks, so the shards reach the cluster borrowed.
    parity_buf: Vec<u8>,
    /// Recycled device buffer for the card-side placement lookup.
    place_buf: Vec<i32>,
    /// Events popped by the shared event loop, both admission modes
    /// (perf accounting).
    events: u64,
    /// Completions consumed by the fused submit→dispatch→post fast path
    /// (no event-queue round trip; perf accounting only).
    fused: u64,
    /// The armed fault plane (`None` unless a schedule was installed —
    /// an absent plane draws nothing and changes no timing).
    faults: Option<FaultPlane>,
    /// Engine-side resilience counters (retries, timeouts, failovers…).
    res: ResilienceCounters,
    /// The card is faulted: route I/O over the software host path.
    fpga_down: bool,
    /// When the outstanding card fault began (time-to-recover basis).
    card_fault_at: Option<SimTime>,
    /// Stage histograms, flight recorder and telemetry plane (disabled
    /// unless `cfg.trace_depth` or `cfg.telemetry` armed them; every
    /// layer below holds a clone).  All recording happens in the event
    /// loop, keyed by virtual completion/pop instants, so the exports
    /// replay bit-identically.
    obs: Observer,
    /// Clone of the most recent run's latency histogram, kept only when
    /// the telemetry plane is on (the telescoping tests compare merged
    /// window histograms against it).
    last_hist: Option<Histogram>,
    /// Background recovery/backfill/scrub scheduler (present iff
    /// `cfg.recovery` armed a policy).  Every mutation happens in the
    /// event loop, so armed reports replay bit-identically.
    recovery: Option<RecoveryScheduler>,
    /// Silent corruptions injected by the fault plane's `BitRot` events.
    bitrot_injected: u64,
    /// A fault-plane topology mutation occurred since the last scan.
    recovery_dirty: bool,
    /// A `Recovery` token is in flight on the event queue.
    recovery_live: bool,
    /// Rescan rounds since recovery last went clean — a deterministic
    /// bound so a topology that can never converge (not enough up OSDs)
    /// cannot spin the event loop forever.
    recovery_kicks: u32,
}

impl Engine {
    /// Build an engine over the paper's testbed.
    pub fn new(cfg: EngineConfig) -> Self {
        let frames = if cfg.jumbo_frames {
            deliba_net::FrameConfig::jumbo()
        } else {
            deliba_net::FrameConfig::standard()
        };
        let obs = Observer::new(cfg.trace_depth, cfg.telemetry);
        let mut cluster = Cluster::paper_testbed_with_frames(cfg.seed, frames);
        cluster.set_trace(obs.clone());
        let recovery = cfg.recovery.map(RecoveryScheduler::new);
        if recovery.is_some() {
            // Dynamics on: partial-write fan-out starts honoring the
            // stale/backfill registries (reads always did — any stale
            // consult without dynamics would have been a verify failure).
            cluster.set_dynamics(true);
        }
        let card = cfg.fpga.then(|| {
            let mut card = AlveoU280::deliba_k_default();
            card.set_trace(obs.clone());
            card
        });
        let contexts = (0..cfg.features.contexts.max(1))
            .map(|_| Server::new())
            .collect();
        let mut pcie = PciePipes::new(calib::PCIE_GBYTES_PER_SEC);
        pcie.set_trace(obs.clone());
        let pool = match cfg.mode {
            Mode::Replication => 1,
            Mode::ErasureCoding => 2,
        };
        Engine {
            cfg,
            cluster,
            card,
            contexts,
            pcie,
            image: RbdImage::new(pool, 0xD3B5, IMAGE_BYTES),
            rng: Xoshiro256::seed_from_u64(cfg.seed ^ 0xFEED),
            written: OidMap::default(),
            verify_failures: 0,
            degraded_ops: 0,
            scratch: Vec::new(),
            read_buf: Vec::new(),
            parity_buf: Vec::new(),
            place_buf: Vec::new(),
            events: 0,
            fused: 0,
            faults: None,
            res: ResilienceCounters::default(),
            fpga_down: false,
            card_fault_at: None,
            obs,
            last_hist: None,
            recovery,
            bitrot_injected: 0,
            recovery_dirty: false,
            recovery_live: false,
            recovery_kicks: 0,
        }
    }

    /// The observer (disabled unless the config set a trace depth or a
    /// telemetry config) — the trace and series exporters hang off it.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The most recent run's latency histogram; `Some` only when the
    /// telemetry plane was on (the window series must merge back to
    /// exactly this).
    pub fn last_histogram(&self) -> Option<&Histogram> {
        self.last_hist.as_ref()
    }

    /// Cumulative/instantaneous resource gauges at `at`, packaged for
    /// the telemetry recorder.  Called only at window boundaries (a few
    /// times per window's worth of events), never per op.
    fn gauge_snapshot(&self, at: SimTime, inflight: u32, queue_depth: u32) -> GaugeSnapshot {
        let (link_busy, link_pipes) = self.cluster.topology().class_busy_times();
        let cache = self.cluster.map().placement_cache_stats();
        let (backlog, scrub) = match &self.recovery {
            Some(s) => (s.pending_items() as u64, s.stats.scrub_objects),
            None => (0, 0),
        };
        GaugeSnapshot {
            inflight,
            queue_depth,
            osd_busy: self.cluster.osd_busy_times(),
            osd_qd: self.cluster.osd_busy_threads_at(at),
            link_busy,
            link_pipes,
            recovery_backlog: backlog,
            scrub_objects: scrub,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            retries: self.res.retries,
        }
    }

    /// Arm the fault plane with a timed schedule.  Injector streams are
    /// derived from the engine seed, independent of the workload RNG,
    /// so the same seed + schedule replay bit-identically.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = Some(FaultPlane::new(schedule, self.cfg.seed));
    }

    /// Snapshot of the resilience counters, merging the per-layer
    /// injector tallies (frame drops/corruptions, DMA errors/stalls)
    /// into the engine-side ones (retries, timeouts, failovers).
    pub fn resilience_counters(&self) -> ResilienceCounters {
        let mut res = self.res;
        if let Some(plane) = &self.faults {
            res.dropped_frames = plane.link.drops();
            res.corrupt_frames = plane.link.corrupts();
            res.dma_errors = plane.dma.h2c_errors() + plane.dma.c2h_errors();
            res.dma_stalls = plane.dma.stalls();
        }
        res
    }

    /// Background-traffic counters (`None` unless a recovery policy is
    /// armed): what backfill moved, what scrub found and repaired, and
    /// how long the cluster spent degraded.
    pub fn recovery_counters(&self) -> Option<crate::report::RecoveryCounters> {
        let sched = self.recovery.as_ref()?;
        Some(crate::report::RecoveryCounters {
            objects_recovered: sched.stats.objects_recovered,
            objects_repaired: sched.stats.objects_repaired,
            unrecoverable: sched.unrecoverable_objects(),
            recovery_ops: sched.stats.recovery_ops,
            background_bytes: sched.stats.background_bytes,
            scrub_objects: sched.stats.scrub_objects,
            bitrot_injected: self.bitrot_injected,
            bitrot_detected: sched.stats.bitrot_detected,
            bitrot_repaired: sched.stats.bitrot_repaired,
            degraded_reads: self.cluster.bad_copy_skips(),
            time_to_clean_us: sched.stats.time_to_clean_us,
        })
    }

    /// Direct cluster access (failure injection in experiments).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Direct card access (DFX experiments); `None` for software
    /// baselines.
    pub fn card_mut(&mut self) -> Option<&mut AlveoU280> {
        self.card.as_mut()
    }

    /// Data-integrity check failures observed (must stay 0).
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    /// Placement-cache counters of the engine's cluster map.
    pub fn placement_cache_stats(&self) -> deliba_crush::CacheStats {
        self.cluster.map().placement_cache_stats()
    }

    /// The verify checksum: 4-lane word FNV-1a.  Word `i` of each
    /// 32-byte block feeds lane `i`, so the four multiply chains run
    /// side by side; lanes 1–3 then fold into lane 0, followed by the
    /// `< 32`-byte tail word by word, the last word zero-padded.  Every
    /// step is a bijection in the word or lane it takes, so any single
    /// changed word (hence any rotted byte) changes the sum.  Only ever
    /// compared against itself within one run.
    fn checksum(data: &[u8]) -> u64 {
        let mut lanes = [FNV_OFFSET; 4];
        let mut blocks = data.chunks_exact(32);
        for block in blocks.by_ref() {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let word = u64::from_le_bytes(w.try_into().expect("exact chunk"));
                *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
            }
        }
        let mut h = lanes[0];
        for &lane in &lanes[1..] {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        for w in blocks.remainder().chunks(8) {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            h = (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Fill the recycled scratch buffer with `len` deterministic payload
    /// bytes and return them with their [`Engine::checksum`], summed in
    /// a second pass while the bytes are still in L1.  Draws exactly one
    /// `next_u64` from the engine's RNG per payload, the key of
    /// [`fill_payload`]'s lanes.
    fn payload_for(&mut self, len: usize) -> (Vec<u8>, u64) {
        let mut v = std::mem::take(&mut self.scratch);
        // The fill writes every byte, so recycled bytes need no zeroing.
        v.resize(len, 0);
        fill_payload(self.rng.next_u64(), &mut v);
        let sum = Self::checksum(&v);
        (v, sum)
    }

    /// Record a committed write of `new` to object `target`
    /// ([`Extents::record`]).
    fn record_write(&mut self, target: ObjectId, new: Extent) {
        self.written
            .entry(target)
            .and_modify(|x| x.record(new))
            .or_insert(Extents::One(new));
    }

    /// The checksum of the committed write whose extent of `target` is
    /// exactly `[off, off + len)`, if one is recorded.
    fn committed_sum(&self, target: ObjectId, off: u32, len: u32) -> Option<u64> {
        let extents = self.written.get(&target)?.as_slice();
        let i = extents
            .binary_search_by_key(&(off, len), Extent::key)
            .ok()?;
        Some(extents[i].sum)
    }

    /// Per-I/O sub-object for EC mode: the paper's accelerators encode
    /// each I/O's payload, so each block-sized extent is its own EC
    /// object (a partial-write model documented in DESIGN.md).
    fn ec_oid(&self, obj_name: u64, offset: u64) -> ObjectId {
        let mut z = obj_name ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ObjectId::new(self.image.pool, z ^ (z >> 31))
    }

    /// Apply every scheduled fault due at or before `now`.  The engine's
    /// processed event times are monotone nondecreasing (the fused fast
    /// path only fires when strictly earlier than the heap head), so
    /// sweeping "due at ≤ now" at each op fires every fault exactly once,
    /// in order, at the first op that reaches its instant.  Returns
    /// whether anything fired, so callers kick recovery exactly when a
    /// mutation could have left work behind.
    fn apply_due_faults(&mut self, now: SimTime) -> bool {
        let mut fired = false;
        loop {
            let Some(kind) = self.faults.as_mut().and_then(|p| p.due(now)) else {
                return fired;
            };
            fired = true;
            match kind {
                FaultKind::OsdCrash { osd } | FaultKind::OsdRevive { osd } => {
                    // Either way the map epoch bumps: the placement cache
                    // invalidates and retries re-place through the new
                    // CRUSH walk.
                    let ik = if let FaultKind::OsdCrash { .. } = kind {
                        self.cluster.fail_osd(osd);
                        self.res.osd_crashes += 1;
                        InstantKind::OsdCrash
                    } else {
                        self.cluster.revive_osd(osd);
                        InstantKind::OsdRevive
                    };
                    self.recovery_dirty = true;
                    self.obs.fault(now, osd as u32, ik, osd as u64);
                    self.obs.instant_lane(
                        now,
                        TraceLayer::Fault,
                        osd as u32,
                        InstantKind::CacheInvalidation,
                        self.cluster.map().epoch,
                    );
                }
                // Profile windows are time-indexed, not cursor-driven:
                // each attempt syncs the injector to the profile in force
                // at its own instant (`FaultPlane::sync_link/sync_dma`),
                // so a backed-off retry crossing a restore boundary sees
                // the healthy link without dragging the whole plane
                // forward past windows other in-flight ops still occupy.
                FaultKind::LinkDegrade(p) => {
                    let ik = if p.is_healthy() {
                        InstantKind::LinkRestore
                    } else {
                        InstantKind::LinkDegrade
                    };
                    self.obs.fault(now, 0, ik, 0);
                }
                FaultKind::DmaDegrade(p) => {
                    let ik = if p.is_healthy() {
                        InstantKind::DmaRestore
                    } else {
                        InstantKind::DmaDegrade
                    };
                    self.obs.fault(now, 0, ik, 0);
                }
                FaultKind::CardFault => {
                    if let Some(card) = self.card.as_mut() {
                        card.inject_fault();
                    }
                    if self.cfg.fpga && !self.fpga_down {
                        self.fpga_down = true;
                        self.card_fault_at = Some(now);
                        self.res.fpga_failovers += 1;
                    }
                    self.obs.fault(now, 0, InstantKind::CardFault, 0);
                }
                FaultKind::CardRecover => {
                    if let Some(card) = self.card.as_mut() {
                        card.clear_fault();
                    }
                    self.fpga_down = false;
                    if let Some(t0) = self.card_fault_at.take() {
                        self.res.recovery_time_us +=
                            now.saturating_since(t0).as_nanos() as f64 / 1_000.0;
                    }
                    self.obs.fault(now, 0, InstantKind::CardRecover, 0);
                }
                FaultKind::DfxSwap { target } => {
                    if let Some(card) = self.card.as_mut() {
                        // Busy / already-active swaps are simply not
                        // restarted — same as a real MCAP controller
                        // rejecting a second load command.
                        if card.reconfigure(now, target).is_ok() {
                            self.res.dfx_swaps += 1;
                        }
                    }
                }
                FaultKind::BitRot { copies } => {
                    // Disjoint field borrows: the cluster flips stored
                    // bytes, drawing only from the plane's dedicated
                    // bit-rot stream (chaos jitter streams untouched).
                    let plane = self.faults.as_mut().expect("a due fault implies a plane");
                    let rotten = self.cluster.inject_bitrot(copies, plane.bitrot_rng());
                    self.bitrot_injected += rotten;
                    self.obs.fault(now, 0, InstantKind::BitRot, rotten);
                }
            }
        }
    }

    /// After a fault-plane mutation: rescan for recovery work and, when
    /// any is pending, return the first wave's wake-up instant (peering
    /// `kick_delay` after `now`).  No-op unless a scheduler is armed,
    /// the topology is dirty, and no `Recovery` token is already live.
    fn recovery_kick(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.recovery_dirty || self.recovery_live {
            return None;
        }
        self.recovery_dirty = false;
        let sched = self.recovery.as_mut()?;
        if self.cluster.recovery_scan(sched, now) {
            self.recovery_live = true;
            Some(now + sched.policy().kick_delay)
        } else {
            None
        }
    }

    /// Drive one `Recovery` token: dispatch a backfill wave, or rescan
    /// once the queue drains.  Returns the next token's instant, or
    /// `None` when the cluster is clean again (or the livelock bound
    /// tripped on a topology that cannot converge).
    fn recovery_step(&mut self, now: SimTime) -> Option<SimTime> {
        self.recovery_live = false;
        let sched = self.recovery.as_mut()?;
        let before = sched.stats.recovery_ops;
        if let Some(fin) = self.cluster.backfill_wave(sched, now) {
            let dispatched = sched.stats.recovery_ops - before;
            self.obs
                .instant(now, TraceLayer::Cluster, InstantKind::Backfill, dispatched);
            self.recovery_live = true;
            return Some(fin);
        }
        // Pending drained (or nothing dispatchable): rescan to pick up
        // re-triaged and newly degraded work.
        self.recovery_dirty = false;
        if self.cluster.recovery_scan(sched, now) {
            self.recovery_kicks += 1;
            if self.recovery_kicks > 10_000 {
                return None;
            }
            self.recovery_live = true;
            Some(now + sched.policy().kick_delay)
        } else {
            self.recovery_kicks = 0;
            sched.mark_clean(now);
            None
        }
    }

    /// Drive one `Scrub` token.  Periodic ticks pace at the policy's
    /// interval; once the end-of-run drain starts, passes run
    /// back-to-back until a full pass finds nothing — then the token
    /// chain ends (return `None`) and the queue can empty.
    fn scrub_step(&mut self, now: SimTime) -> Option<SimTime> {
        let sched = self.recovery.as_mut()?;
        let interval = sched.policy().scrub_interval;
        let tick = self.cluster.scrub_tick(sched, now);
        if tick.repaired > 0 {
            self.obs.instant(
                tick.finish,
                TraceLayer::Cluster,
                InstantKind::ScrubRepair,
                tick.repaired,
            );
        }
        if sched.scrub_draining() {
            if tick.wrapped && self.cluster.scrub_pass_reset(sched) == 0 {
                return None;
            }
            Some(tick.finish)
        } else {
            if tick.wrapped {
                self.cluster.scrub_pass_reset(sched);
            }
            Some(tick.finish.max(now + interval))
        }
    }

    /// Execute one attempt of an I/O issued at `ready` (attempt 0 is the
    /// original submission), applying the resilience policy.  A failed
    /// attempt with retry budget left is *not* resolved in place — the
    /// caller re-enqueues it at the returned instant, so the backoff wait
    /// happens on the event queue and never occupies the submission
    /// context, the PCIe pipe, or any other shared resource timeline.
    /// `first_start` carries the original attempt's start so a retried
    /// op's completion latency spans every attempt, as fio would see it.
    fn do_io(
        &mut self,
        ready: SimTime,
        job: u32,
        op: TraceOp,
        attempt: u32,
        first_start: Option<SimTime>,
    ) -> IoDisposition {
        let (start, result) = self.attempt_io(ready, job, op);
        let start = first_start.unwrap_or(start);
        match result {
            Ok(complete) => {
                if let Some(p) = self.cfg.resilience {
                    if complete.saturating_since(start) > p.deadline {
                        // The op made it, but past its deadline — the
                        // requester above us already gave up on it.
                        self.res.timeouts += 1;
                        self.obs.instant(
                            complete,
                            TraceLayer::Engine,
                            InstantKind::Timeout,
                            complete.saturating_since(start).as_nanos(),
                        );
                    }
                    if attempt > 0 {
                        self.res.failovers += 1;
                        self.obs.instant(
                            complete,
                            TraceLayer::Engine,
                            InstantKind::Failover,
                            attempt as u64,
                        );
                    }
                }
                IoDisposition::Done { start, complete }
            }
            Err((at, cause)) => {
                let Some(p) = self.cfg.resilience else {
                    // No policy: fail fast exactly as before the fault
                    // plane existed — charge a timeout-scale penalty and
                    // move on.
                    self.degraded_ops += 1;
                    return IoDisposition::Done {
                        start,
                        complete: at + SimDuration::from_millis(30),
                    };
                };
                // Silent failures (dropped frames) are only discovered
                // when the deadline expires; explicit error signals
                // arrive with the failure itself.
                let detected = if cause.is_silent() {
                    self.res.timeouts += 1;
                    self.obs
                        .instant(ready + p.deadline, TraceLayer::Engine, InstantKind::Timeout, 0);
                    ready + p.deadline
                } else {
                    at
                };
                if attempt >= p.max_retries {
                    self.res.exhausted += 1;
                    self.degraded_ops += 1;
                    self.obs.instant(
                        detected,
                        TraceLayer::Engine,
                        InstantKind::RetryExhausted,
                        attempt as u64,
                    );
                    return IoDisposition::Done { start, complete: detected };
                }
                let unit = self.faults.as_mut().map_or(0.0, |pl| pl.jitter_unit());
                self.res.retries += 1;
                self.obs.instant(
                    detected,
                    TraceLayer::Engine,
                    InstantKind::Retry,
                    (attempt + 1) as u64,
                );
                IoDisposition::Retry {
                    at: detected + p.backoff(attempt, unit),
                    attempt: attempt + 1,
                    first_start: start,
                }
            }
        }
    }

    /// One attempt of one I/O issued at `ready`: returns when the
    /// submission context picked the op up (the basis for fio-style
    /// completion latency — time queued behind the submitting core's own
    /// backlog is submission latency, not clat) and the completion
    /// instant, or the failure instant and cause.
    ///
    /// The steps follow the path layer by layer.  Every failure leaves
    /// through the one exit below, which recycles the payload and emits
    /// the cause's instant; a failed attempt records no stage spans and
    /// no context occupancy — only the op's final disposition counts.
    fn attempt_io(&mut self, ready: SimTime, job: u32, op: TraceOp) -> (SimTime, Result<SimTime, Failed>) {
        let mut a = self.host_submit(ready, job, op);
        let result = self.walk(&mut a);
        if let Some((buf, _)) = a.payload.take() {
            self.scratch = buf;
        }
        if let Err((at, cause)) = result {
            let bytes = op.len as u64;
            let (layer, kind, detail) = match cause {
                FailCause::DmaH2c => (TraceLayer::Qdma, InstantKind::DmaError, 0),
                FailCause::DmaC2h => (TraceLayer::Qdma, InstantKind::DmaError, 1),
                FailCause::LinkDrop => (TraceLayer::Net, InstantKind::FrameDrop, bytes),
                FailCause::LinkCorrupt => (TraceLayer::Net, InstantKind::FrameCorrupt, bytes),
                FailCause::ClusterUnavailable => (TraceLayer::Cluster, InstantKind::ClusterUnavailable, 0),
            };
            self.obs.instant(at, layer, kind, detail);
        }
        (a.start, result)
    }

    /// The path below the host submit, one step per layer.
    fn walk(&mut self, a: &mut Attempt) -> Result<SimTime, Failed> {
        if a.fpga {
            self.qdma_h2c(a)?;
        }
        self.accel(a);
        self.request_wire(a)?;
        self.cluster_io(a)?;
        self.response_wire(a)?;
        if a.fpga && !a.op.write {
            self.qdma_c2h(a)?;
        }
        Ok(self.complete(a))
    }

    /// Host submit: host costs, the submission context's pickup, the
    /// op's objects and, for a write, its payload.
    fn host_submit(&mut self, ready: SimTime, job: u32, op: TraceOp) -> Attempt {
        // Graceful degradation: while the card is faulted the I/O runs
        // the software host path end to end (host CRUSH, host EC, kernel
        // TCP) — slower, but the data keeps flowing.
        let fpga = self.cfg.fpga && !self.fpga_down;
        if self.fpga_down {
            self.res.degraded_path_ops += 1;
        }
        let mode = self.cfg.mode;
        let costs = host_costs(&self.cfg.features, fpga, op.write, op.random, op.len as u64, mode);
        let ctx = (job as usize) % self.contexts.len();
        let start = self.contexts[ctx].earliest_start(ready);
        let (obj, obj_off) = self.image.object_of(op.offset);
        let (target, off) = match mode {
            Mode::Replication => (obj, obj_off as u32),
            Mode::ErasureCoding => (self.ec_oid(obj.name, op.offset), 0),
        };
        let p = &costs.parts;
        let zero = SimDuration::ZERO;
        Attempt {
            op, fpga, costs, ctx, start,
            t: start + costs.submit_latency,
            // The later steps fill in the card, cluster and return spans.
            spans: [
                (Stage::Submit, p.submit),
                (Stage::RingEnter, p.ring_enter),
                (Stage::BlkMq, p.blk_mq),
                (Stage::Uifd, p.uifd),
                (Stage::QdmaH2C, zero),
                (Stage::Accel, p.accel),
                (Stage::NetTx, p.net_tx),
                (Stage::OsdService, zero),
                (Stage::NetRx, zero),
                (Stage::QdmaC2H, zero),
                (Stage::Complete, costs.complete_latency),
            ],
            obj, target, off,
            payload: op.write.then(|| self.payload_for(op.len as usize)),
        }
    }

    /// QDMA H2C: the payload (writes) or command (reads) crosses PCIe.
    fn qdma_h2c(&mut self, a: &mut Attempt) -> Result<(), Failed> {
        let dma_bytes = if a.op.write { a.op.len as u64 } else { 256 };
        let pre_h2c = a.t;
        // Descriptor exhaustion stalls the fetch engine until credits
        // replenish — added latency, not a failure, charged to the
        // H2C span.
        if let Some(stall) = self
            .faults
            .as_mut()
            .and_then(|p| if p.sync_dma(a.t) { p.dma.assess_fetch() } else { None })
        {
            self.obs
                .instant(a.t, TraceLayer::Qdma, InstantKind::DmaStall, stall.as_nanos());
            a.t += stall;
        }
        a.t = self.pcie.h2c_transfer(a.t, dma_bytes);
        a.spans[Stage::QdmaH2C as usize].1 = a.t.saturating_since(pre_h2c);
        // The completion engine reports H2C errors as soon as the
        // transfer finishes; the transfer still occupied the pipe.
        if self.faults.as_mut().is_some_and(|p| p.sync_dma(a.t) && p.dma.assess_h2c()) {
            return Err((a.t, FailCause::DmaH2c));
        }
        Ok(())
    }

    /// Card: placement, the RS encode of an EC write and the TCP
    /// pipeline fill — or, off the card, the software encode (its time
    /// already charged by `host_costs`).
    fn accel(&mut self, a: &mut Attempt) {
        let ec_write = a.op.write && self.cfg.mode == Mode::ErasureCoding;
        if !a.fpga {
            if let (true, Some((data, _))) = (ec_write, &a.payload) {
                self.cluster
                    .ec_codec(self.image.pool)
                    .encode_into(data, &mut self.parity_buf);
            }
            return;
        }
        let rtl = self.cfg.features.rtl_accel;
        // Placement kernel runs as data streams through the card:
        // execute the *real* CRUSH rule on the device model so DFX
        // swaps, fallbacks and cycle budgets are all exercised.  The
        // placement resolves through the epoch-keyed cache: same key
        // space as the cluster data path, so one CRUSH walk per (rule,
        // pg, epoch) serves both sides.  The card is charged the
        // kernel's fixed cycle budget.
        let map = self.cluster.map();
        let pool = map.pool(self.image.pool).expect("pool exists");
        let seed = pool.pg_seed(pool.pg_of(a.obj));
        map.do_rule_cached(pool.crush_rule, seed, pool.kind.width(), &mut self.place_buf);
        let card = self.card.as_mut().expect("fpga config has a card");
        let (place_t, _kernel) = card.place_prefetched(a.t, self.cfg.preferred_rm);
        let mut accel = if rtl { place_t } else { place_t * HLS_LATENCY_INFLATION };
        a.t += accel;
        // EC writes: the RS accelerator encodes on the card.
        if let (true, Some((data, _))) = (ec_write, &a.payload) {
            let enc_t = card.encode_into(data, &mut self.parity_buf);
            let enc_eff = if rtl { enc_t } else { enc_t * HLS_LATENCY_INFLATION };
            a.t += enc_eff;
            accel += enc_eff;
        }
        a.spans[Stage::Accel as usize].1 += accel;
        // FPGA TCP stack pipeline fill.
        let stack = TcpStack::new(self.cfg.features.hw_tcp);
        if stack.is_offloaded() {
            let fill = stack.latency(a.op.len as u64);
            a.spans[Stage::NetTx as usize].1 += fill;
            a.t += fill;
        }
    }

    /// Request wire: a dropped request frame vanishes between the NIC
    /// and the OSD — no server-side effect, and no signal back; the
    /// failure is only discovered by the requester's own deadline.
    fn request_wire(&mut self, a: &Attempt) -> Result<(), Failed> {
        if self
            .faults
            .as_mut()
            .is_some_and(|p| p.sync_link(a.t) && p.link.assess_request() == LinkVerdict::Drop)
        {
            return Err((a.t, FailCause::LinkDrop));
        }
        Ok(())
    }

    /// Cluster: the write or read, then the read's verify or the
    /// write's commit record; the clock moves to the cluster's reply.
    fn cluster_io(&mut self, a: &mut Attempt) -> Result<(), Failed> {
        let (op, t, target) = (a.op, a.t, a.target);
        let outcome = match (&a.payload, self.cfg.mode) {
            (Some((data, _)), Mode::Replication) => self
                .cluster
                .write_replicated_at(t, target, a.off as usize, data, op.random),
            (Some((data, _)), Mode::ErasureCoding) => {
                // `accel` encoded this payload into `parity_buf`.
                let rs = self.cluster.ec_codec(self.image.pool);
                let shards = rs.shards_of(data, &self.parity_buf);
                self.cluster
                    .write_ec_shards(t, target, op.len as usize, shards, op.random)
            }
            (None, mode) => {
                let mut buf = std::mem::take(&mut self.read_buf);
                let (off, len) = (a.off as usize, op.len as usize);
                let res = match mode {
                    Mode::Replication => {
                        self.cluster.read_replicated_into(t, target, off, len, op.random, &mut buf)
                    }
                    _ if self.cluster.ec_object_exists(target) => {
                        self.cluster.read_ec_into(t, target, op.random, &mut buf)
                    }
                    _ => self
                        .cluster
                        .read_ec_sparse_into(t, target, len, op.random, &mut buf),
                };
                // A read is verified only when the bytes it returned are
                // exactly a committed write's extent.
                if res.is_some()
                    && self
                        .committed_sum(target, a.off, buf.len() as u32)
                        .is_some_and(|sum| Self::checksum(&buf) != sum)
                {
                    self.verify_failures += 1;
                }
                self.read_buf = buf;
                res
            }
        };
        // The cluster could not serve the op at this map epoch (too many
        // replicas/shards unavailable).  The retry path re-places
        // through the epoch-bumped CRUSH walk; without a policy the
        // caller charges the legacy timeout penalty.
        let outcome = outcome.ok_or((t, FailCause::ClusterUnavailable))?;
        // The write is recorded only once the cluster confirms the
        // commit — a failed write leaves the pre-write state visible,
        // and verification must agree — and the commit stands even if
        // the acknowledgement is lost below.
        if let Some((_, sum)) = a.payload {
            let (off, len) = (a.off, op.len);
            self.record_write(target, Extent { off, len, sum });
        }
        if outcome.degraded {
            self.degraded_ops += 1;
            if !op.write {
                self.res.degraded_reads += 1;
            }
        }
        a.spans[Stage::NetTx as usize].1 += outcome.net_tx;
        a.spans[Stage::OsdService as usize].1 = outcome.osd_service;
        a.spans[Stage::NetRx as usize].1 = outcome.net_rx;
        a.t = outcome.complete;
        Ok(())
    }

    /// Response wire: a corrupted response frame fails its FCS/checksum
    /// on arrival and is discarded — the server-side effect stands (the
    /// write committed, the read was served), only the acknowledgement
    /// is lost, so the requester sees an explicit error and retries.
    fn response_wire(&mut self, a: &Attempt) -> Result<(), Failed> {
        if self
            .faults
            .as_mut()
            .is_some_and(|p| p.sync_link(a.t) && p.link.assess_response() == LinkVerdict::Corrupt)
        {
            return Err((a.t, FailCause::LinkCorrupt));
        }
        Ok(())
    }

    /// QDMA C2H: a read's payload crosses PCIe back to the host buffer.
    fn qdma_c2h(&mut self, a: &mut Attempt) -> Result<(), Failed> {
        let pre_c2h = a.t;
        a.t = self.pcie.c2h_transfer(a.t, a.op.len as u64);
        a.spans[Stage::QdmaC2H as usize].1 = a.t.saturating_since(pre_c2h);
        if self.faults.as_mut().is_some_and(|p| p.sync_dma(a.t) && p.dma.assess_c2h()) {
            return Err((a.t, FailCause::DmaC2h));
        }
        Ok(())
    }

    /// Completion: the completion latency, the stage spans and the
    /// submission context's occupancy; returns the completion instant.
    fn complete(&mut self, a: &Attempt) -> SimTime {
        let complete = a.t + a.costs.complete_latency;
        // The spans telescope `start → complete`, so recording all
        // eleven (zeros included) keeps Σ stage means == e2e mean, and
        // every ring chain has a uniform shape.
        self.obs.op_spans(a.start, &a.spans);
        let hold = if self.cfg.features.sync_daemon {
            // NBD architecture: the daemon is held for the round trip —
            // fully for writes, partially for reads (socket handoff).
            let rtt = complete.saturating_since(a.start);
            if a.op.write {
                rtt
            } else {
                rtt * calib::NBD_READ_HOLD_FRACTION
            }
        } else {
            a.costs.occupancy
        };
        self.contexts[a.ctx].begin(a.start, hold);
        complete
    }

    /// Run per-job traces closed-loop with the given queue depth.
    pub fn run_trace(&mut self, jobs: Vec<Vec<TraceOp>>, iodepth: u32) -> RunReport {
        let cursors = vec![0; jobs.len()];
        self.event_loop(&mut ClosedLoop { jobs: &jobs, iodepth, cursors, ..Default::default() }).0
    }

    /// Run an open-loop stream: ops are admitted at their intended
    /// arrival times *regardless of completions*, bounded only by
    /// `admission_cap` in-flight ops (arrivals past the cap are dropped
    /// and counted, never silently deferred).  Latency is measured from
    /// intended arrival — an op that waits behind a saturated submission
    /// context or a stalled link is charged every nanosecond of that
    /// wait, which is exactly what the closed-loop clock hides.
    ///
    /// The stream must be sorted by `at` (generators and the timed-trace
    /// loader both guarantee it).
    pub fn run_open_loop(&mut self, stream: &[ArrivalOp], admission_cap: u32) -> OpenLoopRun {
        assert!(admission_cap > 0, "admission cap must be positive");
        debug_assert!(
            stream.windows(2).all(|w| w[0].at <= w[1].at),
            "open-loop stream must be time-sorted"
        );
        let contexts = self.contexts.len() as u32;
        let mut src = OpenLoop { stream, cap: admission_cap, contexts, ..Default::default() };
        let (report, hist) = self.event_loop(&mut src);
        let point = src.point(&report, &hist);
        OpenLoopRun { report, point }
    }

    /// The event loop both run modes share; `src` decides how foreground
    /// ops are admitted.  Returns the report and its latency histogram.
    fn event_loop<S: Admission>(&mut self, src: &mut S) -> (RunReport, Histogram) {
        // Reports describe this run alone, even on a reused engine.
        let (events0, fused0) = (self.events, self.fused);
        let cache0 = self.placement_cache_stats();
        self.obs.begin_run();
        let mut hist = Histogram::new();
        let mut counter = Counter::new();
        let mut last_complete = SimTime::ZERO;
        // The background recovery/scrub tokens get a shard of their own
        // only when a scheduler is armed, so unarmed runs keep their
        // exact shard count (and byte-identical reports).
        let (mut queue, bg_shard, start) = src.seed(self.recovery.is_some());
        if let (Some(start), Some(sched)) = (start, &self.recovery) {
            let interval = sched.policy().scrub_interval;
            if interval > SimDuration::ZERO {
                queue.schedule_at(bg_shard, start + interval, Token::Scrub);
            }
        }
        // Both completion sites — an open-loop `Settle` and a closed-loop
        // re-arm — account a finished op here.
        let obs = self.obs.clone();
        let sample_counters = obs.full();
        let mut complete_op = |src: &S, at: SimTime, latency: SimDuration, len: u32, queued| {
            hist.record(latency);
            counter.record(len as u64);
            obs.op(at, latency, len as u64);
            last_complete = last_complete.max(at);
            if sample_counters {
                src.sample_counters(&obs, at, queued);
            }
        };
        // The next event when the closed loop's re-arm already popped it.
        let mut fused = None;
        while let Some((now, token)) = fused.take().or_else(|| queue.pop()) {
            self.events += 1;
            // Telemetry gauge sampling keys off pop times, which the
            // queue guarantees are monotone nondecreasing — windows
            // strictly before the current one close here, so the series
            // replays bit-identically.
            if self.obs.needs_sample(now) {
                let queued = queue.len();
                let snap = self.gauge_snapshot(now, src.inflight(queued), queued as u32);
                self.obs.sample(now, snap);
            }
            if self.faults.is_some() && self.apply_due_faults(now) {
                if let Some(at) = self.recovery_kick(now) {
                    queue.schedule_at(bg_shard, at, Token::Recovery);
                }
            }
            let (ready, lane, io, op, attempt, first_start, intended) = match token {
                // A background token re-arms itself until its chain ends.
                Token::Recovery | Token::Scrub => {
                    let next = match token {
                        Token::Scrub => self.scrub_step(now),
                        _ => self.recovery_step(now),
                    };
                    if let Some(at) = next {
                        queue.schedule_at(bg_shard, at, token);
                    }
                    continue;
                }
                Token::Admit { lane } => match src.admit(now, lane, &mut queue) {
                    Admitted::Issue { ready, lane, io, op } => (ready, lane, io, op, 0, None, now),
                    Admitted::Dropped => {
                        self.obs.drop_op(now);
                        continue;
                    }
                    Admitted::Retired { drained } => {
                        self.start_scrub_drain(drained);
                        continue;
                    }
                },
                Token::Retry { lane, io, op, attempt, first_start, intended } => {
                    (now, lane, io, op, attempt, Some(first_start), intended)
                }
                Token::Settle { intended, len } => {
                    let drained = src.settle();
                    self.start_scrub_drain(drained);
                    complete_op(src, now, now.saturating_since(intended), len, queue.len());
                    continue;
                }
            };
            self.obs.set_ctx(io, lane);
            let ctx = src.context(lane);
            let (start, complete) = match self.do_io(ready, ctx, op, attempt, first_start) {
                IoDisposition::Done { start, complete } => (start, complete),
                IoDisposition::Retry { at, attempt, first_start } => {
                    // The op waits out its backoff on the event queue —
                    // its slot stays held, but no shared resource
                    // timeline advances on its behalf.
                    let retry = Token::Retry { lane, io, op, attempt, first_start, intended };
                    queue.schedule_at(lane as usize, at, retry);
                    continue;
                }
            };
            if !S::REARM {
                queue.schedule_at(lane as usize, complete, Token::Settle { intended, len: op.len });
                continue;
            }
            complete_op(src, complete, complete.saturating_since(start), op.len, queue.len());
            // Re-arm the slot and pop the next event in one queue call.
            // A completion strictly earlier than everything pending comes
            // straight back without touching the shards (ties round-trip
            // so the sequence-number FIFO tiebreak holds); those are the
            // fused events.
            self.fused += queue.peek_time().is_none_or(|head| head > complete) as u64;
            let rearm = Token::Admit { lane };
            fused = Some(queue.schedule_at_then_pop(lane as usize, complete, rearm));
        }
        let window = last_complete.saturating_since(SimTime::ZERO);
        let mut report = RunReport::new(
            self.cfg.label(),
            S::WORKLOAD.to_string(),
            &hist,
            &counter,
            window,
            self.degraded_ops,
            self.verify_failures,
        );
        report.breakdown = self.obs.stages(crate::report::StageBreakdown::from_tracer);
        let cache = self.placement_cache_stats();
        report.counters = Some(crate::report::PerfCounters {
            events: self.events - events0,
            fused_events: self.fused - fused0,
            cache_hits: cache.hits - cache0.hits,
            cache_misses: cache.misses - cache0.misses,
            cache_invalidations: cache.invalidations - cache0.invalidations,
        });
        // The resilience block appears only when the fault plane or the
        // policy is active, so baseline reports stay byte-identical.
        if self.faults.is_some() || self.cfg.resilience.is_some() {
            report.resilience = Some(self.resilience_counters());
        }
        report.recovery = self.recovery_counters();
        // Close out the telemetry plane: the final gauge sample, the run
        // histogram for the telescoping checks, and the SLO section.  A
        // no-op when the plane is off, so baseline reports stay
        // byte-identical.
        if let Some(tcfg) = self.obs.telemetry(|r| r.config()) {
            self.last_hist = Some(hist.clone());
            let snap = self.gauge_snapshot(last_complete, 0, 0);
            let summary = self.obs.finish(last_complete, snap).expect("telemetry is on");
            report.slo = Some(crate::report::SloReport::from_summary(&summary, &tcfg));
        }
        (report, hist)
    }

    /// Once the foreground has `drained`, scrub switches to its
    /// end-of-run drain passes.
    fn start_scrub_drain(&mut self, drained: bool) {
        let Some(s) = self.recovery.as_mut().filter(|_| drained) else { return };
        if s.policy().scrub_interval > SimDuration::ZERO && !s.scrub_draining() {
            s.start_scrub_drain();
        }
    }

    /// Generate and run a fio-style workload.
    pub fn run_fio(&mut self, spec: &FioSpec) -> RunReport {
        let bs = spec.block_size as u64;
        assert!(bs > 0 && IMAGE_BYTES.is_multiple_of(bs), "block size must divide image");
        let blocks = IMAGE_BYTES / bs;
        let per_job = (spec.ops / spec.numjobs as u64).max(1);
        let mut op_rng = self.rng.jump();
        let mut jobs = Vec::with_capacity(spec.numjobs as usize);
        for j in 0..spec.numjobs as u64 {
            let mut ops = Vec::with_capacity(per_job as usize);
            // Each sequential job streams its own slice of the image.
            let region_blocks = blocks / spec.numjobs as u64;
            let region_base = j * region_blocks;
            for k in 0..per_job {
                let offset = match spec.pattern {
                    Pattern::Seq => (region_base + (k % region_blocks)) * bs,
                    Pattern::Rand => op_rng.gen_range(blocks) * bs,
                };
                ops.push(TraceOp {
                    write: spec.rw == RwMode::Write,
                    offset,
                    len: spec.block_size,
                    random: spec.pattern == Pattern::Rand,
                    think_ns: 0,
                });
            }
            jobs.push(ops);
        }
        let mut report = self.run_trace(jobs, spec.iodepth);
        report.workload = spec.label();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: EngineConfig, spec: FioSpec) -> RunReport {
        Engine::new(cfg).run_fio(&spec)
    }

    #[test]
    fn deliba_k_hw_latency_in_table_ii_regime() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let spec = FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 300);
        let r = quick(cfg, spec);
        // Table II: 64 µs rand-read.  Allow ±25 % before fine calibration
        // assertions in the harness.
        assert!(
            (40.0..90.0).contains(&r.mean_latency_us),
            "rand-read 4k: {} µs",
            r.mean_latency_us
        );
        assert_eq!(r.verify_failures, 0);
    }

    #[test]
    fn generation_latency_ordering() {
        let spec = FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 200);
        let lat = |g| {
            quick(EngineConfig::new(g, true, Mode::Replication), spec).mean_latency_us
        };
        let d1 = lat(Generation::DeLiBA1);
        let d2 = lat(Generation::DeLiBA2);
        let dk = lat(Generation::DeLiBAK);
        assert!(d1 > d2, "D1 {d1} > D2 {d2}");
        assert!(d2 > dk, "D2 {d2} > DK {dk}");
    }

    #[test]
    fn deliba_k_iops_peak_regime() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let spec = FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 6_000);
        let r = quick(cfg, spec);
        // §VI: DeLiBA-K peaks near 59 K IOPS.
        assert!(
            (45.0..75.0).contains(&r.kiops),
            "rand-read 4k KIOPS: {}",
            r.kiops
        );
    }

    #[test]
    fn throughput_speedup_over_d2() {
        let spec = FioSpec::paper(RwMode::Write, Pattern::Rand, 4096, 4_000);
        let dk = quick(
            EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication),
            spec,
        );
        let d2 = quick(
            EngineConfig::new(Generation::DeLiBA2, true, Mode::Replication),
            spec,
        );
        let speedup = dk.throughput_mbps / d2.throughput_mbps;
        // Paper: 3.45× at 4 kB random writes.
        assert!(
            (2.2..5.0).contains(&speedup),
            "speedup {speedup} (dk {} d2 {})",
            dk.throughput_mbps,
            d2.throughput_mbps
        );
    }

    #[test]
    fn write_read_integrity_through_engine() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        // Write then read back the same blocks.
        let mut ops = Vec::new();
        for i in 0..50u64 {
            ops.push(TraceOp::write(i * 4096, 4096, false));
        }
        for i in 0..50u64 {
            ops.push(TraceOp::read(i * 4096, 4096, false));
        }
        let r = e.run_trace(vec![ops], 1);
        assert_eq!(r.ops, 100);
        assert_eq!(e.verify_failures(), 0, "read-back must match writes");
    }

    #[test]
    fn ec_mode_integrity() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding);
        let mut e = Engine::new(cfg);
        let mut ops = Vec::new();
        for i in 0..30u64 {
            ops.push(TraceOp::write(i * 8192, 8192, true));
        }
        for i in 0..30u64 {
            ops.push(TraceOp::read(i * 8192, 8192, true));
        }
        let r = e.run_trace(vec![ops], 1);
        assert_eq!(r.ops, 60);
        assert_eq!(e.verify_failures(), 0);
    }

    /// The payload contract: one `next_u64` of the engine's RNG per
    /// payload keys four xorshift128+ lanes, word `i` comes from step
    /// `i / 4` of lane `i % 4` (the tail word truncated), and the
    /// returned sum is [`Engine::checksum`].  The engine's fill runs
    /// the AVX2 copy wherever the CPU has AVX2, and the portable body
    /// is checked beside it, so both compiled versions write the
    /// reference bytes.
    #[test]
    fn payload_is_four_keyed_lanes_and_one_draw() {
        /// Word after word, one lane at a time.
        fn reference(key: u64, len: usize) -> Vec<u8> {
            let mut seed = SplitMix64::new(key);
            let firsts: Vec<u64> = (0..4).map(|_| seed.next_u64()).collect();
            let mut lanes: Vec<(u64, u64)> =
                firsts.into_iter().map(|s0| (s0, seed.next_u64())).collect();
            let mut out = vec![0u8; len];
            for (i, chunk) in out.chunks_mut(8).enumerate() {
                let (s0, s1) = &mut lanes[i % 4];
                let word = s0.wrapping_add(*s1);
                let t = *s0 ^ (*s0 << 23);
                *s0 = *s1;
                *s1 = t ^ *s1 ^ (t >> 17) ^ (*s1 >> 26);
                let n = chunk.len();
                chunk.copy_from_slice(&word.to_le_bytes()[..n]);
            }
            out
        }
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ 0xFEED);
        for len in [0, 1, 7, 8, 31, 32, 33, 4095, 4096, 16384] {
            let key = rng.next_u64();
            let want = reference(key, len);
            let (got, sum) = e.payload_for(len);
            assert_eq!(got, want, "payload bytes, len {len}");
            assert_eq!(sum, Engine::checksum(&got), "sum, len {len}");
            assert_eq!(
                e.rng.clone().next_u64(),
                rng.clone().next_u64(),
                "one draw, len {len}"
            );
            let mut portable = vec![0u8; len];
            fill_payload_lanes(key, &mut portable);
            assert_eq!(portable, want, "portable fill, len {len}");
            e.scratch = got;
        }
    }

    /// Consecutive equal-length payloads share no word at any index, so
    /// a read that returns an older write's bytes still fails verify.
    #[test]
    fn consecutive_payloads_share_no_word_at_an_index() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let (p, _) = e.payload_for(4096);
            for (i, w) in p.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(w.try_into().expect("exact chunk"));
                assert!(
                    seen.insert((i, word)),
                    "word {word:#x} repeats at index {i}"
                );
            }
            e.scratch = p;
        }
    }

    /// Flipping any single bit changes the checksum, in the 4-lane body
    /// and in every tail length (with and without a block before it).
    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut bytes = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        let mut bufs = vec![bytes(4096)];
        for tail in 1..32 {
            bufs.push(bytes(tail));
            bufs.push(bytes(32 + tail));
        }
        for mut buf in bufs {
            let sum = Engine::checksum(&buf);
            for bit in 0..buf.len() * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(Engine::checksum(&buf), sum, "len {} bit {bit}", buf.len());
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// Mixed-size replication I/O on correct data never fails verify:
    /// a read is verified only against an extent it covers exactly, and
    /// a write drops the older extents it overlaps.
    #[test]
    fn mixed_size_replication_io_verifies_only_exact_extents() {
        let (w, r) = (TraceOp::write, TraceOp::read);
        let cases = [
            vec![w(0, 8192, false), w(4096, 4096, false), r(0, 8192, false)],
            vec![w(0, 8192, false), r(0, 4096, false)],
            vec![w(0, 4096, false), w(4096, 4096, false), r(0, 8192, false)],
        ];
        for ops in cases {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
            let mut e = Engine::new(cfg);
            let n = ops.len() as u64;
            assert_eq!(e.run_trace(vec![ops.clone()], 1).ops, n);
            assert_eq!(e.verify_failures(), 0, "{ops:?}");
        }
        // The overlapped 8 KiB extent is gone; the 4 KiB one stands.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        e.run_trace(vec![vec![w(0, 8192, false), w(4096, 4096, false)]], 1);
        let (&target, extents) = e.written.iter().next().expect("one object written");
        let x = extents.as_slice()[0];
        assert_eq!((e.written.len(), extents.as_slice().len()), (1, 1));
        assert_eq!(x.key(), (4096, 4096));
        // An exact-extent read is still verified: a wrong recorded sum
        // is caught.
        let sum = x.sum ^ 1;
        e.record_write(target, Extent { sum, ..x });
        e.run_trace(vec![vec![r(4096, 4096, false)]], 1);
        assert_eq!(e.verify_failures(), 1);
    }

    /// The extent record against a brute-force reference: a seeded run
    /// of mixed-size writes (and some zero-length ones) over three
    /// objects.  After each write the object's extents are exactly the
    /// reference's (every overlapping extent dropped, then the write
    /// inserted), sorted and disjoint; the write's exact extent looks up
    /// its own checksum, and no dropped extent looks up at all.
    #[test]
    fn extent_record_matches_a_brute_force_reference() {
        const SPAN: u32 = 256 << 10;
        const LENS: [u32; 5] = [512, 4096, 6144, 16384, 65536];
        let overlaps = |a: &Extent, b: &Extent| a.off < b.end() && b.off < a.end();
        let mut e = Engine::new(EngineConfig::new(
            Generation::DeLiBAK,
            true,
            Mode::Replication,
        ));
        let objects = [1u64, 2, 3].map(|n| ObjectId::new(1, n));
        let mut reference: Vec<Vec<Extent>> = vec![Vec::new(); objects.len()];
        let mut rng = Xoshiro256::seed_from_u64(29);
        for _ in 0..2_000 {
            let slot = rng.gen_range(objects.len() as u64) as usize;
            // One write in 16 is zero-length.
            let len = match rng.gen_range(16) {
                0 => 0,
                _ => LENS[rng.gen_range(LENS.len() as u64) as usize],
            };
            let off = rng.gen_range(u64::from((SPAN - len) / 512 + 1)) as u32 * 512;
            let new = Extent {
                off,
                len,
                sum: rng.next_u64(),
            };
            let (target, want) = (objects[slot], &mut reference[slot]);
            let dropped: Vec<Extent> = want
                .iter()
                .filter(|x| overlaps(x, &new) && x.key() != new.key())
                .copied()
                .collect();
            want.retain(|x| !overlaps(x, &new) && x.key() != new.key());
            want.push(new);
            want.sort_by_key(Extent::key);

            e.record_write(target, new);
            let got = e.written[&target].as_slice();
            assert_eq!(got, &want[..], "after {new:?}");
            for pair in got.windows(2) {
                assert!(pair[0].key() < pair[1].key() && !overlaps(&pair[0], &pair[1]));
            }
            assert_eq!(e.committed_sum(target, off, len), Some(new.sum));
            for x in dropped {
                assert_eq!(e.committed_sum(target, x.off, x.len), None, "{x:?}");
            }
        }
        // A repeated zero-length write replaces its extent instead of
        // adding a second one beside it.
        let target = ObjectId::new(1, 4);
        let zero = |sum| Extent {
            off: 4096,
            len: 0,
            sum,
        };
        e.record_write(target, zero(1));
        e.record_write(target, zero(2));
        assert_eq!(e.written[&target], Extents::One(zero(2)));
    }

    #[test]
    fn seq_faster_than_rand() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let seq = quick(cfg, FioSpec::latency_probe(RwMode::Read, Pattern::Seq, 4096, 300));
        let rand = quick(cfg, FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 300));
        assert!(seq.mean_latency_us < rand.mean_latency_us);
    }

    #[test]
    fn sw_baseline_slower_than_hw() {
        let spec = FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 200);
        let hw = quick(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication), spec);
        let sw = quick(EngineConfig::new(Generation::DeLiBAK, false, Mode::Replication), spec);
        assert!(sw.mean_latency_us > hw.mean_latency_us + 30.0, "sw {} hw {}", sw.mean_latency_us, hw.mean_latency_us);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let spec = FioSpec::paper(RwMode::Write, Pattern::Rand, 4096, 1_000);
        let a = quick(cfg, spec);
        let b = quick(cfg, spec);
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
        assert_eq!(a.throughput_mbps, b.throughput_mbps);
    }

    // --- fused fast path ----------------------------------------------

    #[test]
    fn fused_fast_path_fires_at_queue_depth_one() {
        // With one job at qd 1 the heap is empty after each pop, so every
        // completion short-circuits through the fused path: ~1 fused
        // event per op (the last op has no successor to fuse into).
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        let r = e.run_fio(&FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 300));
        let c = r.counters.expect("engine reports carry counters");
        assert!(c.fused_events > 0, "fast path must fire at qd 1");
        let share = c.fused_events as f64 / c.events as f64;
        assert!(share > 0.9, "qd-1 fused share {share} should be ≈1");
    }

    #[test]
    fn fused_fast_path_structurally_idle_at_deep_queues() {
        // The reference workload (qd 32 × 3 jobs) keeps ~96 tokens
        // pending, every one scheduled earlier than the completion in
        // hand — `peek_time() <= complete` always holds, so the fused
        // branch never fires.  This pins the 0.0 fused share seen in
        // BENCH_harness.json as structural, not a regression: the fast
        // path is a qd-1 (latency-probe) optimization by design.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        let r = e.run_fio(&FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 2_000));
        let c = r.counters.expect("engine reports carry counters");
        assert_eq!(c.fused_events, 0, "deep queues keep the heap head ahead of completions");
    }

    // --- open loop -----------------------------------------------------

    /// A uniform open-loop stream: one read every `gap_ns`, 4 kB each.
    fn uniform_stream(n: u64, gap_ns: u64) -> Vec<ArrivalOp> {
        (0..n)
            .map(|i| ArrivalOp {
                at: SimTime::from_nanos(i * gap_ns),
                op: TraceOp::read((i % 1024) * 4096, 4096, true),
            })
            .collect()
    }

    #[test]
    fn open_loop_low_rate_matches_probe_latency_regime() {
        // 2 KIOPS offered against a ~60 µs service path: no queueing, so
        // latency from intended arrival ≈ the qd-1 probe latency.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let run = Engine::new(cfg).run_open_loop(&uniform_stream(500, 500_000), 256);
        assert_eq!(run.point.admitted, 500);
        assert_eq!(run.point.dropped, 0);
        assert!(
            (40.0..90.0).contains(&run.report.mean_latency_us),
            "unloaded open-loop mean {} µs",
            run.report.mean_latency_us
        );
        assert!((run.point.offered_kiops - 2.0).abs() < 0.1, "{}", run.point.offered_kiops);
    }

    #[test]
    fn open_loop_overload_drops_and_inflates_tail() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let low = Engine::new(cfg).run_open_loop(&uniform_stream(500, 500_000), 64);
        // 500 KIOPS offered — far past saturation for every generation.
        let hi = Engine::new(cfg).run_open_loop(&uniform_stream(3_000, 2_000), 64);
        assert!(hi.point.dropped > 0, "overload must shed load: {:?}", hi.point);
        assert_eq!(hi.point.admitted + hi.point.dropped, 3_000);
        assert!(
            hi.point.p99_us >= 5.0 * low.point.p99_us,
            "saturation knee: p99 {} vs unloaded {}",
            hi.point.p99_us,
            low.point.p99_us
        );
        assert!(hi.point.achieved_kiops < hi.point.offered_kiops / 2.0);
    }

    #[test]
    fn open_loop_admission_cap_bounds_inflight() {
        // cap 1: at most one op in flight — everything else arriving
        // while it is outstanding is dropped, and nothing deadlocks.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let run = Engine::new(cfg).run_open_loop(&uniform_stream(1_000, 10_000), 1);
        assert!(run.point.dropped > 0);
        assert_eq!(run.point.admitted + run.point.dropped, 1_000);
        assert_eq!(run.report.ops, run.point.admitted);
    }

    #[test]
    fn open_loop_replays_bit_identically() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding)
            .with_resilience(ResiliencePolicy::default());
        let go = || {
            let mut e = Engine::new(cfg);
            e.set_fault_schedule(
                FaultSchedule::new()
                    .link_degrade(ms(2), deliba_net::LinkFaultProfile { drop_p: 0.3, corrupt_p: 0.1 })
                    .link_restore(ms(5)),
            );
            e.run_open_loop(&uniform_stream(800, 20_000), 128)
        };
        let a = go();
        let b = go();
        assert_eq!(a.report, b.report);
        assert_eq!(a.point, b.point);
        assert!(a.report.resilience.unwrap().retries > 0, "the window must bite");
    }

    #[test]
    fn open_loop_empty_stream_is_a_noop() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let run = Engine::new(cfg).run_open_loop(&[], 16);
        assert_eq!(run.report.ops, 0);
        assert_eq!((run.point.admitted, run.point.dropped), (0, 0));
    }

    // --- fault plane / resilience ------------------------------------

    use deliba_net::LinkFaultProfile;
    use deliba_qdma::DmaFaultProfile;

    /// 50 writes then 50 read-backs, queue depth 1 — the integrity
    /// shape, ≈7 ms of virtual time for DeLiBA-K HW.
    fn integrity_ops() -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for i in 0..50u64 {
            ops.push(TraceOp::write(i * 4096, 4096, false));
        }
        for i in 0..50u64 {
            ops.push(TraceOp::read(i * 4096, 4096, false));
        }
        ops
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    #[test]
    fn idle_plane_changes_no_timing_and_policy_alone_changes_no_timing() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let base = Engine::new(cfg).run_trace(vec![integrity_ops()], 4);

        // Armed-but-empty schedule: identical modeled timing.
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new());
        let armed = e.run_trace(vec![integrity_ops()], 4);
        assert_eq!(armed.mean_latency_us, base.mean_latency_us);
        assert_eq!(armed.p99_latency_us, base.p99_latency_us);
        assert_eq!(armed.throughput_mbps, base.throughput_mbps);
        assert!(armed.resilience.is_some(), "armed plane reports counters");
        assert!(base.resilience.is_none(), "baseline reports none");

        // Policy without faults: nothing fails, nothing changes.
        let with_policy = Engine::new(cfg.with_resilience(ResiliencePolicy::default()))
            .run_trace(vec![integrity_ops()], 4);
        assert_eq!(with_policy.mean_latency_us, base.mean_latency_us);
        let res = with_policy.resilience.expect("policy reports counters");
        assert_eq!((res.retries, res.timeouts, res.failovers), (0, 0, 0));
    }

    #[test]
    fn mid_trace_osd_crash_keeps_data_intact_via_epoch_bumped_replacement() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default());
        let mut e = Engine::new(cfg);
        // Crash one OSD mid-write-phase, flap another during read-back.
        e.set_fault_schedule(
            FaultSchedule::new()
                .osd_crash(ms(1), 5)
                .osd_flap(ms(4), 11, SimDuration::from_millis(2)),
        );
        let epoch_before = e.cluster_mut().map().epoch;
        let r = e.run_trace(vec![integrity_ops()], 1);
        assert_eq!(r.ops, 100);
        assert_eq!(r.verify_failures, 0, "read-back must match committed writes");
        let res = r.resilience.expect("chaos run reports counters");
        assert_eq!(res.osd_crashes, 2);
        assert!(
            e.cluster_mut().map().epoch >= epoch_before + 3,
            "crash + flap must bump the map epoch (placement cache invalidation)"
        );
    }

    #[test]
    fn link_drop_window_times_out_retries_and_recovers() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default());
        let mut e = Engine::new(cfg);
        // Total blackout for 2 ms: every request in the window is lost;
        // the deadline (10 ms) pushes the first retry past the window.
        e.set_fault_schedule(
            FaultSchedule::new()
                .link_degrade(ms(2), LinkFaultProfile { drop_p: 1.0, corrupt_p: 0.0 })
                .link_restore(ms(4)),
        );
        let r = e.run_trace(vec![integrity_ops()], 1);
        assert_eq!(r.verify_failures, 0);
        let res = r.resilience.unwrap();
        assert!(res.dropped_frames > 0, "{res:?}");
        assert!(res.timeouts > 0, "drops are detected by deadline: {res:?}");
        assert!(res.retries > 0, "{res:?}");
        assert!(res.failovers > 0, "ops must recover on retry: {res:?}");
        assert_eq!(res.exhausted, 0, "blackout shorter than the retry budget: {res:?}");
        let healthy = Engine::new(cfg).run_trace(vec![integrity_ops()], 1);
        assert!(
            r.mean_latency_us > healthy.mean_latency_us + 50.0,
            "a deadline wait must show in mean latency: {} vs {}",
            r.mean_latency_us,
            healthy.mean_latency_us
        );
    }

    #[test]
    fn dma_error_window_fails_fast_and_recovers() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default());
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(
            FaultSchedule::new()
                .dma_degrade(
                    ms(2),
                    DmaFaultProfile { h2c_error_p: 1.0, c2h_error_p: 0.0, exhaust_p: 1.0 },
                )
                .dma_restore(ms(3)),
        );
        let r = e.run_trace(vec![integrity_ops()], 1);
        assert_eq!(r.verify_failures, 0);
        let res = r.resilience.unwrap();
        assert!(res.dma_errors > 0, "{res:?}");
        assert!(res.dma_stalls > 0, "{res:?}");
        assert!(res.retries > 0 && res.failovers > 0, "{res:?}");
        assert_eq!(res.exhausted, 0, "{res:?}");
        assert_eq!(
            res.timeouts, 0,
            "DMA errors carry an explicit signal — no deadline wait: {res:?}"
        );
    }

    #[test]
    fn descriptor_stalls_land_in_the_h2c_span() {
        // Every descriptor fetch stalls for the whole run: the stall is
        // latency the breakdown must still account for, so the stage
        // spans keep telescoping onto the end-to-end mean.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_trace_depth(TraceDepth::Stages);
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new().dma_degrade(
            SimTime::ZERO,
            DmaFaultProfile { h2c_error_p: 0.0, c2h_error_p: 0.0, exhaust_p: 1.0 },
        ));
        let r = e.run_trace(vec![integrity_ops()], 1);
        assert_eq!(r.resilience.unwrap().dma_stalls, 100, "one stall per op");
        let b = r.breakdown.as_ref().expect("traced run carries a breakdown");
        assert_eq!(b.ops, 100);
        assert!(
            (b.stage_sum_us - r.mean_latency_us).abs() < 1e-6,
            "stage sum {:.3} µs vs e2e mean {:.3} µs",
            b.stage_sum_us,
            r.mean_latency_us
        );
    }

    #[test]
    fn corrupt_acks_retry_without_data_loss() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default());
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(
            FaultSchedule::new()
                .link_degrade(ms(1), LinkFaultProfile { drop_p: 0.0, corrupt_p: 0.5 })
                .link_restore(ms(5)),
        );
        let r = e.run_trace(vec![integrity_ops()], 1);
        assert_eq!(r.verify_failures, 0, "corrupt frames are discarded, never consumed");
        let res = r.resilience.unwrap();
        assert!(res.corrupt_frames > 0, "{res:?}");
        assert!(res.failovers > 0, "{res:?}");
    }

    #[test]
    fn card_outage_degrades_to_software_path_and_recovers() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default());
        let healthy = Engine::new(cfg).run_trace(vec![integrity_ops()], 1);

        let mut e = Engine::new(cfg);
        e.set_fault_schedule(
            FaultSchedule::new().card_outage(ms(2), SimDuration::from_millis(3)),
        );
        let r = e.run_trace(vec![integrity_ops()], 1);
        assert_eq!(r.ops, 100);
        assert_eq!(r.verify_failures, 0);
        let res = r.resilience.unwrap();
        assert_eq!(res.fpga_failovers, 1, "{res:?}");
        assert!(res.degraded_path_ops > 0, "ops must flow during the outage: {res:?}");
        assert!(res.recovery_time_us >= 3_000.0, "{res:?}");
        assert!(
            r.mean_latency_us > healthy.mean_latency_us,
            "software path is slower: {} vs {}",
            r.mean_latency_us,
            healthy.mean_latency_us
        );
        assert!(
            e.card_mut().expect("HW config").is_healthy(),
            "card recovered by end of run"
        );
    }

    /// Every failed attempt emits one instant naming its cause's layer,
    /// kind and detail (DESIGN.md §8.2), and the instant counts agree
    /// with the injectors' own tallies.
    #[test]
    fn each_fail_cause_emits_its_layer_kind_and_detail() {
        use deliba_sim::trace::TraceEventKind;
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default())
            .with_trace_depth(TraceDepth::Full);
        let mut e = Engine::new(cfg);
        // Link and DMA faults first; then every OSD dies, so the ops
        // still in flight fail as cluster-unavailable until exhausted.
        let schedule = FaultSchedule::new()
            .link_degrade(ms(1), LinkFaultProfile { drop_p: 0.02, corrupt_p: 0.1 })
            .dma_degrade(
                ms(1),
                DmaFaultProfile { h2c_error_p: 0.1, c2h_error_p: 0.2, exhaust_p: 0.0 },
            );
        let schedule = (0..32).fold(schedule, |s, osd| s.osd_crash(ms(30), osd));
        e.set_fault_schedule(schedule);
        let ops = (0..100u64)
            .flat_map(|i| [TraceOp::write(i * 4096, 4096, false), TraceOp::read(i * 4096, 4096, false)])
            .collect();
        let r = e.run_trace(vec![ops], 1);
        let res = r.resilience.unwrap();
        let instants = |kind: InstantKind| -> Vec<(TraceLayer, u64)> {
            e.observer()
                .ring(|ring| {
                    ring.events()
                        .filter_map(|ev| match ev.kind {
                            TraceEventKind::Instant { kind: k, detail } if k == kind => {
                                Some((ev.layer, detail))
                            }
                            _ => None,
                        })
                        .collect()
                })
                .expect("full depth keeps the ring")
        };
        let drops = instants(InstantKind::FrameDrop);
        let corrupts = instants(InstantKind::FrameCorrupt);
        let dma = instants(InstantKind::DmaError);
        let unavailable = instants(InstantKind::ClusterUnavailable);
        assert!(drops.iter().all(|&i| i == (TraceLayer::Net, 4096)), "{drops:?}");
        assert!(corrupts.iter().all(|&i| i == (TraceLayer::Net, 4096)), "{corrupts:?}");
        assert!(dma.iter().all(|&(layer, _)| layer == TraceLayer::Qdma), "{dma:?}");
        assert!(unavailable.iter().all(|&i| i == (TraceLayer::Cluster, 0)), "{unavailable:?}");
        let plane = e.faults.as_ref().expect("armed plane");
        let h2c = dma.iter().filter(|&&(_, d)| d == 0).count() as u64;
        let c2h = dma.iter().filter(|&&(_, d)| d == 1).count() as u64;
        assert_eq!(h2c, plane.dma.h2c_errors(), "H2C errors carry detail 0");
        assert_eq!(c2h, plane.dma.c2h_errors(), "C2H errors carry detail 1");
        assert_eq!(drops.len() as u64, res.dropped_frames, "{res:?}");
        assert_eq!(corrupts.len() as u64, res.corrupt_frames, "{res:?}");
        assert_eq!(dma.len() as u64, res.dma_errors, "{res:?}");
        for (cause, n) in [
            ("drop", drops.len()),
            ("corrupt", corrupts.len()),
            ("h2c", h2c as usize),
            ("c2h", c2h as usize),
            ("unavailable", unavailable.len()),
        ] {
            assert!(n > 0, "the schedule must drive {cause}: {res:?}");
        }
        // Each failed attempt either retries or exhausts the op.
        let failed = drops.len() + corrupts.len() + dma.len() + unavailable.len();
        assert_eq!(failed as u64, res.retries + res.exhausted, "{res:?}");
        assert_eq!(r.verify_failures, 0);
    }

    #[test]
    fn exhausted_retry_budget_counts_against_availability() {
        // Permanent blackout, minimal retry budget: every op burns its
        // retries and is abandoned — availability reflects it.
        let policy = ResiliencePolicy { max_retries: 1, ..Default::default() };
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(policy);
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new().link_degrade(
            SimTime::ZERO,
            LinkFaultProfile { drop_p: 1.0, corrupt_p: 0.0 },
        ));
        let mut ops = Vec::new();
        for i in 0..20u64 {
            ops.push(TraceOp::write(i * 4096, 4096, false));
        }
        let r = e.run_trace(vec![ops], 1);
        let res = r.resilience.unwrap();
        assert_eq!(res.exhausted, 20, "{res:?}");
        assert_eq!(res.retries, 20, "{res:?}");
        assert_eq!(r.degraded_ops, 20);
        assert_eq!(res.availability(r.ops), 0.0);
        assert_eq!(r.verify_failures, 0, "failed writes never poison the checksum map");
    }

    // --- background recovery / scrub ----------------------------------

    /// Write-once then read-back over distinct 4 MiB RBD objects, so
    /// corruption injected after a write can never be masked by an
    /// overwrite.
    fn object_ops(objects: u64) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for i in 0..objects {
            ops.push(TraceOp::write(i * (4 << 20), 4096, false));
        }
        for i in 0..objects {
            ops.push(TraceOp::read(i * (4 << 20), 4096, false));
        }
        ops
    }

    #[test]
    fn recovery_heals_mid_run_crash_and_reports_counters() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default())
            .with_recovery(RecoveryPolicy::default());
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new().osd_crash(ms(1), 3));
        let r = e.run_trace(vec![object_ops(32)], 4);
        assert_eq!(r.verify_failures, 0);
        let rec = r.recovery.expect("armed run reports recovery counters");
        assert!(rec.objects_recovered > 0, "backfill re-replicated: {rec:?}");
        assert!(rec.recovery_ops > 0 && rec.background_bytes > 0, "{rec:?}");
        assert_eq!(rec.unrecoverable, 0, "two copies survive every crash: {rec:?}");
        assert!(
            rec.time_to_clean_us > 0.0,
            "the degraded episode must close before the run ends: {rec:?}"
        );
        // Unarmed baseline carries no recovery block at all.
        let base = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication))
            .run_trace(vec![object_ops(8)], 4);
        assert!(base.recovery.is_none());
    }

    #[test]
    fn scrub_finds_and_repairs_all_injected_bitrot() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_recovery(
                RecoveryPolicy::default().with_scrub(SimDuration::from_micros(200), 32),
            );
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new().bit_rot(ms(1), 6));
        let r = e.run_trace(vec![object_ops(40)], 2);
        assert_eq!(r.verify_failures, 0, "corrupt copies are never consumed by reads");
        let rec = r.recovery.expect("armed run reports recovery counters");
        assert_eq!(rec.bitrot_injected, 6, "{rec:?}");
        assert_eq!(rec.bitrot_detected, rec.bitrot_injected, "every flip found: {rec:?}");
        assert_eq!(rec.bitrot_repaired, rec.bitrot_injected, "every flip fixed: {rec:?}");
        assert!(rec.scrub_objects >= 40, "at least one full pass: {rec:?}");
        assert_eq!(e.cluster_mut().corrupted_copies(), 0, "registry empty after repair");
    }

    #[test]
    fn recovery_runs_replay_bit_identically() {
        let run = || {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
                .with_resilience(ResiliencePolicy::default())
                .with_recovery(
                    RecoveryPolicy::default().with_scrub(SimDuration::from_micros(300), 16),
                );
            let mut e = Engine::new(cfg);
            e.set_fault_schedule(FaultSchedule::new().osd_crash(ms(1), 7).bit_rot(ms(1), 3));
            e.run_trace(vec![object_ops(24)], 2)
        };
        let a = run();
        assert_eq!(a, run(), "same seed + schedule replays bit-identically");
        let rec = a.recovery.unwrap();
        assert!(
            rec.objects_recovered + rec.bitrot_detected > 0,
            "the schedule must actually bite: {rec:?}"
        );
    }

    #[test]
    fn open_loop_recovery_heals_under_load() {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default())
            .with_recovery(RecoveryPolicy::default());
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new().osd_crash(ms(2), 9));
        let stream: Vec<ArrivalOp> = (0..300u64)
            .map(|i| {
                let off = (i % 64) * (4 << 20);
                let op = if i < 150 {
                    TraceOp::write(off, 4096, true)
                } else {
                    TraceOp::read(off, 4096, true)
                };
                ArrivalOp { at: SimTime::from_nanos(i * 20_000), op }
            })
            .collect();
        let run = e.run_open_loop(&stream, 128);
        assert_eq!(run.report.verify_failures, 0);
        let rec = run.report.recovery.expect("armed open-loop run reports counters");
        assert!(rec.objects_recovered > 0, "{rec:?}");
        assert!(rec.time_to_clean_us > 0.0, "{rec:?}");
        assert_eq!(rec.unrecoverable, 0, "{rec:?}");
    }

    #[test]
    fn chaos_runs_replay_bit_identically() {
        let chaos_report = || {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding)
                .with_resilience(ResiliencePolicy::default());
            let mut e = Engine::new(cfg);
            e.set_fault_schedule(
                FaultSchedule::new()
                    .osd_flap(ms(1), 3, SimDuration::from_millis(2))
                    .link_degrade(ms(2), LinkFaultProfile { drop_p: 0.1, corrupt_p: 0.05 })
                    .link_restore(ms(6))
                    .dma_degrade(
                        ms(3),
                        DmaFaultProfile { h2c_error_p: 0.05, c2h_error_p: 0.05, exhaust_p: 0.1 },
                    )
                    .dma_restore(ms(7))
                    .card_outage(ms(8), SimDuration::from_millis(2))
                    .dfx_swap(ms(4), RmId::Tree),
            );
            e.run_trace(vec![integrity_ops()], 2)
        };
        let a = chaos_report();
        let b = chaos_report();
        assert_eq!(a, b, "same seed + same schedule must replay bit-identically");
        assert!(a.resilience.unwrap().retries > 0, "the schedule must actually bite");
    }
}
