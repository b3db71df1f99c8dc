//! The layer replay: a workload's inputs driven through the layers'
//! public entry points from outside the program, one span per call.
//!
//! The replay follows the order `Engine::attempt_io` calls the layers
//! in: `host_costs` → `Server::earliest_start` → H2C → `do_rule_cached`
//! and `place_prefetched` → `encode` → `TcpStack` → `Cluster` I/O →
//! C2H → `Server::begin`.  Calls are scheduled on a `LaneQueue` of its own:
//! closed-loop slots, or open-loop arrivals and settles under the
//! admission cap.  The background path runs `recovery_scan`,
//! `backfill_wave` and `scrub_tick` on a `RecoveryScheduler`, and faults
//! come from `FaultPlane::due`.  It models the hardware path (`fpga`
//! on) with OSD, link, DMA and bit-rot faults, which covers every
//! benchmark workload.
//!
//! The replay binds to layer entry points only, never to engine
//! internals, so its virtual results must match the engine's public
//! counters; [`crate::checks::fidelity`] holds it to that.

use crate::spans::{Layer, Spans};
use crate::workloads::{Inputs, Load};
use deliba_cluster::cluster::{RULE_EC_OSD, RULE_REPLICATED_OSD};
use deliba_cluster::{Cluster, ObjectId, RbdImage, RecoveryScheduler};
use deliba_core::hostpath::host_costs;
use deliba_core::{calib, ArrivalOp, EngineConfig, Mode, TraceOp, IMAGE_BYTES};
use deliba_fault::{FailCause, FaultKind, FaultPlane};
use deliba_fpga::accel::HLS_LATENCY_INFLATION;
use deliba_fpga::AlveoU280;
use deliba_net::{FrameConfig, LinkVerdict, TcpStack};
use deliba_qdma::PciePipes;
use deliba_sim::{LaneQueue, Server, SimDuration, SimRng, SimTime, Xoshiro256};
use std::collections::BTreeMap;
use std::time::Instant;

/// What a replay produced: the virtual results the fidelity check
/// compares, plus the host time it took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayOutcome {
    /// Ops completed.
    pub ops: u64,
    /// Writes completed.
    pub writes: u64,
    /// Mean virtual latency, µs (from intended arrival for open loops).
    pub mean_latency_us: f64,
    /// Open-loop arrivals refused at the admission cap.
    pub dropped: u64,
    /// Placement-cache lookups (hits + misses).
    pub placement_lookups: u64,
    /// Σ `Cluster::osd_ops()`.
    pub osd_ops: u64,
    /// Backfill items completed.
    pub objects_recovered: u64,
    /// Objects deep-scrubbed.
    pub scrub_objects: u64,
    /// Corrupt copies repaired by scrub.
    pub bitrot_repaired: u64,
    /// Read-back checksum mismatches.
    pub verify_failures: u64,
    /// Host wall time of the replay loop, s.
    pub wall_s: f64,
}

/// Closed-loop event token.
#[derive(Clone, Copy)]
enum Token {
    Slot {
        job: u32,
        lane: u32,
    },
    Retry {
        job: u32,
        lane: u32,
        op: TraceOp,
        attempt: u32,
        first_start: SimTime,
    },
    Recovery,
    Scrub,
}

/// Open-loop event token.
#[derive(Clone, Copy)]
enum OpenToken {
    Arrive,
    Settle {
        intended: SimTime,
    },
    Retry {
        lane: u32,
        op: TraceOp,
        attempt: u32,
        first_start: SimTime,
        intended: SimTime,
    },
    Recovery,
    Scrub,
}

/// One attempt's result.
enum Attempt {
    Done {
        start: SimTime,
        complete: SimTime,
    },
    Fail {
        start: SimTime,
        at: SimTime,
        cause: FailCause,
    },
}

/// What happens to an op after an attempt.
enum Disposition {
    Done {
        start: SimTime,
        complete: SimTime,
    },
    Retry {
        at: SimTime,
        attempt: u32,
        first_start: SimTime,
    },
}

/// The replayed testbed: the same layer objects `Engine::new` builds.
pub struct Replay {
    cfg: EngineConfig,
    cluster: Cluster,
    card: AlveoU280,
    contexts: Vec<Server>,
    pcie: PciePipes,
    image: RbdImage,
    rng: Xoshiro256,
    written: BTreeMap<(u64, u32), u64>,
    faults: Option<FaultPlane>,
    recovery: Option<RecoveryScheduler>,
    recovery_dirty: bool,
    recovery_live: bool,
    recovery_kicks: u32,
    payload_buf: Vec<u8>,
    read_buf: Vec<u8>,
    place_buf: Vec<i32>,
    verify_failures: u64,
    lat_sum_ns: u128,
    ops: u64,
    writes: u64,
    io_seq: u64,
    /// Span recorder (disabled for the untraced overhead baseline).
    pub spans: Spans,
}

impl Replay {
    /// Build the testbed for `cfg` with tracing on or off.
    ///
    /// # Panics
    /// If `cfg` asks for the software path, which the replay does not
    /// model.
    pub fn new(cfg: EngineConfig, traced: bool) -> Self {
        assert!(cfg.fpga, "the replay models the hardware path only");
        let frames = if cfg.jumbo_frames {
            FrameConfig::jumbo()
        } else {
            FrameConfig::standard()
        };
        let mut cluster = Cluster::paper_testbed_with_frames(cfg.seed, frames);
        let recovery = cfg.recovery.map(RecoveryScheduler::new);
        if recovery.is_some() {
            cluster.set_dynamics(true);
        }
        let pool = match cfg.mode {
            Mode::Replication => 1,
            Mode::ErasureCoding => 2,
        };
        Replay {
            cfg,
            cluster,
            card: AlveoU280::deliba_k_default(),
            contexts: (0..cfg.features.contexts.max(1))
                .map(|_| Server::new())
                .collect(),
            pcie: PciePipes::new(calib::PCIE_GBYTES_PER_SEC),
            image: RbdImage::new(pool, 0xD3B5, IMAGE_BYTES),
            rng: Xoshiro256::seed_from_u64(cfg.seed ^ 0xFEED),
            written: BTreeMap::new(),
            faults: None,
            recovery,
            recovery_dirty: false,
            recovery_live: false,
            recovery_kicks: 0,
            payload_buf: Vec::new(),
            read_buf: Vec::new(),
            place_buf: Vec::new(),
            verify_failures: 0,
            lat_sum_ns: 0,
            ops: 0,
            writes: 0,
            io_seq: 0,
            spans: Spans::new(traced),
        }
    }

    /// Replay one repetition's inputs and report its virtual results.
    pub fn run(&mut self, inputs: Inputs) -> ReplayOutcome {
        if let Some(schedule) = inputs.faults {
            self.faults = Some(FaultPlane::new(schedule, self.cfg.seed));
        }
        let t0 = Instant::now();
        let dropped = match &inputs.load {
            Load::Closed { jobs, iodepth } => {
                self.run_closed(jobs, *iodepth);
                0
            }
            Load::Open {
                stream,
                admission_cap,
            } => self.run_open(stream, *admission_cap),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let cache = self.cluster.map().placement_cache_stats();
        let stats = self.recovery.as_ref().map(|s| s.stats).unwrap_or_default();
        ReplayOutcome {
            ops: self.ops,
            writes: self.writes,
            mean_latency_us: if self.ops == 0 {
                0.0
            } else {
                self.lat_sum_ns as f64 / self.ops as f64 / 1e3
            },
            dropped,
            placement_lookups: cache.hits + cache.misses,
            osd_ops: self.cluster.osd_ops().iter().sum(),
            objects_recovered: stats.objects_recovered,
            scrub_objects: stats.scrub_objects,
            bitrot_repaired: stats.bitrot_repaired,
            verify_failures: self.verify_failures,
            wall_s,
        }
    }

    fn record(&mut self, latency: SimDuration, op: TraceOp) {
        self.lat_sum_ns += latency.as_nanos() as u128;
        self.ops += 1;
        self.writes += op.write as u64;
    }

    /// `Engine::run_trace`'s closed loop.
    fn run_closed(&mut self, jobs: &[Vec<TraceOp>], iodepth: u32) {
        let lanes = (jobs.len() * iodepth as usize).max(1);
        let bg = lanes;
        let shards = lanes + self.recovery.is_some() as usize;
        let mut queue: LaneQueue<Token> = LaneQueue::new(shards, shards);
        let mut cursors = vec![0usize; jobs.len()];
        let mut live_slots = 0usize;
        for (j, ops) in jobs.iter().enumerate() {
            let tokens = (iodepth as usize).min(ops.len());
            live_slots += tokens;
            for k in 0..tokens {
                let lane = (j * iodepth as usize + k) as u32;
                queue.schedule_at(
                    lane as usize,
                    SimTime::from_nanos(100 * lane as u64),
                    Token::Slot {
                        job: j as u32,
                        lane,
                    },
                );
            }
        }
        if let Some(interval) = self.scrub_interval() {
            if live_slots > 0 {
                queue.schedule_at(bg, SimTime::ZERO + interval, Token::Scrub);
            }
        }
        let mut next = self.spans.time(Layer::Queue, || queue.pop());
        while let Some((ready, token)) = next {
            if self.faults.is_some() && self.apply_due_faults(ready) {
                if let Some(at) = self.recovery_kick(ready) {
                    self.spans
                        .time(Layer::Queue, || queue.schedule_at(bg, at, Token::Recovery));
                }
            }
            let (ready, job, lane, op, attempt, first_start) = match token {
                Token::Recovery => {
                    if let Some(at) = self.recovery_step(ready) {
                        self.spans
                            .time(Layer::Queue, || queue.schedule_at(bg, at, Token::Recovery));
                    }
                    next = self.spans.time(Layer::Queue, || queue.pop());
                    continue;
                }
                Token::Scrub => {
                    if let Some(at) = self.scrub_step(ready) {
                        self.spans
                            .time(Layer::Queue, || queue.schedule_at(bg, at, Token::Scrub));
                    }
                    next = self.spans.time(Layer::Queue, || queue.pop());
                    continue;
                }
                Token::Slot { job, lane } => {
                    let idx = cursors[job as usize];
                    if idx >= jobs[job as usize].len() {
                        live_slots -= 1;
                        if live_slots == 0 {
                            self.start_scrub_drain();
                        }
                        next = self.spans.time(Layer::Queue, || queue.pop());
                        continue;
                    }
                    cursors[job as usize] += 1;
                    let op = jobs[job as usize][idx];
                    (
                        ready + SimDuration::from_nanos(op.think_ns),
                        job,
                        lane,
                        op,
                        0,
                        None,
                    )
                }
                Token::Retry {
                    job,
                    lane,
                    op,
                    attempt,
                    first_start,
                } => (ready, job, lane, op, attempt, Some(first_start)),
            };
            let (start, complete) = match self.do_io(ready, job, op, attempt, first_start) {
                Disposition::Done { start, complete } => (start, complete),
                Disposition::Retry {
                    at,
                    attempt,
                    first_start,
                } => {
                    self.spans.time(Layer::Queue, || {
                        queue.schedule_at(
                            lane as usize,
                            at,
                            Token::Retry {
                                job,
                                lane,
                                op,
                                attempt,
                                first_start,
                            },
                        )
                    });
                    next = self.spans.time(Layer::Queue, || queue.pop());
                    continue;
                }
            };
            self.record(complete.saturating_since(start), op);
            // The engine's fused fast path: a completion strictly earlier
            // than everything pending is consumed without a round trip.
            next = self.spans.time(Layer::Queue, || match queue.peek_time() {
                Some(head) if head <= complete => Some(queue.schedule_at_then_pop(
                    lane as usize,
                    complete,
                    Token::Slot { job, lane },
                )),
                _ => Some((complete, Token::Slot { job, lane })),
            });
        }
    }

    /// `Engine::run_open_loop`'s open loop; returns the arrivals dropped.
    fn run_open(&mut self, stream: &[ArrivalOp], admission_cap: u32) -> u64 {
        let arrive_shard = self.contexts.len();
        let bg = arrive_shard + 1;
        let shards = arrive_shard + 1 + self.recovery.is_some() as usize;
        let mut queue: LaneQueue<OpenToken> = LaneQueue::new(shards, admission_cap as usize + 8);
        let mut cursor = 0usize;
        let mut inflight: u32 = 0;
        let (mut admitted, mut dropped) = (0u64, 0u64);
        if !stream.is_empty() {
            queue.schedule_at(arrive_shard, stream[0].at, OpenToken::Arrive);
            if let Some(interval) = self.scrub_interval() {
                queue.schedule_at(bg, stream[0].at + interval, OpenToken::Scrub);
            }
        }
        while let Some((now, token)) = self.spans.time(Layer::Queue, || queue.pop()) {
            if self.faults.is_some() && self.apply_due_faults(now) {
                if let Some(at) = self.recovery_kick(now) {
                    self.spans.time(Layer::Queue, || {
                        queue.schedule_at(bg, at, OpenToken::Recovery)
                    });
                }
            }
            let (lane, op, attempt, first_start, intended) = match token {
                OpenToken::Recovery => {
                    if let Some(at) = self.recovery_step(now) {
                        self.spans.time(Layer::Queue, || {
                            queue.schedule_at(bg, at, OpenToken::Recovery)
                        });
                    }
                    continue;
                }
                OpenToken::Scrub => {
                    if let Some(at) = self.scrub_step(now) {
                        self.spans
                            .time(Layer::Queue, || queue.schedule_at(bg, at, OpenToken::Scrub));
                    }
                    continue;
                }
                OpenToken::Arrive => {
                    let op = stream[cursor].op;
                    cursor += 1;
                    if cursor < stream.len() {
                        let at = stream[cursor].at.max(now);
                        self.spans.time(Layer::Queue, || {
                            queue.schedule_at(arrive_shard, at, OpenToken::Arrive)
                        });
                    }
                    if inflight >= admission_cap {
                        dropped += 1;
                        continue;
                    }
                    inflight += 1;
                    let lane = (admitted % self.contexts.len() as u64) as u32;
                    admitted += 1;
                    (lane, op, 0, None, now)
                }
                OpenToken::Retry {
                    lane,
                    op,
                    attempt,
                    first_start,
                    intended,
                } => (lane, op, attempt, Some(first_start), intended),
                OpenToken::Settle { intended } => {
                    inflight -= 1;
                    if inflight == 0 && cursor >= stream.len() {
                        self.start_scrub_drain();
                    }
                    self.lat_sum_ns += now.saturating_since(intended).as_nanos() as u128;
                    continue;
                }
            };
            let token = match self.do_io(now, lane, op, attempt, first_start) {
                Disposition::Done { complete, .. } => {
                    self.ops += 1;
                    self.writes += op.write as u64;
                    (complete, OpenToken::Settle { intended })
                }
                Disposition::Retry {
                    at,
                    attempt,
                    first_start,
                } => (
                    at,
                    OpenToken::Retry {
                        lane,
                        op,
                        attempt,
                        first_start,
                        intended,
                    },
                ),
            };
            self.spans.time(Layer::Queue, || {
                queue.schedule_at(lane as usize, token.0, token.1)
            });
        }
        dropped
    }

    fn scrub_interval(&self) -> Option<SimDuration> {
        let interval = self.recovery.as_ref()?.policy().scrub_interval;
        (interval > SimDuration::ZERO).then_some(interval)
    }

    fn start_scrub_drain(&mut self) {
        if let Some(s) = self.recovery.as_mut() {
            if s.policy().scrub_interval > SimDuration::ZERO && !s.scrub_draining() {
                s.start_scrub_drain();
            }
        }
    }

    /// `Engine::apply_due_faults` for the faults the replay models.
    fn apply_due_faults(&mut self, now: SimTime) -> bool {
        let mut fired = false;
        while let Some(kind) = self.faults.as_mut().and_then(|p| p.due(now)) {
            fired = true;
            match kind {
                FaultKind::OsdCrash { osd } => {
                    self.cluster.fail_osd(osd);
                    self.recovery_dirty = true;
                }
                FaultKind::OsdRevive { osd } => {
                    self.cluster.revive_osd(osd);
                    self.recovery_dirty = true;
                }
                // Profile windows are time-indexed: each attempt syncs the
                // injectors itself.
                FaultKind::LinkDegrade(_) | FaultKind::DmaDegrade(_) => {}
                FaultKind::BitRot { copies } => {
                    let plane = self.faults.as_mut().expect("a due fault implies a plane");
                    self.cluster.inject_bitrot(copies, plane.bitrot_rng());
                }
                FaultKind::CardFault | FaultKind::CardRecover | FaultKind::DfxSwap { .. } => {
                    panic!("the replay does not model card faults or DFX swaps")
                }
            }
        }
        fired
    }

    /// `Engine::recovery_kick`.
    fn recovery_kick(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.recovery_dirty || self.recovery_live {
            return None;
        }
        self.recovery_dirty = false;
        let sched = self.recovery.as_mut()?;
        let cluster = &mut self.cluster;
        if self
            .spans
            .time(Layer::Recovery, || cluster.recovery_scan(sched, now))
        {
            self.recovery_live = true;
            Some(now + sched.policy().kick_delay)
        } else {
            None
        }
    }

    /// `Engine::recovery_step`.
    fn recovery_step(&mut self, now: SimTime) -> Option<SimTime> {
        self.recovery_live = false;
        let sched = self.recovery.as_mut()?;
        let cluster = &mut self.cluster;
        if let Some(fin) = self
            .spans
            .time(Layer::Recovery, || cluster.backfill_wave(sched, now))
        {
            self.recovery_live = true;
            return Some(fin);
        }
        self.recovery_dirty = false;
        if self
            .spans
            .time(Layer::Recovery, || cluster.recovery_scan(sched, now))
        {
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

    /// `Engine::scrub_step`.
    fn scrub_step(&mut self, now: SimTime) -> Option<SimTime> {
        let sched = self.recovery.as_mut()?;
        let cluster = &mut self.cluster;
        let interval = sched.policy().scrub_interval;
        self.spans.time(Layer::Scrub, || {
            let tick = cluster.scrub_tick(sched, now);
            if sched.scrub_draining() {
                if tick.wrapped && cluster.scrub_pass_reset(sched) == 0 {
                    return None;
                }
                Some(tick.finish)
            } else {
                if tick.wrapped {
                    cluster.scrub_pass_reset(sched);
                }
                Some(tick.finish.max(now + interval))
            }
        })
    }

    /// `Engine::do_io`: one attempt plus the resilience policy.
    fn do_io(
        &mut self,
        ready: SimTime,
        job: u32,
        op: TraceOp,
        attempt: u32,
        first_start: Option<SimTime>,
    ) -> Disposition {
        self.spans.begin_op(self.io_seq);
        self.io_seq += 1;
        let result = self.attempt_io(ready, job, op);
        self.spans.end_op();
        match result {
            Attempt::Done { start, complete } => Disposition::Done {
                start: first_start.unwrap_or(start),
                complete,
            },
            Attempt::Fail { start, at, cause } => {
                let start = first_start.unwrap_or(start);
                let Some(p) = self.cfg.resilience else {
                    return Disposition::Done {
                        start,
                        complete: at + SimDuration::from_millis(30),
                    };
                };
                let detected = if cause.is_silent() {
                    ready + p.deadline
                } else {
                    at
                };
                if attempt >= p.max_retries {
                    return Disposition::Done {
                        start,
                        complete: detected,
                    };
                }
                let unit = self.faults.as_mut().map_or(0.0, |pl| pl.jitter_unit());
                Disposition::Retry {
                    at: detected + p.backoff(attempt, unit),
                    attempt: attempt + 1,
                    first_start: start,
                }
            }
        }
    }

    /// `Engine::attempt_io` on the hardware path.
    fn attempt_io(&mut self, ready: SimTime, job: u32, op: TraceOp) -> Attempt {
        let write = op.write;
        let bytes = op.len as u64;
        let cfg = self.cfg;
        let ctx = job as usize % self.contexts.len();
        let contexts = &mut self.contexts;
        let (costs, start) = self.spans.time(Layer::HostPath, || {
            let costs = host_costs(&cfg.features, true, write, op.random, bytes, cfg.mode);
            (costs, contexts[ctx].earliest_start(ready))
        });
        let mut t = start + costs.submit_latency;

        let payload = write.then(|| self.payload(op.len as usize));
        let dma_bytes = if write { bytes } else { 256 };
        if let Some(stall) = self.faults.as_mut().and_then(|p| {
            if p.sync_dma(t) {
                p.dma.assess_fetch()
            } else {
                None
            }
        }) {
            t += stall;
        }
        let pcie = &mut self.pcie;
        t = self
            .spans
            .time(Layer::Pcie, || pcie.h2c_transfer(t, dma_bytes));
        if self
            .faults
            .as_mut()
            .is_some_and(|p| p.sync_dma(t) && p.dma.assess_h2c())
        {
            self.recycle(payload);
            return Attempt::Fail {
                start,
                at: t,
                cause: FailCause::DmaH2c,
            };
        }

        // Card-side placement through the epoch-keyed cache, then the
        // card's cycle budget for it.
        let (pool_id, rule, width) = match cfg.mode {
            Mode::Replication => (1u32, RULE_REPLICATED_OSD, 3),
            Mode::ErasureCoding => (2u32, RULE_EC_OSD, 6),
        };
        let (obj, obj_off) = self.image.object_of(op.offset);
        let mut devs = std::mem::take(&mut self.place_buf);
        let map = self.cluster.map();
        self.spans.time(Layer::CrushPlace, || {
            let pool = map.pool(pool_id).expect("pool exists");
            let seed = pool.pg_seed(pool.pg_of(ObjectId::new(pool_id, obj.name)));
            map.do_rule_cached(rule, seed, width, &mut devs);
        });
        self.place_buf = devs;
        let card = &mut self.card;
        let (place_t, _) = self.spans.time(Layer::FpgaPlace, || {
            card.place_prefetched(t, cfg.preferred_rm)
        });
        t += if cfg.features.rtl_accel {
            place_t
        } else {
            place_t * HLS_LATENCY_INFLATION
        };

        let mut ec_shards = None;
        if write && cfg.mode == Mode::ErasureCoding {
            let data = payload.as_deref().expect("write has payload");
            let (shards, enc_t) = self.spans.time(Layer::EcEncode, || card.encode(data));
            t += if cfg.features.rtl_accel {
                enc_t
            } else {
                enc_t * HLS_LATENCY_INFLATION
            };
            ec_shards = Some((shards, data.len()));
        }
        t += self.spans.time(Layer::NetTcp, || {
            let stack = TcpStack::new(cfg.features.hw_tcp);
            if stack.is_offloaded() {
                stack.latency(bytes)
            } else {
                SimDuration::ZERO
            }
        });

        if self
            .faults
            .as_mut()
            .is_some_and(|p| p.sync_link(t) && p.link.assess_request() == LinkVerdict::Drop)
        {
            self.recycle(payload);
            return Attempt::Fail {
                start,
                at: t,
                cause: FailCause::LinkDrop,
            };
        }

        // The cluster, with read-back verification against this
        // replay's own record of committed writes.
        let block_key = (obj.name, (op.offset % self.image.object_size) as u32);
        let mut pending_sum = None;
        let cluster = &mut self.cluster;
        let mut buf = std::mem::take(&mut self.read_buf);
        let (outcome, verify_key) = match (cfg.mode, write) {
            (Mode::Replication, true) => {
                let data = payload.as_deref().expect("write has payload");
                pending_sum = Some((block_key, fnv(data)));
                let out = self.spans.time(Layer::ClusterIo, || {
                    cluster.write_replicated_at(t, obj, obj_off as usize, data, op.random)
                });
                (out, None)
            }
            (Mode::Replication, false) => {
                let out = self.spans.time(Layer::ClusterIo, || {
                    cluster.read_replicated_into(
                        t,
                        obj,
                        obj_off as usize,
                        op.len as usize,
                        op.random,
                        &mut buf,
                    )
                });
                (out, Some(block_key))
            }
            (Mode::ErasureCoding, true) => {
                let (shards, orig_len) = ec_shards.expect("EC write encoded");
                let oid = ec_oid(&self.image, obj.name, op.offset);
                pending_sum = Some((
                    (oid.name, 0),
                    fnv(payload.as_deref().expect("write has payload")),
                ));
                let out = self.spans.time(Layer::ClusterIo, || {
                    cluster.write_ec_shards(t, oid, orig_len, shards, op.random)
                });
                (out, None)
            }
            (Mode::ErasureCoding, false) => {
                let oid = ec_oid(&self.image, obj.name, op.offset);
                let out = self.spans.time(Layer::ClusterIo, || {
                    if cluster.ec_object_exists(oid) {
                        cluster.read_ec_into(t, oid, op.random, &mut buf)
                    } else {
                        cluster.read_ec_sparse_into(t, oid, op.len as usize, op.random, &mut buf)
                    }
                });
                (out, Some((oid.name, 0)))
            }
        };
        if let (Some(_), Some(key)) = (&outcome, verify_key) {
            if self.written.get(&key).is_some_and(|&sum| fnv(&buf) != sum) {
                self.verify_failures += 1;
            }
        }
        self.read_buf = buf;
        self.recycle(payload);
        let Some(outcome) = outcome else {
            return Attempt::Fail {
                start,
                at: t,
                cause: FailCause::ClusterUnavailable,
            };
        };
        if let Some((key, sum)) = pending_sum {
            self.written.insert(key, sum);
        }
        let mut complete = outcome.complete;
        if self.faults.as_mut().is_some_and(|p| {
            p.sync_link(complete) && p.link.assess_response() == LinkVerdict::Corrupt
        }) {
            return Attempt::Fail {
                start,
                at: complete,
                cause: FailCause::LinkCorrupt,
            };
        }
        if !write {
            let pcie = &mut self.pcie;
            complete = self
                .spans
                .time(Layer::Pcie, || pcie.c2h_transfer(complete, bytes));
            if self
                .faults
                .as_mut()
                .is_some_and(|p| p.sync_dma(complete) && p.dma.assess_c2h())
            {
                return Attempt::Fail {
                    start,
                    at: complete,
                    cause: FailCause::DmaC2h,
                };
            }
        }
        complete += costs.complete_latency;

        let contexts = &mut self.contexts;
        self.spans.time(Layer::HostPath, || {
            if cfg.features.sync_daemon {
                let rtt = complete.saturating_since(start);
                let hold = if write {
                    rtt
                } else {
                    rtt * calib::NBD_READ_HOLD_FRACTION
                };
                contexts[ctx].begin(start, hold);
            } else {
                contexts[ctx].begin(start, costs.occupancy);
            }
        });
        Attempt::Done { start, complete }
    }

    /// `len` payload bytes from the engine's payload stream, in the
    /// recycled payload buffer.
    fn payload(&mut self, len: usize) -> Vec<u8> {
        let mut v = std::mem::take(&mut self.payload_buf);
        v.clear();
        v.resize(len, 0);
        for chunk in v.chunks_mut(8) {
            let word = self.rng.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        v
    }

    fn recycle(&mut self, payload: Option<Vec<u8>>) {
        if let Some(buf) = payload {
            self.payload_buf = buf;
        }
    }
}

/// The per-I/O EC sub-object the engine writes each block-sized extent
/// to (its documented partial-write model).
fn ec_oid(image: &RbdImage, obj_name: u64, offset: u64) -> ObjectId {
    let mut z = obj_name ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ObjectId::new(image.pool, z ^ (z >> 31))
}

/// FNV-1a over 8-byte words (the engine's payload checksum).
fn fnv(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = data.chunks_exact(8);
    for w in words.by_ref() {
        h ^= u64::from_le_bytes(w.try_into().expect("exact chunk"));
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
