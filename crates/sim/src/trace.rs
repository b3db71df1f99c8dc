//! Per-I/O flight recorder.
//!
//! Aggregate telemetry (stage histograms, perf counters) says *what* a
//! run did; it cannot say what one I/O, one queue slot, or one fault
//! window did.  The flight recorder fills that gap: an opt-in, bounded
//! ring buffer of typed [`TraceEvent`]s — span begin/end per [`Stage`]
//! keyed by I/O id and queue-slot lane, instant events for
//! faults/retries/failovers/DFX swaps/cache invalidations, and counter
//! samples for queue depth and in-flight ops — recorded on virtual
//! time, so the same seed replays a byte-identical trace.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.**  Layers emit through the
//!    [`Observer`](crate::Observer), which is `None` when nothing is
//!    observed: one branch per emit site.
//! 2. **Bounded.**  The sink is a drop-oldest ring of at most
//!    `RING_CAPACITY` events; a `dropped` counter keeps the loss
//!    visible instead of silent.
//! 3. **Deterministic.**  Events carry virtual [`SimTime`] only; the
//!    exporters below are pure functions of the event sequence.
//!
//! Two exporters read the ring: [`TraceSink::chrome_json`] produces a
//! `chrome://tracing`/Perfetto-loadable trace-event JSON (pid = layer,
//! tid = queue-slot lane), and [`TraceSink::span_chains`] reconstructs
//! per-I/O span chains for worst-K tail attribution.

use crate::stage::Stage;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Default ring bound: events beyond this drop the oldest entry.
/// (~48 B/event, so a full ring is ~50 MB — only ever allocated when
/// recording is on.)
pub(crate) const RING_CAPACITY: usize = 1 << 20;

/// How much a run observes, in increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceDepth {
    /// Nothing: no plane is allocated, emits cost one branch.
    #[default]
    Off,
    /// Per-stage latency histograms only (the report's breakdown), no
    /// event ring.
    Stages,
    /// Stage histograms plus the ring: per-I/O stage spans and
    /// fault/retry instants.
    Spans,
    /// Everything: spans, instants, per-layer events (link sends, DMA
    /// transfers, OSD service, descriptor posts) and counter samples.
    Full,
}

impl TraceDepth {
    /// Is anything observed?
    pub(crate) fn is_on(self) -> bool {
        self != TraceDepth::Off
    }

    /// Does this depth keep the event ring?
    pub fn has_ring(self) -> bool {
        self >= TraceDepth::Spans
    }

    /// Parse a `--trace-depth` value.
    pub fn parse(s: &str) -> Option<TraceDepth> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "none" => Some(TraceDepth::Off),
            "stages" => Some(TraceDepth::Stages),
            "1" | "spans" => Some(TraceDepth::Spans),
            "2" | "full" | "on" => Some(TraceDepth::Full),
            _ => None,
        }
    }

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            TraceDepth::Off => "off",
            TraceDepth::Stages => "stages",
            TraceDepth::Spans => "spans",
            TraceDepth::Full => "full",
        }
    }
}

/// The datapath layer an event belongs to — the Chrome-trace process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLayer {
    /// Closed-loop engine (stage spans, retry loop, counters).
    Engine,
    /// Host path (submission API, blk-mq, UIFD driver).  Its stages are
    /// calibrated constants, so no event is recorded here; the layer
    /// stays in `TraceLayer::ALL` to keep every pid after it stable.
    BlkMq,
    /// QDMA: the PCIe pipes and DMA fault events.
    Qdma,
    /// On-card accelerators and the DFX partition.
    Accel,
    /// Ethernet links and the FPGA TCP stack.
    Net,
    /// Cluster OSD service.
    Cluster,
    /// The fault plane's scheduled events.
    Fault,
}

impl TraceLayer {
    /// Every layer, in pid order.
    pub(crate) const ALL: [TraceLayer; 7] = [
        TraceLayer::Engine,
        TraceLayer::BlkMq,
        TraceLayer::Qdma,
        TraceLayer::Accel,
        TraceLayer::Net,
        TraceLayer::Cluster,
        TraceLayer::Fault,
    ];

    /// Chrome-trace process id (1-based, stable).
    pub(crate) fn pid(self) -> u32 {
        Self::ALL.iter().position(|&l| l == self).expect("layer in ALL") as u32 + 1
    }

    /// Stable snake_case label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TraceLayer::Engine => "engine",
            TraceLayer::BlkMq => "blk_mq",
            TraceLayer::Qdma => "qdma",
            TraceLayer::Accel => "accel",
            TraceLayer::Net => "net",
            TraceLayer::Cluster => "cluster",
            TraceLayer::Fault => "fault",
        }
    }
}

/// A point event on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// Fault plane: an OSD died (detail = OSD id).
    OsdCrash,
    /// Fault plane: a downed OSD returned (detail = OSD id).
    OsdRevive,
    /// Fault plane: link switched to a degraded drop/corrupt profile.
    LinkDegrade,
    /// Fault plane: link restored to healthy.
    LinkRestore,
    /// Fault plane: DMA engine switched to a degraded error profile.
    DmaDegrade,
    /// Fault plane: DMA engine restored to healthy.
    DmaRestore,
    /// Fault plane: the accelerator card faulted.
    CardFault,
    /// Fault plane: the card completed its reset.
    CardRecover,
    /// A DFX partial-reconfiguration swap started (detail = RM index).
    DfxSwap,
    /// A map-epoch bump invalidated the placement cache (detail = new
    /// epoch).
    CacheInvalidation,
    /// Engine: an attempt failed and was re-enqueued (detail = next
    /// attempt number).
    Retry,
    /// Engine: a deadline expired (silent loss detected, or a completed
    /// op overran its budget; detail = latency ns).
    Timeout,
    /// Engine: an op that failed at least once completed on a retry.
    Failover,
    /// Engine: an op exhausted its retry budget and was abandoned.
    RetryExhausted,
    /// Net: a request frame was dropped in flight.
    FrameDrop,
    /// Net: a response frame arrived corrupted and was discarded.
    FrameCorrupt,
    /// Qdma: a DMA transfer completed in error (detail: 0 = H2C,
    /// 1 = C2H).
    DmaError,
    /// Qdma: descriptor exhaustion stalled the fetch engine (detail =
    /// stall ns).
    DmaStall,
    /// Cluster: the map epoch could not serve the op.
    ClusterUnavailable,
    /// Cluster: an OSD serviced an op (detail = payload bytes).
    OsdService,
    /// Net: a frame train departed a link (detail = payload bytes).
    LinkTx,
    /// Qdma: a DMA payload crossed PCIe host→card (detail = bytes).
    DmaH2c,
    /// Qdma: a DMA payload crossed PCIe card→host (detail = bytes).
    DmaC2h,
    /// Accel: a placement ran on the card (detail = 1 when the DFX RM
    /// served it, 0 for the static Straw2 fallback).
    AccelPlace,
    /// Fault plane: silent corruption struck stored copies (detail =
    /// copies flipped).
    BitRot,
    /// Cluster: a recovery wave dispatched backfill work (detail =
    /// items in the wave).
    Backfill,
    /// Cluster: deep scrub rewrote corrupted copies (detail = copies
    /// repaired this tick).
    ScrubRepair,
}

impl InstantKind {
    /// Stable snake_case label (the Chrome-trace event name).
    pub(crate) fn label(self) -> &'static str {
        match self {
            InstantKind::OsdCrash => "osd_crash",
            InstantKind::OsdRevive => "osd_revive",
            InstantKind::LinkDegrade => "link_degrade",
            InstantKind::LinkRestore => "link_restore",
            InstantKind::DmaDegrade => "dma_degrade",
            InstantKind::DmaRestore => "dma_restore",
            InstantKind::CardFault => "card_fault",
            InstantKind::CardRecover => "card_recover",
            InstantKind::DfxSwap => "dfx_swap",
            InstantKind::CacheInvalidation => "cache_invalidation",
            InstantKind::Retry => "retry",
            InstantKind::Timeout => "timeout",
            InstantKind::Failover => "failover",
            InstantKind::RetryExhausted => "retry_exhausted",
            InstantKind::FrameDrop => "frame_drop",
            InstantKind::FrameCorrupt => "frame_corrupt",
            InstantKind::DmaError => "dma_error",
            InstantKind::DmaStall => "dma_stall",
            InstantKind::ClusterUnavailable => "cluster_unavailable",
            InstantKind::OsdService => "osd_service",
            InstantKind::LinkTx => "link_tx",
            InstantKind::DmaH2c => "dma_h2c",
            InstantKind::DmaC2h => "dma_c2h",
            InstantKind::AccelPlace => "accel_place",
            InstantKind::BitRot => "bit_rot",
            InstantKind::Backfill => "backfill",
            InstantKind::ScrubRepair => "scrub_repair",
        }
    }

    /// Is this one of the fault plane's scheduled events (rendered with
    /// the `fault` category so the timeline filter can isolate them)?
    pub(crate) fn is_fault(self) -> bool {
        matches!(
            self,
            InstantKind::OsdCrash
                | InstantKind::OsdRevive
                | InstantKind::LinkDegrade
                | InstantKind::LinkRestore
                | InstantKind::DmaDegrade
                | InstantKind::DmaRestore
                | InstantKind::CardFault
                | InstantKind::CardRecover
                | InstantKind::DfxSwap
                | InstantKind::CacheInvalidation
                | InstantKind::BitRot
        )
    }
}

/// What one trace event records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A stage span opens on this I/O's lane.
    SpanBegin(Stage),
    /// The matching span closes.
    SpanEnd(Stage),
    /// A point event (fault, retry, per-layer activity).
    Instant {
        /// What happened.
        kind: InstantKind,
        /// Kind-specific payload (OSD id, bytes, attempt…).
        detail: u64,
    },
    /// A sampled gauge (Chrome counter track).
    Counter {
        /// Counter track name.
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual instant.
    pub at: SimTime,
    /// The I/O this event belongs to (engine-issued sequence number).
    pub io: u64,
    /// Originating layer (Chrome pid).
    pub layer: TraceLayer,
    /// Track within the layer (Chrome tid): the queue-depth slot for
    /// engine spans, the OSD/queue/ring id for layer events.
    pub lane: u32,
    /// Payload.
    pub kind: TraceEventKind,
}

/// Recorder statistics (printed beside each `harness trace` cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Recording depth.
    pub depth: TraceDepth,
    /// Events currently held in the ring.
    pub held: u64,
    /// Events evicted by the ring bound.
    pub dropped: u64,
}

/// One stage span of one I/O, reconstructed from the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoSpan {
    /// The stage.
    pub stage: Stage,
    /// Span open, ns.
    pub begin_ns: u64,
    /// Span close, ns.
    pub end_ns: u64,
}

/// The full reconstructed span chain of one I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct IoChain {
    /// Engine-issued I/O sequence number.
    pub io: u64,
    /// Queue-depth slot the I/O ran on.
    pub lane: u32,
    /// Spans in critical-path order.
    pub spans: Vec<IoSpan>,
}

impl IoChain {
    /// First span open (the op's dispatch), ns.
    pub fn begin_ns(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.begin_ns)
    }

    /// Last span close (the op's completion), ns.
    pub(crate) fn end_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
    }

    /// End-to-end duration, ns.
    pub fn total_ns(&self) -> u64 {
        self.end_ns() - self.begin_ns()
    }

    /// Total time attributed to `stage`, ns.
    pub fn span_ns(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.end_ns - s.begin_ns)
            .sum()
    }
}

/// The bounded event ring.
#[derive(Debug)]
pub struct TraceSink {
    depth: TraceDepth,
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceSink {
    /// A sink recording at `depth`, holding at most `cap` events.
    pub(crate) fn new(depth: TraceDepth, cap: usize) -> Self {
        let cap = cap.max(1);
        TraceSink {
            depth,
            cap,
            events: VecDeque::with_capacity(cap.min(RING_CAPACITY)),
            dropped: 0,
        }
    }

    /// Append one event, evicting the oldest when the ring is full.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Snapshot of the recorder stats.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            depth: self.depth,
            held: self.events.len() as u64,
            dropped: self.dropped,
        }
    }

    /// Reconstruct per-I/O span chains from the ring, keyed ascending
    /// by I/O id.  A `SpanEnd` whose opening `SpanBegin` was evicted is
    /// dropped; partial chains (tail evicted) keep what survived.
    pub fn span_chains(&self) -> Vec<IoChain> {
        let mut chains: BTreeMap<u64, IoChain> = BTreeMap::new();
        for ev in &self.events {
            match ev.kind {
                TraceEventKind::SpanBegin(stage) => {
                    let chain = chains.entry(ev.io).or_insert_with(|| IoChain {
                        io: ev.io,
                        lane: ev.lane,
                        spans: Vec::new(),
                    });
                    chain.spans.push(IoSpan {
                        stage,
                        begin_ns: ev.at.as_nanos(),
                        end_ns: ev.at.as_nanos(),
                    });
                }
                TraceEventKind::SpanEnd(stage) => {
                    if let Some(chain) = chains.get_mut(&ev.io) {
                        if let Some(span) =
                            chain.spans.iter_mut().rev().find(|s| s.stage == stage)
                        {
                            span.end_ns = ev.at.as_nanos();
                        }
                    }
                }
                _ => {}
            }
        }
        chains.into_values().collect()
    }

    /// The `k` slowest I/Os (end-to-end), slowest first; ties break
    /// toward the earlier I/O id so the report is deterministic.
    pub fn worst_k(&self, k: usize) -> Vec<IoChain> {
        let mut chains = self.span_chains();
        chains.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.io.cmp(&b.io)));
        chains.truncate(k);
        chains
    }

    /// Export the ring as Chrome trace-event JSON (the object form, so
    /// `chrome://tracing` and Perfetto both load it).  Timestamps are
    /// microseconds with nanosecond fractions; pid maps the layer, tid
    /// the lane.  A pure function of the event sequence — byte-identical
    /// across same-seed runs.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        for layer in TraceLayer::ALL {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                layer.pid(),
                layer.label()
            ));
        }
        for ev in &self.events {
            sep(&mut out);
            let ns = ev.at.as_nanos();
            let ts = format!("{}.{:03}", ns / 1_000, ns % 1_000);
            let pid = ev.layer.pid();
            match ev.kind {
                TraceEventKind::SpanBegin(stage) => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{ts},\
                     \"pid\":{pid},\"tid\":{},\"args\":{{\"io\":{}}}}}",
                    stage.label(),
                    ev.layer.label(),
                    ev.lane,
                    ev.io
                )),
                TraceEventKind::SpanEnd(stage) => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{ts},\
                     \"pid\":{pid},\"tid\":{}}}",
                    stage.label(),
                    ev.layer.label(),
                    ev.lane
                )),
                TraceEventKind::Instant { kind, detail } => out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":{},\
                     \"args\":{{\"io\":{},\"detail\":{detail}}}}}",
                    kind.label(),
                    if kind.is_fault() { "fault" } else { ev.layer.label() },
                    ev.lane,
                    ev.io
                )),
                TraceEventKind::Counter { name, value } => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"{name}\":{value}}}}}",
                )),
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::GaugeSnapshot;
    use crate::time::SimDuration;
    use crate::Observer;

    fn span_pair(sink: &mut TraceSink, io: u64, lane: u32, stage: Stage, b: u64, e: u64) {
        sink.push(TraceEvent {
            at: SimTime::from_nanos(b),
            io,
            layer: TraceLayer::Engine,
            lane,
            kind: TraceEventKind::SpanBegin(stage),
        });
        sink.push(TraceEvent {
            at: SimTime::from_nanos(e),
            io,
            layer: TraceLayer::Engine,
            lane,
            kind: TraceEventKind::SpanEnd(stage),
        });
    }

    #[test]
    fn depth_parse_and_labels() {
        assert_eq!(TraceDepth::parse("off"), Some(TraceDepth::Off));
        assert_eq!(TraceDepth::parse("stages"), Some(TraceDepth::Stages));
        assert_eq!(TraceDepth::parse("SPANS"), Some(TraceDepth::Spans));
        assert_eq!(TraceDepth::parse("full"), Some(TraceDepth::Full));
        assert_eq!(TraceDepth::parse("2"), Some(TraceDepth::Full));
        assert_eq!(TraceDepth::parse("bogus"), None);
        assert!(!TraceDepth::Off.is_on() && TraceDepth::Stages.is_on());
        assert!(!TraceDepth::Stages.has_ring() && TraceDepth::Spans.has_ring());
        assert_eq!(TraceDepth::Stages.label(), "stages");
        assert_eq!(TraceDepth::Full.label(), "full");
    }

    #[test]
    fn layer_pids_are_stable_and_unique() {
        let pids: Vec<u32> = TraceLayer::ALL.iter().map(|l| l.pid()).collect();
        assert_eq!(pids, (1..=7).collect::<Vec<_>>());
        assert_eq!(TraceLayer::Engine.pid(), 1);
        assert_eq!(TraceLayer::Fault.pid(), 7);
    }

    #[test]
    fn off_handle_is_inert() {
        let o = Observer::new(TraceDepth::Off, None);
        assert!(!o.is_on() && !o.full());
        o.begin_run();
        o.set_ctx(1, 2);
        o.op_spans(SimTime::ZERO, &[(Stage::Submit, SimDuration::from_nanos(5))]);
        o.instant(SimTime::ZERO, TraceLayer::Fault, InstantKind::OsdCrash, 3);
        o.counter(SimTime::ZERO, "inflight_ops", 4);
        o.fault(SimTime::from_nanos(1_000), 0, InstantKind::OsdCrash, 0);
        o.op(SimTime::from_nanos(1_000), SimDuration::from_micros(1), 1);
        o.drop_op(SimTime::from_nanos(1_000));
        assert!(!o.needs_sample(SimTime::from_nanos(1_000_000_000)));
        assert!(o.finish(SimTime::from_nanos(1_000), GaugeSnapshot::default()).is_none());
        assert!(o.stages(|_| ()).is_none() && o.ring(|_| ()).is_none());
        assert!(o.telemetry(|_| ()).is_none());
    }

    #[test]
    fn ring_bound_drops_oldest() {
        let mut sink = TraceSink::new(TraceDepth::Spans, 4);
        for i in 0..6u64 {
            sink.push(TraceEvent {
                at: SimTime::from_nanos(i),
                io: i,
                layer: TraceLayer::Engine,
                lane: 0,
                kind: TraceEventKind::Instant { kind: InstantKind::Retry, detail: 0 },
            });
        }
        let held: Vec<u64> = sink.events().map(|e| e.io).collect();
        assert_eq!(held, [2, 3, 4, 5]);
        let stats = sink.stats();
        assert_eq!((stats.held, stats.dropped), (4, 2));
    }

    #[test]
    fn span_chains_reconstruct_and_rank_worst() {
        let mut sink = TraceSink::new(TraceDepth::Spans, 64);
        // io 0: 100 ns total; io 1: 400 ns total on another lane.
        span_pair(&mut sink, 0, 0, Stage::Submit, 0, 40);
        span_pair(&mut sink, 0, 0, Stage::OsdService, 40, 100);
        span_pair(&mut sink, 1, 3, Stage::Submit, 100, 150);
        span_pair(&mut sink, 1, 3, Stage::OsdService, 150, 500);
        let chains = sink.span_chains();
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].io, 0);
        assert_eq!(chains[0].total_ns(), 100);
        assert_eq!(chains[0].span_ns(Stage::OsdService), 60);
        assert_eq!(chains[1].lane, 3);
        let worst = sink.worst_k(1);
        assert_eq!(worst.len(), 1);
        assert_eq!(worst[0].io, 1);
        assert_eq!(worst[0].total_ns(), 400);
    }

    #[test]
    fn handle_op_spans_telescope() {
        let o = Observer::new(TraceDepth::Spans, None);
        o.set_ctx(7, 2);
        let ns = SimDuration::from_nanos;
        let spans = [(Stage::Submit, ns(100)), (Stage::BlkMq, ns(0)), (Stage::OsdService, ns(400))];
        o.op_spans(SimTime::from_nanos(1_000), &spans);
        let chains = o.ring(|r| r.span_chains()).expect("ring on");
        let c = &chains[0];
        assert_eq!((chains.len(), c.io, c.lane, c.begin_ns(), c.end_ns()), (1, 7, 2, 1_000, 1_500));
        // Spans are contiguous: the per-io sum equals end - begin.
        let sum: u64 = c.spans.iter().map(|s| s.end_ns - s.begin_ns).sum();
        assert_eq!((sum, c.span_ns(Stage::BlkMq)), (c.total_ns(), 0));
        assert_eq!(o.stages(|s| s.ops()), Some(1));
        assert!((o.stages(|s| s.stage_sum_us()).unwrap() - 0.5).abs() < 1e-9);
        // A new run starts fresh histograms; the ring keeps its events.
        o.begin_run();
        assert_eq!(o.stages(|s| s.ops()), Some(0));
        assert_eq!(o.ring(|r| r.span_chains().len()), Some(1));
    }

    #[test]
    fn chrome_json_shape_and_determinism() {
        let build = || {
            let mut sink = TraceSink::new(TraceDepth::Full, 1024);
            span_pair(&mut sink, 0, 1, Stage::Submit, 1_234, 5_555);
            let instant = TraceEventKind::Instant { kind: InstantKind::OsdCrash, detail: 5 };
            let counter = TraceEventKind::Counter { name: "inflight_ops", value: 32 };
            for (ns, layer, kind) in
                [(2_000, TraceLayer::Fault, instant), (3_000, TraceLayer::Engine, counter)]
            {
                let at = SimTime::from_nanos(ns);
                sink.push(TraceEvent { at, io: 0, layer, lane: 0, kind });
            }
            sink.chrome_json()
        };
        let json = build();
        assert_eq!(json, build(), "export must be deterministic");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        // Fractional-µs timestamps preserve the ns grid.
        assert!(json.contains("\"ts\":1.234"), "{json}");
        assert!(json.contains("\"ts\":5.555"), "{json}");
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"osd_crash\",\"cat\":\"fault\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"process_name\""));
        // Balanced: one B, one E.
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn instant_labels_are_stable() {
        assert_eq!(InstantKind::OsdCrash.label(), "osd_crash");
        assert_eq!(InstantKind::CacheInvalidation.label(), "cache_invalidation");
        assert_eq!(InstantKind::BitRot.label(), "bit_rot");
        assert_eq!(InstantKind::Backfill.label(), "backfill");
        assert_eq!(InstantKind::ScrubRepair.label(), "scrub_repair");
        assert!(InstantKind::DfxSwap.is_fault());
        assert!(!InstantKind::Retry.is_fault());
        assert!(InstantKind::BitRot.is_fault(), "bit rot is a scheduled fault");
        assert!(!InstantKind::Backfill.is_fault(), "recovery traffic is not a fault");
        assert!(!InstantKind::ScrubRepair.is_fault());
    }
}
