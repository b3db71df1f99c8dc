//! The one observation handle.
//!
//! A run is observed through three planes: per-stage latency
//! histograms ([`StageTracer`], the report's breakdown section), the
//! bounded flight-recorder ring ([`TraceSink`], Chrome trace and
//! worst-K attribution), and the windowed telemetry recorder
//! ([`MetricsRecorder`], series and SLO alerts).  All three live behind
//! one [`Observer`] — a newtype over `Option<Rc<RefCell<…>>>` that is
//! `None` when every plane is off, so each emit site in every layer is
//! a single branch with no allocation, formatting or arithmetic behind
//! it.  The engine builds it once from its config ([`TraceDepth`] plus
//! an optional [`TelemetryConfig`]) and hands clones to the layers
//! below; nothing here reads the environment.
//!
//! Observation draws no randomness and advances no timeline, so a run
//! reports the same modeled numbers whatever is observed.

use crate::stage::{Stage, StageTracer};
use crate::time::{SimDuration, SimTime};
use crate::timeseries::{GaugeSnapshot, MetricsRecorder, SloSummary, TelemetryConfig};
use crate::trace::{
    InstantKind, TraceDepth, TraceEvent, TraceEventKind, TraceLayer, TraceSink, RING_CAPACITY,
};
use std::cell::RefCell;
use std::rc::Rc;

/// The planes an armed [`Observer`] holds.
#[derive(Debug)]
struct Planes {
    depth: TraceDepth,
    /// Per-stage histograms (depth `Stages` and above).
    stages: Option<StageTracer>,
    /// The event ring (depth `Spans` and above).
    ring: Option<TraceSink>,
    /// The windowed telemetry recorder (when a config was given).
    telemetry: Option<MetricsRecorder>,
    /// The I/O id and queue-slot lane the engine is executing; layers
    /// below the engine know neither.
    io: u64,
    lane: u32,
}

impl Planes {
    /// Append to the ring, on `lane` or else the current I/O's lane.
    fn push(&mut self, at: SimTime, layer: TraceLayer, lane: Option<u32>, kind: TraceEventKind) {
        let (io, lane) = (self.io, lane.unwrap_or(self.lane));
        if let Some(ring) = &mut self.ring {
            ring.push(TraceEvent { at, io, layer, lane, kind });
        }
    }
}

/// The shared, cloneable handle every layer observes through.
#[derive(Debug, Clone, Default)]
pub struct Observer(Option<Rc<RefCell<Planes>>>);

impl Observer {
    /// A disabled handle (the default everywhere).
    pub fn off() -> Self {
        Observer(None)
    }

    /// An observer recording at `depth`, plus the telemetry plane when
    /// `telemetry` is given; disabled when both are off.
    pub fn new(depth: TraceDepth, telemetry: Option<TelemetryConfig>) -> Self {
        if !depth.is_on() && telemetry.is_none() {
            return Observer(None);
        }
        Observer(Some(Rc::new(RefCell::new(Planes {
            depth,
            stages: depth.is_on().then(StageTracer::new),
            ring: depth.has_ring().then(|| TraceSink::new(depth, RING_CAPACITY)),
            telemetry: telemetry.map(MetricsRecorder::new),
            io: 0,
            lane: 0,
        }))))
    }

    /// Is any plane on?
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Is the ring capturing per-layer events and counters?
    pub fn full(&self) -> bool {
        self.0.as_ref().is_some_and(|p| p.borrow().depth == TraceDepth::Full)
    }

    /// Start a run: the stage histograms describe one run each.
    pub fn begin_run(&self) {
        let Some(p) = &self.0 else { return };
        if let Some(stages) = &mut p.borrow_mut().stages {
            *stages = StageTracer::new();
        }
    }

    /// Tag subsequent events with the I/O id and queue-slot lane the
    /// engine is currently executing.
    pub fn set_ctx(&self, io: u64, lane: u32) {
        let Some(p) = &self.0 else { return };
        let mut p = p.borrow_mut();
        (p.io, p.lane) = (io, lane);
    }

    /// Record one I/O's full stage walk: `spans` telescope from `start`,
    /// in order.  Each span lands in its stage histogram and, when the
    /// ring is on, as a begin/end pair on the current lane.
    #[inline]
    pub fn op_spans(&self, start: SimTime, spans: &[(Stage, SimDuration)]) {
        let Some(p) = &self.0 else { return };
        let p = &mut *p.borrow_mut();
        if let Some(stages) = &mut p.stages {
            for &(stage, d) in spans {
                stages.record(stage, d);
            }
            stages.record_op();
        }
        let Some(ring) = &mut p.ring else { return };
        let (io, lane, layer, mut at) = (p.io, p.lane, TraceLayer::Engine, start);
        for &(stage, d) in spans {
            ring.push(TraceEvent { at, io, layer, lane, kind: TraceEventKind::SpanBegin(stage) });
            at += d;
            ring.push(TraceEvent { at, io, layer, lane, kind: TraceEventKind::SpanEnd(stage) });
        }
    }

    fn push(&self, at: SimTime, layer: TraceLayer, lane: Option<u32>, kind: TraceEventKind) {
        let Some(p) = &self.0 else { return };
        p.borrow_mut().push(at, layer, lane, kind);
    }

    /// Emit an instant on the current I/O's lane.
    pub fn instant(&self, at: SimTime, layer: TraceLayer, kind: InstantKind, detail: u64) {
        self.push(at, layer, None, TraceEventKind::Instant { kind, detail });
    }

    /// Emit an instant on an explicit lane (OSD id, queue id, ring id).
    pub fn instant_lane(
        &self,
        at: SimTime,
        layer: TraceLayer,
        lane: u32,
        kind: InstantKind,
        detail: u64,
    ) {
        self.push(at, layer, Some(lane), TraceEventKind::Instant { kind, detail });
    }

    /// Emit a counter sample (Chrome counter track on the engine pid).
    pub fn counter(&self, at: SimTime, name: &'static str, value: u64) {
        self.push(at, TraceLayer::Engine, Some(0), TraceEventKind::Counter { name, value });
    }

    /// A fault-plane firing: a telemetry annotation plus a `fault`
    /// instant on `lane`.
    pub fn fault(&self, at: SimTime, lane: u32, kind: InstantKind, detail: u64) {
        let Some(p) = &self.0 else { return };
        let p = &mut *p.borrow_mut();
        if let Some(t) = &mut p.telemetry {
            t.annotate(at, kind, detail);
        }
        p.push(at, TraceLayer::Fault, Some(lane), TraceEventKind::Instant { kind, detail });
    }

    fn recorder<R>(&self, f: impl FnOnce(&mut MetricsRecorder) -> R) -> Option<R> {
        self.0.as_ref().and_then(|p| p.borrow_mut().telemetry.as_mut().map(f))
    }

    /// Record one completed op on the telemetry plane.
    pub fn op(&self, complete: SimTime, latency: SimDuration, bytes: u64) {
        self.recorder(|t| t.op(complete, latency, bytes));
    }

    /// Record one admission drop on the telemetry plane.
    pub fn drop_op(&self, at: SimTime) {
        self.recorder(|t| t.drop_op(at));
    }

    /// Should the engine build a gauge snapshot at `now`?
    pub fn needs_sample(&self, now: SimTime) -> bool {
        self.recorder(|t| t.needs_sample(now)).unwrap_or(false)
    }

    /// Close telemetry windows up to `now`'s with `snap`'s gauges.
    pub fn sample(&self, now: SimTime, snap: GaugeSnapshot) {
        self.recorder(|t| t.sample(now, snap));
    }

    /// Close every remaining telemetry window at run end; the SLO
    /// verdict, or `None` when the plane is off.
    pub fn finish(&self, end: SimTime, snap: GaugeSnapshot) -> Option<SloSummary> {
        self.recorder(|t| {
            t.finish(end, snap);
            t.slo()
        })
    }

    /// Run `f` against the stage histograms; `None` below `Stages`.
    pub fn stages<R>(&self, f: impl FnOnce(&StageTracer) -> R) -> Option<R> {
        self.0.as_ref().and_then(|p| p.borrow().stages.as_ref().map(f))
    }

    /// Run `f` against the event ring (the Chrome export, span chains
    /// and stats hang off it); `None` below `Spans`.
    pub fn ring<R>(&self, f: impl FnOnce(&TraceSink) -> R) -> Option<R> {
        self.0.as_ref().and_then(|p| p.borrow().ring.as_ref().map(f))
    }

    /// Run `f` against the telemetry recorder; `None` when it is off.
    pub fn telemetry<R>(&self, f: impl FnOnce(&MetricsRecorder) -> R) -> Option<R> {
        self.0.as_ref().and_then(|p| p.borrow().telemetry.as_ref().map(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    #[test]
    fn each_plane_exists_only_at_its_depth() {
        for depth in [TraceDepth::Stages, TraceDepth::Spans, TraceDepth::Full] {
            let o = Observer::new(depth, None);
            assert!(o.stages(|_| ()).is_some() && o.telemetry(|_| ()).is_none(), "{depth:?}");
            assert_eq!(o.ring(|_| ()).is_some(), depth.has_ring(), "{depth:?}");
            assert_eq!(o.full(), depth == TraceDepth::Full, "{depth:?}");
        }
        // Telemetry alone arms the observer without stages or a ring.
        let t = Observer::new(TraceDepth::Off, Some(TelemetryConfig::default()));
        assert!(t.is_on() && t.stages(|_| ()).is_none() && t.ring(|_| ()).is_none());
        t.op(us(1), SimDuration::from_micros(1), 1);
        let slo = t.finish(us(1), GaugeSnapshot::default()).expect("telemetry on");
        assert_eq!((slo.total_ops, t.telemetry(|r| r.total_ops())), (1, Some(1)));
        // A fault lands on both the telemetry and the ring planes.
        let both = Observer::new(TraceDepth::Spans, Some(TelemetryConfig::default()));
        both.fault(us(3), 9, InstantKind::OsdCrash, 9);
        let anns = both.telemetry(|r| r.annotations()).expect("telemetry on");
        assert_eq!((anns.len(), anns[0].kind, anns[0].detail), (1, InstantKind::OsdCrash, 9));
        let json = both.ring(|r| r.chrome_json()).expect("ring on");
        assert!(json.contains("\"osd_crash\",\"cat\":\"fault\""), "{json}");
        assert!(json.contains("\"pid\":7,\"tid\":9"), "{json}");
    }
}
