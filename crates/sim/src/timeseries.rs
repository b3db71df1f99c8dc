//! Time-resolved telemetry plane: fixed-width virtual-time windows.
//!
//! Every other observability surface is either an end-of-run aggregate
//! (`StageBreakdown` in the report JSON) or a per-I/O event stream
//! (the flight recorder).  This module adds the third axis — *time* —
//! so a run can be read as a trajectory: per-window ops/drops/IOPS and
//! latency quantiles, inflight/queue-depth gauges, per-OSD busy
//! fraction and queue depth, per-link-class utilization, recovery
//! backlog and scrub progress, placement-cache hit rate, with
//! fault-plane firings pinned to their windows as annotations.
//!
//! Design constraints mirror the flight recorder's:
//!
//! 1. **Zero cost when disabled.**  Every emit goes through the
//!    [`Observer`](crate::Observer), so a disabled plane is one branch
//!    per site, no allocation, no arithmetic.
//! 2. **Zero-alloc hot path when enabled.**  [`MetricsRecorder::op`]
//!    indexes a window by `completion_ns / width_ns` and bumps counters
//!    and histogram buckets in place; allocation happens only when a
//!    *new* window opens (amortized per window, never per op).
//! 3. **Deterministic.**  Ops and drops are keyed by virtual
//!    completion/arrival time, so window contents are pure functions of
//!    the event outcomes and independent of processing order; gauges
//!    are sampled at event-pop instants, which the engine's queue
//!    reproduces byte-identically.  Two same-seed
//!    runs export byte-identical series.
//!
//! On top of the windows sits the SLO layer ([`MetricsRecorder::slo`]):
//! a per-window latency objective (target p99 + attainment objective)
//! and Google-SRE-style multi-window burn-rate alerts — an alert fires
//! when both the short- and long-window mean burn rates exceed the
//! threshold, and clears when the short window falls back under it,
//! each with a deterministic virtual-time stamp at a window boundary.
//!
//! One exporter reads the windows: [`MetricsRecorder::timeline_json`],
//! the machine-checked timeline document, a pure function of recorder
//! state.

use crate::metrics::Histogram;
use crate::time::{SimDuration, SimTime};
use crate::trace::InstantKind;
use std::fmt::Write as _;

/// Link classes the per-window utilization gauge aggregates over (the
/// topology's pipes grouped by role).
pub(crate) const LINK_CLASSES: usize = 4;

/// Telemetry-plane configuration: window width plus the SLO model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Window width on the virtual clock.
    pub window: SimDuration,
    /// SLO latency target: an op completing above this is a bad event.
    pub slo_p99: SimDuration,
    /// Attainment objective (fraction of good events per window); the
    /// error budget is `1 - objective`.
    pub objective: f64,
    /// Burn-rate threshold: alert when both rolling means exceed this.
    pub burn_threshold: f64,
    /// Short rolling-mean span, in windows (alert fire/clear is keyed
    /// off this one).
    pub short_windows: u32,
    /// Long rolling-mean span, in windows (suppresses one-window
    /// blips).
    pub(crate) long_windows: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: SimDuration::from_micros(500),
            slo_p99: SimDuration::from_micros(400),
            objective: 0.99,
            burn_threshold: 2.0,
            short_windows: 3,
            long_windows: 12,
        }
    }
}

impl TelemetryConfig {
    /// Override the window width.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Override the SLO latency target.
    pub fn with_slo_p99(mut self, target: SimDuration) -> Self {
        self.slo_p99 = target;
        self
    }
}

/// Cumulative resource counters the engine hands the recorder at each
/// window-boundary sample.  Cumulative fields are monotone totals
/// since run start (the recorder differences consecutive snapshots);
/// instantaneous fields are the value at the sample instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSnapshot {
    /// Instantaneous in-flight ops (admitted, not yet completed).
    pub inflight: u32,
    /// Instantaneous event-queue depth.
    pub queue_depth: u32,
    /// Cumulative busy time per OSD.
    pub osd_busy: Vec<SimDuration>,
    /// Instantaneous busy service threads per OSD (its queue depth).
    pub osd_qd: Vec<u32>,
    /// Cumulative busy time per link class: client TX, client RX, server, cluster.
    pub link_busy: [SimDuration; LINK_CLASSES],
    /// Pipes aggregated into each link class (utilization divisor).
    pub link_pipes: [u32; LINK_CLASSES],
    /// Instantaneous recovery-queue backlog (pending items).
    pub recovery_backlog: u64,
    /// Cumulative objects deep-scrubbed.
    pub scrub_objects: u64,
    /// Cumulative placement-cache hits.
    pub cache_hits: u64,
    /// Cumulative placement-cache misses.
    pub cache_misses: u64,
    /// Cumulative engine retries.
    pub retries: u64,
}

/// A fault-plane firing pinned to the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    /// Virtual instant the fault applied.
    pub at: SimTime,
    /// What fired.
    pub kind: InstantKind,
    /// Kind-specific payload (OSD id, RM index, copies…).
    pub detail: u64,
}

/// One fixed-width window of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Ops completed in this window (keyed by completion instant).
    pub ops: u64,
    /// Arrivals dropped at admission in this window.
    pub drops: u64,
    /// Payload bytes completed in this window.
    pub(crate) bytes: u64,
    /// Latency histogram of the window's completions.
    pub(crate) hist: Histogram,
    /// In-flight ops when the window closed.
    pub inflight: u32,
    /// Event-queue depth when the window closed.
    pub queue_depth: u32,
    /// Per-OSD busy fraction over the sample span closing this window.
    pub osd_busy: Vec<f64>,
    /// Per-OSD busy service threads when the window closed.
    pub osd_qd: Vec<u32>,
    /// Per-link-class utilization over the sample span.
    pub(crate) link_util: [f64; LINK_CLASSES],
    /// Recovery backlog when the window closed.
    pub recovery_backlog: u64,
    /// Cumulative scrubbed objects when the window closed.
    pub scrub_objects: u64,
    /// Placement-cache hit rate over the sample span.
    pub(crate) cache_hit_rate: f64,
    /// Retries attributed to this window (delta at close).
    pub retries: u64,
    /// Fault-plane firings inside this window.
    pub annotations: Vec<Annotation>,
}

impl Window {
    fn empty() -> Self {
        Window {
            ops: 0,
            drops: 0,
            bytes: 0,
            hist: Histogram::new(),
            inflight: 0,
            queue_depth: 0,
            osd_busy: Vec::new(),
            osd_qd: Vec::new(),
            link_util: [0.0; LINK_CLASSES],
            recovery_backlog: 0,
            scrub_objects: 0,
            cache_hit_rate: 0.0,
            retries: 0,
            annotations: Vec::new(),
        }
    }

    /// Window total events for the SLO (completions + drops).
    pub(crate) fn slo_total(&self) -> u64 {
        self.ops + self.drops
    }

    /// Window bad events for the SLO at `target` (drops + overruns).
    pub fn slo_bad(&self, target: SimDuration) -> u64 {
        self.drops + (self.ops - self.hist.count_le(target))
    }
}

/// One burn-rate alert: fire/clear instants on the virtual clock, both
/// at window boundaries, so same-seed runs reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAlert {
    /// Instant the alert fired (the end of `fired_window`).
    pub fired: SimTime,
    /// Window index whose close fired the alert.
    pub fired_window: u64,
    /// Instant the alert cleared; `None` when still firing at run end.
    pub cleared: Option<SimTime>,
    /// Window index whose close cleared the alert.
    pub cleared_window: Option<u64>,
    /// Highest single-window burn rate while firing.
    pub peak_burn: f64,
}

/// The SLO layer's verdict over the whole series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    /// Windows evaluated.
    pub windows: u64,
    /// Windows whose bad fraction stayed within the error budget.
    pub attained_windows: u64,
    /// Total bad events (drops + latency overruns).
    pub bad_ops: u64,
    /// Total events (completions + drops).
    pub total_ops: u64,
    /// Overall good fraction (`1.0` when the run saw no events).
    pub attainment: f64,
    /// Per-window burn rate (bad fraction over error budget).
    pub burn: Vec<f64>,
    /// Burn-rate alerts, in firing order.
    pub alerts: Vec<SloAlert>,
}

/// The windowed aggregator (the telemetry plane of the [`Observer`](crate::Observer)).
#[derive(Debug)]
pub struct MetricsRecorder {
    cfg: TelemetryConfig,
    width_ns: u64,
    windows: Vec<Window>,
    /// Windows whose gauges are already assigned.
    closed: usize,
    /// Instant of the previous gauge sample (span divisor).
    last_sample_at: SimTime,
    /// First instant that triggers the next gauge sample.
    next_boundary_ns: u64,
    /// Cumulative counters at the previous sample.
    prev: GaugeSnapshot,
}

impl MetricsRecorder {
    /// A recorder aggregating at `cfg`'s window width.
    pub fn new(cfg: TelemetryConfig) -> Self {
        MetricsRecorder {
            cfg,
            width_ns: cfg.window.as_nanos().max(1),
            windows: Vec::new(),
            closed: 0,
            last_sample_at: SimTime::ZERO,
            next_boundary_ns: cfg.window.as_nanos().max(1),
            prev: GaugeSnapshot::default(),
        }
    }

    /// The configuration this recorder runs at.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// The recorded windows, oldest first.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    fn ensure(&mut self, idx: usize) -> &mut Window {
        while self.windows.len() <= idx {
            self.windows.push(Window::empty());
        }
        &mut self.windows[idx]
    }

    fn idx(&self, at: SimTime) -> usize {
        (at.as_nanos() / self.width_ns) as usize
    }

    /// Record one completed op, keyed by its completion instant.
    pub fn op(&mut self, complete: SimTime, latency: SimDuration, bytes: u64) {
        let idx = self.idx(complete);
        let w = self.ensure(idx);
        w.ops += 1;
        w.bytes += bytes;
        w.hist.record(latency);
    }

    /// Record one admission drop, keyed by its arrival instant.
    pub fn drop_op(&mut self, at: SimTime) {
        let idx = self.idx(at);
        self.ensure(idx).drops += 1;
    }

    /// Pin a fault-plane firing to its window.
    pub fn annotate(&mut self, at: SimTime, kind: InstantKind, detail: u64) {
        let idx = self.idx(at);
        let ann = Annotation { at, kind, detail };
        self.ensure(idx).annotations.push(ann);
    }

    /// Has the clock crossed into a window past the last closed one?
    /// (The engine's cheap per-pop check; a `true` answer is followed
    /// by [`MetricsRecorder::sample`] with a fresh snapshot.)
    pub(crate) fn needs_sample(&self, now: SimTime) -> bool {
        now.as_nanos() >= self.next_boundary_ns
    }

    /// Close every window strictly before `now`'s, assigning gauges
    /// from the counter deltas since the previous sample.
    pub(crate) fn sample(&mut self, now: SimTime, snap: GaugeSnapshot) {
        let now_idx = self.idx(now);
        self.close_through(now_idx.saturating_sub(1), now, snap);
        self.next_boundary_ns = (now_idx as u64 + 1).saturating_mul(self.width_ns);
    }

    /// Close every remaining window (through `end`'s, and any later
    /// window already opened by a trailing annotation) at run end.
    pub fn finish(&mut self, end: SimTime, snap: GaugeSnapshot) {
        let last = self.idx(end).max(self.windows.len().saturating_sub(1));
        self.close_through(last, end.max(self.last_sample_at), snap);
    }

    /// Assign gauges to windows `closed ..= last`.  Fractions (busy,
    /// utilization, hit rate) are computed over the span since the
    /// previous sample and replicated to each closing window;
    /// instantaneous gauges take the sampled value; integer deltas
    /// (retries) land wholly on the last closing window.
    fn close_through(&mut self, last: usize, now: SimTime, snap: GaugeSnapshot) {
        if self.windows.len() <= last {
            self.ensure(last);
        }
        if self.closed > last {
            return;
        }
        let span = now.saturating_since(self.last_sample_at).as_nanos();
        let frac = |busy: SimDuration, prev: SimDuration, servers: u64| -> f64 {
            if span == 0 || servers == 0 {
                return 0.0;
            }
            let d = busy.as_nanos().saturating_sub(prev.as_nanos());
            (d as f64 / (span as f64 * servers as f64)).min(1.0)
        };
        let osd_busy: Vec<f64> = snap
            .osd_busy
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let p = self.prev.osd_busy.get(i).copied().unwrap_or(SimDuration::ZERO);
                // Busy time accrues over every service thread of the
                // OSD; the per-thread divisor lives in `osd_qd`'s
                // companion accessor, so normalize by span only and let
                // values above 1 read as multi-thread occupancy.
                frac(b, p, 1)
            })
            .collect();
        let mut link_util = [0.0; LINK_CLASSES];
        for (c, u) in link_util.iter_mut().enumerate() {
            *u = frac(
                snap.link_busy[c],
                self.prev.link_busy[c],
                snap.link_pipes[c] as u64,
            );
        }
        let hits = snap.cache_hits.saturating_sub(self.prev.cache_hits);
        let misses = snap.cache_misses.saturating_sub(self.prev.cache_misses);
        let cache_hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        let retries_delta = snap.retries.saturating_sub(self.prev.retries);
        for i in self.closed..=last {
            let w = &mut self.windows[i];
            w.inflight = snap.inflight;
            w.queue_depth = snap.queue_depth;
            w.osd_busy = osd_busy.clone();
            w.osd_qd = snap.osd_qd.clone();
            w.link_util = link_util;
            w.recovery_backlog = snap.recovery_backlog;
            w.scrub_objects = snap.scrub_objects;
            w.cache_hit_rate = cache_hit_rate;
            w.retries = if i == last { retries_delta } else { 0 };
        }
        self.closed = last + 1;
        self.last_sample_at = now;
        self.prev = snap;
    }

    /// Every annotation, oldest window first.
    pub fn annotations(&self) -> Vec<Annotation> {
        let mut out = Vec::new();
        for w in &self.windows {
            out.extend_from_slice(&w.annotations);
        }
        out
    }

    /// Sum of per-window completions (telescopes to the run's op
    /// count).
    pub fn total_ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }

    /// Sum of per-window admission drops.
    pub fn total_drops(&self) -> u64 {
        self.windows.iter().map(|w| w.drops).sum()
    }

    /// Merge of every window histogram (telescopes to the run
    /// histogram).
    pub fn merged_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for w in &self.windows {
            h.merge(&w.hist);
        }
        h
    }

    /// Evaluate the SLO layer over the recorded windows.
    pub fn slo(&self) -> SloSummary {
        let budget = (1.0 - self.cfg.objective).max(1e-9);
        let short = (self.cfg.short_windows as usize).max(1);
        let long = (self.cfg.long_windows as usize).max(1);
        let thr = self.cfg.burn_threshold;
        let mut burn = Vec::with_capacity(self.windows.len());
        let mut alerts: Vec<SloAlert> = Vec::new();
        let mut firing = false;
        let (mut attained, mut bad_total, mut total_total) = (0u64, 0u64, 0u64);
        for (i, w) in self.windows.iter().enumerate() {
            let total = w.slo_total();
            let bad = w.slo_bad(self.cfg.slo_p99);
            let frac = if total == 0 { 0.0 } else { bad as f64 / total as f64 };
            let b = frac / budget;
            burn.push(b);
            bad_total += bad;
            total_total += total;
            if b <= 1.0 {
                attained += 1;
            }
            let mean = |span: usize| -> f64 {
                let lo = (i + 1).saturating_sub(span);
                let n = i + 1 - lo;
                burn[lo..=i].iter().sum::<f64>() / n as f64
            };
            let (short_mean, long_mean) = (mean(short), mean(long));
            let boundary = SimTime::from_nanos((i as u64 + 1) * self.width_ns);
            if !firing && short_mean >= thr && long_mean >= thr {
                firing = true;
                alerts.push(SloAlert {
                    fired: boundary,
                    fired_window: i as u64,
                    cleared: None,
                    cleared_window: None,
                    peak_burn: b,
                });
            } else if firing {
                let a = alerts.last_mut().expect("firing implies an open alert");
                a.peak_burn = a.peak_burn.max(b);
                if short_mean < thr {
                    firing = false;
                    a.cleared = Some(boundary);
                    a.cleared_window = Some(i as u64);
                }
            }
        }
        let attainment = if total_total == 0 {
            1.0
        } else {
            1.0 - bad_total as f64 / total_total as f64
        };
        SloSummary {
            windows: self.windows.len() as u64,
            attained_windows: attained,
            bad_ops: bad_total,
            total_ops: total_total,
            attainment,
            burn,
            alerts,
        }
    }

    /// The timeline document: config, SLO verdict, annotations and the
    /// full window series as hand-written JSON (byte-identical across
    /// same-seed runs).
    pub fn timeline_json(&self) -> String {
        let slo = self.slo();
        let mut out = String::with_capacity(256 + self.windows.len() * 256);
        let _ = write!(
            out,
            "{{\n\"window_us\":{},\n\"slo\":{{\"target_p99_us\":{},\"objective\":{},\
             \"burn_threshold\":{},\"short_windows\":{},\"long_windows\":{},\
             \"windows\":{},\"attained_windows\":{},\"bad_ops\":{},\"total_ops\":{},\
             \"attainment\":{},\"alerts\":[",
            self.width_ns as f64 / 1_000.0,
            self.cfg.slo_p99.as_nanos() as f64 / 1_000.0,
            self.cfg.objective,
            self.cfg.burn_threshold,
            self.cfg.short_windows,
            self.cfg.long_windows,
            slo.windows,
            slo.attained_windows,
            slo.bad_ops,
            slo.total_ops,
            slo.attainment,
        );
        for (i, a) in slo.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"fired_ns\":{},\"fired_window\":{},\"cleared_ns\":{},\
                 \"cleared_window\":{},\"peak_burn\":{}}}",
                a.fired.as_nanos(),
                a.fired_window,
                a.cleared.map_or("null".into(), |t| t.as_nanos().to_string()),
                a.cleared_window.map_or("null".into(), |w| w.to_string()),
                a.peak_burn,
            );
        }
        out.push_str("]},\n\"annotations\":[");
        for (i, a) in self.annotations().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_ns\":{},\"window\":{},\"kind\":\"{}\",\"detail\":{}}}",
                a.at.as_nanos(),
                a.at.as_nanos() / self.width_ns,
                a.kind.label(),
                a.detail,
            );
        }
        out.push_str("],\n\"windows\":[\n");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let join_f = |v: &[f64]| {
                v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
            };
            let join_u = |v: &[u32]| {
                v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
            };
            let anns: Vec<String> =
                w.annotations.iter().map(|a| format!("\"{}\"", a.kind.label())).collect();
            let _ = write!(
                out,
                "{{\"index\":{i},\"start_ns\":{},\"end_ns\":{},\"ops\":{},\"drops\":{},\
                 \"bytes\":{},\"kiops\":{},\"p50_us\":{},\"p99_us\":{},\"mean_us\":{},\
                 \"inflight\":{},\"queue_depth\":{},\"osd_busy\":[{}],\"osd_qd\":[{}],\
                 \"link_util\":{{\"client_tx\":{},\"client_rx\":{},\"server\":{},\
                 \"cluster\":{}}},\"recovery_backlog\":{},\"scrub_objects\":{},\
                 \"cache_hit_rate\":{},\"retries\":{},\"burn\":{},\"annotations\":[{}]}}",
                i as u64 * self.width_ns,
                (i as u64 + 1) * self.width_ns,
                w.ops,
                w.drops,
                w.bytes,
                w.ops as f64 / (self.width_ns as f64 / 1e9) / 1_000.0,
                w.hist.quantile(0.50) / 1_000.0,
                w.hist.quantile(0.99) / 1_000.0,
                w.hist.mean_us(),
                w.inflight,
                w.queue_depth,
                join_f(&w.osd_busy),
                join_u(&w.osd_qd),
                w.link_util[0],
                w.link_util[1],
                w.link_util[2],
                w.link_util[3],
                w.recovery_backlog,
                w.scrub_objects,
                w.cache_hit_rate,
                w.retries,
                slo.burn[i],
                anns.join(","),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_us: u64, slo_us: u64) -> TelemetryConfig {
        TelemetryConfig::default()
            .with_window(SimDuration::from_micros(window_us))
            .with_slo_p99(SimDuration::from_micros(slo_us))
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    #[test]
    fn ops_land_in_completion_windows_and_telescope() {
        let mut r = MetricsRecorder::new(cfg(100, 50));
        // Completions at 30 µs, 130 µs, 140 µs, 350 µs → windows 0,1,1,3.
        for (t, lat) in [(30, 10), (130, 60), (140, 20), (350, 500)] {
            r.op(us(t), SimDuration::from_micros(lat), 4096);
        }
        r.drop_op(us(120));
        r.finish(us(350), GaugeSnapshot::default());
        assert_eq!(r.windows().len(), 4);
        assert_eq!(r.windows()[0].ops, 1);
        assert_eq!(r.windows()[1].ops, 2);
        assert_eq!(r.windows()[1].drops, 1);
        assert_eq!(r.windows()[2].ops, 0);
        assert_eq!(r.windows()[3].ops, 1);
        assert_eq!(r.total_ops(), 4);
        assert_eq!(r.total_drops(), 1);
        let merged = r.merged_histogram();
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.quantile(1.0), 500_000.0);
    }

    #[test]
    fn order_independence_of_op_recording() {
        let records = [(30u64, 10u64), (130, 60), (140, 20), (350, 500), (355, 30)];
        let mut fwd = MetricsRecorder::new(cfg(100, 50));
        for (t, lat) in records {
            fwd.op(us(t), SimDuration::from_micros(lat), 4096);
        }
        let mut rev = MetricsRecorder::new(cfg(100, 50));
        for (t, lat) in records.iter().rev() {
            rev.op(us(*t), SimDuration::from_micros(*lat), 4096);
        }
        fwd.finish(us(400), GaugeSnapshot::default());
        rev.finish(us(400), GaugeSnapshot::default());
        assert_eq!(fwd.windows(), rev.windows());
        assert_eq!(fwd.timeline_json(), rev.timeline_json());
    }

    #[test]
    fn gauge_sampling_closes_windows_and_assigns_deltas() {
        let mut r = MetricsRecorder::new(cfg(100, 50));
        r.op(us(10), SimDuration::from_micros(10), 4096);
        assert!(!r.needs_sample(us(99)));
        assert!(r.needs_sample(us(100)));
        let snap = GaugeSnapshot {
            inflight: 7,
            queue_depth: 3,
            osd_busy: vec![SimDuration::from_micros(50), SimDuration::from_micros(100)],
            osd_qd: vec![1, 2],
            link_busy: [
                SimDuration::from_micros(25),
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::ZERO,
            ],
            link_pipes: [1, 1, 2, 4],
            recovery_backlog: 11,
            scrub_objects: 4,
            cache_hits: 90,
            cache_misses: 10,
            retries: 2,
        };
        r.sample(us(100), snap.clone());
        assert!(!r.needs_sample(us(150)));
        let w = &r.windows()[0];
        assert_eq!(w.inflight, 7);
        assert_eq!(w.queue_depth, 3);
        assert_eq!(w.osd_qd, vec![1, 2]);
        // 50 µs busy over a 100 µs span.
        assert!((w.osd_busy[0] - 0.5).abs() < 1e-12);
        assert!((w.osd_busy[1] - 1.0).abs() < 1e-12);
        assert!((w.link_util[0] - 0.25).abs() < 1e-12);
        assert_eq!(w.recovery_backlog, 11);
        assert_eq!(w.scrub_objects, 4);
        assert!((w.cache_hit_rate - 0.9).abs() < 1e-12);
        assert_eq!(w.retries, 2);
        // The next sample differences against the previous snapshot.
        let mut snap2 = snap;
        snap2.cache_hits = 90; // no new lookups
        snap2.cache_misses = 10;
        snap2.retries = 5;
        r.sample(us(250), snap2);
        assert_eq!(r.windows()[1].cache_hit_rate, 0.0);
        assert_eq!(r.windows()[1].retries, 3);
    }

    #[test]
    fn burn_rate_alert_fires_and_clears_at_window_boundaries() {
        // 10 windows: 0–2 healthy, 3–5 a storm (every op over target),
        // 6–9 healthy again.  short=2, long=4, threshold 2, budget 1 %.
        let mut c = cfg(100, 50);
        c.short_windows = 2;
        c.long_windows = 4;
        let mut r = MetricsRecorder::new(c);
        for win in 0..10u64 {
            let storm = (3..=5).contains(&win);
            for op in 0..20u64 {
                let lat = if storm { 500 } else { 10 };
                r.op(us(win * 100 + op), SimDuration::from_micros(lat), 4096);
            }
        }
        r.finish(us(999), GaugeSnapshot::default());
        let slo = r.slo();
        assert_eq!(slo.windows, 10);
        assert_eq!(slo.attained_windows, 7);
        assert_eq!(slo.bad_ops, 60);
        assert_eq!(slo.total_ops, 200);
        assert_eq!(slo.alerts.len(), 1);
        let a = slo.alerts[0];
        // Storm starts in window 3 (burn 100): short mean crosses at
        // once, long mean (4 windows) needs window 3 only: 100/4 = 25.
        assert_eq!(a.fired_window, 3);
        assert_eq!(a.fired, us(400));
        // Clears two clean windows after the storm ends (short = 2).
        assert_eq!(a.cleared_window, Some(7));
        assert_eq!(a.cleared, Some(us(800)));
        assert!(a.peak_burn >= 99.0);
        // Deterministic: identical runs, identical series.
        assert_eq!(r.timeline_json(), {
            let mut r2 = MetricsRecorder::new(c);
            for win in 0..10u64 {
                let storm = (3..=5).contains(&win);
                for op in 0..20u64 {
                    let lat = if storm { 500 } else { 10 };
                    r2.op(us(win * 100 + op), SimDuration::from_micros(lat), 4096);
                }
            }
            r2.finish(us(999), GaugeSnapshot::default());
            r2.timeline_json()
        });
    }

    #[test]
    fn annotations_pin_to_their_windows() {
        let mut r = MetricsRecorder::new(cfg(100, 50));
        r.op(us(10), SimDuration::from_micros(10), 4096);
        r.annotate(us(130), InstantKind::OsdCrash, 9);
        r.annotate(us(470), InstantKind::LinkRestore, 0);
        r.finish(us(200), GaugeSnapshot::default());
        // The trailing annotation window survives finish().
        assert_eq!(r.windows().len(), 5);
        assert_eq!(r.windows()[1].annotations.len(), 1);
        assert_eq!(r.windows()[1].annotations[0].kind, InstantKind::OsdCrash);
        assert_eq!(r.windows()[4].annotations[0].kind, InstantKind::LinkRestore);
        let anns = r.annotations();
        assert_eq!(anns.len(), 2);
        assert_eq!(anns[0].detail, 9);
        let json = r.timeline_json();
        assert!(json.contains("\"kind\":\"osd_crash\",\"detail\":9"));
        assert!(json.contains("\"window\":1"));
    }

    #[test]
    fn exporters_are_well_formed() {
        let mut r = MetricsRecorder::new(cfg(100, 50));
        for t in 0..250u64 {
            r.op(us(t * 2), SimDuration::from_micros(10 + t % 80), 4096);
        }
        r.annotate(us(150), InstantKind::OsdCrash, 3);
        r.finish(
            us(500),
            GaugeSnapshot {
                osd_busy: vec![SimDuration::from_micros(100); 4],
                osd_qd: vec![1; 4],
                link_pipes: [1, 1, 2, 4],
                ..Default::default()
            },
        );
        let json = r.timeline_json();
        assert!(json.starts_with("{\n\"window_us\":100"));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"slo\":{"));
    }
}
