//! Span recording for the layer replay.
//!
//! Each call into a layer gets a span (name, start, end, parent, op id).
//! Every span is folded into per-layer totals as it closes; the full
//! spans of one op in [`SAMPLE_EVERY`] are also kept in memory and can be
//! written out as Chrome trace JSON when the run ends.  A layer's self
//! time is its span's duration minus its child spans; durations are
//! corrected for the measured cost of the clock reads that bracket them.

use std::time::Instant;

/// Keep the full spans of one op in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// The layers the replay times, named after the crates they live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One foreground op, from admission to submission-context release
    /// (the parent of every per-op layer span; its self time is the
    /// replay's own bookkeeping).
    Op,
    /// `deliba_sim::LaneQueue` schedule and pop.
    Queue,
    /// `deliba_core::hostpath::host_costs` and the submission context
    /// (`deliba_sim::Server::{earliest_start, begin}`).
    HostPath,
    /// `deliba_qdma::PciePipes::{h2c_transfer, c2h_transfer}`.
    Pcie,
    /// `deliba_cluster::OsdMap::do_rule_cached` (the card-side lookup).
    CrushPlace,
    /// `deliba_fpga::AlveoU280::place_prefetched`.
    FpgaPlace,
    /// `deliba_fpga::AlveoU280::encode` (the RS codec).
    EcEncode,
    /// `deliba_net::TcpStack::{new, latency}`.
    NetTcp,
    /// The `deliba_cluster::Cluster` read and write entry points.
    ClusterIo,
    /// `Cluster::{recovery_scan, backfill_wave}`.
    Recovery,
    /// `Cluster::{scrub_tick, scrub_pass_reset}`.
    Scrub,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Op,
        Layer::Queue,
        Layer::HostPath,
        Layer::Pcie,
        Layer::CrushPlace,
        Layer::FpgaPlace,
        Layer::EcEncode,
        Layer::NetTcp,
        Layer::ClusterIo,
        Layer::Recovery,
        Layer::Scrub,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "engine.op",
            Layer::Queue => "sim.queue",
            Layer::HostPath => "core.hostpath",
            Layer::Pcie => "qdma.pcie",
            Layer::CrushPlace => "crush.place",
            Layer::FpgaPlace => "fpga.place",
            Layer::EcEncode => "ec.encode",
            Layer::NetTcp => "net.tcp",
            Layer::ClusterIo => "cluster.io",
            Layer::Recovery => "cluster.recovery",
            Layer::Scrub => "cluster.scrub",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer.
    pub layer: Layer,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// Duration, ns (uncorrected).
    pub dur_ns: u64,
    /// The enclosing span's layer (`None` for a root span).
    pub parent: Option<Layer>,
    /// The op the span belongs to.
    pub op: u64,
}

/// The open root span of the op being replayed.
struct OpenOp {
    id: u64,
    start: Instant,
    children_ns: u64,
    children: u64,
    keep: bool,
}

/// Per-layer span totals plus the sampled full spans.
pub struct Spans {
    on: bool,
    epoch: Instant,
    /// Cost of one clock read, ns (subtracted once per span).
    clock_ns: u64,
    self_ns: [u64; Layer::ALL.len()],
    op: Option<OpenOp>,
    kept: Vec<Span>,
}

impl Spans {
    /// A recorder; when `on` is false every method is a no-op besides
    /// running the timed closure.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            clock_ns: if on { clock_read_ns() } else { 0 },
            self_ns: [0; Layer::ALL.len()],
            op: None,
            kept: Vec::new(),
        }
    }

    /// Open the root span of op `id`.
    pub fn begin_op(&mut self, id: u64) {
        if self.on {
            let keep = id.is_multiple_of(SAMPLE_EVERY);
            self.op = Some(OpenOp {
                id,
                start: Instant::now(),
                children_ns: 0,
                children: 0,
                keep,
            });
        }
    }

    /// Close the root span opened by [`Spans::begin_op`].
    pub fn end_op(&mut self) {
        let Some(op) = self.op.take() else { return };
        let dur = op.start.elapsed().as_nanos() as u64;
        // Each child span cost two clock reads inside the root, and the
        // root's own bracketing reads cost one more.
        let overhead = op.children_ns + (2 * op.children + 1) * self.clock_ns;
        self.add(Layer::Op, dur.saturating_sub(overhead));
        if op.keep {
            self.kept.push(Span {
                layer: Layer::Op,
                start_ns: (op.start - self.epoch).as_nanos() as u64,
                dur_ns: dur,
                parent: None,
                op: op.id,
            });
        }
    }

    /// Run `f` inside a span of `layer`: a child of the open op, or a
    /// root span when no op is open.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_nanos() as u64;
        let net = dur.saturating_sub(self.clock_ns);
        self.add(layer, net);
        if let Some(op) = self.op.as_mut() {
            op.children_ns += net;
            op.children += 1;
            if op.keep {
                let (id, epoch) = (op.id, self.epoch);
                self.kept.push(Span {
                    layer,
                    start_ns: (start - epoch).as_nanos() as u64,
                    dur_ns: dur,
                    parent: Some(Layer::Op),
                    op: id,
                });
            }
        }
        out
    }

    fn add(&mut self, layer: Layer, ns: u64) {
        self.self_ns[layer.index()] += ns;
    }

    /// Corrected self time of `layer`, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Σ self time over every layer: the traced host time.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// The sampled full spans, in closing order.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// The sampled spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, op id and parent in
    /// `args`.
    pub fn chrome_json(&self) -> String {
        use serde::Value;
        let events = self
            .kept
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.layer.name().into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Float(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(1)),
                    (
                        "args".into(),
                        Value::Object(vec![
                            ("op".into(), Value::UInt(s.op)),
                            (
                                "parent".into(),
                                s.parent
                                    .map_or(Value::Null, |p| Value::Str(p.name().into())),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
        serde_json::to_string(&doc).expect("a Value always serializes")
    }
}

/// The median cost of one `Instant::now()` read, ns: the duration an
/// empty span measures.
fn clock_read_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}
