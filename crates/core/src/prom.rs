//! Prometheus text-exposition export of a run report.
//!
//! [`prometheus_dump`] renders one [`RunReport`] (plus, optionally, the
//! flight recorder's [`TraceStats`]) in the Prometheus text exposition
//! format: `# HELP` / `# TYPE` headers followed by samples, per-stage
//! latency quantiles as a `summary` family, counters suffixed `_total`.
//! The output is deterministic — metric families in a fixed order,
//! stages in critical-path order, and Rust's shortest-round-trip `f64`
//! formatting — so two same-seed runs dump byte-identical files (the
//! CI trace-smoke job `cmp`s them).

use crate::report::RunReport;
use deliba_sim::trace::TraceStats;
use std::fmt::Write as _;

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render `report` (and the recorder's ring stats, when tracing was on)
/// as a Prometheus text-exposition page.
///
/// Gauges carry the run identity as `config`/`workload` labels; the
/// per-stage breakdown, when present, becomes a `summary` family with
/// interpolated `quantile` samples plus `_sum`/`_count`.
pub fn prometheus_dump(report: &RunReport, trace: Option<&TraceStats>) -> String {
    let mut out = String::new();
    let run_labels = format!(
        "config=\"{}\",workload=\"{}\"",
        escape_label(&report.config),
        escape_label(&report.workload)
    );

    let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{{{run_labels}}} {value}");
    };
    gauge(&mut out, "deliba_run_mean_latency_us", "Mean end-to-end latency in microseconds.", report.mean_latency_us);
    gauge(&mut out, "deliba_run_p99_latency_us", "99th-percentile end-to-end latency in microseconds.", report.p99_latency_us);
    gauge(&mut out, "deliba_run_throughput_mbps", "Throughput in decimal MB/s (fio convention).", report.throughput_mbps);
    gauge(&mut out, "deliba_run_kiops", "Thousands of I/O operations per second.", report.kiops);
    gauge(&mut out, "deliba_run_window_seconds", "Measurement window in seconds of virtual time.", report.window_s);

    let counter = |out: &mut String, name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}{{{run_labels}}} {value}");
    };
    counter(&mut out, "deliba_run_ops_total", "Operations completed.", report.ops);
    counter(&mut out, "deliba_run_degraded_ops_total", "Operations that ran degraded.", report.degraded_ops);
    counter(&mut out, "deliba_run_verify_failures_total", "Data-integrity mismatches (must be 0).", report.verify_failures);

    if let Some(b) = &report.breakdown {
        let name = "deliba_stage_latency_us";
        let _ = writeln!(out, "# HELP {name} Per-stage span latency in microseconds (interpolated quantiles).");
        let _ = writeln!(out, "# TYPE {name} summary");
        for row in &b.stages {
            let stage = escape_label(&row.stage);
            for (q, v) in [
                ("0.5", row.p50_us),
                ("0.95", row.p95_us),
                ("0.99", row.p99_us),
                ("0.999", row.p999_us),
            ] {
                let _ = writeln!(out, "{name}{{stage=\"{stage}\",quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum{{stage=\"{stage}\"}} {}", row.mean_us * b.ops as f64);
            let _ = writeln!(out, "{name}_count{{stage=\"{stage}\"}} {}", b.ops);
        }
    }

    if let Some(c) = &report.counters {
        counter(&mut out, "deliba_engine_events_total", "Closed-loop events executed.", c.events);
        counter(&mut out, "deliba_engine_fused_events_total", "Events consumed by the fused fast path.", c.fused_events);
        counter(&mut out, "deliba_engine_cache_hits_total", "Placement-cache hits.", c.cache_hits);
        counter(&mut out, "deliba_engine_cache_misses_total", "Placement-cache misses.", c.cache_misses);
        counter(&mut out, "deliba_engine_cache_invalidations_total", "Placement-cache epoch invalidations.", c.cache_invalidations);
    }

    if let Some(r) = &report.resilience {
        counter(&mut out, "deliba_resilience_retries_total", "Attempts re-issued after a failed attempt.", r.retries);
        counter(&mut out, "deliba_resilience_timeouts_total", "Deadline expiries.", r.timeouts);
        counter(&mut out, "deliba_resilience_failovers_total", "Ops completed on a retry after failing.", r.failovers);
        counter(&mut out, "deliba_resilience_exhausted_total", "Ops abandoned after exhausting retries.", r.exhausted);
        counter(&mut out, "deliba_resilience_degraded_reads_total", "Reads served degraded.", r.degraded_reads);
        counter(&mut out, "deliba_resilience_fpga_failovers_total", "FPGA-to-software path switches.", r.fpga_failovers);
        counter(&mut out, "deliba_resilience_degraded_path_ops_total", "Ops routed over the software path while the card was down.", r.degraded_path_ops);
        counter(&mut out, "deliba_resilience_osd_crashes_total", "OSDs crashed by the schedule.", r.osd_crashes);
        counter(&mut out, "deliba_resilience_dfx_swaps_total", "Mid-flight DFX swaps.", r.dfx_swaps);
        counter(&mut out, "deliba_resilience_dropped_frames_total", "Request frames dropped by the link injector.", r.dropped_frames);
        counter(&mut out, "deliba_resilience_corrupt_frames_total", "Response frames corrupted by the link injector.", r.corrupt_frames);
        counter(&mut out, "deliba_resilience_dma_errors_total", "DMA completion errors.", r.dma_errors);
        counter(&mut out, "deliba_resilience_dma_stalls_total", "Descriptor-exhaustion stalls.", r.dma_stalls);
        gauge(&mut out, "deliba_resilience_recovery_time_us", "Cumulative card-fault to card-recover time in microseconds.", r.recovery_time_us);
    }

    if let Some(rc) = &report.recovery {
        counter(&mut out, "deliba_recovery_objects_recovered_total", "Objects re-replicated by backfill.", rc.objects_recovered);
        counter(&mut out, "deliba_recovery_objects_repaired_total", "Objects repaired after scrub detected corruption.", rc.objects_repaired);
        counter(&mut out, "deliba_recovery_unrecoverable_total", "Objects with no readable source copy at last scan.", rc.unrecoverable);
        counter(&mut out, "deliba_recovery_ops_total", "Backfill/repair operations dispatched.", rc.recovery_ops);
        counter(&mut out, "deliba_recovery_background_bytes_total", "Bytes moved by background traffic.", rc.background_bytes);
        counter(&mut out, "deliba_recovery_scrub_objects_total", "Objects walked by the scrubber.", rc.scrub_objects);
        counter(&mut out, "deliba_recovery_bitrot_injected_total", "Silent-corruption events injected by the fault plane.", rc.bitrot_injected);
        counter(&mut out, "deliba_recovery_bitrot_detected_total", "Corrupt copies scrub detected.", rc.bitrot_detected);
        counter(&mut out, "deliba_recovery_bitrot_repaired_total", "Corrupt copies scrub repaired.", rc.bitrot_repaired);
        counter(&mut out, "deliba_recovery_degraded_reads_total", "Reads that skipped a stale or corrupt copy.", rc.degraded_reads);
        gauge(&mut out, "deliba_recovery_time_to_clean_us", "Cumulative degraded-to-clean time in microseconds of virtual time.", rc.time_to_clean_us);
    }

    if let Some(s) = &report.slo {
        gauge(&mut out, "deliba_slo_window_us", "Telemetry window width in microseconds.", s.window_us);
        gauge(&mut out, "deliba_slo_target_p99_us", "SLO latency target in microseconds.", s.target_p99_us);
        gauge(&mut out, "deliba_slo_objective", "SLO attainment objective.", s.objective);
        gauge(&mut out, "deliba_slo_attainment", "Fraction of telemetry windows within the error budget.", s.attainment);
        counter(&mut out, "deliba_slo_windows_total", "Telemetry windows the run spanned.", s.windows);
        counter(&mut out, "deliba_slo_attained_windows_total", "Telemetry windows within the error budget.", s.attained_windows);
        counter(&mut out, "deliba_slo_bad_ops_total", "Ops over the SLO target plus admission drops.", s.bad_ops);
        counter(&mut out, "deliba_slo_alerts_total", "Burn-rate alert episodes.", s.alerts.len() as u64);
    }

    if let Some(t) = trace {
        let depth = t.depth.label();
        let _ = writeln!(out, "# HELP deliba_trace_events_held Flight-recorder events currently held in the ring.");
        let _ = writeln!(out, "# TYPE deliba_trace_events_held gauge");
        let _ = writeln!(out, "deliba_trace_events_held{{depth=\"{depth}\"}} {}", t.held);
        let _ = writeln!(out, "# HELP deliba_trace_events_dropped_total Flight-recorder events evicted by the bounded ring.");
        let _ = writeln!(out, "# TYPE deliba_trace_events_dropped_total counter");
        let _ = writeln!(out, "deliba_trace_events_dropped_total{{depth=\"{depth}\"}} {}", t.dropped);
        let _ = writeln!(out, "# HELP deliba_trace_ring_capacity Flight-recorder ring capacity in events.");
        let _ = writeln!(out, "# TYPE deliba_trace_ring_capacity gauge");
        let _ = writeln!(out, "deliba_trace_ring_capacity{{depth=\"{depth}\"}} {}", t.capacity);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{PerfCounters, RecoveryCounters, ResilienceCounters, SloReport};
    use deliba_sim::{Counter, Histogram, SimDuration, Stage, StageTracer, TraceDepth};

    fn sample_report(traced: bool) -> RunReport {
        let mut hist = Histogram::new();
        let mut counter = Counter::new();
        for _ in 0..100 {
            hist.record(SimDuration::from_micros(64));
            counter.record(4096);
        }
        let mut r = RunReport::new(
            "DeLiBA-K (HW, replication)".into(),
            "rand-read 4k".into(),
            &hist,
            &counter,
            SimDuration::from_secs(1),
            0,
            0,
        );
        if traced {
            let mut tracer = StageTracer::new();
            for _ in 0..100 {
                for s in Stage::ALL {
                    tracer.record(s, SimDuration::from_micros(2));
                }
                tracer.record_op();
            }
            r.breakdown = Some(crate::report::StageBreakdown::from_tracer(&tracer));
            r.counters = Some(PerfCounters { events: 100, ..Default::default() });
            r.resilience = Some(ResilienceCounters { retries: 3, ..Default::default() });
            r.recovery = Some(RecoveryCounters {
                objects_recovered: 12,
                background_bytes: 1 << 20,
                time_to_clean_us: 92_800.0,
                ..Default::default()
            });
            r.slo = Some(SloReport {
                window_us: 500.0,
                target_p99_us: 400.0,
                objective: 0.99,
                burn_threshold: 2.0,
                windows: 40,
                attained_windows: 36,
                attainment: 0.9,
                bad_ops: 120,
                total_ops: 4000,
                alerts: Vec::new(),
            });
        }
        r
    }

    #[test]
    fn exposition_grammar_holds_on_every_line() {
        let stats = TraceStats { depth: TraceDepth::Full, held: 5, dropped: 0, capacity: 1024 };
        let dump = prometheus_dump(&sample_report(true), Some(&stats));
        assert!(dump.ends_with('\n'));
        for line in dump.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            // Sample line: name or name{labels}, one space, a number.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            if let Some(open) = series.find('{') {
                assert!(series.ends_with('}'), "unterminated labels in: {line}");
                let labels = &series[open + 1..series.len() - 1];
                // Split label pairs on commas *outside* quoted values.
                let mut pairs = Vec::new();
                let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
                for (i, c) in labels.char_indices() {
                    match c {
                        _ if escaped => escaped = false,
                        '\\' if in_quotes => escaped = true,
                        '"' => in_quotes = !in_quotes,
                        ',' if !in_quotes => {
                            pairs.push(&labels[start..i]);
                            start = i + 1;
                        }
                        _ => {}
                    }
                }
                assert!(!in_quotes, "unterminated quote in: {line}");
                pairs.push(&labels[start..]);
                for pair in pairs {
                    let (k, v) = pair.split_once('=').expect("label pair");
                    assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'), "bad label {pair}");
                }
            }
        }
    }

    #[test]
    fn every_type_header_precedes_its_samples_and_stages_are_complete() {
        let dump = prometheus_dump(&sample_report(true), None);
        // Each summary stage appears with all four quantiles and the
        // _sum/_count pair.
        for s in Stage::ALL {
            for q in ["0.5", "0.95", "0.99", "0.999"] {
                let needle = format!("deliba_stage_latency_us{{stage=\"{}\",quantile=\"{q}\"}}", s.label());
                assert!(dump.contains(&needle), "missing {needle}");
            }
            assert!(dump.contains(&format!("deliba_stage_latency_us_sum{{stage=\"{}\"}}", s.label())));
            assert!(dump.contains(&format!("deliba_stage_latency_us_count{{stage=\"{}\"}} 100", s.label())));
        }
        // TYPE precedes the first sample of each family.
        let type_pos = dump.find("# TYPE deliba_stage_latency_us summary").expect("summary TYPE");
        let sample_pos = dump.find("deliba_stage_latency_us{").expect("summary sample");
        assert!(type_pos < sample_pos);
        assert!(dump.contains("deliba_resilience_retries_total"));
        assert!(dump.contains("deliba_engine_events_total"));
        assert!(dump.contains("deliba_recovery_objects_recovered_total"));
        assert!(dump.contains("deliba_recovery_time_to_clean_us"));
        assert!(dump.contains("deliba_slo_attainment"));
        assert!(dump.contains("deliba_slo_alerts_total"));
    }

    #[test]
    fn untraced_report_omits_optional_families_and_escapes_labels() {
        let mut r = sample_report(false);
        r.config = "odd \"label\"\\path".into();
        let dump = prometheus_dump(&r, None);
        assert!(!dump.contains("deliba_stage_latency_us"));
        assert!(!dump.contains("deliba_resilience_"));
        assert!(!dump.contains("deliba_recovery_"));
        assert!(!dump.contains("deliba_slo_"));
        assert!(!dump.contains("deliba_trace_"));
        assert!(dump.contains("config=\"odd \\\"label\\\"\\\\path\""));
        // Deterministic: same input, same bytes.
        assert_eq!(dump, prometheus_dump(&r, None));
    }
}
