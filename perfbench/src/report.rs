//! The metric catalogue and the result line.
//!
//! Every workload reports every metric below (the names and units match
//! `BENCHMARK.json`); a layer a workload never calls reads 0 there.

use crate::stats::{self, OpRecord};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("warm_latency_ms.p90", "ms"),
    ("goodput_frac", "frac"),
    ("device_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run.
pub const LAYERS: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("pattern.classify_us", "us"),
    ("pattern.fast_frac", "frac"),
    ("planner.plan_us", "us"),
    ("planner.flops_ratio", "ratio"),
    ("inductor.build_plan_us", "us"),
    ("inductor.codegen_us", "us"),
    ("inductor.autotune_ms", "ms"),
    ("inductor.autotune_configs", "count"),
    ("kernel.instructions", "count"),
    ("gpu.lower_us", "us"),
    ("gpu.execute_ms", "ms"),
    ("gpu.micro_us", "us"),
    ("gpu.analytic_ms", "ms"),
    ("gpu.analytic_class_frac", "frac"),
    ("gpu.program_cache_hit_frac", "frac"),
    ("gpu.model.dram_bytes", "bytes"),
    ("gpu.model.atomic_conflicts", "count"),
    ("gpu.model.sm_bound_frac", "frac"),
    ("tensor.deep_copies", "count"),
    ("tensor.contiguous_us", "us"),
    ("formats.convert_ms", "ms"),
    ("formats.bytes", "bytes"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.registry_hit_frac", "frac"),
    ("serve.compile_ms.p99", "ms"),
    ("serve.retries", "count"),
    ("loadgen.late_ms.p99", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Tail percentile reported for every workload: the highest one that
/// keeps ten samples beyond it on the slowest workload (`paper_kernels`
/// completes a few hundred ops per run; p99 would need a thousand).
pub const TAIL_Q: f64 = 0.90;

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Ops that errored, were refused, or returned wrong values.
    pub failed: u64,
    /// Ops whose values disagreed with the oracle, plus drift-guard
    /// failures.
    pub wrong: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            E2E.iter().chain(LAYERS).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Latency and goodput of a measured phase, given as time segments
    /// (records, seconds). Each metric is the median of its per-segment
    /// values, so a burst of host noise that slows one segment does not
    /// move it.
    pub fn latency_metrics(&mut self, segments: &[(&[OpRecord], f64)], limit_s: f64) {
        let ms = |xs: &[f64], q: f64| stats::percentile(xs, q).unwrap_or(0.0) * 1e3;
        let mut per_segment: [Vec<f64>; 4] = Default::default();
        for (i, &(records, elapsed_s)) in segments.iter().enumerate() {
            let all = stats::ok_latencies(records, false);
            let warm = stats::ok_latencies(records, true);
            let values = [
                ms(&all, 0.5),
                ms(&all, TAIL_Q),
                ms(&warm, TAIL_Q),
                stats::goodput(records, limit_s),
            ];
            for (acc, v) in per_segment.iter_mut().zip(values) {
                acc.push(v);
            }
            for (label, xs) in [("latency_ms", &all), ("warm_latency_ms", &warm)] {
                let n = xs.len();
                let tail = if stats::tail_supported(n, TAIL_Q) {
                    String::new()
                } else {
                    " (too few samples beyond the tail)".to_string()
                };
                self.note(format!(
                    "segment {i} {label}: n={n}, p50 {:.3} ms, p90 {:.3} ms with {} beyond{tail}",
                    ms(xs, 0.5),
                    ms(xs, TAIL_Q),
                    stats::beyond(n, TAIL_Q)
                ));
            }
            self.note(format!(
                "segment {i}: {} ops in {elapsed_s:.2} s ({:.1} correct ops/s), latency limit {:.0} ms",
                records.len(),
                all.len() as f64 / elapsed_s,
                limit_s * 1e3
            ));
        }
        let names = [
            "latency_ms.p50",
            "latency_ms.p90",
            "warm_latency_ms.p90",
            "goodput_frac",
        ];
        for (name, values) in names.into_iter().zip(&per_segment) {
            self.set(name, stats::median(values));
        }
    }

    /// The final result line for the metrics in `catalogue`.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Names in `catalogue` this report has not set.
    pub fn missing(&self, catalogue: &'static [(&'static str, &'static str)]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| *n)
            .collect()
    }
}

/// A finite JSON number with every digit Rust prints.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in E2E.iter().chain(LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            E2E.len() + LAYERS.len() + 3
        );
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        for (name, _) in E2E {
            r.set(name, 1.5);
        }
        assert!(r.missing(E2E).is_empty());
        assert!(!r.missing(LAYERS).is_empty());
        let line = r.json(E2E);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1"));
        assert!(line.contains("\"device_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
    }
}
