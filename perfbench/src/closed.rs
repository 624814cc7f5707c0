//! The closed-loop runner shared by `paper_kernels` and `oneshot_mix`,
//! and the metrics both derive from a measured phase.

use crate::report::Report;
use crate::stats::OpRecord;
use crate::trace::{self, Attribution};
use insum::{Profile, Tensor};
use insum_inductor::ProgramCache;
use std::time::Instant;

/// What one op reported back to the loop.
pub struct OpOutcome {
    pub latency_s: f64,
    pub ok: bool,
    pub warm: bool,
    /// The modeled launches of the op (empty when it failed).
    pub profile: Profile,
}

/// Modeled counters over the fixed window of ops at the start of a
/// phase. The window is the same op sequence on every run at one seed,
/// so these repeat exactly.
#[derive(Debug, Default)]
pub struct DeviceWindow {
    pub ops: u64,
    pub device_s: f64,
    pub instructions: u64,
    pub dram_bytes: u64,
    pub atomic_conflicts: u64,
    pub launches: u64,
    pub sm_bound_launches: u64,
}

impl DeviceWindow {
    pub fn add(&mut self, p: &Profile) {
        let s = p.total_stats();
        self.ops += 1;
        self.device_s += p.total_time();
        self.instructions += s.instructions;
        self.dram_bytes += s.dram_bytes();
        self.atomic_conflicts += s.atomic_conflicts;
        self.launches += p.reports.len() as u64;
        self.sm_bound_launches += p
            .reports
            .iter()
            .filter(|r| r.sm_time >= r.dram_time)
            .count() as u64;
    }

    pub fn per_op(&self, total: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total / self.ops as f64
        }
    }
}

/// One measured phase of a closed loop.
#[derive(Debug, Default)]
pub struct Phase {
    pub records: Vec<OpRecord>,
    pub elapsed_s: f64,
    pub device: DeviceWindow,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub deep_copies: u64,
    /// Record count and elapsed seconds at the end of each equal-length
    /// time segment of the phase.
    pub segment_ends: Vec<(usize, f64)>,
}

impl Phase {
    /// Each segment's records with its duration.
    pub fn segments(&self) -> Vec<(&[OpRecord], f64)> {
        let mut from = (0, 0.0);
        self.segment_ends
            .iter()
            .map(|&(end, at)| {
                let seg = (&self.records[from.0..end], at - from.1);
                from = (end, at);
                seg
            })
            .collect()
    }
}

/// Run `op(0)`, `op(1)`, … back to back (one client) until `budget_s`
/// has passed and at least `window` ops have completed, split into
/// `segments` equal time segments. The first `window` ops feed the
/// [`DeviceWindow`].
pub fn run(
    budget_s: f64,
    window: usize,
    segments: usize,
    mut op: impl FnMut(usize) -> Result<OpOutcome, String>,
) -> Result<Phase, String> {
    let cache0 = ProgramCache::global().stats();
    let copies0 = Tensor::deep_copy_count();
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0;
    while i < window || start.elapsed().as_secs_f64() < budget_s {
        trace::set_op(i as u64);
        let out = op(i)?;
        if i < window {
            phase.device.add(&out.profile);
        }
        phase.records.push(OpRecord {
            latency_s: out.latency_s,
            ok: out.ok,
            warm: out.warm,
        });
        i += 1;
        let done = phase.segment_ends.len() + 1;
        let now = start.elapsed().as_secs_f64();
        if done < segments && now >= budget_s * done as f64 / segments as f64 {
            phase.segment_ends.push((i, now));
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.segment_ends.push((i, phase.elapsed_s));
    let cache1 = ProgramCache::global().stats();
    phase.cache_hits = cache1.hits - cache0.hits;
    phase.cache_misses = cache1.misses - cache0.misses;
    phase.deep_copies = Tensor::deep_copy_count() - copies0;
    Ok(phase)
}

impl Report {
    /// Count a phase's ops as attempted and its failed ops as failed.
    pub fn count_ops(&mut self, phase: &Phase) {
        self.attempted += phase.records.len() as u64;
        let failed = phase.records.iter().filter(|r| !r.ok).count() as u64;
        self.failed += failed;
        self.wrong += failed;
    }

    /// Attempted/failed counts and the end-to-end metrics of a phase.
    pub fn closed_loop_metrics(&mut self, phase: &Phase, limit_s: f64) {
        self.count_ops(phase);
        self.latency_metrics(&phase.segments(), limit_s);
        self.set(
            "device_us",
            phase.device.per_op(phase.device.device_s) * 1e6,
        );
    }

    /// Modeled per-op counters of a phase's device window.
    pub fn device_layer_metrics(&mut self, phase: &Phase) {
        let d = &phase.device;
        self.set("kernel.instructions", d.per_op(d.instructions as f64));
        self.set("gpu.model.dram_bytes", d.per_op(d.dram_bytes as f64));
        self.set(
            "gpu.model.atomic_conflicts",
            d.per_op(d.atomic_conflicts as f64),
        );
        let sm = if d.launches == 0 {
            0.0
        } else {
            d.sm_bound_launches as f64 / d.launches as f64
        };
        self.set("gpu.model.sm_bound_frac", sm);
        let lookups = phase.cache_hits + phase.cache_misses;
        let hit = if lookups == 0 {
            0.0
        } else {
            phase.cache_hits as f64 / lookups as f64
        };
        self.set("gpu.program_cache_hit_frac", hit);
        let ops = phase.records.len().max(1) as f64;
        self.set("tensor.deep_copies", phase.deep_copies as f64 / ops);
    }

    /// Mean self time per call of every traced layer.
    pub fn span_layer_metrics(&mut self, a: &Attribution) {
        const PER_CALL: &[(&str, &str, f64)] = &[
            ("lang.parse_us", "lang.parse", 1e6),
            ("pattern.classify_us", "pattern.classify", 1e6),
            ("planner.plan_us", "planner.plan", 1e6),
            ("inductor.build_plan_us", "inductor.build_plan", 1e6),
            ("inductor.codegen_us", "inductor.codegen", 1e6),
            ("inductor.autotune_ms", "inductor.autotune", 1e3),
            ("gpu.lower_us", "gpu.lower", 1e6),
            ("gpu.execute_ms", "gpu.execute", 1e3),
            ("gpu.micro_us", "gpu.micro", 1e6),
            ("gpu.analytic_ms", "gpu.analytic", 1e3),
            ("tensor.contiguous_us", "tensor.contiguous", 1e6),
            ("formats.convert_ms", "formats.convert", 1e3),
            ("serve.submit_us", "serve.submit", 1e6),
        ];
        for &(metric, span, scale) in PER_CALL {
            let calls = a.count.get(span).copied().unwrap_or(0);
            self.set(metric, a.self_per(span, calls) * scale);
        }
        self.set("trace.unattributed_frac", a.unattributed_frac());
        for (name, calls) in &a.count {
            self.note(format!(
                "span {name}: {calls} calls, {:.3} ms self",
                a.self_s[name] * 1e3
            ));
        }
    }

    /// `trace.overhead_frac`: how much slower the traced phase's median
    /// op was than the untraced one's.
    pub fn overhead_metric(&mut self, untraced: &Phase, traced: &Phase) {
        let p50 = |p: &Phase| crate::stats::median(&crate::stats::ok_latencies(&p.records, false));
        let (u, t) = (p50(untraced), p50(traced));
        self.set(
            "trace.overhead_frac",
            if u > 0.0 { (t - u) / u } else { 0.0 },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_split_records_by_time() {
        let rec = OpRecord {
            latency_s: 0.1,
            ok: true,
            warm: true,
        };
        let phase = Phase {
            records: vec![rec; 5],
            segment_ends: vec![(2, 1.0), (5, 2.5)],
            ..Phase::default()
        };
        let segs = phase.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].0.len(), segs[0].1), (2, 1.0));
        assert_eq!((segs[1].0.len(), segs[1].1), (3, 1.5));
    }

    #[test]
    fn timings_are_medians_over_segments() {
        let at = |latency_s| OpRecord {
            latency_s,
            ok: true,
            warm: true,
        };
        let (fast, slow) = (vec![at(0.001); 4], vec![at(0.010); 4]);
        let mut r = Report::default();
        r.latency_metrics(&[(&fast, 1.0), (&slow, 1.0), (&fast, 1.0)], 0.005);
        assert_eq!(r.values["latency_ms.p50"], 1.0);
        assert_eq!(r.values["goodput_frac"], 1.0);
    }
}
