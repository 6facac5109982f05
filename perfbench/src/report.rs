//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the catalog: end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//! A layer a workload never reaches reports zero work (a count of 0,
//! a time of 0 ms), so the per-layer rows line up across workloads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Kernels of the sparse library, in library order.
pub const KERNELS: [&str; 14] = [
    "spmv",
    "jacobi",
    "trisolve",
    "lufront",
    "colscale",
    "chase",
    "scale",
    "permute",
    "rowgather",
    "lufront_producer",
    "colscale_producer",
    "permute_producer",
    "lufront_callchain",
    "permute_callchain",
];

/// Kernels with a hand-written native loop.
pub const NATIVE_KERNELS: [&str; 5] = ["spmv", "scale", "colscale", "permute", "rowgather"];

/// Per-layer metrics other than the per-kernel yardsticks: `(name, unit)`.
/// Times and counts are per operation (totals over the traced
/// operations divided by their number) unless the name says otherwise.
pub const LAYERS: [(&str, &str); 48] = [
    ("frontend.parse_ms", "ms"),
    ("passes.inline_ms", "ms"),
    ("passes.constprop_ms", "ms"),
    ("passes.normalize_ms", "ms"),
    ("passes.induction_ms", "ms"),
    ("passes.forward_sub_ms", "ms"),
    ("passes.dce_ms", "ms"),
    ("passes.pipeline_ms", "ms"),
    ("graph.hcg_build_ms", "ms"),
    ("core.summaries_ms", "ms"),
    ("core.evolution_ms", "ms"),
    ("core.property_ms", "ms"),
    ("core.property_queries", "count"),
    ("core.solver_nodes", "count"),
    ("driver.compile_ms", "ms"),
    ("driver.self_ms", "ms"),
    ("runtime.dispatch_ms", "ms"),
    ("runtime.dispatches", "count"),
    ("runtime.inspections", "count"),
    ("runtime.inspections_retired", "count"),
    ("runtime.cache_hits", "count"),
    ("runtime.cache_invalidations", "count"),
    ("runtime.cache_hit_frac", "frac"),
    ("exec.parallel_ms", "ms"),
    ("exec.parallel_dispatches", "count"),
    ("exec.parallel_fallbacks", "count"),
    ("exec.parallel_commit_frac", "frac"),
    ("exec.strategy.write_log", "count"),
    ("exec.strategy.in_place", "count"),
    ("exec.strategy.concat", "count"),
    ("exec.compiled_ms", "ms"),
    ("exec.compiled_entries", "count"),
    ("exec.compiled_fallbacks", "count"),
    ("exec.preset_ms", "ms"),
    ("exec.treewalk_self_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.latency_ms.p50", "ms"),
    ("service.latency_ms.p99", "ms"),
    ("service.busy_ms", "ms"),
    ("service.cache_hit_frac", "frac"),
    ("service.degraded", "count"),
    ("service.shed", "count"),
    ("service.parse_errors", "count"),
    ("bench.latency_ms.p99", "ms"),
    ("bench.gen_lag_ms.max", "ms"),
    ("bench.host_steal_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.failed_ops_frac", "frac"),
];

/// The full per-layer catalog: [`LAYERS`] plus the yardsticks
/// `kernel.<name>.{hybrid,treewalk,bytecode}_ms` and
/// `kernel.<name>.native_ms` for [`NATIVE_KERNELS`].
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for k in KERNELS {
        for engine in ["hybrid", "treewalk", "bytecode"] {
            out.push((format!("kernel.{k}.{engine}_ms"), "ms"));
        }
        if NATIVE_KERNELS.contains(&k) {
            out.push((format!("kernel.{k}.native_ms"), "ms"));
        }
    }
    out
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations whose output failed verification.
    pub failed: u64,
    /// Reasons the run is not correct (failed operations, a broken
    /// self-check, a workload that missed its purpose).
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Reports zero work for every per-layer metric under `prefix`: the
    /// layers this workload never reaches.
    pub fn unreached(&mut self, prefix: &str) {
        for (name, _) in per_layer_catalog() {
            if name.starts_with(prefix) {
                self.metrics.entry(name).or_insert(0.0);
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    /// Records a failed operation with its reason. Only the first few
    /// reasons are kept; the count is exact.
    pub fn fail_op(&mut self, reason: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(reason);
        }
    }

    /// The result line: the end-to-end metrics (untraced run) or the
    /// per-layer catalog (traced run). A catalog metric the run did not
    /// set is a bug in the benchmark and makes the run incorrect.
    pub fn result_line(&mut self, traced: bool) -> String {
        let catalog: Vec<(String, &str)> = if traced {
            per_layer_catalog()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite: {v}"));
                    -1.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    -1.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}
