//! The per-layer metrics of the traced run.
//!
//! Every workload reports every metric in [`PER_LAYER`]; a layer the
//! workload never calls reports 0. Times and counts are per timed unit
//! (one solve, one pass over the paper's datasets, one closed-loop
//! round, one sweep), so they compare directly with the untraced
//! run's `time_to_solution_s`.

use std::collections::BTreeMap;

use crate::stats::{percentile, Better, Metric};
use crate::trace::Trace;

/// Name, unit and direction of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("runner.self_s", "s", Better::Lower),
    ("runner.useful_step_ratio", "1", Better::Higher),
    ("runner.checkpoints", "count", Better::Lower),
    ("strategy.decide_s", "s", Better::Lower),
    ("strategy.decide_calls", "count", Better::Lower),
    ("strategy.switches", "count", Better::Lower),
    ("strategy.rollbacks", "count", Better::Lower),
    ("method.step_s", "s", Better::Lower),
    ("method.step_self_s", "s", Better::Lower),
    ("method.monitor_s", "s", Better::Lower),
    ("method.monitor_calls", "count", Better::Lower),
    ("operator.apply_s", "s", Better::Lower),
    ("operator.apply_calls", "count", Better::Lower),
    ("operator.apply_exact_s", "s", Better::Lower),
    ("operator.apply_exact_calls", "count", Better::Lower),
    ("kernel.spmv_s", "s", Better::Lower),
    ("kernel.spmv_nnz", "count", Better::Lower),
    ("kernel.spmv_bytes_computed", "bytes", Better::Lower),
    ("kernel.reduce_s", "s", Better::Lower),
    ("kernel.reduce_elems", "count", Better::Lower),
    ("kernel.elementwise_s", "s", Better::Lower),
    ("kernel.elementwise_elems", "count", Better::Lower),
    ("kernel.matvec_s", "s", Better::Lower),
    ("kernel.matvec_macs", "count", Better::Lower),
    ("kernel.scalar_ops", "count", Better::Lower),
    ("ctx.adds", "count", Better::Lower),
    ("ctx.muls", "count", Better::Lower),
    ("ctx.divs", "count", Better::Lower),
    ("convert.ns_per_elem", "ns", Better::Lower),
    ("parx.threads", "count", Better::Higher),
    ("parx.kernel_speedup_1t", "x", Better::Higher),
    ("parx.sweep_speedup_1t", "x", Better::Higher),
    ("parx.busy_frac", "1", Better::Higher),
    ("service.attempts", "count", Better::Lower),
    ("service.retries", "count", Better::Lower),
    ("service.reroutes", "count", Better::Lower),
    ("service.breaker_trips", "count", Better::Lower),
    ("service.shed", "count", Better::Lower),
    ("service.degraded", "count", Better::Lower),
    ("service.useful_attempt_ratio", "1", Better::Higher),
    ("service.attempt_p50_ms", "ms", Better::Lower),
    ("service.attempt_p95_ms", "ms", Better::Lower),
    ("characterize.s", "s", Better::Lower),
    ("characterize.steps", "count", Better::Lower),
    ("gatesim.sweep_s", "s", Better::Lower),
    ("gatesim.profile_s", "s", Better::Lower),
    ("trace.overhead_frac", "1", Better::Lower),
];

/// Per-layer values a workload measures itself (from reports or direct
/// timed calls) rather than from spans.
#[derive(Debug, Default)]
pub struct Extras(BTreeMap<&'static str, f64>);

impl Extras {
    /// # Panics
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// Attempt-span percentile in milliseconds (0 without attempts).
fn attempt_ms(trace: &Trace, p: f64) -> f64 {
    match trace.durations.get("service.attempt") {
        Some(d) if !d.is_empty() => {
            let ms: Vec<f64> = d.iter().map(|&ns| ns as f64 * 1e-6).collect();
            percentile(&ms, p)
        }
        _ => 0.0,
    }
}

/// The value of a span-derived metric, or `None` for a workload extra.
fn from_trace(name: &str, trace: &Trace, threads: usize) -> Option<f64> {
    let s = |n: &str| trace.stat(n);
    let c = |n: &str| trace.counter(n) as f64;
    Some(match name {
        "runner.self_s" => s("run").self_s() + s("service.attempt").self_s(),
        "strategy.decide_s" => s("strategy.decide").total_s(),
        "strategy.decide_calls" => s("strategy.decide").calls as f64,
        "strategy.switches" => c("strategy.switches"),
        "strategy.rollbacks" => c("strategy.rollbacks"),
        "method.step_s" => s("method.step").total_s(),
        "method.step_self_s" => s("method.step").self_s(),
        "method.monitor_s" => s("method.monitor").total_s(),
        "method.monitor_calls" => s("method.monitor").calls as f64,
        "operator.apply_s" => s("operator.apply").total_s(),
        "operator.apply_calls" => s("operator.apply").calls as f64,
        "operator.apply_exact_s" => s("operator.apply_exact").total_s(),
        "operator.apply_exact_calls" => s("operator.apply_exact").calls as f64,
        "kernel.spmv_s" => s("kernel.spmv").total_s(),
        "kernel.spmv_nnz" => c("kernel.spmv_nnz"),
        "kernel.spmv_bytes_computed" => c("kernel.spmv_bytes_computed"),
        "kernel.reduce_s" => s("kernel.reduce").total_s(),
        "kernel.reduce_elems" => c("kernel.reduce_elems"),
        "kernel.elementwise_s" => s("kernel.elementwise").total_s(),
        "kernel.elementwise_elems" => c("kernel.elementwise_elems"),
        "kernel.matvec_s" => s("kernel.matvec").total_s(),
        "kernel.matvec_macs" => c("kernel.matvec_macs"),
        "kernel.scalar_ops" => c("kernel.scalar_ops"),
        "parx.busy_frac" => {
            let drain = s("service.drain").total_s() * threads as f64;
            if drain > 0.0 {
                s("service.attempt").total_s() / drain
            } else {
                0.0
            }
        }
        _ => return None,
    })
}

/// Metrics that are ratios or percentiles, not per-unit totals.
fn is_intensive(name: &str) -> bool {
    name.ends_with("_ratio")
        || name.ends_with("_frac")
        || name.ends_with("_ms")
        || name.ends_with("_1t")
        || name == "parx.threads"
        || name == "convert.ns_per_elem"
}

/// Every per-layer metric for a traced run of `units` timed units.
pub fn collect(trace: &Trace, units: f64, threads: usize, extras: &Extras) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            let value = if let Some(v) = extras.0.get(name) {
                *v
            } else if name.starts_with("service.attempt_p") {
                attempt_ms(trace, if name.ends_with("p50_ms") { 50.0 } else { 95.0 })
            } else if let Some(v) = from_trace(name, trace, threads) {
                if is_intensive(name) {
                    v
                } else {
                    v / units
                }
            } else {
                0.0
            };
            Metric::one(name, unit, better, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn span_totals_are_divided_per_unit() {
        let trace = Trace::default();
        let mut extras = Extras::default();
        extras.set("parx.threads", 2.0);
        let metrics = collect(&trace, 4.0, 2, &extras);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value();
        assert_eq!(get("parx.threads"), 2.0);
        assert_eq!(get("kernel.spmv_s"), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn extras_reject_unknown_names() {
        Extras::default().set("no.such_metric", 1.0);
    }
}
