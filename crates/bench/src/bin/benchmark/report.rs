//! The metric registry and what one workload run hands back.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one, untraced.
/// Names, units and directions match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("exact_share", "share"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs. A layer a workload never
/// enters reads 0 there (emulation bypasses the memo cache and the
/// server, for instance).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.lag_ms.p99", "ms"),
    ("server.exchange_ms.p50", "ms"),
    ("server.service_ms.p50", "ms"),
    ("server.service_ms.p99", "ms"),
    ("server.outside_ms.p50", "ms"),
    ("server.outside_ms.p99", "ms"),
    ("server.coalesce_share", "share"),
    ("server.batch_fanout_mean", "count"),
    ("server.shed_share", "share"),
    ("server.max_rps", "1/s"),
    ("server.probe_p99_ms.at_max", "ms"),
    ("server.probe_p99_ms.first_fail", "ms"),
    ("server.engine_share.lumped", "share"),
    ("server.engine_share.exact", "share"),
    ("server.engine_share.monte_carlo", "share"),
    ("server.engine_share.hybrid", "share"),
    ("server.cache_hit_ratio", "share"),
    ("server.strata_hit_ratio", "share"),
    ("cascade.call_ms.lumped.p50", "ms"),
    ("cascade.call_ms.exact.p50", "ms"),
    ("cascade.call_ms.hybrid.p50", "ms"),
    ("cascade.overhead_ms.p50", "ms"),
    ("lumped.reject_ms.p50", "ms"),
    ("lumped.reject_share", "share"),
    ("measure.pooled_ms.p50", "ms"),
    ("measure.entries", "count"),
    ("measure.ns_per_entry", "ns"),
    ("measure.sequential_ms", "ms"),
    ("pool.steals", "count"),
    ("pool.failed_steals", "count"),
    ("pool.splits", "count"),
    ("pool.pooled_depth_share", "share"),
    ("cache.hit_ratio", "share"),
    ("cache.self_evictions", "count"),
    ("cache.transition_entries", "count"),
    ("strata.deposits", "count"),
    ("strata.hits", "count"),
    ("strata.misses", "count"),
    ("strata.evictions", "count"),
    ("strata.bytes", "bytes"),
    ("strata.resume_share", "share"),
    ("strata.lookup_us.p50", "us"),
    ("sample.samples", "count"),
    ("sample.hybrid_ms.p50", "ms"),
    ("intern.of_ns", "ns"),
    ("cache.successors_ns", "ns"),
    ("prob.ratio_add_ns", "ns"),
    ("prob.ratio_mul_ns", "ns"),
    ("secure.check_ms.otp.p50", "ms"),
    ("secure.check_ms.leaky.p50", "ms"),
    ("secure.check_ms.compose1.p50", "ms"),
    ("secure.check_ms.compose2.p50", "ms"),
    ("secure.check_ms.compose3.p50", "ms"),
    ("secure.pairs_checked", "count"),
    ("sched.schema_members_ms", "ms"),
    ("insight.f_dist_ms", "ms"),
    ("insight.observe_ms", "ms"),
    ("prob.tv_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// How much work a run does. Run length is a number of operations set
/// from `--seconds` and a fixed nominal rate per workload, so the parent
/// and a change measure the same work.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    /// `--quick`: ten times fewer operations, results not comparable.
    pub quick: bool,
}

impl Params {
    /// Operations for a workload whose nominal rate is `per_second`.
    pub fn ops(&self, per_second: f64) -> usize {
        let n = (per_second * self.seconds as f64).round() as usize;
        if self.quick {
            (n / 10).max(1)
        } else {
            n.max(1)
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures, each naming the answer that was wrong.
    pub wrong: Vec<String>,
    /// Measured values by metric name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the latency metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Conditions under which the run must not be compared.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
