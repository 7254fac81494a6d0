//! The wmatch repository benchmark.
//!
//! One binary, three closed-loop workloads (`paper-static`,
//! `serve-marketplace`, `churn-dense`), each generated from a seed,
//! checked for correctness before anything is timed, and reported as one
//! JSON line of named metrics with units. `--trace 1` runs the traced
//! variant instead and reports the per-layer metrics. See `README.md` in
//! this directory for the workloads, the metric → layer → workload table
//! and the timing method.

mod drivers;
mod engines;
pub mod host;
pub mod inputs;
mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, ratios).
    Higher,
    /// Smaller is better (times, counts of work).
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry: name, unit, direction.
pub type MetricSpec = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every untraced run of every
/// workload. `BENCHMARK.json` lists exactly these (a test checks it).
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("offline.solve_s", "s", Lower),
    ("stream.solve_s", "s", Lower),
    ("mpc.solve_s", "s", Lower),
    ("stream.passes", "passes", Lower),
    ("mpc.rounds", "rounds", Lower),
    ("ratio", "1", Higher),
    ("updates_per_sec", "updates/s", Higher),
    ("updates_per_sec_1t", "updates/s", Higher),
    ("commit_p99_us", "us", Lower),
    ("recourse_per_op", "changes/update", Lower),
    ("certify_s", "s", Lower),
    ("randomwalk.updates_per_sec", "updates/s", Higher),
    ("lazy.updates_per_sec", "updates/s", Higher),
    ("stale.updates_per_sec", "updates/s", Higher),
];

/// The per-layer metrics, reported by every traced run of every workload.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    ("core.rounds", "count", Lower),
    ("core.round_s", "s", Lower),
    ("core.pairs_tried", "count", Lower),
    ("core.applied_per_pair", "1", Higher),
    ("core.box_calls", "count", Lower),
    ("core.box_share", "1", Lower),
    ("core.rebuilds", "count", Lower),
    ("core.rebuild_s", "s", Lower),
    ("pool.busy_s.w0", "s", Lower),
    ("pool.busy_s.w1", "s", Lower),
    ("pool.imbalance", "1", Lower),
    ("pool.speedup", "1", Higher),
    ("pool.speedup_over_nproc", "count", Lower),
    ("pool.steals", "count", Lower),
    ("stream.pass_s", "s", Lower),
    ("stream.passes_sequential", "count", Lower),
    ("stream.peak_edges", "count", Lower),
    ("mpc.round_s", "s", Lower),
    ("mpc.rounds_sequential", "count", Lower),
    ("mpc.peak_machine_words", "count", Lower),
    ("engine.augmentations_per_op", "1", Lower),
    ("engine.scratch_high_water", "count", Lower),
    ("spec.replay_rate", "1", Higher),
    ("spec.groups_per_batch", "1", Lower),
    ("spec.inline_commits", "count", Lower),
    ("wal.snapshots", "count", Lower),
    ("wal.snapshot_batch_us", "us", Lower),
    ("wal.recover_s", "s", Lower),
    ("serve.retries", "count", Lower),
    ("serve.degraded_batches", "count", Lower),
    ("ops_failed", "count", Lower),
    ("randomwalk.hit_rate", "1", Higher),
    ("lazy.exhausted_updates", "count", Lower),
    ("stale.flushes", "count", Lower),
    ("oracle.certify_s", "s", Lower),
    ("oracle.phases", "count", Lower),
    ("oracle.relaxations", "count", Lower),
    ("api.overhead_s", "s", Lower),
    ("trace.span_coverage", "1", Higher),
    ("trace.overhead", "1", Lower),
];

/// The correctness gate: every check counts as one attempted operation,
/// and a failed check as one failed operation. Failures are kept with
/// their reason so the run can say what broke.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted (checks plus timed operations).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Records a fallible operation, keeping its value on success.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts operations that carry no check of their own (replayed
    /// updates, whose committed state is checked once per replay).
    pub fn count(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Metric values by name, filled by a workload run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in catalogue order with their
/// units. A catalogue metric the run did not set is an error — the
/// caller reports it as a failed run rather than printing a partial line.
pub fn render_result(
    gate: &Gate,
    metrics: &Metrics,
    catalogue: &[MetricSpec],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(catalogue.len());
    for &(name, unit, _) in catalogue {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        ));
    }
    if let Some(extra) = metrics
        .keys()
        .find(|k| !catalogue.iter().any(|c| c.0 == **k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.passed(),
        gate.attempted.max(1),
        gate.failed,
        body.join(", ")
    ))
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// keeps (integers print without a fraction).
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
