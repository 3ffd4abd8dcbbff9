//! The metric catalog and the result line the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, ratio, tail, valid_metric_name};

/// A metric's name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("job_p50_s", "s"),
    m("job_tail_s", "s"),
    m("work_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    m("sched.task_wakes", "count"),
    m("sched.steals", "count"),
    m("sched.steal_ratio", "1"),
    m("sched.worker_parks", "count"),
    m("sched.worker_idle_s", "s"),
    m("sched.switch_ns", "ns"),
    m("mpi.msgs", "count"),
    m("mpi.bytes", "B"),
    m("mpi.recv_parks", "count"),
    m("mpi.spin_resolved", "count"),
    m("mpi.comm_s", "s"),
    m("mpi.pingpong_ns", "ns"),
    m("red.votes", "count"),
    m("red.mismatches", "count"),
    m("red.fanout", "1"),
    m("red.masked", "count"),
    m("red.respawns", "count"),
    m("red.hash_ns_per_kb", "ns/KB"),
    m("ckpt.commits", "count"),
    m("ckpt.store_calls", "count"),
    m("ckpt.store_mb", "MB"),
    m("ckpt.store_s", "s"),
    m("ckpt.load_calls", "count"),
    m("ckpt.load_mb", "MB"),
    m("ckpt.load_s", "s"),
    m("ckpt.encode_ns_per_kb", "ns/KB"),
    m("ckpt.decode_ns_per_kb", "ns/KB"),
    m("core.attempts", "count"),
    m("core.failures", "count"),
    m("core.attempt_success_ratio", "1"),
    m("core.validate_s", "s"),
    m("apps.steps", "count"),
    m("apps.step_s", "s"),
    m("apps.serial_solve_s", "s"),
    m("telemetry.trace_events", "count"),
    m("model.eval_us", "us"),
    m("cluster.sim_us", "us"),
    m("sweep.unique", "count"),
    m("sweep.dup_collapsed", "count"),
    m("sweep.dedup_ms", "ms"),
    m("sweep.cache_open_ms", "ms"),
    m("sweep.warm_lookup_ms", "ms"),
    m("sweep.pareto_ms", "ms"),
    m("replan_p50_s", "s"),
    m("failed_ratio", "1"),
    m("bench.trace_overhead", "1"),
];

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Jobs attempted (every untraced and traced job, warm re-plans folded
    /// into their cold plan).
    pub attempted: u64,
    /// Jobs that errored or failed an output check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
    /// Worker threads the workload ran at.
    pub width: usize,
}

impl RunResult {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one attempted job and whether it failed.
    pub fn tally(&mut self, outcome: &Result<(), String>, what: &str) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}: {e}"));
        }
    }

    /// Jobs that failed over jobs attempted.
    pub fn failed_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Renders the result line over `catalog`: one JSON object with the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// A catalog metric that is missing (end-to-end only; per-layer
    /// metrics of unreached layers read 0), not finite, or badly named.
    pub fn to_json(&self, catalog: &[MetricSpec], missing_is_zero: bool) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, spec) in catalog.iter().enumerate() {
            if !valid_metric_name(spec.name) {
                return Err(format!("invalid metric name {:?}", spec.name));
            }
            let value = match self.values.get(spec.name) {
                Some(&v) => v,
                None if missing_is_zero => 0.0,
                None => return Err(format!("metric {} was not measured", spec.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", spec.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed
        ))
    }

    /// Renders the per-layer ledger of `workload`: one row per metric,
    /// grouped by the layer named before the metric's first `.`.
    pub fn ledger(&self, workload: &str) -> String {
        let mut out = format!("per-layer ledger, workload {workload} (per job unless noted)\n");
        let _ = writeln!(out, "  {:<10} {:<28} {:>16}  unit", "layer", "metric", "value");
        for spec in PER_LAYER {
            let layer = spec.name.split_once('.').map_or("end-to-end", |(l, _)| l);
            let value = self.values.get(spec.name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {layer:<10} {:<28} {value:>16.6}  {}", spec.name, spec.unit);
        }
        out
    }
}

/// Records the end-to-end metrics of an untraced run: the median set-up
/// time, the median and tail job times, work done per second of job time,
/// and the process's peak resident memory.
pub fn record_end_to_end(out: &mut RunResult, setups: &[f64], walls: &[f64], work: f64) {
    out.set("setup_s", median(setups));
    out.set("job_p50_s", median(walls));
    if let Some(t) = tail(walls) {
        out.set("job_tail_s", t.value);
        out.notes.push(format!(
            "job_tail_s is p{:.2} of {} jobs; setup_s is the median of {} set-ups",
            t.percentile,
            t.count,
            setups.len()
        ));
    }
    out.set("work_per_s", ratio(work, walls.iter().sum()));
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.notes.push("peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(spec.name), "{}", spec.name);
            assert!(seen.insert(spec.name), "duplicate metric {}", spec.name);
        }
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = doc.split_whitespace().collect();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\"", spec.name, spec.unit);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let units = compact.matches("\"unit\":").count();
        assert_eq!(units, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json lists extra metrics");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::default();
        r.tally(&Ok(()), "job 0");
        r.set("setup_s", 0.5);
        let line = r.to_json(&[m("setup_s", "s")], false).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn missing_or_non_finite_end_to_end_metric_is_an_error() {
        let mut r = RunResult::default();
        assert!(r.to_json(&[m("setup_s", "s")], false).is_err());
        assert!(r.to_json(&[m("setup_s", "s")], true).is_ok());
        r.set("setup_s", f64::NAN);
        assert!(r.to_json(&[m("setup_s", "s")], true).is_err());
    }

    #[test]
    fn a_failed_job_makes_the_run_incorrect() {
        let mut r = RunResult::default();
        r.tally(&Ok(()), "job 0");
        r.tally(&Err("x differs".into()), "job 1");
        assert_eq!(r.failed_ratio(), 0.5);
        assert!(r.to_json(&[], true).unwrap().starts_with("{\"correct\": false"));
    }
}
