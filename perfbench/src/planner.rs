//! The planner workload: cold capacity plans of the Figures 9–14 grid,
//! each from a fresh on-disk result cache, followed by warm re-plans from
//! that cache.

use std::path::{Path, PathBuf};

use redcr_bench::sweepbench::{grid, SweepPreset};
use redcr_sweep::{
    dedup, frontier, grouped_frontiers, run_sweep, Backend, GroupFrontier, ParetoPoint,
    ResultCache, ScenarioResult, ScenarioSpec, SweepReport,
};

use crate::clock::{timed, Stopwatch};
use crate::report::RunResult;
use crate::stats::{median, ratio};
use crate::{job_seed, run_untraced, splitmix64, Size, TRACED_SHARE, WARMUP};

/// Warm re-plans after each cold plan.
pub const REPLANS: usize = 3;

/// A directory under the working directory, removed with everything in
/// it when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.perfbench-tmp/<name>-<pid>` under the working directory.
    ///
    /// # Errors
    ///
    /// The directory could not be created.
    pub fn new(name: &str) -> Result<TempDir, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let path = cwd.join(".perfbench-tmp").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the shared parent only once no other run is using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One capacity plan: the sweep report and its Pareto frontiers.
#[derive(Debug)]
struct Plan {
    report: SweepReport,
    front: Vec<ParetoPoint>,
    groups: Vec<GroupFrontier>,
}

/// Opens the cache at `path`, runs the batch and computes the frontiers:
/// what a planner invocation does.
fn plan(specs: &[ScenarioSpec], path: &Path, threads: usize) -> Result<Plan, String> {
    let mut cache = ResultCache::open(path).map_err(|e| format!("open cache: {e}"))?;
    let report = run_sweep(specs, threads, &mut cache).map_err(|e| format!("sweep: {e}"))?;
    let front = frontier(&report.entries);
    let groups = grouped_frontiers(&report.entries);
    Ok(Plan { report, front, groups })
}

/// A set-up planner workload.
#[derive(Debug)]
pub struct PlannerBench {
    size: Size,
    seed: u64,
    threads: usize,
    dir: TempDir,
}

/// `(hash, multiplicity, result)` of every entry of a sweep report.
type EntryKeys = Vec<(u64, usize, ScenarioResult)>;

/// What one job measured.
#[derive(Debug)]
struct Job {
    cold_s: f64,
    replans_s: Vec<f64>,
    unique: usize,
    /// The cold plan's entries, for the traced run to reproduce.
    entries: EntryKeys,
}

impl PlannerBench {
    /// Creates the temp dir and runs one untimed cold plan with its warm
    /// re-plans.
    ///
    /// # Errors
    ///
    /// The warm-up job failed.
    pub fn setup(size: Size, seed: u64) -> Result<PlannerBench, String> {
        let bench = PlannerBench {
            size,
            seed,
            threads: redcr_bench::worker_threads(),
            dir: TempDir::new("planner")?,
        };
        bench.run_job(WARMUP)?;
        Ok(bench)
    }

    /// The grid of job `index`: every distinct MTBF scaled by a factor in
    /// [0.95, 1.05) drawn from the job seed, so scenarios that share an
    /// MTBF still share it and the grid's duplicates still collapse.
    fn specs(&self, index: u64) -> Vec<ScenarioSpec> {
        let preset = match self.size {
            Size::Full => SweepPreset::Fig9_14,
            Size::Smoke => SweepPreset::Smoke,
        };
        let js = job_seed(self.seed, index);
        let mut specs = grid(preset);
        for s in &mut specs {
            let u =
                (splitmix64(js ^ s.node_mtbf_hours.to_bits()) >> 11) as f64 / (1u64 << 53) as f64;
            s.node_mtbf_hours *= 0.95 + 0.1 * u;
        }
        specs
    }

    fn cache_path(&self, index: u64) -> PathBuf {
        self.dir.path().join(format!("plan-{index}.jsonl"))
    }

    /// Job `index`: a cold plan into a fresh cache, then [`REPLANS`] warm
    /// re-plans from it, each checked against the cold plan.
    fn run_job(&self, index: u64) -> Result<Job, String> {
        let specs = self.specs(index);
        let path = self.cache_path(index);
        let _ = std::fs::remove_file(&path);
        let out = (|| {
            let (cold, cold_s) = timed(|| plan(&specs, &path, self.threads));
            let cold = cold?;
            check_cold(&cold.report)?;
            let mut replans_s = Vec::with_capacity(REPLANS);
            for _ in 0..REPLANS {
                let (warm, secs) = timed(|| plan(&specs, &path, self.threads));
                check_warm(&cold, &warm?)?;
                replans_s.push(secs);
            }
            Ok(Job {
                cold_s,
                replans_s,
                unique: cold.report.stats.unique,
                entries: entry_keys(&cold.report),
            })
        })();
        let _ = std::fs::remove_file(&path);
        out
    }

    /// The traced twin of job `index`: the sweep's stages as separate
    /// timed calls. Returns the summed stage time and records the stages
    /// into `stages`.
    fn run_staged(&self, index: u64, stages: &mut Stages) -> Result<(f64, EntryKeys), String> {
        let specs = self.specs(index);
        let path = self.cache_path(index);
        let _ = std::fs::remove_file(&path);
        let out = (|| {
            let (batch, dedup_s) = timed(|| dedup(&specs));
            let of = |b: Backend| -> Vec<ScenarioSpec> {
                batch.unique.iter().filter(|s| s.backend == b).copied().collect()
            };
            let (model, sim) = (of(Backend::Model), of(Backend::Simulator));
            let mut cache = ResultCache::open(&path).map_err(|e| format!("open cache: {e}"))?;
            let (m, model_s) = timed(|| run_sweep(&model, self.threads, &mut cache));
            m.map_err(|e| format!("model sweep: {e}"))?;
            let (s, sim_s) = timed(|| run_sweep(&sim, self.threads, &mut cache));
            s.map_err(|e| format!("simulator sweep: {e}"))?;
            drop(cache);
            let (reopened, open_s) = timed(|| ResultCache::open(&path));
            let mut cache = reopened.map_err(|e| format!("reopen cache: {e}"))?;
            let (full, lookup_s) = timed(|| run_sweep(&specs, self.threads, &mut cache));
            let full = full.map_err(|e| format!("warm sweep: {e}"))?;
            if !full.stats.all_warm() {
                return Err(format!(
                    "{} staged scenarios missed the cache",
                    full.stats.cold_misses
                ));
            }
            let ((front, groups), pareto_s) =
                timed(|| (frontier(&full.entries), grouped_frontiers(&full.entries)));
            std::hint::black_box((&front, &groups));
            let sim_jobs: u64 = sim.iter().map(|s| u64::from(s.seeds)).sum();
            stages.jobs += 1;
            stages.unique += full.stats.unique as f64;
            stages.dup_collapsed += (full.stats.submitted - full.stats.unique) as f64;
            stages.dedup_s += dedup_s;
            stages.model_us += ratio(model_s * 1e6, model.len() as f64);
            stages.sim_us += ratio(sim_s * 1e6, sim_jobs as f64);
            stages.open_s += open_s;
            stages.lookup_s += lookup_s;
            stages.pareto_s += pareto_s;
            let wall = dedup_s + model_s + sim_s + lookup_s + pareto_s;
            Ok((wall, entry_keys(&full)))
        })();
        let _ = std::fs::remove_file(&path);
        out
    }
}

/// Stage timings summed over the traced jobs.
#[derive(Debug, Default)]
struct Stages {
    jobs: u64,
    unique: f64,
    dup_collapsed: f64,
    dedup_s: f64,
    model_us: f64,
    sim_us: f64,
    open_s: f64,
    lookup_s: f64,
    pareto_s: f64,
}

fn entry_keys(report: &SweepReport) -> EntryKeys {
    report.entries.iter().map(|e| (e.hash, e.multiplicity, e.result)).collect()
}

/// Bit-level equality of two results (`==` would let `-0.0` match `0.0`).
fn same_result(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    let bits = |r: &ScenarioResult| {
        [
            r.total_time_hours.map(f64::to_bits),
            r.node_hours.map(f64::to_bits),
            Some(r.completion_rate.to_bits()),
            Some(r.mean_failures.to_bits()),
            Some(r.mean_masked_failures.to_bits()),
            Some(r.mean_checkpoints.to_bits()),
            Some(r.mean_attempts.to_bits()),
        ]
    };
    bits(a) == bits(b)
}

fn same_entries(a: &[(u64, usize, ScenarioResult)], b: &[(u64, usize, ScenarioResult)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1 == y.1 && same_result(&x.2, &y.2))
}

/// A cold plan must evaluate every unique scenario and every result must
/// be finite and in range.
fn check_cold(report: &SweepReport) -> Result<(), String> {
    let s = &report.stats;
    if s.cold_misses != s.unique || s.cache_hits != 0 {
        return Err(format!(
            "cold plan: {} hits, {} misses of {}",
            s.cache_hits, s.cold_misses, s.unique
        ));
    }
    for e in &report.entries {
        check_result(&e.result).map_err(|why| format!("scenario {:016x}: {why}", e.hash))?;
    }
    Ok(())
}

/// Whether a result is finite and in range: rates in [0, 1], means
/// non-negative, and times positive exactly when some run completed.
pub fn check_result(r: &ScenarioResult) -> Result<(), String> {
    let means = [r.mean_failures, r.mean_masked_failures, r.mean_checkpoints, r.mean_attempts];
    if !(0.0..=1.0).contains(&r.completion_rate) {
        return Err(format!("completion rate {}", r.completion_rate));
    }
    if means.iter().any(|m| !m.is_finite() || *m < 0.0) {
        return Err(format!("means {means:?}"));
    }
    match (r.total_time_hours, r.node_hours) {
        (Some(t), Some(h)) if t.is_finite() && h.is_finite() && t > 0.0 && h >= t => Ok(()),
        (None, None) if r.completion_rate == 0.0 => Ok(()),
        (t, h) => Err(format!("time {t:?} h, {h:?} node-h at completion {}", r.completion_rate)),
    }
}

/// A warm re-plan must hit the cache for every scenario and reproduce the
/// cold plan's entries and frontiers exactly.
fn check_warm(cold: &Plan, warm: &Plan) -> Result<(), String> {
    let s = &warm.report.stats;
    if s.cold_misses != 0 || s.cache_hits != s.unique {
        return Err(format!(
            "warm re-plan: {} hits, {} misses of {}",
            s.cache_hits, s.cold_misses, s.unique
        ));
    }
    if !same_entries(&entry_keys(&cold.report), &entry_keys(&warm.report)) {
        return Err("warm re-plan entries differ from the cold plan's".into());
    }
    if warm.front != cold.front || warm.groups != cold.groups {
        return Err("warm re-plan frontiers differ from the cold plan's".into());
    }
    Ok(())
}

/// Runs the planner workload for `seconds` and returns its end-to-end
/// metrics or, with `trace`, its per-layer ledger.
///
/// # Errors
///
/// The traced run's set-up failed, so no job could be judged.
pub fn run(size: Size, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let width = redcr_bench::worker_threads();
    if !trace {
        let setup = || PlannerBench::setup(size, seed);
        let mut out = run_untraced(seconds, setup, |bench, index, sample| {
            let job = bench.run_job(index)?;
            sample.walls.push(job.cold_s);
            sample.work += job.unique as f64;
            Ok(())
        });
        out.width = width;
        return Ok(out);
    }

    let mut out = RunResult { width, ..RunResult::default() };
    let bench = PlannerBench::setup(size, seed)?;
    let sw = Stopwatch::start();
    let (mut plain, mut replans, mut entries) = (Vec::new(), Vec::new(), Vec::new());
    let mut index = 0;
    while index < crate::MIN_JOBS || sw.secs() < seconds * TRACED_SHARE {
        let outcome = bench.run_job(index).map(|job| {
            plain.push(job.cold_s);
            replans.extend(job.replans_s);
            entries.push(Some(job.entries));
        });
        if outcome.is_err() {
            entries.push(None);
        }
        out.tally(&outcome, &format!("untraced plan {index}"));
        index += 1;
    }
    let mut stages = Stages::default();
    let mut traced = Vec::new();
    for (i, want) in entries.iter().enumerate() {
        let outcome = bench.run_staged(i as u64, &mut stages).and_then(|(wall, got)| {
            traced.push(wall);
            match want {
                Some(want) if same_entries(want, &got) => Ok(()),
                _ => Err("staged plan differs from the untraced cold plan".into()),
            }
        });
        out.tally(&outcome, &format!("traced plan {i}"));
    }
    let jobs = stages.jobs.max(1) as f64;
    out.set("model.eval_us", stages.model_us / jobs);
    out.set("cluster.sim_us", stages.sim_us / jobs);
    out.set("sweep.unique", stages.unique / jobs);
    out.set("sweep.dup_collapsed", stages.dup_collapsed / jobs);
    out.set("sweep.dedup_ms", stages.dedup_s * 1e3 / jobs);
    out.set("sweep.cache_open_ms", stages.open_s * 1e3 / jobs);
    out.set("sweep.warm_lookup_ms", stages.lookup_s * 1e3 / jobs);
    out.set("sweep.pareto_ms", stages.pareto_s * 1e3 / jobs);
    out.set("replan_p50_s", median(&replans));
    out.set("bench.trace_overhead", ratio(median(&traced), median(&plain)));
    out.set("failed_ratio", out.failed_ratio());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_planner_passes_every_check() {
        for trace in [false, true] {
            let r = run(Size::Smoke, 4, 0.0, trace).unwrap();
            assert_eq!(r.failed, 0, "trace={trace}: {:?}", r.notes);
        }
    }

    #[test]
    fn out_of_range_results_are_rejected() {
        let good = ScenarioResult {
            total_time_hours: Some(2.0),
            node_hours: Some(256.0),
            completion_rate: 1.0,
            mean_failures: 0.5,
            mean_masked_failures: 1.5,
            mean_checkpoints: 10.0,
            mean_attempts: 1.5,
        };
        assert!(check_result(&good).is_ok());
        for bad in [
            ScenarioResult { completion_rate: 1.5, ..good },
            ScenarioResult { mean_failures: f64::NAN, ..good },
            ScenarioResult { total_time_hours: Some(f64::INFINITY), ..good },
            ScenarioResult { total_time_hours: None, ..good },
        ] {
            assert!(check_result(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let dir = TempDir::new("test-drop").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }
}
