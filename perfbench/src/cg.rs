//! The two runtime workloads: batches of resilient CG jobs on the
//! executor, failure-free at r = 3 (`cg_vote`) or under Poisson node
//! failures at r = 1.5 with checkpointing, self-healing and telemetry on
//! (`cg_faults`).

use std::sync::Arc;

use redcr_apps::cg::{CgConfig, CgState};
use redcr_core::apps::CgApp;
use redcr_core::{ExecutionReport, ExecutorConfig, ModelValidation, ResilientExecutor};
use redcr_mpi::prof::{CounterKey, SpanKey};
use redcr_mpi::trace::Analysis;
use redcr_mpi::CostModel;
use redcr_red::HealPolicy;
use redcr_sched::PoolConfig;

use crate::clock::{timed, Stopwatch};
use crate::layers::{Ledger, TimedApp, TimedStorage};
use crate::report::RunResult;
use crate::stats::{median, ratio};
use crate::watchdog::{guarded, hung};
use crate::{job_seed, probes, run_untraced, splitmix64, Size, TRACED_SHARE, WARMUP};

/// Largest difference allowed between a job's solution and the
/// failure-free reference, the bound the executor's own
/// restart-transparency test uses.
pub const SOLUTION_TOLERANCE: f64 = 1e-12;

/// Which CG workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Failure-free r = 3 jobs with all-to-all voting: the message, vote
    /// and context-switch path.
    Vote,
    /// r = 1.5 jobs under node failures: checkpoint store and load,
    /// restarts, heals, trace analysis and model validation.
    Faults,
}

/// The job shape of a workload at a size.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n_virtual: u64,
    degree: f64,
    n: usize,
    iterations: u64,
    step_pad: f64,
    node_mtbf: f64,
}

impl Shape {
    fn of(kind: Kind, size: Size) -> Shape {
        let (n, iterations) = match (kind, size) {
            (Kind::Vote, Size::Full) => (256, 200),
            (Kind::Vote, Size::Smoke) => (64, 20),
            (Kind::Faults, Size::Full) => (32_768, 100),
            (Kind::Faults, Size::Smoke) => (1_024, 30),
        };
        match kind {
            Kind::Vote => Shape {
                n_virtual: 8,
                degree: 3.0,
                n,
                iterations,
                step_pad: 0.0,
                node_mtbf: f64::INFINITY,
            },
            // One virtual second of padding per step against one
            // checkpoint per virtual second: a checkpoint about once per
            // step, and with 12 physical ranks about four node deaths per
            // 100-step job.
            Kind::Faults => Shape {
                n_virtual: 8,
                degree: 1.5,
                n,
                iterations,
                step_pad: 1.0,
                node_mtbf: match size {
                    Size::Full => 300.0,
                    Size::Smoke => 60.0,
                },
            },
        }
    }

    fn n_physical(&self) -> usize {
        (self.n_virtual as f64 * self.degree).ceil() as usize
    }

    /// Scheduler worker threads one job's world resolves to.
    fn width(&self) -> usize {
        PoolConfig::resolve(None, self.n_physical()).workers
    }

    /// Bytes of one rank's block of a CG vector: the payload of the
    /// allgather every step votes on.
    fn block_bytes(&self) -> usize {
        self.n / self.n_virtual as usize * 8
    }
}

/// A set-up CG workload: the application and its failure-free reference.
#[derive(Debug)]
pub struct CgBench {
    kind: Kind,
    shape: Shape,
    seed: u64,
    app: Arc<CgApp>,
    reference: Vec<CgState>,
}

/// One finished executor run.
#[derive(Debug)]
struct Job {
    wall_s: f64,
    report: ExecutionReport<CgState>,
    /// Wall time of `ModelValidation::from_run` (`cg_faults` only).
    validate_s: f64,
}

/// The report fields a traced run must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Identity {
    virtual_time_bits: u64,
    messages: u64,
    bytes: u64,
    attempts: u64,
    failures: u64,
    masked: u64,
    checkpoints: u64,
    respawns: u64,
}

impl Identity {
    fn of(r: &ExecutionReport<CgState>) -> Identity {
        Identity {
            virtual_time_bits: r.total_virtual_time.to_bits(),
            messages: r.physical_messages,
            bytes: r.physical_bytes,
            attempts: r.attempts,
            failures: r.failures,
            masked: r.masked_failures,
            checkpoints: r.checkpoints_committed,
            respawns: r.respawns,
        }
    }
}

impl CgBench {
    /// Builds the matrix from `seed`, solves the failure-free reference at
    /// r = 1, and runs and checks one untimed warm-up job.
    ///
    /// # Errors
    ///
    /// The reference solve or the warm-up job failed.
    pub fn setup(kind: Kind, size: Size, seed: u64) -> Result<CgBench, String> {
        let shape = Shape::of(kind, size);
        let config = CgConfig { seed: splitmix64(seed), ..CgConfig::small(shape.n) };
        let app = CgApp::new(config, shape.iterations).with_step_pad(shape.step_pad);
        let reference = ResilientExecutor::new(ExecutorConfig::new(shape.n_virtual, 1.0))
            .run(&app)
            .map_err(|e| format!("reference solve: {e}"))?
            .final_states;
        if reference.iter().any(|s| !s.rho.is_finite() || s.x.iter().any(|v| !v.is_finite())) {
            return Err("reference solve produced a non-finite state".into());
        }
        let bench = CgBench { kind, shape, seed, app: Arc::new(app), reference };
        let warm = bench.run_job(WARMUP, None)?;
        bench.check(&warm.report)?;
        Ok(bench)
    }

    fn config(&self, index: u64) -> ExecutorConfig {
        let base = ExecutorConfig::new(self.shape.n_virtual, self.shape.degree)
            .comm_cost(CostModel::infiniband_qdr())
            .seed(job_seed(self.seed, index));
        match self.kind {
            // A job takes a few hundredths of a virtual second, so it ends
            // long before its first checkpoint.
            Kind::Vote => base.checkpoint_interval(10.0).checkpoint_cost(0.5).restart_cost(2.0),
            Kind::Faults => base
                .node_mtbf(self.shape.node_mtbf)
                .checkpoint_interval(1.0)
                .checkpoint_cost(0.1)
                .restart_cost(1.0)
                .tracing(true)
                .metrics(true)
                .heal_policy(HealPolicy::OnDegrade)
                .heartbeat_period(0.5)
                .suspicion_timeout(0.5)
                .respawn_cost(0.5)
                .transfer_cost_per_byte(1e-8),
        }
    }

    /// Runs job `index` under the watchdog; with a ledger, through the
    /// layer wrappers and with profiling on.
    fn run_job(&self, index: u64, ledger: Option<&Arc<Ledger>>) -> Result<Job, String> {
        let cfg = self.config(index);
        let (app, ledger, job_cfg) = (Arc::clone(&self.app), ledger.cloned(), cfg.clone());
        let (report, wall_s) = guarded(move || {
            let (report, wall_s) = match ledger {
                None => timed(|| ResilientExecutor::new(job_cfg).run(&*app)),
                Some(ledger) => {
                    let storage = Arc::new(TimedStorage::new(Arc::clone(&ledger)));
                    let exec = ResilientExecutor::with_storage(job_cfg.profiling(true), storage);
                    let app = TimedApp::new(&*app, &ledger);
                    timed(|| exec.run(&app))
                }
            };
            (report.map_err(|e| format!("executor: {e}")), wall_s)
        })
        .map_err(|e| format!("{e} (executor seed {})", job_seed(self.seed, index)))?;
        let report = report?;
        let mut validate_s = 0.0;
        if self.kind == Kind::Faults {
            let (validation, secs) = timed(|| ModelValidation::from_run(&cfg, &report));
            validation.map_err(|e| format!("model validation: {e}"))?;
            validate_s = secs;
        }
        Ok(Job { wall_s, report, validate_s })
    }

    /// Checks a job's outputs: every rank's solution against the reference
    /// and, with the flight recorder on, the trace-derived totals against
    /// the report.
    ///
    /// # Errors
    ///
    /// The first output that differs.
    pub fn check(&self, report: &ExecutionReport<CgState>) -> Result<(), String> {
        check_solution(&self.reference, &report.final_states)?;
        if self.kind == Kind::Faults {
            let trace = report.trace.as_ref().ok_or("flight recorder produced no trace")?;
            let totals = Analysis::analyze(trace).map_err(|e| format!("trace: {e}"))?.totals();
            let derived = [
                totals.attempts,
                totals.failures,
                totals.masked_failures,
                totals.checkpoints_committed,
                totals.respawns,
            ];
            let reported = [
                report.attempts,
                report.failures,
                report.masked_failures,
                report.checkpoints_committed,
                report.respawns,
            ];
            if derived != reported {
                return Err(format!(
                    "trace totals {derived:?} differ from the report's {reported:?} \
                     (attempts, failures, masked, checkpoints, respawns)"
                ));
            }
        }
        Ok(())
    }
}

/// Compares every rank's final state with the reference's.
///
/// # Errors
///
/// A rank count, iteration count or solution element that differs by more
/// than [`SOLUTION_TOLERANCE`] (a non-finite element always differs).
pub fn check_solution(reference: &[CgState], got: &[CgState]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!("{} final states, expected {}", got.len(), reference.len()));
    }
    for (rank, (want, have)) in reference.iter().zip(got).enumerate() {
        if have.iteration != want.iteration || have.x.len() != want.x.len() {
            return Err(format!(
                "rank {rank}: iteration {} with {} elements, expected {} with {}",
                have.iteration,
                have.x.len(),
                want.iteration,
                want.x.len()
            ));
        }
        for (i, (a, b)) in want.x.iter().zip(&have.x).enumerate() {
            let close = (a - b).abs() <= SOLUTION_TOLERANCE;
            if !close {
                return Err(format!("rank {rank}: x[{i}] = {b}, reference {a}"));
            }
        }
    }
    Ok(())
}

/// Runs a CG workload for `seconds` and returns its end-to-end metrics or,
/// with `trace`, its per-layer ledger.
///
/// # Errors
///
/// The traced run's set-up failed, so no job could be judged.
pub fn run(
    kind: Kind,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let shape = Shape::of(kind, size);
    if !trace {
        let setup = || CgBench::setup(kind, size, seed);
        let mut out = run_untraced(seconds, setup, |bench, index, sample| {
            let job = bench.run_job(index, None)?;
            sample.walls.push(job.wall_s);
            sample.work += job.report.physical_messages as f64;
            bench.check(&job.report)
        });
        out.width = shape.width();
        return Ok(out);
    }

    let mut out = RunResult { width: shape.width(), ..RunResult::default() };
    let bench = CgBench::setup(kind, size, seed)?;
    // Untraced pass: the reference timings and identities.
    let sw = Stopwatch::start();
    let (mut plain, mut identities) = (Vec::new(), Vec::new());
    let mut index = 0;
    while !hung() && (index < crate::MIN_JOBS || sw.secs() < seconds * TRACED_SHARE) {
        let job = bench.run_job(index, None);
        identities.push(job.as_ref().ok().map(|j| Identity::of(&j.report)));
        let outcome = job.and_then(|job| {
            plain.push(job.wall_s);
            bench.check(&job.report)
        });
        out.tally(&outcome, &format!("untraced job {index}"));
        index += 1;
    }

    // Traced pass: the same jobs through the wrappers, with profiling on.
    let ledger = Arc::new(Ledger::default());
    let mut sums = ReportSums::default();
    let mut traced = Vec::new();
    let mut last_states = Vec::new();
    for (i, want) in identities.iter().enumerate() {
        if hung() {
            break;
        }
        let outcome = bench.run_job(i as u64, Some(&ledger)).and_then(|job| {
            traced.push(job.wall_s);
            sums.add(&job);
            let got = Some(Identity::of(&job.report));
            if got != *want {
                return Err(format!("traced report {got:?} differs from untraced {want:?}"));
            }
            bench.check(&job.report)?;
            last_states = job.report.final_states;
            Ok(())
        });
        out.tally(&outcome, &format!("traced job {i}"));
    }

    let jobs = traced.len().max(1) as f64;
    sums.record(&mut out, jobs);
    let get = |c: &std::sync::atomic::AtomicU64| Ledger::get(c) as f64;
    out.set("mpi.comm_s", get(&ledger.comm_ns) / 1e9 / jobs);
    out.set("apps.steps", get(&ledger.steps) / jobs);
    out.set("apps.step_s", (get(&ledger.step_ns) - get(&ledger.step_comm_ns)) / 1e9 / jobs);
    out.set("ckpt.store_calls", get(&ledger.store_calls) / jobs);
    out.set("ckpt.store_mb", get(&ledger.store_bytes) / 1e6 / jobs);
    out.set("ckpt.store_s", get(&ledger.store_ns) / 1e9 / jobs);
    out.set("ckpt.load_calls", get(&ledger.load_calls) / jobs);
    out.set("ckpt.load_mb", get(&ledger.load_bytes) / 1e6 / jobs);
    out.set("ckpt.load_s", get(&ledger.load_ns) / 1e9 / jobs);
    out.set("bench.trace_overhead", ratio(median(&traced), median(&plain)));
    out.notes.push(format!(
        "{} jobs traced; mpi.comm_s and apps.step_s sum wall time over each job's {} rank tasks",
        traced.len(),
        bench.shape.n_physical()
    ));

    let probe_scale = match size {
        Size::Full => 1,
        Size::Smoke => 100,
    };
    let probed = (|| -> Result<(), String> {
        out.set("sched.switch_ns", probes::switch_ns(20_000 / probe_scale)?);
        out.set("mpi.pingpong_ns", probes::pingpong_ns(20_000 / probe_scale as u64)?);
        let block = bench.shape.block_bytes();
        let reps = (8 << 20) / block / probe_scale;
        out.set("red.hash_ns_per_kb", probes::hash_ns_per_kb(block, reps.max(1)));
        let (enc, dec) = probes::codec_ns_per_kb(&last_states, 20 / probe_scale.min(20))?;
        out.set("ckpt.encode_ns_per_kb", enc);
        out.set("ckpt.decode_ns_per_kb", dec);
        let solver = bench.app.solver();
        out.set("apps.serial_solve_s", probes::serial_solve_s(solver, bench.shape.iterations)?);
        Ok(())
    })();
    out.tally(&probed, "layer probes");
    out.set("failed_ratio", out.failed_ratio());
    Ok(out)
}

/// Exact counts summed over the traced jobs' reports.
#[derive(Debug, Default)]
struct ReportSums {
    task_wakes: u64,
    steals: u64,
    local_hits: u64,
    worker_parks: u64,
    worker_idle_ns: u64,
    recv_parks: u64,
    spin_resolved: u64,
    messages: u64,
    bytes: u64,
    votes: u64,
    mismatches: u64,
    virtual_sends: u64,
    physical_sends: u64,
    masked: u64,
    respawns: u64,
    commits: u64,
    attempts: u64,
    failures: u64,
    trace_events: u64,
    validate_s: f64,
}

impl ReportSums {
    fn add(&mut self, job: &Job) {
        let r = &job.report;
        if let Some(p) = &r.profile {
            self.task_wakes += p.total_counter(CounterKey::TaskWakes);
            self.steals += p.total_counter(CounterKey::Steals);
            self.local_hits += p.total_counter(CounterKey::LocalHits);
            self.worker_parks += p.total_counter(CounterKey::WorkerParks);
            self.worker_idle_ns += p.total_span(SpanKey::WorkerIdle).total_ns;
            self.recv_parks += p.total_counter(CounterKey::Parks);
            self.spin_resolved += p.total_counter(CounterKey::SpinResolved);
        }
        self.messages += r.physical_messages;
        self.bytes += r.physical_bytes;
        self.votes += r.replication.votes;
        self.mismatches += r.replication.mismatches_detected;
        self.virtual_sends += r.replication.virtual_sends;
        self.physical_sends += r.replication.physical_sends;
        self.masked += r.masked_failures;
        self.respawns += r.respawns;
        self.commits += r.checkpoints_committed;
        self.attempts += r.attempts;
        self.failures += r.failures;
        self.trace_events += r.trace.as_ref().map_or(0, |t| t.len() as u64);
        self.validate_s += job.validate_s;
    }

    fn record(&self, out: &mut RunResult, jobs: f64) {
        let per_job = |v: u64| v as f64 / jobs;
        out.set("sched.task_wakes", per_job(self.task_wakes));
        out.set("sched.steals", per_job(self.steals));
        out.set(
            "sched.steal_ratio",
            ratio(self.steals as f64, (self.steals + self.local_hits) as f64),
        );
        out.set("sched.worker_parks", per_job(self.worker_parks));
        out.set("sched.worker_idle_s", per_job(self.worker_idle_ns) / 1e9);
        out.set("mpi.msgs", per_job(self.messages));
        out.set("mpi.bytes", per_job(self.bytes));
        out.set("mpi.recv_parks", per_job(self.recv_parks));
        out.set("mpi.spin_resolved", per_job(self.spin_resolved));
        out.set("red.votes", per_job(self.votes));
        out.set("red.mismatches", per_job(self.mismatches));
        out.set("red.fanout", ratio(self.physical_sends as f64, self.virtual_sends as f64));
        out.set("red.masked", per_job(self.masked));
        out.set("red.respawns", per_job(self.respawns));
        out.set("ckpt.commits", per_job(self.commits));
        out.set("core.attempts", per_job(self.attempts));
        out.set("core.failures", per_job(self.failures));
        out.set("core.attempt_success_ratio", ratio(jobs, self.attempts as f64));
        out.set("core.validate_s", self.validate_s / jobs);
        out.set("telemetry.trace_events", per_job(self.trace_events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_workloads_pass_every_check() {
        for kind in [Kind::Vote, Kind::Faults] {
            for trace in [false, true] {
                let r = run(kind, Size::Smoke, 11, 0.0, trace).unwrap();
                assert_eq!(r.failed, 0, "{kind:?} trace={trace}: {:?}", r.notes);
                assert!(r.attempted >= crate::MIN_JOBS, "{kind:?}");
            }
        }
    }

    #[test]
    fn a_flipped_solution_element_fails_its_job() {
        let bench = CgBench::setup(Kind::Vote, Size::Smoke, 3).unwrap();
        let mut job = bench.run_job(0, None).unwrap();
        assert!(bench.check(&job.report).is_ok());
        let x = &mut job.report.final_states[2].x[5];
        *x = -*x;
        let outcome = bench.check(&job.report);
        assert!(outcome.as_ref().is_err_and(|e| e.contains("rank 2: x[5]")), "{outcome:?}");
        let mut tally = RunResult::default();
        tally.tally(&outcome, "corrupted job");
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert_eq!(tally.failed_ratio(), 1.0);
    }

    #[test]
    fn faulty_jobs_see_failures() {
        let bench = CgBench::setup(Kind::Faults, Size::Smoke, 5).unwrap();
        let (mut masked, mut restarts) = (0, 0);
        for i in 0..4 {
            let job = bench.run_job(i, None).unwrap();
            bench.check(&job.report).unwrap();
            masked += job.report.masked_failures;
            restarts += job.report.failures;
        }
        assert!(masked > 0 && restarts > 0, "masked {masked}, restarts {restarts}");
    }
}
