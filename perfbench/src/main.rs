//! # redcr-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cg_vote|cg_faults|planner> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload is generated from the seed
//! and runs in this one process at the program's default worker width:
//!
//! * `cg_vote` — failure-free resilient CG jobs, 8 virtual ranks at r = 3
//!   with all-to-all voting: the scheduler, mailbox and voting path;
//! * `cg_faults` — resilient CG jobs at r = 1.5 under Poisson node
//!   failures, checkpointing once per step, with self-healing, the flight
//!   recorder and the metrics plane on and a model validation per job;
//! * `planner` — cold capacity plans of the Figures 9–14 grid, MTBFs
//!   perturbed by the seed, each from a fresh on-disk result cache and
//!   followed by warm re-plans from it.
//!
//! With `--trace 0` the run alternates fresh set-ups with jobs for
//! `--seconds` in all and prints the end-to-end metrics. With `--trace 1` it runs
//! jobs untraced for part of the time, runs the same jobs again through
//! the layer wrappers with profiling on, checks that their reports are
//! bit-identical, runs the layer probes and prints the per-layer ledger.
//! Every job's outputs are checked; a job that errors, fails a check or
//! hangs past its deadline counts as failed, and after a hang the run
//! starts no further jobs. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! The benchmark writes only a temp dir under `.perfbench-tmp/` in the
//! working directory, removed before it exits.

mod cg;
mod clock;
mod fingerprint;
mod layers;
mod planner;
mod probes;
mod report;
mod stats;
mod watchdog;

use std::process::ExitCode;

use crate::clock::{timed, Stopwatch};
use crate::fingerprint::Fingerprint;
use crate::report::{record_end_to_end, RunResult, END_TO_END, PER_LAYER};
use crate::watchdog::hung;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Share of `--seconds` the traced run spends on its untraced pass; the
/// traced pass repeats the same jobs.
pub const TRACED_SHARE: f64 = 0.45;

/// Jobs the traced run's untraced pass runs, however short `--seconds` is.
pub const MIN_JOBS: u64 = 3;

/// Job times and work done by the jobs of an untraced run.
#[derive(Debug, Default)]
pub struct Sample {
    /// Wall time of each job that ran to completion, seconds.
    pub walls: Vec<f64>,
    /// Work those jobs did (messages delivered, scenarios evaluated).
    pub work: f64,
}

/// Measures an untraced run in [`SETUPS`] rounds: each round times a fresh
/// set-up and then runs jobs for its share of `seconds`, at least one.
/// Host load on a small shared machine drifts over seconds, so spreading
/// the set-ups over the run lets `setup_s` sample the same conditions as
/// the job times instead of only the first moments of the process.
///
/// A set-up that fails counts as a failed job and ends the run.
pub fn run_untraced<B>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<B, String>,
    mut job: impl FnMut(&B, u64, &mut Sample) -> Result<(), String>,
) -> RunResult {
    let mut out = RunResult::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sample = Sample::default();
    let mut index = 0;
    for round in 0..SETUPS {
        let (bench, secs) = timed(&mut setup);
        let bench = match bench {
            Ok(b) => b,
            Err(e) => {
                out.tally(&Err(e), &format!("set-up {round}"));
                break;
            }
        };
        setups.push(secs);
        let sw = Stopwatch::start();
        loop {
            let outcome = job(&bench, index, &mut sample);
            out.tally(&outcome, &format!("job {index}"));
            index += 1;
            if hung() || sw.secs() >= seconds / SETUPS as f64 {
                break;
            }
        }
        if hung() {
            break;
        }
    }
    record_end_to_end(&mut out, &setups, &sample.walls, sample.work);
    out
}

/// Job index of the untimed warm-up job.
pub const WARMUP: u64 = u64::MAX;

/// Job sizes: the benchmark's, or a few-second smoke pass for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's job sizes.
    Full,
    /// Small jobs for the benchmark's own tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// SplitMix64: a seed-derivation step with good avalanche.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of job `index` of a run with workload seed `seed`.
pub fn job_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CgVote,
    CgFaults,
    Planner,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cg_vote" => Some(Workload::CgVote),
            "cg_faults" => Some(Workload::CgFaults),
            "planner" => Some(Workload::Planner),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CgVote => "cg_vote",
            Workload::CgFaults => "cg_faults",
            Workload::Planner => "planner",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| bad("one of cg_vote, cg_faults, planner"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad("a non-negative number of seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("redcr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Args { workload, seed, seconds, trace } = args;
    let result = match workload {
        Workload::CgVote => cg::run(cg::Kind::Vote, Size::Full, seed, seconds, trace),
        Workload::CgFaults => cg::run(cg::Kind::Faults, Size::Full, seed, seconds, trace),
        Workload::Planner => planner::run(Size::Full, seed, seconds, trace),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("redcr-perfbench: {} set-up failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    // A run with a failed job is already incorrect, so an end-to-end
    // metric it could not measure (no job finished) reads 0 rather than
    // suppressing the result line.
    let line = if trace {
        result.to_json(PER_LAYER, true)
    } else {
        result.to_json(END_TO_END, result.failed > 0)
    };
    let line = match line {
        Ok(l) => l,
        Err(e) => {
            eprintln!("redcr-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fingerprint {}", Fingerprint::capture(workload.name(), seed, result.width).to_json());
    for note in &result.notes {
        println!("{note}");
    }
    if trace {
        print!("{}", result.ledger(workload.name()));
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload planner --seed 12 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Planner);
        assert_eq!((a.seed, a.seconds, a.trace), (12, 10.0, true));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args("--workload cg_vote --seed 1 --seconds 2 --trace 0").is_ok());
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 2 --trace 0",
            "--workload cg_vote --seed 1 --seconds 2 --trace 2",
            "--workload cg_vote --seed 1 --seconds -1 --trace 0",
            "--workload cg_vote --seed -3 --seconds 2 --trace 0",
            "--workload cg_vote --seconds 2 --trace 0",
            "--workload cg_vote --seed 1 --seconds 2 --trace 0 --bogus 1",
            "--workload cg_vote --seed 1 --seconds 2 --trace",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn job_seeds_differ_by_index_and_seed() {
        assert_ne!(job_seed(1, 0), job_seed(1, 1));
        assert_ne!(job_seed(1, 0), job_seed(2, 0));
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
    }
}
