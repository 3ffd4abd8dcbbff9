//! A deadline on every executor run, so that a job that never returns
//! counts as a failed job instead of stalling the whole benchmark.
//!
//! A hung job cannot be stopped from outside: its rank tasks are parked
//! on the runtime's own wake-ups. [`guarded`] therefore runs the job on a
//! thread of its own and gives up waiting after [`JOB_DEADLINE_S`]. The
//! abandoned thread stays parked until the process exits, and [`hung`]
//! tells the run loops to start no further jobs, so a run that hits a
//! hang still ends, and prints its result, well within its time limit.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc;
use std::time::Duration;

/// Wall time one job may take before it counts as hung: about twenty
/// times the slowest job any workload's tail has shown.
pub const JOB_DEADLINE_S: f64 = 20.0;

/// Stack of the thread a guarded job runs on: the size of a main thread's,
/// where the executor would otherwise run.
const JOB_STACK_BYTES: usize = 8 << 20;

static HUNG: AtomicBool = AtomicBool::new(false);

/// Whether a guarded job has hung in this process.
pub fn hung() -> bool {
    HUNG.load(SeqCst)
}

/// Runs `job` on its own thread and returns its output, or an error if it
/// has not returned within [`JOB_DEADLINE_S`] (or panicked).
///
/// # Errors
///
/// The job hung, which also sets [`hung`], or it panicked.
pub fn guarded<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    guarded_for(JOB_DEADLINE_S, &HUNG, job)
}

fn guarded_for<T: Send + 'static>(
    deadline_s: f64,
    hung: &AtomicBool,
    job: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("perfbench-job".into())
        .stack_size(JOB_STACK_BYTES)
        .spawn(move || {
            // The receiver is gone only if the job was given up on.
            let _ = tx.send(job());
        })
        .map_err(|e| format!("cannot start the job's thread: {e}"))?;
    match rx.recv_timeout(Duration::from_secs_f64(deadline_s)) {
        Ok(out) => Ok(out),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            hung.store(true, SeqCst);
            Err(format!("hung: no result after {deadline_s} s; the run starts no further jobs"))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err("the job panicked".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_that_returns_in_time_passes_its_output_through() {
        let flag = AtomicBool::new(false);
        assert_eq!(guarded_for(5.0, &flag, || 7), Ok(7));
        assert!(!flag.load(SeqCst));
    }

    #[test]
    fn a_panicking_job_is_an_error() {
        let flag = AtomicBool::new(false);
        let out: Result<(), String> = guarded_for(5.0, &flag, || panic!("boom"));
        assert!(out.is_err());
        assert!(!flag.load(SeqCst));
    }

    #[test]
    fn a_job_past_its_deadline_counts_as_hung() {
        let (_keep, park) = mpsc::channel::<()>();
        let flag = AtomicBool::new(false);
        let out = guarded_for(0.05, &flag, move || park.recv().is_ok());
        assert!(out.as_ref().is_err_and(|e| e.starts_with("hung")), "{out:?}");
        assert!(flag.load(SeqCst));
    }
}
