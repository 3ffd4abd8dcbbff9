//! Layer probes: small fixed-size measurements of one layer each, run at
//! the end of a traced run on that workload's shapes.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

use bytes::Bytes;
use redcr_apps::cg::{CgSolver, CgState};
use redcr_mpi::{Communicator, CostModel, Rank, RankSelector, Tag, TagSelector, World};
use redcr_sched::{current_waker, park_current, run_batch, yield_now, PoolConfig, Waker};

use crate::clock::{timed, Stopwatch};

/// Nanoseconds per hand-off of a two-task ping-pong on the scheduler at
/// its default width: each task parks until the other wakes it.
///
/// # Errors
///
/// A task that panicked.
pub fn switch_ns(rounds: usize) -> Result<f64, String> {
    let pool = PoolConfig::resolve(None, 2);
    let turn = AtomicUsize::new(0);
    let wakers: [Mutex<Option<Waker>>; 2] = [Mutex::new(None), Mutex::new(None)];
    let sw = Stopwatch::start();
    let batch = run_batch(&pool, 2, None, |me| {
        let other = 1 - me;
        *wakers[me].lock().expect("waker slot lock") = current_waker();
        // Wait until the peer has published its waker.
        while wakers[other].lock().expect("waker slot lock").is_none() {
            yield_now();
        }
        let peer = wakers[other].lock().expect("waker slot lock").clone();
        let Some(peer) = peer else { return };
        for hop in 0..rounds {
            let mine = 2 * hop + me;
            while turn.load(SeqCst) != mine {
                park_current();
            }
            turn.store(mine + 1, SeqCst);
            peer.wake();
        }
    });
    let elapsed = sw.nanos();
    if batch.results.iter().any(std::result::Result::is_err) {
        return Err("switch probe task panicked".into());
    }
    Ok(elapsed as f64 / (2 * rounds) as f64)
}

/// Nanoseconds per one-way 64-byte message of a two-rank blocking
/// ping-pong through `World::run`.
///
/// # Errors
///
/// A runtime error of the ping-pong world.
pub fn pingpong_ns(rounds: u64) -> Result<f64, String> {
    let sw = Stopwatch::start();
    World::builder(2)
        .cost_model(CostModel::infiniband_qdr())
        .run(|comm| {
            let me = comm.rank().index();
            let peer = Rank::new(1 - me as u32);
            let payload = Bytes::from_static(&[0u8; 64]);
            let tag = Tag::new(7);
            for _ in 0..rounds {
                if me == 0 {
                    comm.send_bytes(peer, tag, payload.clone())?;
                    comm.recv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
                } else {
                    comm.recv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
                    comm.send_bytes(peer, tag, payload.clone())?;
                }
            }
            Ok(())
        })
        .and_then(redcr_mpi::RunReport::into_results)
        .map_err(|e| format!("ping-pong world: {e}"))?;
    Ok(sw.nanos() as f64 / (2 * rounds) as f64)
}

/// Nanoseconds per KiB of `redcr_red::hash_payload` over a `len`-byte
/// payload.
pub fn hash_ns_per_kb(len: usize, reps: usize) -> f64 {
    let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
    let (acc, secs) = timed(|| {
        let mut acc = 0u64;
        for _ in 0..reps {
            acc ^= redcr_red::hash_payload(std::hint::black_box(&payload));
        }
        acc
    });
    std::hint::black_box(acc);
    per_kb(secs, len * reps)
}

/// Nanoseconds per KiB to encode and to decode `states` with the
/// checkpoint codec, `reps` times over.
///
/// # Errors
///
/// A codec error, or a decoded state that differs from the original.
pub fn codec_ns_per_kb(states: &[CgState], reps: usize) -> Result<(f64, f64), String> {
    let (images, encode_s) = timed(|| -> Result<Vec<Vec<u8>>, String> {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = states
                .iter()
                .map(redcr_ckpt::to_bytes)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("encode: {e}"))?;
        }
        Ok(last)
    });
    let images = images?;
    let bytes: usize = images.iter().map(Vec::len).sum();
    let (decoded, decode_s) = timed(|| -> Result<Vec<CgState>, String> {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = images
                .iter()
                .map(|b| redcr_ckpt::from_bytes::<CgState>(b))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("decode: {e}"))?;
        }
        Ok(last)
    });
    if decoded? != states {
        return Err("codec round trip changed a state".into());
    }
    Ok((per_kb(encode_s, bytes * reps), per_kb(decode_s, bytes * reps)))
}

/// Seconds for a plain single-rank CG of `iterations` steps on `solver`'s
/// matrix: the baseline the replicated, checkpointed runs pay on top of.
///
/// # Errors
///
/// A runtime error of the single-rank world.
pub fn serial_solve_s(solver: &CgSolver, iterations: u64) -> Result<f64, String> {
    let (out, secs) = timed(|| {
        World::builder(1)
            .run(|comm| {
                let mut state = solver.init_state(comm)?;
                solver.run(comm, &mut state, iterations)
            })
            .and_then(redcr_mpi::RunReport::into_results)
    });
    out.map_err(|e| format!("serial solve: {e}"))?;
    Ok(secs)
}

fn per_kb(secs: f64, bytes: usize) -> f64 {
    crate::stats::ratio(secs * 1e9, bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_costs() {
        assert!(switch_ns(200).unwrap() > 0.0);
        assert!(pingpong_ns(200).unwrap() > 0.0);
        assert!(hash_ns_per_kb(4096, 10) > 0.0);
    }
}
