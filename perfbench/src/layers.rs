//! Layer timers installed from outside the program: a [`StableStorage`]
//! wrapper handed to the executor, and a [`ResilientApp`] wrapper whose
//! `step` hands the application a timing [`Communicator`]. Each forwards
//! every call unchanged, so a run with them installed computes exactly what
//! a run without them computes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use bytes::Bytes;
use redcr_ckpt::storage::{MemoryStorage, SnapshotKey, StableStorage};
use redcr_core::ResilientApp;
use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::tag::Namespace;
use redcr_mpi::{Communicator, Rank, RankSelector, Result, Status, Tag, TagSelector, TestOutcome};

use crate::clock::Stopwatch;

/// Wall-clock and volume counters the wrappers add to, shared by every
/// rank task of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Application steps executed, re-executed steps included.
    pub steps: AtomicU64,
    /// Wall time inside `step`, nanoseconds.
    pub step_ns: AtomicU64,
    /// Wall time inside communicator calls made by `init` and `step`,
    /// nanoseconds (voting and parked waiting included).
    pub comm_ns: AtomicU64,
    /// The part of `comm_ns` spent inside `step`.
    pub step_comm_ns: AtomicU64,
    /// Checkpoint images stored.
    pub store_calls: AtomicU64,
    /// Bytes stored.
    pub store_bytes: AtomicU64,
    /// Wall time inside `store`, nanoseconds.
    pub store_ns: AtomicU64,
    /// Checkpoint images loaded.
    pub load_calls: AtomicU64,
    /// Bytes loaded.
    pub load_bytes: AtomicU64,
    /// Wall time inside `load`, nanoseconds.
    pub load_ns: AtomicU64,
}

impl Ledger {
    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, SeqCst);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(SeqCst)
    }
}

/// In-memory stable storage that times every store and load.
#[derive(Debug)]
pub struct TimedStorage {
    inner: MemoryStorage,
    ledger: Arc<Ledger>,
}

impl TimedStorage {
    /// Fresh in-memory storage reporting into `ledger`.
    pub fn new(ledger: Arc<Ledger>) -> Self {
        TimedStorage { inner: MemoryStorage::new(), ledger }
    }
}

impl StableStorage for TimedStorage {
    fn store(&self, key: SnapshotKey, data: &[u8]) -> redcr_ckpt::Result<()> {
        let sw = Stopwatch::start();
        let out = self.inner.store(key, data);
        Ledger::add(&self.ledger.store_ns, sw.nanos());
        Ledger::add(&self.ledger.store_calls, 1);
        Ledger::add(&self.ledger.store_bytes, data.len() as u64);
        out
    }

    fn load(&self, key: SnapshotKey) -> redcr_ckpt::Result<Vec<u8>> {
        let sw = Stopwatch::start();
        let out = self.inner.load(key);
        Ledger::add(&self.ledger.load_ns, sw.nanos());
        Ledger::add(&self.ledger.load_calls, 1);
        if let Ok(bytes) = &out {
            Ledger::add(&self.ledger.load_bytes, bytes.len() as u64);
        }
        out
    }

    fn list(&self) -> redcr_ckpt::Result<Vec<SnapshotKey>> {
        self.inner.list()
    }

    fn delete(&self, key: SnapshotKey) -> redcr_ckpt::Result<()> {
        self.inner.delete(key)
    }

    fn prune_before(&self, keep_from_seq: u64) -> redcr_ckpt::Result<()> {
        self.inner.prune_before(keep_from_seq)
    }
}

/// Wraps an application so each `init` and `step` sees a [`TimedComm`].
#[derive(Debug)]
pub struct TimedApp<'a, A> {
    app: &'a A,
    ledger: &'a Ledger,
}

impl<'a, A> TimedApp<'a, A> {
    /// Wraps `app`, reporting into `ledger`.
    pub fn new(app: &'a A, ledger: &'a Ledger) -> Self {
        TimedApp { app, ledger }
    }
}

impl<A: ResilientApp> ResilientApp for TimedApp<'_, A> {
    type State = A::State;

    fn init<C: Communicator>(&self, comm: &C) -> Result<A::State> {
        let timed = TimedComm::new(comm);
        let out = self.app.init(&timed);
        Ledger::add(&self.ledger.comm_ns, timed.ns.get());
        out
    }

    fn step<C: Communicator>(&self, comm: &C, state: &mut A::State) -> Result<()> {
        let sw = Stopwatch::start();
        let timed = TimedComm::new(comm);
        let out = self.app.step(&timed, state);
        Ledger::add(&self.ledger.step_ns, sw.nanos());
        Ledger::add(&self.ledger.steps, 1);
        Ledger::add(&self.ledger.comm_ns, timed.ns.get());
        Ledger::add(&self.ledger.step_comm_ns, timed.ns.get());
        out
    }

    fn is_done(&self, state: &A::State) -> bool {
        self.app.is_done(state)
    }
}

/// A communicator that forwards every method to the wrapped one and adds
/// the wall time of each call to a per-rank total. Modelled on
/// `redcr_ckpt::CountingComm`, but it forwards the provided methods too,
/// so the wrapped communicator's own implementations run unchanged.
#[derive(Debug)]
pub struct TimedComm<'a, C> {
    inner: &'a C,
    ns: Cell<u64>,
}

impl<'a, C: Communicator> TimedComm<'a, C> {
    /// Wraps `inner` with a zero total.
    pub fn new(inner: &'a C) -> Self {
        TimedComm { inner, ns: Cell::new(0) }
    }

    fn timed<T>(&self, f: impl FnOnce(&C) -> T) -> T {
        let sw = Stopwatch::start();
        let out = f(self.inner);
        self.ns.set(self.ns.get() + sw.nanos());
        out
    }
}

impl<C: Communicator> Communicator for TimedComm<'_, C> {
    type Request = C::Request;

    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn compute(&self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }

    fn send_ns(&self, dest: Rank, tag: Tag, data: Bytes, ns: Namespace) -> Result<()> {
        self.timed(|c| c.send_ns(dest, tag, data, ns))
    }

    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        self.timed(|c| c.recv_ns(src, tag, ns))
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Bytes) -> Result<Self::Request> {
        self.timed(|c| c.isend(dest, tag, data))
    }

    fn irecv(&self, src: RankSelector, tag: TagSelector) -> Result<Self::Request> {
        self.timed(|c| c.irecv(src, tag))
    }

    fn wait(&self, req: Self::Request) -> Result<Option<(Bytes, Status)>> {
        self.timed(|c| c.wait(req))
    }

    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>> {
        self.timed(|c| c.iprobe(src, tag))
    }

    fn probe(&self, src: RankSelector, tag: TagSelector) -> Result<Status> {
        self.timed(|c| c.probe(src, tag))
    }

    fn test(&self, req: Self::Request) -> Result<TestOutcome<Self::Request>> {
        self.timed(|c| c.test(req))
    }

    fn next_collective_seq(&self) -> u64 {
        self.inner.next_collective_seq()
    }

    fn recorder(&self) -> Option<&redcr_mpi::trace::Recorder> {
        self.inner.recorder()
    }

    fn metrics(&self) -> Option<&redcr_mpi::metrics::RankMetrics> {
        self.inner.metrics()
    }

    fn prof(&self) -> Option<&redcr_mpi::prof::RankProf> {
        self.inner.prof()
    }

    fn send(&self, dest: Rank, tag: Tag, data: &[u8]) -> Result<()> {
        self.timed(|c| c.send(dest, tag, data))
    }

    fn send_bytes(&self, dest: Rank, tag: Tag, data: Bytes) -> Result<()> {
        self.timed(|c| c.send_bytes(dest, tag, data))
    }

    fn recv(&self, src: RankSelector, tag: TagSelector) -> Result<(Bytes, Status)> {
        self.timed(|c| c.recv(src, tag))
    }

    fn sendrecv(
        &self,
        dest: Rank,
        send_tag: Tag,
        data: &[u8],
        src: RankSelector,
        recv_tag: TagSelector,
    ) -> Result<(Bytes, Status)> {
        self.timed(|c| c.sendrecv(dest, send_tag, data, src, recv_tag))
    }

    fn waitany(
        &self,
        reqs: Vec<Self::Request>,
    ) -> Result<(usize, Option<(Bytes, Status)>, Vec<Self::Request>)> {
        self.timed(|c| c.waitany(reqs))
    }

    fn waitall(
        &self,
        reqs: impl IntoIterator<Item = Self::Request>,
    ) -> Result<Vec<Option<(Bytes, Status)>>> {
        self.timed(|c| c.waitall(reqs))
    }

    fn send_f64s(&self, dest: Rank, tag: Tag, values: &[f64]) -> Result<()> {
        self.timed(|c| c.send_f64s(dest, tag, values))
    }

    fn recv_f64s(&self, src: RankSelector, tag: TagSelector) -> Result<(Vec<f64>, Status)> {
        self.timed(|c| c.recv_f64s(src, tag))
    }

    fn send_u64s(&self, dest: Rank, tag: Tag, values: &[u64]) -> Result<()> {
        self.timed(|c| c.send_u64s(dest, tag, values))
    }

    fn recv_u64s(&self, src: RankSelector, tag: TagSelector) -> Result<(Vec<u64>, Status)> {
        self.timed(|c| c.recv_u64s(src, tag))
    }

    fn barrier(&self) -> Result<()> {
        self.timed(|c| c.barrier())
    }

    fn bcast(&self, root: Rank, data: Bytes) -> Result<Bytes> {
        self.timed(|c| c.bcast(root, data))
    }

    fn reduce_f64(&self, root: Rank, values: &[f64], op: ReduceOp) -> Result<Option<Vec<f64>>> {
        self.timed(|c| c.reduce_f64(root, values, op))
    }

    fn allreduce_f64(&self, values: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        self.timed(|c| c.allreduce_f64(values, op))
    }

    fn allreduce_u64(&self, values: &[u64], op: ReduceOp) -> Result<Vec<u64>> {
        self.timed(|c| c.allreduce_u64(values, op))
    }

    fn gather(&self, root: Rank, data: Bytes) -> Result<Option<Vec<Bytes>>> {
        self.timed(|c| c.gather(root, data))
    }

    fn allgather(&self, data: Bytes) -> Result<Vec<Bytes>> {
        self.timed(|c| c.allgather(data))
    }

    fn scatter(&self, root: Rank, parts: Option<Vec<Bytes>>) -> Result<Bytes> {
        self.timed(|c| c.scatter(root, parts))
    }

    fn alltoall(&self, parts: Vec<Bytes>) -> Result<Vec<Bytes>> {
        self.timed(|c| c.alltoall(parts))
    }

    fn scan_f64(&self, values: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        self.timed(|c| c.scan_f64(values, op))
    }
}
