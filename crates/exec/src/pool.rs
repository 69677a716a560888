//! The work-stealing cell pool.
//!
//! Campaign cells are heterogeneous — a CBF replication costs ~30× an
//! EASY one — so static chunking (split the cell list into one contiguous
//! block per thread) head-of-line-blocks: whichever thread drew the CBF
//! block runs long after the rest go idle. The pool therefore *steals*:
//!
//! * every worker owns a deque; it pops its own work from the back
//!   (LIFO, cache-warm) and steals from the *front* of siblings' deques
//!   when it runs dry;
//! * a global injector queue receives work submitted from threads that
//!   are not pool workers (the CLI main thread, test threads);
//! * a submitting thread is itself a participant: [`map_fold`] blocks
//!   until its batch completes, and while blocked it executes cells
//!   instead of sleeping, so `jobs = 1` (a pool with zero workers) is an
//!   ordinary serial loop and nested submissions can never deadlock —
//!   every un-started cell of a batch is always claimable by the thread
//!   waiting on that batch.
//!
//! The pool has one primitive, the fold: [`map_fold`] (and
//! [`fold_cells`], its shape over cell indices) runs on the current pool
//! — the innermost [`with_pool`], else the pool whose worker is calling,
//! else the global one. A caller that wants a vector pushes into it from
//! the sink.
//!
//! Determinism: a cell's inputs come only from its index (experiments
//! derive per-cell seeds hierarchically), and every completed cell is
//! routed through a bounded reorder window that releases results in
//! index order. Results therefore stream to the caller in submission
//! order, bit-identical to the serial evaluation, for any worker count
//! and any steal interleaving — and a fold over a campaign of N cells
//! holds at most one reorder window of results, not N.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A unit of queued work: one cell of some batch, with its lifetime
/// erased (see the safety comment in [`FoldCtx::make_task`]).
struct Task {
    batch: Arc<Batch>,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// Completion state of one fold.
struct Batch {
    /// Cells completed so far (executed or panicked).
    done: Mutex<usize>,
    /// Cells in the batch.
    total: usize,
    /// First panic payload raised by a cell, re-raised on the submitting
    /// thread once the batch has fully drained.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// Signals the submitter when `done == total`.
    complete: Condvar,
}

impl Batch {
    fn new(total: usize) -> Self {
        Batch {
            done: Mutex::new(0),
            total,
            panic: Mutex::new(None),
            complete: Condvar::new(),
        }
    }

    fn is_done(&self) -> bool {
        *self.done.lock().unwrap() == self.total
    }
}

/// State shared by the pool handle, its workers, and thread-local
/// context references.
struct Shared {
    /// Work submitted from non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker; the owner pushes/pops at the back, thieves
    /// steal from the front.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Nanoseconds each worker spent executing cells.
    busy_ns: Vec<AtomicU64>,
    /// Cells each worker executed.
    executed: Vec<AtomicU64>,
    /// Cells each worker claimed from a *sibling's* deque (true steals;
    /// own-deque pops and injector claims are not steals).
    stolen: Vec<AtomicU64>,
    created: Instant,
}

impl Shared {
    fn new(workers: usize) -> Self {
        Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            stolen: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            created: Instant::now(),
        }
    }

    fn workers(&self) -> usize {
        self.locals.len()
    }

    /// Wakes every parked worker (called after any push).
    fn notify(&self) {
        let _guard = self.idle.lock().unwrap();
        self.wake.notify_all();
    }

    /// True when any queue holds a task.
    fn any_queued(&self) -> bool {
        if !self.injector.lock().unwrap().is_empty() {
            return true;
        }
        self.locals.iter().any(|l| !l.lock().unwrap().is_empty())
    }

    /// Worker claim order: own deque (back), injector (front), then
    /// steal from siblings (front), scanning from the neighbour upward
    /// so thieves spread over victims.
    fn find_task(&self, w: usize) -> Option<Task> {
        if let Some(t) = self.locals[w].lock().unwrap().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.workers();
        for step in 1..n {
            let victim = (w + step) % n;
            if let Some(t) = self.locals[victim].lock().unwrap().pop_front() {
                self.stolen[w].fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Runs one task, crediting `worker`'s busy counters and recording
    /// completion (and any panic) in the task's batch.
    fn execute(&self, task: Task, worker: Option<usize>) {
        let batch = task.batch;
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(task.run));
        if let Some(w) = worker {
            let ns = started.elapsed().as_nanos() as u64;
            self.busy_ns[w].fetch_add(ns, Ordering::Relaxed);
            self.executed[w].fetch_add(1, Ordering::Relaxed);
        }
        if let Err(payload) = outcome {
            let mut slot = batch.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = batch.done.lock().unwrap();
        *done += 1;
        if *done == batch.total {
            batch.complete.notify_all();
        }
    }

    /// Blocks until `batch` drains, executing claimable work meanwhile.
    ///
    /// `claim` must only return tasks that are safe for this thread to
    /// run re-entrantly: the batch's own cells, or (on a worker thread)
    /// cells this thread itself pushed. Once `claim` runs dry every
    /// remaining cell of the batch is in flight on some other thread, so
    /// sleeping on the completion condvar cannot deadlock.
    fn participate(
        &self,
        batch: &Arc<Batch>,
        worker: Option<usize>,
        claim: impl Fn() -> Option<Task>,
    ) {
        loop {
            if batch.is_done() {
                break;
            }
            if let Some(task) = claim() {
                self.execute(task, worker);
                continue;
            }
            let mut done = batch.done.lock().unwrap();
            while *done < batch.total {
                done = batch.complete.wait(done).unwrap();
            }
            break;
        }
        if let Some(payload) = batch.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
    }

    /// The streaming fold under [`map_fold`]: evaluates `f` over every
    /// item on the pool and delivers each result to `sink` in input
    /// order, as it lands, through a bounded reorder window.
    ///
    /// The window is what keeps memory flat: at most `window` cells are
    /// in flight or buffered at once (`FOLD_WINDOW_PER_LANE` per lane),
    /// and a new cell is only submitted once the delivery head has
    /// advanced close enough behind it. Delivery order is the input
    /// order regardless of job count or steal interleaving, so a fold is
    /// bit-identical to the serial loop. `sink` runs under the fold's
    /// internal lock and must not submit pool work of its own.
    fn map_fold_impl<T, R, F, S>(self: &Arc<Self>, items: Vec<T>, f: F, mut sink: S)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        S: FnMut(usize, R) + Send,
    {
        let n = items.len();
        // Serial fast path: nothing to fan out, or nobody to fan out to.
        if n <= 1 || self.workers() == 0 {
            for (i, item) in items.into_iter().enumerate() {
                sink(i, f(i, item));
            }
            return;
        }

        let window = ((self.workers() + 1) * FOLD_WINDOW_PER_LANE).min(n);
        let batch = Arc::new(Batch::new(n));
        let worker = worker_index_on(self);
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        let state = Mutex::new(FoldState {
            ring: (0..window).map(|_| None).collect(),
            head: 0,
            submitted: window,
            sink,
        });
        {
            let ctx = FoldCtx {
                shared: self,
                batch: &batch,
                items: &items,
                f: &f,
                state: &state,
                n,
                window,
            };
            // Prime one window of cells; completions submit the rest as
            // the delivery head advances (see `FoldCtx::complete`).
            let primed: Vec<Task> = (0..window).map(|i| ctx.make_task(i)).collect();
            match worker {
                Some(w) => {
                    self.locals[w].lock().unwrap().extend(primed);
                    self.notify();
                    // A worker's own deque only ever contains work pushed
                    // by frames on its own stack, so claiming any of it
                    // re-entrantly is safe and keeps the subtree moving.
                    self.participate(&batch, worker, || self.locals[w].lock().unwrap().pop_back());
                }
                None => {
                    self.injector.lock().unwrap().extend(primed);
                    self.notify();
                    // External threads claim only their own batch's cells
                    // so they never get stuck executing an unrelated
                    // long-running cell while their batch is finished.
                    self.participate(&batch, None, || {
                        let mut q = self.injector.lock().unwrap();
                        let pos = q.iter().position(|t| Arc::ptr_eq(&t.batch, &batch));
                        pos.and_then(|p| q.remove(p))
                    });
                }
            }
        }
    }
}

/// In-flight + buffered cells per execution lane in a [`map_fold`]
/// reorder window: enough slack that a lane never idles waiting on the
/// delivery head, small enough that a stalled head (one slow cell at the
/// front) bounds buffered results to a constant.
const FOLD_WINDOW_PER_LANE: usize = 32;

/// Reorder state of one fold: a ring of completed-but-undelivered
/// results plus the submission cursor, all advanced under one lock by
/// whichever thread completes a cell.
struct FoldState<R, S> {
    /// Slot `i % window` holds cell `i`'s completion between landing and
    /// delivery: `None` = not finished (or not submitted), `Some(None)`
    /// = panicked (a placeholder so the head can advance past it),
    /// `Some(Some(r))` = ready to deliver.
    ring: Vec<Option<Option<R>>>,
    /// Next cell index to deliver to the sink.
    head: usize,
    /// Cells submitted to the queues so far. Invariant: `submitted <=
    /// head + window`, which bounds in-flight work and the ring alike.
    submitted: usize,
    sink: S,
}

/// Everything a fold cell needs, borrowed from the [`map_fold_impl`]
/// frame (lifetimes erased on the queue; see the SAFETY note in
/// [`FoldCtx::make_task`]).
struct FoldCtx<'a, T, R, F, S> {
    shared: &'a Arc<Shared>,
    batch: &'a Arc<Batch>,
    items: &'a [Mutex<Option<T>>],
    f: &'a F,
    state: &'a Mutex<FoldState<R, S>>,
    n: usize,
    window: usize,
}

impl<T, R, F, S> Clone for FoldCtx<'_, T, R, F, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, R, F, S> Copy for FoldCtx<'_, T, R, F, S> {}

impl<T, R, F, S> FoldCtx<'_, T, R, F, S>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    fn make_task(&self, i: usize) -> Task {
        let ctx = *self;
        let run: Box<dyn FnOnce() + Send + '_> = Box::new(move || ctx.run_cell(i));
        // SAFETY: the closure borrows the fold's items, state, and `f`
        // from the `map_fold_impl` stack frame. `participate` there
        // returns (or unwinds) only after every task of the batch has
        // finished executing — completions are counted after the closure
        // returns or panics — so no task can observe those borrows after
        // that frame ends. Queued-but-never-run tasks cannot exist
        // either: the pool only drops tasks by executing them, every
        // submitted cell is eventually executed (the completion guard
        // below keeps submissions flowing even across panics), and the
        // participating submitter can always claim its own batch's
        // unstarted cells.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        Task {
            batch: Arc::clone(self.batch),
            run,
        }
    }

    fn run_cell(self, i: usize) {
        /// Records the cell's completion even when `f` panics: the
        /// reorder head must advance past a panicked cell (via a `None`
        /// placeholder) or submission would stall and the batch would
        /// never drain. The panic itself still propagates to the batch
        /// through the pool's `catch_unwind`.
        struct Complete<'a, T, R, F, S>
        where
            T: Send,
            R: Send,
            F: Fn(usize, T) -> R + Sync,
            S: FnMut(usize, R) + Send,
        {
            ctx: FoldCtx<'a, T, R, F, S>,
            i: usize,
            value: Option<R>,
        }
        impl<T, R, F, S> Drop for Complete<'_, T, R, F, S>
        where
            T: Send,
            R: Send,
            F: Fn(usize, T) -> R + Sync,
            S: FnMut(usize, R) + Send,
        {
            fn drop(&mut self) {
                self.ctx.complete(self.i, self.value.take());
            }
        }
        let mut guard = Complete {
            ctx: self,
            i,
            value: None,
        };
        let item = self.items[i]
            .lock()
            .unwrap()
            .take()
            .expect("each fold cell claims its item exactly once");
        guard.value = Some((self.f)(i, item));
    }

    /// Lands cell `i`'s result (or a panic placeholder), delivers every
    /// now-contiguous result to the sink in index order, and submits new
    /// cells up to the window past the advanced head.
    fn complete(self, i: usize, value: Option<R>) {
        let (spawn_from, spawn_to) = {
            let mut st = self.state.lock().unwrap();
            let slot = i % self.window;
            debug_assert!(st.ring[slot].is_none(), "fold slot collided");
            st.ring[slot] = Some(value);
            while st.head < self.n {
                let head_slot = st.head % self.window;
                match st.ring[head_slot].take() {
                    Some(entry) => {
                        let head = st.head;
                        if let Some(v) = entry {
                            (st.sink)(head, v);
                        }
                        st.head = head + 1;
                    }
                    None => break,
                }
            }
            let from = st.submitted;
            let to = (st.head + self.window).min(self.n).max(from);
            st.submitted = to;
            (from, to)
        };
        if spawn_to > spawn_from {
            let tasks: Vec<Task> = (spawn_from..spawn_to).map(|j| self.make_task(j)).collect();
            match worker_index_on(self.shared) {
                Some(w) => self.shared.locals[w].lock().unwrap().extend(tasks),
                None => self.shared.injector.lock().unwrap().extend(tasks),
            }
            self.shared.notify();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, w: usize) {
    WORKER.with(|cell| *cell.borrow_mut() = Some((Arc::clone(&shared), w)));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match shared.find_task(w) {
            Some(task) => shared.execute(task, Some(w)),
            None => {
                let guard = shared.idle.lock().unwrap();
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !shared.any_queued() {
                    // The timeout is belt-and-braces only; pushes notify
                    // under the `idle` lock, so wakeups cannot be lost.
                    let _ = shared
                        .wake
                        .wait_timeout(guard, Duration::from_millis(100))
                        .unwrap();
                }
            }
        }
    }
}

thread_local! {
    /// `(pool, index)` on pool worker threads.
    static WORKER: std::cell::RefCell<Option<(Arc<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// Stack of [`with_pool`] overrides on this thread.
    static CONTEXT: std::cell::RefCell<Vec<Arc<Shared>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The worker index of the current thread, if it is a worker of `shared`.
fn worker_index_on(shared: &Arc<Shared>) -> Option<usize> {
    WORKER.with(|cell| match cell.borrow().as_ref() {
        Some((pool, w)) if Arc::ptr_eq(pool, shared) => Some(*w),
        _ => None,
    })
}

/// A work-stealing pool of `jobs` execution lanes: `jobs - 1` worker
/// threads plus the submitting thread, which participates while it waits
/// on a batch. `Pool::new(1)` spawns no threads at all and evaluates
/// every fold serially on the caller.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with `jobs` lanes (`jobs` is clamped to ≥ 1).
    pub fn new(jobs: usize) -> Pool {
        let workers = jobs.max(1) - 1;
        let shared = Arc::new(Shared::new(workers));
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rbr-exec-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Total execution lanes (workers + the participating submitter).
    pub fn jobs(&self) -> usize {
        self.shared.workers() + 1
    }

    /// A snapshot of the pool's per-worker counters.
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            jobs: self.jobs(),
            elapsed_secs: self.shared.created.elapsed().as_secs_f64(),
            busy_secs: self
                .shared
                .busy_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed) as f64 * 1e-9)
                .collect(),
            cells_executed: self
                .shared
                .executed
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
            cells_stolen: self
                .shared
                .stolen
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Point-in-time view of the pool's worker counters. Subtract two
/// snapshots (see [`PoolMetrics::since`]) to meter one campaign.
#[derive(Clone, Debug)]
pub struct PoolMetrics {
    /// Execution lanes (workers + submitter).
    pub jobs: usize,
    /// Seconds since the pool was created.
    pub elapsed_secs: f64,
    /// Seconds each worker spent executing cells (excludes the
    /// submitting thread's share).
    pub busy_secs: Vec<f64>,
    /// Cells each worker executed.
    pub cells_executed: Vec<u64>,
    /// Cells each worker claimed from a sibling's deque.
    pub cells_stolen: Vec<u64>,
}

impl PoolMetrics {
    /// The per-worker busy fractions over the interval since `earlier`.
    pub fn since(&self, earlier: &PoolMetrics) -> Vec<f64> {
        let window = (self.elapsed_secs - earlier.elapsed_secs).max(1e-9);
        self.busy_secs
            .iter()
            .zip(&earlier.busy_secs)
            .map(|(now, then)| ((now - then) / window).clamp(0.0, 1.0))
            .collect()
    }

    /// Publishes this snapshot into the observability registry
    /// (per-worker busy seconds / cells / steals as gauges — a snapshot
    /// replaces the previous one). No-op while metrics are disabled.
    pub fn publish(&self) {
        if !rbr_obs::metrics::enabled() {
            return;
        }
        rbr_obs::metrics::gauge("exec.pool.jobs").set(self.jobs as f64);
        rbr_obs::metrics::gauge("exec.pool.elapsed_secs").set(self.elapsed_secs);
        for (w, busy) in self.busy_secs.iter().enumerate() {
            rbr_obs::metrics::gauge(&format!("exec.pool.worker{w}.busy_secs")).set(*busy);
        }
        for (w, cells) in self.cells_executed.iter().enumerate() {
            rbr_obs::metrics::gauge(&format!("exec.pool.worker{w}.cells")).set(*cells as f64);
        }
        for (w, stolen) in self.cells_stolen.iter().enumerate() {
            rbr_obs::metrics::gauge(&format!("exec.pool.worker{w}.stolen")).set(*stolen as f64);
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Sets the global pool's lane count. Returns `false` (and changes
/// nothing) if the global pool was already built — call this before the
/// first fold that falls through to the global pool.
pub fn configure(jobs: usize) -> bool {
    let mut applied = false;
    GLOBAL.get_or_init(|| {
        applied = true;
        Pool::new(jobs)
    });
    applied
}

/// The process-wide pool, built on first use with `RBR_JOBS` lanes (or
/// the machine's available parallelism when unset).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_jobs()))
}

fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("RBR_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs `f` with `pool` installed as this thread's current pool, so that
/// folds inside `f` (e.g. the experiment framework's replication fan-out)
/// use it instead of the global pool.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    CONTEXT.with(|c| c.borrow_mut().push(Arc::clone(&pool.shared)));
    let _guard = Guard;
    f()
}

/// The pool a fold uses on this thread: the innermost [`with_pool`]
/// override, else the pool whose worker is running this thread, else the
/// global pool.
fn current_shared() -> Arc<Shared> {
    if let Some(shared) = CONTEXT.with(|c| c.borrow().last().cloned()) {
        return shared;
    }
    if let Some(shared) = WORKER.with(|cell| cell.borrow().as_ref().map(|(p, _)| Arc::clone(p))) {
        return shared;
    }
    Arc::clone(&global().shared)
}

/// Streams `f` over `items` on the current pool (see [`with_pool`]): each
/// result is delivered to `sink` in input order, as it lands, through a
/// bounded reorder window — so a fold over N cells holds O(window)
/// results, not O(N). Delivery is bit-identical to the serial loop for
/// any job count. `sink` runs under the fold's internal lock and must not
/// submit pool work.
pub fn map_fold<T, R, F, S>(items: Vec<T>, f: F, sink: S)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    current_shared().map_fold_impl(items, f, sink)
}

/// Streams `f` over the cell indices `0..n` on the current pool,
/// folding each result into `sink` in index order as it lands — the
/// shape replication fan-outs take.
pub fn fold_cells<R, F, S>(n: usize, f: F, sink: S)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    map_fold((0..n).collect(), |_, i| f(i), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Folds `f` over `items` on `pool`, collecting `(index, result)` in
    /// delivery order.
    fn fold_on<T, R, F>(pool: &Pool, items: Vec<T>, f: F) -> Vec<(usize, R)>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut out = Vec::new();
        with_pool(pool, || map_fold(items, f, |i, r| out.push((i, r))));
        out
    }

    /// [`fold_on`] without the delivery indices.
    fn collect_on<T, R, F>(pool: &Pool, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        fold_on(pool, items, f)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    #[test]
    fn folds_deliver_in_input_order_for_every_job_count() {
        let expect: Vec<(usize, u64)> = (0..257u64).map(|x| (x as usize, x * 3 + 1)).collect();
        for jobs in [1, 2, 3, 8] {
            let pool = Pool::new(jobs);
            let got = fold_on(&pool, (0..257u64).collect(), |_, x| x * 3 + 1);
            assert_eq!(got, expect, "map_fold, jobs = {jobs}");
            let mut cells = Vec::new();
            with_pool(&pool, || {
                fold_cells(257, |i| i as u64 * 3 + 1, |i, v| cells.push((i, v)))
            });
            assert_eq!(cells, expect, "fold_cells, jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_folds_run_inline() {
        let pool = Pool::new(4);
        let none: Vec<u32> = collect_on(&pool, Vec::<u32>::new(), |_, x| x);
        assert!(none.is_empty());
        let caller = std::thread::current().id();
        let one = collect_on(&pool, vec![5u32], |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn cells_really_run_on_more_than_one_thread() {
        // Two cells rendezvous on a barrier: that can only succeed if
        // they run concurrently on distinct threads. Pool::new(3) has
        // two workers plus the participating submitter, so some second
        // thread is always free to claim the second cell.
        let pool = Pool::new(3);
        let barrier = Barrier::new(2);
        let ids = collect_on(&pool, vec![0, 1], |_, _| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn submitter_participates_when_pool_is_saturated() {
        // One worker is parked on a barrier; the submitting thread must
        // pick up the remaining cells itself for the batch to finish.
        let pool = Pool::new(2);
        let gate = Barrier::new(2);
        let out = collect_on(&pool, vec![0usize, 1, 2, 3], |_, i| {
            if i == 0 {
                gate.wait();
            }
            if i == 3 {
                gate.wait();
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn nested_folds_complete_and_preserve_order() {
        let pool = Pool::new(3);
        let got = collect_on(&pool, (0..6usize).collect(), |_, i| {
            // A nested fold on a worker thread must resolve to this pool.
            let mut sum = 0;
            fold_cells(4, |j| i * 10 + j, |_, v| sum += v);
            sum
        });
        let expect: Vec<usize> = (0..6).map(|i| 4 * i * 10 + 6).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn with_pool_overrides_the_global_pool() {
        let pool = Pool::new(1);
        let here = std::thread::current().id();
        let ids = collect_on(&pool, vec![(); 8], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == here), "jobs=1 must stay serial");
    }

    #[test]
    fn fold_window_bounds_in_flight_cells() {
        // Cell 0 stalls until every other cell of the first window has
        // completed. While it stalls the delivery head is stuck at 0, so
        // no cell at or beyond the window may even *start* — that is the
        // boundedness guarantee that keeps fold memory flat.
        let jobs = 4;
        let pool = Pool::new(jobs);
        let window = jobs * FOLD_WINDOW_PER_LANE;
        let n = window * 4;
        let started_max = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let mut delivered = 0usize;
        with_pool(&pool, || {
            map_fold(
                (0..n).collect(),
                |i, _| {
                    started_max.fetch_max(i, Ordering::SeqCst);
                    if i == 0 {
                        while completed.load(Ordering::SeqCst) < window - 1 {
                            std::thread::yield_now();
                        }
                        let max = started_max.load(Ordering::SeqCst);
                        assert!(max < window, "cell {max} started past the window");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |i, v| {
                    assert_eq!(i, delivered);
                    assert_eq!(v, delivered);
                    delivered += 1;
                },
            )
        });
        assert_eq!(delivered, n);
    }

    #[test]
    fn cell_panic_propagates_after_the_batch_drains() {
        let pool = Pool::new(3);
        let completed = AtomicUsize::new(0);
        let delivered = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || {
                map_fold(
                    (0..16usize).collect(),
                    |_, i| {
                        if i == 5 {
                            panic!("cell 5 exploded");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        i
                    },
                    |i, _| delivered.lock().unwrap().push(i),
                )
            })
        }));
        assert!(result.is_err());
        let payload = *result.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(payload, "cell 5 exploded");
        // Every non-panicking cell ran and was delivered in order (the
        // placeholder lets the head advance past the panicked cell): the
        // batch fully drained before the panic resurfaced.
        assert_eq!(completed.load(Ordering::Relaxed), 15);
        let delivered = delivered.lock().unwrap().clone();
        let expect: Vec<usize> = (0..16).filter(|i| *i != 5).collect();
        assert_eq!(delivered, expect);
        // The pool is reusable.
        assert_eq!(
            collect_on(&pool, vec![1u8, 2, 3], |_, x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn metrics_account_worker_cells() {
        let pool = Pool::new(4);
        let before = pool.metrics();
        assert_eq!(before.jobs, 4);
        let gate = Barrier::new(2);
        // The first two cells rendezvous, so at least one runs on a
        // worker (the submitter cannot satisfy both sides).
        let _ = collect_on(&pool, (0..64usize).collect(), |_, i| {
            if i < 2 {
                gate.wait();
            }
            i
        });
        let after = pool.metrics();
        let worker_cells: u64 = after.cells_executed.iter().sum();
        assert!(worker_cells >= 1, "workers executed nothing");
        assert_eq!(after.busy_secs.len(), 3);
        let busy = after.since(&before);
        assert!(busy.iter().all(|b| (0.0..=1.0).contains(b)));
    }

    #[test]
    fn configure_applies_only_before_first_global_use() {
        // The global pool may or may not exist depending on test order;
        // all we can assert deterministically is idempotence.
        let first = configure(1);
        let second = configure(7);
        assert!(!second || first, "second configure cannot win");
        assert!(global().jobs() >= 1);
    }
}
