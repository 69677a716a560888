//! The self-scheduling cell pool.
//!
//! Campaign cells are heterogeneous — a CBF replication of Table 1's
//! paper-scale cell costs 51–72× an EASY one (one core of a two-vCPU
//! host) — so static chunking (split the cell list into one contiguous
//! block per thread) head-of-line-blocks: whichever thread drew the CBF
//! block runs long after the rest go idle. The pool therefore
//! *self-schedules*: each lane of a fold claims the next unclaimed cell
//! index whenever it goes idle, so a long cell holds up only its own
//! lane.
//!
//! * The pool's `jobs - 1` workers park on one queue of *helpers*. A
//!   fold of `n` cells queues `min(jobs - 1, n - 1)` of them, and a
//!   worker that takes one becomes a lane of that fold until no cell is
//!   left to claim.
//! * The calling thread is a lane too, and it never waits for a helper
//!   to start, so `jobs = 1` (a pool with no workers) is an ordinary
//!   serial loop and a nested fold cannot deadlock: its caller alone can
//!   claim every one of its cells.
//! * Before a fold returns it withdraws the helpers no worker took and
//!   waits for the ones that run, so no lane outlives the fold.
//!
//! The pool has one primitive, the fold: [`map_fold`] (and
//! [`fold_cells`], its shape over cell indices) runs on the current pool
//! — the innermost [`with_pool`] (a worker starts with its own pool
//! there), else the global one. A caller that wants a vector pushes into
//! it from the sink.
//!
//! Determinism: a cell's inputs come only from its index (experiments
//! derive per-cell seeds hierarchically), and every completed cell is
//! routed through a bounded reorder window that releases results in
//! index order. Results therefore stream to the caller in index order,
//! bit-identical to the serial evaluation, for any worker count and any
//! claim interleaving — and a fold over a campaign of N cells holds at
//! most one reorder window of results, not N.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A panic caught on some lane, re-raised on the fold's caller.
type Payload = Box<dyn std::any::Any + Send>;

/// One lane of a fold: claims cells until none is left, and returns how
/// many it ran and the time they took.
type Lane<'a> = Box<dyn FnOnce() -> (u64, Duration) + Send + 'a>;

/// A lane queued for a worker, with its lifetime erased (see the SAFETY
/// note in [`Shared::map_fold_impl`]).
struct Helper {
    lanes: Arc<Lanes>,
    run: Lane<'static>,
}

/// How many helpers of one fold are queued or running, and the first
/// panic any lane of the fold caught. A helper leaves once it has run or
/// the fold has withdrawn it.
struct Lanes {
    state: Mutex<(usize, Option<Payload>)>,
    left: Condvar,
}

impl Lanes {
    /// Keeps `payload` if it is the fold's first panic.
    fn panicked(&self, payload: Payload) {
        let mut state = lock(&self.state);
        if state.1.is_none() {
            state.1 = Some(payload);
        }
    }

    fn leave(&self, helpers: usize) {
        let mut state = lock(&self.state);
        state.0 -= helpers;
        if state.0 == 0 {
            self.left.notify_all();
        }
    }

    /// Blocks until every helper has left, and returns the first panic.
    fn wait(&self) -> Option<Payload> {
        let state = self.left.wait_while(lock(&self.state), |s| s.0 > 0);
        state.unwrap_or_else(PoisonError::into_inner).1.take()
    }
}

/// Locks `mutex` even if a panic poisoned it. Every critical section in
/// the pool leaves its data whole (cell and sink panics are caught inside
/// the lanes), and a fold must not unwind past its own frame while one
/// of its helpers may still run.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The helpers no worker has taken yet, and whether the pool is closing.
#[derive(Default)]
struct Queue {
    helpers: VecDeque<Helper>,
    closing: bool,
}

/// State shared by the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Parking lot for idle workers.
    wake: Condvar,
    /// Nanoseconds each worker spent executing the cells it claimed.
    busy_ns: Vec<AtomicU64>,
    /// Cells each worker claimed as a helper of some fold.
    executed: Vec<AtomicU64>,
    created: Instant,
}

impl Shared {
    fn new(workers: usize) -> Self {
        Shared {
            queue: Mutex::default(),
            wake: Condvar::new(),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            created: Instant::now(),
        }
    }

    fn workers(&self) -> usize {
        self.busy_ns.len()
    }

    /// The fold under [`map_fold`]. Its window keeps memory flat: at
    /// most `window` cells (`FOLD_WINDOW_PER_LANE` per lane) are in
    /// flight or buffered at once, because no lane claims a cell a
    /// window or more past the delivery head.
    fn map_fold_impl<T, R, F, S>(&self, items: Vec<T>, f: F, mut sink: S)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        S: FnMut(usize, R) + Send,
    {
        let n = items.len();
        let workers = self.workers();
        // Serial fast path: nothing to fan out, or nobody to fan out to.
        if n <= 1 || workers == 0 {
            for (i, item) in items.into_iter().enumerate() {
                sink(i, f(i, item));
            }
            return;
        }

        let window = ((workers + 1) * FOLD_WINDOW_PER_LANE).min(n);
        let helpers = workers.min(n - 1);
        let fold = Fold {
            state: Mutex::new(FoldState {
                items: items.into_iter(),
                next: 0,
                head: 0,
                ring: (0..window).map(|_| None).collect(),
                sink: Some(sink),
            }),
            room: Condvar::new(),
            f,
            n,
            window,
            lanes: Arc::new(Lanes {
                state: Mutex::new((helpers, None)),
                left: Condvar::new(),
            }),
        };
        let lanes = &fold.lanes;
        {
            let mut queue = lock(&self.queue);
            for _ in 0..helpers {
                let run: Lane<'_> = Box::new(|| fold.lane());
                // SAFETY: `run` borrows `fold` from this frame. Each
                // helper is counted in `fold.lanes` from here until it
                // has run or been withdrawn, and this frame neither
                // returns nor unwinds before that count is zero: the
                // caller's own lane runs under `catch_unwind`, and what
                // follows it cannot panic (`lock` ignores poisoning). So
                // no helper runs, and none is dropped, once `fold` is
                // gone.
                let run = unsafe { std::mem::transmute::<Lane<'_>, Lane<'static>>(run) };
                queue.helpers.push_back(Helper {
                    lanes: Arc::clone(lanes),
                    run,
                });
            }
        }
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| fold.lane())) {
            lanes.panicked(payload);
        }
        let withdrawn = {
            let mut queue = lock(&self.queue);
            let queued = queue.helpers.len();
            queue.helpers.retain(|h| !Arc::ptr_eq(&h.lanes, lanes));
            queued - queue.helpers.len()
        };
        lanes.leave(withdrawn);
        if let Some(payload) = lanes.wait() {
            resume_unwind(payload);
        }
    }
}

/// In-flight + buffered cells per execution lane in a [`map_fold`]
/// reorder window: enough slack that a lane never idles waiting on the
/// delivery head, small enough that a stalled head (one slow cell at the
/// front) bounds buffered results to a constant.
const FOLD_WINDOW_PER_LANE: usize = 32;

/// A fold with more than one lane; its helpers borrow it from the
/// [`Shared::map_fold_impl`] frame.
struct Fold<T, R, F, S> {
    state: Mutex<FoldState<T, R, S>>,
    /// Signalled when the delivery head advances, which opens the window.
    room: Condvar,
    f: F,
    n: usize,
    window: usize,
    lanes: Arc<Lanes>,
}

/// The claim cursor and reorder window of a fold, advanced under its
/// lock by whichever lane claims or lands a cell.
struct FoldState<T, R, S> {
    /// The unclaimed items, cell `next`'s first.
    items: std::vec::IntoIter<T>,
    /// Next cell to claim. Invariant: `next <= head + window`, which
    /// bounds in-flight work and the ring alike.
    next: usize,
    /// Next cell to deliver to the sink.
    head: usize,
    /// Slot `i % window` holds cell `i`'s completion between landing and
    /// delivery: `None` = not landed, `Some(None)` = panicked (a
    /// placeholder so the head can advance past it), `Some(Some(r))` =
    /// ready to deliver.
    ring: Vec<Option<Option<R>>>,
    /// `None` once it has panicked: the fold then claims and delivers
    /// nothing more.
    sink: Option<S>,
}

impl<T, R, F, S> Fold<T, R, F, S>
where
    F: Fn(usize, T) -> R,
    S: FnMut(usize, R),
{
    /// Runs one lane: claims the next cell while the window has room,
    /// runs it outside the lock and lands it, until every cell is
    /// claimed or the sink has panicked. Returns the cells it ran and
    /// the time they took.
    fn lane(&self) -> (u64, Duration) {
        let (mut cells, mut busy) = (0, Duration::ZERO);
        let mut st = lock(&self.state);
        while st.next < self.n && st.sink.is_some() {
            if st.next == st.head + self.window {
                st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let i = st.next;
            st.next += 1;
            let item = st.items.next().expect("one item per cell");
            drop(st);
            let started = Instant::now();
            let value = catch_unwind(AssertUnwindSafe(|| (self.f)(i, item)));
            busy += started.elapsed();
            cells += 1;
            let value = value.map_err(|payload| self.lanes.panicked(payload)).ok();
            st = lock(&self.state);
            self.land(&mut st, i, value);
        }
        (cells, busy)
    }

    /// Lands cell `i`'s result (`None` if it panicked) and delivers every
    /// result now contiguous with the head, in index order.
    fn land(&self, st: &mut FoldState<T, R, S>, i: usize, value: Option<R>) {
        let slot = &mut st.ring[i % self.window];
        debug_assert!(slot.is_none(), "fold slot collided");
        *slot = Some(value);
        let from = st.head;
        while st.head < self.n {
            let Some(entry) = st.ring[st.head % self.window].take() else {
                break;
            };
            if let (Some(value), Some(sink)) = (entry, &mut st.sink) {
                let head = st.head;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| sink(head, value))) {
                    st.sink = None;
                    self.lanes.panicked(payload);
                }
            }
            st.head += 1;
        }
        if st.head > from {
            self.room.notify_all();
        }
    }
}

fn work(shared: Arc<Shared>, w: usize) {
    // Folds inside a helper's cells run on this pool, as they do on the
    // fold's caller.
    CONTEXT.with(|c| c.borrow_mut().push(Arc::clone(&shared)));
    loop {
        let mut queue = shared
            .wake
            .wait_while(lock(&shared.queue), |q| q.helpers.is_empty() && !q.closing)
            .unwrap_or_else(PoisonError::into_inner);
        // Empty only once the pool is closing.
        let Some(helper) = queue.helpers.pop_front() else {
            return;
        };
        drop(queue);
        match catch_unwind(AssertUnwindSafe(helper.run)) {
            Ok((cells, busy)) => {
                shared.executed[w].fetch_add(cells, Ordering::Relaxed);
                shared.busy_ns[w].fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
            }
            Err(payload) => helper.lanes.panicked(payload),
        }
        helper.lanes.leave(1);
    }
}

thread_local! {
    /// Stack of [`with_pool`] overrides on this thread; a worker's own
    /// pool sits at the bottom of its stack.
    static CONTEXT: std::cell::RefCell<Vec<Arc<Shared>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A self-scheduling pool of `jobs` execution lanes: `jobs - 1` worker
/// threads plus the calling thread, which is a lane of every fold it
/// starts. `Pool::new(1)` spawns no threads at all and evaluates every
/// fold serially on the caller.
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
                    .spawn(move || work(shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Total execution lanes (workers + the calling thread).
    pub fn jobs(&self) -> usize {
        self.shared.workers() + 1
    }

    /// A snapshot of the pool's per-worker counters.
    pub fn metrics(&self) -> PoolMetrics {
        let load = |counters: &[AtomicU64]| -> Vec<u64> {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        PoolMetrics {
            jobs: self.jobs(),
            elapsed_secs: self.shared.created.elapsed().as_secs_f64(),
            busy_secs: load(&self.shared.busy_ns)
                .into_iter()
                .map(|ns| ns as f64 * 1e-9)
                .collect(),
            cells_executed: load(&self.shared.executed),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).closing = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Point-in-time view of the pool's worker counters. Subtract two
/// snapshots (see [`PoolMetrics::since`]) to meter one campaign.
#[derive(Clone, Debug)]
pub struct PoolMetrics {
    /// Execution lanes (workers + the calling thread).
    pub jobs: usize,
    /// Seconds since the pool was created.
    pub elapsed_secs: f64,
    /// Seconds each worker spent executing the cells it claimed
    /// (excludes the calling thread's share).
    pub busy_secs: Vec<f64>,
    /// Cells each worker claimed as a helper of some fold.
    pub cells_executed: Vec<u64>,
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
    /// (per-worker busy seconds and cells as gauges — a snapshot
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
/// override (on a worker, its own pool at the least), else the global
/// pool.
fn current_shared() -> Arc<Shared> {
    CONTEXT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(&global().shared))
}

/// Streams `f` over `items` on the current pool (see [`with_pool`]): each
/// result is delivered to `sink` in input order, as it lands, through a
/// bounded reorder window — so a fold over N cells holds O(window)
/// results, not O(N). Delivery is bit-identical to the serial loop for
/// any job count. `sink` runs under the fold's internal lock and must not
/// submit pool work. The first panic of a cell or of `sink` is re-raised
/// here once every lane has left the fold; after a cell panics the other
/// cells still run and are delivered, after `sink` panics none are.
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

    #[test]
    fn a_sink_panic_reaches_the_caller_for_every_job_count() {
        for jobs in [1, 2, 3] {
            // The fold runs on its own thread so that a hang fails the
            // watchdog below instead of stalling the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            let fold = std::thread::spawn(move || {
                let pool = Pool::new(jobs);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    with_pool(&pool, || {
                        map_fold(
                            (0..200usize).collect(),
                            |_, i| i,
                            |i, _| {
                                if i == 3 {
                                    panic!("sink exploded at cell 3");
                                }
                            },
                        )
                    })
                }));
                let _ = tx.send(result.map_err(|p| p.downcast::<&str>().map(|s| *s).ok()));
            });
            let got = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("jobs = {jobs}: the fold hung after its sink panicked"));
            assert_eq!(got, Err(Some("sink exploded at cell 3")), "jobs = {jobs}");
            fold.join().unwrap();
        }
    }

    #[test]
    fn a_nested_fold_runs_its_cells_in_parallel() {
        // Cell 1 of the outer fold runs a nested fold whose two cells
        // wait, with a bounded spin, until both have started. Pool::new(3)
        // has two workers, so however the outer cells are claimed one
        // worker is free to take the nested fold's helper.
        let pool = Pool::new(3);
        let entered = AtomicUsize::new(0);
        let together = collect_on(&pool, vec![0, 1], |_, cell| {
            if cell == 0 {
                return true;
            }
            let mut both = true;
            fold_cells(
                2,
                |_| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while entered.load(Ordering::SeqCst) < 2 {
                        if Instant::now() > deadline {
                            return false;
                        }
                        std::thread::yield_now();
                    }
                    true
                },
                |_, met| both &= met,
            );
            both
        });
        assert_eq!(
            together,
            vec![true, true],
            "the nested cells never ran together"
        );
    }
}
