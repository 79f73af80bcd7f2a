//! The one fan-out primitive: [`map`] over a process-wide pool of parked
//! worker threads.
//!
//! Every parallel loop of the compiler (stage 2's shape compiles, the
//! anytime rounds, fleet members and the optional candidate-pair scan) is
//! a `map` over `0..len` whose results land in index-aligned slots, so the
//! output is identical for every thread cap. The pool starts on the first
//! fan-out that wants a helper and holds one worker per available core
//! minus one, because the calling thread always takes part; a one-core host
//! starts no workers and runs every fan-out inline. No compile creates a
//! thread.
//!
//! A job is an atomic index counter plus its slots. The caller queues it,
//! wakes at most `cap − 1` idle workers and claims indices at once, so a
//! small fan-out usually finishes on the caller before a helper is
//! scheduled. A helper claims indices until none remain, then moves on to
//! the next queued job. The caller waits only for indices that are
//! already claimed, and their claimers are running them. Threads never
//! help a foreign job while they wait, so the waits follow the nesting of
//! fan-outs downwards: concurrent callers (`phoenixd`'s workers) and
//! nested fan-outs (a fleet member's stage 2) cannot deadlock, and a
//! nested fan-out whose workers are all busy runs on its caller alone.
//!
//! Pool threads outlive every borrow, so a job owns, or shares through
//! `Arc`, everything it reads; there is no `unsafe` here.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use phoenix_obs::metrics::{self, MetricId};

/// The payload of a caught panic.
type Panic = Box<dyn Any + Send>;

/// Resolves a thread cap: `0` means one participant per available core.
/// The core count is read once per process, because
/// `available_parallelism` re-reads the cgroup limits on every call.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    match requested {
        0 => *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get())),
        t => t,
    }
}

/// Maps `f` over `0..len` with at most `cap` participants (`0` = one per
/// core, `1` = inline on the caller): the caller plus up to `cap − 1` pool
/// workers. Each participant gets one `state` from `init`, made before its
/// first index of this job. Result `i` is `f(state, i)` whichever thread
/// ran it, so the output is the same for every cap.
///
/// # Panics
///
/// A panic in `f` is caught where it happens and its index still counts as
/// complete; once every index is done, the caller re-raises the panic of
/// the lowest panicking index. Pool workers survive it.
pub(crate) fn map<S, R, I, F>(len: usize, cap: usize, init: I, f: F) -> Vec<R>
where
    S: 'static,
    R: Send + 'static,
    I: Fn() -> S + Send + Sync + 'static,
    F: Fn(&mut S, usize) -> R + Send + Sync + 'static,
{
    let helpers = resolve_threads(cap).min(len).saturating_sub(1);
    let pool = (helpers > 0).then(global_pool).filter(|p| p.workers > 0);
    let Some(pool) = pool else {
        let mut state = None;
        return (0..len)
            .map(|i| f(state.get_or_insert_with(&init), i))
            .collect();
    };
    let job = Arc::new(Job {
        len,
        next: AtomicUsize::new(0),
        seats: AtomicUsize::new(helpers),
        init,
        f,
        out: Mutex::new(Slots {
            slots: (0..len).map(|_| None).collect(),
            filled: 0,
            waiting: false,
        }),
        all_filled: Condvar::new(),
        state: PhantomData,
    });
    let m = metrics::global();
    m.incr(MetricId::PoolFanouts);
    m.add(MetricId::PoolIndices, len as u64);
    pool.submit(job.clone(), helpers);
    job.participate();
    pool.withdraw(&job);
    job.collect()
}

/// The pool workers started so far (`0` before the first fan-out that
/// wanted a helper, and on a one-core host). Read by the pool tests.
#[allow(dead_code)]
pub(crate) fn started_workers() -> usize {
    POOL.get().map_or(0, |p| p.workers)
}

/// One fan-out: an index counter, the work, and the result slots.
struct Job<S, R, I, F> {
    len: usize,
    /// The next unclaimed index; claims past `len` find nothing.
    next: AtomicUsize,
    /// Helper seats left: `cap − 1` at the start.
    seats: AtomicUsize,
    init: I,
    f: F,
    out: Mutex<Slots<R>>,
    /// Signalled when the last slot is filled while the caller waits.
    all_filled: Condvar,
    /// Each participant makes its own `S`; the job never holds one.
    state: PhantomData<fn() -> S>,
}

/// A job's index-aligned results.
struct Slots<R> {
    slots: Vec<Option<Result<R, Panic>>>,
    filled: usize,
    /// The caller is parked on `all_filled`.
    waiting: bool,
}

/// What a pool worker sees of a job, with its types erased.
trait Task: Send + Sync {
    /// Takes a helper seat if one is left and indices remain unclaimed.
    fn join(&self) -> bool;
    /// Whether a helper could still join.
    fn open(&self) -> bool;
    /// Claims and runs indices until none remain, as a helper.
    fn help(&self);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Nothing panics while a pool lock is held; a poisoned lock still
    // holds consistent data.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<S, R, I, F> Job<S, R, I, F>
where
    R: Send,
    I: Fn() -> S,
    F: Fn(&mut S, usize) -> R,
{
    /// Claims and runs indices until none remain; returns how many ran.
    fn participate(&self) -> usize {
        let mut state: Option<S> = None;
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return ran;
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let state = state.get_or_insert_with(&self.init);
                (self.f)(state, i)
            }));
            if result.is_err() {
                // A state that saw a panic is not trusted with more work.
                state = None;
            }
            self.fill(i, result);
            ran += 1;
        }
    }

    fn fill(&self, i: usize, result: Result<R, Panic>) {
        let mut out = lock(&self.out);
        out.slots[i] = Some(result);
        out.filled += 1;
        if out.filled == self.len && out.waiting {
            self.all_filled.notify_one();
        }
    }

    /// Waits for every slot, then returns the results in index order or
    /// re-raises the lowest-index panic.
    fn collect(&self) -> Vec<R> {
        let mut out = lock(&self.out);
        while out.filled < self.len {
            out.waiting = true;
            out = self
                .all_filled
                .wait(out)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let slots = std::mem::take(&mut out.slots);
        drop(out);
        slots
            .into_iter()
            .map(
                |slot| match slot.expect("every index was claimed and run") {
                    Ok(r) => r,
                    Err(payload) => panic::resume_unwind(payload),
                },
            )
            .collect()
    }
}

impl<S, R, I, F> Task for Job<S, R, I, F>
where
    R: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, usize) -> R + Send + Sync,
{
    fn join(&self) -> bool {
        self.open()
            && self
                .seats
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
                .is_ok()
    }

    fn open(&self) -> bool {
        self.seats.load(Ordering::Relaxed) > 0 && self.next.load(Ordering::Relaxed) < self.len
    }

    fn help(&self) {
        let ran = self.participate();
        if ran > 0 {
            metrics::global().add(MetricId::PoolHelperIndices, ran as u64);
        }
    }
}

/// The process-wide worker pool.
struct Pool {
    /// Worker threads that started.
    workers: usize,
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<Queue>,
    /// Parked workers wait here for a wake-up.
    wake: Condvar,
}

struct Queue {
    /// Jobs that may still take a helper, oldest first.
    jobs: VecDeque<Arc<dyn Task>>,
    /// Parked workers no wake-up has been sent to.
    idle: usize,
    /// Wake-ups sent and not yet taken by a worker.
    wakeups: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The pool, started on first use with one worker per core but one.
fn global_pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let shared = Arc::new(Shared {
            state: Mutex::new(Queue {
                jobs: VecDeque::new(),
                idle: 0,
                wakeups: 0,
            }),
            wake: Condvar::new(),
        });
        let workers = (1..resolve_threads(0))
            .map_while(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phoenix-pool-{k}"))
                    .spawn(move || work(&shared))
                    .ok()
            })
            .count();
        Pool { workers, shared }
    })
}

impl Pool {
    /// Queues `job` and wakes up to `helpers` parked workers.
    fn submit(&self, job: Arc<dyn Task>, helpers: usize) {
        let mut q = lock(&self.shared.state);
        q.jobs.push_back(job);
        let wake = helpers.min(q.idle);
        q.idle -= wake;
        q.wakeups += wake;
        drop(q);
        for _ in 0..wake {
            self.shared.wake.notify_one();
        }
    }

    /// Takes `job` off the queue once its caller has run out of indices.
    fn withdraw<T>(&self, job: &Arc<T>) {
        let mut q = lock(&self.shared.state);
        let ptr = Arc::as_ptr(job);
        q.jobs.retain(|j| !std::ptr::addr_eq(Arc::as_ptr(j), ptr));
    }
}

/// A pool worker: helps the oldest job that takes it, else parks until a
/// caller sends a wake-up.
fn work(shared: &Shared) {
    let mut q = lock(&shared.state);
    loop {
        let mut task = None;
        while let Some(front) = q.jobs.front() {
            if front.join() {
                task = Some(Arc::clone(front));
                if !front.open() {
                    q.jobs.pop_front();
                }
                break;
            }
            q.jobs.pop_front();
        }
        if let Some(task) = task {
            drop(q);
            task.help();
            drop(task);
            q = lock(&shared.state);
            continue;
        }
        q.idle += 1;
        loop {
            q = shared.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            if q.wakeups > 0 {
                q.wakeups -= 1;
                break;
            }
        }
    }
}
