//! Hermetic stand-in for `rayon`: a real `std::thread` parallel executor.
//!
//! `par_iter()` / `into_par_iter()` return lazy parallel iterators whose
//! adapter chains (`map`, `flat_map`, `enumerate`, `collect`, ...) execute
//! on a pool of worker threads while preserving sequential order exactly:
//!
//! * **Decomposition.** Every chain decomposes into an ordered list of
//!   independent *tasks*, each producing exactly one output item (sources
//!   emit one task per element; `map` wraps 1:1; `flat_map` expands eagerly
//!   on the orchestrating thread, so its *inner* items become first-class
//!   tasks). The task index therefore *is* the global item index — which is
//!   what makes `enumerate` exact and `collect` order-preserving.
//! * **Execution.** Tasks are pulled by index from a shared queue
//!   (self-scheduling, so uneven task costs balance automatically) and
//!   their results land in per-index slots; `collect` reads the slots in
//!   order. Results are bit-identical to a sequential run for any worker
//!   count, because tasks share no state.
//! * **Pool sizing.** A global token pool bounds total concurrency across
//!   *nested* parallel regions: the process-wide budget is `NOC_THREADS`
//!   (or `available_parallelism`), each region borrows up to its task
//!   count, and inner regions fall back to sequential execution when the
//!   budget is exhausted. `NOC_THREADS=1` yields zero extra workers —
//!   strictly sequential execution, identical to the old sequential shim.
//! * **Panics.** A panicking task aborts the region promptly; the first
//!   panic payload is re-thrown on the calling thread (like real rayon).
//!
//! Workers are scoped threads spawned per parallel region. Spawn cost
//! (~tens of microseconds) is negligible at this workspace's granularity —
//! one task is one simulated design point, i.e. milliseconds to minutes.
#![forbid(unsafe_code)]

pub mod cancel;
pub mod region;

pub use cancel::{CancelReason, CancelToken};
use region::{Region, Task};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Global worker-token pool.
// ---------------------------------------------------------------------------

struct PoolState {
    /// Configured parallelism (the caller's thread counts as one).
    threads: usize,
    /// Worker tokens currently available to parallel regions. May go
    /// negative transiently after `set_num_threads` shrinks the pool while
    /// regions are in flight.
    available: isize,
}

static POOL: OnceLock<Mutex<PoolState>> = OnceLock::new();

/// Validates a positive-count environment value (a `NOC_THREADS`-style
/// knob).
///
/// `Ok(None)` when the variable is unset or empty (empty means "use the
/// default", so `NOC_THREADS= cmd` behaves like an unset variable). Any
/// non-empty value must be an integer ≥ 1: `0` and garbage are *errors*,
/// never a silent fallback to the default.
pub fn parse_threads_env(name: &str, val: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = val else { return Ok(None) };
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(0) => Err(format!(
            "{name}={raw:?}: count must be at least 1 (use 1 to disable \
             parallelism, or unset the variable for the default)"
        )),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "{name}={raw:?}: not a positive integer (unset the variable for \
             the default)"
        )),
    }
}

/// Reads and validates `NOC_THREADS`. `Ok(None)` when unset.
pub fn env_threads() -> Result<Option<usize>, String> {
    parse_threads_env("NOC_THREADS", std::env::var("NOC_THREADS").ok().as_deref())
}

fn pool() -> &'static Mutex<PoolState> {
    POOL.get_or_init(|| {
        let threads = env_threads()
            .unwrap_or_else(|e| panic!("invalid thread configuration: {e}"))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Mutex::new(PoolState {
            threads,
            available: threads as isize - 1,
        })
    })
}

fn lock_pool() -> std::sync::MutexGuard<'static, PoolState> {
    pool().lock().unwrap_or_else(PoisonError::into_inner)
}

/// The configured parallelism (mirrors `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    lock_pool().threads
}

/// Reconfigures the worker budget at runtime (clamped to ≥ 1). Unlike real
/// rayon this is always allowed: the token pool adjusts immediately and
/// regions already running keep the workers they borrowed.
pub fn set_num_threads(n: usize) {
    let n = n.max(1);
    let mut st = lock_pool();
    st.available += n as isize - st.threads as isize;
    st.threads = n;
}

fn claim_workers(want: usize) -> usize {
    let mut st = lock_pool();
    let grant = want.min(st.available.max(0) as usize);
    st.available -= grant as isize;
    grant
}

fn release_workers(n: usize) {
    lock_pool().available += n as isize;
}

/// Returns borrowed worker tokens on drop (panic-safe).
struct WorkerTokens(usize);

impl Drop for WorkerTokens {
    fn drop(&mut self) {
        release_workers(self.0);
    }
}

// ---------------------------------------------------------------------------
// Panic isolation.
// ---------------------------------------------------------------------------

/// Extracts a human-readable message from a panic payload (`panic!` with a
/// `String` or `&str`; anything else gets a generic description).
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)` instead of unwinding.
///
/// This is the isolation primitive for crash-resilient sweep runners: one
/// wedged or asserting datapoint becomes a recorded failure, not a lost run.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p))
}

// ---------------------------------------------------------------------------
// Ordered task execution.
// ---------------------------------------------------------------------------

/// Runs `tasks` to completion, returning their results in task order.
///
/// Borrows up to `tasks.len() - 1` workers from the global pool; the calling
/// thread always participates, so a region makes progress even when the pool
/// is exhausted (in which case execution is plain sequential, in order).
fn run_tasks<'s, T: Send + 's>(tasks: Vec<Task<'s, T>>) -> Vec<T> {
    let n = tasks.len();
    if n <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let workers = claim_workers(n - 1);
    let _tokens = WorkerTokens(workers);
    if workers == 0 {
        return tasks.into_iter().map(|t| t()).collect();
    }

    // The queue/slots/abort state machine lives in `region`; this shell
    // only decides *who* drives it (scoped threads here; the schedule
    // explorer in tests/schedules.rs drives the same machine
    // deterministically). Workers return panic payloads instead of
    // unwinding so the caller re-throws exactly one panic after joining.
    let region = Region::new(tasks);
    let mut payload: Option<region::Payload> = None;

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| region.worker())).collect();
        payload = region.worker();
        for h in handles {
            match h.join() {
                Ok(Some(p)) | Err(p) => {
                    if payload.is_none() {
                        payload = Some(p);
                    }
                }
                Ok(None) => {}
            }
        }
    });

    if let Some(p) = payload {
        resume_unwind(p);
    }
    region.into_results()
}

/// Runs `f` over every item on the pool, stopping cooperatively when
/// `token` fires: items not yet claimed are dropped, items already claimed
/// run to completion. The cancellation point is the region's claim loop —
/// the token is checked before every task hand-out, on the sequential
/// fallback path too, so a fired token stops a region of any width at task
/// granularity.
///
/// Panics still propagate like [`iter::ParallelIterator::for_each`]: the
/// first payload is re-thrown on the calling thread after the region winds
/// down. Cancellation itself is silent — callers that need to distinguish
/// "ran out of work" from "was cancelled" ask the token.
pub fn for_each_cancellable<T, F>(items: Vec<T>, token: &CancelToken, f: F)
where
    T: Send,
    F: Fn(T) + Send + Sync,
{
    let tasks: Vec<Task<'_, ()>> = items
        .into_iter()
        .map(|x| {
            let f = &f;
            Box::new(move || f(x)) as Task<'_, ()>
        })
        .collect();
    let n = tasks.len();
    if n == 0 {
        return;
    }
    let workers = if n == 1 { 0 } else { claim_workers(n - 1) };
    let _tokens = WorkerTokens(workers);
    let region = Region::new(tasks).with_cancel(token.flag());
    if workers == 0 {
        // Sequential fallback: the same claim loop, driven inline.
        if let Some(p) = region.worker() {
            resume_unwind(p);
        }
        return;
    }
    let mut payload: Option<region::Payload> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| region.worker())).collect();
        payload = region.worker();
        for h in handles {
            match h.join() {
                Ok(Some(p)) | Err(p) => {
                    if payload.is_none() {
                        payload = Some(p);
                    }
                }
                Ok(None) => {}
            }
        }
    });
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

// ---------------------------------------------------------------------------
// Parallel iterator API.
// ---------------------------------------------------------------------------

pub mod iter {
    use super::{run_tasks, Task};
    use std::sync::Arc;

    /// A lazily-composed parallel computation over `'s`-scoped data.
    ///
    /// The lifetime parameter scopes borrowed sources (e.g. `par_iter` on a
    /// slice); owned chains are free to pick any lifetime.
    pub trait ParallelIterator<'s>: Sized + Send + 's {
        /// The element type.
        type Item: Send + 's;

        /// Decomposes the chain into ordered single-item tasks. Called on
        /// the orchestrating thread; the tasks run on pool workers.
        fn into_tasks(self) -> Vec<Task<'s, Self::Item>>;

        /// Parallel map, mirroring `rayon::iter::ParallelIterator::map`.
        fn map<U, F>(self, f: F) -> Map<Self, F>
        where
            U: Send + 's,
            F: Fn(Self::Item) -> U + Send + Sync + 's,
        {
            Map { base: self, f }
        }

        /// Parallel flat-map. The outer closure runs *eagerly on the
        /// orchestrating thread* (it is expected to be cheap — it builds
        /// the inner iterators); the inner items become parallel tasks.
        fn flat_map<PI, F>(self, f: F) -> FlatMap<Self, F>
        where
            PI: ParallelIterator<'s>,
            F: Fn(Self::Item) -> PI + Send + Sync + 's,
        {
            FlatMap { base: self, f }
        }

        /// Pairs every item with its global index (exact, because tasks are
        /// 1:1 with items).
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { base: self }
        }

        /// Runs `f` over every item on the pool (order of side effects is
        /// unspecified, as with real rayon).
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Send + Sync + 's,
        {
            let _: Vec<()> = self.map(f).collect();
        }

        /// Executes the chain and collects the results **in order**.
        fn collect<C: FromIterator<Self::Item>>(self) -> C {
            run_tasks(self.into_tasks()).into_iter().collect()
        }
    }

    /// Parallel iterator over `&'a [T]` (the `par_iter` source).
    pub struct SlicePar<'a, T> {
        slice: &'a [T],
    }

    impl<'a, T: Sync> ParallelIterator<'a> for SlicePar<'a, T> {
        type Item = &'a T;

        fn into_tasks(self) -> Vec<Task<'a, &'a T>> {
            self.slice
                .iter()
                .map(|r| Box::new(move || r) as Task<'a, &'a T>)
                .collect()
        }
    }

    /// Parallel iterator over an owned collection (the `into_par_iter`
    /// source). Elements are moved into their tasks up front.
    pub struct IntoPar<I>(I);

    impl<'s, I> ParallelIterator<'s> for IntoPar<I>
    where
        I: IntoIterator + Send + 's,
        I::Item: Send + 's,
    {
        type Item = I::Item;

        fn into_tasks(self) -> Vec<Task<'s, I::Item>> {
            self.0
                .into_iter()
                .map(|x| Box::new(move || x) as Task<'s, I::Item>)
                .collect()
        }
    }

    /// See [`ParallelIterator::map`].
    pub struct Map<I, F> {
        base: I,
        f: F,
    }

    impl<'s, I, F, U> ParallelIterator<'s> for Map<I, F>
    where
        I: ParallelIterator<'s>,
        U: Send + 's,
        F: Fn(I::Item) -> U + Send + Sync + 's,
    {
        type Item = U;

        fn into_tasks(self) -> Vec<Task<'s, U>> {
            let f = Arc::new(self.f);
            self.base
                .into_tasks()
                .into_iter()
                .map(|t| {
                    let f = Arc::clone(&f);
                    Box::new(move || f(t())) as Task<'s, U>
                })
                .collect()
        }
    }

    /// See [`ParallelIterator::flat_map`].
    pub struct FlatMap<I, F> {
        base: I,
        f: F,
    }

    impl<'s, I, PI, F> ParallelIterator<'s> for FlatMap<I, F>
    where
        I: ParallelIterator<'s>,
        PI: ParallelIterator<'s>,
        F: Fn(I::Item) -> PI + Send + Sync + 's,
    {
        type Item = PI::Item;

        fn into_tasks(self) -> Vec<Task<'s, PI::Item>> {
            let f = self.f;
            self.base
                .into_tasks()
                .into_iter()
                .flat_map(|t| f(t()).into_tasks())
                .collect()
        }
    }

    /// See [`ParallelIterator::enumerate`].
    pub struct Enumerate<I> {
        base: I,
    }

    impl<'s, I: ParallelIterator<'s>> ParallelIterator<'s> for Enumerate<I> {
        type Item = (usize, I::Item);

        fn into_tasks(self) -> Vec<Task<'s, (usize, I::Item)>> {
            self.base
                .into_tasks()
                .into_iter()
                .enumerate()
                .map(|(i, t)| Box::new(move || (i, t())) as Task<'s, (usize, I::Item)>)
                .collect()
        }
    }

    /// Stand-in for `rayon::iter::IntoParallelIterator`.
    pub trait IntoParallelIterator<'s> {
        /// The parallel iterator type.
        type Iter: ParallelIterator<'s, Item = Self::Item>;
        /// The element type.
        type Item: Send + 's;
        /// Converts into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<'s, I> IntoParallelIterator<'s> for I
    where
        I: IntoIterator + Send + 's,
        I::Item: Send + 's,
    {
        type Iter = IntoPar<I>;
        type Item = I::Item;

        fn into_par_iter(self) -> IntoPar<I> {
            IntoPar(self)
        }
    }

    /// Stand-in for `rayon::iter::IntoParallelRefIterator`. Implemented for
    /// `[T]`; `Vec<T>` and arrays reach it through deref / unsize coercion.
    pub trait IntoParallelRefIterator<'a> {
        /// The parallel iterator type.
        type Iter: ParallelIterator<'a, Item = Self::Item>;
        /// The element type (a reference).
        type Item: Send + 'a;
        /// Returns a parallel iterator over borrowed elements.
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Iter = SlicePar<'a, T>;
        type Item = &'a T;

        fn par_iter(&'a self) -> SlicePar<'a, T> {
            SlicePar { slice: self }
        }
    }
}

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_sequential() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let flat: Vec<(usize, i32)> = v
            .par_iter()
            .enumerate()
            .flat_map(|(i, &x)| [(i, x)].into_par_iter())
            .collect();
        assert_eq!(flat.len(), 4);
        assert_eq!(flat[3], (3, 4));
    }

    #[test]
    fn order_is_preserved_under_skewed_task_costs() {
        // Early tasks sleep longest: with self-scheduling workers, late
        // tasks finish first — collect must still return source order.
        let input: Vec<usize> = (0..64).collect();
        let out: Vec<usize> = input
            .par_iter()
            .map(|&i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5 - i as u64));
                }
                i * 10
            })
            .collect();
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_indices_are_global_and_exact() {
        let v: Vec<u32> = (0..100).collect();
        let out: Vec<(usize, u32)> = v.par_iter().enumerate().map(|(i, &x)| (i, x + 1)).collect();
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, i as u32 + 1);
        }
    }

    #[test]
    fn flat_map_preserves_nested_order() {
        // The table3 shape: outer par over meshes, inner into_par_iter.
        let ks = [8u32, 16, 32];
        let out: Vec<(u32, u32)> = ks
            .par_iter()
            .flat_map(|&k| [1u32, 2].into_par_iter().map(move |s| (k, s)))
            .map(|(k, s)| (k, s * 100))
            .collect();
        assert_eq!(
            out,
            vec![
                (8, 100),
                (8, 200),
                (16, 100),
                (16, 200),
                (32, 100),
                (32, 200)
            ]
        );
    }

    #[test]
    fn nested_regions_share_the_token_budget() {
        let outer: Vec<usize> = (0..8).collect();
        let sums: Vec<usize> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<usize> = (0..8).collect();
                let v: Vec<usize> = inner.par_iter().map(|&i| o * 8 + i).collect();
                v.into_iter().sum()
            })
            .collect();
        let expect: Vec<usize> = (0..8).map(|o| (0..8).map(|i| o * 8 + i).sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let v: Vec<usize> = (0..32).collect();
        let r = std::panic::catch_unwind(|| {
            let _: Vec<usize> = v
                .par_iter()
                .map(|&i| {
                    assert!(i != 17, "task seventeen exploded");
                    i
                })
                .collect();
        });
        let payload = r.expect_err("panic must propagate out of collect");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("task seventeen exploded"), "payload: {msg}");
    }

    #[test]
    fn tokens_are_returned_after_panics() {
        // A panicking region must not leak worker tokens: a later region
        // still completes (and, with tokens restored, may run in parallel).
        let v: Vec<usize> = (0..16).collect();
        for _ in 0..3 {
            let _ = std::panic::catch_unwind(|| {
                let _: Vec<usize> = v.par_iter().map(|_| panic!("boom")).collect();
            });
        }
        let ok: Vec<usize> = v.par_iter().map(|&i| i + 1).collect();
        assert_eq!(ok.len(), 16);
        // All borrowed tokens drain back eventually (other tests may hold
        // some transiently — cargo runs tests concurrently).
        let full = super::current_num_threads() as isize - 1;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while super::lock_pool().available < full {
            assert!(std::time::Instant::now() < deadline, "tokens leaked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn parse_threads_env_accepts_valid_and_rejects_garbage() {
        use super::parse_threads_env as p;
        assert_eq!(p("NOC_THREADS", None), Ok(None));
        assert_eq!(p("NOC_THREADS", Some("")), Ok(None));
        assert_eq!(p("NOC_THREADS", Some("  ")), Ok(None));
        assert_eq!(p("NOC_THREADS", Some("1")), Ok(Some(1)));
        assert_eq!(p("NOC_THREADS", Some(" 8 ")), Ok(Some(8)));
        let zero = p("NOC_THREADS", Some("0")).unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        let junk = p("NOC_THREADS", Some("four")).unwrap_err();
        assert!(junk.contains("not a positive integer"), "{junk}");
        assert!(p("NOC_THREADS", Some("-2")).is_err());
        assert!(p("NOC_THREADS", Some("3.5")).is_err());
    }

    #[test]
    fn catch_panic_isolates_and_reports() {
        assert_eq!(super::catch_panic(|| 42), Ok(42));
        let msg = super::catch_panic(|| -> u32 { panic!("point {} wedged", 7) }).unwrap_err();
        assert_eq!(msg, "point 7 wedged");
        let msg = super::catch_panic(|| -> u32 { std::panic::panic_any("static str") });
        assert_eq!(msg, Err("static str".to_string()));
    }

    #[test]
    fn for_each_cancellable_runs_everything_with_a_quiet_token() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let token = super::CancelToken::new();
        super::for_each_cancellable((0..50).collect(), &token, |_: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn for_each_cancellable_stops_claiming_after_the_token_fires() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The third executed item cancels; with any worker count, items not
        // yet claimed at that point must never run.
        let count = AtomicUsize::new(0);
        let token = super::CancelToken::new();
        super::for_each_cancellable((0..10_000).collect(), &token, |_: usize| {
            if count.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                token.cancel();
            }
        });
        let ran = count.load(Ordering::Relaxed);
        assert!(ran >= 3, "the cancelling item itself ran: {ran}");
        // In-flight claims may finish, but the bulk of the queue must not:
        // a full run would be 10_000.
        assert!(ran < 10_000, "cancellation did not stop the region");
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(super::CancelReason::Cancelled));
    }

    #[test]
    fn for_each_cancellable_with_prefired_token_runs_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let token = super::CancelToken::new();
        token.cancel();
        super::for_each_cancellable((0..64).collect(), &token, |_: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn for_each_cancellable_still_propagates_panics() {
        let token = super::CancelToken::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            super::for_each_cancellable((0..8).collect(), &token, |i: usize| {
                assert!(i != 5, "item five exploded");
            });
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = super::panic_message(&*payload);
        assert!(msg.contains("item five exploded"), "payload: {msg}");
    }

    #[test]
    fn deadline_tokens_cancel_regions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let token = super::CancelToken::new();
        token.set_deadline(std::time::Instant::now());
        // The latch is only mirrored on observation; observe once like a
        // cooperative worker would.
        assert!(token.is_cancelled());
        super::for_each_cancellable((0..64).collect(), &token, |_: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        assert_eq!(token.reason(), Some(super::CancelReason::DeadlineExceeded));
    }

    #[test]
    fn for_each_visits_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        let v: Vec<usize> = (0..100).collect();
        v.par_iter().for_each(|&i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}
