//! Zero-dependency morsel-driven data parallelism over scoped OS threads.
//!
//! Work is split into **morsels** — small runs of consecutive items (at
//! most [`MORSEL_MAX_ITEMS`] each) — and scheduled by work stealing:
//! every worker owns a deque of morsel ids, pops from the front of its
//! own deque, and when that runs dry steals from the *back* of a
//! neighbour's. Skewed items therefore no longer serialize a run the way
//! the original contiguous pre-chunking did: a worker stuck on one
//! expensive morsel keeps exactly that morsel, and the rest of its block
//! is drained by its peers. Results are reassembled **in input order**,
//! so a parallel run stays byte-identical to the serial one.
//!
//! Threads come from [`std::thread::scope`], which lets workers borrow
//! from the caller's stack (the database, compiled plans, a shared
//! [`crate::guard::QueryGuard`]) without `'static` bounds or a
//! persistent pool — there is no global queue, no channels, and nothing
//! to shut down.
//!
//! Error handling is deterministic: every morsel stops at its own first
//! error, all queued morsels still run to a recorded outcome, and the
//! caller receives the error of the **lowest-indexed morsel** that
//! failed — exactly the error the serial loop would have hit first,
//! regardless of which worker ran the morsel or in what order. Guard
//! trips (deadline, budget) are the one sanctioned source of
//! nondeterminism — budget counters are shared atomics, so *which* row
//! trips the budget depends on thread interleaving, but whether the
//! budget trips at all does not.
//!
//! Panics are isolated, not propagated: each morsel (and the serial
//! fallback) runs under [`std::panic::catch_unwind`], and a panicking
//! morsel surfaces as a typed [`WorkerPanic`] error converted into the
//! caller's error type. One poisoned tuple therefore degrades the
//! request it belongs to instead of aborting the serving thread; guard
//! budgets live in shared atomics, so everything charged before the
//! panic stays settled. Morsel ordering still applies — a plain error in
//! morsel 0 beats a panic in morsel 2, and vice versa. A panic that
//! kills a whole worker *before* it claims work (the `exec.pool.spawn`
//! failpoint models infrastructure failure at thread startup) is
//! absorbed when the surviving workers steal the dead worker's entire
//! deque; only morsels that end without any recorded outcome surface it.
//!
//! Callers decide when parallelism pays: pass `parallelism <= 1` (or a
//! single item) and the whole thing degrades to a plain serial loop with
//! no thread spawned. [`PARALLEL_THRESHOLD`] is the shared heuristic for
//! row-granularity work (hash-join build/probe); coarser work like PPA's
//! preference-query materializations parallelizes profitably at much
//! smaller batch sizes.
//!
//! Scheduling is observable: every parallel run returns a
//! [`MorselStats`] (morsels dispatched, steals performed), the engine
//! folds these into the `pool.morsel` / `pool.steal` counters, and
//! [`totals`] exposes monotonic process-wide sums for benchmark
//! auditing (`repro --bench-parallel` records them).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Minimum number of *row-granularity* items before operators fan out.
/// Below this, thread spawn overhead dwarfs the per-row work.
pub const PARALLEL_THRESHOLD: usize = 256;

/// Upper bound on items per morsel. Work units handed to the pool are
/// already coarse (a 1024-row [`crate::batch::Batch`], a preference-query
/// materialization, a chunk of PPA's fresh tuples), so morsels of 1–4
/// items keep the steal granularity fine enough to absorb skew while the
/// per-morsel locking overhead stays invisible next to the work itself.
pub const MORSEL_MAX_ITEMS: usize = 4;

/// Scheduling statistics from one [`morsel_map`] run. The serial
/// fallback reports zeros — no scheduler was engaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorselStats {
    /// Morsels dispatched (0 on the serial path).
    pub morsels: u64,
    /// Morsels executed by a worker other than the one whose deque they
    /// were dealt to. High steal counts mean the schedule was skewed and
    /// stealing is earning its keep; zero means the initial block deal
    /// was already balanced.
    pub steals: u64,
}

impl MorselStats {
    /// Accumulates another run's counts into this one.
    pub fn merge(&mut self, other: MorselStats) {
        self.morsels += other.morsels;
        self.steals += other.steals;
    }
}

static TOTAL_MORSELS: AtomicU64 = AtomicU64::new(0);
static TOTAL_STEALS: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide totals across every parallel pool run since
/// startup. Benchmarks diff this around a measured region to report how
/// many morsels were dispatched and how many were stolen (serial
/// fallbacks contribute nothing).
pub fn totals() -> MorselStats {
    MorselStats {
        morsels: TOTAL_MORSELS.load(Ordering::Relaxed),
        steals: TOTAL_STEALS.load(Ordering::Relaxed),
    }
}

/// A worker closure panicked while mapping a morsel.
///
/// The pool catches the unwind at the morsel boundary and converts it
/// into the caller's error type via `From<WorkerPanic>`, so a panic in
/// one request's worker cannot take down the thread (or process) serving
/// other requests. The original panic payload is rendered into `message`
/// when it is a `&str` or `String` (the overwhelmingly common cases);
/// other payload types are reported generically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the morsel whose execution panicked (0 on the serial
    /// path).
    pub morsel: usize,
    /// The panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker for morsel {} panicked: {}", self.morsel, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Convenience conversion so plain-`String` error types (tests, ad-hoc
/// tools) satisfy the pool's `E: From<WorkerPanic>` bound.
impl From<WorkerPanic> for String {
    fn from(p: WorkerPanic) -> Self {
        p.to_string()
    }
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// (everything `panic!` with a message produces) are preserved verbatim,
/// anything else is reported generically.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Items per morsel: aim for roughly four morsels per worker so a stuck
/// worker's block always has slack worth stealing, capped at
/// [`MORSEL_MAX_ITEMS`].
fn morsel_len(n: usize, workers: usize) -> usize {
    (n / (workers * 4)).clamp(1, MORSEL_MAX_ITEMS)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Deque and result-slot locks are held only around a pop or a store —
    // no user code runs under them — so a poisoned lock means another
    // worker died *between* critical sections and the protected value is
    // still coherent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A claimable morsel slot: the morsel's starting input index plus its
/// items, `take`n exactly once by whichever worker claims the id.
type MorselSlot<T> = Mutex<Option<(usize, Vec<T>)>>;

/// A morsel's recorded outcome, `None` until a worker settles it; slots
/// still `None` after the scope closes belonged to a worker that died
/// outside any morsel.
type OutcomeSlot<R, E> = Mutex<Option<Result<Vec<R>, E>>>;

/// Maps `f` over `items` with morsel-driven work stealing, returning
/// results in input order plus the run's [`MorselStats`]. `f` receives
/// the item's original index alongside the item. With `parallelism <= 1`
/// or fewer than two items this runs serially on the calling thread and
/// reports zero morsels.
///
/// On error, the error of the lowest-indexed morsel that failed is
/// returned (other morsels' work is discarded) — the same error the
/// serial loop would surface first. A panicking morsel does **not**
/// propagate its panic: the unwind is caught at the morsel boundary and
/// surfaces as a [`WorkerPanic`] converted into `E`, ranked against
/// other morsels' errors by the same lowest-morsel-wins rule. The
/// closures are asserted unwind-safe ([`AssertUnwindSafe`]): the shared
/// state they touch in this codebase (guard atomics, metrics counters,
/// poison-recovering cache shards) stays coherent across an unwind.
pub fn morsel_map<T, R, E, F>(
    items: Vec<T>,
    parallelism: usize,
    f: F,
) -> (Result<Vec<R>, E>, MorselStats)
where
    T: Send,
    R: Send,
    E: Send + From<WorkerPanic>,
    F: Fn(usize, T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let workers = parallelism.min(n);
    if workers <= 1 {
        let res = catch_unwind(AssertUnwindSafe(|| {
            items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect()
        }))
        .unwrap_or_else(|payload| {
            Err(E::from(WorkerPanic { morsel: 0, message: panic_message(&*payload) }))
        });
        return (res, MorselStats::default());
    }

    // Slice the input into morsels of consecutive items; morsel order ==
    // input order, which is what makes reassembly deterministic.
    let mlen = morsel_len(n, workers);
    let mut iter = items.into_iter();
    let mut morsels: Vec<MorselSlot<T>> = Vec::with_capacity(n.div_ceil(mlen));
    let mut start = 0usize;
    while start < n {
        let len = mlen.min(n - start);
        morsels.push(Mutex::new(Some((start, iter.by_ref().take(len).collect()))));
        start += len;
    }
    let m = morsels.len();

    // Deal morsel ids to per-worker deques in contiguous blocks — worker
    // w starts on the same region the old contiguous pre-chunking gave
    // it (good locality), and a thief takes from the *back* of a
    // victim's deque, the region the victim would reach last.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w * m / workers..(w + 1) * m / workers).collect()))
        .collect();
    let results: Vec<OutcomeSlot<R, E>> = (0..m).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);

    let f = &f;
    let (morsels, deques, results, steals) = (&morsels, &deques, &results, &steals);
    // Panic payloads from workers that died *outside* a morsel (thread
    // startup): attributed below to any morsel left outcome-less.
    let escaped: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    // `exec.pool.spawn` models infrastructure failure at
                    // worker startup; it has no typed error channel of its
                    // own, so any armed action surfaces as a worker panic.
                    #[cfg(feature = "failpoints")]
                    if let Err(msg) = qp_storage::failpoint::check("exec.pool.spawn") {
                        std::panic::panic_any(format!("injected fault: {msg}"));
                    }
                    loop {
                        // Claim: own deque front first, then scan the
                        // others and steal from the back. Deques only
                        // drain, so finding every deque empty means all
                        // remaining morsels are already claimed — exit.
                        // One deque lock at a time: the own-deque guard
                        // must drop before any victim lock is taken, or
                        // two mutually-stealing workers deadlock ABBA.
                        let own = lock(&deques[w]).pop_front();
                        let claimed = own.or_else(|| {
                            (1..workers).find_map(|off| {
                                let stolen = lock(&deques[(w + off) % workers]).pop_back();
                                if stolen.is_some() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                }
                                stolen
                            })
                        });
                        let Some(mi) = claimed else { break };
                        // `exec.pool.morsel` fires once per claimed
                        // morsel: Error actions fail exactly this morsel
                        // (typed, lowest-morsel-wins like any other
                        // error), Delay actions skew the schedule to
                        // force steal-heavy interleavings in tests.
                        #[cfg(feature = "failpoints")]
                        if let Err(msg) = qp_storage::failpoint::check("exec.pool.morsel") {
                            *lock(&results[mi]) = Some(Err(E::from(WorkerPanic {
                                morsel: mi,
                                message: format!("injected fault: {msg}"),
                            })));
                            continue;
                        }
                        let Some((base, chunk)) = lock(&morsels[mi]).take() else { continue };
                        let out = catch_unwind(AssertUnwindSafe(move || {
                            chunk
                                .into_iter()
                                .enumerate()
                                .map(|(j, t)| f(base + j, t))
                                .collect::<Result<Vec<R>, E>>()
                        }))
                        .unwrap_or_else(|payload| {
                            Err(E::from(WorkerPanic { morsel: mi, message: panic_message(&*payload) }))
                        });
                        *lock(&results[mi]) = Some(out);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().err())
            .map(|payload| panic_message(&*payload))
            .collect()
    });

    let stolen = steals.load(Ordering::Relaxed);
    TOTAL_MORSELS.fetch_add(m as u64, Ordering::Relaxed);
    TOTAL_STEALS.fetch_add(stolen, Ordering::Relaxed);
    let stats = MorselStats { morsels: m as u64, steals: stolen };

    let mut out = Vec::with_capacity(n);
    for (mi, slot) in results.iter().enumerate() {
        match lock(slot).take() {
            Some(Ok(rs)) => out.extend(rs),
            Some(Err(e)) => return (Err(e), stats),
            // No recorded outcome: every worker that could have claimed
            // this morsel died to a panic that escaped the morsel catch
            // (thread startup). Attribute the escaped payload.
            None => {
                let message = escaped
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "morsel lost without a recorded outcome".to_string());
                return (Err(E::from(WorkerPanic { morsel: mi, message })), stats);
            }
        }
    }
    (Ok(out), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        for par in [1, 2, 3, 8, 64] {
            let items: Vec<usize> = (0..100).collect();
            let out: Vec<usize> =
                morsel_map(items, par, |i, x| Ok::<_, String>(i * 1000 + x * 3)).0.unwrap();
            let expect: Vec<usize> = (0..100).map(|x| x * 1000 + x * 3).collect();
            assert_eq!(out, expect, "parallelism={par}");
        }
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        // With parallelism 1 the closure runs on the calling thread.
        let caller = std::thread::current().id();
        let out = morsel_map(vec![1, 2, 3], 1, |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            Ok::<_, String>(x * 2)
        })
        .0
        .unwrap();
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn empty_and_single_item() {
        let out: Vec<i32> =
            morsel_map(Vec::<i32>::new(), 8, |_, x| Ok::<_, String>(x)).0.unwrap();
        assert!(out.is_empty());
        let out = morsel_map(vec![7], 8, |_, x| Ok::<_, String>(x + 1)).0.unwrap();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn lowest_morsel_error_wins() {
        // Items 1 and 7 both fail; the error of the lower item index (=
        // lower morsel index) must win, matching the serial loop.
        let items: Vec<usize> = (0..8).collect();
        let err = morsel_map(items, 4, |_, x| {
            if x == 1 || x == 7 {
                Err(format!("boom {x}"))
            } else {
                Ok(x)
            }
        })
        .0
        .unwrap_err();
        assert_eq!(err, "boom 1");
    }

    #[test]
    fn all_items_visited_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = morsel_map(items, 7, |_, x| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok::<_, String>(x)
        })
        .0
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn workers_can_borrow_caller_state() {
        let shared = [10, 20, 30];
        let out = morsel_map(vec![0usize, 1, 2], 3, |_, i| Ok::<_, String>(shared[i])).0.unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    /// Panics are confined to their morsel and reported as typed errors —
    /// the caller's thread keeps running.
    #[test]
    fn panicking_worker_surfaces_typed_error() {
        let items: Vec<usize> = (0..8).collect();
        let err: WorkerPanicProbe = morsel_map(items, 4, |_, x| {
            if x == 7 {
                panic!("poisoned tuple {x}");
            }
            Ok::<_, WorkerPanicProbe>(x)
        })
        .0
        .unwrap_err();
        assert_eq!(err.0.morsel, 7, "8 items over 4 workers -> one-item morsels");
        assert_eq!(err.0.message, "poisoned tuple 7");
    }

    #[test]
    fn serial_path_catches_panics_identically() {
        let err: WorkerPanicProbe =
            morsel_map(vec![1, 2, 3], 1, |_, x: i32| -> Result<i32, WorkerPanicProbe> {
                if x == 2 {
                    panic!("serial boom");
                }
                Ok(x)
            })
            .0
            .unwrap_err();
        assert_eq!(err.0, WorkerPanic { morsel: 0, message: "serial boom".into() });
    }

    #[test]
    fn plain_error_in_earlier_morsel_beats_panic_in_later_morsel() {
        let items: Vec<usize> = (0..8).collect();
        let err = morsel_map(items, 4, |_, x| {
            if x == 0 {
                return Err("typed error".to_string());
            }
            if x == 7 {
                panic!("later panic");
            }
            Ok(x)
        })
        .0
        .unwrap_err();
        assert_eq!(err, "typed error");

        // And symmetrically: a panic at item 0 beats an error at item 7.
        let items: Vec<usize> = (0..8).collect();
        let err = morsel_map(items, 4, |_, x| {
            if x == 0 {
                panic!("early panic");
            }
            if x == 7 {
                return Err("late error".to_string());
            }
            Ok(x)
        })
        .0
        .unwrap_err();
        assert!(err.contains("early panic"), "got: {err}");
    }

    /// Work charged to shared state before the panic is not rolled back —
    /// the same property that keeps guard budgets settled. All morsels
    /// other than the panicking one still run to completion (the
    /// scheduler drains the queue rather than aborting), so at least
    /// `len - 1` charges land.
    #[test]
    fn shared_state_charged_before_panic_stays_settled() {
        let charged = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let res: Result<Vec<usize>, WorkerPanicProbe> = morsel_map(items, 4, |_, x| {
            charged.fetch_add(1, Ordering::Relaxed);
            if x == 99 {
                panic!("late panic");
            }
            Ok(x)
        })
        .0;
        assert!(res.is_err());
        let seen = charged.load(Ordering::Relaxed);
        assert!(seen >= 99, "every non-panicking item still charged: {seen}");
    }

    #[test]
    fn stats_count_morsels_and_serial_reports_zero() {
        let items: Vec<usize> = (0..100).collect();
        let (out, stats) = morsel_map(items, 4, |_, x| Ok::<_, String>(x));
        assert_eq!(out.unwrap().len(), 100);
        // 100 items, 4 workers: morsel_len = (100/16).clamp(1,4) = 4.
        assert_eq!(stats.morsels, 25);

        let (_, stats) = morsel_map((0..100).collect::<Vec<usize>>(), 1, |_, x| {
            Ok::<_, String>(x)
        });
        assert_eq!(stats, MorselStats::default(), "serial path engages no scheduler");
    }

    #[test]
    fn totals_are_monotonic_and_fold_in_runs() {
        let before = totals();
        let (out, stats) = morsel_map((0..64).collect::<Vec<usize>>(), 4, |_, x| {
            Ok::<_, String>(x)
        });
        assert_eq!(out.unwrap().len(), 64);
        let after = totals();
        assert!(after.morsels >= before.morsels + stats.morsels);
        assert!(after.steals >= before.steals);
    }

    /// Wrapper proving the `E: From<WorkerPanic>` bound carries the full
    /// structured payload, not just a rendered string.
    #[derive(Debug, PartialEq)]
    struct WorkerPanicProbe(WorkerPanic);

    impl From<WorkerPanic> for WorkerPanicProbe {
        fn from(p: WorkerPanic) -> Self {
            WorkerPanicProbe(p)
        }
    }
}
