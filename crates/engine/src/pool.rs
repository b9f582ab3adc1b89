//! A hand-rolled work-stealing thread pool over `std::thread`.
//!
//! The build environment vendors no external crates, so this is a minimal
//! scoped fork-join pool: the input is dealt onto one deque per worker,
//! each worker one contiguous block of it (`deal`); a worker pops from
//! the *front* of its own deque and, when empty, steals from the *back* of
//! the others, so large items queued on one worker get redistributed
//! instead of serialising the map.  Because jobs never spawn further jobs,
//! a worker may exit as soon as every deque is empty.
//!
//! Blocks, not round-robin, because items next to each other in input
//! order often share cached work: a sweep's canonical order puts the
//! scenarios that differ only in branch model, which share a pipeline
//! prefix, side by side, so dealt in one block they run on one worker,
//! one after another, where round-robin would hand them to different
//! workers that then wait on each other in the prefix cache.  A thief
//! takes from the far end of its victim's block, away from the items the
//! victim is about to run.
//!
//! Each worker accumulates `(index, result)` pairs in a thread-local buffer
//! — the write path takes no lock per item — and after the workers join,
//! the buffers drain into a single pre-sized result vector indexed by each
//! job's position in the input.  The indices are disjoint by construction
//! (every job is popped exactly once), so the output order equals the input
//! order no matter which worker ran what — the property the sweep
//! determinism tests pin down.
//!
//! [`parallel_map`] is the pool's one entry point.  Its [`Hooks`] act at
//! item boundaries, and a single worker runs the same loop on the calling
//! thread.

use std::collections::VecDeque;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::Hooks;

/// Applies `f` to every item on `threads` worker threads and returns the
/// results in input order, or `None` when `hooks.cancel` stopped the map
/// before every item ran (see [`Hooks`]).
///
/// `threads == 0` means one worker per available CPU, and the count is then
/// capped at `items.len()`; a single worker runs on the calling thread.
/// A cancelled map's partial results are discarded, never reordered or
/// padded; a flag set after the last item started has no effect.  A
/// panicking item re-raises its own panic on the calling thread once the
/// workers have stopped.
pub fn parallel_map<T, R, F>(
    items: Vec<T>,
    threads: usize,
    f: &F,
    hooks: Hooks<'_>,
) -> Option<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = items.len();
    if jobs == 0 {
        return Some(Vec::new());
    }
    let threads = match threads {
        0 => thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
    .min(jobs);
    let queues = deal(items, threads);
    let completed = AtomicUsize::new(0);

    // One worker's loop.  Results buffer locally, so the write path takes
    // no lock per item.
    let work = |worker: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        while !hooks.cancelled() {
            let Some((index, item)) = next_job(&queues, worker) else {
                break;
            };
            local.push((index, f(item)));
            hooks.tick(completed.fetch_add(1, Ordering::Relaxed) + 1, jobs);
        }
        local
    };
    let locals: Vec<Vec<(usize, R)>> = if threads == 1 {
        vec![work(0)]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> =
                (0..threads).map(|worker| scope.spawn(move || work(worker))).collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_else(|payload| panic::resume_unwind(payload)))
                .collect()
        })
    };

    // Single pre-sized result buffer, filled at disjoint indices.  A
    // cancelled map leaves holes; the hole check (not the flag) decides,
    // so a flag raised after the final item started still yields a full,
    // valid result set.
    let mut results: Vec<Option<R>> = Vec::with_capacity(jobs);
    results.resize_with(jobs, || None);
    for (index, result) in locals.into_iter().flatten() {
        debug_assert!(results[index].is_none(), "job {index} ran twice");
        results[index] = Some(result);
    }
    results.into_iter().collect()
}

/// Deals `items` onto `threads` deques (`1 <= threads <= items.len()`):
/// item `index` goes to worker `index * threads / jobs`, so each deque
/// holds one contiguous block of the input in input order, and block sizes
/// differ by at most one (see the module docs for why blocks).
fn deal<T>(items: Vec<T>, threads: usize) -> Vec<Mutex<VecDeque<(usize, T)>>> {
    let jobs = items.len();
    let mut queues: Vec<VecDeque<(usize, T)>> = (0..threads).map(|_| VecDeque::new()).collect();
    for (index, item) in items.into_iter().enumerate() {
        queues[index * threads / jobs].push_back((index, item));
    }
    queues.into_iter().map(Mutex::new).collect()
}

/// Pops the next job: own deque front first, then steal from the back of
/// the other deques. `None` means every deque is empty, and since jobs never
/// enqueue new jobs the worker can exit.
fn next_job<T>(queues: &[Mutex<VecDeque<(usize, T)>>], worker: usize) -> Option<(usize, T)> {
    if let Some(job) = queues[worker].lock().expect("queue lock").pop_front() {
        return Some(job);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (worker + offset) % n;
        if let Some(job) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Progress;
    use std::sync::atomic::AtomicBool;

    /// Maps without hooks, which cannot be cancelled.
    fn map_all<T: Send, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: &(impl Fn(T) -> R + Sync),
    ) -> Vec<R> {
        parallel_map(items, threads, f, Hooks::default()).expect("no cancel flag")
    }

    #[test]
    fn deal_gives_each_worker_one_contiguous_block() {
        for jobs in 1..=50 {
            for threads in (1..=9).map(|t: usize| t.min(jobs)) {
                let queues = deal((0..jobs).collect::<Vec<usize>>(), threads);
                assert_eq!(queues.len(), threads);
                let blocks: Vec<Vec<usize>> = queues
                    .into_iter()
                    .map(|queue| {
                        let queue = queue.into_inner().unwrap();
                        assert!(queue.iter().all(|&(index, item)| index == item));
                        queue.into_iter().map(|(index, _)| index).collect()
                    })
                    .collect();
                let at = format!("jobs={jobs} threads={threads}");
                // Worker by worker, the blocks concatenate to 0..jobs: each
                // block is one ascending contiguous run, and every index is
                // dealt exactly once.
                assert_eq!(blocks.concat(), (0..jobs).collect::<Vec<_>>(), "{at}");
                let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(*min >= 1 && max - min <= 1, "{at}: block sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = map_all(items.clone(), threads, &|x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = map_all((0..57).collect::<Vec<u32>>(), 4, &|x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn uneven_job_costs_are_stolen() {
        // One expensive job on worker 0's deque plus many cheap ones: the
        // cheap ones must still all complete (stolen by idle workers).
        let out = map_all((0..32).collect::<Vec<u64>>(), 4, &|x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<u32> = map_all(Vec::<u32>::new(), 8, &|x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_one_worker_per_cpu() {
        let out = map_all(vec![1, 2, 3], 0, &|x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn a_worker_panic_keeps_its_own_message() {
        for threads in [2, 4] {
            let caught = std::panic::catch_unwind(|| {
                map_all((0..16).collect::<Vec<u32>>(), threads, &|x| {
                    if x == 7 {
                        panic!("item {x}: boom");
                    }
                    x
                })
            })
            .expect_err("item 7 panics");
            let message = caught
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| caught.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("item 7: boom"), "threads={threads}");
        }
    }

    #[test]
    fn progress_ticks_cover_every_item_exactly_once() {
        for threads in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let tick = |p: Progress| {
                assert_eq!(p.total, 20);
                seen.lock().unwrap().push(p.completed);
            };
            let hooks = Hooks { cancel: None, progress: Some(&tick) };
            let out = parallel_map((0..20).collect::<Vec<u32>>(), threads, &|x| x, hooks)
                .expect("not cancelled");
            assert_eq!(out.len(), 20, "threads={threads}");
            let mut ticks = seen.into_inner().unwrap();
            ticks.sort_unstable();
            assert_eq!(ticks, (1..=20).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn pre_set_cancel_flag_runs_nothing() {
        let cancel = AtomicBool::new(true);
        for threads in [1, 4] {
            let counter = AtomicUsize::new(0);
            let hooks = Hooks { cancel: Some(&cancel), progress: None };
            let out = parallel_map(
                (0..50).collect::<Vec<u32>>(),
                threads,
                &|x| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    x
                },
                hooks,
            );
            assert!(out.is_none(), "threads={threads}");
            assert_eq!(counter.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn cancellation_stops_at_an_item_boundary() {
        // Cancel from inside the third progress tick: no item is ever torn,
        // and strictly fewer than all items run.
        let cancel = AtomicBool::new(false);
        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let tick = |p: Progress| {
            if p.completed >= 3 {
                cancel.store(true, Ordering::SeqCst);
            }
        };
        let hooks = Hooks { cancel: Some(&cancel), progress: Some(&tick) };
        let out = parallel_map(
            (0..100).collect::<Vec<u32>>(),
            2,
            &|x| {
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                finished.fetch_add(1, Ordering::SeqCst);
                x
            },
            hooks,
        );
        assert!(out.is_none());
        let (started, finished) = (started.load(Ordering::SeqCst), finished.load(Ordering::SeqCst));
        assert_eq!(started, finished, "in-flight items always complete");
        assert!(finished < 100, "cancellation skipped the tail");
    }

    #[test]
    fn cancel_after_completion_still_returns_full_results() {
        let cancel = AtomicBool::new(false);
        let tick = |p: Progress| {
            if p.completed == p.total {
                cancel.store(true, Ordering::SeqCst);
            }
        };
        let hooks = Hooks { cancel: Some(&cancel), progress: Some(&tick) };
        let out = parallel_map((0..8).collect::<Vec<u32>>(), 1, &|x| x * 2, hooks);
        assert_eq!(out, Some((0..8).map(|x| x * 2).collect()));
    }

    #[test]
    fn non_clone_results_are_moved_through_the_buffer() {
        // The result type is deliberately not Clone/Copy: the merge path
        // must move results out of the workers' local buffers.
        let out = map_all((0..16).collect::<Vec<u32>>(), 4, &|x| Box::new(x * 3));
        assert_eq!(
            out.iter().map(|b| **b).collect::<Vec<_>>(),
            (0..16).map(|x| x * 3).collect::<Vec<_>>()
        );
    }
}
