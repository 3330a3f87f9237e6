//! Scoped parallel-map utilities with a deterministic output contract.
//!
//! Everything in the workspace that fans out — the batches of the
//! distance table, the per-instance sweeps in `ft-experiments` — goes
//! through this module so that one rule holds everywhere:
//! **the result is a pure function of the input order, never of thread
//! scheduling**. Each item's result is written to the slot of its *input*
//! index, so `map(items, f)` returns exactly `items.iter().map(f).collect()`
//! regardless of worker count (DESIGN.md §10 spells out the contract).
//!
//! Scheduling is dynamic everywhere: workers claim the next item (or
//! chunk) through a relaxed atomic cursor, so a slow tail item cannot
//! serialize the fill the way a static one-contiguous-chunk-per-worker
//! split can. Dynamic *claiming* with deterministic *placement* keeps both
//! properties at once.
//!
//! Worker count comes from the `FT_THREADS` environment variable when set to
//! a positive integer, otherwise from
//! [`std::thread::available_parallelism`]. `FT_THREADS=1` forces sequential
//! execution, which the determinism tests use to compare against
//! multi-threaded runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cached handles into the global ft-obs registry: fan-out calls, items
/// executed, chunk fills, and the worker count last used. Recorded once per
/// `map`/`fill_chunks_with` call (not per item), so the pool's exposition
/// lines cost O(1) atomics per fan-out.
struct ParCounters {
    maps: &'static ft_obs::Counter,
    tasks: &'static ft_obs::Counter,
    fills: &'static ft_obs::Counter,
    rows: &'static ft_obs::Counter,
    workers: &'static ft_obs::Gauge,
}

fn obs() -> &'static ParCounters {
    static CELL: OnceLock<ParCounters> = OnceLock::new();
    CELL.get_or_init(|| ParCounters {
        maps: ft_obs::registry::counter("ft_par_maps_total"),
        tasks: ft_obs::registry::counter("ft_par_tasks_total"),
        fills: ft_obs::registry::counter("ft_par_fills_total"),
        rows: ft_obs::registry::counter("ft_par_rows_total"),
        workers: ft_obs::registry::gauge("ft_par_workers"),
    })
}

/// Minimum total cell count for [`fill_chunks_with`] to fan out. Below
/// this, thread spawn + join overhead exceeds the win. The floor was first
/// measured on a row-parallel BFS fill, where the k=32 table (1280² ≈ 1.6M
/// cells) ran roughly even (30.5 ms parallel vs 32.2 ms sequential), and
/// re-derived against the multi-source bitset kernel of the distance table
/// (DESIGN.md §15): its 64-row batches amortize spawn overhead even
/// earlier, so the 2M-cell floor stays comfortably conservative — k=32
/// (1.6M cells) stays sequential, k=64 (26M cells) fans out. Results are
/// identical either way (the fill contract is deterministic); only the
/// wall time changes.
pub const PAR_FILL_MIN_CELLS: usize = 1 << 21;

/// Number of worker threads to use: `FT_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (falling back
/// to 1 when even that is unavailable).
pub fn thread_count() -> usize {
    if let Ok(raw) = std::env::var("FT_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item and collects the results in input order, using
/// [`thread_count`] workers.
///
/// Equivalent to `items.iter().map(f).collect()` — bit-for-bit, for any
/// worker count. A panic in `f` propagates to the caller.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_with(thread_count(), items, f)
}

/// [`map`] with an explicit worker count (used by benchmarks and the
/// determinism tests to pin sequential vs parallel runs).
///
/// Workers claim items dynamically through a relaxed cursor and accumulate
/// `(input_index, result)` pairs in a worker-local buffer; the calling
/// thread merges the buffers into input-order slots after the scope joins.
/// No per-item locking — the old per-item `Mutex<Option<R>>` slot vector
/// paid one lock+unlock per item, pure overhead on fan-outs with thousands
/// of cheap items.
pub fn map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n).max(1);
    let c = obs();
    c.maps.incr();
    c.tasks.add(n as u64);
    c.workers.set(workers as u64);
    let _span = ft_obs::span!("par.map", items = n, workers = workers);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor_ref = &cursor;
    // The crossbeam shim's scope propagates worker panics by panicking at
    // join (std::thread::scope semantics), so it never returns `Err`.
    let locals: Vec<Vec<(usize, R)>> = match crossbeam::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move |_| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    if ft_obs::enabled() {
                        // Drain this worker's span buffer before the scope
                        // joins: the TLS destructor only runs at actual
                        // thread exit, which can land after the caller's
                        // sink is flushed or removed.
                        ft_obs::flush();
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }) {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    };

    // Merge worker-local buffers into one slot per input index; placement
    // depends only on the recorded index, so the collected output order is
    // independent of which worker claimed what.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, r) in locals.into_iter().flatten() {
        // bounds: every recorded index came from a cursor claim < n
        slots[i] = Some(r);
    }
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n);
    out
}

/// Fills `out`, viewed as consecutive chunks of `chunk_len` elements (the
/// last chunk may be shorter), in parallel: `fill(chunk_index, chunk_slice,
/// scratch)` is called exactly once per chunk with a per-worker `scratch`
/// created by `init`.
///
/// The pool's one fill: the multi-source bitset BFS writes 64 rows per
/// batch, so its chunk is `64 × row_len` cells. Chunks are claimed
/// dynamically through a relaxed cursor, and each chunk's `&mut` split of
/// `out` is handed over through a `Mutex<Option<…>>` take-slot — one
/// uncontended lock per *chunk*, not per item. Each chunk's content depends
/// only on its chunk index, so the output is bit-identical for every
/// worker count. Fills under [`PAR_FILL_MIN_CELLS`] cells run on the
/// calling thread; `chunk_len == 0` is a no-op.
pub fn fill_chunks_with<T, S, G, F>(
    threads: usize,
    out: &mut [T],
    chunk_len: usize,
    init: G,
    fill: F,
) where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    if chunk_len == 0 || out.is_empty() {
        return;
    }
    let chunks = out.len().div_ceil(chunk_len);
    let workers = if out.len() < PAR_FILL_MIN_CELLS {
        1 // small fill: fan-out overhead dominates, stay on this thread
    } else {
        threads.min(chunks).max(1)
    };
    let pc = obs();
    pc.fills.incr();
    pc.rows.add(chunks as u64);
    pc.workers.set(workers as u64);
    let _span = ft_obs::span!("par.fill_chunks", chunks = chunks, workers = workers);
    if workers <= 1 {
        let mut scratch = init();
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            fill(i, chunk, &mut scratch);
        }
        return;
    }

    type ChunkSlot<'a, T> = parking_lot::Mutex<Option<(usize, &'a mut [T])>>;
    let slots: Vec<ChunkSlot<'_, T>> = out
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, chunk)| parking_lot::Mutex::new(Some((i, chunk))))
        .collect();
    let cursor = AtomicUsize::new(0);
    let (init, fill, slots_ref, cursor_ref) = (&init, &fill, &slots, &cursor);
    // See `map_with` for why the scope result can be ignored.
    let _ = crossbeam::scope(|s| {
        for _ in 0..workers {
            s.spawn(move |_| {
                let mut scratch = init();
                loop {
                    let c = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    // bounds: c < chunks == slots.len() checked above
                    let taken = slots_ref[c].lock().take();
                    if let Some((chunk_index, chunk)) = taken {
                        fill(chunk_index, chunk, &mut scratch);
                    }
                }
                if ft_obs::enabled() {
                    // See map_with: drain before the scope joins.
                    ft_obs::flush();
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7] {
            assert_eq!(map_with(threads, &items, |x| x * x), expect);
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(map_with(4, &empty, |x| *x), Vec::<u32>::new());
        assert_eq!(map_with(4, &[41u32], |x| x + 1), vec![42]);
    }

    // One test owns every FT_THREADS mutation: the variable is
    // process-global and the default test runner is parallel, so two tests
    // mutating it (the old map_uses_env_thread_count +
    // thread_count_rejects_garbage pair) raced each other.
    #[test]
    fn thread_count_env_parsing() {
        std::env::set_var("FT_THREADS", "3");
        assert_eq!(thread_count(), 3);
        // Not asserting actual concurrency (1-core CI), just that the env
        // path parses and the result stays correct.
        let got = map(&[1u32, 2, 3, 4, 5], |x| x * 2);
        assert_eq!(got, vec![2, 4, 6, 8, 10]);
        std::env::set_var("FT_THREADS", "zero");
        assert!(thread_count() >= 1);
        std::env::set_var("FT_THREADS", "0");
        assert!(thread_count() >= 1);
        std::env::remove_var("FT_THREADS");
    }

    #[test]
    fn fill_chunks_matches_sequential_including_short_tail() {
        // 11 cells in chunks of 4: chunk indices 0,1 full, 2 is a 3-cell
        // tail — the fill must see the same (index, slice) pairs at any
        // worker count.
        let total = 11;
        let chunk_len = 4;
        let fill = |c: usize, chunk: &mut [u32], calls: &mut u32| {
            *calls += 1;
            for (j, cell) in chunk.iter_mut().enumerate() {
                *cell = (c * 100 + j) as u32;
            }
        };
        let mut seq = vec![0u32; total];
        fill_chunks_with(1, &mut seq, chunk_len, || 0u32, fill);
        for threads in [2, 3, 8] {
            let mut par = vec![0u32; total];
            fill_chunks_with(threads, &mut par, chunk_len, || 0u32, fill);
            assert_eq!(par, seq, "threads={threads}");
        }
        assert_eq!(&seq[8..], &[200, 201, 202], "tail chunk sees index 2");
    }

    #[test]
    fn fill_chunks_above_cutoff_matches_sequential() {
        let chunk_len = 1 << 12;
        let total = PAR_FILL_MIN_CELLS + 17; // force a short tail chunk too
        let fill = |c: usize, chunk: &mut [u8], _: &mut ()| {
            for (j, cell) in chunk.iter_mut().enumerate() {
                *cell = (c.wrapping_mul(37) ^ j) as u8;
            }
        };
        let mut seq = vec![0u8; total];
        fill_chunks_with(1, &mut seq, chunk_len, || (), fill);
        let mut par = vec![0u8; total];
        fill_chunks_with(4, &mut par, chunk_len, || (), fill);
        assert_eq!(par, seq);
    }

    #[test]
    fn map_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            map_with(2, &[1u32, 2, 3, 4], |x| {
                assert!(*x != 3, "boom");
                *x
            })
        });
        assert!(caught.is_err());
    }
}
