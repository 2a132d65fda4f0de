//! Minimal data-parallel helpers over `std::thread::scope`.
//!
//! The workspace used to depend on `rayon` for a handful of
//! embarrassingly-parallel loops (per-SM simulation, degree histograms,
//! chunked generators, parallel sums and sorts). That pulled a large
//! external dependency tree into an otherwise self-contained project and
//! broke builds in offline environments. These helpers cover exactly the
//! patterns the workspace needs with scoped OS threads and nothing else.
//!
//! Determinism: every helper partitions work into contiguous index ranges
//! and combines the per-range results **in index order**, so the output is
//! identical regardless of thread count.

#![forbid(unsafe_code)]

use std::thread;

/// Number of worker threads the helpers will use: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn max_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parallel `(0..n).map(f).collect()`. Results come back in index order.
pub fn map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = max_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(workers);
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let lo = n * w / workers;
                let hi = n * (w + 1) / workers;
                s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("tc-par worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

/// Parallel `items.iter().map(f).collect()`. Results come back in order.
pub fn map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_range(items.len(), |i| f(&items[i]))
}

/// Parallel map over fixed-size chunks of `items`; `f` receives the chunk
/// index and the chunk. One result per chunk, in chunk order.
pub fn map_chunks<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n = items.len().div_ceil(chunk_len);
    map_range(n, |i| {
        let lo = i * chunk_len;
        let hi = (lo + chunk_len).min(items.len());
        f(i, &items[lo..hi])
    })
}

/// Parallel sum of `f(i)` for `i` in `0..n`, evaluated in contiguous
/// per-worker ranges (each worker sums locally; partials add in order).
pub fn sum_by_u64<F>(n: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    if n == 0 {
        return 0;
    }
    let workers = max_threads().min(n);
    map_range(workers, |w| {
        let lo = n * w / workers;
        let hi = n * (w + 1) / workers;
        (lo..hi).map(&f).sum::<u64>()
    })
    .into_iter()
    .sum()
}

/// Parallel unstable sort: chunk-sort on worker threads, then bottom-up
/// two-way merges. Falls back to `slice::sort_unstable` for small inputs
/// or single-threaded builds.
pub fn sort_unstable<T: Ord + Send + Copy>(v: &mut [T]) {
    let workers = max_threads();
    if workers <= 1 || v.len() < 8192 {
        v.sort_unstable();
        return;
    }
    let chunk = v.len().div_ceil(workers);
    thread::scope(|s| {
        for piece in v.chunks_mut(chunk) {
            s.spawn(move || piece.sort_unstable());
        }
    });
    let mut run = chunk;
    let mut buf: Vec<T> = Vec::with_capacity(v.len());
    while run < v.len() {
        let mut lo = 0;
        while lo + run < v.len() {
            let mid = lo + run;
            let hi = (mid + run).min(v.len());
            merge_runs(&v[lo..mid], &v[mid..hi], &mut buf);
            v[lo..hi].copy_from_slice(&buf);
            lo = hi;
        }
        run *= 2;
    }
}

fn merge_runs<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        *seed >> 16
    }

    #[test]
    fn map_range_preserves_order() {
        let got = map_range(1000, |i| i * 3);
        assert_eq!(got, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        assert!(map_range(0, |i| i).is_empty());
    }

    #[test]
    fn map_slice_matches_sequential() {
        let items: Vec<u32> = (0..513).collect();
        assert_eq!(
            map_slice(&items, |x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_chunks_covers_everything_once() {
        let items: Vec<u64> = (0..100_001).collect();
        let partials = map_chunks(&items, 4096, |_, c| c.iter().sum::<u64>());
        assert_eq!(partials.len(), items.len().div_ceil(4096));
        assert_eq!(partials.iter().sum::<u64>(), items.iter().sum::<u64>());
    }

    #[test]
    fn sum_by_matches_sequential() {
        assert_eq!(sum_by_u64(0, |_| 7), 0);
        assert_eq!(sum_by_u64(12345, |i| i as u64), (0..12345u64).sum());
    }

    #[test]
    fn sort_matches_std_sort() {
        let mut seed = 42u64;
        let mut v: Vec<u64> = (0..50_000).map(|_| lcg(&mut seed) % 1000).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sort_unstable(&mut v);
        assert_eq!(v, want);
        let mut empty: Vec<u64> = Vec::new();
        sort_unstable(&mut empty);
        assert!(empty.is_empty());
    }
}
