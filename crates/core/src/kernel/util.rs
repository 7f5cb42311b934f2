//! Shared kernel infrastructure: row-parallel mapping over the shared
//! worker pool (see [`crate::kernel::par`]) and CSR assembly from
//! per-row results.

use crate::index::Index;
#[cfg(feature = "parallel")]
use crate::kernel::par;
use crate::scalar::Scalar;
use crate::storage::csr::Csr;

/// Map `f` over `0..nrows`, preserving order; rows are chunked onto the
/// shared pool when the cost model says the operation is big enough.
/// `work` is the kernel's work estimate (stored elements touched),
/// feeding the nnz half of the cost model.
pub(crate) fn map_rows<R, F>(nrows: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    #[cfg(feature = "parallel")]
    if let Some(plan) = par::plan(nrows, work) {
        return par::run_chunks(nrows, plan, |start, end| {
            (start..end).map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect();
    }
    let _ = work;
    (0..nrows).map(f).collect()
}

/// Map `f` over `0..nrows` with a scratch state created by `init` — one
/// state per chunk in parallel (each worker's private accumulator), one
/// state total on the serial path.
pub(crate) fn map_rows_init<S, R, I, F>(nrows: usize, work: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    #[cfg(feature = "parallel")]
    if let Some(plan) = par::plan(nrows, work) {
        return par::run_chunks(nrows, plan, |start, end| {
            let mut s = init();
            (start..end).map(|i| f(&mut s, i)).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect();
    }
    let _ = work;
    let mut s = init();
    (0..nrows).map(|i| f(&mut s, i)).collect()
}

/// Evaluate `f(lo, hi)` over `0..items` — in chunks on the shared pool
/// when the cost model says so — and concatenate the results in item
/// order.
pub(crate) fn map_spans<R, F>(items: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> Vec<R> + Sync,
{
    #[cfg(feature = "parallel")]
    if let Some(plan) = par::plan(items, work) {
        return par::run_chunks(items, plan, f)
            .into_iter()
            .flatten()
            .collect();
    }
    let _ = work;
    f(0, items)
}

/// A contiguous run of output rows computed into shared buffers: row
/// `lo + r` ends at `ends[r]` within `cols`/`vals`. Kernels whose rows
/// are mostly empty or short fill one of these per chunk instead of one
/// `Vec` pair per row, so an `n × b` frontier block costs O(n) cheap
/// steps rather than O(n) allocations.
pub(crate) struct RowSpan<T> {
    pub(crate) ends: Vec<usize>,
    pub(crate) cols: Vec<Index>,
    pub(crate) vals: Vec<T>,
}

/// Compute rows `0..nrows` as [`RowSpan`]s: `f(lo, hi)` fills rows
/// `lo..hi`, chunked onto the shared pool when the cost model says so,
/// and the spans are stitched together in row order.
pub(crate) fn map_row_spans<T, F>(nrows: Index, ncols: Index, work: usize, f: F) -> Csr<T>
where
    T: Scalar,
    F: Fn(usize, usize, &mut RowSpan<T>) + Sync,
{
    let run = |lo: usize, hi: usize| {
        let mut span = RowSpan {
            ends: Vec::with_capacity(hi - lo),
            cols: Vec::new(),
            vals: Vec::new(),
        };
        f(lo, hi, &mut span);
        debug_assert_eq!(span.ends.len(), hi - lo);
        span
    };
    #[cfg(feature = "parallel")]
    if let Some(plan) = par::plan(nrows, work) {
        let spans = par::run_chunks(nrows, plan, run);
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0usize);
        let total = spans.iter().map(|s| s.cols.len()).sum();
        let mut cols = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        for span in spans {
            let base = cols.len();
            row_ptr.extend(span.ends.iter().map(|e| base + e));
            cols.extend(span.cols);
            vals.extend(span.vals);
        }
        return Csr::from_parts(nrows, ncols, row_ptr, cols, vals);
    }
    let _ = work;
    let span = run(0, nrows);
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    row_ptr.extend(span.ends);
    Csr::from_parts(nrows, ncols, row_ptr, span.cols, span.vals)
}

/// Assemble a CSR matrix from independently computed rows. Each row's
/// column indices must already be sorted and duplicate-free.
pub(crate) fn assemble_rows<T: Scalar>(
    nrows: Index,
    ncols: Index,
    rows: Vec<(Vec<Index>, Vec<T>)>,
) -> Csr<T> {
    debug_assert_eq!(rows.len(), nrows);
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut total = 0usize;
    for (cols, vals) in &rows {
        debug_assert_eq!(cols.len(), vals.len());
        total += cols.len();
        row_ptr.push(total);
    }
    let mut col_idx = Vec::with_capacity(total);
    let mut out_vals = Vec::with_capacity(total);
    for (cols, vals) in rows {
        col_idx.extend(cols);
        out_vals.extend(vals);
    }
    Csr::from_parts(nrows, ncols, row_ptr, col_idx, out_vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rows_preserves_order() {
        let v = map_rows(1000, 1 << 20, |i| i * 2);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn map_rows_matches_serial_bitwise_at_any_degree() {
        let serial = par::with_parallelism(1, || map_rows(5000, 1 << 20, |i| (i as f64).sqrt()));
        for k in [2, 8] {
            let parallel =
                par::with_parallelism(k, || map_rows(5000, 1 << 20, |i| (i as f64).sqrt()));
            assert!(serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn map_rows_init_threads_scratch() {
        let v = map_rows_init(
            500,
            0,
            || vec![0u8; 16],
            |scratch, i| {
                scratch[0] = scratch[0].wrapping_add(1);
                i + 1
            },
        );
        assert_eq!(v[499], 500);
    }

    #[test]
    fn assemble_from_rows() {
        let rows = vec![
            (vec![1, 3], vec![10, 30]),
            (vec![], vec![]),
            (vec![0], vec![99]),
        ];
        let m = assemble_rows(3, 4, rows);
        assert_eq!(m.nvals(), 3);
        assert_eq!(m.get(0, 3), Some(&30));
        assert_eq!(m.get(2, 0), Some(&99));
        assert_eq!(m.row_nvals(1), 0);
    }
}
