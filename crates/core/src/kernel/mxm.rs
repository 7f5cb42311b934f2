//! Sparse matrix–matrix multiply over a semiring (`GrB_mxm`'s compute
//! stage): `T(i,j) = ⊕_{k ∈ ind(A(i,:)) ∩ ind(B(:,j))} A(i,k) ⊗ B(k,j)`.
//!
//! Row-wise Gustavson SpGEMM ([`mxm`]), parallel over rows, plus two
//! forms that skip most of it when the operands allow: the masked dot
//! product ([`mxm_dot`]) and the push form ([`mxm_push`]), which
//! scatters B's stored entries through the rows of `Aᵀ` so a sparse
//! frontier block costs its products, not a sweep of every row of A.
//! `kernel::spmspv::choose_mxm` picks among the three per call; all
//! three fold each output in ascending inner index `k`, so the choice is
//! bitwise invisible. Gustavson has two accumulator strategies
//! (selectable for the ablation benches, `Auto` in production):
//!
//! * **Dense**: an `ncols`-wide scatter array per worker — best for rows
//!   whose result is a large fraction of the width;
//! * **Hash**: an open-addressing table sized to the row's flop estimate —
//!   best for hypersparse rows.
//!
//! The write mask is *pushed into the kernel*: positions the mask does not
//! admit are never accumulated (and with [`mxm_dot`], never even touched),
//! which is the optimization the GraphBLAS mask design exists to enable —
//! e.g. the BC example's `GrB_mxm(&frontier, numsp, … , desc_tsr)` prunes
//! already-discovered vertices *during* the multiply.

use crate::algebra::binary::BinaryOp;
use crate::algebra::monoid::Monoid;
use crate::algebra::semiring::Semiring;
use crate::index::Index;
use crate::kernel::util::{assemble_rows, map_rows, map_rows_init, map_spans};
use crate::mask::{MaskCsr, Pattern};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::Hyper;
use crate::storage::tiled::{self, OrientedTiles, Tiled};

/// Row-accumulator strategy for [`mxm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MxmStrategy {
    /// Choose per row: dense whenever the row width fits comfortably in
    /// cache (the per-worker scatter array is reused across rows, so it
    /// wins even on hypersparse rows — measured in the
    /// `ablation_spgemm` bench), hash only for genuinely wide rows with
    /// few expected entries.
    #[default]
    Auto,
    /// Force the hash accumulator.
    Hash,
    /// Force the dense accumulator.
    Dense,
}

/// Widths up to this always use the dense accumulator under `Auto`:
/// the reused scatter array stays cache-resident and beats hashing
/// (2× on both the sparse-ER and skewed-RMAT ablation workloads).
const DENSE_ALWAYS_WIDTH: usize = 1 << 15;

/// Per-worker scratch space, reused across the rows a worker processes.
struct Workspace<T> {
    dense: Vec<Option<T>>,
    touched: Vec<Index>,
    mask_ws: Vec<bool>,
    mask_touched: Vec<Index>,
}

impl<T: Scalar> Workspace<T> {
    fn new(ncols: Index) -> Self {
        Workspace {
            dense: vec![None; ncols],
            touched: Vec::new(),
            mask_ws: vec![false; ncols],
            mask_touched: Vec::new(),
        }
    }
}

/// Open-addressing accumulator for hypersparse rows.
struct HashAcc<T> {
    keys: Vec<Index>,
    vals: Vec<Option<T>>,
    mask: usize,
    len: usize,
}

const EMPTY: Index = Index::MAX;

impl<T: Scalar> HashAcc<T> {
    fn with_estimate(est: usize) -> Self {
        let cap = (est.max(4) * 2).next_power_of_two();
        HashAcc {
            keys: vec![EMPTY; cap],
            vals: vec![None; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, j: Index) -> usize {
        // Fibonacci hashing on the column index
        (j.wrapping_mul(0x9E3779B97F4A7C15) >> 32) & self.mask
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; (self.mask + 1) * 2]);
        let old_vals = std::mem::replace(&mut self.vals, vec![None; (self.mask + 1) * 2]);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert_raw(k, v.expect("occupied slot has a value"));
            }
        }
    }

    fn insert_raw(&mut self, j: Index, v: T) {
        let mut s = self.slot(j);
        loop {
            if self.keys[s] == EMPTY {
                self.keys[s] = j;
                self.vals[s] = Some(v);
                self.len += 1;
                return;
            }
            s = (s + 1) & self.mask;
        }
    }

    #[inline]
    fn accumulate<M: Monoid<T>>(&mut self, j: Index, v: T, add: &M) {
        if self.len * 2 > self.mask {
            self.grow();
        }
        let mut s = self.slot(j);
        loop {
            if self.keys[s] == j {
                let slot = self.vals[s].as_mut().expect("occupied");
                *slot = add.apply(slot, &v);
                return;
            }
            if self.keys[s] == EMPTY {
                self.keys[s] = j;
                self.vals[s] = Some(v);
                self.len += 1;
                return;
            }
            s = (s + 1) & self.mask;
        }
    }

    fn drain_sorted(mut self) -> (Vec<Index>, Vec<T>) {
        let mut pairs: Vec<(Index, T)> = Vec::with_capacity(self.len);
        for (k, v) in self.keys.iter().zip(self.vals.iter_mut()) {
            if *k != EMPTY {
                pairs.push((*k, v.take().expect("occupied")));
            }
        }
        pairs.sort_unstable_by_key(|&(j, _)| j);
        pairs.into_iter().unzip()
    }
}

/// Estimated multiply-add count for row `i` of `A·B` (the classic SpGEMM
/// upper bound on the row's result size).
#[inline]
fn row_flops<D1: Scalar, D2: Scalar>(a: &Csr<D1>, b: &Csr<D2>, i: Index) -> usize {
    let (cols, _) = a.row(i);
    cols.iter().map(|&k| b.row_nvals(k)).sum()
}

/// `T = A ⊕.⊗ B`, restricted to mask-admitted positions.
///
/// Dimensions must already be validated by the operation layer
/// (`ncols(A) == nrows(B)`).
pub fn mxm<D1, D2, D3, S>(
    sr: &S,
    a: &Csr<D1>,
    b: &Csr<D2>,
    mask: &MaskCsr,
    strategy: MxmStrategy,
) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.ncols(), b.nrows());
    let (nrows, ncols) = (a.nrows(), b.ncols());
    let rows = map_rows_init(
        nrows,
        a.nvals() + b.nvals(),
        || Workspace::<D3>::new(ncols),
        |ws, i| {
            let mrow = mask.row(i);
            if mrow.admits_none_of(ncols) || a.row_nvals(i) == 0 {
                return (Vec::new(), Vec::new());
            }
            let unmasked = mrow.admits_everything();
            // Scatter the mask row for O(1) admission tests during the
            // accumulation sweep.
            let mask_flag = if unmasked {
                true
            } else {
                mrow.scatter(&mut ws.mask_ws, &mut ws.mask_touched)
            };
            let admitted = |ws: &Workspace<D3>, j: Index| unmasked || (ws.mask_ws[j] != mask_flag);

            let flops = row_flops(a, b, i);
            let use_dense = match strategy {
                MxmStrategy::Dense => true,
                MxmStrategy::Hash => false,
                MxmStrategy::Auto => ncols <= DENSE_ALWAYS_WIDTH || flops >= ncols / 16,
            };
            let (ac, av) = a.row(i);
            let add = sr.add();
            let mul = sr.mul();

            let out = if use_dense {
                for (k, aik) in ac.iter().zip(av) {
                    let (bc, bv) = b.row(*k);
                    for (j, bkj) in bc.iter().zip(bv) {
                        if !admitted(ws, *j) {
                            continue;
                        }
                        let prod = mul.apply(aik, bkj);
                        match &mut ws.dense[*j] {
                            Some(acc) => *acc = add.apply(acc, &prod),
                            slot @ None => {
                                *slot = Some(prod);
                                ws.touched.push(*j);
                            }
                        }
                    }
                }
                ws.touched.sort_unstable();
                let mut cols = Vec::with_capacity(ws.touched.len());
                let mut vals = Vec::with_capacity(ws.touched.len());
                for &j in &ws.touched {
                    cols.push(j);
                    vals.push(ws.dense[j].take().expect("touched slot"));
                }
                ws.touched.clear();
                (cols, vals)
            } else {
                let mut acc = HashAcc::with_estimate(flops);
                for (k, aik) in ac.iter().zip(av) {
                    let (bc, bv) = b.row(*k);
                    for (j, bkj) in bc.iter().zip(bv) {
                        if !admitted(ws, *j) {
                            continue;
                        }
                        acc.accumulate(*j, mul.apply(aik, bkj), add);
                    }
                }
                acc.drain_sorted()
            };
            // reset mask workspace for the next row handled by this worker
            for &j in &ws.mask_touched {
                ws.mask_ws[j] = false;
            }
            ws.mask_touched.clear();
            out
        },
    );
    assemble_rows(nrows, ncols, rows)
}

/// Push-form SpGEMM: `T = A ⊕.⊗ B` given `at = Aᵀ`, formed by
/// scattering every stored `B(k, j)` through row `k` of `at` — the
/// matrix analog of the SpMSpV push, and for `T = Aᵀ ⊕.⊗ F` (the BFS and
/// BC frontier step) `at` is A's native row view, so no transpose is
/// built. Work is O(products + nrows(T) + nrows(B)), independent of
/// nnz(A). Each product is admitted through the mask before it is
/// formed. Products are gathered in ascending `k` (in parallel chunks
/// that come back in `k` order), bucketed by output row with a stable
/// counting sort, stable-sorted by column within each row and folded
/// left to right — so every output accumulates in ascending `k`, the
/// order of [`mxm`] and [`mxm_dot`]: bitwise equal at any parallelism
/// degree.
pub fn mxm_push<D1, D2, D3, S>(sr: &S, at: &Csr<D1>, b: &Csr<D2>, mask: &MaskCsr) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(at.nrows(), b.nrows());
    let (nrows, ncols) = (at.ncols(), b.ncols());
    let add = sr.add();
    let mul = sr.mul();
    // inner indices that form at least one product, ascending
    let ks: Vec<Index> = (0..b.nrows())
        .filter(|&k| b.row_nvals(k) > 0 && at.row_nvals(k) > 0)
        .collect();
    let work: usize = ks.iter().map(|&k| at.row_nvals(k) * b.row_nvals(k)).sum();
    let gather = |lo: usize, hi: usize| {
        let mut prods: Vec<(Index, Index, D3)> = Vec::new();
        for &k in &ks[lo..hi] {
            let (bc, bv) = b.row(k);
            let (ac, av) = at.row(k);
            for (&i, aik) in ac.iter().zip(av) {
                let mrow = mask.row(i);
                if mrow.admits_none_of(ncols) {
                    continue;
                }
                for (&j, bkj) in bc.iter().zip(bv) {
                    if mrow.admits(j) {
                        prods.push((i, j, mul.apply(aik, bkj)));
                    }
                }
            }
        }
        prods
    };
    let prods = map_spans(ks.len(), work, gather);
    // stable counting sort by output row: `order` lists product
    // positions row by row, ascending k within each row
    let mut bucket = vec![0usize; nrows + 1];
    for &(i, _, _) in &prods {
        bucket[i + 1] += 1;
    }
    for i in 0..nrows {
        bucket[i + 1] += bucket[i];
    }
    let mut order = vec![0usize; prods.len()];
    let mut next = bucket.clone();
    for (p, &(i, _, _)) in prods.iter().enumerate() {
        order[next[i]] = p;
        next[i] += 1;
    }
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<Index> = Vec::new();
    let mut vals: Vec<D3> = Vec::new();
    for i in 0..nrows {
        let row = &mut order[bucket[i]..bucket[i + 1]];
        if row.is_empty() {
            row_ptr.push(col_idx.len());
            continue;
        }
        // stable: equal columns keep ascending k (a single-column block
        // is already in column order)
        if ncols > 1 {
            row.sort_by_key(|&p| prods[p].1);
        }
        let start = col_idx.len();
        for &p in row.iter() {
            let (_, j, v) = &prods[p];
            if col_idx.len() > start && col_idx.last() == Some(j) {
                let acc = vals.last_mut().expect("a column was pushed");
                *acc = add.apply(acc, v);
            } else {
                col_idx.push(*j);
                vals.push(v.clone());
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts(nrows, ncols, row_ptr, col_idx, vals)
}

/// Hypersparse SpGEMM: `T = A ⊕.⊗ B` where `A` is hypersparse, walking
/// **only** `A`'s non-empty rows and emitting hypersparse output
/// directly. Work and memory are `O(flops + #nonempty-rows)` —
/// independent of `nrows`, where the CSR kernel pays an `O(nrows)`
/// sweep/assembly and an `O(ncols)` per-worker scatter array regardless
/// of how empty the operand is. The hash accumulator keeps per-row state
/// proportional to the row's flop estimate.
pub fn mxm_hyper<D1, D2, D3, S>(sr: &S, a: &Hyper<D1>, b: &Csr<D2>, mask: &MaskCsr) -> Hyper<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.ncols(), b.nrows());
    let add = sr.add();
    let mul = sr.mul();
    let rows = map_rows(a.nonempty_rows().len(), a.nvals() + b.nvals(), |k| {
        let (i, ac, av) = a.row_by_pos(k);
        let mrow = mask.row(i);
        if mrow.admits_nothing() {
            return (i, Vec::new(), Vec::new());
        }
        let flops: usize = ac.iter().map(|&p| b.row_nvals(p)).sum();
        let mut acc = HashAcc::with_estimate(flops);
        for (p, aik) in ac.iter().zip(av) {
            let (bc, bv) = b.row(*p);
            for (j, bkj) in bc.iter().zip(bv) {
                if !mrow.admits(*j) {
                    continue;
                }
                acc.accumulate(*j, mul.apply(aik, bkj), add);
            }
        }
        let (cols, vals) = acc.drain_sorted();
        (i, cols, vals)
    });
    Hyper::from_row_slices(
        a.nrows(),
        b.ncols(),
        rows.into_iter().filter(|(_, cols, _)| !cols.is_empty()),
    )
}

/// Tiled SpGEMM: `T = A ⊕.⊗ B` where `A` is stored as a 2D tile grid.
/// Each logical row of `A` is gathered across its stripe's tiles
/// left-to-right — ascending global `k`, the same entry order the slab
/// kernel walks — and fed through the identical per-row accumulation,
/// so the result is bitwise-equal to [`mxm`] on the assembled slab.
/// Only the tiles in stripes that actually multiply are materialized as
/// row views; the touched set is recorded for the execution trace.
pub fn mxm_tiled<D1, D2, D3, S>(sr: &S, a: &Tiled<D1>, b: &Csr<D2>, mask: &MaskCsr) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.ncols(), b.nrows());
    let (nrows, ncols) = (a.nrows(), b.ncols());
    let ot = OrientedTiles::new(a, false);
    let rows = map_rows_init(
        nrows,
        a.nvals() + b.nvals(),
        || {
            (
                Workspace::<D3>::new(ncols),
                Vec::<Index>::new(),
                Vec::<D1>::new(),
                ot.cursor(),
            )
        },
        |(ws, ac, av, cur), i| {
            let mrow = mask.row(i);
            if mrow.admits_none_of(ncols) {
                return (Vec::new(), Vec::new());
            }
            // Gather A(i,:) across the stripe's tiles in ascending-k order.
            ac.clear();
            av.clear();
            cur.for_row(i, &mut |off, cols, vals| {
                for (c, v) in cols.iter().zip(vals) {
                    ac.push(off + c);
                    av.push(v.clone());
                }
            });
            if ac.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let unmasked = mrow.admits_everything();
            let mask_flag = if unmasked {
                true
            } else {
                mrow.scatter(&mut ws.mask_ws, &mut ws.mask_touched)
            };
            let admitted = |ws: &Workspace<D3>, j: Index| unmasked || (ws.mask_ws[j] != mask_flag);

            let flops: usize = ac.iter().map(|&k| b.row_nvals(k)).sum();
            let use_dense = ncols <= DENSE_ALWAYS_WIDTH || flops >= ncols / 16;
            let add = sr.add();
            let mul = sr.mul();

            let out = if use_dense {
                for (k, aik) in ac.iter().zip(av.iter()) {
                    let (bc, bv) = b.row(*k);
                    for (j, bkj) in bc.iter().zip(bv) {
                        if !admitted(ws, *j) {
                            continue;
                        }
                        let prod = mul.apply(aik, bkj);
                        match &mut ws.dense[*j] {
                            Some(acc) => *acc = add.apply(acc, &prod),
                            slot @ None => {
                                *slot = Some(prod);
                                ws.touched.push(*j);
                            }
                        }
                    }
                }
                ws.touched.sort_unstable();
                let mut cols = Vec::with_capacity(ws.touched.len());
                let mut vals = Vec::with_capacity(ws.touched.len());
                for &j in &ws.touched {
                    cols.push(j);
                    vals.push(ws.dense[j].take().expect("touched slot"));
                }
                ws.touched.clear();
                (cols, vals)
            } else {
                let mut acc = HashAcc::with_estimate(flops);
                for (k, aik) in ac.iter().zip(av.iter()) {
                    let (bc, bv) = b.row(*k);
                    for (j, bkj) in bc.iter().zip(bv) {
                        if !admitted(ws, *j) {
                            continue;
                        }
                        acc.accumulate(*j, mul.apply(aik, bkj), add);
                    }
                }
                acc.drain_sorted()
            };
            for &j in &ws.mask_touched {
                ws.mask_ws[j] = false;
            }
            ws.mask_touched.clear();
            out
        },
    );
    tiled::note_tiles(ot.touched());
    assemble_rows(nrows, ncols, rows)
}

/// Masked dot-product SpGEMM: computes `T = A ⊕.⊗ B` **only** at the
/// positions of `pattern` (an effective, non-complemented mask), given
/// `B` in transposed form. Work is `O(Σ_{(i,j)∈mask} (nnz A(i,:) +
/// nnz B(:,j)))` — independent of the full product's flop count, which is
/// what makes strongly-masked products (triangle counting, BC frontier
/// pruning with sparse masks) cheap.
pub fn mxm_dot<D1, D2, D3, S>(sr: &S, a: &Csr<D1>, bt: &Csr<D2>, pattern: &Pattern) -> Csr<D3>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    S: Semiring<D1, D2, D3>,
{
    debug_assert_eq!(a.nrows(), pattern.nrows());
    debug_assert_eq!(bt.nrows(), pattern.ncols());
    let nrows = a.nrows();
    let ncols = bt.nrows();
    let add = sr.add();
    let mul = sr.mul();
    let rows = map_rows_init(
        nrows,
        a.nvals() + bt.nvals(),
        || (),
        |_, i| {
            let (ac, av) = a.row(i);
            if ac.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let (mcols, _) = pattern.row(i);
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            for &j in mcols {
                let (bc, bv) = bt.row(j);
                // merge-walk the intersection ind(A(i,:)) ∩ ind(B(:,j))
                let (mut p, mut q) = (0usize, 0usize);
                let mut acc: Option<D3> = None;
                while p < ac.len() && q < bc.len() {
                    match ac[p].cmp(&bc[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            let prod = mul.apply(&av[p], &bv[q]);
                            acc = Some(match acc {
                                Some(x) => add.apply(&x, &prod),
                                None => prod,
                            });
                            p += 1;
                            q += 1;
                        }
                    }
                }
                if let Some(v) = acc {
                    cols.push(j);
                    vals.push(v);
                }
            }
            (cols, vals)
        },
    );
    assemble_rows(nrows, ncols, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::semiring::{lor_land, min_plus, plus_times};

    fn a() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 4 ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3), (1, 2, 4)])
    }

    fn b() -> Csr<i32> {
        // [ 5 . ]
        // [ 6 7 ]
        // [ . 8 ]
        Csr::from_sorted_tuples(3, 2, vec![(0, 0, 5), (1, 0, 6), (1, 1, 7), (2, 1, 8)])
    }

    #[test]
    fn plus_times_matches_dense_reference() {
        let c = mxm(
            &plus_times::<i32>(),
            &a(),
            &b(),
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        // [ 1*5+2*6  2*7      ] = [ 17 14 ]
        // [ 3*6      3*7+4*8  ]   [ 18 53 ]
        assert_eq!(
            c.to_tuples(),
            vec![(0, 0, 17), (0, 1, 14), (1, 0, 18), (1, 1, 53)]
        );
    }

    #[test]
    fn hash_and_dense_strategies_agree() {
        let c_hash = mxm(
            &plus_times::<i32>(),
            &a(),
            &b(),
            &MaskCsr::All,
            MxmStrategy::Hash,
        );
        let c_dense = mxm(
            &plus_times::<i32>(),
            &a(),
            &b(),
            &MaskCsr::All,
            MxmStrategy::Dense,
        );
        assert_eq!(c_hash, c_dense);
    }

    #[test]
    fn no_entry_where_intersection_empty() {
        // A row hits only B rows with no entries in some column ->
        // that output position stays undefined (never a fabricated zero).
        let a = Csr::from_sorted_tuples(1, 2, vec![(0, 0, 1)]);
        let b = Csr::from_sorted_tuples(2, 2, vec![(1, 1, 1)]);
        let c = mxm(
            &plus_times::<i32>(),
            &a,
            &b,
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        assert_eq!(c.nvals(), 0);
    }

    #[test]
    fn min_plus_semiring_shortest_hop() {
        let sr = min_plus::<i64>();
        // path weights: A(0,1)=1, A(1,2)=2; A^2 should give 0->2 = 3
        let a = Csr::from_sorted_tuples(3, 3, vec![(0, 1, 1i64), (1, 2, 2)]);
        let c = mxm(&sr, &a, &a, &MaskCsr::All, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 2, 3)]);
    }

    #[test]
    fn boolean_reachability() {
        let sr = lor_land();
        let a = Csr::from_sorted_tuples(3, 3, vec![(0, 1, true), (1, 0, true), (1, 2, true)]);
        let c = mxm(&sr, &a, &a, &MaskCsr::All, MxmStrategy::Auto);
        assert_eq!(
            c.to_tuples(),
            vec![(0, 0, true), (0, 2, true), (1, 1, true)]
        );
    }

    #[test]
    fn masked_mxm_only_produces_admitted_positions() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 1, true), (1, 0, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 1, 14), (1, 0, 18)]);
    }

    #[test]
    fn complemented_mask_in_kernel() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 1, true), (1, 0, true)]);
        let mask = MaskCsr::from_csr(&m, false, true);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 0, 17), (1, 1, 53)]);
    }

    #[test]
    fn stored_false_mask_values_do_not_admit() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 0, 1i32), (0, 1, 0)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.to_tuples(), vec![(0, 0, 17)]);
    }

    #[test]
    fn dot_kernel_matches_scatter_kernel_under_mask() {
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 0, true), (1, 1, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let scatter = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        let pattern = match &mask {
            MaskCsr::Pattern { pattern, .. } => pattern.clone(),
            _ => unreachable!(),
        };
        let dot = mxm_dot(&plus_times::<i32>(), &a(), &b().transpose(), &pattern);
        assert_eq!(scatter, dot);
    }

    #[test]
    fn large_random_hash_vs_dense_vs_dot() {
        // deterministic pseudo-random pattern, big enough to hit the
        // parallel path and hash growth
        let n = 300usize;
        let mut tuples = Vec::new();
        let mut x = 12345u64;
        for i in 0..n {
            for _ in 0..5 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (x >> 33) as usize % n;
                tuples.push((i, j, ((x >> 17) % 10) as i64));
            }
        }
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        let a = Csr::from_sorted_tuples(n, n, tuples);
        let h = mxm(
            &plus_times::<i64>(),
            &a,
            &a,
            &MaskCsr::All,
            MxmStrategy::Hash,
        );
        let d = mxm(
            &plus_times::<i64>(),
            &a,
            &a,
            &MaskCsr::All,
            MxmStrategy::Dense,
        );
        assert_eq!(h, d);
        // dot against the full pattern of the product
        let full_pattern = h.map(|_| ());
        let dot = mxm_dot(&plus_times::<i64>(), &a, &a.transpose(), &full_pattern);
        assert_eq!(dot, h);
    }

    #[test]
    fn hyper_kernel_matches_csr_kernel() {
        // 1000 rows, only a handful occupied
        let n = 1000usize;
        let tuples = vec![
            (3usize, 7usize, 2i64),
            (3, 900, 5),
            (500, 3, 1),
            (998, 500, 4),
        ];
        let a_csr = Csr::from_sorted_tuples(n, n, tuples);
        let a_hyper = Hyper::from_csr(&a_csr);
        let dense = mxm(
            &plus_times::<i64>(),
            &a_csr,
            &a_csr,
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        let hyper = mxm_hyper(&plus_times::<i64>(), &a_hyper, &a_csr, &MaskCsr::All);
        assert_eq!(hyper.to_csr(), dense);
        assert!(hyper.nonempty_rows().len() <= 3);
    }

    #[test]
    fn hyper_kernel_respects_mask() {
        let a_csr = Csr::from_sorted_tuples(10, 10, vec![(1, 2, 2i32), (2, 3, 3), (9, 1, 7)]);
        let a_hyper = Hyper::from_csr(&a_csr);
        let m = Csr::from_sorted_tuples(10, 10, vec![(1, 3, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let masked = mxm_hyper(&plus_times::<i32>(), &a_hyper, &a_csr, &mask);
        let reference = mxm(
            &plus_times::<i32>(),
            &a_csr,
            &a_csr,
            &mask,
            MxmStrategy::Auto,
        );
        assert_eq!(masked.to_csr(), reference);
        assert_eq!(masked.nvals(), 1); // only (1,3) admitted
    }

    #[test]
    fn tiled_kernel_matches_csr_kernel_bitwise() {
        let n = 300usize;
        let mut tuples = Vec::new();
        let mut x = 424242u64;
        for i in 0..n {
            for _ in 0..4 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (x >> 33) as usize % n;
                tuples.push((i, j, ((x >> 17) % 1000) as f64 / 7.0));
            }
        }
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        let a_csr = Csr::from_sorted_tuples(n, n, tuples);
        let slab = mxm(
            &plus_times::<f64>(),
            &a_csr,
            &a_csr,
            &MaskCsr::All,
            MxmStrategy::Auto,
        );
        for grid in [(1, 1), (2, 2), (4, 4), (7, 3)] {
            let a_tiled = Tiled::from_csr(&a_csr, grid);
            let tiled = mxm_tiled(&plus_times::<f64>(), &a_tiled, &a_csr, &MaskCsr::All);
            // f64 plus is not associative under reordering — equality here
            // proves the tiled gather preserves the slab's fold order.
            assert_eq!(tiled, slab, "grid {grid:?}");
        }
        let _ = tiled::take_tiles();
    }

    #[test]
    fn tiled_kernel_respects_mask() {
        let a_csr = Csr::from_sorted_tuples(10, 10, vec![(1, 2, 2i32), (2, 3, 3), (9, 1, 7)]);
        let a_tiled = Tiled::from_csr(&a_csr, (3, 3));
        let m = Csr::from_sorted_tuples(10, 10, vec![(1, 3, true)]);
        let mask = MaskCsr::from_csr(&m, false, false);
        let masked = mxm_tiled(&plus_times::<i32>(), &a_tiled, &a_csr, &mask);
        let reference = mxm(
            &plus_times::<i32>(),
            &a_csr,
            &a_csr,
            &mask,
            MxmStrategy::Auto,
        );
        assert_eq!(masked, reference);
        assert_eq!(masked.nvals(), 1);
        let _ = tiled::take_tiles();
    }

    #[test]
    fn push_kernel_matches_gustavson_under_every_mask() {
        // T = A ⊕.⊗ B from A^T's rows, against the row-wise kernel, with
        // no mask, a mask, and its complement (incl. a fully closed row)
        let m = Csr::from_sorted_tuples(2, 2, vec![(0, 0, true), (0, 1, true), (1, 1, true)]);
        for mask in [
            MaskCsr::All,
            MaskCsr::from_csr(&m, true, false),
            MaskCsr::from_csr(&m, true, true),
        ] {
            let row_wise = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
            let push = mxm_push(&plus_times::<i32>(), &a().transpose(), &b(), &mask);
            assert_eq!(push, row_wise);
        }
    }

    #[test]
    fn empty_mask_skips_all_work() {
        let mask = MaskCsr::from_csr(&Csr::<bool>::empty(2, 2), false, false);
        let c = mxm(&plus_times::<i32>(), &a(), &b(), &mask, MxmStrategy::Auto);
        assert_eq!(c.nvals(), 0);
    }
}
