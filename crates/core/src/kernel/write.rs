//! The output-write pipeline shared by every operation (paper, Figure 2
//! and Section VI):
//!
//! 1. the operation computes an internal result **T**;
//! 2. if an accumulator ⊙ is present, `Z = C ⊙ T` on the pattern
//!    `ind(C) ∪ ind(T)`; otherwise `Z = T`;
//! 3. the write mask selects which elements of **Z** reach **C**:
//!    * **Replace mode** (`GrB_REPLACE`): `C = Z ∩ mask` — old values of
//!      `C` are deleted first;
//!    * **Merge mode** (default): admitted positions become exactly `Z`
//!      there (including deletions where `Z` is absent), positions outside
//!      the mask keep their old `C` values.

use crate::accum::Accumulate;
use crate::index::Index;
use crate::kernel::util::map_row_spans;
use crate::mask::{MaskCsr, MaskRow, MaskVec};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// Monotone membership cursor over a sorted mask row: queries must come
/// with non-decreasing `j`, giving O(nnz(mask row)) total instead of a
/// binary search per query.
struct MaskCursor<'a> {
    cols: Option<&'a [Index]>,
    complement: bool,
    pos: usize,
}

impl<'a> MaskCursor<'a> {
    fn new(row: MaskRow<'a>) -> Self {
        let (cols, complement) = row.raw();
        MaskCursor {
            cols,
            complement,
            pos: 0,
        }
    }

    #[inline]
    fn admits(&mut self, j: Index) -> bool {
        match self.cols {
            None => true,
            Some(cols) => {
                while self.pos < cols.len() && cols[self.pos] < j {
                    self.pos += 1;
                }
                let stored = self.pos < cols.len() && cols[self.pos] == j;
                stored != self.complement
            }
        }
    }
}

/// One row (or one whole vector) of the accumulate-and-mask pipeline.
/// `c` is the old output content, `t` the operation's internal result.
#[allow(clippy::too_many_arguments)]
fn write_row<T: Scalar, Ac: Accumulate<T>>(
    c_idx: &[Index],
    c_vals: &[T],
    t_idx: &[Index],
    t_vals: &[T],
    accum: &Ac,
    mask_row: MaskRow<'_>,
    replace: bool,
    out_idx: &mut Vec<Index>,
    out_vals: &mut Vec<T>,
) {
    let mut mask = MaskCursor::new(mask_row);
    let (mut ci, mut ti) = (0usize, 0usize);
    loop {
        // next candidate position j with its Z-value (if any) and C-value
        let (j, z, c): (Index, Option<T>, Option<&T>) = match (c_idx.get(ci), t_idx.get(ti)) {
            (None, None) => break,
            (Some(&cj), None) => {
                let z = if Ac::IS_ACCUM {
                    Some(c_vals[ci].clone())
                } else {
                    None
                };
                let r = (cj, z, Some(&c_vals[ci]));
                ci += 1;
                r
            }
            (None, Some(&tj)) => {
                let r = (tj, Some(t_vals[ti].clone()), None);
                ti += 1;
                r
            }
            (Some(&cj), Some(&tj)) => {
                if cj < tj {
                    let z = if Ac::IS_ACCUM {
                        Some(c_vals[ci].clone())
                    } else {
                        None
                    };
                    let r = (cj, z, Some(&c_vals[ci]));
                    ci += 1;
                    r
                } else if tj < cj {
                    let r = (tj, Some(t_vals[ti].clone()), None);
                    ti += 1;
                    r
                } else {
                    let z = if Ac::IS_ACCUM {
                        accum.combine(&c_vals[ci], &t_vals[ti])
                    } else {
                        t_vals[ti].clone()
                    };
                    let r = (cj, Some(z), Some(&c_vals[ci]));
                    ci += 1;
                    ti += 1;
                    r
                }
            }
        };
        if mask.admits(j) {
            if let Some(zv) = z {
                out_idx.push(j);
                out_vals.push(zv);
            }
            // admitted but Z absent: element deleted (stays absent)
        } else if !replace {
            if let Some(cv) = c {
                out_idx.push(j);
                out_vals.push(cv.clone());
            }
        }
        // not admitted + replace: deleted
    }
}

/// Full pipeline for matrices: `C ⊙=<mask, replace> T`.
pub fn write_matrix<T: Scalar, Ac: Accumulate<T>>(
    c_old: &Csr<T>,
    t: Csr<T>,
    accum: &Ac,
    mask: &MaskCsr,
    replace: bool,
) -> Csr<T> {
    debug_assert_eq!(c_old.nrows(), t.nrows());
    debug_assert_eq!(c_old.ncols(), t.ncols());
    // Fast path: no mask and no accumulator — C becomes exactly T
    // (replace and merge coincide because every position is admitted).
    if mask.admits_all() && !Ac::IS_ACCUM {
        return t;
    }
    let work = c_old.nvals() + t.nvals();
    let ncols = c_old.ncols();
    // a row with nothing stored, or one the mask closes entirely: old C
    // survives it in merge mode and is deleted under replace, so runs
    // of such rows are copied (or skipped) in bulk, with no merge walk
    let closed = |i: Index| {
        (c_old.row_nvals(i) == 0 && t.row_nvals(i) == 0) || mask.row(i).admits_none_of(ncols)
    };
    let (c_ptr, c_cols, c_vals) = (c_old.row_ptr(), c_old.col_idx(), c_old.vals());
    map_row_spans(c_old.nrows(), ncols, work, |lo, hi, span| {
        let mut i = lo;
        while i < hi {
            let run_end = (i..hi).find(|&r| !closed(r)).unwrap_or(hi);
            if run_end > i {
                if replace {
                    let len = span.cols.len();
                    span.ends.extend(std::iter::repeat_n(len, run_end - i));
                } else {
                    let (before, start, end) = (span.cols.len(), c_ptr[i], c_ptr[run_end]);
                    span.cols.extend_from_slice(&c_cols[start..end]);
                    span.vals.extend_from_slice(&c_vals[start..end]);
                    span.ends
                        .extend(c_ptr[i + 1..=run_end].iter().map(|&e| before + e - start));
                }
                i = run_end;
                continue;
            }
            let (cc, cv) = c_old.row(i);
            let (tc, tv) = t.row(i);
            write_row(
                cc,
                cv,
                tc,
                tv,
                accum,
                mask.row(i),
                replace,
                &mut span.cols,
                &mut span.vals,
            );
            span.ends.push(span.cols.len());
            i += 1;
        }
    })
}

/// Full pipeline for vectors: `w ⊙=<mask, replace> t`.
pub fn write_vector<T: Scalar, Ac: Accumulate<T>>(
    w_old: &SparseVec<T>,
    t: SparseVec<T>,
    accum: &Ac,
    mask: &MaskVec,
    replace: bool,
) -> SparseVec<T> {
    debug_assert_eq!(w_old.size(), t.size());
    if mask.admits_all() && !Ac::IS_ACCUM {
        return t;
    }
    let mut idx = Vec::with_capacity(w_old.nvals() + t.nvals());
    let mut vals = Vec::with_capacity(w_old.nvals() + t.nvals());
    write_row(
        w_old.indices(),
        w_old.vals(),
        t.indices(),
        t.vals(),
        accum,
        mask.as_row(),
        replace,
        &mut idx,
        &mut vals,
    );
    SparseVec::from_sorted_parts(w_old.size(), idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;

    fn c_old() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 . ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    }

    fn t_new() -> Csr<i32> {
        // [ 10 .  20 ]
        // [ .  30 .  ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 10), (0, 2, 20), (1, 1, 30)])
    }

    fn mask_01_and_11() -> MaskCsr {
        // admit (0,1) and (1,1) only
        let m = Csr::from_sorted_tuples(2, 3, vec![(0, 1, true), (1, 1, true)]);
        MaskCsr::from_csr(&m, false, false)
    }

    #[test]
    fn no_mask_no_accum_is_assignment() {
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &MaskCsr::All, false);
        assert_eq!(r, t_new());
        // old C(0,1)=2 is gone: assignment replaces the full content
        assert_eq!(r.get(0, 1), None);
    }

    #[test]
    fn no_mask_accum_is_union() {
        let r = write_matrix(
            &c_old(),
            t_new(),
            &Accum(Plus::<i32>::new()),
            &MaskCsr::All,
            false,
        );
        assert_eq!(
            r.to_tuples(),
            vec![(0, 0, 11), (0, 1, 2), (0, 2, 20), (1, 1, 33)]
        );
    }

    #[test]
    fn merge_mode_keeps_unmasked_old_values() {
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &mask_01_and_11(), false);
        // (0,1): admitted, T absent -> deleted; (1,1): admitted -> 30
        // (0,0): not admitted -> old 1 kept; (0,2): not admitted -> absent
        assert_eq!(r.to_tuples(), vec![(0, 0, 1), (1, 1, 30)]);
    }

    #[test]
    fn replace_mode_clears_unmasked_positions() {
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &mask_01_and_11(), true);
        assert_eq!(r.to_tuples(), vec![(1, 1, 30)]);
    }

    #[test]
    fn merge_with_accum_under_mask() {
        let r = write_matrix(
            &c_old(),
            t_new(),
            &Accum(Plus::<i32>::new()),
            &mask_01_and_11(),
            false,
        );
        // (0,1): admitted, Z = old 2 (T absent, accum keeps C) -> 2
        // (1,1): admitted, Z = 3+30
        // (0,0): not admitted -> old 1; (0,2) not admitted -> absent
        assert_eq!(r.to_tuples(), vec![(0, 0, 1), (0, 1, 2), (1, 1, 33)]);
    }

    #[test]
    fn complemented_mask_flips_selection() {
        let m = Csr::from_sorted_tuples(2, 3, vec![(0, 1, true), (1, 1, true)]);
        let scmp = MaskCsr::from_csr(&m, false, true);
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &scmp, true);
        // admitted = everything except (0,1),(1,1)
        assert_eq!(r.to_tuples(), vec![(0, 0, 10), (0, 2, 20)]);
    }

    #[test]
    fn masked_vector_write() {
        let w = SparseVec::from_sorted_parts(4, vec![0, 2], vec![1, 2]);
        let t = SparseVec::from_sorted_parts(4, vec![1, 2], vec![10, 20]);
        let msrc = SparseVec::from_sorted_parts(4, vec![1, 3], vec![true, true]);
        let mask = MaskVec::from_vec(&msrc, false, false);
        // merge: 1 admitted -> 10; 0,2 not admitted -> old kept
        let r = write_vector(&w, t.clone(), &NoAccum, &mask, false);
        assert_eq!(r.to_tuples(), vec![(0, 1), (1, 10), (2, 2)]);
        // replace: only admitted survive
        let r = write_vector(&w, t, &NoAccum, &mask, true);
        assert_eq!(r.to_tuples(), vec![(1, 10)]);
    }

    #[test]
    fn empty_t_with_mask_deletes_admitted_region() {
        let t = Csr::empty(2, 3);
        let r = write_matrix(&c_old(), t, &NoAccum, &mask_01_and_11(), false);
        // (0,1) admitted and Z empty -> deleted; others kept
        assert_eq!(r.to_tuples(), vec![(0, 0, 1)]);
    }

    #[test]
    fn write_is_exhaustive_against_model() {
        // brute-force model check on a 1x4 row over all patterns
        use crate::mask::MaskRow;
        let n = 4usize;
        for c_pat in 0u32..16 {
            for t_pat in 0u32..16 {
                for m_pat in 0u32..16 {
                    for &(comp, repl, acc) in &[
                        (false, false, false),
                        (false, true, false),
                        (true, false, false),
                        (true, true, false),
                        (false, false, true),
                        (true, true, true),
                    ] {
                        let bits = |p: u32| (0..n).filter(move |k| p & (1 << k) != 0);
                        let c_idx: Vec<_> = bits(c_pat).collect();
                        let c_vals: Vec<i32> = c_idx.iter().map(|&k| k as i32 + 1).collect();
                        let t_idx: Vec<_> = bits(t_pat).collect();
                        let t_vals: Vec<i32> = t_idx.iter().map(|&k| 10 * (k as i32 + 1)).collect();
                        let m_idx: Vec<_> = bits(m_pat).collect();
                        let mrow = MaskRow::from_cols(&m_idx, comp);

                        let mut got_i = Vec::new();
                        let mut got_v = Vec::new();
                        if acc {
                            write_row(
                                &c_idx,
                                &c_vals,
                                &t_idx,
                                &t_vals,
                                &Accum(Plus::<i32>::new()),
                                mrow,
                                repl,
                                &mut got_i,
                                &mut got_v,
                            );
                        } else {
                            write_row(
                                &c_idx, &c_vals, &t_idx, &t_vals, &NoAccum, mrow, repl, &mut got_i,
                                &mut got_v,
                            );
                        }

                        // model
                        let mut want: Vec<(usize, i32)> = Vec::new();
                        for j in 0..n {
                            let cv = c_idx.iter().position(|&x| x == j).map(|p| c_vals[p]);
                            let tv = t_idx.iter().position(|&x| x == j).map(|p| t_vals[p]);
                            let z = if acc {
                                match (cv, tv) {
                                    (Some(c), Some(t)) => Some(c + t),
                                    (Some(c), None) => Some(c),
                                    (None, Some(t)) => Some(t),
                                    (None, None) => None,
                                }
                            } else {
                                tv
                            };
                            let admitted = (m_idx.contains(&j)) != comp;
                            let out = if admitted {
                                z
                            } else if repl {
                                None
                            } else {
                                cv
                            };
                            if let Some(v) = out {
                                want.push((j, v));
                            }
                        }
                        let got: Vec<(usize, i32)> = got_i.into_iter().zip(got_v).collect();
                        assert_eq!(got, want,
                            "c={c_pat:04b} t={t_pat:04b} m={m_pat:04b} comp={comp} repl={repl} acc={acc}");
                    }
                }
            }
        }
    }
}
