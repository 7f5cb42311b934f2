//! `GrB_assign` (Table II): `C<Mask>(rows, cols) ⊙= A` and the
//! scalar-fill variants (`C<Mask>(rows, cols) ⊙= value`).
//!
//! The mask spans the *whole* output (not just the assigned region), and
//! `GrB_REPLACE` clears unmasked positions across the whole output —
//! assign's write stage is the ordinary Figure 2 pipeline applied to
//! `Z = C-with-region-updated`.

use crate::accum::Accumulate;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::Context;
use crate::index::{Index, IndexSelection};
use crate::kernel::assign::{
    assign_matrix, assign_scalar_matrix, assign_scalar_vector, assign_vector,
};
use crate::kernel::write::{write_matrix, write_vector};
use crate::mask::{MaskCsr, MaskVec};
use crate::object::mask_arg::{MatrixMask, VectorMask};
use crate::object::matrix::oriented_storage;
use crate::object::{Matrix, Vector};
use crate::op::{check_mask_dims1, check_mask_dims2, check_no_duplicates, effective_dims};
use crate::scalar::Scalar;
use crate::storage::vec::SparseVec;

impl Context {
    /// `GrB_assign` (matrix): `C<Mask>(rows, cols) ⊙= A`.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn assign_matrix<T, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        a: &Matrix<T>,
        rows: IndexSelection<'_>,
        cols: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        let tr_a = desc.is_first_transposed();
        let (am, an) = effective_dims(a, tr_a);
        let rows = rows.resolve(c.nrows())?;
        let cols = cols.resolve(c.ncols())?;
        check_no_duplicates(&rows, "row")?;
        check_no_duplicates(&cols, "column")?;
        dim_check((am, an) == (rows.len(), cols.len()), || {
            format!(
                "assign source is {am}x{an} but target region is {}x{}",
                rows.len(),
                cols.len()
            )
        })?;
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        let (a_node, c_node) = (a.capture(), c.capture());
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![a_node.clone() as _, c_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let a_st = oriented_storage(&a_node, tr_a)?;
            let c_old = c_node.ready_storage()?.row_csr();
            let mcsr = msnap.materialize()?;
            let z = assign_matrix(&c_old, &a_st, &rows, &cols, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            // Z already embodies the accumulate semantics; the write stage
            // only applies the mask/replace selection against old C.
            Ok(write_matrix(
                &c_old,
                z,
                &crate::accum::NoAccum,
                &mcsr,
                replace,
            ))
        };
        self.submit_matrix("assign", c, deps, Box::new(eval))
    }

    /// `GrB_assign` (matrix, scalar fill): every position of the region
    /// receives `value` (Fig. 3 line 61: `bcu` filled with `1.0`).
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn assign_scalar_matrix<T, Ac, Mk>(
        &self,
        c: &Matrix<T>,
        mask: Mk,
        accum: Ac,
        value: T,
        rows: IndexSelection<'_>,
        cols: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: MatrixMask,
    {
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        // Whole-matrix masked scalar fill (`C<M> = value` over
        // `GrB_ALL` x `GrB_ALL`, the batched-BFS `levels<frontier> = d`
        // shape): as for vectors, build Z straight from a
        // non-complemented mask pattern instead of the O(m·n) dense fill
        // and the resolved index lists the write stage would discard.
        if !Ac::IS_ACCUM
            && mask.mask_dims().is_some()
            && matches!(rows, IndexSelection::All)
            && matches!(cols, IndexSelection::All)
        {
            let c_node = c.capture();
            let msnap = mask.snap(desc);
            let mut deps: Vec<_> = vec![c_node.clone() as _];
            deps.extend(msnap.deps());
            let replace = desc.is_replace();
            let eval = move || {
                let c_old = c_node.ready_storage()?.row_csr();
                let mcsr = msnap.materialize()?;
                let z = match &mcsr {
                    MaskCsr::Pattern {
                        pattern,
                        complement: false,
                    } => pattern.map(|_| value.clone()),
                    // a complemented pattern admits O(m·n) positions
                    // anyway: keep the dense fill
                    _ => {
                        let rows: Vec<Index> = (0..c_old.nrows()).collect();
                        let cols: Vec<Index> = (0..c_old.ncols()).collect();
                        assign_scalar_matrix(&c_old, &value, &rows, &cols, &crate::accum::NoAccum)
                    }
                };
                Ok(write_matrix(
                    &c_old,
                    z,
                    &crate::accum::NoAccum,
                    &mcsr,
                    replace,
                ))
            };
            return self.submit_matrix("assign", c, deps, Box::new(eval));
        }

        let rows = rows.resolve(c.nrows())?;
        let cols = cols.resolve(c.ncols())?;
        check_no_duplicates(&rows, "row")?;
        check_no_duplicates(&cols, "column")?;

        // A 1x1 no-accum unmasked scalar assign is exactly a point
        // update: route it through the O(1) pending-update buffer
        // instead of submitting a whole-output rewrite. (Skipped when a
        // test fault is armed, so the fault lands on a real submission.)
        if !Ac::IS_ACCUM
            && mask.mask_dims().is_none()
            && !desc.is_replace()
            && !desc.is_mask_complemented()
            && rows.len() == 1
            && cols.len() == 1
            && !self.has_fault()
        {
            return c.set(rows[0], cols[0], value);
        }

        let c_node = c.capture();
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![c_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let c_old = c_node.ready_storage()?.row_csr();
            let mcsr = msnap.materialize()?;
            let z = assign_scalar_matrix(&c_old, &value, &rows, &cols, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(write_matrix(
                &c_old,
                z,
                &crate::accum::NoAccum,
                &mcsr,
                replace,
            ))
        };
        self.submit_matrix("assign", c, deps, Box::new(eval))
    }

    /// `GrB_assign` (vector): `w<mask>(indices) ⊙= u`.
    pub fn assign_vector<T, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        u: &Vector<T>,
        indices: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        let indices = indices.resolve(w.size())?;
        check_no_duplicates(&indices, "vector")?;
        dim_check(u.size() == indices.len(), || {
            format!(
                "assign source has size {} but target region has {}",
                u.size(),
                indices.len()
            )
        })?;
        check_mask_dims1(mask.mask_size(), w.size())?;

        let (u_node, w_node) = (u.capture(), w.capture());
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![u_node.clone() as _, w_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let u_st = u_node.ready_storage()?;
            let w_old = w_node.ready_storage()?;
            let mvec = msnap.materialize()?;
            let z = assign_vector(&w_old, &u_st, &indices, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(write_vector(
                &w_old,
                z,
                &crate::accum::NoAccum,
                &mvec,
                replace,
            ))
        };
        self.submit_vector("assign", w, deps, Box::new(eval))
    }

    /// `GrB_assign` (vector, scalar fill) — Fig. 3 line 77: `delta`
    /// filled with `-nsver`.
    pub fn assign_scalar_vector<T, Ac, Mk>(
        &self,
        w: &Vector<T>,
        mask: Mk,
        accum: Ac,
        value: T,
        indices: IndexSelection<'_>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Ac: Accumulate<T>,
        Mk: VectorMask,
    {
        check_mask_dims1(mask.mask_size(), w.size())?;

        // Whole-vector masked scalar fill (`w<mask> = value` over
        // `GrB_ALL`, the BFS `visited<q> = true` shape): the write stage
        // only reads Z at mask-admitted positions, so materializing ALL
        // and building the dense fill is O(n) of wasted work per call —
        // build Z straight from the mask pattern instead, making the
        // whole operation O(|mask| + nvals(w)).
        if !Ac::IS_ACCUM && mask.mask_size().is_some() && matches!(indices, IndexSelection::All) {
            let w_node = w.capture();
            let msnap = mask.snap(desc);
            let mut deps: Vec<_> = vec![w_node.clone() as _];
            deps.extend(msnap.deps());
            let replace = desc.is_replace();
            let eval = move || {
                let w_old = w_node.ready_storage()?;
                let mvec = msnap.materialize()?;
                let z = match &mvec {
                    MaskVec::Pattern {
                        indices,
                        complement: false,
                    } => SparseVec::from_sorted_parts(
                        w_old.size(),
                        indices.clone(),
                        vec![value.clone(); indices.len()],
                    ),
                    // complement (or absent) patterns admit O(n)
                    // positions anyway: keep the dense fill
                    _ => {
                        let all: Vec<Index> = (0..w_old.size()).collect();
                        assign_scalar_vector(&w_old, &value, &all, &crate::accum::NoAccum)
                    }
                };
                Ok(write_vector(
                    &w_old,
                    z,
                    &crate::accum::NoAccum,
                    &mvec,
                    replace,
                ))
            };
            return self.submit_vector("assign", w, deps, Box::new(eval));
        }

        let indices = indices.resolve(w.size())?;
        check_no_duplicates(&indices, "vector")?;

        // Single-index no-accum unmasked scalar assign == point update;
        // see assign_scalar_matrix.
        if !Ac::IS_ACCUM
            && mask.mask_size().is_none()
            && !desc.is_replace()
            && !desc.is_mask_complemented()
            && indices.len() == 1
            && !self.has_fault()
        {
            return w.set(indices[0], value);
        }

        let w_node = w.capture();
        let msnap = mask.snap(desc);
        let mut deps: Vec<_> = vec![w_node.clone() as _];
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        let eval = move || {
            let w_old = w_node.ready_storage()?;
            let mvec = msnap.materialize()?;
            let z = assign_scalar_vector(&w_old, &value, &indices, &accum);
            if let Some(e) = accum.poll_error() {
                return Err(e);
            }
            Ok(write_vector(
                &w_old,
                z,
                &crate::accum::NoAccum,
                &mvec,
                replace,
            ))
        };
        self.submit_vector("assign", w, deps, Box::new(eval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::error::Error;
    use crate::index::ALL;
    use crate::mask::NoMask;

    #[test]
    fn fill_whole_matrix() {
        let ctx = Context::blocking();
        let bcu = Matrix::<f32>::new(3, 2).unwrap();
        ctx.assign_scalar_matrix(&bcu, NoMask, NoAccum, 1.0, ALL, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(bcu.nvals().unwrap(), 6);
        assert_eq!(bcu.get(2, 1).unwrap(), Some(1.0));
    }

    #[test]
    fn fill_vector_then_accumulate_reduction() {
        let ctx = Context::blocking();
        let delta = Vector::<f32>::new(4).unwrap();
        ctx.assign_scalar_vector(&delta, NoMask, NoAccum, -2.0, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(delta.to_dense().unwrap(), vec![Some(-2.0); 4]);
    }

    #[test]
    fn masked_whole_vector_fill_touches_only_admitted_positions() {
        // exercises the O(|mask|) GrB_ALL fast path: merge mode keeps
        // unmasked entries, replace mode drops them, complement masks
        // take the dense fallback — all three must agree with the
        // per-position semantics
        let ctx = Context::blocking();
        let mask = Vector::from_tuples(5, &[(1, true), (3, true), (4, false)]).unwrap();
        let w = Vector::from_tuples(5, &[(0, 9), (3, 9)]).unwrap();
        ctx.assign_scalar_vector(&w, &mask, NoAccum, 7, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 9), (1, 7), (3, 7)]);

        let w = Vector::from_tuples(5, &[(0, 9), (3, 9)]).unwrap();
        ctx.assign_scalar_vector(&w, &mask, NoAccum, 7, ALL, &Descriptor::default().replace())
            .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(1, 7), (3, 7)]);

        let w = Vector::from_tuples(5, &[(0, 9), (3, 9)]).unwrap();
        ctx.assign_scalar_vector(
            &w,
            &mask,
            NoAccum,
            7,
            ALL,
            &Descriptor::default().complement_mask(),
        )
        .unwrap();
        // complement of {1, 3}: value-false and absent positions admit
        assert_eq!(
            w.extract_tuples().unwrap(),
            vec![(0, 7), (2, 7), (3, 9), (4, 7)]
        );
    }

    #[test]
    fn masked_whole_matrix_fill_touches_only_admitted_positions() {
        // the matrix twin of the vector test above: merge, replace and
        // complement over GrB_ALL x GrB_ALL, valued and structural masks
        let ctx = Context::blocking();
        let mask = Matrix::from_tuples(3, 2, &[(0, 1, true), (2, 0, true), (2, 1, false)]).unwrap();
        let old = [(0, 0, 9), (2, 0, 9), (1, 1, 9)];

        let c = Matrix::from_tuples(3, 2, &old).unwrap();
        ctx.assign_scalar_matrix(&c, &mask, NoAccum, 7, ALL, ALL, &Descriptor::default())
            .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 9), (0, 1, 7), (1, 1, 9), (2, 0, 7)]
        );

        let c = Matrix::from_tuples(3, 2, &old).unwrap();
        let desc = Descriptor::default().replace().structural_mask();
        ctx.assign_scalar_matrix(&c, &mask, NoAccum, 7, ALL, ALL, &desc)
            .unwrap();
        // structural: the stored false at (2,1) admits too
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 1, 7), (2, 0, 7), (2, 1, 7)]
        );

        let c = Matrix::from_tuples(3, 2, &old).unwrap();
        let desc = Descriptor::default().complement_mask();
        ctx.assign_scalar_matrix(&c, &mask, NoAccum, 7, ALL, ALL, &desc)
            .unwrap();
        // complement of {(0,1), (2,0)}: every other position is filled
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 7), (1, 0, 7), (1, 1, 7), (2, 0, 9), (2, 1, 7)]
        );
    }

    #[test]
    fn assign_matrix_region() {
        let ctx = Context::blocking();
        let c = Matrix::from_tuples(3, 3, &[(0, 0, 1), (1, 1, 2), (2, 2, 3)]).unwrap();
        let a = Matrix::from_tuples(2, 2, &[(0, 0, 10), (1, 1, 20)]).unwrap();
        ctx.assign_matrix(
            &c,
            NoMask,
            NoAccum,
            &a,
            IndexSelection::List(&[0, 1]),
            IndexSelection::List(&[1, 2]),
            &Descriptor::default(),
        )
        .unwrap();
        // region rows{0,1} x cols{1,2}: A maps (0,0)->C(0,1)=10,
        // (1,1)->C(1,2)=20; old C(1,1) in region, A lacks it -> deleted
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 1), (0, 1, 10), (1, 2, 20), (2, 2, 3)]
        );
    }

    #[test]
    fn assign_with_accum() {
        let ctx = Context::blocking();
        let w = Vector::from_tuples(3, &[(0, 5)]).unwrap();
        let u = Vector::from_tuples(2, &[(0, 1), (1, 2)]).unwrap();
        ctx.assign_vector(
            &w,
            NoMask,
            Accum(Plus::<i32>::new()),
            &u,
            IndexSelection::List(&[0, 2]),
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(w.extract_tuples().unwrap(), vec![(0, 6), (2, 2)]);
    }

    #[test]
    fn masked_scalar_assign_with_replace() {
        let ctx = Context::blocking();
        let c = Matrix::from_tuples(2, 2, &[(0, 0, 9), (1, 1, 9)]).unwrap();
        let mask = Matrix::from_tuples(2, 2, &[(0, 0, true), (0, 1, true)]).unwrap();
        ctx.assign_scalar_matrix(
            &c,
            &mask,
            NoAccum,
            7,
            ALL,
            ALL,
            &Descriptor::default().replace(),
        )
        .unwrap();
        // Z = all-7s; admitted {(0,0),(0,1)} -> 7; replace clears the rest
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 7), (0, 1, 7)]);
    }

    #[test]
    fn duplicate_target_indices_rejected() {
        let ctx = Context::blocking();
        let w = Vector::<i32>::new(3).unwrap();
        let u = Vector::<i32>::new(2).unwrap();
        assert!(matches!(
            ctx.assign_vector(
                &w,
                NoMask,
                NoAccum,
                &u,
                IndexSelection::List(&[1, 1]),
                &Descriptor::default()
            ),
            Err(Error::InvalidValue(_))
        ));
    }

    #[test]
    fn source_region_shape_mismatch() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(3, 3).unwrap();
        let a = Matrix::<i32>::new(2, 2).unwrap();
        assert!(matches!(
            ctx.assign_matrix(
                &c,
                NoMask,
                NoAccum,
                &a,
                IndexSelection::List(&[0]),
                IndexSelection::List(&[0, 1]),
                &Descriptor::default()
            ),
            Err(Error::DimensionMismatch(_))
        ));
    }

    #[test]
    fn assign_transposed_source() {
        let ctx = Context::blocking();
        let c = Matrix::<i32>::new(2, 3).unwrap();
        let a = Matrix::from_tuples(3, 2, &[(2, 0, 5)]).unwrap();
        ctx.assign_matrix(
            &c,
            NoMask,
            NoAccum,
            &a,
            ALL,
            ALL,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 2, 5)]);
    }
}
