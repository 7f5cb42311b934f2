//! `GrB_mxm`: `C<Mask> ⊙= A ⊕.⊗ B` (paper, Figure 2).

use std::any::Any;
use std::sync::Arc;

use crate::accum::Accumulate;
use crate::algebra::binary::BinaryOp;
use crate::algebra::semiring::Semiring;
use crate::descriptor::Descriptor;
use crate::error::{dim_check, Result};
use crate::exec::fuse::MatProducer;
use crate::exec::{Completable, Context};
use crate::kernel::mxm::{mxm as mxm_kernel, mxm_dot, mxm_hyper, mxm_push, mxm_tiled, MxmStrategy};
use crate::kernel::spmspv::{
    choose_mxm, direction_override, note_direction, oriented, Direction, MxmForm,
};
use crate::kernel::write::write_matrix;
use crate::mask::MaskCsr;
use crate::object::mask_arg::MatrixMask;
use crate::object::matrix::oriented_storage;
use crate::object::Matrix;
use crate::op::{check_mask_dims2, effective_dims};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::{Layout, MatrixStore};

impl Context {
    /// `GrB_mxm(C, Mask, accum, op, A, B, desc)`: matrix–matrix multiply
    /// over a semiring.
    ///
    /// * `mask` — [`NoMask`](crate::mask::NoMask) or `&Matrix<M>`; the
    ///   descriptor's `GrB_SCMP`/`GrB_STRUCTURE` flags apply.
    /// * `accum` — [`NoAccum`](crate::accum::NoAccum) or
    ///   [`Accum(op)`](crate::accum::Accum).
    /// * `desc` — `GrB_INP0`/`GrB_INP1 = GrB_TRAN` transpose the inputs;
    ///   `GrB_OUTP = GrB_REPLACE` clears unmasked output positions.
    ///
    /// Masked products are computed only at admitted positions. Each call
    /// picks one of three bitwise-identical forms from the operands'
    /// cached degrees (`kernel::spmspv::choose_mxm`): push for a sparse
    /// B (a BFS/BC frontier block), row-wise Gustavson for dense work,
    /// dot products under a strongly selective mask.
    // the C operation signature: out, mask, accum, op, inputs, descriptor
    #[allow(clippy::too_many_arguments)]
    pub fn mxm<D1, D2, D3, S, Ac, Mk>(
        &self,
        c: &Matrix<D3>,
        mask: Mk,
        accum: Ac,
        semiring: S,
        a: &Matrix<D1>,
        b: &Matrix<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        D1: Scalar,
        D2: Scalar,
        D3: Scalar,
        S: Semiring<D1, D2, D3>,
        Ac: Accumulate<D3>,
        Mk: MatrixMask,
    {
        // --- eager API-error checks (both modes, arguments untouched) ---
        let tr_a = desc.is_first_transposed();
        let tr_b = desc.is_second_transposed();
        let (am, ak) = effective_dims(a, tr_a);
        let (bk, bn) = effective_dims(b, tr_b);
        dim_check(ak == bk, || {
            format!("mxm inner dimensions differ: {am}x{ak} times {bk}x{bn}")
        })?;
        dim_check(c.shape() == (am, bn), || {
            format!(
                "mxm output is {}x{} but product is {am}x{bn}",
                c.nrows(),
                c.ncols()
            )
        })?;
        check_mask_dims2(mask.mask_dims(), c.shape())?;

        // --- snapshot inputs, build the deferred thunk ---
        let a_node = a.capture();
        let b_node = b.capture();
        let msnap = mask.snap(desc);
        let c_old_cap = crate::op::OldMatrix::capture(
            c,
            Ac::IS_ACCUM || (!msnap.is_all() && !desc.is_replace()),
        );
        let mut deps: Vec<_> = vec![a_node.clone() as _, b_node.clone() as _];
        deps.extend(c_old_cap.dep());
        deps.extend(msnap.deps());
        let replace = desc.is_replace();

        // The hypersparse fast path bypasses the write stage, so it is
        // only taken when that stage is the identity: no accumulator and
        // nothing excludable by the mask (replace with no mask is a plain
        // overwrite).
        let write_is_identity = !Ac::IS_ACCUM && msnap.is_all();

        // The internal product `T = A ⊕.⊗ B` under a write mask, shared
        // between the unfused evaluator and the node's fusion face (where
        // a downstream consumer's mask gets pushed down into it).
        let product = {
            let (a_node, b_node) = (a_node.clone(), b_node.clone());
            let semiring = semiring.clone();
            move |mcsr: &MaskCsr| -> Result<Csr<D3>> {
                let a_store = a_node.ready_storage()?;
                let b_st = oriented_storage(&b_node, tr_b)?;
                // B'^T is free when B's other orientation is already
                // materialized (a Csc store or a cached conversion); the
                // dot form then costs no transpose
                let bt_free = b_node.ready_storage()?.csr_view_ready(!tr_b);
                // only the chosen form's view of A is built: a push never
                // transposes A, a Gustavson sweep never builds A'^T
                let t = match choose_mxm(&a_store, tr_a, &b_st, mcsr, bt_free) {
                    MxmForm::Push => mxm_push(&semiring, &oriented(&a_store, !tr_a), &b_st, mcsr),
                    MxmForm::Dot => {
                        let MaskCsr::Pattern { pattern, .. } = mcsr else {
                            unreachable!("the dot form needs a mask pattern")
                        };
                        // if the descriptor already transposed B, the
                        // effective B^T is B itself
                        let bt_st = oriented_storage(&b_node, !tr_b)?;
                        let a_st = oriented(&a_store, tr_a);
                        mxm_dot(&semiring, &a_st, &bt_st, pattern)
                    }
                    MxmForm::Gustavson => {
                        let a_st = oriented(&a_store, tr_a);
                        mxm_kernel(&semiring, &a_st, &b_st, mcsr, MxmStrategy::Auto)
                    }
                };

                if let Some(e) = semiring
                    .add()
                    .poll_error()
                    .or_else(|| semiring.mul().poll_error())
                {
                    return Err(e);
                }
                Ok(t)
            }
        };

        let eval = {
            let product = product.clone();
            move || {
                // Hypersparse fast path: A stored hypersparse and used
                // untransposed — walk only its non-empty rows and emit a
                // hypersparse store directly, skipping the O(nrows) CSR
                // assembly entirely. Both fast paths are Gustavson forms,
                // so a forced push or dot form skips them.
                let gustavson_ok =
                    matches!(direction_override(), Direction::Auto | Direction::Pull);
                if write_is_identity && !tr_a && gustavson_ok {
                    if let Layout::Hyper(a_hyper) = a_node.ready_storage()?.layout() {
                        note_direction("pull");
                        let a_hyper = a_hyper.clone();
                        let b_st = oriented_storage(&b_node, tr_b)?;
                        let t = mxm_hyper(&semiring, &a_hyper, &b_st, &MaskCsr::All);
                        if let Some(e) = semiring
                            .add()
                            .poll_error()
                            .or_else(|| semiring.mul().poll_error())
                        {
                            return Err(e);
                        }
                        return Ok(MatrixStore::hyper(t));
                    }
                    // Tiled fast path: walk A's tile grid directly instead
                    // of assembling a slab view first. Per-row gather order
                    // is ascending k, so the product is bitwise-identical
                    // to the slab kernel's.
                    if let Layout::Tiled(a_tiled) = a_node.ready_storage()?.layout() {
                        note_direction("pull");
                        let a_tiled = a_tiled.clone();
                        let b_st = oriented_storage(&b_node, tr_b)?;
                        let t = mxm_tiled(&semiring, &a_tiled, &b_st, &MaskCsr::All);
                        if let Some(e) = semiring
                            .add()
                            .poll_error()
                            .or_else(|| semiring.mul().poll_error())
                        {
                            return Err(e);
                        }
                        return Ok(MatrixStore::csr(t));
                    }
                }

                let c_old = c_old_cap.storage()?;
                let mcsr = msnap.materialize()?;
                let t = product(&mcsr)?;
                let out = write_matrix(&c_old, t, &accum, &mcsr, replace);
                if let Some(e) = accum.poll_error() {
                    return Err(e);
                }
                Ok(MatrixStore::csr(out))
            }
        };
        let face_deps: Vec<Arc<dyn Completable>> = deps.clone();
        let Some(node) = self.submit_matrix_store_fusable("mxm", c, deps, Box::new(eval))? else {
            return Ok(());
        };
        if write_is_identity {
            // Pure product: downstream consumers may recompute it under
            // their own write mask (rewrite 3, the masked-SpGEMM win) or
            // fold a unary op into its output stage (rewrite 2).
            node.set_fuse_face(Arc::new(MatProducer::<D3> {
                deps: face_deps,
                compute: Arc::new(product),
                maskable: true,
                lazy: None,
                dot: None,
                kind: "mxm",
            }) as Arc<dyn Any + Send + Sync>);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;
    use crate::algebra::semiring::plus_times;
    use crate::error::Error;
    use crate::mask::NoMask;

    fn m(t: &[(usize, usize, i32)], r: usize, c: usize) -> Matrix<i32> {
        Matrix::from_tuples(r, c, t).unwrap()
    }

    #[test]
    fn basic_product() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 1), (0, 1, 2), (1, 1, 3)], 2, 2);
        let b = m(&[(0, 0, 4), (1, 0, 5), (1, 1, 6)], 2, 2);
        let c = Matrix::<i32>::new(2, 2).unwrap();
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(
            c.extract_tuples().unwrap(),
            vec![(0, 0, 14), (0, 1, 12), (1, 0, 15), (1, 1, 18)]
        );
    }

    #[test]
    fn dimension_mismatch_is_eager_api_error() {
        let ctx = Context::nonblocking();
        let a = m(&[(0, 0, 1)], 2, 3);
        let b = m(&[(0, 0, 1)], 2, 2); // inner mismatch: 3 vs 2
        let c = Matrix::<i32>::new(2, 2).unwrap();
        let e = ctx
            .mxm(
                &c,
                NoMask,
                NoAccum,
                plus_times::<i32>(),
                &a,
                &b,
                &Descriptor::default(),
            )
            .unwrap_err();
        assert!(matches!(e, Error::DimensionMismatch(_)));
        // output untouched (still empty, still valid)
        assert_eq!(c.nvals().unwrap(), 0);
    }

    #[test]
    fn transpose_descriptor_fixes_dimensions() {
        let ctx = Context::blocking();
        let a = m(&[(0, 1, 2)], 3, 2); // A: 3x2, A^T: 2x3
        let b = m(&[(2, 0, 5)], 3, 2);
        let c = Matrix::<i32>::new(2, 2).unwrap();
        // C = A^T * B requires INP0 transposed
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![]);
        // with a value on the path: A^T(1,0)*B(0,?) etc.
        let a = m(&[(0, 1, 2)], 3, 2);
        let b = m(&[(0, 0, 5)], 3, 2);
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default().transpose_first(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(1, 0, 10)]);
    }

    #[test]
    fn accumulate_into_existing_output() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 2)], 1, 1);
        let b = m(&[(0, 0, 3)], 1, 1);
        let c = m(&[(0, 0, 100)], 1, 1);
        ctx.mxm(
            &c,
            NoMask,
            Accum(Plus::<i32>::new()),
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert_eq!(c.get(0, 0).unwrap(), Some(106));
    }

    #[test]
    fn masked_product_with_replace() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 1), (1, 0, 1)], 2, 1);
        let b = m(&[(0, 0, 7), (0, 1, 8)], 1, 2);
        let c = m(&[(0, 0, 50)], 2, 2);
        let mask = m(&[(0, 1, 1), (1, 0, 1)], 2, 2);
        ctx.mxm(
            &c,
            &mask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default().replace(),
        )
        .unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 1, 8), (1, 0, 7)]);
    }

    #[test]
    fn aliased_output_and_input_uses_snapshot() {
        // C = C * C is well defined here: inputs are pre-call snapshots
        let ctx = Context::blocking();
        let c = m(&[(0, 1, 1), (1, 0, 1)], 2, 2);
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &c,
            &c,
            &Descriptor::default(),
        )
        .unwrap();
        // [[0,1],[1,0]]^2 = I
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 1), (1, 1, 1)]);
    }

    #[test]
    fn nonblocking_defers_and_wait_completes() {
        let ctx = Context::nonblocking();
        let a = m(&[(0, 0, 2)], 1, 1);
        let b = m(&[(0, 0, 3)], 1, 1);
        let c = Matrix::<i32>::new(1, 1).unwrap();
        ctx.mxm(
            &c,
            NoMask,
            NoAccum,
            plus_times::<i32>(),
            &a,
            &b,
            &Descriptor::default(),
        )
        .unwrap();
        assert!(!c.is_complete());
        ctx.wait().unwrap();
        assert!(c.is_complete());
        assert_eq!(c.get(0, 0).unwrap(), Some(6));
    }

    #[test]
    fn sparse_frontier_step_pushes_without_transposing_a() {
        // frontier<!seen> = A^T lor.land frontier, one source: the push
        // reads A's native rows, so A's column view is never built
        let ctx = Context::blocking();
        let edges = [
            (0, 1, true),
            (0, 2, true),
            (1, 3, true),
            (2, 3, true),
            (4, 0, true),
        ];
        let a = Matrix::from_tuples(5, 5, &edges).unwrap();
        let frontier = Matrix::from_tuples(5, 1, &[(0, 0, true)]).unwrap();
        let seen = Matrix::from_tuples(5, 1, &[(0, 0, true)]).unwrap();
        let desc = Descriptor::default()
            .transpose_first()
            .complement_mask()
            .structural_mask()
            .replace();
        ctx.mxm(
            &frontier,
            &seen,
            NoAccum,
            crate::algebra::semiring::lor_land(),
            &a,
            &frontier,
            &desc,
        )
        .unwrap();
        assert_eq!(
            frontier.extract_tuples().unwrap(),
            vec![(1, 0, true), (2, 0, true)]
        );
        let a_store = a.capture().ready_storage().unwrap();
        assert!(!a_store.csr_view_ready(true), "push built A's transpose");
    }

    #[test]
    fn mask_dimension_mismatch_rejected() {
        let ctx = Context::blocking();
        let a = m(&[(0, 0, 1)], 2, 2);
        let c = Matrix::<i32>::new(2, 2).unwrap();
        let mask = m(&[(0, 0, 1)], 3, 2);
        let e = ctx
            .mxm(
                &c,
                &mask,
                NoAccum,
                plus_times::<i32>(),
                &a,
                &a,
                &Descriptor::default(),
            )
            .unwrap_err();
        assert!(matches!(e, Error::DimensionMismatch(_)));
    }
}
