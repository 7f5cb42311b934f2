//! Direction optimization is invisible (`kernel::spmspv`): the push,
//! pull, and dense matrix–vector kernels, and the push, Gustavson and
//! dot forms of `mxm`, are **bitwise** interchangeable — values *and*
//! pattern, NaN / ±∞ / -0.0 payloads and non-associative float sums
//! included — across execution modes, storage formats, transposition,
//! mask shapes, and intra-kernel parallelism degrees {1, 2, 8}. The
//! heuristic may therefore switch direction per operation without ever
//! changing a result, which the trailing trace tests show it actually
//! does mid-BFS, for `bfs_levels` and for the batched `bfs_multi`.
//!
//! The direction override is process-wide (kernels run on pool worker
//! threads), so every test that forces a direction serializes on one
//! mutex.

use std::sync::Mutex;

use graphblas_core::par;
use graphblas_core::prelude::*;
use graphblas_core::spmspv::{self, Direction};
use graphblas_core::SchedPolicy;
use proptest::prelude::*;

const N: usize = 24;
const DEGREES: [usize; 3] = [1, 2, 8];

/// Forced directions are a process-wide override; hold this across any
/// region that sets one so concurrent test threads never interleave.
static DIRECTION_LOCK: Mutex<()> = Mutex::new(());

/// Decode a strategy byte into an f64 payload; low codes are the
/// adversarial specials (NaN, ±∞, -0.0) and magnitudes whose sums with
/// small values round differently under any re-association (1e16 + 1 +
/// 1 is 1e16 left to right, 1e16 + 2 otherwise). The rest are sevenths,
/// inexact in binary, so a sum of three or more of them generally
/// depends on its association too.
fn fval(code: u8) -> f64 {
    match code {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4..=11 => 1e16,
        12..=19 => -1e16,
        c => (f64::from(c) - 128.0) / 7.0,
    }
}

type Tuples = Vec<(usize, usize, u8)>;

fn sparse(max_nnz: usize) -> impl Strategy<Value = Tuples> {
    proptest::collection::vec((0..N, 0..N, 0u8..255), 0..=max_nnz).prop_map(|mut t| {
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        t
    })
}

fn to_matrix(t: &Tuples, format: Option<Format>) -> Matrix<f64> {
    let tuples: Vec<(usize, usize, f64)> = t.iter().map(|&(i, j, c)| (i, j, fval(c))).collect();
    let m = Matrix::from_tuples(N, N, &tuples).unwrap();
    if let Some(f) = format {
        m.set_format(f).unwrap();
    }
    m
}

fn to_vector(t: &Tuples) -> Vector<f64> {
    let v = Vector::<f64>::new(N).unwrap();
    for &(i, _, c) in t {
        v.set(i, fval(c)).unwrap();
    }
    v
}

fn vector_bits(v: &Vector<f64>) -> Vec<(usize, u64)> {
    v.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, x)| (i, x.to_bits()))
        .collect()
}

/// Run `f` with the intra-kernel degree pinned to `k` and the cost
/// model forced so even proptest-sized fixtures chunk.
fn at_degree<R>(k: usize, f: impl FnOnce() -> R) -> R {
    par::with_cost_model(1, 0, || par::with_parallelism(k, f))
}

const FORMATS: [Option<Format>; 4] = [
    Some(Format::Csr),
    Some(Format::Csc),
    Some(Format::Bitmap),
    Some(Format::Hyper),
];

/// `mxm` also runs over tiled operands (its Gustavson form has a tiled
/// fast path the forced forms must bypass).
const MXM_FORMATS: [Format; 5] = [
    Format::Csr,
    Format::Csc,
    Format::Bitmap,
    Format::Hyper,
    Format::Tiled,
];

/// Columns of the `mxm` frontier block: 0 and 1 drawn, 2 and 4
/// duplicates of them (the server's repeated BFS sources), 3 empty.
const BLOCK: usize = 5;

/// An `N × BLOCK` frontier block from tuples over columns {0, 1}.
fn block(max_nnz: usize) -> impl Strategy<Value = Tuples> {
    proptest::collection::vec((0..N, 0..2usize, 0u8..255), 0..=max_nnz).prop_map(|mut t| {
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        let dups: Vec<_> = t.iter().map(|&(i, j, c)| (i, 2 + 2 * j, c)).collect();
        t.extend(dups);
        t
    })
}

/// Tuples over an `N × BLOCK` shape (output, mask and old-C blocks).
fn block_sparse(max_nnz: usize) -> impl Strategy<Value = Tuples> {
    proptest::collection::vec((0..N, 0..BLOCK, 0u8..255), 0..=max_nnz).prop_map(|mut t| {
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        t
    })
}

/// An `N × BLOCK` matrix (or its `BLOCK × N` transpose) from tuples.
fn to_block(t: &Tuples, transposed: bool) -> Matrix<f64> {
    let tuples: Vec<(usize, usize, f64)> = t
        .iter()
        .map(|&(i, j, c)| {
            if transposed {
                (j, i, fval(c))
            } else {
                (i, j, fval(c))
            }
        })
        .collect();
    let (r, c) = if transposed { (BLOCK, N) } else { (N, BLOCK) };
    Matrix::from_tuples(r, c, &tuples).unwrap()
}

fn matrix_bits(m: &Matrix<f64>) -> Vec<(usize, usize, u64)> {
    m.extract_tuples()
        .unwrap()
        .into_iter()
        .map(|(i, j, x)| (i, j, x.to_bits()))
        .collect()
}

/// `C<M> ⊙= A ⊕.⊗ B` over plus.times, starting from `c0`, for every
/// combination of mask presence and accumulator.
fn run_mxm(
    ctx: &Context,
    c0: &Tuples,
    mask: Option<&Matrix<f64>>,
    accum: bool,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    desc: &Descriptor,
) -> Vec<(usize, usize, u64)> {
    let c = to_block(c0, false);
    let sr = plus_times::<f64>();
    let plus = Accum(Plus::<f64>::new());
    match (mask, accum) {
        (None, false) => ctx.mxm(&c, NoMask, NoAccum, sr, a, b, desc),
        (None, true) => ctx.mxm(&c, NoMask, plus, sr, a, b, desc),
        (Some(m), false) => ctx.mxm(&c, m, NoAccum, sr, a, b, desc),
        (Some(m), true) => ctx.mxm(&c, m, plus, sr, a, b, desc),
    }
    .unwrap();
    matrix_bits(&c)
}

const DIRECTIONS: [Direction; 4] = [
    Direction::Dense,
    Direction::Push,
    Direction::Pull,
    Direction::Auto,
];

fn contexts() -> [Context; 3] {
    [
        Context::blocking(),
        Context::with_policy(Mode::Nonblocking, SchedPolicy::Sequential),
        Context::with_policy(Mode::Nonblocking, SchedPolicy::Parallel),
    ]
}

fn mask_descriptor(complement: bool, structural: bool) -> Descriptor {
    let mut d = Descriptor::default();
    if complement {
        d = d.complement_mask();
    }
    if structural {
        d = d.structural_mask();
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `vxm` answers bitwise identically whichever direction computes
    /// it, under every (mode, format, degree, transpose, mask) shape.
    #[test]
    fn vxm_directions_agree_bitwise(
        a in sparse(96),
        u in sparse(24),
        mask in sparse(24),
        transpose in any::<bool>(),
        complement in any::<bool>(),
        structural in any::<bool>(),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        let desc = if transpose {
            mask_descriptor(complement, structural).transpose_second()
        } else {
            mask_descriptor(complement, structural)
        };
        for ctx in contexts() {
            for format in FORMATS {
                let am = to_matrix(&a, format);
                let uv = to_vector(&u);
                let mv = to_vector(&mask);
                for k in DEGREES {
                    let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                        let w = Vector::<f64>::new(N).unwrap();
                        ctx.vxm(&w, &mv, NoAccum, plus_times::<f64>(), &uv, &am, &desc)
                            .unwrap();
                        vector_bits(&w)
                    }));
                    let dense = run(Direction::Dense);
                    for dir in DIRECTIONS {
                        prop_assert_eq!(
                            &dense, &run(dir),
                            "vxm {:?} diverged from Dense (mode {:?} format {:?} \
                             degree {} transpose {} complement {} structural {})",
                            dir, ctx.mode(), format, k, transpose, complement, structural
                        );
                    }
                }
            }
        }
    }

    /// Same for `mxv`, whose forward orientation is the transpose of
    /// `vxm`'s — the dispatch must flip push/pull sides accordingly.
    #[test]
    fn mxv_directions_agree_bitwise(
        a in sparse(96),
        u in sparse(24),
        mask in sparse(24),
        transpose in any::<bool>(),
        complement in any::<bool>(),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        let desc = if transpose {
            mask_descriptor(complement, true).transpose_first()
        } else {
            mask_descriptor(complement, true)
        };
        for ctx in contexts() {
            for format in FORMATS {
                let am = to_matrix(&a, format);
                let uv = to_vector(&u);
                let mv = to_vector(&mask);
                for k in DEGREES {
                    let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                        let w = Vector::<f64>::new(N).unwrap();
                        ctx.mxv(&w, &mv, NoAccum, plus_times::<f64>(), &am, &uv, &desc)
                            .unwrap();
                        vector_bits(&w)
                    }));
                    let dense = run(Direction::Dense);
                    for dir in DIRECTIONS {
                        prop_assert_eq!(
                            &dense, &run(dir),
                            "mxv {:?} diverged from Dense (mode {:?} format {:?} \
                             degree {} transpose {} complement {})",
                            dir, ctx.mode(), format, k, transpose, complement
                        );
                    }
                }
            }
        }
    }

    /// The no-mask accumulating shape (PageRank's step) agrees too —
    /// the accumulate happens after the product, so direction must not
    /// leak into the merge.
    #[test]
    fn accumulated_vxm_directions_agree(
        a in sparse(96),
        u in sparse(24),
        w0 in sparse(24),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        let ctx = Context::blocking();
        let am = to_matrix(&a, None);
        let uv = to_vector(&u);
        for k in DEGREES {
            let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                let w = to_vector(&w0);
                ctx.vxm(&w, NoMask, Accum(Plus::<f64>::new()), plus_times::<f64>(),
                    &uv, &am, &Descriptor::default()).unwrap();
                vector_bits(&w)
            }));
            let dense = run(Direction::Dense);
            for dir in DIRECTIONS {
                prop_assert_eq!(&dense, &run(dir), "accumulated vxm {:?} diverged", dir);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `mxm` answers bitwise identically in its push, Gustavson and dot
    /// forms (`Push`, `Pull`, `Dense` forced; `Auto` free), under every
    /// (mode, format, degree, transpose, mask, accumulator, replace)
    /// shape, with duplicate and empty frontier columns.
    #[test]
    fn mxm_forms_agree_bitwise(
        a in sparse(96),
        b in block(48),
        mask in block_sparse(40),
        c0 in block_sparse(24),
        shape in 0u8..3,
        transpose_first in any::<bool>(),
        transpose_second in any::<bool>(),
        complement in any::<bool>(),
        structural in any::<bool>(),
        accum in any::<bool>(),
        replace in any::<bool>(),
    ) {
        let _serialize = DIRECTION_LOCK.lock().unwrap();
        // shape 0: no mask; 1: the mask as drawn; 2: an empty mask
        let mut desc = mask_descriptor(complement, structural);
        if transpose_first {
            desc = desc.transpose_first();
        }
        if transpose_second {
            desc = desc.transpose_second();
        }
        if replace {
            desc = desc.replace();
        }
        let mask_m = match shape {
            0 => None,
            1 => Some(to_block(&mask, false)),
            _ => Some(to_block(&Vec::new(), false)),
        };
        for ctx in contexts() {
            for format in MXM_FORMATS {
                let am = to_matrix(&a, Some(format));
                let bm = to_block(&b, transpose_second);
                bm.set_format(format).unwrap();
                for k in DEGREES {
                    let run = |dir| at_degree(k, || spmspv::with_direction(dir, || {
                        run_mxm(&ctx, &c0, mask_m.as_ref(), accum, &am, &bm, &desc)
                    }));
                    let gustavson = run(Direction::Pull);
                    for dir in DIRECTIONS {
                        prop_assert_eq!(
                            &gustavson, &run(dir),
                            "mxm {:?} diverged from Gustavson (mode {:?} format {:?} \
                             degree {} shape {} tr {}/{} complement {} structural {} \
                             accum {} replace {})",
                            dir, ctx.mode(), format, k, shape, transpose_first,
                            transpose_second, complement, structural, accum, replace
                        );
                    }
                }
            }
        }
    }
}

/// A sum whose floating-point value depends on association: one output
/// collects 1e16 and then 32 × 0.75 from 33 frontier entries. Left to
/// right every 0.75 rounds away (half an ulp of 1e16 is 1.0); a parallel
/// chunk that pre-summed two of them would add 1.5 and round up to
/// 1e16 + 2. Every direction and degree must give the left fold.
#[test]
fn chunked_push_keeps_the_left_fold() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let ctx = Context::blocking();
    let n = 33;
    let vals: Vec<f64> = (0..n).map(|k| if k == 0 { 1e16 } else { 0.75 }).collect();
    let ones: Vec<(usize, usize, f64)> = (0..n).map(|k| (k, 0, 1.0)).collect();
    let col: Vec<(usize, usize, f64)> = vals.iter().enumerate().map(|(k, &x)| (k, 0, x)).collect();
    let a = Matrix::from_tuples(n, 1, &ones).unwrap();
    let u =
        Vector::from_tuples(n, &col.iter().map(|&(k, _, x)| (k, x)).collect::<Vec<_>>()).unwrap();
    // the same sum as a one-column mxm: T = U^T ⊕.⊗ A
    let um = Matrix::from_tuples(n, 1, &col).unwrap();
    for k in DEGREES {
        for dir in DIRECTIONS {
            let (w, t) = at_degree(k, || {
                spmspv::with_direction(dir, || {
                    let w = Vector::<f64>::new(1).unwrap();
                    ctx.vxm(
                        &w,
                        NoMask,
                        NoAccum,
                        plus_times::<f64>(),
                        &u,
                        &a,
                        &Descriptor::default(),
                    )
                    .unwrap();
                    let t = Matrix::<f64>::new(1, 1).unwrap();
                    let desc = Descriptor::default().transpose_first();
                    ctx.mxm(&t, NoMask, NoAccum, plus_times::<f64>(), &um, &a, &desc)
                        .unwrap();
                    (w.get(0).unwrap(), t.get(0, 0).unwrap())
                })
            });
            assert_eq!(w, Some(1e16), "vxm {dir:?} at degree {k}");
            assert_eq!(t, Some(1e16), "mxm {dir:?} at degree {k}");
        }
    }
}

/// E12's qualitative claim, as a test: on a scale-free social graph the
/// heuristic *switches* direction across one BFS — push on the sparse
/// early frontiers, pull (against the complemented visited mask) near
/// the dense peak — and the trace records each choice.
#[test]
fn bfs_trace_shows_direction_switching() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let el = graphblas_gen::barabasi_albert(800, 4, 7).symmetrize();
    let a = Matrix::from_tuples(el.n, el.n, &el.bool_tuples()).unwrap();
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let levels = graphblas_algorithms::bfs_levels(&ctx, &a, 0).unwrap();
    assert!(
        levels.iter().filter(|l| l.is_some()).count() > 700,
        "BA graph should be mostly connected"
    );
    let trace = ctx.take_trace();
    let dirs: Vec<&'static str> = trace.iter().filter_map(|e| e.direction).collect();
    assert!(
        dirs.contains(&"push"),
        "no push step on sparse frontiers; directions: {dirs:?}"
    );
    assert!(
        dirs.contains(&"pull"),
        "no pull step near the frontier peak; directions: {dirs:?}"
    );
    // Push comes first (frontier of one), and some later step pulls —
    // i.e. the switch happens mid-traversal, not between runs.
    let first_push = dirs.iter().position(|d| *d == "push").unwrap();
    let last_pull = dirs.iter().rposition(|d| *d == "pull").unwrap();
    assert!(
        first_push < last_pull,
        "expected push -> pull over the traversal; directions: {dirs:?}"
    );
}

/// The batched twin: `bfs_multi` advances a 32-column frontier block
/// with one masked `mxm` per level, and the same cost model pushes the
/// block while it is sparse and switches to the Gustavson pull near the
/// peak — the trace records each level's form.
#[test]
fn bfs_multi_trace_shows_direction_switching() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    let el = graphblas_gen::barabasi_albert(800, 4, 7).symmetrize();
    let a = Matrix::from_tuples(el.n, el.n, &el.bool_tuples()).unwrap();
    let sources: Vec<usize> = (0..32).map(|s| s * 25).collect();
    let ctx = Context::nonblocking();
    ctx.enable_trace(true);
    let levels = graphblas_algorithms::bfs_multi(&ctx, &a, &sources).unwrap();
    // every column agrees with a single-source BFS
    let blocking = Context::blocking();
    for (s, got) in sources.iter().zip(&levels) {
        assert_eq!(
            got,
            &graphblas_algorithms::bfs_levels(&blocking, &a, *s).unwrap()
        );
    }
    let dirs: Vec<&'static str> = ctx
        .take_trace()
        .iter()
        .filter(|e| e.kind == "mxm")
        .filter_map(|e| e.direction)
        .collect();
    assert_eq!(dirs.first(), Some(&"push"), "directions: {dirs:?}");
    let first_pull = dirs.iter().position(|d| *d == "pull");
    assert!(
        first_pull.is_some_and(|p| p > 0),
        "expected push -> pull over the traversal; directions: {dirs:?}"
    );
}

/// The override itself restores on scope exit even across panics in
/// the guarded region's siblings — Auto outside, forced inside.
#[test]
fn with_direction_scopes_the_override() {
    let _serialize = DIRECTION_LOCK.lock().unwrap();
    assert!(matches!(spmspv::direction_override(), Direction::Auto));
    spmspv::with_direction(Direction::Push, || {
        assert!(matches!(spmspv::direction_override(), Direction::Push));
    });
    assert!(matches!(spmspv::direction_override(), Direction::Auto));
}
