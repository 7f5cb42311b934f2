//! E12: direction-optimized SpMSpV vs the dense-pull baseline on
//! `crates/gen` social graphs (GAP-style BFS workloads).
//!
//! Two workload shapes, each run twice — once with the dispatch free to
//! choose (`Direction::Auto`, the shipped default) and once pinned to
//! the pre-PR dense kernels (`Direction::Dense`):
//!
//! - `khop2`: 2-hop neighborhood queries from many sources — the
//!   BFS-heavy service shape. Frontiers stay sparse for the whole
//!   query, so the O(n + nnz)-per-step dense merge-walk dominates the
//!   baseline and push wins by a wide margin.
//! - `bfs_full`: complete single-source BFS — frontiers sweep sparse →
//!   dense → sparse, so Auto switches push → pull mid-traversal (the
//!   trace evidence lives in `tests/direction_equivalence.rs`).
//!
//! - `bfs_multi{1,32}`: the batched BFS the query service runs, one
//!   masked `mxm` over an n×b frontier block per level, from 1 and from
//!   32 sources — Auto (push on sparse levels, Gustavson pull near a
//!   wide batch's peak) against every level forced to the Gustavson
//!   pull (`Direction::Pull`, the pre-push kernel).
//!
//! The first two workloads step the frontier with `mxv` (`q' = A ⊕.⊗ q`), whose
//! pre-PR kernel is the dense merge-walk pull over *every* row of A —
//! the "dense-pull baseline" of the experiment. (`vxm`'s legacy kernel
//! already expanded only frontier rows, so its gap is the O(n)
//! accumulator, not the O(nnz) walk; `khop2_vxm_*` quantifies that
//! smaller win.) On a symmetric graph both forms compute the same
//! frontier, which `tests/direction_equivalence.rs` pins bitwise.
//!
//! The adjacency handle is reused across iterations, so the per-matrix
//! property caches (degrees, symmetry, shared transpose view) are warm
//! after the first call — exactly the steady state a resident graph
//! service runs in.

use criterion::{criterion_group, criterion_main, Criterion};
use graphblas_algorithms::bfs_multi;
use graphblas_core::prelude::*;
use graphblas_core::spmspv::{self, Direction};
use graphblas_gen::barabasi_albert;
use std::time::Duration;

/// Vertices reached within `hops` steps of `src` — one masked
/// matrix–vector product per hop, the frontier shape of
/// neighborhood/ego-net queries. `use_mxv` picks the product form (see
/// the module docs: `mxv` is the dense-pull-baseline form).
fn khop(ctx: &Context, a: &Matrix<bool>, src: usize, hops: usize, use_mxv: bool) -> usize {
    let n = a.nrows();
    let visited = Vector::<bool>::new(n).unwrap();
    let q = Vector::from_tuples(n, &[(src, true)]).unwrap();
    let expand = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();
    ctx.assign_scalar_vector(&visited, &q, NoAccum, true, ALL, &Descriptor::default())
        .unwrap();
    for _ in 0..hops {
        if use_mxv {
            ctx.mxv(&q, &visited, NoAccum, lor_land(), a, &q, &expand)
                .unwrap();
        } else {
            ctx.vxm(&q, &visited, NoAccum, lor_land(), &q, a, &expand)
                .unwrap();
        }
        if q.nvals().unwrap() == 0 {
            break;
        }
        ctx.assign_scalar_vector(&visited, &q, NoAccum, true, ALL, &Descriptor::default())
            .unwrap();
    }
    visited.nvals().unwrap()
}

/// Full single-source BFS with `mxv` frontier steps — the same level
/// sweep as `graphblas_algorithms::bfs_levels`, in the product form
/// whose pre-PR kernel is the dense merge-walk.
fn bfs_mxv(ctx: &Context, a: &Matrix<bool>, src: usize) -> usize {
    let n = a.nrows();
    let levels = Vector::<i64>::new(n).unwrap();
    let q = Vector::from_tuples(n, &[(src, true)]).unwrap();
    let push = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();
    let mut d = 0i64;
    loop {
        ctx.assign_scalar_vector(&levels, &q, NoAccum, d, ALL, &Descriptor::default())
            .unwrap();
        ctx.mxv(&q, &levels, NoAccum, lor_land(), a, &q, &push)
            .unwrap();
        if q.nvals().unwrap() == 0 {
            break;
        }
        d += 1;
    }
    levels.nvals().unwrap()
}

fn bench_directions(c: &mut Criterion) {
    let (n, m) = (50_000usize, 8usize);
    let el = barabasi_albert(n, m, 42).symmetrize();
    let a = Matrix::from_tuples(el.n, el.n, &el.bool_tuples()).unwrap();
    let ctx = Context::blocking();
    // Warm the property caches and the shared row view once; every
    // variant then benches the steady state.
    let _ = bfs_mxv(&ctx, &a, 0);

    let mut group = c.benchmark_group(format!("e12/ba_n{n}_m{m}"));
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);

    let sources: Vec<usize> = (0..32).map(|k| (k * 1543) % n).collect();
    for (name, dir) in [
        ("khop2_auto", Direction::Auto),
        ("khop2_dense_baseline", Direction::Dense),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                spmspv::with_direction(dir, || {
                    sources
                        .iter()
                        .map(|&s| khop(&ctx, &a, s, 2, true))
                        .sum::<usize>()
                })
            })
        });
    }
    for (name, dir) in [
        ("khop2_vxm_auto", Direction::Auto),
        ("khop2_vxm_dense_baseline", Direction::Dense),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                spmspv::with_direction(dir, || {
                    sources
                        .iter()
                        .map(|&s| khop(&ctx, &a, s, 2, false))
                        .sum::<usize>()
                })
            })
        });
    }

    for (name, dir) in [
        ("bfs_full_auto", Direction::Auto),
        ("bfs_full_dense_baseline", Direction::Dense),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| spmspv::with_direction(dir, || bfs_mxv(&ctx, &a, 0)))
        });
    }

    let one = [sources[0]];
    for (name, dir, batch) in [
        ("bfs_multi1_auto", Direction::Auto, &one[..]),
        ("bfs_multi1_pull", Direction::Pull, &one[..]),
        ("bfs_multi32_auto", Direction::Auto, &sources[..]),
        ("bfs_multi32_pull", Direction::Pull, &sources[..]),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| spmspv::with_direction(dir, || bfs_multi(&ctx, &a, batch).unwrap().len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_directions);
criterion_main!(benches);
