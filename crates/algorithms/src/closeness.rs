//! Closeness centrality via batched multi-source BFS — the same
//! matrix-frontier pattern as the paper's BC forward sweep (Figure 3
//! lines 39–46), with level accumulation instead of path counting.

use graphblas_core::prelude::*;

/// BFS levels from a batch of sources, as an `n × batch` matrix:
/// `L(v, s)` is the hop distance from `sources[s]` to `v` (stored only
/// for reached vertices; the source itself carries 0).
pub fn multi_source_bfs_levels(
    ctx: &Context,
    a: &Matrix<bool>,
    sources: &[Index],
) -> Result<Matrix<i64>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    if sources.is_empty() {
        return Err(Error::InvalidValue("empty source batch".into()));
    }
    let b = sources.len();
    // levels: like Fig. 3's numsp, the structure doubles as the
    // "already discovered" set
    let levels = Matrix::<i64>::new(n, b)?;
    // frontier(s_j, j) = true: the sources themselves are level 0, and
    // the first mxm expands them — a push through A's rows, so no level
    // ever needs the transposed view of A
    let frontier = Matrix::<bool>::new(n, b)?;
    // Both blocks are read row by row every level (the push scatter, the
    // mask, the write stage). Under `Auto` they would migrate between
    // hypersparse, bitmap and CSR as the frontier grows and shrinks,
    // paying two O(n) conversions per operation; keep them in CSR.
    levels.set_format_policy(FormatPolicy::Force(Format::Csr));
    frontier.set_format_policy(FormatPolicy::Force(Format::Csr));
    let cols: Vec<Index> = (0..b).collect();
    frontier.build(sources, &cols, &vec![true; b], &First::<bool, bool>::new())?;

    // frontier<!levels> = A^T lor.land frontier (Fig. 3 lines 39-46 shape)
    let desc_tsr = Descriptor::default()
        .transpose_first()
        .complement_mask()
        .structural_mask()
        .replace();
    let mut d = 0i64;
    while frontier.nvals()? > 0 {
        // levels<frontier> = d (merge mode: only frontier positions set)
        ctx.assign_scalar_matrix(
            &levels,
            &frontier,
            NoAccum,
            d,
            ALL,
            ALL,
            &Descriptor::default().structural_mask(),
        )?;
        // frontier<!levels> = A^T lor.land frontier (replace)
        ctx.mxm(
            &frontier,
            &levels,
            NoAccum,
            lor_land(),
            a,
            &frontier,
            &desc_tsr,
        )?;
        // trace-visible completion, as in `bfs_levels`: each level's
        // push/pull choice lands in the execution trace
        ctx.wait()?;
        d += 1;
    }
    Ok(levels)
}

/// Closeness centrality `C(v) = (r - 1) / Σ_t d(v, t)` where `r` is the
/// number of vertices reachable *from* `v` (out-closeness; harmonic-free
/// classic definition, 0 for vertices reaching nothing). Computed by
/// batched BFS from every vertex.
pub fn closeness_centrality(ctx: &Context, a: &Matrix<bool>, batch: usize) -> Result<Vec<f64>> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(Error::DimensionMismatch("adjacency must be square".into()));
    }
    let batch = batch.max(1);
    let mut out = vec![0.0f64; n];
    let all: Vec<Index> = (0..n).collect();
    for chunk in all.chunks(batch) {
        // levels from these sources: L(v, s) = dist(source_s -> v)
        let levels = multi_source_bfs_levels(ctx, a, chunk)?;
        // per-source reach count and distance sum = column reductions
        let ones = Matrix::<i64>::new(n, chunk.len())?;
        ctx.apply_matrix(
            &ones,
            NoMask,
            NoAccum,
            unary_fn(|_: &i64| 1i64),
            &levels,
            &Descriptor::default(),
        )?;
        let reach = Vector::<i64>::new(chunk.len())?;
        ctx.reduce_rows(
            &reach,
            NoMask,
            NoAccum,
            PlusMonoid::<i64>::new(),
            &ones,
            &Descriptor::default().transpose_first(),
        )?;
        let dist_sum = Vector::<i64>::new(chunk.len())?;
        ctx.reduce_rows(
            &dist_sum,
            NoMask,
            NoAccum,
            PlusMonoid::<i64>::new(),
            &levels,
            &Descriptor::default().transpose_first(),
        )?;
        for (s, &v) in chunk.iter().enumerate() {
            let r = reach.get(s)?.unwrap_or(0) - 1; // exclude the source
            let total = dist_sum.get(s)?.unwrap_or(0);
            out[v] = if r > 0 && total > 0 {
                r as f64 / total as f64
            } else {
                0.0
            };
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(n: usize, edges: &[(usize, usize)]) -> Matrix<bool> {
        let t: Vec<(usize, usize, bool)> = edges.iter().map(|&(u, v)| (u, v, true)).collect();
        Matrix::from_tuples(n, n, &t).unwrap()
    }

    #[test]
    fn levels_match_single_source_bfs() {
        let ctx = Context::blocking();
        let a = adj(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let l = multi_source_bfs_levels(&ctx, &a, &[0, 3]).unwrap();
        // column 0: from vertex 0
        for (v, want) in [
            (0, Some(0)),
            (1, Some(1)),
            (2, Some(1)),
            (3, Some(2)),
            (4, Some(3)),
            (5, None),
        ] {
            assert_eq!(l.get(v, 0).unwrap(), want.map(|x: i64| x), "v={v}");
        }
        // column 1: from vertex 3
        assert_eq!(l.get(4, 1).unwrap(), Some(1));
        assert_eq!(l.get(0, 1).unwrap(), None);
    }

    #[test]
    fn levels_agree_with_reference_over_batches() {
        use graphblas_reference::{traversal::bfs_levels, AdjGraph};
        let ctx = Context::blocking();
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1)];
        let a = adj(6, &edges);
        let adjg = AdjGraph::from_edges(6, &edges);
        let sources: Vec<Index> = (0..6).collect();
        let l = multi_source_bfs_levels(&ctx, &a, &sources).unwrap();
        for s in 0..6 {
            let want = bfs_levels(&adjg, s);
            for (v, lvl) in want.iter().enumerate() {
                assert_eq!(l.get(v, s).unwrap(), lvl.map(|x| x as i64), "v={v} s={s}");
            }
        }
    }

    #[test]
    fn closeness_on_a_path() {
        // undirected path 0-1-2: middle vertex is closest to everyone
        let ctx = Context::blocking();
        let a = adj(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let c = closeness_centrality(&ctx, &a, 2).unwrap();
        assert!((c[1] - 1.0).abs() < 1e-12); // 2 others at distance 1
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12); // dist 1 + 2
        assert!((c[0] - c[2]).abs() < 1e-12);
    }

    #[test]
    fn unreachable_vertices_score_zero() {
        let ctx = Context::blocking();
        let a = adj(3, &[(0, 1)]);
        let c = closeness_centrality(&ctx, &a, 3).unwrap();
        assert_eq!(c[1], 0.0); // reaches nothing
        assert_eq!(c[2], 0.0); // isolated
        assert!(c[0] > 0.0);
    }
}
