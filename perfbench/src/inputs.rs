//! Workload inputs made from the seed, their loaded matrices, and the
//! expected results computed with `graphblas-reference`.

use graphblas_core::prelude::*;
use graphblas_gen::{grid2d, rmat, EdgeList, RmatParams};
use graphblas_reference as refr;
use graphblas_reference::{AdjGraph, WeightedGraph};

use crate::stats::Lcg;
use crate::{Sizes, Workload};

/// PageRank damping, L1 stopping tolerance and iteration cap; results
/// must agree with the reference within `PR_CHECK_L1` in L1 distance.
pub const PR_DAMPING: f64 = 0.85;
pub const PR_TOL: f64 = 1e-6;
pub const PR_MAX_ITERS: usize = 100;
pub const PR_CHECK_L1: f64 = 10.0 * PR_TOL;
/// SSSP distances must agree with Dijkstra within this relative error
/// (Bellman-Ford and Dijkstra may add equal-length paths in another order).
pub const SSSP_REL_TOL: f64 = 1e-9;
/// Fig. 3 accumulates BC in `f32`; each vertex must agree with the `f64`
/// Brandes batch within this relative error (absolute below 1).
pub const BC_REL_TOL: f64 = 1e-3;

/// Sources per app graph for BFS and SSSP, used round-robin.
const SOURCES: usize = 8;
/// Distinct BC batches, used round-robin: a run makes only a handful of
/// BC calls, and spreading them over several batches keeps the median
/// from depending on how hard one or two batches happen to be.
const BC_BATCHES: usize = 8;

/// One application graph in all the forms the six apps take.
pub struct AppGraph {
    pub n: usize,
    /// Directed simple graph: BFS, SSSP, PageRank.
    pub directed: EdgeList,
    /// Symmetrized: components and triangles.
    pub undirected: EdgeList,
    /// The directed edges with weights in `[1, 10)`: SSSP.
    pub weighted: Vec<(usize, usize, f64)>,
    /// Graph the Fig. 3 batch runs on (see [`bc_graph`]).
    pub bc: EdgeList,
}

/// The matrices the apps are called with.
pub struct Loaded {
    pub a: Matrix<bool>,
    pub a_und: Matrix<bool>,
    pub aw: Matrix<f64>,
    pub a_bc: Matrix<i32>,
}

/// The app graph in the reference implementation's forms.
pub struct RefGraphs {
    pub adj: AdjGraph,
    pub adj_und: AdjGraph,
    pub adj_bc: AdjGraph,
    pub weighted: WeightedGraph,
}

impl RefGraphs {
    pub fn new(g: &AppGraph) -> RefGraphs {
        RefGraphs {
            adj: AdjGraph::from_edges(g.n, &g.directed.edges),
            adj_und: AdjGraph::from_edges(g.n, &g.undirected.edges),
            adj_bc: AdjGraph::from_edges(g.bc.n, &g.bc.edges),
            weighted: WeightedGraph::from_edges(g.n, &g.weighted),
        }
    }
}

/// Sources and the reference result of every app call the run makes.
pub struct Oracle {
    pub sources: Vec<usize>,
    pub bc_batches: Vec<Vec<usize>>,
    pub bfs: Vec<Vec<Option<usize>>>,
    pub sssp: Vec<Vec<Option<f64>>>,
    pub components: Vec<usize>,
    pub pagerank: Vec<f64>,
    pub triangles: u64,
    pub bc: Vec<Vec<f64>>,
}

/// Generator seed of every R-MAT graph's structure, of the SSSP weights
/// and of the BC batches. The run's seed draws the R-MAT BFS/SSSP
/// sources and the request streams. R-MAT graphs of one scale differ in
/// diameter, triangle count and component count from seed to seed,
/// which moved per-call times by up to a fifth between seeds, as much
/// as the bounds allow for a regression; seeded weights and batches
/// moved Bellman-Ford's rounds and BC's work the same way, by less. The
/// grid's structure is fixed too.
pub const GRAPH_SEED: u64 = 42;

/// Graph500 R-MAT (a=.57, b=c=.19, d=.05), edge factor 8, made simple.
pub fn rmat_graph(scale: u32, seed: u64) -> EdgeList {
    rmat(scale, 8, RmatParams::default(), seed)
        .dedup()
        .without_self_loops()
}

/// The graph a workload's Fig. 3 batch runs on. Fig. 3 counts shortest
/// paths in `Int32`; on a 2-D grid those counts are binomial
/// coefficients and pass 2^31 beyond 32 hops, so the grid workloads
/// run the batch on the largest grid whose counts fit: 16 x 16.
fn bc_graph(workload: Workload, directed: &EdgeList, sizes: &Sizes) -> EdgeList {
    match workload {
        Workload::Grid | Workload::GridNb => {
            let side = sizes.grid_side.min(16);
            grid2d(side, side)
        }
        Workload::Rmat => directed.clone(),
    }
}

impl AppGraph {
    pub fn generate(workload: Workload, sizes: &Sizes) -> AppGraph {
        let directed = match workload {
            Workload::Rmat => rmat_graph(sizes.rmat_scale, GRAPH_SEED),
            Workload::Grid | Workload::GridNb => grid2d(sizes.grid_side, sizes.grid_side),
        };
        let undirected = directed.clone().symmetrize();
        let weighted = directed.weighted_tuples(1.0, 10.0, GRAPH_SEED ^ 0x5eed);
        let bc = bc_graph(workload, &directed, sizes);
        AppGraph {
            n: directed.n,
            directed,
            undirected,
            weighted,
            bc,
        }
    }

    /// Build every matrix and force it complete.
    pub fn load(&self) -> Result<Loaded> {
        let n = self.n;
        let loaded = Loaded {
            a: Matrix::from_tuples(n, n, &self.directed.bool_tuples())?,
            a_und: Matrix::from_tuples(n, n, &self.undirected.bool_tuples())?,
            aw: Matrix::from_tuples(n, n, &self.weighted)?,
            a_bc: Matrix::from_tuples(self.bc.n, self.bc.n, &self.bc.int_tuples())?,
        };
        loaded.a.nvals()?;
        loaded.a_und.nvals()?;
        loaded.aw.nvals()?;
        loaded.a_bc.nvals()?;
        Ok(loaded)
    }
}

/// Vertices whose BFS reaches at least nine tenths of the most any
/// sampled vertex reaches, in seeded random order. Sources from this set
/// all traverse about the same part of the graph, so per-call times
/// compare across seeds instead of depending on whether a source landed
/// in a small out-component.
pub fn wide_sources(adj: &AdjGraph, want: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..adj.n).filter(|&v| !adj.adj[v].is_empty()).collect();
    let mut rng = Lcg::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let reach = |s: usize| {
        refr::traversal::bfs_levels(adj, s)
            .iter()
            .filter(|l| l.is_some())
            .count()
    };
    // the widest reach among a sample sets the bar
    let best = order.iter().take(64).map(|&s| reach(s)).max().unwrap_or(1);
    let wide: Vec<usize> = order
        .into_iter()
        .filter(|&s| reach(s) * 10 >= best * 9)
        .take(want)
        .collect();
    assert!(!wide.is_empty(), "no vertex reaches most of the graph");
    wide
}

impl Oracle {
    pub fn prepare(
        workload: Workload,
        g: &AppGraph,
        r: &RefGraphs,
        sizes: &Sizes,
        seed: u64,
    ) -> Oracle {
        let RefGraphs {
            adj,
            adj_und,
            adj_bc,
            weighted: wg,
        } = r;
        let (sources, bc_pool) = match workload {
            // every grid corner is eccentric by the full diameter, so all
            // four sources do the same work
            Workload::Grid | Workload::GridNb => {
                let s = sizes.grid_side;
                let mut pool: Vec<usize> = (0..g.bc.n).collect();
                let mut rng = Lcg::new(GRAPH_SEED);
                for i in (1..pool.len()).rev() {
                    pool.swap(i, rng.below(i + 1));
                }
                (vec![0, s - 1, s * (s - 1), s * s - 1], pool)
            }
            Workload::Rmat => (
                wide_sources(adj, SOURCES, seed),
                wide_sources(adj, BC_BATCHES * sizes.bc_batch, GRAPH_SEED),
            ),
        };
        let bc_batches: Vec<Vec<usize>> = (0..BC_BATCHES)
            .map(|b| {
                (0..sizes.bc_batch)
                    .map(|i| bc_pool[(b * sizes.bc_batch + i) % bc_pool.len()])
                    .collect()
            })
            .collect();
        let (pagerank, _) = refr::pagerank::pagerank(adj, PR_DAMPING, PR_TOL, PR_MAX_ITERS);
        Oracle {
            bfs: sources
                .iter()
                .map(|&s| refr::traversal::bfs_levels(adj, s))
                .collect(),
            sssp: sources
                .iter()
                .map(|&s| refr::paths::dijkstra(wg, s))
                .collect(),
            components: refr::components::connected_components(adj_und),
            pagerank,
            triangles: refr::triangles::triangle_count(adj_und),
            bc: bc_batches
                .iter()
                .map(|b| refr::bc::brandes_batch(adj_bc, b))
                .collect(),
            sources,
            bc_batches,
        }
    }
}
