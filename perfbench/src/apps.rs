//! The six A4 applications as the benchmark calls them, and the
//! correctness gate that checks every call against the reference.

use std::time::{Duration, Instant};

use graphblas_algorithms as alg;
use graphblas_core::prelude::*;

use graphblas_reference as refr;

use crate::inputs::{Loaded, Oracle, RefGraphs};
use crate::inputs::{BC_REL_TOL, PR_CHECK_L1, PR_DAMPING, PR_MAX_ITERS, PR_TOL, SSSP_REL_TOL};
use crate::speed::Speed;
use crate::stats::{Report, Samples};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Bfs,
    Sssp,
    Components,
    Pagerank,
    Triangles,
    Bc,
}

pub const APPS: [App; 6] = [
    App::Bfs,
    App::Sssp,
    App::Components,
    App::Pagerank,
    App::Triangles,
    App::Bc,
];

impl App {
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs => "bfs",
            App::Sssp => "sssp",
            App::Components => "components",
            App::Pagerank => "pagerank",
            App::Triangles => "triangles",
            App::Bc => "bc",
        }
    }

    pub fn parse(s: &str) -> Option<App> {
        APPS.into_iter().find(|a| a.name() == s)
    }
}

/// What one app call returned, in the reference's shape.
#[derive(Debug, Clone)]
pub enum Output {
    Levels(Vec<Option<usize>>),
    Dists(Vec<Option<f64>>),
    Labels(Vec<usize>),
    Ranks(Vec<f64>, usize),
    Count(u64),
    Centrality(Vec<f64>),
}

/// Call `app` once; `k` picks the source (or BC batch) round-robin.
/// Completion is forced before returning, in either mode.
pub fn call(ctx: &Context, app: App, g: &Loaded, o: &Oracle, k: usize) -> Result<Output> {
    let src = o.sources[k % o.sources.len()];
    let out = match app {
        App::Bfs => Output::Levels(alg::bfs_levels(ctx, &g.a, src)?),
        App::Sssp => Output::Dists(alg::sssp_bellman_ford(ctx, &g.aw, src)?),
        App::Components => Output::Labels(alg::connected_components(ctx, &g.a_und)?),
        App::Pagerank => {
            let (r, it) = alg::pagerank(ctx, &g.a, PR_DAMPING, PR_TOL, PR_MAX_ITERS)?;
            Output::Ranks(r, it)
        }
        App::Triangles => Output::Count(alg::triangle_count(ctx, &g.a_und)?),
        App::Bc => {
            let batch = &o.bc_batches[k % o.bc_batches.len()];
            let delta = alg::bc_update(ctx, &g.a_bc, batch)?;
            let mut dense = vec![0.0f64; g.a_bc.nrows()];
            for (i, v) in delta.extract_tuples()? {
                dense[i] = v as f64;
            }
            Output::Centrality(dense)
        }
    };
    ctx.wait()?;
    Ok(out)
}

/// The reference implementation of `app` on the same input as
/// [`call`] with the same `k`; returns a summary so the work is kept.
pub fn reference_call(app: App, r: &RefGraphs, o: &Oracle, k: usize) -> usize {
    let src = o.sources[k % o.sources.len()];
    match app {
        App::Bfs => refr::traversal::bfs_levels(&r.adj, src).len(),
        App::Sssp => refr::paths::dijkstra(&r.weighted, src).len(),
        App::Components => refr::components::connected_components(&r.adj_und).len(),
        App::Pagerank => refr::pagerank::pagerank(&r.adj, PR_DAMPING, PR_TOL, PR_MAX_ITERS).1,
        App::Triangles => refr::triangles::triangle_count(&r.adj_und) as usize,
        App::Bc => {
            let batch = &o.bc_batches[k % o.bc_batches.len()];
            refr::bc::brandes_batch(&r.adj_bc, batch).len()
        }
    }
}

/// The gate: BFS levels, component labels and triangle counts must
/// match exactly; SSSP, PageRank and BC within the stated tolerances.
pub fn check(app: App, out: &Output, o: &Oracle, k: usize) -> std::result::Result<(), String> {
    let i = k % o.sources.len();
    let fail = |what: String| Err(format!("{}: {what}", app.name()));
    match (app, out) {
        (App::Bfs, Output::Levels(got)) if *got == o.bfs[i] => Ok(()),
        (App::Bfs, Output::Levels(_)) => {
            fail(format!("levels differ from source {}", o.sources[i]))
        }
        (App::Sssp, Output::Dists(got)) => {
            let want = &o.sssp[i];
            if got.len() != want.len() {
                return fail("length differs".into());
            }
            for (v, (x, y)) in got.iter().zip(want).enumerate() {
                let ok = match (x, y) {
                    (Some(x), Some(y)) => (x - y).abs() <= SSSP_REL_TOL * y.abs().max(1.0),
                    (None, None) => true,
                    _ => false,
                };
                if !ok {
                    return fail(format!("vertex {v}: {x:?} vs {y:?}"));
                }
            }
            Ok(())
        }
        (App::Components, Output::Labels(got)) if *got == o.components => Ok(()),
        (App::Components, Output::Labels(_)) => fail("partition differs".into()),
        (App::Pagerank, Output::Ranks(got, _)) => {
            if got.len() != o.pagerank.len() {
                return fail("length differs".into());
            }
            let l1: f64 = got
                .iter()
                .zip(&o.pagerank)
                .map(|(x, y)| (x - y).abs())
                .sum();
            if l1 <= PR_CHECK_L1 {
                Ok(())
            } else {
                fail(format!("L1 distance {l1:e} > {PR_CHECK_L1:e}"))
            }
        }
        (App::Triangles, Output::Count(t)) if *t == o.triangles => Ok(()),
        (App::Triangles, Output::Count(t)) => fail(format!("{t} vs {}", o.triangles)),
        (App::Bc, Output::Centrality(got)) => {
            let want = &o.bc[k % o.bc.len()];
            if got.len() != want.len() {
                return fail("length differs".into());
            }
            for (v, (x, y)) in got.iter().zip(want).enumerate() {
                if (x - y).abs() > BC_REL_TOL * y.abs().max(1.0) {
                    return fail(format!("vertex {v}: {x} vs {y}"));
                }
            }
            Ok(())
        }
        _ => fail("unexpected output shape".into()),
    }
}

/// Perturb a result the way a wrong kernel might: the smoke test uses
/// this to show that the gate trips.
pub fn corrupt(out: &mut Output) {
    match out {
        Output::Levels(l) => {
            if let Some(x) = l.iter_mut().find(|x| x.is_some()) {
                *x = x.map(|d| d + 1);
            }
        }
        Output::Dists(d) => {
            if let Some(x) = d.iter_mut().find(|x| x.is_some()) {
                *x = x.map(|d| d + 1.0);
            }
        }
        Output::Labels(l) => l[0] += 1,
        Output::Ranks(r, _) => r[0] += 0.1,
        Output::Count(t) => *t += 1,
        Output::Centrality(c) => c[0] += 1.0,
    }
}

/// One timed, checked call; the time is in milliseconds.
pub fn timed_call(
    ctx: &Context,
    app: App,
    g: &Loaded,
    o: &Oracle,
    k: usize,
    corrupt_app: Option<App>,
    rep: &mut Report,
) -> f64 {
    let t0 = Instant::now();
    let res = call(ctx, app, g, o, k);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    rep.tally(
        app.name(),
        match res {
            Ok(mut out) => {
                if corrupt_app == Some(app) {
                    corrupt(&mut out);
                }
                check(app, &out, o, k)
            }
            Err(e) => Err(format!("{}: {e}", app.name())),
        },
    );
    ms
}

/// The app suite across the segments of a run: per-call times (ms) by
/// app, in [`APPS`] order, scaled to the nominal machine speed
/// ([`Speed`]) and as measured, and the time each app has used so far.
pub struct Suite {
    pub samples: Vec<Samples>,
    pub wall: Vec<Samples>,
    pub speed: Speed,
    spent: [f64; APPS.len()],
}

impl Suite {
    /// One warm-up call per app, checked but not timed into the result.
    pub fn warmed_up(
        ctx: &Context,
        g: &Loaded,
        o: &Oracle,
        corrupt_app: Option<App>,
        rep: &mut Report,
    ) -> Suite {
        for app in APPS {
            timed_call(ctx, app, g, o, 0, corrupt_app, rep);
        }
        Suite {
            samples: vec![Samples::default(); APPS.len()],
            wall: vec![Samples::default(); APPS.len()],
            speed: Speed::default(),
            spent: [0.0; APPS.len()],
        }
    }

    /// Call apps for `budget`, always the one that has so far used the
    /// least time, so every app gets an equal share of the run and its
    /// calls are spread over the whole run rather than bunched, which
    /// keeps a burst of machine noise from landing on one app.
    pub fn run(
        &mut self,
        ctx: &Context,
        g: &Loaded,
        o: &Oracle,
        budget: Duration,
        corrupt_app: Option<App>,
        rep: &mut Report,
    ) {
        let start = Instant::now();
        self.speed.begin();
        let mut calls = Vec::new();
        while start.elapsed() < budget || self.wall.iter().any(Samples::is_empty) {
            let a = (0..APPS.len())
                .min_by(|&x, &y| self.spent[x].total_cmp(&self.spent[y]))
                .expect("apps");
            let k = self.wall[a].len() + 1;
            self.speed.tick();
            let ms = timed_call(ctx, APPS[a], g, o, k, corrupt_app, rep);
            self.spent[a] += ms;
            self.wall[a].push(ms);
            calls.push((a, ms));
        }
        let scale = self.speed.end();
        for (a, ms) in calls {
            self.samples[a].push(ms * scale);
        }
    }
}
