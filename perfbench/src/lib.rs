//! The repository benchmark: the A4 applications against
//! `graphblas-reference` on R-MAT and grid graphs, in blocking and
//! nonblocking mode, and the query service under closed-loop read/write
//! load. `README.md` beside this crate records why each workload exists
//! and how it was sized.
//!
//! One invocation runs one workload. With tracing off it reports the
//! end-to-end metrics; the separate traced invocation ([`layers`])
//! reports per-layer metrics. Every app result and every service reply
//! is checked; a mismatch counts as a failed operation. Timings are
//! corrected for CPU steal, and app timings also for the machine's
//! single-thread speed ([`speed`]); the detail lines also give them as
//! measured.

pub mod apps;
pub mod inputs;
pub mod layers;
pub mod serve;
pub mod spans;
pub mod speed;
pub mod stats;

use std::time::{Duration, Instant};

use graphblas_core::Context;

use apps::{App, APPS};
use inputs::{AppGraph, Oracle, RefGraphs};
use stats::{Report, Samples};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Rmat,
    Grid,
    GridNb,
}

/// Every workload also drives the query service (see [`APP_SHARE`]), so
/// there is no workload for the service alone.
pub const WORKLOADS: [Workload; 3] = [Workload::Rmat, Workload::Grid, Workload::GridNb];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rmat => "rmat",
            Workload::Grid => "grid",
            Workload::GridNb => "grid-nb",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The context the apps run in.
    pub fn context(self) -> Context {
        match self {
            Workload::GridNb => Context::nonblocking(),
            _ => Context::blocking(),
        }
    }
}

/// Share of the measured time given to the app suite; the query service
/// gets the rest. Every workload runs both, so every run reports every
/// end-to-end metric.
pub const APP_SHARE: f64 = 0.6;

/// Input sizes. [`Sizes::full`] is what the benchmark runs;
/// [`Sizes::tiny`] keeps the smoke test fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub rmat_scale: u32,
    pub grid_side: usize,
    pub serve_scale: u32,
    pub serve_graphs: usize,
    /// Candidate edges per served graph that writes draw from.
    pub write_pool: usize,
    /// Sources per Fig. 3 batch.
    pub bc_batch: usize,
    /// Set-ups per run: at least `setup_reps`, then more until
    /// `setup_budget` has passed (at most [`MAX_SETUPS`]); `setup_s` is
    /// their median.
    pub setup_reps: usize,
    pub setup_budget: Duration,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            rmat_scale: 14,
            grid_side: 128,
            serve_scale: 10,
            serve_graphs: 4,
            write_pool: 2048,
            bc_batch: 32,
            setup_reps: 9,
            setup_budget: Duration::from_millis(1500),
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            rmat_scale: 8,
            grid_side: 12,
            serve_scale: 7,
            serve_graphs: 2,
            write_pool: 16,
            bc_batch: 4,
            setup_reps: 2,
            setup_budget: Duration::ZERO,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Corrupt every result of this app before the gate sees it (the
    /// smoke test's proof that the gate trips).
    pub corrupt: Option<App>,
    /// Where the traced run writes its spans.
    pub out_dir: std::path::PathBuf,
}

/// Everything set up once per run: the app graph and its matrices, and
/// the running service with its graphs and clients.
pub struct Setup {
    pub app: AppGraph,
    pub loaded: inputs::Loaded,
    pub serve_inputs: Vec<serve::ServeInput>,
    pub rig: serve::Rig,
}

impl Setup {
    pub fn build(cfg: &Config, tag: &str) -> Result<Setup, String> {
        let app = AppGraph::generate(cfg.workload, &cfg.sizes);
        let loaded = app.load().map_err(|e| e.to_string())?;
        let serve_inputs = serve::generate(&cfg.sizes);
        let rig = serve::Rig::start(&serve_inputs, tag)?;
        Ok(Setup {
            app,
            loaded,
            serve_inputs,
            rig,
        })
    }

    /// The live adjacency of the `gi`-th served graph.
    pub fn serve_graph_matrix(&self, gi: usize) -> graphblas_core::Matrix<bool> {
        let name = &self.serve_inputs[gi].name;
        let entry = self.rig.svc.graphs().get(name).expect("served graph");
        entry.matrix.dup()
    }

    /// Set up repeatedly (see [`Sizes::setup_reps`]), keeping the last;
    /// returns it with the set-up times in seconds.
    pub fn repeated(cfg: &Config) -> Result<(Setup, Samples), String> {
        let mut times = Samples::default();
        let mut kept: Option<Setup> = None;
        let start = Instant::now();
        let sz = &cfg.sizes;
        while times.len() < sz.setup_reps.max(1)
            || (start.elapsed() < sz.setup_budget && times.len() < MAX_SETUPS)
        {
            let rep = times.len();
            if let Some(old) = kept.take() {
                old.rig.shutdown();
            }
            let t0 = Instant::now();
            let s = Setup::build(cfg, &format!("s{rep}"))?;
            times.push(t0.elapsed().as_secs_f64());
            kept = Some(s);
        }
        Ok((kept.expect("at least one set-up"), times))
    }
}

/// Run one invocation and return its report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    if cfg.trace {
        return layers::run(cfg);
    }
    let mut rep = Report::default();
    let setup_clock = speed::Stolen::start();
    let (mut setup, setup_times) = Setup::repeated(cfg)?;
    let setup_run = 1.0 - setup_clock.share();
    let refs = RefGraphs::new(&setup.app);
    let oracle = Oracle::prepare(cfg.workload, &setup.app, &refs, &cfg.sizes, cfg.seed);
    let serve_oracles = serve::oracles(&setup.serve_inputs, cfg.seed);

    let total = Duration::from_secs_f64(cfg.seconds);
    let app_budget = total.mul_f64(APP_SHARE);
    let ctx = cfg.workload.context();
    let steal0 = stats::cpu_steal();
    let mut suite = apps::Suite::warmed_up(&ctx, &setup.loaded, &oracle, cfg.corrupt, &mut rep);
    // warm-up: the first flushes and compactions, checked but not timed
    serve::closed_loop(
        &mut setup.rig,
        &setup.serve_inputs,
        &serve_oracles,
        SERVE_WARMUP,
        cfg.seed ^ 1,
        &mut rep,
    );
    // App and service segments alternate, so that both parts sample the
    // whole run: the machine's speed drifts within a run (see README.md).
    let mut window = serve::Window::default();
    let mut serve_ticks = (0, 0);
    let serve_budget = total.saturating_sub(app_budget);
    for seg in 0..SEGMENTS {
        setup.rig.quiesce(&setup.serve_inputs)?;
        suite.run(
            &ctx,
            &setup.loaded,
            &oracle,
            app_budget / SEGMENTS,
            cfg.corrupt,
            &mut rep,
        );
        let clock = speed::Stolen::start();
        window.absorb(serve::closed_loop(
            &mut setup.rig,
            &setup.serve_inputs,
            &serve_oracles,
            serve_budget / SEGMENTS,
            cfg.seed.wrapping_add(u64::from(seg)),
            &mut rep,
        ));
        let (steal, used) = clock.ticks();
        serve_ticks = (serve_ticks.0 + steal, serve_ticks.1 + used);
    }
    let serve_run = 1.0 - speed::share(serve_ticks);
    let steal1 = stats::cpu_steal();
    let verified = serve::verify_quiesced(
        &mut setup.rig.clients[0],
        &setup.serve_inputs,
        &serve_oracles,
        &mut rep,
    );
    rep.note(format!(
        "workload {} seed {} seconds {} nproc {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    rep.note(format!(
        "cpu steal during the measured window: {:.1}% of machine CPU time",
        100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    ));
    rep.note(format!(
        "app graph n={} directed_edges={} undirected_edges={} bc_graph_n={} mode={:?}",
        setup.app.n,
        setup.app.directed.edges.len(),
        setup.app.undirected.edges.len(),
        setup.app.bc.n,
        ctx.mode()
    ));
    let formats = [
        &setup.loaded.a,
        &setup.loaded.a_und,
        &setup.serve_graph_matrix(0),
    ]
    .map(|m| m.format().map_or("?".to_string(), |f| format!("{f:?}")));
    rep.note(format!(
        "storage formats chosen by the Auto policy: app directed={} app undirected={} served g0={}",
        formats[0], formats[1], formats[2]
    ));
    setup.rig.shutdown();
    rep.note(serve::service_config_line());
    rep.note(setup_times.describe("setup_s as measured", "s"));
    rep.note(format!(
        "stolen share of set-up: {:.4} of busy CPU time",
        1.0 - setup_run
    ));
    rep.metric("setup_s", "s", setup_times.median() * setup_run);
    rep.note(suite.speed.probes.describe("speed probe", "ms"));
    rep.note(suite.speed.stolen.describe("stolen share of app segments", "of busy CPU time"));
    for ((app, times), wall) in APPS.iter().zip(&suite.samples).zip(&suite.wall) {
        let name = format!("{}_ms", app.name());
        rep.note(times.describe(&name, "ms"));
        rep.note(wall.describe(&format!("{name} as measured"), "ms"));
        rep.metric(name, "ms", times.median());
    }
    rep.note(window.read.describe("serve_read_ms", "ms"));
    rep.note(window.write.describe("serve_write_ms", "ms"));
    for verb in serve::VERBS {
        let mut s = Samples::default();
        for &(v, ms) in &window.by_verb {
            if v == verb {
                s.push(ms);
            }
        }
        rep.note(s.describe(&format!("serve {verb:?}"), "ms"));
    }
    rep.note(window.read.ladder("serve_read_ms"));
    rep.note(window.write.ladder("serve_write_ms"));
    rep.note(format!(
        "serve window {:.2}s ops={} bfs_requests={} bfs_batches={} compactions={} background_flushes={} compacted_bytes={} (deltas over the window); check phase verified {verified} BFS replies",
        window.secs,
        window.ops,
        window.bfs_requests,
        window.bfs_batches,
        window.compactions,
        window.background_flushes,
        window.compacted_bytes
    ));
    let graphs = setup.serve_inputs.len();
    rep.note(format!(
        "serve writes per graph in the window: {} over {} distinct edges, from a pool of {} candidates per graph",
        window.write.len() / graphs,
        window.written.len() / graphs,
        cfg.sizes.write_pool
    ));
    rep.note(setup_times.ladder("setup_s"));
    rep.note(format!(
        "stolen share of service segments: {:.4} of busy CPU time; as measured: serve_ops_per_s={:.1} serve_read_p50_ms={:.4} serve_write_p50_ms={:.4}",
        1.0 - serve_run,
        window.ops as f64 / window.secs,
        window.read.quantile(0.5),
        window.write.quantile(0.5)
    ));
    rep.metric("serve_ops_per_s", "1/s", window.ops as f64 / window.secs / serve_run);
    rep.metric("serve_read_p50_ms", "ms", window.read.quantile(0.5) * serve_run);
    rep.metric("serve_write_p50_ms", "ms", window.write.quantile(0.5) * serve_run);
    let ok_frac = rep.ok_frac();
    rep.metric("ok_frac", "frac", ok_frac);
    rep.metric("peak_rss_mib", "MiB", stats::peak_rss_mib());
    Ok(rep)
}

/// Cap on set-ups per run.
pub const MAX_SETUPS: usize = 64;

/// App and service segments per run.
pub const SEGMENTS: u32 = 5;

/// Closed-loop traffic before each measured service window.
pub const SERVE_WARMUP: Duration = Duration::from_millis(500);

/// The end-to-end metric names, in output order.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "bfs_ms",
    "sssp_ms",
    "components_ms",
    "pagerank_ms",
    "triangles_ms",
    "bc_ms",
    "serve_ops_per_s",
    "serve_read_p50_ms",
    "serve_write_p50_ms",
    "ok_frac",
    "peak_rss_mib",
];
