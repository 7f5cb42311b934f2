//! The traced run: per-layer metrics, measured by timing calls into each
//! module's public functions from here, with a span recorded around
//! every call. End-to-end numbers never come from this run.
//!
//! Layers, and the end-to-end metric each per-layer metric should move
//! on which workload:
//!
//! - `algorithms`: `bfs_depth` and `pagerank_iters` are exact counts
//!   behind `bfs_ms` and `pagerank_ms`. `bfs_levels_us` against
//!   `bfs_multi_1src_us`, on the served graphs, moves the `serve_read`
//!   metrics on every workload: the service sends every BFS through
//!   `bfs_multi`, even a batch of one.
//! - `reference`, `ratio`: the A4 record, each ratio printed with its
//!   base; they move nothing.
//! - `op` (single blocking calls at the app graph's n, completion forced
//!   by `nvals()`): `vxm_push_us` and `assign_masked_us` move `bfs_ms` on
//!   `grid`; `vxm_dense_us` moves `pagerank_ms` on `rmat`;
//!   `mxm_masked_ms` moves `triangles_ms` and `bc_ms` on `rmat`; the
//!   vector ops (`apply`, `ewise_add`, `ewise_mult`, `assign_scalar`,
//!   `reduce`, `extract_tuples`) move `pagerank_ms` on `rmat` and
//!   `components_ms` and `sssp_ms` on `grid`; `call_floor_us` moves every
//!   `grid` metric. `baseline.copy_us`, a plain copy of n values, is the
//!   base of every `_over_copy` ratio.
//! - `exec` (always a nonblocking context, since blocking mode bypasses
//!   the tracing scheduler): `wait_floor_us` and the engine trace's
//!   `trace.<kind>_ms` and `trace.queue_ms` move `bfs_ms` and
//!   `components_ms` on `grid-nb`; `trace_covered_frac.<app>` moves
//!   nothing and shows how much of each app the engine trace sees;
//!   `trace_overhead_frac` is what tracing costs a nonblocking BFS.
//! - `kernel`: SpMSpV direction counts per app from
//!   `TraceEvent::direction`; they move `bfs_ms` on `rmat` and `grid-nb`.
//! - `storage`: `build_ms` moves `setup_s`; `delta.set_ns` moves
//!   `serve_write_p50_ms`; `delta.flush_ms` (a forcing read after 1024
//!   pending sets) and the closed-loop window's compaction and
//!   background-flush counts move the service's tails; `snapshot.pin_us`
//!   and `pin_pending_us` move `serve_read_p50_ms`.
//! - `server`: `submit_us.<verb>` (in-process `Service::submit`) moves the
//!   service's p50s; `net_us` (`Client::call` minus `Service::submit` for
//!   DEG) moves `serve_read_p50_ms`; `bfs_per_batch` moves
//!   `serve_ops_per_s`; `shed_frac` moves `ok_frac`. The service's read
//!   and write p99 are reported here too, without a bound.
//!
//! `capi` is on no workload's path and is not measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use graphblas_algorithms as alg;
use graphblas_core::prelude::*;
use server::{Reply, Request};

use crate::apps::{self, App, Output, APPS};
use crate::inputs::{Oracle, RefGraphs};
use crate::serve::{self, GraphOracle, ServeInput, Verb};
use crate::spans::Recorder;
use crate::stats::{Lcg, Report, Samples};
use crate::{Config, Setup};

/// Engine-trace node kinds whose run time is reported: the ones the
/// apps submit through the scheduler in nonblocking mode (BFS levels).
pub const TRACE_KINDS: [&str; 2] = ["vxm", "assign"];
/// Apps whose `vxm` calls go through the SpMSpV direction dispatch.
pub const DIRECTION_APPS: [App; 4] = [App::Bfs, App::Sssp, App::Components, App::Pagerank];
pub const DIRECTIONS: [&str; 3] = ["push", "pull", "dense"];
/// Verbs timed through in-process `Service::submit`.
pub const SUBMIT_VERBS: [&str; 5] = ["bfs", "hop", "deg", "has", "edge_add"];
/// Ops whose time is also reported over a plain copy of n values.
pub const OVER_COPY: [&str; 7] = [
    "apply_vector",
    "ewise_add_vector",
    "ewise_mult_vector",
    "assign_scalar_vector",
    "reduce_vector",
    "extract_tuples",
    "assign_masked",
];
/// Pending sets before a forcing read in the delta probe (below the
/// background flusher's immediate trigger, so the read does the merge).
const DELTA_BATCH: usize = 1024;

/// Every per-layer metric with its unit, in output order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("algorithms.bfs_depth".into(), "count"),
        ("algorithms.pagerank_iters".into(), "count"),
        ("algorithms.bfs_levels_us".into(), "us"),
        ("algorithms.bfs_multi_1src_us".into(), "us"),
    ];
    for app in APPS {
        m.push((format!("reference.{}_ms", app.name()), "ms"));
        m.push((format!("ratio.{}_vs_reference", app.name()), "x"));
    }
    for (name, unit) in [
        ("op.vxm_push_us", "us"),
        ("op.vxm_dense_us", "us"),
        ("op.mxm_masked_ms", "ms"),
        ("op.apply_vector_us", "us"),
        ("op.ewise_add_vector_us", "us"),
        ("op.ewise_mult_vector_us", "us"),
        ("op.assign_scalar_vector_us", "us"),
        ("op.reduce_vector_us", "us"),
        ("op.extract_tuples_us", "us"),
        ("op.assign_masked_us", "us"),
        ("op.call_floor_us", "us"),
        ("baseline.copy_us", "us"),
    ] {
        m.push((name.into(), unit));
    }
    for op in OVER_COPY {
        m.push((format!("op.{op}_over_copy"), "x"));
    }
    m.push(("exec.wait_floor_us".into(), "us"));
    for kind in TRACE_KINDS {
        m.push((format!("exec.trace.{kind}_ms"), "ms"));
    }
    m.push(("exec.trace.queue_ms".into(), "ms"));
    for app in APPS {
        m.push((format!("exec.trace_covered_frac.{}", app.name()), "frac"));
    }
    m.push(("exec.trace_overhead_frac".into(), "frac"));
    for app in DIRECTION_APPS {
        for d in DIRECTIONS {
            m.push((format!("kernel.spmspv.{d}.{}", app.name()), "count"));
        }
    }
    for (name, unit) in [
        ("storage.build_ms", "ms"),
        ("storage.delta.set_ns", "ns"),
        ("storage.delta.flush_ms", "ms"),
        ("storage.snapshot.pin_us", "us"),
        ("storage.snapshot.pin_pending_us", "us"),
        ("storage.snapshot.compactions", "count"),
        ("storage.snapshot.background_flushes", "count"),
        ("storage.snapshot.compacted_bytes_per_write", "B"),
    ] {
        m.push((name.into(), unit));
    }
    for verb in SUBMIT_VERBS {
        m.push((format!("server.submit_us.{verb}"), "us"));
    }
    for (name, unit) in [
        ("server.net_us", "us"),
        ("server.bfs_per_batch", "count"),
        ("server.shed_frac", "frac"),
        ("serve_read_p99_ms", "ms"),
        ("serve_write_p99_ms", "ms"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// The traced run's state: the span recorder, the report, and the id
/// shared by the spans of one app call or request.
struct Tracer {
    rec: Recorder,
    rep: Report,
    next_id: u64,
}

impl Tracer {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Call `f` in spans named `name` until `budget` is spent and at
    /// least `min` spans are taken; each span covers `batch` calls.
    /// Returns the time per call in microseconds; errors are tallied.
    fn repeat(
        &mut self,
        name: &str,
        budget: Duration,
        min: usize,
        batch: usize,
        mut f: impl FnMut() -> std::result::Result<(), String>,
    ) -> Samples {
        let mut s = Samples::default();
        let start = Instant::now();
        while s.len() < min || (start.elapsed() < budget && s.len() < 20_000) {
            let id = self.id();
            // only failures allocate, so the span times the calls alone
            let (errors, us) = self.rec.span(name, id, |_| {
                (0..batch).filter_map(|_| f().err()).collect::<Vec<_>>()
            });
            for _ in errors.len()..batch {
                self.rep.tally("probe", Ok(()));
            }
            for e in errors {
                self.rep.tally("probe", Err(e));
            }
            s.push(us / batch as f64);
        }
        s
    }

    /// Run one layer's probes inside a parent span named `layer.<name>`,
    /// whose self time is then the harness's own time between calls.
    fn layer(&mut self, name: &str, f: impl FnOnce(&mut Tracer)) {
        let idx = self.rec.open(&format!("layer.{name}"), 0);
        f(self);
        self.rec.close(idx);
    }

    /// One app call in a span named `name`, checked and tallied.
    /// Returns the output, the call's time in microseconds, and the span
    /// id for spans that should share it.
    fn app_call(
        &mut self,
        name: &str,
        ctx: &Context,
        app: App,
        s: &Setup,
        o: &Oracle,
        k: usize,
    ) -> (Option<Output>, f64, u64) {
        let id = self.id();
        let (res, us) = self
            .rec
            .span(name, id, |_| apps::call(ctx, app, &s.loaded, o, k));
        let out = match res {
            Ok(out) => {
                self.rep.tally(app.name(), apps::check(app, &out, o, k));
                Some(out)
            }
            Err(e) => {
                self.rep
                    .tally(app.name(), Err(format!("{}: {e}", app.name())));
                None
            }
        };
        (out, us, id)
    }
}

/// A library result as the tally takes it.
fn ok<T>(r: Result<T>) -> std::result::Result<(), String> {
    r.map(drop).map_err(|e| e.to_string())
}

/// Run the traced invocation.
pub fn run(cfg: &Config) -> std::result::Result<Report, String> {
    let mut setup = Setup::build(cfg, "t")?;
    let refs = RefGraphs::new(&setup.app);
    let oracle = Oracle::prepare(cfg.workload, &setup.app, &refs, &cfg.sizes, cfg.seed);
    let serve_oracles = serve::oracles(&setup.serve_inputs, cfg.seed);
    let mut t = Tracer {
        rec: Recorder::default(),
        rep: Report::default(),
        next_id: 0,
    };
    let total = Duration::from_secs_f64(cfg.seconds);
    let share = |f: f64| total.mul_f64(f);

    t.layer("algorithms", |t| {
        algorithms_and_reference(t, cfg, &setup, &refs, &oracle, share(0.35));
        served_bfs(t, &setup, &serve_oracles, share(0.05));
    });
    t.layer("op", |t| ops(t, &setup, share(0.2)));
    t.layer("exec", |t| exec_and_kernel(t, &setup, &oracle, share(0.1)));
    t.layer("storage", |t| storage(t, &setup, share(0.05)));
    t.layer("server", |t| {
        server(t, &mut setup, &serve_oracles, cfg.seed, share(0.3))
    });
    setup.rig.shutdown();

    // emit in the documented order
    let mut rep = t.rep;
    let produced = std::mem::take(&mut rep.metrics);
    for (name, unit) in per_layer_metrics() {
        let m = produced
            .iter()
            .find(|m| m.name == name)
            .ok_or(format!("per-layer metric {name} was not measured"))?;
        assert_eq!(m.unit, unit, "unit of {name}");
        rep.metrics.push(m.clone());
    }
    let path = cfg
        .out_dir
        .join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    t.rec
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    rep.note(format!(
        "traced run: workload {} seed {} seconds {}; {} spans written to {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        t.rec.spans().len(),
        path.display()
    ));
    rep.note(serve::service_config_line());
    for (name, tot) in t.rec.totals() {
        rep.note(format!(
            "span {name}: count={} total_ms={:.3} self_ms={:.3}",
            tot.count, tot.total_ms, tot.self_ms
        ));
    }
    Ok(rep)
}

/// Each app in the workload's own context, and the reference on the
/// same input in a span with the same id.
fn algorithms_and_reference(
    t: &mut Tracer,
    cfg: &Config,
    s: &Setup,
    refs: &RefGraphs,
    o: &Oracle,
    budget: Duration,
) {
    let ctx = cfg.workload.context();
    let per_app = budget / APPS.len() as u32;
    let (mut pagerank_iters, mut bfs_depth) = (0, 0);
    for app in APPS {
        let (mut mine, mut theirs) = (Samples::default(), Samples::default());
        let start = Instant::now();
        let mut k = 0;
        while k < 2 || start.elapsed() < per_app {
            let (out, us, id) = t.app_call(&format!("app.{}", app.name()), &ctx, app, s, o, k);
            mine.push(us / 1e3);
            match out {
                Some(Output::Ranks(_, it)) => pagerank_iters = it,
                Some(Output::Levels(l)) if k == 0 => {
                    bfs_depth = l.iter().flatten().max().map_or(0, |d| d + 1)
                }
                _ => {}
            }
            let (_, us) = t.rec.span(&format!("reference.{}", app.name()), id, |_| {
                black_box(apps::reference_call(app, refs, o, k))
            });
            theirs.push(us / 1e3);
            k += 1;
        }
        let ratio = mine.median() / theirs.median();
        t.rep.note(format!(
            "ratio.{0}_vs_reference = {ratio:.3}: graphblas {1:.4} ms over base reference.{0}_ms = {2:.4} ms ({3} calls each, {4:?} context)",
            app.name(),
            mine.median(),
            theirs.median(),
            mine.len(),
            ctx.mode()
        ));
        t.rep.metric(
            format!("reference.{}_ms", app.name()),
            "ms",
            theirs.median(),
        );
        t.rep
            .metric(format!("ratio.{}_vs_reference", app.name()), "x", ratio);
    }
    t.rep
        .metric("algorithms.bfs_depth", "count", bfs_depth as f64);
    t.rep
        .metric("algorithms.pagerank_iters", "count", pagerank_iters as f64);
}

/// `bfs_levels` against a one-source `bfs_multi` on the served graphs,
/// read through a snapshot as the service reads them.
fn served_bfs(t: &mut Tracer, s: &Setup, oracles: &[GraphOracle], budget: Duration) {
    let ctx = Context::blocking();
    let graphs: Vec<_> = s
        .serve_inputs
        .iter()
        .map(|g| {
            let entry = s.rig.svc.graphs().get(&g.name).expect("served graph");
            entry.matrix.snapshot().to_matrix()
        })
        .collect();
    let mut rng = Lcg::new(7);
    let mut pick = move || {
        let gi = rng.below(graphs.len());
        let si = rng.below(oracles[gi].sources.len());
        (graphs[gi].clone(), &oracles[gi], si)
    };
    let mut picks: Vec<_> = (0..64).map(|_| pick()).collect();
    let mut i = 0;
    let levels = t.repeat("algorithms.bfs_levels", budget / 2, 10, 1, || {
        i = (i + 1) % picks.len();
        let (a, o, si) = &picks[i];
        let got = alg::bfs_levels(&ctx, a, o.sources[*si]).map_err(|e| e.to_string())?;
        serve::levels_ok(&got, o, *si)
    });
    picks.reverse();
    let multi = t.repeat("algorithms.bfs_multi_1src", budget / 2, 10, 1, || {
        i = (i + 1) % picks.len();
        let (a, o, si) = &picks[i];
        let got = alg::bfs_multi(&ctx, a, &[o.sources[*si]]).map_err(|e| e.to_string())?;
        serve::levels_ok(&got[0], o, *si)
    });
    t.rep
        .metric("algorithms.bfs_levels_us", "us", levels.median());
    t.rep
        .metric("algorithms.bfs_multi_1src_us", "us", multi.median());
}

/// Single blocking calls at the app graph's n.
fn ops(t: &mut Tracer, s: &Setup, budget: Duration) {
    let ctx = Context::blocking();
    let g = &s.loaded;
    let n = s.app.n;
    let each = budget / 12;
    let mut rng = Lcg::new(11);
    let frontier: Vec<(Index, bool)> = {
        let mut f: Vec<Index> = (0..(n / 100).max(1)).map(|_| rng.below(n)).collect();
        f.sort_unstable();
        f.dedup();
        f.into_iter().map(|i| (i, true)).collect()
    };
    let mut seen: Vec<(Index, i64)> = frontier.iter().map(|&(i, _)| (i, 1)).collect();
    seen.extend((0..n / 10).map(|_| (rng.below(n), 2)));
    seen.sort_unstable();
    seen.dedup_by_key(|e| e.0);
    let dense: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mk = || -> Result<_> {
        Ok((
            Vector::from_tuples(n, &frontier)?,
            Vector::from_tuples(n, &seen)?,
            Vector::from_dense(&dense)?,
            Vector::from_dense(&dense)?,
            Vector::from_dense(&[2.0f64; 16])?,
        ))
    };
    let Ok((q, visited, x, y, x16)) = mk() else {
        t.rep
            .tally("probe", Err("op inputs could not be built".into()));
        return;
    };
    let (out_q, w, w16) = (
        Vector::<bool>::new(n).expect("n > 0"),
        Vector::<f64>::new(n).expect("n > 0"),
        Vector::<f64>::new(16).expect("16 > 0"),
    );
    let levels = visited.dup();
    let c = Matrix::<u64>::new(n, n).expect("n > 0");
    let d = Descriptor::default();
    let push = Descriptor::default()
        .complement_mask()
        .structural_mask()
        .replace();

    let mut per_call: BTreeMap<&str, f64> = BTreeMap::new();
    let v = t.repeat("op.vxm_push", each, 20, 1, || {
        ok(ctx
            .vxm(&out_q, &visited, NoAccum, lor_land(), &q, &g.a, &push)
            .and_then(|_| out_q.nvals()))
    });
    per_call.insert("vxm_push", v.median());
    let v = t.repeat("op.vxm_dense", each, 10, 1, || {
        ok(ctx
            .vxm(
                &w,
                NoMask,
                Accum(Plus::<f64>::new()),
                plus_times::<f64>(),
                &x,
                &g.aw,
                &d,
            )
            .and_then(|_| w.nvals()))
    });
    per_call.insert("vxm_dense", v.median());
    let v = t.repeat("op.mxm_masked", each, 3, 1, || {
        ok(ctx
            .mxm(
                &c,
                &g.a_und,
                NoAccum,
                SemiringDef::new(PlusMonoid::<u64>::new(), Pair::<bool, bool, u64>::new()),
                &g.a_und,
                &g.a_und,
                &Descriptor::default().structural_mask().replace(),
            )
            .and_then(|_| c.nvals()))
    });
    per_call.insert("mxm_masked", v.median());
    let v = t.repeat("op.apply_vector", each, 20, 1, || {
        ok(ctx
            .apply_vector(&w, NoMask, NoAccum, Minv::<f64>::new(), &x, &d)
            .and_then(|_| w.nvals()))
    });
    per_call.insert("apply_vector", v.median());
    let v = t.repeat("op.ewise_add_vector", each, 20, 1, || {
        ok(ctx
            .ewise_add_vector(&w, NoMask, NoAccum, Plus::<f64>::new(), &x, &y, &d)
            .and_then(|_| w.nvals()))
    });
    per_call.insert("ewise_add_vector", v.median());
    let v = t.repeat("op.ewise_mult_vector", each, 20, 1, || {
        ok(ctx
            .ewise_mult_vector(&w, NoMask, NoAccum, Times::<f64>::new(), &x, &y, &d)
            .and_then(|_| w.nvals()))
    });
    per_call.insert("ewise_mult_vector", v.median());
    let v = t.repeat("op.assign_scalar_vector", each, 20, 1, || {
        ok(ctx
            .assign_scalar_vector(&w, NoMask, NoAccum, 1.0f64, ALL, &d)
            .and_then(|_| w.nvals()))
    });
    per_call.insert("assign_scalar_vector", v.median());
    let v = t.repeat("op.reduce_vector", each, 20, 1, || {
        ok(ctx
            .reduce_vector_to_scalar(PlusMonoid::<f64>::new(), &x)
            .map(black_box))
    });
    per_call.insert("reduce_vector", v.median());
    let v = t.repeat("op.extract_tuples", each, 20, 1, || {
        ok(x.extract_tuples().map(black_box))
    });
    per_call.insert("extract_tuples", v.median());
    let v = t.repeat("op.assign_masked", each, 20, 1, || {
        ok(ctx
            .assign_scalar_vector(&levels, &q, NoAccum, 1i64, ALL, &d)
            .and_then(|_| levels.nvals()))
    });
    per_call.insert("assign_masked", v.median());
    let v = t.repeat("op.call_floor", each, 20, 64, || {
        ok(ctx
            .apply_vector(&w16, NoMask, NoAccum, Minv::<f64>::new(), &x16, &d)
            .and_then(|_| w16.nvals()))
    });
    per_call.insert("call_floor", v.median());
    let copy = t.repeat("baseline.copy", each, 20, 16, || {
        black_box(black_box(&dense).clone());
        Ok(())
    });
    let copy_us = copy.median();
    for (name, us) in &per_call {
        if *name == "mxm_masked" {
            t.rep.metric("op.mxm_masked_ms", "ms", us / 1e3);
        } else {
            t.rep.metric(format!("op.{name}_us"), "us", *us);
        }
    }
    t.rep.metric("baseline.copy_us", "us", copy_us);
    for name in OVER_COPY {
        t.rep.metric(
            format!("op.{name}_over_copy"),
            "x",
            per_call[name] / copy_us,
        );
    }
}

/// The apps once each in a traced nonblocking context; the `wait()`
/// floor; and what tracing costs a nonblocking BFS.
fn exec_and_kernel(t: &mut Tracer, s: &Setup, o: &Oracle, budget: Duration) {
    let nb = Context::nonblocking();
    nb.enable_trace(true);
    let mut kind_ms: BTreeMap<&str, f64> = TRACE_KINDS.iter().map(|&k| (k, 0.0)).collect();
    let mut queue_ms = 0.0;
    for app in APPS {
        nb.take_trace();
        let (_, us, _) = t.app_call(&format!("exec.app.{}", app.name()), &nb, app, s, o, 0);
        let events = nb.take_trace();
        let run_ms = events
            .iter()
            .fold(0.0, |acc, e| acc + e.run_ns() as f64 / 1e6);
        t.rep.metric(
            format!("exec.trace_covered_frac.{}", app.name()),
            "frac",
            run_ms * 1e3 / us,
        );
        for e in &events {
            if let Some(ms) = kind_ms.get_mut(e.kind) {
                *ms += e.run_ns() as f64 / 1e6;
            }
            queue_ms += e.queue_ns() as f64 / 1e6;
        }
        if DIRECTION_APPS.contains(&app) {
            for d in DIRECTIONS {
                let count = events.iter().filter(|e| e.direction == Some(d)).count();
                t.rep.metric(
                    format!("kernel.spmspv.{d}.{}", app.name()),
                    "count",
                    count as f64,
                );
            }
        }
    }
    for (kind, ms) in kind_ms {
        t.rep.metric(format!("exec.trace.{kind}_ms"), "ms", ms);
    }
    t.rep.metric("exec.trace.queue_ms", "ms", queue_ms);

    // tracing overhead: traced and untraced nonblocking BFS, alternated
    let plain = Context::nonblocking();
    let (mut on, mut off) = (Samples::default(), Samples::default());
    let start = Instant::now();
    let mut k = 0;
    while k < 3 || start.elapsed() < budget / 2 {
        let mut pair = [
            (&nb, &mut on, "exec.bfs_traced"),
            (&plain, &mut off, "exec.bfs_untraced"),
        ];
        // alternate which goes first, so neither always runs warm
        if k % 2 == 1 {
            pair.reverse();
        }
        for (ctx, samples, name) in pair {
            let (_, us, _) = t.app_call(name, ctx, App::Bfs, s, o, k);
            samples.push(us);
        }
        nb.take_trace();
        k += 1;
    }
    t.rep.metric(
        "exec.trace_overhead_frac",
        "frac",
        on.median() / off.median() - 1.0,
    );

    let x16 = Vector::from_dense(&[2.0f64; 16]).expect("16 > 0");
    let w16 = Vector::<f64>::new(16).expect("16 > 0");
    let d = Descriptor::default();
    let floor = t.repeat("exec.wait_floor", budget / 2, 20, 64, || {
        ok(plain
            .apply_vector(&w16, NoMask, NoAccum, Minv::<f64>::new(), &x16, &d)
            .and_then(|_| plain.wait()))
    });
    t.rep.metric("exec.wait_floor_us", "us", floor.median());
}

/// Build, delta-log sets, the forcing read that merges them, and
/// snapshot pins with and without pending runs.
fn storage(t: &mut Tracer, s: &Setup, budget: Duration) {
    let n = s.app.n;
    let tuples = s.app.directed.bool_tuples();
    let build = t.repeat("storage.build", budget / 2, 3, 1, || {
        ok(Matrix::from_tuples(n, n, &tuples).and_then(|m| m.nvals()))
    });
    t.rep.metric("storage.build_ms", "ms", build.median() / 1e3);

    let mut rng = Lcg::new(13);
    let (mut set_ns, mut flush_ms, mut pin_clean, mut pin_pending) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let start = Instant::now();
    while set_ns.len() < 3 || start.elapsed() < budget / 2 {
        let m = s.loaded.a.dup();
        let writes: Vec<(Index, Index)> = (0..DELTA_BATCH)
            .map(|_| (rng.below(n), rng.below(n)))
            .collect();
        let id = t.id();
        let (res, us) = t.rec.span("storage.delta.set", id, |_| {
            writes.iter().try_for_each(|&(u, v)| m.set(u, v, true))
        });
        t.rep.tally("probe", ok(res));
        set_ns.push(us * 1e3 / DELTA_BATCH as f64);
        let (_, us) = t.rec.span("storage.snapshot.pin_pending", id, |_| {
            black_box(m.snapshot().to_matrix())
        });
        pin_pending.push(us);
        let (res, us) = t.rec.span("storage.delta.flush", id, |_| m.nvals());
        t.rep.tally("probe", ok(res));
        flush_ms.push(us / 1e3);
        let (_, us) = t.rec.span("storage.snapshot.pin", id, |_| {
            black_box(m.snapshot().to_matrix())
        });
        pin_clean.push(us);
    }
    t.rep.metric("storage.delta.set_ns", "ns", set_ns.median());
    t.rep
        .metric("storage.delta.flush_ms", "ms", flush_ms.median());
    t.rep
        .metric("storage.snapshot.pin_us", "us", pin_clean.median());
    t.rep.metric(
        "storage.snapshot.pin_pending_us",
        "us",
        pin_pending.median(),
    );
}

/// In-process submits per verb, the TCP cost over a submit, and a
/// closed-loop window for coalescing, shedding and compaction counts.
fn server(t: &mut Tracer, s: &mut Setup, oracles: &[GraphOracle], seed: u64, budget: Duration) {
    let inputs: &[ServeInput] = &s.serve_inputs;
    let svc = s.rig.svc.clone();
    let each = budget / 20;
    let mut rng = Lcg::new(seed ^ 0x5e7);
    let mut submit_us = BTreeMap::new();
    for verb in SUBMIT_VERBS {
        let name = format!("server.submit.{verb}");
        let samples = t.repeat(&name, each, 20, 1, || {
            let gi = rng.below(inputs.len());
            let (g, o) = (&inputs[gi], &oracles[gi]);
            let graph = g.name.clone();
            let v = rng.below(o.n);
            let si = rng.below(o.sources.len());
            // odd pool entries start absent: add one, then take it out
            // again outside the timed call so the graph stays as it was
            let odd = g.pool[(2 * rng.below(g.pool.len() / 2) + 1) % g.pool.len()];
            let (verb, req) = match verb {
                "bfs" => (
                    Verb::Bfs,
                    Request::Bfs {
                        graph,
                        src: o.sources[si],
                    },
                ),
                "hop" => (Verb::Hop, Request::OneHop { graph, v }),
                "deg" => (Verb::Deg, Request::Degree { graph, v }),
                "has" => {
                    let (u, v) = g.base.edges[rng.below(g.base.edges.len())];
                    (Verb::Has, Request::HasEdge { graph, u, v })
                }
                _ => (
                    Verb::EdgeAdd,
                    Request::AddEdge {
                        graph,
                        u: odd.0,
                        v: odd.1,
                    },
                ),
            };
            let reply = svc.submit("probe", req.clone());
            serve::check(verb, &req, &reply, o, si)
        });
        if verb == "edge_add" {
            for g in inputs {
                for &(u, v) in g.pool.iter().skip(1).step_by(2) {
                    let reply = svc.submit(
                        "probe",
                        Request::RemoveEdge {
                            graph: g.name.clone(),
                            u,
                            v,
                        },
                    );
                    t.rep.tally(
                        "probe",
                        match reply {
                            Reply::Ok => Ok(()),
                            r => Err(format!("restoring pool: {r:?}")),
                        },
                    );
                }
            }
        }
        submit_us.insert(verb, samples.median());
        t.rep
            .metric(format!("server.submit_us.{verb}"), "us", samples.median());
    }

    // the TCP round trip on top of an in-process DEG
    let (mut call, mut direct) = (Samples::default(), Samples::default());
    let start = Instant::now();
    let g = &inputs[0];
    while call.len() < 20 || start.elapsed() < 2 * each {
        let v = rng.below(oracles[0].n);
        let req = Request::Degree {
            graph: g.name.clone(),
            v,
        };
        let id = t.id();
        let client = &mut s.rig.clients[0];
        let (reply, us) = t.rec.span("server.call.deg", id, |_| client.call(&req));
        t.rep.tally(
            "probe",
            match reply {
                Ok(r) => serve::check(Verb::Deg, &req, &r, &oracles[0], 0),
                Err(e) => Err(e.to_string()),
            },
        );
        call.push(us);
        let (reply, us) = t.rec.span("server.submit.deg", id, |_| {
            svc.submit("probe", req.clone())
        });
        t.rep.tally(
            "probe",
            serve::check(Verb::Deg, &req, &reply, &oracles[0], 0),
        );
        direct.push(us);
    }
    t.rep
        .metric("server.net_us", "us", call.median() - direct.median());

    let failed0 = t.rep.failed;
    serve::closed_loop(
        &mut s.rig,
        inputs,
        oracles,
        crate::SERVE_WARMUP,
        seed ^ 1,
        &mut t.rep,
    );
    let attempted0 = t.rep.attempted;
    let w = serve::closed_loop(
        &mut s.rig,
        inputs,
        oracles,
        budget * 2 / 3,
        seed,
        &mut t.rep,
    );
    let attempted = t.rep.attempted - attempted0;
    t.rep.note(format!(
        "traced closed loop {:.2}s: ops={} bfs_requests={} bfs_batches={} shed={} failed={} compactions={} background_flushes={} compacted_bytes={} writes={}",
        w.secs,
        w.ops,
        w.bfs_requests,
        w.bfs_batches,
        w.shed,
        t.rep.failed - failed0,
        w.compactions,
        w.background_flushes,
        w.compacted_bytes,
        w.write.len()
    ));
    t.rep.metric(
        "server.bfs_per_batch",
        "count",
        w.bfs_requests as f64 / w.bfs_batches.max(1) as f64,
    );
    t.rep.metric(
        "server.shed_frac",
        "frac",
        w.shed as f64 / attempted.max(1) as f64,
    );
    t.rep.note(w.read.describe("serve_read_ms", "ms"));
    t.rep.note(w.write.describe("serve_write_ms", "ms"));
    t.rep
        .metric("serve_read_p99_ms", "ms", w.read.quantile(0.99));
    t.rep
        .metric("serve_write_p99_ms", "ms", w.write.quantile(0.99));
    t.rep.metric(
        "storage.snapshot.compactions",
        "count",
        w.compactions as f64,
    );
    t.rep.metric(
        "storage.snapshot.background_flushes",
        "count",
        w.background_flushes as f64,
    );
    t.rep.metric(
        "storage.snapshot.compacted_bytes_per_write",
        "B",
        w.compacted_bytes as f64 / w.write.len().max(1) as f64,
    );
}
