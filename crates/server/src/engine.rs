//! Request execution against the GraphBLAS engine: every query is a
//! (small) GraphBLAS program over the named graph's adjacency matrix,
//! run on the service's shared blocking [`Context`] — which means the
//! heavy kernels inside (mxm, mxv, the delta-log overlay merge) fan out
//! onto the engine's shared worker pool exactly like library use.
//!
//! Every read (HAS/DEG/HOP/BFS/PR) runs against an MVCC **snapshot** of
//! the adjacency matrix pinned at the request's start: `EDGE+`/`EDGE-`
//! traffic keeps appending to the live handle's delta log (merged by
//! the engine's background auto-flusher) and never stalls a reader —
//! nor does a long PageRank ever stall ingest.
//!
//! The one batched path: a coalesced BFS [`Batch`] becomes a single
//! [`bfs_multi`] call — the §VII column-block frontier sweep — and the
//! per-source level vectors are demultiplexed back to the individual
//! requests' reply slots. A batch of any size, one source included,
//! takes that path: each level's masked `mxm` picks its own form from
//! the snapshot's cached degrees, pushing sparse frontier blocks through
//! the pinned adjacency's native rows (no transpose of a freshly pinned
//! snapshot) and switching to the Gustavson pull only near a wide
//! batch's peak.

use std::sync::atomic::Ordering;

use graphblas_algorithms::{bfs_multi, pagerank};
use graphblas_core::prelude::*;

use crate::graphs::{GraphEntry, Registry};
use crate::protocol::{Reply, Request};
use crate::sched::{Batch, Job};
use crate::stats::ServiceStats;

/// Cap on PageRank power iterations a single request may demand.
const PR_MAX_ITERS: usize = 100;

/// Run one scheduler batch to completion, filling every job's reply
/// slot and recording per-tenant latency.
pub(crate) fn run_batch(ctx: &Context, graphs: &Registry, stats: &ServiceStats, batch: Batch) {
    let is_bfs_batch = batch
        .jobs
        .first()
        .is_some_and(|j| matches!(j.request, Request::Bfs { .. }));
    if is_bfs_batch {
        run_bfs_batch(ctx, graphs, stats, batch.jobs);
    } else {
        for job in batch.jobs {
            let reply = execute_one(ctx, graphs, &job.request);
            finish(job, reply);
        }
    }
}

/// Fill the slot and account the job done (latency + counters).
fn finish(job: Job, reply: Reply) {
    let counters = &job.tenant.counters;
    match &reply {
        Reply::Err(_) => counters.errors.fetch_add(1, Ordering::Relaxed),
        _ => counters.completed.fetch_add(1, Ordering::Relaxed),
    };
    job.tenant
        .latency
        .record(job.submitted.elapsed().as_nanos() as u64);
    job.slot.fill(reply);
}

/// The coalesced path: one `bfs_multi` for the whole same-graph batch.
fn run_bfs_batch(ctx: &Context, graphs: &Registry, stats: &ServiceStats, jobs: Vec<Job>) {
    let graph_name = match &jobs[0].request {
        Request::Bfs { graph, .. } => graph.clone(),
        _ => unreachable!("run_bfs_batch only receives BFS jobs"),
    };
    let Some(entry) = graphs.get(&graph_name) else {
        for job in jobs {
            finish(job, Reply::Err(format!("no such graph {graph_name:?}")));
        }
        return;
    };
    // per-request validation first, so one bad source cannot poison the
    // whole batch
    let mut valid: Vec<Job> = Vec::with_capacity(jobs.len());
    let mut sources: Vec<Index> = Vec::with_capacity(jobs.len());
    for job in jobs {
        match &job.request {
            Request::Bfs { src, .. } if *src < entry.nodes => {
                sources.push(*src);
                valid.push(job);
            }
            Request::Bfs { src, .. } => {
                let src = *src;
                finish(job, Reply::Err(format!("source {src} out of range")));
            }
            _ => unreachable!("run_bfs_batch only receives BFS jobs"),
        }
    }
    if valid.is_empty() {
        return;
    }
    stats.note_bfs_batch(valid.len());
    // One snapshot for the whole batch: every coalesced source sweeps
    // the same frozen adjacency, and concurrent EDGE+/- never stall it.
    let frozen = entry.matrix.snapshot().to_matrix();
    match bfs_multi(ctx, &frozen, &sources) {
        Ok(levels) => {
            for (job, per_source) in valid.into_iter().zip(levels) {
                let ls: Vec<i64> = per_source
                    .iter()
                    .map(|l| l.map_or(-1, |d| d as i64))
                    .collect();
                finish(job, Reply::Levels(ls));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for job in valid {
                finish(job, Reply::Err(msg.clone()));
            }
        }
    }
}

fn with_graph(graphs: &Registry, name: &str, f: impl FnOnce(&GraphEntry) -> Reply) -> Reply {
    match graphs.get(name) {
        Some(entry) => f(&entry),
        None => Reply::Err(format!("no such graph {name:?}")),
    }
}

fn check_bounds(entry: &GraphEntry, ids: &[Index]) -> Option<Reply> {
    ids.iter().find(|&&i| i >= entry.nodes).map(|&i| {
        Reply::Err(format!(
            "vertex {i} out of range (graph has {} nodes)",
            entry.nodes
        ))
    })
}

fn err_reply(e: Error) -> Reply {
    Reply::Err(e.to_string())
}

/// The out-neighborhood of `v` as a stored-index vector: one `vxm` of
/// the indicator vector against a snapshot of the adjacency (lor.land).
fn neighbors(ctx: &Context, entry: &GraphEntry, v: Index) -> Result<Vec<Index>> {
    let n = entry.nodes;
    let e = Vector::from_tuples(n, &[(v, true)])?;
    let w = Vector::<bool>::new(n)?;
    let frozen = entry.matrix.snapshot().to_matrix();
    ctx.vxm(
        &w,
        NoMask,
        NoAccum,
        lor_land(),
        &e,
        &frozen,
        &Descriptor::default().replace(),
    )?;
    Ok(w.extract_tuples()?.into_iter().map(|(i, _)| i).collect())
}

/// Execute one non-batched request.
pub(crate) fn execute_one(ctx: &Context, graphs: &Registry, request: &Request) -> Reply {
    match request {
        Request::AddEdge { graph, u, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*u, *v]) {
                return r;
            }
            // O(1) amortized: appends to the matrix's pending-update
            // delta log; merged at the next completion-forcing read
            match entry.matrix.set(*u, *v, true) {
                Ok(()) => Reply::Ok,
                Err(e) => err_reply(e),
            }
        }),
        Request::RemoveEdge { graph, u, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*u, *v]) {
                return r;
            }
            match entry.matrix.remove(*u, *v) {
                Ok(()) => Reply::Ok,
                Err(e) => err_reply(e),
            }
        }),
        Request::HasEdge { graph, u, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*u, *v]) {
                return r;
            }
            // Snapshot point probe: binary-searches the sealed runs and
            // falls back to the base — never drains the writers' log.
            match entry.matrix.snapshot().get(*u, *v) {
                Ok(x) => Reply::Bool(x.is_some()),
                Err(e) => err_reply(e),
            }
        }),
        Request::Degree { graph, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*v]) {
                return r;
            }
            match neighbors(ctx, entry, *v) {
                Ok(ids) => Reply::Count(ids.len() as u64),
                Err(e) => err_reply(e),
            }
        }),
        Request::OneHop { graph, v } => with_graph(graphs, graph, |entry| {
            if let Some(r) = check_bounds(entry, &[*v]) {
                return r;
            }
            match neighbors(ctx, entry, *v) {
                Ok(ids) => Reply::Ids(ids),
                Err(e) => err_reply(e),
            }
        }),
        Request::Bfs { .. } => {
            unreachable!("BFS is always routed through run_bfs_batch")
        }
        Request::Pagerank { graph, iters } => with_graph(graphs, graph, |entry| {
            let iters = (*iters).clamp(1, PR_MAX_ITERS);
            let frozen = entry.matrix.snapshot().to_matrix();
            match pagerank(ctx, &frozen, 0.85, 1e-9, iters) {
                Ok((ranks, _)) => Reply::Ranks(ranks),
                Err(e) => err_reply(e),
            }
        }),
        // control-plane requests are answered inline by the service
        Request::Hello { .. } | Request::CreateGraph { .. } | Request::Stats => {
            Reply::Err("control request reached the execution engine".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup() -> (Context, Registry) {
        let ctx = Context::blocking();
        let graphs = Registry::new();
        graphs.create("g", 6, None).unwrap();
        let g = graphs.get("g").unwrap();
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
            g.matrix.set(u, v, true).unwrap();
        }
        (ctx, graphs)
    }

    #[test]
    fn point_ops_and_neighborhood() {
        let (ctx, graphs) = setup();
        let has = |u, v| {
            execute_one(
                &ctx,
                &graphs,
                &Request::HasEdge {
                    graph: "g".into(),
                    u,
                    v,
                },
            )
        };
        assert_eq!(has(0, 1), Reply::Bool(true));
        assert_eq!(has(1, 0), Reply::Bool(false));
        assert_eq!(
            execute_one(
                &ctx,
                &graphs,
                &Request::Degree {
                    graph: "g".into(),
                    v: 0
                }
            ),
            Reply::Count(2)
        );
        assert_eq!(
            execute_one(
                &ctx,
                &graphs,
                &Request::OneHop {
                    graph: "g".into(),
                    v: 0
                }
            ),
            Reply::Ids(vec![1, 2])
        );
        assert_eq!(
            execute_one(
                &ctx,
                &graphs,
                &Request::RemoveEdge {
                    graph: "g".into(),
                    u: 0,
                    v: 1
                }
            ),
            Reply::Ok
        );
        assert_eq!(has(0, 1), Reply::Bool(false));
    }

    #[test]
    fn missing_graph_and_bounds_are_typed_errors() {
        let (ctx, graphs) = setup();
        assert!(matches!(
            execute_one(
                &ctx,
                &graphs,
                &Request::Degree {
                    graph: "nope".into(),
                    v: 0
                }
            ),
            Reply::Err(_)
        ));
        assert!(matches!(
            execute_one(
                &ctx,
                &graphs,
                &Request::HasEdge {
                    graph: "g".into(),
                    u: 0,
                    v: 99
                }
            ),
            Reply::Err(_)
        ));
    }

    #[test]
    fn pagerank_runs_and_sums_to_one() {
        let (ctx, graphs) = setup();
        let Reply::Ranks(r) = execute_one(
            &ctx,
            &graphs,
            &Request::Pagerank {
                graph: "g".into(),
                iters: 30,
            },
        ) else {
            panic!("expected ranks")
        };
        assert_eq!(r.len(), 6);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum={sum}");
    }

    #[test]
    fn bfs_batch_demuxes_per_request() {
        use crate::sched::ReplySlot;
        use std::time::Instant;
        let (ctx, graphs) = setup();
        let stats = ServiceStats::default();
        let tenant = Arc::new(crate::sched::Tenant {
            name: "t".into(),
            weight: 1,
            counters: Default::default(),
            latency: crate::stats::Histogram::new(),
        });
        let mk = |src| crate::sched::Job {
            tenant: tenant.clone(),
            request: Request::Bfs {
                graph: "g".into(),
                src,
            },
            submitted: Instant::now(),
            slot: ReplySlot::new(),
        };
        let jobs = vec![mk(0), mk(3), mk(99)]; // 99: out of range
        let slots: Vec<_> = jobs.iter().map(|j| j.slot.clone()).collect();
        run_batch(&ctx, &graphs, &stats, Batch { jobs });
        assert_eq!(
            slots[0].wait(),
            Reply::Levels(vec![0, 1, 1, 2, 3, -1]),
            "levels from 0"
        );
        assert_eq!(slots[1].wait(), Reply::Levels(vec![-1, -1, -1, 0, 1, -1]));
        assert!(matches!(slots[2].wait(), Reply::Err(_)));
        assert_eq!(stats.bfs_requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.bfs_batches.load(Ordering::Relaxed), 1);
    }
}
