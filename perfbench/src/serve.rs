//! The query service under closed-loop load: an in-process
//! `server::Server` on TCP loopback, [`CLIENTS`] `server::Client`s that
//! each wait for their reply before sending the next request, and the
//! E10 request mix against R-MAT graphs.
//!
//! Writes are stationary: `EDGE+` and `EDGE-` draw from one fixed pool
//! of candidate edges per graph, half of which start present, so the
//! expected edge count stays constant and read latency does not drift
//! as a run goes on. Base edges are never written, which lets every
//! reply be checked while writes run: a BFS level lies between the
//! levels on the base graph and on base plus every candidate, a degree
//! or neighbourhood lies between base and base plus the candidates at
//! that vertex, and a base edge is always present.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphblas_core::snapshot_stats;
use graphblas_gen::EdgeList;
use graphblas_reference as refr;
use graphblas_reference::AdjGraph;
use server::{Client, Reply, Request, Server, Service, ServiceConfig};

use crate::inputs::{rmat_graph, wide_sources, GRAPH_SEED};
use crate::stats::{Lcg, Report, Samples};
use crate::Sizes;

/// The service configuration every run uses (printed with the results).
pub const SERVICE_CONFIG: ServiceConfig = ServiceConfig {
    workers: 2,
    queue_cap: 64,
    batch_max: 64,
    pool_backlog_cap: 4096,
    default_weight: 1,
};

/// Closed-loop callers; no more than the two cores the sizing assumes.
pub const CLIENTS: usize = 2;

/// BFS sources per graph, drawn from the wide-reach set.
const SOURCES: usize = 8;

pub fn service_config_line() -> String {
    let c = SERVICE_CONFIG;
    format!(
        "service_config workers={} queue_cap={} batch_max={} pool_backlog_cap={} default_weight={} clients={CLIENTS} (closed loop, TCP loopback)",
        c.workers, c.queue_cap, c.batch_max, c.pool_backlog_cap, c.default_weight
    )
}

/// The `gi`-th graph the service holds.
fn serve_graph(sizes: &Sizes, gi: usize) -> EdgeList {
    rmat_graph(sizes.serve_scale, GRAPH_SEED + 1 + gi as u64)
}

/// One served graph: its base edges and its write pool.
pub struct ServeInput {
    pub name: String,
    pub base: EdgeList,
    /// Candidate edges, disjoint from the base and free of self-loops.
    pub pool: Vec<(usize, usize)>,
}

/// The served graphs with their write pools. Like the base edges, the
/// pools come from [`GRAPH_SEED`], not the run's seed: the half of a
/// pool that is present adds about a seventh to a graph's edges, and
/// which edges they are would move BFS times between seeds.
pub fn generate(sizes: &Sizes) -> Vec<ServeInput> {
    (0..sizes.serve_graphs)
        .map(|gi| {
            let base = serve_graph(sizes, gi);
            let present: HashSet<(usize, usize)> = base.edges.iter().copied().collect();
            let mut rng = Lcg::new(GRAPH_SEED ^ (0xab5 + gi as u64));
            let mut pool = Vec::with_capacity(sizes.write_pool);
            let mut seen = HashSet::new();
            while pool.len() < sizes.write_pool {
                let e = (rng.below(base.n), rng.below(base.n));
                if e.0 != e.1 && !present.contains(&e) && seen.insert(e) {
                    pool.push(e);
                }
            }
            ServeInput {
                name: format!("g{gi}"),
                base,
                pool,
            }
        })
        .collect()
}

/// A running service with its graphs loaded and clients connected.
pub struct Rig {
    pub svc: Arc<Service>,
    pub server: Server,
    pub clients: Vec<Client>,
}

impl Rig {
    /// Start the service, load every graph (base edges plus the even
    /// half of the pool) through the registry, force each load, connect
    /// the clients and send each one warm-up request per graph.
    pub fn start(inputs: &[ServeInput], tag: &str) -> Result<Rig, String> {
        let svc = Service::start(SERVICE_CONFIG);
        let server = Server::bind("127.0.0.1:0", svc.clone()).map_err(|e| e.to_string())?;
        for g in inputs {
            svc.graphs().create(&g.name, g.base.n, None)?;
            let entry = svc.graphs().get(&g.name).ok_or("graph vanished")?;
            let even = g.pool.iter().step_by(2);
            for &(u, v) in g.base.edges.iter().chain(even) {
                entry.matrix.set(u, v, true).map_err(|e| e.to_string())?;
            }
            entry.matrix.nvals().map_err(|e| e.to_string())?;
        }
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut client = Client::connect(server.addr(), &format!("{tag}c{c}"), 1)
                .map_err(|e| e.to_string())?;
            for g in inputs {
                client
                    .call(&Request::Degree {
                        graph: g.name.clone(),
                        v: 0,
                    })
                    .map_err(|e| e.to_string())?;
            }
            clients.push(client);
        }
        Ok(Rig {
            svc,
            server,
            clients,
        })
    }

    /// Force every served graph's pending writes into its matrix, so the
    /// background flusher has nothing left to do when the apps run next.
    pub fn quiesce(&self, inputs: &[ServeInput]) -> Result<(), String> {
        for g in inputs {
            let entry = self.svc.graphs().get(&g.name).ok_or("graph vanished")?;
            entry.matrix.nvals().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
        self.svc.shutdown();
    }
}

/// What a correct reply may be, per graph.
pub struct GraphOracle {
    pub n: usize,
    pub base: AdjGraph,
    /// Pool candidates leaving each vertex.
    pub pool_out: Vec<Vec<usize>>,
    pub sources: Vec<usize>,
    /// BFS levels on the base graph: an upper bound on every reply.
    pub hi: Vec<Vec<Option<usize>>>,
    /// BFS levels on base plus the whole pool: a lower bound.
    pub lo: Vec<Vec<Option<usize>>>,
}

pub fn oracles(inputs: &[ServeInput], seed: u64) -> Vec<GraphOracle> {
    inputs
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let n = g.base.n;
            let base = AdjGraph::from_edges(n, &g.base.edges);
            let all: Vec<(usize, usize)> = g.base.edges.iter().chain(&g.pool).copied().collect();
            let full = AdjGraph::from_edges(n, &all);
            let mut pool_out = vec![Vec::new(); n];
            for &(u, v) in &g.pool {
                pool_out[u].push(v);
            }
            let sources = wide_sources(&base, SOURCES, seed ^ (0x50 + gi as u64));
            GraphOracle {
                n,
                hi: sources
                    .iter()
                    .map(|&s| refr::traversal::bfs_levels(&base, s))
                    .collect(),
                lo: sources
                    .iter()
                    .map(|&s| refr::traversal::bfs_levels(&full, s))
                    .collect(),
                base,
                pool_out,
                sources,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Bfs,
    Hop,
    Deg,
    Has,
    EdgeAdd,
    EdgeDel,
}

pub const VERBS: [Verb; 6] = [
    Verb::Bfs,
    Verb::Hop,
    Verb::Deg,
    Verb::Has,
    Verb::EdgeAdd,
    Verb::EdgeDel,
];

impl Verb {
    pub fn is_write(self) -> bool {
        matches!(self, Verb::EdgeAdd | Verb::EdgeDel)
    }
}

/// Draw one request of the E10 mix: 40% BFS, 10% HOP, 10% DEG, 10% HAS
/// (half on base edges, half on pool candidates), 15% EDGE+, 15% EDGE-.
/// Returns the verb, the request, and the index of `(graph, source)`
/// used for BFS checks.
pub fn draw(
    rng: &mut Lcg,
    inputs: &[ServeInput],
    oracles: &[GraphOracle],
) -> (Verb, Request, usize, usize) {
    let gi = rng.below(inputs.len());
    let (g, o) = (&inputs[gi], &oracles[gi]);
    let graph = g.name.clone();
    let pick = rng.below(100);
    let v = rng.below(o.n);
    match pick {
        0..=39 => {
            let si = rng.below(o.sources.len());
            let src = o.sources[si];
            (Verb::Bfs, Request::Bfs { graph, src }, gi, si)
        }
        40..=49 => (Verb::Hop, Request::OneHop { graph, v }, gi, 0),
        50..=59 => (Verb::Deg, Request::Degree { graph, v }, gi, 0),
        60..=69 => {
            let (u, v) = if rng.below(2) == 0 {
                g.base.edges[rng.below(g.base.edges.len())]
            } else {
                g.pool[rng.below(g.pool.len())]
            };
            (Verb::Has, Request::HasEdge { graph, u, v }, gi, 0)
        }
        70..=84 => {
            let (u, v) = g.pool[rng.below(g.pool.len())];
            (Verb::EdgeAdd, Request::AddEdge { graph, u, v }, gi, 0)
        }
        _ => {
            let (u, v) = g.pool[rng.below(g.pool.len())];
            (Verb::EdgeDel, Request::RemoveEdge { graph, u, v }, gi, 0)
        }
    }
}

/// BFS levels from `o.sources[si]` as a traversal of the served graph
/// may return them while writes run.
pub fn levels_ok(levels: &[Option<usize>], o: &GraphOracle, si: usize) -> Result<(), String> {
    let key = |l: Option<usize>| l.unwrap_or(usize::MAX);
    let ok = levels.len() == o.n
        && levels
            .iter()
            .enumerate()
            .all(|(v, &l)| key(o.lo[si][v]) <= key(l) && key(l) <= key(o.hi[si][v]));
    if ok {
        Ok(())
    } else {
        Err(format!("BFS levels from {} out of bounds", o.sources[si]))
    }
}

/// Check a reply while writes may be running (see the module docs).
pub fn check(
    verb: Verb,
    req: &Request,
    reply: &Reply,
    o: &GraphOracle,
    si: usize,
) -> Result<(), String> {
    let bad = || Err(format!("{verb:?} {req:?} -> {reply:?}"));
    match (req, reply) {
        (_, Reply::Overloaded) => Err(format!("{verb:?} shed by admission control")),
        (_, Reply::Err(e)) => Err(format!("{verb:?} error: {e}")),
        (Request::Bfs { .. }, Reply::Levels(l)) => {
            let levels: Vec<Option<usize>> = l.iter().map(|&x| usize::try_from(x).ok()).collect();
            levels_ok(&levels, o, si).or_else(|_| bad())
        }
        (Request::OneHop { v, .. }, Reply::Ids(ids)) => {
            let sorted = ids.windows(2).all(|w| w[0] < w[1]);
            let base = &o.base.adj[*v];
            let has_base = base.iter().all(|x| ids.binary_search(x).is_ok());
            let in_range = ids
                .iter()
                .all(|x| base.binary_search(x).is_ok() || o.pool_out[*v].contains(x));
            if sorted && has_base && in_range {
                Ok(())
            } else {
                bad()
            }
        }
        (Request::Degree { v, .. }, Reply::Count(c)) => {
            let lo = o.base.adj[*v].len() as u64;
            let hi = lo + o.pool_out[*v].len() as u64;
            if (lo..=hi).contains(c) {
                Ok(())
            } else {
                bad()
            }
        }
        (Request::HasEdge { u, v, .. }, Reply::Bool(b)) => {
            if *b || o.base.adj[*u].binary_search(v).is_err() {
                Ok(())
            } else {
                bad()
            }
        }
        (Request::AddEdge { .. } | Request::RemoveEdge { .. }, Reply::Ok) => Ok(()),
        _ => bad(),
    }
}

/// `(graph, u, v)` of a write request.
fn written_key(gi: usize, req: &Request) -> Option<(usize, usize, usize)> {
    match req {
        Request::AddEdge { u, v, .. } | Request::RemoveEdge { u, v, .. } => Some((gi, *u, *v)),
        _ => None,
    }
}

/// Latency samples (ms) and counts from one measured window.
#[derive(Default)]
pub struct Window {
    pub read: Samples,
    pub write: Samples,
    pub by_verb: Vec<(Verb, f64)>,
    pub ops: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    pub secs: f64,
    pub bfs_requests: u64,
    pub bfs_batches: u64,
    pub compactions: u64,
    pub background_flushes: u64,
    pub compacted_bytes: u64,
    /// The `(graph, u, v)` keys the window's writes touched.
    pub written: HashSet<(usize, usize, usize)>,
}

impl Window {
    /// Add the samples and counts of a later segment.
    pub fn absorb(&mut self, other: Window) {
        self.read.extend(other.read);
        self.write.extend(other.write);
        self.by_verb.extend(other.by_verb);
        self.ops += other.ops;
        self.shed += other.shed;
        self.secs += other.secs;
        self.bfs_requests += other.bfs_requests;
        self.bfs_batches += other.bfs_batches;
        self.compactions += other.compactions;
        self.background_flushes += other.background_flushes;
        self.compacted_bytes += other.compacted_bytes;
        self.written.extend(other.written);
    }
}

/// Drive the closed loop for `budget`. Each client thread draws from
/// its own seeded stream; every reply is checked and tallied.
pub fn closed_loop(
    rig: &mut Rig,
    inputs: &[ServeInput],
    oracles: &[GraphOracle],
    budget: Duration,
    seed: u64,
    rep: &mut Report,
) -> Window {
    let stats = rig.svc.stats();
    let (req0, bat0) = (
        stats.bfs_requests.load(Ordering::Relaxed),
        stats.bfs_batches.load(Ordering::Relaxed),
    );
    let snap0 = snapshot_stats();
    let start = Instant::now();
    let deadline = start + budget;
    type Key = Option<(usize, usize, usize)>;
    type Logged = (Verb, f64, bool, Result<(), String>, Key);
    let per_client: Vec<Vec<Logged>> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = Lcg::new(seed.wrapping_mul(7919).wrapping_add(c as u64));
                    let mut log = Vec::new();
                    while Instant::now() < deadline {
                        let (verb, req, gi, si) = draw(&mut rng, inputs, oracles);
                        let key = written_key(gi, &req);
                        let t0 = Instant::now();
                        let reply = client.call(&req);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let shed = matches!(reply, Ok(Reply::Overloaded));
                        let outcome = match reply {
                            Ok(r) => check(verb, &req, &r, &oracles[gi], si),
                            Err(e) => Err(format!("{verb:?} transport: {e}")),
                        };
                        log.push((verb, ms, shed, outcome, key));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let snap1 = snapshot_stats();
    let mut w = Window {
        secs,
        bfs_requests: stats.bfs_requests.load(Ordering::Relaxed) - req0,
        bfs_batches: stats.bfs_batches.load(Ordering::Relaxed) - bat0,
        compactions: snap1.compactions - snap0.compactions,
        background_flushes: snap1.background_flushes - snap0.background_flushes,
        compacted_bytes: snap1.compacted_bytes - snap0.compacted_bytes,
        ..Window::default()
    };
    for (verb, ms, shed, outcome, key) in per_client.into_iter().flatten() {
        w.written.extend(key);
        if outcome.is_ok() {
            w.ops += 1;
        }
        w.shed += u64::from(shed);
        rep.tally("serve", outcome);
        if verb.is_write() {
            w.write.push(ms);
        } else {
            w.read.push(ms);
        }
        w.by_verb.push((verb, ms));
    }
    w
}

/// The write-free check phase: read back every pool candidate, rebuild
/// each graph as the service now holds it, and require BFS replies to
/// equal the reference exactly. Returns the number of BFS replies
/// verified.
pub fn verify_quiesced(
    client: &mut Client,
    inputs: &[ServeInput],
    oracles: &[GraphOracle],
    rep: &mut Report,
) -> usize {
    let mut verified = 0;
    for (g, o) in inputs.iter().zip(oracles) {
        let mut edges = g.base.edges.clone();
        for &(u, v) in &g.pool {
            let req = Request::HasEdge {
                graph: g.name.clone(),
                u,
                v,
            };
            match client.call(&req) {
                Ok(Reply::Bool(true)) => edges.push((u, v)),
                Ok(Reply::Bool(false)) => {}
                other => {
                    rep.tally(
                        "serve.check",
                        Err(format!("check-phase HAS {u} {v} -> {other:?}")),
                    );
                    continue;
                }
            }
            rep.tally("serve.check", Ok(()));
        }
        let now = AdjGraph::from_edges(o.n, &edges);
        for &src in o.sources.iter().take(2) {
            let want: Vec<i64> = refr::traversal::bfs_levels(&now, src)
                .into_iter()
                .map(|l| l.map_or(-1, |d| d as i64))
                .collect();
            let req = Request::Bfs {
                graph: g.name.clone(),
                src,
            };
            rep.tally(
                "serve.check",
                match client.call(&req) {
                    Ok(Reply::Levels(got)) if got == want => Ok(()),
                    other => Err(format!(
                        "check-phase BFS {} from {src}: {:?}",
                        g.name,
                        other.map(|r| match r {
                            Reply::Levels(_) => "levels differ".to_string(),
                            r => format!("{r:?}"),
                        })
                    )),
                },
            );
            verified += 1;
        }
    }
    verified
}
