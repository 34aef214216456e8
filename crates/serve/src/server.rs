//! The service itself: acceptor, worker pool, writer thread, admission
//! control, and the HTTP routes.
//!
//! # Thread architecture
//!
//! ```text
//!             ┌────────────┐  bounded conn channel   ┌──────────┐
//!  clients ──▶│  acceptor  │────────────────────────▶│ workers  │──▶ responses
//!             └────────────┘   (Full ⇒ 503 + close)  └────┬─────┘
//!                                                         │ POST /mutate
//!                                                         ▼
//!             ┌────────────┐  bounded mutation queue ┌──────────┐
//!             │ SnapshotCell│◀── publish ────────────│  writer  │
//!             └────────────┘   (Full ⇒ 429)          └──────────┘
//! ```
//!
//! Exactly one writer thread owns the [`DynamicBc`] engine; it drains the
//! mutation queue, coalesces adjacent requests into one
//! [`MutationBatch`], applies it, and publishes a fresh [`BcSnapshot`].
//! Workers answer every query from the snapshot cell and never touch the
//! engine, so reads are wait-free with respect to recomputation.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apgre_bc::sync::{AtomicU32, Ordering};
use apgre_bc::ApgreOptions;
use apgre_dynamic::{DynamicBc, Mutation, MutationBatch, SampleBudget, SampleOptions, TopCache};
use apgre_graph::io::write_edge_list;
use apgre_graph::Graph;

use crate::http::{read_request, HttpError, Request, Response};
use crate::metrics::Metrics;
use crate::snapshot::{BcSnapshot, SnapshotCell};

/// Service configuration. `Default` is tuned for the integration tests and
/// small deployments; the CLI overrides the load-bearing knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Engine options (kernel policy, grain, partitioning).
    pub opts: ApgreOptions,
    /// Mutation queue capacity; a full queue answers `429`.
    pub queue_depth: usize,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Maximum `POST /mutate` requests coalesced into one engine batch.
    pub max_coalesce: usize,
    /// When a `?approx=k` query arrives and the exact snapshot is older
    /// than this, the sampling tier answers from the incremental estimator
    /// published alongside the snapshot instead of the exact fold.
    pub staleness_budget: Duration,
    /// Root samples per sub-graph for the incremental estimator
    /// (`0` disables the sampling tier; `?approx` then serves exact).
    /// Ignored when `approx_budget` is set.
    pub approx_samples: usize,
    /// Global adaptive root budget (`bc-tool serve --approx-budget N`).
    /// When non-zero the estimator runs the variance-guided allocator
    /// (DESIGN.md §3.13) instead of the uniform per-sub-graph cap, and
    /// `?approx=k` answers carry a `budget` field instead of `samples`.
    pub approx_budget: usize,
    /// Seed for the incremental estimator (deterministic per
    /// (seed, sub-graph fingerprint)).
    pub approx_seed: u64,
    /// Test/chaos knob: the writer sleeps this long before applying each
    /// batch, so saturation behavior (429s) is reproducible. Zero in
    /// production.
    pub writer_pause_per_batch: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            opts: ApgreOptions::default(),
            queue_depth: 256,
            workers: 4,
            max_coalesce: 64,
            staleness_budget: Duration::from_millis(250),
            approx_samples: 8,
            approx_budget: 0,
            approx_seed: 42,
            writer_pause_per_batch: Duration::ZERO,
        }
    }
}

/// One accepted mutation request, queued for the writer.
struct QueuedBatch {
    batch: MutationBatch,
    /// Front-graph generation after this batch (the writer stamps the
    /// published snapshot with the generation it has caught up to).
    generation: u64,
}

/// The enqueue-side state: the vertex count after every *accepted*
/// mutation (possibly ahead of the served snapshot) and the queue sender.
/// One mutex guards both so the channel order always equals the order the
/// count advanced in. A count is all admission needs: vertex ids are
/// stable, since `remove-vertex` keeps the slot.
struct FrontState {
    vertices: usize,
    generation: u64,
    /// `None` once shutdown has begun: dropping the sender disconnects the
    /// channel, which is the writer thread's exit signal.
    sender: Option<SyncSender<QueuedBatch>>,
}

/// State shared by every thread of the service.
struct Shared {
    cfg: ServeConfig,
    /// The bound address (for the shutdown self-connect nudge).
    addr: SocketAddr,
    metrics: Metrics,
    cell: SnapshotCell,
    front: Mutex<FrontState>,
    /// `/top` ranking cache: per-span top-k prefixes keyed by span
    /// identity, so ranking after a publish re-sorts only dirty spans.
    top: Mutex<TopCache>,
    /// 0 = running, 1 = shutting down.
    stop: AtomicU32,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) != 0
    }
}

/// A running service instance.
///
/// Dropping the handle does **not** stop the service; call
/// [`shutdown`](ServerHandle::shutdown) (or POST `/shutdown`) and then
/// [`wait`](ServerHandle::wait).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins shutdown: flags every thread, disconnects the mutation
    /// queue, and unblocks the acceptor. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Blocks until every service thread has exited (i.e. until
    /// [`shutdown`](ServerHandle::shutdown) or a `POST /shutdown` has been
    /// issued and drained).
    pub fn wait(self) {
        for t in self.threads {
            // A panicked worker must not take the joining thread down with
            // it; the remaining threads still need joining.
            let _ = t.join();
        }
    }
}

/// Flags shutdown and nudges the blocking accept loop with a throwaway
/// connection so it observes the flag promptly.
fn trigger_shutdown(shared: &Shared) {
    shared.stop.store(1, Ordering::Relaxed);
    if let Ok(mut front) = shared.front.lock() {
        front.sender = None;
    }
    // Failing to connect is fine — the acceptor may already be gone.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
}

/// Builds the engine from `graph`, binds `cfg.addr`, and spawns the
/// acceptor, worker pool, and writer thread. Returns once the socket is
/// listening and the seed snapshot is published — the service is fully
/// queryable when this returns.
pub fn serve(graph: &Graph, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let mut engine = DynamicBc::new(graph, cfg.opts.clone());
    let vertices = engine.num_vertices();
    if cfg.approx_budget > 0 {
        engine.enable_approx(SampleOptions::adaptive(cfg.approx_budget, cfg.approx_seed));
    } else if cfg.approx_samples > 0 {
        engine.enable_approx(SampleOptions::uniform(cfg.approx_samples, cfg.approx_seed));
    }
    // The seed refresh samples every sub-graph once; each subsequent
    // publish resamples only the batch's dirty set.
    let approx = engine.approx_snapshot();
    let seed = BcSnapshot::new(engine.snapshot(), 0, 0).with_approx(approx);

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let (batch_tx, batch_rx) = mpsc::sync_channel::<QueuedBatch>(cfg.queue_depth.max(1));
    let shared = Arc::new(Shared {
        addr,
        metrics: Metrics::default(),
        cell: SnapshotCell::new(seed),
        front: Mutex::new(FrontState { vertices, generation: 0, sender: Some(batch_tx) }),
        top: Mutex::new(TopCache::new()),
        stop: AtomicU32::new(0),
        cfg,
    });

    let mut threads = Vec::new();
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("apgre-serve-writer".into())
                .spawn(move || writer_loop(&shared, engine, &batch_rx))?,
        );
    }
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(shared.cfg.workers.max(1) * 2);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    for i in 0..shared.cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        let conn_rx = Arc::clone(&conn_rx);
        threads.push(
            std::thread::Builder::new()
                .name(format!("apgre-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &conn_rx))?,
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("apgre-serve-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener, conn_tx))?,
        );
    }
    Ok(ServerHandle { addr, shared, threads })
}

/// Accepts connections and hands them to the worker pool; sheds load with
/// an immediate 503 when every worker is busy and the hand-off buffer is
/// full.
fn acceptor_loop(shared: &Shared, listener: &TcpListener, conn_tx: SyncSender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopping() {
                    return;
                }
                continue;
            }
        };
        if shared.stopping() {
            // This may be the shutdown nudge itself; either way, stop.
            return;
        }
        // Interactive request/response traffic: Nagle + delayed ACK would
        // add ~40ms stalls per exchange.
        let _ = stream.set_nodelay(true);
        match conn_tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                Metrics::inc(&shared.metrics.connections_shed);
                let mut w = BufWriter::new(stream);
                let _ = Response::text(503, "worker pool saturated\n").write_to(&mut w, false);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
    // conn_tx drops here: workers' recv() disconnects and they exit.
}

/// One worker: pulls connections and serves keep-alive request sequences.
fn worker_loop(shared: &Shared, conn_rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let rx = match conn_rx.lock() {
                Ok(rx) => rx,
                Err(_) => return,
            };
            match rx.recv() {
                Ok(s) => s,
                Err(_) => return,
            }
        };
        serve_connection(shared, stream);
        if shared.stopping() {
            return;
        }
    }
}

/// Serves one connection until close, error, or shutdown. A read timeout
/// bounds how long an idle keep-alive connection can pin a worker while
/// shutdown is pending.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        match read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive && !shared.stopping();
                let resp = route(shared, &req);
                if resp.status >= 400 {
                    Metrics::inc(&shared.metrics.bad_requests);
                }
                if resp.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(HttpError::Io(e)) => {
                let idle_timeout = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                if !idle_timeout || shared.stopping() {
                    return;
                }
                // Idle keep-alive poll: no request in flight, keep waiting.
            }
            Err(HttpError::BadRequest(msg)) => {
                Metrics::inc(&shared.metrics.bad_requests);
                let _ = Response::text(400, format!("{msg}\n")).write_to(&mut writer, false);
                return;
            }
            Err(HttpError::TooLarge(msg)) => {
                Metrics::inc(&shared.metrics.bad_requests);
                let _ = Response::text(431, format!("{msg}\n")).write_to(&mut writer, false);
                return;
            }
        }
    }
}

/// Dispatches one request to its endpoint handler.
fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/stats") => get_stats(shared),
        ("GET", "/metrics") => get_metrics(shared),
        ("GET", "/top") => get_top(shared, req),
        ("GET", path) if path.starts_with("/bc/") => {
            get_bc(shared, req, path.strip_prefix("/bc/").unwrap_or_default())
        }
        ("POST", "/mutate") => post_mutate(shared, req),
        ("POST", "/checkpoint") => post_checkpoint(shared),
        ("POST", "/shutdown") => post_shutdown(shared),
        ("GET" | "POST", _) => Response::text(404, "no such endpoint\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

/// `GET /bc/:v[?approx=k]` — one vertex's score, exact or sampled tier.
fn get_bc(shared: &Shared, req: &Request, vertex: &str) -> Response {
    let Ok(v) = vertex.parse::<usize>() else {
        return Response::text(400, "vertex id must be a non-negative integer\n");
    };
    match req.query_param("approx") {
        None => get_bc_exact(shared, &shared.cell.load(), v),
        Some(k) => {
            // `k` opts into the sampling tier; the served sample count is
            // the estimator's configured per-sub-graph cap (the estimator
            // is refreshed incrementally, not re-run per request).
            let Ok(k) = k.parse::<usize>() else {
                return Response::text(400, "approx must be a positive sample count\n");
            };
            if k == 0 {
                return Response::text(400, "approx must be a positive sample count\n");
            }
            get_bc_approx(shared, v)
        }
    }
}

/// The exact tier: `v`'s score in `snap`, labelled with its generation.
fn get_bc_exact(shared: &Shared, snap: &BcSnapshot, v: usize) -> Response {
    let Some(score) = snap.engine.scores.get(v) else {
        return Response::text(404, "vertex out of range\n");
    };
    Metrics::inc(&shared.metrics.bc_requests);
    Response::json(
        200,
        format!(
            "{{\"vertex\":{v},\"score\":{score},\"tier\":\"exact\",\"seq\":{},\"generation\":{}}}",
            snap.seq, snap.generation
        ),
    )
}

/// The sampling tier: serves the exact snapshot when it is within the
/// staleness budget (or already current), otherwise the incremental
/// sampled estimator published alongside the snapshot — a cheaper answer
/// at lower fidelity, explicitly labelled with its resample fraction.
fn get_bc_approx(shared: &Shared, v: usize) -> Response {
    let snap = shared.cell.load();
    let front_generation = match shared.front.lock() {
        Ok(front) => front.generation,
        Err(_) => return Response::text(503, "service state poisoned\n"),
    };
    let fresh_enough = snap.generation == front_generation
        || snap.published_at.elapsed() <= shared.cfg.staleness_budget;
    // With the estimator disabled (`approx_samples == 0`) the exact
    // snapshot is the only answer we have; label it honestly.
    let Some(ap) = snap.approx.as_ref().filter(|_| !fresh_enough) else {
        return get_bc_exact(shared, &snap, v);
    };
    let Some(score) = ap.estimates.get(v) else {
        return Response::text(404, "vertex out of range\n");
    };
    Metrics::inc(&shared.metrics.approx_requests);
    // The `samples` / `budget` field names the active regime; both regimes
    // report the standard error.
    let regime = match ap.options.budget {
        SampleBudget::Uniform { samples_per_subgraph } => ("samples", samples_per_subgraph),
        SampleBudget::Adaptive { total_roots, .. } => ("budget", total_roots),
    };
    Response::json(
        200,
        format!(
            "{{\"vertex\":{v},\"score\":{score},\"tier\":\"approx\",\"{}\":{},\"stderr\":{},\
             \"resample_fraction\":{:.6},\"seq\":{},\"generation\":{}}}",
            regime.0,
            regime.1,
            ap.stderr(v),
            ap.refresh.resample_fraction(),
            snap.seq,
            snap.generation
        ),
    )
}

/// `GET /top?k=N` — the N highest-scoring vertices of the served snapshot.
fn get_top(shared: &Shared, req: &Request) -> Response {
    let k = match req.query_param("k") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k > 0 => k,
            _ => return Response::text(400, "k must be a positive integer\n"),
        },
    };
    let snap = shared.cell.load();
    // The cache keys per-span prefixes by span identity, so only spans the
    // latest batches actually touched get re-sorted; a poisoned cache lock
    // (a panicked worker mid-rank) is recovered by starting cold.
    let ranked = match shared.top.lock() {
        Ok(mut cache) => cache.top_k(&snap.engine.scores, k),
        Err(poisoned) => {
            let mut cache = poisoned.into_inner();
            *cache = TopCache::new();
            cache.top_k(&snap.engine.scores, k)
        }
    };
    let k = k.min(ranked.len());
    let mut body = String::with_capacity(64 + 32 * k);
    body.push_str(&format!(
        "{{\"k\":{k},\"seq\":{},\"generation\":{},\"vertices\":[",
        snap.seq, snap.generation
    ));
    for (i, &v) in ranked[..k].iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"vertex\":{v},\"score\":{}}}",
            snap.engine.scores.score(v as usize)
        ));
    }
    body.push_str("]}");
    Metrics::inc(&shared.metrics.top_requests);
    Response::json(200, body)
}

/// `GET /stats` — snapshot + engine summary as JSON.
fn get_stats(shared: &Shared) -> Response {
    let snap = shared.cell.load();
    let report = &snap.engine.report;
    let (kseq, krootpar) = report.kernel_counts;
    let last = match &snap.engine.last_batch {
        None => "null".to_owned(),
        Some(b) => format!(
            "{{\"class\":\"{:?}\",\"reason\":\"{}\",\"dirty_subgraphs\":{},\"reused_contributions\":{},\
             \"local_edits\":{},\"structural_edits\":{},\"subgraphs_spliced\":{},\"subgraphs_split\":{},\
             \"region_blocks\":{},\"rebuilt\":{},\"maintain_micros\":{},\"rebuild_micros\":{},\
             \"wall_clock_micros\":{}}}",
            b.class,
            b.reason,
            b.dirty_subgraphs,
            b.reused_contributions,
            b.local_edits,
            b.structural_edits,
            b.subgraphs_spliced,
            b.subgraphs_split,
            b.region_blocks,
            b.rebuilt,
            b.maintain_time.as_micros(),
            b.rebuild_time.as_micros(),
            b.wall_clock.as_micros()
        ),
    };
    Metrics::inc(&shared.metrics.stats_requests);
    Response::json(
        200,
        format!(
            "{{\"vertices\":{},\"edges\":{},\"subgraphs\":{},\"articulation_points\":{},\
             \"seq\":{},\"generation\":{},\"snapshot_age_seconds\":{:.6},\
             \"kernel_runs\":{{\"seq\":{kseq},\"root_parallel\":{krootpar}}},\
             \"edges_traversed\":{},\"last_batch\":{last}}}",
            snap.engine.graph.num_vertices(),
            snap.engine.graph.num_edges(),
            snap.engine.num_subgraphs,
            snap.engine.num_articulation_points,
            snap.seq,
            snap.generation,
            snap.published_at.elapsed().as_secs_f64(),
            report.edges_traversed,
        ),
    )
}

/// `GET /metrics` — Prometheus text exposition.
fn get_metrics(shared: &Shared) -> Response {
    let snap = shared.cell.load();
    let body = shared.metrics.render(&snap);
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: body.into_bytes(),
    }
}

/// `POST /mutate` — body is one mutation per line:
///
/// ```text
/// add U V         # insert edge U-V
/// remove U V      # delete edge U-V
/// add-vertex      # append an isolated vertex
/// remove-vertex V # strip V's incident edges
/// ```
///
/// The whole body is admitted (202) or rejected (400/429/503) atomically.
fn post_mutate(shared: &Shared, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::text(400, "body must be UTF-8\n");
    };
    let batch = match parse_mutations(text) {
        Ok(b) => b,
        Err(msg) => return Response::text(400, format!("{msg}\n")),
    };
    if batch.is_empty() {
        return Response::text(400, "empty mutation batch\n");
    }

    let mut front = match shared.front.lock() {
        Ok(front) => front,
        Err(_) => return Response::text(503, "service state poisoned\n"),
    };
    // Bounds-check against the accepted vertex count *before* accepting,
    // so the writer thread can never panic on an out-of-range id. The
    // count advances only once the batch is queued: a 429 leaves it.
    let mut vertices = front.vertices;
    for m in batch.mutations() {
        let in_range = match *m {
            Mutation::AddEdge(u, v) | Mutation::RemoveEdge(u, v) => {
                (u as usize) < vertices && (v as usize) < vertices
            }
            Mutation::AddVertex => {
                vertices += 1;
                true
            }
            Mutation::RemoveVertex(v) => (v as usize) < vertices,
        };
        if !in_range {
            return Response::text(400, "mutation references an unknown vertex\n");
        }
    }
    let Some(sender) = front.sender.as_ref() else {
        return Response::text(503, "shutting down\n");
    };
    let queued = QueuedBatch { batch: batch.clone(), generation: front.generation + 1 };
    match sender.try_send(queued) {
        Ok(()) => {
            front.generation += 1;
            front.vertices = vertices;
            let generation = front.generation;
            drop(front);
            shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            Metrics::inc(&shared.metrics.mutate_accepted);
            Response::json(
                202,
                format!("{{\"accepted\":{},\"generation\":{generation}}}", batch.len()),
            )
        }
        Err(TrySendError::Full(_)) => {
            drop(front);
            Metrics::inc(&shared.metrics.mutate_rejected);
            Response::text(429, "mutation queue full, retry later\n")
        }
        Err(TrySendError::Disconnected(_)) => Response::text(503, "shutting down\n"),
    }
}

/// Parses the plain-line mutation format (see [`post_mutate`]).
fn parse_mutations(text: &str) -> Result<MutationBatch, &'static str> {
    let mut batch = MutationBatch::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().unwrap_or_default();
        let mut id = || -> Result<u32, &'static str> {
            parts.next().ok_or("missing vertex id")?.parse().map_err(|_| "bad vertex id")
        };
        match op {
            "add" => {
                let (u, v) = (id()?, id()?);
                batch.push(Mutation::AddEdge(u, v));
            }
            "remove" => {
                let (u, v) = (id()?, id()?);
                batch.push(Mutation::RemoveEdge(u, v));
            }
            "add-vertex" => batch.push(Mutation::AddVertex),
            "remove-vertex" => {
                let v = id()?;
                batch.push(Mutation::RemoveVertex(v));
            }
            _ => return Err("unknown mutation op (want add/remove/add-vertex/remove-vertex)"),
        }
    }
    Ok(batch)
}

/// `POST /checkpoint` — the served snapshot's graph in the repo's
/// re-loadable edge-list format (the round-trip contract is property-tested
/// in `apgre-graph`).
fn post_checkpoint(shared: &Shared) -> Response {
    let snap = shared.cell.load();
    let mut body = Vec::new();
    // Checkpointing wants a real CSR; materializing here keeps the cost on
    // the (rare) checkpoint request instead of on every publish.
    if write_edge_list(&snap.engine.graph.to_graph(), &mut body).is_err() {
        return Response::text(500, "serialization failed\n");
    }
    Metrics::inc(&shared.metrics.checkpoint_requests);
    Response::text(200, body)
}

/// `POST /shutdown` — begins a clean shutdown. The stop flag and queue
/// disconnect happen before the response is written; the acceptor is
/// unblocked by the self-connect nudge.
fn post_shutdown(shared: &Shared) -> Response {
    trigger_shutdown(shared);
    Response::json(200, "{\"shutting_down\":true}")
}

/// The writer thread: drains the queue, coalesces, applies, publishes.
fn writer_loop(shared: &Shared, mut engine: DynamicBc, rx: &Receiver<QueuedBatch>) {
    let mut seq = 0u64;
    loop {
        // Blocking receive: disconnection (sender dropped at shutdown) is
        // the exit signal, after which nothing can be queued.
        let first = match rx.recv() {
            Ok(b) => b,
            Err(_) => return,
        };
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if !shared.cfg.writer_pause_per_batch.is_zero() {
            std::thread::sleep(shared.cfg.writer_pause_per_batch);
        }
        let mut merged = first.batch;
        let mut generation = first.generation;
        let mut coalesced = 1u64;
        while (coalesced as usize) < shared.cfg.max_coalesce.max(1) {
            match rx.try_recv() {
                Ok(next) => {
                    shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    for &m in next.batch.mutations() {
                        merged.push(m);
                    }
                    generation = next.generation;
                    coalesced += 1;
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let report = engine.apply(&merged);
        shared.metrics.record_batch(&report, coalesced);
        // Refresh the sampled estimator before publishing so the approx
        // tier always answers at the same generation as the exact fold.
        let approx = engine.approx_snapshot();
        if let Some(ap) = &approx {
            shared.metrics.record_approx_refresh(&ap.refresh);
        }
        seq += 1;
        let publish_start = Instant::now();
        shared.cell.store(BcSnapshot::new(engine.snapshot(), seq, generation).with_approx(approx));
        shared.metrics.publish_seconds.observe(publish_start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_parser_accepts_the_documented_grammar() {
        let batch =
            parse_mutations("add 1 2\n# comment\n\nremove 3 4\nadd-vertex\nremove-vertex 0\n")
                .expect("parse");
        assert_eq!(
            batch.mutations(),
            &[
                Mutation::AddEdge(1, 2),
                Mutation::RemoveEdge(3, 4),
                Mutation::AddVertex,
                Mutation::RemoveVertex(0),
            ]
        );
    }

    #[test]
    fn mutation_parser_rejects_garbage() {
        assert!(parse_mutations("frobnicate 1 2").is_err());
        assert!(parse_mutations("add 1").is_err());
        assert!(parse_mutations("add one two").is_err());
        assert!(parse_mutations("remove-vertex").is_err());
        assert!(parse_mutations("").expect("empty ok at parse layer").is_empty());
    }
}
