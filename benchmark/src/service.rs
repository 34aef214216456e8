//! `serve-read` and `serve-write`: the query service under load from this
//! process, over two keep-alive connections (one per hardware thread of
//! the reference machine), each driven by its own client thread.
//!
//! Both workloads run three phases on the same two connections: a warm-up,
//! an open-loop window at a fixed rate (latency timed from each request's
//! due time), and a pipelined closed-loop saturation phase (throughput).
//! The service runs with `workers = 2` (one per connection) and every
//! other `ServeConfig` setting at its default. `serve-read`
//! has the read path to itself; in `serve-write` one connection carries
//! mutations and `/metrics` scrapes beside the other's reads, so reads share
//! the cores with the writer thread.

use crate::batch::tolerance;
use crate::fixture::{self, EditKind, EditSites, EditStream};
use crate::load::{flat_json_value, ms, sleep_until, LoadClient, OpenLoopLog, Schedule, Timing};
use crate::report::Outcome;
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::{streams, Ctx};
use apgre_approx::SplitMix64;
use apgre_decomp::{decompose, PartitionOptions};
use apgre_graph::Graph;
use apgre_serve::{serve, ServeConfig, ServerHandle};
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `serve-read`: open-loop reads per second over both connections.
const READ_RATE: f64 = 8_000.0;
/// `serve-write`: open-loop reads per second on the read connection.
const WRITE_READ_RATE: f64 = 4_000.0;
/// `serve-write`: open-loop `POST /mutate` per second on the write
/// connection.
const MUTATE_RATE: f64 = 100.0;
/// `serve-write`: `/metrics` scrapes per second on the write connection.
const SCRAPE_RATE: f64 = 4.0;
/// A run whose generator lag p99 exceeds this did not keep its schedule;
/// its latencies are reported but flagged.
const GEN_LAG_VALID_MS: f64 = 1.0;
/// Reads are traced one in this many (tens of thousands run per second);
/// mutations and scrapes are all traced.
const READ_SPAN_EVERY: u64 = 16;
/// Requests per pipelined batch in the saturation phase.
const PIPELINE_DEPTH: usize = 16;

/// Starts the service [`SETUP_REPS`] times (shutting all but the last
/// down) and records the median time for `serve()` to return.
fn boot(g: &Graph, out: &mut Outcome, tr: &mut Tracer) -> ServerHandle {
    let mut times = Vec::new();
    let mut handle: Option<ServerHandle> = None;
    for rep in 0..SETUP_REPS {
        if let Some(h) = handle.take() {
            h.shutdown();
            h.wait();
        }
        let t0 = Instant::now();
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        let h = serve(g, cfg).expect("bind the service on an ephemeral port");
        let t1 = Instant::now();
        tr.span("serve.serve", None, rep as u64, t0, t1);
        times.push((t1 - t0).as_secs_f64());
        handle = Some(h);
    }
    let setup = Summary::of(&times).expect("set-ups ran");
    out.set("setup_s", setup.median);
    println!("service up in {:.3}s (median of {SETUP_REPS} set-ups)", setup.median);
    handle.expect("set-up ran")
}

/// The instants bounding the three phases.
#[derive(Clone, Copy)]
struct Phases {
    start: Instant,
    warm_end: Instant,
    open_end: Instant,
    sat_end: Instant,
}

impl Phases {
    /// Two thirds of the window open-loop, one third saturation.
    fn new(ctx: &Ctx) -> Self {
        let start = Instant::now() + Duration::from_millis(20);
        let warm_end =
            start + if ctx.smoke { Duration::from_millis(200) } else { Duration::from_secs(1) };
        let open_end = warm_end + ctx.window * 2 / 3;
        Phases { start, warm_end, open_end, sat_end: open_end + ctx.window / 3 }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Read {
    Bc(u32),
    Approx(u32),
    Top,
}

impl Read {
    /// `approx` and `top` are percentages of the mix; the rest is `/bc`.
    fn draw(rng: &mut SplitMix64, vertices: u32, approx: u64, top: u64) -> Read {
        let roll = rng.below(100);
        let v = rng.below(u64::from(vertices)) as u32;
        if roll < top {
            Read::Top
        } else if roll < top + approx {
            Read::Approx(v)
        } else {
            Read::Bc(v)
        }
    }

    fn path(self) -> String {
        match self {
            Read::Bc(v) => format!("/bc/{v}"),
            Read::Approx(v) => format!("/bc/{v}?approx=8"),
            Read::Top => "/top?k=10".to_owned(),
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Read::Bc(_) => "serve.bc",
            Read::Approx(_) => "serve.approx",
            Read::Top => "serve.top",
        }
    }

    fn slot(self) -> usize {
        match self {
            Read::Bc(_) => 0,
            Read::Approx(_) => 1,
            Read::Top => 2,
        }
    }
}

/// The `(vertex, score)` list of a `/top` answer.
fn parse_top(body: &str) -> Option<Vec<(u32, f64)>> {
    let list = body.split_once("\"vertices\":[")?.1;
    list.split("{\"vertex\":")
        .skip(1)
        .map(|item| {
            let (v, rest) = item.split_once(",\"score\":")?;
            let score = rest.trim_end_matches([']', '}', ',']);
            Some((v.parse().ok()?, score.parse().ok()?))
        })
        .collect()
}

fn number<T: std::str::FromStr>(body: &str, key: &str) -> Option<T> {
    flat_json_value(body, key)?.parse().ok()
}

/// What one read connection saw.
struct ReadLog {
    open: OpenLoopLog,
    /// Round trips of kept open-loop requests, by [`Read::slot`].
    rtt_ms: [Vec<f64>; 3],
    saturation: u64,
    /// `(response time, generation)` of the first answer at each new
    /// generation, for visibility.
    events: Vec<(Instant, u64)>,
    attempted: u64,
    failed: u64,
    /// Bits of every exact `/bc` answer (serve-read: one per vertex).
    seen: HashMap<u32, u64>,
    last_top: Vec<(u32, f64)>,
    last_generation: u64,
    problems: BTreeSet<String>,
}

impl ReadLog {
    /// Validates one answer; `frozen` means no writes run, so every answer
    /// must come from the seed snapshot.
    fn check(&mut self, read: Read, status: u16, body: &str, done: Instant, frozen: bool) {
        if status != 200 {
            self.failed += 1;
            self.problems.insert(format!("GET {} answered {status}", read.path()));
            return;
        }
        let Some(generation) = number::<u64>(body, "generation") else {
            self.problems
                .insert(format!("GET {} answered without a generation: {body}", read.path()));
            return;
        };
        if generation < self.last_generation {
            self.problems.insert("a connection saw its snapshot generation go backwards".into());
        }
        if self.events.last().is_none_or(|&(_, g)| generation > g) {
            self.events.push((done, generation));
        }
        self.last_generation = generation;
        if frozen && (generation != 0 || number::<u64>(body, "seq") != Some(0)) {
            self.problems
                .insert("a read-only run answered from a snapshot other than the seed".into());
        }
        match read {
            Read::Bc(v) | Read::Approx(v) => {
                let tier = flat_json_value(body, "tier").unwrap_or_default();
                let score: Option<f64> = number(body, "score");
                let exact = tier == "\"exact\"";
                if !(exact || (tier == "\"approx\"" && matches!(read, Read::Approx(_))))
                    || !score.is_some_and(f64::is_finite)
                {
                    self.problems.insert(format!("GET {} answered {body}", read.path()));
                }
                if let (true, true, Some(s)) = (frozen, exact, score) {
                    if *self.seen.entry(v).or_insert(s.to_bits()) != s.to_bits() {
                        self.problems.insert(format!("vertex {v} answered two different scores"));
                    }
                }
            }
            Read::Top => match parse_top(body) {
                Some(top) if top.windows(2).all(|w| w[0].1 >= w[1].1) && !top.is_empty() => {
                    self.last_top = top;
                }
                _ => {
                    self.problems
                        .insert(format!("/top answer not in non-increasing order: {body}"));
                }
            },
        }
    }
}

/// The read traffic of one connection.
#[derive(Clone, Copy)]
struct ReadLoad {
    /// Open-loop requests per second.
    rate: f64,
    /// Percent of `/bc/:v?approx=8` reads.
    approx: u64,
    /// Percent of `/top?k=10` reads.
    top: u64,
    vertices: u32,
    seed: u64,
    /// No writes run: every answer must come from the seed snapshot.
    frozen: bool,
}

/// Reconnects after a connection error, recording it; `None` when the
/// service no longer accepts connections.
fn reconnect(
    addr: SocketAddr,
    problems: &mut BTreeSet<String>,
    e: &std::io::Error,
) -> Option<LoadClient> {
    problems.insert(format!("read connection error: {e}"));
    LoadClient::connect(addr).ok()
}

/// One read connection: the open loop until the window closes, then a
/// pipelined closed loop until saturation ends.
fn reader(
    addr: SocketAddr,
    phases: Phases,
    load: ReadLoad,
    mut tracer: Tracer,
) -> (ReadLog, Tracer) {
    let mut log = ReadLog {
        open: OpenLoopLog::default(),
        rtt_ms: Default::default(),
        saturation: 0,
        events: Vec::new(),
        attempted: 0,
        failed: 0,
        seen: HashMap::new(),
        last_top: Vec::new(),
        last_generation: 0,
        problems: BTreeSet::new(),
    };
    let mut client = LoadClient::connect(addr).expect("connect a load client");
    let mut rng = SplitMix64::new(load.seed);
    let mut schedule = Schedule::new(phases.start, load.rate);
    while schedule.due() < phases.open_end {
        let due = schedule.due();
        schedule.advance();
        sleep_until(due);
        let read = Read::draw(&mut rng, load.vertices, load.approx, load.top);
        let sent = Instant::now();
        let answer = client.request("GET", &read.path(), "");
        let done = Instant::now();
        log.attempted += 1;
        if log.attempted.is_multiple_of(READ_SPAN_EVERY) {
            tracer.span(read.span_name(), None, log.attempted, sent, done);
        }
        let keep = due >= phases.warm_end;
        log.open.record(&Timing { due, sent, done }, keep);
        if keep {
            log.rtt_ms[read.slot()].push(ms(done - sent));
        }
        match answer {
            Ok((status, body)) => log.check(read, status, &body, done, load.frozen),
            Err(e) => {
                log.failed += 1;
                match reconnect(addr, &mut log.problems, &e) {
                    Some(c) => client = c,
                    None => return (log, tracer),
                }
            }
        }
    }
    // Saturation pipelines its requests, so the count measures what the
    // service spends per request rather than how fast the two vCPUs wake
    // each other's threads, which varies from run to run.
    while Instant::now() < phases.sat_end {
        let reads: Vec<Read> = (0..PIPELINE_DEPTH)
            .map(|_| Read::draw(&mut rng, load.vertices, load.approx, load.top))
            .collect();
        let paths: Vec<String> = reads.iter().map(|r| r.path()).collect();
        let sent = Instant::now();
        let answers = client.pipeline(&paths);
        let done = Instant::now();
        log.attempted += PIPELINE_DEPTH as u64;
        if log.attempted.is_multiple_of(READ_SPAN_EVERY * PIPELINE_DEPTH as u64) {
            tracer.span("serve.pipeline", None, log.attempted, sent, done);
        }
        match answers {
            Ok(answers) => {
                log.saturation += answers.len() as u64;
                for (&read, (status, body)) in reads.iter().zip(answers) {
                    log.check(read, status, &body, done, load.frozen);
                }
            }
            Err(e) => {
                log.failed += PIPELINE_DEPTH as u64;
                match reconnect(addr, &mut log.problems, &e) {
                    Some(c) => client = c,
                    None => break,
                }
            }
        }
    }
    (log, tracer)
}

/// A Prometheus text scrape, by full sample name (`name{labels}`).
struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_owned(), v.parse().ok()?))
                })
                .collect(),
        )
    }

    /// A sample's value; a family the service no longer exports is noted
    /// in `absent` and read as 0, so a renamed family is reported, not
    /// fatal.
    fn get(&self, key: &'static str, absent: &mut BTreeSet<&'static str>) -> f64 {
        self.0.get(key).copied().unwrap_or_else(|| {
            absent.insert(key);
            0.0
        })
    }
}

fn scrape(client: &mut LoadClient) -> Option<Scrape> {
    match client.request("GET", "/metrics", "") {
        Ok((200, text)) => Some(Scrape::parse(&text)),
        _ => None,
    }
}

/// Sets the engine seed metrics from the scrape taken before any batch.
fn seed_metrics(out: &mut Outcome, m0: &Scrape, absent: &mut BTreeSet<&'static str>) {
    out.set(
        "decomp.seed_ms",
        m0.get("apgre_engine_decomposition_seconds_total_micros", absent) / 1e3,
    );
    out.set("bc.seed_kernel_ms", m0.get("apgre_engine_bc_seconds_total_micros", absent) / 1e3);
}

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).map_or(0.0, |s| s.median)
}

fn p99(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        percentile(&sorted, 99.0)
    }
}

/// Sets the read-side metrics every serve workload reports; returns the
/// open-loop read latencies' summary.
fn read_metrics(
    out: &mut Outcome,
    reads: &[&ReadLog],
    gen_lag: &[f64],
    phases: &Phases,
) -> Option<Summary> {
    let latency: Vec<f64> = reads.iter().flat_map(|r| r.open.latency_ms.iter().copied()).collect();
    let rtt = |slot: usize| -> Vec<f64> {
        reads.iter().flat_map(|r| r.rtt_ms[slot].iter().copied()).collect()
    };
    let all_rtt: f64 = reads.iter().flat_map(|r| r.open.rtt_ms.iter()).sum();
    out.set("serve.read_p50_ms", median(&latency));
    out.set("serve.read_p99_ms", p99(&latency));
    out.set("serve.bc_rtt_ms", median(&rtt(0)));
    out.set("serve.approx_rtt_ms", median(&rtt(1)));
    out.set("serve.top_rtt_ms", median(&rtt(2)));
    let lag = p99(gen_lag);
    out.set("serve.gen_lag_ms", lag);
    out.set("trace.coverage", all_rtt / latency.iter().sum::<f64>().max(f64::MIN_POSITIVE));
    let saturated: u64 = reads.iter().map(|r| r.saturation).sum();
    let wall = (phases.sat_end - phases.open_end).as_secs_f64();
    out.set("e2e.throughput_per_s", saturated as f64 / wall);
    let summary = Summary::of(&latency);
    if let Some(s) = summary {
        println!("open-loop reads (from due time): {}", s.describe("ms"));
    }
    println!(
        "saturation: {saturated} reads in {wall:.1}s; generator lag p99 {lag:.3}ms{}",
        if lag > GEN_LAG_VALID_MS {
            " (above 1ms: the generator fell behind, latencies suspect)"
        } else {
            ""
        }
    );
    summary
}

/// Folds one connection's counts and problems into the outcome.
fn tally(out: &mut Outcome, attempted: u64, failed: u64, problems: &BTreeSet<String>) {
    out.attempted += attempted;
    out.failed += failed;
    for p in problems {
        out.check(p.clone(), false);
    }
}

/// `serve-read`: the read path with no writes.
pub fn run_read(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) {
    let g = fixture::build_graph(ctx.smoke, out, tr);
    let vertices = g.num_vertices() as u32;
    let handle = boot(&g, out, tr);
    let addr = handle.local_addr();
    let mut absent = BTreeSet::new();
    {
        let mut c = LoadClient::connect(addr).expect("connect");
        let m0 = scrape(&mut c).expect("scrape /metrics");
        seed_metrics(out, &m0, &mut absent);
    }

    let phases = Phases::new(ctx);
    let threads: Vec<(ReadLog, Tracer)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2u64)
            .map(|c| {
                let load = ReadLoad {
                    rate: READ_RATE / 2.0,
                    approx: 0,
                    top: 10,
                    vertices,
                    seed: ctx.seed_of(streams::TRAFFIC) ^ c,
                    frozen: true,
                };
                let tracer = tr.fork();
                s.spawn(move || reader(addr, phases, load, tracer))
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("reader thread")).collect()
    });
    let mut logs = Vec::new();
    for (log, tracer) in threads {
        tally(out, log.attempted, log.failed, &log.problems);
        tr.absorb(tracer);
        logs.push(log);
    }

    // Cross-connection and /top-vs-/bc agreement on the frozen snapshot.
    let mut seen = HashMap::new();
    let mut disagree = 0usize;
    for l in &logs {
        for (&v, &bits) in &l.seen {
            disagree += usize::from(*seen.entry(v).or_insert(bits) != bits);
        }
    }
    out.check(
        format!("both connections saw the same bits per vertex ({disagree} differ)"),
        disagree == 0,
    );
    let mut c = LoadClient::connect(addr).expect("connect verifier");
    let top = logs.iter().map(|l| &l.last_top).find(|t| !t.is_empty()).cloned().unwrap_or_default();
    let top_ok = !top.is_empty()
        && top.iter().all(|&(v, score)| {
            let answer = c.request("GET", &format!("/bc/{v}"), "");
            matches!(answer, Ok((200, b)) if number::<f64>(&b, "score").map(f64::to_bits) == Some(score.to_bits()))
        });
    out.check("/top scores equal /bc for the same vertices", top_ok);
    drop(c);
    handle.shutdown();
    handle.wait();

    let reads: Vec<&ReadLog> = logs.iter().collect();
    let gen_lag: Vec<f64> = logs.iter().flat_map(|l| l.open.gen_lag_ms.iter().copied()).collect();
    match read_metrics(out, &reads, &gen_lag, &phases) {
        Some(s) => {
            out.set("p50_ms", s.median);
            out.set("e2e.p95_ms", s.p95);
        }
        None => out.check("the open loop completed requests", false),
    }
    out.set("serve.metrics_absent", absent.len() as f64);
}

/// What the write connection did.
struct WriteLog {
    /// Accepted in-window mutations: due time, accepted generation, shape.
    visible_due: Vec<(Instant, u64, EditKind)>,
    open: OpenLoopLog,
    /// `(response time, generation, queue depth)` per scrape.
    scrapes: Vec<(Instant, u64, f64)>,
    attempted: u64,
    failed: u64,
    /// Generation of the last accepted mutation (the undo, if any).
    final_generation: u64,
    problems: BTreeSet<String>,
}

impl WriteLog {
    /// Sends one mutation body due at `due`; returns the generation the
    /// service accepted it at, or `None` when it was refused.
    fn post(
        &mut self,
        client: &mut LoadClient,
        tracer: &mut Tracer,
        due: Instant,
        keep: bool,
        body: &str,
    ) -> Option<u64> {
        self.attempted += 1;
        let sent = Instant::now();
        let answer = client.request("POST", "/mutate", body);
        let done = Instant::now();
        tracer.span("serve.mutate", None, self.attempted, sent, done);
        self.open.record(&Timing { due, sent, done }, keep);
        match answer {
            Ok((202, b)) => number::<u64>(&b, "generation"),
            other => {
                self.failed += 1;
                self.problems.insert(format!("POST /mutate answered {other:?}"));
                None
            }
        }
    }
}

/// The write connection: open-loop mutations and scrapes through both
/// phases, then one body undoing every toggle still applied.
fn writer(
    addr: SocketAddr,
    phases: Phases,
    mut stream: EditStream,
    seed: u64,
    mut tracer: Tracer,
) -> (WriteLog, Tracer) {
    let mut log = WriteLog {
        visible_due: Vec::new(),
        open: OpenLoopLog::default(),
        scrapes: Vec::new(),
        attempted: 0,
        failed: 0,
        final_generation: 0,
        problems: BTreeSet::new(),
    };
    let mut client = LoadClient::connect(addr).expect("connect the write client");
    // Mutations land at seeded points within a read interval of their
    // slot: in phase with the read schedule, a mutation's visibility would
    // be rounded to whole read intervals and its median would jump by one.
    let read_interval = Duration::from_secs_f64(1.0 / WRITE_READ_RATE);
    let mut mutates = Schedule::jittered(phases.start, MUTATE_RATE, read_interval, seed);
    let mut scrapes = Schedule::new(phases.start, SCRAPE_RATE);
    loop {
        let due = mutates.due().min(scrapes.due());
        if due >= phases.sat_end {
            break;
        }
        sleep_until(due);
        if mutates.due() <= scrapes.due() {
            mutates.advance();
            let (kind, edits) = stream.plan();
            let keep = due >= phases.warm_end && due < phases.open_end;
            if let Some(generation) =
                log.post(&mut client, &mut tracer, due, keep, &fixture::to_body(&edits))
            {
                stream.commit();
                log.final_generation = generation;
                if keep {
                    log.visible_due.push((due, generation, kind));
                }
            }
        } else {
            scrapes.advance();
            log.attempted += 1;
            let sent = Instant::now();
            let m = scrape(&mut client);
            let done = Instant::now();
            tracer.span("serve.metrics", None, log.attempted, sent, done);
            log.open.record(&Timing { due, sent, done }, false);
            match m {
                Some(m) => {
                    let generation =
                        m.0.get("apgre_serve_snapshot_generation").copied().unwrap_or(0.0);
                    let depth = m.0.get("apgre_serve_queue_depth").copied().unwrap_or(0.0);
                    log.scrapes.push((done, generation as u64, depth));
                }
                None => log.failed += 1,
            }
        }
    }
    let undo = stream.undo();
    if !undo.is_empty() {
        if let Some(generation) =
            log.post(&mut client, &mut tracer, Instant::now(), false, &fixture::to_body(&undo))
        {
            log.final_generation = generation;
        }
    }
    (log, tracer)
}

/// The sampled vertices the end-of-run check compares.
fn sample_vertices(vertices: u32, sites: &EditSites) -> Vec<u32> {
    let step = (vertices / 200).max(1);
    let mut vs: BTreeSet<u32> = (0..vertices).step_by(step as usize).collect();
    for &(u, v) in sites.chords.iter().chain(&sites.bridges) {
        vs.insert(u);
        vs.insert(v);
    }
    vs.into_iter().collect()
}

fn fetch_scores(c: &mut LoadClient, vs: &[u32]) -> Option<Vec<f64>> {
    vs.iter()
        .map(|v| match c.request("GET", &format!("/bc/{v}"), "") {
            Ok((200, b)) => number(&b, "score"),
            _ => None,
        })
        .collect()
}

/// `serve-write`: writes beside reads.
pub fn run_write(ctx: &Ctx, out: &mut Outcome, tr: &mut Tracer) {
    let g = fixture::build_graph(ctx.smoke, out, tr);
    let vertices = g.num_vertices() as u32;
    let sites = EditSites::pick(&g, &decompose(&g, &PartitionOptions::default()), 16);
    let handle = boot(&g, out, tr);
    let addr = handle.local_addr();

    let checked = sample_vertices(vertices, &sites);
    let mut absent = BTreeSet::new();
    let (m0, before, tol) = {
        let mut c = LoadClient::connect(addr).expect("connect verifier");
        let m0 = scrape(&mut c).expect("scrape /metrics");
        let before = fetch_scores(&mut c, &checked).expect("read the sampled vertices");
        let max = match c.request("GET", "/top?k=1", "") {
            Ok((200, b)) => parse_top(&b).and_then(|t| t.first().map(|&(_, s)| s)),
            _ => None,
        };
        (m0, before, tolerance(&[max.expect("read the top score")]))
    };
    seed_metrics(out, &m0, &mut absent);

    let phases = Phases::new(ctx);
    let stream = EditStream::new(&sites, ctx.seed_of(streams::EDITS));
    let load = ReadLoad {
        rate: WRITE_READ_RATE,
        approx: 10,
        top: 10,
        vertices,
        seed: ctx.seed_of(streams::TRAFFIC),
        frozen: false,
    };
    let ((wlog, wtrace), (mut rlog, rtrace)) = std::thread::scope(|s| {
        let (wt, rt) = (tr.fork(), tr.fork());
        let jitter_seed = ctx.seed_of(streams::MUTATE_TIMES);
        let w = s.spawn(move || writer(addr, phases, stream, jitter_seed, wt));
        let r = s.spawn(move || reader(addr, phases, load, rt));
        (w.join().expect("writer thread"), r.join().expect("reader thread"))
    });
    tally(out, rlog.attempted, rlog.failed, &rlog.problems);
    tally(out, wlog.attempted, wlog.failed, &wlog.problems);
    tr.absorb(wtrace);
    tr.absorb(rtrace);

    // Quiesce: wait for the undo to publish, then compare the samples.
    let mut c = LoadClient::connect(addr).expect("connect verifier");
    let mut events = std::mem::take(&mut rlog.events);
    events.extend(wlog.scrapes.iter().map(|&(t, g, _)| (t, g)));
    let patience = Instant::now() + Duration::from_secs(60);
    let quiesced = loop {
        let answer = c.request("GET", "/stats", "");
        let generation = answer.ok().and_then(|(_, b)| number::<u64>(&b, "generation"));
        if let Some(generation) = generation {
            events.push((Instant::now(), generation));
            if generation >= wlog.final_generation {
                break true;
            }
        }
        if Instant::now() > patience {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    out.check("the writer published every accepted mutation", quiesced);
    let after = fetch_scores(&mut c, &checked);
    let worst = after
        .as_ref()
        .map(|a| a.iter().zip(&before).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max));
    out.check(
        format!("with every toggle undone, {} sampled /bc answers match the start within 1e-9(1+max) (max |diff| {worst:?})", checked.len()),
        worst.is_some_and(|w| w <= tol),
    );
    let m1 = scrape(&mut c);
    drop(c);
    handle.shutdown();
    handle.wait();

    // Visibility: the first answer on either connection whose generation
    // reached the mutation's accepted generation.
    events.sort_by_key(|e| e.0);
    let mut reached = Vec::with_capacity(events.len());
    let mut high = 0u64;
    for &(t, g) in &events {
        high = high.max(g);
        reached.push((t, high));
    }
    let visible: Vec<(EditKind, f64)> = wlog
        .visible_due
        .iter()
        .filter_map(|&(due, generation, kind)| {
            let i = reached.partition_point(|&(_, h)| h < generation);
            reached.get(i).map(|&(t, _)| (kind, ms(t.saturating_duration_since(due))))
        })
        .collect();
    out.check(
        format!(
            "{} of {} in-window mutations became visible",
            visible.len(),
            wlog.visible_due.len()
        ),
        !visible.is_empty() && visible.len() == wlog.visible_due.len(),
    );
    let of_kind = |k: Option<EditKind>| -> Vec<f64> {
        visible.iter().filter(|(kind, _)| k.is_none_or(|k| k == *kind)).map(|&(_, ms)| ms).collect()
    };
    match Summary::of(&of_kind(None)) {
        Some(s) => {
            println!("mutate -> visible (from due time): {}", s.describe("ms"));
            out.set("p50_ms", s.median);
            out.set("e2e.p95_ms", s.p95);
        }
        None => out.check("mutations were accepted in the window", false),
    }
    for kind in [EditKind::Chord, EditKind::Bridge, EditKind::Mixed] {
        if let Some(s) = Summary::of(&of_kind(Some(kind))) {
            println!("  {kind:?}: {}", s.describe("ms"));
        }
    }

    let gen_lag: Vec<f64> =
        rlog.open.gen_lag_ms.iter().chain(&wlog.open.gen_lag_ms).copied().collect();
    read_metrics(out, &[&rlog], &gen_lag, &phases);
    out.set("serve.mutate_rtt_ms", median(&wlog.open.rtt_ms));
    out.set("serve.queue_depth_max", wlog.scrapes.iter().map(|s| s.2).fold(0.0, f64::max));
    match m1 {
        Some(m1) => {
            let mut d = |key: &'static str| m1.get(key, &mut absent) - m0.get(key, &mut absent);
            let batches = d("apgre_serve_batches_total{class=\"noop\"}")
                + d("apgre_serve_batches_total{class=\"local\"}")
                + d("apgre_serve_batches_total{class=\"structural\"}");
            let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
            let apply = d("apgre_serve_batch_apply_seconds_total_micros") / 1e3;
            let maintain = (
                d("apgre_engine_decomp_maintain_seconds_sum") * 1e3,
                d("apgre_engine_decomp_maintain_seconds_count"),
            );
            let approx = (
                d("apgre_serve_approx_refresh_seconds_sum") * 1e3,
                d("apgre_serve_approx_refresh_seconds_count"),
            );
            let publish = (
                d("apgre_serve_publish_seconds_sum") * 1e3,
                d("apgre_serve_publish_seconds_count"),
            );
            let applied = d("apgre_serve_mutations_applied_total");
            let structural = d("apgre_serve_batches_total{class=\"structural\"}");
            out.set("serve.writer_apply_ms", per(apply, batches));
            out.set("serve.writer_maintain_ms", per(maintain.0, maintain.1));
            out.set("serve.writer_approx_ms", per(approx.0, approx.1));
            out.set("serve.writer_publish_ms", per(publish.0, publish.1));
            out.set("serve.coalesce_ratio", per(applied, batches));
            out.set("serve.structural_batches", structural);
            println!(
                "writer: {batches} batches ({structural} structural), {:.2} mutations per batch, apply {:.3}ms mean",
                per(applied, batches),
                per(apply, batches)
            );
        }
        None => out.check("final /metrics scrape", false),
    }
    out.set("serve.metrics_absent", absent.len() as f64);
    if !absent.is_empty() {
        println!("/metrics families absent (reported as 0): {absent:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_answers_parse_in_order() {
        let body = "{\"k\":2,\"seq\":0,\"generation\":0,\"vertices\":[{\"vertex\":5,\"score\":12.5},{\"vertex\":1,\"score\":3}]}";
        assert_eq!(parse_top(body), Some(vec![(5, 12.5), (1, 3.0)]));
        assert_eq!(parse_top("{\"vertices\":[]}"), Some(vec![]));
        assert_eq!(parse_top("{\"vertices\":[{\"vertex\":x,\"score\":1}]}"), None);
    }

    #[test]
    fn scrapes_parse_samples_and_report_absent_families() {
        let m = Scrape::parse(
            "# HELP a_total x\n# TYPE a_total counter\na_total 3\nb_seconds_sum 0.250000\nc{kind=\"x\"} 7\n",
        );
        let mut absent = BTreeSet::new();
        assert_eq!(m.get("a_total", &mut absent), 3.0);
        assert_eq!(m.get("b_seconds_sum", &mut absent), 0.25);
        assert_eq!(m.get("c{kind=\"x\"}", &mut absent), 7.0);
        assert_eq!(m.get("renamed_total", &mut absent), 0.0);
        assert_eq!(absent.into_iter().collect::<Vec<_>>(), vec!["renamed_total"]);
    }

    #[test]
    fn the_read_mix_follows_its_shares() {
        let mut rng = SplitMix64::new(9);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            let r = Read::draw(&mut rng, 100, 10, 10);
            counts[r.slot()] += 1;
            if let Read::Bc(v) | Read::Approx(v) = r {
                assert!(v < 100);
            }
        }
        assert!((7_700..8_300).contains(&counts[0]), "{counts:?}");
        assert!((800..1_200).contains(&counts[1]), "{counts:?}");
        assert!((800..1_200).contains(&counts[2]), "{counts:?}");
    }
}
