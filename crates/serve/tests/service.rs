//! End-to-end service tests over a real TCP socket on an ephemeral port:
//! concurrent query + mutate clients, snapshot consistency (a given
//! publication seq never serves two different values for the same vertex —
//! i.e. no torn reads), backpressure (429 when the mutation queue is
//! saturated), checkpoint round-trip, and bitwise agreement between the
//! served scores and a from-scratch APGRE run on the same post-mutation
//! graph.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use apgre_bc::apgre::bc_apgre_with;
use apgre_bc::{ApgreOptions, KernelPolicy};
use apgre_graph::io::read_edge_list;
use apgre_graph::Graph;
use apgre_serve::{serve, ServeConfig};

/// One-shot HTTP exchange (Connection: close); returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("recv");
    let status: u16 =
        raw.split_whitespace().nth(1).expect("status line").parse().expect("numeric status");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// Pulls `"key":value` out of the service's flat JSON bodies.
fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat).unwrap_or_else(|| panic!("no {key} in {body}")) + pat.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).expect("value terminator");
    &rest[..end]
}

/// Two 6-cliques bridged through a path, with whiskers — several merged
/// sub-graphs and articulation points, so batches classify both ways.
fn test_graph() -> Graph {
    let mut edges = Vec::new();
    for base in [0u32, 8] {
        for i in 0..6 {
            for j in (i + 1)..6 {
                edges.push((base + i, base + j));
            }
        }
    }
    edges.push((5, 6));
    edges.push((6, 7));
    edges.push((7, 8));
    for (w, host) in [(14u32, 0u32), (15, 3), (16, 9), (17, 13)] {
        edges.push((w, host));
    }
    Graph::undirected_from_edges(18, &edges)
}

/// Forced-`Seq` options: bitwise-deterministic kernels, so the served
/// scores can be compared bitwise against a scratch run.
fn seq_opts() -> ApgreOptions {
    ApgreOptions { kernel: KernelPolicy::Seq, ..Default::default() }
}

/// Polls `/stats` until the served snapshot has caught up to `generation`.
fn await_generation(addr: SocketAddr, generation: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(addr, "GET", "/stats", "");
        assert_eq!(status, 200, "{body}");
        if json_field(&body, "generation").parse::<u64>().expect("generation") >= generation {
            return;
        }
        assert!(Instant::now() < deadline, "snapshot never caught up to {generation}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_queries_and_mutations_stay_consistent_and_end_bitwise_exact() {
    let g = test_graph();
    let cfg = ServeConfig { opts: seq_opts(), workers: 4, ..Default::default() };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    // Readers hammer /bc and /top while the main thread mutates. Each
    // reader records (seq, vertex) -> score text; across *all* threads a
    // given (seq, vertex) must have exactly one value — a torn or
    // non-snapshot read would surface as a conflict.
    let stop = std::sync::Arc::new(apgre_bc::sync::AtomicU32::new(0));
    let mut readers = Vec::new();
    for t in 0..3 {
        let stop = std::sync::Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut seen: HashMap<(u64, u32), String> = HashMap::new();
            let mut last_seq = 0u64;
            let mut i = 0u32;
            while stop.load(apgre_bc::sync::Ordering::Relaxed) == 0 {
                let v = (t * 7 + i) % 18;
                i += 1;
                let (status, body) = http(addr, "GET", &format!("/bc/{v}"), "");
                assert_eq!(status, 200, "{body}");
                let seq: u64 = json_field(&body, "seq").parse().expect("seq");
                assert!(seq >= last_seq, "snapshot seq went backwards: {last_seq} -> {seq}");
                last_seq = seq;
                seen.insert((seq, v), json_field(&body, "score").to_owned());
            }
            seen
        }));
    }

    // Interleave local (chord toggle inside a clique) and structural
    // (whisker re-homing) mutations.
    let mut generation = 0u64;
    for round in 0..6 {
        let body = if round % 2 == 0 {
            "remove 0 1\nadd 0 1\n"
        } else {
            "remove 14 0\nadd 14 1\nadd 14 0\nremove 14 1\n"
        };
        let (status, resp) = http(addr, "POST", "/mutate", body);
        assert_eq!(status, 202, "{resp}");
        generation = json_field(&resp, "generation").parse().expect("generation");
        std::thread::sleep(Duration::from_millis(15));
    }
    await_generation(addr, generation);

    stop.store(1, apgre_bc::sync::Ordering::Relaxed);
    let mut merged: HashMap<(u64, u32), String> = HashMap::new();
    for r in readers {
        for (key, score) in r.join().expect("reader thread") {
            if let Some(prev) = merged.insert(key, score.clone()) {
                assert_eq!(prev, score, "two different scores served for seq/vertex {key:?}");
            }
        }
    }
    assert!(!merged.is_empty(), "readers observed nothing");

    // A final structural batch forces a fresh decomposition inside the
    // engine, after which forced-Seq served scores must be *bitwise*
    // identical to a from-scratch APGRE run on the same graph.
    let (status, resp) = http(addr, "POST", "/mutate", "add-vertex\nadd 18 6\n");
    assert_eq!(status, 202, "{resp}");
    generation = json_field(&resp, "generation").parse().expect("generation");
    await_generation(addr, generation);

    let (status, checkpoint) = http(addr, "POST", "/checkpoint", "");
    assert_eq!(status, 200);
    let served_graph = read_edge_list(checkpoint.as_bytes(), false).expect("re-load checkpoint");
    let (scratch, _) = bc_apgre_with(&served_graph, &seq_opts());
    assert_eq!(served_graph.num_vertices(), 19);
    for (v, &want) in scratch.iter().enumerate() {
        let (status, body) = http(addr, "GET", &format!("/bc/{v}"), "");
        assert_eq!(status, 200, "{body}");
        let got: f64 = json_field(&body, "score").parse().expect("score");
        assert!(
            got.to_bits() == want.to_bits(),
            "vertex {v}: served {got:?} != scratch {want:?} (bitwise)"
        );
    }

    // /top agrees with a local ranking of the scratch scores.
    let (status, body) = http(addr, "GET", "/top?k=3", "");
    assert_eq!(status, 200, "{body}");
    let mut want: Vec<u32> = (0..scratch.len() as u32).collect();
    want.sort_by(|&a, &b| {
        scratch[b as usize].total_cmp(&scratch[a as usize]).then_with(|| a.cmp(&b))
    });
    for v in &want[..3] {
        assert!(body.contains(&format!("\"vertex\":{v},")), "top-3 missing {v}: {body}");
    }

    // Out-of-range and malformed requests are 4xx, not crashes.
    assert_eq!(http(addr, "GET", "/bc/99999", "").0, 404);
    assert_eq!(http(addr, "GET", "/bc/potato", "").0, 400);
    assert_eq!(http(addr, "POST", "/mutate", "add 0 99999\n").0, 400);
    assert_eq!(http(addr, "GET", "/nonsense", "").0, 404);

    // /metrics reflects the traffic this test generated.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("apgre_serve_requests_total{endpoint=\"bc\"}"));
    assert!(metrics.contains("apgre_serve_batches_total{class=\"structural\"}"));
    assert!(!metrics.contains("apgre_serve_mutations_accepted_total 0\n"));

    handle.shutdown();
    handle.wait();
}

/// Extracts the value of one exposition line (exact `name{labels}` match).
fn metric_value(metrics: &str, name: &str) -> u64 {
    let line = metrics
        .lines()
        .find(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ')))
        .unwrap_or_else(|| panic!("no metric line {name}"));
    line.rsplit(' ').next().expect("value").parse().expect("numeric metric")
}

#[test]
fn publish_metrics_track_the_dirty_set() {
    let g = test_graph();
    // Unmerged partition: several sub-graphs, so a local edit's publish
    // must *reuse* most score spans and copy exactly the dirty one.
    let mut opts = seq_opts();
    opts.partition.merge_threshold = 0;
    let cfg = ServeConfig { opts, workers: 2, ..Default::default() };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    // A chord removal inside the 6-clique {0..5} keeps its block
    // biconnected: a Local batch that dirties exactly one sub-graph.
    let (status, resp) = http(addr, "POST", "/mutate", "remove 0 1\n");
    assert_eq!(status, 202, "{resp}");
    let generation: u64 = json_field(&resp, "generation").parse().expect("generation");
    await_generation(addr, generation);

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("apgre_serve_batches_total{class=\"local\"} 1"),
        "chord removal must classify Local:\n{metrics}"
    );
    assert!(metric_value(&metrics, "apgre_serve_publish_seconds_count") >= 1);
    assert_eq!(
        metric_value(&metrics, "apgre_serve_publish_chunks_copied{kind=\"score\"}"),
        1,
        "a local batch copies exactly the dirty sub-graph's span"
    );
    assert!(
        metric_value(&metrics, "apgre_serve_publish_chunks_reused{kind=\"score\"}") >= 1,
        "every other span is shared with the previous snapshot"
    );
    // 18 vertices fit one adjacency chunk, which the edit touched.
    assert_eq!(metric_value(&metrics, "apgre_serve_publish_chunks_copied{kind=\"graph\"}"), 1);

    // A publish with no interleaved batch never happens (the writer only
    // publishes after an apply), so instead re-check after a second batch:
    // the gauges describe the *latest* publish, not a lifetime total.
    let (status, resp) = http(addr, "POST", "/mutate", "add 0 1\n");
    assert_eq!(status, 202, "{resp}");
    let generation: u64 = json_field(&resp, "generation").parse().expect("generation");
    await_generation(addr, generation);
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&metrics, "apgre_serve_publish_chunks_copied{kind=\"score\"}"),
        1,
        "the re-add is equally local"
    );
    assert!(metric_value(&metrics, "apgre_serve_publish_seconds_count") >= 2);

    handle.shutdown();
    handle.wait();
}

#[test]
fn saturated_queue_sheds_mutations_with_429() {
    let g = test_graph();
    let cfg = ServeConfig {
        opts: seq_opts(),
        queue_depth: 1,
        max_coalesce: 1,
        workers: 2,
        // The writer crawls, so the depth-1 queue saturates immediately.
        writer_pause_per_batch: Duration::from_millis(150),
        ..Default::default()
    };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for round in 0..12 {
        let body = if round % 2 == 0 { "remove 0 1\n" } else { "add 0 1\n" };
        match http(addr, "POST", "/mutate", body) {
            (202, _) => accepted += 1,
            (429, _) => rejected += 1,
            (status, body) => panic!("unexpected response {status}: {body}"),
        }
    }
    assert!(accepted >= 1, "at least one mutation must be admitted");
    assert!(rejected >= 1, "a depth-1 queue with a slow writer must shed load");

    // Queries keep flowing from the snapshot while the writer is clogged.
    let (status, body) = http(addr, "GET", "/bc/6", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_field(&body, "tier").contains("exact"));

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let line = metrics
        .lines()
        .find(|l| l.starts_with("apgre_serve_mutations_rejected_total "))
        .expect("rejection counter exported");
    let exported: u32 = line.rsplit(' ').next().expect("value").parse().expect("numeric");
    assert_eq!(exported, rejected, "metrics agree with observed 429s");

    handle.shutdown();
    handle.wait();
}

#[test]
fn approx_tier_answers_fresh_and_is_labelled() {
    let g = test_graph();
    let cfg = ServeConfig {
        opts: seq_opts(),
        // Zero staleness budget + a slow writer: any approx query issued
        // while mutations are in flight must take the sampling tier.
        staleness_budget: Duration::ZERO,
        writer_pause_per_batch: Duration::from_millis(200),
        max_coalesce: 1,
        ..Default::default()
    };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    // Before any mutation the snapshot is current, so even approx requests
    // are answered exactly.
    let (status, body) = http(addr, "GET", "/bc/6?approx=8", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_field(&body, "tier").contains("exact"), "current snapshot serves exact: {body}");

    let (status, resp) = http(addr, "POST", "/mutate", "remove 0 1\n");
    assert_eq!(status, 202, "{resp}");
    let generation: u64 = json_field(&resp, "generation").parse().expect("generation");

    // The writer is sleeping on the batch: the snapshot lags the front
    // graph, so the sampling tier must answer from the incremental
    // estimator — labelled, stamped with the generation it was refreshed
    // at (the snapshot's, still behind the front), and carrying its
    // resample fraction.
    let (status, body) = http(addr, "GET", "/bc/6?approx=8", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_field(&body, "tier").contains("approx"), "stale snapshot degrades: {body}");
    assert_eq!(json_field(&body, "samples"), "8");
    assert!(json_field(&body, "generation").parse::<u64>().expect("gen") < generation);
    let fraction: f64 = json_field(&body, "resample_fraction").parse().expect("fraction");
    assert!((0.0..=1.0).contains(&fraction), "fraction out of range: {fraction}");

    // The served estimate is the deterministic composed estimator: an
    // engine seeded the same way produces the bitwise-identical value.
    let mut oracle = apgre_dynamic::DynamicBc::new(&g, seq_opts());
    oracle.enable_approx(apgre_dynamic::SampleOptions::uniform(8, 42));
    let oracle_snap = oracle.approx_snapshot().expect("enabled");
    let want = oracle_snap.estimates.score(6);
    let got: f64 = json_field(&body, "score").parse().expect("score");
    assert_eq!(got.to_bits(), want.to_bits(), "served {got:?} != estimator {want:?}");
    // The uniform tier reports its standard error too, bitwise the oracle's.
    let want = oracle_snap.stderr(6);
    let got: f64 = json_field(&body, "stderr").parse().expect("stderr");
    assert_eq!(got.to_bits(), want.to_bits(), "served stderr {got:?} != estimator {want:?}");

    // Exact queries still come from the (stale but consistent) snapshot.
    let (status, body) = http(addr, "GET", "/bc/6", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_field(&body, "tier").contains("exact"));

    await_generation(addr, generation);
    // Caught up: approx requests fall back to the exact tier again.
    let (status, body) = http(addr, "GET", "/bc/6?approx=8", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_field(&body, "tier").contains("exact"), "caught-up snapshot is exact: {body}");

    handle.shutdown();
    handle.wait();
}

#[test]
fn adaptive_tier_reports_stderr_and_budget_metrics() {
    let g = test_graph();
    let budget = 12usize;
    let cfg = ServeConfig {
        opts: seq_opts(),
        staleness_budget: Duration::ZERO,
        writer_pause_per_batch: Duration::from_millis(200),
        max_coalesce: 1,
        // A non-zero budget switches the estimator to the variance-guided
        // allocator; `approx_samples` is then ignored.
        approx_budget: budget,
        ..Default::default()
    };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    let (status, resp) = http(addr, "POST", "/mutate", "remove 0 1\n");
    assert_eq!(status, 202, "{resp}");

    // Writer asleep on the batch: the adaptive sampling tier answers, and
    // its answers carry the budget and a stderr field instead of the
    // uniform tier's samples field.
    let (status, body) = http(addr, "GET", "/bc/6?approx=8", "");
    assert_eq!(status, 200, "{body}");
    assert!(json_field(&body, "tier").contains("approx"), "stale snapshot degrades: {body}");
    assert_eq!(json_field(&body, "budget").parse::<usize>().expect("budget"), budget);
    assert!(!body.contains("\"samples\""), "adaptive answers must not claim a uniform cap");
    let stderr: f64 = json_field(&body, "stderr").parse().expect("stderr");
    assert!(stderr.is_finite() && stderr >= 0.0, "bad stderr: {stderr}");

    // Bitwise oracle: an engine seeded identically reproduces both the
    // estimate and the standard error.
    let mut oracle = apgre_dynamic::DynamicBc::new(&g, seq_opts());
    oracle.enable_approx(apgre_dynamic::SampleOptions::adaptive(budget, 42));
    let ap = oracle.approx_snapshot().expect("enabled");
    let got: f64 = json_field(&body, "score").parse().expect("score");
    assert_eq!(got.to_bits(), ap.estimates.score(6).to_bits(), "estimate diverges from oracle");
    assert_eq!(stderr.to_bits(), ap.stderr(6).to_bits(), "stderr diverges from oracle");

    // The adaptive gauges are exported: stderr_max mirrors the snapshot's
    // estimator, utilization is allocated/budget (floors can push it >1).
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let gauge = |name: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("{name} not exported"))
            .rsplit(' ')
            .next()
            .expect("value")
            .parse()
            .expect("numeric")
    };
    let stderr_max = gauge("apgre_serve_approx_stderr_max");
    assert!((stderr_max - ap.stderr_max()).abs() <= 1e-6 * (1.0 + ap.stderr_max()));
    let utilization = gauge("apgre_serve_approx_budget_utilization");
    let want_util = ap.refresh.budget_utilization();
    assert!((utilization - want_util).abs() <= 1e-6 * (1.0 + want_util));
    assert!(utilization > 0.0, "adaptive refresh must report budget utilization");

    handle.shutdown();
    handle.wait();
}

/// Posts one mutation body and returns its status.
fn mutate(addr: SocketAddr, body: &str) -> u16 {
    http(addr, "POST", "/mutate", body).0
}

#[test]
fn admission_checks_ids_against_the_accepted_vertex_count() {
    let g = test_graph();
    let cfg = ServeConfig { opts: seq_opts(), workers: 2, ..Default::default() };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    // A new vertex (id 18) is addressable from the next request on.
    assert_eq!(mutate(addr, "add-vertex\n"), 202);
    assert_eq!(mutate(addr, "add 18 6\n"), 202);
    // n = 19 now: ids n and n + 1 are unknown.
    assert_eq!(mutate(addr, "add 0 19\n"), 400);
    assert_eq!(mutate(addr, "add 0 20\n"), 400);
    // remove-vertex keeps the slot, so a later edge to it is accepted.
    assert_eq!(mutate(addr, "remove-vertex 18\n"), 202);
    let (status, resp) = http(addr, "POST", "/mutate", "add 18 3\n");
    assert_eq!(status, 202, "{resp}");
    let generation: u64 = json_field(&resp, "generation").parse().expect("generation");
    await_generation(addr, generation);

    let (status, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "vertices"), "19", "{body}");
    assert_eq!(json_field(&body, "edges"), (g.num_edges() + 1).to_string(), "{body}");

    handle.shutdown();
    handle.wait();
}

#[test]
fn rejected_add_vertex_does_not_advance_the_vertex_count() {
    let g = test_graph();
    let cfg = ServeConfig {
        opts: seq_opts(),
        queue_depth: 1,
        max_coalesce: 1,
        workers: 2,
        // The writer crawls, so the depth-1 queue saturates immediately.
        writer_pause_per_batch: Duration::from_millis(150),
        ..Default::default()
    };
    let handle = serve(&g, cfg).expect("serve");
    let addr = handle.local_addr();

    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for _ in 0..8 {
        match http(addr, "POST", "/mutate", "add-vertex\n") {
            (202, _) => accepted += 1,
            (429, _) => rejected += 1,
            (status, body) => panic!("unexpected response {status}: {body}"),
        }
    }
    assert!(accepted >= 1 && rejected >= 1, "accepted {accepted}, rejected {rejected}");

    // Only the accepted add-vertex requests count. The bounds check runs
    // before the queue, so an unknown id is a 400 even while the queue is
    // full, and a known one is never a 400.
    let n = 18 + accepted;
    assert_eq!(mutate(addr, &format!("add 0 {n}\n")), 400, "id {n} must be unknown");
    let status = mutate(addr, &format!("add 0 {}\n", n - 1));
    assert!(status == 202 || status == 429, "id {} must be known, got {status}", n - 1);

    handle.shutdown();
    handle.wait();
}
