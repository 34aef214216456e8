//! The load generator's plumbing: a keep-alive HTTP/1.1 client, open-loop
//! schedules, and due-time latency accounting.
//!
//! An open loop sends request `i` at `start + i/rate` whether or not earlier
//! requests have completed. On one keep-alive connection a slow response
//! delays every request queued behind it, so latency is measured from the
//! request's *due* time: a 50 ms server stall shows up in every request that
//! was due during it, not just the one that hit it (coordinated omission).
//! The generator's own lateness, the time between a request becoming
//! sendable and actually being sent, is recorded separately as `gen_lag`:
//! it excludes waits caused by the server and says whether the generator
//! kept its schedule.

use apgre_approx::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The largest response body the client accepts; the benchmark's largest
/// answers (`/metrics`) are a few KiB.
const MAX_BODY: usize = 16 << 20;

/// One keep-alive connection; requests go one at a time or in pipelined
/// batches.
pub struct LoadClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LoadClient {
    /// Connects with Nagle off (request/response traffic).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(LoadClient { reader: BufReader::new(stream), writer })
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        self.writer.write_all(Self::head(method, path, body).as_bytes())?;
        self.response()
    }

    /// Sends `GET` requests for every path in one write (HTTP/1.1
    /// pipelining), then reads their responses in order.
    pub fn pipeline(&mut self, paths: &[String]) -> std::io::Result<Vec<(u16, String)>> {
        let batch: String = paths.iter().map(|p| Self::head("GET", p, "")).collect();
        self.writer.write_all(batch.as_bytes())?;
        paths.iter().map(|_| self.response()).collect()
    }

    fn head(method: &str, path: &str, body: &str) -> String {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    fn response(&mut self) -> std::io::Result<(u16, String)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated head"));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        if content_length > MAX_BODY {
            return Err(bad("response body over 16 MiB"));
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// The raw text of a top-level value in the service's flat JSON responses
/// (`"key":<value>` up to the next `,` or `}`).
pub fn flat_json_value<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A fixed-rate open-loop schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
    next: u32,
    /// Seeded offsets within `[0, spread)` of each slot, if jittered.
    jitter: Option<(SplitMix64, Duration)>,
    offset: Duration,
}

impl Schedule {
    /// `rate` requests per second, the first due at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            next: 0,
            jitter: None,
            offset: Duration::ZERO,
        }
    }

    /// Like [`Schedule::new`], but each request is due a seeded, uniform
    /// offset in `[0, spread)` after its slot, so the schedule does not
    /// stay in phase with another fixed-rate schedule.
    pub fn jittered(start: Instant, rate: f64, spread: Duration, seed: u64) -> Self {
        let mut s =
            Schedule { jitter: Some((SplitMix64::new(seed), spread)), ..Self::new(start, rate) };
        s.draw_offset();
        s
    }

    fn draw_offset(&mut self) {
        if let Some((rng, spread)) = &mut self.jitter {
            self.offset = spread.mul_f64(rng.below(1 << 20) as f64 / (1 << 20) as f64);
        }
    }

    /// When the next request is due.
    pub fn due(&self) -> Instant {
        self.start + self.interval * self.next + self.offset
    }

    /// Moves to the following request.
    pub fn advance(&mut self) {
        self.next += 1;
        self.draw_offset();
    }
}

/// Sleeps until `t` (returns at once when `t` has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The instants of one open-loop request.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it was actually written.
    pub sent: Instant,
    /// When its response was read.
    pub done: Instant,
}

/// `(latency, gen_lag)` of one request: latency runs from the due time to
/// the response; the generator lag is how long after the request became
/// sendable (due, and the connection free since `prev_done`, the previous
/// response on the same connection) it was sent.
pub fn account(t: &Timing, prev_done: Option<Instant>) -> (Duration, Duration) {
    let sendable = prev_done.map_or(t.due, |p| p.max(t.due));
    (t.done.saturating_duration_since(t.due), t.sent.saturating_duration_since(sendable))
}

/// Per-connection latency bookkeeping for an open loop.
#[derive(Default)]
pub struct OpenLoopLog {
    /// Due-time latencies, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Generator lag, milliseconds.
    pub gen_lag_ms: Vec<f64>,
    /// Send-to-response round trips, milliseconds.
    pub rtt_ms: Vec<f64>,
    prev_done: Option<Instant>,
}

impl OpenLoopLog {
    /// Records one request; when `keep` is false (warm-up) only the
    /// connection's last response time is updated.
    pub fn record(&mut self, t: &Timing, keep: bool) {
        let (latency, lag) = account(t, self.prev_done);
        self.prev_done = Some(t.done);
        if keep {
            self.latency_ms.push(ms(latency));
            self.gen_lag_ms.push(ms(lag));
            self.rtt_ms.push(ms(t.done - t.sent));
        }
    }
}

/// A duration in fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::net::TcpListener;

    #[test]
    fn json_values_are_read_from_flat_bodies() {
        let body = "{\"vertex\":7,\"score\":1.5e3,\"tier\":\"exact\",\"seq\":0}";
        assert_eq!(flat_json_value(body, "score"), Some("1.5e3"));
        assert_eq!(flat_json_value(body, "tier"), Some("\"exact\""));
        assert_eq!(flat_json_value(body, "seq"), Some("0"));
        assert_eq!(flat_json_value(body, "missing"), None);
    }

    #[test]
    fn latency_runs_from_due_and_lag_excludes_server_waits() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        // On time: sent 20us after due, answered 100us later.
        let (lat, lag) = account(&Timing { due: at(0), sent: at(20), done: at(120) }, None);
        assert_eq!((lat, lag), (Duration::from_micros(120), Duration::from_micros(20)));
        // Queued behind a slow response that finished at 5000us: the wait
        // counts as latency, not as generator lag.
        let (lat, lag) =
            account(&Timing { due: at(1000), sent: at(5010), done: at(5100) }, Some(at(5000)));
        assert_eq!((lat, lag), (Duration::from_micros(4100), Duration::from_micros(10)));
        // The connection was free before the due time.
        let (_, lag) =
            account(&Timing { due: at(2000), sent: at(2300), done: at(2400) }, Some(at(900)));
        assert_eq!(lag, Duration::from_micros(300));
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let t0 = Instant::now();
        let mut s = Schedule::new(t0, 1000.0);
        assert_eq!(s.due(), t0);
        s.advance();
        s.advance();
        assert_eq!(s.due(), t0 + Duration::from_millis(2));
    }

    #[test]
    fn jittered_schedules_stay_within_their_slots() {
        let t0 = Instant::now();
        let spread = Duration::from_micros(250);
        let mut s = Schedule::jittered(t0, 100.0, spread, 5);
        let mut offsets = std::collections::BTreeSet::new();
        for i in 0..200u32 {
            let slot = t0 + Duration::from_millis(10) * i;
            assert!(s.due() >= slot && s.due() < slot + spread);
            offsets.insert(s.due() - slot);
            s.advance();
        }
        assert!(offsets.len() > 150, "offsets vary: {}", offsets.len());
    }

    /// Answers every request with `200 ok`, stalling `stall` before
    /// answering request number `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            for served in 0.. {
                // Requests carry no body: read the head up to the blank line.
                loop {
                    line.clear();
                    if reader.read_line(&mut line).expect("read") == 0 {
                        return;
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").expect("write");
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_server_stall_delays_queued_requests_but_not_the_generator() {
        const STALL_AT: usize = 20;
        let stall = Duration::from_millis(50);
        let (addr, server) = stub_server(STALL_AT, stall);
        let mut client = LoadClient::connect(addr).expect("connect");
        let mut log = OpenLoopLog::default();
        let mut schedule = Schedule::new(Instant::now(), 1000.0);
        for _ in 0..120 {
            let due = schedule.due();
            schedule.advance();
            sleep_until(due);
            let sent = Instant::now();
            let (status, body) = client.request("GET", "/", "").expect("request");
            assert_eq!((status, body.as_str()), (200, "ok"));
            log.record(&Timing { due, sent, done: Instant::now() }, true);
        }
        drop(client);
        server.join().expect("stub server");

        // The stalled request and the ~50 due during the stall all waited.
        assert!(log.latency_ms[STALL_AT] >= 50.0, "{}", log.latency_ms[STALL_AT]);
        let queued = log.latency_ms[STALL_AT + 1..].iter().filter(|&&l| l >= 10.0).count();
        assert!(queued >= 30, "only {queued} queued requests saw the stall");
        // A closed loop timed from the send would have hidden all of that.
        let mut rtt = log.rtt_ms.clone();
        rtt.sort_by(f64::total_cmp);
        assert!(percentile(&rtt, 90.0) < 10.0, "round trips stay short");
        // The generator itself stayed on schedule.
        let worst_lag = log.gen_lag_ms.iter().cloned().fold(0.0, f64::max);
        assert!(worst_lag < 25.0, "generator lag {worst_lag}ms absorbed the stall");
    }
}
