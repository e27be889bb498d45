//! `serve_churn`: loopback TCP to a `ReactorServer` in a child process.
//!
//! The child preloads the router through `route_many`, serves with
//! `nproc − 1` reactors, and answers a tiny control protocol on its stdin:
//! `MARK` reports its CPU time and gap statistics, `END` shuts the server
//! down and reports the counters the final checks need. One generator
//! thread drives two connections; each holds a FIFO of wire tickets and
//! sends windows of 32 `RELEASE` (oldest ids) then 32 `ROUTE` (fresh keys),
//! so residency stays constant.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pba_net::{ReactorConfig, ReactorServer};
use pba_obs::MetricsRegistry;
use pba_stream::{ConcurrentRouter, StreamConfig};

use crate::timed::{self, Slice};
use crate::trace::Tracer;
use crate::{host, key, Outcome, Sizes, BINS};

pub const CONNS: usize = 2;
/// Half a window: 32 releases, then 32 routes.
pub const HALF: usize = 32;

/// Reactor threads: one core is left to the load generator.
pub fn reactors() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

/// Routes `count` preload keys through `route_many`; the tickets stay
/// resident for the router's lifetime.
pub fn preload(router: &ConcurrentRouter, seed: u64, count: u64) {
    let mut keys = Vec::with_capacity(4096);
    let mut i = 0;
    while i < count {
        keys.clear();
        keys.extend((i..count.min(i + 4096)).map(|j| key(seed, 0, j)));
        router.route_many(&keys).expect("routing is infallible");
        i += keys.len() as u64;
    }
}

/// The serving router: the router config of both streaming workloads, with
/// a metrics registry as `examples/reactor_serving.rs` deploys it.
pub fn serving_router(seed: u64) -> (ConcurrentRouter, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let router =
        ConcurrentRouter::with_metrics(StreamConfig::new(BINS).seed(seed), Arc::clone(&registry));
    (router, registry)
}

/// The child process: preload, serve, answer `MARK`/`END` on stdin.
pub fn child_main(seed: u64, preload_count: u64, reactors: usize) -> io::Result<()> {
    let (router, registry) = serving_router(seed);
    preload(&router, seed, preload_count);
    let server = ReactorServer::start(
        router,
        ReactorConfig {
            reactors,
            ..ReactorConfig::default()
        },
    )?;
    let mut out = io::stdout().lock();
    writeln!(out, "PORT {}", server.local_addr().port())?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        match line?.trim() {
            "MARK" => {
                let gap = server.router().gap_stats();
                writeln!(
                    out,
                    "MARK {} {} {}",
                    host::process_cpu_ns(),
                    gap.count(),
                    gap.sum()
                )?;
                out.flush()?;
            }
            _ => break,
        }
    }
    let conserves = server.router().conserves_balls();
    server.shutdown();
    let snap = registry.snapshot();
    writeln!(
        out,
        "END {} {} {} {} {}",
        conserves,
        snap.counter("server.bad_request"),
        snap.counter("server.unknown_ticket"),
        snap.counter("server.requests"),
        host::peak_rss_mb()
    )?;
    out.flush()
}

struct Mark {
    cpu_ns: u64,
    gap_count: u64,
    gap_sum: f64,
}

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The server child, killed and reaped on drop unless it ended cleanly.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

impl Server {
    fn spawn(seed: u64, preload: u64) -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve-child", "--seed", &seed.to_string()])
            .args(["--preload", &preload.to_string()])
            .args(["--reactors", &reactors().to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Self {
            child,
            stdin,
            stdout,
            port: 0,
        };
        let line = server.read_line()?;
        server.port = line
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| bad(format!("server child said {line:?}")))?;
        Ok(server)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(bad("server child exited".into()));
        }
        Ok(line.trim_end().to_string())
    }

    fn mark(&mut self) -> io::Result<Mark> {
        self.stdin.write_all(b"MARK\n")?;
        self.stdin.flush()?;
        let line = self.read_line()?;
        let f: Vec<&str> = line.split_ascii_whitespace().collect();
        match f[..] {
            ["MARK", cpu, count, sum] => Ok(Mark {
                cpu_ns: cpu.parse().map_err(|_| bad(line.clone()))?,
                gap_count: count.parse().map_err(|_| bad(line.clone()))?,
                gap_sum: sum.parse().map_err(|_| bad(line.clone()))?,
            }),
            _ => Err(bad(format!("bad MARK reply {line:?}"))),
        }
    }

    /// Shuts the server down; returns `(conserves, bad_request,
    /// unknown_ticket, requests, peak_rss_mb)`.
    fn end(&mut self) -> io::Result<(bool, u64, u64, u64, f64)> {
        self.stdin.write_all(b"END\n")?;
        self.stdin.flush()?;
        let line = self.read_line()?;
        let f: Vec<&str> = line.split_ascii_whitespace().collect();
        let parse = |s: &str| s.parse::<u64>().map_err(|_| bad(line.clone()));
        let report = match f[..] {
            ["END", conserves, bad_req, unknown, requests, rss] => (
                conserves == "true",
                parse(bad_req)?,
                parse(unknown)?,
                parse(requests)?,
                rss.parse().map_err(|_| bad(line.clone()))?,
            ),
            _ => return Err(bad(format!("bad END reply {line:?}"))),
        };
        let status = self.child.wait()?;
        if !status.success() {
            return Err(bad(format!("server child exited with {status}")));
        }
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Parses `OK <a>` or `OK <a> <b>`.
fn parse_ok(line: &[u8]) -> Option<(u64, Option<u64>)> {
    let line = std::str::from_utf8(line).ok()?;
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "OK" {
        return None;
    }
    let a = parts.next()?.parse().ok()?;
    let b = match parts.next() {
        Some(b) => Some(b.parse().ok()?),
        None => None,
    };
    parts.next().is_none().then_some((a, b))
}

/// One client connection and the wire tickets it holds.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    out: Vec<u8>,
    /// Held tickets, oldest first: `(id, bin)`.
    tickets: VecDeque<(u64, usize)>,
    /// Bins the releases of the window in flight must echo.
    expect: Vec<usize>,
    routes_in_flight: usize,
    seed: u64,
    stream_id: u64,
    next_key: u64,
    sent_at: Instant,
    /// Request lines written, `read` calls that returned data, reply lines.
    sent: u64,
    reads: u64,
    replies: u64,
    failed: u64,
}

impl Conn {
    fn connect(port: u16, seed: u64, stream_id: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: vec![0; 1 << 16],
            head: 0,
            tail: 0,
            out: Vec::with_capacity(2048),
            tickets: VecDeque::new(),
            expect: Vec::with_capacity(HALF),
            routes_in_flight: 0,
            seed,
            stream_id,
            next_key: 0,
            sent_at: Instant::now(),
            sent: 0,
            reads: 0,
            replies: 0,
            failed: 0,
        })
    }

    /// Writes one window: `releases` of the oldest tickets, then `routes`
    /// fresh keys.
    fn send(&mut self, releases: usize, routes: usize) -> io::Result<()> {
        self.out.clear();
        self.expect.clear();
        for _ in 0..releases.min(self.tickets.len()) {
            let (id, bin) = self.tickets.pop_front().expect("ticket held");
            self.expect.push(bin);
            writeln!(self.out, "RELEASE {id}")?;
        }
        for _ in 0..routes {
            let k = key(self.seed, self.stream_id, self.next_key);
            self.next_key += 1;
            writeln!(self.out, "ROUTE {k}")?;
        }
        self.routes_in_flight = routes;
        self.sent += (self.expect.len() + routes) as u64;
        self.sent_at = Instant::now();
        self.stream.write_all(&self.out)
    }

    /// The next reply line, as a range of `buf`.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        loop {
            if let Some(nl) = self.buf[self.head..self.tail]
                .iter()
                .position(|&b| b == b'\n')
            {
                let line = (self.head, self.head + nl);
                self.head += nl + 1;
                self.replies += 1;
                return Ok(line);
            }
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.tail == self.buf.len() {
                return Err(bad("reply line longer than the read buffer".into()));
            }
            let n = self.stream.read(&mut self.buf[self.tail..])?;
            if n == 0 {
                return Err(bad("server closed the connection".into()));
            }
            self.reads += 1;
            self.tail += n;
        }
    }

    /// Reads and checks the replies of the window in flight; returns its
    /// latency.
    fn recv(&mut self) -> io::Result<Duration> {
        for i in 0..self.expect.len() {
            let (a, b) = self.line()?;
            match parse_ok(&self.buf[a..b]) {
                Some((bin, None)) if bin as usize == self.expect[i] => {}
                _ => self.failed += 1,
            }
        }
        for _ in 0..self.routes_in_flight {
            let (a, b) = self.line()?;
            match parse_ok(&self.buf[a..b]) {
                Some((bin, Some(id))) if (bin as usize) < BINS => {
                    self.tickets.push_back((id, bin as usize));
                }
                _ => self.failed += 1,
            }
        }
        Ok(self.sent_at.elapsed())
    }

    /// `STATS` over the wire: `(routed, released, resident)`.
    fn stats(&mut self) -> io::Result<(u64, u64, u64)> {
        self.stream.write_all(b"STATS\n")?;
        self.sent += 1;
        let (a, b) = self.line()?;
        let line = String::from_utf8_lossy(&self.buf[a..b]).to_string();
        let f: Vec<&str> = line.split_ascii_whitespace().collect();
        let parse = |s: &str| s.parse::<u64>().map_err(|_| bad(line.clone()));
        match f[..] {
            ["OK", "routed", r, "released", d, "resident", n, "batches", _] => {
                Ok((parse(r)?, parse(d)?, parse(n)?))
            }
            _ => Err(bad(format!("bad STATS reply {line:?}"))),
        }
    }
}

/// A server child with its connected, filled and warmed-up clients.
struct Session {
    server: Server,
    conns: Vec<Conn>,
    preload: u64,
}

impl Session {
    /// Spawns the server, connects, fills each connection's tickets and
    /// warms up; the returned duration is the set-up time.
    fn open(seed: u64, sizes: &Sizes) -> io::Result<(Self, Duration)> {
        let started = Instant::now();
        let server = Server::spawn(seed, sizes.preload)?;
        let conns = (0..CONNS)
            .map(|c| Conn::connect(server.port, seed, 1 + c as u64))
            .collect::<io::Result<Vec<_>>>()?;
        let mut session = Self {
            server,
            conns,
            preload: sizes.preload,
        };
        while session.conns[0].tickets.len() < sizes.tickets {
            for conn in &mut session.conns {
                conn.send(0, 2 * HALF)?;
            }
            for conn in &mut session.conns {
                conn.recv()?;
            }
        }
        for conn in &mut session.conns {
            conn.send(HALF, HALF)?;
        }
        for _ in 0..sizes.warmup {
            session.round(None, &mut Vec::new())?;
        }
        Ok((session, started.elapsed()))
    }

    /// Completes the window in flight on each connection in turn and sends
    /// that connection's next window at once, so the server has a window
    /// queued while the client reads the other connection's replies.
    fn round(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        latencies: &mut Vec<u64>,
    ) -> io::Result<u64> {
        let round = tracer.as_mut().map(|t| (t.reserve(), t.now()));
        for conn in &mut self.conns {
            let start = tracer.as_ref().map(|t| t.now());
            latencies.push(conn.recv()?.as_nanos() as u64);
            if let (Some(t), Some((id, _)), Some(start)) = (tracer.as_mut(), round, start) {
                t.record("pba-net.client_read", id, start, 2 * HALF as u64);
            }
            let start = tracer.as_ref().map(|t| t.now());
            conn.send(HALF, HALF)?;
            if let (Some(t), Some((id, _)), Some(start)) = (tracer.as_mut(), round, start) {
                t.record("pba-net.client_write", id, start, 2 * HALF as u64);
            }
        }
        let ops = (CONNS * 2 * HALF) as u64;
        if let (Some(t), Some((id, start))) = (tracer, round) {
            t.record_id(id, "serve.round", 0, start, ops);
        }
        Ok(ops)
    }

    fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// One slice of `len`, framed by two `MARK`s.
    fn slice(&mut self, len: Duration, mut tracer: Option<&mut Tracer>) -> io::Result<Slice> {
        let failed_before = self.failed();
        let m0 = self.server.mark()?;
        let started = Instant::now();
        let mut slice = Slice::default();
        while started.elapsed() < len {
            slice.ops += self.round(tracer.as_deref_mut(), &mut slice.latencies_ns)?;
        }
        slice.wall = started.elapsed();
        let m1 = self.server.mark()?;
        slice.cpu_ns = m1.cpu_ns - m0.cpu_ns;
        slice.gap_count = m1.gap_count - m0.gap_count;
        slice.gap_sum = m1.gap_sum - m0.gap_sum;
        slice.failed = self.failed() - failed_before;
        Ok(slice)
    }

    /// Final checks; returns the failures, `(reads, replies)` of the
    /// clients, and the server's peak RSS.
    fn close(mut self) -> io::Result<(Vec<String>, (u64, u64), f64)> {
        for conn in &mut self.conns {
            conn.recv()?;
        }
        let mut failures = Vec::new();
        let held: u64 = self.conns.iter().map(|c| c.tickets.len() as u64).sum();
        let (routed, released, resident) = self.conns[0].stats()?;
        if routed - released != resident {
            failures.push(format!(
                "STATS routed {routed} - released {released} != resident {resident}"
            ));
        }
        if resident != self.preload + held {
            failures.push(format!(
                "resident {resident} != preload {} + held tickets {held}",
                self.preload
            ));
        }
        let sent: u64 = self.conns.iter().map(|c| c.sent).sum();
        let io = self
            .conns
            .iter()
            .fold((0, 0), |(r, l), c| (r + c.reads, l + c.replies));
        let failed = self.failed();
        if failed > 0 {
            failures.push(format!("{failed} replies were not the expected OK"));
        }
        self.conns.clear();
        let (conserves, bad_request, unknown_ticket, requests, rss) = self.server.end()?;
        if !conserves {
            failures.push("server router does not conserve balls".into());
        }
        if bad_request + unknown_ticket > 0 {
            failures.push(format!(
                "server counted bad_request {bad_request}, unknown_ticket {unknown_ticket}"
            ));
        }
        if requests != sent {
            failures.push(format!(
                "server counted {requests} requests, clients sent {sent}"
            ));
        }
        Ok((failures, io, rss))
    }
}

/// Runs `serve_churn`. In traced mode the timed phase is split in an
/// untraced and a traced half.
pub fn run(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    tracer: Option<&mut Tracer>,
) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut session = None;
    for i in 0..sizes.setups {
        let (s, took) = Session::open(seed, sizes)?;
        setups.push(took.as_secs_f64());
        if i + 1 < sizes.setups {
            let (failures, _, _) = s.close()?;
            outcome.failures.extend(failures);
        } else {
            session = Some(s);
        }
    }
    let mut session = session.expect("at least one set-up");
    outcome.setup_s = timed::median(setups);
    let len = Duration::from_secs_f64(sizes.slice_s);
    match tracer {
        None => {
            outcome.timed = timed::run("serve_churn", seconds, || session.slice(len, None))?;
        }
        Some(tracer) => {
            outcome.timed = timed::run("serve_churn", seconds / 2.0, || session.slice(len, None))?;
            outcome.traced = Some(timed::run("serve_churn traced", seconds / 2.0, || {
                session.slice(len, Some(&mut *tracer))
            })?);
        }
    }
    let (failures, (reads, replies), rss) = session.close()?;
    outcome.failures.extend(failures);
    outcome.peak_rss_mb = rss;
    outcome.replies_per_read = replies as f64 / reads.max(1) as f64;
    Ok(outcome)
}
