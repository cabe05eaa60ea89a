//! The loopback KV workloads: an in-process `hemlock-net` server over a
//! Hemlock `Db` on a one-worker `TaskPool`, driven by one client thread
//! over two connections through the wire protocol's encoder and
//! `Decoder`.
//!
//! - `kv-read` is a closed loop: eight requests in flight per connection,
//!   a reply's slot refilled as soon as the reply is read.
//! - `kv-write` is an open loop: bursts sent on an absolute schedule from
//!   this client's own pacer, each request timed from when it was due.
//!
//! The traced pass samples 1 in `TRACE_EVERY` server bursts through the
//! program's existing spans and joins each sampled burst with the client
//! request it answered, on the process-wide trace clock.

use crate::stats::{median, Dist};
use crate::stream::{self, Mix, OpStream};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::{Report, Windows};
use hemlock_core::hemlock::Hemlock;
use hemlock_harness::TaskPool;
use hemlock_minikv::Db;
use hemlock_net::{
    encode_request, spawn_server_with, Decoder, Request, Response, ServerHandle, ServerOptions,
};
use hemlock_obs::trace::{self, now_ns};
use hemlock_shard::ShardedTable;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNS: usize = 2;
/// Server threads that touch the memtable while serving: the pool worker.
const SERVER_THREADS: usize = 1;
/// A request slower than this misses the latency objective.
const SLO_NS: u64 = 1_000_000;
/// One server burst in this many is traced in the traced pass; low enough
/// that a thread's span ring does not wrap within one traced segment.
const TRACE_EVERY: u32 = 128;
/// Longest the client waits for outstanding replies once it stops issuing.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// How a workload offers load.
#[derive(Clone, Copy, Debug)]
enum Load {
    /// `per_conn` requests in flight on every connection.
    Closed { per_conn: usize },
    /// `burst` requests every `period_ns`, alternating connections.
    Open { period_ns: u64, burst: usize },
}

impl Load {
    fn offered_per_s(self) -> Option<f64> {
        match self {
            Load::Closed { .. } => None,
            Load::Open { period_ns, burst } => Some(burst as f64 * 1e9 / period_ns as f64),
        }
    }
}

/// How set-up warms the server before the measured window.
#[derive(Clone, Copy, Debug)]
enum Warmup {
    Requests(u64),
    Seconds(f64),
}

/// One loopback workload.
pub struct Workload {
    mix: Mix,
    load: Load,
    warmup: Warmup,
    /// Measurement window: long enough for an exact p99 with well over
    /// ten samples beyond it.
    window_ns: u64,
    /// Compactions the measured windows of a run must contain for the
    /// store to be in its steady state.
    min_compactions: u64,
}

/// `kv-read`: 64Ki keys, 100 B values, 90% GET, closed loop, 2 x 8 in
/// flight.
pub const KV_READ: Workload = Workload {
    mix: crate::KV_READ_MIX,
    load: Load::Closed { per_conn: 8 },
    warmup: Warmup::Requests(50_000),
    window_ns: 250_000_000,
    min_compactions: 0,
};

/// `kv-write`: 16Ki keys of 1 KiB (16 MiB live against the 1 MiB
/// memtable), 50% PUT, open loop at 16,000 ops/s in bursts of 4.
pub const KV_WRITE: Workload = Workload {
    mix: Mix {
        keys: 16 * 1024,
        theta: 0.99,
        write_pct: 50,
        value_len: 1024,
    },
    load: Load::Open {
        period_ns: 250_000,
        burst: 4,
    },
    warmup: Warmup::Seconds(0.5),
    window_ns: 500_000_000,
    min_compactions: 3,
};

/// A running in-process server and the store behind it.
struct Server {
    db: Arc<Db<Hemlock>>,
    handle: ServerHandle,
    _pool: Arc<TaskPool>,
}

impl Server {
    fn start(mix: &Mix) -> Self {
        let pool = Arc::new(TaskPool::new(1));
        let db: Arc<Db<Hemlock>> = Arc::new(Db::new(Default::default()));
        for rank in 0..mix.keys {
            db.put(&stream::key(rank), &stream::value(rank, 0, mix.value_len));
        }
        let kv = Arc::clone(&db).into_async_kv();
        let addr = "127.0.0.1:0".parse().expect("loopback address");
        let handle = spawn_server_with(&pool, kv, addr, ServerOptions { combine: true })
            .expect("bind a loopback port");
        Self {
            db,
            handle,
            _pool: pool,
        }
    }

    fn compactions(&self) -> u64 {
        self.db.stats().compactions.load(Ordering::Relaxed)
    }

    fn freezes(&self) -> u64 {
        self.db.stats().freezes.load(Ordering::Relaxed)
    }

    /// The memtable's lock-space cost: a table with the Db's shard count
    /// and the same lock, priced for the serving threads.
    fn footprint_bytes(&self) -> usize {
        ShardedTable::<Box<[u8]>, Option<Box<[u8]>>, Hemlock>::with_shards(
            self.db.memtable_shards(),
        )
        .footprint_bytes(SERVER_THREADS)
    }

    /// Closes the client first so every connection task sees EOF, then
    /// joins the server.
    fn stop(self, client: Client) {
        drop(client);
        self.handle.shutdown();
    }
}

/// One request awaiting its reply.
struct Pending {
    id: u64,
    rank: u64,
    write: bool,
    due: u64,
    /// When the request's last byte was written (0 until then).
    sent: u64,
    /// Offset just past the request in the connection's byte stream.
    end: u64,
    record: bool,
}

struct Conn {
    sock: TcpStream,
    dec: Decoder,
    out: Vec<u8>,
    /// When the oldest unsent byte of `out` was encoded.
    out_since: u64,
    /// Bytes encoded and bytes written over the connection's life.
    encoded: u64,
    written: u64,
    queue: VecDeque<Pending>,
    next_id: u64,
}

/// What the client measured for the requests issued while recording.
#[derive(Default)]
struct Rec {
    /// Latency per request: due time to reply for the open loop, send
    /// to reply for the closed loop (where a request is due when sent).
    rtt: Vec<u64>,
    /// When each of those replies arrived (nondecreasing).
    reply: Vec<u64>,
    /// How late each request was sent after it was due.
    lag: Vec<u64>,
    /// Client-side send spans: encode of the first request to `write`
    /// returning, per write.
    send: Vec<u64>,
    /// `(sent, reply)` per request, kept in the traced pass to join with
    /// server spans.
    pairs: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    slo_miss: u64,
    first_due: u64,
    last_reply: u64,
}

impl Rec {
    /// Completed requests per second over the recorded span.
    fn rate(&self) -> f64 {
        let span = self.last_reply.saturating_sub(self.first_due);
        if span == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 * 1e9 / span as f64
        }
    }
}

/// The load generator: one thread, every connection driven through one
/// `ppoll`.
struct Client {
    conns: Vec<Conn>,
    ops: OpStream,
    mix: Mix,
    /// Highest version written to each rank so far (0 = the preload).
    max_version: Vec<u64>,
    buf: Vec<u8>,
    rec: Rec,
    keep_pairs: bool,
    /// The running phase is a closed loop (latency runs from send).
    closed: bool,
}

enum Stop {
    Count(u64),
    At(u64),
}

impl Client {
    fn connect(server: &Server, mix: &Mix, seed: u64) -> Self {
        sys::tight_timer_slack();
        let conns = (0..CONNS)
            .map(|_| {
                let sock = TcpStream::connect(server.handle.local_addr()).expect("connect");
                sock.set_nodelay(true).expect("TCP_NODELAY");
                sock.set_nonblocking(true).expect("nonblocking socket");
                Conn {
                    sock,
                    dec: Decoder::new(),
                    out: Vec::new(),
                    out_since: 0,
                    encoded: 0,
                    written: 0,
                    queue: VecDeque::new(),
                    next_id: 0,
                }
            })
            .collect();
        Self {
            conns,
            ops: OpStream::new(mix, seed, 0),
            mix: *mix,
            max_version: vec![0; mix.keys as usize],
            buf: vec![0; 64 * 1024],
            rec: Rec::default(),
            keep_pairs: false,
            closed: true,
        }
    }

    /// Encodes the stream's next operation on connection `c`, due at `due`.
    fn issue(&mut self, c: usize, due: u64, record: bool) {
        let op = self.ops.next_op();
        let conn = &mut self.conns[c];
        let id = conn.next_id;
        conn.next_id += 1;
        if conn.out.is_empty() {
            conn.out_since = now_ns();
        }
        let key = stream::key(op.rank).to_vec();
        let req = if op.write {
            self.max_version[op.rank as usize] = op.version();
            let value = stream::value(op.rank, op.version(), self.mix.value_len);
            Request::Put { id, key, value }
        } else {
            Request::Get { id, key }
        };
        let before = conn.out.len();
        encode_request(&req, &mut conn.out).expect("requests fit one frame");
        conn.encoded += (conn.out.len() - before) as u64;
        conn.queue.push_back(Pending {
            id,
            rank: op.rank,
            write: op.write,
            due,
            sent: 0,
            end: conn.encoded,
            record,
        });
    }

    /// Writes what the socket takes without blocking; stamps the send
    /// time of requests whose last byte went out.
    fn flush(&mut self, c: usize) -> Result<(), String> {
        let conn = &mut self.conns[c];
        let mut written = 0;
        while written < conn.out.len() {
            match conn.sock.write(&conn.out[written..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        conn.out.drain(..written);
        conn.written += written as u64;
        let t = now_ns();
        let mut record = false;
        for p in conn.queue.iter_mut().rev().take_while(|p| p.sent == 0) {
            if p.end <= conn.written {
                p.sent = t;
                record |= p.record;
            }
        }
        if record {
            self.rec.send.push(t - conn.out_since);
        }
        Ok(())
    }

    /// Reads and checks every reply available on connection `c`.
    fn receive(&mut self, c: usize) -> Result<(), String> {
        loop {
            match self.conns[c].sock.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.conns[c].dec.feed(&self.buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let t = now_ns();
        let closed = self.closed;
        while let Some(resp) = self.conns[c]
            .dec
            .next_response()
            .map_err(|e| format!("undecodable reply: {e}"))?
        {
            let p = self.conns[c]
                .queue
                .pop_front()
                .ok_or("reply with no request outstanding")?;
            if resp.id() != p.id {
                return Err(format!("reply id {} for request {}", resp.id(), p.id));
            }
            let ok = match (&resp, p.write) {
                (Response::Ok { .. }, true) => true,
                (Response::Value { value, .. }, false) => stream::value_ok(
                    value,
                    p.rank,
                    self.mix.value_len,
                    self.max_version[p.rank as usize],
                ),
                _ => false,
            };
            if !p.record {
                if !ok {
                    return Err(format!("wrong reply during set-up: {resp:?}"));
                }
                continue;
            }
            let rec = &mut self.rec;
            let rtt = t - if closed { p.sent } else { p.due };
            rec.attempted += 1;
            rec.first_due = if rec.first_due == 0 {
                p.due
            } else {
                rec.first_due.min(p.due)
            };
            rec.last_reply = t;
            rec.rtt.push(rtt);
            rec.reply.push(t);
            rec.lag.push(p.sent.saturating_sub(p.due));
            if self.keep_pairs {
                rec.pairs.push((p.sent, t));
            }
            if !ok {
                rec.failed += 1;
            }
            if !ok || rtt > SLO_NS {
                rec.slo_miss += 1;
            }
        }
        Ok(())
    }
}

impl Client {
    /// Issues load until `stop`, then waits for every outstanding reply.
    /// Requests issued in the phase are measured when `record` is set.
    fn phase(&mut self, load: Load, stop: Stop, record: bool) -> Result<(), String> {
        self.closed = matches!(load, Load::Closed { .. });
        let mut next_due = now_ns();
        let mut burst_no = 0;
        let mut issued = 0;
        let mut drain_until = None;
        let mut fds: Vec<PollFd> = self.conns.iter().map(|c| PollFd::new(&c.sock)).collect();
        loop {
            let now = now_ns();
            let issuing = match stop {
                Stop::Count(n) => issued < n,
                Stop::At(t) => now < t,
            };
            if issuing {
                match load {
                    Load::Closed { per_conn } => {
                        for c in 0..CONNS {
                            while self.conns[c].queue.len() < per_conn && issued < limit(&stop) {
                                self.issue(c, now, record);
                                issued += 1;
                            }
                        }
                    }
                    Load::Open { period_ns, burst } => {
                        while next_due <= now {
                            for _ in 0..burst {
                                self.issue(burst_no % CONNS, next_due, record);
                                issued += 1;
                            }
                            burst_no += 1;
                            next_due += period_ns;
                        }
                    }
                }
            } else {
                if self.conns.iter().all(|c| c.queue.is_empty()) {
                    return Ok(());
                }
                let until = *drain_until.get_or_insert(now + DRAIN_LIMIT.as_nanos() as u64);
                if now > until {
                    return Err("replies still outstanding at the drain limit".into());
                }
            }
            for c in 0..CONNS {
                if !self.conns[c].out.is_empty() {
                    self.flush(c)?;
                }
            }
            let timeout = match (issuing, load, &stop) {
                (true, Load::Open { .. }, _) => Some(next_due.saturating_sub(now_ns())),
                (true, Load::Closed { .. }, Stop::At(t)) => Some(t.saturating_sub(now_ns())),
                (true, Load::Closed { .. }, Stop::Count(_)) => None,
                (false, ..) => Some(10_000_000),
            };
            for (fd, conn) in fds.iter_mut().zip(&self.conns) {
                fd.events = POLLIN | if conn.out.is_empty() { 0 } else { POLLOUT };
                fd.revents = 0;
            }
            sys::wait(&mut fds, timeout);
            for (c, fd) in fds.iter().enumerate() {
                if fd.revents & !POLLOUT != 0 {
                    self.receive(c)?;
                }
            }
        }
    }
}

fn limit(stop: &Stop) -> u64 {
    match *stop {
        Stop::Count(n) => n,
        Stop::At(_) => u64::MAX,
    }
}

/// Set-up as the benchmark times it: server start, preload, connections
/// and warm-up.
fn setup(w: &Workload, seed: u64) -> Result<(Server, Client), String> {
    let server = Server::start(&w.mix);
    let mut client = Client::connect(&server, &w.mix, seed);
    let stop = match w.warmup {
        Warmup::Requests(n) => Stop::Count(n),
        Warmup::Seconds(s) => Stop::At(now_ns() + (s * 1e9) as u64),
    };
    client.phase(w.load, stop, false)?;
    Ok((server, client))
}

fn deadline(seconds: f64) -> Stop {
    Stop::At(now_ns() + (seconds * 1e9) as u64)
}

/// The untraced run: every end-to-end metric, over `SETUPS` instances
/// that each set up a fresh server and measure an equal share of the run
/// in windows of `window_ns`.
pub fn run(w: &Workload, seed: u64, seconds: f64, report: &mut Report) {
    let mut win = Windows::default();
    let mut total_compactions = 0;
    for _ in 0..crate::SETUPS {
        win.start_instance();
        let (server, mut client) = match setup(w, seed) {
            Ok(x) => x,
            Err(e) => return report.fail(1, format!("set-up: {e}")),
        };
        win.setup_done();
        win.footprint = server.footprint_bytes();
        let (c0, f0) = (server.compactions(), server.freezes());
        if let Err(e) = client.phase(w.load, deadline(seconds / crate::SETUPS as f64), true) {
            report.fail(1, format!("measured window: {e}"));
        }
        let (compactions, freezes) = (server.compactions() - c0, server.freezes() - f0);
        let rec = std::mem::take(&mut client.rec);
        server.stop(client);
        win.end_instance();
        report.attempted += rec.attempted;
        if rec.failed > 0 {
            report.fail(
                rec.failed,
                format!("{} wrong or failed replies", rec.failed),
            );
        }
        let rate = rec.rate();
        report.note(format!(
            "{} requests, {rate:.1} ops/s, {freezes} freezes and {compactions} compactions",
            rec.attempted
        ));
        if let Some(offered) = w.load.offered_per_s() {
            if rate < 0.99 * offered {
                report.fail(
                    0,
                    format!("delivered {rate:.1} ops/s < 99% of offered {offered:.0}: backlog"),
                );
            }
            report.note(Dist::new(rec.lag).describe("generator lag", 99.0));
        }
        total_compactions += compactions;
        // The recorded span split into equal windows of about `window_ns`.
        let span = rec.last_reply.saturating_sub(rec.first_due);
        let n = (span as f64 / w.window_ns as f64).round().max(1.0) as u64;
        let len = span / n;
        for k in 0..n {
            let from = rec.first_due + k * len;
            let to = if k + 1 == n {
                rec.last_reply + 1
            } else {
                from + len
            };
            let (a, b) = (
                rec.reply.partition_point(|&t| t < from),
                rec.reply.partition_point(|&t| t < to),
            );
            // An open loop's replies bunch up behind a stall, so its windows
            // all carry the instance's delivered rate.
            let window_rate = match w.load {
                Load::Open { .. } => rate,
                Load::Closed { .. } => (b - a) as f64 * 1e9 / (to - from) as f64,
            };
            win.add(window_rate, &Dist::new(rec.rtt[a..b].to_vec()));
        }
        let rtt = Dist::new(rec.rtt);
        for p in [50.0, 99.0, 99.9] {
            report.note(rtt.describe("request latency", p));
        }
    }
    if total_compactions < w.min_compactions {
        report.fail(
            0,
            format!(
                "{total_compactions} compactions in the measured windows, need {}: \
                 the store never reached its steady state",
                w.min_compactions
            ),
        );
    }
    win.report(report);
}

/// Server spans of one sampled burst.
#[derive(Default)]
struct Burst {
    /// `net.decode` start: the burst's bytes had arrived.
    start: u64,
    /// `net.flush` start: the burst's replies began to be written, so no
    /// reply of the burst can reach the client earlier.
    write: u64,
    request: u64,
    flush: u64,
}

/// Sampled server bursts joined with the client requests they answered.
#[derive(Default)]
struct Joined {
    sampled: usize,
    /// Decoded-to-encoded service time of every sampled burst.
    service: Vec<u64>,
    /// Per matched burst: decode, queue, lock wait, hold, flush.
    parts: Vec<[u64; 5]>,
    /// Client round trip of the request each matched burst answered.
    rtt: Vec<u64>,
    /// That round trip minus the burst's service time.
    rtt_minus_service: Vec<f64>,
}

impl Joined {
    /// Joins one traced segment. Client and server share the trace clock,
    /// so a burst answered the request whose reply is the first to arrive
    /// after the burst's replies began to be written, among requests sent
    /// before the burst was decoded.
    fn add(&mut self, events: &[trace::ExportEvent], pairs: &mut [(u64, u64)]) {
        let mut bursts: HashMap<u64, Burst> = HashMap::new();
        for e in events.iter().filter(|e| e.trace_id != 0) {
            let b = bursts.entry(e.trace_id).or_default();
            match e.name.as_str() {
                "net.decode" => b.start = e.t0_ns,
                "net.request" => b.request = e.dur_ns,
                "net.flush" => {
                    b.write = e.t0_ns;
                    b.flush += e.dur_ns;
                }
                _ => {}
            }
        }
        pairs.sort_unstable_by_key(|p| p.1);
        for d in trace::decompose_requests(events) {
            let Some(b) = bursts
                .get(&d.trace_id)
                .filter(|b| b.start > 0 && b.write > 0)
            else {
                continue;
            };
            self.sampled += 1;
            let service = b.request.saturating_sub(b.flush);
            self.service.push(service);
            let first = pairs.partition_point(|p| p.1 < b.write);
            if let Some(&(sent, reply)) = pairs[first..].iter().take(64).find(|p| p.0 <= b.start) {
                self.parts.push([
                    d.decode_ns,
                    d.queue_ns,
                    d.lock_wait_ns,
                    d.hold_ns,
                    d.flush_ns,
                ]);
                self.rtt.push(reply - sent);
                self.rtt_minus_service
                    .push((reply - sent) as f64 / 1e3 - service as f64 / 1e3);
            }
        }
    }
}

fn mean_us(xs: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = xs.fold((0u64, 0u64), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e3
    }
}

/// The traced pass of a loopback workload: per-layer metrics only.
///
/// A closed loop alternates untraced and traced segments, so the tracing
/// overhead is one ratio of two interleaved throughputs; an open loop
/// offers a fixed rate and is traced throughout. A workload that writes
/// then replays its stream straight into the `Db` to time each `get` and
/// `put` call.
pub fn layers(w: &Workload, seed: u64, seconds: f64, report: &mut Report) {
    let (server, mut client) = match setup(w, seed) {
        Ok(x) => x,
        Err(e) => return report.fail(1, format!("set-up: {e}")),
    };
    client.keep_pairs = true;
    let closed = matches!(w.load, Load::Closed { .. });
    let segments: &[bool] = if closed {
        &[false, true, false, true]
    } else {
        &[true]
    };
    let seg = seconds / segments.len() as f64;

    let mut joined = Joined::default();
    let mut rates = [Vec::new(), Vec::new()];
    let (mut rtt, mut lag, mut send, mut wait) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut slo_miss, mut traced_ops) = (0, 0, 0, 0);
    let (mut polls, mut wakes, mut batches) = (0.0, 0.0, 0.0);
    let (c0, f0) = (server.compactions(), server.freezes());
    for &traced in segments {
        client.rec = Rec::default();
        let before = hemlock_obs::registry().snapshot();
        if traced {
            trace::reset_rings();
            trace::set_sampling(TRACE_EVERY, seed);
        }
        let res = client.phase(w.load, deadline(seg), true);
        trace::set_sampling(0, 0);
        if let Err(e) = res {
            report.fail(1, format!("traced pass: {e}"));
            break;
        }
        let rec = std::mem::take(&mut client.rec);
        rates[usize::from(traced)].push(rec.rate());
        attempted += rec.attempted;
        failed += rec.failed;
        slo_miss += rec.slo_miss;
        if traced {
            let delta = hemlock_obs::registry().snapshot().delta(&before);
            let get = |k: &str| delta.get(k).unwrap_or(0.0);
            polls += get("pool.polls");
            wakes += get("pool.wakes");
            batches += get("minikv.batch_size.count");
            traced_ops += rec.attempted - rec.failed;
            let mut pairs = rec.pairs;
            wait.extend(pairs.iter().map(|p| p.1 - p.0));
            joined.add(&trace::export_events(), &mut pairs);
            rtt.extend(rec.rtt);
            lag.extend(rec.lag);
            send.extend(rec.send);
        }
    }
    let (compactions, freezes) = (server.compactions() - c0, server.freezes() - f0);
    report.attempted += attempted;
    if failed > 0 {
        report.fail(
            failed,
            format!("{failed} wrong or failed replies in the traced pass"),
        );
    }

    let service = Dist::new(joined.service.clone());
    let rtt_all = Dist::new(rtt);
    report.note(format!(
        "traced pass: {} sampled bursts (1 in {TRACE_EVERY}), {} joined with a client request",
        joined.sampled,
        joined.rtt.len()
    ));
    report.note(service.describe("server service", 50.0));
    report.note(rtt_all.describe("traced request latency", 50.0));
    let attributed: u64 = joined.parts.iter().map(|p| p.iter().sum::<u64>()).sum();
    let rtt_sum: u64 = joined.rtt.iter().sum();
    let ops = traced_ops.max(1) as f64;
    let part = |i: usize| mean_us(joined.parts.iter().map(|p| p[i]));
    report.metric("net.service_p50_us", service.pct_us(50.0), "us");
    report.metric("net.service_p99_us", service.pct_us(99.0), "us");
    report.metric(
        "net.rtt_minus_service_us",
        median(&joined.rtt_minus_service),
        "us",
    );
    report.metric("bench.client_send_us", Dist::new(send).pct_us(50.0), "us");
    report.metric("bench.client_wait_us", Dist::new(wait).pct_us(50.0), "us");
    report.metric("bench.gen_lag_p99_us", Dist::new(lag).pct_us(99.0), "us");
    report.metric("trace.decode_us", part(0), "us");
    report.metric("trace.queue_us", part(1), "us");
    report.metric("trace.lockwait_us", part(2), "us");
    report.metric("trace.hold_us", part(3), "us");
    report.metric("trace.flush_us", part(4), "us");
    report.metric(
        "trace.unattributed_frac",
        1.0 - attributed as f64 / rtt_sum.max(1) as f64,
        "ratio",
    );
    report.metric("trace.joined_requests", joined.rtt.len() as f64, "count");
    report.metric("pool.polls_per_op", polls / ops, "ratio");
    report.metric("pool.wakes_per_op", wakes / ops, "ratio");
    report.metric(
        "minikv.batch_size_mean",
        traced_ops as f64 / batches.max(1.0),
        "ops",
    );
    report.metric(
        "slo_miss_frac",
        slo_miss as f64 / attempted.max(1) as f64,
        "ratio",
    );
    report.metric(
        "error_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    if closed {
        let overhead = 1.0 - rates[1].iter().sum::<f64>() / rates[0].iter().sum::<f64>();
        report.metric("obs.trace_overhead_frac", overhead, "ratio");
    }
    if w.mix.write_pct > 0 && !closed {
        report.metric("minikv.freezes", freezes as f64, "count");
        report.metric("minikv.compactions", compactions as f64, "count");
        replay_db(&server.db, &mut client, seg.min(2.0), report);
    }
    server.stop(client);
}

/// Replays the client's stream straight into the `Db` for `seconds`,
/// timing every `get` and `put` call.
fn replay_db(db: &Db<Hemlock>, client: &mut Client, seconds: f64, report: &mut Report) {
    let (mut gets, mut puts) = (Vec::new(), Vec::new());
    let len = client.mix.value_len;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let op = client.ops.next_op();
        let key = stream::key(op.rank);
        report.attempted += 1;
        if op.write {
            let value = stream::value(op.rank, op.version(), len);
            let c0 = now_ns();
            db.put(&key, &value);
            puts.push(now_ns() - c0);
            client.max_version[op.rank as usize] = op.version();
        } else {
            let c0 = now_ns();
            let got = db.get(&key);
            gets.push(now_ns() - c0);
            let max = client.max_version[op.rank as usize];
            if !got.is_some_and(|v| stream::value_ok(&v, op.rank, len, max)) {
                report.fail(1, format!("Db::get of rank {} read a wrong value", op.rank));
            }
        }
    }
    let (gets, puts) = (Dist::new(gets), Dist::new(puts));
    report.note(gets.describe("Db::get", 99.0));
    report.note(puts.describe("Db::put", 99.0));
    report.metric("minikv.get_p99_us", gets.pct_us(99.0), "us");
    report.metric("minikv.put_p99_us", puts.pct_us(99.0), "us");
}
