//! `fxnet serve` — a memoizing HTTP query daemon over the campaign
//! engine.
//!
//! A cell's metrics are a pure function of its identity-derived seed,
//! so "γ for this scenario × fault × algorithm" is a perfect
//! memoization target: warm queries answer from the content-addressed
//! [`fx_store::Store`], cold queries are scheduled onto a small
//! compute pool through a **bounded priority queue** (priority =
//! waiter count, so hot cells jump the line) with single-flight
//! coalescing — N concurrent identical misses cost one computation.
//! When the queue is full the daemon answers `429 Too Many Requests`
//! with a `Retry-After` header instead of accepting unbounded work.
//!
//! The HTTP layer is a hand-rolled blocking HTTP/1.1 server (the
//! build environment is offline — no crates.io), deliberately tiny:
//! GET only, no body parsing, bounded request-line/header sizes,
//! keep-alive + pipelining via a per-connection read loop. Each
//! connection gets its own thread, under a hard cap
//! ([`ServeOptions::max_connections`]); over the cap the accept thread
//! answers `503` + `Retry-After` itself, so an idle keep-alive socket
//! or a blocked cold query only ever holds its own connection, and a
//! write that cannot finish within [`WRITE_TIMEOUT`] (a client that
//! sends requests but never reads the answers) ends its connection.
//! Every response leaves in a single write on a `TCP_NODELAY` socket,
//! so Nagle's algorithm never holds a body back behind the client's
//! delayed ACK. Endpoints:
//!
//! * `GET /v1/cell?scenario=S&fault=F&algo=A[&replicate=N]` — the
//!   query surface. The response body is **deterministic** (identity
//!   and metrics only — no wall-clock fields), so a response can be
//!   byte-compared across hot/cold/chaos runs; the `X-Cache` header
//!   (`hit` or `miss`) carries the cache disposition out of band.
//! * `GET /v1/health` — liveness probe (`ok`).
//! * `GET /v1/stats` — hits/misses/coalesced/computed/rejected
//!   counters, `refused` (connections answered `503` over the cap),
//!   plus inflight and queue-depth gauges. Gauges live in
//!   dedicated atomics (fx-trace counters drain on snapshot); every
//!   counter is *also* mirrored to `serve`-target trace counters so
//!   `FXNET_TRACE=serve` works and tests can assert single-flight.
//!
//! Failure containment mirrors the campaign engine: a panicking cell
//! is caught by [`run_cell_resilient`]'s machinery downstream of the
//! same chaos sites, a failed cell answers `500` without wedging a
//! worker, and `store_io` chaos degrades lookups to recomputes — by
//! the determinism contract the served bytes never change.

use crate::engine::store_lookup;
use crate::exec::{cell_params, CellResult};
use crate::grid::{cell_seed, expand, Cell};
use crate::spec::{Algo, CampaignSpec};
use fx_graph::par::CancelToken;
use fx_trace::{Counter, Target};
use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static TRACE_REQUESTS: Counter = Counter::new(Target::Serve, "requests");
static TRACE_HITS: Counter = Counter::new(Target::Serve, "hits");
static TRACE_MISSES: Counter = Counter::new(Target::Serve, "misses");
static TRACE_COALESCED: Counter = Counter::new(Target::Serve, "coalesced");
static TRACE_COMPUTED: Counter = Counter::new(Target::Serve, "computed");
static TRACE_REJECTED: Counter = Counter::new(Target::Serve, "rejected");
static TRACE_REFUSED: Counter = Counter::new(Target::Serve, "refused");
static TRACE_BAD_REQUESTS: Counter = Counter::new(Target::Serve, "bad_requests");

/// Maximum bytes of request line + headers the server reads before
/// answering `431 Request Header Fields Too Large`.
pub const MAX_HEADER_BYTES: usize = 8192;

/// `Retry-After` seconds suggested on a `429` backpressure response
/// and on a `503` over the connection cap.
pub const RETRY_AFTER_SECS: u64 = 1;

/// How long an idle keep-alive connection waits for its next request.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a request line and its headers may take to arrive once
/// the request's first byte has: a client that trickles its headers
/// cannot hold a connection for the whole idle timeout per byte.
const HEADER_TIMEOUT: Duration = Duration::from_secs(2);

/// How long one write may block before its connection is closed: a
/// response is a few KiB at most, so a write only blocks this long
/// when the client has stopped reading and its socket buffers are
/// full, and the slot goes to the next client.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Configuration of one [`serve`] daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Hard cap on open connections, each served by its own thread.
    /// A connection over the cap is answered `503` + `Retry-After` +
    /// `Connection: close` by the accept thread.
    pub max_connections: usize,
    /// Cell-compute threads draining the miss queue.
    pub compute_threads: usize,
    /// Bounded miss-queue capacity (cells *waiting*, excluding the
    /// ones already computing). A miss arriving at a full queue is
    /// answered `429` + `Retry-After` — accepted requests are never
    /// dropped.
    pub queue_cap: usize,
    /// How long a request waits for its cold cell before answering
    /// `504 Gateway Timeout`. The cell keeps computing and is
    /// published to the store, so a retry becomes a hit.
    pub request_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7171".to_string(),
            max_connections: 64,
            compute_threads: 1,
            queue_cap: 64,
            request_timeout_ms: 120_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling: single-flight jobs behind a bounded priority queue
// ---------------------------------------------------------------------------

/// One in-flight cold cell. All concurrent requests for the same
/// canonical key share one `Job` (single-flight).
struct Job {
    cell: Cell,
    key: u64,
    /// `None` until computed; then the terminal outcome.
    done: Mutex<Option<Result<CellResult, String>>>,
    cv: Condvar,
    /// Requests waiting on this job — the scheduling priority.
    waiters: AtomicU64,
    /// True while the job is still in the queue (not yet claimed by a
    /// compute worker). Cleared exactly once; duplicate lazy heap
    /// entries observe `false` and are skipped.
    queued: AtomicBool,
}

/// Max-heap entry: higher waiter-count first, then FIFO.
struct QueueEntry {
    prio: u64,
    seq: u64,
    key: u64,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio.cmp(&other.prio).then(other.seq.cmp(&self.seq)) // earlier seq wins ties
    }
}

#[derive(Default)]
struct JobQueue {
    heap: BinaryHeap<QueueEntry>,
    jobs: HashMap<u64, Arc<Job>>,
    /// Jobs in `Queued` state — the bounded quantity.
    queued: usize,
    seq: u64,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    computed: AtomicU64,
    rejected: AtomicU64,
    refused: AtomicU64,
    bad_requests: AtomicU64,
    inflight: AtomicU64,
}

struct Shared {
    spec: CampaignSpec,
    store: Option<fx_store::Store>,
    /// Canonical cell key → the spec's expanded cell (so queries that
    /// name a spec grid point run with that grid's overrides/seed).
    known: HashMap<String, Cell>,
    opts: ServeOptions,
    stop: AtomicBool,
    cancel: CancelToken,
    /// A handle on every open connection (by connection id), so the
    /// cap can count them and shutdown can unblock their threads.
    open: Mutex<HashMap<u64, TcpStream>>,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    stats: Stats,
}

/// A running `fxnet serve` daemon. Dropping the handle does **not**
/// stop the server; call [`Server::shutdown`] (tests) or
/// [`Server::join`] (CLI).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Starts the daemon for `spec` on `opts.addr` and returns
/// immediately; request handling happens on background threads.
///
/// The store is the spec's `[params] store` (queries still work
/// without one — every query is then a recompute, single-flighted).
pub fn serve(spec: &CampaignSpec, opts: &ServeOptions) -> Result<Server, String> {
    let store = match &spec.params.store {
        Some(dir) => Some(
            fx_store::Store::open(dir)
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let known = expand(spec)?
        .into_iter()
        .map(|cell| (canonical_cell_key(&cell), cell))
        .collect();
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let shared = Arc::new(Shared {
        spec: spec.clone(),
        store,
        known,
        opts: opts.clone(),
        stop: AtomicBool::new(false),
        cancel: CancelToken::new(),
        open: Mutex::new(HashMap::new()),
        queue: Mutex::new(JobQueue::default()),
        queue_cv: Condvar::new(),
        stats: Stats::default(),
    });
    let mut threads = Vec::new();
    {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }
    for i in 0..opts.compute_threads.max(1) {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-compute-{i}"))
                .spawn(move || compute_worker(&shared))
                .map_err(|e| format!("spawn: {e}"))?,
        );
    }
    Ok(Server {
        addr,
        shared,
        threads,
    })
}

impl Server {
    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks the calling thread until the daemon stops (the CLI
    /// foreground mode; in practice until the process is killed).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the daemon: cancels in-flight computations
    /// cooperatively, closes open connections, wakes every worker, and
    /// joins all threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cancel.cancel();
        // Closing the read side ends an idle keep-alive wait at once,
        // while a request still waiting for its cell can write its
        // answer. The accept loop registers connections under this
        // lock after checking `stop`, so none slips past.
        for stream in self
            .shared
            .open
            .lock()
            .expect("open-connection lock poisoned")
            .values()
        {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Requests waiting on jobs no compute worker will claim now
        // answer 503 instead of waiting out their request timeout.
        for job in self
            .shared
            .queue
            .lock()
            .expect("queue lock poisoned")
            .jobs
            .values()
        {
            let _done = job.done.lock().expect("job lock poisoned");
            job.cv.notify_all();
        }
        // Wake the accept loop with a throwaway connection and the
        // compute pool through its condvar.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The canonical (spelling-normalized) identity key of a cell — what
/// queries are resolved against.
fn canonical_cell_key(cell: &Cell) -> String {
    let canonical = fx_core::Scenario::from_spec(&cell.graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| cell.graph.clone());
    format!(
        "{canonical}|{}|{}|r{}",
        cell.fault, cell.algo, cell.replicate
    )
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    for conn in listener.incoming() {
        // Join finished connection threads (a panic in one was already
        // reported by the panic hook).
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let _ = threads.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let mut open = shared.open.lock().expect("open-connection lock poisoned");
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if open.len() >= shared.opts.max_connections.max(1) {
            drop(open);
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            TRACE_REFUSED.incr();
            let mut resp = Response::error(
                503,
                "Service Unavailable",
                "connection limit reached; retry shortly",
            );
            resp.extra_headers
                .push(format!("Retry-After: {RETRY_AFTER_SECS}"));
            let _ = resp.write_to(&mut stream, false);
            // Half-close first: the FIN then goes out ahead of the
            // reset that closing over an unread request triggers, so
            // the client reads the response and a clean end of stream.
            let _ = stream.shutdown(Shutdown::Write);
            continue;
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        next_id += 1;
        let id = next_id;
        open.insert(id, handle);
        drop(open);
        let conn_shared = shared.clone();
        match std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || connection(stream, id, &conn_shared))
        {
            Ok(thread) => threads.push(thread),
            // The closure, and the stream with it, is dropped.
            Err(_) => {
                shared
                    .open
                    .lock()
                    .expect("open-connection lock poisoned")
                    .remove(&id);
            }
        }
    }
    for thread in threads {
        let _ = thread.join();
    }
}

/// Frees a connection's slot under the cap when its thread ends,
/// including by a panic.
struct Slot<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // A map insert or remove never leaves it half-updated, so a
        // poisoned lock still guards valid data.
        self.shared
            .open
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
    }
}

fn connection(stream: TcpStream, id: u64, shared: &Shared) {
    // Dropped before `stream`, even on a panic (locals drop before
    // parameters).
    let slot = Slot { shared, id };
    // Errors on one connection (including a client that vanished
    // mid-response) only end that connection.
    handle_connection(&stream, shared);
    // Free the slot before the client can see the close, so a client
    // that has seen it can reconnect without tripping the cap.
    drop(slot);
    // Half-close first, for the same reason as over the cap.
    let _ = stream.shutdown(Shutdown::Write);
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra_headers: Vec<String>,
    body: String,
}

impl Response {
    fn new(status: u16, reason: &'static str, body: String) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    fn text(status: u16, reason: &'static str, body: &str) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain",
            extra_headers: Vec::new(),
            body: body.to_string(),
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        let body = fx_json::Json::Obj(vec![(
            "error".to_string(),
            fx_json::Json::Str(message.to_string()),
        )]);
        Response::new(status, reason, fx_json::to_string(&body))
    }

    /// Writes status line, headers and body in one `write_all`, so the
    /// response leaves in as few segments as its size allows.
    /// `keep_alive` says whether the server reads another request off
    /// this connection afterwards.
    fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for h in &self.extra_headers {
            wire.push_str(h);
            wire.push_str("\r\n");
        }
        wire.push_str("\r\n");
        wire.push_str(&self.body);
        out.write_all(wire.as_bytes())
    }
}

/// Outcome of reading one request off the wire.
enum ReadOutcome {
    /// `GET` path (with query string still attached) + whether the
    /// client asked to close the connection after the response.
    Request { path: String, close: bool },
    /// Clean end of the connection (EOF between requests, timeout).
    Closed,
    /// Protocol violation → respond and close.
    Bad(Response),
}

fn read_request(reader: &mut impl Read) -> ReadOutcome {
    let mut line = String::new();
    match read_capped_line(reader, &mut line) {
        Ok(0) => return ReadOutcome::Closed,
        Ok(_) => {}
        Err(CapErr::TooLong) => {
            return ReadOutcome::Bad(Response::error(
                431,
                "Request Header Fields Too Large",
                "request line too long",
            ))
        }
        Err(CapErr::Io) => return ReadOutcome::Closed,
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p.to_string(), v),
        _ => {
            return ReadOutcome::Bad(Response::error(
                400,
                "Bad Request",
                "malformed request line",
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Bad(Response::error(
            400,
            "Bad Request",
            "unsupported protocol version",
        ));
    }
    // Headers: consumed and (mostly) ignored — GET only, no body —
    // but bounded, and `Connection: close` is honored.
    let mut close = version == "HTTP/1.0";
    let mut total = line.len();
    loop {
        let mut header = String::new();
        match read_capped_line(reader, &mut header) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => total += n,
            Err(CapErr::TooLong) | Err(CapErr::Io) if total > MAX_HEADER_BYTES => {
                return ReadOutcome::Bad(Response::error(
                    431,
                    "Request Header Fields Too Large",
                    "headers exceed the size bound",
                ))
            }
            Err(CapErr::TooLong) => {
                return ReadOutcome::Bad(Response::error(
                    431,
                    "Request Header Fields Too Large",
                    "header line too long",
                ))
            }
            Err(CapErr::Io) => return ReadOutcome::Closed,
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if total > MAX_HEADER_BYTES {
            return ReadOutcome::Bad(Response::error(
                431,
                "Request Header Fields Too Large",
                "headers exceed the size bound",
            ));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    if method != "GET" {
        return ReadOutcome::Bad(Response::error(
            405,
            "Method Not Allowed",
            "only GET is supported",
        ));
    }
    ReadOutcome::Request { path, close }
}

enum CapErr {
    TooLong,
    Io,
}

/// `read_line` with a hard size cap, so a malicious endless line
/// cannot balloon memory or wedge the worker past the cap.
fn read_capped_line(reader: &mut impl Read, out: &mut String) -> Result<usize, CapErr> {
    let mut bytes = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
                if bytes.len() > MAX_HEADER_BYTES {
                    return Err(CapErr::TooLong);
                }
            }
            Err(_) => return Err(CapErr::Io),
        }
    }
    out.push_str(&String::from_utf8_lossy(&bytes));
    Ok(bytes.len())
}

/// The read side of a connection: while waiting for a request's first
/// byte, reads time out after [`IDLE_TIMEOUT`]; once it has arrived,
/// the rest of the head must arrive by `deadline`.
struct ConnReader {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Read for ConnReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timeout = match self.deadline {
            None => IDLE_TIMEOUT,
            Some(deadline) => deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or(std::io::ErrorKind::TimedOut)?,
        };
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.read(buf)
    }
}

fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(ConnReader {
        stream: reader_stream,
        deadline: None,
    });
    let mut stream = stream;
    loop {
        reader.get_mut().deadline = None;
        match reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => {}
            _ => return, // EOF, idle timeout, or shutdown
        }
        reader.get_mut().deadline = Some(Instant::now() + HEADER_TIMEOUT);
        match read_request(&mut reader) {
            ReadOutcome::Closed => return,
            ReadOutcome::Bad(resp) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                TRACE_BAD_REQUESTS.incr();
                let _ = resp.write_to(&mut stream, false);
                return; // protocol errors poison the connection
            }
            ReadOutcome::Request { path, close } => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                TRACE_REQUESTS.incr();
                let resp = route(&path, shared);
                let close = close || shared.stop.load(Ordering::SeqCst);
                if resp.write_to(&mut stream, !close).is_err() || close {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing and the /v1/cell pipeline
// ---------------------------------------------------------------------------

fn route(path: &str, shared: &Shared) -> Response {
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    match route {
        "/v1/health" => Response::text(200, "OK", "ok\n"),
        "/v1/stats" => stats_response(shared),
        "/v1/cell" => cell_response(query, shared),
        _ => Response::error(404, "Not Found", "unknown path"),
    }
}

fn stats_response(shared: &Shared) -> Response {
    use fx_json::Json;
    let queue_depth = shared.queue.lock().unwrap().queued as u64;
    let s = &shared.stats;
    let u = |n: &AtomicU64| Json::UInt(n.load(Ordering::Relaxed));
    let body = Json::Obj(vec![
        ("requests".to_string(), u(&s.requests)),
        ("hits".to_string(), u(&s.hits)),
        ("misses".to_string(), u(&s.misses)),
        ("coalesced".to_string(), u(&s.coalesced)),
        ("computed".to_string(), u(&s.computed)),
        ("rejected".to_string(), u(&s.rejected)),
        ("refused".to_string(), u(&s.refused)),
        ("bad_requests".to_string(), u(&s.bad_requests)),
        ("inflight".to_string(), u(&s.inflight)),
        ("queue_depth".to_string(), Json::UInt(queue_depth)),
        (
            "queue_cap".to_string(),
            Json::UInt(shared.opts.queue_cap as u64),
        ),
        (
            "store_entries".to_string(),
            Json::UInt(shared.store.as_ref().map_or(0, |s| s.len() as u64)),
        ),
    ]);
    Response::new(200, "OK", fx_json::to_string(&body))
}

/// Percent-decodes a query component (`%41` → `A`). Malformed escapes
/// pass through literally — the scenario/fault parsers reject garbage
/// downstream with a clear message.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Some(hex) = s.get(i + 1..i + 3) {
                if let Ok(b) = u8::from_str_radix(hex, 16) {
                    out.push(b);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| percent_decode(v))
    })
}

/// Resolves a query to a cell: canonical scenario spelling, parsed
/// fault + algorithm, validity-checked against the `accepts` matrix.
/// Queries naming a cell of the spec's own grid reuse that expanded
/// cell (its grid overrides and seed); ad-hoc cells run under the
/// first grid's effective params with an identity-derived seed, just
/// like a campaign would derive it.
fn resolve_cell(query: &str, shared: &Shared) -> Result<Cell, String> {
    let scenario_spec = query_param(query, "scenario").ok_or("missing `scenario` parameter")?;
    let fault_spec = query_param(query, "fault").unwrap_or_else(|| "none".to_string());
    let algo_name = query_param(query, "algo").ok_or("missing `algo` parameter")?;
    let replicate: usize = match query_param(query, "replicate") {
        None => 0,
        Some(r) => r
            .parse()
            .map_err(|_| "`replicate` must be a non-negative integer".to_string())?,
    };
    let scenario =
        fx_core::Scenario::from_spec(&scenario_spec).map_err(|e| format!("scenario: {e}"))?;
    let fault = crate::spec::FaultSpec::parse(&fault_spec).map_err(|e| format!("fault: {e}"))?;
    let algo = Algo::parse(&algo_name)?;
    algo.accepts(&fault, &scenario)?;
    let canonical = scenario.to_string();
    let key = format!("{canonical}|{fault}|{algo}|r{replicate}");
    if let Some(cell) = shared.known.get(&key) {
        return Ok(cell.clone());
    }
    let mut cell = Cell {
        graph: canonical,
        fault,
        algo,
        replicate,
        seed: 0,
        grid: 0,
    };
    cell.seed = cell_seed(shared.spec.seed, &cell.key());
    Ok(cell)
}

/// The deterministic response body: cell identity + metrics, no
/// wall-clock or cache fields — so hot, cold, and chaos-degraded
/// answers for the same cell are byte-identical.
fn cell_body(cell: &Cell, result: &CellResult) -> String {
    use fx_json::Json;
    let canonical = fx_core::Scenario::from_spec(&cell.graph)
        .map(|s| s.to_string())
        .unwrap_or_else(|_| cell.graph.clone());
    let metrics = Json::Arr(
        result
            .metrics
            .iter()
            .map(|(name, value)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*value)]))
            .collect(),
    );
    let body = Json::Obj(vec![
        ("scenario".to_string(), Json::Str(canonical)),
        ("fault".to_string(), Json::Str(cell.fault.to_string())),
        ("algo".to_string(), Json::Str(cell.algo.to_string())),
        ("replicate".to_string(), Json::UInt(cell.replicate as u64)),
        ("seed".to_string(), Json::UInt(cell.seed)),
        ("metrics".to_string(), metrics),
    ]);
    fx_json::to_string(&body)
}

fn cell_response(query: &str, shared: &Shared) -> Response {
    let cell = match resolve_cell(query, shared) {
        Ok(cell) => cell,
        Err(e) => return Response::error(400, "Bad Request", &e),
    };
    // Warm path: the store answers without touching the queue.
    if let Some(store) = &shared.store {
        if let Some(result) = store_lookup(store, &shared.spec, &cell) {
            shared.stats.hits.fetch_add(1, Ordering::Relaxed);
            TRACE_HITS.incr();
            let mut resp = Response::new(200, "OK", cell_body(&cell, &result));
            resp.extra_headers.push("X-Cache: hit".to_string());
            return resp;
        }
    }
    shared.stats.misses.fetch_add(1, Ordering::Relaxed);
    TRACE_MISSES.incr();
    // Cold path: single-flight schedule, then wait.
    let job = {
        let mut queue = shared.queue.lock().unwrap();
        let key = crate::store_key::store_key(&shared.spec, &cell);
        if let Some(job) = queue.jobs.get(&key).cloned() {
            // Coalesce onto the in-flight computation; the extra
            // waiter bumps the job's queue priority (lazy re-push —
            // stale entries are skipped at pop time).
            let waiters = job.waiters.fetch_add(1, Ordering::Relaxed) + 1;
            shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            TRACE_COALESCED.incr();
            if job.queued.load(Ordering::Relaxed) {
                queue.seq += 1;
                let seq = queue.seq;
                queue.heap.push(QueueEntry {
                    prio: waiters,
                    seq,
                    key,
                });
            }
            job
        } else {
            if queue.queued >= shared.opts.queue_cap {
                drop(queue);
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                TRACE_REJECTED.incr();
                let mut resp = Response::error(
                    429,
                    "Too Many Requests",
                    "compute queue is full; retry shortly",
                );
                resp.extra_headers
                    .push(format!("Retry-After: {RETRY_AFTER_SECS}"));
                return resp;
            }
            let job = Arc::new(Job {
                cell: cell.clone(),
                key,
                done: Mutex::new(None),
                cv: Condvar::new(),
                waiters: AtomicU64::new(1),
                queued: AtomicBool::new(true),
            });
            queue.jobs.insert(key, job.clone());
            queue.queued += 1;
            queue.seq += 1;
            let seq = queue.seq;
            queue.heap.push(QueueEntry { prio: 1, seq, key });
            drop(queue);
            shared.queue_cv.notify_one();
            job
        }
    };
    // Wait for the compute pool. The job object outlives the queue
    // entry, so a response is delivered even to waiters that coalesced
    // in after computation started.
    let deadline = Duration::from_millis(shared.opts.request_timeout_ms.max(1));
    let guard = job.done.lock().unwrap();
    let (done, _timed_out) = job
        .cv
        .wait_timeout_while(guard, deadline, |d| {
            d.is_none() && !shared.stop.load(Ordering::SeqCst)
        })
        .unwrap();
    if done.is_none() {
        job.waiters.fetch_sub(1, Ordering::Relaxed);
        return if shared.stop.load(Ordering::SeqCst) {
            Response::error(503, "Service Unavailable", "server is shutting down")
        } else {
            Response::error(
                504,
                "Gateway Timeout",
                "cell is still computing; retry to pick it up from the store",
            )
        };
    }
    match done.as_ref().unwrap() {
        Ok(result) => {
            let mut resp = Response::new(200, "OK", cell_body(&cell, result));
            resp.extra_headers.push("X-Cache: miss".to_string());
            resp
        }
        Err(message) => Response::error(500, "Internal Server Error", message),
    }
}

// ---------------------------------------------------------------------------
// Compute pool
// ---------------------------------------------------------------------------

fn compute_worker(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                match queue.heap.pop() {
                    Some(entry) => {
                        let Some(job) = queue.jobs.get(&entry.key).cloned() else {
                            continue; // finished; stale lazy entry
                        };
                        if !job.queued.swap(false, Ordering::Relaxed) {
                            continue; // duplicate entry; already claimed
                        }
                        queue.queued -= 1;
                        break job;
                    }
                    None => queue = shared.queue_cv.wait(queue).unwrap(),
                }
            }
        };
        shared.stats.inflight.fetch_add(1, Ordering::Relaxed);
        let result = compute_cell(shared, &job.cell);
        shared.stats.computed.fetch_add(1, Ordering::Relaxed);
        TRACE_COMPUTED.incr();
        // Publish *before* signaling waiters: a waiter that timed out
        // and retries must find the store already warm.
        if let (Some(store), Ok(r)) = (&shared.store, &result) {
            let _ = store.put(job.key, &fx_json::to_string(r));
        }
        shared.queue.lock().unwrap().jobs.remove(&job.key);
        *job.done.lock().unwrap() = Some(result);
        job.cv.notify_all();
        shared.stats.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one cold cell under the server's cancellation regime: the
/// spec's effective `timeout_ms` if set, else the server-wide token
/// (so shutdown cancels in-flight work cooperatively). Quarantine
/// semantics match the engine: a failed or timed-out cell is an
/// error, never a publishable result.
fn compute_cell(shared: &Shared, cell: &Cell) -> Result<CellResult, String> {
    let params = cell_params(&shared.spec, cell);
    let token = match params.timeout_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => shared.cancel.clone(),
    };
    let result = crate::exec::run_cell_isolated(&shared.spec, cell, &token)?;
    if result.failed != 0 {
        return Err(result.error);
    }
    if result.metric("timed_out").is_some() {
        return Err("cell timed out".to_string());
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        let mut resp = Response::new(200, "OK", "{\"a\":1}".to_string());
        resp.extra_headers.push("X-Cache: hit".to_string());
        for (keep_alive, connection) in [(true, "keep-alive"), (false, "close")] {
            let mut out = CountingWriter::default();
            resp.write_to(&mut out, keep_alive).unwrap();
            assert_eq!(out.writes, 1, "head and body must leave in one write");
            assert_eq!(
                String::from_utf8(out.bytes).unwrap(),
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\
                     Connection: {connection}\r\nX-Cache: hit\r\n\r\n{{\"a\":1}}"
                )
            );
        }
    }
}
