//! The out-of-process serving front: a long-running TCP server over
//! [`SynopsisStore`], built on `std::net` only.
//!
//! The build side stays in-process; this module takes the *read* path
//! out-of-process so many client processes can drain query batches into
//! one shared store. Each accepted connection gets its own thread that
//! drains length-prefixed request frames; every request's batch runs
//! through the lenient batch executor ([`execute_partial_routed`]), which
//! evaluates each distinct query once, in chunks across a shared
//! [`Executor`] thread pool, so batches from many clients evaluate in
//! parallel while every answer still carries its error bound and pinned
//! store version.
//!
//! # Wire protocol (`DWQ2`)
//!
//! Binary, length-prefixed, checksummed: the `DWQ2` instantiation of the
//! runtime's one frame codec ([`codec::frame`](dwmaxerr_runtime::codec::frame),
//! which also frames spill runs as `DWR3`) around payloads in the
//! [`Wire`] codec (all integers little-endian):
//!
//! ```text
//! frame    := "DWQ2" | u32 payload_len | payload | u64 checksum64(payload)
//! request  := u64 id | Vec<Query>
//! response := u64 id | u8 status | u64 version | Vec<SlotResult>
//! Query    := 0u8 x:u64            (point)
//!           | 1u8 l:u64 h:u64      (inclusive range sum)
//! SlotResult := 0u8 value:f64 err_abs:Option<f64>
//!                   err_rel:Option<(f64,f64)> version:u64   (answer)
//!             | 1u8 code:u8 message:String                  (error)
//! ```
//!
//! The response `status` is the *request-level* verdict (a
//! [`status`] code): `OK` means the batch was
//! executed and each query's own verdict sits in its slot;
//! `OVERLOADED`, `EMPTY_STORE`, and `BAD_FRAME` mean the batch was not
//! evaluated at all and `slots` is empty. Malformed queries therefore
//! never poison co-batched siblings: they come back as individual
//! [`SlotResult::Error`] slots while every valid sibling carries a
//! bound-stamped [`Answer`].
//!
//! A frame is encoded in place and leaves in one `send`; it is received in
//! two `recv`s (header, then payload and footer) when it arrives whole.
//! The server encodes a response straight from the evaluator's results
//! into a frame buffer its connection keeps — the bytes
//! `QueryResponse::encode` writes, with no [`SlotResult`] in between —
//! and a [`Query`] or [`SlotResult`] decodes with one length check per
//! fixed-width run of fields.
//! Bad magic, a length over the 16 MiB cap (checked before anything is
//! allocated for it) and a checksum mismatch all answer `BAD_FRAME` and
//! close the connection.
//!
//! # Backpressure and shedding
//!
//! The server is explicitly bounded: at most
//! [`max_connections`](NetServerConfig::max_connections) connection
//! threads (excess connections receive one `OVERLOADED` response and
//! are closed), at most [`max_batch`](NetServerConfig::max_batch)
//! queries per request (oversized batches — and batches whose answers
//! would not fit a response frame — are shed with `OVERLOADED`,
//! connection kept), and a per-connection
//! [`read_timeout`](NetServerConfig::read_timeout) that closes idle
//! connections. A graceful [`shutdown`](NetServer::shutdown) does not wait
//! for it: it closes every connection's read side, so an idle connection
//! ends at once and an in-flight response is still written.
//!
//! # Determinism caveat
//!
//! Network arrival order is *not* deterministic — two runs interleave
//! client requests differently. What stays deterministic is every
//! individual response: a batch pins one snapshot for its whole
//! evaluation, its distinct queries keep their first-occurrence order
//! whatever the dedupe's hash seed, and answers are collected and copied
//! out positionally, so a given `(store version, batch)` pair yields
//! bit-identical answers regardless of thread count or co-batched
//! traffic. See DESIGN.md §16.

use std::fmt;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dwmaxerr_core::query::{Answer, RelBound};
use dwmaxerr_runtime::codec::frame::{Format, LenWidth};
use dwmaxerr_runtime::codec::{encode_slice, CodecError, Wire, WireSink};
use dwmaxerr_runtime::{threads_from_env, Executor};

use crate::batch::{execute_partial_routed, Query};
use crate::error::{status, ServeError};
use crate::router::ShardRouter;
use crate::store::SynopsisStore;

/// The query frame: "DWQ2" (Distributed Wavelet Query, v2), u32 length,
/// and a hard 16 MiB payload cap — anything larger is a malformed or
/// hostile frame.
const FRAME: Format = Format::new(*b"DWQ2", LenWidth::U32, 16 << 20);

/// Response-buffer capacity a connection keeps between requests.
const KEPT_FRAME_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Wire impls for the protocol types
// ---------------------------------------------------------------------------

impl Query {
    /// The most bytes a query encodes to: a tag and two words.
    const MAX_WIRE: usize = 17;

    /// Hands `f` the query's encoding, built on the stack at its fixed
    /// width: 9 bytes for a point, 17 for a range.
    fn with_wire<R>(self, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            Query::Point { x } => {
                let mut bytes = [0u8; 9];
                bytes[1..].copy_from_slice(&(x as u64).to_le_bytes());
                f(&bytes)
            }
            Query::RangeSum { l, h } => {
                let mut bytes = [1u8; Self::MAX_WIRE];
                bytes[1..9].copy_from_slice(&(l as u64).to_le_bytes());
                bytes[9..].copy_from_slice(&(h as u64).to_le_bytes());
                f(&bytes)
            }
        }
    }
}

impl Wire for Query {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        self.with_wire(|bytes| sink.write(bytes));
    }

    /// The tag names the width, and the words behind it take one length
    /// check; a short input is the `u64` it ends in, as it was when the
    /// fields decoded one by one.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match buf.first() {
            Some(0) => {
                let run = take_run::<9>(buf, &[(1, "u8"), (8, "u64")])?;
                Ok(Query::Point {
                    x: le_u64(run, 1) as usize,
                })
            }
            Some(1) => {
                let run = take_run::<17>(buf, &[(1, "u8"), (8, "u64"), (8, "u64")])?;
                Ok(Query::RangeSum {
                    l: le_u64(run, 1) as usize,
                    h: le_u64(run, 9) as usize,
                })
            }
            Some(_) => Err(CodecError {
                context: "unknown Query tag",
            }),
            None => Err(CodecError { context: "u8" }),
        }
    }
}

/// The next `N` bytes, a run of fixed-width `fields` (`(width, context)`
/// pairs), in one length check. Input that ends inside the run is refused
/// with the context of the field it ends in — the error decoding field by
/// field gives.
fn take_run<'a, const N: usize>(
    buf: &mut &'a [u8],
    fields: &[(usize, &'static str)],
) -> Result<&'a [u8; N], CodecError> {
    debug_assert_eq!(fields.iter().map(|&(w, _)| w).sum::<usize>(), N);
    if let Some((run, rest)) = buf.split_first_chunk::<N>() {
        *buf = rest;
        return Ok(run);
    }
    let mut end = 0;
    let mut context = "";
    for &(width, field) in fields {
        end += width;
        context = field;
        if end > buf.len() {
            break;
        }
    }
    Err(CodecError { context })
}

/// The little-endian word at `at` of a run.
fn le_u64<const N: usize>(run: &[u8; N], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&run[at..at + 8]);
    u64::from_le_bytes(word)
}

/// One per-query outcome inside a response: a bound-carrying answer, or
/// that query's individual error. See the [module docs](self) for the
/// encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotResult {
    /// The query succeeded; the answer carries its error bound and the
    /// pinned store version it was evaluated against.
    Answer(Answer),
    /// The query failed individually — its siblings are unaffected.
    Error {
        /// The wire status code ([`status`]) of the failure.
        code: u8,
        /// Human-readable rendering of the server-side [`ServeError`].
        message: String,
    },
}

impl SlotResult {
    /// The answer, if this slot succeeded.
    #[inline]
    pub fn as_answer(&self) -> Option<&Answer> {
        match self {
            SlotResult::Answer(a) => Some(a),
            SlotResult::Error { .. } => None,
        }
    }

    /// Whether this slot carries an answer.
    #[inline]
    pub fn is_ok(&self) -> bool {
        matches!(self, SlotResult::Answer(_))
    }
}

/// Writes an answer slot.
fn encode_answer<S: WireSink>(a: &Answer, sink: &mut S) {
    0u8.encode(sink);
    a.value.encode(sink);
    a.err_abs.encode(sink);
    a.err_rel.map(|r| (r.epsilon, r.sanity)).encode(sink);
    a.version.encode(sink);
}

/// Appends an error slot carrying `message` rendered, without rendering
/// it into a `String` first.
fn encode_error(code: u8, message: &impl fmt::Display, buf: &mut Vec<u8>) {
    1u8.encode(buf);
    code.encode(buf);
    let at = buf.len();
    0u32.encode(buf);
    // Writing into a `Vec` cannot fail, and should a `Display` impl fail
    // part-way, the length below still covers exactly what it wrote.
    let _ = write!(buf, "{message}");
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes an answer slot, tag included: three fixed-width runs, the
/// second and third sized by the option tags before them.
fn decode_answer(buf: &mut &[u8]) -> Result<Answer, CodecError> {
    let option = |tag: u8| match tag {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError {
            context: "option tag value",
        }),
    };
    let head = take_run::<10>(buf, &[(1, "u8"), (8, "f64"), (1, "option tag")])?;
    let value = f64::from_bits(le_u64(head, 1));
    let (err_abs, rel_tag) = if option(head[9])? {
        let run = take_run::<9>(buf, &[(8, "f64"), (1, "option tag")])?;
        (Some(f64::from_bits(le_u64(run, 0))), run[8])
    } else {
        (None, take_run::<1>(buf, &[(1, "option tag")])?[0])
    };
    let (err_rel, version) = if option(rel_tag)? {
        let run = take_run::<24>(buf, &[(8, "f64"), (8, "f64"), (8, "u64")])?;
        let rel = RelBound {
            epsilon: f64::from_bits(le_u64(run, 0)),
            sanity: f64::from_bits(le_u64(run, 8)),
        };
        (Some(rel), le_u64(run, 16))
    } else {
        (None, le_u64(take_run::<8>(buf, &[(8, "u64")])?, 0))
    };
    Ok(Answer {
        value,
        err_abs,
        err_rel,
        version,
    })
}

impl Wire for SlotResult {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        match self {
            SlotResult::Answer(a) => encode_answer(a, sink),
            SlotResult::Error { code, message } => {
                1u8.encode(sink);
                code.encode(sink);
                message.encode(sink);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match buf.first() {
            Some(0) => decode_answer(buf).map(SlotResult::Answer),
            Some(1) => {
                let head = take_run::<2>(buf, &[(1, "u8"), (1, "u8")])?;
                Ok(SlotResult::Error {
                    code: head[1],
                    message: String::decode(buf)?,
                })
            }
            Some(_) => Err(CodecError {
                context: "unknown SlotResult tag",
            }),
            None => Err(CodecError { context: "u8" }),
        }
    }
}

/// A decoded response frame: the request-level status plus one
/// [`SlotResult`] per query (in request order) when the batch executed.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Request-level [`status`] code — [`status::OK`] when the batch
    /// executed (per-query verdicts live in `slots`); a shed/decode
    /// status with empty `slots` otherwise.
    pub status: u8,
    /// The store version the batch was pinned to (0 when not executed).
    pub version: u64,
    /// Per-query outcomes in request order; empty unless `status` is
    /// [`status::OK`].
    pub slots: Vec<SlotResult>,
}

impl Wire for QueryResponse {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        self.id.encode(sink);
        self.status.encode(sink);
        self.version.encode(sink);
        self.slots.encode(sink);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(QueryResponse {
            id: u64::decode(buf)?,
            status: u8::decode(buf)?,
            version: u64::decode(buf)?,
            slots: Vec::<SlotResult>::decode(buf)?,
        })
    }
}

/// One query frame around whatever `fill` encodes; `InvalidInput` if that
/// is over the cap.
fn framed(fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    let mut frame = Vec::new();
    FRAME.build(&mut frame, fill)?;
    Ok(frame)
}

fn bad_data(context: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, context.to_string())
}

// ---------------------------------------------------------------------------
// Latency histogram (log buckets, 4 sub-buckets per octave)
// ---------------------------------------------------------------------------

const HIST_BUCKETS: usize = 256;

fn bucket_of(nanos: u64) -> usize {
    if nanos < 4 {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros() as usize;
    let sub = ((nanos >> (msb - 2)) & 3) as usize;
    (msb * 4 + sub).min(HIST_BUCKETS - 1)
}

/// Representative (midpoint) latency of a bucket, in nanoseconds.
fn bucket_value(b: usize) -> f64 {
    if b < 4 {
        return b as f64;
    }
    let msb = b / 4;
    let sub = b % 4;
    let lo = ((4 + sub) as u64) << (msb - 2);
    let hi = lo + (1u64 << (msb - 2));
    (lo + hi) as f64 / 2.0
}

fn quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((total as f64 - 1.0) * q).round() as u64;
    let mut seen = 0u64;
    for (b, &count) in hist.iter().enumerate() {
        seen += count;
        if seen > target {
            return bucket_value(b);
        }
    }
    bucket_value(HIST_BUCKETS - 1)
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Bounds and knobs for a [`NetServer`]. `Default` binds an ephemeral
/// localhost port with a 5 s idle timeout, 64 connections, 4096-query
/// batches, and the environment thread count.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Per-connection read timeout: an idle connection is closed after
    /// this long. [`NetServer::shutdown`] does not wait for it.
    pub read_timeout: Duration,
    /// Connection bound: excess connections get one `OVERLOADED`
    /// response and are closed (explicit shedding, never a silent
    /// queue).
    pub max_connections: usize,
    /// Per-request batch bound: oversized batches are shed with
    /// `OVERLOADED` (connection stays open).
    pub max_batch: usize,
    /// Worker threads for the shared batch executor (0 = use
    /// [`threads_from_env`]).
    pub threads: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(5),
            max_connections: 64,
            max_batch: 4096,
            threads: 0,
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetServerStats {
    /// Connections accepted (including ones later shed).
    pub connections: u64,
    /// Requests whose batch was executed.
    pub requests: u64,
    /// Queries answered successfully across all executed batches.
    pub answered: u64,
    /// Queries that errored individually.
    pub failed_queries: u64,
    /// Requests/connections shed with `OVERLOADED`.
    pub shed: u64,
    /// Connections dropped for undecodable frames.
    pub bad_frames: u64,
    /// Median per-request service latency (microseconds; server-side,
    /// pin-to-flush).
    pub p50_us: f64,
    /// 99th-percentile per-request service latency (microseconds).
    pub p99_us: f64,
    /// Executed requests per second of server uptime.
    pub qps: f64,
}

struct ServerShared {
    store: SynopsisStore,
    /// Behind an `Arc` so a request takes its view of the table with one
    /// reference-count bump; liveness changes copy on write.
    router: Mutex<Option<Arc<ShardRouter>>>,
    pool: Executor,
    cfg: NetServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    connections: AtomicU64,
    requests: AtomicU64,
    answered: AtomicU64,
    failed_queries: AtomicU64,
    shed: AtomicU64,
    bad_frames: AtomicU64,
    latency_hist: Vec<AtomicU64>,
    started: Instant,
}

/// A running TCP serving front over a [`SynopsisStore`]. Spawn with
/// [`NetServer::spawn`], stop with [`NetServer::shutdown`]; see the
/// [module docs](self) for the protocol and shedding policy.
pub struct NetServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Connection>>>,
}

/// A connection thread and a clone of its stream, through which
/// [`NetServer::shutdown`] closes the connection's read side.
type Connection = (JoinHandle<()>, TcpStream);

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl NetServer {
    /// Binds `cfg.addr`, spawns the accept loop, and returns a handle.
    /// `router`, when given, routes each query's shard to a node of the
    /// simulated topology — queries on shards with no live replica
    /// error individually ([`ServeError::ShardUnavailable`]).
    ///
    /// The store handle is shared: the build loop keeps publishing
    /// through its own clone and the server picks up each new version
    /// at the next request (a batch in flight stays pinned).
    pub fn spawn(
        store: SynopsisStore,
        router: Option<ShardRouter>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let threads = if cfg.threads == 0 {
            threads_from_env()
        } else {
            cfg.threads
        };
        let shared = Arc::new(ServerShared {
            store,
            router: Mutex::new(router.map(Arc::new)),
            pool: Executor::new(threads),
            cfg,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            failed_queries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            latency_hist: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            started: Instant::now(),
        });
        let conns: Arc<Mutex<Vec<Connection>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(listener, shared, conns))
        };
        Ok(NetServer {
            shared,
            addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolve the ephemeral port here).
    #[inline]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served store (same handle the producer publishes through).
    #[inline]
    pub fn store(&self) -> &SynopsisStore {
        &self.shared.store
    }

    /// Snapshot of the server's counters and latency quantiles.
    pub fn stats(&self) -> NetServerStats {
        let s = &self.shared;
        let hist: Vec<u64> = s
            .latency_hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let requests = s.requests.load(Ordering::Relaxed);
        let elapsed = s.started.elapsed().as_secs_f64().max(1e-9);
        NetServerStats {
            connections: s.connections.load(Ordering::Relaxed),
            requests,
            answered: s.answered.load(Ordering::Relaxed),
            failed_queries: s.failed_queries.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            bad_frames: s.bad_frames.load(Ordering::Relaxed),
            p50_us: quantile(&hist, 0.50) / 1e3,
            p99_us: quantile(&hist, 0.99) / 1e3,
            qps: requests as f64 / elapsed,
        }
    }

    /// Marks a simulated node dead in the router (no-op without one):
    /// its shards fail over to replicas, or their queries start erroring
    /// individually with `ShardUnavailable`.
    pub fn mark_node_down(&self, node: usize) {
        if let Some(r) = self.shared.router.lock().expect("router lock").as_mut() {
            Arc::make_mut(r).mark_down(node);
        }
    }

    /// Marks a simulated node live again in the router (no-op without
    /// one).
    pub fn mark_node_up(&self, node: usize) {
        if let Some(r) = self.shared.router.lock().expect("router lock").as_mut() {
            Arc::make_mut(r).mark_up(node);
        }
    }

    /// Graceful shutdown: stop accepting, close every connection's read
    /// side, then join the connection threads. An idle connection's
    /// blocked read ends at once; a request already read still gets its
    /// response written. Idempotent via `Drop`, but calling it explicitly
    /// surfaces the join.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns: Vec<Connection> = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for (h, stream) in conns {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    conns: Arc<Mutex<Vec<Connection>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);

        // Connection bound: shed explicitly instead of queueing.
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = refuse(&mut stream, 0, status::OVERLOADED);
            continue;
        }

        // A stream that cannot be cloned could not be interrupted at
        // shutdown: drop it.
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        let shared_conn = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let mut stream = stream;
            let _ = serve_connection(&mut stream, &shared_conn);
            // The server's clone keeps the socket open until it is
            // pruned: close the connection now.
            let _ = stream.shutdown(Shutdown::Both);
            shared_conn.active.fetch_sub(1, Ordering::SeqCst);
        });
        let mut guard = conns.lock().expect("conns lock");
        guard.retain(|(h, _)| !h.is_finished());
        guard.push((handle, peer));
    }
}

/// Answers request `id` with a request-level status other than `OK`:
/// nothing was evaluated, so no version and no slots.
fn refuse(stream: &mut TcpStream, id: u64, status_code: u8) -> io::Result<()> {
    let response = QueryResponse {
        id,
        status: status_code,
        version: 0,
        slots: Vec::new(),
    };
    stream.write_all(&framed(|buf| response.encode(buf))?)
}

/// A request payload: its id and its queries, and nothing behind them.
fn decode_request(payload: &[u8]) -> Result<(u64, Vec<Query>), CodecError> {
    let mut cursor = payload;
    let id = u64::decode(&mut cursor)?;
    let queries = Vec::<Query>::decode(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(CodecError {
            context: "trailing bytes in request",
        });
    }
    Ok((id, queries))
}

/// Drains one connection's request frames until EOF, timeout, shutdown,
/// or a protocol violation.
fn serve_connection(stream: &mut TcpStream, shared: &ServerShared) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.cfg.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut frame = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match FRAME.read(stream) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean EOF
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Undecodable stream: tell the client why, then drop the
                // connection (we can no longer find frame boundaries).
                shared.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = refuse(stream, 0, status::BAD_FRAME);
                return Err(e);
            }
            Err(e) => return Err(e), // timeout / reset: close quietly
        };

        let (id, queries) = match decode_request(&payload) {
            Ok(req) => req,
            Err(_) => {
                shared.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = refuse(stream, 0, status::BAD_FRAME);
                return Err(bad_data("undecodable request body"));
            }
        };

        // Batch bound: shed oversized batches, keep the connection.
        if queries.len() > shared.cfg.max_batch {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            refuse(stream, id, status::OVERLOADED)?;
            continue;
        }

        // Pin a snapshot for the whole batch.
        let reader = match shared.store.reader() {
            Ok(r) => r,
            Err(_) => {
                refuse(stream, id, status::EMPTY_STORE)?;
                continue;
            }
        };
        let start = Instant::now();
        let router = shared.router.lock().expect("router lock").clone();
        let (results, stats) =
            execute_partial_routed(&reader, &queries, router.as_deref(), Some(&shared.pool));
        // A batch under `max_batch` can still answer with more bytes than
        // a frame may carry (a slot outweighs its query): shed it like an
        // oversized batch rather than emit a frame the client must reject.
        let version = reader.version();
        if FRAME
            .build(&mut frame, |buf| encode_results(id, version, &results, buf))
            .is_ok()
        {
            // Record stats *before* writing the response: once a client
            // holds the response, `NetServer::stats()` must already
            // account for it.
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.latency_hist[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
            shared.requests.fetch_add(1, Ordering::Relaxed);
            let failed = stats.failed as u64;
            shared
                .answered
                .fetch_add(results.len() as u64 - failed, Ordering::Relaxed);
            shared.failed_queries.fetch_add(failed, Ordering::Relaxed);
            stream.write_all(&frame)?;
        } else {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            refuse(stream, id, status::OVERLOADED)?;
        }
        // Keep a buffer the size of a typical response, not of the
        // largest one this connection ever drew.
        frame.clear();
        frame.shrink_to(KEPT_FRAME_BYTES);
    }
}

/// Appends the response payload the server sends for an executed batch:
/// byte for byte what [`QueryResponse::encode`](Wire::encode) writes for
/// `OK`, `version` and one [`SlotResult`] per result, encoded straight
/// from [`execute_partial_routed`]'s results without building them.
pub fn encode_results(
    id: u64,
    version: u64,
    results: &[Result<Answer, ServeError>],
    buf: &mut Vec<u8>,
) {
    id.encode(buf);
    status::OK.encode(buf);
    version.encode(buf);
    (results.len() as u32).encode(buf);
    for result in results {
        match result {
            Ok(a) => encode_answer(a, buf),
            Err(e) => encode_error(e.status_code(), e, buf),
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client for the `DWQ2` protocol: one TCP connection,
/// sequential request/response with auto-incrementing ids.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    pub fn connect(addr: SocketAddr) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream, next_id: 1 })
    }

    /// Sets a read timeout for responses (unset by default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one batch and blocks for its response. Transport and
    /// protocol-framing failures surface as `io::Error`; server-side
    /// verdicts (including shedding) come back in the
    /// [`QueryResponse`].
    pub fn request(&mut self, queries: &[Query]) -> io::Result<QueryResponse> {
        let id = self.next_id;
        self.next_id += 1;
        // One allocation: the id, the count and every query at its widest.
        let payload = 12 + Query::MAX_WIRE * queries.len();
        let mut frame = Vec::with_capacity(FRAME.overhead() + payload);
        FRAME.build(&mut frame, |buf| {
            id.encode(buf);
            encode_slice(queries, buf);
        })?;
        self.stream.write_all(&frame)?;

        let response = self.read_response()?;
        if response.id != id && response.id != 0 {
            return Err(bad_data("response id mismatch"));
        }
        Ok(response)
    }

    /// Sends raw bytes down the connection — test hook for exercising
    /// the server's malformed-frame path.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame without sending anything — pairs with
    /// [`send_raw`](Self::send_raw) in protocol tests.
    pub fn read_response(&mut self) -> io::Result<QueryResponse> {
        let body = FRAME
            .read(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let mut cursor: &[u8] = &body;
        QueryResponse::decode(&mut cursor)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_core::query::ErrorBound;
    use dwmaxerr_runtime::codec::encoded;
    use dwmaxerr_wavelet::transform::forward;
    use dwmaxerr_wavelet::Synopsis;
    use proptest::prelude::*;

    const PAPER_DATA: [f64; 8] = [5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];

    fn store() -> SynopsisStore {
        let w = forward(&PAPER_DATA).unwrap();
        let syn = Synopsis::retain_indices(&w, &[0, 1, 3, 5, 6]).unwrap();
        let store = SynopsisStore::new("net-test", 4);
        store.publish(&syn, ErrorBound::abs(8.0), 0.0, 1).unwrap();
        store
    }

    fn small_cfg() -> NetServerConfig {
        NetServerConfig {
            read_timeout: Duration::from_millis(500),
            threads: 2,
            ..NetServerConfig::default()
        }
    }

    #[test]
    fn query_and_slot_wire_roundtrip() {
        let queries = vec![Query::Point { x: 3 }, Query::RangeSum { l: 1, h: 6 }];
        let bytes = encoded(&queries);
        let mut cursor: &[u8] = &bytes;
        assert_eq!(Vec::<Query>::decode(&mut cursor).unwrap(), queries);
        assert!(cursor.is_empty());

        let response = QueryResponse {
            id: 42,
            status: status::OK,
            version: 7,
            slots: vec![
                SlotResult::Answer(Answer {
                    value: 3.25,
                    err_abs: Some(8.0),
                    err_rel: Some(RelBound {
                        epsilon: 0.1,
                        sanity: 1.0,
                    }),
                    version: 7,
                }),
                SlotResult::Error {
                    code: status::INVERTED_RANGE,
                    message: "inverted range query 4..=2 (l > h)".to_string(),
                },
            ],
        };
        let bytes = encoded(&response);
        let mut cursor: &[u8] = &bytes;
        assert_eq!(QueryResponse::decode(&mut cursor).unwrap(), response);
    }

    /// `Query` and `SlotResult` decoded field by field, as they were before
    /// the fixed-width codec: the errors it must keep.
    fn decode_query_by_field(buf: &mut &[u8]) -> Result<Query, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(Query::Point {
                x: usize::decode(buf)?,
            }),
            1 => Ok(Query::RangeSum {
                l: usize::decode(buf)?,
                h: usize::decode(buf)?,
            }),
            _ => Err(CodecError {
                context: "unknown Query tag",
            }),
        }
    }

    fn decode_slot_by_field(buf: &mut &[u8]) -> Result<SlotResult, CodecError> {
        match u8::decode(buf)? {
            0 => {
                let value = f64::decode(buf)?;
                let err_abs = Option::<f64>::decode(buf)?;
                let err_rel = Option::<(f64, f64)>::decode(buf)?
                    .map(|(epsilon, sanity)| RelBound { epsilon, sanity });
                let version = u64::decode(buf)?;
                Ok(SlotResult::Answer(Answer {
                    value,
                    err_abs,
                    err_rel,
                    version,
                }))
            }
            1 => Ok(SlotResult::Error {
                code: u8::decode(buf)?,
                message: String::decode(buf)?,
            }),
            _ => Err(CodecError {
                context: "unknown SlotResult tag",
            }),
        }
    }

    /// The bytes a slot was encoded to field by field.
    fn slot_bytes_by_field(slot: &SlotResult) -> Vec<u8> {
        let mut buf = Vec::new();
        match slot {
            SlotResult::Answer(a) => {
                0u8.encode(&mut buf);
                a.value.encode(&mut buf);
                a.err_abs.encode(&mut buf);
                a.err_rel.map(|r| (r.epsilon, r.sanity)).encode(&mut buf);
                a.version.encode(&mut buf);
            }
            SlotResult::Error { code, message } => {
                1u8.encode(&mut buf);
                code.encode(&mut buf);
                message.encode(&mut buf);
            }
        }
        buf
    }

    fn query() -> impl Strategy<Value = Query> {
        (any::<bool>(), any::<u64>(), any::<u64>()).prop_map(|(point, a, b)| {
            if point {
                Query::Point { x: a as usize }
            } else {
                Query::RangeSum {
                    l: a as usize,
                    h: b as usize,
                }
            }
        })
    }

    fn answer() -> impl Strategy<Value = Answer> {
        (
            any::<f64>(),
            prop::option::of(any::<f64>()),
            prop::option::of((any::<f64>(), any::<f64>())),
            any::<u64>(),
        )
            .prop_map(|(value, err_abs, rel, version)| Answer {
                value,
                err_abs,
                err_rel: rel.map(|(epsilon, sanity)| RelBound { epsilon, sanity }),
                version,
            })
    }

    /// A message of `len` two-byte characters and a few ASCII ones.
    fn long_message(len: usize) -> String {
        format!("{} — slot {len}", "κ".repeat(len))
    }

    /// Every status a slot can carry, with messages up to 8 KiB.
    fn slot() -> impl Strategy<Value = SlotResult> {
        (any::<bool>(), answer(), 0..=status::BAD_FRAME, 0usize..4096).prop_map(
            |(ok, a, code, len)| {
                if ok {
                    SlotResult::Answer(a)
                } else {
                    SlotResult::Error {
                        code,
                        message: long_message(len),
                    }
                }
            },
        )
    }

    /// Every `ServeError` variant, two of them with long messages.
    fn serve_error(kind: usize, a: usize, b: usize) -> ServeError {
        let long: &'static str = Box::leak(long_message(a % 512).into_boxed_str());
        match kind % 11 {
            0 => ServeError::OutOfRange { index: a, n: b },
            1 => ServeError::InvertedRange { l: a, h: b },
            2 => ServeError::EmptyStore,
            3 => ServeError::BadShardCount { shards: a, n: b },
            4 => ServeError::SnapshotUnavailable,
            5 => ServeError::BadReplication {
                replication: a,
                nodes: b,
            },
            6 => ServeError::ShardUnavailable { shard: a },
            7 => ServeError::Overloaded,
            8 => ServeError::BadFrame(long),
            9 => ServeError::Wavelet(dwmaxerr_wavelet::WaveletError::NotPowerOfTwo(a)),
            _ => ServeError::Core(dwmaxerr_core::CoreError::Protocol(long)),
        }
    }

    fn result() -> impl Strategy<Value = Result<Answer, ServeError>> {
        (
            any::<bool>(),
            answer(),
            0usize..11,
            0usize..1 << 12,
            any::<u32>(),
        )
            .prop_map(|(ok, a, kind, x, y)| {
                if ok {
                    Ok(a)
                } else {
                    Err(serve_error(kind, x, y as usize))
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_query_keeps_its_bytes_and_its_errors(q in query()) {
            let bytes = encoded(&q);
            prop_assert_eq!(&decode_query_by_field(&mut &bytes[..]), &Ok(q));
            let mut cursor = &bytes[..];
            prop_assert_eq!(Query::decode(&mut cursor), Ok(q));
            prop_assert!(cursor.is_empty());
            for cut in 0..bytes.len() {
                let got = Query::decode(&mut &bytes[..cut]);
                prop_assert!(got.is_err(), "cut {cut}");
                prop_assert_eq!(got, decode_query_by_field(&mut &bytes[..cut]));
            }
        }

        #[test]
        fn a_slot_keeps_its_bytes_and_its_errors(slot in slot()) {
            let bytes = encoded(&slot);
            prop_assert_eq!(&bytes, &slot_bytes_by_field(&slot));
            let back = SlotResult::decode(&mut &bytes[..]).unwrap();
            prop_assert_eq!(encoded(&back), bytes.clone(), "bit for bit");
            for cut in 0..bytes.len() {
                let got = SlotResult::decode(&mut &bytes[..cut]);
                prop_assert!(got.is_err(), "cut {cut}");
                prop_assert_eq!(got, decode_slot_by_field(&mut &bytes[..cut]));
            }
            // A tag or option tag no encoder writes: the same errors too.
            for (at, bad) in [(0, 2u8), (0, 255), (9, 2), (9, 7)] {
                let mut flipped = bytes.clone();
                flipped[at] = bad;
                prop_assert_eq!(
                    SlotResult::decode(&mut &flipped[..]).err(),
                    decode_slot_by_field(&mut &flipped[..]).err()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The server's direct encoder writes what `QueryResponse::encode`
        // writes, and neither a request nor a response survives losing
        // any suffix.
        #[test]
        fn requests_and_responses_refuse_every_truncation(
            id in any::<u64>(),
            version in any::<u64>(),
            queries in prop::collection::vec(query(), 0..24),
            results in prop::collection::vec(result(), 0..12),
        ) {
            let request = encoded(&(id, queries.clone()));
            prop_assert_eq!(decode_request(&request), Ok((id, queries)));
            for cut in 0..request.len() {
                prop_assert!(decode_request(&request[..cut]).is_err(), "request cut {cut}");
            }

            let mut direct = Vec::new();
            encode_results(id, version, &results, &mut direct);
            let response = QueryResponse {
                id,
                status: status::OK,
                version,
                slots: results
                    .iter()
                    .map(|r| match r {
                        Ok(a) => SlotResult::Answer(*a),
                        Err(e) => SlotResult::Error {
                            code: e.status_code(),
                            message: e.to_string(),
                        },
                    })
                    .collect(),
            };
            prop_assert_eq!(&direct, &encoded(&response));
            prop_assert_eq!(QueryResponse::decode(&mut &direct[..]), Ok(response));
            for cut in 0..direct.len() {
                let got = QueryResponse::decode(&mut &direct[..cut]);
                prop_assert!(got.is_err(), "response cut {cut}");
            }
        }
    }

    #[test]
    fn unknown_tags_and_lying_lengths_are_refused() {
        for tag in 2..=u8::MAX {
            let bytes = [tag, 0, 0];
            assert_eq!(
                Query::decode(&mut &bytes[..]),
                decode_query_by_field(&mut &bytes[..])
            );
        }
        // A response announcing 2^20 slots in 21 bytes is refused, not
        // reserved for.
        let mut lie = Vec::new();
        (7u64, status::OK, 1u64).encode(&mut lie);
        (1u32 << 20).encode(&mut lie);
        assert_eq!(lie.len(), 21);
        assert!(QueryResponse::decode(&mut &lie[..]).is_err());
    }

    /// A valid request frame for `queries`, as [`NetClient::request`]
    /// builds it.
    fn request_frame(id: u64, queries: &[Query]) -> Vec<u8> {
        framed(|buf| {
            id.encode(buf);
            encode_slice(queries, buf);
        })
        .unwrap()
    }

    #[test]
    fn query_frame_is_dwq2_with_16_bytes_of_overhead() {
        let queries = [Query::Point { x: 3 }, Query::RangeSum { l: 1, h: 6 }];
        let frame = request_frame(7, &queries);
        let payload = encoded(&(7u64, queries.to_vec()));
        assert_eq!(FRAME.overhead(), 16);
        assert_eq!(&frame[..4], b"DWQ2");
        assert_eq!(frame[4..8], (payload.len() as u32).to_le_bytes());
        assert_eq!(frame[8..frame.len() - 8], payload[..]);
        assert_eq!(FRAME.read(&mut &frame[..]).unwrap(), Some(payload));

        // Over the size cap: refused before anything could be sent.
        let err = FRAME
            .build(&mut Vec::new(), |buf| {
                buf.resize(buf.len() + (16 << 20) + 1, 0)
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Every way a request stream can be wrong on the wire — truncated,
    /// flipped, over the cap, the old `DWQ1` magic, an FNV footer under the
    /// new magic, an undecodable body — answers `BAD_FRAME` and closes that
    /// connection only.
    #[test]
    fn hostile_frames_get_bad_frame_and_a_disconnect() {
        let server = NetServer::spawn(store(), None, small_cfg()).unwrap();
        let mut neighbour = NetClient::connect(server.local_addr()).unwrap();
        let good = request_frame(1, &[Query::Point { x: 2 }]);
        let footer = good.len() - 8;

        let mut flipped_payload = good.clone();
        flipped_payload[10] ^= 0x01;
        let mut old_magic = good.clone();
        old_magic[..4].copy_from_slice(b"DWQ1");
        let mut fnv_footer = good.clone();
        let mut fnv = dwmaxerr_runtime::codec::FnvHasher::new();
        fnv.write(&good[8..footer]);
        fnv_footer[footer..].copy_from_slice(&fnv.finish().to_le_bytes());
        let mut over_cap = good.clone();
        over_cap[4..8].copy_from_slice(&((16u32 << 20) + 1).to_le_bytes());
        // Well-framed payloads whose `Vec<Query>` length lies: by 2^32 - 1,
        // and by the 2^20 queries (24 MiB as `Query`s) twelve bytes claim.
        let lying_body = |len: u32| {
            framed(|buf| {
                1u64.encode(buf);
                len.encode(buf);
            })
            .unwrap()
        };

        let hostile = [
            flipped_payload,
            old_magic,
            fnv_footer,
            over_cap,
            lying_body(u32::MAX),
            lying_body(1 << 20),
        ];
        for (i, bytes) in hostile.iter().enumerate() {
            let mut client = NetClient::connect(server.local_addr()).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client.send_raw(bytes).unwrap();
            let bad = client.read_response().unwrap();
            assert_eq!(bad.status, status::BAD_FRAME, "case {i}");
            // EOF, or a reset when the server closed with bytes unread.
            let closed = client.read_response().unwrap_err().kind();
            assert!(
                !matches!(closed, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                "case {i}: connection left open"
            );
            let ok = neighbour.request(&[Query::Point { x: 0 }]).unwrap();
            assert_eq!(ok.status, status::OK, "case {i}: neighbour unaffected");
        }
        assert_eq!(server.stats().bad_frames, hostile.len() as u64);

        // A valid frame followed by garbage: the frame is answered, the
        // garbage is the next frame's bad magic.
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.send_raw(&[&good[..], b"garbage!"].concat()).unwrap();
        assert_eq!(client.read_response().unwrap().status, status::OK);
        assert_eq!(client.read_response().unwrap().status, status::BAD_FRAME);
        server.shutdown();
    }

    #[test]
    fn server_answers_match_direct_reader() {
        let store = store();
        let reader = store.reader().unwrap();
        let server = NetServer::spawn(store, None, small_cfg()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();

        let queries = vec![
            Query::Point { x: 3 },
            Query::RangeSum { l: 0, h: 7 },
            Query::Point { x: 3 },
        ];
        let response = client.request(&queries).unwrap();
        assert_eq!(response.status, status::OK);
        assert_eq!(response.version, 1);
        assert_eq!(response.slots.len(), 3);
        let direct = reader.execute(&queries).unwrap();
        for (slot, want) in response.slots.iter().zip(&direct) {
            let got = slot.as_answer().expect("valid query answered");
            assert_eq!(got.value.to_bits(), want.value.to_bits());
            assert_eq!(got.err_abs, want.err_abs);
            assert_eq!(got.version, want.version);
        }

        let stats = server.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.answered, 3);
        server.shutdown();
    }

    #[test]
    fn malformed_query_errors_individually_over_the_wire() {
        let server = NetServer::spawn(store(), None, small_cfg()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let response = client
            .request(&[
                Query::Point { x: 1 },
                Query::Point { x: 99 },
                Query::RangeSum { l: 4, h: 2 },
                Query::Point { x: 7 },
            ])
            .unwrap();
        assert_eq!(
            response.status,
            status::OK,
            "batch executes despite bad slots"
        );
        assert!(response.slots[0].is_ok());
        assert!(response.slots[3].is_ok());
        assert!(matches!(
            response.slots[1],
            SlotResult::Error {
                code: status::OUT_OF_RANGE,
                ..
            }
        ));
        assert!(matches!(
            response.slots[2],
            SlotResult::Error {
                code: status::INVERTED_RANGE,
                ..
            }
        ));
        let stats = server.stats();
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.failed_queries, 2);
        server.shutdown();
    }

    #[test]
    fn oversized_batches_and_bad_frames_are_shed_explicitly() {
        let cfg = NetServerConfig {
            max_batch: 4,
            ..small_cfg()
        };
        let server = NetServer::spawn(store(), None, cfg).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();

        // Oversized batch: shed with OVERLOADED, connection survives.
        let big = vec![Query::Point { x: 0 }; 5];
        let response = client.request(&big).unwrap();
        assert_eq!(response.status, status::OVERLOADED);
        assert!(response.slots.is_empty());
        let ok = client.request(&[Query::Point { x: 0 }]).unwrap();
        assert_eq!(ok.status, status::OK, "connection stays usable after shed");

        // Garbage bytes: BAD_FRAME response, then the connection closes.
        client.send_raw(b"XXXXGARBAGE_____________").unwrap();
        let bad = client.read_response().unwrap();
        assert_eq!(bad.status, status::BAD_FRAME);

        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.bad_frames, 1);
        server.shutdown();
    }

    #[test]
    fn over_cap_response_is_shed_and_the_connection_survives() {
        let cfg = NetServerConfig {
            max_batch: 1 << 20,
            ..small_cfg()
        };
        let server = NetServer::spawn(store(), None, cfg).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();

        // 700K point queries: ~9 bytes each on the way in (6.3 MB, under
        // the 16 MiB cap), >= 27 bytes per answer slot on the way out
        // (18.9 MB, over it).
        let big: Vec<Query> = (0..700_000).map(|i| Query::Point { x: i % 8 }).collect();
        let response = client.request(&big).unwrap();
        assert_eq!(response.status, status::OVERLOADED);
        assert!(response.slots.is_empty());
        let ok = client.request(&[Query::Point { x: 0 }]).unwrap();
        assert_eq!(ok.status, status::OK, "connection stays usable after shed");

        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 1, "only the small batch counts as served");
        server.shutdown();
    }

    #[test]
    fn empty_store_reports_status_not_panic() {
        let empty = SynopsisStore::new("empty-net", 4);
        let server = NetServer::spawn(empty, None, small_cfg()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let response = client.request(&[Query::Point { x: 0 }]).unwrap();
        assert_eq!(response.status, status::EMPTY_STORE);
        server.shutdown();
    }

    #[test]
    fn latency_buckets_are_monotone_and_consistent() {
        let mut prev = 0usize;
        for exp in 0..32 {
            let v = 1u64 << exp;
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of must be monotone at {v}");
            prev = b;
            // The representative value lives within a factor of 2.
            let rep = bucket_value(b);
            assert!(
                rep >= v as f64 * 0.5 && rep <= v as f64 * 2.0,
                "v={v} rep={rep}"
            );
        }
        let hist = {
            let mut h = vec![0u64; HIST_BUCKETS];
            for v in [100u64, 200, 300, 400, 100_000] {
                h[bucket_of(v)] += 1;
            }
            h
        };
        assert!(quantile(&hist, 0.5) < 1_000.0);
        assert!(quantile(&hist, 0.99) > 50_000.0);
    }
}
