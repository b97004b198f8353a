//! The framed TCP front end: a tiny length-prefixed wire protocol over
//! `std::net` (the offline-vendor constraint rules out HTTP stacks) plus
//! the blocking [`ServeClient`] the load generator and the `repro --swap`
//! CLI drive it with.
//!
//! # Wire format
//!
//! Every message is one **frame**: a `u32` little-endian payload length
//! followed by the payload. Payloads start with an op byte:
//!
//! | op   | direction | body |
//! |------|-----------|------|
//! | 0x01 | request   | `recommend` — tenant str, user u32, k u16, flags u8 (bit0 exact, bit1 no seen-filter, others zero), nprobe u32 (0 = auto) |
//! | 0x02 | request   | `score_items` — tenant str, user u32, n u32, n × item u32 |
//! | 0x03 | request   | `swap_artifact` — tenant str, artifact path str |
//! | 0x04 | request   | `stats` — empty |
//! | 0x05 | request   | `shutdown` — empty |
//! | 0x81 | response  | `recs` — version u64, n u16, n × (item u32, score f32) |
//! | 0x82 | response  | `scores` — version u64, n u32, n × f32 |
//! | 0x83 | response  | `swapped` — version u64 |
//! | 0x84 | response  | `stats` — UTF-8 text |
//! | 0x85 | response  | `shutdown acknowledged` — empty |
//! | 0xFF | response  | `error` — UTF-8 message |
//!
//! Integers and floats are little-endian, written and read through
//! [`bsl_models::bytes`], the codec the artifact file shares; strings are
//! `u16` length + UTF-8 bytes. Frames are capped at [`MAX_FRAME`] on both
//! sides: a corrupt length can't allocate unboundedly, and a response too
//! large for one frame is answered with an error frame instead. Malformed
//! payloads decode to a [`ProtocolError`], answered with an error frame —
//! a bad client cannot take the server down.
//!
//! `swap_artifact` names a path the **server** loads (the deploy flow:
//! `repro --save` writes the artifact, `repro --swap` tells the running
//! server to pick it up). The new generation adopts the current one's
//! seen-mask when shapes match, so filtering survives hot deploys.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::engine::ServeEngine;
use crate::state::{Rec, RecommendRequest, RecommendResponse, ServeOptions, ServeState};
use bsl_models::bytes::{put, put_all, Le, Reader, Short};
use bsl_models::ModelArtifact;

/// Upper bound on a frame payload (16 MiB): large enough for any real
/// response, small enough that a corrupt length prefix cannot OOM the
/// peer.
pub const MAX_FRAME: usize = 16 << 20;

/// A request frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Top-k retrieval for one user of one tenant.
    Recommend {
        /// Target tenant.
        tenant: String,
        /// The request (user, k, per-request options).
        req: RecommendRequest,
    },
    /// Score an explicit candidate list.
    ScoreItems {
        /// Target tenant.
        tenant: String,
        /// The user to score for.
        user: u32,
        /// The candidate items.
        items: Vec<u32>,
    },
    /// Hot-swap the tenant's artifact to the one at `path` (server-side
    /// file system).
    SwapArtifact {
        /// Target tenant.
        tenant: String,
        /// Artifact path on the server.
        path: String,
    },
    /// Engine stats, as text.
    Stats,
    /// Stop the server (acknowledged before the listener closes).
    Shutdown,
}

/// A response frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Recommendations plus the artifact generation that served them.
    Recs {
        /// Serving-state version.
        version: u64,
        /// Top-k items, best first.
        recs: Vec<Rec>,
    },
    /// Candidate scores plus the serving generation.
    Scores {
        /// Serving-state version.
        version: u64,
        /// One score per requested item, in request order.
        scores: Vec<f32>,
    },
    /// Swap succeeded; the new generation's version.
    Swapped {
        /// The version now being served.
        version: u64,
    },
    /// Stats text.
    Stats(String),
    /// Shutdown acknowledged.
    ShutdownOk,
    /// The request failed; human-readable reason.
    Error(String),
}

/// A malformed frame or payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before its fields did.
    Truncated,
    /// Unknown op byte.
    BadOp(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Frame length exceeds [`MAX_FRAME`].
    Oversize(usize),
    /// Bytes left over after the last field.
    TrailingBytes,
    /// A `recommend` flags byte with bits beyond the known two set.
    BadFlags(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated payload"),
            Self::BadOp(op) => write!(f, "unknown op 0x{op:02x}"),
            Self::BadUtf8 => write!(f, "string field is not UTF-8"),
            Self::Oversize(n) => write!(f, "frame of {n} bytes exceeds the {MAX_FRAME} cap"),
            Self::TrailingBytes => write!(f, "trailing bytes after payload"),
            Self::BadFlags(flags) => write!(f, "unknown recommend flag bits in 0x{flags:02x}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<Short> for ProtocolError {
    fn from(_: Short) -> Self {
        Self::Truncated
    }
}

// ---- encoding ----------------------------------------------------------

/// Writes a `u16`-length-prefixed string field.
///
/// # Panics
/// Panics if `s` is longer than 65,535 bytes: a wrapped length would
/// frame a different request than the one meant.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    put(buf, u16::try_from(bytes.len()).expect("string field too long"));
    buf.extend_from_slice(bytes);
}

// `recommend` flags bits: force the exact path; disable seen-filtering.
const FLAG_EXACT: u8 = 1 << 0;
const FLAG_NO_FILTER: u8 = 1 << 1;

/// Encodes `req` as a payload (no length prefix).
///
/// # Panics
/// Panics if a tenant or path is longer than 65,535 bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Recommend { tenant, req } => {
            buf.push(0x01);
            push_str(&mut buf, tenant);
            put(&mut buf, req.user);
            put(&mut buf, req.k.min(u16::MAX as usize) as u16);
            let flags = (u8::from(req.opts.exact) * FLAG_EXACT)
                | (u8::from(!req.opts.filter_seen) * FLAG_NO_FILTER);
            put(&mut buf, flags);
            put(&mut buf, req.opts.nprobe.unwrap_or(0).min(u32::MAX as usize) as u32);
        }
        Request::ScoreItems { tenant, user, items } => {
            buf.push(0x02);
            push_str(&mut buf, tenant);
            put(&mut buf, *user);
            put(&mut buf, items.len() as u32);
            put_all(&mut buf, items.iter().copied());
        }
        Request::SwapArtifact { tenant, path } => {
            buf.push(0x03);
            push_str(&mut buf, tenant);
            push_str(&mut buf, path);
        }
        Request::Stats => buf.push(0x04),
        Request::Shutdown => buf.push(0x05),
    }
    buf
}

/// Encodes `resp` as a payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Recs { version, recs } => {
            buf.push(0x81);
            put(&mut buf, *version);
            put(&mut buf, recs.len().min(u16::MAX as usize) as u16);
            for r in recs {
                put(&mut buf, r.item);
                put(&mut buf, r.score);
            }
        }
        Response::Scores { version, scores } => {
            buf.push(0x82);
            put(&mut buf, *version);
            put(&mut buf, scores.len() as u32);
            put_all(&mut buf, scores.iter().copied());
        }
        Response::Swapped { version } => {
            buf.push(0x83);
            put(&mut buf, *version);
        }
        Response::Stats(text) => {
            buf.push(0x84);
            buf.extend_from_slice(text.as_bytes());
        }
        Response::ShutdownOk => buf.push(0x85),
        Response::Error(msg) => {
            buf.push(0xFF);
            buf.extend_from_slice(msg.as_bytes());
        }
    }
    buf
}

// ---- decoding ----------------------------------------------------------

/// Reads a `u16`-length-prefixed string field.
fn get_str(r: &mut Reader<'_>) -> Result<String, ProtocolError> {
    let n = r.get::<u16>()?;
    utf8(r.take(n.into())?)
}

fn utf8(bytes: &[u8]) -> Result<String, ProtocolError> {
    std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| ProtocolError::BadUtf8)
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader::new(payload);
    let req = match r.get::<u8>()? {
        0x01 => {
            let (tenant, user, k, flags) =
                (get_str(&mut r)?, r.get()?, r.get::<u16>()?, r.get::<u8>()?);
            if flags & !(FLAG_EXACT | FLAG_NO_FILTER) != 0 {
                return Err(ProtocolError::BadFlags(flags));
            }
            let nprobe: u32 = r.get()?;
            let opts = ServeOptions {
                exact: flags & FLAG_EXACT != 0,
                filter_seen: flags & FLAG_NO_FILTER == 0,
                nprobe: (nprobe > 0).then_some(nprobe as usize),
            };
            Request::Recommend { tenant, req: RecommendRequest { user, k: k.into(), opts } }
        }
        0x02 => {
            let (tenant, user, n) = (get_str(&mut r)?, r.get()?, r.get::<u32>()?);
            Request::ScoreItems { tenant, user, items: r.vec(n as usize)? }
        }
        0x03 => Request::SwapArtifact { tenant: get_str(&mut r)?, path: get_str(&mut r)? },
        0x04 => Request::Stats,
        0x05 => Request::Shutdown,
        op => return Err(ProtocolError::BadOp(op)),
    };
    if r.remaining() > 0 {
        return Err(ProtocolError::TrailingBytes);
    }
    Ok(req)
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Reader::new(payload);
    let resp = match r.get::<u8>()? {
        0x81 => {
            let (version, n) = (r.get()?, r.get::<u16>()?);
            let pairs = r.take(usize::from(n) * 8)?.chunks_exact(8);
            let recs =
                pairs.map(|p| Rec { item: u32::decode(&p[..4]), score: f32::decode(&p[4..]) });
            Response::Recs { version, recs: recs.collect() }
        }
        0x82 => {
            let (version, n) = (r.get()?, r.get::<u32>()?);
            Response::Scores { version, scores: r.vec(n as usize)? }
        }
        0x83 => Response::Swapped { version: r.get()? },
        0x84 => Response::Stats(utf8(r.take(r.remaining())?)?),
        0x85 => Response::ShutdownOk,
        0xFF => Response::Error(utf8(r.take(r.remaining())?)?),
        op => return Err(ProtocolError::BadOp(op)),
    };
    if r.remaining() > 0 {
        return Err(ProtocolError::TrailingBytes);
    }
    Ok(resp)
}

// ---- framing -----------------------------------------------------------

/// Writes one frame (length prefix + payload). A payload over
/// [`MAX_FRAME`] is `InvalidInput` and nothing is written: the peer would
/// refuse it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        let oversize = ProtocolError::Oversize(payload.len());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, oversize));
    }
    let mut len = [0; 4];
    (payload.len() as u32).encode(&mut len);
    w.write_all(&len)?;
    w.write_all(payload)?;
    w.flush()
}

/// The most a frame's length prefix reserves before its bytes arrive;
/// a longer payload grows its buffer as it is read.
const FRAME_RESERVE: usize = 64 << 10;

/// Reads one frame's payload. `Ok(None)` on a clean EOF at a frame
/// boundary; oversize lengths become `InvalidData` without allocating, and
/// a payload cut short is `UnexpectedEof`. Memory follows the bytes that
/// arrive, not the length the prefix claims.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::decode(&len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, ProtocolError::Oversize(len)));
    }
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(payload))
}

// ---- server ------------------------------------------------------------

/// Answers one decoded request against the engine. `shutdown` is flipped
/// on a [`Request::Shutdown`] (the caller tears the listener down after
/// acknowledging).
fn handle(engine: &ServeEngine, req: Request, shutdown: &AtomicBool) -> Response {
    match req {
        Request::Recommend { tenant, req } => match engine.recommend(&tenant, req) {
            Ok(RecommendResponse { version, recs, .. }) => Response::Recs { version, recs },
            Err(e) => Response::Error(e.to_string()),
        },
        Request::ScoreItems { tenant, user, items } => {
            match engine.score_items(&tenant, user, &items) {
                Ok((version, scores)) => Response::Scores { version, scores },
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::SwapArtifact { tenant, path } => {
            let artifact = match ModelArtifact::load(&path) {
                Ok(a) => a,
                Err(e) => return Response::Error(format!("loading {path}: {e}")),
            };
            // Keep filtering across deploys: adopt the serving
            // generation's seen-mask when the new artifact's shape
            // still matches it.
            let state = match engine.registry().get(&tenant) {
                Ok(slot) => ServeState::with_seen_from(artifact, &slot.load()),
                Err(e) => return Response::Error(e.to_string()),
            };
            match engine.swap(&tenant, state) {
                Ok(version) => Response::Swapped { version },
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Stats => Response::Stats(engine.stats().to_string()),
        Request::Shutdown => {
            // ORDERING: SeqCst — set-once shutdown latch; total order
            // keeps the flag, the ShutdownOk reply, and the accept-loop
            // poke from being reordered against each other.
            shutdown.store(true, SeqCst);
            Response::ShutdownOk
        }
    }
}

/// The front end's books on its connections: a handle on every open
/// stream, so `stop` can shut it down, and every connection thread not
/// yet joined. Bounded by the connections open *now*, not ever accepted:
/// a connection thread drops its own stream entry when it ends and the
/// accept loop joins the threads that have.
#[derive(Default)]
struct Conns {
    open: Vec<(u64, TcpStream)>,
    threads: Vec<JoinHandle<()>>,
}

/// Removes a connection's [`Conns`] entry when its thread ends — also
/// when it unwinds, so the peer sees the socket close instead of hanging.
struct Deregister {
    conns: Arc<Mutex<Conns>>,
    id: u64,
}

impl Drop for Deregister {
    fn drop(&mut self) {
        // Every update of `Conns` is one `Vec` call: valid after a panic.
        let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.open.retain(|(id, _)| *id != self.id);
    }
}

/// The TCP front end: an accept loop handing each connection to its own
/// thread, all speaking the framed protocol against one shared
/// [`ServeEngine`].
///
/// Stop it with [`TcpFrontend::stop`] (or remotely with a `shutdown`
/// frame): the listener closes, open connections are shut down, and
/// every thread is joined — in-flight requests get their responses
/// first.
pub struct TcpFrontend {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Conns>>,
}

impl TcpFrontend {
    /// How long the accept loop sleeps after a failed `accept` (out of
    /// descriptors, typically) before trying again.
    const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `engine`.
    pub fn start(engine: Arc<ServeEngine>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Conns::default()));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new().name("bsl-serve-accept".into()).spawn(move || {
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    // ORDERING: SeqCst — shutdown-latch read; `stop`'s
                    // store is totally ordered before the poke connection
                    // that unblocks this accept, so the flag is visible
                    // here by then.
                    if shutdown.load(SeqCst) {
                        break;
                    }
                    // A connection `stop` could not shut down would hang
                    // its join, so no handle, no service.
                    let Some((stream, handle)) =
                        stream.ok().and_then(|s| s.try_clone().ok().map(|c| (s, c)))
                    else {
                        std::thread::sleep(Self::ACCEPT_BACKOFF);
                        continue;
                    };
                    let mut books = conns.lock().expect("conn registry");
                    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut books.threads)
                        .into_iter()
                        .partition(JoinHandle::is_finished);
                    books.threads = live;
                    done.into_iter().for_each(|h| drop(h.join()));
                    books.open.push((id, handle));
                    let engine = Arc::clone(&engine);
                    let shutdown = Arc::clone(&shutdown);
                    let bye = Deregister { conns: Arc::clone(&conns), id };
                    let thread = std::thread::Builder::new()
                        .name("bsl-serve-conn".into())
                        .spawn(move || {
                            let _bye = bye;
                            connection_loop(stream, &engine, &shutdown)
                        })
                        .expect("spawning connection thread");
                    books.threads.push(thread);
                }
            })?
        };
        Ok(Self { addr, shutdown, accept: Some(accept), conns })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown (local or via a `shutdown` frame) has been
    /// requested.
    pub fn shutdown_requested(&self) -> bool {
        // ORDERING: SeqCst — shutdown-latch read (see `stop`).
        self.shutdown.load(SeqCst)
    }

    /// Blocks until a `shutdown` frame arrives, polling `period`.
    pub fn wait_for_shutdown(&self, period: std::time::Duration) {
        while !self.shutdown_requested() {
            std::thread::sleep(period);
        }
    }

    /// Stops accepting, closes open connections, and joins every thread
    /// (idempotent; also runs on drop). In-flight requests are answered
    /// before their connections close.
    pub fn stop(&mut self) {
        // ORDERING: SeqCst — set-once shutdown latch: every reader
        // (accept loop, connection loops, shutdown_requested) observes it
        // in the single total order, so none can run past a completed
        // stop(). Uncontended after startup, so the strength is free.
        self.shutdown.store(true, SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Take the threads out before joining: they lock the books to
        // drop their entry on the way out.
        let threads = {
            let mut books = self.conns.lock().expect("conn registry");
            for (_, conn) in &books.open {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
            std::mem::take(&mut books.threads)
        };
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFrontend {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection: read frames, answer them, until EOF / error /
/// shutdown.
fn connection_loop(mut stream: TcpStream, engine: &ServeEngine, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // EOF or torn-down socket
        };
        let resp = match decode_request(&payload) {
            Ok(req) => handle(engine, req, shutdown),
            Err(e) => Response::Error(format!("bad request: {e}")),
        };
        let was_shutdown = matches!(resp, Response::ShutdownOk);
        let mut out = encode_response(&resp);
        if out.len() > MAX_FRAME {
            let oversize = ProtocolError::Oversize(out.len());
            out = encode_response(&Response::Error(format!("response {oversize}")));
        }
        if write_frame(&mut stream, &out).is_err() {
            return;
        }
        // ORDERING: SeqCst — shutdown-latch read (see `stop`).
        if was_shutdown || shutdown.load(SeqCst) {
            // Poke the accept loop so it observes the flag and exits.
            return;
        }
    }
}

// ---- client ------------------------------------------------------------

/// A client-side failure: transport, framing, or a server-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent a malformed or unexpected frame.
    Protocol(ProtocolError),
    /// The server answered with an error frame.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io: {e}"),
            Self::Protocol(e) => write!(f, "protocol: {e}"),
            Self::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// A blocking protocol client over one TCP connection (one request in
/// flight at a time; open several clients for concurrency — that is
/// exactly what the load generator does). A tenant or path longer than
/// the wire's 65,535-byte string field panics (see [`encode_request`]).
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to a [`TcpFrontend`].
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// One request/response round trip.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        match decode_response(&payload)? {
            Response::Error(msg) => Err(ClientError::Server(msg)),
            resp => Ok(resp),
        }
    }

    /// Top-k retrieval for `req.user` on `tenant`.
    pub fn recommend(
        &mut self,
        tenant: &str,
        req: RecommendRequest,
    ) -> Result<RecommendResponse, ClientError> {
        let user = req.user;
        match self.call(&Request::Recommend { tenant: to_owned(tenant), req })? {
            Response::Recs { version, recs } => Ok(RecommendResponse { user, version, recs }),
            other => Err(unexpected(other)),
        }
    }

    /// Scores `items` for `user` on `tenant`; returns `(version, scores)`.
    pub fn score_items(
        &mut self,
        tenant: &str,
        user: u32,
        items: &[u32],
    ) -> Result<(u64, Vec<f32>), ClientError> {
        let req = Request::ScoreItems { tenant: to_owned(tenant), user, items: items.to_vec() };
        match self.call(&req)? {
            Response::Scores { version, scores } => Ok((version, scores)),
            other => Err(unexpected(other)),
        }
    }

    /// Tells the server to hot-swap `tenant` to the artifact at `path`
    /// (a path on the **server's** file system); returns the new version.
    pub fn swap_artifact(&mut self, tenant: &str, path: &str) -> Result<u64, ClientError> {
        let req = Request::SwapArtifact { tenant: to_owned(tenant), path: to_owned(path) };
        match self.call(&req)? {
            Response::Swapped { version } => Ok(version),
            other => Err(unexpected(other)),
        }
    }

    /// The engine's stats text.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down (acknowledged before it does).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn to_owned(s: &str) -> String {
    s.to_string()
}

/// A well-formed response of the wrong kind, reported by its op byte.
fn unexpected(resp: Response) -> ClientError {
    ClientError::Protocol(ProtocolError::BadOp(encode_response(&resp)[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::engine::BatchPolicy;
    use crate::registry::Registry;
    use bsl_linalg::Matrix;
    use bsl_models::EvalScore;
    use rand::SeedableRng;

    fn request_cases() -> Vec<Request> {
        vec![
            Request::Recommend { tenant: "yelp".into(), req: RecommendRequest::new(42, 10) },
            Request::Recommend {
                tenant: "".into(),
                req: RecommendRequest {
                    user: u32::MAX,
                    k: 65535,
                    opts: ServeOptions { nprobe: Some(7), exact: true, filter_seen: false },
                },
            },
            Request::ScoreItems { tenant: "t".into(), user: 3, items: vec![1, 2, u32::MAX] },
            Request::ScoreItems { tenant: "t".into(), user: 0, items: vec![] },
            Request::SwapArtifact { tenant: "default".into(), path: "/tmp/model.bsla".into() },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn response_cases() -> Vec<Response> {
        vec![
            Response::Recs {
                version: 9,
                recs: vec![Rec { item: 5, score: -1.25 }, Rec { item: 0, score: f32::MAX }],
            },
            Response::Recs { version: 0, recs: vec![] },
            Response::Scores { version: 3, scores: vec![0.0, -0.5, 1e9] },
            Response::Swapped { version: u64::MAX },
            Response::Stats("requests=5\ntenant a version=2\n".into()),
            Response::ShutdownOk,
            Response::Error("unknown tenant \"x\"".into()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in request_cases() {
            assert_eq!(decode_request(&encode_request(&req)).expect("decode"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in response_cases() {
            assert_eq!(decode_response(&encode_response(&resp)).expect("decode"), resp);
        }
    }

    /// Every prefix of every round-trip case, and every byte of it with
    /// bit 0 or bit 7 flipped, decodes to an error or to a value that
    /// re-encodes to exactly those bytes — never to a different message,
    /// never a panic.
    #[test]
    fn mutated_payloads_decode_to_an_error_or_their_own_bytes() {
        fn sweep<T: std::fmt::Debug>(
            enc: &[u8],
            decode: fn(&[u8]) -> Result<T, ProtocolError>,
            encode: fn(&T) -> Vec<u8>,
        ) {
            let mut mutants: Vec<Vec<u8>> = (0..enc.len()).map(|cut| enc[..cut].to_vec()).collect();
            for at in 0..enc.len() {
                for bit in [0x01, 0x80] {
                    let mut m = enc.to_vec();
                    m[at] ^= bit;
                    mutants.push(m);
                }
            }
            for m in mutants {
                if let Ok(v) = decode(&m) {
                    assert_eq!(encode(&v), m, "{v:?} decoded from a mutant of {enc:?}");
                }
            }
        }
        for req in request_cases() {
            sweep(&encode_request(&req), decode_request, encode_request);
        }
        for resp in response_cases() {
            sweep(&encode_response(&resp), decode_response, encode_response);
        }
    }

    /// A string field past the `u16` prefix is refused, in release builds
    /// too, instead of framing a wrapped length; one at the limit fits.
    #[test]
    #[should_panic(expected = "string field too long")]
    fn string_fields_past_u16_are_refused() {
        let path = "p".repeat(u16::MAX as usize);
        let req = Request::SwapArtifact { tenant: "t".into(), path };
        assert_eq!(decode_request(&encode_request(&req)), Ok(req));
        let tenant = "t".repeat(u16::MAX as usize + 1);
        encode_request(&Request::Recommend { tenant, req: RecommendRequest::new(0, 1) });
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panics() {
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(decode_request(&[0x42]), Err(ProtocolError::BadOp(0x42)));
        // Recommend cut off mid-fields.
        let mut enc = encode_request(&Request::Recommend {
            tenant: "abc".into(),
            req: RecommendRequest::new(1, 5),
        });
        enc.truncate(enc.len() - 3);
        assert_eq!(decode_request(&enc), Err(ProtocolError::Truncated));
        // Trailing garbage.
        let mut enc = encode_request(&Request::Stats);
        enc.push(0);
        assert_eq!(decode_request(&enc), Err(ProtocolError::TrailingBytes));
        // Bad UTF-8 tenant.
        let enc = vec![0x03, 2, 0, 0xFF, 0xFE, 0, 0];
        assert_eq!(decode_request(&enc), Err(ProtocolError::BadUtf8));
        // ScoreItems claiming more items than the payload carries.
        let mut enc = Vec::new();
        enc.push(0x02);
        push_str(&mut enc, "t");
        enc.extend_from_slice(&0u32.to_le_bytes());
        enc.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert_eq!(decode_request(&enc), Err(ProtocolError::Truncated));
        // Recommend flags with an unknown bit set (the byte before nprobe).
        let mut enc = encode_request(&Request::Recommend {
            tenant: "abc".into(),
            req: RecommendRequest::new(1, 5),
        });
        let flags_at = enc.len() - 5;
        enc[flags_at] |= 0x80;
        assert_eq!(decode_request(&enc), Err(ProtocolError::BadFlags(0x80)));
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at a frame boundary");

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = io::Cursor::new(huge.to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The writer holds itself to the same cap, and writes nothing.
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![0; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        write_frame(&mut out, &vec![0; MAX_FRAME]).unwrap();
        assert_eq!(out.len(), 4 + MAX_FRAME);

        // A frame that promises more bytes than arrive is an error, not a
        // hang or a short read.
        let mut partial = 10u32.to_le_bytes().to_vec();
        partial.extend_from_slice(b"abc");
        let mut r = io::Cursor::new(partial);
        assert!(read_frame(&mut r).is_err());
    }

    /// A count claimed by the payload is checked against the bytes that
    /// carry it before anything is reserved for it.
    #[test]
    fn oversized_counts_are_truncated_not_reserved() {
        // A 15-byte score_items frame claiming u32::MAX items.
        let mut enc = vec![0x02];
        push_str(&mut enc, "t");
        enc.extend_from_slice(&7u32.to_le_bytes());
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        enc.extend_from_slice(&[1, 2, 3]);
        assert_eq!(enc.len(), 15);
        assert_eq!(decode_request(&enc), Err(ProtocolError::Truncated));
        // The same claim in a scores response, and u16::MAX recs.
        let mut enc = vec![0x82];
        enc.extend_from_slice(&1u64.to_le_bytes());
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        enc.extend_from_slice(&[0; 6]);
        assert_eq!(decode_response(&enc), Err(ProtocolError::Truncated));
        let mut enc = vec![0x81];
        enc.extend_from_slice(&1u64.to_le_bytes());
        enc.extend_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode_response(&enc), Err(ProtocolError::Truncated));
    }

    /// Serves its bytes, then EOF, recording the widest buffer it was asked
    /// to fill.
    struct Trickle {
        bytes: io::Cursor<Vec<u8>>,
        widest: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    /// A 16 MiB length prefix followed by 10 bytes and EOF is an error, and
    /// the reader never sees a buffer the size the prefix claims.
    #[test]
    fn a_claimed_length_does_not_size_the_read() {
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[9; 10]);
        let mut r = Trickle { bytes: io::Cursor::new(bytes), widest: 0 };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.widest <= FRAME_RESERVE, "asked to fill {} bytes", r.widest);
        // A frame longer than the first reservation still arrives whole.
        let payload: Vec<u8> = (0..3 * FRAME_RESERVE + 5).map(|i| i as u8).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut r = Trickle { bytes: io::Cursor::new(framed), widest: 0 };
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
    }

    /// A legal request whose answer is too large for one frame gets an
    /// error frame, and its connection keeps serving.
    #[test]
    fn an_over_cap_response_is_answered_with_an_error_frame() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let one = Matrix::gaussian(1, 8, 1.0, &mut rng);
        let registry = Arc::new(Registry::new());
        let art = ModelArtifact::from_embeddings("MF", &one, &one, EvalScore::Dot);
        registry.insert("", ServeState::new(art));
        let engine = ServeEngine::new(registry, BatchPolicy::default());
        let mut frontend = TcpFrontend::start(engine, "127.0.0.1:0").expect("loopback");
        let mut client = ServeClient::connect(frontend.local_addr()).expect("connect");

        // The largest score_items request one frame carries; its scores
        // response is two bytes over the cap.
        let items = vec![0u32; (MAX_FRAME - 11) / 4];
        let req = Request::ScoreItems { tenant: "".into(), user: 0, items: items.clone() };
        assert_eq!(encode_request(&req).len(), MAX_FRAME - 1);
        match client.score_items("", 0, &items) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected a server error, got {other:?}"),
        }
        client.stats().expect("the connection keeps serving");
        frontend.stop();
    }
}
