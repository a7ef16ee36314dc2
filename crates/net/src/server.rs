//! The stair-net server: a multi-threaded TCP front end over a
//! [`ShardSet`].
//!
//! # Architecture
//!
//! * one **reader thread per connection** parses frames and enqueues
//!   jobs (HELLO and SHUTDOWN are answered inline);
//! * a fixed **worker pool** pops jobs and executes them against the
//!   shard set — stripe locks inside each shard keep concurrent workers
//!   safe, and different shards share nothing;
//! * responses are written back under a per-connection mutex, tagged
//!   with the request ID, so a pipelining client may see completions out
//!   of order;
//! * **write batching**: a worker that pops a WRITE drains the other
//!   WRITEs queued behind it (up to a batch cap) and sorts them by
//!   offset; adjacent spans are merged into a single store pass, so
//!   small writes landing in the same stripe coalesce into one
//!   parity-delta update instead of one per request. Disjoint writes
//!   commute, so offset order is safe; if any two writes in a batch
//!   overlap, the batch falls back to arrival order with no merging.
//!
//! Shutdown (a SHUTDOWN frame, or [`ServerHandle::shutdown`]) stops the
//! accept loop, drains the queue, joins every thread, and flushes the
//! shards before [`Server::run`] returns.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use stair_device::{BlockDevice, IoBatch, IoOp, OpResult};
use stair_obs::trace::{self, names};
use stair_obs::{MetricsRegistry, SpanCtx};

use crate::protocol::{
    read_request_traced, write_response, BatchReply, RepairSummary, Request, Response,
    ScrubSummary, ServerInfo, WireTrace, WriteSummary, PROTOCOL_VERSION,
};
use crate::shards::{wire_status, ShardSet};
use crate::NetError;

/// Tunables for [`Server::bind`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Most WRITE requests one worker batches into a single pass.
    pub write_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            write_batch: 32,
        }
    }
}

/// One queued request plus where its response goes.
struct Job {
    writer: Arc<ConnWriter>,
    id: u64,
    req: Request,
    /// When the reader parsed the frame — the start of the server-side
    /// span and the base of the queue-wait measurement.
    received: Instant,
    /// The trace context carried on the frame, if the client traced it.
    ctx: Option<SpanCtx>,
}

/// Most recently-seen BATCH ids remembered per connection for
/// duplicate-delivery accounting.
const RECENT_BATCH_IDS: usize = 64;

/// The write half of a connection; workers serialize frames under the
/// lock. A send to a dead peer is ignored — the reader thread notices
/// the hangup and retires the connection.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    /// Ring of recent nonzero BATCH ids (clients stamp retried
    /// batches with the same id; a repeat here means the client
    /// redelivered after a redial).
    recent_batches: Mutex<VecDeque<u64>>,
}

impl ConnWriter {
    fn send(&self, id: u64, resp: &Response) {
        // Poisoning here would mean a worker panicked mid-frame; the
        // stream is unusable either way, so take the guard regardless.
        let mut stream = self
            .stream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = write_response(&mut *stream, id, resp);
    }

    /// Records `batch_id` and reports whether it was already seen on
    /// this connection (a duplicate delivery of a retried batch).
    fn batch_seen_before(&self, batch_id: u64) -> bool {
        let mut recent = self
            .recent_batches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if recent.contains(&batch_id) {
            return true;
        }
        if recent.len() >= RECENT_BATCH_IDS {
            recent.pop_front();
        }
        recent.push_back(batch_id);
        false
    }
}

struct State {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Cloned handles of *live* connections, shut down to unblock their
    /// readers at server shutdown. Each reader removes its own entry on
    /// exit, so dead connections do not leak file descriptors.
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    /// Per-opcode request counters, latency histograms, and the trace
    /// journal; served back over the METRICS opcode.
    registry: MetricsRegistry,
}

impl State {
    fn push(&self, job: Job) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(job);
        self.available.notify_one();
    }
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the server to stop: no new connections, queued work drains,
    /// then [`Server::run`] returns.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state, self.addr);
    }

    /// Forcibly drops every live client connection while the server
    /// keeps serving — an operational lever (shed all sessions, e.g.
    /// before a config change) and the hook the client-resilience
    /// regression test uses to kill sockets between ops. Clients
    /// reconnect on their next call.
    pub fn disconnect_all(&self) {
        for conn in self
            .state
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn begin_shutdown(state: &State, addr: SocketAddr) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    state.available.notify_all();
    // Unblock readers parked in read_exact.
    for conn in state
        .conns
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(addr);
}

/// The TCP storage service.
pub struct Server {
    listener: TcpListener,
    shards: Arc<ShardSet>,
    state: Arc<State>,
    config: ServerConfig,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front
    /// of `shards`.
    ///
    /// # Errors
    ///
    /// A busy port or unroutable address comes back as [`NetError::Io`]
    /// with the address in the message — no panic.
    pub fn bind(addr: &str, shards: ShardSet, config: ServerConfig) -> Result<Self, NetError> {
        if config.workers == 0 {
            return Err(NetError::Shards("need at least one worker".into()));
        }
        let listener = TcpListener::bind(addr).map_err(|e| {
            NetError::Io(io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))
        })?;
        let local = listener.local_addr()?;
        Ok(Server {
            listener,
            shards: Arc::new(shards),
            state: Arc::new(State {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
                conns: Mutex::new(std::collections::HashMap::new()),
                registry: MetricsRegistry::new(),
            }),
            config,
            addr: local,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
            addr: self.addr,
        }
    }

    /// The HELLO payload this server announces.
    pub fn info(&self) -> ServerInfo {
        ServerInfo {
            version: PROTOCOL_VERSION,
            shards: self.shards.shard_count() as u32,
            capacity: self.shards.capacity(),
            block_size: self.shards.block_size() as u32,
            range_blocks: self.shards.placement().range_blocks() as u32,
            codec: self.shards.codec(),
        }
    }

    /// Serves until shutdown, then drains, joins every thread, and
    /// flushes the shards.
    ///
    /// # Errors
    ///
    /// Only the final flush can fail; per-connection errors retire that
    /// connection silently.
    pub fn run(self) -> Result<(), NetError> {
        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let state = Arc::clone(&self.state);
            let shards = Arc::clone(&self.shards);
            let batch = self.config.write_batch.max(1);
            let info = self.info();
            workers.push(std::thread::spawn(move || {
                worker_loop(&state, &shards, &info, batch)
            }));
        }

        let mut readers = Vec::new();
        let mut next_conn: u64 = 0;
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap finished reader threads so neither the handle list nor
            // the live-connection map grows with connection churn.
            readers.retain(|h: &std::thread::JoinHandle<()>| !h.is_finished());
            let conn_id = next_conn;
            next_conn += 1;
            if let Ok(clone) = stream.try_clone() {
                self.state
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(conn_id, clone);
            }
            self.state.registry.counter("srv.connections_total").inc();
            self.state.registry.gauge("srv.connections").add(1);
            let state = Arc::clone(&self.state);
            let info = self.info();
            let addr = self.addr;
            readers.push(std::thread::spawn(move || {
                reader_loop(stream, &state, &info, addr);
                state.registry.gauge("srv.connections").add(-1);
                state
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .remove(&conn_id);
            }));
        }

        // Shutdown: wake everything and wait for it to drain.
        begin_shutdown(&self.state, self.addr);
        for r in readers {
            let _ = r.join();
        }
        self.state.available.notify_all();
        for w in workers {
            let _ = w.join();
        }
        self.shards.flush()
    }
}

/// Parses frames off one connection until EOF, error, or shutdown.
fn reader_loop(stream: TcpStream, state: &State, info: &ServerInfo, addr: SocketAddr) {
    let writer = Arc::new(ConnWriter {
        stream: match stream.try_clone() {
            Ok(s) => Mutex::new(s),
            Err(_) => return,
        },
        recent_batches: Mutex::new(VecDeque::new()),
    });
    let mut stream = stream;
    loop {
        let (id, req, ctx) = match read_request_traced(&mut stream) {
            Ok(x) => x,
            Err(NetError::Protocol(msg)) => {
                // A malformed frame desynchronizes the stream; report and
                // hang up rather than guessing where the next frame starts.
                writer.send(u64::MAX, &Response::Error(format!("protocol error: {msg}")));
                return;
            }
            Err(_) => return, // EOF or socket error
        };
        let received = Instant::now();
        match req {
            Request::Hello { version } => {
                state.registry.counter("srv.req.hello").inc();
                if version != PROTOCOL_VERSION {
                    state.registry.counter("srv.errors.hello").inc();
                    writer.send(
                        id,
                        &Response::Error(format!(
                            "version mismatch: server speaks v{PROTOCOL_VERSION}, client v{version}"
                        )),
                    );
                    return;
                }
                writer.send(id, &Response::Hello(info.clone()));
            }
            Request::Shutdown => {
                state.registry.counter("srv.req.shutdown").inc();
                writer.send(id, &Response::ShuttingDown);
                begin_shutdown(state, addr);
                return;
            }
            req => {
                // Duplicate-batch accounting: a nonzero
                // id seen twice on one connection means the client
                // redelivered a batch after a redial; the journal makes
                // re-applying it safe, the counter makes it observable.
                if let Request::Batch { batch_id, .. } = &req {
                    if *batch_id != 0 && writer.batch_seen_before(*batch_id) {
                        state.registry.counter("srv.batch.redelivered").inc();
                    }
                }
                state.push(Job {
                    writer: Arc::clone(&writer),
                    id,
                    req,
                    received,
                    ctx,
                });
            }
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn worker_loop(state: &State, shards: &ShardSet, info: &ServerInfo, batch: usize) {
    loop {
        let job = {
            let mut queue = state
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = state
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if let Request::Write { offset, data } = job.req {
            let mut writes = vec![QueuedWrite {
                writer: job.writer,
                id: job.id,
                offset,
                data,
                received: job.received,
                ctx: job.ctx,
            }];
            {
                let mut queue = state
                    .queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let mut i = 0;
                while i < queue.len() && writes.len() < batch {
                    if matches!(queue[i].req, Request::Write { .. }) {
                        let Some(Job {
                            writer,
                            id,
                            req: Request::Write { offset, data },
                            received,
                            ctx,
                        }) = queue.remove(i)
                        else {
                            // Guarded by the matches! above; bail rather
                            // than panic if the queue mutates underfoot.
                            break;
                        };
                        writes.push(QueuedWrite {
                            writer,
                            id,
                            offset,
                            data,
                            received,
                            ctx,
                        });
                    } else {
                        i += 1;
                    }
                }
            }
            execute_write_batch(shards, &state.registry, writes);
        } else {
            let kind = job.req.opcode().name();
            let bytes = request_bytes(&job.req);
            let start = Instant::now();
            // A traced frame roots a server-side span tree: the root
            // starts when the reader parsed the frame and joins the
            // client's trace; the queue wait is recorded as the interval
            // between parse and this worker popping the job.
            let mut root = job.ctx.map(|ctx| {
                let g = trace::wire_root_at(
                    names::SRV_REQUEST,
                    ctx.trace_id,
                    ctx.span_id,
                    job.received,
                );
                trace::span_at(
                    names::SRV_QUEUE,
                    job.received,
                    start.saturating_duration_since(job.received),
                );
                g
            });
            let resp = {
                let _exec = trace::span(names::SRV_EXEC);
                execute(shards, info, &state.registry, job.req)
            };
            let elapsed = start.elapsed();
            record_request(&state.registry, kind, bytes, elapsed, &resp);
            if let Some(g) = root.as_mut() {
                g.set_bytes(bytes);
                if matches!(resp, Response::Error(_)) {
                    g.fail();
                }
            }
            job.writer.send(job.id, &resp);
            // The root closes only after the response frame is written,
            // so the server span covers the write-back too.
            drop(root);
        }
    }
}

/// One WRITE pulled off the queue for coalescing, with everything
/// needed to answer and (if traced) span it.
struct QueuedWrite {
    writer: Arc<ConnWriter>,
    id: u64,
    offset: u64,
    data: Vec<u8>,
    received: Instant,
    ctx: Option<SpanCtx>,
}

/// The byte count a request moves (write payloads plus requested read
/// lengths); what the journal and throughput counters attribute to it.
fn request_bytes(req: &Request) -> u64 {
    match req {
        Request::Read { len, .. } => u64::from(*len),
        Request::Write { data, .. } => data.len() as u64,
        Request::Batch { ops, .. } => ops
            .iter()
            .map(|op| match op {
                IoOp::Read { len, .. } => *len as u64,
                IoOp::Write { data, .. } => data.len() as u64,
            })
            .sum(),
        _ => 0,
    }
}

/// Charges one completed request to the per-opcode counters, latency
/// histogram, byte counter, and trace journal.
fn record_request(
    registry: &MetricsRegistry,
    kind: &str,
    bytes: u64,
    elapsed: std::time::Duration,
    resp: &Response,
) {
    let ok = !matches!(resp, Response::Error(_));
    registry.counter(&format!("srv.req.{kind}")).inc();
    if !ok {
        registry.counter(&format!("srv.errors.{kind}")).inc();
    }
    registry
        .histogram(&format!("srv.lat_us.{kind}"))
        .record(elapsed.as_micros() as u64);
    if bytes > 0 {
        registry.counter(&format!("srv.bytes.{kind}")).add(bytes);
    }
    registry.record_op(kind, 0, bytes, elapsed, ok);
}

/// Opens the server-side root and queue-wait spans for one traced
/// WRITE: the root joins the client's trace starting at frame parse.
fn traced_write_root(ctx: SpanCtx, received: Instant, bytes: u64) -> trace::SpanGuard {
    let mut g = trace::wire_root_at(names::SRV_REQUEST, ctx.trace_id, ctx.span_id, received);
    trace::span_at(names::SRV_QUEUE, received, received.elapsed());
    g.set_bytes(bytes);
    g
}

/// Executes a batch of WRITEs, merging adjacent spans into single store
/// passes. Any overlap within the batch forces arrival order, unmerged.
fn execute_write_batch(shards: &ShardSet, registry: &MetricsRegistry, writes: Vec<QueuedWrite>) {
    let mut order: Vec<usize> = (0..writes.len()).collect();
    order.sort_by_key(|&i| writes[i].offset);
    let overlapping = order.windows(2).any(|w| {
        let a = &writes[w[0]];
        a.offset + a.data.len() as u64 > writes[w[1]].offset
    });
    if overlapping {
        for w in writes {
            let start = Instant::now();
            let mut root = w
                .ctx
                .map(|ctx| traced_write_root(ctx, w.received, w.data.len() as u64));
            let resp = write_one(shards, w.offset, &w.data, 1);
            record_request(
                registry,
                "write",
                w.data.len() as u64,
                start.elapsed(),
                &resp,
            );
            if let (Some(g), Response::Error(_)) = (root.as_mut(), &resp) {
                g.fail();
            }
            w.writer.send(w.id, &resp);
            drop(root);
        }
        return;
    }
    // Merge adjacent runs (sorted, disjoint, so order is immaterial).
    let mut at = 0;
    while at < order.len() {
        let mut members = vec![order[at]];
        let run_offset = writes[order[at]].offset;
        let mut run: Vec<u8> = writes[order[at]].data.clone();
        at += 1;
        while at < order.len() && writes[order[at]].offset == run_offset + run.len() as u64 {
            run.extend_from_slice(&writes[order[at]].data);
            members.push(order[at]);
            at += 1;
        }
        let coalesced = members.len() as u32;
        // Every traced member of the run gets its own server root; they
        // all span the shared store pass, which is the honest picture of
        // coalescing (one pass serves N requests).
        let mut roots: Vec<trace::SpanGuard> = members
            .iter()
            .filter_map(|&m| {
                let w = &writes[m];
                w.ctx
                    .map(|ctx| traced_write_root(ctx, w.received, w.data.len() as u64))
            })
            .collect();
        let start = Instant::now();
        let resp = write_one(shards, run_offset, &run, coalesced);
        let elapsed = start.elapsed();
        if matches!(resp, Response::Error(_)) {
            for g in &mut roots {
                g.fail();
            }
        }
        // Each coalesced member counts as its own request (with its own
        // byte count) but shares the run's store-pass latency.
        for &m in &members {
            record_request(
                registry,
                "write",
                writes[m].data.len() as u64,
                elapsed,
                &resp,
            );
        }
        // The store-pass counters are attributed to the run's first
        // member only; the rest report zeros (plus their own byte count),
        // so a client summing its chunk summaries gets exact totals
        // instead of the pass counted once per coalesced request.
        for (k, &m) in members.iter().enumerate() {
            let w = &writes[m];
            let resp = match &resp {
                Response::Written(ws) => Response::Written(WriteSummary {
                    bytes: w.data.len() as u64,
                    ..if k == 0 {
                        *ws
                    } else {
                        WriteSummary {
                            coalesced,
                            ..WriteSummary::default()
                        }
                    }
                }),
                other => other.clone(),
            };
            w.writer.send(w.id, &resp);
        }
        // Roots close after the member responses are written.
        drop(roots);
    }
}

fn write_one(shards: &ShardSet, offset: u64, data: &[u8], coalesced: u32) -> Response {
    match shards.write_at(offset, data) {
        Ok(r) => Response::Written(WriteSummary {
            bytes: data.len() as u64,
            blocks_written: r.blocks_written as u64,
            stripes_touched: r.stripes_touched as u64,
            full_stripe_encodes: r.full_stripe_encodes as u64,
            delta_updates: r.delta_updates as u64,
            coalesced,
        }),
        Err(e) => Response::Error(e.to_string()),
    }
}

/// Executes one non-write request. Takes the request by value so batch
/// payloads move straight into the shard set's submit instead of being
/// re-copied per request.
fn execute(
    shards: &ShardSet,
    info: &ServerInfo,
    registry: &MetricsRegistry,
    req: Request,
) -> Response {
    let result = (|| -> Result<Response, NetError> {
        Ok(match req {
            Request::Hello { .. } => Response::Hello(info.clone()),
            Request::Status => Response::Status(shards.status().iter().map(wire_status).collect()),
            // The server's own request metrics plus the aggregated
            // store counters, one frame.
            Request::Metrics => {
                let mut snap = registry.snapshot();
                snap.merge(&shards.metrics());
                Response::Metrics(snap)
            }
            // The flight recorder's completed ring plus any slow/errored
            // traces the main ring has already evicted.
            Request::Trace => {
                let rec = trace::recorder();
                let mut traces: Vec<WireTrace> = rec.traces().iter().map(WireTrace::from).collect();
                let seen: std::collections::HashSet<(u64, u64)> =
                    traces.iter().map(|t| (t.trace_id, t.root_span)).collect();
                traces.extend(
                    rec.slow_traces()
                        .iter()
                        .filter(|t| !seen.contains(&(t.trace_id, t.root_span)))
                        .map(WireTrace::from),
                );
                Response::Traces(traces)
            }
            Request::Read { offset, len } => Response::Data(shards.read_at(offset, len as usize)?),
            Request::Write { .. } | Request::Shutdown => {
                // check: panic-ok the run loop intercepts writes and shutdowns before execute()
                unreachable!("handled before execute()")
            }
            // A BATCH executes as one unit through the shard set's
            // native submit: split by placement, shards in parallel,
            // one stripe lock + one codec decision per touched stripe.
            Request::Batch { ops, .. } => match shards.submit(&IoBatch::from(ops)) {
                Ok(result) => Response::Batched(
                    result
                        .results
                        .into_iter()
                        .map(|r| match r {
                            OpResult::Read(data) => BatchReply::Data(data),
                            OpResult::Write(w) => BatchReply::Written(WriteSummary {
                                bytes: w.bytes,
                                blocks_written: w.blocks_written,
                                stripes_touched: w.stripes_touched,
                                full_stripe_encodes: w.full_stripe_encodes,
                                delta_updates: w.delta_updates,
                                coalesced: 1,
                            }),
                        })
                        .collect(),
                ),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::Flush => {
                shards.flush()?;
                Response::Flushed
            }
            Request::FailDevice { shard, device } => {
                shards.shard(shard as usize)?.fail_device(device as usize)?;
                Response::Failed
            }
            Request::CorruptSectors {
                shard,
                device,
                stripe,
                row,
                len,
            } => {
                shards.shard(shard as usize)?.corrupt_sectors(
                    device as usize,
                    stripe as usize,
                    row as usize,
                    len as usize,
                )?;
                Response::Failed
            }
            Request::Scrub { threads } => {
                let mut total = ScrubSummary::default();
                for r in shards.scrub((threads as usize).max(1))? {
                    total.stripes_scanned += r.stripes_scanned as u64;
                    total.sectors_verified += r.sectors_verified as u64;
                    total.mismatches += r.mismatches.len() as u64;
                    total.unavailable_devices += r.unavailable_devices.len() as u64;
                    total.records_cleared += r.records_cleared as u64;
                }
                Response::Scrubbed(total)
            }
            Request::Repair { threads } => {
                let mut total = RepairSummary::default();
                for r in shards.repair((threads as usize).max(1))? {
                    total.devices_replaced += r.devices_replaced.len() as u64;
                    total.stripes_repaired += r.stripes_repaired as u64;
                    total.sectors_rewritten += r.sectors_rewritten as u64;
                    total.unrecoverable_stripes += r.unrecoverable_stripes.len() as u64;
                }
                Response::Repaired(total)
            }
        })
    })();
    result.unwrap_or_else(|e| Response::Error(e.to_string()))
}
