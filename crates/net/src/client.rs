//! Blocking client for the stair-net protocol.
//!
//! [`Client`] owns one connection and reuses it across calls. All data
//! travels in BATCH frames: [`Client::submit`] ships many ops in one
//! frame — one round trip instead of one per op — and
//! [`Client::read_at`] / [`Client::write_at`] are one-op batches sent
//! the same way. Ops past the per-frame caps are split into
//! [`MAX_IO_BYTES`]-capped frames and **pipelined**: up to a window of
//! frames are in flight before the first response is awaited, and
//! responses are matched back by request ID (the server's worker pool
//! may complete them out of order). Every response payload is
//! checksum-verified by the frame layer before it is trusted, and
//! server-reported failures are normalized by one shared helper
//! ([`ok_or_remote`]) on both the simple and the pipelined path.
//!
//! **Resilience**: a broken connection is not a dead client. Any call
//! that hits a transport error drops the connection and the next call
//! redials transparently; reads, status, flush, scrub, repair and
//! batches additionally retry once after reconnecting, so a server
//! restart or dropped socket between ops is invisible to those callers
//! (a batch is reissued under its batch id, and the server journals
//! absolute post-images, so redelivery is safe). Plain `write_at` and
//! fault injection never auto-retry: the caller decides whether to
//! reissue them.
//!
//! The connection lives behind a [`Mutex`], so every method takes
//! `&self` and a `Client` is `Send + Sync` — usable behind
//! `Arc<Client>` (or `Arc<dyn BlockDevice>`) from many threads, which
//! serialize on the connection.
//!
//! [`ok_or_remote`]: crate::protocol::ok_or_remote

use std::collections::HashMap;
use std::net::TcpStream;
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard};

use stair_code::CodecSpec;
use stair_device::{seed_results, BatchResult, IoBatch, IoOp, OpResult, WriteOutcome};
use stair_obs::trace::{self, names};
use stair_store::StoreStatus;

use crate::protocol::{
    ok_or_remote, read_response, write_request, write_request_traced, BatchReply, RepairSummary,
    Request, Response, ScrubSummary, ServerInfo, WireShardStatus, WireTrace, MAX_BATCH_OPS,
    MAX_IO_BYTES, PROTOCOL_VERSION,
};
use crate::NetError;

/// Frames in flight per connection during pipelined transfers.
const PIPELINE_WINDOW: usize = 8;

/// Stitch-back map: per sub-op, `(global op index, byte offset of the
/// fragment within that op's span)`.
type StitchMap = Vec<(usize, usize)>;

/// The mutable half of a client: the stream plus the request-ID
/// counter, locked together for the duration of a call or transfer.
struct Conn {
    stream: TcpStream,
    next_id: u64,
}

impl Conn {
    /// One request, one response (server errors become
    /// [`NetError::Remote`]).
    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        write_request_traced(&mut self.stream, id, req, trace::current())?;
        let (rid, resp) = read_response(&mut self.stream)?;
        if rid != id {
            return Err(NetError::Protocol(format!(
                "response for request {rid} while awaiting {id}"
            )));
        }
        ok_or_remote(resp)
    }

    /// Sends `count` requests keeping up to [`PIPELINE_WINDOW`] in
    /// flight, matching responses by ID. On the first failure no new
    /// requests are sent, but outstanding responses are still drained so
    /// the connection stays usable.
    fn pipelined(
        &mut self,
        count: usize,
        mut make: impl FnMut(usize) -> Request,
        mut on_response: impl FnMut(usize, Response) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let mut pending: HashMap<u64, usize> = HashMap::new();
        let mut next = 0usize;
        let mut first_err: Option<NetError> = None;
        loop {
            while next < count && pending.len() < PIPELINE_WINDOW && first_err.is_none() {
                let id = self.next_id;
                self.next_id += 1;
                match write_request_traced(&mut self.stream, id, &make(next), trace::current()) {
                    Ok(()) => {
                        pending.insert(id, next);
                        next += 1;
                    }
                    Err(e) => {
                        first_err = Some(e);
                        break;
                    }
                }
            }
            if pending.is_empty() {
                break;
            }
            let (rid, resp) = match read_response(&mut self.stream) {
                Ok(x) => x,
                // The stream is broken; outstanding responses are lost.
                Err(e) => return Err(first_err.unwrap_or(e)),
            };
            let Some(chunk) = pending.remove(&rid) else {
                return Err(NetError::Protocol(format!("unsolicited response {rid}")));
            };
            if let Err(e) = ok_or_remote(resp).and_then(|resp| on_response(chunk, resp)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// A single-connection blocking client (`Send + Sync`; calls from
/// different threads serialize on the connection).
pub struct Client {
    addr: String,
    conn: Mutex<Option<Conn>>,
    info: ServerInfo,
}

impl Client {
    /// Connects and performs the HELLO handshake; the server's
    /// announcement is in [`Client::info`].
    ///
    /// # Errors
    ///
    /// Connection failures, version mismatches ([`NetError::Version`]),
    /// and protocol errors.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let (conn, info) = dial(addr)?;
        Ok(Client {
            addr: addr.to_string(),
            conn: Mutex::new(Some(conn)),
            info,
        })
    }

    /// What the server announced at HELLO time.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Total logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.info.capacity
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.info.block_size as usize
    }

    /// Locks the connection slot. Poisoning means another thread
    /// panicked mid-call; the stream may hold half a conversation, but
    /// the next frame either parses or surfaces a protocol error, so
    /// the guard is taken regardless.
    fn slot(&self) -> MutexGuard<'_, Option<Conn>> {
        self.conn
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` against a live connection, redialing a dropped one
    /// first. A transport failure ([`NetError::Io`]) marks the
    /// connection dead; when `idempotent` is set the call then redials
    /// and retries **once** — re-running an idempotent request cannot
    /// change the outcome, so a socket that died between ops is
    /// invisible to the caller. Non-idempotent requests surface the
    /// error (the dead connection still heals on the next call).
    /// Protocol and checksum failures also retire the connection (the
    /// stream may be desynchronized) but never retry.
    fn with_conn<T>(
        &self,
        idempotent: bool,
        mut f: impl FnMut(&mut Conn) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut slot = self.slot();
        for attempt in 0..2 {
            if slot.is_none() {
                let (conn, info) = dial(&self.addr)?;
                if info.capacity != self.info.capacity || info.block_size != self.info.block_size {
                    return Err(NetError::Protocol(format!(
                        "server at {} changed shape across reconnect ({} bytes / {}-byte blocks, was {} / {})",
                        self.addr, info.capacity, info.block_size,
                        self.info.capacity, self.info.block_size,
                    )));
                }
                *slot = Some(conn);
            }
            // check: panic-ok slot was filled two lines up; None here is a local logic bug
            match f(slot.as_mut().expect("connected above")) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let transport = matches!(e, NetError::Io(_));
                    if transport || matches!(e, NetError::Protocol(_) | NetError::Checksum { .. }) {
                        *slot = None;
                    }
                    if !(transport && idempotent && attempt == 0) {
                        return Err(e);
                    }
                }
            }
        }
        // check: panic-ok the retry loop returns on attempt 1; falling out is a logic bug
        unreachable!("loop returns on the second attempt")
    }

    /// Per-shard health snapshots.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn status(&self) -> Result<Vec<StoreStatus>, NetError> {
        match self.with_conn(true, |conn| conn.call(&Request::Status))? {
            Response::Status(shards) => shards.iter().map(store_status).collect(),
            other => Err(unexpected("STATUS", &other)),
        }
    }

    /// Reads `len` bytes at global byte `offset`: a one-op batch
    /// (split into pipelined frames past [`MAX_IO_BYTES`]). Retries
    /// once over a fresh connection if the socket breaks.
    ///
    /// # Errors
    ///
    /// Transport, checksum, and server failures.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, NetError> {
        let batch = IoBatch::from(vec![IoOp::Read { offset, len }]);
        match self
            .send_batch(&batch, true, names::CLIENT_READ)?
            .results
            .pop()
        {
            Some(OpResult::Read(data)) => Ok(data),
            _ => Err(NetError::Protocol(
                "a one-read batch returned no read".into(),
            )),
        }
    }

    /// Writes `data` at global byte `offset`: a one-op batch (split
    /// into pipelined frames past [`MAX_IO_BYTES`]). Never
    /// auto-retried: after a transport failure the caller cannot know
    /// which frames landed, and reissuing a write is the caller's
    /// decision.
    ///
    /// # Errors
    ///
    /// Transport, checksum, and server failures.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, NetError> {
        let batch = IoBatch::from(vec![IoOp::Write {
            offset,
            data: data.to_vec(),
        }]);
        Ok(self.send_batch(&batch, false, names::CLIENT_WRITE)?.write)
    }

    /// Submits a scatter-gather batch: every op travels in one BATCH
    /// frame (several frames only past the per-request caps), so N
    /// small ops cost one round trip instead of N.
    ///
    /// **Retry semantics.** Every batch retries once over a fresh
    /// connection after a transport error. Each frame carries a
    /// client-chosen batch id that is *reissued unchanged* on the
    /// retry, and re-applying writes is safe because ops are absolute
    /// post-images and the server's stores journal them (a frame that
    /// half-landed before the socket died is completed or repeated,
    /// never torn).
    ///
    /// # Errors
    ///
    /// Transport, checksum, and server failures; a failing op aborts
    /// the whole batch server-side.
    pub fn submit(&self, batch: &IoBatch) -> Result<BatchResult, NetError> {
        self.send_batch(batch, true, names::CLIENT_SUBMIT)
    }

    /// The one data path: packs `batch` into frames, sends them under
    /// a client span named `span`, and stitches the replies back into
    /// per-op results. `idempotent` picks the [`Client::with_conn`]
    /// retry policy.
    fn send_batch(
        &self,
        batch: &IoBatch,
        idempotent: bool,
        span: &'static str,
    ) -> Result<BatchResult, NetError> {
        let mut op = trace::span_or_root(span);
        op.set_bytes(batch.ops().iter().map(IoOp::byte_len).sum::<usize>() as u64);
        let frames = batch_frames(batch.ops());
        let mut results = seed_results(batch.ops());
        if frames.is_empty() {
            return Ok(BatchResult::from_results(results));
        }
        // Conflicting ops must take effect in submission order. Within
        // one frame the server guarantees it (one submit call); across
        // frames the worker pool may execute pipelined requests out of
        // order, so a conflicted multi-frame batch serializes: each
        // frame completes before the next is sent.
        let ordered = frames.len() > 1 && batch.has_conflicts();
        // A frame may be resent over a fresh connection, so its ops are
        // cloned per send; its batch id is minted once, before any
        // send, so a retry reissues it.
        let batch_ids: Vec<u64> = frames.iter().map(|_| next_batch_id()).collect();
        self.with_conn(idempotent, |conn| {
            let mut request = |i: usize| Request::Batch {
                batch_id: batch_ids[i],
                ops: frames[i].ops.clone(),
            };
            if ordered {
                for (i, frame) in frames.iter().enumerate() {
                    let resp = conn.call(&request(i))?;
                    apply_batch_response(frame, resp, &mut results)?;
                }
                Ok(())
            } else {
                conn.pipelined(frames.len(), &mut request, |i, resp| {
                    apply_batch_response(&frames[i], resp, &mut results)
                })
            }
        })
        .inspect_err(|_| op.fail())?;
        Ok(BatchResult::from_results(results))
    }

    /// Persists every shard on the server.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn flush(&self) -> Result<(), NetError> {
        match self.with_conn(true, |conn| conn.call(&Request::Flush))? {
            Response::Flushed => Ok(()),
            other => Err(unexpected("FLUSH", &other)),
        }
    }

    /// Declares `device` of `shard` failed.
    ///
    /// # Errors
    ///
    /// Transport or server failures (bad indices come back as
    /// [`NetError::Remote`]).
    pub fn fail_device(&self, shard: usize, device: usize) -> Result<(), NetError> {
        match self.with_conn(false, |conn| {
            conn.call(&Request::FailDevice {
                shard: shard as u32,
                device: device as u32,
            })
        })? {
            Response::Failed => Ok(()),
            other => Err(unexpected("FAIL", &other)),
        }
    }

    /// Corrupts a sector burst on one shard device (latent damage).
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), NetError> {
        match self.with_conn(false, |conn| {
            conn.call(&Request::CorruptSectors {
                shard: shard as u32,
                device: device as u32,
                stripe: stripe as u32,
                row: row as u32,
                len: len as u32,
            })
        })? {
            Response::Failed => Ok(()),
            other => Err(unexpected("FAIL", &other)),
        }
    }

    /// Scrubs every shard with `threads` workers each.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn scrub(&self, threads: usize) -> Result<ScrubSummary, NetError> {
        match self.with_conn(true, |conn| {
            conn.call(&Request::Scrub {
                threads: threads as u32,
            })
        })? {
            Response::Scrubbed(s) => Ok(s),
            other => Err(unexpected("SCRUB", &other)),
        }
    }

    /// Repairs every shard with `threads` workers each.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn repair(&self, threads: usize) -> Result<RepairSummary, NetError> {
        match self.with_conn(true, |conn| {
            conn.call(&Request::Repair {
                threads: threads as u32,
            })
        })? {
            Response::Repaired(r) => Ok(r),
            other => Err(unexpected("REPAIR", &other)),
        }
    }

    /// Pulls the server's metrics snapshot: per-opcode request counters
    /// and latency histograms, connection gauges, slow-op captures, and
    /// the aggregated `store.*`/`gf.*` counters across shards.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, NetError> {
        match self.with_conn(true, |conn| conn.call(&Request::Metrics))? {
            Response::Metrics(snap) => Ok(snap),
            other => Err(unexpected("METRICS", &other)),
        }
    }

    /// Pulls the server's flight recorder: completed traces plus the
    /// slow/errored captures the main ring has already evicted.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn pull_traces(&self) -> Result<Vec<WireTrace>, NetError> {
        match self.with_conn(true, |conn| conn.call(&Request::Trace))? {
            Response::Traces(traces) => Ok(traces),
            other => Err(unexpected("TRACE", &other)),
        }
    }

    /// Asks the server to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport or server failures.
    pub fn shutdown_server(&self) -> Result<(), NetError> {
        match self.with_conn(false, |conn| conn.call(&Request::Shutdown))? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("SHUTDOWN", &other)),
        }
    }
}

/// Dials `addr` and performs the HELLO handshake. The server must
/// announce exactly [`PROTOCOL_VERSION`].
fn dial(addr: &str) -> Result<(Conn, ServerInfo), NetError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| {
        NetError::Io(std::io::Error::new(
            e.kind(),
            format!("cannot connect to {addr}: {e}"),
        ))
    })?;
    let _ = stream.set_nodelay(true);
    // The handshake is request 1 and travels untraced.
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    write_request(&mut stream, 1, &hello)?;
    match ok_or_remote(read_response(&mut stream)?.1)? {
        Response::Hello(info) if info.version != PROTOCOL_VERSION => Err(NetError::Version {
            ours: PROTOCOL_VERSION,
            theirs: info.version,
        }),
        Response::Hello(info) => Ok((Conn { stream, next_id: 2 }, info)),
        other => Err(unexpected("HELLO", &other)),
    }
}

/// One wire frame's worth of batch ops and the stitch-back map.
#[derive(Default)]
struct Frame {
    ops: Vec<IoOp>,
    map: StitchMap,
}

/// Folds one BATCH response into the result slots its frame maps to.
fn apply_batch_response(
    frame: &Frame,
    resp: Response,
    results: &mut [OpResult],
) -> Result<(), NetError> {
    let Response::Batched(replies) = resp else {
        return Err(unexpected("BATCH", &resp));
    };
    if replies.len() != frame.ops.len() {
        return Err(NetError::Protocol(format!(
            "BATCH returned {} replies for {} ops",
            replies.len(),
            frame.ops.len()
        )));
    }
    for (j, reply) in replies.into_iter().enumerate() {
        let (op_idx, span_off) = frame.map[j];
        let (is_write, len) = (frame.ops[j].is_write(), frame.ops[j].byte_len());
        match (reply, is_write, &mut results[op_idx]) {
            (BatchReply::Data(data), false, OpResult::Read(out)) => {
                if data.len() != len {
                    return Err(NetError::Protocol(format!(
                        "batch read returned {} bytes, wanted {len}",
                        data.len()
                    )));
                }
                out[span_off..span_off + data.len()].copy_from_slice(&data);
            }
            (BatchReply::Written(w), true, OpResult::Write(total)) => total.absorb(&w),
            _ => {
                return Err(NetError::Protocol(
                    "batch reply kind does not match its op".into(),
                ))
            }
        }
    }
    Ok(())
}

/// Packs ops into BATCH frames: fragments capped at [`MAX_IO_BYTES`]
/// per op, frames capped at [`MAX_BATCH_OPS`] ops and a combined
/// [`MAX_IO_BYTES`] byte budget — mirroring what the server's decoder
/// enforces. Small batches (the common case) land in exactly one
/// frame, i.e. one round trip.
fn batch_frames(ops: &[IoOp]) -> Vec<Frame> {
    let cap = MAX_IO_BYTES as usize;
    let mut frames: Vec<Frame> = Vec::new();
    let mut cur = Frame::default();
    let mut budget = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let mut at = 0usize;
        loop {
            let piece = (op.byte_len() - at).min(cap);
            if !cur.ops.is_empty()
                && (budget + piece > cap || cur.ops.len() >= MAX_BATCH_OPS as usize)
            {
                frames.push(std::mem::take(&mut cur));
                budget = 0;
            }
            cur.ops.push(match op {
                IoOp::Read { offset, .. } => IoOp::Read {
                    offset: offset + at as u64,
                    len: piece,
                },
                IoOp::Write { offset, data } => IoOp::Write {
                    offset: offset + at as u64,
                    data: data[at..at + piece].to_vec(),
                },
            });
            cur.map.push((i, at));
            budget += piece;
            at += piece;
            if at >= op.byte_len() {
                break;
            }
        }
    }
    if !cur.ops.is_empty() {
        frames.push(cur);
    }
    frames
}

/// Mints a process-unique nonzero batch id (0 means "unassigned" on
/// the wire, so the counter starts at 1).
fn next_batch_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

fn unexpected(what: &str, got: &Response) -> NetError {
    NetError::Protocol(format!("unexpected response to {what}: {got:?}"))
}

fn store_status(w: &WireShardStatus) -> Result<StoreStatus, NetError> {
    Ok(StoreStatus {
        codec: CodecSpec::from_str(&w.codec)
            .map_err(|e| NetError::Protocol(format!("bad codec spec in status: {e}")))?,
        capacity: w.capacity,
        block_size: w.block_size as usize,
        stripes: w.stripes as usize,
        blocks_per_stripe: w.blocks_per_stripe as usize,
        failed_devices: w.failed_devices.iter().map(|&d| d as usize).collect(),
        rebuilding_devices: w.rebuilding_devices.iter().map(|&d| d as usize).collect(),
        known_bad_sectors: w.known_bad_sectors as usize,
        clean_shutdown: w.clean_shutdown,
        replayed_records: w.replayed_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait-object data path requires clients to be shareable.
    #[test]
    fn clients_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Client>();
    }

    #[test]
    fn small_batches_pack_into_one_frame() {
        // 64 single-block ops: one frame, map in submission order.
        let ops: Vec<IoOp> = (0..64u64)
            .map(|k| IoOp::Write {
                offset: k * 512,
                data: vec![k as u8; 512],
            })
            .collect();
        let frames = batch_frames(&ops);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].ops.len(), 64);
        assert_eq!(frames[0].map[63], (63, 0));
    }

    #[test]
    fn oversize_ops_and_budgets_split_frames() {
        // One op bigger than the per-request cap fragments, and the
        // fragments spill across frames.
        let big = MAX_IO_BYTES as usize + 10;
        let frames = batch_frames(&[IoOp::Read {
            offset: 0,
            len: big,
        }]);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frames[0].ops[0],
            IoOp::Read {
                offset: 0,
                len: MAX_IO_BYTES as usize
            }
        );
        assert_eq!(
            frames[1].ops[0],
            IoOp::Read {
                offset: MAX_IO_BYTES as u64,
                len: 10
            }
        );
        assert_eq!(frames[1].map[0], (0, MAX_IO_BYTES as usize));

        // Two half-cap ops exceed the combined budget → two frames.
        let half = MAX_IO_BYTES as usize / 2 + 1;
        let frames = batch_frames(&[
            IoOp::Read {
                offset: 0,
                len: half,
            },
            IoOp::Read {
                offset: half as u64,
                len: half,
            },
        ]);
        assert_eq!(frames.len(), 2);

        // Zero-length ops still travel (and get a reply slot).
        let frames = batch_frames(&[IoOp::Read { offset: 5, len: 0 }]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].ops[0], IoOp::Read { offset: 5, len: 0 });
    }
}
