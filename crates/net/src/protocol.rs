//! The stair-net wire protocol: versioned, length-prefixed binary frames
//! with request IDs for pipelining and per-response payload checksums.
//!
//! # Framing
//!
//! Every integer is little-endian. A **request** frame is
//!
//! ```text
//! [u32 len] [u64 request_id] [u8 opcode] [payload …]
//! ```
//!
//! where `len` counts everything after itself (so `9 + payload`). The
//! opcode byte's high bit is the **trace flag** ([`TRACE_FLAG`]): when
//! set, the payload begins with a 16-byte span context
//! (`[u64 trace_id] [u64 span_id]`) naming the client span the server's
//! work should nest under, and the real payload follows. A **response**
//! frame is
//!
//! ```text
//! [u32 len] [u64 request_id] [u8 status] [u32 checksum] [payload …]
//! ```
//!
//! with `status = 0` for an error (payload is a UTF-8 message) and
//! `status = opcode` of the request otherwise, and `checksum` the
//! Fletcher-32 of the payload bytes. Request IDs are chosen by the client
//! and echoed verbatim; responses may arrive in any order, which is what
//! makes pipelining across a shared connection possible.
//!
//! The HELLO exchange pins the protocol version: the client sends magic
//! `b"STAIRNET"` plus [`PROTOCOL_VERSION`], and the server answers with
//! its own version and the store shape ([`ServerInfo`]). Each side
//! requires the other to speak exactly [`PROTOCOL_VERSION`] and refuses
//! any other version at HELLO — there is one wire format, v4: twelve
//! opcodes, optional trace context (the opcode high bit, above), BATCH
//! requests that open with a client-chosen `[u64 batch_id]` (so a batch
//! reissued after a redial is identifiable server-side), and STATUS
//! shards that carry `[u8 clean_shutdown] [u64 replayed_records]`.

use std::io::{Read, Write};

use stair_device::IoOp;
use stair_obs::{HistogramSnapshot, MetricsSnapshot, SpanCtx, TraceEvent, BUCKETS};
use stair_store::checksum::fletcher32;

use crate::NetError;

/// Protocol version this build speaks; HELLO refuses every other.
pub const PROTOCOL_VERSION: u32 = 4;
/// High bit of the request opcode byte: set when the payload is
/// prefixed with a `[u64 trace_id][u64 span_id]` span context.
pub const TRACE_FLAG: u8 = 0x80;
/// Magic bytes opening a HELLO payload.
pub const MAGIC: &[u8; 8] = b"STAIRNET";
/// Upper bound on a frame body; anything larger is a protocol error
/// (prevents a corrupt length prefix from allocating gigabytes).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;
/// Largest data payload a single READ/WRITE request may carry; clients
/// split bigger transfers into multiple pipelined requests. A BATCH
/// frame's combined byte budget (write data plus requested read
/// lengths) honours the same cap.
pub const MAX_IO_BYTES: u32 = 4 * 1024 * 1024;
/// Most ops one BATCH frame may carry.
pub const MAX_BATCH_OPS: u32 = 4096;

/// Request opcodes (also used as the success status byte of responses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Version + geometry handshake; must be the first request.
    Hello = 1,
    /// Per-shard health and geometry snapshot.
    Status = 2,
    /// Read a byte span of the global block space.
    Read = 3,
    /// Write a byte span of the global block space.
    Write = 4,
    /// Persist checksum tables, health records, and device data.
    Flush = 5,
    /// Declare a device failed, or corrupt a sector burst, on one shard.
    Fail = 6,
    /// Run a scrub pass over every shard.
    Scrub = 7,
    /// Run an online repair pass over every shard.
    Repair = 8,
    /// Ask the server to stop accepting work and exit its run loop.
    Shutdown = 9,
    /// Submit many read/write ops as one frame.
    Batch = 10,
    /// Pull the server's metrics snapshot.
    Metrics = 11,
    /// Pull the server's flight recorder.
    Trace = 12,
}

impl Opcode {
    /// Every opcode, in discriminant order. Keep in sync with the enum
    /// — stair-check (wire-constants) and the density test below both
    /// fail the build if a variant is missing here.
    pub const ALL: [Opcode; 12] = [
        Opcode::Hello,
        Opcode::Status,
        Opcode::Read,
        Opcode::Write,
        Opcode::Flush,
        Opcode::Fail,
        Opcode::Scrub,
        Opcode::Repair,
        Opcode::Shutdown,
        Opcode::Batch,
        Opcode::Metrics,
        Opcode::Trace,
    ];

    /// The lowercase wire name, used as the metric-name suffix for
    /// per-opcode counters (`srv.req.<name>`) and histograms.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Hello => "hello",
            Opcode::Status => "status",
            Opcode::Read => "read",
            Opcode::Write => "write",
            Opcode::Flush => "flush",
            Opcode::Fail => "fail",
            Opcode::Scrub => "scrub",
            Opcode::Repair => "repair",
            Opcode::Shutdown => "shutdown",
            Opcode::Batch => "batch",
            Opcode::Metrics => "metrics",
            Opcode::Trace => "trace",
        }
    }

    fn from_u8(b: u8) -> Result<Self, NetError> {
        Ok(match b {
            1 => Opcode::Hello,
            2 => Opcode::Status,
            3 => Opcode::Read,
            4 => Opcode::Write,
            5 => Opcode::Flush,
            6 => Opcode::Fail,
            7 => Opcode::Scrub,
            8 => Opcode::Repair,
            9 => Opcode::Shutdown,
            10 => Opcode::Batch,
            11 => Opcode::Metrics,
            12 => Opcode::Trace,
            other => return Err(NetError::Protocol(format!("unknown opcode {other}"))),
        })
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Handshake carrying the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Health snapshot of every shard.
    Status,
    /// Read `len` bytes at global byte `offset`.
    Read {
        /// Global byte offset.
        offset: u64,
        /// Bytes to read (≤ [`MAX_IO_BYTES`]).
        len: u32,
    },
    /// Write `data` at global byte `offset`.
    Write {
        /// Global byte offset.
        offset: u64,
        /// Bytes to store (≤ [`MAX_IO_BYTES`]).
        data: Vec<u8>,
    },
    /// Persist everything to disk.
    Flush,
    /// Remove a device's backing file on one shard.
    FailDevice {
        /// Shard index.
        shard: u32,
        /// Device index within the shard.
        device: u32,
    },
    /// Flip bits in `len` consecutive sectors of one shard device
    /// (latent damage: detected only by a later read or scrub).
    CorruptSectors {
        /// Shard index.
        shard: u32,
        /// Device index within the shard.
        device: u32,
        /// Stripe index within the shard.
        stripe: u32,
        /// First row of the burst.
        row: u32,
        /// Rows in the burst.
        len: u32,
    },
    /// Scrub every shard with `threads` workers each.
    Scrub {
        /// Worker threads per shard.
        threads: u32,
    },
    /// Repair every shard with `threads` workers each.
    Repair {
        /// Worker threads per shard.
        threads: u32,
    },
    /// Stop the server.
    Shutdown,
    /// Execute `ops` as one scatter-gather batch; the response carries
    /// one reply per op, in submission order.
    Batch {
        /// Client-chosen batch id (0 = unassigned). A client that redials
        /// mid-batch reissues the frame under the *same* id, so the
        /// server can count duplicate deliveries; re-applying the
        /// writes is safe regardless, because the store journals
        /// absolute post-images.
        batch_id: u64,
        /// The ops, in submission order, offsets in the global block
        /// space. Per-op spans and the combined byte budget are capped
        /// at [`MAX_IO_BYTES`], the count at [`MAX_BATCH_OPS`].
        ops: Vec<IoOp>,
    },
    /// Pull the server's metrics snapshot (request/connection counters,
    /// latency histograms, slow-op captures, plus the store's own
    /// counters aggregated across shards).
    Metrics,
    /// Pull the server's flight recorder: recently completed traces
    /// plus the slow/errored ones retained past the main ring's wrap.
    Trace,
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Hello { .. } => Opcode::Hello,
            Request::Status => Opcode::Status,
            Request::Read { .. } => Opcode::Read,
            Request::Write { .. } => Opcode::Write,
            Request::Flush => Opcode::Flush,
            Request::FailDevice { .. } | Request::CorruptSectors { .. } => Opcode::Fail,
            Request::Scrub { .. } => Opcode::Scrub,
            Request::Repair { .. } => Opcode::Repair,
            Request::Shutdown => Opcode::Shutdown,
            Request::Batch { .. } => Opcode::Batch,
            Request::Metrics => Opcode::Metrics,
            Request::Trace => Opcode::Trace,
        }
    }
}

/// One span of a pulled trace on the wire (the trace id lives on the
/// enclosing [`WireTrace`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSpan {
    /// Span id (nonzero).
    pub span_id: u64,
    /// Parent span id; 0 for a freshly minted root. A server-side
    /// process root carries the *client's* span id here, which is how
    /// the two halves of a cross-process tree stitch together.
    pub parent_id: u64,
    /// Declared span name (`client.submit`, `srv.queue`, …).
    pub name: String,
    /// Start in microseconds since the *recording process'* epoch —
    /// only comparable to other spans from the same process.
    pub start_us: u64,
    /// Duration in microseconds (epoch-free, comparable everywhere).
    pub duration_us: u64,
    /// Whether the spanned work succeeded.
    pub ok: bool,
    /// Bytes moved by the spanned work.
    pub bytes: u64,
}

/// One completed trace pulled from a flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireTrace {
    /// Trace id shared by every span of the request, on both sides of
    /// the wire.
    pub trace_id: u64,
    /// Span id of the recording process' root.
    pub root_span: u64,
    /// End-to-end duration of the root in microseconds.
    pub duration_us: u64,
    /// Whether the root succeeded.
    pub ok: bool,
    /// `true` when the recorder retained this trace in its
    /// slow/errored ring.
    pub slow: bool,
    /// The spans, in completion order (root last).
    pub spans: Vec<WireSpan>,
}

impl From<&stair_obs::TraceRecord> for WireTrace {
    fn from(t: &stair_obs::TraceRecord) -> Self {
        WireTrace {
            trace_id: t.trace_id,
            root_span: t.root_span,
            duration_us: t.duration_us,
            ok: t.ok,
            slow: t.slow,
            spans: t
                .spans
                .iter()
                .map(|s| WireSpan {
                    span_id: s.span_id,
                    parent_id: s.parent_id,
                    name: s.name.to_string(),
                    start_us: s.start_us,
                    duration_us: s.duration_us,
                    ok: s.ok,
                    bytes: s.bytes,
                })
                .collect(),
        }
    }
}

/// What the server tells a client at HELLO time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// The server's protocol version.
    pub version: u32,
    /// Number of shards behind the placement map.
    pub shards: u32,
    /// Total logical capacity in bytes across all shards.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: u32,
    /// Blocks per placement range (= blocks per stripe; the placement
    /// unit that maps ranges round-robin onto shards).
    pub range_blocks: u32,
    /// The codec spec string every shard runs.
    pub codec: String,
}

impl ServerInfo {
    /// Reconstructs the server's placement map from the HELLO geometry
    /// — what lets a client group a batch by shard without a second
    /// round trip.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when the announced geometry is degenerate
    /// (zero shards/blocks, or a capacity that does not tile into
    /// whole ranges).
    pub fn placement(&self) -> Result<crate::Placement, NetError> {
        let range_bytes = u64::from(self.range_blocks) * u64::from(self.block_size);
        if self.shards == 0 || range_bytes == 0 {
            return Err(NetError::Protocol(format!(
                "degenerate server geometry: {} shard(s) of {}-byte ranges",
                self.shards, range_bytes
            )));
        }
        let ranges_per_shard = self.capacity / range_bytes / u64::from(self.shards);
        if ranges_per_shard == 0
            || ranges_per_shard * range_bytes * u64::from(self.shards) != self.capacity
        {
            return Err(NetError::Protocol(format!(
                "server capacity {} does not tile into {} shard(s) of {}-byte ranges",
                self.capacity, self.shards, range_bytes
            )));
        }
        Ok(crate::Placement::new(
            self.shards as usize,
            self.range_blocks as usize,
            ranges_per_shard as usize,
            self.block_size as usize,
        ))
    }
}

/// One shard's health snapshot on the wire (mirrors
/// [`stair_store::StoreStatus`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireShardStatus {
    /// Codec spec string.
    pub codec: String,
    /// Logical capacity of the shard in bytes.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: u32,
    /// Stripes in the shard.
    pub stripes: u32,
    /// Data blocks per stripe.
    pub blocks_per_stripe: u32,
    /// Devices currently failed.
    pub failed_devices: Vec<u32>,
    /// Devices currently rebuilding.
    pub rebuilding_devices: Vec<u32>,
    /// Known-damaged sectors awaiting repair.
    pub known_bad_sectors: u32,
    /// Whether the shard's previous close checkpointed its journal.
    pub clean_shutdown: bool,
    /// Journal records replayed when the shard opened.
    pub replayed_records: u64,
}

/// Summary of a server-side write (mirrors [`stair_store::WriteReport`],
/// plus how many queued requests were coalesced into the same store
/// pass). When several requests share one pass, the pass counters
/// (`blocks_written` … `delta_updates`) are attributed to exactly one of
/// them and the rest carry zeros, so summing the summaries of a chunked
/// transfer yields exact totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Bytes this request stored.
    pub bytes: u64,
    /// Logical blocks written (attributed once per coalesced pass).
    pub blocks_written: u64,
    /// Stripes touched (attributed once per coalesced pass).
    pub stripes_touched: u64,
    /// Full-stripe re-encodes (attributed once per coalesced pass).
    pub full_stripe_encodes: u64,
    /// Parity-delta updates (attributed once per coalesced pass).
    pub delta_updates: u64,
    /// Requests sharing the coalesced pass (1 = this one alone).
    pub coalesced: u32,
}

/// Aggregate scrub outcome across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubSummary {
    /// Stripes walked.
    pub stripes_scanned: u64,
    /// Sectors read and checksummed.
    pub sectors_verified: u64,
    /// Checksum mismatches found.
    pub mismatches: u64,
    /// Failed or rebuilding devices skipped (across shards).
    pub unavailable_devices: u64,
    /// Stale bad-sector records cleared.
    pub records_cleared: u64,
}

impl WriteSummary {
    /// Folds another chunk's summary into this one. `coalesced` takes
    /// the max (it counts requests sharing one store pass, not an
    /// additive total); everything else sums, so aggregating a chunked
    /// transfer yields exact totals.
    pub fn absorb(&mut self, w: &WriteSummary) {
        self.bytes += w.bytes;
        self.blocks_written += w.blocks_written;
        self.stripes_touched += w.stripes_touched;
        self.full_stripe_encodes += w.full_stripe_encodes;
        self.delta_updates += w.delta_updates;
        self.coalesced = self.coalesced.max(w.coalesced);
    }
}

impl ScrubSummary {
    /// `true` when every shard verified clean.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.unavailable_devices == 0
    }
}

/// Aggregate repair outcome across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairSummary {
    /// Devices replaced and rebuilt (across shards).
    pub devices_replaced: u64,
    /// Stripes repaired.
    pub stripes_repaired: u64,
    /// Sectors rewritten.
    pub sectors_rewritten: u64,
    /// Stripes whose damage exceeded coverage.
    pub unrecoverable_stripes: u64,
}

impl RepairSummary {
    /// `true` when nothing was beyond coverage.
    pub fn complete(&self) -> bool {
        self.unrecoverable_stripes == 0
    }
}

/// One op's reply inside a [`Response::Batched`], same-index as the
/// request's op list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchReply {
    /// The bytes a read op returned.
    Data(Vec<u8>),
    /// What a write op did.
    Written(WriteSummary),
}

/// A parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// HELLO answer.
    Hello(ServerInfo),
    /// STATUS answer: one entry per shard, in shard order.
    Status(Vec<WireShardStatus>),
    /// READ answer: the requested bytes.
    Data(Vec<u8>),
    /// WRITE answer.
    Written(WriteSummary),
    /// FLUSH answer.
    Flushed,
    /// FAIL answer.
    Failed,
    /// SCRUB answer.
    Scrubbed(ScrubSummary),
    /// REPAIR answer.
    Repaired(RepairSummary),
    /// BATCH answer: one reply per op, in submission order.
    Batched(Vec<BatchReply>),
    /// METRICS answer: the server's snapshot at the time of the request.
    Metrics(MetricsSnapshot),
    /// TRACE answer: completed traces (recent ring, then slow-ring
    /// entries the recent ring has already dropped).
    Traces(Vec<WireTrace>),
    /// SHUTDOWN answer (sent before the server exits).
    ShuttingDown,
    /// The request could not be executed.
    Error(String),
}

// ---------------------------------------------------------------------
// Byte-level encoding
// ---------------------------------------------------------------------

/// Append-only little-endian writer.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// Length-prefixed string.
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
    fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
}

/// Bounds-checked little-endian reader.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| NetError::Protocol("truncated frame".into()))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn str(&mut self) -> Result<String, NetError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Protocol("string field is not UTF-8".into()))
    }
    fn u32s(&mut self) -> Result<Vec<u32>, NetError> {
        let len = self.u32()? as usize;
        // Cap pre-allocation at what the remaining bytes could hold.
        if len > self.buf.len().saturating_sub(self.at) / 4 {
            return Err(NetError::Protocol("list length exceeds frame".into()));
        }
        (0..len).map(|_| self.u32()).collect()
    }
    fn finish(self) -> Result<(), NetError> {
        if self.at != self.buf.len() {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

fn encode_request_payload(req: &Request) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match req {
        Request::Hello { version } => {
            e.bytes(MAGIC);
            e.u32(*version);
        }
        Request::Status
        | Request::Flush
        | Request::Shutdown
        | Request::Metrics
        | Request::Trace => {}
        Request::Read { offset, len } => {
            e.u64(*offset);
            e.u32(*len);
        }
        Request::Write { offset, data } => {
            e.u64(*offset);
            e.u32(data.len() as u32);
            e.bytes(data);
        }
        Request::FailDevice { shard, device } => {
            e.u8(0);
            e.u32(*shard);
            e.u32(*device);
        }
        Request::CorruptSectors {
            shard,
            device,
            stripe,
            row,
            len,
        } => {
            e.u8(1);
            e.u32(*shard);
            e.u32(*device);
            e.u32(*stripe);
            e.u32(*row);
            e.u32(*len);
        }
        Request::Scrub { threads } | Request::Repair { threads } => e.u32(*threads),
        Request::Batch { batch_id, ops } => {
            e.u64(*batch_id);
            e.u32(ops.len() as u32);
            for op in ops {
                match op {
                    IoOp::Read { offset, len } => {
                        e.u8(0);
                        e.u64(*offset);
                        e.u32(*len as u32);
                    }
                    IoOp::Write { offset, data } => {
                        e.u8(1);
                        e.u64(*offset);
                        e.u32(data.len() as u32);
                        e.bytes(data);
                    }
                }
            }
        }
    }
    e.0
}

fn decode_request_payload(op: Opcode, payload: &[u8]) -> Result<Request, NetError> {
    let mut d = Dec::new(payload);
    let req = match op {
        Opcode::Hello => {
            let magic = d.take(MAGIC.len())?;
            if magic != MAGIC {
                return Err(NetError::Protocol("bad HELLO magic".into()));
            }
            Request::Hello { version: d.u32()? }
        }
        Opcode::Status => Request::Status,
        Opcode::Read => {
            let offset = d.u64()?;
            let len = d.u32()?;
            if len > MAX_IO_BYTES {
                return Err(NetError::Protocol(format!(
                    "READ of {len} bytes exceeds the {MAX_IO_BYTES}-byte request cap"
                )));
            }
            Request::Read { offset, len }
        }
        Opcode::Write => {
            let offset = d.u64()?;
            let len = d.u32()? as usize;
            let data = d.take(len)?.to_vec();
            if data.len() as u32 > MAX_IO_BYTES {
                return Err(NetError::Protocol(format!(
                    "WRITE of {len} bytes exceeds the {MAX_IO_BYTES}-byte request cap"
                )));
            }
            Request::Write { offset, data }
        }
        Opcode::Flush => Request::Flush,
        Opcode::Fail => match d.u8()? {
            0 => Request::FailDevice {
                shard: d.u32()?,
                device: d.u32()?,
            },
            1 => Request::CorruptSectors {
                shard: d.u32()?,
                device: d.u32()?,
                stripe: d.u32()?,
                row: d.u32()?,
                len: d.u32()?,
            },
            k => return Err(NetError::Protocol(format!("unknown FAIL kind {k}"))),
        },
        Opcode::Scrub => Request::Scrub { threads: d.u32()? },
        Opcode::Repair => Request::Repair { threads: d.u32()? },
        Opcode::Shutdown => Request::Shutdown,
        Opcode::Batch => {
            let batch_id = d.u64()?;
            let count = d.u32()?;
            if count > MAX_BATCH_OPS {
                return Err(NetError::Protocol(format!(
                    "BATCH of {count} ops exceeds the {MAX_BATCH_OPS}-op cap"
                )));
            }
            // The combined byte budget (write payloads plus requested
            // read lengths) shares the single-request cap, so a batch
            // frame can never demand more memory than a READ/WRITE.
            let mut budget = 0u64;
            let mut ops = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let kind = d.u8()?;
                let offset = d.u64()?;
                let len = d.u32()?;
                if len > MAX_IO_BYTES {
                    return Err(NetError::Protocol(format!(
                        "batch op of {len} bytes exceeds the {MAX_IO_BYTES}-byte request cap"
                    )));
                }
                budget += u64::from(len);
                if budget > u64::from(MAX_IO_BYTES) {
                    return Err(NetError::Protocol(format!(
                        "batch byte budget {budget} exceeds the {MAX_IO_BYTES}-byte request cap"
                    )));
                }
                ops.push(match kind {
                    0 => IoOp::Read {
                        offset,
                        len: len as usize,
                    },
                    1 => IoOp::Write {
                        offset,
                        data: d.take(len as usize)?.to_vec(),
                    },
                    k => return Err(NetError::Protocol(format!("unknown batch op kind {k}"))),
                });
            }
            Request::Batch { batch_id, ops }
        }
        Opcode::Metrics => Request::Metrics,
        Opcode::Trace => Request::Trace,
    };
    d.finish()?;
    Ok(req)
}

/// Most slow-op records one METRICS response may carry (the server-side
/// journal retains far fewer; this bounds hostile frames).
const MAX_SLOW_OPS: u32 = 1024;
/// Most named metrics of one kind a METRICS response may carry.
const MAX_METRICS: u32 = 65_536;
/// Most traces one TRACE response may carry (the recorder rings retain
/// far fewer; this bounds hostile frames).
const MAX_TRACES: u32 = 1024;
/// Most spans one pulled trace may carry.
const MAX_TRACE_SPANS: u32 = 4096;

fn encode_metrics(e: &mut Enc, snap: &MetricsSnapshot) {
    e.u32(snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        e.str(name);
        e.u64(*v);
    }
    e.u32(snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        e.str(name);
        e.u64(*v as u64);
    }
    e.u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        e.str(name);
        e.u32(h.buckets.len() as u32);
        for &b in &h.buckets {
            e.u64(b);
        }
        e.u64(h.sum);
        e.u64(h.max);
    }
    e.u32(snap.slow_ops.len() as u32);
    for ev in &snap.slow_ops {
        e.u64(ev.t_us);
        e.str(&ev.kind);
        e.u32(ev.shard);
        e.u64(ev.bytes);
        e.u64(ev.duration_us);
        e.u8(ev.ok as u8);
    }
}

fn decode_metrics(d: &mut Dec<'_>) -> Result<MetricsSnapshot, NetError> {
    let mut snap = MetricsSnapshot::default();
    let counters = d.u32()?;
    if counters > MAX_METRICS {
        return Err(NetError::Protocol("metrics counter list too long".into()));
    }
    for _ in 0..counters {
        let name = d.str()?;
        snap.counters.push((name, d.u64()?));
    }
    let gauges = d.u32()?;
    if gauges > MAX_METRICS {
        return Err(NetError::Protocol("metrics gauge list too long".into()));
    }
    for _ in 0..gauges {
        let name = d.str()?;
        snap.gauges.push((name, d.u64()? as i64));
    }
    let hists = d.u32()?;
    if hists > MAX_METRICS {
        return Err(NetError::Protocol("metrics histogram list too long".into()));
    }
    for _ in 0..hists {
        let name = d.str()?;
        let buckets = d.u32()? as usize;
        if buckets > BUCKETS {
            return Err(NetError::Protocol(format!(
                "histogram with {buckets} buckets exceeds the {BUCKETS}-bucket cap"
            )));
        }
        let mut h = HistogramSnapshot::default();
        for _ in 0..buckets {
            h.buckets.push(d.u64()?);
        }
        h.sum = d.u64()?;
        h.max = d.u64()?;
        snap.histograms.push((name, h));
    }
    let slow = d.u32()?;
    if slow > MAX_SLOW_OPS {
        return Err(NetError::Protocol("metrics slow-op list too long".into()));
    }
    for _ in 0..slow {
        let t_us = d.u64()?;
        let kind = d.str()?;
        let shard = d.u32()?;
        let bytes = d.u64()?;
        let duration_us = d.u64()?;
        let ok = match d.u8()? {
            0 => false,
            1 => true,
            k => return Err(NetError::Protocol(format!("bad slow-op ok byte {k}"))),
        };
        snap.slow_ops.push(TraceEvent {
            t_us,
            kind,
            shard,
            bytes,
            duration_us,
            ok,
        });
    }
    Ok(snap)
}

fn encode_traces(e: &mut Enc, traces: &[WireTrace]) {
    e.u32(traces.len() as u32);
    for t in traces {
        e.u64(t.trace_id);
        e.u64(t.root_span);
        e.u64(t.duration_us);
        e.u8(t.ok as u8);
        e.u8(t.slow as u8);
        e.u32(t.spans.len() as u32);
        for s in &t.spans {
            e.u64(s.span_id);
            e.u64(s.parent_id);
            e.str(&s.name);
            e.u64(s.start_us);
            e.u64(s.duration_us);
            e.u8(s.ok as u8);
            e.u64(s.bytes);
        }
    }
}

fn decode_bool(d: &mut Dec<'_>, what: &str) -> Result<bool, NetError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        k => Err(NetError::Protocol(format!("bad {what} bool byte {k}"))),
    }
}

fn decode_traces(d: &mut Dec<'_>) -> Result<Vec<WireTrace>, NetError> {
    let count = d.u32()?;
    if count > MAX_TRACES {
        return Err(NetError::Protocol("trace list too long".into()));
    }
    let mut traces = Vec::with_capacity(count.min(256) as usize);
    for _ in 0..count {
        let trace_id = d.u64()?;
        let root_span = d.u64()?;
        let duration_us = d.u64()?;
        let ok = decode_bool(d, "trace ok")?;
        let slow = decode_bool(d, "trace slow")?;
        let nspans = d.u32()?;
        if nspans > MAX_TRACE_SPANS {
            return Err(NetError::Protocol("trace span list too long".into()));
        }
        let mut spans = Vec::with_capacity(nspans.min(256) as usize);
        for _ in 0..nspans {
            spans.push(WireSpan {
                span_id: d.u64()?,
                parent_id: d.u64()?,
                name: d.str()?,
                start_us: d.u64()?,
                duration_us: d.u64()?,
                ok: decode_bool(d, "span ok")?,
                bytes: d.u64()?,
            });
        }
        traces.push(WireTrace {
            trace_id,
            root_span,
            duration_us,
            ok,
            slow,
            spans,
        });
    }
    Ok(traces)
}

fn encode_response_payload(resp: &Response) -> (u8, Vec<u8>) {
    let mut e = Enc(Vec::new());
    let status = match resp {
        Response::Error(msg) => {
            e.bytes(msg.as_bytes());
            0
        }
        Response::Hello(info) => {
            e.u32(info.version);
            e.u32(info.shards);
            e.u64(info.capacity);
            e.u32(info.block_size);
            e.u32(info.range_blocks);
            e.str(&info.codec);
            Opcode::Hello as u8
        }
        Response::Status(shards) => {
            e.u32(shards.len() as u32);
            for s in shards {
                e.str(&s.codec);
                e.u64(s.capacity);
                e.u32(s.block_size);
                e.u32(s.stripes);
                e.u32(s.blocks_per_stripe);
                e.u32s(&s.failed_devices);
                e.u32s(&s.rebuilding_devices);
                e.u32(s.known_bad_sectors);
                e.u8(s.clean_shutdown as u8);
                e.u64(s.replayed_records);
            }
            Opcode::Status as u8
        }
        Response::Data(data) => {
            e.bytes(data);
            Opcode::Read as u8
        }
        Response::Written(w) => {
            e.u64(w.bytes);
            e.u64(w.blocks_written);
            e.u64(w.stripes_touched);
            e.u64(w.full_stripe_encodes);
            e.u64(w.delta_updates);
            e.u32(w.coalesced);
            Opcode::Write as u8
        }
        Response::Flushed => Opcode::Flush as u8,
        Response::Failed => Opcode::Fail as u8,
        Response::Batched(replies) => {
            e.u32(replies.len() as u32);
            for reply in replies {
                match reply {
                    BatchReply::Data(data) => {
                        e.u8(0);
                        e.u32(data.len() as u32);
                        e.bytes(data);
                    }
                    BatchReply::Written(w) => {
                        e.u8(1);
                        e.u64(w.bytes);
                        e.u64(w.blocks_written);
                        e.u64(w.stripes_touched);
                        e.u64(w.full_stripe_encodes);
                        e.u64(w.delta_updates);
                        e.u32(w.coalesced);
                    }
                }
            }
            Opcode::Batch as u8
        }
        Response::Metrics(snap) => {
            encode_metrics(&mut e, snap);
            Opcode::Metrics as u8
        }
        Response::Traces(traces) => {
            encode_traces(&mut e, traces);
            Opcode::Trace as u8
        }
        Response::Scrubbed(s) => {
            e.u64(s.stripes_scanned);
            e.u64(s.sectors_verified);
            e.u64(s.mismatches);
            e.u64(s.unavailable_devices);
            e.u64(s.records_cleared);
            Opcode::Scrub as u8
        }
        Response::Repaired(r) => {
            e.u64(r.devices_replaced);
            e.u64(r.stripes_repaired);
            e.u64(r.sectors_rewritten);
            e.u64(r.unrecoverable_stripes);
            Opcode::Repair as u8
        }
        Response::ShuttingDown => Opcode::Shutdown as u8,
    };
    (status, e.0)
}

fn decode_response_payload(status: u8, payload: &[u8]) -> Result<Response, NetError> {
    if status == 0 {
        return Ok(Response::Error(
            String::from_utf8_lossy(payload).into_owned(),
        ));
    }
    let mut d = Dec::new(payload);
    let resp = match Opcode::from_u8(status)? {
        Opcode::Hello => Response::Hello(ServerInfo {
            version: d.u32()?,
            shards: d.u32()?,
            capacity: d.u64()?,
            block_size: d.u32()?,
            range_blocks: d.u32()?,
            codec: d.str()?,
        }),
        Opcode::Status => {
            let count = d.u32()? as usize;
            let mut shards = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                shards.push(WireShardStatus {
                    codec: d.str()?,
                    capacity: d.u64()?,
                    block_size: d.u32()?,
                    stripes: d.u32()?,
                    blocks_per_stripe: d.u32()?,
                    failed_devices: d.u32s()?,
                    rebuilding_devices: d.u32s()?,
                    known_bad_sectors: d.u32()?,
                    clean_shutdown: decode_bool(&mut d, "clean_shutdown")?,
                    replayed_records: d.u64()?,
                });
            }
            Response::Status(shards)
        }
        Opcode::Read => {
            let rest = d.buf.len() - d.at;
            Response::Data(d.take(rest)?.to_vec())
        }
        Opcode::Write => Response::Written(WriteSummary {
            bytes: d.u64()?,
            blocks_written: d.u64()?,
            stripes_touched: d.u64()?,
            full_stripe_encodes: d.u64()?,
            delta_updates: d.u64()?,
            coalesced: d.u32()?,
        }),
        Opcode::Flush => Response::Flushed,
        Opcode::Fail => Response::Failed,
        Opcode::Batch => {
            let count = d.u32()?;
            if count > MAX_BATCH_OPS {
                return Err(NetError::Protocol(format!(
                    "BATCH response of {count} replies exceeds the {MAX_BATCH_OPS}-op cap"
                )));
            }
            let mut replies = Vec::with_capacity(count as usize);
            for _ in 0..count {
                replies.push(match d.u8()? {
                    0 => {
                        let len = d.u32()? as usize;
                        BatchReply::Data(d.take(len)?.to_vec())
                    }
                    1 => BatchReply::Written(WriteSummary {
                        bytes: d.u64()?,
                        blocks_written: d.u64()?,
                        stripes_touched: d.u64()?,
                        full_stripe_encodes: d.u64()?,
                        delta_updates: d.u64()?,
                        coalesced: d.u32()?,
                    }),
                    k => return Err(NetError::Protocol(format!("unknown batch reply kind {k}"))),
                });
            }
            Response::Batched(replies)
        }
        Opcode::Metrics => Response::Metrics(decode_metrics(&mut d)?),
        Opcode::Trace => Response::Traces(decode_traces(&mut d)?),
        Opcode::Scrub => Response::Scrubbed(ScrubSummary {
            stripes_scanned: d.u64()?,
            sectors_verified: d.u64()?,
            mismatches: d.u64()?,
            unavailable_devices: d.u64()?,
            records_cleared: d.u64()?,
        }),
        Opcode::Repair => Response::Repaired(RepairSummary {
            devices_replaced: d.u64()?,
            stripes_repaired: d.u64()?,
            sectors_rewritten: d.u64()?,
            unrecoverable_stripes: d.u64()?,
        }),
        Opcode::Shutdown => Response::ShuttingDown,
    };
    d.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

fn read_frame(stream: &mut impl Read) -> Result<Vec<u8>, NetError> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(NetError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one request frame with no trace context.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_request(stream: &mut impl Write, id: u64, req: &Request) -> Result<(), NetError> {
    write_request_traced(stream, id, req, None)
}

/// Writes one request frame, optionally carrying span context (sets
/// [`TRACE_FLAG`] on the opcode byte and prefixes the payload with
/// `[u64 trace_id][u64 span_id]`).
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_request_traced(
    stream: &mut impl Write,
    id: u64,
    req: &Request,
    ctx: Option<SpanCtx>,
) -> Result<(), NetError> {
    // No-op unless the caller is inside a recorded span (only clients
    // write requests, so this is the client-side serialization cost).
    let payload = {
        let _enc = stair_obs::trace::span(stair_obs::trace::names::CLIENT_ENCODE);
        encode_request_payload(req)
    };
    let prefix = if ctx.is_some() { 16 } else { 0 };
    let mut frame = Vec::with_capacity(4 + 9 + prefix + payload.len());
    frame.extend_from_slice(&(9 + (prefix + payload.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&id.to_le_bytes());
    match ctx {
        Some(ctx) => {
            frame.push(req.opcode() as u8 | TRACE_FLAG);
            frame.extend_from_slice(&ctx.trace_id.to_le_bytes());
            frame.extend_from_slice(&ctx.span_id.to_le_bytes());
        }
        None => frame.push(req.opcode() as u8),
    }
    frame.extend_from_slice(&payload);
    stream.write_all(&frame)?;
    Ok(())
}

/// Reads one request frame, returning `(request_id, request)` and
/// discarding any trace context — for callers that do not trace.
///
/// # Errors
///
/// Socket errors, truncated frames, unknown opcodes, or oversized
/// requests are all rejected.
pub fn read_request(stream: &mut impl Read) -> Result<(u64, Request), NetError> {
    let (id, req, _) = read_request_traced(stream)?;
    Ok((id, req))
}

/// Reads one request frame, returning `(request_id, request, span
/// context)` — the context is `Some` exactly when the sender set
/// [`TRACE_FLAG`].
///
/// # Errors
///
/// Socket errors, truncated frames, unknown opcodes, or oversized
/// requests are all rejected.
pub fn read_request_traced(
    stream: &mut impl Read,
) -> Result<(u64, Request, Option<SpanCtx>), NetError> {
    let body = read_frame(stream)?;
    let mut d = Dec::new(&body);
    let id = d.u64()?;
    let op_byte = d.u8()?;
    let op = Opcode::from_u8(op_byte & !TRACE_FLAG)?;
    let ctx = if op_byte & TRACE_FLAG != 0 {
        Some(SpanCtx {
            trace_id: d.u64()?,
            span_id: d.u64()?,
        })
    } else {
        None
    };
    let payload = &body[d.at..];
    Ok((id, decode_request_payload(op, payload)?, ctx))
}

/// Writes one response frame (status byte + Fletcher-32 of the
/// payload).
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response(stream: &mut impl Write, id: u64, resp: &Response) -> Result<(), NetError> {
    let (status, payload) = encode_response_payload(resp);
    let sum = fletcher32(&payload);
    let mut frame = Vec::with_capacity(4 + 13 + payload.len());
    frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&id.to_le_bytes());
    frame.push(status);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame)?;
    Ok(())
}

/// Normalizes a checksum-verified response: a [`Response::Error`]
/// becomes [`NetError::Remote`], anything else passes through. The one
/// post-verification step shared by the client's simple (`call`) and
/// pipelined paths, so server-reported failures cannot be interpreted
/// differently on the two.
///
/// # Errors
///
/// [`NetError::Remote`] carrying the server's message.
pub fn ok_or_remote(resp: Response) -> Result<Response, NetError> {
    match resp {
        Response::Error(msg) => Err(NetError::Remote(msg)),
        resp => Ok(resp),
    }
}

/// Reads one response frame, verifying the payload checksum. Returns
/// `(request_id, response)`.
///
/// # Errors
///
/// Socket errors, malformed frames, and checksum mismatches.
pub fn read_response(stream: &mut impl Read) -> Result<(u64, Response), NetError> {
    let body = read_frame(stream)?;
    let mut d = Dec::new(&body);
    let id = d.u64()?;
    let status = d.u8()?;
    let expected = d.u32()?;
    let payload = &body[d.at..];
    let actual = fletcher32(payload);
    if actual != expected {
        return Err(NetError::Checksum { expected, actual });
    }
    // Covers parsing only, not the socket wait above — a trace must not
    // double-count the server's time under a client-side span.
    let _dec = stair_obs::trace::span(stair_obs::trace::names::CLIENT_DECODE);
    Ok((id, decode_response_payload(status, payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, &req).unwrap();
        let (id, back) = read_request(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, req);
    }

    fn round_trip_response(resp: Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, 99, &resp).unwrap();
        let (id, back) = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 99);
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip_request(Request::Status);
        round_trip_request(Request::Read {
            offset: 123456789,
            len: 4096,
        });
        round_trip_request(Request::Write {
            offset: 42,
            data: (0..=255).collect(),
        });
        round_trip_request(Request::Flush);
        round_trip_request(Request::FailDevice {
            shard: 3,
            device: 1,
        });
        round_trip_request(Request::CorruptSectors {
            shard: 0,
            device: 7,
            stripe: 5,
            row: 2,
            len: 3,
        });
        round_trip_request(Request::Scrub { threads: 4 });
        round_trip_request(Request::Repair { threads: 2 });
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Batch {
            batch_id: 0xFEED_F00D_0000_0042,
            ops: vec![
                IoOp::Read {
                    offset: 512,
                    len: 64,
                },
                IoOp::Write {
                    offset: 0,
                    data: (0..=127).collect(),
                },
                IoOp::Read { offset: 9, len: 0 },
            ],
        });
        round_trip_request(Request::Batch {
            batch_id: 0,
            ops: vec![],
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Trace);
    }

    #[test]
    fn traced_frames_round_trip_their_span_context() {
        let req = Request::Batch {
            batch_id: 3,
            ops: vec![IoOp::Read { offset: 64, len: 8 }],
        };
        let ctx = SpanCtx {
            trace_id: 0xDEAD_BEEF_0000_0001,
            span_id: 0x1234_5678_9ABC_DEF0,
        };
        let mut wire = Vec::new();
        write_request_traced(&mut wire, 55, &req, Some(ctx)).unwrap();
        let (id, back, got) = read_request_traced(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 55);
        assert_eq!(back, req);
        assert_eq!(got, Some(ctx));
    }

    #[test]
    fn untraced_frames_carry_no_flag_or_context() {
        // write_request (and write_request_traced with None) must emit
        // the bare frame: no flag bit, no context prefix.
        let req = Request::Read {
            offset: 0x0102_0304_0506_0708,
            len: 4096,
        };
        let mut wire = Vec::new();
        write_request(&mut wire, 0x0A0B_0C0D_0E0F_1011, &req).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(&21u32.to_le_bytes()); // 9 + 12
        expected.extend_from_slice(&0x0A0B_0C0D_0E0F_1011u64.to_le_bytes());
        expected.push(3); // Opcode::Read, high bit clear
        expected.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        expected.extend_from_slice(&4096u32.to_le_bytes());
        assert_eq!(wire, expected);

        let mut traced_none = Vec::new();
        write_request_traced(&mut traced_none, 0x0A0B_0C0D_0E0F_1011, &req, None).unwrap();
        assert_eq!(traced_none, expected);

        // And read_request accepts it unchanged.
        let (id, back) = read_request(&mut wire.as_slice()).unwrap();
        assert_eq!((id, back), (0x0A0B_0C0D_0E0F_1011, req));
    }

    #[test]
    fn trace_responses_round_trip() {
        round_trip_response(Response::Traces(vec![]));
        round_trip_response(Response::Traces(vec![
            WireTrace {
                trace_id: 7,
                root_span: 11,
                duration_us: 1234,
                ok: true,
                slow: false,
                spans: vec![
                    WireSpan {
                        span_id: 12,
                        parent_id: 11,
                        name: "store.stripe".into(),
                        start_us: 10,
                        duration_us: 900,
                        ok: true,
                        bytes: 4096,
                    },
                    WireSpan {
                        span_id: 11,
                        parent_id: 0,
                        name: "client.submit".into(),
                        start_us: 0,
                        duration_us: 1234,
                        ok: true,
                        bytes: 8192,
                    },
                ],
            },
            WireTrace {
                trace_id: 8,
                root_span: 21,
                duration_us: 50_000,
                ok: false,
                slow: true,
                spans: vec![WireSpan {
                    span_id: 21,
                    parent_id: 77,
                    name: "srv.request".into(),
                    start_us: 3,
                    duration_us: 50_000,
                    ok: false,
                    bytes: 0,
                }],
            },
        ]));
    }

    #[test]
    fn trace_decode_caps_hostile_lengths() {
        // A response claiming an absurd trace count is refused before
        // any allocation happens.
        let mut e = Enc(Vec::new());
        e.u32(MAX_TRACES + 1);
        let payload = e.0;
        let sum = fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Trace as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));

        // Same for a hostile per-trace span count.
        let mut e = Enc(Vec::new());
        e.u32(1);
        e.u64(1); // trace_id
        e.u64(2); // root_span
        e.u64(3); // duration
        e.u8(1); // ok
        e.u8(0); // slow
        e.u32(MAX_TRACE_SPANS + 1);
        let payload = e.0;
        let sum = fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Trace as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn metrics_responses_round_trip() {
        round_trip_response(Response::Metrics(MetricsSnapshot::default()));
        let mut snap = MetricsSnapshot::default();
        snap.add_counter("srv.req.read", 17);
        snap.add_counter("store.stripe_locks", 3);
        snap.add_gauge("srv.connections", -1);
        snap.add_histogram(
            "srv.lat_us.read",
            &HistogramSnapshot {
                buckets: vec![0, 2, 5, 1],
                sum: 44,
                max: 7,
            },
        );
        snap.slow_ops.push(TraceEvent {
            t_us: 123_456,
            kind: "write".into(),
            shard: 2,
            bytes: 4096,
            duration_us: 15_000,
            ok: true,
        });
        snap.slow_ops.push(TraceEvent {
            t_us: 200_000,
            kind: "scrub".into(),
            shard: 0,
            bytes: 0,
            duration_us: 99_000,
            ok: false,
        });
        round_trip_response(Response::Metrics(snap));
    }

    #[test]
    fn metrics_decode_caps_hostile_lengths() {
        // A histogram claiming more than BUCKETS buckets is refused
        // before any allocation happens.
        let mut e = Enc(Vec::new());
        e.u32(0); // counters
        e.u32(0); // gauges
        e.u32(1); // histograms
        e.str("h");
        e.u32(BUCKETS as u32 + 1);
        let payload = e.0;
        let sum = fletcher32(&payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(13 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.push(Opcode::Metrics as u8);
        frame.extend_from_slice(&sum.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_response(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn batch_caps_are_enforced_at_decode_time() {
        // Op count over the cap.
        let ops = vec![IoOp::Read { offset: 0, len: 1 }; MAX_BATCH_OPS as usize + 1];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice()),
            Err(NetError::Protocol(_))
        ));
        // Combined byte budget over the cap, even though each op is
        // individually inside it.
        let ops = vec![
            IoOp::Read {
                offset: 0,
                len: MAX_IO_BYTES as usize / 2 + 1,
            };
            2
        ];
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Batch { batch_id: 0, ops }).unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Hello(ServerInfo {
            version: 1,
            shards: 4,
            capacity: 1 << 30,
            block_size: 512,
            range_blocks: 20,
            codec: "stair:8,4,2,1-1-2".into(),
        }));
        round_trip_response(Response::Status(vec![WireShardStatus {
            codec: "sd:8,4,2,3".into(),
            capacity: 999,
            block_size: 128,
            stripes: 12,
            blocks_per_stripe: 17,
            failed_devices: vec![1, 5],
            rebuilding_devices: vec![],
            known_bad_sectors: 2,
            clean_shutdown: false,
            replayed_records: 31,
        }]));
        round_trip_response(Response::Data(vec![0xAB; 1000]));
        round_trip_response(Response::Written(WriteSummary {
            bytes: 512,
            blocks_written: 4,
            stripes_touched: 1,
            full_stripe_encodes: 0,
            delta_updates: 4,
            coalesced: 2,
        }));
        round_trip_response(Response::Flushed);
        round_trip_response(Response::Failed);
        round_trip_response(Response::Scrubbed(ScrubSummary {
            stripes_scanned: 10,
            sectors_verified: 320,
            mismatches: 1,
            unavailable_devices: 0,
            records_cleared: 0,
        }));
        round_trip_response(Response::Repaired(RepairSummary {
            devices_replaced: 1,
            stripes_repaired: 8,
            sectors_rewritten: 32,
            unrecoverable_stripes: 0,
        }));
        round_trip_response(Response::Batched(vec![
            BatchReply::Data(vec![7; 96]),
            BatchReply::Written(WriteSummary {
                bytes: 64,
                blocks_written: 1,
                stripes_touched: 1,
                full_stripe_encodes: 0,
                delta_updates: 1,
                coalesced: 1,
            }),
            BatchReply::Data(Vec::new()),
        ]));
        round_trip_response(Response::Batched(vec![]));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error("it broke".into()));
    }

    #[test]
    fn batch_frames_open_with_their_batch_id() {
        // The BATCH layout is pinned byte for byte: the client-chosen
        // batch id precedes the op count.
        let req = Request::Batch {
            batch_id: 77,
            ops: vec![IoOp::Read {
                offset: 512,
                len: 8,
            }],
        };
        let mut wire = Vec::new();
        write_request(&mut wire, 9, &req).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(&(9 + 8 + 4 + 13u32).to_le_bytes()); // id + count + one read op
        expected.extend_from_slice(&9u64.to_le_bytes());
        expected.push(Opcode::Batch as u8);
        expected.extend_from_slice(&77u64.to_le_bytes());
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.push(0); // read
        expected.extend_from_slice(&512u64.to_le_bytes());
        expected.extend_from_slice(&8u32.to_le_bytes());
        assert_eq!(wire, expected);
        let (_, back) = read_request(&mut wire.as_slice()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn ok_or_remote_maps_only_error_responses() {
        match ok_or_remote(Response::Error("disk on fire".into())) {
            Err(NetError::Remote(msg)) => assert_eq!(msg, "disk on fire"),
            other => panic!("expected Remote, got {other:?}"),
        }
        assert!(matches!(
            ok_or_remote(Response::Data(vec![1, 2])),
            Ok(Response::Data(_))
        ));
        assert!(matches!(
            ok_or_remote(Response::Flushed),
            Ok(Response::Flushed)
        ));
    }

    #[test]
    fn write_summaries_absorb_chunked_totals() {
        let mut total = WriteSummary {
            bytes: 100,
            blocks_written: 4,
            stripes_touched: 1,
            full_stripe_encodes: 1,
            delta_updates: 0,
            coalesced: 3,
        };
        total.absorb(&WriteSummary {
            bytes: 28,
            blocks_written: 1,
            stripes_touched: 1,
            full_stripe_encodes: 0,
            delta_updates: 1,
            coalesced: 2,
        });
        assert_eq!(
            total,
            WriteSummary {
                bytes: 128,
                blocks_written: 5,
                stripes_touched: 2,
                full_stripe_encodes: 1,
                delta_updates: 1,
                coalesced: 3,
            }
        );
    }

    #[test]
    fn corrupted_response_payload_fails_checksum() {
        let mut wire = Vec::new();
        write_response(&mut wire, 1, &Response::Data(vec![1, 2, 3, 4])).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        match read_response(&mut wire.as_slice()) {
            Err(NetError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let mut wire = Vec::new();
        write_request(&mut wire, 1, &Request::Status).unwrap();
        assert!(matches!(
            read_request(&mut wire[..wire.len() - 1].as_ref()),
            Err(NetError::Io(_))
        ));
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        assert!(matches!(
            read_request(&mut huge.as_slice()),
            Err(NetError::Protocol(_))
        ));
        // A READ larger than the request cap is refused at decode time.
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            1,
            &Request::Read {
                offset: 0,
                len: MAX_IO_BYTES + 1,
            },
        )
        .unwrap();
        assert!(matches!(
            read_request(&mut wire.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Hand-build a STATUS request frame with an extra byte.
        let mut frame = Vec::new();
        frame.extend_from_slice(&10u32.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(Opcode::Status as u8);
        frame.push(0xEE);
        assert!(matches!(
            read_request(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn bad_hello_magic_is_rejected() {
        let mut frame = Vec::new();
        let payload = [b'X'; 12];
        frame.extend_from_slice(&(9 + payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(Opcode::Hello as u8);
        frame.extend_from_slice(&payload);
        assert!(matches!(
            read_request(&mut frame.as_slice()),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn opcode_table_is_dense_and_collision_free() {
        let mut seen = std::collections::BTreeSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op as u8), "duplicate discriminant for {op:?}");
            // Round trip: the discriminant decodes back to the variant.
            assert_eq!(Opcode::from_u8(op as u8).unwrap(), op);
        }
        // Dense from 1 with no gaps: every byte in 1..=N decodes, and
        // everything outside is rejected.
        let n = Opcode::ALL.len() as u8;
        assert_eq!(*seen.iter().min().unwrap(), 1);
        assert_eq!(*seen.iter().max().unwrap(), n);
        assert_eq!(seen.len(), n as usize);
        assert!(Opcode::from_u8(0).is_err());
        assert!(Opcode::from_u8(n + 1).is_err());
    }

    #[test]
    fn opcode_wire_names_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for op in Opcode::ALL {
            assert!(names.insert(op.name()), "duplicate wire name for {op:?}");
        }
    }
}
