//! The object-safe storage traits.

use stair_obs::MetricsSnapshot;

use crate::{
    BatchResult, DeviceError, DeviceStatus, IoBatch, IoOp, OpResult, RepairOutcome, ScrubOutcome,
    WriteOutcome,
};

/// The unified data-path API over any storage backend — a local stripe
/// store, an in-process shard set, or a remote TCP client.
///
/// Every method takes `&self`: backends with inherently mutable state
/// (e.g. a network connection) hide it behind interior mutability, so
/// any implementation works behind `Arc<dyn BlockDevice>` from many
/// threads at once. The trait is object-safe by construction; the
/// `open_device()` registry in `stair-net` hands out
/// `Box<dyn BlockDevice>` from a [`DeviceSpec`](crate::DeviceSpec).
pub trait BlockDevice: Send + Sync {
    /// Total logical capacity in bytes.
    fn capacity(&self) -> u64;

    /// Logical block size in bytes.
    fn block_size(&self) -> usize;

    /// Reads `len` bytes at byte `offset`. Degraded backends
    /// reconstruct transparently; the returned bytes are always
    /// verified (checksums locally, frame checksums over the wire).
    ///
    /// # Errors
    ///
    /// Out-of-range spans, damage beyond coverage, and backend
    /// failures.
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError>;

    /// Writes `data` at byte `offset`, returning the aggregated
    /// [`WriteOutcome`].
    ///
    /// # Errors
    ///
    /// Out-of-range spans and backend failures.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError>;

    /// Submits a scatter-gather batch, returning per-op results in
    /// submission order plus the aggregated write outcome.
    ///
    /// The default implementation loops over `read_at`/`write_at`, so
    /// every existing implementor stays source-compatible. Native
    /// backends override it to amortize work across ops: a stripe
    /// store takes each stripe lock once with one
    /// re-encode-vs-parity-delta decision per touched stripe, a shard
    /// set splits by placement and runs shards in parallel, a remote
    /// client ships the whole batch in one request frame per shard.
    /// Overlap semantics and failure behavior are specified on
    /// [`IoBatch`].
    ///
    /// # Errors
    ///
    /// The first failing op aborts the batch; writes that already
    /// executed stay applied.
    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        let mut results = Vec::with_capacity(batch.len());
        for op in batch.ops() {
            results.push(match op {
                IoOp::Read { offset, len } => OpResult::Read(self.read_at(*offset, *len)?),
                IoOp::Write { offset, data } => OpResult::Write(self.write_at(*offset, data)?),
            });
        }
        Ok(BatchResult::from_results(results))
    }

    /// Persists all state (data, checksums, health records).
    ///
    /// # Errors
    ///
    /// Backend failures.
    fn flush(&self) -> Result<(), DeviceError>;

    /// Health snapshot of every shard behind this device.
    ///
    /// # Errors
    ///
    /// Backend failures (a remote status call can fail; local ones do
    /// not).
    fn status(&self) -> Result<DeviceStatus, DeviceError>;

    /// Verifies every sector checksum with `threads` workers per shard.
    ///
    /// # Errors
    ///
    /// Backend failures (mismatches are reported in the outcome, not as
    /// errors).
    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError>;

    /// Rebuilds failed devices and damaged sectors online with
    /// `threads` workers per shard.
    ///
    /// # Errors
    ///
    /// Backend failures (unrecoverable stripes are reported in the
    /// outcome, not as errors).
    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError>;

    /// A metrics snapshot for this backend: operation counters, latency
    /// histograms, progress gauges, and captured slow ops.
    ///
    /// The default returns an empty snapshot, so implementors without
    /// native instrumentation stay source-compatible. Backends with
    /// their own registries override it (a stripe store folds in its
    /// `store.*` registry and the GF kernel counters; a remote client
    /// pulls the server's registry over the wire); the
    /// [`Instrumented`](crate::Instrumented) wrapper adds per-op
    /// latency/byte accounting in front of any of them.
    ///
    /// # Errors
    ///
    /// Backend failures (a remote snapshot call can fail; local ones do
    /// not).
    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        Ok(MetricsSnapshot::default())
    }
}

/// Forwarding impl so a boxed device is itself a device — what lets
/// wrappers like [`Instrumented`](crate::Instrumented) sit in front of
/// whatever `open_device()` returned. Every method forwards (including
/// the ones with default bodies, so a backend's native `submit` and
/// `metrics` are never shadowed by the trait defaults).
impl BlockDevice for Box<dyn BlockDevice> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }

    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        (**self).read_at(offset, len)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        (**self).write_at(offset, data)
    }

    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        (**self).submit(batch)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        (**self).flush()
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        (**self).status()
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        (**self).scrub(threads)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        (**self).repair(threads)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        (**self).metrics()
    }
}

/// Forwarding impl so a boxed **admin** device is itself a device —
/// what lets generic wrappers (e.g. a cache tier) sit in front of
/// whatever `open_admin()` returned while keeping the fault verbs
/// reachable. Paired with the [`FaultAdmin`] forwarding impl below,
/// the blanket [`AdminDevice`] impl then covers
/// `Box<dyn AdminDevice>` too.
impl BlockDevice for Box<dyn AdminDevice> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }

    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        (**self).read_at(offset, len)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        (**self).write_at(offset, data)
    }

    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        (**self).submit(batch)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        (**self).flush()
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        (**self).status()
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        (**self).scrub(threads)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        (**self).repair(threads)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        (**self).metrics()
    }
}

/// Fault administration, split from [`BlockDevice`] because not every
/// deployment exposes it — a production remote endpoint may refuse
/// these with [`DeviceError::Unsupported`] while still serving the full
/// data path.
pub trait FaultAdmin {
    /// Declares `device` of `shard` failed (whole backing file lost).
    /// Single-store backends only have `shard` 0.
    ///
    /// # Errors
    ///
    /// Unknown shard/device indices, unsupported backends.
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError>;

    /// Corrupts `len` consecutive sectors of one chunk (latent damage:
    /// detected only by a later read or scrub).
    ///
    /// # Errors
    ///
    /// Unknown indices, unsupported backends.
    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError>;
}

/// Forwarding impl paired with the `BlockDevice` one above.
impl FaultAdmin for Box<dyn AdminDevice> {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        (**self).fail_device(shard, device)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        (**self).corrupt_sectors(shard, device, stripe, row, len)
    }
}

/// A device that also accepts fault administration — what the CLI's
/// `fail` verb and the conformance harness open.
pub trait AdminDevice: BlockDevice + FaultAdmin {}

impl<T: BlockDevice + FaultAdmin> AdminDevice for T {}
