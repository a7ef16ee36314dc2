//! [`BlockDevice`] / [`FaultAdmin`] implementations for the sharded
//! and remote backends, plus the [`open_device`] registry that turns a
//! [`DeviceSpec`] into a live device — the storage-layer mirror of
//! `stair_store::build_codec()`.

use stair_device::{
    seed_results, BatchResult, BlockDevice, DeviceError, DeviceSpec, DeviceStatus, FaultAdmin,
    IoBatch, OpResult, RepairOutcome, ScrubOutcome, ShardHealth, WriteOutcome,
};
use stair_store::{shard_health, StoreStatus, StripeStore};

use crate::placement::split_batch;
use crate::protocol::{RepairSummary, ScrubSummary};
use crate::{Client, NetError, ShardSet};

/// Opens the backend a spec names as a data-path device.
///
/// `file:` and `shards:` targets must already exist on disk (`stair
/// store init` / `stair serve` create them); `tcp:` targets must have a
/// server listening.
///
/// # Errors
///
/// Unusable targets (missing store, shard-count mismatch, unreachable
/// server) surface as [`DeviceError`]s.
pub fn open_device(spec: &DeviceSpec) -> Result<Box<dyn BlockDevice>, DeviceError> {
    open_admin(spec).map(|dev| dev as Box<dyn BlockDevice>)
}

/// Opens the backend a spec names with fault administration attached —
/// what the CLI's `fail` verb and the conformance harness use. Every
/// built-in backend accepts admin operations; a future production
/// frontend can register one that refuses them.
///
/// # Errors
///
/// Same conditions as [`open_device`].
pub fn open_admin(spec: &DeviceSpec) -> Result<Box<dyn stair_device::AdminDevice>, DeviceError> {
    Ok(match spec {
        DeviceSpec::File { dir } => Box::new(StripeStore::open(dir)?),
        DeviceSpec::Shards { root, shards } => {
            let set = ShardSet::open(root)?;
            if let Some(n) = shards {
                if set.shard_count() != *n {
                    return Err(DeviceError::Spec(format!(
                        "{} holds {} shard(s) but the spec asked for n={n}",
                        root.display(),
                        set.shard_count()
                    )));
                }
            }
            Box::new(set)
        }
        DeviceSpec::Tcp { addr } => Box::new(Client::connect(addr)?),
        DeviceSpec::Cache {
            inner,
            mb,
            wb,
            interval_ms,
        } => {
            let inner = open_admin(inner)?;
            Box::new(stair_cache::CachedDevice::new(
                inner,
                stair_cache::CacheConfig::from_spec(*mb, *wb, *interval_ms),
            ))
        }
    })
}

/// Builds the unified status, enforcing the `DeviceStatus` contract
/// that `shards` is never empty (a `ShardSet` guarantees it by
/// construction; a remote peer's STATUS response cannot be trusted to).
fn device_status(backend: &str, statuses: &[StoreStatus]) -> Result<DeviceStatus, DeviceError> {
    let shards: Vec<ShardHealth> = statuses.iter().map(shard_health).collect();
    let Some(first) = shards.first() else {
        return Err(DeviceError::Backend(format!(
            "{backend} backend reported no shards"
        )));
    };
    Ok(DeviceStatus {
        backend: backend.into(),
        capacity: shards.iter().map(|s| s.capacity).sum(),
        block_size: first.block_size,
        shards,
        cache: None,
    })
}

/// Stitches one sub-batch's results back into the global result slots:
/// `map[j]` names the global op and the byte offset sub-op `j` covers.
/// Read bytes are copied into place; write outcomes fold additively.
fn stitch(
    results: &mut [OpResult],
    map: &[(usize, usize)],
    sub: Vec<OpResult>,
) -> Result<(), NetError> {
    if sub.len() != map.len() {
        return Err(NetError::Protocol(format!(
            "batch produced {} results for {} sub-ops",
            sub.len(),
            map.len()
        )));
    }
    for (reply, &(op_idx, span_off)) in sub.into_iter().zip(map) {
        match (reply, &mut results[op_idx]) {
            (OpResult::Read(data), OpResult::Read(out)) => {
                let end = span_off + data.len();
                if end > out.len() {
                    return Err(NetError::Protocol(format!(
                        "batch read fragment [{span_off}, {end}) exceeds the op's {} bytes",
                        out.len()
                    )));
                }
                out[span_off..end].copy_from_slice(&data);
            }
            (OpResult::Write(w), OpResult::Write(total)) => total.absorb(&w),
            _ => {
                return Err(NetError::Protocol(
                    "batch sub-result kind does not match its op".into(),
                ))
            }
        }
    }
    Ok(())
}

fn scrub_outcome(s: &ScrubSummary) -> ScrubOutcome {
    ScrubOutcome {
        stripes_scanned: s.stripes_scanned,
        sectors_verified: s.sectors_verified,
        mismatches: s.mismatches,
        unavailable_devices: s.unavailable_devices,
        records_cleared: s.records_cleared,
    }
}

fn repair_outcome(r: &RepairSummary) -> RepairOutcome {
    RepairOutcome {
        devices_replaced: r.devices_replaced,
        stripes_repaired: r.stripes_repaired,
        sectors_rewritten: r.sectors_rewritten,
        unrecoverable_stripes: r.unrecoverable_stripes,
    }
}

// ---------------------------------------------------------------------
// shards: — the in-process sharded set
// ---------------------------------------------------------------------

impl BlockDevice for ShardSet {
    fn capacity(&self) -> u64 {
        ShardSet::capacity(self)
    }

    fn block_size(&self) -> usize {
        ShardSet::block_size(self)
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        Ok(ShardSet::read_at(self, offset, len)?)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        Ok(ShardSet::write_at(self, offset, data)?)
    }

    /// Splits the batch by placement and executes the shard groups in
    /// parallel — shards share nothing, and each group runs the stripe
    /// store's native batched path (one lock + one codec decision per
    /// touched stripe). Conflicting ops always share the shard their
    /// overlap lands on, where submission order is preserved.
    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        let _split = stair_obs::trace::span(stair_obs::trace::names::SHARDS_SUBMIT);
        let groups = split_batch(self.placement(), batch.ops())?;
        let mut results = seed_results(batch.ops());
        let (maps, work): (Vec<_>, Vec<_>) = groups
            .into_iter()
            .map(|g| (g.map, (g.shard, g.ops)))
            .unzip();
        // One touched shard — the common shape batching optimizes for —
        // runs inline; spawning threads buys nothing at width 1.
        let subs: Vec<Result<BatchResult, NetError>> = if work.len() == 1 {
            // check: panic-ok guarded by work.len() == 1 on the line above
            let (shard, ops) = work.into_iter().next().expect("one group");
            vec![(|| Ok(self.shard(shard)?.submit(&IoBatch::from(ops))?))()]
        } else {
            // Shard threads inherit the submitting thread's span context
            // so per-stripe store spans attach to this trace.
            let ctx = stair_obs::trace::current();
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .into_iter()
                    .map(|(shard, ops)| {
                        scope.spawn(move || -> Result<BatchResult, NetError> {
                            let _trace = stair_obs::trace::enter_ctx(ctx);
                            Ok(self.shard(shard)?.submit(&IoBatch::from(ops))?)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // check: panic-ok a panicked shard thread is a bug — propagate, don't mask as NetError
                    .map(|h| h.join().expect("shard batch thread"))
                    .collect()
            })
        };
        for (map, sub) in maps.iter().zip(subs) {
            stitch(&mut results, map, sub?.results)?;
        }
        Ok(BatchResult::from_results(results))
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(ShardSet::flush(self)?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        device_status("shards", &ShardSet::status(self))
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        let mut total = ScrubOutcome::default();
        for report in ShardSet::scrub(self, threads)? {
            total.absorb(&stair_store::scrub_outcome(&report));
        }
        Ok(total)
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        let mut total = RepairOutcome::default();
        for report in ShardSet::repair(self, threads)? {
            total.absorb(&stair_store::repair_outcome(&report));
        }
        Ok(total)
    }

    fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, DeviceError> {
        Ok(ShardSet::metrics(self))
    }
}

impl FaultAdmin for ShardSet {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        Ok(self.shard(shard)?.fail_device(device)?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        Ok(self
            .shard(shard)?
            .corrupt_sectors(device, stripe, row, len)?)
    }
}

// ---------------------------------------------------------------------
// tcp: — the remote client
// ---------------------------------------------------------------------

impl BlockDevice for Client {
    fn capacity(&self) -> u64 {
        Client::capacity(self)
    }

    fn block_size(&self) -> usize {
        Client::block_size(self)
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        Ok(Client::read_at(self, offset, len)?)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        Ok(Client::write_at(self, offset, data)?)
    }

    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        Ok(Client::submit(self, batch)?)
    }

    fn flush(&self) -> Result<(), DeviceError> {
        Ok(Client::flush(self)?)
    }

    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        device_status("tcp", &Client::status(self)?)
    }

    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        Ok(scrub_outcome(&Client::scrub(self, threads)?))
    }

    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        Ok(repair_outcome(&Client::repair(self, threads)?))
    }

    fn metrics(&self) -> Result<stair_obs::MetricsSnapshot, DeviceError> {
        Ok(Client::metrics(self)?)
    }
}

impl FaultAdmin for Client {
    fn fail_device(&self, shard: usize, device: usize) -> Result<(), DeviceError> {
        Ok(Client::fail_device(self, shard, device)?)
    }

    fn corrupt_sectors(
        &self,
        shard: usize,
        device: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), DeviceError> {
        Ok(Client::corrupt_sectors(
            self, shard, device, stripe, row, len,
        )?)
    }
}
