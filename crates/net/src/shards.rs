//! The sharded store: `k` independent [`StripeStore`]s under one root
//! directory, glued into a single logical block space by the
//! [`Placement`] map.
//!
//! Every shard runs the same codec and geometry, so the placement
//! arithmetic is uniform and a shard's stripe is exactly one placement
//! range. The set is usable in-process (the benchmarks drive it through
//! the server, tests may drive it directly); the TCP server is a thin
//! wire layer on top.

use std::path::{Path, PathBuf};

use stair_device::WriteOutcome;
use stair_store::{StoreOptions, StoreStatus, StripeStore};

use crate::placement::Placement;
use crate::protocol::WireShardStatus;
use crate::NetError;

/// Directory name of shard `i` under the serve root.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:04}")
}

/// A fixed set of equally-shaped stripe-store shards plus the placement
/// map over them.
pub struct ShardSet {
    root: PathBuf,
    stores: Vec<StripeStore>,
    placement: Placement,
}

impl ShardSet {
    /// Creates `shards` fresh stores under `root` (one per
    /// `root/shard-NNNN`), all with the same [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// Fails if `root` already contains shard directories or any store
    /// creation fails.
    pub fn create(root: &Path, shards: usize, opts: &StoreOptions) -> Result<Self, NetError> {
        if shards == 0 {
            return Err(NetError::Shards("need at least one shard".into()));
        }
        if root.join(shard_dir_name(0)).exists() {
            return Err(NetError::Shards(format!(
                "{} already holds shards (open it instead of re-initializing)",
                root.display()
            )));
        }
        std::fs::create_dir_all(root)?;
        let mut stores = Vec::with_capacity(shards);
        for i in 0..shards {
            stores.push(StripeStore::create(&root.join(shard_dir_name(i)), opts)?);
        }
        Self::assemble(root, stores)
    }

    /// Opens the shards already present under `root` (`shard-0000`,
    /// `shard-0001`, … with no gaps).
    ///
    /// # Errors
    ///
    /// Fails when no shards exist, a shard fails to open, or the shards
    /// disagree on codec or scalar geometry.
    pub fn open(root: &Path) -> Result<Self, NetError> {
        let mut stores = Vec::new();
        loop {
            let dir = root.join(shard_dir_name(stores.len()));
            if !dir.is_dir() {
                break;
            }
            stores.push(StripeStore::open(&dir)?);
        }
        if stores.is_empty() {
            return Err(NetError::Shards(format!(
                "{} contains no shard directories (expected {}, …)",
                root.display(),
                shard_dir_name(0)
            )));
        }
        Self::assemble(root, stores)
    }

    /// Opens `root` if it holds shards, otherwise creates `shards` new
    /// ones. When opening, `shards` must match what is on disk.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSet::open`] / [`ShardSet::create`] failures,
    /// plus a shard-count mismatch on open.
    pub fn open_or_create(
        root: &Path,
        shards: usize,
        opts: &StoreOptions,
    ) -> Result<Self, NetError> {
        if root.join(shard_dir_name(0)).is_dir() {
            let set = Self::open(root)?;
            if set.stores.len() != shards {
                return Err(NetError::Shards(format!(
                    "{} holds {} shard(s) but --shards asked for {shards}",
                    root.display(),
                    set.stores.len()
                )));
            }
            return Ok(set);
        }
        Self::create(root, shards, opts)
    }

    fn assemble(root: &Path, stores: Vec<StripeStore>) -> Result<Self, NetError> {
        let first = &stores[0];
        for (i, s) in stores.iter().enumerate().skip(1) {
            if s.codec_spec() != first.codec_spec()
                || s.block_size() != first.block_size()
                || s.stripe_count() != first.stripe_count()
            {
                return Err(NetError::Shards(format!(
                    "shard {i} ({}, {} stripes of {}-byte blocks) does not match shard 0 ({}, {} stripes of {}-byte blocks)",
                    s.codec_spec(),
                    s.stripe_count(),
                    s.block_size(),
                    first.codec_spec(),
                    first.stripe_count(),
                    first.block_size()
                )));
            }
        }
        let placement = Placement::new(
            stores.len(),
            first.blocks_per_stripe(),
            first.stripe_count(),
            first.block_size(),
        );
        Ok(ShardSet {
            root: root.to_path_buf(),
            stores,
            placement,
        })
    }

    /// The serve root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The placement map.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.stores.len()
    }

    /// Direct access to one shard's store.
    ///
    /// # Errors
    ///
    /// Out-of-range indices are rejected.
    pub fn shard(&self, i: usize) -> Result<&StripeStore, NetError> {
        self.stores.get(i).ok_or_else(|| {
            NetError::Shards(format!(
                "shard {i} out of range (have {})",
                self.stores.len()
            ))
        })
    }

    /// Total logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.placement.capacity()
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.placement.block_size()
    }

    /// The codec spec string every shard runs.
    pub fn codec(&self) -> String {
        self.stores[0].codec_spec().to_string()
    }

    /// Reads `len` bytes at global byte `offset`, shard by shard
    /// (degraded shards reconstruct transparently).
    ///
    /// # Errors
    ///
    /// Span errors and store errors propagate.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, NetError> {
        let mut out = vec![0u8; len];
        for span in self.placement.split(offset, len)? {
            let piece = self.stores[span.shard].read_at(span.local_offset, span.len)?;
            out[span.span_offset..span.span_offset + span.len].copy_from_slice(&piece);
        }
        Ok(out)
    }

    /// Writes `data` at global byte `offset`, returning the aggregated
    /// per-shard write outcome.
    ///
    /// # Errors
    ///
    /// Span errors and store errors propagate.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, NetError> {
        let mut total = WriteOutcome::default();
        for span in self.placement.split(offset, data.len())? {
            total.absorb(&self.stores[span.shard].write_at(
                span.local_offset,
                &data[span.span_offset..span.span_offset + span.len],
            )?);
        }
        Ok(total)
    }

    /// Health snapshot of every shard, in shard order.
    pub fn status(&self) -> Vec<StoreStatus> {
        self.stores.iter().map(|s| s.status()).collect()
    }

    /// Persists every shard.
    ///
    /// # Errors
    ///
    /// The first store error aborts the pass.
    pub fn flush(&self) -> Result<(), NetError> {
        for s in &self.stores {
            s.flush()?;
        }
        Ok(())
    }

    /// Scrubs every shard with `threads` workers each, returning one
    /// report per shard.
    ///
    /// # Errors
    ///
    /// The first store error aborts the pass.
    pub fn scrub(&self, threads: usize) -> Result<Vec<stair_store::ScrubReport>, NetError> {
        self.stores
            .iter()
            .map(|s| s.scrub(threads).map_err(NetError::from))
            .collect()
    }

    /// Repairs every shard with `threads` workers each, returning one
    /// report per shard.
    ///
    /// # Errors
    ///
    /// The first store error aborts the pass.
    pub fn repair(&self, threads: usize) -> Result<Vec<stair_store::RepairReport>, NetError> {
        self.stores
            .iter()
            .map(|s| s.repair(threads).map_err(NetError::from))
            .collect()
    }

    /// Aggregated metrics across every shard: the per-shard `store.*`
    /// counters summed, plus the process-global `gf.*` field-arithmetic
    /// counters folded in exactly once (they are shared by every codec
    /// instance, so per-shard merging would multiply them).
    pub fn metrics(&self) -> stair_obs::MetricsSnapshot {
        let mut snap = stair_obs::MetricsSnapshot::default();
        for store in &self.stores {
            snap.merge(&store.store_metrics());
        }
        snap.merge(&stair_store::gf_metrics());
        snap
    }
}

/// Converts a store status to its wire form.
pub fn wire_status(status: &StoreStatus) -> WireShardStatus {
    WireShardStatus {
        codec: status.codec.to_string(),
        capacity: status.capacity,
        block_size: status.block_size as u32,
        stripes: status.stripes as u32,
        blocks_per_stripe: status.blocks_per_stripe as u32,
        failed_devices: status.failed_devices.iter().map(|&d| d as u32).collect(),
        rebuilding_devices: status
            .rebuilding_devices
            .iter()
            .map(|&d| d as u32)
            .collect(),
        known_bad_sectors: status.known_bad_sectors as u32,
        clean_shutdown: status.clean_shutdown,
        replayed_records: status.replayed_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-shards-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn sharded_round_trip_and_reopen() {
        let dir = tmpdir("rt");
        let set = ShardSet::create(&dir, 3, &opts()).unwrap();
        assert_eq!(set.capacity(), 3 * 4 * 20 * 64);
        let payload = pattern(set.capacity() as usize, 5);
        set.write_at(0, &payload).unwrap();
        assert_eq!(set.read_at(0, payload.len()).unwrap(), payload);
        // Unaligned window crossing shard boundaries.
        assert_eq!(
            set.read_at(1000, 3000).unwrap(),
            payload[1000..4000].to_vec()
        );
        drop(set);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.shard_count(), 3);
        assert_eq!(set.read_at(0, payload.len()).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_shard_reads_through() {
        let dir = tmpdir("deg");
        let set = ShardSet::create(&dir, 2, &opts()).unwrap();
        let payload = pattern(set.capacity() as usize, 9);
        set.write_at(0, &payload).unwrap();
        set.shard(1).unwrap().fail_device(2).unwrap();
        assert_eq!(set.read_at(0, payload.len()).unwrap(), payload);
        let reports = set.repair(2).unwrap();
        assert!(reports.iter().all(|r| r.complete()));
        let scrubs = set.scrub(2).unwrap();
        assert!(scrubs.iter().all(|r| r.clean()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_empty_create_rejects_existing() {
        let dir = tmpdir("guard");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(ShardSet::open(&dir), Err(NetError::Shards(_))));
        let set = ShardSet::create(&dir, 2, &opts()).unwrap();
        drop(set);
        assert!(matches!(
            ShardSet::create(&dir, 2, &opts()),
            Err(NetError::Shards(_))
        ));
        // open_or_create with the wrong count is refused.
        assert!(matches!(
            ShardSet::open_or_create(&dir, 3, &opts()),
            Err(NetError::Shards(_))
        ));
        assert_eq!(
            ShardSet::open_or_create(&dir, 2, &opts())
                .unwrap()
                .shard_count(),
            2
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
