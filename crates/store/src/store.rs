//! The stripe-store engine: a block-addressable, file-backed store laid
//! out across `n` per-device files and protected by any
//! [`stair_code::ErasureCode`] — STAIR, SD, or plain Reed–Solomon.
//!
//! # Data path design
//!
//! * **Every read and write is a batch.** [`StripeStore::submit`]
//!   (`batch.rs`) is the one data path; `read_at`/`write_at` walk their
//!   span stripe by stripe and submit each stripe's piece as a one-op
//!   batch. A write covering *every* data block of a stripe never reads
//!   old state: the stripe is rebuilt in memory and fully re-encoded
//!   (one sequential pass). A partial write loads the stripe, overwrites
//!   the dirty data sectors, and patches only the dependent parity
//!   sectors via the codec's parity-delta update
//!   ([`stair_code::ErasureCode::update`]) — the §6.3 update-penalty
//!   path, measurable per codec.
//! * **Reads** verify every sector against the Fletcher-32 table. A clean
//!   stripe is served straight from the data sectors. Any missing file,
//!   short read, or checksum mismatch switches the stripe to a **degraded
//!   read**: the erasure set is assembled and the codec's planner
//!   ([`stair_code::ErasureCode::plan_recover`]) reconstructs exactly the
//!   requested sectors.
//! * All sector I/O is positioned (`pread`/`pwrite`), and stripes are
//!   guarded by striped locks, so reads, writes, scrubbing, and repair of
//!   *different* stripes proceed concurrently.
//!
//! Stripes move through the engine as flat [`StripeBuf`]s — the same
//! memory the codecs encode and decode in place, with no per-cell
//! reshaping between the I/O layer and the math.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use stair_code::{CellIdx, CodeError, CodecSpec, ErasureCode, ErasureSet, Geometry, StripeBuf};
use stair_device::{IoBatch, IoOp, OpResult, WriteOutcome};
use stair_obs::{Counter, Gauge, MetricsRegistry};

use crate::codec::build_codec;
use crate::device::{DeviceSet, SectorRead};
use crate::integrity::{DeviceState, Integrity};
use crate::journal::{Journal, DEFAULT_JOURNAL_SEGMENT};
use crate::layout::BlockMap;
use crate::meta::StoreMeta;
use crate::Error;

/// Geometry for [`StripeStore::create`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Which erasure code protects the stripes.
    pub code: CodecSpec,
    /// Bytes per sector (= logical block size).
    pub symbol: usize,
    /// Stripes in the store.
    pub stripes: usize,
}

impl Default for StoreOptions {
    /// The paper's running example (`stair:8,4,2,1-1-2`) with 512-byte
    /// sectors and 64 stripes.
    fn default() -> Self {
        StoreOptions {
            code: CodecSpec::Stair {
                n: 8,
                r: 4,
                m: 2,
                e: vec![1, 1, 2],
            },
            symbol: 512,
            stripes: 64,
        }
    }
}

/// A point-in-time summary of the store's health and geometry.
#[derive(Clone, Debug)]
pub struct StoreStatus {
    /// The codec spec protecting the stripes.
    pub codec: CodecSpec,
    /// Logical capacity in bytes.
    pub capacity: u64,
    /// Logical block size in bytes.
    pub block_size: usize,
    /// Stripe count.
    pub stripes: usize,
    /// Data blocks per stripe.
    pub blocks_per_stripe: usize,
    /// Devices currently failed (no backing file).
    pub failed_devices: Vec<usize>,
    /// Devices currently being rebuilt.
    pub rebuilding_devices: Vec<usize>,
    /// Known-damaged sectors awaiting repair.
    pub known_bad_sectors: usize,
    /// Whether the previous close checkpointed the journal (a fresh
    /// store reports `true`; after a crash, `false` until the next
    /// clean shutdown).
    pub clean_shutdown: bool,
    /// Journal records replayed when this store handle opened.
    pub replayed_records: u64,
}

pub(crate) struct Shared {
    pub(crate) dir: PathBuf,
    pub(crate) meta: StoreMeta,
    pub(crate) codec: Box<dyn ErasureCode>,
    pub(crate) geometry: Geometry,
    pub(crate) blocks: BlockMap,
    pub(crate) devices: DeviceSet,
    pub(crate) integrity: Integrity,
    pub(crate) journal: Journal,
    /// Sticky: whether the superblock said the *previous* close was
    /// clean, as read when this handle family opened.
    pub(crate) clean_shutdown: bool,
    stripe_locks: Vec<Mutex<()>>,
    /// The `store.*` metrics of this handle family (clones share it).
    /// The handles below are registered in it once, in `assemble`.
    metrics: MetricsRegistry,
    /// `store.stripe_locks`: stripe-lock acquisitions (foreground I/O,
    /// scrub, and repair all take stripe locks).
    locks_taken: Counter,
    /// `store.encode_passes`: full-stripe `ErasureCode::encode` passes.
    pub(crate) encode_passes: Counter,
    /// `store.delta_update_calls`: `ErasureCode::update` calls, one per
    /// dirty cell.
    pub(crate) delta_update_calls: Counter,
    /// `store.recover_passes`: recovery plans applied on the foreground
    /// read/write path.
    pub(crate) recover_passes: Counter,
    /// `store.scrub.stripes_done`: stripes finished by the current (or
    /// last) scrub pass. Reset when a pass starts, so a concurrent
    /// metrics reader watches it climb from 0 to the stripe count.
    pub(crate) scrub_stripes_done: Gauge,
    /// `store.repair.stripes_done`: the same progress for repair.
    pub(crate) repair_stripes_done: Gauge,
    /// `store.jrnl.replayed`: journal records replayed at open (0 after
    /// a clean shutdown).
    jrnl_replayed: Counter,
}

impl Drop for Shared {
    /// Best-effort clean shutdown on the last handle: make everything
    /// durable, truncate the journal, and mark the superblock clean. A
    /// crash (the whole point of the journal) simply never runs this —
    /// the superblock then still says `clean_shutdown 0` and the next
    /// open replays. Errors are ignored: failing to mark clean only
    /// costs the next open a (correct, idempotent) replay.
    fn drop(&mut self) {
        let ok = self
            .journal
            .checkpoint(|| {
                self.devices.sync()?;
                self.integrity.persist()
            })
            .is_ok();
        if ok {
            let mut meta = self.meta.clone();
            meta.clean_shutdown = true;
            let _ = meta.save(&self.dir);
        }
    }
}

/// The stripe-store engine. Cheap to clone (`Arc` inside); clones share
/// the same store, so foreground I/O, scrubbing, and repair can run from
/// different threads concurrently.
#[derive(Clone)]
pub struct StripeStore {
    pub(crate) shared: Arc<Shared>,
}

impl StripeStore {
    /// Creates a new zero-filled store under `dir` (created if absent).
    ///
    /// A zero store is consistent by linearity: parity over all-zero data
    /// is all-zero, so freshly created devices already verify.
    ///
    /// # Errors
    ///
    /// Fails if the spec does not describe a constructible codec, the
    /// scalar geometry is degenerate (zero `symbol`/`stripes` — validated
    /// here, not just on reopen), or any file operation fails (including
    /// `dir` already holding a store).
    pub fn create(dir: &Path, opts: &StoreOptions) -> Result<Self, Error> {
        let meta = StoreMeta {
            codec: opts.code.clone(),
            symbol: opts.symbol,
            stripes: opts.stripes,
            journal_segment: DEFAULT_JOURNAL_SEGMENT,
            // The store is live from here until a clean close.
            clean_shutdown: false,
        };
        // The same checks `open` applies when parsing the superblock, so a
        // store that creates is always a store that reopens.
        meta.validate()?;
        let codec = build_codec(&meta.codec)?;
        let geometry = codec.geometry();
        std::fs::create_dir_all(dir)?;
        // Device files first (create_new fails fast on an existing store);
        // the superblock is written only once everything else succeeded, so
        // a failed init never clobbers an existing store's metadata.
        let devices = DeviceSet::create(dir, geometry.n, geometry.r, meta.symbol, meta.stripes)?;
        let integrity = Integrity::create(dir, geometry.n, geometry.r, meta.symbol, meta.stripes)?;
        let journal = Journal::open_or_create(dir, meta.symbol, meta.journal_segment)?;
        meta.save(dir)?;
        // A fresh store has nothing to recover: report the previous
        // shutdown (vacuously) clean.
        Self::assemble(dir, meta, codec, devices, integrity, journal, true)
    }

    /// Opens an existing store, rebuilding whichever codec the superblock
    /// names.
    ///
    /// A device whose backing file is missing but which the health record
    /// still lists as healthy is demoted to failed (crash between a
    /// failure and its record, or manual file deletion).
    ///
    /// # Errors
    ///
    /// Fails on absent/corrupt metadata or unreadable integrity state.
    pub fn open(dir: &Path) -> Result<Self, Error> {
        let (mut meta, codec) = StoreMeta::load_with_codec(dir)?;
        let geometry = codec.geometry();
        let devices = DeviceSet::open(dir, geometry.n, geometry.r, meta.symbol, meta.stripes);
        let integrity = Integrity::load(dir, geometry.n, geometry.r, meta.stripes)?;
        for dev in 0..geometry.n {
            if !devices.is_present(dev) {
                integrity.update_health(|h| {
                    if h.devices[dev] == DeviceState::Healthy {
                        h.devices[dev] = DeviceState::Failed;
                    }
                });
            }
        }
        let journal = Journal::open_or_create(dir, meta.symbol, meta.journal_segment)?;
        let was_clean = meta.clean_shutdown;
        meta.clean_shutdown = false;
        let store = Self::assemble(dir, meta, codec, devices, integrity, journal, was_clean)?;
        // Finish any commit a crash interrupted, then mark the store
        // live (the superblock now says `clean_shutdown 0`).
        store.replay_journal()?;
        store.shared.meta.save(dir)?;
        Ok(store)
    }

    /// [`StripeStore::open`] if `dir` holds a store (a superblock is
    /// present), else [`StripeStore::create`] with `opts` — the
    /// recovery-or-bootstrap entry point servers use, with the replay
    /// semantics of `open`.
    ///
    /// # Errors
    ///
    /// Propagates whichever of the two paths ran.
    pub fn open_or_create(dir: &Path, opts: &StoreOptions) -> Result<Self, Error> {
        if dir.join(crate::meta::META_FILE).exists() {
            Self::open(dir)
        } else {
            Self::create(dir, opts)
        }
    }

    /// Replays every whole journal record — rewriting the recorded
    /// post-image cells *and* their checksums (after a crash the
    /// on-disk checksum table is stale relative to any in-place writes
    /// that raced it) — then checkpoints, leaving the store scrub-clean
    /// and the journal empty. Idempotent: records are absolute post-
    /// images applied in append order.
    fn replay_journal(&self) -> Result<u64, Error> {
        let sh = &self.shared;
        let replayed = sh.journal.replay(|rec| {
            if rec.stripe >= sh.meta.stripes {
                // A record for a stripe this store cannot hold is not
                // replayable damage worth wedging the open over.
                return Ok(());
            }
            let _guard = self.lock_stripe(rec.stripe);
            if rec.encode {
                return self.replay_data_image(rec);
            }
            let devices = sh.integrity.device_states();
            let mut healed: Vec<(usize, usize, usize)> = Vec::new();
            for &((row, dev), data) in &rec.cells {
                if row >= sh.geometry.r || dev >= sh.geometry.n {
                    continue;
                }
                if devices[dev] == DeviceState::Failed {
                    continue; // lives on implicitly through parity
                }
                sh.devices.write_sector(dev, rec.stripe, row, data)?;
                sh.integrity.record(rec.stripe, row, dev, data);
                healed.push((rec.stripe, row, dev));
            }
            sh.integrity.update_health(|h| {
                for key in &healed {
                    h.bad_sectors.remove(key);
                }
            });
            Ok(())
        })?;
        sh.jrnl_replayed.add(replayed);
        // Make the replayed state durable and truncate the journal.
        sh.journal.checkpoint(|| {
            sh.devices.sync()?;
            sh.integrity.persist()
        })?;
        Ok(replayed)
    }

    /// Replays one data-image record (caller holds the stripe lock):
    /// rebuilds the stripe from the journaled data cells, recomputes
    /// parity, and persists every writable cell. The writer always
    /// journals the complete data-cell set; should a record somehow
    /// miss one, the current on-disk bytes stand in (best effort — an
    /// unreadable sector stays zero), keeping replay total.
    fn replay_data_image(&self, rec: &crate::journal::ReplayRecord<'_>) -> Result<(), Error> {
        let sh = &self.shared;
        let geom = &sh.geometry;
        let mut stripe = StripeBuf::new(geom.r, geom.n, sh.meta.symbol)?;
        let mut have: std::collections::BTreeMap<CellIdx, &[u8]> =
            rec.cells.iter().copied().collect();
        for &cell in &geom.data_cells {
            if let Some(data) = have.remove(&cell) {
                stripe.set_cell(cell, data);
            } else {
                let (row, dev) = cell;
                let _ = sh
                    .devices
                    .read_sector(dev, rec.stripe, row, stripe.cell_mut(cell))?;
            }
        }
        sh.codec.encode(&mut stripe)?;
        let targets = self.write_back_targets(&stripe, None);
        self.apply_write_back(rec.stripe, &targets)?;
        Ok(())
    }

    fn assemble(
        dir: &Path,
        meta: StoreMeta,
        codec: Box<dyn ErasureCode>,
        devices: DeviceSet,
        integrity: Integrity,
        mut journal: Journal,
        clean_shutdown: bool,
    ) -> Result<Self, Error> {
        let geometry = codec.geometry();
        let blocks = BlockMap::new(geometry.data_cells.clone(), meta.symbol, meta.stripes);
        let stripe_locks = (0..meta.stripes.clamp(1, 64))
            .map(|_| Mutex::new(()))
            .collect();
        let metrics = MetricsRegistry::new();
        journal.appends = metrics.counter("store.jrnl.appends");
        journal.checkpoints = metrics.counter("store.jrnl.checkpoints");
        Ok(StripeStore {
            shared: Arc::new(Shared {
                dir: dir.to_path_buf(),
                meta,
                codec,
                geometry,
                blocks,
                devices,
                integrity,
                journal,
                clean_shutdown,
                stripe_locks,
                locks_taken: metrics.counter("store.stripe_locks"),
                encode_passes: metrics.counter("store.encode_passes"),
                delta_update_calls: metrics.counter("store.delta_update_calls"),
                recover_passes: metrics.counter("store.recover_passes"),
                scrub_stripes_done: metrics.gauge("store.scrub.stripes_done"),
                repair_stripes_done: metrics.gauge("store.repair.stripes_done"),
                jrnl_replayed: metrics.counter("store.jrnl.replayed"),
                metrics,
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// The codec spec recorded in the superblock.
    pub fn codec_spec(&self) -> &CodecSpec {
        &self.shared.meta.codec
    }

    /// The codec's stripe geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.shared.geometry
    }

    /// The live codec (e.g. for planning custom recoveries).
    pub fn codec(&self) -> &dyn ErasureCode {
        self.shared.codec.as_ref()
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.shared.blocks.block_size()
    }

    /// Total logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.shared.blocks.capacity()
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.shared.meta.stripes
    }

    /// Data blocks per stripe.
    pub fn blocks_per_stripe(&self) -> usize {
        self.shared.blocks.blocks_per_stripe()
    }

    /// Current health and geometry summary.
    pub fn status(&self) -> StoreStatus {
        let health = self.shared.integrity.health();
        let by_state = |want: DeviceState| {
            health
                .devices
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == want)
                .map(|(j, _)| j)
                .collect::<Vec<_>>()
        };
        StoreStatus {
            codec: self.shared.meta.codec.clone(),
            capacity: self.capacity(),
            block_size: self.block_size(),
            stripes: self.stripe_count(),
            blocks_per_stripe: self.blocks_per_stripe(),
            failed_devices: by_state(DeviceState::Failed),
            rebuilding_devices: by_state(DeviceState::Rebuilding),
            known_bad_sectors: health.bad_sectors.len(),
            clean_shutdown: self.shared.clean_shutdown,
            replayed_records: self.shared.jrnl_replayed.get(),
        }
    }

    /// Persists the checksum table, health record, and device data,
    /// then truncates the journal — a full checkpoint: after `flush`
    /// returns, nothing depends on the journal any more.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn flush(&self) -> Result<(), Error> {
        let sh = &self.shared;
        sh.journal.checkpoint(|| {
            sh.devices.sync()?;
            sh.integrity.persist()
        })
    }

    // Stripe locks guard no data (`Mutex<()>` taken for mutual exclusion
    // only), so a poisoned lock — some worker panicked mid-stripe — is
    // safe to keep using: damage the panicking thread left on disk is
    // exactly what checksum verification and degraded reads already
    // handle. Propagating the panic instead would take down every thread
    // that later touches the same stripe (the serve path's cascade).
    pub(crate) fn lock_stripe(&self, stripe: usize) -> MutexGuard<'_, ()> {
        let locks = &self.shared.stripe_locks;
        self.shared.locks_taken.inc();
        locks[stripe % locks.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Locks every pool slot covering `stripes` at once, for a batch
    /// that holds its stripes from staging through group commit. The
    /// pool maps stripes by modulo, so two stripes can share a slot —
    /// slots are deduplicated and taken in ascending order (the one
    /// global order, making concurrent batches deadlock-free; single
    /// -stripe paths hold at most one slot and cannot form a cycle).
    pub(crate) fn lock_stripes(&self, stripes: &[usize]) -> Vec<MutexGuard<'_, ()>> {
        let locks = &self.shared.stripe_locks;
        let mut slots: Vec<usize> = stripes.iter().map(|s| s % locks.len()).collect();
        slots.sort_unstable();
        slots.dedup();
        self.shared.locks_taken.add(slots.len() as u64);
        slots
            .into_iter()
            .map(|s| {
                locks[s]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    }

    /// This store's `store.*` metrics: cumulative counts since the
    /// handle family opened (clones share them, so a handle cloned
    /// before traffic observes everything the others did), scrub and
    /// repair progress, and the live stripe count and journal fill.
    /// This is the per-instance half of
    /// [`BlockDevice::metrics`](stair_device::BlockDevice::metrics)
    /// (process-global GF kernel counters are added once by the caller,
    /// via [`gf_metrics`](crate::gf_metrics), so aggregating several
    /// stores does not multiply them).
    pub fn store_metrics(&self) -> stair_obs::MetricsSnapshot {
        let sh = &self.shared;
        let mut snap = sh.metrics.snapshot();
        snap.add_gauge("store.stripes", self.stripe_count() as i64);
        snap.add_gauge("store.jrnl.used_bytes", sh.journal.used_bytes() as i64);
        snap
    }

    /// Acquires every stripe lock, quiescing all stripe I/O. Safe against
    /// deadlock because stripe operations hold at most one stripe lock at
    /// a time and the locks are taken here in index order.
    fn lock_all_stripes(&self) -> Vec<MutexGuard<'_, ()>> {
        self.shared
            .stripe_locks
            .iter()
            .map(|l| l.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            .collect()
    }

    // ------------------------------------------------------------------
    // Failure surface
    // ------------------------------------------------------------------

    /// Declares device `dev` failed: the backing file is deleted and every
    /// sector of the device is treated as erased until repair.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Device`] for out-of-range indices.
    pub fn fail_device(&self, dev: usize) -> Result<(), Error> {
        if dev >= self.shared.geometry.n {
            return Err(Error::Device(format!(
                "device {dev} out of range (n={})",
                self.shared.geometry.n
            )));
        }
        // Quiesce all stripe I/O: removing the file mid write-back would
        // abort a write half-applied, leaving checksum-valid cells whose
        // parity no longer matches.
        let _all = self.lock_all_stripes();
        self.shared.devices.remove(dev)?;
        self.shared.integrity.update_health(|h| {
            h.devices[dev] = DeviceState::Failed;
            h.bad_sectors.retain(|&(_, _, d)| d != dev);
        });
        self.shared.integrity.persist()
    }

    /// Corrupts `len` consecutive sectors of `dev` starting at `(stripe,
    /// row)` by flipping bits on disk — a latent sector error / burst. The
    /// checksum table is deliberately left stale so the damage is only
    /// *detected* when a read or scrub verifies the sectors.
    ///
    /// # Errors
    ///
    /// Out-of-range coordinates or a failed device are rejected.
    pub fn corrupt_sectors(
        &self,
        dev: usize,
        stripe: usize,
        row: usize,
        len: usize,
    ) -> Result<(), Error> {
        let geom = &self.shared.geometry;
        let stripes = self.shared.meta.stripes;
        if dev >= geom.n || stripe >= stripes || row + len > geom.r {
            return Err(Error::OutOfRange(format!(
                "burst dev={dev} stripe={stripe} rows {row}..{} outside {}x{}x{}",
                row + len,
                stripes,
                geom.r,
                geom.n
            )));
        }
        let _guard = self.lock_stripe(stripe);
        let mut buf = vec![0u8; self.shared.meta.symbol];
        for k in row..row + len {
            match self.shared.devices.read_sector(dev, stripe, k, &mut buf)? {
                SectorRead::Missing => {
                    return Err(Error::Device(format!("device {dev} has no backing file")))
                }
                SectorRead::Ok => {}
            }
            for b in buf.iter_mut() {
                *b ^= 0xA5;
            }
            // check: persist-ok fault injection: deliberately un-journaled damage
            self.shared.devices.write_sector(dev, stripe, k, &buf)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads `len` bytes starting at logical byte `offset`, transparently
    /// reconstructing sectors lost to failed devices or latent damage.
    /// Each stripe's piece of the span is a one-op batch, so a call
    /// holds one stripe lock at a time.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if the span exceeds capacity;
    /// * [`Error::Unrecoverable`] if a needed stripe carries more damage
    ///   than the codec's coverage.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, Error> {
        let mut out = Vec::new();
        for (at, piece) in self.stripe_pieces(offset, len)? {
            let read = IoBatch::from(vec![IoOp::Read {
                offset: at,
                len: piece,
            }]);
            for result in self.submit(&read)?.results {
                match result {
                    OpResult::Read(data) if out.is_empty() => out = data,
                    OpResult::Read(data) => out.extend_from_slice(&data),
                    OpResult::Write(_) => {}
                }
            }
        }
        Ok(out)
    }

    /// Splits `[offset, offset + len)` at stripe boundaries into
    /// `(offset, len)` pieces, validating the span first.
    fn stripe_pieces(&self, offset: u64, len: usize) -> Result<Vec<(u64, usize)>, Error> {
        self.shared.blocks.block_span(offset, len)?;
        let stripe_bytes = (self.blocks_per_stripe() * self.block_size()) as u64;
        let end = offset + len as u64;
        let mut pieces = Vec::new();
        let mut at = offset;
        while at < end {
            let next = ((at / stripe_bytes + 1) * stripe_bytes).min(end);
            pieces.push((at, (next - at) as usize));
            at = next;
        }
        Ok(pieces)
    }

    /// Copies the overlap of `block` with the request window into `out`.
    pub(crate) fn copy_block(&self, block: usize, cell_data: &[u8], offset: u64, out: &mut [u8]) {
        let sym = self.block_size() as u64;
        let block_start = block as u64 * sym;
        let req_end = offset + out.len() as u64;
        let from = offset.max(block_start);
        let to = req_end.min(block_start + sym);
        let src = &cell_data[(from - block_start) as usize..(to - block_start) as usize];
        out[(from - offset) as usize..(to - offset) as usize].copy_from_slice(src);
    }

    /// Serves `blocks` of one stripe into `out` (the window of a read
    /// op starting at `offset`): the verified fast path when every
    /// wanted sector reads back clean, else a degraded read that
    /// reconstructs exactly the wanted cells.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn read_stripe_blocks_locked(
        &self,
        stripe_idx: usize,
        blocks: std::ops::Range<usize>,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), Error> {
        let sh = &self.shared;
        let devices = sh.integrity.device_states();

        // Fast path: every wanted sector reads back and verifies.
        let mut clean: Vec<(usize, Vec<u8>)> = Vec::with_capacity(blocks.len());
        let mut degraded = false;
        for block in blocks.clone() {
            let loc = sh.blocks.locate(block)?;
            let (row, dev) = loc.cell;
            if devices[dev] != DeviceState::Healthy {
                degraded = true;
                break;
            }
            let mut buf = vec![0u8; sh.meta.symbol];
            match sh.devices.read_sector(dev, stripe_idx, row, &mut buf)? {
                SectorRead::Ok if sh.integrity.verify(stripe_idx, row, dev, &buf) => {
                    clean.push((block, buf));
                }
                _ => {
                    degraded = true;
                    break;
                }
            }
        }
        if !degraded {
            for (block, buf) in clean {
                self.copy_block(block, &buf, offset, out);
            }
            return Ok(());
        }

        // Degraded path: assemble the stripe's full erasure set and let the
        // codec's planner reconstruct exactly the wanted cells.
        let (mut stripe, erased) = self.load_stripe_degraded(stripe_idx)?;
        let wanted: Vec<CellIdx> = blocks
            .clone()
            .map(|b| sh.blocks.locate(b).map(|l| l.cell))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .filter(|&c| erased.contains(c))
            .collect();
        if !wanted.is_empty() {
            let plan = sh
                .codec
                .plan_recover(&erased, &wanted)
                .map_err(|e| self.unrecoverable(stripe_idx, &erased, e))?;
            sh.codec.apply(&plan, &mut stripe)?;
            sh.recover_passes.inc();
        }
        for block in blocks {
            let (row, dev) = sh.blocks.locate(block)?.cell;
            let cell = stripe.cell((row, dev)).to_vec();
            self.copy_block(block, &cell, offset, out);
        }
        Ok(())
    }

    pub(crate) fn unrecoverable(&self, stripe: usize, erased: &ErasureSet, e: CodeError) -> Error {
        match e {
            CodeError::Unrecoverable(_) => Error::Unrecoverable {
                stripe,
                erased: erased.cells().to_vec(),
            },
            other => Error::Code(other),
        }
    }

    /// Reads the full stripe grid from disk, treating non-healthy devices,
    /// missing files, and checksum mismatches as erasures. Erased cells
    /// are zeroed; newly discovered damage is recorded in the health map.
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn load_stripe_degraded(
        &self,
        stripe_idx: usize,
    ) -> Result<(StripeBuf, ErasureSet), Error> {
        let sh = &self.shared;
        let geom = &sh.geometry;
        let mut stripe = StripeBuf::new(geom.r, geom.n, sh.meta.symbol)?;
        let devices = sh.integrity.device_states();
        let mut erased: Vec<CellIdx> = Vec::new();
        let mut newly_bad: Vec<(usize, usize, usize)> = Vec::new();
        for (dev, &state) in devices.iter().enumerate() {
            let dead = state != DeviceState::Healthy;
            for row in 0..geom.r {
                if dead {
                    erased.push((row, dev));
                    continue;
                }
                let buf = stripe.cell_mut((row, dev));
                match sh.devices.read_sector(dev, stripe_idx, row, buf)? {
                    SectorRead::Missing => erased.push((row, dev)),
                    SectorRead::Ok => {
                        if !sh.integrity.verify(stripe_idx, row, dev, buf) {
                            erased.push((row, dev));
                            if !sh.integrity.is_recorded_bad((stripe_idx, row, dev)) {
                                newly_bad.push((stripe_idx, row, dev));
                            }
                        }
                    }
                }
            }
        }
        stripe.erase(&erased);
        if !newly_bad.is_empty() {
            sh.integrity
                .update_health(|h| h.bad_sectors.extend(newly_bad));
        }
        Ok((stripe, ErasureSet::new(erased)))
    }

    /// Loads the stripe and, when anything was erased, restores every
    /// lost cell via a full recovery plan — the shape the write paths
    /// need before patching (parity deltas are computed against a
    /// consistent stripe). Returns the restored buffer plus the set
    /// that had been erased (its members now hold reconstructed
    /// contents).
    ///
    /// Callers must hold the stripe lock.
    pub(crate) fn load_stripe_restored(
        &self,
        stripe_idx: usize,
    ) -> Result<(StripeBuf, ErasureSet), Error> {
        let sh = &self.shared;
        let (mut stripe, erased) = self.load_stripe_degraded(stripe_idx)?;
        if !erased.is_empty() {
            let plan = sh
                .codec
                .plan(&erased)
                .map_err(|e| self.unrecoverable(stripe_idx, &erased, e))?;
            sh.codec.apply(&plan, &mut stripe)?;
            sh.recover_passes.inc();
        }
        Ok((stripe, erased))
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Writes `data` at logical byte `offset`. Each stripe's piece of
    /// the span is a one-op batch: partial blocks are merged
    /// read-modify-write, and each stripe takes either the
    /// full-re-encode or the parity-delta path, journaled before it is
    /// written in place.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if the span exceeds capacity;
    /// * [`Error::Unrecoverable`] when writing through a stripe whose
    ///   existing damage exceeds coverage.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, Error> {
        let mut total = WriteOutcome::default();
        for (at, piece) in self.stripe_pieces(offset, data.len())? {
            let from = (at - offset) as usize;
            let write = IoBatch::from(vec![IoOp::Write {
                offset: at,
                data: data[from..from + piece].to_vec(),
            }]);
            total.absorb(&self.submit(&write)?.write);
        }
        Ok(total)
    }

    /// The cells one stripe commit will persist: every non-`Failed`
    /// device's cell, optionally restricted to `only`. This is both
    /// the journal record's payload and the write-back's work list —
    /// computed once so the two can never disagree.
    pub(crate) fn write_back_targets<'s>(
        &self,
        stripe: &'s StripeBuf,
        only: Option<&std::collections::BTreeSet<CellIdx>>,
    ) -> Vec<(CellIdx, &'s [u8])> {
        let sh = &self.shared;
        let devices = sh.integrity.device_states();
        let mut targets: Vec<(CellIdx, &[u8])> = Vec::new();
        for row in 0..sh.geometry.r {
            for (dev, &state) in devices.iter().enumerate() {
                if let Some(set) = only {
                    if !set.contains(&(row, dev)) {
                        continue;
                    }
                }
                if state == DeviceState::Failed {
                    continue;
                }
                targets.push(((row, dev), stripe.cell((row, dev))));
            }
        }
        targets
    }

    /// The in-place leg of a commit: raw sector writes plus checksum
    /// recording, after the journal record covering `targets` is
    /// durable. Only `Failed` devices are skipped by the targets (their
    /// contents live on implicitly through parity); `Rebuilding`
    /// replacements *must* be written, otherwise a write landing on a
    /// stripe the repair pass has already rebuilt would be lost when
    /// the device is promoted back to healthy. Rewritten cells are
    /// removed from the bad-sector map. Callers are the batch group
    /// commit (journal-first) and journal replay (already durable);
    /// the `persist-ordering` lint keeps it that way.
    pub(crate) fn apply_write_back(
        &self,
        stripe_idx: usize,
        targets: &[(CellIdx, &[u8])],
    ) -> Result<std::collections::BTreeSet<CellIdx>, Error> {
        let sh = &self.shared;
        let mut written: std::collections::BTreeSet<CellIdx> = std::collections::BTreeSet::new();
        for &((row, dev), cell) in targets {
            sh.devices.write_sector(dev, stripe_idx, row, cell)?;
            sh.integrity.record(stripe_idx, row, dev, cell);
            written.insert((row, dev));
        }
        sh.integrity.update_health(|h| {
            for &(row, dev) in &written {
                h.bad_sectors.remove(&(stripe_idx, row, dev));
            }
        });
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 6,
        }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn create_open_reports_geometry() {
        let dir = tmpdir("geom");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        // 8×4 grid, m=2, s=4 → 4·6−4 = 20 data blocks per stripe.
        assert_eq!(store.blocks_per_stripe(), 20);
        assert_eq!(store.capacity(), 20 * 6 * 64);
        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.stripe_count(), 6);
        assert_eq!(store.codec_spec().to_string(), "stair:8,4,2,1-1-2");
        assert!(store.status().failed_devices.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_validates_scalar_geometry() {
        // Regression: zero symbol/stripes must fail at creation time, not
        // only when the superblock is reparsed on open.
        for (symbol, stripes) in [(0usize, 6usize), (64, 0)] {
            let dir = tmpdir(&format!("badgeom-{symbol}-{stripes}"));
            let opts = StoreOptions {
                symbol,
                stripes,
                ..small_opts()
            };
            match StripeStore::create(&dir, &opts) {
                Err(Error::Meta(_)) => {}
                Err(other) => panic!("expected Meta error, got {other:?}"),
                Ok(_) => panic!("degenerate geometry must not create"),
            }
            // Nothing may have been created on disk.
            assert!(!dir.exists(), "failed create must not leave files");
        }
    }

    #[test]
    fn write_read_round_trip_clean() {
        let dir = tmpdir("rt");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 3);
        let report = store.write_at(0, &payload).unwrap();
        assert_eq!(report.full_stripe_encodes, 6);
        assert_eq!(report.delta_updates, 0);
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        // Unaligned window.
        assert_eq!(
            store.read_at(100, 999).unwrap(),
            payload[100..1099].to_vec()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_write_takes_delta_path_and_persists() {
        let dir = tmpdir("delta");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let base = pattern(store.capacity() as usize, 7);
        store.write_at(0, &base).unwrap();
        // Overwrite 100 bytes straddling a block boundary.
        let patch = pattern(100, 99);
        let report = store.write_at(30, &patch).unwrap();
        assert_eq!(report.full_stripe_encodes, 0);
        assert!(report.delta_updates >= 2);
        assert_eq!(report.bytes, 100);
        let mut expected = base.clone();
        expected[30..130].copy_from_slice(&patch);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        // Reopen: changes survived.
        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        // Lose m = 2 devices holding patched data blocks: the read must
        // rebuild them from parity, which proves the delta path
        // patched the parity too.
        let lost: Vec<usize> = (0..2)
            .map(|b| store.shared.blocks.locate(b).unwrap().cell.1)
            .collect();
        assert_ne!(lost[0], lost[1], "blocks 0 and 1 share a device");
        for dev in lost {
            store.fail_device(dev).unwrap();
        }
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_read_after_device_failures_and_burst() {
        let dir = tmpdir("degraded");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 11);
        store.write_at(0, &payload).unwrap();
        // Kill m = 2 devices and corrupt a 2-sector burst elsewhere.
        store.fail_device(1).unwrap();
        store.fail_device(5).unwrap();
        store.corrupt_sectors(3, 2, 2, 2).unwrap();
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_continue_through_degraded_stripes() {
        let dir = tmpdir("degwrite");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 13);
        store.write_at(0, &payload).unwrap();
        store.fail_device(0).unwrap();
        let patch = pattern(64, 42);
        store.write_at(64, &patch).unwrap(); // block 1 of stripe 0
        let mut expected = payload.clone();
        expected[64..128].copy_from_slice(&patch);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_beyond_coverage_is_reported() {
        let dir = tmpdir("beyond");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let payload = pattern(store.capacity() as usize, 17);
        store.write_at(0, &payload).unwrap();
        // m = 2 covers two failed devices; a third is fatal.
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();
        store.fail_device(2).unwrap();
        match store.read_at(0, 64) {
            Err(Error::Unrecoverable { stripe, .. }) => assert_eq!(stripe, 0),
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let dir = tmpdir("oor");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        assert!(matches!(
            store.read_at(store.capacity(), 1),
            Err(Error::OutOfRange(_))
        ));
        assert!(matches!(
            store.write_at(store.capacity() - 1, &[0, 0]),
            Err(Error::OutOfRange(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_write_boundaries_at_exact_capacity_and_zero_length() {
        let dir = tmpdir("bounds");
        let store = StripeStore::create(&dir, &small_opts()).unwrap();
        let cap = store.capacity() as usize;
        let payload = pattern(cap, 23);
        store.write_at(0, &payload).unwrap();
        // Exact-capacity read and write succeed.
        assert_eq!(store.read_at(0, cap).unwrap(), payload);
        let full = pattern(cap, 24);
        store.write_at(0, &full).unwrap();
        assert_eq!(store.read_at(0, cap).unwrap(), full);
        // Reads/writes ending exactly at capacity succeed.
        let tail = pattern(100, 25);
        store.write_at(store.capacity() - 100, &tail).unwrap();
        assert_eq!(store.read_at(store.capacity() - 100, 100).unwrap(), tail);
        // Zero-length I/O at 0, mid-store, and exactly at capacity is a
        // no-op, not an error.
        for off in [0, 77, store.capacity()] {
            assert_eq!(store.read_at(off, 0).unwrap(), Vec::<u8>::new());
            let report = store.write_at(off, &[]).unwrap();
            assert_eq!(report, WriteOutcome::default());
        }
        // One byte past capacity is out of range even for len 1.
        assert!(store.read_at(store.capacity(), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
