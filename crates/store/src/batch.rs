//! The stripe store's one data path: `stair_device::IoBatch` made
//! concrete. Every read and write runs through [`StripeStore::submit`]
//! — `read_at`/`write_at` submit each stripe's piece of their span as
//! a one-op batch.
//!
//! The batch is grouped **per stripe** first, so even 64 small writes
//! landing in the same stripe cost, per touched stripe:
//!
//! * **one** lock acquisition,
//! * **one** re-encode-vs-parity-delta decision — writes covering every
//!   byte of the stripe rebuild it in memory and encode once (no old
//!   state read at all); anything less loads + restores the stripe
//!   once and patches only the dirty cells,
//! * **one** write-back and (per batch, not per stripe) **one**
//!   integrity persist.
//!
//! Reads in the batch ride along: a stripe that is only read serves the
//! verified fast path under the same single lock; a stripe that is also
//! written serves reads straight from the restored in-memory buffer.
//! Batches whose ops conflict (a write overlapping anything — see
//! [`IoBatch::has_conflicts`]) fall back to plain submission order,
//! where overlap semantics are trivially right.

use std::collections::BTreeSet;
use std::ops::Range;

use stair_code::{CellIdx, StripeBuf};
use stair_device::{seed_results, BatchResult, IoBatch, IoOp, OpResult, WriteOutcome};

use crate::{Error, StripeStore};

/// A stripe's journal payload: the cells to record, and whether they
/// form a full-stripe data image (parity recomputed at replay).
type JournalRecord<'a> = (Vec<(CellIdx, &'a [u8])>, bool);

/// One op's piece of a single stripe: which op, and which global blocks.
struct Fragment {
    op: usize,
    blocks: Range<usize>,
}

/// A stripe staged in memory (encoded, results recorded) whose
/// write-back is deferred to the batch's group commit: all records are
/// journaled under one fsync, then every stripe persists in place.
struct StagedWrite {
    stripe_idx: usize,
    stripe: StripeBuf,
    /// Cells to persist — `None` persists the full stripe (a whole
    /// -stripe re-encode), `Some` only the patched set.
    touched: Option<BTreeSet<CellIdx>>,
}

impl StripeStore {
    /// Submits a scatter-gather batch, grouping ops per stripe so every
    /// touched stripe is locked once and pays a single
    /// re-encode-vs-parity-delta decision.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if any op's span exceeds capacity — the
    ///   whole batch is validated up front, before any side effects;
    /// * [`Error::Unrecoverable`] when a needed stripe carries more
    ///   damage than the codec's coverage. Every stripe is staged in
    ///   memory before the group commit writes anything, so such a
    ///   stripe aborts the whole batch with nothing written (a
    ///   conflicting batch runs op by op instead, and the ops before
    ///   the failing one stay applied).
    pub fn submit(&self, batch: &IoBatch) -> Result<BatchResult, Error> {
        if batch.has_conflicts() {
            // The fallback mutates op by op, so validate the whole
            // batch before any side effects.
            for op in batch.ops() {
                self.shared.blocks.block_span(op.offset(), op.byte_len())?;
            }
            return self.submit_in_order(batch);
        }
        let per = self.blocks_per_stripe();
        let mut results = seed_results(batch.ops());
        // Fragments grouped per stripe, submission order kept within
        // each group. Vec-of-groups (not a map) so group order is
        // ascending stripe index — deterministic lock order. Grouping
        // is side-effect-free, so span validation happens here: a
        // doomed batch still fails before anything executes.
        let mut groups: Vec<(usize, Vec<Fragment>)> = Vec::new();
        for (i, op) in batch.ops().iter().enumerate() {
            let span = self.shared.blocks.block_span(op.offset(), op.byte_len())?;
            let mut block = span.start;
            while block < span.end {
                let stripe = block / per;
                let stripe_end = ((stripe + 1) * per).min(span.end);
                let frag = Fragment {
                    op: i,
                    blocks: block..stripe_end,
                };
                match groups.binary_search_by_key(&stripe, |(s, _)| *s) {
                    Ok(at) => groups[at].1.push(frag),
                    Err(at) => groups.insert(at, (stripe, vec![frag])),
                }
                block = stripe_end;
            }
        }
        // Locks for every touched stripe are held from staging through
        // the group commit — the pool dedupes shared slots and orders
        // them, see `lock_stripes`.
        let stripes: Vec<usize> = groups.iter().map(|(s, _)| *s).collect();
        let _guards = {
            let _lock = stair_obs::trace::span(stair_obs::trace::names::STORE_LOCK);
            self.lock_stripes(&stripes)
        };
        let mut staged: Vec<StagedWrite> = Vec::new();
        for (stripe, frags) in &groups {
            if let Some(stage) = self.stage_stripe(*stripe, frags, batch, &mut results)? {
                staged.push(stage);
            }
        }
        if !staged.is_empty() {
            self.group_commit(&staged)?;
            let _persist = stair_obs::trace::span(stair_obs::trace::names::STORE_PERSIST);
            self.shared.integrity.persist()?;
        }
        Ok(BatchResult::from_results(results))
    }

    /// The batch's single durability point: every staged stripe's
    /// record lands in the journal under **one** fsync (group commit),
    /// then every stripe is persisted in place. The guard spans all
    /// the in-place writes, so a checkpoint can never rewind a record
    /// whose sector writes are still in flight.
    fn group_commit(&self, staged: &[StagedWrite]) -> Result<(), Error> {
        let sh = &self.shared;
        let targets: Vec<Vec<(CellIdx, &[u8])>> = staged
            .iter()
            .map(|s| self.write_back_targets(&s.stripe, s.touched.as_ref()))
            .collect();
        // A partial stage journals its exact write-back targets as
        // literal post-images. A full-stripe stage journals a **data
        // image** — only the data cells, parity recomputed at replay —
        // cutting the record to `k/n` of the stripe and with it the
        // bytes the commit fsync has to flush, while still persisting
        // every cell. Data cells on `Failed` devices are included (the
        // in-memory stripe knows their contents even when no disk
        // does), so replay re-encodes from a complete image.
        let records: Vec<JournalRecord> = staged
            .iter()
            .zip(&targets)
            .map(|(s, cells)| match s.touched {
                Some(_) => (cells.clone(), false),
                None => (
                    self.shared
                        .geometry
                        .data_cells
                        .iter()
                        .map(|&cell| (cell, s.stripe.cell(cell)))
                        .collect(),
                    true,
                ),
            })
            .collect();
        let reserve: Vec<usize> = records.iter().map(|(cells, _)| cells.len()).collect();
        let mut guard = sh.journal.begin(&reserve, || {
            sh.devices.sync()?;
            sh.integrity.persist()
        })?;
        if let Some(g) = guard.as_mut() {
            let _span = stair_obs::trace::span(stair_obs::trace::names::JRNL_APPEND);
            for (stage, (cells, encode)) in staged.iter().zip(&records) {
                g.append(stage.stripe_idx, cells, *encode)?;
            }
            g.sync()?;
        }
        for (stage, cells) in staged.iter().zip(&targets) {
            self.apply_write_back(stage.stripe_idx, cells)?;
        }
        drop(guard);
        Ok(())
    }

    /// The conflict fallback: ops one at a time, in submission order,
    /// each through `read_at`/`write_at` (one-op batches, which cannot
    /// conflict).
    fn submit_in_order(&self, batch: &IoBatch) -> Result<BatchResult, Error> {
        let mut results = Vec::with_capacity(batch.len());
        for op in batch.ops() {
            results.push(match op {
                IoOp::Read { offset, len } => OpResult::Read(self.read_at(*offset, *len)?),
                IoOp::Write { offset, data } => OpResult::Write(self.write_at(*offset, data)?),
            });
        }
        Ok(BatchResult::from_results(results))
    }

    /// Executes every fragment landing in one stripe (the caller holds
    /// the stripe's lock slot for the whole batch). Reads are served
    /// immediately; a written stripe is encoded in memory and returned
    /// for the batch's group commit.
    fn stage_stripe(
        &self,
        stripe_idx: usize,
        frags: &[Fragment],
        batch: &IoBatch,
        results: &mut [OpResult],
    ) -> Result<Option<StagedWrite>, Error> {
        let sh = &self.shared;
        let sym = self.block_size();
        let per = self.blocks_per_stripe();
        let _stripe = stair_obs::trace::span(stair_obs::trace::names::STORE_STRIPE);

        let mut write_bytes = 0u64;
        let mut first_write: Option<usize> = None;
        for f in frags {
            if batch.ops()[f.op].is_write() {
                write_bytes += self.fragment_bytes(&batch.ops()[f.op], &f.blocks);
                first_write.get_or_insert(f.op);
            }
        }
        let Some(first_write) = first_write else {
            // Read-only stripe: the verified fast path per fragment,
            // all under the one lock.
            for f in frags {
                let offset = batch.ops()[f.op].offset();
                let OpResult::Read(out) = &mut results[f.op] else {
                    // check: panic-ok planner invariant: read fragments index read results
                    unreachable!("read fragment indexed a write result")
                };
                self.read_stripe_blocks_locked(stripe_idx, f.blocks.clone(), offset, out)?;
            }
            return Ok(None);
        };

        // One re-encode-vs-parity-delta decision for the whole stripe.
        // Ops are disjoint here (conflicts took the fallback), so the
        // write fragments cover the full stripe exactly when their byte
        // lengths sum to it — and then no read fragment can exist in
        // this stripe, and no old state is needed.
        let full_cover = write_bytes == (per * sym) as u64;
        if full_cover {
            let geom = &sh.geometry;
            let mut stripe = StripeBuf::new(geom.r, geom.n, sym)?;
            for f in frags {
                let IoOp::Write { offset, data } = &batch.ops()[f.op] else {
                    // check: panic-ok full_cover arithmetic leaves no room for read fragments
                    unreachable!("full stripe cover leaves no room for reads")
                };
                for block in f.blocks.clone() {
                    let loc = sh.blocks.locate(block)?;
                    let (incoming, at) = self.incoming_for_block(block, *offset, data);
                    stripe.cell_mut(loc.cell)[at..at + incoming.len()].copy_from_slice(incoming);
                }
                let w = write_slot(results, f.op);
                w.bytes += self.fragment_bytes(&batch.ops()[f.op], &f.blocks);
                w.blocks_written += f.blocks.len() as u64;
            }
            {
                let _encode = stair_obs::trace::span(stair_obs::trace::names::STORE_ENCODE);
                sh.codec.encode(&mut stripe)?;
            }
            sh.encode_passes.inc();
            let w = write_slot(results, first_write);
            w.stripes_touched += 1;
            w.full_stripe_encodes += 1;
            return Ok(Some(StagedWrite {
                stripe_idx,
                stripe,
                touched: None,
            }));
        }

        // Partial: load + restore once, patch every dirty cell, serve
        // reads from the restored buffer, write back once.
        let _delta = stair_obs::trace::span(stair_obs::trace::names::STORE_DELTA);
        let (mut stripe, erased) = self.load_stripe_restored(stripe_idx)?;
        let mut touched: BTreeSet<CellIdx> = BTreeSet::new();
        for f in frags {
            match &batch.ops()[f.op] {
                IoOp::Write { offset, data } => {
                    for block in f.blocks.clone() {
                        let loc = sh.blocks.locate(block)?;
                        let (incoming, at) = self.incoming_for_block(block, *offset, data);
                        let mut contents = stripe.cell(loc.cell).to_vec();
                        contents[at..at + incoming.len()].copy_from_slice(incoming);
                        let patched = sh.codec.update(&mut stripe, loc.cell, &contents)?;
                        sh.delta_update_calls.inc();
                        touched.insert(loc.cell);
                        touched.extend(patched);
                        let w = write_slot(results, f.op);
                        w.blocks_written += 1;
                        w.delta_updates += 1;
                    }
                    write_slot(results, f.op).bytes +=
                        self.fragment_bytes(&batch.ops()[f.op], &f.blocks);
                }
                IoOp::Read { offset, .. } => {
                    // The restored buffer is fully verified, and reads
                    // are disjoint from the batch's writes, so patching
                    // cannot have changed the bytes a read wants.
                    let offset = *offset;
                    let OpResult::Read(out) = &mut results[f.op] else {
                        // check: panic-ok planner invariant: write fragments index write results
                        unreachable!("read fragment indexed a write result")
                    };
                    for block in f.blocks.clone() {
                        let cell = sh.blocks.locate(block)?.cell;
                        self.copy_block(block, stripe.cell(cell), offset, out);
                    }
                }
            }
        }
        // Erased cells were reconstructed by the restore; rewriting
        // them heals latent damage on writable devices for free.
        touched.extend(erased.iter());
        write_slot(results, first_write).stripes_touched += 1;
        Ok(Some(StagedWrite {
            stripe_idx,
            stripe,
            touched: Some(touched),
        }))
    }

    /// The byte window of `block` that overlaps a write of `data` at
    /// `offset`, as (slice of incoming data, start offset within the
    /// block).
    fn incoming_for_block<'d>(
        &self,
        block: usize,
        offset: u64,
        data: &'d [u8],
    ) -> (&'d [u8], usize) {
        let sym = self.block_size() as u64;
        let block_start = block as u64 * sym;
        let from = offset.max(block_start);
        let to = (offset + data.len() as u64).min(block_start + sym);
        (
            &data[(from - offset) as usize..(to - offset) as usize],
            (from - block_start) as usize,
        )
    }

    /// Bytes of `op` that fall inside the fragment's block range.
    fn fragment_bytes(&self, op: &IoOp, blocks: &Range<usize>) -> u64 {
        let sym = self.block_size() as u64;
        let from = op.offset().max(blocks.start as u64 * sym);
        let to = op.end().min(blocks.end as u64 * sym);
        to - from
    }
}

fn write_slot(results: &mut [OpResult], i: usize) -> &mut WriteOutcome {
    match &mut results[i] {
        OpResult::Write(w) => w,
        // check: panic-ok planner invariant: write fragments index write results
        OpResult::Read(_) => unreachable!("write fragment indexed a read result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreOptions, StripeStore};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-batch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// How much counter `name` grew between two `store_metrics()`
    /// snapshots.
    fn grew(
        before: &stair_obs::MetricsSnapshot,
        after: &stair_obs::MetricsSnapshot,
        name: &str,
    ) -> u64 {
        after.counter(name).unwrap() - before.counter(name).unwrap()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
            .collect()
    }

    fn small_store(tag: &str) -> (PathBuf, StripeStore, Vec<u8>) {
        let dir = tmpdir(tag);
        let store = StripeStore::create(
            &dir,
            &StoreOptions {
                code: "stair:8,4,2,1-1-2".parse().unwrap(),
                symbol: 64,
                stripes: 6,
            },
        )
        .unwrap();
        let base = pattern(store.capacity() as usize, 3);
        store.write_at(0, &base).unwrap();
        (dir, store, base)
    }

    #[test]
    fn mixed_batch_matches_per_op_semantics() {
        let (dir, store, base) = small_store("mixed");
        let sym = store.block_size() as u64;
        let mut batch = IoBatch::new();
        // Reads and writes spread over several stripes, including
        // unaligned spans and a cross-stripe write.
        batch
            .read(10, 100)
            .write(3 * sym, pattern(64, 50))
            .read(19 * sym + 5, 130) // crosses the stripe 0 → 1 boundary
            .write(22 * sym + 7, pattern(200, 51)) // stripe 1, unaligned
            .write(40 * sym - 30, pattern(60, 52)); // crosses stripe 1 → 2
        assert!(!batch.has_conflicts());
        let result = store.submit(&batch).unwrap();
        assert_eq!(result.results.len(), 5);

        // Expected state: base with the writes applied.
        let mut expected = base.clone();
        for op in batch.ops() {
            if let IoOp::Write { offset, data } = op {
                let at = *offset as usize;
                expected[at..at + data.len()].copy_from_slice(data);
            }
        }
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);

        // Read results hold the pre-batch bytes (reads are disjoint
        // from the batch's writes, so pre == post on those spans).
        let OpResult::Read(got) = &result.results[0] else {
            panic!("op 0 is a read")
        };
        assert_eq!(got, &expected[10..110]);
        let OpResult::Read(got) = &result.results[2] else {
            panic!("op 2 is a read")
        };
        let at = (19 * sym + 5) as usize;
        assert_eq!(got, &expected[at..at + 130]);

        // Aggregate write outcome counts every written byte exactly once.
        assert_eq!(result.write.bytes, 64 + 200 + 60);
        assert!(result.write.stripes_touched >= 3);

        // Durability: the batch's single persist survives reopen.
        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_stripe_batch_of_writes_pays_one_lock_and_one_parity_pass() {
        // The acceptance geometry: rs:5,16,1 has (5−1)·16 = 64 data
        // blocks per stripe, so 64 single-block writes tile stripe 0.
        let dir = tmpdir("onepass");
        let store = StripeStore::create(
            &dir,
            &StoreOptions {
                code: "rs:5,16,1".parse().unwrap(),
                symbol: 16,
                stripes: 2,
            },
        )
        .unwrap();
        assert_eq!(store.blocks_per_stripe(), 64);
        let sym = store.block_size() as u64;

        let mut batch = IoBatch::new();
        let mut expected = vec![0u8; (64 * sym) as usize];
        // Submission order deliberately scrambled: grouping, not the
        // caller's ordering, must find the single-stripe structure.
        for k in 0..64u64 {
            let block = (k * 37) % 64;
            let data = pattern(sym as usize, block as u8);
            expected[(block * sym) as usize..((block + 1) * sym) as usize].copy_from_slice(&data);
            batch.write(block * sym, data);
        }

        let before = store.store_metrics();
        let result = store.submit(&batch).unwrap();
        let after = store.store_metrics();

        // Exactly one stripe-lock acquisition and one codec pass for
        // all 64 writes; zero per-cell delta updates.
        assert_eq!(grew(&before, &after, "store.stripe_locks"), 1);
        assert_eq!(grew(&before, &after, "store.encode_passes"), 1);
        assert_eq!(grew(&before, &after, "store.delta_update_calls"), 0);

        // The pass is attributed exactly once across per-op outcomes.
        assert_eq!(result.write.full_stripe_encodes, 1);
        assert_eq!(result.write.stripes_touched, 1);
        assert_eq!(result.write.blocks_written, 64);
        assert_eq!(result.write.bytes, 64 * sym);

        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_same_stripe_batch_locks_once_and_deltas_per_block() {
        let (dir, store, base) = small_store("partial");
        let sym = store.block_size() as u64;
        // 4 of the 20 blocks of stripe 0, plus a read from the same
        // stripe: one lock, one load, four delta updates, no encode.
        let mut batch = IoBatch::new();
        for k in 0..4u64 {
            batch.write(k * 2 * sym, pattern(sym as usize, 60 + k as u8));
        }
        batch.read(9 * sym, sym as usize);
        let before = store.store_metrics();
        let result = store.submit(&batch).unwrap();
        let after = store.store_metrics();
        assert_eq!(grew(&before, &after, "store.stripe_locks"), 1);
        assert_eq!(grew(&before, &after, "store.encode_passes"), 0);
        assert_eq!(grew(&before, &after, "store.delta_update_calls"), 4);
        assert_eq!(result.write.delta_updates, 4);
        assert_eq!(result.write.stripes_touched, 1);
        let OpResult::Read(got) = &result.results[4] else {
            panic!("op 4 is a read")
        };
        assert_eq!(got, &base[(9 * sym) as usize..(10 * sym) as usize]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conflicting_batch_applies_in_submission_order() {
        let (dir, store, base) = small_store("conflict");
        // Two overlapping writes plus a read of the overlap region
        // *after* both: the read must see the second write's bytes.
        let a = pattern(100, 70);
        let b = pattern(100, 71);
        let mut batch = IoBatch::new();
        batch
            .write(50, a.clone())
            .write(100, b.clone())
            .read(50, 150);
        assert!(batch.has_conflicts());
        let result = store.submit(&batch).unwrap();
        let mut expected = base.clone();
        expected[50..150].copy_from_slice(&a);
        expected[100..200].copy_from_slice(&b);
        let OpResult::Read(got) = &result.results[2] else {
            panic!("op 2 is a read")
        };
        assert_eq!(got, &expected[50..200]);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_on_a_degraded_stripe_restores_heals_and_serves_reads() {
        let (dir, store, base) = small_store("degraded");
        let sym = store.block_size() as u64;
        store.fail_device(1).unwrap();
        let mut batch = IoBatch::new();
        batch
            .write(0, pattern(sym as usize, 80))
            .read(5 * sym, (2 * sym) as usize);
        let before = store.store_metrics();
        let result = store.submit(&batch).unwrap();
        let after = store.store_metrics();
        // One restore pass covered both the write patching and the read.
        assert_eq!(grew(&before, &after, "store.recover_passes"), 1);
        assert_eq!(grew(&before, &after, "store.stripe_locks"), 1);
        let OpResult::Read(got) = &result.results[1] else {
            panic!("op 1 is a read")
        };
        assert_eq!(got, &base[(5 * sym) as usize..(7 * sym) as usize]);
        let mut expected = base.clone();
        expected[..sym as usize].copy_from_slice(&pattern(sym as usize, 80));
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrecoverable_stripe_aborts_the_batch_before_anything_is_written() {
        let (dir, store, base) = small_store("unrecoverable");
        let sym = store.block_size() as u64;
        let stripe_bytes = store.blocks_per_stripe() as u64 * sym;
        // Wipe five of stripe 1's eight columns: far past m = 2 devices
        // plus the e = (1, 1, 2) sector budget.
        for dev in 0..5 {
            store.corrupt_sectors(dev, 1, 0, 4).unwrap();
        }
        let mut batch = IoBatch::new();
        batch
            .write(0, pattern(sym as usize, 90))
            .read(stripe_bytes, stripe_bytes as usize);
        match store.submit(&batch) {
            Err(Error::Unrecoverable { stripe, .. }) => assert_eq!(stripe, 1),
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        // Stripe 0 was staged, never committed: it reads back as it was.
        assert_eq!(
            store.read_at(0, stripe_bytes as usize).unwrap(),
            &base[..stripe_bytes as usize]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_out_of_range_batches() {
        let (dir, store, _) = small_store("edge");
        let result = store.submit(&IoBatch::new()).unwrap();
        assert!(result.results.is_empty());
        assert_eq!(result.write, WriteOutcome::default());
        // One bad op poisons the whole batch before any side effects.
        let mut batch = IoBatch::new();
        batch.write(0, vec![1, 2, 3]).read(store.capacity(), 1);
        match store.submit(&batch) {
            Err(Error::OutOfRange(_)) => {}
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        // The in-range write of the failed batch was not applied.
        assert_ne!(store.read_at(0, 3).unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
