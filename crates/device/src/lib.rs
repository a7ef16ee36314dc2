//! `stair-device`: one object-safe API over every storage backend.
//!
//! PRs 1–3 grew three parallel storage surfaces — the local
//! [`StripeStore`], the in-process sharded `ShardSet`, and the TCP
//! `Client` — that each re-declared
//! `read_at`/`write_at`/`status`/`scrub`/`repair` with divergent
//! receivers, error types, and report structs. This crate is the layer
//! that collapses them, exactly as `stair-code`'s `ErasureCode` trait
//! did for the codecs one level down:
//!
//! * **[`BlockDevice`]** — the object-safe data-path trait
//!   (`read_at`/`write_at`/`submit`/`flush`/`status`/`scrub`/`repair`),
//!   all on `&self`, all `Send + Sync`, so any backend works behind
//!   `Arc<dyn BlockDevice>`;
//! * **[`IoBatch`] / [`IoOp`] / [`BatchResult`]** — the scatter-gather
//!   batch types behind `submit`: many ops named up front so a backend
//!   can group them (per stripe locally, per shard remotely) instead of
//!   paying per-op locks, codec passes, and round trips;
//! * **[`FaultAdmin`]** — the fault-injection split
//!   (`fail_device`/`corrupt_sectors`); kept separate because remote or
//!   production deployments may refuse admin operations;
//! * **[`DeviceError`]** — the one error enum every backend's failures
//!   convert into (`stair_store::Error` and `stair_net::NetError`
//!   provide `From` impls);
//! * **[`DeviceStatus`]** / **[`WriteOutcome`]** / **[`ScrubOutcome`]**
//!   / **[`RepairOutcome`]** — unified report types every backend
//!   returns ([`WriteOutcome`] is also what the store's batch path and
//!   the wire's BATCH replies carry, so a write has one report type
//!   end to end);
//! * **[`DeviceSpec`]** — the URI-style grammar (`file:<dir>`,
//!   `shards:<root>?n=4`, `tcp:<addr>`) naming a backend; the
//!   `open_device()` registry in `stair-net` turns a spec into a live
//!   `Box<dyn BlockDevice>`, mirroring `stair_store::build_codec()`.
//!
//! * **[`Instrumented`]** — a wrapper recording per-op and per-batch
//!   latency, byte counts, and slow ops for any backend into a
//!   `stair-obs` registry; [`BlockDevice::metrics`] surfaces the
//!   combined snapshot.
//!
//! This crate depends only on `stair-obs` (itself dependency-free):
//! backends depend on it, not the other way round, so future layers
//! (write-back caches, replicas, async frontends) can slot in behind
//! the same trait without touching the existing engines.
//!
//! [`StripeStore`]: https://docs.rs/stair-store

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod batch;
mod error;
mod instrument;
mod report;
mod spec;

pub use api::{AdminDevice, BlockDevice, FaultAdmin};
pub use batch::{seed_results, BatchResult, IoBatch, IoOp, OpResult};
pub use error::DeviceError;
pub use instrument::Instrumented;
pub use report::{
    CacheTierStatus, DeviceStatus, RepairOutcome, ScrubOutcome, ShardHealth, WriteOutcome,
};
pub use spec::{DeviceSpec, CACHE_DEFAULT_INTERVAL_MS, CACHE_DEFAULT_MB};
