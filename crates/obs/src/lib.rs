//! Dependency-free observability for the stair stack.
//!
//! Three layers, all safe to hammer from many threads:
//!
//! * **[`MetricsRegistry`]** — named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log₂ latency [`Histogram`]s. Registration (name →
//!   handle) takes a lock once; the handles themselves are `Arc`-backed
//!   atomics, so the hot path is lock-free relaxed increments.
//! * **[`Journal`]** — a **slow-op capture**: ops whose duration
//!   reaches a configurable threshold are retained in a bounded ring
//!   as structured [`TraceEvent`]s (monotonic timestamp, op kind,
//!   shard, byte count, duration, outcome). Faster ops cost one atomic
//!   load and leave no record.
//! * **[`trace`]** — request-scoped span trees: every layer of one
//!   operation opens a named, timed span, context crosses threads and
//!   (via traced protocol frames) the wire, and completed traces land in a
//!   per-process [`FlightRecorder`] whose slow/errored ring survives
//!   the main ring's wrap.
//! * **[`MetricsSnapshot`]** — a point-in-time, plain-data copy of
//!   everything above. Snapshots merge (counters sum, histograms add
//!   bucket-wise), which is how per-shard and per-layer views fold into
//!   one report, and serialize trivially (the wire and JSON encodings
//!   live with the protocol/CLI, keeping this crate dependency-free).
//!
//! Histogram buckets are powers of two: bucket `i` holds values whose
//! bit width is `i` (bucket 0 = {0}, bucket 1 = {1}, bucket 2 = 2–3,
//! bucket 3 = 4–7, …). A quantile estimate returns the bucket's upper
//! bound clamped to the observed maximum, so estimates are exact to
//! within one bucket: `exact ≤ estimate < 2 × exact`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod journal;
mod registry;
mod snapshot;
pub mod trace;

pub use hist::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use journal::{Journal, TraceEvent, DEFAULT_SLOW_THRESHOLD_US};
pub use registry::{metric_names, Counter, Gauge, MetricsRegistry};
pub use snapshot::MetricsSnapshot;
pub use trace::{FlightRecorder, SpanCtx, SpanRecord, TraceRecord};
