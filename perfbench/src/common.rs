//! Pieces every workload shares: seeded inputs, exact percentiles,
//! process counters, the benchmark's span wrapper, kernel unit costs,
//! and the result record.

use std::cell::Cell;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stair_code::{CodecSpec, ErasureSet, StripeBuf};
use stair_device::{
    BatchResult, BlockDevice, DeviceError, DeviceStatus, IoBatch, RepairOutcome, ScrubOutcome,
    WriteOutcome,
};
use stair_gf::{Field, Gf8};
use stair_obs::MetricsSnapshot;

/// The codec every workload runs (the store's default geometry).
pub const CODEC: &str = "stair:8,16,2,1-2";
/// Sector size = logical block size.
pub const SYMBOL: usize = 4096;
pub const MIB: f64 = 1024.0 * 1024.0;

pub fn codec_spec() -> CodecSpec {
    CODEC.parse().expect("the benchmark codec spec parses")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// splitmix64: the one generator behind every seeded input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes several words into one seed.
pub fn mix(words: &[u64]) -> u64 {
    let mut rng = Rng::new(0x5EED);
    for &w in words {
        rng.0 ^= w;
        rng.next_u64();
    }
    rng.next_u64()
}

/// The bytes generation `gen` of item `key` holds under `seed`. Writers
/// and verifiers both call this, so the shadow copy of the data is just
/// the generation number of each item.
pub fn payload(seed: u64, key: u64, gen: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(mix(&[seed, key, gen]));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Exact nearest-rank percentile of sorted samples.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency samples of one op type, in nanoseconds.
#[derive(Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 / 1e9
    }

    /// Nearest-rank percentile in microseconds.
    pub fn pct_us(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q) as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
        }
    }
}

/// `/proc/self/io` counters; all zero where the file is unreadable.
#[derive(Clone, Copy, Default)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcIo {
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| {
            text.lines()
                .find_map(|l| {
                    l.strip_prefix(name)?
                        .strip_prefix(": ")?
                        .trim()
                        .parse()
                        .ok()
                })
                .unwrap_or(0)
        };
        ProcIo {
            rchar: field("rchar"),
            wchar: field("wchar"),
            syscr: field("syscr"),
            syscw: field("syscw"),
        }
    }

    pub fn since(&self, before: &ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - before.rchar,
            wchar: self.wchar - before.wchar,
            syscr: self.syscr - before.syscr,
            syscw: self.syscw - before.syscw,
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

/// Counter delta between two metrics snapshots.
pub fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Count and sum of a histogram's samples added between two snapshots.
pub fn hist_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let total = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count(), h.sum));
    let (c1, s1) = total(after);
    let (c0, s0) = total(before);
    (c1 - c0, s1 - s0)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

thread_local! {
    /// Nanoseconds this thread spent inside [`Timed`] calls.
    static BELOW_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds the calling thread has spent below the [`Timed`]
/// boundary so far; the difference across an outer call is the part of
/// that call spent in the layers beneath.
pub fn below_ns() -> u64 {
    BELOW_NS.with(Cell::get)
}

/// The benchmark's span at a layer boundary: forwards every call to
/// `inner`, and while switched on times each read and write.
pub struct Timed<D> {
    inner: D,
    on: AtomicBool,
    pub reads: Mutex<Samples>,
    pub writes: Mutex<Samples>,
}

impl<D: BlockDevice> Timed<D> {
    pub fn new(inner: D) -> Self {
        Timed {
            inner,
            on: AtomicBool::new(false),
            reads: Mutex::default(),
            writes: Mutex::default(),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn timed<T>(&self, samples: Option<&Mutex<Samples>>, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed();
        BELOW_NS.with(|c| c.set(c.get() + d.as_nanos() as u64));
        if let Some(s) = samples {
            s.lock().expect("sample lock poisoned").push(d);
        }
        out
    }
}

impl<D: BlockDevice> BlockDevice for Timed<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.timed(Some(&self.reads), || self.inner.read_at(offset, len))
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, DeviceError> {
        self.timed(Some(&self.writes), || self.inner.write_at(offset, data))
    }
    fn submit(&self, batch: &IoBatch) -> Result<BatchResult, DeviceError> {
        self.timed(None, || self.inner.submit(batch))
    }
    fn flush(&self) -> Result<(), DeviceError> {
        self.inner.flush()
    }
    fn status(&self) -> Result<DeviceStatus, DeviceError> {
        self.inner.status()
    }
    fn scrub(&self, threads: usize) -> Result<ScrubOutcome, DeviceError> {
        self.inner.scrub(threads)
    }
    fn repair(&self, threads: usize) -> Result<RepairOutcome, DeviceError> {
        self.inner.repair(threads)
    }
    fn metrics(&self) -> Result<MetricsSnapshot, DeviceError> {
        self.inner.metrics()
    }
}

/// Median seconds per call of `f`, over batches of calls lasting at
/// least ~20 ms each.
fn unit_cost_s(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((0.02 / once) as usize).clamp(1, 1 << 20);
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median_f64(&batches)
}

/// Unit costs of the public kernels the store calls, timed on the
/// workload geometry.
pub struct Kernels {
    pub encode_us: f64,
    pub decode_us: f64,
    pub update_us: f64,
    pub checksum_gbps: f64,
    pub region_gbps: f64,
}

/// Times `encode`, `plan` + `apply` for `erased`, `update`,
/// `fletcher32` over one sector and `Gf8::mult_xor_region` over one
/// sector.
pub fn kernel_costs(seed: u64, erased: &ErasureSet) -> Kernels {
    let code = stair_store::build_codec(&codec_spec()).expect("benchmark codec builds");
    let g = code.geometry();
    let mut stripe = StripeBuf::new(g.r, g.n, SYMBOL).expect("stripe shape");
    for (i, &cell) in g.data_cells.iter().enumerate() {
        stripe.set_cell(cell, &payload(seed, i as u64, 0, SYMBOL));
    }
    let encode = unit_cost_s(|| code.encode(black_box(&mut stripe)).expect("encode"));
    let decode = unit_cost_s(|| {
        let plan = code.plan(black_box(erased)).expect("pattern is covered");
        code.apply(&plan, black_box(&mut stripe)).expect("apply");
    });
    let cell = g.data_cells[0];
    let fresh = payload(seed, u64::MAX, 1, SYMBOL);
    let update = unit_cost_s(|| {
        code.update(black_box(&mut stripe), cell, &fresh)
            .expect("update");
    });
    let sector = payload(seed, 1, 1, SYMBOL);
    let checksum = unit_cost_s(|| {
        black_box(stair_store::checksum::fletcher32(black_box(&sector)));
    });
    let mut dst = payload(seed, 2, 1, SYMBOL);
    let region = unit_cost_s(|| Gf8::mult_xor_region(black_box(&mut dst), &sector, Gf8::elem(7)));
    Kernels {
        encode_us: encode * 1e6,
        decode_us: decode * 1e6,
        update_us: update * 1e6,
        checksum_gbps: SYMBOL as f64 / checksum / 1e9,
        region_gbps: SYMBOL as f64 / region / 1e9,
    }
}

/// This run's scratch root, `.perfbench_work/<pid>` under the working
/// directory.
fn scratch_root() -> PathBuf {
    std::env::current_dir()
        .expect("working directory")
        .join(".perfbench_work")
        .join(std::process::id().to_string())
}

/// A fresh directory for one set-up. Nothing under the scratch root is
/// deleted before the run ends: deleting hundreds of MiB makes the file
/// system discard blocks while later phases are being timed.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = scratch_root().join(tag);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Removes this run's scratch root, and `.perfbench_work` once no other
/// run uses it.
pub fn remove_scratch() {
    let root = scratch_root();
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Call accounting plus the outcome of every byte comparison.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Counts one call; `Some` on success.
    pub fn call<T>(&mut self, r: Result<T, DeviceError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("call failed: {e}");
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.wrong += 1;
            eprintln!("wrong bytes: {what}");
        }
    }
}

/// What one run prints.
pub struct Report {
    pub tally: Tally,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(tally: Tally) -> Self {
        Report {
            tally,
            metrics: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}
