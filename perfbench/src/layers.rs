//! The per-layer view of one traced phase. Every workload fills the
//! fields that apply to it; a layer a workload never enters reports 0.

use stair_code::CodecSpec;
use stair_obs::MetricsSnapshot;

use crate::common::{codec_spec, delta, hist_delta, ratio, Kernels, ProcIo, Report, Samples};

/// Raw measurements of one traced phase.
#[derive(Default)]
pub struct Layers {
    pub wall_s: f64,
    pub user_reads: u64,
    pub user_writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// `/proc/self/io` delta over the phase.
    pub io: ProcIo,
    // (a) benchmark spans.
    pub cache_self: Samples,
    pub client_reads: Samples,
    pub client_writes: Samples,
    pub stripe_load: Samples,
    // (b) program counters, as deltas over the phase.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evicts: u64,
    /// `(count, sum µs)` of the server's `srv.lat_us.read` / `.write`.
    pub server_read: (u64, u64),
    pub server_write: (u64, u64),
    pub stripe_locks: u64,
    pub jrnl_appends: u64,
    pub encode_passes: u64,
    pub delta_updates: u64,
    pub recover_passes: u64,
    /// `gf.mult_xors` while writing.
    pub write_mult_xors: u64,
    pub region_bytes: u64,
    /// Stripes rebuilt by `repair` (each one plan + apply).
    pub stripes_repaired: u64,
    pub scrub_s: f64,
    pub repair_s: f64,
    // (c) kernel unit costs.
    pub kernels: Option<Kernels>,
    /// `min(upstairs, downstairs)` Mult_XORs per stripe (§5.3).
    pub mult_xors_analytic: u64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// Takes the traced phase's user-visible calls.
    pub fn phase(&mut self, w: crate::Window) {
        self.wall_s = w.wall_s;
        self.user_reads = w.reads.len() as u64;
        self.user_writes = w.writes.len() as u64;
        self.read_bytes = w.read_bytes as u64;
        self.write_bytes = w.write_bytes as u64;
    }

    /// Fills the program-counter deltas that `metrics()` exports.
    pub fn count(&mut self, after: &MetricsSnapshot, before: &MetricsSnapshot) {
        self.stripe_locks += delta(after, before, "store.stripe_locks");
        self.jrnl_appends += delta(after, before, "store.jrnl.appends");
        self.encode_passes += delta(after, before, "store.encode_passes");
        self.delta_updates += delta(after, before, "store.delta_update_calls");
        self.recover_passes += delta(after, before, "store.recover_passes");
        self.region_bytes += delta(after, before, "gf.region_bytes");
        let (n, sum) = hist_delta(after, before, "srv.lat_us.read");
        self.server_read = (self.server_read.0 + n, self.server_read.1 + sum);
        let (n, sum) = hist_delta(after, before, "srv.lat_us.write");
        self.server_write = (self.server_write.0 + n, self.server_write.1 + sum);
    }

    /// Appends every per-layer metric to `report`, in the order
    /// `BENCHMARK.json` lists them.
    pub fn emit(&self, stripe_data_bytes: f64, report: &mut Report) {
        let ops = (self.user_reads + self.user_writes) as f64;
        let stripes_written = self.write_bytes as f64 / stripe_data_bytes;
        let stripes_read = self.read_bytes as f64 / stripe_data_bytes;
        let k = self.kernels.as_ref().expect("kernel costs measured");
        let (sr_n, sr_sum) = self.server_read;
        let (sw_n, sw_sum) = self.server_write;
        let server_read_us = ratio(sr_sum as f64, sr_n as f64);
        let server_write_us = ratio(sw_sum as f64, sw_n as f64);
        let wire = |client: &Samples, server_us: f64| {
            if client.len() == 0 {
                0.0
            } else {
                client.mean_us() - server_us
            }
        };
        let io = &self.io;
        let decodes = self.recover_passes + self.stripes_repaired;

        let lookups = (self.cache_hits + self.cache_misses) as f64;
        report.put(
            "cache.hit_ratio",
            ratio(self.cache_hits as f64, lookups),
            "ratio",
        );
        report.put("cache.self_us", self.cache_self.pct_us(0.5), "us");
        report.put(
            "cache.evict_per_op",
            ratio(self.cache_evicts as f64, ops),
            "1/op",
        );
        report.put("net.client_read_us", self.client_reads.pct_us(0.5), "us");
        report.put("net.client_write_us", self.client_writes.pct_us(0.5), "us");
        report.put("net.server_read_us", server_read_us, "us");
        report.put("net.server_write_us", server_write_us, "us");
        report.put(
            "net.wire_read_us",
            wire(&self.client_reads, server_read_us),
            "us",
        );
        report.put(
            "net.wire_write_us",
            wire(&self.client_writes, server_write_us),
            "us",
        );
        report.put("store.stripe_load_us", self.stripe_load.pct_us(0.5), "us");
        report.put(
            "store.read_amp",
            ratio(io.rchar as f64, self.read_bytes as f64),
            "ratio",
        );
        report.put(
            "store.write_amp",
            ratio(io.wchar as f64, self.write_bytes as f64),
            "ratio",
        );
        report.put(
            "store.syscalls_per_op",
            ratio((io.syscr + io.syscw) as f64, ops),
            "1/op",
        );
        report.put(
            "store.stripe_locks_per_op",
            ratio(self.stripe_locks as f64, ops),
            "1/op",
        );
        report.put("store.checksum_gbps", k.checksum_gbps, "GB/s");
        let sector_bytes = (io.rchar + io.wchar) as f64;
        report.put(
            "store.checksum_busy_frac",
            ratio(sector_bytes / (k.checksum_gbps * 1e9), self.wall_s),
            "ratio",
        );
        report.put(
            "store.jrnl.appends_per_write",
            ratio(self.jrnl_appends as f64, self.user_writes as f64),
            "1/op",
        );
        report.put("store.scrub_s", self.scrub_s, "s");
        report.put("store.repair_s", self.repair_s, "s");
        report.put("code.encode_us", k.encode_us, "us");
        report.put(
            "code.encode_passes_per_stripe",
            ratio(self.encode_passes as f64, stripes_written),
            "ratio",
        );
        report.put(
            "code.encode_busy_frac",
            ratio(k.encode_us * 1e-6 * self.encode_passes as f64, self.wall_s),
            "ratio",
        );
        report.put("code.update_us", k.update_us, "us");
        report.put(
            "code.delta_updates_per_write",
            ratio(self.delta_updates as f64, self.user_writes as f64),
            "1/op",
        );
        report.put("code.decode_us", k.decode_us, "us");
        report.put(
            "code.recover_passes_per_stripe",
            ratio(self.recover_passes as f64, stripes_read),
            "ratio",
        );
        report.put(
            "code.decode_busy_frac",
            ratio(k.decode_us * 1e-6 * decodes as f64, self.wall_s),
            "ratio",
        );
        report.put(
            "gf.mult_xors_per_stripe",
            ratio(self.write_mult_xors as f64, stripes_written),
            "count",
        );
        report.put(
            "gf.mult_xors_analytic",
            self.mult_xors_analytic as f64,
            "count",
        );
        report.put("gf.region_gbps", k.region_gbps, "GB/s");
        report.put(
            "gf.region_bytes_per_user_byte",
            ratio(
                self.region_bytes as f64,
                (self.read_bytes + self.write_bytes) as f64,
            ),
            "ratio",
        );
        report.put("obs.trace_overhead_frac", self.trace_overhead_frac, "ratio");
    }
}

/// `min(upstairs, downstairs)` from the closed forms of Eq. (5)/(6).
pub fn analytic_mult_xors() -> u64 {
    let CodecSpec::Stair { n, r, m, e } = codec_spec() else {
        panic!("the benchmark codec is a STAIR code");
    };
    let cfg = stair::Config::new(n, r, m, &e).expect("benchmark STAIR config");
    let counts = stair::MultXorCounts::analytic(&cfg);
    counts.upstairs.min(counts.downstairs) as u64
}
