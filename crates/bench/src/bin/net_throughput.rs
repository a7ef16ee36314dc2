//! Throughput harness for the stair-net service: MB/s and req/s over
//! the wire, for sequential and random reads and writes, at 1..N client
//! threads, clean vs degraded (one shard with a failed device) — the
//! end-to-end numbers every later scaling PR is measured against.
//!
//! The server runs in-process on a loopback port (ephemeral, `:0`);
//! every byte still crosses the full protocol stack: framing, request
//! pipelining, worker-pool dispatch, shard placement, and per-response
//! checksums. Each client thread owns one connection and a disjoint
//! region of the block space, so measurements are contention-free at
//! the data level and contend only where a real service would (socket,
//! worker pool, shard locks). The timing loops are the device-generic
//! driver (`stair_bench::driver`) shared with `store_throughput`: the
//! same code measures a local store and a TCP client, because both are
//! `BlockDevice`s.
//!
//! Flags: `--json <path>` additionally writes the machine-readable
//! report documented in `EXPERIMENTS.md`.
//!
//! Environment knobs: `STAIR_NET_MB` (logical capacity, default 4),
//! `STAIR_NET_SHARDS` (default 4), `STAIR_NET_CODE` (codec spec,
//! default `stair:8,16,2,1-2`), `STAIR_NET_THREADS` (comma list,
//! default `1,2,4`), `STAIR_NET_WORKERS` (server workers, default 4).

use stair_bench::driver::{measure_devices, measure_sampled_reads, DevMeasurement, DevOp, IoShape};
use stair_bench::zipf::{Dist, Sampler};
use stair_code::CodecSpec;
use stair_device::{BlockDevice, DeviceSpec};
use stair_net::json::{metrics_json, Json};
use stair_net::{open_device, Client, Server, ServerConfig, ShardSet};
use stair_store::{StoreOptions, StripeStore};

/// Sequential transfers go in 64 KiB requests; random ones in single
/// blocks (the small-write / small-read shape that exercises the
/// parity-delta path).
const SEQ_IO: usize = 64 * 1024;

/// Seed for the zipfian cache-phase sampler — fixed so the cached and
/// uncached runs replay the identical offset sequence.
const CACHE_SEED: u64 = 0x00C0_FFEE;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Measurement {
    phase: &'static str,
    op: &'static str,
    threads: usize,
    timing: DevMeasurement,
}

fn main() {
    stair_bench::trace_from_env();
    let json_path = parse_json_flag();
    let mb = env_usize("STAIR_NET_MB", 4);
    let shards = env_usize("STAIR_NET_SHARDS", 4).max(1);
    let workers = env_usize("STAIR_NET_WORKERS", 4).max(1);
    let code: CodecSpec = std::env::var("STAIR_NET_CODE")
        .unwrap_or_else(|_| "stair:8,16,2,1-2".into())
        .parse()
        .expect("bad STAIR_NET_CODE spec");
    let threads: Vec<usize> = std::env::var("STAIR_NET_THREADS")
        .unwrap_or_else(|_| "1,2,4".into())
        .split(',')
        .map(|t| t.trim().parse().expect("bad STAIR_NET_THREADS entry"))
        .collect();
    let symbol = 4096usize;

    // Size stripes-per-shard so total data capacity ≈ the requested MB.
    let dir = std::env::temp_dir().join(format!("stair-net-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probe_dir = dir.join("probe");
    let per_stripe = {
        let s = StripeStore::create(
            &probe_dir,
            &StoreOptions {
                code: code.clone(),
                symbol,
                stripes: 1,
            },
        )
        .expect("probe store");
        s.capacity() as usize
    };
    std::fs::remove_dir_all(&probe_dir).expect("clean probe");
    let stripes = (mb * 1024 * 1024).div_ceil(per_stripe * shards).max(2);
    let opts = StoreOptions {
        code: code.clone(),
        symbol,
        stripes,
    };

    let set = ShardSet::create(&dir, shards, &opts).expect("create shards");
    let capacity = set.capacity() as usize;
    let server = Server::bind("127.0.0.1:0", set, ServerConfig { workers }).expect("bind server");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());

    println!(
        "== net_throughput: {shards} shard(s) of {code}, {stripes} stripes each, {:.1} MiB total, {workers} server worker(s), symbol {symbol}",
        capacity as f64 / (1024.0 * 1024.0)
    );

    let shape = IoShape {
        seq_io: SEQ_IO,
        rand_io: symbol,
    };
    let mut results: Vec<Measurement> = Vec::new();
    let mut cache_summary = Json::Null;
    for phase in ["clean", "degraded"] {
        if phase == "degraded" {
            // The cache phase runs on the still-clean store (between
            // the two phases): the same zipfian single-block read
            // sequence against a plain `tcp:` client and a
            // `cache:tcp:` wrapper, bytes compared, hit rate pulled
            // from the cache's own counters.
            cache_summary = cache_phase(&addr, capacity, symbol, &mut results);
            // One whole device lost on shard 0: reads through that shard
            // reconstruct, writes keep flowing around it.
            let admin = Client::connect(&addr).expect("admin connect");
            admin.fail_device(0, 1).expect("fail device");
            println!("-- degraded: shard 0 lost device 1 --");
        }
        for &t in &threads {
            // One connection per thread, reused across warmup + timed.
            let clients: Vec<Client> = (0..t)
                .map(|_| Client::connect(&addr).expect("bench client"))
                .collect();
            let devs: Vec<&dyn BlockDevice> =
                clients.iter().map(|c| c as &dyn BlockDevice).collect();
            for op in [
                DevOp::SeqWrite,
                DevOp::SeqRead,
                DevOp::RandWrite,
                DevOp::RandRead,
            ] {
                let timing = measure_devices(&devs, op, capacity, shape, 1);
                println!(
                    "{:<9} {:<10} threads={t:<2}  MB/s={:>8.1}  req/s={:>9.1}  p50={:>7.0}us  p99={:>7.0}us",
                    phase,
                    op.name(),
                    timing.mb_per_s(),
                    timing.req_per_s(),
                    timing.lat_p50_us,
                    timing.lat_p99_us
                );
                results.push(Measurement {
                    phase,
                    op: op.name(),
                    threads: t,
                    timing,
                });
            }
        }
    }

    // Sanity: after all that traffic, a full read still verifies length
    // (contents are per-thread patterns; transport checksums verified
    // every response already).
    let admin = Client::connect(&addr).expect("admin");
    let got = admin.read_at(0, capacity).expect("final degraded read");
    assert_eq!(got.len(), capacity);

    // Pull the server's registry over the METRICS opcode — per-opcode
    // request counts, latency histograms, store counters — so the JSON
    // report carries the service's own view of the run.
    let server_metrics = admin.metrics().expect("server metrics");
    println!(
        "-- server metrics: {} write req, {} read req over the wire",
        server_metrics.counter("srv.req.write").unwrap_or(0),
        server_metrics.counter("srv.req.read").unwrap_or(0)
    );
    admin.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    if let Some(path) = json_path {
        let report = json_report(
            shards,
            &code,
            symbol,
            stripes,
            capacity,
            workers,
            &results,
            cache_summary,
            &server_metrics,
        );
        std::fs::write(&path, report.to_text()).expect("write --json report");
        println!("wrote JSON report to {path}");
    }
}

/// The cache-tier phase: the identical seeded zipfian single-block
/// read workload against a plain `tcp:` client and a `cache:tcp:`
/// wrapper over the same server. Returns the JSON summary (hit rate,
/// speedup, byte-equality) and pushes both timings into `results`.
fn cache_phase(addr: &str, capacity: usize, block: usize, results: &mut Vec<Measurement>) -> Json {
    let dist = Dist::Zipf(1.0);
    let slots = capacity / block;
    let ops = (slots * 2).max(2048);

    let plain = Client::connect(addr).expect("cache-phase plain client");
    let uncached = measure_sampled_reads(&plain, capacity, block, dist, CACHE_SEED, ops, 2);

    let spec: DeviceSpec = format!("cache:tcp:{addr}?mb=64")
        .parse()
        .expect("cache spec");
    let cached_dev = open_device(&spec).expect("open cache:tcp:");
    let cached = measure_sampled_reads(
        cached_dev.as_ref(),
        capacity,
        block,
        dist,
        CACHE_SEED,
        ops,
        2,
    );

    // Correctness before speed: the cached device must return the very
    // bytes the server holds, over the same sampled sequence.
    let mut sampler = Sampler::new(dist, slots, CACHE_SEED);
    for _ in 0..ops.min(512) {
        let at = (sampler.next_slot() * block) as u64;
        let want = plain.read_at(at, block).expect("uncached read");
        let got = cached_dev.read_at(at, block).expect("cached read");
        assert_eq!(want, got, "cache:tcp: returned different bytes at {at}");
    }

    let snap = cached_dev.metrics().expect("cache metrics");
    let hits = snap
        .counter(stair_obs::metric_names::CACHE_HIT)
        .unwrap_or(0);
    let misses = snap
        .counter(stair_obs::metric_names::CACHE_MISS)
        .unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let speedup = cached.req_per_s() / uncached.req_per_s().max(1e-9);
    println!(
        "-- cache: {dist} single-block reads  tcp:={:>9.0} req/s  cache:tcp:={:>9.0} req/s  x{speedup:.1}  hit rate {:.1}%",
        uncached.req_per_s(),
        cached.req_per_s(),
        100.0 * hit_rate
    );
    results.push(Measurement {
        phase: "cache",
        op: "zipf_read",
        threads: 1,
        timing: uncached,
    });
    results.push(Measurement {
        phase: "cache",
        op: "zipf_read_cached",
        threads: 1,
        timing: cached,
    });
    Json::obj([
        ("dist", Json::str(dist.to_string())),
        ("seed", Json::int(CACHE_SEED as usize)),
        ("ops_per_pass", Json::int(ops)),
        ("cache_mb", Json::int(64)),
        ("hits", Json::int(hits as usize)),
        ("misses", Json::int(misses as usize)),
        ("hit_rate", Json::Num(hit_rate)),
        ("speedup_vs_uncached", Json::Num(speedup)),
        ("bytes_identical", Json::Bool(true)),
    ])
}

/// `--json <path>` from argv (the only flag this harness takes).
fn parse_json_flag() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--json" => Some(path.clone()),
        other => {
            eprintln!("usage: net_throughput [--json <path>]   (got {other:?})");
            std::process::exit(2);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn json_report(
    shards: usize,
    code: &CodecSpec,
    symbol: usize,
    stripes: usize,
    capacity: usize,
    workers: usize,
    results: &[Measurement],
    cache_summary: Json,
    server_metrics: &stair_obs::MetricsSnapshot,
) -> Json {
    Json::obj([
        ("harness", Json::str("net_throughput")),
        (
            "config",
            Json::obj([
                ("shards", Json::int(shards)),
                ("code", Json::str(code.to_string())),
                ("symbol", Json::int(symbol)),
                ("stripes_per_shard", Json::int(stripes)),
                ("capacity_bytes", Json::int(capacity)),
                ("server_workers", Json::int(workers)),
                ("seq_io_bytes", Json::int(SEQ_IO)),
                ("rand_io_bytes", Json::int(symbol)),
            ]),
        ),
        (
            "results",
            Json::arr(results.iter().map(|m| {
                Json::obj([
                    ("phase", Json::str(m.phase)),
                    ("op", Json::str(m.op)),
                    ("threads", Json::int(m.threads)),
                    ("mb_per_s", Json::Num(m.timing.mb_per_s())),
                    ("req_per_s", Json::Num(m.timing.req_per_s())),
                    ("lat_p50_us", Json::Num(m.timing.lat_p50_us)),
                    ("lat_p99_us", Json::Num(m.timing.lat_p99_us)),
                    ("lat_max_us", Json::Num(m.timing.lat_max_us)),
                    ("bytes", Json::int(m.timing.bytes)),
                    ("requests", Json::int(m.timing.requests)),
                    ("seconds", Json::Num(m.timing.seconds)),
                ])
            })),
        ),
        ("cache", cache_summary),
        ("metrics", metrics_json(server_metrics)),
    ])
}
