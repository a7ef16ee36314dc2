//! Trait-conformance suite: the *same* generic scripts run unchanged
//! against every `BlockDevice` backend — a local `StripeStore`
//! (`file:`), an in-process `ShardSet` (`shards:`), and a loopback TCP
//! `Client` (`tcp:`) — and must observe identical
//! behavior: round-trip reads, degraded reads after injected faults,
//! scrub detection, online repair, and a consistent status shape.
//!
//! Backends are opened through the `open_device` / `open_admin`
//! registry from `DeviceSpec` strings, so the specs' whole life cycle
//! (parse → open → exercise) is covered.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stair_device::{AdminDevice, BlockDevice, DeviceError, DeviceSpec};
use stair_net::{open_admin, open_device, Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::{StoreOptions, StripeStore};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-conform-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> StoreOptions {
    StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 8,
    }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(seed * 97) % 251) as u8)
        .collect()
}

/// The generic clean-path conformance script: write, read back (whole
/// device, unaligned sub-spans, boundary cases), flush, status, scrub.
/// Passes unchanged against every backend.
fn exercise(dev: &dyn BlockDevice) {
    let capacity = dev.capacity() as usize;
    assert!(capacity > 0);
    assert!(dev.block_size() > 0);

    let payload = pattern(capacity, 5);
    let w = dev.write_at(0, &payload).expect("write");
    assert_eq!(w.bytes as usize, capacity);
    assert!(w.stripes_touched > 0);
    assert_eq!(dev.read_at(0, capacity).expect("read"), payload);

    // Unaligned sub-span and boundary reads.
    assert_eq!(
        dev.read_at(1001, 2003).expect("sub-span"),
        payload[1001..3004].to_vec()
    );
    assert_eq!(dev.read_at(capacity as u64, 0).expect("empty"), vec![]);
    assert!(
        dev.read_at(capacity as u64 - 1, 2).is_err(),
        "read past capacity must fail"
    );

    // A small overwrite lands (delta or re-encode is the backend's
    // choice; the data must come back either way).
    let patch = pattern(100, 9);
    dev.write_at(300, &patch).expect("patch");
    assert_eq!(dev.read_at(300, 100).expect("patched read"), patch);

    dev.flush().expect("flush");
    let status = dev.status().expect("status");
    assert!(!status.shards.is_empty());
    assert_eq!(
        status.capacity,
        status.shards.iter().map(|s| s.capacity).sum::<u64>()
    );
    assert!(status.healthy(), "fresh device must be healthy: {status:?}");
    // Journal recovery fields must read identically across backends: a
    // freshly created store has a clean history and replayed nothing.
    for (i, s) in status.shards.iter().enumerate() {
        assert!(
            s.clean_shutdown,
            "shard {i}: a fresh store's previous close is clean"
        );
        assert_eq!(s.replayed_records, 0, "shard {i}: nothing to replay");
    }

    let scrub = dev.scrub(2).expect("scrub");
    assert!(scrub.clean(), "{scrub:?}");
    assert!(scrub.sectors_verified > 0);
}

/// The generic fault script: fail a device + corrupt a sector burst,
/// degraded-read the exact original bytes, watch status go unhealthy,
/// scrub-detect, repair online, scrub clean again.
fn exercise_faults(dev: &dyn BlockDevice, admin: &dyn stair_device::FaultAdmin, shard: usize) {
    let capacity = dev.capacity() as usize;
    let payload = pattern(capacity, 11);
    dev.write_at(0, &payload).expect("seed write");

    admin.fail_device(shard, 3).expect("fail device");
    admin
        .corrupt_sectors(shard, 5, 2, 1, 2)
        .expect("corrupt burst");

    let status = dev.status().expect("status");
    assert!(!status.healthy());
    assert_eq!(status.shards[shard].failed_devices, vec![3]);

    // Degraded reads reconstruct the exact original bytes.
    assert_eq!(dev.read_at(0, capacity).expect("degraded read"), payload);

    // Scrub finds the burst (the failed device is skipped, reported
    // unavailable).
    let scrub = dev.scrub(2).expect("scrub degraded");
    assert!(!scrub.clean());
    assert_eq!(scrub.mismatches, 2, "{scrub:?}");

    // Online repair heals everything; scrub then reports clean.
    let repair = dev.repair(2).expect("repair");
    assert!(repair.complete(), "{repair:?}");
    assert!(repair.devices_replaced >= 1);
    let scrub = dev.scrub(2).expect("scrub clean");
    assert!(scrub.clean(), "{scrub:?}");
    assert!(dev.status().expect("status").healthy());
    assert_eq!(dev.read_at(0, capacity).expect("repaired read"), payload);
}

/// Spawns a server over fresh shards; returns (addr, run-thread, dir).
fn start_server(
    tag: &str,
    shards: usize,
) -> (
    String,
    std::thread::JoinHandle<Result<(), NetError>>,
    std::path::PathBuf,
) {
    let dir = tmpdir(tag);
    let set = ShardSet::create(&dir, shards, &opts()).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, dir)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<Result<(), NetError>>) {
    Client::connect(addr)
        .expect("admin")
        .shutdown_server()
        .expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn file_backend_conforms() {
    let dir = tmpdir("file");
    StripeStore::create(&dir, &opts()).expect("create store");
    let spec: DeviceSpec = format!("file:{}", dir.display()).parse().unwrap();
    let dev = open_device(&spec).expect("open file device");
    exercise(dev.as_ref());
    drop(dev);
    let admin = open_admin(&spec).expect("open file admin");
    exercise_faults(admin.as_ref(), admin.as_ref(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shards_backend_conforms() {
    let dir = tmpdir("shards");
    ShardSet::create(&dir, 3, &opts()).expect("create shards");
    let spec: DeviceSpec = format!("shards:{}?n=3", dir.display()).parse().unwrap();
    let admin = open_admin(&spec).expect("open shards device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tcp_backend_conforms() {
    let (addr, handle, dir) = start_server("tcp", 2);
    let spec: DeviceSpec = format!("tcp:{addr}").parse().unwrap();
    let admin = open_admin(&spec).expect("open tcp device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 1);
    drop(admin);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cache tier must be invisible to the conformance scripts: the
/// same clean-path and fault scripts run unchanged over `cache:file:`.
/// The fault script in particular proves coherence — degraded,
/// post-scrub, and post-repair reads must never serve a stale frame.
#[test]
fn cache_file_backend_conforms() {
    let dir = tmpdir("cache-file");
    StripeStore::create(&dir, &opts()).expect("create store");
    let spec: DeviceSpec = format!("cache:file:{}?mb=1", dir.display())
        .parse()
        .unwrap();
    let dev = open_device(&spec).expect("open cached file device");
    exercise(dev.as_ref());
    drop(dev);
    let admin = open_admin(&spec).expect("open cached file admin");
    exercise_faults(admin.as_ref(), admin.as_ref(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Same over the wire: `cache:tcp:` composes the tier over a remote
/// client, and the fault scripts still see exact bytes.
#[test]
fn cache_tcp_backend_conforms() {
    let (addr, handle, dir) = start_server("cache-tcp", 2);
    let spec: DeviceSpec = format!("cache:tcp:{addr}?mb=1").parse().unwrap();
    let admin = open_admin(&spec).expect("open cached tcp device");
    exercise(admin.as_ref());
    exercise_faults(admin.as_ref(), admin.as_ref(), 1);
    drop(admin);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Repair-then-read staleness: warm the cache, damage the device,
/// repair it, and verify the read tier never serves the frames it
/// cached before the repair (the generation bump must drop them).
#[test]
fn cache_never_serves_stale_frames_after_repair() {
    let dir = tmpdir("cache-stale");
    StripeStore::create(&dir, &opts()).expect("create store");
    let spec: DeviceSpec = format!("cache:file:{}?mb=1", dir.display())
        .parse()
        .unwrap();
    let admin = open_admin(&spec).expect("open cached admin");
    let capacity = admin.capacity() as usize;

    let payload = pattern(capacity, 41);
    admin.write_at(0, &payload).expect("seed");
    // Warm every frame the budget allows, then fault the device.
    assert_eq!(admin.read_at(0, capacity).expect("warm"), payload);
    admin.fail_device(0, 3).expect("fail");
    admin.corrupt_sectors(0, 5, 2, 1, 2).expect("corrupt");
    // Degraded reads reconstruct — and must not be the warm frames
    // blindly replayed (the fault bumped the generation, so these are
    // fresh fills through the degraded path).
    let tier_before = admin.status().expect("status").cache.expect("cache tier");
    assert_eq!(admin.read_at(0, capacity).expect("degraded"), payload);
    admin.repair(2).expect("repair");
    let tier_after = admin.status().expect("status").cache.expect("cache tier");
    assert!(
        tier_after.generation > tier_before.generation,
        "repair must advance the cache generation ({tier_before:?} -> {tier_after:?})"
    );
    assert_eq!(admin.read_at(0, capacity).expect("repaired"), payload);
    let scrub = admin.scrub(2).expect("scrub");
    assert!(scrub.clean(), "{scrub:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write-back over the wire: absorbed writes ack volatile, a flush
/// makes them durable, and bytes stay identical to the uncached view.
#[test]
fn cache_write_back_tcp_round_trips_after_flush() {
    let (addr, handle, dir) = start_server("cache-wb", 2);
    let spec: DeviceSpec = format!("cache:tcp:{addr}?mb=1&wb=on&interval_ms=0")
        .parse()
        .unwrap();
    let dev = open_device(&spec).expect("open wb cached device");
    let capacity = dev.capacity() as usize;
    let payload = pattern(capacity, 57);
    dev.write_at(0, &payload).expect("absorbed write");
    // Read-your-write before any drain.
    assert_eq!(dev.read_at(0, capacity).expect("staged read"), payload);
    dev.flush().expect("drain + flush");
    drop(dev);
    // A second, uncached client sees the identical bytes.
    let plain = open_device(&format!("tcp:{addr}").parse().unwrap()).expect("plain client");
    assert_eq!(plain.read_at(0, capacity).expect("uncached read"), payload);
    drop(plain);
    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A span crossing the placement wrap boundary — the end of shard k-1's
/// first range into shard 0's second range — must read and write
/// identically through the trait, both in-process and over the wire.
#[test]
fn cross_shard_boundary_spans_round_trip() {
    let shards = 3;
    let dir = tmpdir("wrap");
    let set = ShardSet::create(&dir, shards, &opts()).expect("create shards");
    // One placement range = one stripe of data blocks.
    let range_bytes = set.placement().range_blocks() * set.block_size();
    drop(set);

    // Ranges 0..k map round-robin onto shards 0..k-1 then wrap: global
    // range k-1 lives on shard k-1, range k on shard 0. A span
    // straddling that edge touches the last and first shard in one
    // request.
    let wrap = (shards * range_bytes) as u64;
    let span_start = wrap - (range_bytes / 2) as u64;
    let span_len = range_bytes; // half in shard k-1, half in shard 0
    let check = |label: &str, dev: &dyn BlockDevice| {
        let payload = pattern(span_len, 23 + label.len() as u64);
        let w = dev.write_at(span_start, &payload).expect("wrap write");
        assert_eq!(w.bytes as usize, span_len, "{label}");
        assert_eq!(
            dev.read_at(span_start, span_len).expect("wrap read"),
            payload,
            "{label}: cross-shard span must round-trip"
        );
        // An unaligned read inside the wrapped span.
        assert_eq!(
            dev.read_at(span_start + 7, span_len - 13).expect("inner"),
            payload[7..span_len - 6].to_vec(),
            "{label}"
        );
        dev.flush().expect("flush");
    };

    // In-process first; flush and drop before the server opens the same
    // files (each handle keeps its own in-memory checksum tables, so
    // two live handles on one root are not supported).
    let dev =
        open_device(&format!("shards:{}", dir.display()).parse().unwrap()).expect("open shards");
    check("shards", dev.as_ref());
    drop(dev);

    let set = ShardSet::open(&dir).expect("reopen shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let dev = open_device(&format!("tcp:{addr}").parse().unwrap()).expect("open tcp");
    check("tcp", dev.as_ref());
    drop(dev);

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite regression: a `Client` is `Send + Sync` behind its
/// connection mutex, so one shared `Arc<dyn BlockDevice>` may serve
/// many threads concurrently — every thread's writes and reads must be
/// correct (they serialize on the connection, not on the caller).
#[test]
fn one_client_shared_across_threads() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 4;

    let (addr, handle, dir) = start_server("shared", 2);
    let client: Arc<dyn BlockDevice> = Arc::new(Client::connect(&addr).expect("connect"));
    let capacity = client.capacity() as usize;
    let region = capacity / THREADS;
    assert!(region > 0);
    let mismatches = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let client = Arc::clone(&client);
            let mismatches = &mismatches;
            scope.spawn(move || {
                let offset = (t * region) as u64;
                for round in 0..ROUNDS {
                    let payload = pattern(region, (t * ROUNDS + round) as u64);
                    client.write_at(offset, &payload).expect("write");
                    let got = client.read_at(offset, region).expect("read");
                    if got != payload {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::Relaxed), 0);

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `open_device` failure modes: bad targets surface as clean
/// `DeviceError`s, and a shard-count assertion in the spec is honored.
#[test]
fn open_device_rejects_unusable_targets() {
    let dir = tmpdir("reject");
    std::fs::create_dir_all(&dir).unwrap();

    // file: on a directory with no store.
    let spec: DeviceSpec = format!("file:{}", dir.join("nothing").display())
        .parse()
        .unwrap();
    assert!(open_device(&spec).is_err());

    // shards: on an empty root.
    let spec: DeviceSpec = format!("shards:{}", dir.display()).parse().unwrap();
    assert!(open_device(&spec).is_err());

    // shards: with a wrong ?n= assertion.
    let root = dir.join("set");
    ShardSet::create(&root, 2, &opts()).expect("create");
    let spec: DeviceSpec = format!("shards:{}?n=5", root.display()).parse().unwrap();
    match open_device(&spec) {
        Err(DeviceError::Spec(msg)) => assert!(msg.contains("n=5"), "{msg}"),
        other => panic!("expected Spec error, got {:?}", other.err()),
    }
    // The right assertion opens.
    let spec: DeviceSpec = format!("shards:{}?n=2", root.display()).parse().unwrap();
    assert!(open_device(&spec).is_ok());

    // tcp: against a closed port.
    assert!(open_device(&"tcp:127.0.0.1:9".parse().unwrap()).is_err());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `AdminDevice` handle is usable as a plain `BlockDevice` too —
/// the blanket impl keeps one open per backend enough for both halves.
#[test]
fn admin_device_is_a_block_device() {
    fn takes_dev(_: &dyn BlockDevice) {}
    fn takes_admin(dev: &dyn AdminDevice) {
        takes_dev(dev);
    }
    let dir = tmpdir("blanket");
    StripeStore::create(&dir, &opts()).expect("create");
    let admin = open_admin(&format!("file:{}", dir.display()).parse().unwrap()).expect("open");
    takes_admin(admin.as_ref());
    std::fs::remove_dir_all(&dir).unwrap();
}
