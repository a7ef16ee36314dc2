//! End-to-end METRICS opcode test: counters are collected *server-side*
//! and pulled over the wire — a fresh client that issued none of the
//! traffic still sees the totals, which is what proves the snapshot
//! lives in the server's registry rather than in any client.

use stair_device::{BlockDevice, IoBatch};
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-net-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(
    tag: &str,
) -> (
    String,
    std::thread::JoinHandle<Result<(), NetError>>,
    std::path::PathBuf,
) {
    let dir = tmpdir(tag);
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 8,
    };
    let set = ShardSet::create(&dir, 2, &opts).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, dir)
}

#[test]
fn server_collects_per_opcode_metrics_served_over_the_wire() {
    let (addr, server, dir) = start_server("ops");
    let client = Client::connect(&addr).expect("connect");

    // Scripted traffic: writes, reads, a batch, and a scrub.
    let payload = vec![0xA5u8; 4096];
    client.write_at(0, &payload).expect("write");
    client.write_at(8192, &payload).expect("write");
    let got = client.read_at(0, 4096).expect("read");
    assert_eq!(got, payload);
    let mut batch = IoBatch::new();
    batch.write(16384, vec![7u8; 512]).read(0, 512);
    BlockDevice::submit(&client, &batch).expect("batch");
    client.scrub(2).expect("scrub");

    // Pull the snapshot through a *different* connection: the counters
    // must be server-side.
    let probe = Client::connect(&addr).expect("second connect");
    let snap = probe.metrics().expect("metrics");

    for name in [
        "srv.req.read",
        "srv.req.write",
        "srv.req.batch",
        "srv.req.scrub",
    ] {
        assert!(
            snap.counter(name).is_some_and(|v| v > 0),
            "{name} missing or zero in {:?}",
            snap.counters
        );
    }
    // Latency histograms populated for the hot opcodes.
    for name in ["srv.lat_us.read", "srv.lat_us.write"] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count() > 0, "{name} recorded no samples");
    }
    // Byte counters reflect the traffic (2 writes of 4096 + one 512 in
    // the batch's combined budget).
    assert!(snap.counter("srv.bytes.read").is_some_and(|v| v >= 4096));
    assert!(snap.counter("srv.bytes.write").is_some_and(|v| v >= 8192));
    // The store's folded counters and the process-global gf counters
    // travel in the same snapshot.
    assert!(snap.counter("store.stripe_locks").is_some_and(|v| v > 0));
    assert!(snap.counter("gf.mult_xors").is_some());
    // Connection accounting: both clients counted, both still open.
    assert!(snap
        .counter("srv.connections_total")
        .is_some_and(|v| v >= 2));
    assert!(snap.gauge("srv.connections").is_some_and(|v| v >= 1));

    // The BlockDevice surface returns the same snapshot shape.
    let via_trait = BlockDevice::metrics(&probe).expect("trait metrics");
    assert!(via_trait.counter("srv.req.metrics").is_some_and(|v| v >= 1));

    probe.shutdown_server().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn plain_reads_and_writes_are_one_op_batches_charged_by_direction() {
    // One shard, 4 KiB sectors: a 4 KiB aligned write is exactly one
    // data block of stripe 0.
    let dir = tmpdir("exact");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 4096,
        stripes: 2,
    };
    let set = ShardSet::create(&dir, 1, &opts).expect("create shard");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr).expect("connect");

    // Fill stripe 0, so the next small write patches a written stripe.
    let stripe_bytes = client.info().range_blocks as usize * 4096;
    client
        .write_at(0, &vec![0x3Cu8; stripe_bytes])
        .expect("fill");

    let delta =
        |before: &stair_obs::MetricsSnapshot, after: &stair_obs::MetricsSnapshot, name: &str| {
            after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
        };

    let before = client.metrics().expect("metrics");
    let w = client.write_at(4096, &[0xC3u8; 4096]).expect("4 KiB write");
    let after = client.metrics().expect("metrics");
    assert_eq!(delta(&before, &after, "srv.req.write"), 1);
    assert_eq!(delta(&before, &after, "srv.req.batch"), 0);
    assert_eq!(delta(&before, &after, "store.jrnl.appends"), 1);
    assert_eq!(delta(&before, &after, "store.delta_update_calls"), 1);
    assert_eq!(delta(&before, &after, "store.encode_passes"), 0);
    assert_eq!(
        (w.bytes, w.delta_updates, w.full_stripe_encodes),
        (4096, 1, 0)
    );

    let before = after;
    assert_eq!(
        client.read_at(4096, 4096).expect("4 KiB read"),
        [0xC3u8; 4096]
    );
    let after = client.metrics().expect("metrics");
    assert_eq!(delta(&before, &after, "srv.req.read"), 1);
    assert_eq!(delta(&before, &after, "store.jrnl.appends"), 0);

    client.shutdown_server().expect("shutdown");
    handle.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).unwrap();
}
