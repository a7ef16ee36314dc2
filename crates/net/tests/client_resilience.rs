//! Client resilience regression tests: a connection killed between ops
//! must not surface as a hard error on idempotent requests — the
//! client reconnects and retries once. Plain writes never auto-retry;
//! *batched* writes do (the frame carries a batch id and the server
//! journals the post-images, so redelivery is safe). The dropped
//! connection always heals on the next call.

use std::path::PathBuf;

use stair_net::protocol::PROTOCOL_VERSION;
use stair_net::{Client, NetError, Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-resil-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(43).wrapping_add(seed))
        .collect()
}

#[test]
fn idempotent_ops_survive_a_killed_connection_writes_do_not_retry() {
    let dir = tmpdir("kill");
    let set = ShardSet::create(
        &dir,
        2,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    let client = Client::connect(&addr).expect("connect");
    let capacity = client.capacity() as usize;
    let base = pattern(capacity, 3);
    client.write_at(0, &base).expect("base write");

    // Kill the server side of the socket between ops: the next read
    // hits a transport error internally, reconnects, retries once, and
    // succeeds — the caller never sees the failure.
    handle.disconnect_all();
    assert_eq!(
        client.read_at(0, 500).expect("read after kill"),
        base[..500]
    );

    // Status and a read-only batch ride the same retry path.
    handle.disconnect_all();
    assert_eq!(client.status().expect("status after kill").len(), 2);
    handle.disconnect_all();
    let mut batch = stair_device::IoBatch::new();
    batch.read(100, 64).read(1000, 64);
    let result = client.submit(&batch).expect("batch after kill");
    assert_eq!(result.results.len(), 2);

    // A write after a kill is NOT auto-retried: the caller sees the
    // transport error and decides. (The write may or may not have
    // reached the server; deciding to reissue is the caller's call.)
    handle.disconnect_all();
    match client.write_at(0, &pattern(64, 9)) {
        Err(NetError::Io(_)) => {}
        other => panic!("expected a transport error for the un-retried write, got {other:?}"),
    }
    // …but the connection healed: the very next ops work, including
    // the reissued write.
    client.write_at(0, &pattern(64, 9)).expect("reissued write");
    let mut expected = base.clone();
    expected[..64].copy_from_slice(&pattern(64, 9));
    assert_eq!(client.read_at(0, 500).expect("verify"), expected[..500]);

    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn write_batches_retry_over_a_killed_connection() {
    let dir = tmpdir("batchretry");
    let set = ShardSet::create(
        &dir,
        2,
        &StoreOptions {
            code: "stair:8,4,2,1-1-2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    let client = Client::connect(&addr).expect("connect");
    assert_eq!(client.info().version, PROTOCOL_VERSION);
    let capacity = client.capacity() as usize;
    let base = pattern(capacity, 7);
    client.write_at(0, &base).expect("base write");

    // Kill the connection, then submit a batch *containing writes*:
    // the client reconnects and reissues the frames
    // (same batch ids), so the caller never sees the dead socket.
    handle.disconnect_all();
    let w1 = pattern(64, 21);
    let w2 = pattern(64, 22);
    let mut batch = stair_device::IoBatch::new();
    batch
        .write(0, w1.clone())
        .write(640, w2.clone())
        .read(0, 64);
    let result = client.submit(&batch).expect("write batch after kill");
    assert_eq!(result.results.len(), 3);
    let mut expected = base.clone();
    expected[..64].copy_from_slice(&w1);
    expected[640..704].copy_from_slice(&w2);
    assert_eq!(
        client.read_at(0, 704).expect("verify"),
        expected[..704],
        "acknowledged batch writes must be durable after the retry"
    );

    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("run");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
