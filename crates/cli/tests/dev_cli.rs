//! End-to-end test of the `stair dev` CLI surface: the same verbs
//! driven by `--dev` specs against a local store and a served shard
//! set, with byte-identical data and identical JSON shapes across
//! backends, plus clean errors for bad specs.

mod common;

use common::{run, spawn_server};

/// Runs the same write → fail → degraded read → scrub → repair → read
/// session through `stair dev`, returning the final status JSON. The
/// returned bytes must equal the input for every backend.
fn session(dev: &str, shard: &str, work: &std::path::Path, input: &std::path::Path) -> String {
    let tag = dev.split(':').next().unwrap();
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{dev} write: {out}");
    assert!(out.contains("stripes touched"), "{out}");

    let (ok, out) = run(&[
        "dev", "fail", "--dev", dev, "--shard", shard, "--device", "3",
    ]);
    assert!(ok, "{dev} fail: {out}");

    let degraded = work.join(format!("degraded-{tag}.bin"));
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        degraded.to_str().unwrap(),
    ]);
    assert!(ok, "{dev} read: {out}");
    assert!(out.contains("(degraded)"), "{out}");
    assert_eq!(
        std::fs::read(&degraded).unwrap(),
        std::fs::read(input).unwrap(),
        "{dev}: degraded read must return the original data"
    );

    let (ok, json) = run(&["dev", "scrub", "--dev", dev, "--threads", "2", "--json"]);
    assert!(ok, "{dev} scrub: {json}");
    assert!(json.contains("\"op\":\"scrub\""), "{json}");
    assert!(json.contains("\"clean\":false"), "{json}");

    let (ok, json) = run(&["dev", "repair", "--dev", dev, "--threads", "2", "--json"]);
    assert!(ok, "{dev} repair: {json}");
    assert!(json.contains("\"op\":\"repair\""), "{json}");
    assert!(json.contains("\"complete\":true"), "{json}");

    let healed = work.join(format!("healed-{tag}.bin"));
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        healed.to_str().unwrap(),
    ]);
    assert!(ok && out.contains("(clean)"), "{dev}: {out}");
    assert_eq!(
        std::fs::read(&healed).unwrap(),
        std::fs::read(input).unwrap(),
        "{dev}: post-repair read must return the original data"
    );

    let (ok, _) = run(&["dev", "flush", "--dev", dev]);
    assert!(ok, "{dev} flush");

    let (ok, json) = run(&["dev", "status", "--dev", dev, "--json"]);
    assert!(ok, "{dev} status: {json}");
    assert!(json.contains("\"healthy\":true"), "{json}");
    json
}

#[test]
fn dev_cli_runs_identical_sessions_on_file_and_tcp_backends() {
    let work = std::env::temp_dir().join(format!("stair-dev-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // Both backends get the same logical capacity: 16 stripes x 20
    // blocks x 128 bytes (one store with 16 stripes; two shards of 8).
    let capacity = 16 * 20 * 128usize;
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 17 % 249) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();

    let store_dir = work.join("store");
    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        store_dir.to_str().unwrap(),
        "--code",
        "stair:8,4,2,1-1-2",
        "--symbol",
        "128",
        "--stripes",
        "16",
    ]);
    assert!(ok, "{out}");
    let file_spec = format!("file:{}", store_dir.display());
    let file_json = session(&file_spec, "0", &work, &input);

    let root = work.join("net-root");
    let (mut server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let tcp_spec = format!("tcp:{addr}");
    let tcp_json = session(&tcp_spec, "1", &work, &input);

    // Omitting --shard on a multi-shard backend is refused (defaulting
    // to shard 0 would fault a shard the operator never named); a
    // single-store backend accepts the default.
    let (ok, out) = run(&["dev", "fail", "--dev", &tcp_spec, "--device", "0"]);
    assert!(!ok, "{out}");
    assert!(out.contains("--shard is required"), "{out}");

    let (ok, _) = run(&["dev", "shutdown", "--dev", &format!("tcp:{addr}")]);
    assert!(ok);
    assert!(server.wait().expect("server wait").success());

    // After shutdown the same root is usable in-process via shards:.
    let shards_spec = format!("shards:{}?n=2", root.display());
    let (ok, json) = run(&["dev", "status", "--dev", shards_spec.as_str(), "--json"]);
    assert!(ok, "{json}");
    assert!(json.contains("\"backend\":\"shards\""), "{json}");

    // The two backends produced identical data (both equal the input,
    // compare them to each other for good measure) and identical JSON
    // status shapes.
    assert_eq!(
        std::fs::read(work.join("healed-file.bin")).unwrap(),
        std::fs::read(work.join("healed-tcp.bin")).unwrap()
    );
    common::assert_same_status_shape(&file_json, &tcp_json);

    std::fs::remove_dir_all(&work).unwrap();
}

/// Replays one op-script through `stair dev batch`, returning the JSON.
fn replay(dev: &str, script: &std::path::Path) -> String {
    let (ok, json) = run(&[
        "dev",
        "batch",
        "--dev",
        dev,
        "--from",
        script.to_str().unwrap(),
    ]);
    assert!(ok, "{dev} batch: {json}");
    json
}

#[test]
fn dev_batch_replays_the_same_op_script_on_file_and_tcp() {
    let work = std::env::temp_dir().join(format!("stair-dev-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // An op-script with scattered writes, then reads of the same spans:
    // comments, blank lines, and an unaligned cross-block write.
    let script = work.join("ops.txt");
    std::fs::write(
        &script,
        "# batch smoke script\n\
         write 0 aabbccdd\n\
         write 256 00112233445566778899\n\
         \n\
         write 130 feedface # trailing comment\n\
         read 0 4\n\
         read 256 10\n\
         read 130 4\n",
    )
    .unwrap();

    let store_dir = work.join("store");
    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        store_dir.to_str().unwrap(),
        "--code",
        "stair:8,4,2,1-1-2",
        "--symbol",
        "128",
        "--stripes",
        "16",
    ]);
    assert!(ok, "{out}");
    let file_spec = format!("file:{}", store_dir.display());
    let file_json = replay(&file_spec, &script);

    let root = work.join("net-root");
    let (mut server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let tcp_spec = format!("tcp:{addr}");
    let tcp_json = replay(&tcp_spec, &script);

    // Reads echo exactly what the writes stored, on both backends.
    for json in [&file_json, &tcp_json] {
        assert!(json.contains("\"op\":\"batch\""), "{json}");
        assert!(json.contains("\"ops\":6"), "{json}");
        assert!(json.contains("\"data\":\"aabbccdd\""), "{json}");
        assert!(json.contains("\"data\":\"00112233445566778899\""), "{json}");
        assert!(json.contains("\"data\":\"feedface\""), "{json}");
    }
    // Identical JSON key shape across backends.
    common::assert_same_key_shape(&file_json, &tcp_json);

    // The resulting device bytes are identical: read both back in full.
    let file_out = work.join("file.bin");
    let tcp_out = work.join("tcp.bin");
    let (ok, _) = run(&[
        "dev",
        "read",
        "--dev",
        &file_spec,
        "--output",
        file_out.to_str().unwrap(),
        "--len",
        "1024",
    ]);
    assert!(ok);
    let (ok, _) = run(&[
        "dev",
        "read",
        "--dev",
        &tcp_spec,
        "--output",
        tcp_out.to_str().unwrap(),
        "--len",
        "1024",
    ]);
    assert!(ok);
    assert_eq!(
        std::fs::read(&file_out).unwrap(),
        std::fs::read(&tcp_out).unwrap()
    );

    let (ok, _) = run(&["dev", "shutdown", "--dev", &format!("tcp:{addr}")]);
    assert!(ok);
    assert!(server.wait().expect("server wait").success());

    // Malformed scripts are clean errors with a line number.
    let bad = work.join("bad.txt");
    std::fs::write(&bad, "write 0 abc\n").unwrap(); // odd-length hex
    let (ok, out) = run(&[
        "dev",
        "batch",
        "--dev",
        &file_spec,
        "--from",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(out.contains("op-script line 1"), "{out}");
    let (ok, out) = run(&["dev", "batch", "--dev", &file_spec]);
    assert!(!ok);
    assert!(out.contains("--from is required"), "{out}");

    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn dev_cli_rejects_bad_specs_cleanly() {
    let (ok, out) = run(&["dev", "status", "--dev", "nfs:/somewhere"]);
    assert!(!ok);
    assert!(
        out.contains("error:") && out.contains("unknown scheme"),
        "{out}"
    );
    assert!(!out.contains("panicked"), "{out}");

    let (ok, out) = run(&["dev", "status", "--dev", "shards:/nope?k=3"]);
    assert!(!ok);
    assert!(out.contains("unknown query parameter"), "{out}");

    let (ok, out) = run(&["dev", "status"]);
    assert!(!ok);
    assert!(out.contains("--dev is required"), "{out}");

    let (ok, out) = run(&["dev", "munge", "--dev", "file:/tmp"]);
    assert!(!ok);
    assert!(out.contains("unknown stair dev command"), "{out}");

    // shutdown is a server verb: any non-tcp spec is a clean error.
    let (ok, out) = run(&["dev", "shutdown", "--dev", "file:/tmp"]);
    assert!(!ok);
    assert!(out.contains("shutdown needs a tcp:"), "{out}");
    assert!(!out.contains("panicked"), "{out}");

    // A spec that parses but points nowhere is a clean open error.
    let (ok, out) = run(&["dev", "status", "--dev", "file:/definitely/not/a/store"]);
    assert!(!ok);
    assert!(out.contains("error:"), "{out}");
    assert!(!out.contains("panicked"), "{out}");
}
