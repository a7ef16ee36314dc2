//! End-to-end test of a local store through the CLI: `stair store
//! init`, then `stair dev … --dev file:DIR` for write → fail a device +
//! inject a sector burst → degraded read returns the original data →
//! repair → scrub reports clean; plus `stair store inject`.

mod common;

use common::run;

#[test]
fn store_cli_session() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();
    let dev = &format!("file:{dir_s}");

    // init with the paper's running-example geometry, small sectors.
    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "stair:8,4,2,1-1-2",
        "--symbol",
        "128",
        "--stripes",
        "12",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("initialized stair:8,4,2,1-1-2 store"), "{out}");

    // write a payload filling the store.
    let capacity = 12 * 20 * 128; // stripes × blocks/stripe × block size
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 7 % 253) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("full re-encodes"), "{out}");

    // kill two devices (m = 2) and corrupt a 2-sector burst in a third.
    assert!(run(&["dev", "fail", "--dev", dev, "--device", "2"]).0);
    assert!(run(&["dev", "fail", "--dev", dev, "--device", "5"]).0);
    assert!(
        run(&[
            "dev", "fail", "--dev", dev, "--device", "7", "--stripe", "3", "--sector", "1",
            "--len", "2",
        ])
        .0
    );

    // degraded read returns the original bytes.
    let extracted = work.join("degraded.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        extracted.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("degraded"), "{out}");
    assert_eq!(std::fs::read(&extracted).unwrap(), payload);

    // scrub detects the burst; repair reconstructs everything.
    let (ok, out) = run(&["dev", "scrub", "--dev", dev]);
    assert!(ok, "{out}");
    assert!(out.contains("2 mismatches"), "{out}");
    let (ok, out) = run(&["dev", "repair", "--dev", dev]);
    assert!(ok, "{out}");
    assert!(out.contains("repair complete"), "{out}");

    // post-repair: scrub clean, reads clean and identical.
    let (ok, out) = run(&["dev", "scrub", "--dev", dev]);
    assert!(ok && out.contains("device clean"), "{out}");
    let final_out = work.join("final.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        final_out.to_str().unwrap(),
    ]);
    assert!(ok && out.contains("(clean)"), "{out}");
    assert_eq!(std::fs::read(&final_out).unwrap(), payload);

    // small overwrite goes down the delta path.
    let patch = work.join("patch.bin");
    std::fs::write(&patch, vec![0xEEu8; 100]).unwrap();
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        dev,
        "--input",
        patch.to_str().unwrap(),
        "--offset",
        "300",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("delta updates"), "{out}");

    // status reflects a healthy store.
    let (ok, out) = run(&["dev", "status", "--dev", dev]);
    assert!(ok, "{out}");
    assert!(out.contains("failed devices    : []"), "{out}");

    std::fs::remove_dir_all(&work).unwrap();
}

/// `--code sd:...` creates an SD-backed store that survives the same
/// sequence as the STAIR-backed one: fail a device + corrupt sectors →
/// degraded read → repair → clean scrub.
#[test]
fn store_cli_sd_backed_session() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-sd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();
    let dev = &format!("file:{dir_s}");

    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "sd:6,4,1,2",
        "--symbol",
        "128",
        "--stripes",
        "8",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("initialized sd:6,4,1,2 store"), "{out}");

    // Fill the store: 6 devices, m=1, s=2 → 4·5−2 = 18 blocks per stripe.
    let capacity = 8 * 18 * 128;
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 11 % 251) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");

    // m = 1 device down plus a 2-sector burst (s = 2) elsewhere.
    assert!(run(&["dev", "fail", "--dev", dev, "--device", "5"]).0);
    assert!(
        run(&[
            "dev", "fail", "--dev", dev, "--device", "1", "--stripe", "2", "--sector", "1",
            "--len", "2",
        ])
        .0
    );

    let extracted = work.join("degraded.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        extracted.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&extracted).unwrap(), payload);

    let (ok, out) = run(&["dev", "repair", "--dev", dev]);
    assert!(ok && out.contains("repair complete"), "{out}");
    let (ok, out) = run(&["dev", "scrub", "--dev", dev]);
    assert!(ok && out.contains("device clean"), "{out}");

    let (ok, out) = run(&["dev", "status", "--dev", dev]);
    assert!(ok, "{out}");
    assert!(out.contains("codec sd:6,4,1,2"), "{out}");
    assert!(out.contains("1 device(s) + 2 sector(s)"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn store_cli_inject_detect_repair() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-inj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();
    let dev = &format!("file:{dir_s}");

    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "stair:8,8,2,2-2",
        "--symbol",
        "64",
        "--stripes",
        "8",
    ]);
    assert!(ok, "{out}");

    // Replay the independent sector-failure model against the store.
    let (ok, out) = run(&[
        "store", "inject", "--dir", dir_s, "--p-sec", "0.05", "--seed", "7",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("sampled 64 chunks"), "{out}");

    let (ok, _) = run(&["dev", "scrub", "--dev", dev]);
    assert!(ok);
    let (ok, out) = run(&["dev", "repair", "--dev", dev]);
    assert!(ok, "{out}");
    let (ok, out) = run(&["dev", "scrub", "--dev", dev]);
    assert!(ok && out.contains("device clean"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}
