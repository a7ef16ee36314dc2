//! End-to-end test of the `stair` binary: create a STAIR-coded store,
//! write a file, destroy two devices and a sector burst, then
//! scrub/repair/read it back through the `stair dev` surface.

mod common;

use common::run;

#[test]
fn full_cli_session() {
    let work = std::env::temp_dir().join(format!("stair-cli-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let input = work.join("input.bin");
    let payload: Vec<u8> = (0..250_000).map(|i| (i * 13 % 241) as u8).collect();
    std::fs::write(&input, &payload).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();
    let dev = format!("file:{dir_s}");

    // 8 stripes x 93 data blocks x 512 bytes = 380928 bytes of capacity.
    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "stair:8,16,2,1-2",
        "--symbol",
        "512",
        "--stripes",
        "8",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("initialized stair:8,16,2,1-2 store"), "{out}");

    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        &dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("wrote 250000 bytes"), "{out}");

    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok && out.contains("device clean"), "{out}");

    // Lose two devices and a 2-sector burst.
    assert!(run(&["dev", "fail", "--dev", &dev, "--device", "0"]).0);
    assert!(run(&["dev", "fail", "--dev", &dev, "--device", "4"]).0);
    assert!(
        run(&[
            "dev", "fail", "--dev", &dev, "--device", "6", "--stripe", "1", "--sector", "3",
            "--len", "2"
        ])
        .0
    );

    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("2 mismatches"), "{out}");
    assert!(out.contains("2 unavailable device(s)"), "{out}");
    assert!(
        out.contains(&format!("run `stair dev repair --dev {dev}`")),
        "{out}"
    );

    let (ok, out) = run(&["dev", "repair", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("replaced 2 device(s)"), "{out}");
    assert!(out.contains("repair complete"), "{out}");

    let restored = work.join("restored.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        restored.to_str().unwrap(),
        "--len",
        "250000",
    ]);
    assert!(ok && out.contains("(clean)"), "{out}");
    assert_eq!(std::fs::read(&restored).unwrap(), payload);

    let (ok, out) = run(&["info", "--n", "8", "--r", "16", "--m", "2", "--e", "1,2"]);
    assert!(ok && out.contains("storage efficiency"), "{out}");

    // Unknown commands, retired verbs and missing flags fail cleanly.
    for args in [
        &["frobnicate"][..],
        &["encode", "--input", "x", "--out", dir_s],
        &["remote", "status", "--addr", "127.0.0.1:9"],
        &["store", "read", "--dir", dir_s, "--output", "x"],
        &[
            "store",
            "init",
            "--dir",
            work.join("fresh").to_str().unwrap(),
        ],
        &["dev", "read", "--dev", &dev],
    ] {
        let (ok, out) = run(args);
        assert!(!ok, "{args:?} must fail: {out}");
        assert!(!out.contains("panicked"), "{out}");
    }
    let (_, out) = run(&[
        "store",
        "init",
        "--dir",
        work.join("fresh").to_str().unwrap(),
    ]);
    assert!(out.contains("--code is required"), "{out}");
    let (_, out) = run(&[]);
    for verb in ["info", "store", "serve", "dev"] {
        assert!(out.contains(&format!("stair {verb}")), "{out}");
    }
    assert!(!out.contains("encode") && !out.contains("remote"), "{out}");

    std::fs::remove_dir_all(&work).unwrap();
}
