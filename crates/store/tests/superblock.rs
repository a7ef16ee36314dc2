//! The superblock, exercised end to end through the store.
//!
//! * a freshly created store writes a v3 superblock (codec spec +
//!   journal geometry + `clean_shutdown`) that round-trips through
//!   `open` for every codec family;
//! * a hand-written v3 fixture opens end to end and keeps its journal
//!   geometry;
//! * the `clean_shutdown` flag follows the open/close lifecycle;
//! * malformed superblocks — older versions and v3 texts missing a key
//!   included — are rejected with a metadata error rather than a panic
//!   or a misconfigured store.

use std::path::PathBuf;

use stair_store::{Error, StoreMeta, StoreOptions, StripeStore};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-superblock-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

#[test]
fn v3_superblock_round_trips_for_every_codec_family() {
    for spec in ["stair:8,4,2,1-1-2", "sd:8,4,2,3", "rs:6,4,2"] {
        let dir = tmpdir(&format!("v3-{}", spec.split(':').next().unwrap()));
        let opts = StoreOptions {
            code: spec.parse().unwrap(),
            symbol: 64,
            stripes: 4,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let payload = pattern(store.capacity() as usize, 5);
        store.write_at(0, &payload).unwrap();
        // While open, the on-disk superblock is v3 and marked live.
        let text = std::fs::read_to_string(dir.join("store.meta")).unwrap();
        assert!(text.starts_with("stair-store v3\n"), "{text}");
        assert!(text.contains(&format!("codec {spec}")), "{text}");
        assert!(text.contains("journal_segment "), "{text}");
        assert!(text.contains("clean_shutdown 0\n"), "{text}");
        drop(store);

        // A clean close flips the flag on disk.
        let text = std::fs::read_to_string(dir.join("store.meta")).unwrap();
        assert!(text.contains("clean_shutdown 1\n"), "{text}");

        // Reopen: same codec, same data, clean shutdown observed.
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.codec_spec().to_string(), spec);
        assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
        let status = store.status();
        assert!(status.clean_shutdown);
        assert_eq!(status.replayed_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A hand-written v3 superblock opens the same underlying store end
/// to end, and the rewrite on open keeps its journal geometry.
#[test]
fn v3_fixture_opens_end_to_end() {
    let fixture = "stair-store v3\ncodec stair:8,4,2,1-1-2\nsymbol 64\nstripes 6\n\
                   journal_segment 1048576\nclean_shutdown 1\n";
    let dir = tmpdir("fixture");
    let opts = StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 6,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    let payload = pattern(store.capacity() as usize, 11);
    store.write_at(0, &payload).unwrap();
    drop(store);

    // Swap in the hand-written fixture and open through it.
    std::fs::write(dir.join("store.meta"), fixture).unwrap();
    let store = StripeStore::open(&dir).unwrap();
    assert_eq!(store.codec_spec().to_string(), "stair:8,4,2,1-1-2");
    assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
    let status = store.status();
    assert!(status.clean_shutdown);
    assert_eq!(status.replayed_records, 0);
    // The store keeps working degraded, too.
    store.fail_device(3).unwrap();
    assert_eq!(store.read_at(0, payload.len()).unwrap(), payload);
    drop(store);

    let meta = StoreMeta::load(&dir).unwrap();
    assert_eq!(meta.journal_segment, 1_048_576);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_marked_superblock_reports_unclean_until_next_close() {
    let dir = tmpdir("unclean");
    let opts = StoreOptions {
        code: "rs:6,4,2".parse().unwrap(),
        symbol: 64,
        stripes: 4,
    };
    let store = StripeStore::create(&dir, &opts).unwrap();
    store.write_at(0, &pattern(256, 9)).unwrap();
    // Simulate a crash: capture the live (clean_shutdown 0) superblock
    // and restore it after the clean drop.
    let live = std::fs::read_to_string(dir.join("store.meta")).unwrap();
    assert!(live.contains("clean_shutdown 0\n"));
    drop(store);
    std::fs::write(dir.join("store.meta"), &live).unwrap();

    let store = StripeStore::open(&dir).unwrap();
    assert!(!store.status().clean_shutdown, "crash must be observed");
    drop(store);

    // The clean close re-marks it; the next open sees a clean store.
    let store = StripeStore::open(&dir).unwrap();
    assert!(store.status().clean_shutdown);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fixture_parses_with_field_reordering_and_blank_lines() {
    let text = "stair-store v3\n\nclean_shutdown 0\nstripes 6\n\njournal_segment 4096\n\
                codec stair:8,4,2,1-1-2\n\nsymbol 64\n";
    let meta = StoreMeta::parse(text).unwrap();
    assert_eq!(meta.codec.to_string(), "stair:8,4,2,1-1-2");
    assert_eq!((meta.symbol, meta.stripes), (64, 6));
    assert_eq!(meta.journal_segment, 4096);
    assert!(!meta.clean_shutdown);
    // And it re-serializes in canonical order.
    assert_eq!(StoreMeta::parse(&meta.to_text()).unwrap(), meta);
}

#[test]
fn malformed_superblocks_are_rejected_not_panicked() {
    let cases = [
        // Missing a required field.
        "stair-store v3\ncodec rs:6,4,2\nstripes 6\njournal_segment 4096\nclean_shutdown 1\n",
        // An unknown key.
        "stair-store v3\ncodec rs:6,4,2\nsymbol 64\nstripes 6\njournal_segment 4096\n\
         clean_shutdown 1\nshiny yes\n",
        // A spec naming an impossible codec.
        "stair-store v3\ncodec stair:8,4,2,100\nsymbol 64\nstripes 6\njournal_segment 4096\n\
         clean_shutdown 1\n",
        // A garbage integer.
        "stair-store v3\ncodec rs:6,4,2\nsymbol sixty-four\nstripes 6\njournal_segment 4096\n\
         clean_shutdown 1\n",
        // A garbage clean_shutdown flag.
        "stair-store v3\ncodec rs:6,4,2\nsymbol 64\nstripes 6\njournal_segment 4096\n\
         clean_shutdown maybe\n",
        // Unknown version.
        "stair-store v9\ncodec rs:6,4,2\nsymbol 64\nstripes 6\n",
        // Empty file.
        "",
    ];
    for text in cases {
        assert!(StoreMeta::parse(text).is_err(), "accepted: {text:?}");
    }

    // Older superblock versions and v3 texts missing a journal key are
    // metadata errors; the version errors name the expected magic.
    let v1 = "stair-store v1\nn 8\nr 4\nm 2\ne 1,1,2\nsymbol 64\nstripes 6\n";
    let v2 = "stair-store v2\ncodec stair:8,4,2,1-1-2\nsymbol 64\nstripes 6\n";
    let no_clean = "stair-store v3\ncodec stair:8,4,2,1-1-2\nsymbol 64\nstripes 6\n\
                    journal_segment 4096\n";
    let no_segment = "stair-store v3\ncodec stair:8,4,2,1-1-2\nsymbol 64\nstripes 6\n\
                      clean_shutdown 1\n";
    for (text, needle) in [
        (v1, "stair-store v3"),
        (v2, "stair-store v3"),
        (no_clean, "clean_shutdown"),
        (no_segment, "journal_segment"),
    ] {
        match StoreMeta::parse(text) {
            Err(Error::Meta(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Meta error for {text:?}, got {other:?}"),
        }
    }

    // Through the store: a corrupted superblock fails open cleanly.
    let dir = tmpdir("corrupt");
    let store = StripeStore::create(
        &dir,
        &StoreOptions {
            code: "rs:6,4,2".parse().unwrap(),
            symbol: 64,
            stripes: 4,
        },
    )
    .unwrap();
    drop(store);
    for text in ["not a superblock\n", v2] {
        std::fs::write(dir.join("store.meta"), text).unwrap();
        match StripeStore::open(&dir) {
            Err(Error::Meta(_)) => {}
            Err(other) => panic!("expected Meta error, got {other:?}"),
            Ok(_) => panic!("superblock {text:?} must not open"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
