//! Per-lint fixture tests: each lint gets at least one true-positive
//! and one near-miss-negative workspace, assembled in a temp directory
//! from the snippets under `tests/fixtures/` and run through the full
//! pipeline (`stair_check::run`), baseline included.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use stair_check::findings::Lint;
use stair_check::{run, Config, Report};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Reads a fixture snippet.
fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Builds a throwaway workspace from `(rel-path, contents)` pairs: the
/// root `Cargo.toml` member list is derived from the `crates/<name>/…`
/// paths used.
fn build_ws(files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stair-check-fix-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut members: Vec<String> = files
        .iter()
        .filter_map(|(p, _)| {
            let mut it = p.split('/');
            match (it.next(), it.next()) {
                (Some("crates"), Some(name)) => Some(format!("crates/{name}")),
                _ => None,
            }
        })
        .collect();
    members.sort();
    members.dedup();
    let mut manifest = String::from("[workspace]\nmembers = [\n");
    for m in &members {
        manifest.push_str(&format!("    \"{m}\",\n"));
    }
    manifest.push_str("]\n");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    for (rel, contents) in files {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }
    dir
}

/// Runs the pipeline on a fixture workspace.
fn run_ws(files: &[(&str, &str)]) -> Report {
    let dir = build_ws(files);
    run(&Config::new(&dir)).expect("fixture workspace must load")
}

/// The active findings of one lint.
fn of(report: &Report, lint: Lint) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
        .collect()
}

// ---- L1 lock-poison ------------------------------------------------

#[test]
fn lock_poison_true_positives() {
    let bad = fixture("lock_poison_bad.rs");
    let r = run_ws(&[("crates/misc/src/lib.rs", &bad)]);
    let hits = of(&r, Lint::LockPoison);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("unwrap")));
    assert!(hits.iter().any(|h| h.contains("expect")));
    assert_ne!(r.exit_code(), 0);
}

#[test]
fn lock_poison_near_misses_stay_clean() {
    let ok = fixture("lock_poison_near_miss.rs");
    let r = run_ws(&[("crates/misc/src/lib.rs", &ok)]);
    assert_eq!(of(&r, Lint::LockPoison), Vec::<String>::new());
    // The waiver shows up in the audit trail.
    assert!(r.waivers.iter().any(|w| w.key == "lock-ok"));
}

// ---- L2 no-panic-in-lib --------------------------------------------

#[test]
fn no_panic_true_positives_in_zone_crate() {
    let bad = fixture("no_panic_bad.rs");
    let r = run_ws(&[("crates/store/src/lib.rs", &bad)]);
    let hits = of(&r, Lint::NoPanicInLib);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert_ne!(r.exit_code(), 0);
}

#[test]
fn no_panic_ignores_non_zone_crates_bins_and_tests() {
    let bad = fixture("no_panic_bad.rs");
    // Same violations, but in a non-zone crate, a binary, and an
    // integration test: all exempt.
    let r = run_ws(&[
        ("crates/cli/src/lib.rs", &bad),
        ("crates/store/src/main.rs", &bad),
        ("crates/store/tests/a_test.rs", &bad),
    ]);
    assert_eq!(of(&r, Lint::NoPanicInLib), Vec::<String>::new());
}

#[test]
fn no_panic_near_misses_stay_clean() {
    let ok = fixture("no_panic_near_miss.rs");
    let r = run_ws(&[("crates/store/src/lib.rs", &ok)]);
    assert_eq!(of(&r, Lint::NoPanicInLib), Vec::<String>::new());
}

#[test]
fn index_lint_is_opt_in() {
    let src = "pub fn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
    let files = [("crates/store/src/lib.rs", src)];
    let quiet = run_ws(&files);
    assert_eq!(of(&quiet, Lint::IndexInLib), Vec::<String>::new());
    let dir = build_ws(&files);
    let mut cfg = Config::new(&dir);
    cfg.deny.push("index-in-lib".into());
    let loud = run(&cfg).unwrap();
    assert_eq!(of(&loud, Lint::IndexInLib).len(), 1);
}

// ---- L3 wire-constants ---------------------------------------------

#[test]
fn wire_incoherent_protocol_is_flagged() {
    let bad = fixture("wire_protocol_bad.rs");
    let r = run_ws(&[("crates/net/src/protocol.rs", &bad)]);
    let hits = of(&r, Lint::WireConstants);
    assert!(
        hits.iter().any(|h| h.contains("not dense")),
        "want density finding in {hits:?}"
    );
    assert!(hits.iter().any(|h| h.contains("from_u8 has no arm")));
    assert!(hits.iter().any(|h| h.contains("from_u8 accepts 9")));
    assert!(hits.iter().any(|h| h.contains("name() has no arm")));
    assert!(hits.iter().any(|h| h.contains("`Opcode::ALL` is missing")));
}

#[test]
fn wire_redeclaration_is_flagged_import_is_not() {
    let proto = fixture("wire_protocol_good.rs");
    let redecl = fixture("wire_redeclare_bad.rs");
    let imports = fixture("wire_use_good.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/net/src/client.rs", &redecl),
        ("crates/net/src/server.rs", &imports),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("client.rs"));
    assert!(hits[0].contains("MAX_IO_BYTES"));
}

#[test]
fn wire_coherent_protocol_is_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let imports = fixture("wire_use_good.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/net/src/server.rs", &imports),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

// ---- L4 error-conversions ------------------------------------------

#[test]
fn missing_from_impl_is_flagged() {
    let bad = fixture("error_conv_bad.rs");
    let r = run_ws(&[("crates/device/src/error.rs", &bad)]);
    let hits = of(&r, Lint::ErrorConversions);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("NetError"));
    assert!(hits[0].contains("DeviceError"));
}

#[test]
fn complete_registry_is_clean() {
    let good = fixture("error_conv_good.rs");
    let r = run_ws(&[("crates/device/src/error.rs", &good)]);
    assert_eq!(of(&r, Lint::ErrorConversions), Vec::<String>::new());
}

// ---- L5 doc-drift --------------------------------------------------

#[test]
fn doc_drift_flags_undocumented_names() {
    let r = run_ws(&[
        (
            "crates/net/src/protocol.rs",
            &fixture("wire_protocol_good.rs"),
        ),
        ("crates/device/src/spec.rs", &fixture("doc_spec_device.rs")),
        ("crates/code/src/spec.rs", &fixture("doc_spec_code.rs")),
        ("README.md", &fixture("doc_readme_bad.md")),
    ]);
    let hits = of(&r, Lint::DocDrift);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("`status`")));
    assert!(hits.iter().any(|h| h.contains("`mem`")));
    assert!(hits.iter().any(|h| h.contains("`xor`")));
}

#[test]
fn doc_drift_complete_readme_is_clean() {
    let r = run_ws(&[
        (
            "crates/net/src/protocol.rs",
            &fixture("wire_protocol_good.rs"),
        ),
        ("crates/device/src/spec.rs", &fixture("doc_spec_device.rs")),
        ("crates/code/src/spec.rs", &fixture("doc_spec_code.rs")),
        ("README.md", &fixture("doc_readme_good.md")),
    ]);
    assert_eq!(of(&r, Lint::DocDrift), Vec::<String>::new());
}

// ---- L6 counter-discipline -----------------------------------------

#[test]
fn orphan_metrics_are_flagged() {
    let bad = fixture("counters_bad.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &bad)]);
    let hits = of(&r, Lint::CounterDiscipline);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("orphan.metric"));
}

#[test]
fn matched_metrics_are_clean() {
    let good = fixture("counters_good.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &good)]);
    assert_eq!(of(&r, Lint::CounterDiscipline), Vec::<String>::new());
}

#[test]
fn reserved_metric_literals_and_dead_declared_names_are_flagged() {
    let registry = fixture("counters_registry.rs");
    let bad = fixture("counters_reserved_bad.rs");
    let doc = fixture("counters_reserved_doc.md");
    let r = run_ws(&[
        ("crates/obs/src/registry.rs", &registry),
        ("crates/cache/src/lib.rs", &bad),
        ("README.md", &doc),
    ]);
    let hits = of(&r, Lint::CounterDiscipline);
    assert_eq!(hits.len(), 5, "{hits:?}");
    // A literal that duplicates a declared name points at the constant…
    assert!(hits
        .iter()
        .any(|h| h.contains("`fixcache.hit`") && h.contains("metric_names::FIX_HIT")));
    // … a literal nobody declared asks for a declaration …
    assert!(hits
        .iter()
        .any(|h| h.contains("`fixcache.rogue`") && h.contains("not declared")));
    // … a declared name nothing registers is dead schema …
    assert!(hits
        .iter()
        .any(|h| h.contains("`fixcache.dead`") && h.contains("never registered")));
    // … and the check-2 consequences: the rogue fork has no second
    // mention, and the dead name's doc line points at nothing.
    assert!(hits
        .iter()
        .any(|h| h.contains("fixcache.rogue") && h.contains("exactly once")));
    assert!(hits
        .iter()
        .any(|h| h.contains("fixcache.dead") && h.contains("never produced")));
}

#[test]
fn constant_metric_registrations_and_waived_literals_are_clean() {
    let registry = fixture("counters_registry.rs");
    let good = fixture("counters_reserved_good.rs");
    let doc = fixture("counters_reserved_doc.md");
    let r = run_ws(&[
        ("crates/obs/src/registry.rs", &registry),
        ("crates/cache/src/lib.rs", &good),
        ("README.md", &doc),
    ]);
    assert_eq!(of(&r, Lint::CounterDiscipline), Vec::<String>::new());
}

// ---- L7 span-discipline --------------------------------------------

#[test]
fn literal_and_dead_span_names_are_flagged() {
    let obs = fixture("spans_obs.rs");
    let bad = fixture("spans_bad.rs");
    let r = run_ws(&[
        ("crates/obs/src/trace.rs", &obs),
        ("crates/store/src/lib.rs", &bad),
    ]);
    let hits = of(&r, Lint::SpanDiscipline);
    assert_eq!(hits.len(), 3, "{hits:?}");
    // A literal that duplicates a declared name points at the constant…
    assert!(hits
        .iter()
        .any(|h| h.contains("fix.live") && h.contains("names::LIVE_SPAN")));
    // … a literal nobody declared asks for a declaration …
    assert!(hits
        .iter()
        .any(|h| h.contains("fix.rogue") && h.contains("not declared")));
    // … and a declared name nothing records is dead schema.
    assert!(hits
        .iter()
        .any(|h| h.contains("fix.dead") && h.contains("never recorded")));
}

#[test]
fn constant_span_names_and_waived_literals_are_clean() {
    let obs = fixture("spans_obs.rs");
    let good = fixture("spans_good.rs");
    let r = run_ws(&[
        ("crates/obs/src/trace.rs", &obs),
        ("crates/store/src/lib.rs", &good),
    ]);
    assert_eq!(of(&r, Lint::SpanDiscipline), Vec::<String>::new());
}

// ---- L8 persist-ordering -------------------------------------------

#[test]
fn unjournaled_sector_writes_are_flagged() {
    let bad = fixture("persist_bad.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &bad)]);
    let hits = of(&r, Lint::PersistOrdering);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("sneaky_overwrite")));
    assert!(hits.iter().any(|h| h.contains("flush_cache_line")));
    assert_ne!(r.exit_code(), 0);
}

#[test]
fn persist_ordering_scope_is_store_lib_only() {
    let bad = fixture("persist_bad.rs");
    // The same call sites in the defining module, another crate, a
    // store binary, and an integration test are all out of scope.
    let r = run_ws(&[
        ("crates/store/src/device.rs", &bad),
        ("crates/net/src/lib.rs", &bad),
        ("crates/store/src/main.rs", &bad),
        ("crates/store/tests/crash.rs", &bad),
    ]);
    assert_eq!(of(&r, Lint::PersistOrdering), Vec::<String>::new());
}

#[test]
fn journaled_waived_and_test_writes_stay_clean() {
    let ok = fixture("persist_near_miss.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &ok)]);
    assert_eq!(of(&r, Lint::PersistOrdering), Vec::<String>::new());
    // The deliberate bypass shows up in the waiver audit trail.
    assert!(r.waivers.iter().any(|w| w.key == "persist-ok"));
}

// ---- L9 unsafe-confined --------------------------------------------

#[test]
fn unsafe_outside_its_home_and_undocumented_sites_are_flagged() {
    let other_bad = fixture("unsafe_other_bad.rs");
    let r = run_ws(&[
        ("crates/gf/src/lib.rs", &fixture("unsafe_root_bad.rs")),
        ("crates/gf/src/simd.rs", &fixture("unsafe_home_bad.rs")),
        ("crates/store/src/lib.rs", &other_bad),
        ("crates/store/tests/peek.rs", &other_bad),
    ]);
    let hits = of(&r, Lint::UnsafeConfined);
    assert_eq!(hits.len(), 6, "{hits:?}");
    // The home crate's root may allow unsafe code on `mod simd` only …
    assert!(hits
        .iter()
        .any(|h| h.starts_with("crates/gf/src/lib.rs:6 ") && h.contains("outside `mod simd`")));
    // … its `unsafe fn` needs a `# Safety` section and its block a
    // `// SAFETY:` comment with no blank line in between …
    assert!(hits
        .iter()
        .any(|h| h.starts_with("crates/gf/src/simd.rs:4 ") && h.contains("# Safety")));
    assert!(hits
        .iter()
        .any(|h| h.starts_with("crates/gf/src/simd.rs:12 ") && h.contains("SAFETY:")));
    // … every other crate root forbids unsafe code …
    assert!(hits
        .iter()
        .any(|h| h.starts_with("crates/store/src/lib.rs:1 ") && h.contains("lacks")));
    // … and the keyword appears nowhere else, test code included.
    assert!(hits
        .iter()
        .any(|h| h.starts_with("crates/store/src/lib.rs:5 ") && h.contains("outside")));
    assert!(hits
        .iter()
        .any(|h| h.starts_with("crates/store/tests/peek.rs:5 ") && h.contains("outside")));
    assert_ne!(r.exit_code(), 0);
}

#[test]
fn documented_unsafe_in_its_home_is_clean() {
    let r = run_ws(&[
        ("crates/gf/src/lib.rs", &fixture("unsafe_root_good.rs")),
        ("crates/gf/src/simd.rs", &fixture("unsafe_home_good.rs")),
        ("crates/store/src/lib.rs", &fixture("unsafe_other_good.rs")),
    ]);
    assert_eq!(of(&r, Lint::UnsafeConfined), Vec::<String>::new());
}

// ---- baseline ------------------------------------------------------

#[test]
fn baseline_suppresses_then_goes_stale() {
    let bad = fixture("no_panic_bad.rs");
    let files = [("crates/store/src/lib.rs", bad.as_str())];
    let dir = build_ws(&files);
    let first = run(&Config::new(&dir)).unwrap();
    assert_eq!(of(&first, Lint::NoPanicInLib).len(), 3);

    // Baseline everything (the mini-workspace also trips the registry
    // lints): the run goes clean, findings move aside.
    let mut allow = String::from("# grandfathered\n");
    for f in &first.findings {
        allow.push_str(&format!("{} {} {} legacy\n", f.fingerprint, f.lint, f.file));
    }
    fs::write(dir.join("check.allow"), &allow).unwrap();
    let second = run(&Config::new(&dir)).unwrap();
    assert_eq!(second.exit_code(), 0);
    assert_eq!(second.findings.len(), 0);
    assert_eq!(second.baselined.len(), first.findings.len());

    // Fix the code: the baseline entries are now stale and fail the
    // run until deleted.
    fs::write(
        dir.join("crates/store/src/lib.rs"),
        "pub fn fixed() -> u64 { 7 }\n",
    )
    .unwrap();
    let third = run(&Config::new(&dir)).unwrap();
    assert_ne!(third.exit_code(), 0);
    assert_eq!(of(&third, Lint::StaleBaseline).len(), 3);
}

// ---- self-check ----------------------------------------------------

/// The real workspace must pass its own lints (acceptance criterion:
/// `cargo run -p stair-check -- --json .` exits 0).
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = run(&Config::new(root)).unwrap();
    assert_eq!(
        r.exit_code(),
        0,
        "stair-check findings on the real workspace:\n{}",
        r.render_human()
    );
    assert!(r.files_scanned > 100);
}

// ---- JSON ----------------------------------------------------------

#[test]
fn json_report_carries_findings_and_waivers() {
    let r = run_ws(&[
        ("crates/misc/src/lib.rs", &fixture("lock_poison_bad.rs")),
        (
            "crates/other/src/lib.rs",
            &fixture("lock_poison_near_miss.rs"),
        ),
    ]);
    let json = r.to_json();
    assert!(json.contains("\"lint\": \"lock-poison\""));
    assert!(json.contains("\"fingerprint\""));
    assert!(json.contains("\"key\": \"lock-ok\""));
    assert!(json.contains(&format!("\"active\": {}", r.findings.len())));
}
