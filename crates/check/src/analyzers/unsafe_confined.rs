//! L9 `unsafe-confined`: the workspace has exactly one home for
//! `unsafe` code, the AVX2 body of the GF(2^8) region kernels in
//! `crates/gf/src/simd.rs`, and the compiler is told so in every crate:
//!
//! * every library crate root (`crates/**/src/lib.rs`) carries
//!   `#![forbid(unsafe_code)]`. The one exception is the crate that owns
//!   the home (`stair-gf`): it may relax to `#![deny(unsafe_code)]` with
//!   a single `#[allow(unsafe_code)]`, on `mod simd` alone;
//! * the `unsafe` keyword appears in no other file (binaries, tests and
//!   benches included);
//! * inside the home, every `unsafe` block sits directly under a
//!   `// SAFETY:` comment (the bounds and CPU-feature argument), and
//!   every `unsafe fn` documents a `# Safety` section.
//!
//! No waiver: a site comment must not be able to widen the zone.

use crate::findings::{Finding, Lint};
use crate::workspace::{SourceFile, Workspace};

/// The only file that may contain the `unsafe` keyword.
const UNSAFE_HOME: &str = "crates/gf/src/simd.rs";

/// The root of the crate that owns [`UNSAFE_HOME`], and the module it
/// declares for it.
const HOME_ROOT: &str = "crates/gf/src/lib.rs";
const HOME_MOD: &str = "simd";

/// Appends unsafe-confinement findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs") {
            check_crate_root(f, out);
        }
        check_keyword(f, out);
    }
}

/// `true` when code tokens at `ci` spell `<attr>(unsafe_code)`.
fn is_lint_attr(f: &SourceFile, ci: usize, attr: &str) -> bool {
    let tf = &f.tf;
    tf.is_ident(ci, attr)
        && tf.is_punct(ci + 1, "(")
        && tf.is_ident(ci + 2, "unsafe_code")
        && tf.is_punct(ci + 3, ")")
}

/// `true` when code tokens at `ci` spell the inner attribute
/// `#![<attr>(unsafe_code)]`.
fn is_inner_attr(f: &SourceFile, ci: usize, attr: &str) -> bool {
    let tf = &f.tf;
    tf.is_punct(ci, "#")
        && tf.is_punct(ci + 1, "!")
        && tf.is_punct(ci + 2, "[")
        && is_lint_attr(f, ci + 3, attr)
}

fn check_crate_root(f: &SourceFile, out: &mut Vec<Finding>) {
    let tf = &f.tf;
    let n = tf.code.len();
    let forbids = (0..n).any(|ci| is_inner_attr(f, ci, "forbid"));
    let is_home = f.rel == HOME_ROOT;
    let denies = is_home && (0..n).any(|ci| is_inner_attr(f, ci, "deny"));
    if !forbids && !denies {
        let allowed = if is_home {
            "`#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` with the allow on \
             `mod simd` alone)"
        } else {
            "`#![forbid(unsafe_code)]`"
        };
        out.push(Finding::new(
            Lint::UnsafeConfined,
            &f.rel,
            1,
            1,
            format!("crate root lacks {allowed}; unsafe code lives only in {UNSAFE_HOME}"),
            "missing unsafe_code attribute",
        ));
    }
    // Every `allow(unsafe_code)` must be the outer attribute of
    // `mod simd` in the home crate's root.
    for ci in 0..n {
        if !is_lint_attr(f, ci, "allow") {
            continue;
        }
        let on_home_mod = is_home
            && tf.is_punct(ci.wrapping_sub(1), "[")
            && tf.is_punct(ci.wrapping_sub(2), "#")
            && tf.is_punct(ci + 4, "]")
            && tf.is_ident(ci + 5, "mod")
            && tf.is_ident(ci + 6, HOME_MOD);
        if on_home_mod {
            continue;
        }
        let tok = tf.ctok(ci);
        out.push(Finding::new(
            Lint::UnsafeConfined,
            &f.rel,
            tok.line,
            tok.col,
            format!(
                "`allow(unsafe_code)` outside `mod {HOME_MOD}` in {HOME_ROOT}; unsafe code \
                 lives only in {UNSAFE_HOME}"
            ),
            tf.line_text(tok.line),
        ));
    }
}

fn check_keyword(f: &SourceFile, out: &mut Vec<Finding>) {
    let tf = &f.tf;
    for ci in 0..tf.code.len() {
        if !tf.is_ident(ci, "unsafe") {
            continue;
        }
        let tok = *tf.ctok(ci);
        let message = if f.rel != UNSAFE_HOME {
            format!("`unsafe` outside {UNSAFE_HOME}, the workspace's only unsafe module")
        } else if tf.is_ident(ci + 1, "fn") {
            if comment_above(f, tok.line, "/// # Safety") {
                continue;
            }
            "`unsafe fn` without a `/// # Safety` doc section stating the caller's obligations"
                .to_string()
        } else {
            if comment_above(f, tok.line, "// SAFETY:") {
                continue;
            }
            "`unsafe` block without a `// SAFETY:` comment directly above it stating the \
             bounds and CPU-feature argument"
                .to_string()
        };
        out.push(Finding::new(
            Lint::UnsafeConfined,
            &f.rel,
            tok.line,
            tok.col,
            message,
            tf.line_text(tok.line),
        ));
    }
}

/// `true` when the run of comment and attribute lines directly above
/// `line` (no blank or code line in between) has a comment line starting
/// with `prefix`.
fn comment_above(f: &SourceFile, line: u32, prefix: &str) -> bool {
    let mut l = line;
    while l > 1 {
        l -= 1;
        let text = f.tf.line_text(l).trim_start();
        if text.starts_with(prefix) {
            return true;
        }
        if !(text.starts_with("//") || text.starts_with("#[")) {
            return false;
        }
    }
    false
}
