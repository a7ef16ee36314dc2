//! L8 `persist-ordering`: the crash-consistency invariant behind the
//! journal, shipped as a lint instead of prose. In `crates/store`,
//! mutating a stripe in place is only safe after the journal holds a
//! durable record of the post-image — so the only functions allowed to
//! call `.write_sector(…)` are the two legs of the journal protocol:
//!
//! * `apply_write_back` — the in-place leg of the batch group commit,
//!   the store's one write path (records journaled and fsync'd first);
//! * `replay_journal` — re-applies already-durable records at open.
//!
//! Any other call site is a write the journal cannot finish after a
//! crash: a torn stripe that is neither old nor new, the exact
//! corruption mode the subsystem exists to rule out. Deliberate
//! exceptions (fault injection, repair's erased-cell rewrites) carry a
//! `// check: persist-ok <reason>` waiver at the site, so every bypass
//! of the ordering is visible in the audit trail.
//!
//! The defining module (`crates/store/src/device.rs`) and test code
//! are exempt: the former *is* the sector-write primitive, the latter
//! exercises crash states on purpose.

use crate::findings::{Finding, Lint};
use crate::lexer::TokKind;
use crate::workspace::{FileKind, SourceFile, Workspace};

/// Where the sector-write primitive lives — definitions and their unit
/// tests, not callers under the ordering policy.
const DEVICE_RS: &str = "crates/store/src/device.rs";

/// The journaled commit path: the only enclosing functions that may
/// write sectors in place without a waiver.
const ALLOWED_FNS: &[&str] = &["apply_write_back", "replay_journal"];

/// Appends persist-ordering findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if f.crate_name != "store"
            || f.kind != FileKind::LibSrc
            || f.rel == DEVICE_RS
            || f.is_test_like()
        {
            continue;
        }
        scan_file(f, out);
    }
}

fn scan_file(f: &SourceFile, out: &mut Vec<Finding>) {
    let tf = &f.tf;
    let n = tf.code.len();
    // Track the innermost enclosing `fn` by brace depth: a pending name
    // is armed at `fn ident` and attached to the next `{` (a `;` first
    // means a bodyless trait signature — disarm).
    let mut depth = 0usize;
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut pending: Option<String> = None;
    for ci in 0..n {
        // `fn ident` arms a pending name; fn-pointer types (`fn(u8)`)
        // have no ident and stay disarmed.
        if tf.is_ident(ci, "fn") && ci + 1 < n && tf.ctok(ci + 1).kind == TokKind::Ident {
            pending = Some(tf.ctext(ci + 1).to_string());
            continue;
        }
        match tf.ctext(ci) {
            "{" => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            "}" => {
                if stack.last().is_some_and(|&(_, d)| d == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            ";" => {
                pending = None;
            }
            "write_sector" => {
                if !(tf.is_punct(ci.wrapping_sub(1), ".") && tf.is_punct(ci + 1, "(")) {
                    continue;
                }
                let tok = *tf.ctok(ci);
                if f.in_test_span(tok.start) {
                    continue;
                }
                let enclosing = stack.last().map(|(name, _)| name.as_str());
                if enclosing.is_some_and(|name| ALLOWED_FNS.contains(&name)) {
                    continue;
                }
                let key = Lint::PersistOrdering.waiver_key().unwrap_or("persist-ok");
                if f.waived(key, tok.line) {
                    continue;
                }
                let site = enclosing.unwrap_or("<no enclosing fn>");
                out.push(Finding::new(
                    Lint::PersistOrdering,
                    &f.rel,
                    tok.line,
                    tok.col,
                    format!(
                        "in-place sector write in `{site}`, outside the journaled commit path \
                         ({}): route the write through the batch group commit, which journals \
                         the post-image before `apply_write_back`; a deliberate bypass needs \
                         `// check: persist-ok <reason>`",
                        ALLOWED_FNS.join(" / ")
                    ),
                    tf.line_text(tok.line),
                ));
            }
            _ => {}
        }
    }
}
