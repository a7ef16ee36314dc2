//! The `stair dev` subcommand family — the single data path for every
//! backend.
//!
//! ```text
//! stair dev status --dev SPEC [--json]
//! stair dev read   --dev SPEC --output FILE [--offset BYTES] [--len BYTES]
//! stair dev write  --dev SPEC --input FILE [--offset BYTES]
//! stair dev batch  --dev SPEC --from SCRIPT
//! stair dev fail   --dev SPEC --device J [--shard S] [--stripe I --sector K --len L]
//! stair dev scrub  --dev SPEC [--threads T] [--json]
//! stair dev repair --dev SPEC [--threads T] [--json]
//! stair dev flush  --dev SPEC
//! stair dev shutdown --dev tcp:ADDR
//! ```
//!
//! `batch` replays an **op-script** — one op per line, `#` comments and
//! blank lines ignored:
//!
//! ```text
//! # read  <offset> <len>
//! # write <offset> <hex-bytes>
//! write 0 deadbeef
//! read  0 4
//! ```
//!
//! The whole script is submitted as one `IoBatch` through
//! `BlockDevice::submit`, so it costs one stripe lock and one codec
//! decision per touched stripe locally, and one request frame per
//! shard over the wire. Results print as one JSON object whose shape
//! is identical across backends.
//!
//! `SPEC` is a `stair_device::DeviceSpec`: `file:<dir>`,
//! `shards:<root>[?n=K]`, `tcp:<host:port>[?lanes=L]`, or
//! `cache:<inner>`, so every backend runs the identical code and prints
//! the identical output. `shutdown` is the one verb that is not a
//! device operation: it asks a `stair serve` process to exit, so it
//! takes only a `tcp:` spec.

use std::path::PathBuf;
use std::str::FromStr;

use stair_device::{BatchResult, BlockDevice, DeviceSpec, Instrumented, IoBatch, IoOp, OpResult};
use stair_net::json::Json;
use stair_net::{open_admin, open_device, Client, WireTrace};

use crate::flags::{u64_flag, usize_flag, Flags};
use crate::status_json;

/// Usage text for the `dev` family.
pub const DEV_USAGE: &str = "usage:
  stair dev status --dev SPEC [--json]
  stair dev read   --dev SPEC --output FILE [--offset BYTES] [--len BYTES]
  stair dev write  --dev SPEC --input FILE [--offset BYTES]
  stair dev batch  --dev SPEC --from SCRIPT
  stair dev fail   --dev SPEC --device J [--shard S] [--stripe I --sector K --len L]
  stair dev scrub  --dev SPEC [--threads T] [--json]
  stair dev repair --dev SPEC [--threads T] [--json]
  stair dev flush  --dev SPEC
  stair dev metrics --dev SPEC [--json] [--from SCRIPT]
  stair dev trace   --dev SPEC [--json] [--from SCRIPT]
  stair dev shutdown --dev tcp:<host:port>
  (SPEC: file:<dir> | shards:<root>[?n=K] | tcp:<host:port>[?lanes=L]
         | cache:<inner>[?mb=M&wb=on|off&interval_ms=T])
  (SCRIPT lines: `read <offset> <len>` | `write <offset> <hex-bytes>`;
   `#` comments and blank lines ignored; results print as JSON)
  (metrics --from replays a SCRIPT through the instrumented device
   first, so per-op latency histograms are populated)
  (trace enables request tracing, replays the SCRIPT if given, then
   prints this process's flight recorder — and the server's, pulled
   over TRACE, when SPEC is tcp:)";

/// Dispatches a `stair dev <verb> ...` invocation.
pub fn run(verb: &str, flags: &Flags) -> Result<(), String> {
    let spec = flags
        .get("dev")
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("--dev is required\n{DEV_USAGE}"))?;
    let spec = &DeviceSpec::from_str(spec).map_err(|e| e.to_string())?;
    match verb {
        "status" => cmd_status(flags, spec),
        "read" => cmd_read(flags, spec),
        "write" => cmd_write(flags, spec),
        "batch" => cmd_batch(flags, spec),
        "fail" => cmd_fail(flags, spec),
        "scrub" => cmd_scrub(flags, spec),
        "repair" => cmd_repair(flags, spec),
        "flush" => cmd_flush(spec),
        "metrics" => cmd_metrics(flags, spec),
        "trace" => cmd_trace(flags, spec),
        "shutdown" => cmd_shutdown(spec),
        _ => Err(format!("unknown stair dev command `{verb}`\n{DEV_USAGE}")),
    }
}

fn open(spec: &DeviceSpec) -> Result<Box<dyn BlockDevice>, String> {
    open_device(spec).map_err(|e| e.to_string())
}

fn cmd_status(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let status = dev.status().map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::device_status_json(&status).to_text());
        return Ok(());
    }
    // `DeviceStatus.shards` is never empty (the open registry and the
    // wire-status path both enforce it); guard anyway so a future
    // backend bug degrades to an error, not a panic.
    let first = status
        .shards
        .first()
        .ok_or_else(|| "device reported no shards".to_string())?;
    println!("codec {}", first.codec);
    println!("  backend           : {}", status.backend);
    println!(
        "  tolerance         : {} device(s) + {} sector(s) per stripe",
        first.device_tolerance, first.sector_tolerance
    );
    if let Some(efficiency) = storage_efficiency(first) {
        println!("  storage efficiency: {efficiency:.4}");
    }
    println!("  capacity          : {} bytes", status.capacity);
    println!(
        "  geometry          : {} shard(s) x {} stripes x {} blocks x {} bytes",
        status.shards.len(),
        first.stripes,
        first.blocks_per_stripe,
        first.block_size
    );
    if status.shards.len() == 1 {
        println!("  failed devices    : {:?}", first.failed_devices);
        println!("  rebuilding devices: {:?}", first.rebuilding_devices);
        println!("  known bad sectors : {}", first.known_bad_sectors);
        println!(
            "  last shutdown     : {}",
            shutdown_summary(first.clean_shutdown, first.replayed_records)
        );
    } else {
        for (i, s) in status.shards.iter().enumerate() {
            println!(
                "  shard {i}: failed {:?}, rebuilding {:?}, {} known bad sector(s), {}",
                s.failed_devices,
                s.rebuilding_devices,
                s.known_bad_sectors,
                shutdown_summary(s.clean_shutdown, s.replayed_records)
            );
        }
    }
    Ok(())
}

/// One-line journal verdict for the human status view: clean close,
/// or the crash recovery the open performed.
fn shutdown_summary(clean: bool, replayed: u64) -> String {
    if clean {
        "clean (journal checkpointed)".to_string()
    } else {
        format!("unclean (replayed {replayed} journal record(s))")
    }
}

/// Data fraction from the codec spec (`data blocks / (n·r)`); `None`
/// when the codec string does not parse (possible over the wire from a
/// newer peer).
fn storage_efficiency(shard: &stair_device::ShardHealth) -> Option<f64> {
    let spec = stair_code::CodecSpec::from_str(&shard.codec).ok()?;
    let total = (spec.n() * spec.r()) as f64;
    (total > 0.0).then(|| shard.blocks_per_stripe as f64 / total)
}

fn cmd_read(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let output = flags
        .get("output")
        .map(PathBuf::from)
        .ok_or_else(|| "--output is required".to_string())?;
    let offset = u64_flag(flags, "offset", 0)?;
    let default_len = dev.capacity().saturating_sub(offset);
    let len = u64_flag(flags, "len", default_len)? as usize;
    let data = dev.read_at(offset, len).map_err(|e| e.to_string())?;
    std::fs::write(&output, &data).map_err(|e| e.to_string())?;
    let mode = match dev.status() {
        Ok(status) if status.healthy() => "clean",
        Ok(_) => "degraded",
        // A status failure after a verified read is not worth failing
        // the read for.
        Err(_) => "verified",
    };
    println!(
        "read {len} bytes at offset {offset} ({mode}) to {}",
        output.display()
    );
    Ok(())
}

fn cmd_write(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let input = flags
        .get("input")
        .map(PathBuf::from)
        .ok_or_else(|| "--input is required".to_string())?;
    let offset = u64_flag(flags, "offset", 0)?;
    let data = std::fs::read(&input).map_err(|e| e.to_string())?;
    let outcome = dev.write_at(offset, &data).map_err(|e| e.to_string())?;
    println!(
        "wrote {} bytes at offset {offset}: {} stripes touched ({} full re-encodes, {} delta updates)",
        outcome.bytes, outcome.stripes_touched, outcome.full_stripe_encodes, outcome.delta_updates
    );
    Ok(())
}

fn cmd_batch(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let from = flags
        .get("from")
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("--from is required\n{DEV_USAGE}"))?;
    let text =
        std::fs::read_to_string(from).map_err(|e| format!("cannot read op-script {from}: {e}"))?;
    let batch = parse_op_script(&text)?;
    let dev = open(spec)?;
    let result = dev.submit(&batch).map_err(|e| e.to_string())?;
    print!("{}", batch_json(&batch, &result).to_text());
    Ok(())
}

/// Parses the op-script grammar: one `read <offset> <len>` or
/// `write <offset> <hex-bytes>` per line; `#` comments and blank lines
/// are skipped. Errors carry the 1-based line number.
fn parse_op_script(text: &str) -> Result<IoBatch, String> {
    let mut batch = IoBatch::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |what: &str| format!("op-script line {}: {what}", lineno + 1);
        let mut words = line.split_whitespace();
        let (verb, offset, arg) = (words.next(), words.next(), words.next());
        if words.next().is_some() {
            return Err(at("expected exactly `<verb> <offset> <arg>`"));
        }
        let (Some(verb), Some(offset), Some(arg)) = (verb, offset, arg) else {
            return Err(at(
                "expected `read <offset> <len>` or `write <offset> <hex>`",
            ));
        };
        let offset: u64 = offset
            .parse()
            .map_err(|_| at(&format!("bad offset `{offset}`")))?;
        match verb {
            "read" => {
                let len: usize = arg
                    .parse()
                    .map_err(|_| at(&format!("bad length `{arg}`")))?;
                batch.read(offset, len);
            }
            "write" => {
                batch.write(offset, from_hex(arg).map_err(|e| at(&e))?);
            }
            other => return Err(at(&format!("unknown op `{other}`"))),
        }
    }
    Ok(batch)
}

fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex data `{s}` has odd length"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| format!("bad hex byte `{}`", &s[i..i + 2]))
        })
        .collect()
}

fn to_hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// Renders a batch's results as one JSON object — the identical shape
/// for every backend, so CI can diff `file:` against `tcp:` replays.
fn batch_json(batch: &IoBatch, result: &BatchResult) -> Json {
    let per_op = batch.ops().iter().zip(&result.results).map(|(op, r)| {
        match (op, r) {
            (IoOp::Read { offset, len }, OpResult::Read(data)) => Json::obj([
                ("op", Json::str("read")),
                ("offset", Json::int64(*offset)),
                ("len", Json::int(*len)),
                ("data", Json::str(to_hex(data))),
            ]),
            (IoOp::Write { offset, .. }, OpResult::Write(w)) => Json::obj([
                ("op", Json::str("write")),
                ("offset", Json::int64(*offset)),
                ("bytes", Json::int64(w.bytes)),
                ("blocks_written", Json::int64(w.blocks_written)),
                ("stripes_touched", Json::int64(w.stripes_touched)),
                ("full_stripe_encodes", Json::int64(w.full_stripe_encodes)),
                ("delta_updates", Json::int64(w.delta_updates)),
            ]),
            // `submit` contracts results to line up with ops; a backend
            // violating that is a bug worth surfacing as malformed JSON
            // rather than a panic.
            _ => Json::obj([("op", Json::str("mismatch"))]),
        }
    });
    Json::obj([
        ("op", Json::str("batch")),
        ("ops", Json::int(batch.len())),
        ("results", Json::arr(per_op)),
        (
            "write_totals",
            Json::obj([
                ("bytes", Json::int64(result.write.bytes)),
                ("blocks_written", Json::int64(result.write.blocks_written)),
                ("stripes_touched", Json::int64(result.write.stripes_touched)),
                (
                    "full_stripe_encodes",
                    Json::int64(result.write.full_stripe_encodes),
                ),
                ("delta_updates", Json::int64(result.write.delta_updates)),
            ]),
        ),
    ])
}

fn cmd_fail(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open_admin(spec).map_err(|e| e.to_string())?;
    let device = usize_flag(flags, "device", usize::MAX)?;
    if device == usize::MAX {
        return Err("--device is required".into());
    }
    // Defaulting the shard is only safe when there is exactly one;
    // silently picking shard 0 on a sharded backend would inject the
    // fault somewhere the operator did not name.
    let shard = match flags.get("shard") {
        Some(_) => usize_flag(flags, "shard", 0)?,
        None => {
            let shards = dev.status().map_err(|e| e.to_string())?.shards.len();
            if shards > 1 {
                return Err(format!(
                    "--shard is required: this device has {shards} shards"
                ));
            }
            0
        }
    };
    if flags.contains_key("stripe") || flags.contains_key("sector") {
        let stripe = usize_flag(flags, "stripe", 0)?;
        let sector = usize_flag(flags, "sector", 0)?;
        let len = usize_flag(flags, "len", 1)?;
        dev.corrupt_sectors(shard, device, stripe, sector, len)
            .map_err(|e| e.to_string())?;
        println!(
            "corrupted {len} sector(s) of shard {shard} device {device} in stripe {stripe} (latent until scrub/read)"
        );
    } else {
        dev.fail_device(shard, device).map_err(|e| e.to_string())?;
        println!("failed shard {shard} device {device}: backing file removed");
    }
    Ok(())
}

fn cmd_scrub(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let threads = usize_flag(flags, "threads", 4)?;
    let outcome = dev.scrub(threads).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::scrub_json(&outcome).to_text());
        return Ok(());
    }
    println!(
        "scrubbed {} stripes, verified {} sectors: {} mismatches, {} unavailable device(s), {} stale record(s) cleared",
        outcome.stripes_scanned,
        outcome.sectors_verified,
        outcome.mismatches,
        outcome.unavailable_devices,
        outcome.records_cleared
    );
    if outcome.clean() {
        println!("device clean");
    } else {
        println!("run `stair dev repair --dev {spec}` to reconstruct");
    }
    Ok(())
}

fn cmd_repair(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    let threads = usize_flag(flags, "threads", 4)?;
    let outcome = dev.repair(threads).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::repair_json(&outcome).to_text());
    } else {
        println!(
            "replaced {} device(s), repaired {} stripe(s), rewrote {} sector(s)",
            outcome.devices_replaced, outcome.stripes_repaired, outcome.sectors_rewritten
        );
        if outcome.complete() {
            println!("repair complete");
        }
    }
    if outcome.complete() {
        Ok(())
    } else {
        Err(format!(
            "{} stripe(s) beyond coverage (data lost)",
            outcome.unrecoverable_stripes
        ))
    }
}

fn cmd_flush(spec: &DeviceSpec) -> Result<(), String> {
    let dev = open(spec)?;
    dev.flush().map_err(|e| e.to_string())?;
    println!("flushed");
    Ok(())
}

/// `stair dev shutdown`: asks the `stair serve` process behind a `tcp:`
/// spec to stop; the server flushes its shards and exits.
fn cmd_shutdown(spec: &DeviceSpec) -> Result<(), String> {
    let DeviceSpec::Tcp { addr, .. } = spec else {
        return Err(format!(
            "shutdown needs a tcp:<host:port> spec, got `{spec}`"
        ));
    };
    Client::connect(addr)
        .and_then(|client| client.shutdown_server())
        .map_err(|e| e.to_string())?;
    println!("server shutting down");
    Ok(())
}

/// `stair dev metrics`: wraps the backend in [`Instrumented`] so the
/// local view gains `dev.*` per-op latency/byte metrics, optionally
/// replays an op-script through it (`--from`, same grammar as `batch`)
/// to populate them, then prints the combined snapshot — the wrapper's
/// registry merged with whatever the backend itself reports (`store.*`
/// and `gf.*` locally, the server's `srv.*` counters over `tcp:`).
fn cmd_metrics(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    let dev = Instrumented::new(open(spec)?);
    if let Some(from) = flags.get("from").filter(|v| !v.is_empty()) {
        let text = std::fs::read_to_string(from)
            .map_err(|e| format!("cannot read op-script {from}: {e}"))?;
        let batch = parse_op_script(&text)?;
        dev.submit(&batch).map_err(|e| e.to_string())?;
    }
    let snap = dev.metrics().map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        print!("{}", status_json::metrics_json(&snap).to_text());
        return Ok(());
    }
    println!("counters:");
    for (name, v) in &snap.counters {
        println!("  {name:<28} {v}");
    }
    println!("gauges:");
    for (name, v) in &snap.gauges {
        println!("  {name:<28} {v}");
    }
    println!("latency histograms (us):");
    for (name, h) in &snap.histograms {
        println!(
            "  {name:<28} count {} p50 {} p99 {} max {}",
            h.count(),
            h.p50(),
            h.p99(),
            h.max
        );
    }
    println!("slow ops captured: {}", snap.slow_ops.len());
    for ev in &snap.slow_ops {
        println!(
            "  t+{}us {} shard {} {} bytes in {}us ({})",
            ev.t_us,
            ev.kind,
            ev.shard,
            ev.bytes,
            ev.duration_us,
            if ev.ok { "ok" } else { "failed" }
        );
    }
    Ok(())
}

/// `stair dev trace`: turns on request tracing, optionally replays an
/// op-script (`--from`, same grammar as `batch`) through an
/// [`Instrumented`] device so every layer records spans, then prints
/// this process's flight recorder — plus the server's, pulled over the
/// TRACE opcode, when `spec` is `tcp:`. Local and server traces go
/// through one serializer, so their shapes cannot drift.
fn cmd_trace(flags: &Flags, spec: &DeviceSpec) -> Result<(), String> {
    stair_obs::trace::set_enabled(true);
    let dev = Instrumented::new(open(spec)?);
    if let Some(from) = flags.get("from").filter(|v| !v.is_empty()) {
        let text = std::fs::read_to_string(from)
            .map_err(|e| format!("cannot read op-script {from}: {e}"))?;
        let batch = parse_op_script(&text)?;
        dev.submit(&batch).map_err(|e| e.to_string())?;
    }
    let local = recorded_traces();
    let server = match spec {
        DeviceSpec::Tcp { addr, .. } => Client::connect(addr)
            .and_then(|client| client.pull_traces())
            .map_err(|e| e.to_string())?,
        _ => Vec::new(),
    };
    if flags.contains_key("json") {
        print!("{}", status_json::traces_json(&local, &server).to_text());
        return Ok(());
    }
    if local.is_empty() && server.is_empty() {
        println!("no traces recorded (pass --from SCRIPT to trace a replay)");
        return Ok(());
    }
    for (origin, traces) in [("local", &local), ("server", &server)] {
        for trace in traces {
            println!(
                "trace {:016x} ({origin}, {}us, {}{})",
                trace.trace_id,
                trace.duration_us,
                if trace.ok { "ok" } else { "failed" },
                if trace.slow { ", slow" } else { "" },
            );
            print_span_tree(&trace.spans, trace.root_span, 1);
        }
    }
    Ok(())
}

/// Prints `span_id` and its descendants, indented by depth. Orphan
/// spans (parent evicted past the per-trace cap) simply do not print —
/// the JSON view still carries them.
fn print_span_tree(spans: &[stair_net::WireSpan], span_id: u64, depth: usize) {
    let Some(span) = spans.iter().find(|s| s.span_id == span_id) else {
        return;
    };
    println!(
        "{}{} {}us{}{}",
        "  ".repeat(depth),
        span.name,
        span.duration_us,
        if span.bytes > 0 {
            format!(" {}B", span.bytes)
        } else {
            String::new()
        },
        if span.ok { "" } else { " FAILED" },
    );
    let mut children: Vec<&stair_net::WireSpan> =
        spans.iter().filter(|s| s.parent_id == span_id).collect();
    children.sort_by_key(|s| s.start_us);
    for child in children {
        print_span_tree(spans, child.span_id, depth + 1);
    }
}

/// This process's flight recorder as wire traces: the completed ring
/// plus any slow/errored captures the main ring has already evicted —
/// the same merge the server performs for a TRACE pull.
fn recorded_traces() -> Vec<WireTrace> {
    let rec = stair_obs::trace::recorder();
    let mut traces: Vec<WireTrace> = rec.traces().iter().map(WireTrace::from).collect();
    let seen: std::collections::HashSet<(u64, u64)> =
        traces.iter().map(|t| (t.trace_id, t.root_span)).collect();
    traces.extend(
        rec.slow_traces()
            .iter()
            .filter(|t| !seen.contains(&(t.trace_id, t.root_span)))
            .map(WireTrace::from),
    );
    traces
}
