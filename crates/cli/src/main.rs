//! `stair` — command-line tool for the stair-store engine and the
//! unified block-device API.
//!
//! ```text
//! stair info    --n 8 --r 16 --m 2 --e 1,2
//! stair store   (init|recover|inject) --dir DIR ...
//! stair serve   --dir ROOT --addr HOST:PORT [--shards K --code SPEC ...]
//! stair dev     (status|read|write|batch|fail|scrub|repair|flush|metrics|trace|shutdown) --dev SPEC ...
//! ```
//!
//! `stair store init --code sd:6,4,1,2` (or `rs:n,r,m` / `stair:n,r,m,e`)
//! creates a store protected by the chosen erasure code; `recover` and
//! `inject` are the other verbs that need a local store. `stair serve`
//! hosts a sharded store over the stair-net protocol. `stair dev`
//! drives *any* backend through the unified `BlockDevice` API —
//! `--dev file:<dir>`, `shards:<root>?n=K`, `tcp:<addr>?lanes=L`, or
//! `cache:<inner>` — and is the one data path for all of them.

#![forbid(unsafe_code)]

mod device_cmd;
mod flags;
mod serve_cmd;
mod status_json;
mod store_cmd;

use std::collections::HashMap;
use std::process::ExitCode;

use stair::{Config, StairCodec};
use stair_reliability::storage_efficiency;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (usage, result) = match args.first().map(String::as_str) {
        Some("store") => (
            store_cmd::STORE_USAGE,
            parse(&args[1..]).map(|(verb, flags)| store_cmd::run(&verb, &flags)),
        ),
        Some("dev") => (
            device_cmd::DEV_USAGE,
            parse(&args[1..]).map(|(verb, flags)| device_cmd::run(&verb, &flags)),
        ),
        Some("serve") => (
            serve_cmd::SERVE_USAGE,
            parse(&args).map(|(_, flags)| serve_cmd::run(&flags)),
        ),
        Some("info") => (USAGE, parse(&args).map(|(_, flags)| cmd_info(&flags))),
        Some(cmd) => (
            USAGE,
            Some(Err(format!("unknown command `{cmd}`\n{USAGE}"))),
        ),
        None => (USAGE, None),
    };
    match result {
        Some(Ok(())) => ExitCode::SUCCESS,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  stair info    --n N --r R --m M --e E
  stair store   (init|recover|inject) --dir DIR ...
  stair serve   --dir ROOT --addr HOST:PORT [--shards K --code SPEC ...]
  stair dev     (status|read|write|batch|fail|scrub|repair|flush|metrics|trace|shutdown) --dev SPEC ...";

use flags::{usize_flag, Flags};

/// Parses `<cmd> [--key value | --flag]...`. A `--key` followed by
/// another `--key` (or by nothing) is a valueless flag and maps to the
/// empty string, so presence tests like `--json` work.
fn parse(args: &[String]) -> Option<(String, Flags)> {
    let mut it = args.iter().peekable();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
            _ => String::new(),
        };
        flags.insert(key.to_string(), value);
    }
    Some((cmd, flags))
}

fn e_flag(flags: &Flags, default: &[usize]) -> Result<Vec<usize>, String> {
    match flags.get("e") {
        None => Ok(default.to_vec()),
        Some(v) => v
            .split(',')
            .map(|x| {
                x.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad e entry `{x}`"))
            })
            .collect(),
    }
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let n = usize_flag(flags, "n", 8)?;
    let r = usize_flag(flags, "r", 16)?;
    let m = usize_flag(flags, "m", 2)?;
    let e = e_flag(flags, &[1, 2])?;
    let config = Config::new(n, r, m, &e).map_err(|e| e.to_string())?;
    let codec: StairCodec = StairCodec::new(config.clone()).map_err(|e| e.to_string())?;
    println!("STAIR(n={n}, r={r}, m={m}, e={e:?})");
    println!("  m' = {}, s = {}", config.m_prime(), config.s());
    println!("  data sectors / stripe   : {}", config.data_symbols());
    println!(
        "  parity sectors / stripe : {}",
        n * r - config.data_symbols()
    );
    println!(
        "  storage efficiency      : {:.4}",
        storage_efficiency(n, r, m, config.s())
    );
    let c = codec.mult_xor_counts();
    println!(
        "  Mult_XORs (up/down/std) : {}/{}/{} -> {:?}",
        c.upstairs,
        c.downstairs,
        c.standard,
        codec.best_method()
    );
    println!(
        "  avg update penalty      : {:.2}",
        codec.relations().update_penalty().average
    );
    Ok(())
}
