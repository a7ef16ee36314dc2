//! `stair serve`: host a sharded stair-net storage service.
//!
//! ```text
//! stair serve --dir ROOT --addr HOST:PORT [--shards K] [--code SPEC]
//!             [--symbol S] [--stripes T] [--workers W] [--batch B]
//! ```
//!
//! An empty root is initialized with `K` fresh shards (`--code`,
//! `--symbol`, `--stripes` pick their shape); a root that already holds
//! shards is reopened, in which case `--shards` must match what is on
//! disk and the shape flags are ignored. Every failure — busy port, bad
//! root, mismatched shard count — is a clean error message and a
//! non-zero exit, never a panic.

use std::path::PathBuf;
use std::str::FromStr;

use stair_code::CodecSpec;
use stair_net::{Server, ServerConfig, ShardSet};
use stair_store::StoreOptions;

use crate::flags::{usize_flag, Flags};

/// Usage text for `stair serve`.
pub const SERVE_USAGE: &str = "usage:
  stair serve --dir ROOT --addr HOST:PORT [--shards K] [--code SPEC]
              [--symbol S] [--stripes T] [--workers W] [--batch B]
  (new roots are initialized with K shards of the given shape; existing
   roots are reopened and --shards must match)";

/// Runs `stair serve`, blocking until the server is shut down.
pub fn run(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .get("dir")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .ok_or_else(|| format!("--dir is required\n{SERVE_USAGE}"))?;
    let addr = flags
        .get("addr")
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("--addr is required\n{SERVE_USAGE}"))?;
    let shards = usize_flag(flags, "shards", 4)?;
    let code = match flags.get("code") {
        Some(spec) => CodecSpec::from_str(spec).map_err(|e| e.to_string())?,
        None => CodecSpec::Stair {
            n: 8,
            r: 16,
            m: 2,
            e: vec![1, 2],
        },
    };
    let opts = StoreOptions {
        code,
        symbol: usize_flag(flags, "symbol", 512)?,
        stripes: usize_flag(flags, "stripes", 64)?,
    };
    if dir.exists() && !dir.is_dir() {
        return Err(format!("{} exists and is not a directory", dir.display()));
    }
    let set = ShardSet::open_or_create(&dir, shards, &opts).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        workers: usize_flag(flags, "workers", 4)?.max(1),
        write_batch: usize_flag(flags, "batch", 32)?.max(1),
    };
    let server = Server::bind(addr, set, config).map_err(|e| e.to_string())?;
    let info = server.info();
    println!(
        "serving {} shard(s) of {} ({} bytes, {}-byte blocks) on {} with {} worker(s)",
        info.shards,
        info.codec,
        info.capacity,
        info.block_size,
        server.local_addr(),
        config.workers
    );
    // Tests and scripts parse the line above to learn the bound port;
    // make sure it is out before the accept loop blocks.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())
}
