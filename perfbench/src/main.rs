//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mixed_4k|stream_stripe|degraded_repair> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `--seed` only. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; both print human-readable
//! lines first and one JSON object as the last line of stdout. Every
//! byte read is checked; wrong bytes exit with status 1. See
//! `perfbench/README.md` for what each metric means.

mod common;
mod degraded;
mod layers;
mod mixed;
mod stream;

use std::process::ExitCode;
use std::time::Instant;

use common::{median_f64, peak_rss_mib, ratio, Report, Samples, Tally, MIB};

/// Runs `make` `times` times, dropping all but the last result, and
/// returns the median set-up time with the last result.
fn timed_setup<T>(times: usize, mut make: impl FnMut(usize) -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for i in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(make(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (median_f64(&secs), last.expect("at least one set-up"))
}

/// One window of a timed phase: a fixed slice of time on `mixed_4k`,
/// one write-then-read cycle on `stream_stripe`, one round on
/// `degraded_repair`.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    pub reads: Samples,
    pub writes: Samples,
    /// Calls besides `reads` and `writes` (the verify reads after repair).
    pub other_calls: usize,
    pub read_bytes: f64,
    pub write_bytes: f64,
}

impl Window {
    pub fn absorb(&mut self, other: Window) {
        self.wall_s = self.wall_s.max(other.wall_s);
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.other_calls += other.other_calls;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }

    pub fn calls(&self) -> usize {
        self.reads.len() + self.writes.len() + self.other_calls
    }
}

/// The timed phase of an untraced run. Each rate is the median of its
/// per-window values, so a stall confined to a few windows does not move
/// it. Latency percentiles are exact nearest-rank over every call of the
/// run. Tails are printed but are not metrics: on a shared machine they
/// moved between runs by more than any bound the metrics may have.
pub struct E2e {
    pub setup_s: f64,
    pub windows: Vec<Window>,
    /// Reads and writes overlap in time (several client threads): MiB/s
    /// is then over window wall time, otherwise over time spent in calls.
    pub concurrent: bool,
}

impl E2e {
    fn median_of(&self, f: impl Fn(&Window) -> Option<f64>) -> f64 {
        median_f64(&self.windows.iter().filter_map(f).collect::<Vec<_>>())
    }

    /// Every sample of one kind, over all windows.
    fn pooled(&self, pick: impl Fn(&Window) -> &Samples) -> Samples {
        Samples(
            self.windows
                .iter()
                .flat_map(|w| pick(w).0.iter().copied())
                .collect(),
        )
    }

    fn mib_s(&self, bytes: f64, calls: &Samples, w: &Window) -> Option<f64> {
        let s = if self.concurrent {
            w.wall_s
        } else {
            calls.total_s()
        };
        (calls.len() > 0).then(|| bytes / MIB / s)
    }

    /// Every end-to-end metric, in the order `BENCHMARK.json` lists them.
    pub fn report(self, tally: Tally) -> Report {
        println!("{} windows", self.windows.len());
        let reads = self.pooled(|w| &w.reads);
        let writes = self.pooled(|w| &w.writes);
        for (kind, all) in [("read", &reads), ("write", &writes)] {
            println!("{kind} samples {}:", all.len());
            for (q, name) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (1.0, "max")] {
                println!("  {kind}_{name}_us {}", all.pct_us(q));
            }
        }
        println!(
            "failed_frac {} ({} of {} calls)",
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.failed,
            tally.attempted
        );
        let mut r = Report::new(tally);
        r.put("setup_s", self.setup_s, "s");
        let ops = self.median_of(|w| Some(w.calls() as f64 / w.wall_s));
        r.put("ops_per_s", ops, "ops/s");
        r.put("read_p50_us", reads.pct_us(0.5), "us");
        r.put("write_p50_us", writes.pct_us(0.5), "us");
        let read = self.median_of(|w| self.mib_s(w.read_bytes, &w.reads, w));
        r.put("read_mib_s", read, "MiB/s");
        let write = self.median_of(|w| self.mib_s(w.write_bytes, &w.writes, w));
        r.put("write_mib_s", write, "MiB/s");
        r.put("peak_rss_mib", peak_rss_mib(), "MiB");
        r
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "mixed_4k" => mixed::run,
        "stream_stripe" => stream::run,
        "degraded_repair" => degraded::run,
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc()
    );
    let report = run(args.seed, args.seconds, args.trace);
    common::remove_scratch();
    let correct = report.tally.wrong == 0;
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
