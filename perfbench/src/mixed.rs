//! `mixed_4k`: two closed-loop client threads share one `cache:tcp:`
//! handle to an in-process server over four journaled shards. Each op
//! is one 4 KiB block, 90% reads and 10% writes, zipf(0.99) over the
//! thread's own half of the space; every read is checked against the
//! thread's shadow copy, cache hits included.

use std::thread::JoinHandle;
use std::time::Instant;

use stair_bench::zipf::{Dist, Sampler};
use stair_cache::{CacheConfig, CachedDevice};
use stair_device::BlockDevice;
use stair_net::{Client, NetError, Server, ServerConfig, ServerHandle, ShardSet};
use stair_store::{StoreOptions, StripeStore};

use crate::common::*;
use crate::layers::Layers;
use crate::stream::{finish_layers, merged, secs};
use crate::{timed_setup, E2e, Window};

const SHARDS: usize = 4;
/// 4 shards × 44 stripes × 93 blocks × 4 KiB = 63.9 MiB of user data,
/// 8× the cache budget.
const STRIPES_PER_SHARD: usize = 44;
const CACHE_MB: usize = 8;
const THREADS: usize = 2;
const READ_FRAC: f64 = 0.9;
const THETA: f64 = 0.99;
/// Ops each thread runs during set-up so the cache is warm when timing
/// starts.
const WARMUP_OPS: usize = 4_000;
/// Set-ups per run.
const SETUPS: usize = 3;
/// Length of one window of the timed phase.
const WINDOW_S: f64 = 2.0;

type Dev = CachedDevice<Timed<Client>>;

/// A running stack; dropping it stops the server.
struct Stack {
    dev: Dev,
    server: ServerHandle,
    running: Option<JoinHandle<Result<(), NetError>>>,
    shard0: StripeStore,
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.server.shutdown();
        if let Some(t) = self.running.take() {
            let _ = t.join();
        }
    }
}

/// One client thread's inputs and shadow copy.
struct Worker {
    seed: u64,
    base: usize,
    /// Generation of each block of this thread's half.
    gens: Vec<u64>,
    sampler: Sampler,
    rng: Rng,
}

#[derive(Default)]
struct Out {
    windows: Vec<Window>,
    cache_self: Samples,
    tally: Tally,
}

impl Out {
    fn window(&mut self, i: usize) -> &mut Window {
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Window::default);
        }
        &mut self.windows[i]
    }
}

impl Worker {
    /// One op; its sample lands in window `(now - t0) / WINDOW_S`,
    /// capped at `last`.
    fn step(&mut self, dev: &Dev, out: &mut Out, t0: Instant, last: usize) {
        let slot = self.sampler.next_slot();
        let block = (self.base + slot) as u64;
        let off = block * SYMBOL as u64;
        let window = || ((t0.elapsed().as_secs_f64() / WINDOW_S) as usize).min(last);
        if self.rng.unit() < READ_FRAC {
            let below = below_ns();
            let t = Instant::now();
            let r = dev.read_at(off, SYMBOL);
            let d = t.elapsed();
            if let Some(got) = out.tally.call(r) {
                out.cache_self
                    .0
                    .push(d.as_nanos() as u64 - (below_ns() - below));
                let want = payload(self.seed, block, self.gens[slot], SYMBOL);
                out.tally.check(got == want, "4 KiB read");
                let w = out.window(window());
                w.reads.push(d);
                w.read_bytes += SYMBOL as f64;
            }
        } else {
            let gen = self.gens[slot] + 1;
            let data = payload(self.seed, block, gen, SYMBOL);
            let t = Instant::now();
            let r = dev.write_at(off, &data);
            let d = t.elapsed();
            if out.tally.call(r).is_some() {
                self.gens[slot] = gen;
                let w = out.window(window());
                w.writes.push(d);
                w.write_bytes += SYMBOL as f64;
            }
        }
    }
}

/// Runs every worker on its own thread until `deadline` (samples split
/// into [`WINDOW_S`] windows) or, without one, for `ops` ops each.
fn drive(dev: &Dev, workers: &mut [Worker], deadline: Option<Instant>, ops: usize) -> Out {
    let t0 = Instant::now();
    let last = deadline.map_or(0, |d| {
        let secs = d.saturating_duration_since(t0).as_secs_f64();
        ((secs / WINDOW_S).ceil() as usize).max(1) - 1
    });
    let outs: Vec<Out> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Out::default();
                    let mut done = 0;
                    while deadline.map_or(done < ops, |d| Instant::now() < d) {
                        w.step(dev, &mut out, t0, last);
                        done += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut all = Out::default();
    for o in outs {
        for (i, w) in o.windows.into_iter().enumerate() {
            all.window(i).absorb(w);
        }
        all.cache_self.extend(o.cache_self);
        all.tally.absorb(&o.tally);
    }
    for (i, w) in all.windows.iter_mut().enumerate() {
        w.wall_s = if i == last {
            wall - WINDOW_S * i as f64
        } else {
            WINDOW_S
        };
    }
    all
}

/// Creates and fills the shards, starts the server, connects the
/// cached client, warms the cache and flushes.
fn set_up(i: usize, seed: u64) -> (Stack, Vec<Worker>, Tally) {
    let dir = scratch_dir(&format!("mixed-{i}"));
    let opts = StoreOptions {
        code: codec_spec(),
        symbol: SYMBOL,
        stripes: STRIPES_PER_SHARD,
    };
    let shards = ShardSet::create(&dir, SHARDS, &opts).expect("create shards");
    let blocks = (shards.capacity() / SYMBOL as u64) as usize;
    const CHUNK: usize = 256;
    for first in (0..blocks).step_by(CHUNK) {
        let mut data = Vec::with_capacity(CHUNK * SYMBOL);
        for b in first..(first + CHUNK).min(blocks) {
            data.extend(payload(seed, b as u64, 0, SYMBOL));
        }
        shards
            .write_at((first * SYMBOL) as u64, &data)
            .expect("prefill");
    }
    let shard0 = shards.shard(0).expect("shard 0").clone();
    let config = ServerConfig {
        workers: nproc(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", shards, config).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr).expect("connect");
    let dev = CachedDevice::new(
        Timed::new(client),
        CacheConfig::from_spec(CACHE_MB, false, 0),
    );
    let stack = Stack {
        dev,
        server: handle,
        running: Some(running),
        shard0,
    };
    let half = blocks / THREADS;
    let mut workers: Vec<Worker> = (0..THREADS)
        .map(|t| Worker {
            seed,
            base: t * half,
            gens: vec![0; half],
            sampler: Sampler::new(Dist::Zipf(THETA), half, mix(&[seed, t as u64, 1])),
            rng: Rng::new(mix(&[seed, t as u64, 2])),
        })
        .collect();
    let mut warm = drive(&stack.dev, &mut workers, None, WARMUP_OPS);
    warm.tally.call(stack.dev.flush());
    (stack, workers, warm.tally)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let (setup_s, (stack, mut workers, mut tally)) = timed_setup(SETUPS, |i| set_up(i, seed));
    let dev = &stack.dev;
    if !trace {
        let p = drive(dev, &mut workers, Some(Instant::now() + secs(seconds)), 0);
        tally.absorb(&p.tally);
        E2e {
            setup_s,
            windows: p.windows,
            concurrent: true,
        }
        .report(tally)
    } else {
        let half = seconds / 2.0;
        let plain = drive(dev, &mut workers, Some(Instant::now() + secs(half)), 0);
        tally.absorb(&plain.tally);

        let client = dev.inner();
        let c0 = dev.registry().snapshot();
        let m0 = client.metrics().expect("server metrics");
        let io0 = ProcIo::now();
        client.set_on(true);
        let p = drive(dev, &mut workers, Some(Instant::now() + secs(half)), 0);
        client.set_on(false);
        let mut l = Layers {
            io: ProcIo::now().since(&io0),
            ..Layers::default()
        };
        let m1 = client.metrics().expect("server metrics");
        let c1 = dev.registry().snapshot();
        tally.absorb(&p.tally);
        l.count(&m1, &m0);
        l.write_mult_xors = delta(&m1, &m0, "gf.mult_xors");
        l.cache_hits = delta(&c1, &c0, "cache.hit");
        l.cache_misses = delta(&c1, &c0, "cache.miss");
        l.cache_evicts = delta(&c1, &c0, "cache.evict");
        l.client_reads = std::mem::take(&mut *client.reads.lock().expect("samples"));
        l.client_writes = std::mem::take(&mut *client.writes.lock().expect("samples"));
        l.cache_self = p.cache_self;
        let ops_per_s = |w: &Window| w.calls() as f64 / w.wall_s;
        let (plain, traced) = (merged(plain.windows), merged(p.windows));
        l.trace_overhead_frac = ratio(ops_per_s(&plain) - ops_per_s(&traced), ops_per_s(&plain));
        l.phase(traced);

        let t = Instant::now();
        if let Some(scrub) = tally.call(dev.scrub(nproc())) {
            tally.check(scrub.clean(), "scrub after the traced phase");
        }
        l.scrub_s = t.elapsed().as_secs_f64();
        finish_layers(&mut l, &stack.shard0, seed, &mut tally);
        let mut report = Report::new(tally);
        l.emit(
            (stack.shard0.blocks_per_stripe() * SYMBOL) as f64,
            &mut report,
        );
        report
    }
}
