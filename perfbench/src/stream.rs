//! `stream_stripe`: one client on a local `file:` store, sequential
//! whole-stripe writes then whole-stripe reads, pass after pass.
//!
//! Every write is a full stripe, so the store takes the full-encode
//! path (GF kernel, upstairs/downstairs choice, journal data-image
//! records, sector checksums) and never the delta path, the cache or
//! the network.

use std::time::{Duration, Instant};

use stair_device::BlockDevice;
use stair_store::{StoreOptions, StripeStore};

use crate::common::*;
use crate::layers::{analytic_mult_xors, Layers};
use crate::{timed_setup, E2e, Window};

/// 352 stripes × 93 blocks × 4 KiB = 127.9 MiB of user data.
pub const STRIPES: usize = 352;
/// Set-ups per run (each fills 128 MiB).
pub const SETUPS: usize = 3;

/// A store in its own scratch directory, filled with generation 0 and
/// flushed, so timed writes overwrite allocated sectors as in a store in
/// use and no prefill write-back is pending when timing starts.
pub fn filled_store(tag: &str, seed: u64) -> (StripeStore, Box<Gens>) {
    let dir = scratch_dir(tag);
    let opts = StoreOptions {
        code: codec_spec(),
        symbol: SYMBOL,
        stripes: STRIPES,
    };
    let store = StripeStore::create(&dir, &opts).expect("create store");
    let mut gens = Box::new([0; STRIPES]);
    let mut tally = Tally::default();
    write_pass(&store, seed, &mut gens, 0, &mut tally);
    assert_eq!(tally.failed, 0, "prefill failed");
    store.flush().expect("flush after prefill");
    (store, gens)
}

/// The shadow copy of a local store: the generation each stripe was
/// last acknowledged with.
pub type Gens = [u64; STRIPES];

/// Writes generation `gen` of every stripe, in order, one call each.
pub fn write_pass(
    store: &StripeStore,
    seed: u64,
    gens: &mut Gens,
    gen: u64,
    tally: &mut Tally,
) -> Samples {
    let sb = store.blocks_per_stripe() * SYMBOL;
    let mut out = Samples::default();
    for (s, acked) in gens.iter_mut().enumerate() {
        let data = payload(seed, s as u64, gen, sb);
        let t = Instant::now();
        let r = BlockDevice::write_at(store, (s * sb) as u64, &data);
        let d = t.elapsed();
        if tally.call(r).is_some() {
            out.push(d);
            *acked = gen;
        }
    }
    out
}

/// Reads every stripe, in order, one call each, and checks it against
/// the shadow copy.
pub fn read_pass(store: &StripeStore, seed: u64, gens: &Gens, tally: &mut Tally) -> Samples {
    let sb = store.blocks_per_stripe() * SYMBOL;
    let mut out = Samples::default();
    for (s, &gen) in gens.iter().enumerate() {
        let t = Instant::now();
        let r = BlockDevice::read_at(store, (s * sb) as u64, sb);
        let d = t.elapsed();
        if let Some(got) = tally.call(r) {
            out.push(d);
            tally.check(got == payload(seed, s as u64, gen, sb), "stripe read");
        }
    }
    out
}

/// Write-then-read cycles over every stripe, one window each, until
/// a cycle ends past `deadline` (at least one).
fn phase(
    store: &StripeStore,
    seed: u64,
    gens: &mut Gens,
    deadline: Instant,
) -> (Vec<Window>, Tally) {
    let sb = (store.blocks_per_stripe() * SYMBOL) as f64;
    let mut windows = Vec::new();
    let mut tally = Tally::default();
    loop {
        let t0 = Instant::now();
        let gen = gens.iter().max().expect("stripes") + 1;
        let writes = write_pass(store, seed, gens, gen, &mut tally);
        let reads = read_pass(store, seed, gens, &mut tally);
        windows.push(Window {
            wall_s: t0.elapsed().as_secs_f64(),
            read_bytes: reads.len() as f64 * sb,
            write_bytes: writes.len() as f64 * sb,
            reads,
            writes,
            other_calls: 0,
        });
        if Instant::now() >= deadline {
            return (windows, tally);
        }
    }
}

/// Merges windows into one.
pub fn merged(windows: Vec<Window>) -> Window {
    let mut all = Window::default();
    let mut wall = 0.0;
    for w in windows {
        wall += w.wall_s;
        all.absorb(w);
    }
    all.wall_s = wall;
    all
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let (setup_s, (store, mut gens)) =
        timed_setup(SETUPS, |i| filled_store(&format!("stream-{i}"), seed));
    let sb = store.blocks_per_stripe() * SYMBOL;
    if !trace {
        let (windows, tally) = phase(&store, seed, &mut gens, Instant::now() + secs(seconds));
        E2e {
            setup_s,
            windows,
            concurrent: false,
        }
        .report(tally)
    } else {
        let half = seconds / 2.0;
        let (plain, mut tally) = phase(&store, seed, &mut gens, Instant::now() + secs(half));
        let m0 = store.metrics().expect("store metrics");
        let io0 = ProcIo::now();
        let (traced, t) = phase(&store, seed, &mut gens, Instant::now() + secs(half));
        let mut l = Layers {
            io: ProcIo::now().since(&io0),
            ..Layers::default()
        };
        let m1 = store.metrics().expect("store metrics");
        tally.absorb(&t);
        l.count(&m1, &m0);
        l.write_mult_xors = delta(&m1, &m0, "gf.mult_xors");
        let write_mib_s = |w: &Window| ratio(w.write_bytes / MIB, w.writes.total_s());
        let (plain, traced) = (merged(plain), merged(traced));
        l.trace_overhead_frac = ratio(
            write_mib_s(&plain) - write_mib_s(&traced),
            write_mib_s(&plain),
        );
        l.phase(traced);
        let t = Instant::now();
        if let Some(scrub) = tally.call(BlockDevice::scrub(&store, nproc())) {
            tally.check(scrub.clean(), "scrub after the traced phase");
        }
        l.scrub_s = t.elapsed().as_secs_f64();
        finish_layers(&mut l, &store, seed, &mut tally);
        let mut report = Report::new(tally);
        l.emit(sb as f64, &mut report);
        report
    }
}

pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The per-layer measurements every workload takes after its traced
/// phase: the time of a whole-stripe `StripeStore::read_at` (what a
/// partial write loads first) and the kernel unit costs.
pub fn finish_layers(l: &mut Layers, store: &StripeStore, seed: u64, tally: &mut Tally) {
    let sb = store.blocks_per_stripe() * SYMBOL;
    for s in 0..64 {
        let t = Instant::now();
        let r = BlockDevice::read_at(store, ((s % store.stripe_count()) * sb) as u64, sb);
        l.stripe_load.push(t.elapsed());
        tally.call(r);
    }
    l.kernels = Some(kernel_costs(
        seed,
        &crate::degraded::burst_pattern(&mut Rng::new(seed)),
    ));
    l.mult_xors_analytic = analytic_mult_xors();
}
