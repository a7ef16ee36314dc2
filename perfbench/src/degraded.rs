//! `degraded_repair`: a filled local store loses m = 2 devices plus, in
//! every stripe, the largest latent burst the code still covers
//! (e = 1,2: one sector on a third device, two on a fourth — the
//! correlated-burst model of §7). Each round then reads everything
//! degraded, repairs, scrubs, and reads everything clean; the next
//! round starts by writing a fresh generation of data.
//!
//! The damaged devices are the same four whole data devices in every
//! round, so every stripe loses 35 data sectors and every round does the
//! same kind of decoding; the seed places the bursts. Drawing the devices
//! from the seed made the degraded read median jump from seed to seed:
//! with parity devices in the draw by 0.29 of itself between quartiles,
//! with data devices only still by 0.23, while the p90 moved by 0.06.

use std::time::Instant;

use stair_code::{ErasureSet, Geometry};
use stair_device::{BlockDevice, FaultAdmin};
use stair_store::StripeStore;

use crate::common::*;
use crate::layers::Layers;
use crate::stream::{
    filled_store, finish_layers, merged, read_pass, secs, write_pass, Gens, SETUPS, STRIPES,
};
use crate::{timed_setup, E2e, Window};

/// One round's damage: the failed devices, then per stripe the
/// `(device, row, len)` bursts.
struct Damage {
    failed: [usize; 2],
    bursts: Vec<[(usize, usize, usize); 2]>,
}

/// Fails the first two whole data devices and, in every stripe, loses
/// one sector of the third and two of the fourth at rows drawn from
/// `rng`.
fn draw_damage(rng: &mut Rng, g: &Geometry) -> Damage {
    let whole_data: Vec<usize> = (0..g.n)
        .filter(|&d| g.data_cells.iter().filter(|c| c.1 == d).count() == g.r)
        .collect();
    let &[a, b, c, d, ..] = whole_data.as_slice() else {
        panic!("the benchmark codec has four whole data devices");
    };
    let bursts = (0..STRIPES)
        .map(|_| [(c, rng.below(g.r), 1), (d, rng.below(g.r - 1), 2)])
        .collect();
    Damage {
        failed: [a, b],
        bursts,
    }
}

/// The erasure pattern of one damaged stripe, for timing plan + apply.
pub fn burst_pattern(rng: &mut Rng) -> ErasureSet {
    let code = stair_store::build_codec(&codec_spec()).expect("benchmark codec builds");
    let g = code.geometry();
    let d = draw_damage(rng, &g);
    let r = g.r;
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for &dev in &d.failed {
        cells.extend((0..r).map(|row| (row, dev)));
    }
    for &(dev, row, len) in &d.bursts[0] {
        cells.extend((row..row + len).map(|k| (k, dev)));
    }
    ErasureSet::new(cells)
}

/// What the rounds of one phase saw besides their windows.
#[derive(Default)]
struct Rounds {
    repair_s: Vec<f64>,
    scrub_s: Vec<f64>,
    stripes_repaired: u64,
    write_mult_xors: u64,
    tally: Tally,
}

/// Rounds until one ends past `deadline` (at least one), one window
/// each: write generation `gen + 1`, damage, degraded read, repair,
/// scrub, clean read.
fn phase(
    store: &StripeStore,
    seed: u64,
    gens: &mut Gens,
    deadline: Instant,
) -> (Vec<Window>, Rounds) {
    let g = store.geometry();
    let sb = (store.blocks_per_stripe() * SYMBOL) as f64;
    let threads = nproc();
    let mut windows = Vec::new();
    let mut p = Rounds::default();
    loop {
        let t0 = Instant::now();
        let mut w = Window::default();
        let gen = gens.iter().max().expect("stripes") + 1;
        let mx0 = stair_gf::counters::mult_xors();
        w.writes = write_pass(store, seed, gens, gen, &mut p.tally);
        p.write_mult_xors += stair_gf::counters::mult_xors() - mx0;

        let damage = draw_damage(&mut Rng::new(mix(&[seed, gen])), g);
        for &dev in &damage.failed {
            p.tally.call(FaultAdmin::fail_device(store, 0, dev));
        }
        for (s, bursts) in damage.bursts.iter().enumerate() {
            for &(dev, row, len) in bursts {
                p.tally
                    .call(FaultAdmin::corrupt_sectors(store, 0, dev, s, row, len));
            }
        }
        w.reads = read_pass(store, seed, gens, &mut p.tally);

        let t = Instant::now();
        if let Some(rep) = p.tally.call(BlockDevice::repair(store, threads)) {
            p.tally
                .check(rep.complete(), "repair left unrecoverable stripes");
            p.stripes_repaired += rep.stripes_repaired;
        }
        p.repair_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        if let Some(scrub) = p.tally.call(BlockDevice::scrub(store, threads)) {
            p.tally.check(scrub.clean(), "scrub after repair");
        }
        p.scrub_s.push(t.elapsed().as_secs_f64());
        w.other_calls = read_pass(store, seed, gens, &mut p.tally).len();
        w.wall_s = t0.elapsed().as_secs_f64();
        w.read_bytes = w.reads.len() as f64 * sb;
        w.write_bytes = w.writes.len() as f64 * sb;
        windows.push(w);
        if Instant::now() >= deadline {
            return (windows, p);
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let (setup_s, (store, mut gens)) =
        timed_setup(SETUPS, |i| filled_store(&format!("degraded-{i}"), seed));
    let sb = (store.blocks_per_stripe() * SYMBOL) as f64;
    if !trace {
        let (windows, rounds) = phase(&store, seed, &mut gens, Instant::now() + secs(seconds));
        println!(
            "repair_s {:.4} s (median of {} rounds)",
            median_f64(&rounds.repair_s),
            rounds.repair_s.len()
        );
        E2e {
            setup_s,
            windows,
            concurrent: false,
        }
        .report(rounds.tally)
    } else {
        let half = seconds / 2.0;
        let (plain, rounds) = phase(&store, seed, &mut gens, Instant::now() + secs(half));
        let mut tally = rounds.tally;
        let m0 = store.metrics().expect("store metrics");
        let io0 = ProcIo::now();
        let (traced, rounds) = phase(&store, seed, &mut gens, Instant::now() + secs(half));
        let mut l = Layers {
            io: ProcIo::now().since(&io0),
            ..Layers::default()
        };
        let m1 = store.metrics().expect("store metrics");
        tally.absorb(&rounds.tally);
        l.count(&m1, &m0);
        l.write_mult_xors = rounds.write_mult_xors;
        l.stripes_repaired = rounds.stripes_repaired;
        l.repair_s = median_f64(&rounds.repair_s);
        l.scrub_s = median_f64(&rounds.scrub_s);
        let read_mib_s = |w: &Window| ratio(w.read_bytes / MIB, w.reads.total_s());
        let (plain, traced) = (merged(plain), merged(traced));
        l.trace_overhead_frac = ratio(read_mib_s(&plain) - read_mib_s(&traced), read_mib_s(&plain));
        l.phase(traced);
        finish_layers(&mut l, &store, seed, &mut tally);
        let mut report = Report::new(tally);
        l.emit(sb, &mut report);
        report
    }
}
