//! Memory discipline of the round loop (DESIGN.md §8).
//!
//! The counting global allocator — shared with `tests/stream_stress.rs`
//! and the `rrs bench` harness via `rrs_bench::alloc_probe` — measures
//! heap allocations per simulated round. After a warm-up prefix (buffers
//! growing to their high-water marks, colors becoming eligible), a
//! steady-state round must perform **zero** allocations for ΔLRU-EDF at
//! speed 1, and only boundedly many for the full reduction stack
//! `VarBatch<Distribute<ΔLRU-EDF>>` (whose virtual universe may still grow
//! while batches are being split).
//!
//! The call counter is per thread, so the measured loops read only their
//! own allocations whatever other tests in this binary do concurrently;
//! `neighbouring_allocations_do_not_leak_into_round_counts` pins that.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rrs::prelude::*;
use rrs_bench::alloc_probe;

#[global_allocator]
static GLOBAL: rrs_bench::AllocProbe = rrs_bench::AllocProbe;

/// Recorder measuring allocator calls per round. All storage is
/// preallocated so the probe itself never allocates mid-run.
struct RoundAllocs {
    per_round: Vec<(u64, u64)>,
    at_round_start: u64,
}

impl RoundAllocs {
    fn with_capacity(rounds: usize) -> Self {
        Self { per_round: Vec::with_capacity(rounds + 16), at_round_start: 0 }
    }
}

impl Recorder for RoundAllocs {
    fn on_round_start(&mut self, _round: u64) {
        self.at_round_start = alloc_probe::alloc_calls();
    }

    fn on_round_end(&mut self, round: u64) {
        let now = alloc_probe::alloc_calls();
        assert!(self.per_round.len() < self.per_round.capacity(), "probe undersized");
        self.per_round.push((round, now - self.at_round_start));
    }
}

/// A batched `[Δ|1|D_ℓ|D_ℓ]` workload: five colors over three bounds with
/// periodic batches, long enough to reach a steady state.
fn batched_instance(blocks: u64) -> rrs_model::Instance {
    let mut b = rrs_model::InstanceBuilder::new(3);
    let c2a = b.color(2);
    let c2b = b.color(2);
    let c4a = b.color(4);
    let c4b = b.color(4);
    let c8 = b.color(8);
    for blk in 0..blocks {
        b.arrive(blk * 2, c2a, 2);
        if blk % 2 == 0 {
            b.arrive(blk * 2, c2b, 1);
        }
    }
    for blk in 0..blocks / 2 {
        b.arrive(blk * 4, c4a, 4).arrive(blk * 4, c4b, 3);
    }
    for blk in 0..blocks / 4 {
        b.arrive(blk * 8, c8, 8);
    }
    b.build()
}

/// A general (off-boundary, oversized-batch) workload for the reduction
/// stack.
fn general_instance(rounds: u64) -> rrs_model::Instance {
    let mut b = rrs_model::InstanceBuilder::new(2);
    let c4 = b.color(4);
    let c6 = b.color(6);
    let c16 = b.color(16);
    for r in 0..rounds {
        b.arrive(r, c4, 1);
        if r % 3 == 1 {
            b.arrive(r, c6, 2);
        }
        if r % 16 == 5 {
            b.arrive(r, c16, 20); // oversized: Distribute must split it
        }
    }
    b.build()
}

fn run_with_probe<P: Policy>(inst: &rrs_model::Instance, n: usize, policy: &mut P) -> RoundAllocs {
    let sim = Simulator::new(inst, n);
    let mut probe = RoundAllocs::with_capacity(inst.horizon() as usize + 1);
    let mut scratch = Scratch::new();
    sim.run_traced_with(policy, &mut probe, &mut scratch);
    probe
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");

    // Part 1: ΔLRU-EDF at speed 1 — zero allocations per steady round.
    let inst = batched_instance(128);
    let warmup = 64;
    let probe = run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
    assert!(probe.per_round.last().unwrap().0 >= 200, "instance too short to be meaningful");
    for &(round, allocs) in &probe.per_round {
        if round >= warmup {
            assert_eq!(
                allocs, 0,
                "dlru-edf round {round} performed {allocs} heap allocations; \
                 the steady-state round loop must be allocation-free"
            );
        }
    }

    // Part 2: the full stack VarBatch<Distribute<ΔLRU-EDF>> — bounded
    // allocations per steady round (the virtual universe may grow while
    // oversized batches mint sub-colors, but it must plateau).
    let inst = general_instance(192);
    let warmup = 96;
    let probe = run_with_probe(&inst, 8, &mut rrs_core::full_algorithm());
    let max_after: u64 =
        probe.per_round.iter().filter(|&&(r, _)| r >= warmup).map(|&(_, a)| a).max().unwrap();
    assert!(
        max_after <= 4,
        "full stack allocated {max_after} times in a steady-state round; \
         expected a small bounded number"
    );

    // Part 3: 10⁵ *live* colors. The opening round materializes every
    // page and book state; after that warm-up, steady rounds on the hot
    // slice must stay allocation-free — page lookups and the hierarchical
    // set walks never allocate once touched.
    let live = 100_000usize;
    let mut b = rrs_model::InstanceBuilder::new(2);
    let colors: Vec<_> = (0..live).map(|i| b.color(if i % 2 == 0 { 2 } else { 4 })).collect();
    for &c in &colors {
        b.arrive(0, c, 1);
    }
    for r in 1..192u64 {
        if r.is_multiple_of(2) {
            b.arrive(r, colors[0], 2);
            b.arrive(r, colors[62], 1); // same leaf word as colors[0]
            b.arrive(r, colors[live - 2], 1); // far page, still pre-touched
        }
        if r.is_multiple_of(4) {
            b.arrive(r, colors[1], 3); // bound-4 color, on-boundary rounds only
        }
    }
    let inst = b.build();
    let warmup = 96;
    let probe = run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
    for &(round, allocs) in &probe.per_round {
        if round >= warmup {
            assert_eq!(
                allocs, 0,
                "dlru-edf round {round} allocated {allocs} times with 10^5 live colors; \
                 pre-touched pages must keep the steady state allocation-free"
            );
        }
    }

    // Part 4: a 10⁶-color universe of which only ~10³ colors are ever
    // live. Peak policy + engine heap must be a live-color budget plus
    // the thin per-universe residue (bitset leaf words and page-spine
    // pointers, ≤ a few bytes per declared color) — far below the
    // hundreds of bytes per color the dense per-color state used to pin.
    let universe = 1_000_000usize;
    let live = 1_000usize;
    let mut b = rrs_model::InstanceBuilder::new(2);
    let colors: Vec<_> = (0..universe).map(|i| b.color(if i % 2 == 0 { 2 } else { 4 })).collect();
    for k in 0..live {
        // Scattered ids: worst case for paging (every live color on its
        // own page), exercising the O(touched pages) bound.
        let c = colors[k * (universe / live)];
        b.arrive(0, c, 1);
        b.arrive(64, c, 1);
    }
    let inst = b.build();
    let baseline = alloc_probe::reset_peak();
    run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
    let peak = alloc_probe::peak_bytes().saturating_sub(baseline);
    eprintln!("10^6-universe/{live}-live run: live-heap peak {peak} bytes");
    let cap = 24 * 1024 * 1024;
    assert!(
        peak < cap,
        "10^6-color universe with {live} live colors grew live heap by {peak} bytes \
         (cap {cap}); per-color state is no longer proportional to the live colors"
    );
}

/// A thread allocating as fast as it can beside a measured steady
/// ΔLRU-EDF loop must not show up in the loop's per-round counts.
#[test]
fn neighbouring_allocations_do_not_leak_into_round_counts() {
    assert!(alloc_probe::probe_active(), "probe must be installed as the global allocator");
    let inst = batched_instance(128);
    let warmup = 64;
    let stop = AtomicBool::new(false);
    let allocations = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(8));
                drop(std::hint::black_box(v));
                allocations.fetch_add(1, Ordering::Relaxed);
            }
        });
        while allocations.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        // Repeat the measured run until the neighbour demonstrably
        // allocated during one (the scheduler may not interleave them on
        // a busy host); every run must be clean either way.
        let mut overlapped = false;
        let mut dirty = None;
        for _ in 0..50 {
            let before = allocations.load(Ordering::Relaxed);
            let probe = run_with_probe(&inst, 8, &mut rrs_core::DeltaLruEdf::new());
            overlapped = allocations.load(Ordering::Relaxed) > before;
            dirty = probe.per_round.iter().find(|&&(r, a)| r >= warmup && a > 0).copied();
            if overlapped || dirty.is_some() {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        assert_eq!(dirty, None, "a steady round counted another thread's allocations");
        assert!(overlapped, "the allocating thread never ran during a measured loop");
    });
}
