//! The pool's busy-time accounting, checked against wall time over one
//! parallel region. The caller thread and the pool workers together cannot
//! be busy for more than `pool_threads() × wall`, so
//! `(busy + wall) / (wall × pool_threads())` must stay at or below 1: the
//! parallel-efficiency figure the repo benchmark derives from the same
//! counters. The region keeps both threads of a 2-thread pool busy, so it
//! reads close to 1 there, and a busy interval counted twice reads well
//! above 1.01. This file holds one test so that no other region shares the
//! process.

use rayon::prelude::*;
use std::time::Instant;

fn spin(x: u64) -> u64 {
    (0..2048u64).fold(x, |h, i| {
        h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i)
    })
}

#[test]
fn busy_time_fits_in_the_pool_width_over_a_region() {
    let busy_before = rayon::pool_busy_nanos();
    let start = Instant::now();
    let out = (0..1u64 << 16).into_par_iter().map(spin).max();
    // Read the busy counter before stopping the clock: a worker adds its
    // interval only after the job ends, so everything counted lies inside
    // the wall-clock window.
    let busy = rayon::pool_busy_nanos() - busy_before;
    let wall = start.elapsed().as_nanos() as f64;
    std::hint::black_box(out);

    let threads = rayon::pool_threads();
    let efficiency = (busy as f64 + wall) / (wall * threads as f64);
    assert!(
        efficiency > 0.0 && efficiency <= 1.01,
        "efficiency {efficiency:.3} at {threads} threads (busy {busy} ns, wall {wall} ns)"
    );
    if threads > 1 {
        assert!(
            busy > 0,
            "a {threads}-thread region ran nothing on the pool"
        );
    }
}
