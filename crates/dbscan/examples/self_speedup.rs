//! The paper's Figure 9: self-relative speedup of each variant against
//! thread count, on 100k 3D SS-varden points at ε = 2000, minPts = 10.
//!
//! Every variant runs in a `rayon::ThreadPoolBuilder` pool of 1, 2, 4, …
//! threads, up to `available_parallelism`, and is compared with its own
//! 1-thread time. A time is the median of three runs after one warm-up run.
//! Prints CSV: `variant,threads,time_s,self_speedup`.
//!
//! ```text
//! cargo run --release -p dbscan --example self_speedup
//! ```
//!
//! Under `DBSCAN_OBS=trace`, setting `DBSCAN_TRACE_OUT=<path>` writes the
//! run's phase spans to that path as a Chrome trace.

use datagen::{seed_spreader, SeedSpreaderConfig};
use dbscan::{cluster_variant, Params, PointCloud, VariantConfig};
use std::time::Instant;

const REPS: usize = 3;

/// 1, 2, 4, … up to the machine's parallelism, which always ends the list.
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts: Vec<usize> = std::iter::successors(Some(1), |&t| Some(t * 2))
        .take_while(|&t| t <= max)
        .collect();
    if counts.last() != Some(&max) {
        counts.push(max);
    }
    counts
}

fn main() {
    let points = seed_spreader::<3>(&SeedSpreaderConfig::varden(100_000, 0xD2));
    let cloud =
        PointCloud::new(3, geom::flat_from_points(&points)).expect("generated data is finite");
    let params = Params::new(2_000.0, 10);
    let variants = [
        VariantConfig::exact(),
        VariantConfig::exact_qt(),
        VariantConfig::approx(0.01),
        VariantConfig::approx_qt(0.01),
    ];
    println!("variant,threads,time_s,self_speedup");
    for variant in variants
        .into_iter()
        .flat_map(|v| [v, v.with_bucketing(true)])
    {
        let mut single = None;
        for threads in thread_counts() {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the pool builder accepts any width");
            let mut times: Vec<f64> = (0..=REPS)
                .map(|_| {
                    let start = Instant::now();
                    pool.install(|| cluster_variant(&cloud, params, variant))
                        .expect("every standard variant accepts 3D input");
                    start.elapsed().as_secs_f64()
                })
                .skip(1)
                .collect();
            times.sort_by(f64::total_cmp);
            let time = times[REPS / 2];
            let base = *single.get_or_insert(time);
            println!(
                "{},{threads},{time:.4},{:.2}",
                variant.paper_name(),
                base / time
            );
        }
    }
    if let Some(Err(err)) = dbscan::obs::export::write_trace_out() {
        eprintln!("failed to write DBSCAN_TRACE_OUT: {err}");
    }
}
