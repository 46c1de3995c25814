//! cluster-2d: one-shot `dbscan::cluster` on a large 2D SS-varden set, at
//! the default thread count and at one thread. No session, stream, publish
//! or HTTP code runs in this segment.

use crate::inputs::{generate, sub_seed};
use crate::report::{put_median, Json, Metrics, Record, Tally};
use crate::trace::Tracer;
use crate::{counter, mean, secs};
use datagen::SeedSpreaderConfig;
use dbscan::pardbscan::{
    cluster_border, cluster_core, mark_core, ClusterCoreOptions, Clustering, SpatialIndex,
};
use dbscan::{Labels, Params, PointCloud, VariantConfig};
use std::time::Instant;

pub const EPS: f64 = 2000.0;
pub const MIN_PTS: usize = 10;

/// Flat 2D coordinates of the SS-varden input.
pub fn input(n: usize, seed: u64) -> Vec<f64> {
    generate::<2>(&SeedSpreaderConfig::varden(n, sub_seed(seed, 1)))
}

fn single_thread() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon stand-in never fails to build a pool")
}

/// Whether `labels` equal the sequential grid DBSCAN of the same points.
fn matches_oracle(coords: &[f64], labels: &Labels) -> bool {
    let points = geom::points_from_flat::<2>(coords);
    let oracle = baselines::sequential_grid_dbscan(&points, EPS, MIN_PTS);
    oracle.num_clusters == labels.num_clusters()
        && oracle.len() == labels.len()
        && (0..labels.len()).all(|i| {
            oracle.core[i] == labels.is_core(i) && oracle.clusters[i] == labels.clusters_of(i)
        })
}

/// The untraced segment: the facade call at the default thread count and
/// at one thread, one pair per step.
pub struct Bench {
    cloud: PointCloud,
    one: rayon::ThreadPool,
    reference: Labels,
    multi: Vec<f64>,
    single: Vec<f64>,
}

impl Bench {
    /// Builds the cloud `reps` times (the set-up operation; returns its
    /// samples) and warms up once at each thread count.
    pub fn setup(coords: &[f64], reps: usize, tally: &mut Tally) -> (Option<Bench>, Vec<f64>) {
        let mut setup = Vec::new();
        let mut cloud = None;
        for _ in 0..reps {
            let owned = coords.to_vec();
            let t = Instant::now();
            let made = PointCloud::new(2, owned);
            setup.push(secs(t));
            cloud = tally.ok("PointCloud::new", made);
        }
        let bench = cloud.and_then(|cloud| {
            let one = single_thread();
            let reference = tally.ok("dbscan::cluster", dbscan::cluster(&cloud, params()))?;
            let _ = one.install(|| dbscan::cluster(&cloud, params()));
            Some(Bench {
                cloud,
                one,
                reference,
                multi: Vec::new(),
                single: Vec::new(),
            })
        });
        (bench, setup)
    }

    pub fn step(&mut self, tally: &mut Tally) {
        for pool in [None, Some(&self.one)] {
            let t = Instant::now();
            let out = match pool {
                None => dbscan::cluster(&self.cloud, params()),
                Some(p) => p.install(|| dbscan::cluster(&self.cloud, params())),
            };
            let elapsed = secs(t);
            if pool.is_none() {
                &mut self.multi
            } else {
                &mut self.single
            }
            .push(elapsed);
            if let Some(labels) = tally.ok("dbscan::cluster", out) {
                tally.check(labels == self.reference, || {
                    "cluster labels changed between calls".into()
                });
            }
        }
    }

    pub fn finish(self, coords: &[f64], tally: &mut Tally, m: &mut Metrics, rec: &mut Record) {
        tally.check(matches_oracle(coords, &self.reference), || {
            "cluster labels differ from sequential_grid_dbscan".into()
        });
        put_median(m, "cluster_s", &self.multi, "s");
        put_median(m, "cluster_1t_s", &self.single, "s");
        rec.section(
            "cluster",
            vec![
                ("n", Json::Int((coords.len() / 2) as u64)),
                ("eps", Json::Num(EPS)),
                ("min_pts", Json::Int(MIN_PTS as u64)),
                (
                    "threads_default",
                    Json::Int(rayon::current_num_threads() as u64),
                ),
                ("warmup", Json::Int(2)),
                ("samples_default", Json::Int(self.multi.len() as u64)),
                ("samples_1t", Json::Int(self.single.len() as u64)),
                ("mean_default_s", Json::Num(mean(&self.multi))),
                (
                    "num_clusters",
                    Json::Int(self.reference.num_clusters() as u64),
                ),
            ],
        );
    }
}

fn params() -> Params {
    Params::new(EPS, MIN_PTS)
}

/// Pool efficiency per phase call: (phase name, value).
pub type Load = Vec<(&'static str, f64)>;

/// Runs one public phase call, under a child span of `parent` when there
/// is one, and records the pool's efficiency over it:
/// (busy delta + wall) / (wall × threads).
fn step<R>(
    t: &mut Tracer,
    parent: Option<usize>,
    load: &mut Load,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let busy = rayon::pool_busy_nanos();
    let wall = Instant::now();
    let out = t.within(parent, name, f);
    let wall = wall.elapsed().as_secs_f64().max(1e-9);
    let busy = rayon::pool_busy_nanos().saturating_sub(busy) as f64 * 1e-9;
    load.push((name, (busy + wall) / (wall * rayon::pool_threads() as f64)));
    out
}

/// Phases 2-4 and canonicalization on a built index, through the public
/// phase calls: what `dbscan::cluster` runs after partitioning, and what a
/// session query at an uncached minPts runs on its cached index.
pub fn phases<const D: usize>(
    index: &SpatialIndex<D>,
    min_pts: usize,
    t: &mut Tracer,
    parent: Option<usize>,
    load: &mut Load,
) -> Labels {
    let variant = VariantConfig::exact();
    let options = ClusterCoreOptions::from_variant(&variant);
    let core = step(t, parent, load, "core.mark_core", || {
        mark_core(index, min_pts, variant.mark_core)
    });
    let raw = step(t, parent, load, "core.cluster_core", || {
        cluster_core(index, &core, &options)
    });
    let sets = step(t, parent, load, "core.cluster_border", || {
        cluster_border(index, &core, &raw)
    });
    let flags = core.core_flags;
    let clustering = step(t, parent, load, "core.canonicalize", || {
        Clustering::from_sets(flags, sets)
    });
    Labels::from(clustering)
}

/// `dbscan::cluster`'s pipeline replayed through the public phase calls,
/// so that each call can carry a span. With `parent == None` the same
/// calls run without spans (the untraced twin). Returns the labels, the
/// cell count and the neighbour-CSR size of the index.
fn composed(
    coords: &[f64],
    t: &mut Tracer,
    parent: Option<usize>,
    load: &mut Load,
) -> (Labels, usize, usize) {
    let points = step(t, parent, load, "dbscan.from_flat", || {
        geom::points_from_flat::<2>(coords)
    });
    let index = step(t, parent, load, "spatial.index", || {
        SpatialIndex::build(&points, EPS, VariantConfig::exact().cell_method)
    })
    .expect("EPS is positive and finite");
    let labels = phases(&index, MIN_PTS, t, parent, load);
    (labels, index.num_cells(), index.neighbors.num_edges())
}

/// The traced segment: `reps` traced compositions, each next to its
/// untraced twin and to the facade call at both thread counts. Returns
/// the trace overhead (traced root median ÷ untraced twin median).
pub fn traced(
    coords: &[f64],
    reps: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> f64 {
    let params = Params::new(EPS, MIN_PTS);
    let one = single_thread();
    let cloud = PointCloud::new(2, coords.to_vec()).expect("generated coordinates are finite");
    let reference = dbscan::cluster(&cloud, params).expect("valid parameters");
    let _ = one.install(|| dbscan::cluster(&cloud, params));
    let (mut load, mut scratch) = (Vec::new(), Vec::new());
    let (mut twin, mut multi, mut single) = (Vec::new(), Vec::new(), Vec::new());
    let (mut blocks, mut bcp, mut shape) = (0, 0, (0, 0));
    for _ in 0..reps {
        let before = obs::snapshot();
        let (labels, cells, pairs) =
            tracer.root("cluster", |t, id| composed(coords, t, Some(id), &mut load));
        let after = obs::snapshot();
        blocks = counter(&after, &before, "dbscan_kernel_blocks_total");
        bcp = counter(&after, &before, "dbscan_bcp_queries_total");
        shape = (cells, pairs);
        tally.check(labels == reference, || {
            "phase-by-phase labels differ from dbscan::cluster".into()
        });
        let start = Instant::now();
        let (labels, _, _) = composed(coords, tracer, None, &mut scratch);
        twin.push(secs(start));
        tally.check(labels == reference, || {
            "untraced replay labels differ".into()
        });
        let start = Instant::now();
        let _ = dbscan::cluster(&cloud, params);
        multi.push(secs(start));
        let start = Instant::now();
        let _ = one.install(|| dbscan::cluster(&cloud, params));
        single.push(secs(start));
    }
    tally.check(matches_oracle(coords, &reference), || {
        "cluster labels differ from sequential_grid_dbscan".into()
    });
    for (phase, metric) in [
        ("spatial.index", "rayon.partition.efficiency"),
        ("core.mark_core", "rayon.mark_core.efficiency"),
        ("core.cluster_core", "rayon.cluster_core.efficiency"),
        ("core.cluster_border", "rayon.cluster_border.efficiency"),
    ] {
        let values: Vec<f64> = load
            .iter()
            .filter(|(n, _)| *n == phase)
            .map(|(_, v)| *v)
            .collect();
        put_median(m, metric, &values, "ratio");
    }
    m.put(
        "rayon.self_speedup",
        crate::stats::median(&single) / crate::stats::median(&multi),
        "ratio",
    );
    for (span, metric) in [
        ("dbscan.from_flat", "dbscan.from_flat_s"),
        ("spatial.index", "spatial.index_s"),
        ("core.mark_core", "core.mark_core_s"),
        ("core.cluster_core", "core.cluster_core_s"),
        ("core.cluster_border", "core.cluster_border_s"),
        ("core.canonicalize", "core.canonicalize_s"),
    ] {
        put_median(m, metric, &tracer.durations_in("cluster", span), "s");
    }
    m.put("spatial.cells", shape.0 as f64, "count");
    m.put("spatial.neighbor_pairs", shape.1 as f64, "count");
    m.put("core.kernel_blocks", blocks as f64, "count");
    m.put("core.bcp_queries", bcp as f64, "count");
    crate::stats::median(&tracer.durations_in("cluster", "cluster")) / crate::stats::median(&twin)
}
