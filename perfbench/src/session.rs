//! session-5d: one `ClusterSession` over 5D SS-simden points, driven
//! through queries at minPts values not in its core cache, sweeps at ε
//! values not in its partition cache, and an episode of streaming update
//! batches. No publish or HTTP code runs in this segment.

use crate::cluster::phases;
use crate::inputs::{sub_seed, Churn};
use crate::report::{put_median, put_tail, Json, Metrics, Record, Tally};
use crate::trace::Tracer;
use crate::{mean, secs};
use dbscan::pardbscan::SpatialIndex;
use dbscan::{CacheStats, ClusterSession, Labels, Params, PointCloud, UpdateHandle, VariantConfig};
use std::time::Instant;

pub const DIM: usize = 5;
pub const EPS: f64 = 1000.0;
pub const MIN_PTS: usize = 10;
/// The queries cycle through 40 minPts values: more than the session's
/// 32-entry core cache holds, so every query runs MarkCore on the cached
/// ε index.
const QUERY_MIN_PTS: std::ops::RangeInclusive<usize> = 11..=50;
/// Each sweep takes one ε from a cycle of 12, more than the session's
/// 8-entry partition cache holds, so every sweep builds its index.
const SWEEP_EPS: [f64; 12] = [
    900.0, 920.0, 940.0, 960.0, 980.0, 1020.0, 1040.0, 1060.0, 1080.0, 1100.0, 1120.0, 1140.0,
];
const SWEEP_MIN_PTS: [usize; 2] = [10, 20];
/// Shares of the segment's budget: queries, sweeps. Update batches are
/// counted instead (`APPLIES_PER_ROUND`): one takes about half a second and
/// their cost varies with the region they touch, so every run applies the
/// same number, whichever workload owns it.
pub const SHARES: [f64; 2] = [0.6, 0.4];
pub const APPLIES_PER_ROUND: usize = 2;

/// `n` base points, with `batches` update batches of 0.1% of n each, half
/// inserts and half deletes, from one region each.
pub fn input(n: usize, batches: usize, seed: u64) -> Churn {
    let half = (n / 2000).max(1);
    Churn::simden::<DIM>(n, batches, half, half, sub_seed(seed, 2))
}

fn query_min_pts(i: usize) -> usize {
    let values: Vec<usize> = QUERY_MIN_PTS.collect();
    values[i % values.len()]
}

fn cloud(coords: &[f64]) -> PointCloud {
    PointCloud::new(DIM, coords.to_vec()).expect("generated coordinates are finite")
}

/// Labels `dbscan::cluster` gives for `coords` at `(eps, min_pts)`.
fn oracle(coords: &[f64], eps: f64, min_pts: usize) -> Labels {
    dbscan::cluster(&cloud(coords), Params::new(eps, min_pts)).expect("valid parameters")
}

/// Opens a session and builds its first index (the set-up operation).
fn open(coords: &[f64]) -> Result<ClusterSession, dbscan::Error> {
    let session = ClusterSession::ingest(cloud(coords))?;
    session.query(Params::new(EPS, MIN_PTS), VariantConfig::exact())?;
    Ok(session)
}

/// The untraced query and sweep operations on one session.
pub struct Queries {
    session: ClusterSession,
    next: usize,
    queries: Vec<f64>,
    sweeps: Vec<f64>,
    /// (eps, minPts, labels) of the first queries and sweep, for the oracle.
    sampled: Vec<(f64, usize, Labels)>,
    /// Operations the caches served although the plan meant them not to.
    plan_misses: u64,
}

impl Queries {
    /// Opens the session `reps` times (returning the set-up samples) and
    /// warms up with one query.
    pub fn setup(churn: &Churn, reps: usize, tally: &mut Tally) -> (Option<Queries>, Vec<f64>) {
        let mut setup = Vec::new();
        let mut session = None;
        for _ in 0..reps {
            let t = Instant::now();
            let opened = open(&churn.base);
            setup.push(secs(t));
            session = tally.ok("ClusterSession::ingest + first query", opened);
        }
        let queries = session.map(|session| {
            let _ = session.query(Params::new(EPS, query_min_pts(0)), VariantConfig::exact());
            Queries {
                session,
                next: 1,
                queries: Vec::new(),
                sweeps: Vec::new(),
                sampled: Vec::new(),
                plan_misses: 0,
            }
        });
        (queries, setup)
    }

    pub fn count(&self) -> usize {
        self.queries.len()
    }

    /// One query at the next uncached minPts.
    pub fn query(&mut self, tally: &mut Tally) {
        let min_pts = query_min_pts(self.next);
        self.next += 1;
        let t = Instant::now();
        let out = self
            .session
            .query(Params::new(EPS, min_pts), VariantConfig::exact());
        self.queries.push(secs(t));
        if let Some(out) = tally.ok("ClusterSession::query", out) {
            self.plan_misses +=
                u64::from(!out.stats.partition_cache_hit || out.stats.core_cache_hit);
            if self.sampled.len() < 2 {
                self.sampled.push((EPS, min_pts, out.labels));
            }
        }
    }

    /// One sweep at the next unindexed ε.
    pub fn sweep(&mut self, tally: &mut Tally) {
        let eps = SWEEP_EPS[self.sweeps.len() % SWEEP_EPS.len()];
        let t = Instant::now();
        let out = self.session.sweep((vec![eps], SWEEP_MIN_PTS.to_vec()));
        self.sweeps.push(secs(t));
        if let Some(cells) = tally.ok("ClusterSession::sweep", out) {
            self.plan_misses += u64::from(cells.iter().all(|c| c.stats.partition_cache_hit));
            if self.sampled.len() < 3 {
                let cell = cells.into_iter().last().expect("a 1x2 grid has cells");
                self.sampled.push((cell.eps, cell.min_pts, cell.labels));
            }
        }
    }
}

/// The untraced streaming episode, on a session of its own.
pub struct Updates<'s> {
    handle: UpdateHandle<'s>,
    applies: Vec<f64>,
}

impl<'s> Updates<'s> {
    /// A second session over the same points, for the update episode.
    pub fn session(churn: &Churn, tally: &mut Tally) -> Option<ClusterSession> {
        tally.ok("ClusterSession::ingest", open(&churn.base))
    }

    pub fn start(session: &'s mut ClusterSession, tally: &mut Tally) -> Option<Updates<'s>> {
        let handle = tally.ok(
            "ClusterSession::updates",
            session.updates(Params::new(EPS, MIN_PTS)),
        )?;
        Some(Updates {
            handle,
            applies: Vec::new(),
        })
    }

    /// Applies the next batch, if the churn has one left.
    pub fn apply(&mut self, churn: &Churn, tally: &mut Tally) {
        let k = self.applies.len();
        if k >= churn.batches() {
            return;
        }
        let (inserts, deletes) = churn.batch(k);
        let inserts = cloud(inserts);
        let t = Instant::now();
        let out = self.handle.apply(&inserts, &deletes);
        self.applies.push(secs(t));
        if let Some(stats) = tally.ok("UpdateHandle::apply", out) {
            let first = stats.inserted_ids.first().copied();
            tally.check(first == Some(churn.first_insert_id(k)), || {
                format!("batch {k} inserted ids start at {first:?}")
            });
        }
    }
}

/// Checks the segment's outputs and reports its metrics.
pub fn finish(
    q: Queries,
    u: Updates<'_>,
    churn: &Churn,
    tally: &mut Tally,
    m: &mut Metrics,
    rec: &mut Record,
) {
    let expected = oracle(&churn.live_coords(u.applies.len()), EPS, MIN_PTS);
    tally.check(u.handle.labels() == expected, || {
        "post-episode labels differ from dbscan::cluster of the live set".into()
    });
    for (eps, min_pts, labels) in &q.sampled {
        tally.check(*labels == oracle(&churn.base, *eps, *min_pts), || {
            format!("session labels at eps={eps} minPts={min_pts} differ from dbscan::cluster")
        });
    }
    put_median(m, "query_ms", &q.queries, "ms");
    let query_tail = put_tail(m, "query_tail_ms", &q.queries, "ms");
    put_median(m, "sweep_s", &q.sweeps, "s");
    // Per-batch cost follows the geometry of the region a batch touches
    // (100-700 ms in 5D), so the mean over the episode is a steadier
    // figure than the median of a few draws.
    m.put("apply_ms", mean(&u.applies) * 1e3, "ms");
    rec.section(
        "session",
        vec![
            ("n", Json::Int(churn.n() as u64)),
            ("dim", Json::Int(DIM as u64)),
            ("eps", Json::Num(EPS)),
            ("min_pts", Json::Int(MIN_PTS as u64)),
            ("batch_inserts", Json::Int(churn.inserts_per_batch as u64)),
            ("batch_deletes", Json::Int(churn.deletes_per_batch as u64)),
            ("warmup", Json::Int(1)),
            ("query_samples", Json::Int(q.queries.len() as u64)),
            ("sweep_samples", Json::Int(q.sweeps.len() as u64)),
            ("apply_samples", Json::Int(u.applies.len() as u64)),
            ("mean_query_ms", Json::Num(mean(&q.queries) * 1e3)),
            (
                "median_apply_ms",
                Json::Num(crate::stats::median(&u.applies) * 1e3),
            ),
            ("cache_plan_misses", Json::Int(q.plan_misses)),
            ("query_tail", query_tail),
        ],
    );
}

/// What the traced segment hands back for metrics shared with serve-2d.
pub struct Traced {
    pub overhead: f64,
    pub cache: CacheStats,
    /// `ClusterSession::query` times with a cached / a freshly built index.
    pub cached: Vec<f64>,
    pub built: Vec<f64>,
}

/// The traced segment: queries replayed phase by phase on a cached index
/// next to the facade query, sweeps replayed as index build + phases, and
/// `applies` update batches.
pub fn traced(
    churn: &Churn,
    plan: [usize; 3],
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Traced {
    let [queries, sweeps, applies] = plan;
    let mut session = open(&churn.base).expect("the session opens on generated points");
    let points = geom::points_from_flat::<DIM>(&churn.base);
    let grid = VariantConfig::exact().cell_method;
    let index = SpatialIndex::build(&points, EPS, grid).expect("EPS is positive and finite");
    let (mut twin, mut cached, mut built) = (Vec::new(), Vec::new(), Vec::new());
    // Pool efficiency is reported from the cluster-2d composition only.
    let mut load = Vec::new();
    for i in 1..=queries {
        let min_pts = query_min_pts(i);
        let replayed = tracer.root("session.query", |t, id| {
            phases(&index, min_pts, t, Some(id), &mut load)
        });
        let start = Instant::now();
        let _ = phases(&index, min_pts, tracer, None, &mut load);
        twin.push(secs(start));
        let start = Instant::now();
        let out = session.query(Params::new(EPS, min_pts), VariantConfig::exact());
        let elapsed = secs(start);
        if let Some(out) = tally.ok("ClusterSession::query", out) {
            let bucket = if out.stats.partition_cache_hit {
                &mut cached
            } else {
                &mut built
            };
            bucket.push(elapsed);
            tally.check(out.labels == replayed, || {
                format!("replayed query at minPts={min_pts} differs")
            });
        }
    }
    for k in 0..sweeps {
        let eps = SWEEP_EPS[k % SWEEP_EPS.len()];
        let replayed: Vec<Labels> = tracer.root("session.sweep", |t, id| {
            let index = t
                .child(id, "spatial.index", || {
                    SpatialIndex::build(&points, eps, grid)
                })
                .expect("sweep eps is positive and finite");
            SWEEP_MIN_PTS
                .iter()
                .map(|&mp| phases(&index, mp, t, Some(id), &mut load))
                .collect()
        });
        if let Some(cells) = tally.ok(
            "ClusterSession::sweep",
            session.sweep((vec![eps], SWEEP_MIN_PTS.to_vec())),
        ) {
            let same = cells.iter().zip(&replayed).all(|(c, r)| c.labels == *r);
            tally.check(same, || format!("replayed sweep at eps={eps} differs"));
        }
    }
    let cache = session.cache_stats();

    let (mut touched, mut rescanned, mut connectivity, mut compactions) =
        (vec![], vec![], vec![], 0);
    let params = Params::new(EPS, MIN_PTS);
    let mut handle = session.updates(params).expect("streaming mode opens");
    let done = applies.min(churn.batches());
    for k in 0..done {
        let (inserts, deletes) = churn.batch(k);
        let inserts = cloud(inserts);
        let out = tracer.root("session.apply", |_, _| handle.apply(&inserts, &deletes));
        if let Some(stats) = tally.ok("UpdateHandle::apply", out) {
            touched.push(stats.cells_touched as f64);
            rescanned.push(stats.points_rescanned as f64);
            connectivity.push(stats.connectivity_queries as f64);
            compactions += u64::from(stats.compacted);
        }
    }
    let expected = oracle(&churn.live_coords(done), EPS, MIN_PTS);
    tally.check(handle.labels() == expected, || {
        "post-episode labels differ from dbscan::cluster of the live set".into()
    });
    drop(handle);

    put_median(
        m,
        "stream.apply_s",
        &tracer.durations_in("session.apply", "session.apply"),
        "s",
    );
    put_median(m, "stream.cells_touched", &touched, "count");
    put_median(m, "stream.points_rescanned", &rescanned, "count");
    put_median(m, "stream.connectivity_queries", &connectivity, "count");
    m.put("stream.compactions", compactions as f64, "count");
    let traced = crate::stats::median(&tracer.durations_in("session.query", "session.query"));
    Traced {
        overhead: traced / crate::stats::median(&twin),
        cache,
        cached,
        built,
    }
}
