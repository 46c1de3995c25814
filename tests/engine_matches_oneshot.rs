//! Property test: every clustering the engine serves — through
//! `Snapshot::query`, `Snapshot::query_variant`, or `Snapshot::sweep` — must
//! be label-identical to a fresh one-shot `dbscan()` / `Dbscan::run()` with
//! the same parameters. Caching may change *where* phase inputs come from,
//! never *what* the clustering contains.
//!
//! Random point sets are drawn across dimensions (2, 3, 5), densities and
//! parameter grids; variant configs cover the cell methods, MarkCore
//! methods, cell-graph methods, bucketing and ρ-approximation (exact
//! variants only are compared for label identity — the approximate
//! algorithm is free to vary between runs, so it is checked for core-flag
//! identity and engine-internal consistency instead).

use dbscan_engine::Snapshot;
use geom::Point;
use pardbscan::{CellGraphMethod, CellMethod, Dbscan, DbscanParams, MarkCoreMethod, VariantConfig};
use rand::prelude::*;

fn random_points<const D: usize>(n: usize, extent: f64, rng: &mut StdRng) -> Vec<Point<D>> {
    (0..n)
        .map(|_| {
            let mut coords = [0.0; D];
            for c in coords.iter_mut() {
                *c = rng.gen_range(0.0..extent);
            }
            Point::new(coords)
        })
        .collect()
}

/// Exact variants valid in any dimension.
fn exact_variants_any_dim() -> Vec<VariantConfig> {
    vec![
        VariantConfig::exact(),
        VariantConfig::exact().with_bucketing(true),
        VariantConfig::exact_qt(),
        VariantConfig::exact_qt().with_bucketing(true),
    ]
}

/// The additional exact variants only valid in 2D.
fn exact_variants_2d_only() -> Vec<VariantConfig> {
    let mut variants = Vec::new();
    for cell in [CellMethod::Grid, CellMethod::Box] {
        for graph in [
            CellGraphMethod::Bcp,
            CellGraphMethod::Usec,
            CellGraphMethod::Delaunay,
        ] {
            variants.push(VariantConfig::two_d(cell, graph));
        }
    }
    variants
}

fn check_engine_matches_oneshot<const D: usize>(
    points: &[Point<D>],
    params_grid: &[(f64, usize)],
    variants: &[VariantConfig],
) {
    let snapshot = Snapshot::new(points.to_vec(), 0);
    for &(eps, min_pts) in params_grid {
        let params = DbscanParams::new(eps, min_pts);
        for &variant in variants {
            let engine_result = snapshot.query_variant(params, variant).unwrap();
            let oneshot = Dbscan::new(points, params).variant(variant).run().unwrap();
            assert_eq!(
                engine_result.clustering,
                oneshot,
                "engine vs one-shot mismatch: D={D}, eps={eps}, minPts={min_pts}, \
                 variant={}, n={}",
                variant.paper_name(),
                points.len()
            );
        }
    }
}

#[test]
fn engine_query_matches_oneshot_across_dims_and_variants() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for case in 0..12 {
        let n = rng.gen_range(0..220);
        let extent = rng.gen_range(2.0..14.0);
        let eps_a = rng.gen_range(0.3..1.2);
        let eps_b = rng.gen_range(1.2..3.0);
        let grid = [
            (eps_a, rng.gen_range(1..6)),
            (eps_a, rng.gen_range(6..14)),
            (eps_b, rng.gen_range(1..6)),
        ];
        match case % 3 {
            0 => {
                let pts = random_points::<2>(n, extent, &mut rng);
                let mut variants = exact_variants_any_dim();
                variants.extend(exact_variants_2d_only());
                check_engine_matches_oneshot(&pts, &grid, &variants);
            }
            1 => {
                let pts = random_points::<3>(n, extent, &mut rng);
                check_engine_matches_oneshot(&pts, &grid, &exact_variants_any_dim());
            }
            _ => {
                let pts = random_points::<5>(n, extent, &mut rng);
                check_engine_matches_oneshot(&pts, &grid, &exact_variants_any_dim());
            }
        }
    }
}

#[test]
fn engine_sweep_matches_oneshot_and_reuses_partitions() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    let pts = random_points::<2>(400, 12.0, &mut rng);
    let snapshot = Snapshot::new(pts.clone(), 0);

    // A 5 × 2 grid: ten queries over five distinct ε values.
    let eps_grid = [0.5, 0.8, 1.1, 1.4, 1.7];
    let min_pts_grid = [3, 7];
    let grid = snapshot.sweep((&eps_grid, &min_pts_grid)).unwrap();
    assert_eq!(grid.len(), eps_grid.len() * min_pts_grid.len());

    for cell in &grid {
        let oneshot = pardbscan::dbscan(&pts, cell.eps, cell.min_pts).unwrap();
        assert_eq!(
            cell.clustering, oneshot,
            "sweep vs one-shot mismatch at eps={}, minPts={}",
            cell.eps, cell.min_pts
        );
    }

    // Acceptance criterion: a 10-query eps sweep performs strictly fewer
    // partition builds than 10 one-shot runs would (one per query).
    let stats = snapshot.cache_stats();
    assert_eq!(
        stats.partition_misses,
        eps_grid.len(),
        "one build per distinct eps"
    );
    assert!(
        stats.partition_misses < grid.len(),
        "sweep must build strictly fewer partitions ({}) than queries ({})",
        stats.partition_misses,
        grid.len()
    );
    // Counters track logical queries: every sweep cell either built its
    // column's partition or reused it.
    assert_eq!(stats.partition_hits + stats.partition_misses, grid.len());

    // Re-running the same sweep hits the partition cache for every query.
    let again = snapshot.sweep((&eps_grid, &min_pts_grid)).unwrap();
    assert_eq!(again.len(), grid.len());
    let stats = snapshot.cache_stats();
    assert_eq!(
        stats.partition_misses,
        eps_grid.len(),
        "no partitions rebuilt"
    );
    assert_eq!(stats.partition_hits, 2 * grid.len() - eps_grid.len());
    assert!(again
        .iter()
        .all(|c| c.stats.partition_cache_hit && c.stats.core_cache_hit));
}

#[test]
fn engine_approximate_queries_are_internally_consistent() {
    // The ρ-approximate algorithm may legitimately differ run-to-run in
    // which (ε, ε(1+ρ)] edges it keeps, so label identity with a one-shot
    // run is not required. Core flags are exact in both, and an engine query
    // must agree with the one-shot run on them.
    let mut rng = StdRng::seed_from_u64(0xE3);
    let pts = random_points::<3>(300, 6.0, &mut rng);
    let snapshot = Snapshot::new(pts.clone(), 0);
    for (eps, min_pts, rho) in [(0.8, 4, 0.01), (1.2, 6, 0.1), (0.8, 4, 0.5)] {
        let params = DbscanParams::new(eps, min_pts);
        for variant in [VariantConfig::approx(rho), VariantConfig::approx_qt(rho)] {
            let engine_result = snapshot.query_variant(params, variant).unwrap();
            let oneshot = Dbscan::new(&pts, params).variant(variant).run().unwrap();
            assert_eq!(
                engine_result.clustering.core_flags(),
                oneshot.core_flags(),
                "approximate core flags must be exact: {}",
                variant.paper_name()
            );
            // Exact-eps connectivity is a lower bound for any valid
            // approximate clustering: two core points within eps of each
            // other must share a cluster.
            let exact = snapshot.query(params).unwrap().clustering;
            for i in 0..pts.len() {
                if exact.is_core(i) {
                    assert!(!engine_result.clustering.is_noise(i));
                }
            }
        }
    }
}

#[test]
fn engine_mark_core_method_sharing_does_not_change_labels() {
    // Same (eps, minPts) queried first with Scan then with QuadTree MarkCore:
    // the second reuses the first's core set; the clustering must equal a
    // from-scratch QuadTree run.
    let mut rng = StdRng::seed_from_u64(0xE4);
    let pts = random_points::<2>(350, 10.0, &mut rng);
    let snapshot = Snapshot::new(pts.clone(), 0);
    let params = DbscanParams::new(0.9, 5);

    let scan = snapshot
        .query_variant(params, VariantConfig::exact())
        .unwrap();
    assert!(!scan.stats.core_cache_hit);
    let qt = snapshot
        .query_variant(params, VariantConfig::exact_qt())
        .unwrap();
    assert!(
        qt.stats.core_cache_hit,
        "same (eps, minPts) must reuse MarkCore state"
    );

    let oneshot_qt = Dbscan::new(&pts, params)
        .mark_core(MarkCoreMethod::QuadTree)
        .cell_graph(CellGraphMethod::QuadTreeBcp)
        .run()
        .unwrap();
    assert_eq!(qt.clustering, oneshot_qt);
    assert_eq!(scan.clustering, qt.clustering);
}
