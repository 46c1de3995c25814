//! Property test for the streaming subsystem: after *any* applied sequence
//! of insert/delete batches, the exact-variant labels of a
//! `StreamingClusterer` must be equivalent (up to cluster renaming, which
//! the canonical `Clustering` numbering removes) to a from-scratch
//! `pardbscan::dbscan` run on the final live point set — across dimensions
//! and, in 2D, across the batch pipeline's cell methods, since every exact
//! variant produces the same labels.
//!
//! Covered shapes: random interleavings of mixed batches (in 5D and 7D
//! with inserts past the initial extent and a compaction mid-sequence),
//! delete-all, reinsert-after-delete, and a batch that empties a whole
//! cluster.

use dbscan_stream::{StreamingClusterer, UpdateBatch};
use geom::Point;
use pardbscan::{CellMethod, Dbscan, DbscanParams};
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

/// Asserts the streaming labels equal a from-scratch run on the live set,
/// through every cell method valid in dimension `D`.
fn assert_matches_from_scratch<const D: usize>(clusterer: &StreamingClusterer<D>, context: &str) {
    let live: Vec<Point<D>> = clusterer
        .live_points()
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    let params = clusterer.params();
    let streamed = clusterer.clustering();
    assert_eq!(streamed.len(), live.len(), "{context}: live count");
    let grid = Dbscan::new(&live, params)
        .cell_method(CellMethod::Grid)
        .run()
        .unwrap();
    assert_eq!(streamed, grid, "{context}: vs from-scratch grid run");
    if D == 2 {
        let boxed = Dbscan::new(&live, params)
            .cell_method(CellMethod::Box)
            .run()
            .unwrap();
        assert_eq!(streamed, boxed, "{context}: vs from-scratch box run");
    }
}

/// Runs `rounds` random mixed batches against a mirror of the live set.
/// With `past_the_base`, each batch also adds a small blob just past one
/// face of the initial extent, opening cells beside the base's edge cells
/// and beside each other, and the overlay is compacted halfway through.
fn churn<const D: usize>(
    seed: u64,
    n0: usize,
    extent: f64,
    params: DbscanParams,
    rounds: usize,
    past_the_base: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = random_points::<D>(n0, extent, &mut rng);
    let mut clusterer = StreamingClusterer::new(initial, params).unwrap();
    assert_matches_from_scratch(&clusterer, &format!("D={D} seed={seed} initial"));

    for round in 0..rounds {
        if past_the_base && round == rounds / 2 {
            clusterer.compact_now();
            assert_matches_from_scratch(&clusterer, &format!("D={D} seed={seed} compacted"));
        }
        let mut live_ids: Vec<usize> = clusterer
            .live_points()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        live_ids.shuffle(&mut rng);
        let num_deletes = rng.gen_range(0..=live_ids.len().min(25));
        let deletes: Vec<usize> = live_ids[..num_deletes].to_vec();
        let mut inserts = random_points::<D>(rng.gen_range(0..25), extent, &mut rng);
        if past_the_base {
            let mut centre: [f64; D] = std::array::from_fn(|_| rng.gen_range(0.0..extent));
            let axis = rng.gen_range(0..D);
            let past = rng.gen_range(0.0..params.eps);
            centre[axis] = if rng.gen_bool(0.5) {
                extent + past
            } else {
                -past
            };
            for _ in 0..rng.gen_range(1..10) {
                inserts.push(Point::new(std::array::from_fn(|i| {
                    centre[i] + rng.gen_range(-0.4..0.4) * params.eps
                })));
            }
        }
        let num_inserts = inserts.len();
        let stats = clusterer.apply(UpdateBatch { inserts, deletes }).unwrap();
        assert_eq!(stats.inserted, num_inserts);
        assert_eq!(stats.deleted, num_deletes);
        assert_matches_from_scratch(
            &clusterer,
            &format!("D={D} seed={seed} round={round} (+{num_inserts}/-{num_deletes})"),
        );
    }
}

#[test]
fn random_interleavings_match_from_scratch_2d() {
    churn::<2>(0xA1, 180, 8.0, DbscanParams::new(0.8, 5), 8, false);
    churn::<2>(0xA2, 60, 3.0, DbscanParams::new(0.7, 3), 8, false);
    // minPts = 1: every point is core, clusters are ε-connected components.
    churn::<2>(0xA3, 120, 10.0, DbscanParams::new(1.2, 1), 6, false);
}

#[test]
fn random_interleavings_match_from_scratch_3d() {
    churn::<3>(0xB1, 220, 6.0, DbscanParams::new(1.0, 6), 8, false);
    churn::<3>(0xB2, 90, 4.0, DbscanParams::new(0.9, 4), 6, false);
}

#[test]
fn churn_past_the_base_matches_from_scratch_5d() {
    churn::<5>(0xD1, 200, 3.0, DbscanParams::new(1.0, 5), 10, true);
}

#[test]
fn churn_past_the_base_matches_from_scratch_7d() {
    churn::<7>(0xD2, 200, 2.0, DbscanParams::new(1.0, 4), 10, true);
}

#[test]
fn delete_all_then_reinsert() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    let pts = random_points::<2>(150, 6.0, &mut rng);
    let params = DbscanParams::new(0.8, 4);
    let mut clusterer = StreamingClusterer::new(pts.clone(), params).unwrap();

    // Delete everything in one batch.
    let all_ids: Vec<usize> = clusterer
        .live_points()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    let stats = clusterer.apply(UpdateBatch::deletes(all_ids)).unwrap();
    assert_eq!(stats.deleted, 150);
    assert_eq!(clusterer.num_live(), 0);
    assert!(clusterer.clustering().is_empty());
    assert_eq!(clusterer.clustering().num_clusters(), 0);

    // Reinsert the same coordinates (fresh ids): labels must match a
    // from-scratch run on them again.
    let stats = clusterer.apply(UpdateBatch::inserts(pts.clone())).unwrap();
    assert_eq!(stats.inserted, 150);
    assert_matches_from_scratch(&clusterer, "reinsert after delete-all");
    let from_scratch = pardbscan::dbscan(&pts, params.eps, params.min_pts).unwrap();
    assert_eq!(clusterer.clustering(), from_scratch);
}

#[test]
fn a_batch_that_empties_a_cluster() {
    // Two well-separated dense blobs; deleting every point of one blob in a
    // single batch must remove exactly that cluster.
    let mut rng = StdRng::seed_from_u64(0xC2);
    let mut pts: Vec<Point<2>> = Vec::new();
    for _ in 0..40 {
        pts.push(Point::new([
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
        ]));
    }
    for _ in 0..40 {
        pts.push(Point::new([
            rng.gen_range(30.0..31.0),
            rng.gen_range(30.0..31.0),
        ]));
    }
    let params = DbscanParams::new(0.6, 4);
    let mut clusterer = StreamingClusterer::new(pts, params).unwrap();
    assert_eq!(clusterer.clustering().num_clusters(), 2);

    let stats = clusterer
        .apply(UpdateBatch::deletes((40..80).collect()))
        .unwrap();
    assert_eq!(stats.deleted, 40);
    assert!(
        stats.components_reclustered >= 1,
        "emptying a cluster goes through the split path"
    );
    assert_eq!(clusterer.clustering().num_clusters(), 1);
    assert_matches_from_scratch(&clusterer, "after emptying a cluster");

    // The surviving blob's points are all still clustered.
    let clustering = clusterer.clustering();
    assert_eq!(clustering.len(), 40);
    assert_eq!(clustering.num_noise(), 0);
}

#[test]
fn heavy_churn_with_compaction_matches_from_scratch() {
    // Enough sustained churn to force overlay compactions mid-sequence; the
    // labels must stay correct across them.
    let mut rng = StdRng::seed_from_u64(0xC3);
    let pts = random_points::<2>(250, 9.0, &mut rng);
    let params = DbscanParams::new(0.9, 5);
    let mut clusterer = StreamingClusterer::new(pts, params).unwrap();
    let mut compactions = 0usize;
    for round in 0..10 {
        let mut live_ids: Vec<usize> = clusterer
            .live_points()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        live_ids.shuffle(&mut rng);
        let deletes: Vec<usize> = live_ids[..40.min(live_ids.len())].to_vec();
        let inserts = random_points::<2>(40, 9.0, &mut rng);
        let stats = clusterer.apply(UpdateBatch { inserts, deletes }).unwrap();
        compactions += stats.compacted as usize;
        assert_matches_from_scratch(&clusterer, &format!("churn round {round}"));
    }
    assert!(
        compactions > 0,
        "this churn level must compact at least once"
    );
}
