//! The dimension-erased facade must be a pure re-routing layer: for every
//! supported dimension, the labels it produces are identical to the
//! statically-typed pipeline's, and every malformed input is rejected with
//! a typed error before it can corrupt grid state.
//!
//! The label-identity property is checked on the paper's SS-simden and
//! SS-varden seed-spreader families for D ∈ {2, 3, 5, 8} on the batch
//! paths — one-shot cluster, session query, and sweep grid cells — and the
//! streaming/freeze path is driven with real churn over the same
//! dimensions: the overlay reads neighbour cells from the spatial index's
//! ε-graph, so an update costs the same kind of work in 8D as in 2D.

use datagen::{seed_spreader, SeedSpreaderConfig};
use dbscan::{cluster, ClusterSession, Error, Params, PointCloud};
use geom::{flat_from_points, Point};

/// The facade labels for `cloud` must equal the static pipeline's for the
/// same parameters, along every batch path the session serves.
fn assert_facade_matches_static<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    min_pts: usize,
    context: &str,
) {
    let want = pardbscan::dbscan(points, eps, min_pts).expect("static pipeline accepts the data");
    let cloud = PointCloud::new(D, flat_from_points(points)).expect("generated data is finite");
    let params = Params::new(eps, min_pts);

    // Path 1: the one-shot free function (the facade's dimension jump table).
    let one_shot = cluster(&cloud, params).expect("facade accepts the data");
    assert_eq!(one_shot.as_clustering(), &want, "{context}: one-shot");

    // Path 2: a session query (engine snapshot underneath).
    let session = ClusterSession::ingest(cloud).expect("supported dimension");
    let queried = session.cluster(params).expect("facade accepts the params");
    assert_eq!(queried.as_clustering(), &want, "{context}: session query");

    // Path 3: a sweep containing the same parameter cell.
    let grid = session
        .sweep(([eps, eps * 1.5], [min_pts]))
        .expect("valid grid");
    assert_eq!(
        grid[0].labels.as_clustering(),
        &want,
        "{context}: sweep cell"
    );
}

/// One dimension of the acceptance grid: simden and varden at a size where
/// the test stays fast but the data has real cluster structure.
fn check_dimension<const D: usize>(n: usize, eps: f64, min_pts: usize) {
    let simden = seed_spreader::<D>(&SeedSpreaderConfig::simden(n, 0xFA));
    assert_facade_matches_static(&simden, eps, min_pts, &format!("{D}D-SS-simden"));
    let varden = seed_spreader::<D>(&SeedSpreaderConfig::varden(n, 0xFB));
    assert_facade_matches_static(&varden, eps, min_pts, &format!("{D}D-SS-varden"));
}

#[test]
fn facade_matches_static_pipeline_2d() {
    check_dimension::<2>(2_000, 1_000.0, 10);
}

#[test]
fn facade_matches_static_pipeline_3d() {
    check_dimension::<3>(2_000, 1_500.0, 10);
}

#[test]
fn facade_matches_static_pipeline_5d() {
    check_dimension::<5>(1_200, 3_000.0, 10);
}

#[test]
fn facade_matches_static_pipeline_8d() {
    check_dimension::<8>(800, 6_000.0, 10);
}

/// Streaming path with real churn: ingest, apply an insert+delete batch,
/// and compare both the live streaming labels and the frozen session's
/// answer against a from-scratch static run on the live set.
fn check_streaming_round_trip<const D: usize>(n: usize, eps: f64, min_pts: usize) {
    let points = seed_spreader::<D>(&SeedSpreaderConfig::simden(n, 0xFC));
    let cloud = PointCloud::new(D, flat_from_points(&points)).unwrap();
    let params = Params::new(eps, min_pts);
    let mut session = ClusterSession::ingest(cloud).unwrap();

    let mut updates = session.updates(params).unwrap();
    let extra = seed_spreader::<D>(&SeedSpreaderConfig::simden(n / 15, 0xFD));
    let inserts = PointCloud::new(D, flat_from_points(&extra)).unwrap();
    updates
        .apply(&inserts, &(0..n / 30).collect::<Vec<_>>())
        .unwrap();
    let streamed = updates.labels();

    // The streaming labels themselves must match a static run on the live
    // points (ascending-id order = surviving originals, then inserts).
    let mut live: Vec<Point<D>> = points[n / 30..].to_vec();
    live.extend_from_slice(&extra);
    let want = pardbscan::dbscan(&live, params.eps, params.min_pts).unwrap();
    assert_eq!(streamed.as_clustering(), &want, "{D}D streaming labels");

    // And so must the frozen snapshot's.
    updates.finish();
    let frozen = session.cluster(params).unwrap();
    assert_eq!(frozen.as_clustering(), &want, "{D}D frozen labels");
}

#[test]
fn streaming_freeze_round_trip_matches_static_2d() {
    check_streaming_round_trip::<2>(1_500, 1_000.0, 10);
}

#[test]
fn streaming_freeze_round_trip_matches_static_3d() {
    check_streaming_round_trip::<3>(900, 1_500.0, 10);
}

#[test]
fn streaming_freeze_round_trip_matches_static_5d() {
    check_streaming_round_trip::<5>(900, 3_000.0, 10);
}

#[test]
fn streaming_freeze_round_trip_matches_static_8d() {
    check_streaming_round_trip::<8>(600, 6_000.0, 10);
}

#[test]
fn nan_ingestion_is_rejected_before_grid_keys_are_computed() {
    // Regression test for the validation hole: `(x / side).floor() as i64`
    // silently saturates for NaN/∞, so a bad coordinate used to land in an
    // arbitrary grid cell. The facade's validators must reject it at every
    // ingest point with a typed error.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            PointCloud::new(2, vec![0.0, 0.0, bad, 1.0]).unwrap_err(),
            Error::NonFiniteCoordinate {
                point: 1,
                axis: Some(0)
            },
            "flat-buffer ingest of {bad}"
        );
        let mut cloud = PointCloud::empty(3).unwrap();
        assert!(matches!(
            cloud.push(&[0.0, bad, 0.0]).unwrap_err(),
            Error::NonFiniteCoordinate { .. }
        ));
        assert!(
            matches!(
                PointCloud::from_rows(&[[0.0, 0.0], [0.5, bad]]).unwrap_err(),
                Error::NonFiniteCoordinate { .. }
            ),
            "row ingest of {bad}"
        );
    }
    // The streaming ingest point validates too.
    let cloud = PointCloud::new(2, vec![0.0, 0.0, 0.1, 0.0, 0.2, 0.0]).unwrap();
    let mut session = ClusterSession::ingest(cloud).unwrap();
    let mut updates = session.updates(Params::new(0.5, 2)).unwrap();
    assert!(matches!(
        updates.insert(&[f64::NAN, 0.0]).unwrap_err(),
        Error::NonFiniteCoordinate { .. }
    ));
    // And the parameter validator still owns the ε side of the contract.
    drop(updates);
    assert!(matches!(
        session.cluster(Params::new(f64::NAN, 2)).unwrap_err(),
        Error::InvalidParams(_)
    ));
}

#[test]
fn facade_error_paths_are_typed() {
    // Dimension mismatch between the cloud and a pushed query/update point.
    let mut cloud = PointCloud::from_rows(&[[0.0, 0.0, 0.0]]).unwrap();
    assert_eq!(
        cloud.push(&[1.0, 2.0]).unwrap_err(),
        Error::DimensionMismatch {
            expected: 3,
            got: 2
        }
    );

    // D > 8 is rejected by the jump table, not by a panic.
    let wide = PointCloud::new(9, vec![0.0; 27]).unwrap();
    assert_eq!(
        cluster(&wide, Params::new(1.0, 2)).unwrap_err(),
        Error::UnsupportedDimension(9)
    );
    assert_eq!(
        ClusterSession::ingest(wide).unwrap_err(),
        Error::UnsupportedDimension(9)
    );

    // An empty cloud with a declared dimension is valid (and clusters to
    // nothing); inferring a dimension from nothing is the error.
    assert_eq!(
        PointCloud::from_rows::<Vec<f64>>(&[]).unwrap_err(),
        Error::EmptyCloud
    );
    let empty = PointCloud::empty(4).unwrap();
    let labels = cluster(&empty, Params::new(1.0, 3)).unwrap();
    assert!(labels.is_empty());
    let session = ClusterSession::ingest(empty).unwrap();
    assert!(session.cluster(Params::new(1.0, 3)).unwrap().is_empty());
}

#[test]
fn grid_key_overflow_is_a_typed_error_on_every_path() {
    // `((x − origin) / side).floor() as i64` saturates past 2^63 cells, so
    // far-apart points used to share a cell and form a cluster the oracle
    // does not have. Coordinates 2^52 or more cells out are now rejected.
    fn too_small<T>(result: Result<T, Error>) -> bool {
        matches!(result, Err(Error::InvalidParams(_)))
    }
    let spread = [[0.0, 0.0], [1e5, 1e5], [1e5 + 1.0, 1e5], [1e5, 1e5 + 1.0]];
    let spread = PointCloud::from_rows(&spread).unwrap();
    let tiny = Params::new(1e-14, 2);
    assert!(too_small(cluster(&spread, tiny)));
    let session = ClusterSession::ingest(spread).unwrap();
    assert!(too_small(session.cluster(tiny)));
    assert!(too_small(session.sweep(([1e-14], [2]))));

    // Inserting two far points into an ε = 1 session, one at a time or as
    // one batch, applies nothing; ingesting them leaves the session in
    // indexed mode.
    let unit = Params::new(1.0, 2);
    let near = PointCloud::from_rows(&[[0.0, 0.0], [0.5, 0.0]]).unwrap();
    let far = PointCloud::from_rows(&[[1e300, 1e300], [2e300, 2e300]]).unwrap();
    let mut session = ClusterSession::ingest(near.clone()).unwrap();
    let mut updates = session.updates(unit).unwrap();
    assert!(too_small(updates.insert(far.point(0))));
    assert!(too_small(updates.apply(&far, &[])));
    assert_eq!(updates.num_live(), 2);
    drop(updates);
    let mut session = ClusterSession::ingest(far.clone()).unwrap();
    assert!(too_small(session.updates(unit)));
    assert!(too_small(session.cluster(unit)));

    // The concurrent writer rejects the batch before the WAL append and
    // publishes nothing.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("grid_key_overflow");
    let _ = std::fs::remove_dir_all(&dir);
    let options = dbscan::DurableOptions::default();
    let durable = dbscan::ConcurrentSession::ingest_durable(near.clone(), &dir, options, unit);
    for shared in [dbscan::ConcurrentSession::ingest(near, unit), durable] {
        let shared = shared.unwrap();
        assert!(too_small(shared.update(&far, &[])));
        assert_eq!(
            (shared.current().id(), shared.current().num_points()),
            (0, 2)
        );
    }
    assert_eq!(
        ClusterSession::open_durable(&dir, options)
            .unwrap()
            .num_points(),
        2
    );
}
