//! Integration tests for degenerate and adversarial inputs across variants.

use baselines::brute_force_dbscan;
use geom::{Point, Point2};
use pardbscan::{CellGraphMethod, CellMethod, Clustering, Dbscan, DbscanError};

fn to_clustering(b: &baselines::BaselineClustering) -> Clustering {
    Clustering::from_raw(b.core.clone(), b.clusters.clone())
}

fn all_2d_variants(pts: &[Point2], eps: f64, min_pts: usize) -> Vec<Clustering> {
    let mut out = Vec::new();
    for cell in [CellMethod::Grid, CellMethod::Box] {
        for graph in [
            CellGraphMethod::Bcp,
            CellGraphMethod::QuadTreeBcp,
            CellGraphMethod::Usec,
            CellGraphMethod::Delaunay,
        ] {
            out.push(
                Dbscan::exact(pts, eps, min_pts)
                    .cell_method(cell)
                    .cell_graph(graph)
                    .run()
                    .unwrap(),
            );
        }
    }
    out
}

#[test]
fn empty_input() {
    let pts: Vec<Point2> = Vec::new();
    for c in all_2d_variants(&pts, 1.0, 5) {
        assert!(c.is_empty());
        assert_eq!(c.num_clusters(), 0);
    }
}

#[test]
fn single_point() {
    let pts = vec![Point2::new([3.0, 4.0])];
    for c in all_2d_variants(&pts, 1.0, 2) {
        assert!(c.is_noise(0));
    }
    for c in all_2d_variants(&pts, 1.0, 1) {
        assert!(c.is_core(0));
        assert_eq!(c.num_clusters(), 1);
    }
}

#[test]
fn all_identical_points() {
    let pts = vec![Point2::new([7.0, -3.0]); 100];
    let want = to_clustering(&brute_force_dbscan(&pts, 0.5, 10));
    for c in all_2d_variants(&pts, 0.5, 10) {
        assert_eq!(c, want);
        assert_eq!(c.num_clusters(), 1);
        assert!(c.core_flags().iter().all(|&x| x));
    }
}

#[test]
fn collinear_points() {
    // Equally spaced points on a line: a single chain cluster when the
    // spacing is within eps, all noise when it is not.
    let pts: Vec<Point2> = (0..200).map(|i| Point2::new([i as f64, 0.0])).collect();
    let want_connected = to_clustering(&brute_force_dbscan(&pts, 1.0, 3));
    for c in all_2d_variants(&pts, 1.0, 3) {
        assert_eq!(c, want_connected);
        assert_eq!(c.num_clusters(), 1);
    }
    let want_noise = to_clustering(&brute_force_dbscan(&pts, 0.4, 3));
    for c in all_2d_variants(&pts, 0.4, 3) {
        assert_eq!(c, want_noise);
        assert_eq!(c.num_clusters(), 0);
    }
}

#[test]
fn pairs_at_exactly_eps_distance() {
    // DBSCAN's neighbourhood is inclusive: points at distance exactly eps
    // count. Two groups whose closest points are exactly eps apart must merge.
    let pts = vec![
        Point2::new([0.0, 0.0]),
        Point2::new([0.0, 0.2]),
        Point2::new([0.0, 0.4]),
        Point2::new([1.0, 0.0]),
        Point2::new([1.0, 0.2]),
        Point2::new([1.0, 0.4]),
    ];
    let want = to_clustering(&brute_force_dbscan(&pts, 1.0, 3));
    for c in all_2d_variants(&pts, 1.0, 3) {
        assert_eq!(c, want);
        assert_eq!(
            c.num_clusters(),
            1,
            "exactly-eps pair must connect the groups"
        );
    }
}

#[test]
fn min_pts_larger_than_n() {
    let pts: Vec<Point2> = (0..50)
        .map(|i| Point2::new([0.01 * i as f64, 0.0]))
        .collect();
    for c in all_2d_variants(&pts, 10.0, 1_000) {
        assert_eq!(c.num_clusters(), 0);
        assert!(c.core_flags().iter().all(|&x| !x));
        assert_eq!(c.num_noise(), 50);
    }
}

#[test]
fn huge_eps_puts_everything_in_one_cluster() {
    let pts: Vec<Point<3>> = (0..300)
        .map(|i| Point::new([i as f64, (i * 7 % 13) as f64, (i * 3 % 5) as f64]))
        .collect();
    let c = Dbscan::exact(&pts, 1.0e6, 5).run().unwrap();
    assert_eq!(c.num_clusters(), 1);
    assert!(c.core_flags().iter().all(|&x| x));
}

#[test]
fn extreme_coordinates_are_handled() {
    // Large magnitudes and negative coordinates.
    let pts = vec![
        Point2::new([-1.0e7, -1.0e7]),
        Point2::new([-1.0e7 + 0.5, -1.0e7]),
        Point2::new([-1.0e7 + 1.0, -1.0e7]),
        Point2::new([1.0e7, 1.0e7]),
        Point2::new([1.0e7 + 0.5, 1.0e7]),
        Point2::new([1.0e7 + 1.0, 1.0e7]),
    ];
    let want = to_clustering(&brute_force_dbscan(&pts, 0.6, 2));
    for c in all_2d_variants(&pts, 0.6, 2) {
        assert_eq!(c, want);
        assert_eq!(c.num_clusters(), 2);
    }
}

#[test]
fn extents_just_inside_the_grid_key_bound_match_the_oracle() {
    // Two tight clusters 2^52 apart on x, and a noise point between them.
    // At ε = 1.5 (cells of side 1.5/√2) the far cluster lies about
    // 0.94 · 2^52 cells from the grid origin, just inside the bound below
    // which cell keys are exact.
    let far = 4_503_599_627_370_496.0; // 2^52
    let pts: Vec<Point2> = [
        [0.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [far / 2.0, 0.0],
        [far, 0.0],
        [far + 1.0, 0.0],
        [far, 1.0],
        [far + 1.0, 1.0],
    ]
    .into_iter()
    .map(Point2::new)
    .collect();
    let want = to_clustering(&brute_force_dbscan(&pts, 1.5, 3));
    assert_eq!(want.num_clusters(), 2);
    for c in all_2d_variants(&pts, 1.5, 3) {
        assert_eq!(c, want);
    }
    // At ε = 1.4 the far cluster lies about 1.01 · 2^52 cells out: the grid
    // rejects the input with a typed error instead of saturating keys.
    assert!(matches!(
        Dbscan::exact(&pts, 1.4, 3).run(),
        Err(DbscanError::InvalidParams(_))
    ));
}

#[test]
fn thirteen_dimensional_points_run_exact_and_approximate() {
    // The TeraClickLog dimensionality (d = 13). All points in a tight ball:
    // one cluster, everything core.
    let pts: Vec<Point<13>> = (0..500)
        .map(|i| {
            let mut c = [0.0; 13];
            for (k, v) in c.iter_mut().enumerate() {
                *v = ((i * (k + 1)) % 17) as f64 * 0.01;
            }
            Point::new(c)
        })
        .collect();
    let exact = Dbscan::exact(&pts, 5.0, 100).run().unwrap();
    assert_eq!(exact.num_clusters(), 1);
    assert!(exact.core_flags().iter().all(|&x| x));
    let approx = Dbscan::exact(&pts, 5.0, 100)
        .approximate(0.01)
        .run()
        .unwrap();
    assert_eq!(approx.num_clusters(), 1);
}
