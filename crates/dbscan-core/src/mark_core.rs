//! MarkCore — Algorithm 2 of the paper.
//!
//! A cell with at least minPts points consists entirely of core points
//! (everything in a cell is within ε of everything else). For every point of
//! a smaller cell, the number of input points within ε is counted: the
//! point's own cell contributes its full size, and each neighbouring cell is
//! queried with a RangeCount. A point is core when the total reaches minPts.
//!
//! Two RangeCount implementations are provided, matching the paper's
//! variants: scanning all points of the neighbouring cell
//! ([`MarkCoreMethod::Scan`]) and traversing a per-cell quadtree
//! ([`MarkCoreMethod::QuadTree`], §5.2). Counting stops early once minPts is
//! reached.

use crate::kernels::count_within_capped;
use crate::params::MarkCoreMethod;
use crate::pipeline::{CoreSet, SpatialIndex};
use geom::Point;
use rayon::prelude::*;
use spatial::SubdivisionTree;
use std::sync::atomic::{AtomicBool, Ordering};

/// Runs MarkCore over a prebuilt [`SpatialIndex`], producing the per-point
/// core flags (indexed by original point id) and the per-cell core point
/// lists.
pub fn mark_core<const D: usize>(
    index: &SpatialIndex<D>,
    min_pts: usize,
    method: MarkCoreMethod,
) -> CoreSet<D> {
    let n = index.partition.num_points();
    if n == 0 {
        return CoreSet::empty(min_pts);
    }
    let eps = index.eps;
    let partition = &index.partition;
    let neighbors = &index.neighbors;

    // Quadtrees are only needed for cells that get queried, i.e. cells that
    // are neighbours of at least one small cell (or are small themselves:
    // their own points are counted wholesale, so only neighbours matter).
    let trees: Vec<Option<SubdivisionTree<D>>> = match method {
        MarkCoreMethod::Scan => (0..partition.num_cells()).map(|_| None).collect(),
        MarkCoreMethod::QuadTree => {
            let mut needed = vec![false; partition.num_cells()];
            for (c, info) in partition.cells.iter().enumerate() {
                if info.len < min_pts {
                    for &h in &neighbors[c] {
                        needed[h] = true;
                    }
                }
            }
            (0..partition.num_cells())
                .into_par_iter()
                .map(|c| {
                    needed[c].then(|| {
                        SubdivisionTree::build_exact(
                            partition.cell_points(c),
                            partition.cells[c].bbox,
                        )
                    })
                })
                .collect()
        }
    };

    // One flag slot per point, written directly — in parallel — by the
    // owning cell through its id slice. Cells partition the point ids, so
    // the stores are disjoint; the slots are atomics (relaxed stores) only
    // because safe Rust has no other way to express a disjoint parallel
    // scatter. This replaces the old collect-one-Vec-per-cell +
    // sequential-scatter pass: no per-cell allocation, no second pass.
    let flags: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    (0..partition.num_cells()).into_par_iter().for_each(|c| {
        let info = &partition.cells[c];
        let ids = partition.cell_point_ids(c);
        if info.len >= min_pts {
            // Any two points of a cell are within ε, so size alone
            // certifies every point core.
            for &pid in ids {
                flags[pid].store(true, Ordering::Relaxed);
            }
            return;
        }
        // Cells below minPts hold fewer than minPts points, so the per-point
        // loop is short — it runs sequentially; parallelism lives at the
        // cell level.
        let pts = partition.cell_points(c);
        for (p, &pid) in pts.iter().zip(ids) {
            let mut count = info.len;
            if count < min_pts {
                for &h in &neighbors[c] {
                    count += range_count(
                        p,
                        eps,
                        partition.cell_points(h),
                        trees[h].as_ref(),
                        min_pts - count,
                    );
                    if count >= min_pts {
                        break;
                    }
                }
            }
            if count >= min_pts {
                flags[pid].store(true, Ordering::Relaxed);
            }
        }
    });

    let core_flags: Vec<bool> = flags.into_iter().map(AtomicBool::into_inner).collect();
    CoreSet::from_flags(min_pts, core_flags, partition)
}

/// Number of points of `cell_points` within ε of `p`, capped at `needed`
/// (counting beyond the cap cannot change the core decision). The scan path
/// runs the blocked branch-free kernel: hits accumulate without branches
/// inside each 64-wide block and the cap is checked between blocks.
fn range_count<const D: usize>(
    p: &Point<D>,
    eps: f64,
    cell_points: &[Point<D>],
    tree: Option<&SubdivisionTree<D>>,
    needed: usize,
) -> usize {
    match tree {
        Some(t) => t.count_within(p, eps).min(needed),
        None => count_within_capped(p, cell_points, eps * eps, needed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CellMethod;
    use geom::Point2;
    use rand::prelude::*;

    fn brute_force_core_flags<const D: usize>(
        pts: &[Point<D>],
        eps: f64,
        min_pts: usize,
    ) -> Vec<bool> {
        pts.iter()
            .map(|p| pts.iter().filter(|q| p.within(q, eps)).count() >= min_pts)
            .collect()
    }

    fn check_against_bruteforce<const D: usize>(
        pts: &[Point<D>],
        eps: f64,
        min_pts: usize,
        cell_method: CellMethod,
    ) {
        let want = brute_force_core_flags(pts, eps, min_pts);
        let index = SpatialIndex::build(pts, eps, cell_method).unwrap();
        for method in [MarkCoreMethod::Scan, MarkCoreMethod::QuadTree] {
            let core = mark_core(&index, min_pts, method);
            assert_eq!(core.core_flags, want, "method {method:?}");
        }
    }

    #[test]
    fn matches_bruteforce_on_random_2d_grid_and_box() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts: Vec<Point2> = (0..400)
            .map(|_| Point2::new([rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)]))
            .collect();
        check_against_bruteforce(&pts, 1.5, 8, CellMethod::Grid);
        check_against_bruteforce(&pts, 1.5, 8, CellMethod::Box);
    }

    #[test]
    fn matches_bruteforce_on_random_3d() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts: Vec<Point<3>> = (0..500)
            .map(|_| {
                Point::new([
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ])
            })
            .collect();
        check_against_bruteforce(&pts, 1.0, 6, CellMethod::Grid);
    }

    #[test]
    fn dense_cell_marks_everything_core() {
        // All points in one tiny region: the single cell has ≥ minPts points.
        let pts: Vec<Point2> = (0..50)
            .map(|i| Point2::new([0.001 * i as f64, 0.0]))
            .collect();
        let index = SpatialIndex::build(&pts, 10.0, CellMethod::Grid).unwrap();
        let core = mark_core(&index, 10, MarkCoreMethod::Scan);
        assert!(core.core_flags.iter().all(|&c| c));
    }

    #[test]
    fn isolated_points_are_not_core() {
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([100.0, 100.0]),
            Point2::new([200.0, 0.0]),
        ];
        let index = SpatialIndex::build(&pts, 1.0, CellMethod::Grid).unwrap();
        let core = mark_core(&index, 2, MarkCoreMethod::Scan);
        assert!(core.core_flags.iter().all(|&c| !c));
        assert_eq!(core.num_core_points(), 0);
    }

    #[test]
    fn min_pts_one_makes_every_point_core() {
        let pts = vec![Point2::new([0.0, 0.0]), Point2::new([50.0, 50.0])];
        let index = SpatialIndex::build(&pts, 1.0, CellMethod::Grid).unwrap();
        let core = mark_core(&index, 1, MarkCoreMethod::Scan);
        assert!(core.core_flags.iter().all(|&c| c));
    }

    #[test]
    fn cross_cell_counts_are_included() {
        // Two groups of 3 points in adjacent cells, all within eps of the
        // middle point; with minPts = 5 only points that can see both groups
        // are core.
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([0.1, 0.0]),
            Point2::new([0.2, 0.0]),
            Point2::new([1.0, 0.0]),
            Point2::new([1.1, 0.0]),
            Point2::new([1.2, 0.0]),
        ];
        let want = brute_force_core_flags(&pts, 1.05, 5);
        let index = SpatialIndex::build(&pts, 1.05, CellMethod::Grid).unwrap();
        let core = mark_core(&index, 5, MarkCoreMethod::Scan);
        assert_eq!(core.core_flags, want);
        assert!(
            want.iter().any(|&c| c),
            "test fixture should contain core points"
        );
        assert!(
            !want.iter().all(|&c| c),
            "test fixture should contain non-core points"
        );
    }
}
