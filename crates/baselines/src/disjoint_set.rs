//! A PDSDBSCAN-style baseline: point-level disjoint-set DBSCAN with
//! lock-based merging.
//!
//! Patwary et al.'s PDSDBSCAN parallelizes DBSCAN by having every thread
//! process a chunk of points, issue the ε-range query for each, and merge
//! core points into clusters through a *lock-protected* union-find (in
//! contrast to the paper's lock-free one). This baseline reproduces that
//! structure: the per-point range queries dominate, their cost grows with ε,
//! and the merging serializes on a mutex.

use crate::kdtree_points::PointKdTree;
use crate::BaselineClustering;
use geom::Point;
use rayon::prelude::*;
use std::sync::Mutex;
use unionfind::SequentialUnionFind;

/// Runs the PDSDBSCAN-style baseline.
pub fn disjoint_set_dbscan<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    min_pts: usize,
) -> BaselineClustering {
    let n = points.len();
    if n == 0 {
        return BaselineClustering::from_raw(Vec::new(), Vec::new());
    }
    let tree = PointKdTree::build(points);

    // Phase 1: local computation — each point's neighbourhood and core flag.
    let neighborhoods: Vec<Vec<usize>> = points.par_iter().map(|p| tree.within(p, eps)).collect();
    let core: Vec<bool> = neighborhoods
        .par_iter()
        .map(|nb| nb.len() >= min_pts)
        .collect();

    // Phase 2: merging through a lock-based union-find (the PDSDBSCAN
    // bottleneck the paper contrasts its lock-free structure with).
    let uf = Mutex::new(SequentialUnionFind::new(n));
    (0..n).into_par_iter().filter(|&i| core[i]).for_each(|i| {
        let to_merge: Vec<usize> = neighborhoods[i]
            .iter()
            .copied()
            .filter(|&j| core[j])
            .collect();
        let mut guard = uf.lock().unwrap_or_else(|e| e.into_inner());
        for j in to_merge {
            guard.union(i, j);
        }
    });

    let mut uf = uf.into_inner().unwrap_or_else(|e| e.into_inner());
    let raw: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if core[i] {
                vec![uf.find(i)]
            } else {
                let mut memberships: Vec<usize> = neighborhoods[i]
                    .iter()
                    .filter(|&&j| core[j])
                    .map(|&j| uf.find(j))
                    .collect();
                memberships.sort_unstable();
                memberships.dedup();
                memberships
            }
        })
        .collect();
    BaselineClustering::from_raw(core, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_dbscan;
    use geom::Point2;
    use rand::prelude::*;

    #[test]
    fn matches_bruteforce_on_random_data() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let pts: Vec<Point2> = (0..250)
                .map(|_| Point2::new([rng.gen_range(0.0..12.0), rng.gen_range(0.0..12.0)]))
                .collect();
            assert_eq!(
                disjoint_set_dbscan(&pts, 1.0, 4),
                brute_force_dbscan(&pts, 1.0, 4)
            );
        }
    }

    #[test]
    fn agrees_with_the_other_parallel_baseline() {
        let mut rng = StdRng::seed_from_u64(8);
        let pts: Vec<Point<5>> = (0..300)
            .map(|_| {
                let mut c = [0.0; 5];
                for v in c.iter_mut() {
                    *v = rng.gen_range(0.0..5.0);
                }
                Point::new(c)
            })
            .collect();
        assert_eq!(
            disjoint_set_dbscan(&pts, 1.0, 6),
            crate::naive_parallel_dbscan(&pts, 1.0, 6)
        );
    }

    #[test]
    fn empty_input() {
        assert!(disjoint_set_dbscan::<2>(&[], 1.0, 5).is_empty());
    }
}
