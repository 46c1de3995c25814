//! ClusterCore — Algorithm 3 of the paper.
//!
//! The cell graph has one vertex per core cell and an edge between two core
//! cells whose closest pair of core points is within ε. Its connected
//! components are the clusters of the core points. Rather than materializing
//! the graph and then running connected components, the construction is
//! merged with the components computation through a lock-free union-find
//! (the "reducing cell connectivity queries" optimization of §4.4): a
//! connectivity query between two cells is only issued if they are not
//! already in the same component, and cells are processed from largest to
//! smallest core-point count (optionally in batches — the *bucketing*
//! heuristic) so that the cheap, high-connectivity cells merge components
//! early and prune queries on the expensive ones.
//!
//! The Delaunay-based 2D construction is different in shape: the cell-graph
//! edges are obtained by filtering the edges of the Delaunay triangulation of
//! all core points (keep edges between different cells of length ≤ ε), and
//! the components are computed from that explicit edge list.

use crate::connectivity::{bcp_connected, quadtree_connected, usec_connected};
use crate::params::CellGraphMethod;
use crate::pipeline::{CoreSet, SpatialIndex};
use geom::{DelaunayTriangulation, Point, Point2};
use rayon::prelude::*;
use spatial::SubdivisionTree;
use std::sync::atomic::{AtomicUsize, Ordering};
use unionfind::ConcurrentUnionFind;

/// Options of the cell-graph construction.
#[derive(Debug, Clone, Copy)]
pub struct ClusterCoreOptions {
    /// Connectivity query implementation.
    pub method: CellGraphMethod,
    /// Whether to process cells in sequential batches of decreasing size
    /// (the bucketing heuristic of §4.4).
    pub bucketing: bool,
    /// `Some(ρ)` to use approximate connectivity (Gan–Tao approximate
    /// DBSCAN); only meaningful with a quadtree-based method.
    pub rho: Option<f64>,
}

impl ClusterCoreOptions {
    /// The options a [`crate::params::VariantConfig`] implies for this
    /// phase. Single source of truth for the variant → options mapping,
    /// shared by [`crate::Dbscan::run`] and every phase-granular caller.
    pub fn from_variant(variant: &crate::params::VariantConfig) -> Self {
        ClusterCoreOptions {
            method: variant.cell_graph,
            bucketing: variant.bucketing,
            rho: variant.rho,
        }
    }
}

/// Runs ClusterCore over a prebuilt [`SpatialIndex`] and [`CoreSet`], and
/// returns, for every original point id, the raw cluster id (the union-find
/// root of its cell) — only core points receive one.
pub fn cluster_core<const D: usize>(
    index: &SpatialIndex<D>,
    core: &CoreSet<D>,
    options: &ClusterCoreOptions,
) -> Vec<Option<usize>> {
    let num_cells = index.num_cells();
    let uf = ConcurrentUnionFind::new(num_cells);

    match options.method {
        CellGraphMethod::Delaunay => cluster_core_delaunay(index, core, &uf),
        _ => cluster_core_queries(index, core, options, &uf),
    }

    // Assign the cell's component root to each of its core points, written
    // in parallel through the partition's disjoint per-cell id slices
    // (relaxed atomic stores; `usize::MAX` marks "no cluster", which no
    // root can collide with — roots are cell ids).
    let assignment: Vec<AtomicUsize> = (0..index.partition.num_points())
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();
    (0..num_cells).into_par_iter().for_each(|c| {
        if !core.is_core_cell(c) {
            return;
        }
        let root = uf.find(c);
        for &pid in index.partition.cell_point_ids(c) {
            if core.core_flags[pid] {
                assignment[pid].store(root, Ordering::Relaxed);
            }
        }
    });
    assignment
        .into_iter()
        .map(|slot| {
            let root = slot.into_inner();
            (root != usize::MAX).then_some(root)
        })
        .collect()
}

/// Query-based construction (BCP, quadtree-BCP, USEC), with the union-find
/// pruning and optional bucketing.
fn cluster_core_queries<const D: usize>(
    index: &SpatialIndex<D>,
    core: &CoreSet<D>,
    options: &ClusterCoreOptions,
    uf: &ConcurrentUnionFind,
) {
    // SortBySize(G): core cells in non-increasing order of core-point count.
    let mut core_cells: Vec<usize> = (0..index.num_cells())
        .filter(|&c| core.is_core_cell(c))
        .collect();
    core_cells.par_sort_by_key(|&c| std::cmp::Reverse(core.core_count(c)));

    // Quadtrees over core points, for the quadtree-based connectivity query.
    let needs_trees =
        matches!(options.method, CellGraphMethod::QuadTreeBcp) || options.rho.is_some();
    let trees: Vec<Option<SubdivisionTree<D>>> = if needs_trees {
        (0..index.num_cells())
            .into_par_iter()
            .map(|c| {
                core.is_core_cell(c).then(|| match options.rho {
                    Some(rho) => SubdivisionTree::build_approximate(
                        core.core_points(c),
                        index.partition.cells[c].bbox,
                        rho,
                    ),
                    None => SubdivisionTree::build_exact(
                        core.core_points(c),
                        index.partition.cells[c].bbox,
                    ),
                })
            })
            .collect()
    } else {
        (0..index.num_cells()).map(|_| None).collect()
    };

    // Bucketing: process the sorted cells in batches; within a batch cells are
    // handled in parallel, batches are sequential so that the components
    // discovered by earlier (larger) cells prune queries in later batches.
    let batch_size = if options.bucketing {
        (core_cells.len() / 16).clamp(1, 4096)
    } else {
        core_cells.len().max(1)
    };

    let connected = |g: usize, h: usize| -> bool {
        let g_pts = core.core_points(g);
        let h_pts = core.core_points(h);
        let g_bbox = &index.partition.cells[g].bbox;
        let h_bbox = &index.partition.cells[h].bbox;
        match (options.method, options.rho) {
            (CellGraphMethod::Usec, _) => {
                let g2 = as_2d(g_pts);
                let h2 = as_2d(h_pts);
                let g_bbox2 = bbox_2d(g_bbox);
                let h_bbox2 = bbox_2d(h_bbox);
                usec_connected(&g2, &g_bbox2, &h2, &h_bbox2, index.eps)
            }
            (CellGraphMethod::QuadTreeBcp, rho) | (CellGraphMethod::Bcp, rho @ Some(_)) => {
                let tree = trees[h].as_ref().expect("core cell has a quadtree");
                quadtree_connected(g_pts, tree, h_bbox, index.eps, rho)
            }
            (CellGraphMethod::Bcp, None) => bcp_connected(g_pts, g_bbox, h_pts, h_bbox, index.eps),
            (CellGraphMethod::Delaunay, _) => unreachable!("handled separately"),
        }
    };

    for batch in core_cells.chunks(batch_size) {
        batch.par_iter().for_each(|&g| {
            for &h in &index.neighbors[g] {
                // The higher-id cell owns the pair so each unordered pair is
                // examined once (Algorithm 3, line 6).
                if h >= g || !core.is_core_cell(h) {
                    continue;
                }
                if uf.same_set(g, h) {
                    continue;
                }
                if connected(g, h) {
                    uf.union(g, h);
                }
            }
        });
    }
}

/// Delaunay-based construction (2D only): triangulate all core points, keep
/// edges of length ≤ ε between different cells, and union the corresponding
/// cells.
fn cluster_core_delaunay<const D: usize>(
    index: &SpatialIndex<D>,
    core: &CoreSet<D>,
    uf: &ConcurrentUnionFind,
) {
    // Gather all core points with their owning cell, in a deterministic order.
    let mut all_core: Vec<(Point2, usize)> = Vec::with_capacity(core.num_core_points());
    for c in 0..index.num_cells() {
        for p in core.core_points(c) {
            all_core.push((Point2::new([p.coords[0], p.coords[1]]), c));
        }
    }
    if all_core.len() < 2 {
        return;
    }
    let points: Vec<Point2> = all_core.iter().map(|&(p, _)| p).collect();
    let triangulation = DelaunayTriangulation::build(&points);
    let eps_sq = index.eps * index.eps;
    let edges = triangulation.edges();
    // Parallel filter of the triangulation edges (the paper's construction),
    // then union the surviving cell pairs.
    let keep: Vec<(usize, usize)> = edges
        .par_iter()
        .filter_map(|&(i, j)| {
            let (pi, ci) = all_core[i];
            let (pj, cj) = all_core[j];
            (ci != cj && pi.dist_sq(&pj) <= eps_sq).then_some((ci, cj))
        })
        .collect();
    keep.par_iter().for_each(|&(a, b)| {
        uf.union(a, b);
    });
}

fn as_2d<const D: usize>(pts: &[Point<D>]) -> Vec<Point2> {
    pts.iter()
        .map(|p| Point2::new([p.coords[0], p.coords[1]]))
        .collect()
}

fn bbox_2d<const D: usize>(bbox: &geom::BoundingBox<D>) -> geom::BoundingBox<2> {
    geom::BoundingBox::new([bbox.lo[0], bbox.lo[1]], [bbox.hi[0], bbox.hi[1]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mark_core::mark_core;
    use crate::params::{CellMethod, MarkCoreMethod};
    use rand::prelude::*;

    /// Reference clustering of the core points: connected components of the
    /// "within eps" graph over core points only.
    fn reference_core_components(pts: &[Point2], core: &[bool], eps: f64) -> Vec<Option<usize>> {
        let n = pts.len();
        let mut uf = unionfind::SequentialUnionFind::new(n);
        for i in 0..n {
            for j in i + 1..n {
                if core[i] && core[j] && pts[i].within(&pts[j], eps) {
                    uf.union(i, j);
                }
            }
        }
        (0..n).map(|i| core[i].then(|| uf.find(i))).collect()
    }

    fn clusters_equivalent(a: &[Option<usize>], b: &[Option<usize>]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut forward = std::collections::HashMap::new();
        let mut backward = std::collections::HashMap::new();
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    if *forward.entry(*x).or_insert(*y) != *y {
                        return false;
                    }
                    if *backward.entry(*y).or_insert(*x) != *x {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    fn run_method(
        pts: &[Point2],
        eps: f64,
        min_pts: usize,
        cell_method: CellMethod,
        method: CellGraphMethod,
        bucketing: bool,
    ) -> (Vec<Option<usize>>, Vec<bool>) {
        let index = SpatialIndex::build(pts, eps, cell_method).unwrap();
        let core = mark_core(&index, min_pts, MarkCoreMethod::Scan);
        let options = ClusterCoreOptions {
            method,
            bucketing,
            rho: None,
        };
        (cluster_core(&index, &core, &options), core.core_flags)
    }

    #[test]
    fn all_methods_match_reference_components_on_random_data() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<Point2> = (0..600)
            .map(|_| Point2::new([rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)]))
            .collect();
        let eps = 1.2;
        let min_pts = 5;
        let mut reference: Option<(Vec<Option<usize>>, Vec<bool>)> = None;
        for cell_method in [CellMethod::Grid, CellMethod::Box] {
            for graph in [
                CellGraphMethod::Bcp,
                CellGraphMethod::QuadTreeBcp,
                CellGraphMethod::Usec,
                CellGraphMethod::Delaunay,
            ] {
                for bucketing in [false, true] {
                    let (got, core) = run_method(&pts, eps, min_pts, cell_method, graph, bucketing);
                    let (want, ref_core) = reference.get_or_insert_with(|| {
                        let core = {
                            let index = SpatialIndex::build(&pts, eps, CellMethod::Grid).unwrap();
                            mark_core(&index, min_pts, MarkCoreMethod::Scan).core_flags
                        };
                        (reference_core_components(&pts, &core, eps), core)
                    });
                    assert_eq!(
                        &core, ref_core,
                        "{cell_method:?}/{graph:?} core flags differ"
                    );
                    assert!(
                        clusters_equivalent(&got, want),
                        "{cell_method:?}/{graph:?}/bucketing={bucketing} clusters differ"
                    );
                }
            }
        }
    }

    #[test]
    fn two_well_separated_blobs_form_two_clusters() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pts = Vec::new();
        for _ in 0..60 {
            pts.push(Point2::new([
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ]));
        }
        for _ in 0..60 {
            pts.push(Point2::new([
                rng.gen_range(50.0..51.0),
                rng.gen_range(50.0..51.0),
            ]));
        }
        let (clusters, core) =
            run_method(&pts, 0.5, 5, CellMethod::Grid, CellGraphMethod::Bcp, false);
        assert!(core.iter().all(|&c| c));
        let left = clusters[0].unwrap();
        let right = clusters[60].unwrap();
        assert_ne!(left, right);
        for i in 0..60 {
            assert_eq!(clusters[i], Some(left));
            assert_eq!(clusters[60 + i], Some(right));
        }
    }

    #[test]
    fn no_core_points_means_no_clusters() {
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([10.0, 0.0]),
            Point2::new([20.0, 0.0]),
        ];
        let (clusters, _) = run_method(&pts, 1.0, 2, CellMethod::Grid, CellGraphMethod::Bcp, false);
        assert!(clusters.iter().all(|c| c.is_none()));
    }
}
