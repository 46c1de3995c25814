//! Phase-granular pipeline state for Algorithm 1.
//!
//! The four phases of the paper's Algorithm 1 (cells, MarkCore, ClusterCore,
//! ClusterBorder) communicate through two explicit, separately-buildable
//! state types:
//!
//! * [`SpatialIndex`] — the output of phase 1 for a given `(ε, cell method)`:
//!   the cell partition plus, for every cell, the ids of the non-empty cells
//!   within ε. It depends **only** on ε and the cell method — not on minPts,
//!   the cell-graph method, or ρ — so it can be reused across every query
//!   that shares ε.
//! * [`CoreSet`] — the output of MarkCore (phase 2) for a given
//!   `(SpatialIndex, minPts)`: per-point core flags and per-cell core-point
//!   lists. The flags are the same whichever RangeCount implementation
//!   computed them, so a core set is reusable across cell-graph methods,
//!   bucketing choices, and ρ.
//!
//! [`crate::Dbscan::run`] composes the phases exactly as before; the
//! `dbscan-engine` crate composes them with caching so that repeated queries
//! over the same point set skip the phases their parameters do not
//! invalidate.

use crate::params::{CellMethod, DbscanError};
use geom::Point;
use rayon::prelude::*;
use spatial::{box_partition, grid_partition, CellPartition, NeighborGraph};

/// Immutable phase-1 state: the ε-cell partition of a point set plus the
/// per-cell neighbour lists. Reusable by every query with the same
/// `(ε, cell method)`.
///
/// The partition's bulk arrays are `Arc`-shared ([`CellPartition`] is O(1) to
/// clone), so a `SpatialIndex` is cheap to hand out from a cache.
#[derive(Clone)]
pub struct SpatialIndex<const D: usize> {
    /// The ε the index was built for.
    pub eps: f64,
    /// The cell construction method used.
    pub cell_method: CellMethod,
    /// The cell partition of the input points.
    pub partition: CellPartition<D>,
    /// For every cell, the ids of the non-empty cells that may contain
    /// points within ε of it (excluding the cell itself), sorted; stored as
    /// a flat CSR graph (`neighbors[c]` / `neighbors.of(c)` is a contiguous
    /// slice) shared through a single `Arc`.
    pub neighbors: std::sync::Arc<NeighborGraph>,
}

impl<const D: usize> SpatialIndex<D> {
    /// Builds the partition and the neighbour lists (Algorithm 1 line 2).
    ///
    /// The neighbour lists come from [`NeighborGraph::build`]: grid-key
    /// enumeration for grid cells in 2D (the paper's approach, constant
    /// candidates per cell), the k-d tree over cells otherwise (§5.1; also
    /// the only option for the irregular box cells).
    ///
    /// Fails with [`DbscanError::RequiresTwoDimensions`] if the box method
    /// is requested for `D != 2`, and with [`DbscanError::InvalidParams`]
    /// for a non-positive or non-finite ε, or for a grid ε so small against
    /// the extent of the points that cell keys would not be exact.
    pub fn build(
        points: &[Point<D>],
        eps: f64,
        cell_method: CellMethod,
    ) -> Result<Self, DbscanError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(DbscanError::InvalidParams(format!(
                "eps must be positive and finite, got {eps}"
            )));
        }
        let partition = match cell_method {
            CellMethod::Grid => grid_partition(points, eps)?,
            CellMethod::Box => {
                if D != 2 {
                    return Err(DbscanError::RequiresTwoDimensions("the box cell method"));
                }
                let pts2: Vec<geom::Point2> = points
                    .iter()
                    .map(|p| geom::Point2::new([p.coords[0], p.coords[1]]))
                    .collect();
                let part2 = box_partition(&pts2, eps);
                // Convert the 2D partition back into the generic-D shape.
                CellPartition::from_parts(
                    part2.eps,
                    part2
                        .points
                        .iter()
                        .map(|p| {
                            let mut c = [0.0; D];
                            c[0] = p.x();
                            c[1] = p.y();
                            Point::new(c)
                        })
                        .collect(),
                    part2.point_ids.to_vec(),
                    part2
                        .cells
                        .iter()
                        .map(|info| spatial::CellInfo {
                            start: info.start,
                            len: info.len,
                            bbox: {
                                let mut lo = [0.0; D];
                                let mut hi = [0.0; D];
                                lo[0] = info.bbox.lo[0];
                                lo[1] = info.bbox.lo[1];
                                hi[0] = info.bbox.hi[0];
                                hi[1] = info.bbox.hi[1];
                                geom::BoundingBox::new(lo, hi)
                            },
                            key: None,
                        })
                        .collect(),
                    None,
                )
            }
        };

        Ok(SpatialIndex {
            eps,
            cell_method,
            neighbors: std::sync::Arc::new(NeighborGraph::build(&partition)),
            partition,
        })
    }

    /// Number of cells in the partition.
    pub fn num_cells(&self) -> usize {
        self.partition.num_cells()
    }

    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.partition.num_points()
    }
}

/// Immutable phase-2 state: MarkCore's output for one `(index, minPts)`
/// pair. The core flags depend only on the point set, ε and minPts — not on
/// the RangeCount implementation that computed them — so a `CoreSet` is
/// reusable across cell-graph methods and ρ values.
///
/// The per-cell core points are stored contiguously in one flat array with
/// CSR offsets (cell order matches the partition), so
/// [`CoreSet::core_points`] is a slice borrow, not a per-cell heap object —
/// the BCP and RangeCount loops scan it without pointer chasing.
#[derive(Clone)]
pub struct CoreSet<const D: usize> {
    /// The minPts the set was computed for.
    pub min_pts: usize,
    /// Core flag per *original* point id.
    pub core_flags: Vec<bool>,
    /// Per-cell start offsets into `core_points` (`num_cells + 1` entries).
    core_offsets: Vec<usize>,
    /// All cells' core points, concatenated in cell order.
    core_points: Vec<Point<D>>,
}

impl<const D: usize> CoreSet<D> {
    /// Builds the per-cell core storage from per-point flags against the
    /// partition the flags were computed on: a parallel counting pass over
    /// the cells fixes the CSR offsets, then cell blocks gather their core
    /// points in parallel and the block runs are concatenated (allocation
    /// count proportional to the block count, not the cell count).
    pub fn from_flags(min_pts: usize, core_flags: Vec<bool>, partition: &CellPartition<D>) -> Self {
        /// Cells per parallel gather block.
        const CELL_BLOCK: usize = 2048;
        let num_cells = partition.num_cells();
        let counts: Vec<usize> = (0..num_cells)
            .into_par_iter()
            .map(|c| {
                partition
                    .cell_point_ids(c)
                    .iter()
                    .filter(|&&pid| core_flags[pid])
                    .count()
            })
            .collect();
        let mut core_offsets = Vec::with_capacity(num_cells + 1);
        core_offsets.push(0usize);
        let mut total = 0usize;
        for &count in &counts {
            total += count;
            core_offsets.push(total);
        }
        let blocks: Vec<(usize, usize)> = (0..num_cells)
            .step_by(CELL_BLOCK)
            .map(|start| (start, (start + CELL_BLOCK).min(num_cells)))
            .collect();
        let gathered: Vec<Vec<Point<D>>> = blocks
            .par_iter()
            .map(|&(start, end)| {
                let mut run = Vec::with_capacity(core_offsets[end] - core_offsets[start]);
                for c in start..end {
                    run.extend(
                        partition
                            .cell_points(c)
                            .iter()
                            .zip(partition.cell_point_ids(c))
                            .filter(|(_, &pid)| core_flags[pid])
                            .map(|(p, _)| *p),
                    );
                }
                run
            })
            .collect();
        let mut core_points = Vec::with_capacity(total);
        for run in gathered {
            core_points.extend(run);
        }
        CoreSet {
            min_pts,
            core_flags,
            core_offsets,
            core_points,
        }
    }

    /// An empty core set (no points, no cells).
    pub fn empty(min_pts: usize) -> Self {
        CoreSet {
            min_pts,
            core_flags: Vec::new(),
            core_offsets: vec![0],
            core_points: Vec::new(),
        }
    }

    /// The core points of cell `c`, as a contiguous slice.
    #[inline]
    pub fn core_points(&self, c: usize) -> &[Point<D>] {
        &self.core_points[self.core_offsets[c]..self.core_offsets[c + 1]]
    }

    /// Number of core points in cell `c`.
    #[inline]
    pub fn core_count(&self, c: usize) -> usize {
        self.core_offsets[c + 1] - self.core_offsets[c]
    }

    /// Returns `true` if cell `c` contains at least one core point.
    #[inline]
    pub fn is_core_cell(&self, c: usize) -> bool {
        self.core_count(c) > 0
    }

    /// Total number of core points (O(1) on the flat storage).
    pub fn num_core_points(&self) -> usize {
        self.core_points.len()
    }
}

/// Localized MarkCore: recomputes the core flags of the points of `dirty`
/// cells only, against an arbitrary (possibly mutable-overlay) cell store
/// accessed through closures.
///
/// This is the incremental-maintenance counterpart of [`crate::mark_core`]:
/// when a batch of point insertions/deletions touches a set of cells, only
/// points whose ε-neighbourhood intersects a touched cell can change core
/// status — and a point's ε-neighbourhood is confined to its own cell plus
/// that cell's ε-neighbour cells. The caller (the `dbscan-stream`
/// clusterer) passes `dirty` = touched ∪ neighbours(touched); this function
/// recomputes exactly those cells' flags and nothing else.
///
/// * `cell_points(c)` returns the live `(point id, point)` pairs of cell
///   `c`; every cell's points are pairwise within ε (the defining cell
///   property), so a cell with ≥ minPts live points is all-core without any
///   distance test.
/// * `neighbors(c)` returns the ids of the cells whose boxes are within ε
///   of `c`'s box (excluding `c`).
///
/// Each referenced cell's points are fetched once (cells shared by several
/// dirty cells' neighbourhoods are not re-materialized per query), and the
/// per-cell recomputation runs in parallel. Returns, per dirty cell, the
/// `(point id, is_core)` flags of its points.
pub fn mark_core_region<const D: usize, P, N>(
    eps: f64,
    min_pts: usize,
    dirty: &[usize],
    cell_points: P,
    neighbors: N,
) -> Vec<(usize, Vec<(usize, bool)>)>
where
    P: Fn(usize) -> Vec<(usize, Point<D>)> + Sync,
    N: Fn(usize) -> Vec<usize> + Sync,
{
    // Fetch the dirty cells' own points first: a cell with ≥ minPts points
    // is all-core by the cell property alone, so only the *small* dirty
    // cells need their neighbourhoods materialized at all.
    let own_points: Vec<Vec<(usize, Point<D>)>> =
        dirty.par_iter().map(|&c| cell_points(c)).collect();
    let neighbor_lists: Vec<Vec<usize>> = dirty
        .par_iter()
        .zip(own_points.par_iter())
        .map(|(&c, own)| {
            if own.len() >= min_pts {
                Vec::new()
            } else {
                neighbors(c)
            }
        })
        .collect();
    let mut needed: Vec<usize> = neighbor_lists.iter().flatten().copied().collect();
    needed.sort_unstable();
    needed.dedup();
    let in_dirty: std::collections::HashMap<usize, usize> =
        dirty.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    needed.retain(|c| !in_dirty.contains_key(c));
    let fetched: Vec<(usize, Vec<(usize, Point<D>)>)> =
        needed.par_iter().map(|&c| (c, cell_points(c))).collect();
    let points_of: std::collections::HashMap<usize, &Vec<(usize, Point<D>)>> = fetched
        .iter()
        .map(|(c, pts)| (*c, pts))
        .chain(
            dirty
                .iter()
                .zip(own_points.iter())
                .map(|(&c, pts)| (c, pts)),
        )
        .collect();

    let eps_sq = eps * eps;
    dirty
        .par_iter()
        .zip(own_points.par_iter().zip(neighbor_lists.par_iter()))
        .map(|(&c, (own, nbrs))| {
            if own.len() >= min_pts {
                // Any two points of a cell are within ε of each other, so
                // the cell's size alone certifies every point core.
                return (c, own.iter().map(|&(pid, _)| (pid, true)).collect());
            }
            let flags = own
                .iter()
                .map(|&(pid, p)| {
                    let mut count = own.len();
                    for &h in nbrs {
                        if count >= min_pts {
                            break;
                        }
                        for &(_, q) in points_of[&h].iter() {
                            if p.dist_sq(&q) <= eps_sq {
                                count += 1;
                                if count >= min_pts {
                                    break;
                                }
                            }
                        }
                    }
                    (pid, count >= min_pts)
                })
                .collect();
            (c, flags)
        })
        .collect()
}

/// One cell-graph edge found by [`connect_region`]: the connected cell pair
/// plus a *witness* — the ids of a concrete within-ε pair of core points,
/// one from each cell. The incremental maintenance path caches witnesses:
/// as long as both witness points stay alive and core, the edge provably
/// persists and a later update to either cell needs no new BCP query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionEdge {
    /// The connected cell pair, as passed in.
    pub cells: (usize, usize),
    /// Point ids of a within-ε pair: `witness.0` is in `cells.0`,
    /// `witness.1` in `cells.1`.
    pub witness: (usize, usize),
}

/// Localized ClusterCore connectivity: evaluates the BCP ε-connectivity
/// query for an explicit list of candidate cell pairs, in parallel, and
/// returns the pairs that are connected (the cell-graph edges of the
/// affected region), each with a connectivity witness.
///
/// This is the incremental re-derivation path: after an update batch, the
/// `dbscan-stream` clusterer enumerates the candidate pairs itself — cells
/// whose core sets changed, each paired with its ε-neighbour core cells,
/// minus pairs whose cached witness still certifies the edge — and feeds
/// the survivors here. `core_points(c)` returns cell `c`'s live core points
/// as `(point id, point)` pairs and `bbox(c)` its geometric box (used for
/// the ε-filtering inside the BCP query). Cells appearing in several pairs
/// are materialized once.
pub fn connect_region<const D: usize, C, B>(
    eps: f64,
    pairs: &[(usize, usize)],
    core_points: C,
    bbox: B,
) -> Vec<RegionEdge>
where
    C: Fn(usize) -> Vec<(usize, Point<D>)> + Sync,
    B: Fn(usize) -> geom::BoundingBox<D> + Sync,
{
    /// Per-cell data materialized once for the pair evaluations: the core
    /// point ids, their coordinates, and the cell box.
    type CellData<'a, const D: usize> = (Vec<usize>, Vec<Point<D>>, &'a geom::BoundingBox<D>);
    /// One fetched cell: id, its `(point id, point)` core list, and its box.
    type FetchedCell<const D: usize> = (usize, Vec<(usize, Point<D>)>, geom::BoundingBox<D>);

    let mut cells: Vec<usize> = pairs.iter().flat_map(|&(g, h)| [g, h]).collect();
    cells.sort_unstable();
    cells.dedup();
    let fetched: Vec<FetchedCell<D>> = cells
        .par_iter()
        .map(|&c| (c, core_points(c), bbox(c)))
        .collect();
    let data: std::collections::HashMap<usize, CellData<'_, D>> = fetched
        .iter()
        .map(|(c, pts, bb)| {
            let ids: Vec<usize> = pts.iter().map(|&(id, _)| id).collect();
            let coords: Vec<Point<D>> = pts.iter().map(|&(_, p)| p).collect();
            (*c, (ids, coords, bb))
        })
        .collect();
    pairs
        .par_iter()
        .filter_map(|&(g, h)| {
            let (g_ids, g_pts, g_bbox) = &data[&g];
            let (h_ids, h_pts, h_bbox) = &data[&h];
            crate::connectivity::bcp_witness(g_pts, g_bbox, h_pts, h_bbox, eps).map(|(i, j)| {
                RegionEdge {
                    cells: (g, h),
                    witness: (g_ids[i], h_ids[j]),
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point2;
    use rand::prelude::*;

    fn random_points(n: usize, extent: f64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    /// Brute-force neighbour reference: cells whose boxes are within eps.
    fn reference_neighbors<const D: usize>(
        partition: &CellPartition<D>,
        eps: f64,
    ) -> Vec<Vec<usize>> {
        (0..partition.num_cells())
            .map(|c| {
                (0..partition.num_cells())
                    .filter(|&o| {
                        o != c
                            && partition.cells[c]
                                .bbox
                                .dist_sq_to_box(&partition.cells[o].bbox)
                                <= eps * eps * (1.0 + 1e-9)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn grid_neighbors_match_bruteforce() {
        let pts = random_points(1000, 30.0, 3);
        let index = SpatialIndex::build(&pts, 2.0, CellMethod::Grid).unwrap();
        let reference = reference_neighbors(&index.partition, 2.0);
        assert_eq!(index.neighbors.to_lists(), reference);
    }

    #[test]
    fn box_neighbors_cover_every_epsilon_close_pair_of_cells() {
        let pts = random_points(800, 25.0, 5);
        let index = SpatialIndex::build(&pts, 1.5, CellMethod::Box).unwrap();
        // The kd-tree path uses an exact eps cutoff; the brute-force reference
        // uses a slightly inflated one, so check containment rather than
        // equality (a cell at distance exactly eps may legitimately differ by
        // a rounding ulp).
        let reference = reference_neighbors(&index.partition, 1.5);
        for (mine, wanted) in index.neighbors.to_lists().iter().zip(&reference) {
            for m in mine {
                assert!(wanted.contains(m));
            }
        }
    }

    #[test]
    fn build_rejects_invalid_eps_and_box_in_3d() {
        let pts = vec![Point2::new([0.0, 0.0])];
        assert!(SpatialIndex::build(&pts, 0.0, CellMethod::Grid).is_err());
        assert!(SpatialIndex::build(&pts, f64::NAN, CellMethod::Grid).is_err());
        let pts3 = vec![Point::new([0.0, 0.0, 0.0])];
        assert!(matches!(
            SpatialIndex::build(&pts3, 1.0, CellMethod::Box),
            Err(DbscanError::RequiresTwoDimensions(_))
        ));
    }

    #[test]
    fn collect_core_points_filters_by_flag() {
        let pts = random_points(200, 10.0, 7);
        let index = SpatialIndex::build(&pts, 1.0, CellMethod::Grid).unwrap();
        // Mark every other original point as core.
        let flags: Vec<bool> = (0..pts.len()).map(|i| i % 2 == 0).collect();
        let core = CoreSet::from_flags(5, flags, &index.partition);
        let total: usize = (0..index.num_cells()).map(|c| core.core_count(c)).sum();
        assert_eq!(total, pts.len().div_ceil(2));
        assert_eq!(core.num_core_points(), pts.len().div_ceil(2));
    }

    #[test]
    fn mark_core_region_over_all_cells_matches_mark_core() {
        let pts = random_points(700, 18.0, 11);
        for (eps, min_pts) in [(0.8, 4), (1.5, 9)] {
            let index = SpatialIndex::build(&pts, eps, CellMethod::Grid).unwrap();
            let want = crate::mark_core(&index, min_pts, crate::MarkCoreMethod::Scan);
            let all_cells: Vec<usize> = (0..index.num_cells()).collect();
            let region = mark_core_region(
                eps,
                min_pts,
                &all_cells,
                |c| {
                    index
                        .partition
                        .cell_point_ids(c)
                        .iter()
                        .copied()
                        .zip(index.partition.cell_points(c).iter().copied())
                        .collect()
                },
                |c| index.neighbors[c].to_vec(),
            );
            let mut got = vec![false; pts.len()];
            for (_, flags) in region {
                for (pid, f) in flags {
                    got[pid] = f;
                }
            }
            assert_eq!(got, want.core_flags, "eps={eps}, minPts={min_pts}");
        }
    }

    #[test]
    fn connect_region_matches_bruteforce_bcp_and_witnesses_are_valid() {
        let pts = random_points(500, 15.0, 13);
        let eps = 1.2;
        let min_pts = 4;
        let index = SpatialIndex::build(&pts, eps, CellMethod::Grid).unwrap();
        let core = crate::mark_core(&index, min_pts, crate::MarkCoreMethod::Scan);
        let core_ids_of = |c: usize| -> Vec<(usize, Point<2>)> {
            index
                .partition
                .cell_point_ids(c)
                .iter()
                .zip(index.partition.cell_points(c))
                .filter(|(&pid, _)| core.core_flags[pid])
                .map(|(&pid, p)| (pid, *p))
                .collect()
        };
        // Candidate pairs: every neighbouring pair of core cells.
        let mut pairs = Vec::new();
        for g in 0..index.num_cells() {
            if !core.is_core_cell(g) {
                continue;
            }
            for &h in index.neighbors[g].iter() {
                if h < g && core.is_core_cell(h) {
                    pairs.push((h, g));
                }
            }
        }
        let edges = connect_region(eps, &pairs, core_ids_of, |c| index.partition.cells[c].bbox);
        let eps_sq = eps * eps;
        let connected: Vec<(usize, usize)> = edges.iter().map(|e| e.cells).collect();
        for &(g, h) in &pairs {
            let want = core
                .core_points(g)
                .iter()
                .any(|p| core.core_points(h).iter().any(|q| p.dist_sq(q) <= eps_sq));
            assert_eq!(connected.contains(&(g, h)), want, "pair ({g}, {h})");
        }
        let p2c = index.partition.point_to_cell();
        for edge in &edges {
            let (wg, wh) = edge.witness;
            assert_eq!(p2c[wg], edge.cells.0, "witness 0 is in its cell");
            assert_eq!(p2c[wh], edge.cells.1, "witness 1 is in its cell");
            assert!(core.core_flags[wg] && core.core_flags[wh]);
            assert!(
                pts[wg].dist_sq(&pts[wh]) <= eps_sq * (1.0 + 1e-12),
                "witness pair is within eps"
            );
        }
    }

    #[test]
    fn spatial_index_clone_is_shared() {
        let pts = random_points(500, 20.0, 9);
        let index = SpatialIndex::build(&pts, 1.5, CellMethod::Grid).unwrap();
        let copy = index.clone();
        assert!(std::sync::Arc::ptr_eq(&index.neighbors, &copy.neighbors));
        assert!(std::sync::Arc::ptr_eq(
            &index.partition.points,
            &copy.partition.points
        ));
    }
}
