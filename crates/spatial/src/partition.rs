//! Cell partitions of a point set: the grid construction (§4.1) and the 2D
//! box construction (§4.2).
//!
//! Both constructions produce a [`CellPartition`]: the points re-grouped so
//! that each cell's points are contiguous, plus per-cell metadata (point
//! range, bounding box). Every cell has the defining property that any two
//! points inside it are within ε of each other, so a cell with at least
//! minPts points is made of core points only, and all points of a cell end
//! up in the same cluster.

use crate::gridkey::{cell_bbox, cell_key, cell_side, check_key_range, GridIndex, KeyOverflow};
use geom::{BoundingBox, Point, Point2};
use parprims::{semisort_by_key, strip_heads_to_assignment};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Metadata of one non-empty cell of a [`CellPartition`].
#[derive(Debug, Clone)]
pub struct CellInfo<const D: usize> {
    /// Start of this cell's points in the partition's reordered point array.
    pub start: usize,
    /// Number of points in the cell.
    pub len: usize,
    /// Geometric bounds of the cell. For the grid method this is the grid
    /// cell box; for the box method it is the tight bounding box of the
    /// cell's points (side length at most ε/√2 per axis in both cases).
    pub bbox: BoundingBox<D>,
    /// The integer grid key (grid method only; `None` for box cells).
    pub key: Option<[i64; D]>,
}

/// A partition of the input points into cells, with points stored grouped by
/// cell. Point *ids* always refer to indices in the original input slice.
///
/// The bulk data lives behind `Arc`s, so cloning a partition is O(1): the
/// index-once / query-many engine keeps partitions in a cache and hands out
/// shared copies to concurrent queries without duplicating the point arrays.
#[derive(Clone)]
pub struct CellPartition<const D: usize> {
    /// The ε parameter the partition was built for.
    pub eps: f64,
    /// The input points, re-ordered so that each cell's points are
    /// contiguous (shared, immutable).
    pub points: Arc<Vec<Point<D>>>,
    /// `point_ids[i]` is the original index of `points[i]` (shared,
    /// immutable).
    pub point_ids: Arc<Vec<usize>>,
    /// Per-cell metadata (shared, immutable).
    pub cells: Arc<Vec<CellInfo<D>>>,
    /// For grid partitions, the key → cell-id index used for O(1) neighbour
    /// enumeration.
    pub grid_index: Option<Arc<GridIndex<D>>>,
    /// Lazily built original-point-id → cell-id map (shared across clones
    /// like the bulk arrays, so it is computed at most once per partition).
    point_to_cell: Arc<OnceLock<Vec<usize>>>,
}

impl<const D: usize> CellPartition<D> {
    /// Assembles a partition from freshly built parts, taking shared
    /// ownership of the bulk arrays.
    pub fn from_parts(
        eps: f64,
        points: Vec<Point<D>>,
        point_ids: Vec<usize>,
        cells: Vec<CellInfo<D>>,
        grid_index: Option<GridIndex<D>>,
    ) -> Self {
        CellPartition {
            eps,
            points: Arc::new(points),
            point_ids: Arc::new(point_ids),
            cells: Arc::new(cells),
            grid_index: grid_index.map(Arc::new),
            point_to_cell: Arc::new(OnceLock::new()),
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// The points of cell `c` (contiguous slice of the reordered array).
    pub fn cell_points(&self, c: usize) -> &[Point<D>] {
        let info = &self.cells[c];
        &self.points[info.start..info.start + info.len]
    }

    /// The original indices of the points of cell `c`.
    pub fn cell_point_ids(&self, c: usize) -> &[usize] {
        let info = &self.cells[c];
        &self.point_ids[info.start..info.start + info.len]
    }

    /// Maps every original point index to the id of the cell containing it.
    /// The map is built once on first use (and shared by clones, which alias
    /// the same `Arc`-backed state); subsequent calls return the cached
    /// slice.
    pub fn point_to_cell(&self) -> &[usize] {
        self.point_to_cell.get_or_init(|| {
            let mut out = vec![usize::MAX; self.points.len()];
            for (c, info) in self.cells.iter().enumerate() {
                for i in info.start..info.start + info.len {
                    out[self.point_ids[i]] = c;
                }
            }
            out
        })
    }

    /// Internal consistency checks, used by tests and debug assertions:
    /// every point appears exactly once, cells are contiguous and non-empty,
    /// every point lies in its cell's bounding box, and any two points of a
    /// cell are within ε.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.points.len();
        if self.point_ids.len() != n {
            return Err("point_ids length mismatch".into());
        }
        let mut seen = vec![false; n];
        for &id in self.point_ids.iter() {
            if id >= n {
                return Err(format!("point id {id} out of range"));
            }
            if seen[id] {
                return Err(format!("point id {id} appears twice"));
            }
            seen[id] = true;
        }
        let mut covered = 0usize;
        for (c, info) in self.cells.iter().enumerate() {
            if info.len == 0 {
                return Err(format!("cell {c} is empty"));
            }
            covered += info.len;
            let pts = self.cell_points(c);
            for p in pts {
                if !info.bbox.contains(p) {
                    return Err(format!("cell {c}: point outside bbox"));
                }
            }
            for (i, p) in pts.iter().enumerate() {
                for q in &pts[i + 1..] {
                    if !p.within(q, self.eps) {
                        return Err(format!("cell {c}: two points farther than eps"));
                    }
                }
            }
        }
        if covered != n {
            return Err(format!("cells cover {covered} of {n} points"));
        }
        Ok(())
    }
}

/// Points per chunk of the bounding-box scan in [`grid_partition`].
const BOUNDS_CHUNK: usize = 4096;

/// Builds the grid partition of §4.1: cells are the non-empty boxes of the
/// regular grid with side ε/√d anchored at the dataset's lower corner.
/// Grouping is done with the semisort primitive (O(n) expected work) and the
/// non-empty cells are indexed with the concurrent hash table.
///
/// Fails with [`KeyOverflow`] when ε is so small against the extent of the
/// points that a cell key would not be exact (see
/// [`crate::gridkey::MAX_QUANTIZED`]).
pub fn grid_partition<const D: usize>(
    points: &[Point<D>],
    eps: f64,
) -> Result<CellPartition<D>, KeyOverflow> {
    assert!(eps > 0.0, "eps must be positive");
    // Bounding box of the dataset (computed in parallel, one scan per
    // chunk). Keys count cells up from its lower corner, so its upper
    // corner holds the largest key.
    let Some(bounds) = points
        .par_chunks(BOUNDS_CHUNK)
        .filter_map(BoundingBox::containing)
        .reduce_with(|a, b| a.union(&b))
    else {
        return Ok(grid_partition_anchored(points, eps, [0.0; D]));
    };
    check_key_range(&bounds.hi, &bounds.lo, cell_side::<D>(eps))?;
    Ok(grid_partition_anchored(points, eps, bounds.lo))
}

/// [`grid_partition`] with an explicit grid origin instead of the dataset's
/// lower corner. Points below the origin get negative cell keys, which the
/// quantization handles fine. Every point must pass
/// [`check_key_range`] against `origin`; the overlay checks each point
/// on insert.
///
/// The updatable overlay ([`crate::OverlayPartition`]) compacts by rebuilding
/// its base partition with the *original* anchor so that cell keys stay
/// stable across compactions — per-point state keyed by cell key (e.g. the
/// streaming clusterer's border adjacency) survives a rebuild untouched.
pub fn grid_partition_anchored<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    origin: [f64; D],
) -> CellPartition<D> {
    assert!(eps > 0.0, "eps must be positive");
    let n = points.len();
    if n == 0 {
        return CellPartition::from_parts(
            eps,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Some(GridIndex::new(origin, eps, &[])),
        );
    }
    let side = cell_side::<D>(eps);

    // Semisort (cell key, point id) pairs to group points by cell.
    let pairs: Vec<([i64; D], usize)> = points
        .par_iter()
        .enumerate()
        .map(|(i, p)| (cell_key(p, &origin, side), i))
        .collect();
    let grouped = semisort_by_key(pairs);

    let mut reordered_points = Vec::with_capacity(n);
    let mut point_ids = Vec::with_capacity(n);
    let mut cells = Vec::with_capacity(grouped.num_groups());
    let mut keys = Vec::with_capacity(grouped.num_groups());
    for g in 0..grouped.num_groups() {
        let group = grouped.group(g);
        let key = group[0].0;
        let start = reordered_points.len();
        for &(_, pid) in group {
            reordered_points.push(points[pid]);
            point_ids.push(pid);
        }
        cells.push(CellInfo {
            start,
            len: group.len(),
            bbox: cell_bbox(&key, &origin, side),
            key: Some(key),
        });
        keys.push(key);
    }
    let grid_index = GridIndex::new(origin, eps, &keys);
    CellPartition::from_parts(eps, reordered_points, point_ids, cells, Some(grid_index))
}

/// Builds the 2D box partition of §4.2: points are sorted by x and greedily
/// grouped into vertical strips of width at most ε/√2 (a new strip starts at
/// the first point more than ε/√2 to the right of the strip's first point);
/// the same construction is applied within each strip in y to obtain the box
/// cells. The strip-membership assignment uses the pointer-jumping primitive,
/// mirroring the paper's parallelization.
pub fn box_partition(points: &[Point2], eps: f64) -> CellPartition<2> {
    assert!(eps > 0.0, "eps must be positive");
    let n = points.len();
    if n == 0 {
        return CellPartition::from_parts(eps, Vec::new(), Vec::new(), Vec::new(), None);
    }
    let width = eps / (2.0f64).sqrt();

    // Sort point ids by x (comparison sort, O(n log n) as in the paper).
    let mut by_x: Vec<usize> = (0..n).collect();
    parprims::par_sort_by(&mut by_x, |&a, &b| {
        points[a]
            .x()
            .partial_cmp(&points[b].x())
            .unwrap()
            .then(points[a].y().partial_cmp(&points[b].y()).unwrap())
    });

    // Greedy strip heads along x, then strip assignment via pointer jumping.
    let strip_of = greedy_heads_and_assign(&by_x, |i| points[i].x(), width);

    // Within each strip, repeat the construction along y.
    let num_strips = strip_of.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut strips: Vec<Vec<usize>> = vec![Vec::new(); num_strips];
    for (rank, &pid) in by_x.iter().enumerate() {
        strips[strip_of[rank]].push(pid);
    }

    let cell_groups: Vec<Vec<Vec<usize>>> = strips
        .par_iter()
        .map(|strip| {
            if strip.is_empty() {
                return Vec::new();
            }
            let mut by_y: Vec<usize> = strip.clone();
            by_y.sort_by(|&a, &b| {
                points[a]
                    .y()
                    .partial_cmp(&points[b].y())
                    .unwrap()
                    .then(points[a].x().partial_cmp(&points[b].x()).unwrap())
            });
            let box_of = greedy_heads_and_assign(&by_y, |i| points[i].y(), width);
            let num_boxes = box_of.iter().copied().max().unwrap() + 1;
            let mut boxes: Vec<Vec<usize>> = vec![Vec::new(); num_boxes];
            for (rank, &pid) in by_y.iter().enumerate() {
                boxes[box_of[rank]].push(pid);
            }
            boxes
        })
        .collect();

    let mut reordered_points = Vec::with_capacity(n);
    let mut point_ids = Vec::with_capacity(n);
    let mut cells = Vec::new();
    for strip_cells in cell_groups {
        for cell_members in strip_cells {
            if cell_members.is_empty() {
                continue;
            }
            let start = reordered_points.len();
            for &pid in &cell_members {
                reordered_points.push(points[pid]);
                point_ids.push(pid);
            }
            let bbox = BoundingBox::containing(&reordered_points[start..]).expect("non-empty cell");
            cells.push(CellInfo {
                start,
                len: cell_members.len(),
                bbox,
                key: None,
            });
        }
    }
    CellPartition::from_parts(eps, reordered_points, point_ids, cells, None)
}

/// Greedy strip decomposition along one coordinate: `order` lists point ids
/// sorted by `coord`, and a new strip starts at the first point whose
/// coordinate exceeds the current strip head's coordinate by more than
/// `width`. Returns, for every *rank* in `order`, the dense index of its
/// strip. The head-finding walk follows the same parent chain as the paper's
/// parallel formulation; membership is then resolved with pointer jumping.
fn greedy_heads_and_assign(
    order: &[usize],
    coord: impl Fn(usize) -> f64,
    width: f64,
) -> Vec<usize> {
    let m = order.len();
    let mut is_head = vec![false; m];
    let mut rank = 0usize;
    while rank < m {
        is_head[rank] = true;
        let head_coord = coord(order[rank]);
        // Parent pointer: first rank whose coordinate exceeds head + width.
        let next = order.partition_point(|&pid| coord(pid) <= head_coord + width);
        rank = next.max(rank + 1);
    }
    let head_rank = strip_heads_to_assignment(&is_head);
    // Densify strip indices in head order.
    let mut strip_index = vec![usize::MAX; m];
    let mut next_strip = 0usize;
    for r in 0..m {
        if is_head[r] {
            strip_index[r] = next_strip;
            next_strip += 1;
        }
    }
    head_rank.into_iter().map(|h| strip_index[h]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_points_2d(n: usize, extent: f64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    #[test]
    fn grid_partition_covers_all_points_and_validates() {
        let pts = random_points_2d(2000, 50.0, 1);
        let part = grid_partition(&pts, 1.5).unwrap();
        assert_eq!(part.num_points(), 2000);
        part.validate().unwrap();
        assert!(part.num_cells() > 1);
    }

    #[test]
    fn grid_partition_3d_validates() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point<3>> = (0..1500)
            .map(|_| {
                Point::new([
                    rng.gen_range(0.0..20.0),
                    rng.gen_range(0.0..20.0),
                    rng.gen_range(0.0..20.0),
                ])
            })
            .collect();
        let part = grid_partition(&pts, 2.0).unwrap();
        part.validate().unwrap();
    }

    #[test]
    fn grid_cells_group_points_with_equal_keys() {
        let pts = random_points_2d(500, 10.0, 7);
        let part = grid_partition(&pts, 1.0).unwrap();
        let index = part.grid_index.as_ref().unwrap();
        for (c, info) in part.cells.iter().enumerate() {
            let key = info.key.unwrap();
            for p in part.cell_points(c) {
                assert_eq!(index.key_of(p), key);
            }
            assert_eq!(index.cell_of_key(&key), Some(c));
        }
    }

    #[test]
    fn grid_partition_single_cell_when_eps_is_huge() {
        let pts = random_points_2d(100, 1.0, 9);
        let part = grid_partition(&pts, 1000.0).unwrap();
        assert_eq!(part.num_cells(), 1);
        assert_eq!(part.cells[0].len, 100);
    }

    #[test]
    fn grid_partition_empty_input() {
        let part = grid_partition::<2>(&[], 1.0).unwrap();
        assert_eq!(part.num_cells(), 0);
        assert_eq!(part.num_points(), 0);
        part.validate().unwrap();
    }

    #[test]
    fn point_to_cell_is_consistent() {
        let pts = random_points_2d(800, 30.0, 11);
        let part = grid_partition(&pts, 2.0).unwrap();
        let p2c = part.point_to_cell();
        for (c, _) in part.cells.iter().enumerate() {
            for &pid in part.cell_point_ids(c) {
                assert_eq!(p2c[pid], c);
            }
        }
    }

    #[test]
    fn box_partition_covers_all_points_and_validates() {
        let pts = random_points_2d(2000, 40.0, 13);
        let part = box_partition(&pts, 1.5);
        assert_eq!(part.num_points(), 2000);
        part.validate().unwrap();
    }

    #[test]
    fn box_cells_have_bounded_side_length() {
        let pts = random_points_2d(3000, 25.0, 17);
        let eps = 2.0;
        let width = eps / (2.0f64).sqrt();
        let part = box_partition(&pts, eps);
        for info in part.cells.iter() {
            assert!(info.bbox.hi[0] - info.bbox.lo[0] <= width + 1e-9);
            assert!(info.bbox.hi[1] - info.bbox.lo[1] <= width + 1e-9);
        }
    }

    #[test]
    fn box_partition_matches_sequential_strip_semantics() {
        // Strips are defined greedily from the leftmost point; check the strip
        // decomposition on a hand-built instance.
        let pts = vec![
            Point2::new([0.0, 0.0]),
            Point2::new([0.5, 5.0]),
            Point2::new([0.7, 9.0]),  // same strip as 0.0 (width 0.707..)
            Point2::new([0.71, 3.0]), // starts a new strip
            Point2::new([1.5, 1.0]),  // third strip (1.5 > 0.71 + 0.707)
        ];
        let part = box_partition(&pts, 1.0);
        part.validate().unwrap();
        // Count distinct strips by x-extent of cells: points 0,1,2 share x-strip
        // but are split in y; ensure total cells ≥ 4 and every point present.
        assert_eq!(part.num_points(), 5);
    }

    #[test]
    fn box_partition_empty_and_single() {
        let part = box_partition(&[], 1.0);
        assert_eq!(part.num_cells(), 0);
        let single = box_partition(&[Point2::new([3.0, 4.0])], 1.0);
        assert_eq!(single.num_cells(), 1);
        single.validate().unwrap();
    }

    #[test]
    fn identical_points_all_land_in_one_cell() {
        let pts = vec![Point2::new([2.0, 2.0]); 50];
        let g = grid_partition(&pts, 0.5).unwrap();
        assert_eq!(g.num_cells(), 1);
        g.validate().unwrap();
        let b = box_partition(&pts, 0.5);
        assert_eq!(b.num_cells(), 1);
        b.validate().unwrap();
    }
}
