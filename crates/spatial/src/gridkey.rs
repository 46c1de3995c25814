//! Integer cell keys for the grid method.
//!
//! The grid method (§4.1) places points into disjoint axis-aligned cells of
//! side length ε/√d. A point's cell key is the vector of its quantized
//! coordinates relative to the dataset's lower corner. Keys are the unit of
//! grouping for the semisort and the lookup key of the concurrent hash table
//! that stores the non-empty cells.

use geom::{BoundingBox, Point};
use parprims::ConcurrentMap;
use std::fmt;

/// Exclusive bound on a quantized coordinate `|x − origin| / side`: 2^52.
/// Below it a cell key, its candidate neighbour keys (offsets of at most
/// `⌈√D⌉ + 1`) and the `key as f64` of [`cell_bbox`] are all exact. Past
/// 2^63 the `as i64` cast in [`cell_key`] saturates, so far-apart points
/// would share one cell.
pub const MAX_QUANTIZED: f64 = 4_503_599_627_370_496.0;

/// A coordinate too far from the grid origin, in cells, for an exact cell
/// key: ε is too small for the extent of the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyOverflow {
    /// Axis of the offending coordinate.
    pub axis: usize,
    /// Its distance from the grid origin in cells, `|x − origin| / side`.
    pub cells: f64,
}

impl fmt::Display for KeyOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a coordinate on axis {} lies {:e} grid cells from the grid origin, \
             past the 2^52 cells that cell keys represent exactly; eps is too \
             small for the extent of the data",
            self.axis, self.cells
        )
    }
}

impl std::error::Error for KeyOverflow {}

/// Checks that every coordinate of `p` lies less than [`MAX_QUANTIZED`]
/// cells of side `side` from `origin`, so [`cell_key`] is exact for it.
/// Non-finite distances fail too.
pub fn check_key_range<const D: usize>(
    p: &[f64; D],
    origin: &[f64; D],
    side: f64,
) -> Result<(), KeyOverflow> {
    for axis in 0..D {
        let cells = (p[axis] - origin[axis]).abs() / side;
        if cells.is_nan() || cells >= MAX_QUANTIZED {
            return Err(KeyOverflow { axis, cells });
        }
    }
    Ok(())
}

/// Side length of a grid cell for radius `eps` in `D` dimensions: ε/√D, so
/// that the cell diagonal is exactly ε and any two points in the same cell
/// are within ε of each other.
pub fn cell_side<const D: usize>(eps: f64) -> f64 {
    eps / (D as f64).sqrt()
}

/// Computes the integer cell key of `p` for cells of side `side` anchored at
/// `origin`. The key is exact when `p` passes [`check_key_range`].
pub fn cell_key<const D: usize>(p: &Point<D>, origin: &[f64; D], side: f64) -> [i64; D] {
    let mut key = [0i64; D];
    for i in 0..D {
        key[i] = ((p.coords[i] - origin[i]) / side).floor() as i64;
    }
    key
}

/// The geometric bounding box of the cell with key `key`.
pub fn cell_bbox<const D: usize>(key: &[i64; D], origin: &[f64; D], side: f64) -> BoundingBox<D> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for i in 0..D {
        lo[i] = origin[i] + key[i] as f64 * side;
        hi[i] = lo[i] + side;
    }
    BoundingBox::new(lo, hi)
}

/// Calls `f` with every candidate neighbour key of `key`: each key within
/// Chebyshev distance `⌈√D⌉ + 1`, excluding `key` itself. For cells of side
/// ε/√D this radius covers every cell whose box can be within ε of `key`'s
/// box; [`GridIndex::neighbor_cells`] filters the candidates by presence
/// (hash-table lookup) and by the exact box-to-box distance.
///
/// The candidate count is `(2·(⌈√D⌉+1)+1)^D − 1`: 48 in 2D but 59,048 in
/// 5D. It stays private so that only the 1D/2D grid path of
/// [`crate::NeighborGraph::build`] walks it; higher dimensions and every
/// update path query a k-d tree over the non-empty cells (§5.1).
fn for_each_candidate_neighbor_key<const D: usize>(key: &[i64; D], mut f: impl FnMut(&[i64; D])) {
    let radius = (D as f64).sqrt().ceil() as i64 + 1;
    let mut delta = [-radius; D];
    loop {
        // Skip the zero offset (the cell itself).
        if delta.iter().any(|&d| d != 0) {
            let mut nk = *key;
            for i in 0..D {
                nk[i] += delta[i];
            }
            f(&nk);
        }
        // Advance the odometer over the (2·radius+1)^D offsets.
        let mut dim = 0;
        loop {
            if dim == D {
                return;
            }
            delta[dim] += 1;
            if delta[dim] > radius {
                delta[dim] = -radius;
                dim += 1;
            } else {
                break;
            }
        }
    }
}

/// Lookup structure mapping cell keys to dense cell ids, together with the
/// quantization parameters. This is the concurrent hash table of §4.1; after
/// construction it is queried read-only (phase-concurrency).
pub struct GridIndex<const D: usize> {
    origin: [f64; D],
    side: f64,
    eps: f64,
    key_to_cell: ConcurrentMap<[i64; D], usize>,
}

impl<const D: usize> GridIndex<D> {
    /// Builds the index from the list of distinct non-empty cell keys; key
    /// `keys[i]` maps to cell id `i`.
    pub fn new(origin: [f64; D], eps: f64, keys: &[[i64; D]]) -> Self {
        let side = cell_side::<D>(eps);
        let key_to_cell = ConcurrentMap::with_capacity(keys.len().max(1));
        for (i, k) in keys.iter().enumerate() {
            key_to_cell.insert(*k, i);
        }
        GridIndex {
            origin,
            side,
            eps,
            key_to_cell,
        }
    }

    /// The cell side length ε/√D.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The lower corner the grid is anchored at.
    pub fn origin(&self) -> &[f64; D] {
        &self.origin
    }

    /// The key of the cell containing `p`.
    pub fn key_of(&self, p: &Point<D>) -> [i64; D] {
        cell_key(p, &self.origin, self.side)
    }

    /// The dense cell id of the cell with key `key`, if that cell is
    /// non-empty.
    pub fn cell_of_key(&self, key: &[i64; D]) -> Option<usize> {
        self.key_to_cell.get(key).copied()
    }

    /// The dense cell id of the cell containing `p`, if non-empty.
    pub fn cell_of_point(&self, p: &Point<D>) -> Option<usize> {
        self.cell_of_key(&self.key_of(p))
    }

    /// Ids of the non-empty cells that could contain a point within ε of some
    /// point of the cell with key `key` (excluding the cell itself). This is
    /// the `NeighborCells(ε)` enumeration of the paper: every key within
    /// Chebyshev distance `⌈√D⌉ + 1` is looked up in the hash table and kept
    /// only if its box is within ε of the query cell's box. That is
    /// `(2·(⌈√D⌉+1)+1)^D − 1` probes, a constant for constant `D` but 48 in
    /// 2D against 59,048 in 5D, so [`crate::NeighborGraph::build`] calls this
    /// only for D ≤ 2 and queries a [`crate::CellKdTree`] above that.
    pub fn neighbor_cells(&self, key: &[i64; D]) -> Vec<usize> {
        let my_box = cell_bbox(key, &self.origin, self.side);
        // Slightly inflated cutoff: the box-to-box filter is conservative (the
        // per-point ε test happens later), and the inflation keeps cells whose
        // exact distance is ε from being dropped by floating-point rounding.
        let cutoff = self.eps * self.eps * (1.0 + 1e-9);
        let mut out = Vec::new();
        for_each_candidate_neighbor_key(key, |nk| {
            if let Some(cell) = self.cell_of_key(nk) {
                let nb_box = cell_bbox(nk, &self.origin, self.side);
                if my_box.dist_sq_to_box(&nb_box) <= cutoff {
                    out.push(cell);
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_side_makes_diagonal_eps() {
        let side = cell_side::<2>(1.0);
        assert!((side * (2.0f64).sqrt() - 1.0).abs() < 1e-12);
        let side3 = cell_side::<3>(3.0);
        assert!((side3 * (3.0f64).sqrt() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn key_quantization_is_consistent() {
        let origin = [0.0, 0.0];
        let side = 0.5;
        assert_eq!(cell_key(&Point::new([0.1, 0.1]), &origin, side), [0, 0]);
        assert_eq!(cell_key(&Point::new([0.6, 1.2]), &origin, side), [1, 2]);
        assert_eq!(cell_key(&Point::new([-0.1, 0.0]), &origin, side), [-1, 0]);
    }

    #[test]
    fn bbox_of_key_contains_its_points() {
        let origin = [1.0, -2.0];
        let side = 0.3;
        let p = Point::new([1.95, -0.4]);
        let key = cell_key(&p, &origin, side);
        let bb = cell_bbox(&key, &origin, side);
        assert!(bb.contains(&p));
    }

    #[test]
    fn grid_index_lookup_and_neighbors_2d() {
        // Cells of a 3x3 block of keys; eps chosen so side = eps/sqrt(2).
        let eps = std::f64::consts::SQRT_2;
        let mut keys = Vec::new();
        for x in 0..3i64 {
            for y in 0..3i64 {
                keys.push([x, y]);
            }
        }
        let idx = GridIndex::<2>::new([0.0, 0.0], eps, &keys);
        assert_eq!(idx.cell_of_key(&[1, 1]), Some(4));
        assert_eq!(idx.cell_of_key(&[5, 5]), None);
        // The centre cell of a 3x3 block has all 8 surrounding cells as
        // neighbours (they are all within eps of it).
        let nbrs = idx.neighbor_cells(&[1, 1]);
        assert_eq!(nbrs.len(), 8);
        // A corner cell has 3 of them.
        let corner = idx.neighbor_cells(&[0, 0]);
        assert!(corner.len() >= 3);
        assert!(!corner.contains(&0), "a cell is not its own neighbour");
    }

    #[test]
    fn neighbor_cells_respects_epsilon_cutoff() {
        // Two cells far apart: not neighbours.
        let eps = 1.0;
        let keys = vec![[0i64, 0], [10, 10]];
        let idx = GridIndex::<2>::new([0.0, 0.0], eps, &keys);
        assert!(idx.neighbor_cells(&[0, 0]).is_empty());
    }

    #[test]
    fn neighbor_cells_3d_diagonal() {
        let eps = 1.0;
        let keys = vec![[0i64, 0, 0], [1, 1, 1], [2, 2, 2]];
        let idx = GridIndex::<3>::new([0.0, 0.0, 0.0], eps, &keys);
        let nbrs = idx.neighbor_cells(&[0, 0, 0]);
        // [1,1,1] is diagonal-adjacent: boxes touch at a corner, distance 0.
        assert!(nbrs.contains(&1));
        // [2,2,2] is at box distance sqrt(3)*side = eps exactly; the inclusive
        // cutoff keeps it as a candidate.
        assert!(nbrs.contains(&2));
    }
}
