//! CSR adjacency over the cells of a partition.
//!
//! Phase 1 of the pipeline computes, for every cell, the ids of the other
//! cells whose boxes are within ε ([`NeighborGraph::build`], the one
//! builder: the pipeline's spatial index and the updatable overlay's
//! compaction both call it). Storing that as `Vec<Vec<usize>>` costs
//! one heap allocation per cell and scatters the lists across the heap —
//! exactly the indirection the hot RangeCount and BCP loops then pay on
//! every neighbour walk. [`NeighborGraph`] is the flat alternative: a
//! domain-named wrapper over the generic [`parprims::Csr`] container (the
//! same flat shape `pardbscan`'s `ClusterSets` uses), so a cell's
//! neighbours are a contiguous slice, the whole structure is two
//! allocations, and sharing it costs one `Arc`.

use crate::kdtree::CellKdTree;
use crate::partition::CellPartition;
use parprims::Csr;
use rayon::prelude::*;

/// Flat compressed-sparse-row adjacency: `graph.of(c)` (or `graph[c]`) is
/// the slice of neighbour cell ids of cell `c`, in the order the builder
/// emitted them (sorted ascending for the grid construction). The CSR
/// invariants (leading zero, monotone offsets covering the targets exactly)
/// are enforced by the underlying [`Csr`] container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborGraph {
    cells: Csr<usize>,
}

impl NeighborGraph {
    /// An adjacency with no cells.
    pub fn empty() -> Self {
        NeighborGraph {
            cells: Csr::empty(),
        }
    }

    /// Computes, for every cell of `partition`, the sorted ids of the other
    /// cells whose boxes are within the partition's ε.
    ///
    /// Grid partitions in 1D and 2D enumerate candidate keys (§4.1): a
    /// constant number per cell (48 in 2D), each looked up in the grid's
    /// hash table. For d ≥ 3 the candidate count grows exponentially with
    /// d, so — exactly as the paper prescribes in §5.1 — the non-empty cells
    /// are put in a k-d tree and each cell range-queries it for its
    /// non-empty neighbours. The box method has irregular cells with no key
    /// arithmetic, so it always uses the k-d tree.
    pub fn build<const D: usize>(partition: &CellPartition<D>) -> Self {
        if partition.num_cells() == 0 {
            return NeighborGraph::empty();
        }
        let lists: Vec<Vec<usize>> = match &partition.grid_index {
            Some(index) if D <= 2 => (0..partition.num_cells())
                .into_par_iter()
                .map(|c| {
                    let key = partition.cells[c].key.expect("grid cells have keys");
                    let mut nbrs = index.neighbor_cells(&key);
                    nbrs.sort_unstable();
                    nbrs
                })
                .collect(),
            _ => {
                let boxes: Vec<geom::BoundingBox<D>> =
                    partition.cells.iter().map(|c| c.bbox).collect();
                let tree = CellKdTree::build(&boxes);
                (0..partition.num_cells())
                    .into_par_iter()
                    .map(|c| tree.cells_within(&boxes[c], partition.eps, c))
                    .collect()
            }
        };
        NeighborGraph::from_lists(&lists)
    }

    /// Flattens per-cell neighbour lists into CSR form.
    pub fn from_lists(lists: &[Vec<usize>]) -> Self {
        NeighborGraph {
            cells: Csr::from_lists(lists),
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.num_rows()
    }

    /// Total number of directed neighbour entries.
    pub fn num_edges(&self) -> usize {
        self.cells.num_values()
    }

    /// The neighbour cell ids of cell `c`, as a contiguous slice.
    #[inline]
    pub fn of(&self, c: usize) -> &[usize] {
        self.cells.row(c)
    }

    /// Number of neighbours of cell `c`.
    #[inline]
    pub fn degree(&self, c: usize) -> usize {
        self.cells.row_len(c)
    }

    /// The adjacency re-materialized as per-cell lists (test/debug helper —
    /// the hot paths use [`NeighborGraph::of`]).
    pub fn to_lists(&self) -> Vec<Vec<usize>> {
        self.cells.to_lists()
    }
}

/// `graph[c]` is the neighbour slice of cell `c` — keeps the call sites of
/// the former `Vec<Vec<usize>>` representation readable.
impl std::ops::Index<usize> for NeighborGraph {
    type Output = [usize];

    #[inline]
    fn index(&self, c: usize) -> &[usize] {
        self.of(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_round_trips() {
        let lists = vec![vec![1, 2], vec![0], vec![], vec![0, 1, 2]];
        let graph = NeighborGraph::from_lists(&lists);
        assert_eq!(graph.num_cells(), 4);
        assert_eq!(graph.num_edges(), 6);
        assert_eq!(graph.of(0), &[1, 2]);
        assert_eq!(graph.of(2), &[] as &[usize]);
        assert_eq!(graph.degree(3), 3);
        assert_eq!(graph.to_lists(), lists);
        assert_eq!(&graph[3], &[0, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let graph = NeighborGraph::empty();
        assert_eq!(graph.num_cells(), 0);
        assert_eq!(graph.num_edges(), 0);
        assert_eq!(graph, NeighborGraph::from_lists(&[]));
    }
}
