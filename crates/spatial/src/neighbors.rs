//! CSR adjacency over the cells of a partition.
//!
//! Phase 1 of the pipeline computes, for every cell, the ids of the other
//! cells whose boxes are within ε. Storing that as `Vec<Vec<usize>>` costs
//! one heap allocation per cell and scatters the lists across the heap —
//! exactly the indirection the hot RangeCount and BCP loops then pay on
//! every neighbour walk. [`NeighborGraph`] is the flat alternative: a
//! domain-named wrapper over the generic [`parprims::Csr`] container (the
//! same flat shape `pardbscan`'s `ClusterSets` uses), so a cell's
//! neighbours are a contiguous slice, the whole structure is two
//! allocations, and sharing it costs one `Arc`.

use parprims::Csr;

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
