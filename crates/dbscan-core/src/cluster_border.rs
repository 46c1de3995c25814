//! ClusterBorder — Algorithm 4 of the paper.
//!
//! Non-core points only exist in cells with fewer than minPts points. Each
//! such point joins the cluster of every core point within ε of it, found by
//! scanning the core points of its own cell and of the neighbouring cells.
//! A border point can therefore belong to several clusters; a non-core point
//! within ε of no core point is noise.

use crate::kernels::any_within;
use crate::pipeline::{CoreSet, SpatialIndex};
use crate::result::ClusterSets;
use rayon::prelude::*;

/// Per-cell border output: the non-core point ids of one small cell, their
/// membership counts, and all their memberships concatenated — one buffer
/// per cell instead of one `Vec` per border point.
type CellBorder = (Vec<usize>, Vec<u32>, Vec<usize>);

/// Runs ClusterBorder over a prebuilt [`SpatialIndex`] and [`CoreSet`].
/// `core_clusters[pid]` is the raw cluster id of core point `pid` (from
/// [`crate::cluster_core::cluster_core`]); the return value extends it to a
/// per-point *set* of raw cluster ids covering core, border and noise points
/// (noise ⇒ empty set), in the flat [`ClusterSets`] form.
pub fn cluster_border<const D: usize>(
    index: &SpatialIndex<D>,
    core: &CoreSet<D>,
    core_clusters: &[Option<usize>],
) -> ClusterSets {
    let n = index.partition.num_points();
    let eps_sq = index.eps * index.eps;

    // Raw cluster id of each *cell* (all core points of a cell share one).
    let cell_cluster: Vec<Option<usize>> = (0..index.num_cells())
        .into_par_iter()
        .map(|c| {
            index
                .partition
                .cell_point_ids(c)
                .iter()
                .find(|&&pid| core.core_flags[pid])
                .map(|&pid| core_clusters[pid].expect("core point has a cluster"))
        })
        .collect();

    let border_assignments: Vec<CellBorder> = (0..index.num_cells())
        .into_par_iter()
        .map(|c| {
            // Cells with ≥ minPts points contain only core points. Smaller
            // cells hold fewer than minPts points, so their per-point loop
            // is short and runs sequentially within the parallel cell pass.
            if index.partition.cells[c].len >= core.min_pts {
                return (Vec::new(), Vec::new(), Vec::new());
            }
            let ids = index.partition.cell_point_ids(c);
            let pts = index.partition.cell_points(c);
            let mut pids = Vec::new();
            let mut counts = Vec::new();
            let mut members = Vec::new();
            for (&pid, p) in ids.iter().zip(pts) {
                if core.core_flags[pid] {
                    continue;
                }
                let seg = members.len();
                // The point's own cell first, then the neighbouring cells.
                for h in std::iter::once(c).chain(index.neighbors[c].iter().copied()) {
                    let Some(cluster) = cell_cluster[h] else {
                        continue;
                    };
                    if members[seg..].contains(&cluster) {
                        continue;
                    }
                    if any_within(p, core.core_points(h), eps_sq) {
                        members.push(cluster);
                    }
                }
                members[seg..].sort_unstable();
                pids.push(pid);
                counts.push((members.len() - seg) as u32);
            }
            (pids, counts, members)
        })
        .collect();

    // Assemble the flat per-point sets: membership counts, prefix offsets,
    // then one fill pass — no per-point heap objects anywhere.
    let mut counts = vec![0u32; n];
    for (pid, assignment) in core_clusters.iter().enumerate() {
        if assignment.is_some() {
            counts[pid] = 1;
        }
    }
    for (pids, cell_counts, _) in &border_assignments {
        for (&pid, &cnt) in pids.iter().zip(cell_counts) {
            counts[pid] = cnt;
        }
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for &cnt in &counts {
        total += cnt as usize;
        offsets.push(total);
    }
    let mut ids = vec![0usize; total];
    for (pid, assignment) in core_clusters.iter().enumerate() {
        if let Some(cluster) = assignment {
            ids[offsets[pid]] = *cluster;
        }
    }
    for (pids, cell_counts, members) in &border_assignments {
        let mut cursor = 0usize;
        for (&pid, &cnt) in pids.iter().zip(cell_counts) {
            let cnt = cnt as usize;
            ids[offsets[pid]..offsets[pid] + cnt].copy_from_slice(&members[cursor..cursor + cnt]);
            cursor += cnt;
        }
    }
    ClusterSets::from_parts(offsets, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_core::{cluster_core, ClusterCoreOptions};
    use crate::mark_core::mark_core;
    use crate::params::{CellGraphMethod, CellMethod, MarkCoreMethod};
    use geom::Point2;

    fn run_pipeline(pts: &[Point2], eps: f64, min_pts: usize) -> (Vec<bool>, ClusterSets) {
        let index = SpatialIndex::build(pts, eps, CellMethod::Grid).unwrap();
        let core = mark_core(&index, min_pts, MarkCoreMethod::Scan);
        let core_clusters = cluster_core(
            &index,
            &core,
            &ClusterCoreOptions {
                method: CellGraphMethod::Bcp,
                bucketing: false,
                rho: None,
            },
        );
        let sets = cluster_border(&index, &core, &core_clusters);
        (core.core_flags, sets)
    }

    #[test]
    fn border_point_joins_both_adjacent_clusters() {
        // Two vertical chains of points two apart in x, and a bridge point
        // exactly between their lower ends. With eps = 1 and minPts = 4 every
        // chain point is core (≥ 3 chain neighbours within 1.0 plus itself),
        // the chains are two separate clusters (they are 2.0 apart), and the
        // bridge sees exactly one core point of each chain (distance 1.0) plus
        // itself — too few to be core, so it is a border point of both
        // clusters.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point2::new([0.0, 0.3 * i as f64]));
        }
        for i in 0..10 {
            pts.push(Point2::new([2.0, 0.3 * i as f64]));
        }
        pts.push(Point2::new([1.0, 0.0]));
        let (core, sets) = run_pipeline(&pts, 1.0, 4);
        let bridge_idx = pts.len() - 1;
        assert!(core[..20].iter().all(|&c| c), "chain points must be core");
        assert!(!core[bridge_idx], "bridge point must not be core");
        assert_eq!(
            sets.of(bridge_idx).len(),
            2,
            "bridge belongs to both clusters"
        );
        // The two chains are distinct clusters.
        assert_ne!(sets.of(0)[0], sets.of(10)[0]);
    }

    #[test]
    fn lone_points_are_noise() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point2::new([0.01 * i as f64, 0.0]));
        }
        pts.push(Point2::new([100.0, 100.0]));
        let (core, sets) = run_pipeline(&pts, 1.0, 5);
        let lone = pts.len() - 1;
        assert!(!core[lone]);
        assert!(sets.of(lone).is_empty(), "far point is noise");
        assert!((0..10).all(|i| sets.of(i).len() == 1));
    }

    #[test]
    fn core_points_keep_exactly_one_cluster() {
        let pts: Vec<Point2> = (0..30)
            .map(|i| Point2::new([0.05 * i as f64, 0.0]))
            .collect();
        let (core, sets) = run_pipeline(&pts, 1.0, 3);
        for (i, &is_core) in core.iter().enumerate() {
            assert!(is_core);
            assert_eq!(sets.of(i).len(), 1);
        }
    }
}
