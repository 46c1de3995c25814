//! A mutable overlay over a grid [`CellPartition`]: point insertions and
//! deletions without re-semisorting.
//!
//! The grid construction of §4.1 is batch-shaped: points are semisorted by
//! cell key into contiguous per-cell slices, which is exactly what the
//! phase-parallel pipeline wants and exactly what an updatable structure
//! cannot keep. [`OverlayPartition`] reconciles the two with the classic
//! base-plus-delta layout:
//!
//! * the **base** is an ordinary immutable [`CellPartition`] (Arc-shared,
//!   semisorted, cheap to clone);
//! * each cell carries an **insert list** of points added after the base was
//!   built, and base points are deleted by **tombstoning** (an `alive` flag
//!   in the point arena) — a cell's live points are its base slice filtered
//!   by `alive` plus its insert list;
//! * cells that did not exist in the base are appended on demand when an
//!   insert lands in an empty region of the grid;
//! * once the overlay grows past a threshold fraction of the live set
//!   ([`OverlayPartition::needs_compaction`]), [`OverlayPartition::compact`]
//!   rebuilds the base from the live points with
//!   [`grid_partition_anchored`] — crucially reusing the original grid
//!   origin, so cell *keys* are stable across compactions even though cell
//!   *ids* are not.
//!
//! Point ids are stable handles: an inserted point's id is never reused,
//! deletion never renumbers, and compaction only reorganizes storage. The
//! streaming clusterer (`dbscan-stream`) keys all of its derived state
//! (core flags, component membership, border adjacency) by point id or by
//! cell key, so a compaction invalidates nothing but cell ids.

use crate::gridkey::{
    cell_bbox, cell_key, check_key_range, for_each_candidate_neighbor_key, KeyOverflow,
};
use crate::partition::{grid_partition_anchored, CellPartition};
use geom::{BoundingBox, Point};
use std::collections::HashMap;

/// One cell of an [`OverlayPartition`]: a base cell plus its insert list, or
/// a fresh cell created by inserts alone.
#[derive(Debug, Clone)]
pub struct OverlayCell<const D: usize> {
    /// The grid key of the cell.
    pub key: [i64; D],
    /// The base cell this overlays (`None` for cells created by inserts).
    pub base_cell: Option<usize>,
    /// Ids of points inserted into this cell since the base was built.
    /// Invariant: every listed id is alive (deleting an inserted point
    /// removes it from the list instead of tombstoning).
    pub inserts: Vec<usize>,
    /// Number of live points in the cell (base survivors + inserts).
    pub live: usize,
}

/// A grid cell partition that supports point insertions and deletions.
///
/// Built from a grid [`CellPartition`] with
/// [`OverlayPartition::from_partition`]; see the module docs for the layout.
pub struct OverlayPartition<const D: usize> {
    eps: f64,
    side: f64,
    origin: [f64; D],
    base: CellPartition<D>,
    /// Arena id of the point at each *position* of the base's reordered
    /// arrays. Kept outside the partition so the base stays a valid,
    /// self-contained `CellPartition` (its own `point_ids` index its own
    /// points) even after a compaction shrank it below the arena size.
    base_arena_ids: Vec<usize>,
    /// Point arena: coordinates of every point ever added, by stable id.
    points: Vec<Point<D>>,
    alive: Vec<bool>,
    /// Whether a live point is stored in the base (vs. an insert list).
    in_base: Vec<bool>,
    cells: Vec<OverlayCell<D>>,
    key_to_cell: HashMap<[i64; D], usize>,
    live: usize,
    /// Tombstoned base slots: dead entries the base still stores.
    garbage: usize,
    /// Live points held in insert lists rather than the base.
    overlay_points: usize,
    /// Compact when `garbage + overlay_points` exceeds this fraction of the
    /// live count (and a small absolute floor, to avoid thrashing on tiny
    /// sets).
    compaction_fraction: f64,
}

impl<const D: usize> OverlayPartition<D> {
    /// Wraps a grid partition in a mutable overlay. The partition must come
    /// from the grid construction (the box method's irregular cells have no
    /// key arithmetic to place new points with).
    pub fn from_partition(base: CellPartition<D>) -> Result<Self, String> {
        let index = base
            .grid_index
            .as_ref()
            .ok_or_else(|| "overlay requires a grid partition (cells need keys)".to_string())?;
        let origin = *index.origin();
        let side = index.side();
        let n = base.num_points();
        let mut points = vec![Point::origin(); n];
        for (pos, &pid) in base.point_ids.iter().enumerate() {
            if pid >= n {
                return Err(format!("base partition has out-of-range point id {pid}"));
            }
            points[pid] = base.points[pos];
        }
        let mut cells = Vec::with_capacity(base.num_cells());
        let mut key_to_cell = HashMap::with_capacity(base.num_cells());
        for (c, info) in base.cells.iter().enumerate() {
            let key = info
                .key
                .ok_or_else(|| format!("base cell {c} has no grid key"))?;
            cells.push(OverlayCell {
                key,
                base_cell: Some(c),
                inserts: Vec::new(),
                live: info.len,
            });
            key_to_cell.insert(key, c);
        }
        Ok(OverlayPartition {
            eps: base.eps,
            side,
            origin,
            base_arena_ids: base.point_ids.to_vec(),
            base,
            points,
            alive: vec![true; n],
            in_base: vec![true; n],
            cells,
            key_to_cell,
            live: n,
            garbage: 0,
            overlay_points: 0,
            compaction_fraction: 0.5,
        })
    }

    /// The ε the grid was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The grid origin (fixed for the overlay's lifetime).
    pub fn origin(&self) -> &[f64; D] {
        &self.origin
    }

    /// Number of live points.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Size of the point arena (live + dead slots); also the smallest id not
    /// yet handed out.
    pub fn arena_len(&self) -> usize {
        self.points.len()
    }

    /// Number of cells (including cells whose live count dropped to zero —
    /// they keep their id so a later insert can reuse it).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether `id` refers to a live point.
    pub fn is_alive(&self, id: usize) -> bool {
        id < self.alive.len() && self.alive[id]
    }

    /// Coordinates of point `id` (also valid for dead points, whose slots
    /// keep their last coordinates).
    pub fn point(&self, id: usize) -> Point<D> {
        self.points[id]
    }

    /// Checks that `p` quantizes to an exact key of this grid — the
    /// precondition of [`OverlayPartition::insert`].
    pub fn check_key_range(&self, p: &Point<D>) -> Result<(), KeyOverflow> {
        check_key_range(&p.coords, &self.origin, self.side)
    }

    /// The grid key of the cell that contains (or would contain) `p`.
    pub fn key_of(&self, p: &Point<D>) -> [i64; D] {
        cell_key(p, &self.origin, self.side)
    }

    /// The cell id for a key, if that cell exists.
    pub fn cell_of_key(&self, key: &[i64; D]) -> Option<usize> {
        self.key_to_cell.get(key).copied()
    }

    /// The cell id containing live point `id`.
    pub fn cell_of_point(&self, id: usize) -> usize {
        self.cell_of_key(&self.key_of(&self.points[id]))
            .expect("a live point's cell exists")
    }

    /// The grid key of cell `c`.
    pub fn cell_key(&self, c: usize) -> [i64; D] {
        self.cells[c].key
    }

    /// The grid box of cell `c`.
    pub fn cell_bbox(&self, c: usize) -> BoundingBox<D> {
        cell_bbox(&self.cells[c].key, &self.origin, self.side)
    }

    /// Number of live points in cell `c`.
    pub fn cell_live(&self, c: usize) -> usize {
        self.cells[c].live
    }

    /// The live points of cell `c` as `(id, point)` pairs: base survivors
    /// first, then inserts.
    pub fn live_points_of_cell(&self, c: usize) -> Vec<(usize, Point<D>)> {
        let mut out = Vec::with_capacity(self.cells[c].live);
        self.live_points_of_cell_into(c, &mut out);
        out
    }

    /// [`OverlayPartition::live_points_of_cell`] into a caller-supplied
    /// scratch buffer: `out` is cleared and refilled, so a buffer reused
    /// across calls stops allocating once it has grown to the largest cell
    /// it has seen. This mirrors the BCP scratch API in `pardbscan` — the
    /// streaming clusterer's update path walks cells one at a time, and a
    /// persistent scratch makes those walks allocation-free for small
    /// batches.
    pub fn live_points_of_cell_into(&self, c: usize, out: &mut Vec<(usize, Point<D>)>) {
        out.clear();
        let cell = &self.cells[c];
        out.reserve(cell.live);
        if let Some(b) = cell.base_cell {
            let info = &self.base.cells[b];
            for pos in info.start..info.start + info.len {
                let pid = self.base_arena_ids[pos];
                if self.alive[pid] {
                    out.push((pid, self.base.points[pos]));
                }
            }
        }
        for &pid in &cell.inserts {
            out.push((pid, self.points[pid]));
        }
    }

    /// Ids of the existing cells with at least one live point whose box is
    /// within ε of cell `c`'s box (excluding `c` itself).
    pub fn neighbor_cells(&self, c: usize) -> Vec<usize> {
        let key = self.cells[c].key;
        let my_box = cell_bbox(&key, &self.origin, self.side);
        // Inflated cutoff, as in `GridIndex::neighbor_cells`: a cell at
        // distance exactly ε must not be dropped by rounding.
        let cutoff = self.eps * self.eps * (1.0 + 1e-9);
        let mut out = Vec::new();
        for_each_candidate_neighbor_key(&key, |nk| {
            if let Some(&h) = self.key_to_cell.get(nk) {
                if self.cells[h].live > 0
                    && cell_bbox(nk, &self.origin, self.side).dist_sq_to_box(&my_box) <= cutoff
                {
                    out.push(h);
                }
            }
        });
        out
    }

    /// Inserts a point, returning `(id, cell, cell_created)`. The point must
    /// pass [`OverlayPartition::check_key_range`].
    pub fn insert(&mut self, p: Point<D>) -> (usize, usize, bool) {
        let id = self.points.len();
        self.points.push(p);
        self.alive.push(true);
        self.in_base.push(false);
        let key = self.key_of(&p);
        let (cell, created) = match self.key_to_cell.get(&key) {
            Some(&c) => (c, false),
            None => {
                let c = self.cells.len();
                self.cells.push(OverlayCell {
                    key,
                    base_cell: None,
                    inserts: Vec::new(),
                    live: 0,
                });
                self.key_to_cell.insert(key, c);
                (c, true)
            }
        };
        self.cells[cell].inserts.push(id);
        self.cells[cell].live += 1;
        self.live += 1;
        self.overlay_points += 1;
        (id, cell, created)
    }

    /// Deletes live point `id`, returning its cell. `None` if the id is
    /// unknown or already dead (nothing is changed in that case).
    pub fn delete(&mut self, id: usize) -> Option<usize> {
        if !self.is_alive(id) {
            return None;
        }
        let key = self.key_of(&self.points[id]);
        let cell = *self.key_to_cell.get(&key)?;
        if self.in_base[id] {
            // Base points are tombstoned (the base arrays are shared and
            // immutable); the dead slot is reclaimed at compaction.
            self.garbage += 1;
        } else {
            let pos = self.cells[cell]
                .inserts
                .iter()
                .position(|&x| x == id)
                .expect("an inserted live point is in its cell's insert list");
            self.cells[cell].inserts.swap_remove(pos);
            self.overlay_points -= 1;
        }
        self.alive[id] = false;
        self.cells[cell].live -= 1;
        self.live -= 1;
        Some(cell)
    }

    /// Ids of the live points, ascending.
    pub fn live_ids(&self) -> Vec<usize> {
        (0..self.points.len()).filter(|&i| self.alive[i]).collect()
    }

    /// Whether the overlay has drifted far enough from its base that a
    /// [`OverlayPartition::compact`] is worthwhile: tombstones plus insert
    /// lists exceed the compaction fraction (default ½) of the live count.
    pub fn needs_compaction(&self) -> bool {
        let drift = self.garbage + self.overlay_points;
        drift > 32 && drift as f64 >= self.compaction_fraction * self.live.max(1) as f64
    }

    /// Rebuilds the base partition from the live points (re-semisort), with
    /// the original grid origin so every cell keeps its key. Point ids are
    /// unchanged; cell *ids* are renumbered — callers with cell-id-keyed
    /// state must rebuild it (cell-*key*-keyed state survives).
    pub fn compact(&mut self) {
        let live_ids = self.live_ids();
        let live_pts: Vec<Point<D>> = live_ids.iter().map(|&i| self.points[i]).collect();
        // The rebuilt partition is a valid, self-contained `CellPartition`
        // over `live_pts` (its point ids index `live_pts`); the arena-id
        // mapping is kept in the separate per-position table so the base
        // never carries ids beyond its own point count.
        self.base = grid_partition_anchored(&live_pts, self.eps, self.origin);
        self.base_arena_ids = self
            .base
            .point_ids
            .iter()
            .map(|&pos| live_ids[pos])
            .collect();
        self.cells = self
            .base
            .cells
            .iter()
            .enumerate()
            .map(|(c, info)| OverlayCell {
                key: info.key.expect("grid cells have keys"),
                base_cell: Some(c),
                inserts: Vec::new(),
                live: info.len,
            })
            .collect();
        self.key_to_cell = self
            .cells
            .iter()
            .enumerate()
            .map(|(c, cell)| (cell.key, c))
            .collect();
        for &id in &live_ids {
            self.in_base[id] = true;
        }
        self.garbage = 0;
        self.overlay_points = 0;
    }

    /// Internal consistency checks for tests and debugging.
    pub fn validate(&self) -> Result<(), String> {
        if self.alive.len() != self.points.len() || self.in_base.len() != self.points.len() {
            return Err("arena flag lengths mismatch".into());
        }
        self.base.validate()?;
        if self.base_arena_ids.len() != self.base.num_points() {
            return Err("base arena-id table length mismatch".into());
        }
        let mut seen = vec![false; self.points.len()];
        let mut live_total = 0usize;
        for (c, cell) in self.cells.iter().enumerate() {
            let pts = self.live_points_of_cell(c);
            if pts.len() != cell.live {
                return Err(format!(
                    "cell {c}: live count {} but {} live points",
                    cell.live,
                    pts.len()
                ));
            }
            live_total += pts.len();
            for (id, p) in pts {
                if !self.alive[id] {
                    return Err(format!("cell {c} lists dead point {id}"));
                }
                if seen[id] {
                    return Err(format!("point {id} appears in two cells"));
                }
                seen[id] = true;
                if self.key_of(&p) != cell.key {
                    return Err(format!("point {id} is in the wrong cell"));
                }
            }
            for &id in &cell.inserts {
                if self.in_base[id] {
                    return Err(format!("insert-list point {id} is flagged in_base"));
                }
            }
            if self.key_to_cell.get(&cell.key) != Some(&c) {
                return Err(format!("cell {c} key is not indexed to it"));
            }
        }
        if live_total != self.live {
            return Err(format!(
                "cells cover {live_total} live points, counter says {}",
                self.live
            ));
        }
        for (id, &alive) in self.alive.iter().enumerate() {
            if alive && !seen[id] {
                return Err(format!("live point {id} is in no cell"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::grid_partition;
    use rand::prelude::*;

    fn random_points(n: usize, extent: f64, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new([rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)]))
            .collect()
    }

    fn overlay_from(pts: &[Point<2>], eps: f64) -> OverlayPartition<2> {
        OverlayPartition::from_partition(grid_partition(pts, eps).unwrap()).unwrap()
    }

    #[test]
    fn from_partition_mirrors_the_base() {
        let pts = random_points(500, 20.0, 1);
        let ov = overlay_from(&pts, 1.5);
        assert_eq!(ov.num_live(), 500);
        ov.validate().unwrap();
        for (id, p) in pts.iter().enumerate() {
            assert!(ov.is_alive(id));
            assert_eq!(ov.point(id), *p);
        }
    }

    #[test]
    fn insert_and_delete_update_cells_and_counters() {
        let pts = random_points(200, 10.0, 2);
        let mut ov = overlay_from(&pts, 1.0);
        let (id, cell, _) = ov.insert(Point::new([5.0, 5.0]));
        assert_eq!(id, 200);
        assert!(ov.is_alive(id));
        assert!(ov
            .live_points_of_cell(cell)
            .iter()
            .any(|&(pid, _)| pid == id));
        ov.validate().unwrap();

        // Delete a base point and the inserted point.
        assert!(ov.delete(0).is_some());
        assert!(!ov.is_alive(0));
        assert!(ov.delete(0).is_none(), "double delete is rejected");
        assert!(ov.delete(id).is_some());
        assert_eq!(ov.num_live(), 199);
        ov.validate().unwrap();
    }

    #[test]
    fn inserts_far_outside_the_base_create_new_cells() {
        let pts = random_points(50, 4.0, 3);
        let mut ov = overlay_from(&pts, 1.0);
        let before = ov.num_cells();
        let (_, cell, created) = ov.insert(Point::new([-100.0, 42.0]));
        assert!(created);
        assert_eq!(cell, before);
        assert_eq!(ov.cell_live(cell), 1);
        ov.validate().unwrap();
        // A second insert into the same far cell reuses it.
        let (_, cell2, created2) = ov.insert(Point::new([-99.9, 42.0]));
        if ov.cell_key(cell) == ov.key_of(&Point::new([-99.9, 42.0])) {
            assert_eq!(cell2, cell);
            assert!(!created2);
        }
    }

    #[test]
    fn neighbor_cells_match_grid_index_on_a_fresh_overlay() {
        let pts = random_points(800, 25.0, 4);
        let part = grid_partition(&pts, 1.5).unwrap();
        let index = part.grid_index.as_ref().unwrap().clone();
        let ov = OverlayPartition::from_partition(part.clone()).unwrap();
        for (c, info) in part.cells.iter().enumerate() {
            let mut want = index.neighbor_cells(&info.key.unwrap());
            want.sort_unstable();
            let mut got = ov.neighbor_cells(c);
            got.sort_unstable();
            assert_eq!(got, want, "cell {c}");
        }
    }

    #[test]
    fn compaction_preserves_live_set_and_keys() {
        let pts = random_points(300, 12.0, 5);
        let mut ov = overlay_from(&pts, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut expected_live: Vec<usize> = (0..300).collect();
        for _ in 0..150 {
            let victim = expected_live.remove(rng.gen_range(0..expected_live.len()));
            ov.delete(victim).unwrap();
        }
        let mut inserted = Vec::new();
        for _ in 0..100 {
            let p = Point::new([rng.gen_range(0.0..12.0), rng.gen_range(0.0..12.0)]);
            inserted.push(ov.insert(p).0);
        }
        expected_live.extend(&inserted);
        expected_live.sort_unstable();

        assert!(ov.needs_compaction());
        let keys_before: std::collections::HashMap<usize, [i64; 2]> = expected_live
            .iter()
            .map(|&id| (id, ov.key_of(&ov.point(id))))
            .collect();
        ov.compact();
        ov.validate().unwrap();
        assert!(!ov.needs_compaction());
        assert_eq!(ov.live_ids(), expected_live);
        for &id in &expected_live {
            // Same origin ⇒ same key after compaction.
            assert_eq!(ov.key_of(&ov.point(id)), keys_before[&id]);
            let cell = ov.cell_of_point(id);
            assert!(ov.live_points_of_cell(cell).iter().any(|&(x, _)| x == id));
        }
    }

    #[test]
    fn scratch_reuse_matches_and_stops_allocating() {
        let pts = random_points(400, 12.0, 8);
        let mut ov = overlay_from(&pts, 1.0);
        // Churn a little so cells mix base survivors, tombstones and inserts.
        for id in (0..60).step_by(3) {
            ov.delete(id).unwrap();
        }
        for k in 0..40 {
            ov.insert(Point::new([0.3 * (k % 10) as f64, 0.3 * (k / 10) as f64]));
        }
        let mut scratch = Vec::new();
        for c in 0..ov.num_cells() {
            ov.live_points_of_cell_into(c, &mut scratch);
            assert_eq!(scratch, ov.live_points_of_cell(c), "cell {c}");
        }
        // Once warmed to the largest cell, further sweeps must not grow the
        // buffer — the whole point of the caller-supplied scratch.
        let warmed = scratch.capacity();
        for _ in 0..3 {
            for c in 0..ov.num_cells() {
                ov.live_points_of_cell_into(c, &mut scratch);
            }
        }
        assert_eq!(
            scratch.capacity(),
            warmed,
            "warmed scratch must not reallocate"
        );
    }

    #[test]
    fn empty_base_supports_inserts() {
        let mut ov = overlay_from(&[], 1.0);
        assert_eq!(ov.num_live(), 0);
        let (id, _, created) = ov.insert(Point::new([3.0, 3.0]));
        assert!(created);
        assert_eq!(id, 0);
        assert_eq!(ov.num_live(), 1);
        ov.validate().unwrap();
        ov.delete(id).unwrap();
        assert_eq!(ov.num_live(), 0);
        ov.validate().unwrap();
    }

    #[test]
    fn box_partitions_are_rejected() {
        let pts: Vec<geom::Point2> = random_points(20, 5.0, 7)
            .iter()
            .map(|p| geom::Point2::new(p.coords))
            .collect();
        let part = crate::partition::box_partition(&pts, 1.0);
        assert!(OverlayPartition::from_partition(part).is_err());
    }
}
