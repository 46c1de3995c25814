//! The streaming clusterer: incremental DBSCAN maintenance.

use crate::stats::{StreamError, UpdateBatch, UpdateStats};
use dbscan_engine::Snapshot;
use geom::Point;
use obs::PhaseExecution;
use pardbscan::pipeline::SpatialIndex;
use pardbscan::{
    connect_region, mark_core_phase, mark_core_region, partition_phase, CellMethod, Clustering,
    DbscanError, DbscanParams, MarkCoreMethod,
};
use rayon::prelude::*;
use spatial::OverlayPartition;
use std::collections::{BTreeSet, HashMap, HashSet};
use unionfind::DynamicUnionFind;

/// Process-wide registry mirrors of the per-batch [`UpdateStats`] fields
/// (which remain the per-call view; both are written on the single path at
/// the end of [`StreamingClusterer::apply`]).
static STREAM_APPLIES: obs::LazyCounter = obs::LazyCounter::new("dbscan_stream_applies_total");
static STREAM_CELLS_TOUCHED: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_stream_cells_touched_total");
static STREAM_RESCANNED: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_stream_points_rescanned_total");
static STREAM_REFLAGGED: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_stream_points_reflagged_total");
static STREAM_CONNECTIVITY: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_stream_connectivity_queries_total");
static STREAM_COMPACTIONS: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_stream_compactions_total");
static APPLY_SECONDS: obs::LazyHistogram =
    obs::LazyHistogram::new("dbscan_stream_apply_duration_seconds");

/// A DBSCAN clustering maintained incrementally under point insertions and
/// deletions.
///
/// The clusterer owns an updatable grid ([`spatial::OverlayPartition`]) and
/// three pieces of derived state, keyed by stable point id or by grid cell
/// *key* (never by cell id, which compaction renumbers):
///
/// * per-point **core flags** — maintained by the localized MarkCore of
///   [`pardbscan::mark_core_region`] over the touched cells and their
///   ε-neighbours;
/// * an explicit **cell graph** over the core cells (one slot per cell that
///   ever held a core point, edges between cells whose core sets have a
///   pair within ε) with its connected components in a
///   [`unionfind::DynamicUnionFind`]. An update batch re-evaluates — with
///   the parallel BCP filter of [`pardbscan::connect_region`] — exactly the
///   edges incident to cells whose core set changed. Added edges merge
///   components; removed edges dissolve the affected components (scoped by
///   the union-find's per-component *cell* membership) and re-derive them
///   by re-walking the surviving graph edges, with no further geometry;
/// * per-border-point **adjacency**: the keys of the cells containing a
///   core point within ε, from which [`StreamingClusterer::clustering`]
///   resolves the border point's cluster set.
///
/// After any sequence of applied batches the exact-variant labels are
/// equivalent (up to cluster renaming, which the canonical [`Clustering`]
/// numbering removes) to a from-scratch [`pardbscan::dbscan`] run on the
/// final live point set — enforced by the `tests/stream_matches_batch.rs`
/// property test at the workspace root.
pub struct StreamingClusterer<const D: usize> {
    params: DbscanParams,
    overlay: OverlayPartition<D>,
    /// Core flag per point id (`false` for dead points).
    core: Vec<bool>,
    /// Cell key → slot in the cell-graph structures. Assigned the first
    /// time a cell holds a core point and never freed (an emptied slot is a
    /// harmless singleton); keys are stable across compactions.
    cell_slot: HashMap<[i64; D], usize>,
    /// Components over the core cells (by slot). The union-find's member
    /// lists are exactly the per-component cell membership that scopes
    /// split re-derivation.
    uf: DynamicUnionFind,
    /// Current cell-graph adjacency per slot (symmetric).
    graph: Vec<BTreeSet<usize>>,
    /// Per-edge connectivity witness, keyed by the normalized slot pair: a
    /// concrete within-ε pair of core points, one per cell. While both
    /// witness points stay alive and core the edge provably persists, so a
    /// deletion elsewhere in either cell costs no BCP re-query.
    witness: HashMap<(usize, usize), (usize, usize)>,
    /// For each live non-core point, the keys of the cells with a core
    /// point within ε (empty ⇒ noise; unused for core/dead points).
    adjacency: Vec<Vec<[i64; D]>>,
    /// Persistent scratch for [`spatial::OverlayPartition::live_points_of_cell_into`]
    /// on the sequential update path: once warmed to the largest cell seen,
    /// the per-cell core-count walks of `apply` stop allocating.
    cell_scratch: Vec<(usize, Point<D>)>,
}

impl<const D: usize> StreamingClusterer<D> {
    /// Clusters `points` with the exact grid variant and returns the
    /// maintained state. The initial points get ids `0..points.len()` in
    /// input order.
    pub fn new(points: Vec<Point<D>>, params: DbscanParams) -> Result<Self, StreamError> {
        params.validate()?;
        let (index, _) = partition_phase(&points, params.eps, CellMethod::Grid)?;
        Self::from_index(&index, params.min_pts)
    }

    /// Starts maintaining an engine [`Snapshot`]'s point set under
    /// `params`. Reuses the snapshot's cached grid spatial index for
    /// `params.eps` when one exists (skipping the re-partition entirely);
    /// otherwise indexes from scratch. The snapshot is only borrowed, so it
    /// is still there to serve queries when this fails.
    pub fn from_snapshot(
        snapshot: &Snapshot<D>,
        params: DbscanParams,
    ) -> Result<Self, StreamError> {
        params.validate()?;
        if let Some(index) = snapshot.cached_index(params.eps, CellMethod::Grid) {
            return Self::from_index(&index, params.min_pts);
        }
        let (index, _) = partition_phase(snapshot.points(), params.eps, CellMethod::Grid)?;
        Self::from_index(&index, params.min_pts)
    }

    /// Builds the maintained state from prebuilt phase-1 state (a *grid*
    /// [`SpatialIndex`]), e.g. one fetched from an engine snapshot's cache.
    /// Runs MarkCore once, derives the explicit cell graph, and computes
    /// the border adjacency.
    pub fn from_index(index: &SpatialIndex<D>, min_pts: usize) -> Result<Self, StreamError> {
        let params = DbscanParams::new(index.eps, min_pts);
        params.validate()?;
        let (core_set, _) = mark_core_phase(index, min_pts, MarkCoreMethod::Scan);
        let overlay = OverlayPartition::from_partition(
            index.partition.clone(),
            std::sync::Arc::clone(&index.neighbors),
        )
        .map_err(StreamError::Unsupported)?;

        let mut clusterer = StreamingClusterer {
            params,
            overlay,
            core: core_set.core_flags.clone(),
            cell_slot: HashMap::new(),
            uf: DynamicUnionFind::new(0),
            graph: Vec::new(),
            witness: HashMap::new(),
            adjacency: vec![Vec::new(); core_set.core_flags.len()],
            cell_scratch: Vec::new(),
        };

        // Slots for the core cells, in cell order.
        let num_cells = index.num_cells();
        for c in 0..num_cells {
            if core_set.is_core_cell(c) {
                clusterer.ensure_slot(clusterer.overlay.cell_key(c));
            }
        }
        // The explicit cell graph: one BCP query per neighbouring pair of
        // core cells, evaluated in parallel. (Unlike the batch ClusterCore,
        // no union-find pruning applies — the maintenance invariant needs
        // the edges themselves, not just the components.)
        let mut pairs = Vec::new();
        for g in 0..num_cells {
            if !core_set.is_core_cell(g) {
                continue;
            }
            for &h in index.neighbors[g].iter() {
                if h < g && core_set.is_core_cell(h) {
                    pairs.push((h, g));
                }
            }
        }
        let partition = &index.partition;
        let core_flags = &core_set.core_flags;
        let span = obs::Span::enter("core", obs::phase::CONNECT_REGION)
            .eps(params.eps)
            .n(pairs.len());
        let edges = connect_region(
            params.eps,
            &pairs,
            |c| {
                partition
                    .cell_point_ids(c)
                    .iter()
                    .zip(partition.cell_points(c))
                    .filter(|(&pid, _)| core_flags[pid])
                    .map(|(&pid, p)| (pid, *p))
                    .collect()
            },
            |c| partition.cells[c].bbox,
        );
        span.finish();
        for edge in edges {
            let (g, h) = edge.cells;
            let s = clusterer.cell_slot[&clusterer.overlay.cell_key(g)];
            let t = clusterer.cell_slot[&clusterer.overlay.cell_key(h)];
            clusterer.graph[s].insert(t);
            clusterer.graph[t].insert(s);
            clusterer.witness.insert((s.min(t), s.max(t)), edge.witness);
            clusterer.uf.union(s, t);
        }

        // Border adjacency: non-core points only exist in cells with fewer
        // than minPts points.
        let border_cells: Vec<usize> = (0..num_cells)
            .filter(|&c| index.partition.cells[c].len < min_pts)
            .collect();
        clusterer.recompute_adjacency(&border_cells);
        Ok(clusterer)
    }

    /// The (ε, minPts) the clusterer maintains.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// Number of live points.
    pub fn num_live(&self) -> usize {
        self.overlay.num_live()
    }

    /// Whether `id` refers to a live point.
    pub fn is_alive(&self, id: usize) -> bool {
        self.overlay.is_alive(id)
    }

    /// Whether live point `id` is currently a core point.
    pub fn is_core(&self, id: usize) -> bool {
        self.overlay.is_alive(id) && self.core[id]
    }

    /// Coordinates of live point `id`.
    pub fn point(&self, id: usize) -> Point<D> {
        self.overlay.point(id)
    }

    /// The live points as `(id, point)` pairs, ascending by id.
    pub fn live_points(&self) -> Vec<(usize, Point<D>)> {
        self.overlay
            .live_ids()
            .into_iter()
            .map(|id| (id, self.overlay.point(id)))
            .collect()
    }

    /// Inserts a single point; returns its id and the batch stats.
    pub fn insert(&mut self, p: Point<D>) -> Result<(usize, UpdateStats), StreamError> {
        let stats = self.apply(UpdateBatch::inserts(vec![p]))?;
        Ok((stats.inserted_ids[0], stats))
    }

    /// Deletes a single live point.
    pub fn delete(&mut self, id: usize) -> Result<UpdateStats, StreamError> {
        self.apply(UpdateBatch::deletes(vec![id]))
    }

    /// Checks a batch's inserts as [`StreamingClusterer::apply`] does before
    /// it applies anything: every coordinate finite
    /// ([`StreamError::NonFinitePoint`]) and every point close enough to the
    /// grid origin for an exact cell key ([`StreamError::Dbscan`] with
    /// [`DbscanError::InvalidParams`]: ε is too small for the point).
    pub fn validate_inserts(&self, inserts: &[Point<D>]) -> Result<(), StreamError> {
        for (i, p) in inserts.iter().enumerate() {
            if !p.coords.iter().all(|c| c.is_finite()) {
                return Err(StreamError::NonFinitePoint(i));
            }
            self.overlay.check_key_range(p).map_err(|overflow| {
                DbscanError::InvalidParams(format!("insert #{i}: {overflow}"))
            })?;
        }
        Ok(())
    }

    /// Applies a batch of updates, maintaining labels incrementally.
    ///
    /// The batch is validated first and rejected atomically (nothing is
    /// applied on error). The work done is reported in [`UpdateStats`] and
    /// is proportional to the update's ε-neighbourhood — the touched cells,
    /// their neighbours, the edges incident to cells whose core sets
    /// changed, and the cells of any component a removed edge dissolved —
    /// never to the whole dataset (except through the overlay's amortized
    /// compaction).
    pub fn apply(&mut self, batch: UpdateBatch<D>) -> Result<UpdateStats, StreamError> {
        let span = obs::Span::enter("stream", obs::phase::APPLY)
            .eps(self.params.eps)
            .min_pts(self.params.min_pts)
            .n(batch.len());
        // Validate up front: the batch either fully applies or not at all.
        self.validate_inserts(&batch.inserts)?;
        let mut seen = HashSet::with_capacity(batch.deletes.len());
        for &id in &batch.deletes {
            if !self.overlay.is_alive(id) {
                return Err(StreamError::UnknownPoint(id));
            }
            if !seen.insert(id) {
                return Err(StreamError::DuplicateDelete(id));
            }
        }

        let mut stats = UpdateStats {
            inserted: batch.inserts.len(),
            deleted: batch.deletes.len(),
            ..UpdateStats::default()
        };

        // ── 1. Apply the updates to the overlay grid. ───────────────────
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        let mut lost_core_cells: BTreeSet<usize> = BTreeSet::new();
        for &id in &batch.deletes {
            let cell = self.overlay.delete(id).expect("validated live");
            touched.insert(cell);
            if self.core[id] {
                self.core[id] = false;
                lost_core_cells.insert(cell);
            }
            self.adjacency[id].clear();
        }
        for &p in &batch.inserts {
            let (id, cell, _) = self.overlay.insert(p);
            debug_assert_eq!(id, self.core.len());
            self.core.push(false);
            self.adjacency.push(Vec::new());
            stats.inserted_ids.push(id);
            touched.insert(cell);
        }

        // ── 2. Localized MarkCore over the touched region. ──────────────
        // A point's core count can only change if its ε-neighbourhood
        // intersects a touched cell — and a cell with ≥ minPts live points
        // is all-core regardless of its neighbours, so untouched neighbour
        // cells of that size cannot change and are skipped.
        //
        // `neighbor_cells` reads a cell's list from the overlay's neighbour
        // graph at the cost of the cell's degree, so every step below asks
        // the overlay directly. Cell liveness is fixed from here until the
        // compaction in step 6, so each ask returns the same list.
        let min_pts = self.params.min_pts;
        let step = obs::Span::enter("core", obs::phase::MARK_CORE_REGION)
            .eps(self.params.eps)
            .min_pts(min_pts);
        let mut dirty: BTreeSet<usize> = touched.clone();
        for &c in &touched {
            dirty.extend(
                self.overlay
                    .neighbor_cells(c)
                    .into_iter()
                    .filter(|&h| self.overlay.cell_live(h) < min_pts),
            );
        }
        let dirty_vec: Vec<usize> = dirty.iter().copied().collect();
        stats.cells_touched = dirty_vec.len();
        let step = step.n(dirty_vec.len());
        let overlay = &self.overlay;
        let region = mark_core_region(
            self.params.eps,
            min_pts,
            &dirty_vec,
            |c| overlay.live_points_of_cell(c),
            |c| overlay.neighbor_cells(c),
        );
        stats.phases.push(PhaseExecution::finished(step));

        // Diff the flags: which cells gained core points, which lost them?
        // (`lost` already holds the deleted-core cells.)
        let mut gained: BTreeSet<usize> = BTreeSet::new();
        let mut lost: BTreeSet<usize> = lost_core_cells;
        for (c, flags) in &region {
            stats.points_rescanned += flags.len();
            for &(pid, flag) in flags {
                if self.core[pid] != flag {
                    stats.points_reflagged += 1;
                    self.core[pid] = flag;
                    if flag {
                        gained.insert(*c);
                        // Core points carry no border adjacency.
                        self.adjacency[pid].clear();
                    } else {
                        lost.insert(*c);
                    }
                }
            }
        }
        let changed: BTreeSet<usize> = gained.union(&lost).copied().collect();

        // ── 3. Cell-graph maintenance: re-evaluate exactly the edges whose
        // status can have changed, in parallel. An edge between two
        // unchanged core sets cannot change; and a pair that only *gained*
        // core points cannot lose an existing edge, so stored edges between
        // gained-only pairs are skipped outright — only pairs involving a
        // cell that lost a core point, and pairs with no stored edge yet,
        // pay a BCP query. ──────────────────────────────────────────────
        let mut core_count_cache: HashMap<usize, usize> = HashMap::new();
        // The persistent cell-walk scratch, taken out for the duration of
        // the call (restored before returning) so the per-cell core counts
        // below reuse one warmed buffer instead of allocating per cell.
        let mut scratch = std::mem::take(&mut self.cell_scratch);
        let changed_vec: Vec<usize> = changed.iter().copied().collect();
        let mut cand_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut nbrs_of: HashMap<usize, Vec<usize>> = HashMap::new();
        for &c in &changed_vec {
            if self.core_count_cached(c, &mut core_count_cache, &mut scratch) == 0 {
                continue;
            }
            let s = self.ensure_slot(self.overlay.cell_key(c));
            let nbrs: Vec<usize> = self
                .overlay
                .neighbor_cells(c)
                .into_iter()
                .filter(|&h| self.core_count_cached(h, &mut core_count_cache, &mut scratch) > 0)
                .collect();
            let c_lost = lost.contains(&c);
            for &h in &nbrs {
                let t = self.ensure_slot(self.overlay.cell_key(h));
                let needs_query = if self.graph[s].contains(&t) {
                    // A stored edge can only vanish if one side *lost* a
                    // core point — and even then, a still-valid witness
                    // pair certifies it without a query.
                    (c_lost || lost.contains(&h)) && !self.witness_holds(s, t)
                } else {
                    true
                };
                if needs_query {
                    cand_pairs.insert((c.min(h), c.max(h)));
                }
            }
            nbrs_of.insert(c, nbrs);
        }
        let candidates: Vec<(usize, usize)> = cand_pairs.iter().copied().collect();
        stats.connectivity_queries = candidates.len();
        let overlay = &self.overlay;
        let core = &self.core;
        let step = obs::Span::enter("core", obs::phase::CONNECT_REGION)
            .eps(self.params.eps)
            .n(candidates.len());
        let present: HashMap<(usize, usize), (usize, usize)> = connect_region(
            self.params.eps,
            &candidates,
            |c| {
                overlay
                    .live_points_of_cell(c)
                    .into_iter()
                    .filter(|&(pid, _)| core[pid])
                    .collect()
            },
            |c| overlay.cell_bbox(c),
        )
        .into_iter()
        .map(|edge| (edge.cells, edge.witness))
        .collect();
        stats.phases.push(PhaseExecution::finished(step));

        // Diff against the stored graph, symmetric updates on both sides.
        let mut removed_edges: Vec<(usize, usize)> = Vec::new();
        let mut added_edges: Vec<(usize, usize)> = Vec::new();
        for &c in &changed_vec {
            let key_c = self.overlay.cell_key(c);
            if self.core_count_cached(c, &mut core_count_cache, &mut scratch) == 0 {
                // The cell lost all its core points: every stored edge of
                // its slot disappears.
                if let Some(&s) = self.cell_slot.get(&key_c) {
                    for t in std::mem::take(&mut self.graph[s]) {
                        self.graph[t].remove(&s);
                        self.witness.remove(&(s.min(t), s.max(t)));
                        removed_edges.push((s, t));
                    }
                }
                continue;
            }
            let s = self.ensure_slot(key_c);
            for &h in &nbrs_of[&c] {
                let pair = (c.min(h), c.max(h));
                if !cand_pairs.contains(&pair) {
                    continue; // the stored edge provably persists
                }
                let t = self.ensure_slot(self.overlay.cell_key(h));
                let was_edge = self.graph[s].contains(&t);
                match present.get(&pair) {
                    Some(&edge_witness) => {
                        self.witness.insert((s.min(t), s.max(t)), edge_witness);
                        if !was_edge {
                            self.graph[s].insert(t);
                            self.graph[t].insert(s);
                            added_edges.push((s, t));
                        }
                    }
                    None if was_edge => {
                        self.graph[s].remove(&t);
                        self.graph[t].remove(&s);
                        self.witness.remove(&(s.min(t), s.max(t)));
                        removed_edges.push((s, t));
                    }
                    None => {}
                }
            }
        }

        // ── 4. Components. Removed edges may split: dissolve each affected
        // component (its members are exactly the component's cells, tracked
        // by the union-find) and re-link its cells along the surviving
        // graph edges — pure graph work, no further BCP queries. Added
        // edges merge. ──────────────────────────────────────────────────
        if !removed_edges.is_empty() {
            let mut roots: BTreeSet<usize> = BTreeSet::new();
            for &(s, t) in &removed_edges {
                roots.insert(self.uf.find(s));
                roots.insert(self.uf.find(t));
            }
            stats.components_reclustered = roots.len();
            let mut to_relink: Vec<usize> = Vec::new();
            for &root in &roots {
                to_relink.extend(self.uf.reset_component(root));
            }
            for &s in &to_relink {
                let nbrs: Vec<usize> = self.graph[s].iter().copied().collect();
                for t in nbrs {
                    self.uf.union(s, t);
                }
            }
        }
        for &(s, t) in &added_edges {
            self.uf.union(s, t);
        }

        // ── 5. Border adjacency: recompute for the live non-core points of
        // every cell whose core set changed, of those cells' ε-neighbours,
        // and of the touched cells (fresh inserts need their memberships
        // even when no core set changed). Only cells below minPts can host
        // non-core points. ──────────────────────────────────────────────
        let mut adj_cells: BTreeSet<usize> = touched;
        adj_cells.extend(changed.iter().copied());
        for &c in &changed {
            adj_cells.extend(self.overlay.neighbor_cells(c));
        }
        let adj_vec: Vec<usize> = adj_cells
            .into_iter()
            .filter(|&c| self.overlay.cell_live(c) < min_pts)
            .collect();
        stats.adjacency_updates = self.recompute_adjacency(&adj_vec);

        // ── 6. Amortized compaction: when the insert/tombstone overlay has
        // outgrown the base, re-semisort the live set. Cell ids change;
        // everything the clusterer keeps is keyed by point id or cell key,
        // so nothing else needs fixing. ─────────────────────────────────
        if self.overlay.needs_compaction() {
            self.overlay.compact();
            stats.compacted = true;
            STREAM_COMPACTIONS.incr();
        }

        self.cell_scratch = scratch;
        stats.elapsed = span.finish();
        STREAM_APPLIES.incr();
        STREAM_CELLS_TOUCHED.add(stats.cells_touched as u64);
        STREAM_RESCANNED.add(stats.points_rescanned as u64);
        STREAM_REFLAGGED.add(stats.points_reflagged as u64);
        STREAM_CONNECTIVITY.add(stats.connectivity_queries as u64);
        APPLY_SECONDS.observe(stats.elapsed);
        Ok(stats)
    }

    /// The current clustering of the live points, in ascending-id order
    /// (the same order [`StreamingClusterer::live_points`] reports). For
    /// the exact grid variant this equals — up to cluster renaming, which
    /// the canonical [`Clustering`] numbering removes — a from-scratch run
    /// on the same points.
    pub fn clustering(&self) -> Clustering {
        let live = self.overlay.live_ids();
        let mut core_flags = Vec::with_capacity(live.len());
        // Per-point membership sets resolved straight into the flat
        // `ClusterSets` shape (one ids array + offsets, no per-point `Vec`).
        let mut offsets = Vec::with_capacity(live.len() + 1);
        offsets.push(0usize);
        let mut ids: Vec<usize> = Vec::with_capacity(live.len());
        for &id in &live {
            if self.core[id] {
                core_flags.push(true);
                let key = self.overlay.key_of(&self.overlay.point(id));
                let slot = self.cell_slot[&key];
                ids.push(self.uf.find(slot));
            } else {
                core_flags.push(false);
                let start = ids.len();
                ids.extend(
                    self.adjacency[id]
                        .iter()
                        .filter_map(|key| self.cell_slot.get(key))
                        .map(|&slot| self.uf.find(slot)),
                );
                pardbscan::ClusterSets::sort_dedup_tail(&mut ids, start);
            }
            offsets.push(ids.len());
        }
        Clustering::from_sets(core_flags, pardbscan::ClusterSets::from_parts(offsets, ids))
    }

    /// Forces an overlay compaction (re-semisort of the live set with the
    /// original grid anchor), regardless of the drift heuristic that governs
    /// the automatic compaction inside [`StreamingClusterer::apply`]. The
    /// clustering is unchanged: everything the clusterer maintains is keyed
    /// by stable point id or by cell *key*, and compaction renumbers only
    /// cell ids. Exposed so operators (and tests) can schedule the
    /// re-semisort at a quiet moment instead of inside an update batch.
    pub fn compact_now(&mut self) {
        self.overlay.compact();
    }

    /// Copies the live point set (ascending-id order, as
    /// [`StreamingClusterer::live_points`] reports it) into a fresh engine
    /// [`Snapshot`] whose first index generation is `first_generation`
    /// (see [`Snapshot::new`]), leaving the clusterer free to keep applying
    /// updates. The `dbscan` facade freezes a streaming episode back into
    /// query mode, and publishes each generation of a concurrent session,
    /// through this copy.
    pub fn snapshot_live(&self, first_generation: u64) -> Snapshot<D> {
        let points: Vec<Point<D>> = self
            .overlay
            .live_ids()
            .into_iter()
            .map(|id| self.overlay.point(id))
            .collect();
        Snapshot::new(points, first_generation)
    }

    /// The slot of the cell with `key`, allocating one (with an empty
    /// adjacency) on first use.
    fn ensure_slot(&mut self, key: [i64; D]) -> usize {
        match self.cell_slot.get(&key) {
            Some(&s) => s,
            None => {
                let s = self.uf.push();
                debug_assert_eq!(s, self.graph.len());
                self.graph.push(BTreeSet::new());
                self.cell_slot.insert(key, s);
                s
            }
        }
    }

    /// Whether the cached witness pair of edge `(s, t)` still certifies it:
    /// both points alive and core. (Witness cell membership is static, so
    /// nothing else can invalidate it.)
    fn witness_holds(&self, s: usize, t: usize) -> bool {
        self.witness
            .get(&(s.min(t), s.max(t)))
            .is_some_and(|&(a, b)| {
                self.overlay.is_alive(a) && self.core[a] && self.overlay.is_alive(b) && self.core[b]
            })
    }

    /// Number of live core points of cell `c`, memoized per apply call. The
    /// cell walk goes through `scratch` (the clusterer's persistent buffer,
    /// taken out for the duration of `apply`), so repeated counts allocate
    /// nothing once the buffer has warmed to the largest cell.
    fn core_count_cached(
        &self,
        c: usize,
        cache: &mut HashMap<usize, usize>,
        scratch: &mut Vec<(usize, Point<D>)>,
    ) -> usize {
        if let Some(&count) = cache.get(&c) {
            return count;
        }
        self.overlay.live_points_of_cell_into(c, scratch);
        let count = scratch.iter().filter(|&&(pid, _)| self.core[pid]).count();
        cache.insert(c, count);
        count
    }

    /// Recomputes the border adjacency (core cells within ε, as keys) of
    /// every live non-core point of `cells`. Returns the number of points
    /// updated.
    fn recompute_adjacency(&mut self, cells: &[usize]) -> usize {
        let overlay = &self.overlay;
        let core = &self.core;
        let eps_sq = self.params.eps * self.params.eps;
        let per_cell: Vec<Vec<(usize, Vec<[i64; D]>)>> = cells
            .par_iter()
            .map(|&c| {
                let own = overlay.live_points_of_cell(c);
                let border: Vec<(usize, Point<D>)> = own
                    .iter()
                    .filter(|&&(pid, _)| !core[pid])
                    .copied()
                    .collect();
                if border.is_empty() {
                    return Vec::new();
                }
                // The core points a border point can reach live in its own
                // cell or an ε-neighbour cell.
                let targets: Vec<([i64; D], Vec<Point<D>>)> = std::iter::once(c)
                    .chain(overlay.neighbor_cells(c))
                    .filter_map(|h| {
                        let cores: Vec<Point<D>> = overlay
                            .live_points_of_cell(h)
                            .into_iter()
                            .filter(|&(pid, _)| core[pid])
                            .map(|(_, p)| p)
                            .collect();
                        (!cores.is_empty()).then(|| (overlay.cell_key(h), cores))
                    })
                    .collect();
                border
                    .into_iter()
                    .map(|(pid, p)| {
                        let mut keys: Vec<[i64; D]> = targets
                            .iter()
                            .filter(|(_, cores)| cores.iter().any(|q| p.dist_sq(q) <= eps_sq))
                            .map(|&(key, _)| key)
                            .collect();
                        keys.sort_unstable();
                        (pid, keys)
                    })
                    .collect()
            })
            .collect();
        let mut updated = 0usize;
        for cell_updates in per_cell {
            for (pid, keys) in cell_updates {
                self.adjacency[pid] = keys;
                updated += 1;
            }
        }
        updated
    }
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

    fn assert_matches_batch(clusterer: &StreamingClusterer<2>, context: &str) {
        let live: Vec<Point2> = clusterer
            .live_points()
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let want =
            pardbscan::dbscan(&live, clusterer.params().eps, clusterer.params().min_pts).unwrap();
        assert_eq!(clusterer.clustering(), want, "{context}");
    }

    #[test]
    fn initial_state_matches_batch_run() {
        let pts = random_points(400, 16.0, 1);
        let clusterer = StreamingClusterer::new(pts, DbscanParams::new(1.0, 5)).unwrap();
        assert_matches_batch(&clusterer, "initial");
    }

    #[test]
    fn single_insert_and_delete_round_trip() {
        let pts = random_points(200, 10.0, 2);
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(1.0, 4)).unwrap();
        let (id, stats) = clusterer.insert(Point2::new([5.0, 5.0])).unwrap();
        assert_eq!(stats.inserted, 1);
        assert!(stats.cells_touched >= 1);
        assert_matches_batch(&clusterer, "after insert");
        clusterer.delete(id).unwrap();
        assert_matches_batch(&clusterer, "after delete");
        assert_eq!(clusterer.num_live(), 200);
    }

    #[test]
    fn deleting_a_bridge_splits_the_cluster() {
        // Two dense blobs joined by a single bridge point: deleting the
        // bridge must split one cluster into two.
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(Point2::new([0.1 * (i % 5) as f64, 0.1 * (i / 5) as f64]));
            pts.push(Point2::new([
                2.0 + 0.1 * (i % 5) as f64,
                0.1 * (i / 5) as f64,
            ]));
        }
        let bridge = Point2::new([1.2, 0.2]);
        pts.push(bridge);
        let n = pts.len();
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(1.0, 3)).unwrap();
        assert_eq!(clusterer.clustering().num_clusters(), 1);
        let stats = clusterer.delete(n - 1).unwrap();
        assert!(stats.components_reclustered >= 1, "a split was processed");
        assert_eq!(clusterer.clustering().num_clusters(), 2);
        assert_matches_batch(&clusterer, "after bridge deletion");
        // Re-inserting the bridge merges them again.
        clusterer.insert(bridge).unwrap();
        assert_eq!(clusterer.clustering().num_clusters(), 1);
        assert_matches_batch(&clusterer, "after bridge re-insertion");
    }

    #[test]
    fn deleting_inside_a_dense_cluster_avoids_re_clustering() {
        // A deletion that cannot break any cell-graph edge must not
        // dissolve any component: the whole point of the explicit edge
        // diff. 400 points packed in one ε-cell: every cell edge survives
        // any single deletion.
        let pts: Vec<Point2> = (0..400)
            .map(|i| Point2::new([0.001 * (i % 20) as f64, 0.001 * (i / 20) as f64]))
            .collect();
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(1.0, 10)).unwrap();
        let stats = clusterer.delete(7).unwrap();
        assert_eq!(
            stats.components_reclustered, 0,
            "no edge vanished, so no component may be re-derived"
        );
        assert_matches_batch(&clusterer, "after in-cluster deletion");
    }

    #[test]
    fn small_batch_cell_walks_reuse_one_warmed_scratch() {
        // The per-cell core-count walks of `apply` go through the
        // clusterer's persistent scratch; after a warm-up batch, repeated
        // small batches over the same region must not regrow it.
        let pts = random_points(300, 8.0, 31);
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(1.0, 4)).unwrap();
        let probe = Point2::new([4.0, 4.0]);
        let (id, _) = clusterer.insert(probe).unwrap();
        clusterer.delete(id).unwrap();
        let warmed = clusterer.cell_scratch.capacity();
        assert!(warmed > 0, "the update path walked at least one cell");
        for _ in 0..5 {
            let (id, _) = clusterer.insert(probe).unwrap();
            clusterer.delete(id).unwrap();
            assert_matches_batch(&clusterer, "during scratch churn");
        }
        assert_eq!(
            clusterer.cell_scratch.capacity(),
            warmed,
            "repeated small batches must reuse the warmed scratch"
        );
    }

    #[test]
    fn batch_validation_is_atomic() {
        let pts = random_points(50, 5.0, 3);
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(1.0, 4)).unwrap();
        let before = clusterer.clustering();
        let err = clusterer
            .apply(UpdateBatch {
                inserts: vec![Point2::new([1.0, 1.0])],
                deletes: vec![0, 999],
            })
            .unwrap_err();
        assert_eq!(err, StreamError::UnknownPoint(999));
        assert_eq!(clusterer.num_live(), 50, "nothing applied");
        assert_eq!(clusterer.clustering(), before);
        assert_eq!(
            clusterer
                .apply(UpdateBatch::deletes(vec![1, 1]))
                .unwrap_err(),
            StreamError::DuplicateDelete(1)
        );
        assert_eq!(
            clusterer
                .apply(UpdateBatch::inserts(vec![Point2::new([f64::NAN, 0.0])]))
                .unwrap_err(),
            StreamError::NonFinitePoint(0)
        );
    }

    #[test]
    fn forced_compaction_leaves_labels_unchanged() {
        // Churn enough to leave real tombstones and insert lists behind,
        // then force the compaction directly and require the labels to be
        // byte-identical across it — the compaction path must be a pure
        // storage reorganization.
        let pts = random_points(250, 9.0, 21);
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(0.9, 4)).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let mut live_ids: Vec<usize> = clusterer
            .live_points()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        live_ids.shuffle(&mut rng);
        let deletes: Vec<usize> = live_ids[..40].to_vec();
        let inserts = (0..40)
            .map(|_| Point2::new([rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0)]))
            .collect();
        clusterer.apply(UpdateBatch { inserts, deletes }).unwrap();

        let before = clusterer.clustering();
        clusterer.compact_now();
        assert_eq!(
            clusterer.clustering(),
            before,
            "labels must be identical across a forced compaction"
        );
        assert_matches_batch(&clusterer, "after forced compaction");
        // The clusterer keeps working after the cell-id renumbering.
        let (id, _) = clusterer.insert(Point2::new([4.5, 4.5])).unwrap();
        assert_matches_batch(&clusterer, "after post-compaction insert");
        clusterer.delete(id).unwrap();
        assert_matches_batch(&clusterer, "after post-compaction delete");
    }

    #[test]
    fn compaction_keeps_labels_correct() {
        let pts = random_points(300, 10.0, 6);
        let mut clusterer = StreamingClusterer::new(pts, DbscanParams::new(0.8, 4)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut compacted = false;
        for round in 0..12 {
            let mut live_ids: Vec<usize> = clusterer
                .live_points()
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            live_ids.shuffle(&mut rng);
            let deletes: Vec<usize> = live_ids[..20].to_vec();
            let inserts = (0..20)
                .map(|_| Point2::new([rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)]))
                .collect();
            let stats = clusterer.apply(UpdateBatch { inserts, deletes }).unwrap();
            compacted |= stats.compacted;
            assert_matches_batch(&clusterer, &format!("round {round}"));
        }
        assert!(compacted, "churn of this size must trigger a compaction");
    }
}
