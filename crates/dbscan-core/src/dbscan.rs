//! The public entry point: a builder that selects one of the paper's
//! algorithm variants and runs the four-phase pipeline of Algorithm 1.
//! The phase helpers time each phase once, under the `core` span of its
//! name, and return the duration in the phase's record.

use crate::cluster_border::cluster_border;
use crate::cluster_core::{cluster_core, ClusterCoreOptions};
use crate::mark_core::mark_core;
use crate::params::{
    CellGraphMethod, CellMethod, DbscanError, DbscanParams, MarkCoreMethod, VariantConfig,
};
use crate::pipeline::{CoreSet, SpatialIndex};
use crate::result::Clustering;
use geom::Point;
use obs::PhaseExecution;

/// Phase 1 (Algorithm 1 line 2): [`SpatialIndex::build`], timed.
pub fn partition_phase<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    cell_method: CellMethod,
) -> Result<(SpatialIndex<D>, PhaseExecution), DbscanError> {
    let span = obs::Span::enter("core", obs::phase::PARTITION)
        .eps(eps)
        .n(points.len());
    let index = SpatialIndex::build(points, eps, cell_method)?;
    Ok((index, PhaseExecution::finished(span)))
}

/// Phase 2 (line 3): [`mark_core`], timed.
pub fn mark_core_phase<const D: usize>(
    index: &SpatialIndex<D>,
    min_pts: usize,
    method: MarkCoreMethod,
) -> (CoreSet<D>, PhaseExecution) {
    let span = obs::Span::enter("core", obs::phase::MARK_CORE)
        .eps(index.eps)
        .min_pts(min_pts)
        .n(index.num_points());
    let core = mark_core(index, min_pts, method);
    (core, PhaseExecution::finished(span))
}

/// Phases 3 and 4 (lines 4–5) and the canonical renumbering, each timed
/// (`cluster_core`, `cluster_border`, `canonicalize`); appends the three
/// phase records to `phases`.
pub fn cluster_phases<const D: usize>(
    index: &SpatialIndex<D>,
    core: &CoreSet<D>,
    options: &ClusterCoreOptions,
    phases: &mut Vec<PhaseExecution>,
) -> Clustering {
    let span = |phase, n| {
        obs::Span::enter("core", phase)
            .eps(index.eps)
            .min_pts(core.min_pts)
            .n(n)
    };
    let n = index.num_points();
    let timed = span(obs::phase::CLUSTER_CORE, core.num_core_points());
    let core_clusters = cluster_core(index, core, options);
    phases.push(PhaseExecution::finished(timed));
    let timed = span(obs::phase::CLUSTER_BORDER, n);
    let cluster_sets = cluster_border(index, core, &core_clusters);
    phases.push(PhaseExecution::finished(timed));
    let timed = span(obs::phase::CANONICALIZE, n);
    let clustering = Clustering::from_sets(core.core_flags.clone(), cluster_sets);
    phases.push(PhaseExecution::finished(timed));
    clustering
}

/// A configured DBSCAN run over a borrowed point set.
///
/// ```
/// use geom::Point2;
/// use pardbscan::{Dbscan, DbscanParams};
///
/// let points: Vec<Point2> = (0..100)
///     .map(|i| Point2::new([(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1]))
///     .collect();
/// let clustering = Dbscan::new(&points, DbscanParams::new(0.2, 4)).run().unwrap();
/// assert_eq!(clustering.num_clusters(), 1);
/// ```
pub struct Dbscan<'a, const D: usize> {
    points: &'a [Point<D>],
    params: DbscanParams,
    cell_method: CellMethod,
    mark_core: MarkCoreMethod,
    cell_graph: CellGraphMethod,
    bucketing: bool,
    rho: Option<f64>,
}

impl<'a, const D: usize> Dbscan<'a, D> {
    /// Starts configuring a run over `points` with the given ε and minPts.
    /// The default configuration is the paper's `our-exact` variant (grid
    /// cells, scanning MarkCore, BCP cell graph, no bucketing).
    pub fn new(points: &'a [Point<D>], params: DbscanParams) -> Self {
        Dbscan {
            points,
            params,
            cell_method: CellMethod::Grid,
            mark_core: MarkCoreMethod::Scan,
            cell_graph: CellGraphMethod::Bcp,
            bucketing: false,
            rho: None,
        }
    }

    /// Convenience constructor for the default exact variant.
    pub fn exact(points: &'a [Point<D>], eps: f64, min_pts: usize) -> Self {
        Dbscan::new(points, DbscanParams::new(eps, min_pts))
    }

    /// Selects the cell construction method (grid or 2D boxes).
    pub fn cell_method(mut self, method: CellMethod) -> Self {
        self.cell_method = method;
        self
    }

    /// Selects the RangeCount implementation used to mark core points.
    pub fn mark_core(mut self, method: MarkCoreMethod) -> Self {
        self.mark_core = method;
        self
    }

    /// Selects the cell-graph connectivity method.
    pub fn cell_graph(mut self, method: CellGraphMethod) -> Self {
        self.cell_graph = method;
        self
    }

    /// Enables or disables the bucketing heuristic of §4.4.
    pub fn bucketing(mut self, bucketing: bool) -> Self {
        self.bucketing = bucketing;
        self
    }

    /// Switches to the Gan–Tao ρ-approximate algorithm: core-cell
    /// connectivity is decided with approximate range counting, so core
    /// points at distance in (ε, ε(1+ρ)] may or may not be connected. Core
    /// and border/noise status are unaffected.
    pub fn approximate(mut self, rho: f64) -> Self {
        self.rho = Some(rho);
        self
    }

    /// Applies a whole [`VariantConfig`] (used by the benchmark harness to
    /// sweep the paper's named variants).
    pub fn variant(mut self, config: VariantConfig) -> Self {
        self.cell_method = config.cell_method;
        self.mark_core = config.mark_core;
        self.cell_graph = config.cell_graph;
        self.bucketing = config.bucketing;
        self.rho = config.rho;
        self
    }

    /// The full [`VariantConfig`] this builder currently describes.
    pub fn variant_config(&self) -> VariantConfig {
        VariantConfig {
            cell_method: self.cell_method,
            mark_core: self.mark_core,
            cell_graph: self.cell_graph,
            bucketing: self.bucketing,
            rho: self.rho,
        }
    }

    /// Runs the configured variant.
    pub fn run(self) -> Result<Clustering, DbscanError> {
        self.params.validate()?;
        self.variant_config().validate_for_dimension(D)?;

        let (index, _) = partition_phase(self.points, self.params.eps, self.cell_method)?;
        let (core, _) = mark_core_phase(&index, self.params.min_pts, self.mark_core);
        let options = ClusterCoreOptions::from_variant(&self.variant_config());
        Ok(cluster_phases(&index, &core, &options, &mut Vec::new()))
    }
}

/// One-call exact DBSCAN with the default (`our-exact`) variant.
pub fn dbscan<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    min_pts: usize,
) -> Result<Clustering, DbscanError> {
    Dbscan::exact(points, eps, min_pts).run()
}

/// One-call approximate DBSCAN (`our-approx` variant).
pub fn dbscan_approx<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    min_pts: usize,
    rho: f64,
) -> Result<Clustering, DbscanError> {
    Dbscan::exact(points, eps, min_pts).approximate(rho).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point2;

    #[test]
    fn rejects_invalid_parameters() {
        let pts = vec![Point2::new([0.0, 0.0])];
        assert!(matches!(
            Dbscan::exact(&pts, 0.0, 5).run(),
            Err(DbscanError::InvalidParams(_))
        ));
        assert!(matches!(
            Dbscan::exact(&pts, 1.0, 0).run(),
            Err(DbscanError::InvalidParams(_))
        ));
        assert!(matches!(
            Dbscan::exact(&pts, 1.0, 5).approximate(-1.0).run(),
            Err(DbscanError::InvalidParams(_))
        ));
    }

    #[test]
    fn rejects_two_d_methods_in_higher_dimensions() {
        let pts = vec![geom::Point::new([0.0, 0.0, 0.0])];
        assert!(matches!(
            Dbscan::exact(&pts, 1.0, 1)
                .cell_method(CellMethod::Box)
                .run(),
            Err(DbscanError::RequiresTwoDimensions(_))
        ));
        assert!(matches!(
            Dbscan::exact(&pts, 1.0, 1)
                .cell_graph(CellGraphMethod::Usec)
                .run(),
            Err(DbscanError::RequiresTwoDimensions(_))
        ));
        assert!(matches!(
            Dbscan::exact(&pts, 1.0, 1)
                .cell_graph(CellGraphMethod::Delaunay)
                .run(),
            Err(DbscanError::RequiresTwoDimensions(_))
        ));
    }

    #[test]
    fn empty_input_produces_empty_clustering() {
        let pts: Vec<Point2> = Vec::new();
        let c = Dbscan::exact(&pts, 1.0, 5).run().unwrap();
        assert!(c.is_empty());
        assert_eq!(c.num_clusters(), 0);
    }

    #[test]
    fn single_point_is_noise_unless_min_pts_is_one() {
        let pts = vec![Point2::new([1.0, 1.0])];
        let c = Dbscan::exact(&pts, 1.0, 2).run().unwrap();
        assert!(c.is_noise(0));
        let c = Dbscan::exact(&pts, 1.0, 1).run().unwrap();
        assert!(c.is_core(0));
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn variant_config_roundtrip() {
        let pts: Vec<Point2> = (0..50)
            .map(|i| Point2::new([(i % 7) as f64, (i / 7) as f64]))
            .collect();
        let from_variant = Dbscan::exact(&pts, 1.5, 3)
            .variant(VariantConfig::exact_qt().with_bucketing(true))
            .run()
            .unwrap();
        let by_hand = Dbscan::exact(&pts, 1.5, 3)
            .mark_core(MarkCoreMethod::QuadTree)
            .cell_graph(CellGraphMethod::QuadTreeBcp)
            .bucketing(true)
            .run()
            .unwrap();
        assert_eq!(from_variant, by_hand);
    }

    #[test]
    fn convenience_functions_work() {
        let pts: Vec<Point2> = (0..20)
            .map(|i| Point2::new([0.1 * i as f64, 0.0]))
            .collect();
        let exact = dbscan(&pts, 0.5, 3).unwrap();
        assert_eq!(exact.num_clusters(), 1);
        let approx = dbscan_approx(&pts, 0.5, 3, 0.01).unwrap();
        assert_eq!(approx.num_clusters(), 1);
    }
}
