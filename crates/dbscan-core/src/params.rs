//! Parameters and configuration of the DBSCAN variants.

use std::fmt;

/// The two DBSCAN parameters: the radius ε and the core-point threshold
/// minPts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// The neighbourhood radius ε (inclusive: d(p, q) ≤ ε).
    pub eps: f64,
    /// Minimum number of points (including the point itself) within ε for a
    /// point to be a core point.
    pub min_pts: usize,
}

impl DbscanParams {
    /// Creates a parameter set. See [`DbscanParams::validate`] for the
    /// constraints checked when an algorithm runs.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        DbscanParams { eps, min_pts }
    }

    /// Checks that ε is positive and finite and minPts is at least 1.
    pub fn validate(&self) -> Result<(), DbscanError> {
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(DbscanError::InvalidParams(format!(
                "eps must be positive and finite, got {}",
                self.eps
            )));
        }
        if self.min_pts == 0 {
            return Err(DbscanError::InvalidParams(
                "min_pts must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// `(ε, minPts)` tuples convert directly, so call sites that used to pass
/// two scalars migrate mechanically: `session.cluster((0.5, 3))`.
impl From<(f64, usize)> for DbscanParams {
    fn from((eps, min_pts): (f64, usize)) -> Self {
        DbscanParams::new(eps, min_pts)
    }
}

/// A parameter grid for batched sweeps: the ε values, the minPts values,
/// and the algorithm variant to run over their cross-product.
///
/// This is the builder the sweep entry points
/// (`dbscan::ClusterSession::sweep`, `dbscan_engine::Snapshot::sweep`) take
/// via `impl Into<SweepGrid>`; pairs of slices or vectors convert directly,
/// so tuple call sites stay one expression:
///
/// ```
/// use pardbscan::{SweepGrid, VariantConfig};
///
/// let grid = SweepGrid::new([0.5, 0.7], [3, 4]).variant(VariantConfig::exact_qt());
/// assert_eq!(grid.len(), 4);
/// let from_tuple: SweepGrid = (&[0.5, 0.7][..], &[3usize, 4][..]).into();
/// assert_eq!(from_tuple.eps, grid.eps);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// The ε values of the grid (one spatial index build per distinct ε).
    pub eps: Vec<f64>,
    /// The minPts values of the grid.
    pub min_pts: Vec<usize>,
    /// The algorithm variant each grid cell runs.
    pub variant: VariantConfig,
}

impl SweepGrid {
    /// A grid over the cross-product of `eps` and `min_pts`, running the
    /// paper's default exact variant.
    pub fn new(eps: impl Into<Vec<f64>>, min_pts: impl Into<Vec<usize>>) -> Self {
        SweepGrid {
            eps: eps.into(),
            min_pts: min_pts.into(),
            variant: VariantConfig::exact(),
        }
    }

    /// Selects the algorithm variant the grid runs.
    pub fn variant(mut self, variant: VariantConfig) -> Self {
        self.variant = variant;
        self
    }

    /// Number of grid cells (including duplicates, before the sweep
    /// deduplicates repeated entries).
    pub fn len(&self) -> usize {
        self.eps.len() * self.min_pts.len()
    }

    /// Returns `true` if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<(&[f64], &[usize])> for SweepGrid {
    fn from((eps, min_pts): (&[f64], &[usize])) -> Self {
        SweepGrid::new(eps, min_pts)
    }
}

impl From<(Vec<f64>, Vec<usize>)> for SweepGrid {
    fn from((eps, min_pts): (Vec<f64>, Vec<usize>)) -> Self {
        SweepGrid::new(eps, min_pts)
    }
}

impl<const E: usize, const M: usize> From<([f64; E], [usize; M])> for SweepGrid {
    fn from((eps, min_pts): ([f64; E], [usize; M])) -> Self {
        SweepGrid::new(eps, min_pts)
    }
}

impl<const E: usize, const M: usize> From<(&[f64; E], &[usize; M])> for SweepGrid {
    fn from((eps, min_pts): (&[f64; E], &[usize; M])) -> Self {
        SweepGrid::new(eps.to_vec(), min_pts.to_vec())
    }
}

/// How points are partitioned into cells (Algorithm 1, line 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMethod {
    /// The grid construction of §4.1: regular cells of side ε/√d located by
    /// quantizing coordinates, grouped with a semisort and indexed with a
    /// concurrent hash table. Works in any dimension.
    Grid,
    /// The box construction of §4.2: greedy strips of width ε/√2 along x,
    /// re-partitioned along y. 2D only.
    Box,
}

/// How RangeCount queries are answered when marking core points
/// (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkCoreMethod {
    /// Scan all points of each neighbouring cell (the theoretically-efficient
    /// O(n·minPts) method of §4.3).
    Scan,
    /// Build a per-cell quadtree and traverse it (§5.2), the `-qt` variants
    /// of the paper.
    QuadTree,
}

/// How connectivity between two core cells is decided when building the cell
/// graph (Algorithm 3 / §4.4, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellGraphMethod {
    /// Bichromatic closest pair with ε-filtering and blocked early
    /// termination (works in any dimension).
    Bcp,
    /// BCP implemented as early-terminating range queries against a quadtree
    /// built over each core cell's core points (§5.2 "Exact DBSCAN").
    QuadTreeBcp,
    /// Filter the edges of the Delaunay triangulation of all core points
    /// (2D only, §4.4).
    Delaunay,
    /// Unit-spherical emptiness checking with line separation using the
    /// wavefront structure (2D only, §4.4).
    Usec,
}

/// Full description of one algorithm variant, in the paper's naming scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantConfig {
    /// Cell construction method.
    pub cell_method: CellMethod,
    /// RangeCount method for MarkCore.
    pub mark_core: MarkCoreMethod,
    /// Cell-graph connectivity method.
    pub cell_graph: CellGraphMethod,
    /// Whether the bucketing heuristic of §4.4 is applied to the cell-graph
    /// construction.
    pub bucketing: bool,
    /// `Some(rho)` for the Gan–Tao approximate algorithm, `None` for exact.
    pub rho: Option<f64>,
}

impl VariantConfig {
    /// The paper's `our-exact` configuration.
    pub fn exact() -> Self {
        VariantConfig {
            cell_method: CellMethod::Grid,
            mark_core: MarkCoreMethod::Scan,
            cell_graph: CellGraphMethod::Bcp,
            bucketing: false,
            rho: None,
        }
    }

    /// The paper's `our-exact-qt` configuration.
    pub fn exact_qt() -> Self {
        VariantConfig {
            mark_core: MarkCoreMethod::QuadTree,
            cell_graph: CellGraphMethod::QuadTreeBcp,
            ..Self::exact()
        }
    }

    /// The paper's `our-approx` configuration.
    pub fn approx(rho: f64) -> Self {
        VariantConfig {
            rho: Some(rho),
            ..Self::exact()
        }
    }

    /// The paper's `our-approx-qt` configuration.
    pub fn approx_qt(rho: f64) -> Self {
        VariantConfig {
            mark_core: MarkCoreMethod::QuadTree,
            rho: Some(rho),
            ..Self::exact()
        }
    }

    /// One of the paper's six 2D exact configurations
    /// (`our-2d-{grid,box}-{bcp,usec,delaunay}`).
    pub fn two_d(cell_method: CellMethod, cell_graph: CellGraphMethod) -> Self {
        VariantConfig {
            cell_method,
            cell_graph,
            ..Self::exact()
        }
    }

    /// Enables or disables the bucketing heuristic.
    pub fn with_bucketing(mut self, bucketing: bool) -> Self {
        self.bucketing = bucketing;
        self
    }

    /// Checks this variant against the data dimension: ρ (if any) must be
    /// positive and finite, and the 2D-only methods (box cells, Delaunay or
    /// USEC cell graphs) require `dim == 2`. Shared by [`crate::Dbscan::run`]
    /// and the `dbscan-engine` query paths so both reject exactly the same
    /// configurations.
    pub fn validate_for_dimension(&self, dim: usize) -> Result<(), DbscanError> {
        if let Some(rho) = self.rho {
            if !(rho.is_finite() && rho > 0.0) {
                return Err(DbscanError::InvalidParams(format!(
                    "rho must be positive and finite, got {rho}"
                )));
            }
        }
        if dim != 2 {
            if self.cell_method == CellMethod::Box {
                return Err(DbscanError::RequiresTwoDimensions("the box cell method"));
            }
            match self.cell_graph {
                CellGraphMethod::Delaunay => {
                    return Err(DbscanError::RequiresTwoDimensions(
                        "the Delaunay cell-graph method",
                    ))
                }
                CellGraphMethod::Usec => {
                    return Err(DbscanError::RequiresTwoDimensions(
                        "the USEC cell-graph method",
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The name the paper uses for this variant (e.g. `our-exact-qt-bucketing`,
    /// `our-2d-grid-bcp`).
    pub fn paper_name(&self) -> String {
        let mut name = if self.rho.is_some() {
            match self.mark_core {
                MarkCoreMethod::Scan => "our-approx".to_string(),
                MarkCoreMethod::QuadTree => "our-approx-qt".to_string(),
            }
        } else {
            match (self.cell_method, self.cell_graph, self.mark_core) {
                (CellMethod::Grid, CellGraphMethod::Bcp, MarkCoreMethod::Scan) => {
                    "our-exact".to_string()
                }
                (CellMethod::Grid, CellGraphMethod::QuadTreeBcp, _) => "our-exact-qt".to_string(),
                (cell, graph, _) => {
                    let cell = match cell {
                        CellMethod::Grid => "grid",
                        CellMethod::Box => "box",
                    };
                    let graph = match graph {
                        CellGraphMethod::Bcp => "bcp",
                        CellGraphMethod::QuadTreeBcp => "bcp-qt",
                        CellGraphMethod::Delaunay => "delaunay",
                        CellGraphMethod::Usec => "usec",
                    };
                    format!("our-2d-{cell}-{graph}")
                }
            }
        };
        if self.bucketing {
            name.push_str("-bucketing");
        }
        name
    }
}

/// Errors reported by the DBSCAN entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum DbscanError {
    /// ε or minPts (or ρ) is out of range, or ε is too small for the extent
    /// of the data for exact grid keys.
    InvalidParams(String),
    /// A 2D-only method (box cells, Delaunay or USEC cell graph) was
    /// requested for data of a different dimension.
    RequiresTwoDimensions(&'static str),
}

impl fmt::Display for DbscanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbscanError::InvalidParams(msg) => write!(f, "invalid DBSCAN parameters: {msg}"),
            DbscanError::RequiresTwoDimensions(what) => {
                write!(f, "{what} is only available for 2-dimensional data")
            }
        }
    }
}

impl std::error::Error for DbscanError {}

impl From<spatial::KeyOverflow> for DbscanError {
    fn from(err: spatial::KeyOverflow) -> Self {
        DbscanError::InvalidParams(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DbscanParams::new(1.0, 5).validate().is_ok());
        assert!(DbscanParams::new(0.0, 5).validate().is_err());
        assert!(DbscanParams::new(-1.0, 5).validate().is_err());
        assert!(DbscanParams::new(f64::NAN, 5).validate().is_err());
        assert!(DbscanParams::new(f64::INFINITY, 5).validate().is_err());
        assert!(DbscanParams::new(1.0, 0).validate().is_err());
    }

    #[test]
    fn paper_names_match_the_evaluation_section() {
        assert_eq!(VariantConfig::exact().paper_name(), "our-exact");
        assert_eq!(VariantConfig::exact_qt().paper_name(), "our-exact-qt");
        assert_eq!(
            VariantConfig::exact().with_bucketing(true).paper_name(),
            "our-exact-bucketing"
        );
        assert_eq!(VariantConfig::approx(0.01).paper_name(), "our-approx");
        assert_eq!(VariantConfig::approx_qt(0.01).paper_name(), "our-approx-qt");
        assert_eq!(
            VariantConfig::two_d(CellMethod::Grid, CellGraphMethod::Usec).paper_name(),
            "our-2d-grid-usec"
        );
        assert_eq!(
            VariantConfig::two_d(CellMethod::Box, CellGraphMethod::Delaunay).paper_name(),
            "our-2d-box-delaunay"
        );
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = DbscanError::RequiresTwoDimensions("the box cell method");
        assert!(e.to_string().contains("2-dimensional"));
        let e = DbscanParams::new(0.0, 1).validate().unwrap_err();
        assert!(e.to_string().contains("eps"));
    }
}
