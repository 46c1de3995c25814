//! Synthetic dataset generators for the parallel DBSCAN evaluation.
//!
//! The paper's evaluation (§7) uses two families of synthetic data produced
//! by Gan & Tao's generator — the *seed spreader* with similar-density
//! (`SS-simden`) and variable-density (`SS-varden`) clusters — plus a
//! `UniformFill` dataset, and five real datasets (Household, GeoLife,
//! Cosmo50, OpenStreetMap, TeraClickLog). The real datasets are not
//! redistributable here, so this crate provides:
//!
//! * [`mod@seed_spreader`] — the seed-spreader random-walk generator with
//!   similar- and variable-density presets,
//! * [`uniform`] — UniformFill (uniform points in a hypercube of side √n),
//! * [`standins`] — synthetic stand-ins reproducing the two structural
//!   properties of the real datasets that the paper's analysis depends on:
//!   the extreme spatial skew of GeoLife (which makes BCP-based cell-graph
//!   queries expensive and the bucketing optimization valuable) and the
//!   all-points-in-one-cell degeneracy of TeraClickLog at the published
//!   parameters.
//!
//! The substitutions are documented in DESIGN.md §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod seed_spreader;
pub mod standins;
pub mod uniform;

pub use seed_spreader::{seed_spreader, SeedSpreaderConfig};
pub use standins::{single_cell_like, skewed_geolife_like};
pub use uniform::uniform_fill;
