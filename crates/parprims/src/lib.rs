//! Parallel primitives used throughout the parallel DBSCAN implementation.
//!
//! This crate re-implements the primitives the paper takes from the Problem
//! Based Benchmark Suite (PBBS) — see Table 1 of the paper — on top of
//! [`rayon`]'s work-stealing fork-join pool (our stand-in for Cilk Plus):
//!
//! | Primitive | Work | Depth | Module |
//! |-----------|------|-------|--------|
//! | Prefix sum | O(n) | O(log n) | [`prefix`] |
//! | Filter / pack | O(n) | O(log n) | [`mod@filter`] |
//! | Comparison sort | O(n log n) | O(log n) | [`sort`] |
//! | Integer sort (poly-log key range) | O(n) | O(log n) | [`sort`] |
//! | Semisort | O(n) expected | O(log n) w.h.p. | [`semisort`] |
//! | Concurrent hash table (n ops) | O(n) w.h.p. | O(log n) w.h.p. | [`hashtable`] |
//! | Pointer jumping (list ranking) | O(n log n) | O(log n) | [`pointer_jump`] |
//!
//! The bounds above are the asymptotic costs of the *algorithms* being
//! mimicked; the implementations here follow the same structure (blocked
//! two-pass scans, sample-based semisort, phase-concurrent linear probing)
//! so that their scaling behaviour matches the paper's cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod filter;
pub mod hashtable;
pub mod pointer_jump;
pub mod prefix;
pub mod semisort;
pub mod sort;
mod util;

pub use csr::Csr;
pub use filter::{count_if, filter, filter_indexed, partition_indices};
pub use hashtable::ConcurrentMap;
pub use pointer_jump::{pointer_jump_roots, strip_heads_to_assignment};
pub use prefix::{prefix_sum, prefix_sum_inplace, prefix_sum_with_total};
pub use semisort::{semisort_by_key, GroupedByKey};
pub use sort::{integer_sort_by_key, par_sort_by, par_sort_by_key, par_sort_unstable};
pub use util::{grain_size, num_threads, par_blocks};
