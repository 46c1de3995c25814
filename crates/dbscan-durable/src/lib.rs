//! Durability for the DBSCAN update stream: persisted snapshots, a
//! write-ahead log, crash recovery, and the fault-injection harness that
//! proves them.
//!
//! The paper's engine is an in-memory system — index once, query many,
//! stream updates. This crate adds the missing operational half: the live
//! point set the stream maintains can be made to *survive the process*.
//!
//! - [`snapshot`]: a versioned, checksummed binary format for a store's
//!   live set (flat coordinates and external ids). Writes commit by atomic
//!   rename; [`init_store`] and [`read_store_snapshot`] are the store-level
//!   entry points. No spatial index is persisted: a reopened store
//!   re-partitions its points.
//! - [`wal`]: an append-only LSN'd log of update batches with per-record
//!   CRC32, torn-tail truncation, and a [`FsyncPolicy`] trading latency
//!   for bounded loss.
//! - [`stream`]: [`DurableClusterer`], the WAL'd + checkpointed
//!   [`dbscan_stream::StreamingClusterer`]. Opening a store replays the
//!   WAL suffix; the recovered clustering is byte-identical to an
//!   uninterrupted run's.
//! - [`fault`]: [`FaultStorage`], a deterministic in-memory [`Storage`]
//!   with seeded failpoints (kill at the Nth operation, torn writes,
//!   dropped fsyncs) driving the crash-loop recovery tests.
//!
//! ```
//! use dbscan_durable::{DurableClusterer, DurableOptions, FaultStorage};
//! use dbscan_stream::UpdateBatch;
//! use pardbscan::{DbscanParams, Point2};
//!
//! let storage = FaultStorage::new();
//! let dir = std::path::Path::new("/store");
//! let points = vec![Point2::new([0.0, 0.0]), Point2::new([0.1, 0.0])];
//! let mut clusterer = DurableClusterer::create(
//!     storage.shared(), dir, points, DbscanParams::new(0.5, 2),
//!     DurableOptions::default(),
//! ).unwrap();
//! clusterer.apply(UpdateBatch::inserts(vec![Point2::new([0.2, 0.0])])).unwrap();
//!
//! // "Crash" (keep only fsync'd bytes), then recover.
//! let rebooted = storage.durable_clone();
//! let recovered = DurableClusterer::<2>::open(
//!     rebooted.shared(), dir, DurableOptions::default(),
//! ).unwrap();
//! assert_eq!(recovered.clustering(), clusterer.clustering());
//! ```

#![deny(missing_docs)]

pub mod error;
pub mod fault;
pub mod format;
pub mod snapshot;
pub mod storage;
pub mod stream;
pub mod wal;

pub use error::DurableError;
pub use fault::{FaultPlan, FaultStorage};
pub use snapshot::SnapshotData;
pub use storage::{RealStorage, Storage, StorageFile};
pub use stream::{init_store, read_store_snapshot, store_dim, DurableClusterer, DurableOptions};
pub use wal::{FsyncPolicy, Wal, WalHeader, WalRecord};
