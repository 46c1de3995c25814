//! The durable streaming clusterer: a [`StreamingClusterer`] whose update
//! stream is write-ahead logged and periodically checkpointed, so the
//! maintained clustering survives crashes.
//!
//! ## Store layout
//!
//! A store is one directory:
//!
//! ```text
//! snapshot.<L>.bin   live set as of LSN L (newest two are kept)
//! wal.log            records with LSNs > its header's base_lsn
//! ```
//!
//! ## External ids
//!
//! The inner clusterer's dense internal ids are an in-memory artifact — a
//! recovered process rebuilds them from scratch. The durable layer
//! therefore speaks *external* ids: assigned sequentially at insert, stable
//! across recovery, and the id space WAL records and snapshots are written
//! in. Both id orders are monotone in insertion order, so
//! ascending-internal traversals equal ascending-external ones — which is
//! what makes recovered [`DurableClusterer::clustering`] byte-identical to
//! an uninterrupted run's.
//!
//! ## Apply protocol
//!
//! `validate → WAL append (+ policy fsync) → in-memory apply → maybe
//! checkpoint`. Validation happens *before* the append, so a record that
//! reaches the log can never fail replay; the in-memory apply after a
//! successful append is infallible for the same reason.

use crate::error::DurableError;
use crate::snapshot::{read_snapshot_file, write_snapshot_file, SnapshotData};
use crate::storage::Storage;
use crate::wal::{FsyncPolicy, Wal, WalHeader, WalRecord, WAL_FILE};
use dbscan_stream::{StreamError, StreamingClusterer, UpdateBatch, UpdateStats};
use geom::Point;
use pardbscan::{Clustering, DbscanParams};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durability knobs for a [`DurableClusterer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// When WAL appends reach durable media.
    pub fsync: FsyncPolicy,
    /// Checkpoint (persist a snapshot, reset the WAL) after this many
    /// applied batches. `0` disables automatic checkpoints — only explicit
    /// [`DurableClusterer::checkpoint`] calls persist snapshots.
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::PerBatch,
            checkpoint_every: 64,
        }
    }
}

/// How many snapshot files a checkpoint leaves behind (the new one plus its
/// predecessor, so a torn newest file never strands the store).
const SNAPSHOTS_KEPT: usize = 2;

static RECOVERIES: obs::LazyCounter = obs::LazyCounter::new("dbscan_recoveries_total");
static REPLAYED_RECORDS: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_recovery_replayed_records_total");
static CHECKPOINTS: obs::LazyCounter = obs::LazyCounter::new("dbscan_checkpoints_total");

fn snapshot_path(dir: &Path, base_lsn: u64) -> PathBuf {
    dir.join(format!("snapshot.{base_lsn}.bin"))
}

/// `snapshot.<lsn>.bin` → `lsn`.
fn snapshot_lsn(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("snapshot.")?;
    rest.strip_suffix(".bin")?.parse().ok()
}

/// The store's snapshot files' LSNs, descending (newest first).
fn snapshot_lsns(storage: &Arc<dyn Storage>, dir: &Path) -> Result<Vec<u64>, DurableError> {
    let mut lsns: Vec<u64> = storage
        .list(dir)?
        .iter()
        .filter_map(|p| snapshot_lsn(p))
        .collect();
    lsns.sort_unstable_by(|a, b| b.cmp(a));
    Ok(lsns)
}

/// Loads the newest readable snapshot of the store at `dir`, falling back
/// to older ones if the newest is torn or corrupt. Returns `Ok(None)` when
/// the store has no snapshot files at all; returns the *newest* snapshot's
/// error when files exist but none decodes.
pub fn read_store_snapshot<const D: usize>(
    storage: &Arc<dyn Storage>,
    dir: &Path,
) -> Result<Option<SnapshotData<D>>, DurableError> {
    let mut first_err: Option<DurableError> = None;
    for lsn in snapshot_lsns(storage, dir)? {
        match read_snapshot_file::<D>(storage, &snapshot_path(dir, lsn)) {
            Ok(data) => return Ok(Some(data)),
            Err(err) => first_err = first_err.or(Some(err)),
        }
    }
    match first_err {
        Some(err) => Err(err),
        None => Ok(None),
    }
}

/// Reads the dimensionality of the store at `dir` without decoding its
/// contents — from the WAL header when a log exists, else from the newest
/// snapshot header. Both headers share the `magic · version · dim` prefix.
pub fn store_dim(storage: &Arc<dyn Storage>, dir: &Path) -> Result<u32, DurableError> {
    fn header_dim(buf: &[u8], what: &'static str) -> Result<u32, DurableError> {
        let (payload, _) = crate::format::read_section(buf, what)?;
        let mut dec = crate::format::Dec::new(payload, what);
        let magic = dec.bytes(5)?;
        if magic != crate::wal::WAL_MAGIC && magic != crate::snapshot::SNAPSHOT_MAGIC {
            return Err(DurableError::corrupt(
                None,
                format!("{what}: bad magic {magic:02x?}"),
            ));
        }
        let _version = dec.u32()?;
        dec.u32()
    }
    let wal_path = dir.join(WAL_FILE);
    if storage.exists(&wal_path) {
        return header_dim(&storage.read(&wal_path)?, "wal header");
    }
    let mut first_err: Option<DurableError> = None;
    for lsn in snapshot_lsns(storage, dir)? {
        match storage
            .read(&snapshot_path(dir, lsn))
            .map_err(DurableError::from)
            .and_then(|buf| header_dim(&buf, "snapshot header"))
        {
            Ok(dim) => return Ok(dim),
            Err(err) => first_err = first_err.or(Some(err)),
        }
    }
    Err(first_err
        .unwrap_or_else(|| DurableError::Io(format!("no durable store at {}", dir.display()))))
}

/// (Re)initializes the store directory with a single idle snapshot of
/// `points` (no parameters, no WAL): external ids `0..points.len()`, base
/// LSN 0. Any prior store generation at `dir` is discarded — the WAL
/// first, so a crash mid-reinitialization never pairs an old log with the
/// new snapshot.
pub fn init_store<const D: usize>(
    storage: &Arc<dyn Storage>,
    dir: &Path,
    points: Vec<Point<D>>,
    params: Option<DbscanParams>,
) -> Result<(), DurableError> {
    storage.create_dir_all(dir)?;
    if storage.exists(&dir.join(WAL_FILE)) {
        storage.remove(&dir.join(WAL_FILE))?;
        storage.sync_dir(dir)?;
    }
    let n = points.len() as u64;
    let data = SnapshotData {
        base_lsn: 0,
        params,
        next_ext_id: n,
        ext_ids: (0..n).collect(),
        points,
        indexes: Vec::new(),
    };
    write_snapshot_file(storage, &snapshot_path(dir, 0), &data)?;
    for lsn in snapshot_lsns(storage, dir)? {
        if lsn != 0 {
            storage.remove(&snapshot_path(dir, lsn))?;
        }
    }
    Ok(())
}

/// A write-ahead logged, checkpointed [`StreamingClusterer`].
pub struct DurableClusterer<const D: usize> {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    options: DurableOptions,
    inner: StreamingClusterer<D>,
    wal: Wal,
    /// `ext_of_int[internal id] = external id`; internal ids are dense and
    /// never reused, so this is indexed directly.
    ext_of_int: Vec<u64>,
    /// Live external id → internal id.
    int_of_ext: HashMap<u64, usize>,
    next_ext_id: u64,
    batches_since_checkpoint: u64,
}

impl<const D: usize> DurableClusterer<D> {
    /// Initializes a store at `dir` with `points` (external ids
    /// `0..points.len()`) and persists the initial snapshot before
    /// returning — a crash right after `create` recovers to exactly this
    /// state.
    pub fn create(
        storage: Arc<dyn Storage>,
        dir: &Path,
        points: Vec<Point<D>>,
        params: DbscanParams,
        options: DurableOptions,
    ) -> Result<Self, DurableError> {
        let inner = StreamingClusterer::new(points.clone(), params)?;
        let n = points.len() as u64;
        init_store(&storage, dir, points, Some(params))?;
        let wal = Wal::create(
            Arc::clone(&storage),
            dir,
            WalHeader {
                dim: D as u32,
                base_lsn: 0,
                params: Some(params),
            },
            options.fsync,
        )?;
        Ok(DurableClusterer {
            storage,
            dir: dir.to_path_buf(),
            options,
            inner,
            wal,
            ext_of_int: (0..n).collect(),
            int_of_ext: (0..n).map(|e| (e, e as usize)).collect(),
            next_ext_id: n,
            batches_since_checkpoint: 0,
        })
    }

    /// Recovers the store at `dir`: loads the newest readable snapshot
    /// (falling back to its predecessor if the newest is torn), replays the
    /// WAL suffix through a fresh [`StreamingClusterer`], and returns a
    /// handle positioned to accept new updates.
    ///
    /// A store with a WAL but no snapshot replays from the empty set (the
    /// log's `base_lsn` must then be 0); a store with a snapshot but no WAL
    /// starts a fresh log at the snapshot's LSN.
    pub fn open(
        storage: Arc<dyn Storage>,
        dir: &Path,
        options: DurableOptions,
    ) -> Result<Self, DurableError> {
        let _span = obs::Span::enter("durable", obs::phase::RECOVERY);
        RECOVERIES.incr();

        // Newest readable snapshot, if any.
        let snapshot: Option<SnapshotData<D>> = read_store_snapshot(&storage, dir)?;

        // The WAL suffix. A missing log is fine when a snapshot exists.
        let has_wal = storage.exists(&dir.join(WAL_FILE));
        let (wal, records) = if has_wal {
            let (wal, records) = Wal::open::<D>(Arc::clone(&storage), dir, options.fsync)?;
            (Some(wal), records)
        } else {
            (None, Vec::new())
        };

        let (base_lsn, params, points, ext_ids, next_ext_id) = match &snapshot {
            Some(s) => {
                let params = wal
                    .as_ref()
                    .and_then(|w| w.header().params)
                    .or(s.params)
                    .ok_or_else(|| {
                        DurableError::corrupt(None, "store has neither WAL nor snapshot parameters")
                    })?;
                (
                    s.base_lsn,
                    params,
                    s.points.clone(),
                    s.ext_ids.clone(),
                    s.next_ext_id,
                )
            }
            None => {
                let wal_ref = wal.as_ref().ok_or_else(|| {
                    DurableError::Io(format!("no durable store at {}", dir.display()))
                })?;
                if wal_ref.header().base_lsn != 0 {
                    return Err(DurableError::corrupt(
                        None,
                        format!(
                            "WAL starts at lsn {} but no snapshot covers the prefix",
                            wal_ref.header().base_lsn
                        ),
                    ));
                }
                let params = wal_ref.header().params.ok_or_else(|| {
                    DurableError::corrupt(None, "snapshot-less WAL carries no parameters")
                })?;
                (0, params, Vec::new(), Vec::new(), 0)
            }
        };

        if let Some(w) = &wal {
            if w.header().base_lsn > base_lsn {
                return Err(DurableError::corrupt(
                    None,
                    format!(
                        "WAL base lsn {} is past the snapshot's lsn {base_lsn}: records in \
                         between are lost",
                        w.header().base_lsn
                    ),
                ));
            }
        }

        // Rebuild the in-memory state: internal ids 0..m in ascending
        // external-id order (the snapshot stores points that way).
        let inner = StreamingClusterer::new(points, params)?;
        let ext_of_int = ext_ids;
        let int_of_ext = ext_of_int
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i))
            .collect();
        let mut this = DurableClusterer {
            storage: Arc::clone(&storage),
            dir: dir.to_path_buf(),
            options,
            inner,
            wal: match wal {
                Some(w) => w,
                None => Wal::create(
                    Arc::clone(&storage),
                    dir,
                    WalHeader {
                        dim: D as u32,
                        base_lsn,
                        params: Some(params),
                    },
                    options.fsync,
                )?,
            },
            ext_of_int,
            int_of_ext,
            next_ext_id,
            batches_since_checkpoint: 0,
        };

        // Replay the suffix. Records at or below the snapshot's LSN are
        // already folded in (a crash between snapshot commit and WAL reset
        // leaves such records behind — harmless).
        for rec in records {
            if rec.lsn <= base_lsn {
                continue;
            }
            this.replay(rec)?;
            REPLAYED_RECORDS.incr();
        }

        // A WAL whose durable tail ends *before* the snapshot (storage
        // that acknowledged record fsyncs it never performed, then wrote
        // the checkpoint snapshot honestly) is stale: the snapshot
        // supersedes everything it could hold. Reset it so new appends get
        // LSNs past the snapshot — otherwise the next recovery's replay
        // would skip them as already-folded.
        if this.wal.last_lsn() < base_lsn {
            this.wal = Wal::create(
                Arc::clone(&storage),
                dir,
                WalHeader {
                    dim: D as u32,
                    base_lsn,
                    params: Some(params),
                },
                options.fsync,
            )?;
        }
        Ok(this)
    }

    /// Applies one replayed WAL record to the in-memory state, mirroring
    /// the id assignment the original apply performed.
    fn replay(&mut self, rec: WalRecord<D>) -> Result<(), DurableError> {
        let lsn = rec.lsn;
        let deletes = rec
            .deletes
            .iter()
            .map(|&ext| {
                self.int_of_ext
                    .get(&ext)
                    .copied()
                    .ok_or(DurableError::Replay {
                        lsn,
                        source: StreamError::UnknownPoint(ext as usize),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n_inserts = rec.inserts.len();
        let stats = self
            .inner
            .apply(UpdateBatch {
                inserts: rec.inserts,
                deletes: deletes.clone(),
            })
            .map_err(|source| DurableError::Replay { lsn, source })?;
        self.commit_ids(&rec.deletes, &stats.inserted_ids, n_inserts);
        Ok(())
    }

    /// Updates the id maps after a successful inner apply.
    fn commit_ids(&mut self, deleted_ext: &[u64], inserted_int: &[usize], n_inserts: usize) {
        debug_assert_eq!(inserted_int.len(), n_inserts);
        for &ext in deleted_ext {
            let int = self
                .int_of_ext
                .remove(&ext)
                .expect("validated before apply");
            debug_assert_eq!(self.ext_of_int[int], ext);
        }
        for &int in inserted_int {
            let ext = self.next_ext_id;
            self.next_ext_id += 1;
            debug_assert_eq!(int, self.ext_of_int.len());
            self.ext_of_int.push(ext);
            self.int_of_ext.insert(ext, int);
        }
    }

    /// Applies an update batch durably. `batch.deletes` are **external**
    /// ids. Returns stats whose `inserted_ids` are the new points'
    /// external ids and whose `wal_*` fields carry the logging cost; the
    /// batch is on durable media when this returns under the per-batch
    /// fsync policy.
    pub fn apply(&mut self, batch: UpdateBatch<D>) -> Result<UpdateStats, DurableError> {
        // Validate before the WAL append: a logged record must never fail
        // replay. (The inserts go through the inner clusterer's own check;
        // the deletes mirror its checks in external id space.)
        self.inner.validate_inserts(&batch.inserts)?;
        let mut deletes_int = Vec::with_capacity(batch.deletes.len());
        let mut seen = HashSet::with_capacity(batch.deletes.len());
        for &ext in &batch.deletes {
            let int = *self
                .int_of_ext
                .get(&(ext as u64))
                .ok_or(DurableError::Stream(StreamError::UnknownPoint(ext)))?;
            if !seen.insert(ext) {
                return Err(StreamError::DuplicateDelete(ext).into());
            }
            deletes_int.push(int);
        }

        let rec = WalRecord {
            lsn: self.wal.last_lsn() + 1,
            deletes: batch.deletes.iter().map(|&e| e as u64).collect(),
            inserts: batch.inserts,
        };
        let receipt = self.wal.append(&rec)?;

        let n_inserts = rec.inserts.len();
        let mut stats = self
            .inner
            .apply(UpdateBatch {
                inserts: rec.inserts,
                deletes: deletes_int,
            })
            .expect("batch was validated before the WAL append");
        self.commit_ids(&rec.deletes, &stats.inserted_ids, n_inserts);
        let first_ext = self.next_ext_id - n_inserts as u64;
        for (i, id) in stats.inserted_ids.iter_mut().enumerate() {
            *id = (first_ext + i as u64) as usize;
        }
        stats.wal_bytes = receipt.bytes;
        stats.wal_append_time = receipt.append_time;
        stats.wal_fsync_time = receipt.fsync_time;

        self.batches_since_checkpoint += 1;
        if self.options.checkpoint_every > 0
            && self.batches_since_checkpoint >= self.options.checkpoint_every
        {
            self.checkpoint()?;
        }
        Ok(stats)
    }

    /// Persists the live set as `snapshot.<last_lsn>.bin`, resets the WAL
    /// to start there, and prunes snapshots older than the newest two. On
    /// return the store recovers to the current state without any replay.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        // Everything the snapshot supersedes must be durable first: if the
        // snapshot write crashes halfway, recovery falls back to the
        // previous snapshot plus these records.
        self.wal.sync()?;
        let base_lsn = self.wal.last_lsn();
        let live = self.inner.live_points();
        let data = SnapshotData {
            base_lsn,
            params: Some(self.inner.params()),
            next_ext_id: self.next_ext_id,
            ext_ids: live.iter().map(|&(int, _)| self.ext_of_int[int]).collect(),
            points: live.into_iter().map(|(_, p)| p).collect(),
            indexes: Vec::new(),
        };
        write_snapshot_file(&self.storage, &snapshot_path(&self.dir, base_lsn), &data)?;
        self.wal = Wal::create(
            Arc::clone(&self.storage),
            &self.dir,
            WalHeader {
                dim: D as u32,
                base_lsn,
                params: Some(self.inner.params()),
            },
            self.options.fsync,
        )?;
        self.batches_since_checkpoint = 0;
        CHECKPOINTS.incr();

        // Prune: keep the newest SNAPSHOTS_KEPT snapshot files. A crash
        // anywhere in here only leaves extra files behind.
        let lsns = snapshot_lsns(&self.storage, &self.dir)?;
        for &old in lsns.iter().skip(SNAPSHOTS_KEPT) {
            self.storage.remove(&snapshot_path(&self.dir, old))?;
        }
        Ok(())
    }

    /// Fsyncs any WAL appends the group-commit policy left pending.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()?;
        Ok(())
    }

    /// The maintained parameters.
    pub fn params(&self) -> DbscanParams {
        self.inner.params()
    }

    /// Number of live points.
    pub fn num_live(&self) -> usize {
        self.inner.num_live()
    }

    /// LSN of the most recently applied batch.
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// The live points as `(external id, point)`, ascending by external id.
    pub fn live_points(&self) -> Vec<(usize, Point<D>)> {
        self.inner
            .live_points()
            .into_iter()
            .map(|(int, p)| (self.ext_of_int[int] as usize, p))
            .collect()
    }

    /// The current clustering in ascending-external-id order — the same
    /// canonical form [`StreamingClusterer::clustering`] produces, and
    /// byte-identical after recovery to an uninterrupted run's.
    pub fn clustering(&self) -> Clustering {
        self.inner.clustering()
    }

    /// Checkpoints and consumes the store, returning the inner clusterer
    /// (used by the facade's freeze path).
    pub fn into_inner(mut self) -> Result<StreamingClusterer<D>, DurableError> {
        self.checkpoint()?;
        Ok(self.inner)
    }

    /// Read access to the wrapped in-memory clusterer — for non-consuming
    /// reads that need more than [`DurableClusterer::clustering`] (e.g. the
    /// generational publish path snapshots the live set through
    /// [`StreamingClusterer::snapshot_live`] while the durable handle keeps
    /// logging batches).
    pub fn clusterer(&self) -> &StreamingClusterer<D> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultStorage;
    use geom::Point2;

    fn params() -> DbscanParams {
        DbscanParams::new(0.6, 3)
    }

    fn cloud(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new([(i % 10) as f64 * 0.3, (i / 10) as f64 * 0.3]))
            .collect()
    }

    fn options() -> DurableOptions {
        DurableOptions {
            fsync: FsyncPolicy::PerBatch,
            checkpoint_every: 3,
        }
    }

    #[test]
    fn create_apply_reopen_matches_uninterrupted_run() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        let mut durable =
            DurableClusterer::create(storage.shared(), dir, cloud(30), params(), options())
                .unwrap();
        let mut reference = StreamingClusterer::new(cloud(30), params()).unwrap();

        for step in 0..7u64 {
            let inserts: Vec<Point2> = (0..4)
                .map(|j| Point2::new([(step as f64) * 0.17 + j as f64 * 0.05, 1.1]))
                .collect();
            let deletes = vec![step as usize * 2];
            let stats = durable
                .apply(UpdateBatch {
                    inserts: inserts.clone(),
                    deletes: deletes.clone(),
                })
                .unwrap();
            assert!(stats.wal_bytes > 0);
            reference.apply(UpdateBatch { inserts, deletes }).unwrap();
        }
        assert_eq!(durable.clustering(), reference.clustering());

        // Clean reopen (no crash): identical labels and id maps.
        drop(durable);
        let reopened = DurableClusterer::<2>::open(storage.shared(), dir, options()).unwrap();
        assert_eq!(reopened.clustering(), reference.clustering());
        assert_eq!(reopened.live_points(), reference.live_points());
    }

    #[test]
    fn recovery_after_crash_replays_the_wal_suffix() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        let mut durable = DurableClusterer::create(
            storage.shared(),
            dir,
            cloud(20),
            params(),
            DurableOptions {
                fsync: FsyncPolicy::PerBatch,
                checkpoint_every: 0,
            },
        )
        .unwrap();
        let mut reference = StreamingClusterer::new(cloud(20), params()).unwrap();
        for step in 0..5 {
            let batch = UpdateBatch {
                inserts: vec![Point2::new([step as f64 * 0.2, 2.0])],
                deletes: vec![step],
            };
            durable.apply(batch.clone()).unwrap();
            reference.apply(batch).unwrap();
        }
        // Simulate a crash: take only what reached durable media.
        let rebooted = storage.durable_clone();
        let recovered = DurableClusterer::<2>::open(rebooted.shared(), dir, options()).unwrap();
        assert_eq!(recovered.clustering(), reference.clustering());
        assert_eq!(recovered.last_lsn(), 5);
    }

    #[test]
    fn external_ids_survive_checkpoints_and_recovery() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        let mut durable = DurableClusterer::create(
            storage.shared(),
            dir,
            cloud(6),
            params(),
            DurableOptions {
                fsync: FsyncPolicy::PerBatch,
                checkpoint_every: 2,
            },
        )
        .unwrap();
        // Delete 0 and 3; insert two points → ids 6 and 7.
        let stats = durable
            .apply(UpdateBatch {
                inserts: vec![Point2::new([5.0, 5.0]), Point2::new([5.1, 5.0])],
                deletes: vec![0, 3],
            })
            .unwrap();
        assert_eq!(stats.inserted_ids, vec![6, 7]);
        durable.apply(UpdateBatch::deletes(vec![6])).unwrap();
        // The second apply crossed checkpoint_every=2 → snapshot written.
        let recovered =
            DurableClusterer::<2>::open(storage.durable_clone().shared(), dir, options()).unwrap();
        let ids: Vec<usize> = recovered.live_points().iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 4, 5, 7]);
        // Deleting a dead external id is a typed error.
        let mut recovered = recovered;
        assert!(matches!(
            recovered.apply(UpdateBatch::deletes(vec![6])),
            Err(DurableError::Stream(StreamError::UnknownPoint(6)))
        ));
        // New inserts continue the external id sequence.
        let stats = recovered
            .apply(UpdateBatch::inserts(vec![Point2::new([9.0, 9.0])]))
            .unwrap();
        assert_eq!(stats.inserted_ids, vec![8]);
    }
}
