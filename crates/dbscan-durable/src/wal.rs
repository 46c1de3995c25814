//! The write-ahead log: append-only, LSN'd update-batch records with
//! per-record CRC32, torn-tail detection, and a configurable fsync policy.
//!
//! ## On-disk layout (`wal.log`)
//!
//! ```text
//! [header section]  magic "DBWAL" · version · dim · base_lsn · params
//! [record section]* lsn · inserts (flat f64) · deletes (external ids)
//! ```
//!
//! Every section is `[len: u32][payload][crc32: u32]` (see
//! [`crate::format`]). Records carry strictly sequential LSNs starting at
//! `base_lsn + 1`; a checkpoint rewrites the whole file with a fresh header
//! (rename-over, so the swap is atomic).
//!
//! ## Torn tails vs. mid-file corruption
//!
//! On open the records are parsed frame by frame. A frame that extends past
//! the end of the file, or whose checksum fails with no valid frame after
//! it, is a **torn tail** — the expected residue of a crash mid-append — and
//! is silently truncated away (counted in
//! `dbscan_wal_torn_truncations_total`). A checksum failure *followed by a
//! valid frame with the next LSN* cannot be a crash artifact, so it reports
//! a typed [`DurableError::Corrupt`] carrying the bad record's LSN.

use crate::error::DurableError;
use crate::format::{read_section, Dec, Enc};
use crate::storage::{Storage, StorageFile};
use geom::Point;
use pardbscan::DbscanParams;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every WAL header.
pub const WAL_MAGIC: &[u8; 5] = b"DBWAL";
/// The format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;
/// File name of the log inside a durable store directory.
pub const WAL_FILE: &str = "wal.log";

/// When WAL appends reach durable media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended batch: an acknowledged `apply` survives
    /// any crash.
    PerBatch,
    /// Fsync after every N appended batches (and at checkpoints): higher
    /// throughput, but a crash may lose up to N−1 acknowledged batches
    /// (recovery still lands on a consistent earlier prefix).
    GroupCommit(usize),
}

/// What one WAL header records.
#[derive(Debug, Clone, PartialEq)]
pub struct WalHeader {
    /// Dimensionality of the inserted points.
    pub dim: u32,
    /// LSN of the snapshot this log extends; records start at
    /// `base_lsn + 1`.
    pub base_lsn: u64,
    /// The (ε, minPts) of the episode the log belongs to, absent for an
    /// idle store.
    pub params: Option<DbscanParams>,
}

/// One decoded WAL record: an update batch with its log sequence number.
/// Deletes are *external* ids (the durable layer's stable ids, translated
/// to dense internal ids on replay).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord<const D: usize> {
    /// The record's log sequence number.
    pub lsn: u64,
    /// Inserted points, in batch order.
    pub inserts: Vec<Point<D>>,
    /// Deleted external ids, in batch order.
    pub deletes: Vec<u64>,
}

/// What one append cost, surfaced into `UpdateStats`.
#[derive(Debug, Clone, Default)]
pub struct AppendReceipt {
    /// Bytes appended (frame included).
    pub bytes: u64,
    /// The `wal_append` phase (encode + write), then the `wal_fsync` phase
    /// when the policy fsynced before returning — each with its span's
    /// duration.
    pub phases: Vec<obs::PhaseExecution>,
    /// Whether this append was fsync'd before returning.
    pub synced: bool,
}

static WAL_APPENDS: obs::LazyCounter = obs::LazyCounter::new("dbscan_wal_appends_total");
static WAL_APPENDED_BYTES: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_wal_appended_bytes_total");
static WAL_FSYNCS: obs::LazyCounter = obs::LazyCounter::new("dbscan_wal_fsyncs_total");
static WAL_TORN_TRUNCATIONS: obs::LazyCounter =
    obs::LazyCounter::new("dbscan_wal_torn_truncations_total");
static WAL_FSYNC_SECONDS: obs::LazyHistogram =
    obs::LazyHistogram::new("dbscan_wal_fsync_duration_seconds");

/// The append half of the log. Parsing/replay happens once in
/// [`Wal::open`]; afterwards the value is a cheap append handle.
pub struct Wal {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    header: WalHeader,
    /// Lazily opened append handle (`None` until the first append after
    /// create/open, so a read-only open never touches the file).
    file: Option<Box<dyn StorageFile>>,
    policy: FsyncPolicy,
    last_lsn: u64,
    /// Appends not yet fsync'd under the group-commit policy.
    unsynced: usize,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

fn encode_header(header: &WalHeader) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.bytes(WAL_MAGIC);
    enc.u32(WAL_VERSION);
    enc.u32(header.dim);
    enc.u64(header.base_lsn);
    match header.params {
        Some(p) => {
            enc.u8(1);
            enc.f64(p.eps);
            enc.usize(p.min_pts);
        }
        None => {
            enc.u8(0);
            enc.f64(0.0);
            enc.usize(0);
        }
    }
    enc.into_section()
}

fn decode_header(payload: &[u8]) -> Result<WalHeader, DurableError> {
    let mut dec = Dec::new(payload, "wal header");
    let magic = dec.bytes(WAL_MAGIC.len())?;
    if magic != WAL_MAGIC {
        return Err(DurableError::corrupt(
            None,
            format!("wal header: bad magic {magic:02x?}"),
        ));
    }
    let version = dec.u32()?;
    if version != WAL_VERSION {
        return Err(DurableError::VersionMismatch {
            found: version,
            expected: WAL_VERSION,
        });
    }
    let dim = dec.u32()?;
    let base_lsn = dec.u64()?;
    let has_params = dec.u8()?;
    let eps = dec.f64()?;
    let min_pts = dec.len(usize::MAX / 2)?;
    dec.finish()?;
    let params = match has_params {
        0 => None,
        1 => Some(DbscanParams::new(eps, min_pts)),
        v => {
            return Err(DurableError::corrupt(
                None,
                format!("wal header: params flag must be 0 or 1, got {v}"),
            ))
        }
    };
    Ok(WalHeader {
        dim,
        base_lsn,
        params,
    })
}

fn encode_record<const D: usize>(rec: &WalRecord<D>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(rec.lsn);
    enc.usize(rec.inserts.len());
    enc.usize(rec.deletes.len());
    for p in &rec.inserts {
        for &c in p.coords.iter() {
            enc.f64(c);
        }
    }
    for &id in &rec.deletes {
        enc.u64(id);
    }
    enc.into_section()
}

fn decode_record<const D: usize>(payload: &[u8]) -> Result<WalRecord<D>, DurableError> {
    let mut dec = Dec::new(payload, "wal record");
    let lsn = dec.u64()?;
    let n_inserts = dec.len(payload.len() / (8 * D).max(1) + 1)?;
    let n_deletes = dec.len(payload.len() / 8 + 1)?;
    let mut inserts = Vec::with_capacity(n_inserts);
    for _ in 0..n_inserts {
        let mut coords = [0.0f64; D];
        for c in coords.iter_mut() {
            *c = dec.f64()?;
        }
        inserts.push(Point::new(coords));
    }
    let mut deletes = Vec::with_capacity(n_deletes);
    for _ in 0..n_deletes {
        deletes.push(dec.u64()?);
    }
    dec.finish()?;
    Ok(WalRecord {
        lsn,
        inserts,
        deletes,
    })
}

/// Whether `buf` starts with a frame whose checksum verifies and whose
/// payload leads with `lsn` — the look-ahead that separates a mid-file
/// bit flip from a torn tail.
fn frame_is_valid_with_lsn(buf: &[u8], lsn: u64) -> bool {
    match read_section(buf, "wal record") {
        Ok((payload, _)) => {
            payload.len() >= 8 && u64::from_le_bytes(payload[..8].try_into().unwrap()) == lsn
        }
        Err(_) => false,
    }
}

/// Frame length declared at the head of `buf`, if the prefix is readable.
fn declared_frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    Some(4 + u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize + 4)
}

impl Wal {
    /// Creates (rename-over) a fresh log containing only `header`. The
    /// header is written to a temporary file, fsync'd, renamed over
    /// [`WAL_FILE`], and the directory is fsync'd — atomic with respect to
    /// any previous log.
    pub fn create(
        storage: Arc<dyn Storage>,
        dir: &Path,
        header: WalHeader,
        policy: FsyncPolicy,
    ) -> Result<Wal, DurableError> {
        let tmp = dir.join("wal.tmp");
        let mut file = storage.create(&tmp)?;
        file.write_all(&encode_header(&header))?;
        file.sync()?;
        drop(file);
        storage.rename(&tmp, &wal_path(dir))?;
        storage.sync_dir(dir)?;
        let last_lsn = header.base_lsn;
        Ok(Wal {
            storage,
            dir: dir.to_path_buf(),
            header,
            file: None,
            policy,
            last_lsn,
            unsynced: 0,
        })
    }

    /// Opens an existing log: verifies the header, parses every record,
    /// truncates a torn tail, and returns the handle positioned for
    /// appending plus the decoded records (ascending, contiguous LSNs).
    pub fn open<const D: usize>(
        storage: Arc<dyn Storage>,
        dir: &Path,
        policy: FsyncPolicy,
    ) -> Result<(Wal, Vec<WalRecord<D>>), DurableError> {
        let path = wal_path(dir);
        let buf = storage.read(&path)?;
        let (header_payload, mut rest) = read_section(&buf, "wal header")?;
        let header = decode_header(header_payload)?;
        if header.dim != D as u32 {
            return Err(DurableError::corrupt(
                None,
                format!(
                    "wal header: dimension {} but this store is {D}-dimensional",
                    header.dim
                ),
            ));
        }

        let mut records: Vec<WalRecord<D>> = Vec::new();
        let mut expected = header.base_lsn + 1;
        let mut valid_len = buf.len() - rest.len();
        let mut truncated_tail = false;
        while !rest.is_empty() {
            match read_section(rest, "wal record")
                .and_then(|(payload, _)| decode_record::<D>(payload))
            {
                Ok(rec) => {
                    if rec.lsn != expected {
                        return Err(DurableError::corrupt(
                            Some(rec.lsn),
                            format!("wal record out of sequence: expected lsn {expected}"),
                        ));
                    }
                    let frame = declared_frame_len(rest).expect("parsed frame has a length");
                    valid_len += frame;
                    rest = &rest[frame..];
                    records.push(rec);
                    expected += 1;
                }
                Err(err) => {
                    // Distinguish a torn tail from mid-file corruption: if a
                    // valid frame carrying the *next* LSN sits right after
                    // this frame's declared extent, the file continues past
                    // the damage — that is a bit flip, not a crash residue.
                    let after = declared_frame_len(rest)
                        .filter(|&l| l <= rest.len())
                        .map(|l| &rest[l..]);
                    if let Some(after) = after {
                        if frame_is_valid_with_lsn(after, expected + 1) {
                            return Err(match err {
                                DurableError::Corrupt { reason, .. } => {
                                    DurableError::corrupt(Some(expected), reason)
                                }
                                other => other,
                            });
                        }
                    }
                    truncated_tail = true;
                    break;
                }
            }
        }

        if truncated_tail {
            // Rewrite the valid prefix and swap it in (no in-place truncate
            // in the storage trait; the log is bounded by checkpoints).
            let tmp = dir.join("wal.tmp");
            let mut file = storage.create(&tmp)?;
            file.write_all(&buf[..valid_len])?;
            file.sync()?;
            drop(file);
            storage.rename(&tmp, &path)?;
            storage.sync_dir(dir)?;
            WAL_TORN_TRUNCATIONS.incr();
        }

        let last_lsn = header.base_lsn + records.len() as u64;
        Ok((
            Wal {
                storage,
                dir: dir.to_path_buf(),
                header,
                file: None,
                policy,
                last_lsn,
                unsynced: 0,
            },
            records,
        ))
    }

    /// The header this log was created/opened with.
    pub fn header(&self) -> &WalHeader {
        &self.header
    }

    /// LSN of the most recently appended (or replayed) record.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Appends one record (its `lsn` must be `last_lsn() + 1`) and applies
    /// the fsync policy. Returns the costs for `UpdateStats`.
    pub fn append<const D: usize>(
        &mut self,
        rec: &WalRecord<D>,
    ) -> Result<AppendReceipt, DurableError> {
        assert_eq!(rec.lsn, self.last_lsn + 1, "WAL lsns are sequential");
        let span = obs::Span::enter("durable", obs::phase::WAL_APPEND)
            .n(rec.inserts.len() + rec.deletes.len());
        let frame = encode_record(rec);
        if self.file.is_none() {
            self.file = Some(self.storage.open_append(&wal_path(&self.dir))?);
        }
        let file = self.file.as_mut().expect("just opened");
        file.write_all(&frame)?;
        let appended = obs::PhaseExecution::finished(span);
        WAL_APPENDS.incr();
        WAL_APPENDED_BYTES.add(frame.len() as u64);
        self.last_lsn = rec.lsn;
        self.unsynced += 1;

        let must_sync = match self.policy {
            FsyncPolicy::PerBatch => true,
            FsyncPolicy::GroupCommit(every) => self.unsynced >= every.max(1),
        };
        let mut receipt = AppendReceipt {
            bytes: frame.len() as u64,
            phases: vec![appended],
            synced: false,
        };
        if must_sync {
            receipt.phases.extend(self.sync()?);
            receipt.synced = true;
        }
        Ok(receipt)
    }

    /// Fsyncs pending appends now (a group-commit flush point). Returns the
    /// `wal_fsync` phase record, or `None` when no append is pending (every
    /// append is already synced, or no append handle is open: nothing to
    /// fsync, so no span is recorded either).
    pub fn sync(&mut self) -> Result<Option<obs::PhaseExecution>, DurableError> {
        let Some(file) = self.file.as_mut().filter(|_| self.unsynced > 0) else {
            return Ok(None);
        };
        let span = obs::Span::enter("durable", obs::phase::WAL_FSYNC).n(self.unsynced);
        file.sync()?;
        let synced = obs::PhaseExecution::finished(span);
        WAL_FSYNCS.incr();
        WAL_FSYNC_SECONDS.observe(synced.duration);
        self.unsynced = 0;
        Ok(Some(synced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultStorage;
    use crate::format::crc32;
    use geom::Point2;

    fn rec(lsn: u64, xs: &[f64], deletes: &[u64]) -> WalRecord<2> {
        WalRecord {
            lsn,
            inserts: xs.iter().map(|&x| Point2::new([x, 0.0])).collect(),
            deletes: deletes.to_vec(),
        }
    }

    fn header() -> WalHeader {
        WalHeader {
            dim: 2,
            base_lsn: 0,
            params: Some(DbscanParams::new(0.5, 3)),
        }
    }

    #[test]
    fn append_and_reopen_round_trip() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        let mut wal = Wal::create(storage.shared(), dir, header(), FsyncPolicy::PerBatch).unwrap();
        let r1 = rec(1, &[1.0, 2.0], &[]);
        let r2 = rec(2, &[], &[7]);
        assert!(wal.append(&r1).unwrap().synced);
        wal.append(&r2).unwrap();
        drop(wal);

        let (wal, records) = Wal::open::<2>(storage.shared(), dir, FsyncPolicy::PerBatch).unwrap();
        assert_eq!(records, vec![r1, r2]);
        assert_eq!(wal.last_lsn(), 2);
        assert_eq!(wal.header().params, Some(DbscanParams::new(0.5, 3)));
    }

    #[test]
    fn group_commit_defers_fsyncs() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        let mut wal =
            Wal::create(storage.shared(), dir, header(), FsyncPolicy::GroupCommit(3)).unwrap();
        assert!(!wal.append(&rec(1, &[1.0], &[])).unwrap().synced);
        assert!(!wal.append(&rec(2, &[2.0], &[])).unwrap().synced);
        assert!(wal.append(&rec(3, &[3.0], &[])).unwrap().synced);

        // A crash before the group fsync loses the unsynced suffix only.
        let mut wal2 = Wal::create(
            storage.shared(),
            dir,
            header(),
            FsyncPolicy::GroupCommit(10),
        )
        .unwrap();
        wal2.append(&rec(1, &[9.0], &[])).unwrap();
        let rebooted = storage.durable_clone();
        let (_, records) = Wal::open::<2>(rebooted.shared(), dir, FsyncPolicy::PerBatch).unwrap();
        assert_eq!(records, Vec::<WalRecord<2>>::new());
    }

    #[test]
    fn torn_tail_is_truncated_mid_file_flip_is_typed() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        let mut wal = Wal::create(storage.shared(), dir, header(), FsyncPolicy::PerBatch).unwrap();
        for lsn in 1..=3 {
            wal.append(&rec(lsn, &[lsn as f64], &[])).unwrap();
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let good = storage.read(&path).unwrap();

        // Torn tail: half of the last record is missing → silent truncate.
        let torn = good[..good.len() - 9].to_vec();
        let mut f = storage.create(&path).unwrap();
        f.write_all(&torn).unwrap();
        f.sync().unwrap();
        drop(f);
        let (_, records) = Wal::open::<2>(storage.shared(), dir, FsyncPolicy::PerBatch).unwrap();
        assert_eq!(
            records.len(),
            2,
            "records 1–2 survive, the torn 3rd is dropped"
        );
        // The truncation is durable: reopening parses cleanly to the end.
        let (_, records) = Wal::open::<2>(storage.shared(), dir, FsyncPolicy::PerBatch).unwrap();
        assert_eq!(records.len(), 2);

        // Mid-file flip: corrupt record 2's payload while record 3 is
        // intact after it → typed Corrupt at lsn 2, not a truncation.
        let mut flipped = good.clone();
        let header_len = declared_frame_len(&good).unwrap();
        let r1_len = declared_frame_len(&good[header_len..]).unwrap();
        let r2_at = header_len + r1_len;
        flipped[r2_at + 12] ^= 0x01;
        let mut f = storage.create(&path).unwrap();
        f.write_all(&flipped).unwrap();
        f.sync().unwrap();
        drop(f);
        match Wal::open::<2>(storage.shared(), dir, FsyncPolicy::PerBatch) {
            Err(DurableError::Corrupt { lsn: Some(2), .. }) => {}
            Err(other) => panic!("expected Corrupt at lsn 2, got {other:?}"),
            Ok((_, records)) => panic!("expected Corrupt at lsn 2, got {} records", records.len()),
        }
    }

    #[test]
    fn header_version_and_magic_are_checked() {
        let storage = FaultStorage::new();
        let dir = Path::new("/store");
        Wal::create(storage.shared(), dir, header(), FsyncPolicy::PerBatch).unwrap();
        let path = dir.join(WAL_FILE);
        let good = storage.read(&path).unwrap();

        // Version bump → VersionMismatch (the version field sits after the
        // 4-byte section length and 5 magic bytes; recompute the crc so the
        // section parses and the *semantic* check fires).
        let mut bad = good.clone();
        bad[4 + 5] = 9;
        let payload_len = u32::from_le_bytes(bad[..4].try_into().unwrap()) as usize;
        let crc = crc32(&bad[4..4 + payload_len]).to_le_bytes();
        bad[4 + payload_len..4 + payload_len + 4].copy_from_slice(&crc);
        let mut f = storage.create(&path).unwrap();
        f.write_all(&bad).unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(matches!(
            Wal::open::<2>(storage.shared(), dir, FsyncPolicy::PerBatch),
            Err(DurableError::VersionMismatch {
                found: 9,
                expected: 1
            })
        ));
    }
}
