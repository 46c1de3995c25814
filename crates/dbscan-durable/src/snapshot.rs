//! Durable snapshots: a versioned, checksummed binary image of a durable
//! store's live set.
//!
//! ## On-disk layout (`snapshot.<base_lsn>.bin`)
//!
//! ```text
//! [header section]  magic "DBSNP" · version · dim · base_lsn · params ·
//!                   next_ext_id · n_points · n_indexes (always 0)
//! [points section]  flat f64 coordinates · external ids
//! ```
//!
//! Every section is `[len][payload][crc32]` ([`crate::format`]); writers
//! commit with write-to-temporary → fsync → rename → directory fsync, so a
//! reader only ever sees a fully written file or the previous one.
//!
//! No spatial index is stored: the grid partition is rebuilt from the
//! points in O(n) expected work when the store is reopened. The header
//! keeps its index count so version-1 files stay byte-identical; the
//! decoder rejects any count other than 0 as corrupt.

use crate::error::DurableError;
use crate::format::{read_section, Dec, Enc};
use crate::storage::Storage;
use geom::Point;
use pardbscan::DbscanParams;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every snapshot header.
pub const SNAPSHOT_MAGIC: &[u8; 5] = b"DBSNP";
/// The format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The logical content of a snapshot file, decoupled from the streaming
/// clusterer's in-memory shape.
pub struct SnapshotData<const D: usize> {
    /// Every WAL record with `lsn <= base_lsn` is already folded in.
    pub base_lsn: u64,
    /// Parameters of the episode that wrote the snapshot (`None` for an
    /// idle store).
    pub params: Option<DbscanParams>,
    /// Next external id the durable store will assign.
    pub next_ext_id: u64,
    /// The live points, ascending by external id.
    pub points: Vec<Point<D>>,
    /// `ext_ids[i]` is the external id of `points[i]` (strictly
    /// increasing).
    pub ext_ids: Vec<u64>,
}

/// Encodes `data` as the snapshot file byte stream.
pub fn encode_snapshot<const D: usize>(data: &SnapshotData<D>) -> Vec<u8> {
    assert_eq!(data.points.len(), data.ext_ids.len());
    let mut header = Enc::new();
    header.bytes(SNAPSHOT_MAGIC);
    header.u32(SNAPSHOT_VERSION);
    header.u32(D as u32);
    header.u64(data.base_lsn);
    match data.params {
        Some(p) => {
            header.u8(1);
            header.f64(p.eps);
            header.usize(p.min_pts);
        }
        None => {
            header.u8(0);
            header.f64(0.0);
            header.u64(0);
        }
    }
    header.u64(data.next_ext_id);
    header.usize(data.points.len());
    // The index count of the version-1 layout: no index is persisted.
    header.usize(0);
    let mut out = header.into_section();

    let mut points = Enc::new();
    for &c in &geom::flat_from_points(&data.points) {
        points.f64(c);
    }
    for &id in &data.ext_ids {
        points.u64(id);
    }
    out.extend_from_slice(&points.into_section());
    out
}

/// Decodes a snapshot file, verifying every checksum and structural
/// invariant.
pub fn decode_snapshot<const D: usize>(buf: &[u8]) -> Result<SnapshotData<D>, DurableError> {
    let (header_payload, rest) = read_section(buf, "snapshot header")?;
    let mut dec = Dec::new(header_payload, "snapshot header");
    let magic = dec.bytes(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot header: bad magic {magic:02x?}"),
        ));
    }
    let version = dec.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(DurableError::VersionMismatch {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let dim = dec.u32()?;
    if dim != D as u32 {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot header: dimension {dim} but this store is {D}-dimensional"),
        ));
    }
    let base_lsn = dec.u64()?;
    let has_params = dec.u8()?;
    let eps = dec.f64()?;
    let min_pts = dec.len(usize::MAX / 2)?;
    let params = match has_params {
        0 => None,
        1 => Some(DbscanParams::new(eps, min_pts)),
        v => {
            return Err(DurableError::corrupt(
                None,
                format!("snapshot header: params flag must be 0 or 1, got {v}"),
            ))
        }
    };
    let next_ext_id = dec.u64()?;
    let n_points = dec.len(buf.len() / (8 * D).max(1) + 1)?;
    let n_indexes = dec.u64()?;
    if n_indexes != 0 {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot header: {n_indexes} persisted indexes, but snapshots store none"),
        ));
    }
    dec.finish()?;

    let (points_payload, rest) = read_section(rest, "snapshot points")?;
    let mut pdec = Dec::new(points_payload, "snapshot points");
    let mut flat = Vec::with_capacity(n_points * D);
    for _ in 0..n_points * D {
        let c = pdec.f64()?;
        if !c.is_finite() {
            return Err(DurableError::corrupt(
                None,
                "snapshot points: non-finite coordinate".to_string(),
            ));
        }
        flat.push(c);
    }
    let points = geom::points_from_flat::<D>(&flat);
    let mut ext_ids = Vec::with_capacity(n_points);
    let mut prev: Option<u64> = None;
    for _ in 0..n_points {
        let id = pdec.u64()?;
        if id >= next_ext_id || prev.is_some_and(|p| p >= id) {
            return Err(DurableError::corrupt(
                None,
                format!(
                    "snapshot points: external ids not strictly increasing below {next_ext_id}"
                ),
            ));
        }
        prev = Some(id);
        ext_ids.push(id);
    }
    pdec.finish()?;

    if !rest.is_empty() {
        return Err(DurableError::corrupt(
            None,
            format!(
                "snapshot: {} trailing bytes after the points section",
                rest.len()
            ),
        ));
    }
    Ok(SnapshotData {
        base_lsn,
        params,
        next_ext_id,
        points,
        ext_ids,
    })
}

/// Writes `data` at `path` through `storage` with the atomic
/// write-temporary → fsync → rename → directory-fsync commit protocol. The
/// temporary is `path` with `.tmp` appended, so concurrent writes of
/// different files in one directory never share it.
pub fn write_snapshot_file<const D: usize>(
    storage: &Arc<dyn Storage>,
    path: &Path,
    data: &SnapshotData<D>,
) -> Result<(), DurableError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let bytes = encode_snapshot(data);
    let mut file = storage.create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync()?;
    drop(file);
    storage.rename(&tmp, path)?;
    storage.sync_dir(dir)?;
    Ok(())
}

/// Reads and decodes the snapshot file at `path`.
pub fn read_snapshot_file<const D: usize>(
    storage: &Arc<dyn Storage>,
    path: &Path,
) -> Result<SnapshotData<D>, DurableError> {
    decode_snapshot(&storage.read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultStorage;
    use geom::Point2;

    fn sample_data() -> SnapshotData<2> {
        let points: Vec<Point2> = (0..40)
            .map(|i| Point2::new([(i % 8) as f64 * 0.2, (i / 8) as f64 * 0.2]))
            .collect();
        SnapshotData {
            base_lsn: 17,
            params: Some(DbscanParams::new(0.5, 4)),
            next_ext_id: 40,
            ext_ids: (0..40).collect(),
            points,
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let data = sample_data();
        let decoded = decode_snapshot::<2>(&encode_snapshot(&data)).unwrap();
        assert_eq!(decoded.base_lsn, 17);
        assert_eq!(decoded.params, Some(DbscanParams::new(0.5, 4)));
        assert_eq!(decoded.next_ext_id, 40);
        assert_eq!(decoded.points, data.points);
        assert_eq!(decoded.ext_ids, data.ext_ids);
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let bytes = encode_snapshot(&sample_data());
        // Flip one bit in each byte at a stride across the whole file: the
        // decode must fail with a typed error, never panic or mis-decode.
        for at in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            match decode_snapshot::<2>(&bad) {
                Ok(decoded) => {
                    // A flip in a length prefix can relocate section
                    // boundaries yet keep all checksums valid only if the
                    // decoded content is identical — anything else is a
                    // missed corruption.
                    assert_eq!(
                        decoded.points,
                        sample_data().points,
                        "flip at {at} mis-decoded"
                    );
                }
                Err(DurableError::Corrupt { .. } | DurableError::VersionMismatch { .. }) => {}
                Err(other) => panic!("flip at {at}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn a_nonzero_index_count_is_corrupt() {
        // The header's last field is the index count. Rewrite it to 1 and
        // re-checksum the section, so only the count itself is wrong.
        let bytes = encode_snapshot(&sample_data());
        let (payload, rest) = read_section(&bytes, "snapshot header").unwrap();
        let mut header = Enc::new();
        header.bytes(&payload[..payload.len() - 8]);
        header.u64(1);
        let mut bad = header.into_section();
        bad.extend_from_slice(rest);
        match decode_snapshot::<2>(&bad) {
            Err(DurableError::Corrupt { reason, .. }) => {
                assert!(reason.contains("persisted indexes"), "{reason}")
            }
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("a snapshot claiming an index decoded"),
        }
    }

    #[test]
    fn atomic_write_through_storage() {
        let storage = FaultStorage::new();
        let shared = storage.shared();
        let path = Path::new("/store/snapshot.17.bin");
        let data = sample_data();
        write_snapshot_file(&shared, path, &data).unwrap();
        // The committed file is durable: a crash-reboot still reads it.
        let rebooted = storage.durable_clone().shared();
        let decoded = read_snapshot_file::<2>(&rebooted, path).unwrap();
        assert_eq!(decoded.points, data.points);
    }
}
