//! Durable snapshots: a versioned, checksummed binary image of an engine
//! [`Snapshot`] (flat coordinates, the cached spatial indexes' CSR
//! segments, index generations) or of a streaming episode's live set.
//!
//! ## On-disk layout (`snapshot.<base_lsn>.bin`)
//!
//! ```text
//! [header section]  magic "DBSNP" · version · dim · base_lsn · params ·
//!                   next_ext_id · n_points · n_indexes
//! [points section]  flat f64 coordinates · external ids
//! [index section]*  generation · ε · cell method · point_ids · cells
//!                   (start/len/bbox/key) · grid origin · CSR adjacency
//! ```
//!
//! Every section is `[len][payload][crc32]` ([`crate::format`]); writers
//! commit with write-to-temporary → fsync → rename → directory fsync, so a
//! reader only ever sees a fully written file or the previous one.
//!
//! The partition's reordered point array is *not* stored: `point_ids` maps
//! reordered slots to master-array indices, so the loader rebuilds the
//! reordered copy from the points section — the file stores each coordinate
//! once no matter how many indexes are cached.

use crate::error::DurableError;
use crate::format::{read_section, Dec, Enc};
use crate::storage::Storage;
use dbscan_engine::{Engine, Snapshot};
use geom::{BoundingBox, Point};
use pardbscan::{CellMethod, DbscanParams, SpatialIndex};
use spatial::{CellInfo, CellPartition, GridIndex, NeighborGraph};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every snapshot header.
pub const SNAPSHOT_MAGIC: &[u8; 5] = b"DBSNP";
/// The format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The logical content of a snapshot file, decoupled from both the engine
/// and streaming in-memory shapes so one format serves both.
pub struct SnapshotData<const D: usize> {
    /// Every WAL record with `lsn <= base_lsn` is already folded in.
    pub base_lsn: u64,
    /// Parameters of the episode that wrote the snapshot (`None` for an
    /// idle / engine-only store).
    pub params: Option<DbscanParams>,
    /// Next external id the durable store will assign.
    pub next_ext_id: u64,
    /// The live points, ascending by external id.
    pub points: Vec<Point<D>>,
    /// `ext_ids[i]` is the external id of `points[i]` (strictly
    /// increasing).
    pub ext_ids: Vec<u64>,
    /// Cached spatial indexes to rehydrate, with their generation stamps.
    pub indexes: Vec<(u64, SpatialIndex<D>)>,
}

fn cell_method_tag(m: CellMethod) -> u8 {
    match m {
        CellMethod::Grid => 0,
        CellMethod::Box => 1,
    }
}

fn cell_method_from_tag(tag: u8) -> Result<CellMethod, DurableError> {
    match tag {
        0 => Ok(CellMethod::Grid),
        1 => Ok(CellMethod::Box),
        t => Err(DurableError::corrupt(
            None,
            format!("snapshot index: unknown cell method tag {t}"),
        )),
    }
}

fn encode_index<const D: usize>(generation: u64, index: &SpatialIndex<D>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u64(generation);
    enc.f64(index.eps);
    enc.u8(cell_method_tag(index.cell_method));

    let part = &index.partition;
    enc.usize(part.point_ids.len());
    for &id in part.point_ids.iter() {
        enc.usize(id);
    }
    enc.usize(part.cells.len());
    for cell in part.cells.iter() {
        enc.usize(cell.start);
        enc.usize(cell.len);
        for &c in &cell.bbox.lo {
            enc.f64(c);
        }
        for &c in &cell.bbox.hi {
            enc.f64(c);
        }
        match cell.key {
            Some(key) => {
                enc.u8(1);
                for &k in &key {
                    enc.i64(k);
                }
            }
            None => enc.u8(0),
        }
    }
    match &part.grid_index {
        Some(grid) => {
            enc.u8(1);
            for &c in grid.origin() {
                enc.f64(c);
            }
        }
        None => enc.u8(0),
    }

    enc.usize(index.neighbors.num_cells());
    enc.usize(index.neighbors.num_edges());
    for c in 0..index.neighbors.num_cells() {
        enc.usize(index.neighbors.degree(c));
    }
    for c in 0..index.neighbors.num_cells() {
        for &t in index.neighbors.of(c) {
            enc.usize(t);
        }
    }
    enc.into_section()
}

fn decode_index<const D: usize>(
    payload: &[u8],
    master: &[Point<D>],
) -> Result<(u64, SpatialIndex<D>), DurableError> {
    let n = master.len();
    let mut dec = Dec::new(payload, "snapshot index");
    let generation = dec.u64()?;
    let eps = dec.f64()?;
    if !(eps.is_finite() && eps > 0.0) {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot index: non-positive ε {eps}"),
        ));
    }
    let cell_method = cell_method_from_tag(dec.u8()?)?;

    let n_ids = dec.len(n)?;
    if n_ids != n {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot index: {n_ids} point ids for {n} points"),
        ));
    }
    let mut point_ids = Vec::with_capacity(n_ids);
    let mut seen = vec![false; n];
    for _ in 0..n_ids {
        let id = dec.len(n.saturating_sub(1))?;
        if std::mem::replace(&mut seen[id], true) {
            return Err(DurableError::corrupt(
                None,
                format!("snapshot index: point id {id} appears twice"),
            ));
        }
        point_ids.push(id);
    }
    let points: Vec<Point<D>> = point_ids.iter().map(|&id| master[id]).collect();

    let n_cells = dec.len(n)?;
    let mut cells = Vec::with_capacity(n_cells);
    let mut keys: Vec<[i64; D]> = Vec::new();
    let mut covered = 0usize;
    for _ in 0..n_cells {
        let start = dec.len(n)?;
        let len = dec.len(n)?;
        if start != covered || len == 0 || start + len > n {
            return Err(DurableError::corrupt(
                None,
                format!("snapshot index: cell range {start}+{len} breaks contiguity at {covered}"),
            ));
        }
        covered += len;
        let mut lo = [0.0f64; D];
        let mut hi = [0.0f64; D];
        for c in lo.iter_mut() {
            *c = dec.f64()?;
        }
        for c in hi.iter_mut() {
            *c = dec.f64()?;
        }
        // Negated `le`, not `>`: a NaN bound must also fail validation.
        if (0..D).any(|i| !lo[i].le(&hi[i])) {
            return Err(DurableError::corrupt(
                None,
                "snapshot index: inverted cell bounding box".to_string(),
            ));
        }
        let key = match dec.u8()? {
            0 => None,
            1 => {
                let mut k = [0i64; D];
                for v in k.iter_mut() {
                    *v = dec.i64()?;
                }
                keys.push(k);
                Some(k)
            }
            t => {
                return Err(DurableError::corrupt(
                    None,
                    format!("snapshot index: cell key flag must be 0 or 1, got {t}"),
                ))
            }
        };
        cells.push(CellInfo {
            start,
            len,
            bbox: BoundingBox::new(lo, hi),
            key,
        });
    }
    if covered != n {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot index: cells cover {covered} of {n} points"),
        ));
    }

    let grid_index = match dec.u8()? {
        0 => None,
        1 => {
            if keys.len() != n_cells {
                return Err(DurableError::corrupt(
                    None,
                    "snapshot index: grid index present but some cells lack keys".to_string(),
                ));
            }
            let mut origin = [0.0f64; D];
            for c in origin.iter_mut() {
                *c = dec.f64()?;
            }
            Some(GridIndex::new(origin, eps, &keys))
        }
        t => {
            return Err(DurableError::corrupt(
                None,
                format!("snapshot index: grid flag must be 0 or 1, got {t}"),
            ))
        }
    };

    let graph_cells = dec.len(n_cells)?;
    if graph_cells != n_cells {
        return Err(DurableError::corrupt(
            None,
            format!("snapshot index: adjacency over {graph_cells} cells, partition has {n_cells}"),
        ));
    }
    let n_edges = dec.len(n_cells.saturating_mul(n_cells))?;
    let mut offsets = Vec::with_capacity(n_cells + 1);
    offsets.push(0usize);
    for _ in 0..n_cells {
        let degree = dec.len(n_edges)?;
        offsets.push(offsets.last().unwrap() + degree);
    }
    if *offsets.last().unwrap() != n_edges {
        return Err(DurableError::corrupt(
            None,
            format!(
                "snapshot index: degrees sum to {} but {n_edges} edges are stored",
                offsets.last().unwrap()
            ),
        ));
    }
    let mut targets = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        targets.push(dec.len(n_cells.saturating_sub(1))?);
    }
    dec.finish()?;

    let index = SpatialIndex {
        eps,
        cell_method,
        partition: CellPartition::from_parts(eps, points, point_ids, cells, grid_index),
        neighbors: Arc::new(NeighborGraph::from_parts(offsets, targets)),
    };
    Ok((generation, index))
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
    header.usize(data.indexes.len());
    let mut out = header.into_section();

    let mut points = Enc::new();
    for &c in &geom::flat_from_points(&data.points) {
        points.f64(c);
    }
    for &id in &data.ext_ids {
        points.u64(id);
    }
    out.extend_from_slice(&points.into_section());

    for (generation, index) in &data.indexes {
        out.extend_from_slice(&encode_index(*generation, index));
    }
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
    let n_indexes = dec.len(1 << 16)?;
    dec.finish()?;

    let (points_payload, mut rest) = read_section(rest, "snapshot points")?;
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

    let mut indexes = Vec::with_capacity(n_indexes);
    for _ in 0..n_indexes {
        let (payload, r) = read_section(rest, "snapshot index")?;
        rest = r;
        indexes.push(decode_index(payload, &points)?);
    }
    if !rest.is_empty() {
        return Err(DurableError::corrupt(
            None,
            format!(
                "snapshot: {} trailing bytes after the last index",
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
        indexes,
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

/// Persistence for engine snapshots: `snapshot.persist(path)`.
pub trait PersistSnapshot {
    /// Writes this snapshot (points plus every cached spatial index) to
    /// `path` atomically.
    fn persist(&self, path: &Path) -> Result<(), DurableError>;
}

impl<const D: usize> PersistSnapshot for Snapshot<D> {
    fn persist(&self, path: &Path) -> Result<(), DurableError> {
        let points = self.points().to_vec();
        let n = points.len() as u64;
        let data = SnapshotData {
            base_lsn: 0,
            params: None,
            next_ext_id: n,
            ext_ids: (0..n).collect(),
            points,
            indexes: self
                .cached_indexes()
                .into_iter()
                .map(|(generation, index)| (generation, (*index).clone()))
                .collect(),
        };
        write_snapshot_file(&crate::storage::RealStorage::shared(), path, &data)
    }
}

/// Loading persisted snapshots back into an engine: `engine.load(path)`.
pub trait LoadSnapshot {
    /// Reads the snapshot at `path`, rehydrating the cached indexes with
    /// their original generation stamps (so `EXPLAIN` skip accounting
    /// carries across a restart).
    fn load<const D: usize>(&self, path: &Path) -> Result<Snapshot<D>, DurableError>;
}

impl LoadSnapshot for Engine {
    fn load<const D: usize>(&self, path: &Path) -> Result<Snapshot<D>, DurableError> {
        let data = read_snapshot_file::<D>(&crate::storage::RealStorage::shared(), path)?;
        Ok(self.index_with_prebuilt(data.points, data.indexes))
    }
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
        let index = SpatialIndex::build(&points, 0.5, CellMethod::Grid).unwrap();
        SnapshotData {
            base_lsn: 17,
            params: Some(DbscanParams::new(0.5, 4)),
            next_ext_id: 40,
            ext_ids: (0..40).collect(),
            points,
            indexes: vec![(3, index)],
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
        assert_eq!(decoded.indexes.len(), 1);
        let (generation, index) = &decoded.indexes[0];
        assert_eq!(*generation, 3);
        assert_eq!(index.eps, 0.5);
        index
            .partition
            .validate()
            .expect("rehydrated partition is consistent");
        assert_eq!(
            index.neighbors.to_lists(),
            data.indexes[0].1.neighbors.to_lists()
        );
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
