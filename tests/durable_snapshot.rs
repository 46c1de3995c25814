//! Store snapshots on the real filesystem: `init_store` over an existing
//! store replaces its snapshot atomically (write a temporary, rename it
//! over), a missing store is an I/O error, and a store read at the wrong
//! dimension is a typed corruption error rather than misread floats.

use dbscan::{ClusterSession, DurableOptions};
use dbscan_durable::{init_store, read_store_snapshot, DurableError, RealStorage};
use geom::Point;
use rand::prelude::*;
use std::path::PathBuf;

fn random_points<const D: usize>(n: usize, extent: f64, rng: &mut StdRng) -> Vec<Point<D>> {
    (0..n)
        .map(|_| {
            let mut coords = [0.0; D];
            for c in coords.iter_mut() {
                *c = rng.gen_range(0.0..extent);
            }
            Point::new(coords)
        })
        .collect()
}

/// A fresh directory per test, so reruns and parallel tests never share one.
fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("store_snapshots")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn persist_overwrites_atomically_and_missing_files_are_io_errors() {
    let mut rng = StdRng::seed_from_u64(31);
    let storage = RealStorage::shared();
    let base = tmp("overwrite");
    let dir = base.join("store");

    // First image: 60 points. Second image over the same store: 90 points.
    // The replace is atomic, so the store always holds one complete image.
    init_store(&storage, &dir, random_points::<2>(60, 3.0, &mut rng), None).unwrap();
    let second = random_points::<2>(90, 3.0, &mut rng);
    init_store(&storage, &dir, second.clone(), None).unwrap();

    let snapshot = read_store_snapshot::<2>(&storage, &dir).unwrap().unwrap();
    assert_eq!(snapshot.points, second);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(
        files,
        ["snapshot.0.bin"],
        "one complete image, no temporary"
    );
    let session = ClusterSession::open_durable(&dir, DurableOptions::default()).unwrap();
    assert_eq!(session.num_points(), 90);

    let missing = base.join("does_not_exist");
    assert!(matches!(
        read_store_snapshot::<2>(&storage, &missing),
        Err(DurableError::Io(_))
    ));
    assert!(matches!(
        ClusterSession::open_durable(&missing, DurableOptions::default()),
        Err(dbscan::Error::Io(_))
    ));
}

#[test]
fn wrong_dimension_load_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(41);
    let storage = RealStorage::shared();
    let dir = tmp("dim_mismatch");
    init_store(&storage, &dir, random_points::<3>(50, 3.0, &mut rng), None).unwrap();
    // Reading a 3-dimensional store as 2-dimensional must fail with a
    // typed corruption error naming the mismatch, not misread the floats.
    assert!(matches!(
        read_store_snapshot::<2>(&storage, &dir),
        Err(DurableError::Corrupt { .. })
    ));
    // The facade reads the store's own dimension from its header.
    let session = ClusterSession::open_durable(&dir, DurableOptions::default()).unwrap();
    assert_eq!((session.dim(), session.num_points()), (3, 50));
}
