//! Labels are identical at every worker-pool width.
//!
//! The pool reads `RAYON_NUM_THREADS` once per process, so the test
//! re-executes its own binary: each child runs [`fingerprint_child`] at a
//! pinned width and prints its fingerprint, which must equal the parent's
//! at the ambient width. The fingerprint covers `dbscan::cluster_variant`
//! for every variant `validate_for_dimension` accepts, on SS-simden and
//! SS-varden in 2, 3 and 5 dimensions, and the final labels of a short
//! `ConcurrentSession::update` sequence. At 20k points the per-point
//! parallel loops split across workers.

use datagen::{seed_spreader, SeedSpreaderConfig};
use dbscan::{cluster_variant, ConcurrentSession, Labels, Params, PointCloud, VariantConfig};
use geom::{flat_from_points, Point};
use pardbscan::{CellGraphMethod, CellMethod};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::{Command, Stdio};

const N: usize = 20_000;
const PARAMS: Params = Params {
    eps: 2_000.0,
    min_pts: 10,
};
/// Prefixes of the lines a child prints among the harness output.
const WIDTH: &str = "pool width: ";
const MARK: &str = "fingerprint: ";

fn digest(labels: &Labels) -> u64 {
    let mut hasher = DefaultHasher::new();
    for i in 0..labels.len() {
        (labels.is_core(i), labels.clusters_of(i)).hash(&mut hasher);
    }
    hasher.finish()
}

fn cloud<const D: usize>(points: &[Point<D>]) -> PointCloud {
    PointCloud::new(D, flat_from_points(points)).expect("generated coordinates are finite")
}

fn fingerprint_dimension<const D: usize>(out: &mut Vec<String>) {
    let mut variants = vec![
        VariantConfig::exact(),
        VariantConfig::exact_qt(),
        VariantConfig::approx(0.01),
        VariantConfig::approx_qt(0.01),
    ];
    for cell in [CellMethod::Grid, CellMethod::Box] {
        for graph in [
            CellGraphMethod::Bcp,
            CellGraphMethod::QuadTreeBcp,
            CellGraphMethod::Usec,
            CellGraphMethod::Delaunay,
        ] {
            variants.push(VariantConfig::two_d(cell, graph));
        }
    }
    variants.retain(|variant| variant.validate_for_dimension(D).is_ok());
    for (family, config) in [
        ("simden", SeedSpreaderConfig::simden(N, 0xD0 + D as u64)),
        ("varden", SeedSpreaderConfig::varden(N, 0xE0 + D as u64)),
    ] {
        let points = cloud(&seed_spreader::<D>(&config));
        for &variant in &variants {
            let labels = cluster_variant(&points, PARAMS, variant).expect("accepted variant");
            let name = variant.paper_name();
            let clusters = labels.num_clusters();
            out.push(format!(
                "{D}d-{family} {name}: {clusters} clusters {:x}",
                digest(&labels)
            ));
        }
    }
}

fn fingerprint() -> Vec<String> {
    let mut out = Vec::new();
    fingerprint_dimension::<2>(&mut out);
    fingerprint_dimension::<3>(&mut out);
    fingerprint_dimension::<5>(&mut out);
    // Four batches, each inserting 500 held-out points and deleting 400
    // live ones.
    let points = seed_spreader::<2>(&SeedSpreaderConfig::varden(N, 0xF2));
    let (base, held_out) = points.split_at(N - 2_000);
    let session = ConcurrentSession::ingest(cloud(base), PARAMS).expect("valid parameters");
    for (batch, inserts) in held_out.chunks(500).enumerate() {
        let deletes: Vec<usize> = (batch * 3_000..batch * 3_000 + 400).collect();
        session.update(&cloud(inserts), &deletes).expect("live ids");
    }
    let labels = session.current().labels().clone();
    out.push(format!(
        "updates: {} clusters {:x}",
        labels.num_clusters(),
        digest(&labels)
    ));
    out
}

#[test]
fn labels_are_identical_at_every_worker_count() {
    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = ["1", "4"]
        .into_iter()
        .map(|threads| {
            let child = Command::new(&exe)
                .args(["--exact", "fingerprint_child", "--ignored", "--nocapture"])
                .env("RAYON_NUM_THREADS", threads)
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn child");
            (threads, child)
        })
        .collect();
    let ambient = fingerprint();
    assert!(ambient.iter().all(|line| !line.contains(": 0 clusters")));
    for (threads, child) in children {
        let output = child.wait_with_output().expect("child output");
        assert!(output.status.success(), "child at {threads} threads failed");
        let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
        assert!(stdout.contains(&format!("{WIDTH}{threads}\n")), "{stdout}");
        let pinned: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix(MARK))
            .collect();
        assert_eq!(pinned, ambient, "labels differ at {threads} worker threads");
    }
}

/// The child half of [`labels_are_identical_at_every_worker_count`].
#[test]
#[ignore = "run by labels_are_identical_at_every_worker_count in a child process"]
fn fingerprint_child() {
    println!("{WIDTH}{}", rayon::current_num_threads());
    for line in fingerprint() {
        println!("{MARK}{line}");
    }
}
