//! The repository benchmark: three seeded workloads driven through the
//! public APIs of the workspace crates, every output checked against an
//! oracle, end-to-end metrics from an untraced run and per-layer metrics
//! from a separate traced run. See README.md for the metric definitions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster-2d|session-5d|serve-2d --seed N --seconds S --trace 0|1 [--smoke]
//! ```

mod cluster;
mod inputs;
mod report;
mod serve;
mod session;
mod stats;
mod trace;

use report::{Json, Metrics, Record, Tally};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload cluster-2d|session-5d|serve-2d --seed N \
                     --seconds S --trace 0|1 [--smoke]";

/// Each run measures all three segments, so that every end-to-end metric
/// is reported on every workload; the workload's own segment gets this
/// share of `--seconds` and its set-up is the run's `setup_s`, the other
/// two split the rest.
const OWN_SHARE: f64 = 0.4;
/// Length of one measurement round: every segment runs its share of each
/// round in turn.
const ROUND_SECONDS: f64 = 2.0;
/// Fewest samples a tail metric is reported from: with twenty, the highest
/// percentile that keeps ten samples beyond it is at least the median.
const MIN_TAIL_SAMPLES: usize = 20;
/// Set-up repetitions of the workload's own segment (`setup_s` is their
/// median); the other segments set up once.
const SETUP_REPS: usize = 3;
/// How far a traced operation's layer self times plus its remainder may
/// stray from its root span, as a share of the root.
const ACCOUNTING_TOLERANCE: f64 = 0.01;
/// Per-layer counts that repeat exactly for a given seed; two run sets of
/// the same code must agree on them.
const EXACT_COUNTS: [&str; 9] = [
    "spatial.cells",
    "core.kernel_blocks",
    "core.bcp_queries",
    "stream.cells_touched",
    "stream.points_rescanned",
    "stream.connectivity_queries",
    "stream.compactions",
    "durable.wal_bytes_per_batch",
    "serve.response_bytes",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cluster2d,
    Session5d,
    Serve2d,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Cluster2d, Workload::Session5d, Workload::Serve2d];

    fn name(self) -> &'static str {
        match self {
            Workload::Cluster2d => "cluster-2d",
            Workload::Session5d => "session-5d",
            Workload::Serve2d => "serve-2d",
        }
    }
}

/// Input sizes and fixed plans. `--smoke` swaps in tiny inputs that run
/// the same code paths in seconds.
struct Size {
    label: &'static str,
    cluster_n: usize,
    session_n: usize,
    session_batches: usize,
    serve_n: usize,
    serve_batches: usize,
    /// Writer and reader rates (requests/s) of serve-2d.
    serve_rates: [f64; 2],
    traced_cluster_reps: usize,
    traced_session: [usize; 3],
    traced_serve_batches: usize,
    traced_serve_window: Duration,
}

const FULL: Size = Size {
    label: "full",
    cluster_n: 1_000_000,
    session_n: 100_000,
    session_batches: 80,
    serve_n: 200_000,
    serve_batches: 150,
    serve_rates: [15.0, 15.0],
    traced_cluster_reps: 3,
    traced_session: [20, 3, 8],
    traced_serve_batches: 16,
    traced_serve_window: Duration::from_secs(3),
};

const SMOKE: Size = Size {
    label: "smoke",
    cluster_n: 20_000,
    session_n: 4_000,
    session_batches: 40,
    serve_n: 4_000,
    serve_batches: 80,
    serve_rates: [40.0, 40.0],
    traced_cluster_reps: 2,
    traced_session: [6, 2, 4],
    traced_serve_batches: 6,
    traced_serve_window: Duration::from_millis(500),
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: &'static Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, None, &FULL);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            size = &SMOKE;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Growth of registry counter `name` between two snapshots.
pub fn counter(after: &obs::MetricsReport, before: &obs::MetricsReport, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// The directory builds go to: where the benchmark keeps its scratch
/// files and span dumps, inside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout, when it is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".to_string(),
    }
}

/// FNV-1a digest of the sources under test (`crates/` and the root
/// manifests), which identifies the code when there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a64:{hash:016x} over {} files", files.len())
}

/// Runs `op` until `budget` has passed, at least once.
fn repeat_for(budget: Duration, mut op: impl FnMut()) {
    let start = Instant::now();
    loop {
        op();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// The untraced run: every end-to-end metric. The three segments are set
/// up first, then measured in interleaved rounds, so that every metric
/// samples the whole run rather than one stretch of it.
fn end_to_end(args: &Args, work: &Path, tally: &mut Tally, m: &mut Metrics, rec: &mut Record) {
    let started = Instant::now();
    let size = args.size;
    let own = args.workload;
    let reps = |w| if w == own { SETUP_REPS } else { 1 };
    let rounds = ((args.seconds / ROUND_SECONDS).round() as usize).max(1);
    let slice = |w, part: f64| {
        let share = if w == own {
            OWN_SHARE
        } else {
            (1.0 - OWN_SHARE) / 2.0
        };
        Duration::from_secs_f64(args.seconds * share * part / rounds as f64)
    };

    let coords = cluster::input(size.cluster_n, args.seed);
    let (cluster, setup_c) = cluster::Bench::setup(&coords, reps(Workload::Cluster2d), tally);
    let churn_s = session::input(size.session_n, size.session_batches, args.seed);
    let (queries, setup_s) = session::Queries::setup(&churn_s, reps(Workload::Session5d), tally);
    let mut update_session = session::Updates::session(&churn_s, tally);
    let churn_v = serve::input(size.serve_n, size.serve_batches, args.seed);
    let rates = size.serve_rates;
    let (serve, setup_v) = serve::Bench::setup(
        &churn_v,
        reps(Workload::Serve2d),
        rates,
        &work.join("serve"),
        tally,
    );
    let setup = match own {
        Workload::Cluster2d => setup_c,
        Workload::Session5d => setup_s,
        Workload::Serve2d => setup_v,
    };
    report::put_median(m, "setup_s", &setup, "s");
    rec.set(
        "setup_samples_s",
        Json::Arr(setup.into_iter().map(Json::Num).collect()),
    );
    let updates = update_session
        .as_mut()
        .and_then(|s| session::Updates::start(s, tally));
    let (Some(mut cluster), Some(mut queries), Some(mut updates), Some(mut serve)) =
        (cluster, queries, updates, serve)
    else {
        tally.check(false, || "a segment failed to set up".into());
        return;
    };

    eprintln!("perfbench: set-up done after {:.1} s", secs(started));
    let [q_share, s_share] = session::SHARES;
    for _ in 0..rounds {
        repeat_for(slice(Workload::Cluster2d, 1.0), || cluster.step(tally));
        repeat_for(slice(Workload::Session5d, q_share), || queries.query(tally));
        repeat_for(slice(Workload::Session5d, s_share), || queries.sweep(tally));
        for _ in 0..session::APPLIES_PER_ROUND {
            updates.apply(&churn_s, tally);
        }
        serve.step(&churn_v, slice(Workload::Serve2d, 1.0));
    }
    // Tail metrics need at least eleven samples, whatever the budget.
    while queries.count() < MIN_TAIL_SAMPLES {
        queries.query(tally);
    }
    while !serve.has_tails(&churn_v, MIN_TAIL_SAMPLES) {
        serve.step(&churn_v, slice(Workload::Serve2d, 1.0));
    }
    rec.set("rounds", Json::Int(rounds as u64));
    eprintln!("perfbench: rounds done after {:.1} s", secs(started));
    cluster.finish(&coords, tally, m, rec);
    session::finish(queries, updates, &churn_s, tally, m, rec);
    serve.finish(&churn_v, tally, m, rec);
    eprintln!("perfbench: checks done after {:.1} s", secs(started));
}

/// The traced run: every per-layer metric.
fn per_layer(args: &Args, work: &Path, tally: &mut Tally, m: &mut Metrics, rec: &mut Record) {
    let size = args.size;
    let mut tracer = trace::Tracer::default();
    let coords = cluster::input(size.cluster_n, args.seed);
    let cluster_overhead =
        cluster::traced(&coords, size.traced_cluster_reps, &mut tracer, tally, m);
    drop(coords);
    let churn = session::input(size.session_n, size.session_batches, args.seed);
    let s = session::traced(&churn, size.traced_session, &mut tracer, tally, m);
    drop(churn);
    let churn = serve::input(size.serve_n, size.serve_batches, args.seed);
    let v = serve::traced(
        &churn,
        size.traced_serve_batches,
        size.serve_rates,
        size.traced_serve_window,
        &work.join("serve"),
        &mut tracer,
        tally,
        m,
    );
    let cached: Vec<f64> = s.cached.iter().chain(&v.cached).copied().collect();
    let built: Vec<f64> = s.built.iter().chain(&v.built).copied().collect();
    report::put_median(m, "engine.query_s.cached_index", &cached, "s");
    report::put_median(m, "engine.query_s.built_index", &built, "s");
    let ratio = |hits: usize, misses: usize| hits as f64 / (hits + misses).max(1) as f64;
    let (a, b) = (s.cache, v.cache);
    let partition = ratio(
        a.partition_hits + b.partition_hits,
        a.partition_misses + b.partition_misses,
    );
    m.put("engine.partition_hit_ratio", partition, "ratio");
    let core = ratio(a.core_hits + b.core_hits, a.core_misses + b.core_misses);
    m.put("engine.core_hit_ratio", core, "ratio");
    m.put("serve.generator_lag_ms", v.lag_ms, "ms");
    let overhead = match args.workload {
        Workload::Cluster2d => cluster_overhead,
        Workload::Session5d => s.overhead,
        Workload::Serve2d => v.overhead,
    };
    m.put("trace.overhead", overhead, "ratio");

    let accounting = tracer.accounting(ACCOUNTING_TOLERANCE);
    for a in &accounting {
        tally.check(a.within_tolerance, || {
            format!("{}: spans do not add up to the root", a.op)
        });
        eprintln!(
            "accounting {:<16} n={:<3} root {:>10.6} s = layers {:>10.6} s + unaccounted {:>10.6} s",
            a.op, a.count, a.root_s, a.children_self_s, a.unaccounted_s
        );
        if a.op == "cluster" {
            m.put("dbscan.unaccounted_s", a.unaccounted_s, "s");
        }
    }
    rec.set(
        "accounting",
        Json::Arr(accounting.iter().map(|a| a.to_json()).collect()),
    );
    rec.set("accounting_tolerance", Json::Num(ACCOUNTING_TOLERANCE));
    let exact = EXACT_COUNTS
        .iter()
        .map(|&n| {
            (
                n.to_string(),
                m.get(n).map_or(Json::Str("missing".into()), Json::Num),
            )
        })
        .collect();
    rec.set("exact_counts", Json::Obj(exact));

    let dir = target_dir().join("perfbench-traces");
    let file = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, tracer.to_lines()));
    rec.set(
        "spans_file",
        Json::Str(match written {
            Ok(()) => file.display().to_string(),
            Err(e) => format!("not written: {e}"),
        }),
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let work = WorkDir(
        target_dir()
            .join("perfbench-work")
            .join(std::process::id().to_string()),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        std::process::exit(2);
    }
    let (mut tally, mut m, mut rec) = (Tally::default(), Metrics::default(), Record::default());
    rec.set("workload", Json::Str(args.workload.name().into()));
    rec.set("seed", Json::Int(args.seed));
    rec.set("seconds", Json::Num(args.seconds));
    rec.set("trace", Json::Bool(args.trace));
    rec.set("size", Json::Str(args.size.label.into()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rec.set("nproc", Json::Int(nproc as u64));
    rec.set("threads", Json::Int(rayon::current_num_threads() as u64));
    rec.set(
        "backend",
        Json::Str(dbscan::pardbscan::active_backend().label().into()),
    );
    rec.set("obs_mode", Json::Str(obs::mode().label().into()));
    rec.set("git_commit", Json::Str(git_commit()));
    rec.set("source_digest", Json::Str(source_digest()));
    rec.set("rustc", Json::Str(env!("PERFBENCH_RUSTC_VERSION").into()));
    rec.set("own_share", Json::Num(OWN_SHARE));

    if args.trace {
        per_layer(&args, &work.0, &mut tally, &mut m, &mut rec);
    } else {
        end_to_end(&args, &work.0, &mut tally, &mut m, &mut rec);
        match peak_rss_mib() {
            Some(mib) => m.put("peak_rss_mb", mib, "MiB"),
            None => tally.check(false, || "VmHWM unavailable".into()),
        }
    }
    drop(work);
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    rec.set("fail_ratio", Json::Num(fail_ratio));
    rec.set(
        "failures",
        Json::Arr(tally.failures.iter().cloned().map(Json::Str).collect()),
    );
    rec.set("wall_s", Json::Num(secs(started)));
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        Json::Obj(vec![("run_record".into(), rec.to_json())]).render()
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(tally.attempted)),
        ("failed".into(), Json::Int(tally.failed)),
        ("metrics".into(), m.to_json()),
    ]);
    println!("{}", result.render());
    if !correct {
        for f in &tally.failures {
            eprintln!("perfbench: FAILED {f}");
        }
        std::process::exit(1);
    }
}
