//! serve-2d: `dbscan-serve` in-process on loopback with one durable
//! dataset of 2D SS-simden points. A writer connection posts churn batches
//! and a reader connection alternates label fetches and an off-parameter
//! query, both open-loop at fixed rates; each latency is timed from the
//! request's due time.

use crate::inputs::{sub_seed, Churn};
use crate::report::{put_median, put_tail, Json, Metrics, Record, Tally};
use crate::trace::Tracer;
use crate::{counter, mean, secs};
use dbscan::{CacheStats, ConcurrentSession, DurableOptions, Params, PointCloud};
use dbscan_serve::http::{write_response, Request, Response};
use dbscan_serve::{api, AppState, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

pub const DIM: usize = 2;
pub const EPS: f64 = 1000.0;
pub const MIN_PTS: usize = 10;
/// The reader's off-parameter query: same ε, a minPts the dataset does not
/// maintain, so each new generation has to cluster it afresh.
pub const QUERY_MIN_PTS: usize = 20;

/// `n` base points, with churn batches of n/200 inserts plus n/200
/// deletes from one region each (1% of n per batch).
pub fn input(n: usize, batches: usize, seed: u64) -> Churn {
    let half = (n / 200).max(1);
    Churn::simden::<DIM>(n, batches, half, half, sub_seed(seed, 3))
}

/// A keep-alive HTTP/1.1 client on one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        frame.extend_from_slice(body);
        self.writer.write_all(&frame)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("connection closed in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(std::io::Error::other)?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn join<T: ToString>(items: impl Iterator<Item = T>) -> String {
    items.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

fn update_body(churn: &Churn, k: usize) -> Vec<u8> {
    let (inserts, deletes) = churn.batch(k);
    format!(
        "{{\"insert\": [{}], \"delete\": [{}]}}",
        join(inserts.iter()),
        join(deletes.iter())
    )
    .into_bytes()
}

/// The unsigned integer that follows `key` in a JSON body.
fn number_after(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn generation(body: &[u8]) -> Option<u64> {
    number_after(body, "\"generation\": ")
}

/// Whether a labels or query response carries exactly `expected`.
fn carries_labels(body: &[u8], expected: &dbscan::Labels) -> bool {
    body.ends_with(format!("\"labels\": {}}}", expected.to_json()).as_bytes())
}

fn oracle(churn: &Churn, batches: usize, min_pts: usize) -> dbscan::Labels {
    let live = PointCloud::new(DIM, churn.live_coords(batches)).expect("finite coordinates");
    dbscan::cluster(&live, Params::new(EPS, min_pts)).expect("valid parameters")
}

fn create_path(name: &str) -> String {
    format!("/v1/datasets/{name}?dim={DIM}&eps={EPS}&min_pts={MIN_PTS}&durable=1")
}

fn query_path(name: &str) -> String {
    format!("/v1/datasets/{name}/query?eps={EPS}&min_pts={QUERY_MIN_PTS}")
}

/// One open-loop request: due, sent and done times (s from the start of
/// the schedule), status and body.
struct Sample {
    due: f64,
    sent: f64,
    done: f64,
    status: u16,
    generation: Option<u64>,
    /// The response body where the caller asked to keep it, else empty.
    body: Vec<u8>,
}

/// Sends `count` requests at `rate`/s, the first `offset` s after `t0`,
/// each when it falls due (or at once if the previous one ran late).
/// Bodies are kept only where `keep` says so.
fn open_loop(
    client: &mut Client,
    t0: Instant,
    offset: f64,
    rate: f64,
    count: usize,
    request: impl Fn(usize) -> (&'static str, String, Vec<u8>),
    keep: impl Fn(usize) -> bool,
) -> Vec<Sample> {
    (0..count)
        .map(|j| {
            let due = offset + j as f64 / rate;
            let wait = due - t0.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let (method, path, body) = request(j);
            let sent = t0.elapsed().as_secs_f64();
            let (status, body) = client
                .request(method, &path, &body)
                .unwrap_or((0, Vec::new()));
            let done = t0.elapsed().as_secs_f64();
            Sample {
                due,
                sent,
                done,
                status,
                generation: generation(&body),
                body: if keep(j) { body } else { Vec::new() },
            }
        })
        .collect()
}

/// Open-loop traffic against one dataset, run in slices: a writer
/// connection posting churn batches and a reader connection alternating
/// label fetches (even reads) and the off-parameter query (odd reads).
struct Traffic {
    writer: Client,
    reader: Client,
    writes: Vec<Sample>,
    reads: Vec<Sample>,
    /// The first and the latest query response, for the oracle.
    queries: Vec<Sample>,
}

impl Traffic {
    fn connect(addr: &str) -> std::io::Result<Traffic> {
        Ok(Traffic {
            writer: Client::connect(addr)?,
            reader: Client::connect(addr)?,
            writes: Vec::new(),
            reads: Vec::new(),
            queries: Vec::new(),
        })
    }

    /// Runs both clients for `slice` at `rates`; the schedule starts 20 ms
    /// in, once both threads run.
    fn slice(&mut self, name: &str, churn: &Churn, rates: [f64; 2], slice: Duration) {
        let first_write = self.writes.len();
        let room = churn.batches() - first_write;
        let writes = ((rates[0] * slice.as_secs_f64()).round() as usize)
            .clamp(1, room.max(1))
            .min(room);
        let reads = ((rates[1] * slice.as_secs_f64()).round() as usize).max(1);
        let bodies: Vec<Vec<u8>> = (first_write..first_write + writes)
            .map(|k| update_body(churn, k))
            .collect();
        let first_read = self.reads.len();
        let paths = [format!("/v1/datasets/{name}/labels"), query_path(name)];
        let update_path = format!("/v1/datasets/{name}/updates");
        let t0 = Instant::now();
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let (w, r) = std::thread::scope(|s| {
            let w = s.spawn(|| {
                open_loop(
                    writer,
                    t0,
                    0.02,
                    rates[0],
                    writes,
                    |k| ("POST", update_path.clone(), bodies[k].clone()),
                    |_| true,
                )
            });
            let r = open_loop(
                reader,
                t0,
                0.02 + 0.5 / rates[1],
                rates[1],
                reads,
                |j| ("GET", paths[(first_read + j) % 2].clone(), Vec::new()),
                |j| (first_read + j) % 2 == 1,
            );
            (w.join().expect("writer thread panicked"), r)
        });
        self.writes.extend(w);
        for mut sample in r {
            if !sample.body.is_empty() {
                let kept = Sample {
                    body: std::mem::take(&mut sample.body),
                    ..sample
                };
                if self.queries.len() == 2 {
                    self.queries.pop();
                }
                self.queries.push(kept);
            }
            self.reads.push(sample);
        }
    }

    /// Checks every response; returns the number of batches applied.
    fn check(&self, churn: &Churn, tally: &mut Tally) -> usize {
        for (k, s) in self.writes.iter().enumerate() {
            let ok = s.status == 200
                && s.generation == Some(k as u64 + 1)
                && number_after(&s.body, "\"inserted_ids\": [")
                    == Some(churn.first_insert_id(k) as u64);
            tally.check(ok, || {
                format!(
                    "update {k}: status {} generation {:?}",
                    s.status, s.generation
                )
            });
        }
        let mut last = 0;
        for (j, s) in self.reads.iter().enumerate() {
            let g = s.generation.unwrap_or(0);
            tally.check(s.status == 200 && g >= last, || {
                format!("read {j}: status {} generation {g} after {last}", s.status)
            });
            last = last.max(g);
        }
        for s in &self.queries {
            let g = s.generation.unwrap_or(0) as usize;
            tally.check(
                carries_labels(&s.body, &oracle(churn, g, QUERY_MIN_PTS)),
                || format!("query at generation {g} differs from dbscan::cluster of its live set"),
            );
        }
        self.writes.len()
    }

    /// Latencies (s) of updates, label reads and queries, timed from the
    /// due time or from the send.
    fn latencies(&self, from_due: bool) -> [Vec<f64>; 3] {
        let lat = |s: &Sample| s.done - if from_due { s.due } else { s.sent };
        [
            self.writes.iter().map(lat).collect(),
            self.reads.iter().step_by(2).map(lat).collect(),
            self.reads.iter().skip(1).step_by(2).map(lat).collect(),
        ]
    }

    fn lags(&self) -> Vec<f64> {
        self.writes
            .iter()
            .chain(&self.reads)
            .map(|s| s.sent - s.due)
            .collect()
    }
}

fn start(work: &Path, tally: &mut Tally) -> Option<(ServerHandle, String)> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(work.to_path_buf()),
    };
    let server = tally.ok(
        "Server::spawn",
        Server::bind(config).and_then(Server::spawn),
    )?;
    let addr = server.addr().to_string();
    Some((server, addr))
}

/// Fetches the final labels and checks them against the oracle, then
/// stops the server.
fn finish(
    server: ServerHandle,
    addr: &str,
    name: &str,
    churn: &Churn,
    batches: usize,
    tally: &mut Tally,
) {
    let fetched = Client::connect(addr)
        .and_then(|mut c| c.request("GET", &format!("/v1/datasets/{name}/labels"), b""));
    if let Some((status, body)) = tally.ok("GET labels", fetched) {
        let ok = status == 200
            && generation(&body) == Some(batches as u64)
            && carries_labels(&body, &oracle(churn, batches, MIN_PTS));
        tally.check(ok, || {
            "final labels differ from dbscan::cluster of the live set".into()
        });
    }
    tally.ok("ServerHandle::stop", server.stop());
}

/// Creates the durable dataset `serve0`, `serve1`, ... `reps` times over
/// HTTP (dropping the previous one), and returns the create times.
fn create(addr: &str, churn: &Churn, reps: usize, tally: &mut Tally) -> (String, Vec<f64>) {
    let body = format!("[{}]", join(churn.base.iter())).into_bytes();
    let mut setup = Vec::new();
    let mut name = String::new();
    let Some(mut admin) = tally.ok("connect", Client::connect(addr)) else {
        return (name, setup);
    };
    for r in 0..reps {
        if r > 0 {
            let dropped = admin.request("DELETE", &format!("/v1/datasets/{name}"), b"");
            tally.check(matches!(dropped, Ok((204, _))), || {
                format!("DELETE {name}: {dropped:?}")
            });
        }
        name = format!("serve{r}");
        let t = Instant::now();
        let created = admin.request("PUT", &create_path(&name), &body);
        setup.push(secs(t));
        tally.check(matches!(created, Ok((201, _))), || {
            format!("PUT {name} failed")
        });
    }
    (name, setup)
}

/// The untraced segment: a server, its dataset and the open-loop traffic.
pub struct Bench {
    server: ServerHandle,
    addr: String,
    name: String,
    traffic: Traffic,
    rates: [f64; 2],
}

impl Bench {
    /// Starts the server and creates the dataset `reps` times (the set-up
    /// operation; returns its samples).
    pub fn setup(
        churn: &Churn,
        reps: usize,
        rates: [f64; 2],
        work: &Path,
        tally: &mut Tally,
    ) -> (Option<Bench>, Vec<f64>) {
        let Some((server, addr)) = start(work, tally) else {
            return (None, Vec::new());
        };
        let (name, setup) = create(&addr, churn, reps, tally);
        let Some(traffic) = tally.ok("connect", Traffic::connect(&addr)) else {
            tally.ok("ServerHandle::stop", server.stop());
            return (None, setup);
        };
        let bench = Bench {
            server,
            addr,
            name,
            traffic,
            rates,
        };
        (Some(bench), setup)
    }

    pub fn step(&mut self, churn: &Churn, slice: Duration) {
        self.traffic.slice(&self.name, churn, self.rates, slice);
    }

    /// Whether enough requests ran for every tail to resolve (or the churn
    /// is used up).
    pub fn has_tails(&self, churn: &Churn, min: usize) -> bool {
        self.traffic.writes.len() >= min.min(churn.batches()) && self.traffic.reads.len() >= 2 * min
    }

    pub fn finish(self, churn: &Churn, tally: &mut Tally, m: &mut Metrics, rec: &mut Record) {
        let batches = self.traffic.check(churn, tally);
        finish(self.server, &self.addr, &self.name, churn, batches, tally);
        let [updates, labels, queries] = self.traffic.latencies(true);
        put_median(m, "update_ms", &updates, "ms");
        let update_tail = put_tail(m, "update_tail_ms", &updates, "ms");
        put_median(m, "read_labels_ms", &labels, "ms");
        let labels_tail = put_tail(m, "read_labels_tail_ms", &labels, "ms");
        put_median(m, "read_query_ms", &queries, "ms");
        let query_tail = put_tail(m, "read_query_tail_ms", &queries, "ms");
        let lag = self.traffic.lags();
        rec.section(
            "serve",
            vec![
                ("n", Json::Int(churn.n() as u64)),
                ("batch_inserts", Json::Int(churn.inserts_per_batch as u64)),
                ("batch_deletes", Json::Int(churn.deletes_per_batch as u64)),
                ("writer_rate_per_s", Json::Num(self.rates[0])),
                ("reader_rate_per_s", Json::Num(self.rates[1])),
                ("update_samples", Json::Int(updates.len() as u64)),
                ("labels_samples", Json::Int(labels.len() as u64)),
                ("query_samples", Json::Int(queries.len() as u64)),
                ("mean_update_ms", Json::Num(mean(&updates) * 1e3)),
                (
                    "generator_lag_median_ms",
                    Json::Num(crate::stats::median(&lag) * 1e3),
                ),
                (
                    "generator_lag_max_ms",
                    Json::Num(lag.iter().cloned().fold(0.0, f64::max) * 1e3),
                ),
                ("update_tail", update_tail),
                ("read_labels_tail", labels_tail),
                ("read_query_tail", query_tail),
            ],
        );
    }
}

/// What the traced segment hands back for metrics shared with session-5d.
pub struct Traced {
    pub overhead: f64,
    pub cache: CacheStats,
    /// `Generation::query` times with a cached / a freshly built index.
    pub cached: Vec<f64>,
    pub built: Vec<f64>,
    pub lag_ms: f64,
}

/// An in-process request, as the HTTP layer would have parsed it.
fn request(method: &str, target: &str, body: Vec<u8>) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let query = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers: Vec::new(),
        body,
    }
}

/// `api::dispatch` then `http::write_response` into a buffer, each under a
/// child span of `parent` when there is one.
fn handle(
    state: &AppState,
    req: &Request,
    t: &mut Tracer,
    parent: Option<usize>,
) -> (Response, Vec<u8>) {
    let response = t.within(parent, "serve.dispatch", || api::dispatch(state, req));
    let mut wire = Vec::new();
    t.within(parent, "serve.write", || {
        write_response(&mut wire, &response)
    })
    .expect("writing into a Vec cannot fail");
    (response, wire)
}

/// The traced segment: open-loop HTTP traffic for client-side latency,
/// the same kind of schedule replayed through `api::dispatch`, and the
/// durable and in-memory sessions side by side on the same batches.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    churn: &Churn,
    batches: usize,
    rates: [f64; 2],
    window: Duration,
    work: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Traced {
    let params = Params::new(EPS, MIN_PTS);
    let batches = batches.min(churn.batches());
    // 1. Client-side latency over loopback, timed from the send.
    let mut client = [Vec::new(), Vec::new(), Vec::new()];
    let mut lag = vec![0.0];
    let (bench, _) = Bench::setup(churn, 1, rates, &work.join("http"), tally);
    if let Some(mut bench) = bench {
        while !bench.has_tails(churn, 20) {
            bench.step(churn, window);
        }
        let batches = bench.traffic.check(churn, tally);
        client = bench.traffic.latencies(false);
        lag = bench.traffic.lags();
        finish(
            bench.server,
            &bench.addr,
            &bench.name,
            churn,
            batches,
            tally,
        );
    }

    // 2. The schedule replayed in-process: update, then a read that
    // alternates labels and query. Even updates carry spans, odd ones are
    // the untraced twin.
    let state = AppState::new(Some(work.join("replay")));
    let body = format!("[{}]", join(churn.base.iter())).into_bytes();
    let (created, _) = handle(
        &state,
        &request("PUT", &create_path("replay"), body),
        tracer,
        None,
    );
    tally.check(created.status == 201, || {
        format!("replay create: {}", created.status)
    });
    let (labels_path, query_path) = (
        "/v1/datasets/replay/labels".to_string(),
        query_path("replay"),
    );
    let (mut twin, mut parse, mut to_json, mut json_bytes, mut wire_bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut cache = CacheStats::default();
    for k in 0..batches {
        let body = update_body(churn, k);
        let text = std::str::from_utf8(&body).expect("the body is ASCII");
        let start = Instant::now();
        let parsed = jsonv::parse(text);
        parse.push(secs(start));
        tally.check(parsed.is_ok(), || "update body does not parse".into());
        let update = request("POST", "/v1/datasets/replay/updates", body);
        let (response, _) = if k % 2 == 0 {
            tracer.root("http.update", |t, id| handle(&state, &update, t, Some(id)))
        } else {
            let start = Instant::now();
            let out = handle(&state, &update, tracer, None);
            twin.push(secs(start));
            out
        };
        tally.check(response.status == 200, || {
            format!("replayed update {k}: {}", response.status)
        });
        let (route, path) = if k % 2 == 0 {
            ("http.labels", &labels_path)
        } else {
            ("http.query", &query_path)
        };
        let read = request("GET", path, Vec::new());
        let (response, wire) = tracer.root(route, |t, id| handle(&state, &read, t, Some(id)));
        tally.check(response.status == 200, || {
            format!("replayed {route}: {}", response.status)
        });
        let generation = state
            .dataset("replay")
            .expect("created above")
            .session
            .current();
        if k % 2 == 0 {
            wire_bytes.push(wire.len() as f64);
        } else {
            let stats = generation.session().cache_stats();
            cache.partition_hits += stats.partition_hits;
            cache.partition_misses += stats.partition_misses;
            cache.core_hits += stats.core_hits;
            cache.core_misses += stats.core_misses;
        }
        let start = Instant::now();
        let json = generation.labels().to_json();
        to_json.push(secs(start));
        json_bytes.push(json.len() as f64);
    }
    let (last, _) = handle(
        &state,
        &request("GET", &labels_path, Vec::new()),
        tracer,
        None,
    );
    tally.check(
        carries_labels(&last.body, &oracle(churn, batches, MIN_PTS)),
        || "replayed final labels differ from dbscan::cluster of the live set".into(),
    );
    drop(state);

    // 3. Durable against in-memory sessions on the same batches.
    let cloud = PointCloud::new(DIM, churn.base.clone()).expect("finite coordinates");
    let before = obs::snapshot();
    let durable = ConcurrentSession::ingest_durable(
        cloud.clone(),
        work.join("pair"),
        DurableOptions::default(),
        params,
    )
    .expect("the durable session opens");
    let memory = ConcurrentSession::ingest(cloud, params).expect("the session opens");
    let (mut overhead, mut wal, mut publish, mut checkpoint) = (vec![], vec![], vec![], vec![]);
    let (mut cached, mut built) = (vec![], vec![]);
    for k in 0..batches {
        let (inserts, deletes) = churn.batch(k);
        let inserts = PointCloud::new(DIM, inserts.to_vec()).expect("finite coordinates");
        let start = Instant::now();
        let logged = durable.update(&inserts, &deletes);
        let logged_s = secs(start);
        let start = Instant::now();
        let plain = memory.update(&inserts, &deletes);
        let plain_s = secs(start);
        if let (Some(logged), Some(_)) = (
            tally.ok("durable update", logged),
            tally.ok("update", plain),
        ) {
            overhead.push(logged_s - plain_s);
            wal.push(logged.stats.wal_bytes as f64);
        }
        let start = Instant::now();
        tally.ok("ConcurrentSession::publish", memory.publish());
        publish.push(secs(start));
        let generation = memory.current();
        let start = Instant::now();
        let out = generation.query(
            Params::new(EPS, QUERY_MIN_PTS),
            dbscan::VariantConfig::exact(),
        );
        let elapsed = secs(start);
        if let Some(out) = tally.ok("Generation::query", out) {
            if out.stats.partition_cache_hit {
                &mut cached
            } else {
                &mut built
            }
            .push(elapsed);
        }
        if k % 4 == 3 {
            let start = Instant::now();
            tally.ok("ConcurrentSession::checkpoint", durable.checkpoint());
            checkpoint.push(secs(start));
        }
    }
    let expected = oracle(churn, batches, MIN_PTS);
    tally.check(
        durable.current().labels() == &expected && memory.current().labels() == &expected,
        || "durable or in-memory labels differ from dbscan::cluster of the live set".into(),
    );
    let checkpoints = counter(&obs::snapshot(), &before, "dbscan_checkpoints_total");

    let routes = [("http.update", 0), ("http.labels", 1), ("http.query", 2)];
    let mut transport = Vec::new();
    for (route, i) in routes {
        let dispatch = tracer.durations_in(route, "serve.dispatch");
        let write = tracer.durations_in(route, "serve.write");
        let name = format!("serve.dispatch_s.{}", &route[5..]);
        put_median(m, &name, &dispatch, "s");
        if !client[i].is_empty() {
            let med = crate::stats::median;
            transport.push(med(&client[i]) - med(&dispatch) - med(&write));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.put("serve.transport_s", mean(&transport), "s");
    put_median(m, "serve.body_parse_s", &parse, "s");
    put_median(
        m,
        "serve.write_s",
        &tracer.durations_in("http.labels", "serve.write"),
        "s",
    );
    put_median(m, "serve.response_bytes", &wire_bytes, "bytes");
    put_median(m, "dbscan.labels_json_s", &to_json, "s");
    put_median(m, "dbscan.labels_json_bytes", &json_bytes, "bytes");
    put_median(m, "dbscan.publish_s", &publish, "s");
    put_median(m, "durable.overhead_s", &overhead, "s");
    put_median(m, "durable.checkpoint_s", &checkpoint, "s");
    m.put("durable.checkpoints", checkpoints as f64, "count");
    put_median(m, "durable.wal_bytes_per_batch", &wal, "bytes");
    let traced = crate::stats::median(&tracer.durations_in("http.update", "http.update"));
    Traced {
        overhead: traced / crate::stats::median(&twin),
        cache,
        cached,
        built,
        lag_ms: crate::stats::median(&lag) * 1e3,
    }
}
