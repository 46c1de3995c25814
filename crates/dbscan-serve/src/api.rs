//! Route dispatch: maps parsed requests onto the dataset table and
//! renders JSON responses, instrumenting every request with the
//! `dbscan_serve_*` registry metrics and (under `DBSCAN_OBS=trace`) a
//! request span.

use crate::http::{json_f64, json_string, Request, Response};
use crate::state::{AppState, Dataset};
use dbscan::{ConcurrentSession, Error, Generation, Params, PointCloud, VariantConfig};
use std::sync::Arc;
use std::time::Instant;

static REQUESTS: obs::LazyCounter = obs::LazyCounter::with_help(
    "dbscan_serve_requests_total",
    "HTTP requests handled by dbscan-serve",
);
static ERRORS: obs::LazyCounter = obs::LazyCounter::with_help(
    "dbscan_serve_request_errors_total",
    "HTTP requests answered with a 4xx/5xx status",
);
static DURATION: obs::LazyHistogram = obs::LazyHistogram::with_help(
    "dbscan_serve_request_duration_seconds",
    "Wall time from parsed request to rendered response",
);
static QUERIES: obs::LazyCounter = obs::LazyCounter::with_help(
    "dbscan_serve_queries_total",
    "Read requests served (query, sweep, labels, info)",
);
static UPDATES: obs::LazyCounter = obs::LazyCounter::with_help(
    "dbscan_serve_updates_total",
    "Update batches applied through the HTTP writer path",
);
static DATASETS: obs::LazyGauge =
    obs::LazyGauge::with_help("dbscan_serve_datasets", "Datasets currently being served");

/// Largest sweep a request may ask for, counted as ε values × minPts
/// values × points in the generation: 2^24. A sweep holds a full labelling
/// per grid cell until the response is built (about 4 MiB per cell at
/// 200k points), so the bound caps that memory near 350 MiB.
pub const MAX_SWEEP_LABELS: usize = 1 << 24;

/// Handles one request end to end, with instrumentation. The returned
/// response still carries `close: false`; the connection loop decides the
/// final keep-alive disposition.
pub fn dispatch(state: &AppState, request: &Request) -> Response {
    let start = Instant::now();
    let response = {
        let _span = obs::Span::enter("serve", obs::phase::REQUEST);
        route(state, request)
    };
    REQUESTS.incr();
    if response.status >= 400 {
        ERRORS.incr();
    }
    DURATION.observe(start.elapsed());
    response
}

/// The versioned API lives under `/v1/...`. The original unversioned paths
/// keep answering identically, but every such response carries a
/// `Deprecation: true` header pointing migrations at the `/v1` aliases.
fn route(state: &AppState, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let (versioned, routable) = match segments.split_first() {
        Some((&"v1", rest)) => (true, rest),
        _ => (false, segments.as_slice()),
    };
    let response = route_versioned(state, request, routable);
    if versioned {
        response
    } else {
        response.with_header("Deprecation", "true")
    }
}

/// Rejects the request if it carries a query parameter outside `allowed`,
/// then runs the handler. Without this, a typo'd parameter name (`minpts`
/// for `min_pts`) would silently fall back to the default-parameter answer.
fn strict(request: &Request, allowed: &[&str], handler: impl FnOnce() -> Response) -> Response {
    for (name, _) in &request.query {
        if !allowed.contains(&name.as_str()) {
            let accepted = if allowed.is_empty() {
                "this endpoint takes no query parameters".to_string()
            } else {
                format!("accepted parameters: {}", allowed.join(", "))
            };
            return Response::error_coded(
                400,
                "unknown_param",
                &format!("unrecognized query parameter `{name}`; {accepted}"),
            );
        }
    }
    handler()
}

/// The router proper, over path segments with any `/v1` prefix stripped.
fn route_versioned(state: &AppState, request: &Request, segments: &[&str]) -> Response {
    let method = request.method.as_str();
    match (method, segments) {
        ("GET", ["healthz"]) => strict(request, &[], || healthz(state)),
        ("GET", ["metrics"]) => strict(request, &[], metrics),
        ("POST", ["admin", "shutdown"]) => strict(request, &[], || {
            state.request_shutdown();
            Response::json(202, "{\"status\": \"draining\"}".to_string())
        }),
        ("GET", ["datasets"]) => strict(request, &[], || list_datasets(state)),
        ("PUT" | "POST", ["datasets", name]) => strict(
            request,
            &["eps", "min_pts", "dim", "durable", "open"],
            || create_dataset(state, name, request),
        ),
        ("GET", ["datasets", name]) => {
            strict(request, &[], || with_dataset(state, name, dataset_info))
        }
        ("DELETE", ["datasets", name]) => strict(request, &[], || delete_dataset(state, name)),
        ("POST", ["datasets", name, "updates"]) => strict(request, &[], || {
            with_dataset(state, name, |d| apply_updates(d, request))
        }),
        ("GET", ["datasets", name, "query"]) => {
            strict(request, &["eps", "min_pts", "variant"], || {
                with_dataset(state, name, |d| query(d, request))
            })
        }
        ("GET", ["datasets", name, "sweep"]) => strict(request, &["eps", "min_pts"], || {
            with_dataset(state, name, |d| sweep(d, request))
        }),
        ("GET", ["datasets", name, "labels"]) => {
            strict(request, &[], || with_dataset(state, name, labels))
        }
        // Wrong method on a path shape that exists in the route table
        // above is 405; anything else (e.g. /datasets/foo/bogus) is a
        // route that exists for no method, so it falls through to 404.
        (
            _,
            ["healthz"]
            | ["metrics"]
            | ["admin", "shutdown"]
            | ["datasets"]
            | ["datasets", _]
            | ["datasets", _, "updates" | "query" | "sweep" | "labels"],
        ) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "no such route"),
    }
}

/// Looks up `name` and runs `f`, or answers 404.
fn with_dataset(state: &AppState, name: &str, f: impl FnOnce(&Dataset) -> Response) -> Response {
    match state.dataset(name) {
        Some(dataset) => f(&dataset),
        None => Response::error(404, &format!("no dataset named `{name}`")),
    }
}

/// The HTTP status a facade error maps to: client mistakes are 400, store
/// failures are 500.
fn status_for(err: &Error) -> u16 {
    match err {
        Error::Io(_) | Error::Corrupt { .. } | Error::VersionMismatch { .. } => 500,
        _ => 400,
    }
}

fn error_response(err: &Error) -> Response {
    Response::error(status_for(err), &err.to_string())
}

fn healthz(state: &AppState) -> Response {
    Response::json(
        200,
        format!(
            "{{\"status\": {}, \"version\": {}, \"backend\": {}, \"obs_mode\": {}, \
             \"uptime_s\": {}, \"datasets\": {}, \"draining\": {}}}",
            json_string(if state.shutdown_requested() {
                "draining"
            } else {
                "ok"
            }),
            json_string(env!("CARGO_PKG_VERSION")),
            json_string(dbscan::pardbscan::active_backend().label()),
            json_string(obs::mode().label()),
            json_f64(state.started.elapsed().as_secs_f64()),
            state.read_datasets().len(),
            state.shutdown_requested(),
        ),
    )
}

fn metrics() -> Response {
    let mut response = Response::text(200, obs::snapshot().to_prometheus());
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response
}

fn list_datasets(state: &AppState) -> Response {
    let mut names: Vec<String> = state.read_datasets().keys().cloned().collect();
    names.sort();
    let body = names
        .iter()
        .map(|n| json_string(n))
        .collect::<Vec<_>>()
        .join(", ");
    Response::json(200, format!("{{\"datasets\": [{body}]}}"))
}

/// Dataset names are path segments and directory names; keep them to a
/// conservative character set.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

fn parse_f64(request: &Request, name: &str) -> Result<f64, Response> {
    match request.query_param(name) {
        Some(v) => v.parse::<f64>().map_err(|_| {
            Response::error(400, &format!("query parameter `{name}` is not a number"))
        }),
        None => Err(Response::error(
            400,
            &format!("missing query parameter `{name}`"),
        )),
    }
}

fn parse_usize(request: &Request, name: &str) -> Result<usize, Response> {
    match request.query_param(name) {
        Some(v) => v.parse::<usize>().map_err(|_| {
            Response::error(400, &format!("query parameter `{name}` is not an integer"))
        }),
        None => Err(Response::error(
            400,
            &format!("missing query parameter `{name}`"),
        )),
    }
}

/// Parses an ingest body into flat coordinates: a JSON array of numbers,
/// or whitespace/comma-separated text.
fn parse_coords(body: &[u8]) -> Result<Vec<f64>, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?
        .trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    if text.starts_with('[') {
        let doc = jsonv::parse(text)
            .map_err(|e| Response::error(400, &format!("unreadable JSON body: {e}")))?;
        let items = doc
            .as_array()
            .ok_or_else(|| Response::error(400, "JSON body must be an array of numbers"))?;
        items
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| Response::error(400, "JSON body must contain only numbers"))
            })
            .collect()
    } else {
        text.split(|c: char| c.is_whitespace() || c == ',')
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|_| Response::error(400, &format!("unreadable coordinate `{t}`")))
            })
            .collect()
    }
}

fn create_dataset(state: &AppState, name: &str, request: &Request) -> Response {
    if !valid_name(name) {
        return Response::error(400, "dataset names are 1-64 characters of [A-Za-z0-9_-]");
    }
    // Claim the name before any ingest work. Without this, two concurrent
    // creates of the same durable dataset would both pass an existence
    // check and interleave writes into the same on-disk directory; the
    // reservation turns the loser away up front. Dropping the guard on the
    // error returns below releases the claim.
    let Some(reservation) = state.reserve_name(name) else {
        return Response::error(409, &format!("dataset `{name}` already exists"));
    };
    let eps = match parse_f64(request, "eps") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let min_pts = match parse_usize(request, "min_pts") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let params = Params::new(eps, min_pts);
    let durable = request.query_param("durable").is_some_and(|v| v == "1");
    let reopen = request.query_param("open").is_some_and(|v| v == "1");

    let session = if durable {
        let Some(data_dir) = &state.data_dir else {
            return Response::error(
                400,
                "durable datasets need the server started with --data-dir",
            );
        };
        let dir = data_dir.join(name);
        let options = dbscan::DurableOptions::default();
        if reopen {
            // Recover the acknowledged state of a previous process.
            match ConcurrentSession::open_durable(&dir, options, params) {
                Ok(session) => session,
                Err(err) => return error_response(&err),
            }
        } else {
            let dim = match parse_usize(request, "dim") {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            let cloud = match parse_coords(&request.body)
                .and_then(|coords| PointCloud::new(dim, coords).map_err(|e| error_response(&e)))
            {
                Ok(cloud) => cloud,
                Err(resp) => return resp,
            };
            match ConcurrentSession::ingest_durable(cloud, &dir, options, params) {
                Ok(session) => session,
                Err(err) => return error_response(&err),
            }
        }
    } else {
        let dim = match parse_usize(request, "dim") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let cloud = match parse_coords(&request.body)
            .and_then(|coords| PointCloud::new(dim, coords).map_err(|e| error_response(&e)))
        {
            Ok(cloud) => cloud,
            Err(resp) => return resp,
        };
        match ConcurrentSession::ingest(cloud, params) {
            Ok(session) => session,
            Err(err) => return error_response(&err),
        }
    };

    let generation = session.current();
    let dataset = Arc::new(Dataset {
        name: name.to_string(),
        session,
        durable,
    });
    DATASETS.set(reservation.publish(dataset) as i64);
    Response::json(
        201,
        format!(
            "{{\"dataset\": {}, \"dim\": {}, \"n\": {}, \"generation\": {}, \"durable\": {}}}",
            json_string(name),
            generation.cloud().dim(),
            generation.num_points(),
            generation.id(),
            durable,
        ),
    )
}

fn delete_dataset(state: &AppState, name: &str) -> Response {
    let mut table = state.write_datasets();
    match table.remove(name) {
        Some(_) => {
            DATASETS.set(table.len() as i64);
            Response {
                status: 204,
                content_type: "application/json",
                headers: Vec::new(),
                body: Vec::new(),
                close: false,
            }
        }
        None => Response::error(404, &format!("no dataset named `{name}`")),
    }
}

fn dataset_info(dataset: &Dataset) -> Response {
    QUERIES.incr();
    let generation = dataset.session.current();
    let params = dataset.session.params();
    Response::json(
        200,
        format!(
            "{{\"dataset\": {}, \"dim\": {}, \"n\": {}, \"generation\": {}, \"durable\": {}, \
             \"params\": {{\"eps\": {}, \"min_pts\": {}}}}}",
            json_string(&dataset.name),
            dataset.session.dim(),
            generation.num_points(),
            generation.id(),
            dataset.durable,
            json_f64(params.eps),
            params.min_pts,
        ),
    )
}

/// Parses the body of a `POST .../updates` request:
/// `{"insert": [x, y, ...], "delete": [id, ...]}` (both optional).
fn parse_update_body(body: &[u8], dim: usize) -> Result<(PointCloud, Vec<usize>), Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?
        .trim();
    if text.is_empty() {
        return Err(Response::error(
            400,
            "update body must be a JSON object with `insert` and/or `delete`",
        ));
    }
    let doc = jsonv::parse(text)
        .map_err(|e| Response::error(400, &format!("unreadable JSON body: {e}")))?;
    let coords: Vec<f64> = match doc.get("insert") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| Response::error(400, "`insert` must be an array of numbers"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| Response::error(400, "`insert` must contain only numbers"))
            })
            .collect::<Result<_, _>>()?,
    };
    let deletes: Vec<usize> = match doc.get("delete") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| Response::error(400, "`delete` must be an array of point ids"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .filter(|f| *f >= 0.0 && f.fract() == 0.0)
                    .map(|f| f as usize)
                    .ok_or_else(|| {
                        Response::error(400, "`delete` ids must be non-negative integers")
                    })
            })
            .collect::<Result<_, _>>()?,
    };
    let cloud = PointCloud::new(dim, coords).map_err(|e| error_response(&e))?;
    Ok((cloud, deletes))
}

fn apply_updates(dataset: &Dataset, request: &Request) -> Response {
    let (inserts, deletes) = match parse_update_body(&request.body, dataset.session.dim()) {
        Ok(parsed) => parsed,
        Err(resp) => return resp,
    };
    match dataset.session.update(&inserts, &deletes) {
        Ok(outcome) => {
            UPDATES.incr();
            let ids = outcome
                .stats
                .inserted_ids
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            Response::json(
                200,
                format!(
                    "{{\"generation\": {}, \"inserted_ids\": [{}], \"deleted\": {}, \
                     \"stats\": {{\"cells_touched\": {}, \"points_rescanned\": {}, \
                     \"components_reclustered\": {}, \"compacted\": {}, \
                     \"wal_bytes\": {}, \"apply_s\": {}}}}}",
                    outcome.generation,
                    ids,
                    outcome.stats.deleted,
                    outcome.stats.cells_touched,
                    outcome.stats.points_rescanned,
                    outcome.stats.components_reclustered,
                    outcome.stats.compacted,
                    outcome.stats.wal_bytes,
                    json_f64(outcome.stats.elapsed.as_secs_f64()),
                ),
            )
        }
        Err(err) => error_response(&err),
    }
}

/// Parses the `variant` query parameter: `exact` (default), `exact-qt`,
/// `approx:RHO`, `approx-qt:RHO`.
fn parse_variant(request: &Request) -> Result<VariantConfig, Response> {
    let spec = request.query_param("variant").unwrap_or("exact");
    let rho_of = |spec: &str, prefix: &str| -> Result<f64, Response> {
        spec[prefix.len()..]
            .parse::<f64>()
            .map_err(|_| Response::error(400, &format!("unreadable ρ in variant `{spec}`")))
    };
    if spec == "exact" {
        Ok(VariantConfig::exact())
    } else if spec == "exact-qt" {
        Ok(VariantConfig::exact_qt())
    } else if let Some(_rest) = spec.strip_prefix("approx-qt:") {
        Ok(VariantConfig::approx_qt(rho_of(spec, "approx-qt:")?))
    } else if let Some(_rest) = spec.strip_prefix("approx:") {
        Ok(VariantConfig::approx(rho_of(spec, "approx:")?))
    } else {
        Err(Response::error(
            400,
            "variant must be `exact`, `exact-qt`, `approx:RHO`, or `approx-qt:RHO`",
        ))
    }
}

fn query(dataset: &Dataset, request: &Request) -> Response {
    let eps = match parse_f64(request, "eps") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let min_pts = match parse_usize(request, "min_pts") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let variant = match parse_variant(request) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let generation: Arc<Generation> = dataset.session.current();
    match generation.query(Params::new(eps, min_pts), variant) {
        Ok(outcome) => {
            QUERIES.incr();
            Response::json(
                200,
                format!(
                    "{{\"generation\": {}, \"eps\": {}, \"min_pts\": {}, \"variant\": {}, \
                     \"index_generation\": {}, \"labels\": {}}}",
                    generation.id(),
                    json_f64(eps),
                    min_pts,
                    json_string(&outcome.stats.variant),
                    outcome.stats.index_generation,
                    outcome.labels.to_json(),
                ),
            )
        }
        Err(err) => error_response(&err),
    }
}

/// Parses a comma-separated list query parameter.
fn parse_grid<T: std::str::FromStr>(request: &Request, name: &str) -> Result<Vec<T>, Response> {
    let raw = request
        .query_param(name)
        .ok_or_else(|| Response::error(400, &format!("missing query parameter `{name}`")))?;
    raw.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<T>()
                .map_err(|_| Response::error(400, &format!("unreadable `{name}` entry `{t}`")))
        })
        .collect()
}

fn sweep(dataset: &Dataset, request: &Request) -> Response {
    let eps_grid: Vec<f64> = match parse_grid(request, "eps") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let min_pts_grid: Vec<usize> = match parse_grid(request, "min_pts") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let generation = dataset.session.current();
    let labels = eps_grid
        .len()
        .saturating_mul(min_pts_grid.len())
        .saturating_mul(generation.num_points());
    if labels > MAX_SWEEP_LABELS {
        return Response::error(
            400,
            &format!(
                "sweep of {} eps × {} min_pts values over {} points needs {labels} labels, \
                 more than the limit of {MAX_SWEEP_LABELS}",
                eps_grid.len(),
                min_pts_grid.len(),
                generation.num_points(),
            ),
        );
    }
    match generation.sweep((eps_grid.as_slice(), min_pts_grid.as_slice())) {
        Ok(cells) => {
            QUERIES.incr();
            let rows = cells
                .iter()
                .map(|cell| {
                    format!(
                        "{{\"eps\": {}, \"min_pts\": {}, \"num_clusters\": {}, \"num_noise\": {}}}",
                        json_f64(cell.eps),
                        cell.min_pts,
                        cell.labels.num_clusters(),
                        cell.labels.num_noise(),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            Response::json(
                200,
                format!(
                    "{{\"generation\": {}, \"cells\": [{rows}]}}",
                    generation.id()
                ),
            )
        }
        Err(err) => error_response(&err),
    }
}

fn labels(dataset: &Dataset) -> Response {
    QUERIES.incr();
    let generation = dataset.session.current();
    let params = generation.params();
    Response::json(
        200,
        format!(
            "{{\"generation\": {}, \"eps\": {}, \"min_pts\": {}, \"labels\": {}}}",
            generation.id(),
            json_f64(params.eps),
            params.min_pts,
            generation.labels().to_json(),
        ),
    )
}
