//! End-to-end exercise of the HTTP surface against an in-process server:
//! dataset lifecycle, generation bumps under updates, label/oracle
//! agreement, error paths, keep-alive, and metrics exposure.

mod common;

use common::{error_code, json_num, parse_response, request, request_with_head};
use dbscan_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Two well-separated 2-D clusters of five points each.
fn two_cluster_coords() -> Vec<f64> {
    let mut coords = Vec::new();
    for i in 0..5 {
        coords.extend_from_slice(&[0.1 * i as f64, 0.0]);
    }
    for i in 0..5 {
        coords.extend_from_slice(&[10.0 + 0.1 * i as f64, 10.0]);
    }
    coords
}

fn coords_json(coords: &[f64]) -> String {
    let items = coords
        .iter()
        .map(|c| format!("{c}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{items}]")
}

fn spawn_server() -> (String, dbscan_serve::ServerHandle) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: None,
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    (handle.addr().to_string(), handle)
}

#[test]
fn dataset_lifecycle_round_trips_over_http() {
    dbscan::register_runtime_info();
    let (addr, handle) = spawn_server();
    let coords = two_cluster_coords();

    // Create: two clusters at eps 0.5 / min_pts 3.
    let (status, body) = request(
        &addr,
        "PUT",
        "/datasets/demo?dim=2&eps=0.5&min_pts=3",
        &coords_json(&coords),
    );
    assert_eq!(status, 201, "create failed: {body}");
    assert_eq!(json_num(&body, "n") as usize, 10);
    assert_eq!(json_num(&body, "generation") as u64, 0);

    // Info reflects the published generation.
    let (status, body) = request(&addr, "GET", "/datasets/demo", "");
    assert_eq!(status, 200);
    assert_eq!(json_num(&body, "n") as usize, 10);
    assert_eq!(json_num(&body, "generation") as u64, 0);

    // Listing contains the dataset.
    let (status, body) = request(&addr, "GET", "/datasets", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"demo\""), "listing missed demo: {body}");

    // Query at the ingest parameters: two clusters, generation 0, and an
    // index stamp at least as new as the generation.
    let (status, body) = request(&addr, "GET", "/datasets/demo/query?eps=0.5&min_pts=3", "");
    assert_eq!(status, 200, "query failed: {body}");
    assert_eq!(json_num(&body, "generation") as u64, 0);
    assert!(json_num(&body, "index_generation") >= json_num(&body, "generation"));
    let doc = jsonv::parse(&body).expect("query body parses");
    let labels = doc.get("labels").expect("labels object");
    assert_eq!(
        labels.get("num_clusters").and_then(jsonv::Value::as_f64),
        Some(2.0)
    );
    assert_eq!(
        labels
            .get("primary")
            .and_then(jsonv::Value::as_array)
            .map(|a| a.len()),
        Some(10)
    );

    // Labels on the published generation agree with an offline run over
    // the same coordinates.
    let (status, body) = request(&addr, "GET", "/datasets/demo/labels", "");
    assert_eq!(status, 200);
    let oracle = dbscan::cluster(
        &dbscan::PointCloud::new(2, coords.clone()).unwrap(),
        dbscan::Params::new(0.5, 3),
    )
    .unwrap();
    let doc = jsonv::parse(&body).expect("labels body parses");
    assert_eq!(
        doc.get("labels"),
        Some(&jsonv::parse(&oracle.to_json()).unwrap()),
        "served labels diverge from the offline oracle"
    );

    // An update batch bumps the generation and changes the labels.
    let (status, body) = request(
        &addr,
        "POST",
        "/datasets/demo/updates",
        "{\"insert\": [20.0, 20.0, 20.1, 20.0, 20.05, 20.1], \"delete\": [0]}",
    );
    assert_eq!(status, 200, "update failed: {body}");
    assert_eq!(json_num(&body, "generation") as u64, 1);
    let doc = jsonv::parse(&body).expect("update body parses");
    assert_eq!(
        doc.get("inserted_ids")
            .and_then(jsonv::Value::as_array)
            .map(|a| a.len()),
        Some(3)
    );
    assert_eq!(json_num(&body, "deleted") as usize, 1);

    let (status, body) = request(&addr, "GET", "/datasets/demo/query?eps=0.5&min_pts=3", "");
    assert_eq!(status, 200);
    assert_eq!(json_num(&body, "generation") as u64, 1);
    let doc = jsonv::parse(&body).expect("query body parses");
    let labels = doc.get("labels").expect("labels object");
    // 10 - 1 deleted + 3 inserted = 12 points, third cluster at (20, 20).
    assert_eq!(labels.get("len").and_then(jsonv::Value::as_f64), Some(12.0));
    assert_eq!(
        labels.get("num_clusters").and_then(jsonv::Value::as_f64),
        Some(3.0)
    );

    // Sweep over a small grid on the current generation.
    let (status, body) = request(
        &addr,
        "GET",
        "/datasets/demo/sweep?eps=0.3,0.5&min_pts=2,3",
        "",
    );
    assert_eq!(status, 200, "sweep failed: {body}");
    assert_eq!(json_num(&body, "generation") as u64, 1);
    let doc = jsonv::parse(&body).expect("sweep body parses");
    assert_eq!(
        doc.get("cells")
            .and_then(jsonv::Value::as_array)
            .map(|a| a.len()),
        Some(4)
    );

    // A variant query resolves and reports its variant string.
    let (status, body) = request(
        &addr,
        "GET",
        "/datasets/demo/query?eps=0.5&min_pts=3&variant=exact-qt",
        "",
    );
    assert_eq!(status, 200, "variant query failed: {body}");

    // Metrics expose the serve counters and the runtime info gauges.
    let (status, body) = request(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for metric in [
        "dbscan_serve_requests_total",
        "dbscan_serve_request_duration_seconds",
        "dbscan_generations_published_total",
        "dbscan_backend_info",
        "dbscan_obs_mode_info",
    ] {
        assert!(body.contains(metric), "metrics missing {metric}:\n{body}");
    }

    // Health reports the active backend and no draining.
    let (status, body) = request(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"backend\""),
        "healthz missing backend: {body}"
    );
    assert!(
        body.contains("\"draining\": false"),
        "unexpected drain: {body}"
    );

    // Delete, then the dataset is gone.
    let (status, _) = request(&addr, "DELETE", "/datasets/demo", "");
    assert_eq!(status, 204);
    let (status, _) = request(&addr, "GET", "/datasets/demo", "");
    assert_eq!(status, 404);

    handle.stop().expect("graceful stop");
}

#[test]
fn error_paths_answer_with_the_documented_statuses() {
    let (addr, handle) = spawn_server();

    // Unknown dataset and route.
    let (status, _) = request(&addr, "GET", "/datasets/ghost/query?eps=0.5&min_pts=3", "");
    assert_eq!(status, 404);
    let (status, _) = request(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // Wrong method on a known path.
    let (status, _) = request(&addr, "PATCH", "/datasets", "");
    assert_eq!(status, 405);
    let (status, _) = request(&addr, "PATCH", "/datasets/ghost/query", "");
    assert_eq!(status, 405);
    let (status, _) = request(&addr, "GET", "/admin/shutdown", "");
    assert_eq!(status, 405);

    // A subpath that exists for no method is 404, not 405.
    let (status, _) = request(&addr, "GET", "/datasets/ghost/bogus", "");
    assert_eq!(status, 404);

    // Bad dataset names and parameters.
    let (status, _) = request(
        &addr,
        "PUT",
        "/datasets/bad.name?dim=2&eps=0.5&min_pts=3",
        "[]",
    );
    assert_eq!(status, 400);
    let (status, _) = request(&addr, "PUT", "/datasets/demo?dim=2&min_pts=3", "[]");
    assert_eq!(status, 400, "missing eps must be rejected");

    // Create one dataset, then conflict on re-create.
    let (status, _) = request(
        &addr,
        "PUT",
        "/datasets/demo?dim=2&eps=0.5&min_pts=3",
        &coords_json(&two_cluster_coords()),
    );
    assert_eq!(status, 201);
    let (status, _) = request(&addr, "PUT", "/datasets/demo?dim=2&eps=0.5&min_pts=3", "[]");
    assert_eq!(status, 409);

    // Durable creation without --data-dir is a client error.
    let (status, body) = request(
        &addr,
        "PUT",
        "/datasets/durable?dim=2&eps=0.5&min_pts=3&durable=1",
        "[]",
    );
    assert_eq!(status, 400, "durable without data dir: {body}");

    // Malformed update bodies and coordinates.
    let (status, _) = request(&addr, "POST", "/datasets/demo/updates", "not json");
    assert_eq!(status, 400);
    let (status, _) = request(
        &addr,
        "POST",
        "/datasets/demo/updates",
        "{\"delete\": [-1]}",
    );
    assert_eq!(status, 400);
    let (status, _) = request(
        &addr,
        "POST",
        "/datasets/demo/updates",
        "{\"insert\": [1.0]}",
    );
    assert_eq!(status, 400, "ragged coordinates must be rejected");

    // Unknown variant spec.
    let (status, _) = request(
        &addr,
        "GET",
        "/datasets/demo/query?eps=0.5&min_pts=3&variant=magic",
        "",
    );
    assert_eq!(status, 400);

    // At ε = 1e-14 these points lie 2^52 or more grid cells apart, past the
    // range of exact cell keys; so does an insert at 1e300 at ε = 0.5.
    let spread = "[0, 0, 100000, 100000, 100001, 100000, 100000, 100001]";
    let (status, _) = request(
        &addr,
        "PUT",
        "/datasets/spread?dim=2&eps=0.5&min_pts=2",
        spread,
    );
    assert_eq!(status, 201);
    let (status, _) = request(
        &addr,
        "GET",
        "/datasets/spread/query?eps=1e-14&min_pts=2",
        "",
    );
    assert_eq!(status, 400, "eps too small for the extent of the data");
    let far = "{\"insert\": [1e300, 1e300]}";
    let (status, _) = request(&addr, "POST", "/datasets/spread/updates", far);
    assert_eq!(status, 400, "insert too far from the grid origin");

    handle.stop().expect("graceful stop");
}

#[test]
fn v1_paths_alias_the_legacy_routes_and_legacy_answers_deprecate() {
    let (addr, handle) = spawn_server();
    let coords = coords_json(&two_cluster_coords());

    // The whole lifecycle works under /v1, and versioned responses carry
    // no deprecation marker.
    let (status, head, body) = request_with_head(
        &addr,
        "PUT",
        "/v1/datasets/demo?dim=2&eps=0.5&min_pts=3",
        &coords,
    );
    assert_eq!(status, 201, "v1 create failed: {body}");
    assert!(
        !head.to_ascii_lowercase().contains("deprecation"),
        "v1 response flagged deprecated:\n{head}"
    );
    for path in [
        "/v1/healthz",
        "/v1/metrics",
        "/v1/datasets",
        "/v1/datasets/demo",
        "/v1/datasets/demo/query?eps=0.5&min_pts=3",
        "/v1/datasets/demo/sweep?eps=0.3,0.5&min_pts=3",
        "/v1/datasets/demo/labels",
    ] {
        let (status, head, body) = request_with_head(&addr, "GET", path, "");
        assert_eq!(status, 200, "GET {path}: {body}");
        assert!(
            !head.to_ascii_lowercase().contains("deprecation"),
            "GET {path} flagged deprecated:\n{head}"
        );
    }

    // The same routes answer identically on the unversioned paths, but
    // every legacy response advertises the deprecation.
    let (status, head, v1_body) = request_with_head(&addr, "GET", "/v1/datasets/demo/labels", "");
    assert_eq!(status, 200);
    let _ = head;
    let (status, head, legacy_body) = request_with_head(&addr, "GET", "/datasets/demo/labels", "");
    assert_eq!(status, 200);
    assert_eq!(v1_body, legacy_body, "legacy and v1 answers diverge");
    assert!(
        head.lines()
            .any(|l| l.to_ascii_lowercase().starts_with("deprecation:")),
        "legacy response missing Deprecation header:\n{head}"
    );

    // v1 errors use the unified shape too.
    let (status, body) = request(&addr, "GET", "/v1/datasets/ghost", "");
    assert_eq!(status, 404);
    assert_eq!(error_code(&body), "not_found");

    handle.stop().expect("graceful stop");
}

#[test]
fn errors_share_one_json_shape_and_unknown_params_are_rejected() {
    let (addr, handle) = spawn_server();
    let (status, _) = request(
        &addr,
        "PUT",
        "/datasets/demo?dim=2&eps=0.5&min_pts=3",
        &coords_json(&two_cluster_coords()),
    );
    assert_eq!(status, 201);

    // Every error path answers `{"error": {"code", "message"}}`.
    let (status, body) = request(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert_eq!(error_code(&body), "not_found");
    let (status, body) = request(&addr, "PATCH", "/datasets", "");
    assert_eq!(status, 405);
    assert_eq!(error_code(&body), "method_not_allowed");
    let (status, body) = request(&addr, "PUT", "/datasets/demo?dim=2&eps=0.5&min_pts=3", "[]");
    assert_eq!(status, 409);
    assert_eq!(error_code(&body), "conflict");
    let (status, body) = request(&addr, "GET", "/datasets/demo/query?eps=nope&min_pts=3", "");
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad_request");

    // A typo'd parameter name is a 400 with its own code — not a silent
    // fall-back to default parameters.
    let (status, body) = request(&addr, "GET", "/datasets/demo/query?eps=0.5&minpts=3", "");
    assert_eq!(status, 400, "typo'd min_pts must be rejected: {body}");
    assert_eq!(error_code(&body), "unknown_param");
    assert!(
        body.contains("minpts"),
        "message should name the offender: {body}"
    );
    let (status, body) = request(
        &addr,
        "GET",
        "/v1/datasets/demo/sweep?eps=0.5&min_pts=3&rho=0.1",
        "",
    );
    assert_eq!(status, 400, "sweep must reject stray params: {body}");
    assert_eq!(error_code(&body), "unknown_param");
    let (status, body) = request(&addr, "GET", "/healthz?verbose=1", "");
    assert_eq!(status, 400, "no-param endpoints reject any query: {body}");
    assert_eq!(error_code(&body), "unknown_param");

    // The allowed parameters still work, including optional ones.
    let (status, body) = request(
        &addr,
        "GET",
        "/datasets/demo/query?eps=0.5&min_pts=3&variant=exact-qt",
        "",
    );
    assert_eq!(status, 200, "allowed params rejected: {body}");

    handle.stop().expect("graceful stop");
}

#[test]
fn sweeps_past_the_label_bound_are_rejected_before_any_work() {
    use dbscan_serve::api::MAX_SWEEP_LABELS;
    let (addr, handle) = spawn_server();
    // One label over the bound, then exactly at it.
    for (n, eps_count, min_pts_count, labels, want) in [
        (673, 97, 257, MAX_SWEEP_LABELS + 1, 400),
        (4096, 64, 64, MAX_SWEEP_LABELS, 200),
    ] {
        assert_eq!(n * eps_count * min_pts_count, labels);
        let path = format!("/v1/datasets/n{n}?dim=2&eps=0.5&min_pts=3");
        let (status, body) = request(&addr, "PUT", &path, &coords_json(&vec![0.0; 2 * n]));
        assert_eq!(status, 201, "create failed: {body}");
        let sweep = format!(
            "/v1/datasets/n{n}/sweep?eps={}&min_pts={}",
            vec!["0.5"; eps_count].join(","),
            vec!["3"; min_pts_count].join(",")
        );
        let (status, body) = request(&addr, "GET", &sweep, "");
        assert_eq!(status, want, "sweep over {n} points: {body}");
        let (status, _) = request(&addr, "GET", "/v1/healthz", "");
        assert_eq!(status, 200);
    }
    handle.stop().expect("graceful stop");
}

#[test]
fn racing_creates_of_one_durable_name_admit_exactly_one_writer() {
    let data_dir = std::env::temp_dir().join(format!("dbscan_serve_race_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("data dir");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(data_dir.clone()),
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr().to_string();

    // Race two durable creates of the same name, repeatedly: the name
    // reservation must admit exactly one of them to <data_dir>/<name>
    // (one 201, one 409), and the winner's on-disk state must answer
    // queries — a both-pass race would interleave snapshot/WAL writes.
    for round in 0..8 {
        let name = format!("race{round}");
        let path = format!("/datasets/{name}?dim=2&eps=0.5&min_pts=3&durable=1");
        let body = coords_json(&two_cluster_coords());
        let statuses: Vec<u16> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (addr, path, body) = (addr.clone(), path.clone(), body.clone());
                    scope.spawn(move || request(&addr, "PUT", &path, &body).0)
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("create thread"))
                .collect()
        });
        let created = statuses.iter().filter(|s| **s == 201).count();
        let conflicted = statuses.iter().filter(|s| **s == 409).count();
        assert_eq!(
            (created, conflicted),
            (1, 1),
            "round {round} statuses: {statuses:?}"
        );
        let (status, body) = request(
            &addr,
            "GET",
            &format!("/datasets/{name}/query?eps=0.5&min_pts=3"),
            "",
        );
        assert_eq!(status, 200, "round {round} query: {body}");
        assert_eq!(json_num(&body, "generation") as u64, 0);
    }

    handle.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let (addr, handle) = spawn_server();
    let (status, _) = request(
        &addr,
        "PUT",
        "/datasets/ka?dim=2&eps=0.5&min_pts=3",
        &coords_json(&two_cluster_coords()),
    );
    assert_eq!(status, 201);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    for _ in 0..3 {
        stream
            .write_all(
                format!(
                    "GET /datasets/ka/labels HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n"
                )
                .as_bytes(),
            )
            .expect("write");
        // Read exactly one response: headers, then Content-Length bytes.
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(1) => raw.push(byte[0]),
                Ok(_) => panic!("connection closed mid-headers"),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        let head = String::from_utf8_lossy(&raw).to_string();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(str::to_string)
            })
            .and_then(|v| v.parse().ok())
            .expect("content-length header");
        let mut body = vec![0u8; content_length];
        let mut read = 0;
        while read < content_length {
            match stream.read(&mut body[read..]) {
                Ok(0) => panic!("connection closed mid-body"),
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("read failed: {e}"),
            }
        }
        let (status, body) = parse_response(&format!("{head}{}", String::from_utf8_lossy(&body)));
        assert_eq!(status, 200);
        assert_eq!(json_num(&body, "generation") as u64, 0);
    }

    handle.stop().expect("graceful stop");
}

#[test]
fn admin_shutdown_drains_the_server() {
    let (addr, handle) = spawn_server();
    let (status, body) = request(&addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 202, "shutdown not acknowledged: {body}");
    assert!(body.contains("draining"));
    // The accept loop notices the flag and run() returns cleanly.
    handle.stop().expect("graceful stop");
    // New connections are refused (or reset) once the listener is gone.
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener still accepting after drain"
    );
}
