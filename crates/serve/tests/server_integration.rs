//! End-to-end tests against a live server: endpoint payloads, the
//! conditional-GET round trip, hot-swap behaviour under concurrent
//! readers, byte-identity across thread counts, and corrupt-artifact
//! fallback via the fault injector.

use checkpoint::format::ArtifactBuilder;
use checkpoint::store::{ArtifactStore, Provenance};
use checkpoint::SnapshotSource;
use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use fault::storage::corrupt_artifact_bytes;
use fault::StorageFaults;
use ovs_core::artifact::{INCIDENTS_SECTION, OVS_MODEL_KIND};
use ovs_core::estimator::tod_to_matrix;
use roadnet::TodTensor;
use serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Self-cleaning temp directory (std only; no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("serve-it-{tag}-{pid}"));
        // A stale directory from a crashed run would leak old artifact
        // versions into the family walk: start clean.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_dataset() -> Dataset {
    let spec = DatasetSpec {
        t: 2,
        interval_s: 300.0,
        train_samples: 1,
        demand_scale: 0.1,
        seed: 5,
    };
    Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap()
}

/// A minimal `ovs-model` artifact carrying only a recovered TOD, shaped
/// for `dataset` and filled with `level` trips per cell — enough for the
/// read side, without running the trainer.
fn tod_artifact(dataset: &Dataset, level: f64) -> ArtifactBuilder {
    let tod = TodTensor::filled(dataset.n_od(), dataset.n_intervals(), level);
    let mut b = ArtifactBuilder::new(OVS_MODEL_KIND);
    b.add_matrix("recovered_tod", &tod_to_matrix(&tod));
    b
}

fn provenance() -> Provenance {
    Provenance::new(OVS_MODEL_KIND, "{}", 5)
}

fn start_server(store_dir: &Path, threads: usize, poll_ms: u64) -> Server {
    let store = ArtifactStore::open(store_dir).unwrap();
    Server::start(
        store,
        SnapshotSource::Family("tod".into()),
        tiny_dataset(),
        &ServeOptions {
            addr: "127.0.0.1:0".into(),
            threads,
            poll_ms,
        },
    )
    .unwrap()
}

/// One raw HTTP exchange; returns (status, headers-as-lines, body).
fn fetch(addr: &str, path: &str, extra_headers: &[&str]) -> (u16, Vec<String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut req = format!("GET {path} HTTP/1.1\r\nHost: test\r\n");
    for h in extra_headers {
        req.push_str(h);
        req.push_str("\r\n");
    }
    req.push_str("Connection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).unwrap();
    read_response(&mut BufReader::new(stream))
}

/// Reads one framed response off `reader`, leaving the connection
/// positioned at the next one; returns (status, headers-as-lines, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<String>, Vec<u8>) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
        headers.push(trimmed.to_string());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, headers, body)
}

fn header_value<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers.iter().find_map(|h| {
        let (n, v) = h.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn body_json(body: &[u8]) -> serde_json::Value {
    serde_json::from_str(std::str::from_utf8(body).unwrap()).unwrap()
}

#[test]
fn endpoints_answer_consistent_json() {
    let tmp = TempDir::new("endpoints");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 2.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 1, 500);
    let addr = server.addr().to_string();

    let (status, _, body) = fetch(&addr, "/healthz", &[]);
    assert_eq!(status, 200);
    assert_eq!(body_json(&body)["status"].as_str(), Some("ok"));

    let (status, headers, body) = fetch(&addr, "/version", &[]);
    assert_eq!(status, 200);
    let version = body_json(&body);
    let fingerprint = version["fingerprint"].as_str().unwrap().to_string();
    assert_eq!(version["artifact"].as_str(), Some("tod-v001"));
    assert_eq!(
        header_value(&headers, "etag"),
        Some(format!("\"{fingerprint}\"").as_str())
    );

    let (status, _, body) = fetch(&addr, "/kpis", &[]);
    assert_eq!(status, 200);
    let kpis = body_json(&body);
    assert_eq!(kpis["fingerprint"].as_str().unwrap(), fingerprint);
    // 2.0 trips per od-interval cell, summed exactly.
    let expected_total = 2.0 * (dataset.n_od() * dataset.n_intervals()) as f64;
    assert!((kpis["total_trips"].as_f64().unwrap() - expected_total).abs() < 1e-9);
    assert!(kpis["masked_speed_rmse"].as_f64().unwrap().is_finite());
    let regions = kpis["regions"].as_array().unwrap();
    assert_eq!(regions.len(), dataset.net.regions().len());
    let out_sum: f64 = regions
        .iter()
        .map(|r| r["outbound_trips"].as_f64().unwrap())
        .sum();
    assert!((out_sum - expected_total).abs() < 1e-9);
    assert!(kpis["recovery"]["store_quarantined_total"]
        .as_u64()
        .is_some());

    let (status, _, body) = fetch(&addr, "/links", &[]);
    assert_eq!(status, 200);
    let links = body_json(&body);
    assert_eq!(links["count"].as_u64().unwrap() as usize, dataset.n_links());
    assert_eq!(links["links"].as_array().unwrap().len(), dataset.n_links());

    let (status, _, body) = fetch(&addr, "/links/0", &[]);
    assert_eq!(status, 200);
    let link = body_json(&body);
    assert_eq!(
        link["speed"].as_array().unwrap().len(),
        dataset.n_intervals()
    );
    assert_eq!(
        link["volume"].as_array().unwrap().len(),
        dataset.n_intervals()
    );

    let (status, _, body) = fetch(&addr, "/od?origin=0&dest=1", &[]);
    assert_eq!(status, 200);
    let od = body_json(&body);
    assert_eq!(od["trips"].as_array().unwrap().len(), dataset.n_intervals());
    assert!(
        (od["total_trips"].as_f64().unwrap() - 2.0 * dataset.n_intervals() as f64).abs() < 1e-9
    );

    let (status, headers, body) = fetch(&addr, "/map/geojson", &[]);
    assert_eq!(status, 200);
    assert_eq!(
        header_value(&headers, "content-type"),
        Some("application/geo+json")
    );
    let gj = body_json(&body);
    assert_eq!(gj["type"].as_str(), Some("FeatureCollection"));
    let feats = gj["features"].as_array().unwrap();
    assert_eq!(feats.len(), dataset.n_links());
    assert!(feats[0]["properties"]["congestion"].as_str().is_some());

    // Request-level failures are 4xx, never 5xx.
    assert_eq!(fetch(&addr, "/nope", &[]).0, 404);
    assert_eq!(fetch(&addr, "/links/999999", &[]).0, 404);
    assert_eq!(fetch(&addr, "/links/abc", &[]).0, 400);
    assert_eq!(fetch(&addr, "/od?origin=0", &[]).0, 400);
    assert_eq!(fetch(&addr, "/od?origin=0&dest=0", &[]).0, 404);

    server.shutdown();
}

#[test]
fn etag_round_trip_across_versions() {
    let tmp = TempDir::new("etag");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 1.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 2, 20);
    let addr = server.addr().to_string();

    // 200 with a validator...
    let (status, headers, _) = fetch(&addr, "/kpis", &[]);
    assert_eq!(status, 200);
    let etag1 = header_value(&headers, "etag").unwrap().to_string();

    // ...replaying it yields a bodyless 304 carrying the same validator.
    let inm = format!("If-None-Match: {etag1}");
    let (status, headers, body) = fetch(&addr, "/kpis", &[&inm]);
    assert_eq!(status, 304);
    assert!(body.is_empty());
    assert_eq!(header_value(&headers, "etag"), Some(etag1.as_str()));
    // Weak validators and wildcard match too.
    let weak = format!("If-None-Match: W/{etag1}");
    assert_eq!(fetch(&addr, "/kpis", &[&weak]).0, 304);
    assert_eq!(fetch(&addr, "/kpis", &["If-None-Match: *"]).0, 304);

    // A new good version lands; the watcher swaps and the stale
    // validator stops matching (fresh 200 with the new validator).
    store
        .save_versioned("tod", &tod_artifact(&dataset, 3.0), &provenance())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let etag2 = loop {
        let (status, headers, _) = fetch(&addr, "/kpis", &[&inm]);
        if status == 200 {
            break header_value(&headers, "etag").unwrap().to_string();
        }
        assert!(Instant::now() < deadline, "watcher never swapped versions");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_ne!(etag1, etag2);
    let (_, _, body) = fetch(&addr, "/version", &[]);
    assert_eq!(body_json(&body)["artifact"].as_str(), Some("tod-v002"));

    server.shutdown();
}

#[test]
fn responses_are_byte_identical_across_thread_counts() {
    let tmp = TempDir::new("threads");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 2.0), &provenance())
        .unwrap();
    let single = start_server(tmp.path(), 1, 2_000);
    let multi = start_server(tmp.path(), 4, 2_000);
    let paths = [
        "/healthz",
        "/version",
        "/kpis",
        "/links",
        "/links/1",
        "/od?origin=0&dest=1",
        "/map/geojson",
        "/incidents",
        "/nope",
    ];
    for path in paths {
        let a = fetch(&single.addr().to_string(), path, &[]);
        let b = fetch(&multi.addr().to_string(), path, &[]);
        if path == "/kpis" {
            // The kpis body embeds process-global recovery counters read
            // at view-build time; other tests in this binary move them
            // between the two servers' builds. Compare everything except
            // that live-counter object across servers (within one server
            // it is frozen and checked byte-exact below).
            let without_recovery = |body: &[u8]| {
                let s = std::str::from_utf8(body).unwrap();
                s.split_once(",\"recovery\"")
                    .map(|(prefix, _)| prefix.to_string())
                    .unwrap_or_else(|| s.to_string())
            };
            assert_eq!(a.0, b.0, "divergent status for {path}");
            assert_eq!(
                without_recovery(&a.2),
                without_recovery(&b.2),
                "divergent kpis payload"
            );
        } else {
            assert_eq!(a, b, "divergent response for {path}");
        }
        // Within the multi-threaded server, repeated fetches land on
        // different workers yet return the exact same bytes — this is
        // the thread-count determinism claim.
        for _ in 0..4 {
            let c = fetch(&multi.addr().to_string(), path, &[]);
            assert_eq!(b, c, "non-deterministic response for {path}");
        }
    }
    single.shutdown();
    multi.shutdown();
}

#[test]
fn hot_swap_is_atomic_under_concurrent_readers() {
    let tmp = TempDir::new("hotswap");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 1.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 4, 10);
    let addr = server.addr().to_string();
    let (_, headers, _) = fetch(&addr, "/kpis", &[]);
    let etag1 = header_value(&headers, "etag").unwrap().to_string();

    // Readers hammer /kpis while a new version lands mid-flight. Every
    // response must be internally consistent: the body's fingerprint
    // always equals the ETag header it arrived with.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut etags = std::collections::BTreeSet::new();
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let (status, headers, body) = fetch(&addr, "/kpis", &[]);
                assert_eq!(status, 200);
                let etag = header_value(&headers, "etag").unwrap().to_string();
                let fp = body_json(&body)["fingerprint"]
                    .as_str()
                    .unwrap()
                    .to_string();
                assert_eq!(etag, format!("\"{fp}\""), "torn response");
                etags.insert(etag);
            }
            etags
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    store
        .save_versioned("tod", &tod_artifact(&dataset, 4.0), &provenance())
        .unwrap();
    // Wait until the swap is visible, then let readers overlap it a bit.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, headers, _) = fetch(&addr, "/kpis", &[]);
        if header_value(&headers, "etag") != Some(etag1.as_str()) {
            break;
        }
        assert!(Instant::now() < deadline, "watcher never swapped versions");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut seen = std::collections::BTreeSet::new();
    for r in readers {
        seen.extend(r.join().unwrap());
    }
    // Only the two legitimate versions were ever served.
    assert!(seen.len() <= 2, "unexpected etags: {seen:?}");
    assert!(seen.contains(&etag1));

    server.shutdown();
}

#[test]
fn corrupt_newest_version_keeps_old_view_serving() {
    let tmp = TempDir::new("corrupt");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 1.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 2, 10);
    let addr = server.addr().to_string();
    let (_, headers, _) = fetch(&addr, "/kpis", &[]);
    let etag1 = header_value(&headers, "etag").unwrap().to_string();

    // A newer version lands already corrupted on disk: corrupt the bytes
    // before they ever hit the store, so the watcher can only ever see
    // the bad version (no race with its poll loop).
    let name = "tod-v002";
    let mut bytes = tod_artifact(&dataset, 9.0).to_bytes();
    assert!(corrupt_artifact_bytes(
        &mut bytes,
        &StorageFaults {
            bit_flips: 8,
            truncate_bytes: 0,
        },
        42,
    ));
    std::fs::write(store.artifact_path(name), &bytes).unwrap();

    // Give the watcher several poll cycles to notice (and quarantine) it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.artifact_path(name).exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        !store.artifact_path(name).exists(),
        "corrupt artifact was never quarantined"
    );

    // The old view keeps serving, untouched.
    let (status, headers, body) = fetch(&addr, "/kpis", &[]);
    assert_eq!(status, 200);
    assert_eq!(header_value(&headers, "etag"), Some(etag1.as_str()));
    assert_eq!(body_json(&body)["artifact"].as_str(), Some("tod-v001"));

    // And a subsequent good version still swaps in. (Quarantining freed
    // the corrupt version's slot, so the store may reassign its number —
    // use the name it actually got.)
    let recovery = store
        .save_versioned("tod", &tod_artifact(&dataset, 2.0), &provenance())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = fetch(&addr, "/version", &[]);
        if body_json(&body)["artifact"].as_str() == Some(recovery.as_str()) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "recovery version never swapped in"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown();
}

#[test]
fn keep_alive_connections_serve_every_path_repeatedly() {
    let tmp = TempDir::new("keepalive");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 2.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 2, 1_000);
    let addr = server.addr().to_string();
    // Two clients, each sending the whole request cycle twice over one
    // connection: every response must be complete and well framed, or
    // the next exchange on the same socket misreads it.
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut statuses = Vec::new();
                for path in serve::load::PATHS.iter().chain(serve::load::PATHS) {
                    let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
                    writer.write_all(req.as_bytes()).unwrap();
                    statuses.push((*path, read_response(&mut reader).0));
                }
                statuses
            })
        })
        .collect();
    for client in clients {
        let statuses = client.join().unwrap();
        assert_eq!(statuses.len(), 2 * serve::load::PATHS.len());
        for (path, status) in statuses {
            assert!((200..300).contains(&status), "{path} answered {status}");
        }
    }
    server.shutdown();
}

/// A `tod` artifact that also carries incident provenance rows (7 f64s
/// per incident, see [`INCIDENTS_SECTION`]).
fn incident_artifact(dataset: &Dataset, level: f64, rows: &[f64]) -> ArtifactBuilder {
    let mut b = tod_artifact(dataset, level);
    b.add_f64s(INCIDENTS_SECTION, rows);
    b
}

#[test]
fn incidents_endpoint_serves_provenance() {
    let tmp = TempDir::new("incidents");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    // v001 carries no incident section: the endpoint must serve an empty
    // list, not an error.
    store
        .save_versioned("tod", &tod_artifact(&dataset, 1.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 1, 10);
    let addr = server.addr().to_string();

    let (status, headers, body) = fetch(&addr, "/incidents", &[]);
    assert_eq!(status, 200);
    let empty = body_json(&body);
    assert_eq!(empty["count"].as_u64(), Some(0));
    assert_eq!(empty["active"].as_u64(), Some(0));
    assert_eq!(empty["incidents"].as_array().unwrap().len(), 0);
    let etag = header_value(&headers, "etag").unwrap().to_string();

    // Conditional GET round-trips on the same validator as every other
    // cacheable endpoint.
    let inm = format!("If-None-Match: {etag}");
    let (status, _, body) = fetch(&addr, "/incidents", &[&inm]);
    assert_eq!(status, 304);
    assert!(body.is_empty());

    // v002 straddles one active closure and one future signal outage.
    let rows = [
        0.0, 0.0, 3.0, 600.0, 300.0, 1.0, 1.0, // active closure on link 3
        2.0, 1.0, 1.0, 2000.0, 120.0, 0.5, 2.0, // scheduled outage at node 1
    ];
    store
        .save_versioned(
            "tod",
            &incident_artifact(&dataset, 2.0, &rows),
            &provenance(),
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let incidents = loop {
        let (status, _, body) = fetch(&addr, "/incidents", &[]);
        assert_eq!(status, 200);
        let v = body_json(&body);
        if v["count"].as_u64() == Some(2) {
            break v;
        }
        assert!(
            Instant::now() < deadline,
            "incident version never swapped in"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(incidents["active"].as_u64(), Some(1));
    let list = incidents["incidents"].as_array().unwrap();
    assert_eq!(list[0]["kind"].as_str(), Some("closure"));
    assert_eq!(list[0]["link"].as_u64(), Some(3));
    assert_eq!(list[0]["onset_tick"].as_u64(), Some(600));
    assert_eq!(list[0]["duration_ticks"].as_u64(), Some(300));
    assert_eq!(list[0]["status"].as_str(), Some("active"));
    assert_eq!(list[1]["kind"].as_str(), Some("signal_outage"));
    assert_eq!(list[1]["node"].as_u64(), Some(1));
    assert_eq!(list[1]["status"].as_str(), Some("scheduled"));

    server.shutdown();
}

#[test]
fn hot_swap_with_active_incidents_serves_zero_5xx() {
    let tmp = TempDir::new("incident-swap");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 1.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 4, 10);
    let addr = server.addr().to_string();

    // Readers hammer the incident and kpi endpoints while a snapshot
    // with an active incident hot-swaps in: every response must be 200
    // (or a legitimate 304), never 5xx, and never torn.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut readers = Vec::new();
    for i in 0..4 {
        let addr = addr.clone();
        let stop = stop.clone();
        let path = if i % 2 == 0 { "/incidents" } else { "/kpis" };
        readers.push(std::thread::spawn(move || {
            let mut responses = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let (status, headers, _) = fetch(&addr, path, &[]);
                assert!(
                    status == 200,
                    "{path} answered {status} during incident hot-swap"
                );
                assert!(header_value(&headers, "etag").is_some());
                responses += 1;
            }
            responses
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    let rows = [0.0, 0.0, 0.0, 0.0, 600.0, 1.0, 1.0];
    store
        .save_versioned(
            "tod",
            &incident_artifact(&dataset, 3.0, &rows),
            &provenance(),
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = fetch(&addr, "/incidents", &[]);
        if body_json(&body)["active"].as_u64() == Some(1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "incident swap never became visible"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers never completed a request");

    server.shutdown();
}

#[test]
fn oversized_request_head_is_answered_431() {
    let tmp = TempDir::new("slow-client");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    let dataset = tiny_dataset();
    store
        .save_versioned("tod", &tod_artifact(&dataset, 1.0), &provenance())
        .unwrap();
    let server = start_server(tmp.path(), 1, 1_000);
    let addr = server.addr().to_string();

    // A request line far past the head budget: the server must cut the
    // read off at the cap and answer 431, not buffer indefinitely.
    let huge_path = format!("/{}", "a".repeat(64 * 1024));
    let (status, _, body) = fetch(&addr, &huge_path, &[]);
    assert_eq!(status, 431);
    assert!(body_json(&body)["error"].as_str().is_some());

    // An oversized header block is rejected the same way.
    let padding = format!("X-Pad: {}", "b".repeat(32 * 1024));
    let (status, _, _) = fetch(&addr, "/healthz", &[&padding]);
    assert_eq!(status, 431);

    // The guard counted both rejects and the server still works.
    let (status, _, _) = fetch(&addr, "/healthz", &[]);
    assert_eq!(status, 200);
    let slow = obs::global().counter("serve_slow_clients_total").get();
    assert!(slow >= 2, "slow-client counter never moved: {slow}");

    server.shutdown();
}
