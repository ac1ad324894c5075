//! Integration tests for the `cityod serve` subcommands, driving the real
//! binary via `CARGO_BIN_EXE_cityod`.
//!
//! The `serve` smoke test trains a tiny artifact (`CITYOD_OVS_TINY=1`),
//! launches the long-running server on an OS-assigned port, reads the
//! bound address from its stdout, exercises a couple of endpoints over a
//! raw TCP client, and kills the child. The keep-alive test sends the
//! whole `serve::load::PATHS` cycle twice over one connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Dataset flags small enough for debug-build training runs.
const TINY_FLAGS: &[&str] = &["--t", "2", "--train", "2", "--demand", "0.1", "--seed", "5"];

struct TempDirs {
    dirs: Vec<PathBuf>,
}

impl TempDirs {
    fn new(tag: &str, n: usize) -> Self {
        let dirs: Vec<PathBuf> = (0..n)
            .map(|i| {
                let d = std::env::temp_dir()
                    .join(format!("cityod-serve-cli-{tag}-{i}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&d);
                d
            })
            .collect();
        Self { dirs }
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn cityod(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cityod"));
    cmd.args(args).env("CITYOD_OVS_TINY", "1");
    cmd.env_remove("CITYOD_ARTIFACTS");
    cmd.output().expect("cityod binary runs")
}

/// A running `cityod serve` child that is killed on drop even when the
/// test panics mid-way.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cityod serve` and parses the bound address from its first
/// stdout line (`serving <net> on http://127.0.0.1:<port>`).
fn spawn_serve(args: &[&str]) -> (ServeChild, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cityod"));
    cmd.args(args)
        .env("CITYOD_OVS_TINY", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd.env_remove("CITYOD_ARTIFACTS");
    let mut child = cmd.spawn().expect("cityod serve spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("serve prints its address");
    let addr = line
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in serve banner: {line:?}"))
        .trim()
        .to_string();
    (ServeChild(child), addr)
}

/// Connects to `addr`, retrying for up to 10 s, with a 10 s read timeout.
fn connect(addr: &str) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Minimal HTTP GET: returns (status, body).
fn get(addr: &str, path: &str) -> (u16, String) {
    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    read_response(&mut BufReader::new(stream))
}

/// Reads one `Content-Length`-framed HTTP response: returns (status, body).
fn read_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
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
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// Trains and registers a tiny versioned `tod` artifact in `store`.
fn save_tiny_tod(store: &str) {
    let mut args = vec!["checkpoint", "save", "grid3x3", "tod", "--versioned"];
    args.extend_from_slice(TINY_FLAGS);
    args.extend_from_slice(&["--store", store]);
    let out = cityod(&args);
    assert!(
        out.status.success(),
        "checkpoint save failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Spawns `cityod serve` on the `tod` family in `store`; the dataset
/// flags must match the artifact's shape.
fn spawn_tiny_serve(store: &str) -> (ServeChild, String) {
    let mut args = vec![
        "serve",
        "grid3x3",
        "--family",
        "tod",
        "--addr",
        "127.0.0.1:0",
        "--http-threads",
        "2",
    ];
    args.extend_from_slice(TINY_FLAGS);
    args.extend_from_slice(&["--store", store]);
    spawn_serve(&args)
}

#[test]
fn serve_hosts_a_trained_artifact_end_to_end() {
    let tmp = TempDirs::new("serve", 1);
    let store = tmp.dirs[0].to_str().unwrap().to_string();

    save_tiny_tod(&store);
    let (_child, addr) = spawn_tiny_serve(&store);

    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "healthz body: {body}");
    let (status, body) = get(&addr, "/version");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"artifact\":\"tod-v001\""),
        "version: {body}"
    );
    let (status, body) = get(&addr, "/kpis");
    assert_eq!(status, 200);
    assert!(body.contains("\"masked_speed_rmse\""), "kpis: {body}");
    let (status, _) = get(&addr, "/links/0");
    assert_eq!(status, 200);
    let (status, _) = get(&addr, "/definitely/not/an/endpoint");
    assert_eq!(status, 404);
}

#[test]
fn serve_without_source_or_artifact_fails_cleanly() {
    let tmp = TempDirs::new("serve-err", 1);
    let store = tmp.dirs[0].to_str().unwrap().to_string();

    // No --family/--artifact: usage error.
    let out = cityod(&["serve", "grid3x3", "--store", &store]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--family"));

    // A family with no artifacts: clean failure, not a hang.
    let mut args = vec!["serve", "grid3x3", "--family", "nothing"];
    args.extend_from_slice(TINY_FLAGS);
    args.extend_from_slice(&["--store", &store, "--addr", "127.0.0.1:0"]);
    let out = cityod(&args);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no good artifact"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_answers_every_path_over_one_keep_alive_connection() {
    let tmp = TempDirs::new("keepalive", 1);
    let store = tmp.dirs[0].to_str().unwrap().to_string();
    save_tiny_tod(&store);
    let (_child, addr) = spawn_tiny_serve(&store);

    // The whole request cycle twice over one connection: every response
    // must be complete and well framed, or the next exchange on the same
    // socket misreads it.
    let stream = connect(&addr);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for path in serve::load::PATHS.iter().chain(serve::load::PATHS) {
        writer
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let (status, body) = read_response(&mut reader);
        assert!((200..300).contains(&status), "{path} answered {status}");
        assert!(!body.is_empty(), "{path} sent an empty body");
    }
}
