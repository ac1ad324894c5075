//! Open-loop HTTP load over one keep-alive connection.
//!
//! Request `i` is due at `i / rate` seconds after the start, whether or
//! not earlier responses have arrived; requests are pipelined on the
//! connection and the server answers them in order. Latency runs from
//! the due time, so a stalled response is charged to every request
//! queued behind it, and the sender's own lateness is recorded.
//!
//! The sender and the receiver are two threads on the one connection.
//! A single thread would have to wait for responses through a socket
//! read timeout, which Linux rounds up to a whole scheduler tick, so a
//! late response would hold back later sends by milliseconds.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the receiver waits for a byte before it gives up on the
/// requests still outstanding (they are reported as failed).
const RECEIVE_TIMEOUT: Duration = Duration::from_secs(5);

/// What one open-loop run observed. The client keeps two `f32`s per
/// request and a few counters, so its memory stays small next to the
/// server's.
#[derive(Debug, Default)]
pub struct Load {
    /// Latency of each answered request from its due time, ms, in
    /// request order.
    pub latency_ms: Vec<f32>,
    /// How late the sender put each request on the wire, ms.
    pub lateness_ms: Vec<f32>,
    /// Requests scheduled.
    pub count: usize,
    /// Requests answered with a byte-identical response and no 5xx.
    pub ok: usize,
    /// Responses with a 5xx status.
    pub server_errors: usize,
}

impl Load {
    /// Requests that got no response, a wrong one, or a 5xx.
    pub fn failed(&self) -> usize {
        self.count - self.ok
    }

    /// Requests the sender put on the wire.
    pub fn sent(&self) -> usize {
        self.lateness_ms.len()
    }
}

/// Sends `count` requests at `rate_per_s` to `addr`: request `i` is
/// `wire[key(i)]` and must be answered with `expected[key(i)]`.
pub fn run(
    addr: SocketAddr,
    rate_per_s: f64,
    count: usize,
    key: &(dyn Fn(usize) -> usize + Sync),
    wire: &[Vec<u8>],
    expected: &[Vec<u8>],
) -> std::io::Result<Load> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut rx = stream.try_clone()?;
    rx.set_read_timeout(Some(RECEIVE_TIMEOUT))?;
    let mut tx = stream;
    warm_up(
        &mut tx,
        &mut rx,
        wire.first().map_or(&[][..], Vec::as_slice),
    )?;
    let period_ns = 1e9 / rate_per_s;
    let intended = move |i: usize| (i as f64 * period_ns) as u64;
    let start = Instant::now();
    let since = move || start.elapsed().as_nanos() as u64;

    let (lateness_ms, received) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut late = Vec::with_capacity(count);
            for i in 0..count {
                let due = intended(i);
                let now = since();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                late.push(ms(since().saturating_sub(due)));
                if tx.write_all(&wire[key(i)]).is_err() {
                    break;
                }
            }
            late
        });
        let receiver = s.spawn(move || receive(&mut rx, count, key, expected, intended, since));
        (
            sender.join().expect("sender thread does not panic"),
            receiver.join().expect("receiver thread does not panic"),
        )
    });
    Ok(Load {
        lateness_ms,
        count,
        ..received
    })
}

fn ms(ns: u64) -> f32 {
    (ns as f64 / 1e6) as f32
}

/// One exchange before the schedule starts, so that accepting the
/// connection is not charged to the first requests.
fn warm_up(tx: &mut TcpStream, rx: &mut TcpStream, request: &[u8]) -> std::io::Result<()> {
    tx.write_all(request)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while response_len(&buf).is_none() {
        let n = rx.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok(())
}

/// Reads responses in order until `count` arrived or the connection
/// goes quiet, timing each from its request's due time.
fn receive(
    rx: &mut TcpStream,
    count: usize,
    key: &(dyn Fn(usize) -> usize + Sync),
    expected: &[Vec<u8>],
    intended: impl Fn(usize) -> u64,
    since: impl Fn() -> u64,
) -> Load {
    let mut load = Load {
        latency_ms: Vec::with_capacity(count),
        ..Load::default()
    };
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 256 * 1024];
    let mut from = 0usize;
    while load.latency_ms.len() < count {
        let n = match rx.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let now = since();
        buf.extend_from_slice(&chunk[..n]);
        while let Some(len) = response_len(&buf[from..]) {
            let resp = &buf[from..from + len];
            let i = load.latency_ms.len();
            load.latency_ms.push(ms(now.saturating_sub(intended(i))));
            let status = status_of(resp);
            if status >= 500 {
                load.server_errors += 1;
            } else if resp == expected[key(i)].as_slice() {
                load.ok += 1;
            }
            from += len;
            if load.latency_ms.len() == count {
                break;
            }
        }
        if from == buf.len() {
            buf.clear();
            from = 0;
        } else if from > (1 << 20) {
            buf.drain(..from);
            from = 0;
        }
    }
    load
}

/// Length of the complete response at the start of `buf`, if all of it
/// has arrived.
fn response_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let body = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    (buf.len() >= head_end + body).then_some(head_end + body)
}

fn status_of(resp: &[u8]) -> u16 {
    std::str::from_utf8(resp.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    /// A server answering every request with [`OK`], stalling `stall`
    /// before it answers request number `stalled`.
    fn fake_server(stalled: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut writer = conn;
            let mut line = String::new();
            let mut served = 0;
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line != "\r\n" {
                    continue;
                }
                if served == stalled {
                    std::thread::sleep(stall);
                }
                writer.write_all(OK).unwrap();
                served += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn stalled_response_is_charged_to_requests_queued_behind_it() {
        let stall_ms = 100.0;
        // The server's request 0 is the warm-up exchange, so its request
        // 6 is the schedule's request 5.
        let (addr, server) = fake_server(6, Duration::from_millis(100));
        let wire = vec![b"GET / HTTP/1.1\r\n\r\n".to_vec()];
        let expected = vec![OK.to_vec()];
        // 1000 req/s: request i is due at i ms.
        let load = run(addr, 1000.0, 40, &|_| 0, &wire, &expected).unwrap();
        server.join().unwrap();
        assert_eq!((load.ok, load.failed(), load.sent()), (40, 0, 40));
        let lat: Vec<f64> = load.latency_ms.iter().map(|&l| f64::from(l)).collect();
        assert!(lat[5] >= stall_ms, "stalled request: {}", lat[5]);
        // Request i > 5 was due (i - 5) ms after the stalled one and
        // could not be answered before the stall ended.
        for (i, &l) in lat.iter().enumerate().skip(6).take(30) {
            let floor = stall_ms - (i - 5) as f64;
            assert!(l >= floor - 0.5, "request {i}: latency {l} ms < {floor} ms");
        }
        // Requests before the stall were not charged for it.
        assert!(lat[..5].iter().all(|&l| l < stall_ms / 2.0));
    }

    #[test]
    fn mismatched_and_missing_responses_are_not_ok() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let wire = vec![b"GET / HTTP/1.1\r\n\r\n".to_vec()];
        let expected = vec![b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nno".to_vec()];
        let load = run(addr, 2000.0, 4, &|_| 0, &wire, &expected).unwrap();
        server.join().unwrap();
        // All four answered, none byte-identical.
        assert_eq!((load.latency_ms.len(), load.ok, load.failed()), (4, 0, 4));
    }

    #[test]
    fn response_len_waits_for_the_whole_body() {
        assert_eq!(response_len(OK), Some(OK.len()));
        assert_eq!(response_len(&OK[..OK.len() - 1]), None);
        assert_eq!(status_of(OK), 200);
    }
}
