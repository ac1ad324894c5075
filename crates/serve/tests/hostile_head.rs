//! Hostile input to the HTTP request-head parser: every byte stream must
//! come out of [`read_request`] as a [`ReadOutcome`] or an `io::Error` —
//! never a panic — and reading it may not ask the allocator for more than
//! a fixed multiple of its length.
//!
//! Inputs are every single-bit flip and every truncation of valid heads
//! (pipelined ones included), seeded random bytes (bare, as header lines
//! and behind a valid request line), thousands of distinct and repeated
//! tiny header lines and query parameters, and lines ending at, just
//! under and just over [`MAX_HEAD_BYTES`] in ASCII, control bytes and
//! invalid UTF-8. Each is read whole, a few bytes per read and one byte
//! per read, and through a reader that fails partway.
//!
//! A counting `#[global_allocator]` sums the bytes requested; the whole
//! file is one `#[test]` so no sibling test thread can pollute the sum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, BufRead, BufReader, Read};
use std::sync::atomic::{AtomicU64, Ordering};

use serve::http::{read_request, ReadOutcome, MAX_HEAD_BYTES};

struct CountingAlloc;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// call forwards the caller's layout/pointer unchanged, so `System`'s own
// GlobalAlloc contract is what holds the invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the unmodified layout to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; layout unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the unmodified pointer/layout to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator's `alloc`, which is
        // `System.alloc`; same layout per the GlobalAlloc contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the unmodified arguments to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`; layout/new_size forwarded
        // unchanged per the GlobalAlloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes the allocator may be asked for per input byte, over all the
/// `read_request` calls one input takes.
const BYTES_PER_INPUT_BYTE: u64 = 8;

/// Fixed allowance per `read_request` call on top of the proportional
/// bound: the line buffer's first growth steps, the outcome's strings and
/// maps at their smallest, and the error message every failure builds.
const SLACK_BYTES: u64 = 2048;

/// Inputs at least this long show the proportional part of the bound in
/// the printed summary; shorter ones are dominated by the slack.
const LONG_INPUT: usize = 1024;

/// Seeded splitmix64 draws, so every random input is reproducible from
/// its index.
struct SplitMix(u64);

impl SplitMix {
    fn index(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A reader over `bytes` that fails with an IO error once `fail_at`
/// bytes have been handed out.
struct FailingReader<'a> {
    bytes: &'a [u8],
    fail_at: usize,
}

impl Read for FailingReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.fail_at == 0 {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"));
        }
        let n = out.len().min(self.bytes.len()).min(self.fail_at);
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        self.fail_at -= n;
        Ok(n)
    }
}

/// Tallies of one run, so the test can show which outcomes the inputs
/// reached.
#[derive(Default)]
struct Tally {
    inputs: usize,
    requests: usize,
    closed: usize,
    malformed: usize,
    too_large: usize,
    io_errors: usize,
    /// Worst bytes requested per input byte, over long inputs.
    worst_ratio: f64,
}

impl Tally {
    /// Reads requests from `reader` the way a keep-alive connection does,
    /// until anything but a parsed request comes back, and checks the
    /// bytes requested against the bound for a `len`-byte input.
    fn drain(&mut self, what: &str, len: usize, reader: &mut impl BufRead) {
        let before = REQUESTED.load(Ordering::Relaxed);
        let mut calls = 0u64;
        // Every parsed request consumes at least one byte, so the loop
        // ends; the cap only turns a parser bug into a failure.
        let last = loop {
            calls += 1;
            assert!(calls <= len as u64 + 1, "{what}: read loop did not end");
            match read_request(reader) {
                Ok(ReadOutcome::Request(_)) => self.requests += 1,
                other => break other,
            }
        };
        let bytes = REQUESTED.load(Ordering::Relaxed) - before;
        match last {
            Ok(ReadOutcome::Closed) => self.closed += 1,
            Ok(ReadOutcome::Malformed(_)) => self.malformed += 1,
            Ok(ReadOutcome::TooLarge) => self.too_large += 1,
            // The loop breaks only on the other outcomes.
            Ok(ReadOutcome::Request(_)) => {}
            Err(_) => self.io_errors += 1,
        }
        drop(last);
        let bound = BYTES_PER_INPUT_BYTE * len as u64 + SLACK_BYTES * calls;
        assert!(
            bytes <= bound,
            "{what}: {bytes} bytes requested over {calls} calls for a {len}-byte input (bound {bound})"
        );
        if len >= LONG_INPUT {
            self.worst_ratio = self.worst_ratio.max(bytes as f64 / len as f64);
        }
    }

    /// Feeds one input whole, in 7-byte reads and in 1-byte reads.
    fn feed(&mut self, what: &str, input: &[u8]) {
        self.inputs += 1;
        let mut whole = input;
        self.drain(what, input.len(), &mut whole);
        for chunk in [7, 1] {
            let mut reader = BufReader::with_capacity(chunk, input);
            self.drain(
                &format!("{what} in {chunk}-byte reads"),
                input.len(),
                &mut reader,
            );
        }
    }
}

/// Valid heads: a conditional GET with a query, a HEAD that closes, and
/// two pipelined requests.
fn seeds() -> Vec<Vec<u8>> {
    [
        "GET /od?origin=2&dest=5 HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"abc\"\r\n\r\n",
        "HEAD /links/3 HTTP/1.0\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.1\r\n\r\nGET /kpis?x HTTP/1.1\nX-A: 1\n\n",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

/// Every single-bit flip and every truncation of `input`.
fn flips_and_cuts(t: &mut Tally, tag: &str, input: &[u8]) {
    for pos in 0..input.len() {
        for bit in 0..8 {
            let mut m = input.to_vec();
            m[pos] ^= 1 << bit;
            t.feed(&format!("{tag} with bit {bit} of byte {pos} flipped"), &m);
        }
    }
    for cut in 0..input.len() {
        t.feed(&format!("{tag} cut to {cut} bytes"), &input[..cut]);
    }
}

/// A short distinct token per index: base-62 digits.
fn token(mut i: usize) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let mut out = String::new();
    loop {
        out.push(DIGITS[i % DIGITS.len()] as char);
        i /= DIGITS.len();
        if i == 0 {
            return out;
        }
    }
}

/// A request line whose length with its `\r\n` is exactly `len`, padded
/// in the target with `fill`, followed by `tail`.
fn line_of(len: usize, fill: u8, tail: &[u8]) -> Vec<u8> {
    let mut out = b"GET /".to_vec();
    out.resize(len - b" HTTP/1.1\r\n".len(), fill);
    out.extend_from_slice(b" HTTP/1.1\r\n");
    out.extend_from_slice(tail);
    out
}

#[test]
fn hostile_heads_read_to_outcomes_within_the_allocation_bound() {
    let mut t = Tally::default();

    for (s, seed) in seeds().iter().enumerate() {
        t.feed(&format!("seed {s}"), seed);
        flips_and_cuts(&mut t, &format!("seed {s}"), seed);
    }

    // Thousands of tiny header lines, distinct and repeated, and as many
    // query parameters as fit on one request line.
    for (tag, line) in [("distinct", None), ("repeated", Some("a"))] {
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        let mut i = 0;
        while head.len() < MAX_HEAD_BYTES - 16 {
            head.extend_from_slice(line.map_or_else(|| token(i), str::to_string).as_bytes());
            head.extend_from_slice(b":\n");
            i += 1;
        }
        head.extend_from_slice(b"\r\n");
        t.feed(&format!("{i} {tag} tiny header lines"), &head);
    }
    let mut target = b"GET /?".to_vec();
    let mut i = 0;
    while target.len() < MAX_HEAD_BYTES - 32 {
        target.extend_from_slice(token(i).as_bytes());
        target.push(b'&');
        i += 1;
    }
    target.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    t.feed(&format!("{i} distinct query parameters"), &target);

    // Lines ending at, just under and just over the head budget, as the
    // request line and as the last header line.
    for fill in [b'a', 0x01, 0xFF] {
        for len in [MAX_HEAD_BYTES - 1, MAX_HEAD_BYTES, MAX_HEAD_BYTES + 1] {
            t.feed(
                &format!("{len}-byte request line of {fill:#04x}"),
                &line_of(len, fill, b"\r\n"),
            );
            let mut head = b"GET / HTTP/1.1\r\nX: ".to_vec();
            head.resize(len - 2, fill);
            head.extend_from_slice(b"\r\n\r\n");
            t.feed(
                &format!("head with a header line ending at byte {len} of {fill:#04x}"),
                &head,
            );
        }
        // One unbroken line inside the budget, as the request line and as
        // a header line without a colon, which the malformed outcome
        // quotes; and twice the budget with no line end at all.
        let mut bare = vec![fill; MAX_HEAD_BYTES - 1];
        bare.push(b'\n');
        t.feed(&format!("{}-byte line of {fill:#04x}", bare.len()), &bare);
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        head.extend_from_slice(&bare[bare.len() - (MAX_HEAD_BYTES - 32)..]);
        t.feed(
            &format!("header line of {fill:#04x} without a colon"),
            &head,
        );
        let endless = vec![fill; MAX_HEAD_BYTES * 2];
        t.feed(&format!("endless line of {fill:#04x}"), &endless);
    }

    // Random bytes: bare, as header lines behind a valid request line,
    // and as printable text broken into lines.
    for i in 0..2000u64 {
        let mut rng = SplitMix(0x4EAD_0000 + i);
        let len = rng.index(512);
        let noise: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        t.feed(&format!("random input {i}"), &noise);
        let mut framed = b"GET /r HTTP/1.1\r\n".to_vec();
        framed.extend_from_slice(&noise);
        t.feed(&format!("random headers {i}"), &framed);
        let text: Vec<u8> = (0..len)
            .map(|_| match rng.index(16) {
                0 => b'\n',
                1 => b':',
                2 => b' ',
                _ => b'!' + rng.index(94) as u8,
            })
            .collect();
        t.feed(&format!("random text {i}"), &text);
    }

    // A connection that fails partway through every seed.
    for (s, seed) in seeds().iter().enumerate() {
        for fail_at in 0..seed.len() {
            t.inputs += 1;
            let mut reader = BufReader::with_capacity(
                7,
                FailingReader {
                    bytes: seed,
                    fail_at,
                },
            );
            t.drain(
                &format!("seed {s} failing after {fail_at} bytes"),
                seed.len(),
                &mut reader,
            );
        }
    }

    assert!(t.requests > 0 && t.closed > 0 && t.malformed > 0);
    assert!(t.too_large > 0 && t.io_errors > 0);
    println!(
        "{} inputs: {} requests, {} closed, {} malformed, {} too large, {} IO errors; worst allocation on inputs of {LONG_INPUT}+ bytes: {:.1} bytes per input byte (bound {BYTES_PER_INPUT_BYTE} per byte + {SLACK_BYTES} B per call)",
        t.inputs, t.requests, t.closed, t.malformed, t.too_large, t.io_errors, t.worst_ratio
    );
}
