//! Hostile input to the checkpoint decoder: every byte string must come
//! out of [`Snapshot::from_bytes`], [`audit_bytes`] and the payload
//! codecs as `Ok` or a typed error — never a panic or an abort — and no
//! call may ask the allocator for more than a fixed multiple of its
//! input length.
//!
//! Inputs are mutations of valid artifacts (every single-bit flip,
//! header and section table included; every truncation; the section
//! count, each name length and each payload length set to the maximum
//! of its type; the same for the length fields inside codec payloads)
//! plus seeded random bytes, bare and behind a valid header.
//!
//! A counting `#[global_allocator]` sums the bytes requested; the whole
//! file is one `#[test]` so no sibling test thread can pollute the sum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use checkpoint::codec::{decode_adam, decode_f64s, decode_matrices, encode_adam};
use checkpoint::format::{ArtifactBuilder, FORMAT_VERSION, MAGIC};
use checkpoint::{audit_bytes, CheckpointError, Snapshot};
use neural::optim::AdamSnapshot;
use neural::rng::Rng64;
use neural::Matrix;

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

/// Bytes the allocator may be asked for per input byte, by one call.
const BYTES_PER_INPUT_BYTE: u64 = 8;

/// Fixed allowance per call on top of the proportional bound: the error
/// message and the handful of small values every call builds whatever
/// its input.
const SLACK_BYTES: u64 = 1024;

/// Runs `f`, returning its result and the bytes it asked the allocator
/// for (the result's own allocations included).
fn requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = f();
    (out, REQUESTED.load(Ordering::Relaxed) - before)
}

/// A decode failure the format can produce from bytes alone. `Io` (and the
/// model-level kinds) would mean the decoder reached outside its input.
fn is_typed(e: &CheckpointError) -> bool {
    matches!(
        e,
        CheckpointError::BadMagic { .. }
            | CheckpointError::UnsupportedVersion { .. }
            | CheckpointError::Truncated { .. }
            | CheckpointError::ChecksumMismatch { .. }
            | CheckpointError::MissingSection { .. }
            | CheckpointError::Malformed(_)
    )
}

/// Inputs at least this long show the proportional part of the bound in
/// the printed summary; shorter ones are dominated by the slack.
const LONG_INPUT: usize = 1024;

/// Tallies of one run, so the test can show the mutations reached past
/// the header.
#[derive(Default)]
struct Tally {
    inputs: usize,
    ok: usize,
    /// Worst bytes requested per input byte, over long inputs.
    worst_ratio: f64,
}

impl Tally {
    fn check_alloc(&mut self, what: &str, len: usize, bytes: u64) {
        let bound = BYTES_PER_INPUT_BYTE * len as u64 + SLACK_BYTES;
        assert!(
            bytes <= bound,
            "{what}: {bytes} bytes requested for a {len}-byte input (bound {bound})"
        );
        if len >= LONG_INPUT {
            self.worst_ratio = self.worst_ratio.max(bytes as f64 / len as f64);
        }
    }

    /// Feeds one container input to both entry points.
    fn container(&mut self, what: &str, input: &[u8]) {
        self.inputs += 1;
        let (snapshot, bytes) = requested(|| Snapshot::from_bytes("hostile", input, None));
        self.check_alloc(
            &format!("Snapshot::from_bytes on {what}"),
            input.len(),
            bytes,
        );
        let (audit, bytes) = requested(|| audit_bytes(input));
        self.check_alloc(&format!("audit_bytes on {what}"), input.len(), bytes);
        match snapshot {
            Ok(_) => {
                self.ok += 1;
                assert!(audit.is_clean(), "{what}: decodes but the audit is dirty");
            }
            Err(e) => assert!(is_typed(&e), "{what}: untyped error {e}"),
        }
    }

    /// Feeds one payload to every codec decoder.
    fn payload(&mut self, what: &str, input: &[u8]) {
        self.inputs += 1;
        let (m, bytes) = requested(|| decode_matrices(input).map(drop));
        self.check_alloc(&format!("decode_matrices on {what}"), input.len(), bytes);
        let (f, bytes) = requested(|| decode_f64s(input).map(drop));
        self.check_alloc(&format!("decode_f64s on {what}"), input.len(), bytes);
        let (a, bytes) = requested(|| decode_adam(input).map(drop));
        self.check_alloc(&format!("decode_adam on {what}"), input.len(), bytes);
        for r in [m, f, a] {
            match r {
                Ok(()) => self.ok += 1,
                Err(e) => assert!(is_typed(&e), "{what}: untyped error {e}"),
            }
        }
    }
}

fn sample_adam() -> AdamSnapshot {
    AdamSnapshot {
        lr: 1e-3,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        t: 3,
        m: vec![Matrix::filled(2, 3, 0.5), Matrix::filled(1, 2, -1.0)],
        v: vec![Matrix::filled(2, 3, 0.25), Matrix::filled(1, 2, 2.0)],
    }
}

/// Valid artifacts covering every section codec, plus an empty kind.
fn seeds() -> Vec<Vec<u8>> {
    let mut full = ArtifactBuilder::new("ovs-model");
    full.add_matrices(
        "weights",
        &[Matrix::filled(2, 3, 1.5), Matrix::filled(1, 1, -0.0)],
    );
    full.add_f64s("losses", &[1.0, 0.5, 0.25]);
    full.add_adam("opt", &sample_adam());
    full.add_str("config", "{\"t\":4}");
    let mut bare = ArtifactBuilder::new("");
    bare.add_bytes("x", Vec::new());
    vec![full.to_bytes(), bare.to_bytes()]
}

/// Byte offsets of each table entry's name-length and payload-length
/// fields in a valid artifact.
fn table_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let read_u16 = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let mut at = 16;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len_at = at;
        let payload_len_at = at + 2 + read_u16(at);
        out.push((name_len_at, payload_len_at));
        at = payload_len_at + 8 + 4;
    }
    out
}

/// A container whose table is `n` minimal entries (empty name, empty
/// payload, CRC 0 — which is the CRC of nothing), after a kind entry
/// when `with_kind`: the most table entries, and so the most per-entry
/// bookkeeping, the format allows per input byte.
fn minimal_entries(n: u32, with_kind: bool) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(n + u32::from(with_kind)).to_le_bytes());
    let kind = b"k";
    if with_kind {
        out.extend_from_slice(&8u16.to_le_bytes());
        out.extend_from_slice(b"__kind__");
        out.extend_from_slice(&(kind.len() as u64).to_le_bytes());
        out.extend_from_slice(&checkpoint::format::crc32(kind).to_le_bytes());
    }
    for _ in 0..n {
        out.extend_from_slice(&[0; 2 + 8 + 4]);
    }
    if with_kind {
        out.extend_from_slice(kind);
    }
    out
}

/// A payload of `n` empty (0 x 0) matrices after an `n` count field, and
/// behind an Adam header: the most matrices per input byte.
fn empty_matrices(n: u64, adam_header: bool) -> Vec<u8> {
    let mut out = Vec::new();
    if adam_header {
        out.extend_from_slice(&[0; 5 * 8]);
    }
    out.extend_from_slice(&n.to_le_bytes());
    let per_slot = if adam_header { 2 } else { 1 };
    out.resize(out.len() + (per_slot * n as usize) * 16, 0);
    out
}

/// Every single-bit flip and every truncation of `input`.
fn flips_and_cuts(t: &mut Tally, tag: &str, input: &[u8], feed: fn(&mut Tally, &str, &[u8])) {
    for pos in 0..input.len() {
        for bit in 0..8 {
            let mut m = input.to_vec();
            m[pos] ^= 1 << bit;
            feed(
                t,
                &format!("{tag} with bit {bit} of byte {pos} flipped"),
                &m,
            );
        }
    }
    for cut in 0..input.len() {
        feed(t, &format!("{tag} cut to {cut} bytes"), &input[..cut]);
    }
}

#[test]
fn hostile_bytes_decode_to_typed_errors_within_the_allocation_bound() {
    let mut t = Tally::default();

    // Mutated containers.
    for (s, seed) in seeds().iter().enumerate() {
        t.container(&format!("seed {s}"), seed);
        flips_and_cuts(&mut t, &format!("seed {s}"), seed, Tally::container);
        let mut m = seed.clone();
        m[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        t.container(&format!("seed {s} with section count u32::MAX"), &m);
        for (i, (name_at, len_at)) in table_fields(seed).into_iter().enumerate() {
            let mut m = seed.clone();
            m[name_at..name_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
            t.container(&format!("seed {s} entry {i} with name length u16::MAX"), &m);
            let mut m = seed.clone();
            m[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            t.container(
                &format!("seed {s} entry {i} with payload length u64::MAX"),
                &m,
            );
        }
    }

    for with_kind in [false, true] {
        let input = minimal_entries(4096, with_kind);
        t.container(&format!("4096 minimal entries (kind: {with_kind})"), &input);
    }

    // Mutated payloads, fed to the codecs directly: inside a container
    // the section CRC would stop them before any codec ran.
    let matrices = {
        let mut b = ArtifactBuilder::new("k");
        b.add_matrices("w", &[Matrix::filled(2, 3, 1.5), Matrix::zeros(1, 2)]);
        Snapshot::from_bytes("k", &b.to_bytes(), None)
            .unwrap()
            .artifact()
            .bytes("w")
            .unwrap()
            .to_vec()
    };
    let adam = encode_adam(&sample_adam());
    for (tag, payload, length_fields) in [
        // Matrix count, then the first matrix's rows and cols.
        ("matrix list", &matrices, vec![0, 8, 16]),
        // Step counter and slot count, then the first m's rows and cols.
        ("adam state", &adam, vec![0, 40, 48, 56]),
    ] {
        t.payload(tag, payload);
        flips_and_cuts(&mut t, tag, payload, Tally::payload);
        for at in length_fields {
            let mut m = payload.clone();
            m[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            t.payload(&format!("{tag} with u64 at {at} set to u64::MAX"), &m);
        }
    }

    for adam_header in [false, true] {
        let input = empty_matrices(4096, adam_header);
        t.payload(
            &format!("4096 empty matrices (adam: {adam_header})"),
            &input,
        );
    }

    // Random bytes: bare, and behind a valid magic and version so the
    // table reader sees them.
    let mut header = MAGIC.to_vec();
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for i in 0..2000u64 {
        let mut rng = Rng64::for_index(0x5eed, i);
        let len = rng.index(256);
        let noise: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        t.container(&format!("random input {i}"), &noise);
        t.payload(&format!("random payload {i}"), &noise);
        let mut framed = header.clone();
        framed.extend_from_slice(&noise);
        t.container(&format!("random table {i}"), &framed);
    }

    assert!(t.ok > 0, "some mutations must still decode");
    println!(
        "{} inputs, {} decoded; worst allocation on inputs of {LONG_INPUT}+ bytes: {:.1} bytes per input byte (bound {BYTES_PER_INPUT_BYTE} per byte + {SLACK_BYTES} B)",
        t.inputs, t.ok, t.worst_ratio
    );
}
