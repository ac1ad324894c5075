//! Hostile input to the fault-plan parser: every text must come out of
//! [`FaultPlan::parse`] as a plan or a [`PlanError`] — never a panic — and
//! parsing it may not ask the allocator for more than a fixed multiple of
//! its length.
//!
//! Inputs are every single-bit flip and every truncation of valid plans,
//! seeded random text (arbitrary characters, and plan-shaped lines of
//! sections, keys and values), arrays of 100,000 elements under every
//! array key, tens of thousands of `[[network.incident]]` sections (bare
//! and complete), and megabyte-long keys, values, strings, comments and
//! section headers.
//!
//! A counting `#[global_allocator]` sums the bytes each thread requests,
//! so every input family is its own `#[test]` and sibling test threads
//! cannot pollute one another's sums.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fault::plan::FaultPlan;

struct CountingAlloc;

thread_local! {
    /// Bytes this thread has asked the allocator for. A `const` `Cell`
    /// has no destructor and no lazy initialiser, so touching it never
    /// allocates and never re-enters the allocator.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// Adds `bytes` to the calling thread's count. `try_with` fails only while
/// the thread is being torn down, when nothing is being measured.
fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump; every
// call forwards the caller's layout/pointer unchanged, so `System`'s own
// GlobalAlloc contract is what holds the invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the unmodified layout to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
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
        count(new_size);
        // SAFETY: `ptr` came from `System.alloc`; layout/new_size forwarded
        // unchanged per the GlobalAlloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes the allocator may be asked for per input byte.
const BYTES_PER_INPUT_BYTE: u64 = 8;

/// Fixed allowance per `parse` call on top of the proportional bound: the
/// default plan's sweep axes, the first growth steps of the incident list,
/// and the error message every failure builds.
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

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.index(items.len())]
    }
}

/// Tallies of one run, so the test can show which outcomes the inputs
/// reached.
#[derive(Default)]
struct Tally {
    inputs: usize,
    plans: usize,
    errors: usize,
    /// Worst bytes requested per input byte, over long inputs.
    worst_ratio: f64,
    /// The input that set `worst_ratio`.
    worst: String,
}

impl Tally {
    /// Parses `text` once and checks the bytes requested against the
    /// bound for its length.
    fn feed(&mut self, what: &str, text: &str) {
        self.inputs += 1;
        let before = REQUESTED.with(Cell::get);
        let outcome = FaultPlan::parse(text);
        let bytes = REQUESTED.with(Cell::get) - before;
        match outcome {
            Ok(_) => self.plans += 1,
            Err(_) => self.errors += 1,
        }
        let len = text.len() as u64;
        let bound = BYTES_PER_INPUT_BYTE * len + SLACK_BYTES;
        assert!(
            bytes <= bound,
            "{what}: {bytes} bytes requested for a {len}-byte plan (bound {bound})"
        );
        let ratio = bytes as f64 / len as f64;
        if text.len() >= LONG_INPUT && ratio > self.worst_ratio {
            self.worst_ratio = ratio;
            self.worst = what.to_string();
        }
    }
}

impl Tally {
    /// Checks that the family reached both outcomes, and prints its
    /// summary.
    fn report(&self, family: &str) {
        assert!(
            self.plans > 0 && self.errors > 0,
            "{family}: {} plans, {} errors",
            self.plans,
            self.errors
        );
        println!(
            "{family}: {} inputs: {} plans, {} errors; worst allocation on inputs of {LONG_INPUT}+ bytes: {:.1} bytes per input byte ({}; bound {BYTES_PER_INPUT_BYTE} per byte + {SLACK_BYTES} B per call)",
            self.inputs, self.plans, self.errors, self.worst_ratio, self.worst
        );
    }
}

/// Valid plans: every section and key of the grammar, and a minimal one.
const SEEDS: &[&str] = &[
    r#"# every key
seed = 42

[observation]
dropout = 0.3
noise_std = 0.5
stuck = 0.05
nonfinite = 0.01

[training]
stage = "fit"
nonfinite_steps = [12, 3]
ckpt_fail_steps = [20]
persistent = false

[storage]
bit_flips = 3
truncate_bytes = 0

[sweep]
dropouts = [0.0, 0.1, 0.3, 0.5]
noise_stds = [0.0, 0.5]

[network]
kind = "capacity_drop"
target_link = 7
onset_tick = 60
sweep_severities = [0.3, 0.9]
sweep_durations = [30, 120]

[[network.incident]]
kind = "closure"
link = 4
onset_tick = 120
duration_ticks = 240
severity = 1.0

[[network.incident]]
kind = "signal_outage"
node = 2
onset_tick = 30
duration_ticks = 60
severity = 0.8
"#,
    "seed = 1\n[sweep]\ndropouts = [0.2]\n",
];

/// Every single-bit flip that keeps the text UTF-8, and every truncation
/// at a character boundary.
fn flips_and_cuts(t: &mut Tally, tag: &str, input: &str) {
    let bytes = input.as_bytes();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.to_vec();
            m[pos] ^= 1 << bit;
            if let Ok(text) = String::from_utf8(m) {
                t.feed(
                    &format!("{tag} with bit {bit} of byte {pos} flipped"),
                    &text,
                );
            }
        }
    }
    for cut in (0..bytes.len()).filter(|&c| input.is_char_boundary(c)) {
        t.feed(&format!("{tag} cut to {cut} bytes"), &input[..cut]);
    }
}

/// `[section]\nkey = [e0, e1, ...]` with `n` elements drawn by `elem`.
fn array_plan(section: &str, key: &str, n: usize, elem: impl Fn(usize) -> String) -> String {
    let mut out = format!("[{section}]\n{key} = [");
    for i in 0..n {
        out.push_str(&elem(i));
        out.push(',');
    }
    out.push_str("]\n");
    out
}

#[test]
fn flipped_and_truncated_plans_stay_within_the_allocation_bound() {
    let mut t = Tally::default();
    for (s, seed) in SEEDS.iter().enumerate() {
        t.feed(&format!("seed {s}"), seed);
        flips_and_cuts(&mut t, &format!("seed {s}"), seed);
    }
    t.report("bit flips and truncations");
}

/// Huge arrays under every array key: the smallest elements, distinct
/// elements (which the step lists sort and deduplicate), only commas, and
/// a bad element at the very end.
#[test]
fn huge_arrays_stay_within_the_allocation_bound() {
    let mut t = Tally::default();
    let array_keys = [
        ("sweep", "dropouts"),
        ("sweep", "noise_stds"),
        ("training", "nonfinite_steps"),
        ("training", "ckpt_fail_steps"),
        ("network", "sweep_severities"),
        ("network", "sweep_durations"),
    ];
    const N: usize = 100_000;
    for (section, key) in array_keys {
        let zeros = array_plan(section, key, N, |_| "0".to_string());
        t.feed(&format!("{N} zeros in {section}.{key}"), &zeros);
        let ones = array_plan(section, key, N, |_| "1".to_string());
        t.feed(&format!("{N} ones in {section}.{key}"), &ones);
        let distinct = array_plan(section, key, N, |i| (N - i).to_string());
        t.feed(&format!("{N} distinct in {section}.{key}"), &distinct);
        let commas = format!("[{section}]\n{key} = [{}]\n", ",".repeat(N));
        t.feed(&format!("{N} commas in {section}.{key}"), &commas);
        let bad_tail = array_plan(section, key, N, |i| {
            if i + 1 == N { "x" } else { "1" }.to_string()
        });
        t.feed(
            &format!("{N} elements ending in x in {section}.{key}"),
            &bad_tail,
        );
    }

    t.report("huge arrays");
}

/// Tens of thousands of incident sections: bare headers, complete
/// incidents, complete incidents with one bad key at the end, and
/// complete incidents after one without a kind.
#[test]
fn thousands_of_incident_sections_stay_within_the_allocation_bound() {
    let mut t = Tally::default();
    let bare = "[[network.incident]]\n".repeat(20_000);
    t.feed("20000 bare incident headers", &bare);
    let incident =
        "[[network.incident]]\nkind = \"closure\"\nlink = 1\nduration_ticks = 5\nseverity = 1\n";
    let complete = incident.repeat(20_000);
    t.feed("20000 complete incidents", &complete);
    t.feed(
        "20000 complete incidents then a typo",
        &format!("{complete}severety = 1\n"),
    );
    t.feed(
        "20000 incidents, the first without a kind",
        &format!("[[network.incident]]\nlink = 1\nduration_ticks = 5\nseverity = 1\n{complete}"),
    );

    t.report("incident sections");
}

/// Megabyte lines: keys, values, strings, comments, headers, and lines
/// without an `=`, in ASCII and in multi-byte characters.
#[test]
fn megabyte_lines_stay_within_the_allocation_bound() {
    let mut t = Tally::default();
    const MB: usize = 1 << 20;
    for fill in ["a", "é", "7"] {
        let long = fill.repeat(MB / fill.len());
        for (tag, text) in [
            ("key", format!("{long} = 1\n")),
            ("value", format!("seed = {long}\n")),
            ("string", format!("[training]\nstage = \"{long}\"\n")),
            (
                "unterminated string",
                format!("[network]\nkind = \"{long}\n"),
            ),
            (
                "incident kind",
                format!("[[network.incident]]\nkind = \"{long}\"\n"),
            ),
            ("array element", format!("[sweep]\ndropouts = [{long}]\n")),
            (
                "unterminated array",
                format!("[sweep]\ndropouts = [{long}\n"),
            ),
            ("comment", format!("seed = 1 # {long}\n")),
            ("section", format!("[{long}]\n")),
            ("array section", format!("[[{long}]]\n")),
            ("malformed section", format!("[{long}\n")),
            ("line without =", format!("{long}\n")),
        ] {
            t.feed(&format!("megabyte {tag} of {fill:?}"), &text);
        }
    }
    t.feed("megabyte of blank lines", &"\n".repeat(MB));
    t.feed("megabyte of spaces", &" ".repeat(MB));
    t.feed("megabyte of headers", &"[sweep]\n".repeat(MB / 8));

    t.report("megabyte lines");
}

/// Random text: arbitrary characters, and plan-shaped lines assembled
/// from the grammar's own sections, keys and values.
#[test]
fn random_text_stays_within_the_allocation_bound() {
    let mut t = Tally::default();
    let sections = [
        "[observation]",
        "[training]",
        "[storage]",
        "[sweep]",
        "[network]",
        "[[network.incident]]",
        "[",
        "[[",
    ];
    let keys = [
        "seed",
        "dropout",
        "noise_std",
        "stage",
        "nonfinite_steps",
        "persistent",
        "bit_flips",
        "dropouts",
        "noise_stds",
        "kind",
        "link",
        "node",
        "onset_tick",
        "duration_ticks",
        "severity",
        "sweep_durations",
        "x",
    ];
    let values = [
        "0",
        "1",
        "0.5",
        "-1",
        "1e308",
        "nan",
        "inf",
        "true",
        "false",
        "\"fit\"",
        "\"closure\"",
        "\"",
        "[]",
        "[1, 2]",
        "[0.1,",
        "[,]",
        "18446744073709551616",
        "",
    ];
    for i in 0..2000u64 {
        let mut rng = SplitMix(0x9A_0000 + i);
        let len = rng.index(512);
        let noise: String = (0..len)
            .map(|_| match rng.index(8) {
                0 => '\n',
                1 => char::from_u32(rng.index(0x3000) as u32).unwrap_or('?'),
                _ => (b' ' + rng.index(95) as u8) as char,
            })
            .collect();
        t.feed(&format!("random text {i}"), &noise);
        let mut shaped = String::new();
        for _ in 0..rng.index(40) {
            match rng.index(5) {
                0 => shaped.push_str(rng.pick(&sections)),
                _ => {
                    shaped.push_str(rng.pick(&keys));
                    shaped.push_str(" = ");
                    shaped.push_str(rng.pick(&values));
                }
            }
            shaped.push('\n');
        }
        t.feed(&format!("random plan-shaped text {i}"), &shaped);
    }

    t.report("random text");
}
