//! CLI for cityod-lint.
//!
//! ```text
//! cargo run -p analyzer -- check [--json] [--rule D|P|S|U|C|M|A|X]
//!     [--baseline <path>] [--root <path>] [--update-baseline]
//! ```
//!
//! Exits 0 when the workspace is clean (all D/S/U/C/M/A/X findings
//! suppressed or absent, all P debt within the ratchet baseline), 1
//! otherwise, 2 on usage or I/O errors.

use analyzer::rules::Rule;
use analyzer::{check_workspace, find_root, CheckOptions};
use std::path::PathBuf;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            return if args.is_empty() { 2 } else { 0 };
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            return 2;
        }
    }

    let mut opts = CheckOptions::default();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--update-baseline" => opts.update_baseline = true,
            "--rule" => match it.next().and_then(|r| Rule::from_name(r)) {
                Some(r) => opts.rule = Some(r),
                None => {
                    eprintln!("--rule expects one of D, P, S, U, C, M, A, X\n{USAGE}");
                    return 2;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => opts.baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline expects a path\n{USAGE}");
                    return 2;
                }
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root expects a path\n{USAGE}");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return 2;
            }
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(r) => r,
        None => {
            eprintln!("could not locate a workspace root (no ancestor Cargo.toml with [workspace]); pass --root");
            return 2;
        }
    };

    match check_workspace(&root, &opts) {
        Ok(rep) => {
            if json {
                print!("{}", rep.render_json());
            } else {
                print!("{}", rep.render_text());
            }
            rep.exit_code()
        }
        Err(e) => {
            eprintln!("cityod-lint: {e}");
            2
        }
    }
}

const USAGE: &str = "cityod-lint — static analysis for the city-od workspace

USAGE:
    cargo run -p analyzer -- check [FLAGS]

FLAGS:
    --json               machine-readable findings (stable key order)
    --rule <R>           run a single rule pass (D|P|S|U|C|M|A|X)
    --baseline <path>    ratchet baseline (default: crates/analyzer/baseline.toml)
    --root <path>        workspace root (default: nearest [workspace] ancestor)
    --update-baseline    rewrite the baseline to the observed debt counts

RULES:
    D  determinism     no HashMap/HashSet, wall-clock, env or thread-id reads
                       on the stable-output path; no libm .exp()/.tanh()
                       in neural or ovs-core
    P  panic-safety    unwrap/expect/panic!/indexing debt, ratcheted by baseline
    S  shape soundness layer-stack in/out dims must chain
    U  unsafe audit    every `unsafe` needs a SAFETY comment
    C  concurrency     no static mut, guard-across-lock, write-under-read
                       or unjoined spawn in protected crates
    M  metrics         counters end _total, timing metrics end _seconds,
                       sorted label keys, no Stable metric fed from wall clock
    A  hot-path alloc  no heap allocation reachable from the Workspace
                       step path (or any `// lint: hot` root)
    X  dead API        no `pub fn` in crates/*/src that only tests name";
