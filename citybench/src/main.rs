//! The repository benchmark: one command runs a workload, checks the
//! program's outputs, and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path citybench/Cargo.toml -- \
//!     --workload <recover|corpus|stream|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the named workload's end-to-end metrics with no
//! tracing at all. `--trace 1` is a separate run that records spans
//! around each layer's public calls and prints per-layer metrics and
//! self-time tables. It makes the traced run of every workload, so it
//! reports the same per-layer metrics whichever workload is named. See
//! `citybench/README.md` for the workloads and how to read the output.

mod corpus;
mod layers;
mod openloop;
mod recover;
mod serving;
mod stats;
mod streaming;
mod trace;

use datagen::city::{city_groundtruth_tod, synthesize_populations, CityDemandSpec};
use neural::rng::Rng64;
use roadnet::{presets, OdSet, RoadNetwork, TodTensor};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Seed of the fixed Manhattan city (populations and ground-truth
/// demand). The workload seed drives everything else; see the README
/// for why the city itself stays fixed.
pub const CITY_SEED: u64 = 7;
/// Demand scale of every Manhattan input (`BENCH_numeric`'s).
pub const DEMAND_SCALE: f64 = 0.15;
/// Interval length of every Manhattan input, seconds.
pub const INTERVAL_S: f64 = 300.0;
/// Set-ups repeated through the measured phase, one after each
/// `1/SETUP_SPREAD` of it, on top of the one before it that the ops use.
/// `setup_s` is the median of all of them. The host's speed drifts over
/// seconds, so set-ups taken in one burst agree with each other but not
/// with the next run's; spread through the run, they sample that drift
/// the way the op median does.
pub const SETUP_SPREAD: usize = 5;

const USAGE: &str =
    "usage: citybench --workload <recover|corpus|stream|serve> --seed <n> --seconds <s> --trace <0|1>";

type Workload = fn(&Ctx, &mut Outcome) -> Res<()>;

/// Each workload with its measured run and its traced run.
const WORKLOADS: [(&str, Workload, Workload); 4] = [
    ("recover", recover::run, recover::traced),
    ("corpus", corpus::run, corpus::traced),
    ("stream", streaming::run, streaming::traced),
    ("serve", serving::run, serving::traced),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Worker threads (N): the machine's parallelism.
    pub threads: usize,
    /// Scratch directory for stores and span files.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A seed for one purpose, derived from the workload seed.
    pub fn derive(&self, purpose: u64) -> u64 {
        Rng64::stream_seed(self.seed, purpose)
    }
}

/// What a run reports: checks, op counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.failures
                .push(format!("metric {name} is not finite: {value}"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a run of `workload` to this one: its ops, checks and
    /// metrics. A metric name reported twice fails the run.
    fn absorb(&mut self, workload: &str, part: Outcome) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        for (name, value, unit) in part.metrics {
            let taken = self.metrics.iter().any(|(n, _, _)| *n == name);
            self.check(!taken, || {
                format!("{workload}: metric {name} reported twice")
            });
            self.metrics.push((name, value, unit));
        }
        self.failures.extend(
            part.failures
                .into_iter()
                .map(|f| format!("{workload}: {f}")),
        );
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Runs `op` back to back until the ops have taken `seconds` and at
/// least `min_ops` ran (the op running at the deadline completes), and
/// returns each op's wall time in ms. After each `1/SETUP_SPREAD` of
/// that op time it runs `setup` once, outside the ops' clock. The floor
/// keeps a median over a slow host's run from resting on a handful of
/// ops.
pub fn measure(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> Res<()>,
    mut setup: impl FnMut() -> Res<()>,
) -> Res<Vec<f64>> {
    let mut times = Vec::new();
    let mut busy = 0.0;
    let mut setups = 0;
    while times.len() < min_ops || busy < seconds {
        let (s, r) = timed(&mut op);
        r?;
        busy += s;
        times.push(s * 1e3);
        while setups < SETUP_SPREAD && busy >= seconds * (setups + 1) as f64 / SETUP_SPREAD as f64 {
            setup()?;
            setups += 1;
        }
    }
    Ok(times)
}

/// The fixed Manhattan city: network with populations, all OD pairs,
/// and `t` intervals of ground-truth demand.
pub fn manhattan(t: usize) -> (RoadNetwork, OdSet, TodTensor) {
    let mut net = presets::manhattan().network;
    synthesize_populations(&mut net, &mut Rng64::new(CITY_SEED));
    let ods = OdSet::all_pairs(&net);
    let demand = CityDemandSpec {
        peak_trips_per_interval: 60.0 * DEMAND_SCALE,
        seed: CITY_SEED,
        ..CityDemandSpec::default()
    };
    let gt = city_groundtruth_tod(&net, &ods, t, &demand);
    (net, ods, gt)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let num = |name: &str| -> Result<u64, String> {
        flag(name)?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: flag("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("citybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Publishing a model records `git describe` as provenance. Keep git
    // from searching above the working directory for a repository.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let threads = roadnet::parallel::init_global(Some(roadnet::parallel::machine_threads()));
    let out_dir = PathBuf::from("citybench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("citybench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        out_dir,
    };
    eprintln!(
        "citybench: workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let Some(&(_, run, _)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("citybench: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut o = Outcome::default();
    if args.trace {
        // Every traced run reports every per-layer metric, so it makes
        // the traced run of each workload, whichever one is named.
        for &(name, _, traced) in &WORKLOADS {
            let mut part = Outcome::default();
            if let Err(e) = traced(&ctx, &mut part) {
                part.check(false, || format!("run aborted: {e}"));
            }
            o.absorb(name, part);
        }
    } else if let Err(e) = run(&ctx, &mut o) {
        o.check(false, || format!("run aborted: {e}"));
    }
    if !args.trace {
        o.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    for f in &o.failures {
        eprintln!("citybench: CHECK FAILED: {f}");
    }
    println!("{}", o.to_json());
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_json_has_the_contract_keys_and_fails_on_checks() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("op_ms", 1.25, "ms");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "bits differ".into());
        o.metric("bad", f64::NAN, "ms");
        assert!(!o.correct());
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn absorbed_runs_add_up_and_keep_metric_names_unique() {
        let mut all = Outcome::default();
        for (workload, metric) in [("recover", "a_ms"), ("corpus", "b_ms")] {
            let mut part = Outcome {
                attempted: 2,
                failed: 1,
                ..Outcome::default()
            };
            part.metric(metric, 1.0, "ms");
            all.absorb(workload, part);
        }
        assert_eq!((all.attempted, all.failed), (4, 2));
        assert!(all.correct());
        let mut again = Outcome::default();
        again.metric("a_ms", 2.0, "ms");
        again.check(false, || "bits differ".into());
        all.absorb("stream", again);
        assert_eq!(
            all.failures,
            ["stream: metric a_ms reported twice", "stream: bits differ"]
        );
    }
}
