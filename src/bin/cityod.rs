//! `cityod` — command-line front end for the city-od workspace.
//!
//! ```text
//! cityod networks                         list available road networks
//! cityod simulate <net> [--t N] [--demand F] [--seed S]
//! cityod recover  <net> [--method M] [--t N] [--demand F] [--seed S] [--aux]
//! cityod checkpoint save <net> <name>     train OVS, register the artifact
//! cityod checkpoint list                  list registered artifacts
//! cityod checkpoint inspect <name>        sections + provenance of one
//! cityod checkpoint verify [<name>]       checksum-verify one or all
//! cityod checkpoint gc <family> [--keep K]  drop old family versions
//! cityod faults run <net> --plan FILE     degradation sweep under faults
//! cityod serve <net> --family F|--artifact A   HTTP query layer over artifacts
//! cityod stream run <net> --windows N     rolling-window online re-estimation
//! ```
//!
//! Networks: `grid3x3`, `hangzhou`, `porto`, `manhattan`, `state_college`.
//! Methods: `ovs` (default), `gravity`, `genetic`, `gls`, `em`, `nn`,
//! `lstm`, or `all`.
//!
//! Checkpoint subcommands operate on an artifact registry directory:
//! `--store DIR` beats the `CITYOD_ARTIFACTS` environment variable beats
//! the default `artifacts/`. `checkpoint save` accepts the same dataset
//! flags as `simulate`, plus `--versioned` to save under the next free
//! `<name>-vNNN` instead of overwriting.
//!
//! Every command accepts `--threads N` to pin the worker-thread count of
//! the parallel data-generation and evaluation layers (`CITYOD_THREADS`
//! is the environment fallback; the machine's core count is the default).
//! Results are bit-identical for every thread count.
//!
//! Every command also accepts `--metrics FILE` to export the full
//! process-global metrics registry (simulator conservation counters,
//! per-stage trainer losses, per-estimator eval timings) as JSON when the
//! command finishes, and `--metrics-stable FILE` to export only the
//! deterministic subset — byte-identical across runs and `--threads`
//! settings, so two exports can be `diff`ed to audit determinism.
//!
//! Setting `CITYOD_OVS_TINY=1` swaps the CLI's OVS configuration for
//! `OvsConfig::tiny()` — the integration-test hook that keeps CLI-driven
//! training runs fast in debug builds.
//!
//! `serve` hosts the read-side HTTP query layer (crate `serve`) over the
//! artifact store: `--family F` follows the newest good `F-vNNN` version
//! (hot-swapping as the trainer lands new ones), `--artifact A` pins one
//! name. `--addr` (default `127.0.0.1:8080`, port 0 picks a free port),
//! `--http-threads` (server workers, default 2) and `--poll-ms` (watcher
//! poll interval) tune the server; dataset flags select the serving
//! geometry, which must match the artifact's TOD shape.
//!
//! `stream run` drives the rolling-window online re-estimation loop
//! (crate `stream`): a seeded simulator source emits per-link speed
//! observations frame by frame, overlapping windows of `--t` intervals
//! close every `--stride` intervals (after `--watermark` intervals of
//! late-arrival grace), and each closed window re-estimates the TOD —
//! warm-starting stage 3 from the previous window's model — then
//! publishes into the versioned artifact family `stream-<run-id>` that
//! `cityod serve --family` hot-swaps from. `--late`/`--delay`/`--drift`
//! shape the source (late-arrival fraction, its frame delay, demand
//! drift); `--keep K` garbage-collects the family down to the newest K
//! good versions after each publish (0 keeps everything). Interrupted
//! runs resume: already-published windows replay as `skipped`. `--json`
//! prints the machine-readable report instead of the table (or writes it
//! to a file when given a path).
//!
//! `faults run` loads a seeded fault plan (`--plan FILE`, TOML subset —
//! see DESIGN.md §10), optionally overrides its master seed with
//! `--seed N`, and prints the degradation report: recovered-TOD accuracy
//! at every sweep grid point (dropout fraction x noise sigma), with the
//! speed RMSE masked to surviving sensors. `--json FILE` additionally
//! writes the report as JSON. Without `--plan` a built-in default sweep
//! (dropout 0 / 0.1 / 0.3, no noise) runs.

use city_od::baselines;
use city_od::checkpoint::store::ArtifactStore;
use city_od::checkpoint::SnapshotSource;
use city_od::datagen::dataset::DatasetSpec;
use city_od::datagen::{Dataset, TodPattern};
use city_od::eval::harness::{run_method, DatasetInput};
use city_od::eval::{default_methods, tables};
use city_od::fault::{degradation_report, FaultPlan};
use city_od::ovs_core::estimator::matrix_to_tod;
use city_od::ovs_core::trainer::{OvsEstimator, OvsTrainer, RecoveryPolicy, RunOptions};
use city_od::ovs_core::{artifact, OvsConfig, TodEstimator};
use city_od::roadnet::presets;
use city_od::serve::{ServeOptions, Server};
use city_od::stream::{
    incident_sweep, SimSource, SimSourceConfig, StreamConfig, StreamDriver, WindowSpec,
};
use std::process::ExitCode;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), it.next().expect("peeked"));
                }
                _ => {
                    switches.insert(name.to_string());
                }
            }
        } else {
            positional.push(arg);
        }
    }
    Args {
        positional,
        flags,
        switches,
    }
}

impl Args {
    fn flag_f64(&self, name: &str, default: f64) -> f64 {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
    fn flag_usize(&self, name: &str, default: usize) -> usize {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cityod networks\n  cityod simulate <net> [--t N] [--demand F] [--seed S] [--threads N]\n  cityod recover <net> [--method ovs|gravity|genetic|gls|em|nn|lstm|all] [--t N] [--demand F] [--seed S] [--aux] [--threads N]\n  cityod checkpoint save <net> <name> [--versioned] [--t N] [--demand F] [--seed S] [--threads N] [--store DIR]\n  cityod checkpoint list [--store DIR]\n  cityod checkpoint inspect <name> [--store DIR]\n  cityod checkpoint verify [<name>] [--store DIR]\n  cityod checkpoint gc <family> [--keep K] [--store DIR]\n  cityod faults run <net> [--plan FILE] [--seed S] [--json FILE] [--t N] [--demand F] [--threads N] [--store DIR]\n  cityod serve <net> (--family F | --artifact A) [--addr HOST:PORT] [--http-threads N] [--poll-ms MS] [--store DIR]\n  cityod stream run <net> [--windows N] [--t N] [--stride N] [--watermark N] [--seed S] [--demand F] [--late F] [--delay N] [--drift F] [--plan FILE] [--run-id ID] [--keep K] [--json [FILE]] [--threads N] [--store DIR]\nnetworks: grid3x3 hangzhou porto manhattan state_college\nstore: --store beats CITYOD_ARTIFACTS beats ./artifacts\nmetrics: every command accepts --metrics FILE (full JSON export) and\n         --metrics-stable FILE (deterministic subset only)"
    );
    ExitCode::from(2)
}

fn build_dataset(net_name: &str, spec: &DatasetSpec) -> Option<Dataset> {
    let ds = match net_name {
        "grid3x3" => Dataset::synthetic(TodPattern::Gaussian, spec),
        "hangzhou" => Dataset::city(presets::hangzhou(), spec),
        "porto" => Dataset::city(presets::porto(), spec),
        "manhattan" => Dataset::city(presets::manhattan(), spec),
        "state_college" => Dataset::city(presets::state_college(), spec),
        other => {
            eprintln!("unknown network '{other}'");
            return None;
        }
    };
    match ds {
        Ok(ds) => Some(ds),
        Err(e) => {
            eprintln!("failed to build dataset: {e}");
            None
        }
    }
}

fn method_by_name(name: &str, seed: u64, ovs: OvsConfig) -> Option<Box<dyn TodEstimator>> {
    Some(match name {
        "ovs" => Box::new(OvsEstimator::new(ovs)),
        "gravity" => Box::new(baselines::GravityEstimator::new()),
        "genetic" => Box::new(baselines::GeneticEstimator::new(seed)),
        "gls" => Box::new(baselines::GlsEstimator::new(seed)),
        "em" => Box::new(baselines::EmEstimator::new()),
        "nn" => Box::new(baselines::NnEstimator::new(seed)),
        "lstm" => Box::new(baselines::LstmEstimator::new(seed)),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    // Pin the worker-thread count before any parallel work is dispatched:
    // --threads beats CITYOD_THREADS beats the machine's core count.
    let requested = args.flags.get("threads").and_then(|v| v.parse().ok());
    city_od::roadnet::parallel::init_global(requested);
    let code = run_command(&args);
    match write_metrics(&args) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("metrics export failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Exports the process-global metrics registry after the command ran:
/// `--metrics FILE` writes the full JSON (timings included),
/// `--metrics-stable FILE` the deterministic subset only.
fn write_metrics(args: &Args) -> std::io::Result<()> {
    if let Some(path) = args.flags.get("metrics") {
        std::fs::write(path, city_od::obs::global().to_json(true))?;
    }
    if let Some(path) = args.flags.get("metrics-stable") {
        std::fs::write(path, city_od::obs::global().to_json_stable())?;
    }
    Ok(())
}

fn run_command(args: &Args) -> ExitCode {
    let Some(cmd) = args.positional.first().map(String::as_str) else {
        return usage();
    };
    match cmd {
        "networks" => {
            println!(
                "{:<15} {:>13} {:>8} {:>9}",
                "network", "intersections", "roads", "regions"
            );
            let grid = presets::synthetic_grid();
            println!(
                "{:<15} {:>13} {:>8} {:>9}",
                "grid3x3",
                grid.num_nodes(),
                grid.num_roads(),
                grid.num_regions()
            );
            for c in presets::all_cities() {
                println!(
                    "{:<15} {:>13} {:>8} {:>9}",
                    c.name.to_lowercase().replace(' ', "_"),
                    c.network.num_nodes(),
                    c.network.num_roads(),
                    c.network.num_regions()
                );
            }
            ExitCode::SUCCESS
        }
        "checkpoint" => checkpoint_cmd(args),
        "faults" => faults_cmd(args),
        "serve" => serve_cmd(args),
        "stream" => stream_cmd(args),
        "simulate" | "recover" => {
            let Some(net_name) = args.positional.get(1) else {
                return usage();
            };
            let spec = dataset_spec(args);
            let Some(ds) = build_dataset(net_name, &spec) else {
                return ExitCode::FAILURE;
            };
            let ovs_cfg = cli_ovs_config(spec.seed);
            match cmd {
                "simulate" => {
                    println!(
                        "{}: {} links, {} OD pairs, {:.0} trips demanded",
                        ds.name,
                        ds.n_links(),
                        ds.n_od(),
                        ds.groundtruth_tod.total()
                    );
                    let mean_speed =
                        ds.observed_speed.total() / ds.observed_speed.as_slice().len() as f64;
                    println!("observed mean speed: {mean_speed:.2} m/s");
                    for ti in 0..ds.n_intervals() {
                        let mut s = 0.0;
                        for j in 0..ds.n_links() {
                            s += ds.observed_speed.get(city_od::roadnet::LinkId(j), ti);
                        }
                        println!(
                            "  interval {ti}: mean speed {:.2} m/s",
                            s / ds.n_links() as f64
                        );
                    }
                    ExitCode::SUCCESS
                }
                _ => {
                    // recover
                    let owned = DatasetInput::new(&ds);
                    let with_aux = args.switches.contains("aux");
                    let input = owned.input(&ds, with_aux);
                    let method = args
                        .flags
                        .get("method")
                        .map(String::as_str)
                        .unwrap_or("ovs");
                    let mut results = Vec::new();
                    if method == "all" {
                        for mut m in default_methods(ovs_cfg, spec.seed) {
                            match run_method(m.as_mut(), &ds, &input) {
                                Ok((r, _)) => results.push(r),
                                Err(e) => eprintln!("{} failed: {e}", m.name()),
                            }
                        }
                    } else {
                        let Some(mut m) = method_by_name(method, spec.seed, ovs_cfg) else {
                            eprintln!("unknown method '{method}'");
                            return ExitCode::FAILURE;
                        };
                        match run_method(m.as_mut(), &ds, &input) {
                            Ok((r, _)) => results.push(r),
                            Err(e) => {
                                eprintln!("{method} failed: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    println!("{}", tables::render_comparison(&ds.name, &results));
                    ExitCode::SUCCESS
                }
            }
        }
        _ => usage(),
    }
}

fn dataset_spec(args: &Args) -> DatasetSpec {
    DatasetSpec {
        t: args.flag_usize("t", 6),
        interval_s: args.flag_f64("interval", 300.0),
        train_samples: args.flag_usize("train", 6),
        demand_scale: args.flag_f64("demand", 0.15),
        seed: args.flag_usize("seed", 7) as u64,
    }
}

fn cli_ovs_config(seed: u64) -> OvsConfig {
    // Test hook: CITYOD_OVS_TINY swaps in the small configuration so
    // CLI-driven training stays fast in debug integration tests.
    if std::env::var_os("CITYOD_OVS_TINY").is_some() {
        return OvsConfig::tiny().with_seed(seed);
    }
    OvsConfig {
        lstm_hidden: 16,
        seed,
        ..OvsConfig::default()
    }
}

fn open_store(args: &Args) -> Option<ArtifactStore> {
    let opened = match args.flags.get("store") {
        Some(dir) => ArtifactStore::open(dir),
        None => ArtifactStore::open_default(),
    };
    match opened {
        Ok(store) => Some(store),
        Err(e) => {
            eprintln!("cannot open artifact store: {e}");
            None
        }
    }
}

fn checkpoint_save(args: &Args, store: &ArtifactStore) -> ExitCode {
    let (Some(net_name), Some(name)) = (args.positional.get(2), args.positional.get(3)) else {
        return usage();
    };
    let spec = dataset_spec(args);
    let Some(ds) = build_dataset(net_name, &spec) else {
        return ExitCode::FAILURE;
    };
    let owned = DatasetInput::new(&ds);
    let input = owned.input(&ds, false);
    let trainer = OvsTrainer::new(cli_ovs_config(spec.seed));
    let (mut model, report) = match trainer.run(&input, RunOptions::default()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tod = matrix_to_tod(&model.recovered_tod());
    let saved = artifact::save_model(&mut model, Some(&tod)).and_then(|builder| {
        let mut prov = artifact::model_provenance(&mut model, &report)?;
        prov.note = format!("cityod checkpoint save {net_name}");
        if args.switches.contains("versioned") {
            store.save_versioned(name, &builder, &prov)
        } else {
            store.save(name, &builder, &prov).map(|_| name.to_string())
        }
    });
    match saved {
        Ok(assigned) => {
            println!(
                "trained OVS on {} (final fit loss {:.4}), artifact '{assigned}' -> {}",
                ds.name,
                report.final_fit().unwrap_or(f64::NAN),
                store.dir().display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("save failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cityod serve <net> (--family F | --artifact A)`: host the HTTP query
/// layer until the process is killed.
fn serve_cmd(args: &Args) -> ExitCode {
    let Some(net_name) = args.positional.get(1) else {
        return usage();
    };
    let source = match (args.flags.get("artifact"), args.flags.get("family")) {
        (Some(name), _) => SnapshotSource::Name(name.clone()),
        (None, Some(family)) => SnapshotSource::Family(family.clone()),
        (None, None) => {
            eprintln!(
                "serve needs an artifact source: --family <family> (follow newest good \
                 version) or --artifact <name> (pin one)"
            );
            return usage();
        }
    };
    let spec = dataset_spec(args);
    let Some(ds) = build_dataset(net_name, &spec) else {
        return ExitCode::FAILURE;
    };
    let Some(store) = open_store(args) else {
        return ExitCode::FAILURE;
    };
    let opts = ServeOptions {
        addr: args
            .flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        threads: args.flag_usize("http-threads", 2),
        poll_ms: args.flag_usize("poll-ms", 500) as u64,
    };
    match Server::start(store, source, ds, &opts) {
        Ok(server) => {
            // Line-buffered stdout: tests (and humans) read the bound
            // address from this line before the server blocks.
            println!("serving {net_name} on http://{}", server.addr());
            println!(
                "endpoints: /healthz /version /kpis /links /links/<id> \
                 /od?origin=<r>&dest=<r> /map/geojson"
            );
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cityod stream run <net>`: rolling-window online re-estimation. A
/// seeded simulator source replays drifting demand as per-link speed
/// observations; every closed window re-estimates the TOD (warm-starting
/// from the previous window) and publishes a version into the family
/// `stream-<run-id>`, which a concurrently running
/// `cityod serve <net> --family stream-<run-id>` hot-swaps from.
fn stream_cmd(args: &Args) -> ExitCode {
    let Some("run") = args.positional.get(1).map(String::as_str) else {
        eprintln!("unknown stream subcommand (expected 'run')");
        return usage();
    };
    let Some(net_name) = args.positional.get(2) else {
        return usage();
    };
    let spec = dataset_spec(args);
    let Some(ds) = build_dataset(net_name, &spec) else {
        return ExitCode::FAILURE;
    };
    let Some(store) = open_store(args) else {
        return ExitCode::FAILURE;
    };
    // The window length is the dataset's interval count: each window
    // re-estimates one full TOD of `--t` intervals. Overlap comes from
    // the stride (default: half a window).
    let window_spec = match WindowSpec::new(
        ds.n_intervals(),
        args.flag_usize("stride", (ds.n_intervals() / 2).max(1)),
        args.flag_usize("watermark", 1) as u64,
    ) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("bad window geometry: {e}");
            return ExitCode::FAILURE;
        }
    };
    // --plan FILE installs the fault plan's [[network.incident]] timeline
    // on both the source (so the simulated traffic actually degrades) and
    // the driver (so every window's artifact records the incidents it
    // straddled).
    let incidents = match args.flags.get("plan") {
        Some(path) => match FaultPlan::from_file(std::path::Path::new(path)) {
            Ok(plan) => match plan.network.schedule() {
                Ok(schedule) => schedule,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => simulator::IncidentSchedule::default(),
    };
    let cfg = StreamConfig {
        run_id: args
            .flags
            .get("run-id")
            .cloned()
            .unwrap_or_else(|| net_name.clone()),
        windows: args.flag_usize("windows", 3),
        spec: window_spec,
        ovs: cli_ovs_config(spec.seed),
        keep_versions: args.flag_usize("keep", 0),
        recovery: RecoveryPolicy::default(),
        incidents: incidents.clone(),
    };
    let family = cfg.family();
    let source = SimSource::new(
        ds.clone(),
        window_spec,
        SimSourceConfig {
            seed: spec.seed,
            drift: args.flag_f64("drift", 0.2),
            late_frac: args.flag_f64("late", 0.1),
            late_delay_frames: args.flag_usize("delay", 1) as u64,
        },
    );
    let mut source = match source {
        Ok(source) => source,
        Err(e) => {
            eprintln!("bad source configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !incidents.is_empty() {
        source = source.with_incidents(incidents);
    }
    let mut driver = match StreamDriver::new(&ds, cfg) {
        Ok(driver) => driver,
        Err(e) => {
            eprintln!("stream run failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match driver.run(&store, &mut source) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stream run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // --json <FILE> writes the report; bare --json prints it instead of
    // the table.
    if args.switches.contains("json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("report encode failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{report}");
        println!(
            "serve with: cityod serve {net_name} --family {family} --t {} --seed {}",
            spec.t, spec.seed
        );
    }
    if let Some(path) = args.flags.get("json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("report encode failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.count(city_od::stream::WindowStatus::Failed) > 0 {
        eprintln!("warning: at least one window diverged past the retry budget");
    }
    ExitCode::SUCCESS
}

/// `cityod faults run <net> [--plan FILE] [--seed S] [--json FILE]`:
/// evaluates the OVS pipeline at every point of the plan's sweep grid
/// and prints RMSE vs dropout fraction / noise level.
fn faults_cmd(args: &Args) -> ExitCode {
    let Some("run") = args.positional.get(1).map(String::as_str) else {
        eprintln!("unknown faults subcommand (expected 'run')");
        return usage();
    };
    let Some(net_name) = args.positional.get(2) else {
        return usage();
    };
    let mut plan = match args.flags.get("plan") {
        Some(path) => match FaultPlan::from_file(std::path::Path::new(path)) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => FaultPlan::default(),
    };
    if let Some(seed) = args.flags.get("seed").and_then(|v| v.parse().ok()) {
        plan.seed = seed;
    }
    let spec = dataset_spec(args);
    let Some(ds) = build_dataset(net_name, &spec) else {
        return ExitCode::FAILURE;
    };
    let cfg = cli_ovs_config(spec.seed);
    // A plan with a [network] sweep runs the incident degradation /
    // recovery grid instead of the observation-fault grid: each point
    // streams windows through one scheduled incident and scores
    // pre / during / post masked RMSE.
    if plan.network.sweep.is_active() {
        let Some(store) = open_store(args) else {
            return ExitCode::FAILURE;
        };
        let base = store.dir().join("incident-sweep");
        return match incident_sweep(&ds, &cfg, &plan.network.sweep, plan.seed, &base) {
            Ok(report) => {
                print!("{report}");
                if report.diverged_unhealed_count() > 0 {
                    eprintln!("warning: at least one grid point diverged and never healed");
                }
                if let Some(path) = args.flags.get("json") {
                    match serde_json::to_string_pretty(&report) {
                        Ok(json) => {
                            if let Err(e) = std::fs::write(path, json) {
                                eprintln!("cannot write {path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                        Err(e) => {
                            eprintln!("report encode failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("incident sweep failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match degradation_report(&ds, &cfg, &plan) {
        Ok(report) => {
            print!("{report}");
            if report.points.iter().any(|p| p.diverged) {
                eprintln!("warning: at least one grid point diverged past the retry budget");
            }
            if let Some(path) = args.flags.get("json") {
                match serde_json::to_string_pretty(&report) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(path, json) {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    Err(e) => {
                        eprintln!("report encode failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fault sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the per-section audit of a corrupt artifact: every failing
/// section with its byte offset, plus structural damage, instead of just
/// the first error a snapshot would surface.
fn print_audit(store: &ArtifactStore, name: &str) {
    match store.audit(name) {
        Ok(audit) => {
            for s in audit.failures() {
                println!(
                    "  section '{}' at offset {} ({} bytes): stored crc32 {:08x}, computed {:08x}",
                    s.name, s.offset, s.len, s.stored, s.computed
                );
            }
            if let Some(structural) = &audit.structural {
                println!("  structural damage: {structural}");
            }
        }
        Err(e) => println!("  audit failed: {e}"),
    }
}

fn checkpoint_cmd(args: &Args) -> ExitCode {
    let Some(sub) = args.positional.get(1).map(String::as_str) else {
        return usage();
    };
    let Some(store) = open_store(args) else {
        return ExitCode::FAILURE;
    };
    match sub {
        "save" => checkpoint_save(args, &store),
        "list" => match store.list() {
            Ok(snapshots) => {
                println!(
                    "{:<28} {:<14} {:>10} {:>10} {:>9}",
                    "name", "kind", "bytes", "crc32", "sections"
                );
                for s in &snapshots {
                    println!(
                        "{:<28} {:<14} {:>10} {:>10} {:>9}",
                        s.name(),
                        s.artifact().kind(),
                        s.size(),
                        format!("{:08x}", s.content_crc()),
                        s.artifact().section_names().len()
                    );
                }
                println!(
                    "# {} artifact(s) in {}",
                    snapshots.len(),
                    store.dir().display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("list failed: {e}");
                ExitCode::FAILURE
            }
        },
        "inspect" => {
            let Some(name) = args.positional.get(2) else {
                return usage();
            };
            match store.snapshot(name) {
                Ok(snap) => {
                    println!("name:     {}", snap.name());
                    println!("path:     {}", store.artifact_path(name).display());
                    println!("kind:     {}", snap.artifact().kind());
                    println!("size:     {} bytes", snap.size());
                    println!("crc32:    {:08x}", snap.content_crc());
                    // The snapshot fingerprint doubles as the serving
                    // layer's ETag for this artifact.
                    println!("etag:     {}", snap.etag());
                    println!("sections: {}", snap.artifact().section_names().join(", "));
                    if let Some(p) = snap.provenance() {
                        println!("seed:     {}", p.seed);
                        println!("git:      {}", p.git);
                        println!("created:  {} (unix)", p.created_unix);
                        let params: usize = p.shape_sig.iter().map(|&(r, c)| r * c).sum();
                        println!(
                            "shapes:   {} tensors, {} parameters",
                            p.shape_sig.len(),
                            params
                        );
                        let trace = |name: &str, t: &[f64]| {
                            if let Some(last) = t.last() {
                                println!("{name}: {} steps, final loss {last:.6}", t.len());
                            }
                        };
                        trace("v2s:    ", &p.v2s_losses);
                        trace("tod2v:  ", &p.tod2v_losses);
                        trace("fit:    ", &p.fit_losses);
                        if !p.note.is_empty() {
                            println!("note:     {}", p.note);
                        }
                    } else {
                        println!("provenance: (none)");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("inspect failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "verify" => match args.positional.get(2) {
            Some(name) => match store.snapshot(name) {
                Ok(snap) => {
                    println!(
                        "{}: OK ({} bytes, crc32 {:08x})",
                        snap.name(),
                        snap.size(),
                        snap.content_crc()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{name}: CORRUPT — {e}");
                    print_audit(&store, name);
                    ExitCode::FAILURE
                }
            },
            None => match store.verify_all() {
                Ok(outcomes) => {
                    let mut bad = 0usize;
                    for (name, err) in &outcomes {
                        match err {
                            None => println!("{name}: OK"),
                            Some(e) => {
                                bad += 1;
                                println!("{name}: CORRUPT — {e}");
                                print_audit(&store, name);
                            }
                        }
                    }
                    println!("# {} artifact(s), {} corrupt", outcomes.len(), bad);
                    if bad == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("verify failed: {e}");
                    ExitCode::FAILURE
                }
            },
        },
        "gc" => {
            let Some(family) = args.positional.get(2) else {
                return usage();
            };
            let keep = args.flag_usize("keep", 3);
            match store.gc(family, keep) {
                Ok(removed) => {
                    for name in &removed {
                        println!("removed {name}");
                    }
                    println!("# kept newest {keep} of family '{family}'");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("gc failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("unknown checkpoint subcommand '{other}'");
            usage()
        }
    }
}
