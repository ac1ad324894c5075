//! `serve`: open-loop HTTP load on a one-worker `Server` serving a
//! Manhattan artifact.
//!
//! The only read path through checkpoint snapshots and serve's parsing,
//! routing and writing; it bypasses training entirely. One op is one
//! request, timed from its due time.

use crate::openloop::{self, Load};
use crate::stats::{median, tail};
use crate::trace::{self, Tracer};
use crate::{
    manhattan, timed, Ctx, Outcome, Res, CITY_SEED, DEMAND_SCALE, INTERVAL_S, SETUP_SPREAD,
};
use checkpoint::{ArtifactBuilder, ArtifactStore, Provenance, Snapshot, SnapshotSource};
use datagen::dataset::DatasetSpec;
use datagen::Dataset;
use neural::rng::Rng64;
use ovs_core::artifact::OVS_MODEL_KIND;
use ovs_core::estimator::tod_to_matrix;
use serve::http::{read_request, write_response, ReadOutcome, Request};
use serve::load::PATHS;
use serve::router::{endpoint_label, handle};
use serve::{ModelView, ServeOptions, Server};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;

const T: usize = 6;
/// Arrival rate of the measured run.
const RATE_PER_S: f64 = 5000.0;
/// Every fourth request revalidates with `If-None-Match` (a 304).
const REVALIDATE_EVERY: usize = 4;
/// Latency limit for `max_rate_per_s`.
const LIMIT_MS: f64 = 1.0;
/// Rates stepped through to find `max_rate_per_s`.
const RATE_STEPS: &[f64] = &[5000.0, 10000.0, 20000.0, 40000.0];
/// Length of each rate step.
const STEP_SECONDS: f64 = 2.0;
/// Seed purpose of the link and OD ids in the request mix.
const MIX: u64 = 4;

fn dataset() -> Res<Dataset> {
    let (net, ods, gt) = manhattan(T);
    let spec = DatasetSpec {
        t: T,
        interval_s: INTERVAL_S,
        train_samples: 1,
        demand_scale: DEMAND_SCALE,
        seed: CITY_SEED,
    };
    Ok(Dataset::assemble("Manhattan", net, ods, gt, &spec)?)
}

/// The request mix. It holds every distinct request the schedule can
/// send, with its expected wire response; request `i` is drawn from the
/// seed when it is sent, so the client keeps no per-request list.
struct Mix {
    seed: u64,
    /// Distinct ids of each `PATHS` slot: links, OD pairs, or 1.
    ids: Vec<usize>,
    /// Key of each slot's first request.
    base: Vec<usize>,
    wire: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

/// Parses a request the way the server does.
fn parse(wire: &[u8]) -> Res<Request> {
    match read_request(&mut Cursor::new(wire))? {
        ReadOutcome::Request(r) => Ok(r),
        other => Err(format!("benchmark request did not parse: {other:?}").into()),
    }
}

/// `router::handle` output on `view`, framed as the server frames it.
fn respond(view: &ModelView, req: &Request) -> Res<Vec<u8>> {
    let mut out = Vec::new();
    write_response(
        &mut out,
        &handle(view, req),
        !req.wants_close(),
        req.method == "HEAD",
    )?;
    Ok(out)
}

impl Mix {
    /// Every request of the `serve::load::PATHS` cycle over all link and
    /// OD ids, with and without `If-None-Match`, answered on `view`.
    fn new(ctx: &Ctx, view: &ModelView) -> Res<Self> {
        let ds = view.dataset();
        let pairs: Vec<(usize, usize)> = ds
            .ods
            .iter()
            .map(|(_, p)| (p.origin.0, p.destination.0))
            .collect();
        let mut mix = Mix {
            seed: ctx.derive(MIX),
            ids: Vec::new(),
            base: Vec::new(),
            wire: Vec::new(),
            expected: Vec::new(),
        };
        for slot in PATHS {
            let paths: Vec<String> = if slot.starts_with("/links/") {
                (0..ds.n_links()).map(|l| format!("/links/{l}")).collect()
            } else if slot.starts_with("/od?") {
                pairs
                    .iter()
                    .map(|(o, d)| format!("/od?origin={o}&dest={d}"))
                    .collect()
            } else {
                vec![slot.to_string()]
            };
            mix.ids.push(paths.len());
            mix.base.push(mix.wire.len());
            for path in &paths {
                for inm in [String::new(), format!("If-None-Match: {}\r\n", view.etag())] {
                    let wire =
                        format!("GET {path} HTTP/1.1\r\nHost: citybench\r\n{inm}\r\n").into_bytes();
                    mix.expected.push(respond(view, &parse(&wire)?)?);
                    mix.wire.push(wire);
                }
            }
        }
        Ok(mix)
    }

    /// Key of request `i`: its `PATHS` slot cycles, its id is drawn from
    /// the seed, and every fourth request revalidates.
    fn key(&self, i: usize) -> usize {
        let slot = i % PATHS.len();
        let id = match self.ids[slot] {
            1 => 0,
            n => Rng64::for_index(self.seed, i as u64).index(n),
        };
        let revalidate = usize::from(i % REVALIDATE_EVERY == REVALIDATE_EVERY - 1);
        self.base[slot] + 2 * id + revalidate
    }

    fn run(&self, server: &Server, rate: f64, count: usize) -> Res<Load> {
        Ok(openloop::run(
            server.addr(),
            rate,
            count,
            &|i| self.key(i),
            &self.wire,
            &self.expected,
        )?)
    }
}

/// A served artifact: the store and the server on it.
struct Served {
    dir: PathBuf,
    artifact: PathBuf,
    /// The snapshot the server serves, read back through the store.
    snapshot: Snapshot,
    dataset: Arc<Dataset>,
    server: Server,
}

impl Served {
    /// Set-up: writes the artifact, reads it back as a snapshot, and
    /// starts a one-worker server on it (which builds its `ModelView`).
    fn start(ctx: &Ctx, rep: usize) -> Res<Self> {
        let ds = dataset()?;
        let dir = ctx
            .out_dir
            .join(format!("serve-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir)?;
        let mut builder = ArtifactBuilder::new(OVS_MODEL_KIND);
        builder.add_matrix("recovered_tod", &tod_to_matrix(&ds.groundtruth_tod));
        let name = store.save_versioned(
            "served",
            &builder,
            &Provenance::new(OVS_MODEL_KIND, "{}", CITY_SEED),
        )?;
        let artifact = store.artifact_path(&name);
        let snapshot = store.snapshot(&name)?;
        if Snapshot::read_from(&artifact)?.fingerprint() != snapshot.fingerprint() {
            return Err("the artifact read back differs from the one written".into());
        }
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            // The artifact never changes; keep the watcher quiet.
            poll_ms: 3_600_000,
        };
        let server = Server::start(store, SnapshotSource::Name(name), ds.clone(), &opts)?;
        Ok(Self {
            dir,
            artifact,
            snapshot,
            dataset: Arc::new(ds),
            server,
        })
    }

    /// The client's reference view: the served snapshot, built after the
    /// server's own view so both render the same process counters.
    fn reference(&self) -> Res<ModelView> {
        Ok(ModelView::build(
            self.snapshot.clone(),
            self.dataset.clone(),
        )?)
    }

    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn run(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let count = (RATE_PER_S * ctx.seconds) as usize;
    // The set-ups run back to back, half before the measured server and
    // half after the load, not spread through the load as in the other
    // workloads: each starts a server, and servers started while one is
    // being measured leave memory behind in the process (thread arenas),
    // which spread `peak_rss_mb` over ten runs to 0.14 of its median.
    let mut setups = Vec::new();
    let mut start = |rep: usize| -> Res<Served> {
        let (s, served) = timed(|| Served::start(ctx, rep));
        setups.push(s);
        served
    };
    for rep in 1..=SETUP_SPREAD / 2 {
        start(rep)?.stop();
    }
    let served = start(0)?;
    // Not timed: the client's expected responses.
    let load = served
        .reference()
        .and_then(|view| Mix::new(ctx, &view))
        .and_then(|mix| mix.run(&served.server, RATE_PER_S, count));
    served.stop();
    let load = load?;
    for rep in SETUP_SPREAD / 2 + 1..=SETUP_SPREAD {
        start(rep)?.stop();
    }
    o.attempted = load.count as u64;
    o.failed = load.failed() as u64;
    o.check(load.failed() == 0 && load.server_errors == 0, || {
        format!(
            "{} of {} requests failed ({} 5xx, the rest missing or not byte-identical)",
            load.failed(),
            load.count,
            load.server_errors
        )
    });
    let latencies = widen(&load.latency_ms);
    o.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    // The op time of this workload is the median request.
    o.metric("op_ms", median(&latencies).unwrap_or(f64::NAN), "ms");
    // The p99 is set by scheduling stalls on the shared cores and moves
    // several-fold between runs, so it is reported by the traced run
    // (`serve.op_p99_ms`) rather than gated here.
    eprintln!(
        "serve: {} requests at {RATE_PER_S}/s, p99 {:.3} ms, generator late p99 {:.3} ms, \
         setups {setups:?} s",
        load.count,
        tail(&latencies, 99.0).unwrap_or(f64::NAN),
        tail(&widen(&load.lateness_ms), 99.0).unwrap_or(f64::NAN)
    );
    Ok(())
}

fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

pub fn traced(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let served = Served::start(ctx, 0)?;
    let result = traced_on(ctx, o, &served);
    served.stop();
    result
}

fn traced_on(ctx: &Ctx, o: &mut Outcome, served: &Served) -> Res<()> {
    let reads: Vec<f64> = (0..20)
        .map(|_| timed(|| Snapshot::read_from(&served.artifact)).0 * 1e3)
        .collect();
    let builds: Vec<f64> = (0..5)
        .map(|_| timed(|| served.reference()).0 * 1e3)
        .collect();
    o.metric(
        "checkpoint.snapshot_read_ms",
        median(&reads).unwrap_or(f64::NAN),
        "ms",
    );
    o.metric(
        "serve.view_build_ms",
        median(&builds).unwrap_or(f64::NAN),
        "ms",
    );

    // In process: each endpoint of the mix through parse, handle and
    // write, as the server's worker runs them.
    let view = served.reference()?;
    let mix = Mix::new(ctx, &view)?;
    let tr = Tracer::new();
    let mut by_endpoint: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for i in 0..PATHS.len() * 400 {
        let key = mix.key(i);
        let wire = &mix.wire[key];
        let mut out = Vec::with_capacity(mix.expected[key].len());
        let root = tr.span("serve.request", None, |root| -> Res<u64> {
            let req = tr.span("serve.parse", Some(root), |_| parse(wire))?;
            let resp = tr.span("serve.handle", Some(root), |_| handle(&view, &req));
            tr.span("serve.write", Some(root), |_| {
                write_response(&mut out, &resp, !req.wants_close(), false)
            })?;
            Ok(root)
        })?;
        o.check(out == mix.expected[key], || {
            "in-process response differs".into()
        });
        let path = std::str::from_utf8(wire)?.split(' ').nth(1).unwrap_or("");
        let path = path.split('?').next().unwrap_or(path);
        by_endpoint
            .entry(endpoint_label(path))
            .or_default()
            .push(root);
    }
    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let mut table = BTreeMap::new();
    for (label, roots) in &by_endpoint {
        let roots: std::collections::BTreeSet<u64> = roots.iter().copied().collect();
        for stage in ["parse", "handle", "write"] {
            let name = format!("serve.{stage}");
            let us: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name && s.parent.is_some_and(|p| roots.contains(&p)))
                .map(|s| selfs[&s.id] as f64 / 1e3)
                .collect();
            let med = median(&us).unwrap_or(f64::NAN);
            o.metric(format!("serve.{stage}_us.{label}"), med, "us");
            *table.entry(name).or_insert(0.0) += med / 1e3 / by_endpoint.len() as f64;
        }
    }
    let roots: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "serve.request").collect();
    let request_ms: Vec<f64> = roots.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    // The median request: a single preemption between two spans would
    // decide a minimum.
    let covers: Vec<f64> = roots.iter().map(|s| trace::coverage(s, &selfs)).collect();
    trace::print_table(
        "serve request, in process (mean over endpoints)",
        &table,
        table.values().sum(),
        0.0,
    );
    o.metric(
        "serve.in_process_request_ms",
        median(&request_ms).unwrap_or(f64::NAN),
        "ms",
    );
    o.metric(
        "serve.span_coverage",
        median(&covers).unwrap_or(f64::NAN),
        "share",
    );
    let count = (RATE_PER_S * ctx.seconds.min(5.0)) as usize;
    let keys = (0..count).map(|i| mix.key(i));
    let bytes: usize = keys.clone().map(|k| mix.expected[k].len()).sum();
    o.metric("serve.response_bytes", bytes as f64 / count as f64, "B");
    let not_modified = keys
        .filter(|&k| mix.expected[k].starts_with(b"HTTP/1.1 304"))
        .count();
    o.metric(
        "serve.not_modified_share",
        not_modified as f64 / count as f64,
        "share",
    );
    drop(view);

    // Open loop at the benchmark rate, then stepped rates.
    let load = mix.run(&served.server, RATE_PER_S, count)?;
    o.check(load.failed() == 0, || {
        format!("{} requests failed", load.failed())
    });
    let latencies = widen(&load.latency_ms);
    o.metric("serve.sent", load.sent() as f64, "count");
    o.metric("serve.ok", load.ok as f64, "count");
    o.metric(
        "serve.gen_late_p99_ms",
        tail(&widen(&load.lateness_ms), 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    o.metric(
        "serve.op_p50_ms",
        median(&latencies).unwrap_or(f64::NAN),
        "ms",
    );
    o.metric(
        "serve.op_p99_ms",
        tail(&latencies, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    let mut max_rate = 0.0;
    for &rate in RATE_STEPS {
        let load = mix.run(&served.server, rate, (rate * STEP_SECONDS) as usize)?;
        let latencies = widen(&load.latency_ms);
        let p99 = tail(&latencies, 99.0).unwrap_or(f64::INFINITY);
        // A growing backlog shows as a late last tenth.
        let last = &latencies[latencies.len() * 9 / 10..];
        let backlog = median(last).unwrap_or(f64::INFINITY);
        eprintln!(
            "serve: {rate} req/s: p99 {p99:.3} ms, last-tenth median {backlog:.3} ms, {} failed",
            load.failed()
        );
        if load.failed() > 0 || p99 > LIMIT_MS || backlog > LIMIT_MS {
            break;
        }
        max_rate = rate;
    }
    o.metric("serve.max_rate_per_s", max_rate, "1/s");
    o.attempted = count as u64;
    tr.write_json(&ctx.out_dir.join("spans-serve.json"))?;
    Ok(())
}
