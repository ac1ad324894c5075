//! Numeric-core raw-speed trajectory: matmul throughput, training
//! steps/sec, simulator ticks/sec, and end-to-end train+simulate
//! wall-clock — written to `results/BENCH_numeric.json` on every run so
//! the speed of the numeric core stays reviewable over time.
//!
//! The workloads are fixed (profile-independent) so numbers are
//! comparable across commits; the profile only decides whether the
//! Manhattan end-to-end run is included (`quick` skips it, CI uses
//! `quick`). The `baseline` block holds the numbers captured at the
//! pre-optimisation seed commit on the same machine class, so the
//! report carries its own before/after table.
//!
//! Run: `CITYOD_PROFILE=standard cargo run --release -p bench --bin numeric`

use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use neural::layers::{
    ActKind, Dense, Lstm, SeqActivation, SeqLayer, SeqSequential, TimeDistributed,
};
use neural::optim::{Adam, Optimizer};
use neural::rng::Rng64;
use neural::{loss, Matrix, Tensor3};
use ovs_core::trainer::{OvsTrainer, RunOptions};
use ovs_core::{EstimatorInput, OvsConfig};
use roadnet::{presets, OdSet, TodTensor};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One matmul measurement point.
#[derive(Serialize)]
struct MatmulPoint {
    kernel: String,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    gflops: f64,
}

/// One end-to-end train+simulate measurement.
#[derive(Serialize)]
struct EndToEnd {
    dataset: String,
    links: usize,
    od_pairs: usize,
    intervals: usize,
    train_samples: usize,
    /// Dataset assembly: training-corpus + observed simulator runs.
    simulate_s: f64,
    /// Full OVS pipeline (stages 1-3).
    train_s: f64,
    total_s: f64,
}

/// The numbers captured at the seed commit, for the before/after table.
#[derive(Serialize)]
struct Baseline {
    commit: String,
    matmul_gflops_serial_256: f64,
    matmul_gflops_par_256: f64,
    train_steps_per_sec: f64,
    sim_ticks_per_sec: f64,
    /// (dataset name, total seconds) pairs.
    end_to_end_total_s: Vec<(String, f64)>,
}

/// Speedup of this run over the recorded baseline.
#[derive(Serialize)]
struct Speedup {
    matmul_serial_256: f64,
    matmul_par_256: f64,
    train_steps: f64,
    sim_ticks: f64,
    /// (dataset name, baseline_total / current_total) pairs.
    end_to_end: Vec<(String, f64)>,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    profile: String,
    threads: usize,
    matmul: Vec<MatmulPoint>,
    naive_matmul_gflops_256: f64,
    train_steps_per_sec: f64,
    sim_ticks_per_sec: f64,
    end_to_end: Vec<EndToEnd>,
    baseline: Option<Baseline>,
    speedup: Option<Speedup>,
}

/// Baseline numbers recorded at the pre-optimisation seed (commit
/// d6e29c1) with `CITYOD_PROFILE=standard` on the CI machine class.
/// `None` until first captured.
fn seed_baseline() -> Option<Baseline> {
    Some(Baseline {
        commit: "d6e29c1".into(),
        matmul_gflops_serial_256: 6.458,
        matmul_gflops_par_256: 7.114,
        train_steps_per_sec: 11.768,
        sim_ticks_per_sec: 296_296.0,
        end_to_end_total_s: vec![
            ("synthetic/Gaussian-tiny".into(), 0.08),
            ("Manhattan".into(), 14.10),
        ],
    })
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn check_finite(what: &str, value: f64) {
    if !value.is_finite() {
        eprintln!("numeric bench: non-finite value in {what}: {value}");
        std::process::exit(1);
    }
}

fn fill_sin(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        0.5 + 0.4 * ((r as f64 * 0.37 + c as f64 * 1.13 + phase).sin())
    })
}

/// Textbook i-k-j matmul, kept here (not in `neural`) as the
/// throughput yardstick the tiled kernels are compared against.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.get(i, p);
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(p, j));
            }
        }
    }
    out
}

fn bench_matmuls(points: &mut Vec<MatmulPoint>, threads: usize) {
    // (m, k, n): a square blocking-sensitive shape and a stage-1-like
    // tall-skinny shape (batch 720 = 180 links x 4 samples, LSTM gates).
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (720, 32, 128)] {
        let a = fill_sin(m, k, 0.0);
        let b = fill_sin(k, n, 1.0);
        let at = fill_sin(k, m, 2.0); // for matmul_at_b: (k,m)^T @ (k,n)
        let bt = fill_sin(n, k, 3.0); // for matmul_a_bt: (m,k) @ (n,k)^T
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let reps = if m * k * n > 4_000_000 { 5 } else { 9 };

        let run = |name: &str, f: &dyn Fn() -> Matrix| -> MatmulPoint {
            let secs = time_best(reps, || {
                let out = f();
                black_box(out.as_slice()[0]);
            });
            let out = f();
            check_finite(name, out.sum());
            MatmulPoint {
                kernel: name.into(),
                m,
                k,
                n,
                threads,
                gflops: flops / secs / 1e9,
            }
        };

        points.push(run("matmul", &|| a.matmul(&b)));
        points.push(run("matmul_at_b", &|| at.matmul_at_b(&b)));
        points.push(run("matmul_a_bt", &|| a.matmul_a_bt(&bt)));
    }
}

/// Steps/sec of a v2s-shaped LSTM stack (Lstm(1,32) → Lstm(32,32) →
/// TimeDistributed(Dense(32,1)) → Sigmoid) on a Manhattan-sized batch.
fn bench_train_steps() -> f64 {
    let mut rng = Rng64::new(11);
    let hidden = 32;
    let mut net = SeqSequential::new(vec![
        Box::new(Lstm::new(1, hidden, &mut rng)),
        Box::new(Lstm::new(hidden, hidden, &mut rng)),
        Box::new(TimeDistributed::new(Dense::new(hidden, 1, &mut rng))),
        Box::new(SeqActivation::new(ActKind::Sigmoid)),
    ]);
    let batch = 720; // 180 links x 4 training samples
    let t = 6;
    let x = Tensor3::from_matrix_single_feature(&fill_sin(batch, t, 0.3));
    let y = Tensor3::from_matrix_single_feature(&fill_sin(batch, t, 0.9));
    let mut opt = Adam::new(1e-3);

    let mut step = |net: &mut SeqSequential| -> f64 {
        let pred = net.forward(&x, true);
        let (l, grad) = loss::mse_seq(&pred, &y);
        net.backward(&grad);
        opt.step_seq(net);
        net.zero_grad();
        l
    };
    for _ in 0..3 {
        check_finite("train warmup loss", step(&mut net));
    }
    let measured = 20;
    let t0 = Instant::now();
    for _ in 0..measured {
        check_finite("train loss", step(&mut net));
    }
    measured as f64 / t0.elapsed().as_secs_f64()
}

/// Simulator ticks/sec on the Manhattan grid with all-pairs demand.
fn bench_sim_ticks() -> f64 {
    let preset = presets::manhattan();
    let net = preset.network;
    let ods = OdSet::all_pairs(&net);
    let spec = DatasetSpec {
        t: 6,
        interval_s: 300.0,
        train_samples: 1,
        demand_scale: 0.15,
        seed: 7,
    };
    let cfg = spec.sim_config();
    let tod = TodTensor::filled(ods.len(), spec.t, 0.02);
    let ticks = cfg.total_ticks() as f64;
    let t0 = Instant::now();
    let out = datagen::dataset::simulate(&net, &ods, &cfg, &tod).expect("manhattan sim runs");
    let secs = t0.elapsed().as_secs_f64();
    if !out.speed.is_finite() {
        eprintln!("numeric bench: non-finite simulated speeds");
        std::process::exit(1);
    }
    ticks / secs
}

/// End-to-end: dataset assembly (simulate) + full OVS training.
fn bench_end_to_end(name: &str, build: impl FnOnce() -> Dataset, cfg: OvsConfig) -> EndToEnd {
    let t0 = Instant::now();
    let ds = build();
    let simulate_s = t0.elapsed().as_secs_f64();

    let input = EstimatorInput::builder(&ds.net, &ds.ods)
        .interval_s(ds.sim_config.interval_s)
        .sim_seed(ds.sim_config.seed)
        .train(&ds.train)
        .observed_speed(&ds.observed_speed)
        .build();
    let t1 = Instant::now();
    let (mut model, _report) = OvsTrainer::new(cfg)
        .run(&input, RunOptions::default())
        .expect("OVS trains");
    let train_s = t1.elapsed().as_secs_f64();
    let tod = model.recovered_tod();
    if !tod.is_finite() {
        eprintln!("numeric bench: non-finite recovered TOD for {name}");
        std::process::exit(1);
    }

    println!(
        "  e2e {name}: simulate {simulate_s:.2}s + train {train_s:.2}s = {:.2}s",
        simulate_s + train_s
    );
    EndToEnd {
        dataset: name.into(),
        links: ds.n_links(),
        od_pairs: ds.n_od(),
        intervals: ds.n_intervals(),
        train_samples: ds.train.len(),
        simulate_s,
        train_s,
        total_s: simulate_s + train_s,
    }
}

fn find_gflops(points: &[MatmulPoint], threads: usize) -> f64 {
    points
        .iter()
        .find(|p| p.kernel == "matmul" && p.m == 256 && p.threads == threads)
        .map(|p| p.gflops)
        .unwrap_or(f64::NAN)
}

fn main() {
    let profile = bench::start("numeric", "numeric-core raw-speed trajectory");
    let threads = rayon::current_num_threads();

    println!("# matmul throughput");
    let mut matmul = Vec::new();
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("serial pool");
    serial.install(|| bench_matmuls(&mut matmul, 1));
    if threads > 1 {
        bench_matmuls(&mut matmul, threads);
    }
    for p in &matmul {
        println!(
            "  {:<12} {:>4}x{:<4}x{:<4} t={} {:>8.3} GFLOP/s",
            p.kernel, p.m, p.k, p.n, p.threads, p.gflops
        );
    }

    let a = fill_sin(256, 256, 0.0);
    let b = fill_sin(256, 256, 1.0);
    let naive_secs = time_best(3, || {
        let out = naive_matmul(&a, &b);
        black_box(out.as_slice()[0]);
    });
    let naive_gflops = 2.0 * 256f64.powi(3) / naive_secs / 1e9;
    println!("  naive ijk    256x256x256 t=1 {naive_gflops:>8.3} GFLOP/s");

    println!("# training steps/sec (v2s stack, batch 720, T=6, hidden 32)");
    let steps = bench_train_steps();
    check_finite("train steps/sec", steps);
    println!("  {steps:.3} steps/s");

    println!("# simulator ticks/sec (Manhattan, all-pairs demand)");
    let ticks = bench_sim_ticks();
    check_finite("sim ticks/sec", ticks);
    println!("  {ticks:.0} ticks/s");

    println!("# end-to-end train+simulate");
    let mut e2e = Vec::new();
    let tiny_spec = DatasetSpec {
        t: 4,
        interval_s: 120.0,
        train_samples: 3,
        demand_scale: 0.1,
        seed: 4,
    };
    e2e.push(bench_end_to_end(
        "synthetic/Gaussian-tiny",
        || Dataset::synthetic(TodPattern::Gaussian, &tiny_spec).expect("tiny dataset"),
        OvsConfig::tiny(),
    ));
    if profile.name == "quick" {
        println!("  (quick profile: Manhattan end-to-end skipped)");
    } else {
        let man_spec = DatasetSpec {
            t: 6,
            interval_s: 300.0,
            train_samples: 4,
            demand_scale: 0.15,
            seed: 7,
        };
        let man_cfg = OvsConfig {
            lstm_hidden: 32,
            fit_restarts: 1,
            ..OvsConfig::tiny()
        };
        e2e.push(bench_end_to_end(
            "Manhattan",
            || Dataset::city(presets::manhattan(), &man_spec).expect("manhattan dataset"),
            man_cfg,
        ));
    }

    let baseline = seed_baseline();
    let speedup = baseline.as_ref().map(|b| Speedup {
        matmul_serial_256: find_gflops(&matmul, 1) / b.matmul_gflops_serial_256,
        matmul_par_256: find_gflops(&matmul, threads) / b.matmul_gflops_par_256,
        train_steps: steps / b.train_steps_per_sec,
        sim_ticks: ticks / b.sim_ticks_per_sec,
        end_to_end: e2e
            .iter()
            .filter_map(|cur| {
                b.end_to_end_total_s
                    .iter()
                    .find(|(name, _)| name == &cur.dataset)
                    .map(|(name, base)| (name.clone(), base / cur.total_s))
            })
            .collect(),
    });
    if let Some(s) = &speedup {
        println!("# speedup vs seed baseline");
        println!(
            "  matmul serial x{:.2}  parallel x{:.2}  train x{:.2}  sim x{:.2}",
            s.matmul_serial_256, s.matmul_par_256, s.train_steps, s.sim_ticks
        );
        for (name, x) in &s.end_to_end {
            println!("  e2e {name}: x{x:.2}");
        }
    }

    let report = Report {
        bench: "numeric".into(),
        profile: profile.name.into(),
        threads,
        matmul,
        naive_matmul_gflops_256: naive_gflops,
        train_steps_per_sec: steps,
        sim_ticks_per_sec: ticks,
        end_to_end: e2e,
        baseline,
        speedup,
    };
    let dir = bench::results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_numeric.json");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&path, json).expect("report written");
    println!("# report -> {}", path.display());
}
