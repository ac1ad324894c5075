//! Kernel and layer probes at the shapes one V2S/TOD2V training step
//! uses, timed at 1 thread and at N threads.

use crate::stats::median;
use crate::Outcome;
use neural::layers::{Dense, Lstm, SeqLayer, TimeDistributed};
use neural::rng::Rng64;
use neural::{Matrix, Tensor3};
use roadnet::parallel::Parallelism;
use std::hint::black_box;
use std::time::Instant;

/// Shape of the V2S stack's batch: every link of every corpus sample is
/// one row (`links * samples`), over `t` intervals, at LSTM width
/// `hidden`. TOD2V's dense route layers run `(od_pairs, t) @ (t, h)`.
#[derive(Debug, Clone, Copy)]
pub struct StepShape {
    pub batch: usize,
    pub t: usize,
    pub hidden: usize,
    pub od_pairs: usize,
    pub route_hidden: usize,
}

fn fill(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        0.5 + 0.4 * (r as f64 * 0.37 + c as f64 * 1.13 + phase).sin()
    })
}

/// Median wall time of `reps` calls, in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// Median forward and backward times (ms) of a layer over 20 steps;
/// every backward follows its own forward, as in training.
fn time_pair<L: SeqLayer>(
    fwd: impl Fn(&mut L) -> Tensor3,
    bwd: impl Fn(&mut L) -> Tensor3,
    layer: &mut L,
) -> (f64, f64) {
    let (mut f, mut b) = (Vec::new(), Vec::new());
    for _ in 0..21 {
        let t = Instant::now();
        fwd(layer);
        let mid = Instant::now();
        bwd(layer);
        f.push((mid - t).as_secs_f64() * 1e3);
        b.push(mid.elapsed().as_secs_f64() * 1e3);
    }
    // The first step warms caches and allocations.
    (
        median(&f[1..]).unwrap_or(f64::NAN),
        median(&b[1..]).unwrap_or(f64::NAN),
    )
}

/// The matmuls of one V2S training step (two LSTM layers, forward and
/// backward, per interval) as `(m, k, n)` products.
fn v2s_step_matmuls(s: StepShape) -> Vec<(usize, usize, usize)> {
    let (b, h) = (s.batch, s.hidden);
    let mut out = Vec::new();
    for input in [1, h] {
        for _ in 0..s.t {
            // forward: x_t @ wx, h @ wh
            out.push((b, input, 4 * h));
            out.push((b, h, 4 * h));
            // backward: x_tᵀ @ da, hᵀ @ da, da @ wxᵀ, da @ whᵀ
            out.push((input, b, 4 * h));
            out.push((h, b, 4 * h));
            out.push((b, 4 * h, input));
            out.push((b, 4 * h, h));
        }
    }
    // TimeDistributed(Dense(h, 1)): forward, dW, dX over all intervals.
    out.push((b * s.t, h, 1));
    out.push((h, b * s.t, 1));
    out.push((b * s.t, 1, h));
    out
}

/// Kernel GFLOP/s, computed step work, and LSTM/Dense forward/backward
/// times, each at 1 thread and at `threads`.
pub fn probe(o: &mut Outcome, s: StepShape, threads: usize) {
    let matmuls = v2s_step_matmuls(s);
    let flops: f64 = matmuls
        .iter()
        .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
        .sum();
    let bytes: f64 = matmuls
        .iter()
        .map(|&(m, k, n)| 8.0 * (m * k + k * n + m * n) as f64)
        .sum();
    o.metric("neural.flops_per_step", flops, "flop");
    o.metric("neural.bytes_per_step", bytes, "B");

    for (tag, par) in [
        ("t1", Parallelism::Serial),
        ("tn", Parallelism::Threads(threads)),
    ] {
        par.run(|| {
            for (shape, m, k, n) in [
                ("v2s", s.batch, s.hidden, 4 * s.hidden),
                ("tod2v", s.od_pairs, s.t, s.route_hidden),
            ] {
                let a = fill(m, k, 0.0);
                let b = fill(k, n, 1.0);
                let at = fill(k, m, 2.0);
                let bt = fill(n, k, 3.0);
                let gf = |ms: f64| 2.0 * (m * k * n) as f64 / (ms * 1e-3) / 1e9;
                let mm = time_ms(200, || {
                    black_box(a.matmul(&b));
                });
                let atb = time_ms(200, || {
                    black_box(at.matmul_at_b(&b));
                });
                let abt = time_ms(200, || {
                    black_box(a.matmul_a_bt(&bt));
                });
                o.metric(
                    format!("neural.matmul_gflops.{shape}.{tag}"),
                    gf(mm),
                    "GFLOP/s",
                );
                o.metric(
                    format!("neural.matmul_at_b_gflops.{shape}.{tag}"),
                    gf(atb),
                    "GFLOP/s",
                );
                o.metric(
                    format!("neural.matmul_a_bt_gflops.{shape}.{tag}"),
                    gf(abt),
                    "GFLOP/s",
                );
            }

            let mut rng = Rng64::new(11);
            let mut lstm = Lstm::new(s.hidden, s.hidden, &mut rng);
            let mut dense = TimeDistributed::new(Dense::new(s.hidden, 1, &mut rng));
            let x = Tensor3::from_vec(
                s.batch,
                s.t,
                s.hidden,
                fill(s.batch * s.t, s.hidden, 0.5).as_slice().to_vec(),
            )
            .expect("probe tensor has batch * t * hidden cells");
            let dy_lstm = lstm.forward(&x, true);
            let dy_dense = Tensor3::from_vec(
                s.batch,
                s.t,
                1,
                fill(s.batch * s.t, 1, 0.7).as_slice().to_vec(),
            )
            .expect("probe gradient has batch * t cells");
            let (lstm_fwd, lstm_bwd) = time_pair(
                |l| black_box(l.forward(&x, true)),
                |l| black_box(l.backward(&dy_lstm)),
                &mut lstm,
            );
            let (dense_fwd, dense_bwd) = time_pair(
                |d| black_box(d.forward(&x, true)),
                |d| black_box(d.backward(&dy_dense)),
                &mut dense,
            );
            o.metric(format!("neural.lstm_fwd_ms.{tag}"), lstm_fwd, "ms");
            o.metric(format!("neural.lstm_bwd_ms.{tag}"), lstm_bwd, "ms");
            o.metric(format!("neural.dense_fwd_ms.{tag}"), dense_fwd, "ms");
            o.metric(format!("neural.dense_bwd_ms.{tag}"), dense_bwd, "ms");
        });
    }
}
