//! Fresh workspace per call == one recycled workspace over 4 steps.
//!
//! Every layer computes through `forward_ws`/`backward_ws`; the provided
//! `forward`/`backward` wrappers run that code against a fresh
//! [`Workspace`] on each call, while the trainer recycles one workspace
//! across steps. Buffer reuse must be numerically invisible, so for each of
//! the 8 layer types the two give bit-identical outputs, input gradients
//! and accumulated parameter gradients. On top of that, each layer's bits
//! over 3 steps hash to a pinned constant: a change that reorders a float
//! op or an RNG draw fails here even when it passes every gradcheck.

use neural::gradcheck::check_seq_layer_input;
use neural::layers::{
    ActKind, Activation, Conv1d, Dense, Layer, Lstm, SeqActivation, SeqLayer, SeqSequential,
    Sequential, TimeDistributed,
};
use neural::rng::Rng64;
use neural::{Matrix, Tensor3, Workspace};

/// A layer under test, flat or sequence.
enum Net {
    Flat(Box<dyn Layer>),
    Seq(Box<dyn SeqLayer>),
}

impl Net {
    /// One training step: a seeded `(b, t, f)` input (flat layers see it
    /// as `(b*t, f)`), a train-mode forward, a seeded upstream gradient and
    /// a backward. Returns every value the step produced: output, input
    /// gradient, then the accumulated parameter gradients. `ws = None`
    /// goes through the provided wrappers, a fresh workspace per call.
    fn step(
        &mut self,
        rng: &mut Rng64,
        (b, t, f): (usize, usize, usize),
        ws: Option<&mut Workspace>,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        match self {
            Net::Flat(l) => {
                let mut x = Matrix::zeros(b * t, f);
                rng.fill_normal(x.as_mut_slice());
                let mut ws = ws;
                let y = match ws.as_deref_mut() {
                    Some(ws) => l.forward_ws(&x, ws),
                    None => l.forward(&x),
                };
                let mut dy = Matrix::zeros(y.rows(), y.cols());
                rng.fill_normal(dy.as_mut_slice());
                let dx = match ws.as_deref_mut() {
                    Some(ws) => l.backward_ws(&dy, ws),
                    None => l.backward(&dy),
                };
                out.extend_from_slice(y.as_slice());
                out.extend_from_slice(dx.as_slice());
                if let Some(ws) = ws {
                    ws.give(y);
                    ws.give(dx);
                }
                l.visit_params(&mut |_, g| out.extend_from_slice(g.as_slice()));
            }
            Net::Seq(l) => {
                let mut x = Tensor3::zeros(b, t, f);
                rng.fill_normal(x.as_mut_slice());
                let mut ws = ws;
                let y = match ws.as_deref_mut() {
                    Some(ws) => l.forward_ws(&x, ws),
                    None => l.forward(&x, true),
                };
                let (yb, yt, yf) = y.shape();
                let mut dy = Tensor3::zeros(yb, yt, yf);
                rng.fill_normal(dy.as_mut_slice());
                let dx = match ws.as_deref_mut() {
                    Some(ws) => l.backward_ws(&dy, ws),
                    None => l.backward(&dy),
                };
                out.extend_from_slice(y.as_slice());
                out.extend_from_slice(dx.as_slice());
                if let Some(ws) = ws {
                    ws.give3(y);
                    ws.give3(dx);
                }
                l.visit_params(&mut |_, g| out.extend_from_slice(g.as_slice()));
            }
        }
        out
    }
}

fn flat(l: impl Layer + 'static) -> Net {
    Net::Flat(Box::new(l))
}

fn seq(l: impl SeqLayer + 'static) -> Net {
    Net::Seq(Box::new(l))
}

fn flat_stack(rng: &mut Rng64) -> Sequential {
    Sequential::new(vec![
        Box::new(Dense::new(3, 8, rng)),
        Box::new(Activation::new(ActKind::Tanh)),
        Box::new(Dense::new(8, 2, rng)),
        Box::new(Activation::new(ActKind::Sigmoid)),
    ])
}

/// The V2S shape: two LSTMs, a time-distributed head, a sigmoid.
fn v2s_stack(rng: &mut Rng64) -> SeqSequential {
    SeqSequential::new(vec![
        Box::new(Lstm::new(2, 6, rng)),
        Box::new(Lstm::new(6, 5, rng)),
        Box::new(TimeDistributed::new(Dense::new(5, 1, rng))),
        Box::new(SeqActivation::new(ActKind::Sigmoid)),
    ])
}

struct Case {
    name: &'static str,
    build: fn(&mut Rng64) -> Net,
    /// Input shape `(b, t, f)`.
    shape: (usize, usize, usize),
}

/// One case per layer type; Conv1d is the paper's same-padded, stride-1 form.
const CASES: &[Case] = &[
    Case {
        name: "dense",
        build: |rng| flat(Dense::new(3, 4, rng)),
        shape: (5, 1, 3),
    },
    Case {
        name: "activation",
        build: |_| flat(Activation::new(ActKind::Tanh)),
        shape: (5, 1, 3),
    },
    Case {
        name: "sequential",
        build: |rng| flat(flat_stack(rng)),
        shape: (5, 1, 3),
    },
    Case {
        name: "seq_activation",
        build: |_| seq(SeqActivation::new(ActKind::Relu)),
        shape: (2, 4, 3),
    },
    Case {
        name: "time_distributed",
        build: |rng| seq(TimeDistributed::new(Dense::new(3, 2, rng))),
        shape: (2, 4, 3),
    },
    Case {
        name: "lstm",
        build: |rng| seq(Lstm::new(2, 5, rng)),
        shape: (3, 4, 2),
    },
    Case {
        name: "conv1d_same",
        build: |rng| seq(Conv1d::new(2, 3, 3, rng)),
        shape: (2, 6, 2),
    },
    Case {
        name: "seq_sequential",
        build: |rng| seq(v2s_stack(rng)),
        shape: (4, 6, 2),
    },
];

/// FNV-1a over the IEEE bit patterns.
fn fnv(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Each case's hash of 3 steps through the provided wrappers (parameter
/// gradients accumulate across the steps).
const PINNED: &[(&str, u64)] = &[
    ("dense", 0x89f6_d070_c772_50ba),
    ("activation", 0xdd85_0b54_6ee3_f716),
    ("sequential", 0x6f2f_3b9e_79ae_262c),
    ("seq_activation", 0xd947_fa54_2f2c_d8df),
    ("time_distributed", 0x43f7_98ba_b6bd_45d2),
    ("lstm", 0x415d_80cd_fd5b_0b7f),
    ("conv1d_same", 0x2bbc_b41e_2c83_5929),
    ("seq_sequential", 0x41c6_576f_7145_b21d),
];

#[test]
fn fresh_workspace_per_call_matches_one_recycled_workspace() {
    for case in CASES {
        let mut fresh = (case.build)(&mut Rng64::new(7));
        let mut recycled = (case.build)(&mut Rng64::new(7));
        let (mut rng_a, mut rng_b) = (Rng64::new(11), Rng64::new(11));
        let mut ws = Workspace::new();
        for step in 0..4 {
            let want = fresh.step(&mut rng_a, case.shape, None);
            let got = recycled.step(&mut rng_b, case.shape, Some(&mut ws));
            assert_eq!(
                fnv(&want),
                fnv(&got),
                "{}: recycled workspace diverged at step {step}",
                case.name
            );
        }
    }
}

#[test]
fn layer_bits_match_pinned_constants() {
    let mut mismatches = Vec::new();
    for (case, &(name, pinned)) in CASES.iter().zip(PINNED) {
        assert_eq!(case.name, name, "PINNED must list CASES in order");
        let mut net = (case.build)(&mut Rng64::new(3));
        let mut rng = Rng64::new(5);
        let mut bits = Vec::new();
        for _ in 0..3 {
            bits.extend(net.step(&mut rng, case.shape, None));
        }
        let got = fnv(&bits);
        if got != pinned {
            mismatches.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert_eq!(CASES.len(), PINNED.len());
    assert!(
        mismatches.is_empty(),
        "layer bits changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn interleaving_wrapper_and_workspace_calls_on_one_model_is_consistent() {
    // The trainer may run eval passes through `forward` while the training
    // loop uses `forward_ws`; interleaving must not disturb either.
    let mut net = v2s_stack(&mut Rng64::new(21));
    let mut reference = v2s_stack(&mut Rng64::new(21));
    let mut ws = Workspace::new();
    let mut rng = Rng64::new(5);
    let mut x = Tensor3::zeros(3, 4, 2);
    rng.fill_normal(x.as_mut_slice());

    let y0 = net.forward_ws(&x, &mut ws);
    let y1 = net.forward(&x, false);
    let y2 = net.forward_ws(&x, &mut ws);
    let want = reference.forward(&x, true);
    assert_eq!(y0.as_slice(), want.as_slice());
    assert_eq!(y1.as_slice(), want.as_slice());
    assert_eq!(y2.as_slice(), want.as_slice());
}

#[test]
fn v2s_stack_gradients_pass_finite_difference_check() {
    let mut net = v2s_stack(&mut Rng64::new(9));
    let mut x = Tensor3::zeros(2, 4, 2);
    Rng64::new(17).fill_normal(x.as_mut_slice());
    assert!(check_seq_layer_input(&mut net, &x, 1e-6, 1e-6));
}
