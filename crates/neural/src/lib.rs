//! # neural — a from-scratch neural-network library
//!
//! The workspace's substitute for PyTorch/TensorFlow (see DESIGN.md): no
//! mainstream Rust ML crate is available offline, and the paper's networks
//! (Table IV — FC(16) stacks, 1x3 Conv1d pairs, LSTM(128)) are small enough
//! to implement directly with exact, hand-derived backpropagation.
//!
//! Everything is `f64` so the finite-difference gradient checker
//! ([`gradcheck`]) can validate every layer to tight tolerances — the tests
//! of this crate are the ground truth that makes the OVS training results
//! in `ovs-core` trustworthy.
//!
//! Layout conventions:
//!
//! * [`Matrix`] is row-major `(rows, cols)`; batches are rows, features are
//!   columns.
//! * [`Tensor3`] is `(batch, time, features)` for sequence layers
//!   ([`layers::Lstm`], [`layers::Conv1d`]).
//!
//! ```
//! use neural::layers::{Dense, Activation, ActKind, Layer, Sequential};
//! use neural::loss::mse;
//! use neural::optim::Adam;
//! use neural::Matrix;
//! use neural::rng::Rng64;
//!
//! let mut rng = Rng64::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(2, 8, &mut rng)),
//!     Box::new(Activation::new(ActKind::Tanh)),
//!     Box::new(Dense::new(8, 1, &mut rng)),
//! ]);
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
//! let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]).unwrap();
//! let mut opt = Adam::new(0.05);
//! for _ in 0..300 {
//!     let pred = net.forward(&x);
//!     let (_, grad) = mse(&pred, &y);
//!     net.backward(&grad);
//!     opt.step(&mut |f| net.visit_params(f));
//!     net.zero_grad();
//! }
//! let pred = net.forward(&x);
//! let (loss, _) = mse(&pred, &y);
//! assert!(loss < 0.05, "XOR should be learnable, loss = {loss}");
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod rng;
pub mod tensor3;
pub mod workspace;

pub use matrix::Matrix;
pub use tensor3::Tensor3;
pub use workspace::Workspace;
