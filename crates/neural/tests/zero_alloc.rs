//! Steady-state training steps through the `_ws` (workspace) paths must
//! be allocation-free: after a short warmup that sizes the buffer pool,
//! the optimiser moment slots and the layers' caches (LSTM/GRU state,
//! im2col, dropout mask), a training step touches the heap zero times.
//! Every layer type runs in at least one of the stacks below.
//!
//! A counting `#[global_allocator]` wraps `System`; the whole file is one
//! `#[test]` so no sibling test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use neural::layers::{
    ActKind, Activation, Conv1d, Dense, Dropout, Gru, Layer, Lstm, SeqActivation, SeqLayer,
    SeqSequential, Sequential, Softmax, TimeDistributed,
};
use neural::loss::{mse_into, mse_seq_into};
use neural::matrix::Matrix;
use neural::optim::{Adam, Optimizer};
use neural::rng::Rng64;
use neural::tensor3::Tensor3;
use neural::workspace::Workspace;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// call forwards the caller's layout/pointer unchanged, so `System`'s own
// GlobalAlloc contract is what holds the invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the unmodified layout to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`; layout/new_size forwarded
        // unchanged per the GlobalAlloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn heap_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn flat_step(
    model: &mut dyn Layer,
    opt: &mut Adam,
    x: &Matrix,
    target: &Matrix,
    grad: &mut Matrix,
    ws: &mut Workspace,
) -> f64 {
    let y = model.forward_ws(x, true, ws);
    let loss = mse_into(&y, target, grad);
    ws.give(y);
    let dx = model.backward_ws(grad, ws);
    ws.give(dx);
    opt.begin_step();
    let mut slot = 0;
    model.visit_params(&mut |p, g| {
        opt.apply(slot, p, g);
        slot += 1;
    });
    model.zero_grad();
    loss
}

fn seq_step(
    model: &mut dyn SeqLayer,
    opt: &mut Adam,
    x: &Tensor3,
    target: &Tensor3,
    grad: &mut Tensor3,
    ws: &mut Workspace,
) -> f64 {
    let y = model.forward_ws(x, true, ws);
    let loss = mse_seq_into(&y, target, grad);
    ws.give3(y);
    let dx = model.backward_ws(grad, ws);
    ws.give3(dx);
    opt.begin_step();
    let mut slot = 0;
    model.visit_params(&mut |p, g| {
        opt.apply(slot, p, g);
        slot += 1;
    });
    model.zero_grad();
    loss
}

/// Trains a flat stack on a fixed `(rows, in) -> (rows, out)` batch: 3
/// warmup steps, then asserts 10 steady-state steps touch the heap 0 times.
fn assert_flat_stack_allocation_free(
    name: &str,
    model: &mut dyn Layer,
    (rows, input, output): (usize, usize, usize),
    rng: &mut Rng64,
) {
    let mut x = Matrix::zeros(rows, input);
    rng.fill_normal(x.as_mut_slice());
    let mut target = Matrix::zeros(rows, output);
    rng.fill_normal(target.as_mut_slice());
    let mut grad = Matrix::zeros(rows, output);
    let mut ws = Workspace::new();
    let mut opt = Adam::new(1e-3);
    for _ in 0..3 {
        flat_step(model, &mut opt, &x, &target, &mut grad, &mut ws);
    }
    let before = heap_allocs();
    let mut loss = 0.0;
    for _ in 0..10 {
        loss += flat_step(model, &mut opt, &x, &target, &mut grad, &mut ws);
    }
    let allocs = heap_allocs() - before;
    assert!(loss.is_finite(), "{name}: loss {loss}");
    assert_eq!(
        allocs, 0,
        "{name} training step allocated {allocs} times over 10 steps"
    );
}

/// [`assert_flat_stack_allocation_free`] for a sequence stack on a fixed
/// `(b, t, in) -> (b, t, out)` batch.
fn assert_seq_stack_allocation_free(
    name: &str,
    model: &mut dyn SeqLayer,
    (b, t, input, output): (usize, usize, usize, usize),
    rng: &mut Rng64,
) {
    let mut xs = Tensor3::zeros(b, t, input);
    rng.fill_normal(xs.as_mut_slice());
    let mut targets = Tensor3::zeros(b, t, output);
    rng.fill_normal(targets.as_mut_slice());
    let mut grads = Tensor3::zeros(b, t, output);
    let mut ws = Workspace::new();
    let mut opt = Adam::new(1e-3);
    for _ in 0..3 {
        seq_step(model, &mut opt, &xs, &targets, &mut grads, &mut ws);
    }
    let before = heap_allocs();
    let mut loss = 0.0;
    for _ in 0..10 {
        loss += seq_step(model, &mut opt, &xs, &targets, &mut grads, &mut ws);
    }
    let allocs = heap_allocs() - before;
    assert!(loss.is_finite(), "{name}: loss {loss}");
    assert_eq!(
        allocs, 0,
        "{name} training step allocated {allocs} times over 10 steps"
    );
}

/// One test covering every stack: interleaved tests in this binary would
/// share the global counter, so everything runs on one thread here.
#[test]
fn training_steps_are_allocation_free_after_warmup() {
    let mut rng = Rng64::new(7);

    // Flat Dense stack (the TOD generation shape).
    let mut dense = Sequential::new(vec![
        Box::new(Dense::new(3, 16, &mut rng)) as Box<dyn Layer>,
        Box::new(Activation::new(ActKind::Tanh)),
        Box::new(Dense::new(16, 2, &mut rng)),
        Box::new(Activation::new(ActKind::Sigmoid)),
    ]);
    assert_flat_stack_allocation_free("dense stack", &mut dense, (8, 3, 2), &mut rng);

    // Flat stack with train-mode dropout and a softmax head.
    let mut dropout = Sequential::new(vec![
        Box::new(Dense::new(4, 12, &mut rng)) as Box<dyn Layer>,
        Box::new(Dropout::new(0.3, 5)),
        Box::new(Dense::new(12, 3, &mut rng)),
        Box::new(Softmax::new()),
    ]);
    assert_flat_stack_allocation_free("dropout/softmax stack", &mut dropout, (8, 4, 3), &mut rng);

    // LSTM sequence stack (the paper's V2S shape).
    let mut lstm = SeqSequential::new(vec![
        Box::new(Lstm::new(1, 8, &mut rng)) as Box<dyn SeqLayer>,
        Box::new(Lstm::new(8, 8, &mut rng)),
        Box::new(TimeDistributed::new(Dense::new(8, 1, &mut rng))),
        Box::new(SeqActivation::new(ActKind::Sigmoid)),
    ]);
    assert_seq_stack_allocation_free("LSTM stack", &mut lstm, (16, 6, 1, 1), &mut rng);

    // The same V2S stack at `OvsConfig::tiny()` width and the recover
    // benchmark's batch: Manhattan's 360 links x 4 training samples over
    // 6 intervals. Its gate products, (1440, 8) @ (8, 32), are the
    // kernel sizes where a thread fan-out would spawn (and allocate).
    let mut v2s = SeqSequential::new(vec![
        Box::new(Lstm::new(1, 8, &mut rng)) as Box<dyn SeqLayer>,
        Box::new(Lstm::new(8, 8, &mut rng)),
        Box::new(TimeDistributed::new(Dense::new(8, 1, &mut rng))),
        Box::new(SeqActivation::new(ActKind::Sigmoid)),
    ]);
    assert_seq_stack_allocation_free("recover V2S stack", &mut v2s, (1440, 6, 1, 1), &mut rng);

    // GRU variant of the V2S stack.
    let mut gru = SeqSequential::new(vec![
        Box::new(Gru::new(1, 8, &mut rng)) as Box<dyn SeqLayer>,
        Box::new(TimeDistributed::new(Dense::new(8, 1, &mut rng))),
    ]);
    assert_seq_stack_allocation_free("GRU stack", &mut gru, (16, 6, 1, 1), &mut rng);

    // The Route-e convolution stack as TOD2V builds it.
    let mut conv = SeqSequential::new(vec![
        Box::new(Conv1d::new(1, 4, 3, &mut rng)) as Box<dyn SeqLayer>,
        Box::new(SeqActivation::new(ActKind::Relu)),
        Box::new(Conv1d::new(4, 1, 3, &mut rng)),
        Box::new(SeqActivation::new(ActKind::Relu)),
    ]);
    assert_seq_stack_allocation_free("Route-e conv stack", &mut conv, (12, 8, 1, 1), &mut rng);
}
