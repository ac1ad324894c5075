//! Steady-state training steps through the `_ws` (workspace) paths must
//! be allocation-free: after a short warmup that sizes the buffer pool,
//! the optimiser moment slots and the layers' caches (LSTM state,
//! im2col), a training step touches the heap zero times.
//! Every layer type runs in at least one of the stacks below.
//!
//! A counting `#[global_allocator]` wraps `System`. The count is kept per
//! thread, so sibling tests running in parallel cannot pollute each
//! other's counts, and each stack gets a test of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use neural::layers::{
    ActKind, Activation, Conv1d, Dense, Layer, Lstm, SeqActivation, SeqLayer, SeqSequential,
    Sequential, TimeDistributed,
};
use neural::loss::{mse_into, mse_seq_into};
use neural::matrix::Matrix;
use neural::optim::Adam;
use neural::rng::Rng64;
use neural::tensor3::Tensor3;
use neural::workspace::Workspace;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread; const-initialised and without a
    /// destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread (none once its
/// thread-locals are gone during thread exit).
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump; every
// call forwards the caller's layout/pointer unchanged, so `System`'s own
// GlobalAlloc contract is what holds the invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the unmodified layout to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        // SAFETY: `ptr` came from `System.alloc`; layout/new_size forwarded
        // unchanged per the GlobalAlloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn heap_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn flat_step(
    model: &mut dyn Layer,
    opt: &mut Adam,
    x: &Matrix,
    target: &Matrix,
    grad: &mut Matrix,
    ws: &mut Workspace,
) -> f64 {
    let y = model.forward_ws(x, ws);
    let loss = mse_into(&y, target, grad);
    ws.give(y);
    let dx = model.backward_ws(grad, ws);
    ws.give(dx);
    opt.step(&mut |f| model.visit_params(f));
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
    let y = model.forward_ws(x, ws);
    let loss = mse_seq_into(&y, target, grad);
    ws.give3(y);
    let dx = model.backward_ws(grad, ws);
    ws.give3(dx);
    opt.step(&mut |f| model.visit_params(f));
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

/// Flat Dense stack (the TOD generation shape).
#[test]
fn dense_stack_steps_without_allocating_after_warmup() {
    let mut rng = Rng64::new(7);
    let mut dense = Sequential::new(vec![
        Box::new(Dense::new(3, 16, &mut rng)) as Box<dyn Layer>,
        Box::new(Activation::new(ActKind::Tanh)),
        Box::new(Dense::new(16, 2, &mut rng)),
        Box::new(Activation::new(ActKind::Sigmoid)),
    ]);
    assert_flat_stack_allocation_free("dense stack", &mut dense, (8, 3, 2), &mut rng);
}

/// The paper's V2S shape at `OvsConfig::tiny()` width.
fn v2s_stack(rng: &mut Rng64) -> SeqSequential {
    SeqSequential::new(vec![
        Box::new(Lstm::new(1, 8, rng)) as Box<dyn SeqLayer>,
        Box::new(Lstm::new(8, 8, rng)),
        Box::new(TimeDistributed::new(Dense::new(8, 1, rng))),
        Box::new(SeqActivation::new(ActKind::Sigmoid)),
    ])
}

/// LSTM sequence stack on a small batch.
#[test]
fn lstm_stack_steps_without_allocating_after_warmup() {
    let mut rng = Rng64::new(8);
    let mut lstm = v2s_stack(&mut rng);
    assert_seq_stack_allocation_free("LSTM stack", &mut lstm, (16, 6, 1, 1), &mut rng);
}

/// The same V2S stack at the recover benchmark's batch: Manhattan's 360
/// links x 4 training samples over 6 intervals. Its gate products,
/// (1440, 8) @ (8, 32), are the kernel sizes where a thread fan-out would
/// spawn (and allocate).
#[test]
fn recover_v2s_stack_steps_without_allocating_after_warmup() {
    let mut rng = Rng64::new(9);
    let mut v2s = v2s_stack(&mut rng);
    assert_seq_stack_allocation_free("recover V2S stack", &mut v2s, (1440, 6, 1, 1), &mut rng);
}

/// The Route-e convolution stack as TOD2V builds it.
#[test]
fn route_conv_stack_steps_without_allocating_after_warmup() {
    let mut rng = Rng64::new(10);
    let mut conv = SeqSequential::new(vec![
        Box::new(Conv1d::new(1, 4, 3, &mut rng)) as Box<dyn SeqLayer>,
        Box::new(SeqActivation::new(ActKind::Relu)),
        Box::new(Conv1d::new(4, 1, 3, &mut rng)),
        Box::new(SeqActivation::new(ActKind::Relu)),
    ]);
    assert_seq_stack_allocation_free("Route-e conv stack", &mut conv, (12, 8, 1, 1), &mut rng);
}
