//! Reusable buffer pool for allocation-free training loops.
//!
//! A [`Workspace`] owns a pool of `Vec<f64>` buffers that [`Matrix`] and
//! [`Tensor3`] temporaries are carved from. Layers' `forward_ws` /
//! `backward_ws` (see [`crate::layers::Layer`]) take their outputs and
//! internal temporaries from the pool and return spent buffers to it, so
//! after a warmup pass every training step runs without touching the
//! heap — the property the allocation-regression test locks in.
//!
//! That pair is every layer's only implementation. The provided
//! `forward`/`backward` wrappers call it with a fresh `Workspace::new()`:
//! one-off callers pay the allocations a recycled pool would save, but
//! run the same code and get the same bits. The OVS modules built from
//! these layers follow the same rule with no wrappers at all: the stage
//! driver owns one workspace per stage, and every module, layer and loss
//! under a training step draws its temporaries from that one pool.
//!
//! ## Lifetime rules (DESIGN.md §13)
//!
//! * A buffer obtained with [`Workspace::take`] / [`Workspace::take3`]
//!   is owned by the caller until it is either returned with
//!   [`Workspace::give`] / [`Workspace::give3`] or dropped. Dropping is
//!   always safe — it only forfeits the reuse.
//! * Buffers are recycled best-fit by capacity, so a workspace shared by
//!   differently-shaped temporaries converges on the few distinct sizes
//!   the loop needs.
//! * The pool never shrinks on its own; [`Workspace::clear`] releases
//!   everything.
//!
//! Reuse is numerically invisible: `take` returns a zeroed buffer and
//! every `*_into` kernel fully overwrites its output, so a recycled
//! buffer yields exactly the bits a fresh allocation would.

use crate::matrix::Matrix;
use crate::tensor3::Tensor3;

/// A pool of `f64` buffers shared by matrix and tensor temporaries.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn take_buf(&mut self, n: usize) -> Vec<f64> {
        // Best fit: the smallest pooled buffer whose capacity suffices.
        let mut best: Option<(usize, usize)> = None;
        for (ix, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= n && best.is_none_or(|(_, c)| cap < c) {
                best = Some((ix, cap));
            }
        }
        match best {
            Some((ix, _)) => self.pool.swap_remove(ix),
            // lint: allow(alloc) — pool miss: only until the pool has seen every live shape; steady state recycles via swap_remove above.
            None => Vec::with_capacity(n),
        }
    }

    /// A zeroed `(rows, cols)` matrix, recycled from the pool when a
    /// large-enough buffer is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_raw(rows, cols, self.take_buf(rows * cols))
    }

    /// Returns a matrix's buffer to the pool.
    pub fn give(&mut self, m: Matrix) {
        self.pool.push(m.into_raw());
    }

    /// A zeroed `(b, t, f)` tensor, recycled from the pool when a
    /// large-enough buffer is available.
    pub fn take3(&mut self, b: usize, t: usize, f: usize) -> Tensor3 {
        Tensor3::from_raw(b, t, f, self.take_buf(b * t * f))
    }

    /// Returns a tensor's buffer to the pool.
    pub fn give3(&mut self, t: Tensor3) {
        self.pool.push(t.into_raw());
    }

    /// Drops every pooled buffer.
    pub fn clear(&mut self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Address of a matrix's buffer: equal addresses mean the pool handed
    /// the same allocation back.
    fn addr(m: &Matrix) -> *const f64 {
        m.as_slice().as_ptr()
    }

    #[test]
    fn take_returns_zeroed_shapes() {
        let mut ws = Workspace::new();
        let mut m = ws.take(3, 4);
        assert_eq!(m, Matrix::zeros(3, 4));
        m.as_mut_slice().fill(7.0);
        let first = addr(&m);
        ws.give(m);
        // Recycled buffer must come back zeroed despite the writes.
        let m2 = ws.take(2, 5);
        assert_eq!(m2, Matrix::zeros(2, 5));
        assert_eq!(addr(&m2), first, "the 12-cell buffer was reused");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take(10, 10);
        let small = ws.take(2, 2);
        let (big_at, small_at) = (addr(&big), addr(&small));
        ws.give(big);
        ws.give(small);
        // A 2x2 request must grab the 4-capacity buffer, not the 100.
        let m = ws.take(2, 2);
        assert_eq!(m.len(), 4);
        assert_eq!(addr(&m), small_at);
        let remaining = ws.take(10, 10);
        assert_eq!(remaining.len(), 100);
        assert_eq!(addr(&remaining), big_at);
    }

    #[test]
    fn tensors_share_the_pool_with_matrices() {
        let mut ws = Workspace::new();
        let m = ws.take(4, 6);
        let at = addr(&m);
        ws.give(m);
        let t = ws.take3(2, 3, 4);
        assert_eq!(t.as_slice().as_ptr(), at, "tensor reused the matrix buffer");
        assert_eq!(t.shape(), (2, 3, 4));
        ws.give3(t);
        ws.clear();
        assert_eq!(ws.take(4, 6), Matrix::zeros(4, 6));
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut ws = Workspace::new();
        let a = ws.take(8, 8);
        let b = ws.take3(2, 4, 8);
        let (a_at, b_at) = (addr(&a), b.as_slice().as_ptr());
        ws.give(a);
        ws.give3(b);
        for _ in 0..10 {
            let a = ws.take(8, 8);
            let b = ws.take3(2, 4, 8);
            assert_eq!((addr(&a), b.as_slice().as_ptr()), (a_at, b_at));
            ws.give(a);
            ws.give3(b);
        }
    }
}
