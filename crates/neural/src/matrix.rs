//! Dense row-major `f64` matrices and the linear-algebra kernel set the
//! layers are built from.
//!
//! Every kernel runs serially on the calling thread. Splitting one
//! product across threads did not pay at the widths the benchmark trains
//! (DESIGN.md §5b), so parallelism lives one level up, over independent
//! units of work (corpus samples, the evaluation panel, per-link fault
//! corruption); `citybench` reports the kernel speeds per layer.
//!
//! The three matmul kernels are cache-blocked (see [`TILE_P`] /
//! [`TILE_J`] / DESIGN.md §13). Tiled results are **bit-identical** to
//! the untiled textbook kernels: blocking only changes the order in which
//! *different* output elements are produced, while every individual
//! element still accumulates its `k` terms in ascending `p` order — so
//! the tile size never changes numerics.
//!
//! Each kernel also has a `*_into` variant writing into a caller-owned
//! matrix, so hot loops (see [`crate::workspace::Workspace`]) can run
//! allocation-free; `x.matmul_into(w, &mut out)` produces exactly the
//! bits of `out = x.matmul(w)`.

use std::fmt;

/// Cache-block depth: `p` (the shared/contraction axis) is processed in
/// runs of this many rows of `rhs`, so one `TILE_P` x `TILE_J` panel of
/// `rhs` (32 KiB at 64x64 f64) stays L1-resident while every output row
/// streams over it.
const TILE_P: usize = 64;

/// Cache-block width: output columns are processed in runs of this many,
/// bounding the write-back segment each inner loop touches.
const TILE_J: usize = 64;

/// Row-block height for [`Matrix::matmul_at_b`]: output rows are
/// processed in short runs so `a.row(p)[i..]` segments are read
/// contiguously while the out block stays cached.
const TILE_I: usize = 8;

/// Error for shape violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError(pub String);

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `(rows, cols)`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError(format!(
                "expected {rows}x{cols}={} values, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a 0-element matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        // lint: allow(panic) — bounds checked by the debug_assert; the
        // innermost hot-path accessor every kernel funnels through
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        // lint: allow(panic) — bounds checked by the debug_assert; the
        // innermost hot-path accessor every kernel funnels through
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        // lint: allow(panic) — bounds checked by the debug_assert; the
        // innermost hot-path accessor every kernel funnels through
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        // lint: allow(panic) — bounds checked by the debug_assert; the
        // innermost hot-path accessor every kernel funnels through
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self @ rhs`; `(m,k) @ (k,n) -> (m,n)`.
    ///
    /// Cache-blocked and serial. Results are bit-identical to the
    /// untiled textbook kernel (see the module docs).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul`] into a caller-owned output (overwritten), so hot
    /// loops can reuse the allocation. Produces exactly the bits of
    /// `matmul`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: ({},{}) @ ({},{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.rows, rhs.cols);
        assert_eq!((out.rows, out.cols), (m, n), "matmul output shape mismatch");
        out.fill_zero();
        matmul_block_tiled(self, rhs, &mut out.data, TILE_P, TILE_J);
    }

    /// `self^T @ rhs`; `(k,m)^T @ (k,n) -> (m,n)`. Avoids materialising the
    /// transpose (used for weight gradients `x^T @ dy`).
    ///
    /// Cache-blocked and serial; every output element sums its terms in
    /// ascending `p` order, so results are bit-identical regardless of
    /// tile size.
    pub fn matmul_at_b(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_at_b_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul_at_b`] into a caller-owned output (overwritten).
    /// Produces exactly the bits of `matmul_at_b`.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b shape mismatch: ({},{})^T @ ({},{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.cols, rhs.cols);
        assert_eq!(
            (out.rows, out.cols),
            (m, n),
            "matmul_at_b output shape mismatch"
        );
        out.fill_zero();
        matmul_at_b_block_tiled(self, rhs, &mut out.data, TILE_P, TILE_J);
    }

    /// `self @ rhs^T`; `(m,k) @ (n,k)^T -> (m,n)`. Used for input gradients
    /// `dy @ W^T`. Column-blocked (so a panel of `rhs` rows is reused
    /// across output rows) and serial; bit-identical to the unblocked
    /// kernel because each output element is one sequential dot product
    /// either way.
    pub fn matmul_a_bt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_a_bt_into(rhs, &mut out);
        out
    }

    /// [`Self::matmul_a_bt`] into a caller-owned output (overwritten).
    /// Produces exactly the bits of `matmul_a_bt`.
    pub fn matmul_a_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_a_bt shape mismatch: ({},{}) @ ({},{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n) = (self.rows, rhs.rows);
        assert_eq!(
            (out.rows, out.cols),
            (m, n),
            "matmul_a_bt output shape mismatch"
        );
        matmul_a_bt_block_tiled(self, rhs, &mut out.data, TILE_J);
    }

    /// Transposed copy.
    // lint: allow(dead_api) — the reference the fused transposed products are tested against
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Transpose into a caller-owned `(cols, rows)` matrix — pure data
    /// movement, so hot loops can turn a `matmul_a_bt(rhs)` into the
    /// faster `matmul(rhs^T)` without touching any floating-point op:
    /// both kernels sum identical terms in ascending contraction order,
    /// so the results are bit-identical.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                // lint: allow(panic) — c < self.cols = out.rows, r < out.cols
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Element-wise in-place subtraction.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// Scales all elements in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds a row vector (bias) to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = self.row_mut(r);
            for (a, b) in row.iter_mut().zip(&bias.data) {
                *a += b;
            }
        }
    }

    /// Sums rows into a caller-owned `(1, cols)` output (overwritten):
    /// bias gradients.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (1, self.cols),
            "sum_rows output shape mismatch"
        );
        out.fill_zero();
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Overwrites `self` with `src`'s contents; shapes must match. The
    /// in-place counterpart of `clone()` for reused buffers.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Sets every element to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Consumes the matrix, returning its backing buffer (for the
    /// workspace pool).
    pub(crate) fn into_raw(self) -> Vec<f64> {
        self.data
    }

    /// Builds a `(rows, cols)` zero matrix on top of a recycled buffer,
    /// reusing its capacity.
    pub(crate) fn from_raw(rows: usize, cols: usize, mut buf: Vec<f64>) -> Matrix {
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Matrix {
            rows,
            cols,
            data: buf,
        }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Tiled `a @ rhs` into `out`, the row-major output buffer (already
/// zeroed).
///
/// Loop order is `jb -> pb -> i -> p -> j`: one `tp x tj` panel of `rhs`
/// stays cache-resident while every output row streams over it.
/// For a fixed output element `(i, j)` the `p` blocks ascend and `p`
/// ascends within each block, so its terms accumulate in exactly the
/// order of the untiled `i-k-j` kernel — tiling is bit-invisible.
///
/// The `p` loop is unrolled by four with an explicit left-to-right
/// addition chain per output element, so four `rhs` rows are folded into
/// one load/store of the output segment. The chain keeps the exact
/// ascending-`p` addition order, and a `0.0 * b` term adds a signed zero,
/// which cannot change an accumulator that is never `-0.0` (it starts at
/// `+0.0` and IEEE round-to-nearest addition only yields `-0.0` from
/// `-0.0 + -0.0`) — so bits match the one-`p`-at-a-time kernel for all
/// finite inputs.
///
/// Kept out of line: inlined into its one caller, it ran up to ~1.8x
/// slower on narrow outputs (`n` of 1 to 4, as in the V2S dense head) on
/// an AVX-512 Xeon. The same holds for [`matmul_at_b_block_tiled`].
#[inline(never)]
fn matmul_block_tiled(a: &Matrix, rhs: &Matrix, out: &mut [f64], tp: usize, tj: usize) {
    let k = a.cols;
    let n = rhs.cols;
    if n == 0 {
        return;
    }
    let nr = out.len() / n;
    for jb in (0..n).step_by(tj) {
        let jhi = (jb + tj).min(n);
        for pb in (0..k).step_by(tp) {
            let phi = (pb + tp).min(k);
            // lint: allow(panic) — pb < phi <= k = rhs.rows, rows contiguous
            let b_rows = &rhs.data[pb * n..phi * n];
            for i in 0..nr {
                let a_row = a.row(i);
                // lint: allow(panic) — pb < phi <= k = a.cols
                let a_seg = &a_row[pb..phi];
                // lint: allow(panic) — i < nr and jhi <= n keep the range
                // inside the output buffer
                let out_row = &mut out[i * n + jb..i * n + jhi];
                let mut a_quads = a_seg.chunks_exact(4);
                let b_quads = b_rows.chunks_exact(4 * n);
                for (aq, bq) in a_quads.by_ref().zip(b_quads) {
                    let &[a0, a1, a2, a3] = aq else { continue };
                    if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                        continue;
                    }
                    let (b0, rest) = bq.split_at(n);
                    let (b1, rest) = rest.split_at(n);
                    let (b2, b3) = rest.split_at(n);
                    // lint: allow(panic) — jhi <= n = rhs.cols
                    let (c0, c1) = (&b0[jb..jhi], &b1[jb..jhi]);
                    let (c2, c3) = (&b2[jb..jhi], &b3[jb..jhi]);
                    let cols = out_row.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3);
                    for ((((o, &v0), &v1), &v2), &v3) in cols {
                        *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
                    }
                }
                let rem_p0 = phi - a_quads.remainder().len();
                for (p, &av) in a_quads.remainder().iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    // lint: allow(panic) — jhi <= n = rhs.cols
                    let b_seg = &rhs.row(rem_p0 + p)[jb..jhi];
                    for (o, &b) in out_row.iter_mut().zip(b_seg) {
                        *o += av * b;
                    }
                }
            }
        }
    }
}

/// Tiled `a^T @ rhs` into `out`, the pre-zeroed row-major output buffer;
/// `a` is `(k, m)`, so output row `i` is column `i` of `a`.
///
/// Loop order is `jb -> pb -> ib -> p -> i -> j`: reading
/// `a.row(p)[ib..]` keeps the strided-transpose access contiguous,
/// while the `ib` blocking keeps the touched output rows cache-resident
/// across a `p` run. Per output element the `p` order is ascending, so
/// results match the untiled kernel bit-for-bit.
///
/// Like [`matmul_block_tiled`], `p` is unrolled by four with an explicit
/// ascending addition chain per output element — same order, same bits
/// (see the signed-zero argument there), a quarter of the output-row
/// traffic.
#[inline(never)]
fn matmul_at_b_block_tiled(a: &Matrix, rhs: &Matrix, out: &mut [f64], tp: usize, tj: usize) {
    let k = a.rows;
    let ma = a.cols;
    let n = rhs.cols;
    if n == 0 {
        return;
    }
    let nr = out.len() / n;
    for jb in (0..n).step_by(tj) {
        let jhi = (jb + tj).min(n);
        for pb in (0..k).step_by(tp) {
            let phi = (pb + tp).min(k);
            // lint: allow(panic) — pb < phi <= k = a.rows, rows contiguous
            let a_rows = &a.data[pb * ma..phi * ma];
            // lint: allow(panic) — pb < phi <= k = rhs.rows, rows contiguous
            let b_rows = &rhs.data[pb * n..phi * n];
            for ib in (0..nr).step_by(TILE_I) {
                let ihi = (ib + TILE_I).min(nr);
                let mut a_quads = a_rows.chunks_exact(4 * ma);
                let b_quads = b_rows.chunks_exact(4 * n);
                for (ar, br) in a_quads.by_ref().zip(b_quads) {
                    let (ar0, rest) = ar.split_at(ma);
                    let (ar1, rest) = rest.split_at(ma);
                    let (ar2, ar3) = rest.split_at(ma);
                    let (b0, rest) = br.split_at(n);
                    let (b1, rest) = rest.split_at(n);
                    let (b2, b3) = rest.split_at(n);
                    // lint: allow(panic) — ihi <= nr = m = a.cols
                    let (c0, c1) = (&ar0[ib..ihi], &ar1[ib..ihi]);
                    let (c2, c3) = (&ar2[ib..ihi], &ar3[ib..ihi]);
                    let a_cols = c0.iter().zip(c1).zip(c2).zip(c3);
                    for (di, (((&a0, &a1), &a2), &a3)) in a_cols.enumerate() {
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let i = ib + di;
                        // lint: allow(panic) — i < nr and jhi <= n keep
                        // the range inside the output buffer
                        let out_row = &mut out[i * n + jb..i * n + jhi];
                        // lint: allow(panic) — jhi <= n = rhs.cols
                        let (c0, c1) = (&b0[jb..jhi], &b1[jb..jhi]);
                        let (c2, c3) = (&b2[jb..jhi], &b3[jb..jhi]);
                        let cols = out_row.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3);
                        for ((((o, &v0), &v1), &v2), &v3) in cols {
                            *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
                        }
                    }
                }
                let rem = a_quads.remainder();
                let rem_p0 = phi - rem.len() / ma.max(1);
                for (off, ar) in rem.chunks_exact(ma).enumerate() {
                    let p = rem_p0 + off;
                    // lint: allow(panic) — ihi <= nr = m = a.cols
                    let a_seg = &ar[ib..ihi];
                    // lint: allow(panic) — jhi <= n = rhs.cols
                    let b_seg = &rhs.row(p)[jb..jhi];
                    for (di, &av) in a_seg.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let i = ib + di;
                        // lint: allow(panic) — i < nr and jhi <= n keep
                        // the range inside the output buffer
                        let out_row = &mut out[i * n + jb..i * n + jhi];
                        for (o, &b) in out_row.iter_mut().zip(b_seg) {
                            *o += av * b;
                        }
                    }
                }
            }
        }
    }
}

/// Blocked `a @ rhs^T` into `out`, the row-major output buffer.
/// Only the output columns are blocked (a `tj`-row panel of `rhs` is
/// reused across every output row); each element is one sequential
/// dot product, identical to the unblocked kernel.
///
/// A 2x4 register block is computed at once: two output rows share the
/// four loaded `rhs` rows, giving eight *independent* accumulator chains
/// from six loads per step — a single dot product is a serial FP-add
/// dependency chain and runs at add-latency speed, while eight
/// interleaved chains fill the pipeline and the row-sharing halves the
/// load pressure. Each chain still sums its own terms in ascending `p`
/// order, so every element's bits match the plain `dot`.
fn matmul_a_bt_block_tiled(a: &Matrix, rhs: &Matrix, out: &mut [f64], tj: usize) {
    let n = rhs.rows;
    let kc = rhs.cols;
    if n == 0 {
        return;
    }
    if kc == 0 {
        // empty contraction: every dot product is 0.0
        for o in out.iter_mut() {
            *o = 0.0;
        }
        return;
    }
    for jb in (0..n).step_by(tj) {
        let jhi = (jb + tj).min(n);
        // lint: allow(panic) — jb < jhi <= n = rhs.rows, rows contiguous
        let b_rows = &rhs.data[jb * kc..jhi * kc];
        let mut out_rows = out.chunks_exact_mut(n);
        let mut i = 0usize;
        while let Some(or0) = out_rows.next() {
            let Some(or1) = out_rows.next() else {
                // odd trailing row: four-column chains without the pair
                let a_row = a.row(i);
                // lint: allow(panic) — jhi <= n bounds the row segment
                let o_row = &mut or0[jb..jhi];
                let mut o_quads = o_row.chunks_exact_mut(4);
                let mut b_quads = b_rows.chunks_exact(4 * kc);
                for (oq, bq) in o_quads.by_ref().zip(b_quads.by_ref()) {
                    let (r0, rest) = bq.split_at(kc);
                    let (r1, rest) = rest.split_at(kc);
                    let (r2, r3) = rest.split_at(kc);
                    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                    let rows = a_row.iter().zip(r0).zip(r1).zip(r2).zip(r3);
                    for ((((&av, &v0), &v1), &v2), &v3) in rows {
                        s0 += av * v0;
                        s1 += av * v1;
                        s2 += av * v2;
                        s3 += av * v3;
                    }
                    if let [o0, o1, o2, o3] = oq {
                        (*o0, *o1, *o2, *o3) = (s0, s1, s2, s3);
                    }
                }
                let b_rem = b_quads.remainder().chunks_exact(kc);
                for (o, r) in o_quads.into_remainder().iter_mut().zip(b_rem) {
                    *o = dot(a_row, r);
                }
                break;
            };
            let a0_row = a.row(i);
            let a1_row = a.row(i + 1);
            // lint: allow(panic) — jhi <= n bounds both row segments
            let o0_row = &mut or0[jb..jhi];
            // lint: allow(panic) — jhi <= n bounds both row segments
            let o1_row = &mut or1[jb..jhi];
            let mut o0_quads = o0_row.chunks_exact_mut(4);
            let mut o1_quads = o1_row.chunks_exact_mut(4);
            let mut b_quads = b_rows.chunks_exact(4 * kc);
            for ((oq0, oq1), bq) in o0_quads
                .by_ref()
                .zip(o1_quads.by_ref())
                .zip(b_quads.by_ref())
            {
                let (r0, rest) = bq.split_at(kc);
                let (r1, rest) = rest.split_at(kc);
                let (r2, r3) = rest.split_at(kc);
                let (mut s00, mut s01, mut s02, mut s03) = (0.0, 0.0, 0.0, 0.0);
                let (mut s10, mut s11, mut s12, mut s13) = (0.0, 0.0, 0.0, 0.0);
                let rows = a0_row.iter().zip(a1_row).zip(r0).zip(r1).zip(r2).zip(r3);
                for (((((&a0, &a1), &v0), &v1), &v2), &v3) in rows {
                    s00 += a0 * v0;
                    s01 += a0 * v1;
                    s02 += a0 * v2;
                    s03 += a0 * v3;
                    s10 += a1 * v0;
                    s11 += a1 * v1;
                    s12 += a1 * v2;
                    s13 += a1 * v3;
                }
                if let [o0, o1, o2, o3] = oq0 {
                    (*o0, *o1, *o2, *o3) = (s00, s01, s02, s03);
                }
                if let [o0, o1, o2, o3] = oq1 {
                    (*o0, *o1, *o2, *o3) = (s10, s11, s12, s13);
                }
            }
            let b_rem = b_quads.remainder().chunks_exact(kc);
            let tail = o0_quads
                .into_remainder()
                .iter_mut()
                .zip(o1_quads.into_remainder().iter_mut())
                .zip(b_rem);
            for ((o0, o1), r) in tail {
                *o0 = dot(a0_row, r);
                *o1 = dot(a1_row, r);
            }
            i += 2;
        }
    }
}

/// Row-wise softmax in place; numerically stabilised by row-max shifting.
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        softmax_in_place(m.row_mut(r));
    }
}

/// Softmax of one vector of logits, in place; numerically stabilised by
/// max shifting.
#[inline]
pub fn softmax_in_place(row: &mut [f64]) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = crate::activation::exp(*v - max);
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Backward pass of row-wise softmax: given the softmax output `y` and the
/// upstream gradient `dy`, overwrites `dx` with
/// `y * (dy - sum(dy * y, per row))`.
pub fn softmax_rows_backward(y: &Matrix, dy: &Matrix, dx: &mut Matrix) {
    assert_eq!(y.shape(), dy.shape(), "softmax backward shape mismatch");
    assert_eq!(
        dx.shape(),
        y.shape(),
        "softmax backward output shape mismatch"
    );
    for r in 0..y.rows() {
        let yr = y.row(r);
        let dyr = dy.row(r);
        let s: f64 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
        for (o, (&yv, &dyv)) in dx.row_mut(r).iter_mut().zip(yr.iter().zip(dyr)) {
            *o = yv * (dyv - s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Textbook `i-j-k` reference, deliberately untiled and without the
    /// `a == 0` skip. Each output element still sums in ascending `p`
    /// order, which is the invariant the production kernels preserve.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|p| a.get(i, p) * b.get(p, j)).sum()
        })
    }

    fn naive_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), b.cols(), |i, j| {
            (0..a.rows()).map(|p| a.get(p, i) * b.get(p, j)).sum()
        })
    }

    fn naive_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            (0..a.cols()).map(|p| a.get(i, p) * b.get(j, p)).sum()
        })
    }

    /// Deterministic test fill with exact zeros injected (every fifth
    /// element) so the kernels' sparsity skip is exercised.
    fn patterned(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            if (r * cols + c + salt).is_multiple_of(5) {
                0.0
            } else {
                ((r * 31 + c * 7 + salt) % 23) as f64 * 0.37 - 3.0
            }
        })
    }

    const TILE_CHOICES: [usize; 4] = [1, 3, 8, 64];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// All three tiled block kernels are bit-identical to the naive
        /// reference for arbitrary shapes and tile sizes.
        #[test]
        fn tiled_kernels_match_naive(
            m in 1usize..24,
            k in 1usize..24,
            n in 1usize..24,
            tp_ix in 0usize..4,
            tj_ix in 0usize..4,
            salt in 0usize..1000,
        ) {
            let (tp, tj) = (TILE_CHOICES[tp_ix], TILE_CHOICES[tj_ix]);
            let a = patterned(m, k, salt);
            let b = patterned(k, n, salt + 1);
            let at = patterned(k, m, salt + 2);
            let bt = patterned(n, k, salt + 3);

            let mut out = Matrix::zeros(m, n);
            matmul_block_tiled(&a, &b, out.as_mut_slice(), tp, tj);
            prop_assert_eq!(out.as_slice(), naive_matmul(&a, &b).as_slice());

            let mut out = Matrix::zeros(m, n);
            matmul_at_b_block_tiled(&at, &b, out.as_mut_slice(), tp, tj);
            prop_assert_eq!(out.as_slice(), naive_at_b(&at, &b).as_slice());

            let mut out = Matrix::zeros(m, n);
            matmul_a_bt_block_tiled(&a, &bt, out.as_mut_slice(), tj);
            prop_assert_eq!(out.as_slice(), naive_a_bt(&a, &bt).as_slice());
        }

        /// The public kernels (fixed production tiles) match the naive
        /// reference at shapes spanning several tiles.
        #[test]
        fn public_kernels_match_naive(
            m in 60usize..110,
            k in 40usize..90,
            n in 40usize..80,
            salt in 0usize..1000,
        ) {
            let a = patterned(m, k, salt);
            let b = patterned(k, n, salt + 1);
            let at = patterned(k, m, salt + 2);
            let bt = patterned(n, k, salt + 3);
            prop_assert_eq!(a.matmul(&b).as_slice(), naive_matmul(&a, &b).as_slice());
            prop_assert_eq!(at.matmul_at_b(&b).as_slice(), naive_at_b(&at, &b).as_slice());
            prop_assert_eq!(a.matmul_a_bt(&bt).as_slice(), naive_a_bt(&a, &bt).as_slice());
        }
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = patterned(37, 29, 4);
        let b = patterned(29, 21, 5);
        let at = patterned(29, 37, 6);
        let bt = patterned(21, 29, 7);
        // Dirty buffers: _into must fully overwrite.
        let mut out = Matrix::filled(37, 21, f64::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let mut out = Matrix::filled(37, 21, f64::NAN);
        at.matmul_at_b_into(&b, &mut out);
        assert_eq!(out, at.matmul_at_b(&b));
        let mut out = Matrix::filled(37, 21, f64::NAN);
        a.matmul_a_bt_into(&bt, &mut out);
        assert_eq!(out, a.matmul_a_bt(&bt));
        let mut out = Matrix::filled(1, 29, f64::NAN);
        a.sum_rows_into(&mut out);
        let mut clean = Matrix::zeros(1, 29);
        a.sum_rows_into(&mut clean);
        assert_eq!(out, clean);
    }

    #[test]
    fn copy_from_and_raw_roundtrip() {
        let a = patterned(5, 7, 1);
        let mut dst = Matrix::zeros(5, 7);
        dst.copy_from(&a);
        assert_eq!(dst, a);
        let buf = dst.into_raw();
        let cap = buf.capacity();
        let back = Matrix::from_raw(3, 4, buf);
        assert_eq!(back, Matrix::zeros(3, 4));
        assert!(back.data.capacity() >= cap.min(12));
    }

    #[test]
    fn constructors_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(f.get(1, 0), 10.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f64 + 0.5);
        let b = Matrix::from_fn(3, 5, |r, c| (r * c) as f64 - 1.0);
        // a^T @ b two ways
        let direct = a.transpose().matmul(&b);
        let fused = a.matmul_at_b(&b);
        assert_eq!(direct, fused);
        // a @ b^T two ways
        let c = Matrix::from_fn(5, 4, |r, c| (r as f64) - (c as f64) * 0.3);
        let direct = a.matmul(&c.transpose());
        let fused = a.matmul_a_bt(&c);
        for (x, y) in direct.as_slice().iter().zip(fused.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a.get(0, 0), 5.0);
        a.sub_assign(&b);
        assert_eq!(a.get(1, 1), 3.0);
        a.scale(2.0);
        assert_eq!(a.get(0, 1), 6.0);
        a.scale(0.5);
        assert_eq!(a.get(0, 0), 3.0);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(3, 2);
        let bias = Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap();
        a.add_row_broadcast(&bias);
        assert_eq!(a.row(2), &[1.0, -1.0]);
        let mut s = Matrix::zeros(1, 2);
        a.sum_rows_into(&mut s);
        assert_eq!(s.as_slice(), &[3.0, -3.0]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f64 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(m.row(r).iter().all(|&v| v > 0.0));
        }
        // monotone: larger logits, larger probabilities
        assert!(m.get(0, 2) > m.get(0, 1) && m.get(0, 1) > m.get(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let mut b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]).unwrap();
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut m = Matrix::from_vec(1, 3, vec![1000.0, 0.0, -1000.0]).unwrap();
        softmax_rows(&mut m);
        assert!(m.is_finite());
        assert!((m.get(0, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = Matrix::from_vec(1, 4, vec![0.3, -0.7, 1.2, 0.1]).unwrap();
        // Loss: sum of softmax output times fixed weights.
        let w = [0.5, -1.0, 2.0, 0.25];
        let f = |m: &Matrix| {
            let mut y = m.clone();
            softmax_rows(&mut y);
            y.as_slice().iter().zip(&w).map(|(a, b)| a * b).sum::<f64>()
        };
        let mut y = logits.clone();
        softmax_rows(&mut y);
        let dy = Matrix::from_vec(1, w.len(), w.to_vec()).unwrap();
        let mut dx = Matrix::filled(y.rows(), y.cols(), f64::NAN);
        softmax_rows_backward(&y, &dy, &mut dx);
        let eps = 1e-6;
        for i in 0..4 {
            let mut plus = logits.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[i] -= eps;
            let num = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[i]).abs() < 1e-7,
                "component {i}: numeric {num} vs analytic {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn softmax_backward_of_a_constant_upstream_is_zero() {
        // Softmax rows always sum to one, so a loss that weighs every
        // output equally cannot change with the logits.
        let mut y = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64 * 0.37 - 2.0);
        softmax_rows(&mut y);
        let mut dx = Matrix::filled(3, 5, f64::NAN);
        softmax_rows_backward(&y, &Matrix::filled(3, 5, 1.75), &mut dx);
        assert!(dx.as_slice().iter().all(|v| v.abs() < 1e-15), "{dx:?}");
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
