//! Row-major dense `f64` matrix with the kernels reverse-mode autodiff needs.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::shared::SharedBuffer;
use crate::smallgemm::{self, DactSrc, SrcRead, SMR, SNR};

/// Element storage of a [`Matrix`]: either a private heap vector or a
/// borrowed window of a [`SharedBuffer`] (e.g. an `mmap`ed model
/// snapshot). Borrowed storage is read-only; the first mutating access
/// promotes it to owned via a copy (see [`Matrix::make_owned`]).
#[derive(Clone)]
enum Data {
    /// Exclusively owned heap storage (the common case).
    Owned(Vec<f64>),
    /// A `[start, start + len)` window of a shared immutable buffer.
    Shared {
        buf: SharedBuffer,
        start: usize,
        len: usize,
    },
}

/// A dense row-major matrix of `f64` values.
///
/// Row-major storage keeps a row (one instance of a tabular dataset)
/// contiguous, which is the access pattern of every kernel in this
/// reproduction: batched forward/backward passes, per-row softmax,
/// per-row reconstruction errors, and distance computations.
///
/// Storage is normally an owned heap vector, but a matrix can also
/// *borrow* its elements from a [`SharedBuffer`] window
/// ([`Matrix::from_shared`]) — the zero-copy read path of the binary model
/// store, where weights score straight out of an `mmap`ed snapshot. Every
/// read path treats the two identically; mutating methods transparently
/// copy a borrowed matrix into owned storage first (copy-on-write), so
/// borrowed storage is an invisible optimization everywhere except the
/// allocation counters.
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Data,
}

impl Matrix {
    /// The elements as one row-major slice, whichever storage holds them.
    #[inline(always)]
    fn d(&self) -> &[f64] {
        match &self.data {
            Data::Owned(v) => v,
            Data::Shared { buf, start, len } => &buf.as_f64s()[*start..*start + *len],
        }
    }

    /// Mutable element access; promotes borrowed storage to owned first.
    #[inline]
    fn dm(&mut self) -> &mut [f64] {
        self.make_owned();
        match &mut self.data {
            Data::Owned(v) => v,
            Data::Shared { .. } => unreachable!("make_owned left shared storage"),
        }
    }

    /// Copy-on-write promotion: replaces a borrowed window with an owned
    /// copy of its elements (counted by `matrix.cow_promotions`). No-op
    /// for owned storage.
    fn make_owned(&mut self) {
        if let Data::Shared { .. } = self.data {
            targad_obs::metrics::MATRIX_COW_PROMOTIONS.inc();
            self.data = Data::Owned(self.d().to_vec());
        }
    }

    /// Builds a matrix borrowing the `rows * cols` elements at `start` of
    /// `buf` — no element bytes are copied, and the buffer stays alive for
    /// as long as this matrix (or any clone of it) does.
    ///
    /// # Panics
    /// Panics if the window `[start, start + rows * cols)` exceeds `buf`.
    pub fn from_shared(rows: usize, cols: usize, buf: SharedBuffer, start: usize) -> Self {
        let len = rows * cols;
        assert!(
            start.checked_add(len).is_some_and(|end| end <= buf.len()),
            "from_shared: window [{start}, {start}+{len}) exceeds buffer of {}",
            buf.len()
        );
        Self {
            rows,
            cols,
            data: Data::Shared { buf, start, len },
        }
    }

    /// Whether the elements are borrowed from a [`SharedBuffer`] (true)
    /// or privately owned (false).
    #[inline]
    pub fn is_borrowed(&self) -> bool {
        matches!(self.data, Data::Shared { .. })
    }

    /// Heap bytes exclusively owned by this matrix: the element storage
    /// for owned matrices, `0` for borrowed ones (their bytes belong to
    /// the shared buffer — typically a file mapping — and are accounted
    /// once, by its owner).
    pub fn owned_bytes(&self) -> usize {
        match &self.data {
            Data::Owned(v) => v.capacity() * std::mem::size_of::<f64>(),
            Data::Shared { .. } => 0,
        }
    }
    /// A `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: Data::Owned(vec![value; rows * cols]),
        }
    }

    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// A `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {} values cannot fill a {rows}x{cols} matrix",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Data::Owned(data),
        }
    }

    /// Builds a matrix from row slices; all rows must share one length.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "from_rows: row {i} has length {} != {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data: Data::Owned(data),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self {
            rows,
            cols,
            data: Data::Owned(data),
        }
    }

    /// A `1 x n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An `n x 1` column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
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
        self.rows * self.cols
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.d()
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.dm()
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        match self.data {
            Data::Owned(v) => v,
            Data::Shared { buf, start, len } => buf.as_f64s()[start..start + len].to_vec(),
        }
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.d()[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        let cols = self.cols;
        &mut self.dm()[r * cols..(r + 1) * cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.d().chunks_exact(self.cols.max(1))
    }

    /// A new matrix containing the listed rows (in order, duplicates allowed).
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }

    /// Copies the listed rows of `self` into `out` (an
    /// `indices.len() x self.cols()` matrix), overwriting its contents.
    pub fn take_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "take_rows_into: bad output shape"
        );
        for (dst, &i) in out.dm().chunks_mut(self.cols.max(1)).zip(indices) {
            dst.copy_from_slice(self.row(i));
        }
    }

    /// Stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "vstack: column mismatch {} vs {}",
            self.cols, other.cols
        );
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(self.d());
        data.extend_from_slice(other.d());
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Concatenates `self` and `other` side by side (row counts must match).
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "hstack: row mismatch {} vs {}",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix::from_vec(self.rows, cols, data)
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the i-k-j loop order so the inner loop walks both operands
    /// contiguously, letting LLVM autovectorize (perf-book guidance).
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch ({}x{}) * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_rows_into(self, other, out.dm());
        out
    }

    /// Writes `self * other` into `out`, overwriting its contents.
    ///
    /// Allocation-free: this is [`Matrix::matmul`] for callers that recycle
    /// output buffers (the pooled autograd tape). `out` may hold arbitrary
    /// stale values; it is fully overwritten. Bit-identical to `matmul`.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch or if `out` is not
    /// `self.rows() x other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into: inner dimension mismatch ({}x{}) * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into: bad output shape"
        );
        out.fill(0.0);
        matmul_rows_into(self, other, out.dm());
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// This is the shape of the weight gradient in a linear layer
    /// (`dW = X^T * dY`), so it is a hot kernel during training.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: row mismatch ({}x{})^T * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        matmul_tn_rows_into(self, other, out.dm());
        out
    }

    /// Writes `self^T * other` into `out`, overwriting its contents.
    /// Allocation-free twin of [`Matrix::matmul_tn`]; bit-identical to it.
    ///
    /// # Panics
    /// Panics on a row mismatch or if `out` is not
    /// `self.cols() x other.cols()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn_into: row mismatch ({}x{})^T * ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn_into: bad output shape"
        );
        out.fill(0.0);
        matmul_tn_rows_into(self, other, out.dm());
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// This is the shape of the input gradient in a linear layer
    /// (`dX = dY * W^T`) and of pairwise-dot-product distance kernels.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: column mismatch ({}x{}) * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        matmul_nt_rows_into(self, other, out.dm());
        out
    }

    /// Writes `self * other^T` into `out`, overwriting its contents.
    /// Allocation-free twin of [`Matrix::matmul_nt`]; bit-identical to it.
    ///
    /// # Panics
    /// Panics on a column mismatch or if `out` is not
    /// `self.rows() x other.rows()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt_into: column mismatch ({}x{}) * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_nt_into: bad output shape"
        );
        out.fill(0.0);
        matmul_nt_rows_into(self, other, out.dm());
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out` (must be
    /// `self.cols() x self.rows()`), overwriting its contents.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into: bad output shape"
        );
        let (rows, cols) = (self.rows, self.cols);
        let src = self.d();
        let dst = out.dm();
        for r in 0..rows {
            for c in 0..cols {
                dst[c * rows + r] = src[r * cols + c];
            }
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: Data::Owned(self.d().iter().map(|&v| f(v)).collect()),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in self.dm() {
            *v = f(*v);
        }
    }

    /// Writes `f` applied to every element of `self` into `out` (same
    /// shape), overwriting its contents.
    pub fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "map_into: shape mismatch");
        for (o, &v) in out.dm().iter_mut().zip(self.d()) {
            *o = f(v);
        }
    }

    /// Combines two same-shape matrices elementwise with `f`.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: Data::Owned(
                self.d()
                    .iter()
                    .zip(other.d())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        }
    }

    /// Writes `f(self, other)` elementwise into `out` (all three the same
    /// shape), overwriting its contents.
    pub fn zip_map_into(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64, out: &mut Matrix) {
        assert_eq!(self.shape(), other.shape(), "zip_map_into: shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_map_into: bad output shape");
        for (o, (&a, &b)) in out.dm().iter_mut().zip(self.d().iter().zip(other.d())) {
            *o = f(a, b);
        }
    }

    /// Replaces `self` with `f(self, other)` elementwise (shapes must match).
    pub fn zip_map_inplace(&mut self, other: &Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map_inplace: shape mismatch"
        );
        for (a, &b) in self.dm().iter_mut().zip(other.d()) {
            *a = f(*a, b);
        }
    }

    /// Elementwise product (Hadamard).
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f64) -> Matrix {
        self.map(|v| v + s)
    }

    /// In-place `self += other * s` (axpy). Shapes must match.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, s: f64) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_inplace: shape mismatch"
        );
        for (a, &b) in self.dm().iter_mut().zip(other.d()) {
            *a += b * s;
        }
    }

    /// Overwrites `self` with the contents of `src` (shapes must match).
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from: shape mismatch");
        self.dm().copy_from_slice(src.d());
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.dm().fill(value);
    }

    /// Adds a `1 x cols` row vector to every row.
    ///
    /// # Panics
    /// Panics unless `row` is `1 x self.cols()`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "add_row_broadcast: expected a row vector");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: column mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(row.d()) {
                *o += b;
            }
        }
        out
    }

    /// Writes `self` with `row` added to every row into `out` (same shape
    /// as `self`), overwriting its contents.
    pub fn add_row_broadcast_into(&self, row: &Matrix, out: &mut Matrix) {
        assert_eq!(row.rows, 1, "add_row_broadcast_into: expected a row vector");
        assert_eq!(
            row.cols, self.cols,
            "add_row_broadcast_into: column mismatch"
        );
        assert_eq!(
            self.shape(),
            out.shape(),
            "add_row_broadcast_into: bad output shape"
        );
        for (out_row, src_row) in out
            .dm()
            .chunks_mut(self.cols)
            .zip(self.d().chunks(self.cols))
        {
            for ((o, &a), &b) in out_row.iter_mut().zip(src_row).zip(row.d()) {
                *o = a + b;
            }
        }
    }

    /// Multiplies row `r` of `self` by `col[r]` (an `rows x 1` column vector).
    ///
    /// This is the kernel behind per-instance loss weights `w(x)` (Eq. 6 of
    /// the paper).
    ///
    /// # Panics
    /// Panics unless `col` is `self.rows() x 1`.
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        assert_eq!(col.cols, 1, "mul_col_broadcast: expected a column vector");
        assert_eq!(col.rows, self.rows, "mul_col_broadcast: row mismatch");
        let mut out = self.clone();
        out.mul_col_broadcast_inplace(col);
        out
    }

    /// Multiplies row `r` of `self` by `col[r]` in place.
    ///
    /// # Panics
    /// Panics unless `col` is `self.rows() x 1`.
    pub fn mul_col_broadcast_inplace(&mut self, col: &Matrix) {
        assert_eq!(
            col.cols, 1,
            "mul_col_broadcast_inplace: expected a column vector"
        );
        assert_eq!(
            col.rows, self.rows,
            "mul_col_broadcast_inplace: row mismatch"
        );
        let cols = self.cols.max(1);
        for (row, &w) in self.dm().chunks_mut(cols).zip(col.d()) {
            for o in row {
                *o *= w;
            }
        }
    }

    /// Writes `self` with row `r` scaled by `col[r]` into `out` (same shape
    /// as `self`), overwriting its contents.
    pub fn mul_col_broadcast_into(&self, col: &Matrix, out: &mut Matrix) {
        assert_eq!(
            col.cols, 1,
            "mul_col_broadcast_into: expected a column vector"
        );
        assert_eq!(col.rows, self.rows, "mul_col_broadcast_into: row mismatch");
        assert_eq!(
            self.shape(),
            out.shape(),
            "mul_col_broadcast_into: bad output shape"
        );
        let cols = self.cols.max(1);
        for ((out_row, src_row), &w) in out
            .dm()
            .chunks_mut(cols)
            .zip(self.d().chunks(cols))
            .zip(col.d())
        {
            for (o, &a) in out_row.iter_mut().zip(src_row) {
                *o = a * w;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.d().iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Per-row sums as an `rows x 1` column vector.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        self.row_sums_into(&mut out);
        out
    }

    /// Writes the per-row sums into `out` (an `rows x 1` column vector),
    /// overwriting its contents.
    pub fn row_sums_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.rows, 1),
            "row_sums_into: bad output shape"
        );
        for (o, row) in out.dm().iter_mut().zip(self.iter_rows()) {
            *o = row.iter().sum();
        }
    }

    /// Per-column sums as a `1 x cols` row vector.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.col_sums_into(&mut out);
        out
    }

    /// Writes the per-column sums into `out` (a `1 x cols` row vector),
    /// overwriting its contents.
    pub fn col_sums_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "col_sums_into: bad output shape"
        );
        out.fill(0.0);
        let sums = out.dm();
        for row in self.iter_rows() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
    }

    /// Per-row squared Euclidean norms, as a plain vector.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        self.iter_rows()
            .map(|r| r.iter().map(|v| v * v).sum())
            .collect()
    }

    /// Squared Frobenius norm.
    pub fn sq_norm(&self) -> f64 {
        self.d().iter().map(|v| v * v).sum()
    }

    /// Index of the maximum value in row `r` (first one on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Maximum value in row `r`.
    pub fn max_row(&self, r: usize) -> f64 {
        self.row(r)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// Replaces every row with its numerically stable softmax.
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// Numerically stable row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.log_softmax_rows_inplace();
        out
    }

    /// Replaces every row with its numerically stable log-softmax.
    pub fn log_softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f64>().ln();
            for v in row.iter_mut() {
                *v -= lse;
            }
        }
    }

    /// Row-wise `log(sum(exp(.)))`, numerically stable, as an `rows x 1`
    /// column vector.
    pub fn logsumexp_rows(&self) -> Matrix {
        let vals: Vec<f64> = self
            .iter_rows()
            .map(|row| {
                let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                max + row.iter().map(|&v| (v - max).exp()).sum::<f64>().ln()
            })
            .collect();
        Matrix::col_vector(&vals)
    }

    /// Squared Euclidean distance between row `r` of `self` and `point`.
    pub fn row_sq_dist(&self, r: usize, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.cols);
        self.row(r)
            .iter()
            .zip(point)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum()
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.d().iter().all(|v| v.is_finite())
    }
}

// ---------------------------------------------------------------------------
// Blocked GEMM kernels.
//
// All three variants share one determinism contract: every output element is
// a single accumulator chain over its contraction index in ascending order,
// independent of how the output rows are partitioned across workers and of
// which code path (packed-blocked or small-problem naive) executes it.
// Spilling a partial sum to `out` between k-blocks and reloading it is exact
// (an f64 store/load round-trip loses nothing), so cache blocking does not
// perturb the chain. Zero-padding the packed panels only feeds the unused
// register lanes, which are never stored. DESIGN.md §9 has the full argument.

/// Overflow-safe logistic sigmoid: `1 / (1 + e^{-x})` evaluated so the
/// exponential argument is never positive. This is the single definition the
/// tape op and the fused GEMM epilogue (training and inference alike)
/// share — bit-identity between them starts here.
#[inline]
pub fn stable_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Single-precision twin of [`stable_sigmoid`], used by the f32 inference
/// kernels ([`crate::f32kernel`]). Same branch structure, so the f32 path is
/// overflow-safe for the same reasons.
#[inline]
pub fn stable_sigmoid_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Elementwise activation applied by the fused GEMM epilogue
/// ([`matmul_bias_act_rows_into`]). Each variant is the exact scalar formula
/// of the corresponding inference-path activation, so fusing it into the
/// kernel's write-back is bit-identical to a separate full-matrix pass: the
/// epilogue only ever sees the final accumulated value of an out element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EpiAct {
    /// Identity (no activation).
    #[default]
    None,
    /// Rectified linear unit, `x.max(0.0)`.
    Relu,
    /// Leaky ReLU with the fixed slope 0.01 used across the reproduction.
    LeakyRelu,
    /// Logistic sigmoid via [`stable_sigmoid`].
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl EpiAct {
    /// Applies the activation to one scalar.
    #[inline(always)]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            EpiAct::None => x,
            EpiAct::Relu => x.max(0.0),
            EpiAct::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            EpiAct::Sigmoid => stable_sigmoid(x),
            EpiAct::Tanh => x.tanh(),
        }
    }

    /// Applies the activation to one `f32` scalar — the epilogue of the f32
    /// inference kernels ([`crate::f32kernel`]). Each variant is the exact
    /// single-precision analogue of [`EpiAct::apply`]; the f32 path carries
    /// its own tolerance contract (ranking parity vs the f64 oracle), so
    /// only SIMD-vs-scalar-f32 bit-identity matters here, and both kernel
    /// paths share this one scalar epilogue.
    #[inline(always)]
    pub fn apply_f32(self, x: f32) -> f32 {
        match self {
            EpiAct::None => x,
            EpiAct::Relu => x.max(0.0),
            EpiAct::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            EpiAct::Sigmoid => stable_sigmoid_f32(x),
            EpiAct::Tanh => x.tanh(),
        }
    }

    /// The backward counterpart of [`EpiAct::apply`]: the upstream gradient
    /// `g` times the activation derivative, with the derivative computed
    /// from the layer *output* `y = apply(z)` rather than the
    /// pre-activation `z`. Exact for every variant: `y > 0 ⟺ z > 0` for
    /// the ReLU family (so the branch picks the identical side), and the
    /// sigmoid/tanh derivatives are already expressed in terms of the
    /// output. Each arm performs the exact scalar op sequence of the
    /// corresponding unfused tape backward arm, so fusing this product into
    /// a gradient GEMM's read path is bit-identical to materializing
    /// `dZ = dA ⊙ act'(Z)` first.
    #[inline(always)]
    pub fn grad_from_output(self, g: f64, y: f64) -> f64 {
        match self {
            EpiAct::None => g,
            EpiAct::Relu => {
                if y > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            EpiAct::LeakyRelu => {
                if y > 0.0 {
                    g
                } else {
                    0.01 * g
                }
            }
            EpiAct::Sigmoid => g * (y * (1.0 - y)),
            EpiAct::Tanh => g * (1.0 - y * y),
        }
    }
}

/// Register tile height: output rows held in registers per micro-kernel call.
const MR: usize = 4;
/// Register tile width: output columns held in registers per micro-kernel
/// call. `MR * NR = 32` accumulators fit the 16 × 256-bit vector registers
/// of any x86-64 with room for the `a`/`b` operands.
const NR: usize = 8;
/// Contraction-dimension block: one packed B panel spans `KC x NR` and stays
/// L1-resident while `MC / MR` micro-tiles stream over it.
const KC: usize = 256;
/// Output-row block: one packed A block spans `MC x KC` (512 KiB / 8 =
/// 128 KiB at f64) and stays L2-resident across the `j` sweep.
const MC: usize = 64;
/// Largest `m*n*k` the packing-free tiled path handles for `A*B`:
/// measured on the shard-shaped training sweep, tiled nn beats the blocked
/// kernel through 2^19 multiply-adds (128x64x64: ~58 vs ~63 us) and ties or
/// loses above. Inclusive bound — the training sweep's 128x64x32 GEMMs land
/// exactly on 2^18 and were the motivating stuck-on-blocked shapes.
const SMALL_MAX_FLOPS_NN: usize = 1 << 19;

/// Tiled-path ceiling for `A*B^T`: the nt tile reads B columns at stride
/// `k`, which blocked packing amortizes but the packing-free path cannot,
/// so tiled nt only holds its own through 2^18 multiply-adds (128x64x32:
/// ~43 vs ~44 us; at 2^19 it is ~40% behind).
const SMALL_MAX_FLOPS_NT: usize = 1 << 18;

/// Tiled-path ceiling for `A^T*B`: both operand walks are contiguous in
/// the tn tile, so it stays ahead of the blocked kernel through 2^20
/// multiply-adds (128x128x64: ~100 vs ~108 us).
const SMALL_MAX_FLOPS_TN: usize = 1 << 20;

/// Output area (`rows * cols`) below which even register tiling is not
/// worth entering: a single `SMR x SNR` tile. Such outputs run the scalar
/// loops (the `gemm.naive_dispatches` counter); everything else up to the
/// variant's `SMALL_MAX_FLOPS_*` ceiling takes the tiled small path
/// (`gemm.small_dispatches`).
const SMALL_MIN_AREA: usize = SMR * SNR;

/// Which kernel a GEMM dispatch takes. Selected by [`gemm_path`]; every
/// path computes the same ascending-`k` accumulation chains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GemmPath {
    /// Plain triple loop (`gemm.naive_dispatches`).
    Scalar,
    /// Packing-free register-tiled small kernel (`gemm.small_dispatches`).
    Small,
    /// Packed blocked kernel (`gemm.kernel_dispatches`).
    Blocked,
}

/// Picks the kernel for an `rows x n` output over a `k`-long contraction,
/// bumping the matching dispatch counter. `small_max` is the
/// variant-specific tiled ceiling (`SMALL_MAX_FLOPS_*`, inclusive).
fn gemm_path(rows: usize, n: usize, k: usize, small_max: usize) -> GemmPath {
    let path = if rows * n * k > small_max {
        GemmPath::Blocked
    } else if rows * n < SMALL_MIN_AREA {
        GemmPath::Scalar
    } else {
        GemmPath::Small
    };
    match path {
        GemmPath::Scalar => targad_obs::metrics::GEMM_NAIVE_DISPATCHES.inc(),
        GemmPath::Small => targad_obs::metrics::GEMM_SMALL_DISPATCHES.inc(),
        GemmPath::Blocked => targad_obs::metrics::GEMM_KERNEL_DISPATCHES.inc(),
    }
    path
}

/// The innermost register tile: `acc[m][c] += a[kk*MR+m] * b[kk*NR+c]` for
/// `kk` ascending. `apack` is kk-major with `MR` A values per step; `bpack`
/// is kk-major with `NR` B values per step. Fixed-size rows let LLVM keep
/// the whole tile in vector registers.
#[inline(always)]
fn gemm_micro(apack: &[f64], bpack: &[f64], kb: usize, acc: &mut [[f64; NR]; MR]) {
    for (a_step, b_step) in apack.chunks_exact(MR).zip(bpack.chunks_exact(NR)).take(kb) {
        // Fixed-size views so the compiler sees exact trip counts and keeps
        // the whole tile in vector registers with no bounds checks.
        let a_step: &[f64; MR] = a_step.try_into().expect("MR chunk");
        let b_step: &[f64; NR] = b_step.try_into().expect("NR chunk");
        for (acc_row, &av) in acc.iter_mut().zip(a_step) {
            for (o, &bv) in acc_row.iter_mut().zip(b_step) {
                *o += av * bv;
            }
        }
    }
}

/// Packs the A block `[i0, i0+ib) x [k0, k0+kb)` into `apack`, tile-major:
/// tile `t` holds rows `i0 + t*MR ..`, laid out kk-major with `MR` values per
/// step, rows past `ib` padded with zeros. The source element for (row `i`,
/// contraction `k`) is `data.at(i*i_stride + k*k_stride)` — `(i_stride,
/// k_stride) = (cols, 1)` packs A for `A*B`, `(1, cols)` packs it transposed
/// for `A^T*B`, so both GEMM variants share this routine and the driver.
/// Generic over [`SrcRead`]: a [`DactSrc`] A fuses the backward
/// activation-derivative product into the pack, each `dZ` element computed
/// exactly once (every A element belongs to exactly one `(i0, k0)` block).
#[allow(clippy::too_many_arguments)]
fn pack_a_block<A: SrcRead>(
    data: A,
    i_stride: usize,
    k_stride: usize,
    i0: usize,
    ib: usize,
    k0: usize,
    kb: usize,
    apack: &mut [f64; MC * KC],
) {
    let tiles = ib.div_ceil(MR);
    if k_stride == 1 {
        // Row-major A: each packed row is a contiguous k-run, read in bulk
        // (one vectorizable `read_run` per row) and scattered into the
        // tile's kk-major layout.
        let mut run = [0.0f64; KC];
        for (t, tile) in apack.chunks_exact_mut(KC * MR).take(tiles).enumerate() {
            let mb = (ib - t * MR).min(MR);
            for m in 0..MR {
                if m < mb {
                    let src = (i0 + t * MR + m) * i_stride + k0;
                    data.read_run(src, &mut run[..kb]);
                    for (kk, &v) in run[..kb].iter().enumerate() {
                        tile[kk * MR + m] = v;
                    }
                } else {
                    for kk in 0..kb {
                        tile[kk * MR + m] = 0.0;
                    }
                }
            }
        }
    } else if i_stride == 1 {
        // Transposed A: for each contraction step the `MR` row values are
        // contiguous, so each tile step is one short bulk read.
        for (t, tile) in apack.chunks_exact_mut(KC * MR).take(tiles).enumerate() {
            let mb = (ib - t * MR).min(MR);
            for (kk, dst) in tile.chunks_exact_mut(MR).take(kb).enumerate() {
                let src = (i0 + t * MR) + (k0 + kk) * k_stride;
                data.read_run(src, &mut dst[..mb]);
                dst[mb..].fill(0.0);
            }
        }
    } else {
        for (t, tile) in apack.chunks_exact_mut(KC * MR).take(tiles).enumerate() {
            let mb = (ib - t * MR).min(MR);
            for (kk, dst) in tile.chunks_exact_mut(MR).take(kb).enumerate() {
                let src = (i0 + t * MR) * i_stride + (k0 + kk) * k_stride;
                for (m, d) in dst.iter_mut().enumerate() {
                    *d = if m < mb {
                        data.at(src + m * i_stride)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Packs the B panel `[k0, k0+kb) x [j0, j0+jb)` into `bpack`, kk-major with
/// `NR` values per step, columns past `jb` padded with zeros.
fn pack_b_panel(
    b: &Matrix,
    k0: usize,
    kb: usize,
    j0: usize,
    jb: usize,
    bpack: &mut [f64; KC * NR],
) {
    for (kk, dst) in bpack.chunks_exact_mut(NR).take(kb).enumerate() {
        let start = (k0 + kk) * b.cols + j0;
        dst[..jb].copy_from_slice(&b.d()[start..start + jb]);
        dst[jb..].fill(0.0);
    }
}

/// [`pack_b_panel`] generic over the element read path: a [`DactSrc`] B
/// fuses the backward activation-derivative product `dZ = dA ⊙ act'(Z)`
/// into the pack of `dW = Xᵀ·dZ`'s B operand. The blocked driver re-packs
/// B panels once per `MC`-row block of the output; a fused read recomputes
/// the identical value each time, so results cannot depend on the blocking.
fn pack_b_panel_src<B: SrcRead>(
    b: B,
    b_cols: usize,
    k0: usize,
    kb: usize,
    j0: usize,
    jb: usize,
    bpack: &mut [f64; KC * NR],
) {
    for (kk, dst) in bpack.chunks_exact_mut(NR).take(kb).enumerate() {
        let start = (k0 + kk) * b_cols + j0;
        b.read_run(start, &mut dst[..jb]);
        dst[jb..].fill(0.0);
    }
}

/// [`pack_b_panel`] for a transposed B: panel column `c` is row `j0 + c` of
/// `b`, so the contraction index walks `b`'s rows contiguously. This is how
/// `a * b^T` reuses the straight GEMM driver — the packed panel is laid out
/// exactly as [`pack_b_panel`] would lay out a materialized `b^T`.
fn pack_bt_panel(
    b: &Matrix,
    k0: usize,
    kb: usize,
    j0: usize,
    jb: usize,
    bpack: &mut [f64; KC * NR],
) {
    for c in 0..NR {
        if c < jb {
            let start = (j0 + c) * b.cols + k0;
            for (kk, &v) in b.d()[start..start + kb].iter().enumerate() {
                bpack[kk * NR + c] = v;
            }
        } else {
            for kk in 0..kb {
                bpack[kk * NR + c] = 0.0;
            }
        }
    }
}

/// The shared blocked driver behind all three `matmul_*_rows_into` kernels:
/// accumulates `A * B` into `out` where `A` is the `rows x kdim` operand
/// addressed through `(a_istride, a_kstride)` as in
/// [`pack_a_block`], and `B` is delivered in packed `KC x NR` panels by
/// `pack_b` ([`pack_b_panel`] for a row-major B, [`pack_bt_panel`] for a
/// transposed one). `out` holds `rows` full rows of `n` and is accumulated
/// into (callers pre-zero it), k-blocks ascending.
///
/// `epi`, when set, is a fused `(bias, activation)` epilogue applied at the
/// tile write-back of the *final* k-block only — every earlier k-block still
/// spills the raw partial sum (exact: an f64 store/load round-trip loses
/// nothing), so the activation only ever sees the fully accumulated entry
/// and the result is bit-identical to a separate bias-broadcast plus
/// elementwise-activation pass over the finished product.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<A: SrcRead>(
    a_data: A,
    a_istride: usize,
    a_kstride: usize,
    kdim: usize,
    n: usize,
    pack_b: impl Fn(usize, usize, usize, usize, &mut [f64; KC * NR]),
    epi: Option<(&[f64], EpiAct)>,
    out: &mut [f64],
) {
    let rows = out.len() / n;
    let mut apack = [0.0f64; MC * KC];
    let mut bpack = [0.0f64; KC * NR];
    let mut i0 = 0;
    while i0 < rows {
        let ib = (rows - i0).min(MC);
        let tiles = ib.div_ceil(MR);
        let mut k0 = 0;
        while k0 < kdim {
            let kb = (kdim - k0).min(KC);
            // The epilogue fires only on the k-block that completes each
            // element's accumulation chain.
            let fin = if k0 + kb == kdim { epi } else { None };
            pack_a_block(a_data, a_istride, a_kstride, i0, ib, k0, kb, &mut apack);
            let mut j0 = 0;
            while j0 < n {
                let jb = (n - j0).min(NR);
                pack_b(k0, kb, j0, jb, &mut bpack);
                for t in 0..tiles {
                    let mb = (ib - t * MR).min(MR);
                    let base = (i0 + t * MR) * n + j0;
                    let mut acc = [[0.0f64; NR]; MR];
                    for (m, acc_row) in acc.iter_mut().enumerate().take(mb) {
                        acc_row[..jb].copy_from_slice(&out[base + m * n..base + m * n + jb]);
                    }
                    gemm_micro(&apack[t * KC * MR..(t + 1) * KC * MR], &bpack, kb, &mut acc);
                    for (m, acc_row) in acc.iter().enumerate().take(mb) {
                        let dst = &mut out[base + m * n..base + m * n + jb];
                        match fin {
                            Some((bias, act)) => {
                                for ((o, &v), &bj) in
                                    dst.iter_mut().zip(&acc_row[..jb]).zip(&bias[j0..j0 + jb])
                                {
                                    *o = act.apply(v + bj);
                                }
                            }
                            None => dst.copy_from_slice(&acc_row[..jb]),
                        }
                    }
                }
                j0 += NR;
            }
            k0 += KC;
        }
        i0 += MC;
    }
}

/// Computes `a * b` into `out` (row-major, `a.rows() x b.cols()`),
/// accumulating into the existing contents (callers pre-zero `out`).
///
/// Each out element accumulates over `k` in ascending order and depends only
/// on its own indices — this is the kernel behind [`Matrix::matmul`] and
/// [`Matrix::matmul_into`].
fn matmul_rows_into(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let n = b.cols;
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    match gemm_path(rows, n, a.cols, SMALL_MAX_FLOPS_NN) {
        GemmPath::Scalar => {
            smallgemm::gemm_nn_scalar(a.d(), a.cols, a.cols, b.d(), n, None, out);
        }
        GemmPath::Small => {
            smallgemm::gemm_nn_small(a.d(), a.cols, a.cols, b.d(), n, None, out);
        }
        GemmPath::Blocked => {
            let pack_b = |k0, kb, j0, jb, bp: &mut _| pack_b_panel(b, k0, kb, j0, jb, bp);
            gemm_blocked(a.d(), a.cols, 1, a.cols, n, pack_b, None, out);
        }
    }
}

/// Computes `a * b^T` into `out`, accumulating into the existing contents
/// (callers pre-zero `out`).
///
/// Every element is a single dot-product chain over `k` ascending. The
/// blocked path packs rows of `b` as transposed panels ([`pack_bt_panel`])
/// and reuses the straight GEMM driver.
fn matmul_nt_rows_into(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let n = b.rows;
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    match gemm_path(rows, n, a.cols, SMALL_MAX_FLOPS_NT) {
        GemmPath::Scalar => {
            smallgemm::gemm_nt_scalar(a.d(), a.cols, a.cols, b.d(), b.cols, n, out);
        }
        GemmPath::Small => {
            smallgemm::gemm_nt_small(a.d(), a.cols, a.cols, b.d(), b.cols, n, out);
        }
        GemmPath::Blocked => {
            let pack_b = |k0, kb, j0, jb, bp: &mut _| pack_bt_panel(b, k0, kb, j0, jb, bp);
            gemm_blocked(a.d(), a.cols, 1, a.cols, n, pack_b, None, out);
        }
    }
}

/// Computes `a^T * b` into `out`, accumulating into the existing contents
/// (callers pre-zero `out`).
///
/// Accumulates over data rows `r` in ascending order — the same per-element
/// operand sequence as `a.transpose().matmul(&b)`, so the two are
/// bit-identical. The blocked path reuses [`gemm_blocked`] with A addressed
/// through its transpose strides; the packed panels are identical to what a
/// materialized transpose would produce, so the chains match exactly.
fn matmul_tn_rows_into(a: &Matrix, b: &Matrix, out: &mut [f64]) {
    let n = b.cols;
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    match gemm_path(rows, n, a.rows, SMALL_MAX_FLOPS_TN) {
        GemmPath::Scalar => {
            smallgemm::gemm_tn_scalar(a.d(), a.cols, a.rows, b.d(), n, out);
        }
        GemmPath::Small => {
            smallgemm::gemm_tn_small(a.d(), a.cols, a.rows, b.d(), n, out);
        }
        GemmPath::Blocked => {
            let pack_b = |k0, kb, j0, jb, bp: &mut _| pack_b_panel(b, k0, kb, j0, jb, bp);
            gemm_blocked(a.d(), 1, a.cols, a.rows, n, pack_b, None, out);
        }
    }
}

/// The fused dense-layer kernel behind the `ScoreEngine` inference path:
/// computes `act(x · w + bias)` for the row block `x_rows` (a row-major
/// slice of whole `d_in`-wide rows) directly into `out`, with the bias-add
/// and elementwise activation applied in the GEMM's write-back instead of
/// as separate full-matrix passes.
///
/// Bit-identical to `x.matmul(w).add_row_broadcast(bias)` followed by an
/// elementwise activation map: the accumulation chains are the shared GEMM
/// chains (naive and blocked compute identical ones — see the determinism
/// note above), and the epilogue applies the exact same `+ bias[j]` then
/// `act` scalar sequence to each element's final accumulated value. Each out
/// row depends only on its own input row, so any partition of a larger
/// matrix into row blocks — and any assignment of blocks to workers — yields
/// bit-identical scores.
pub fn matmul_bias_act_rows_into(
    x_rows: &[f64],
    d_in: usize,
    w: &Matrix,
    bias: &[f64],
    act: EpiAct,
    out: &mut [f64],
) {
    let n = w.cols;
    assert_eq!(w.rows, d_in, "matmul_bias_act_rows_into: inner mismatch");
    assert_eq!(bias.len(), n, "matmul_bias_act_rows_into: bias mismatch");
    if n == 0 || out.is_empty() {
        return;
    }
    let rows = out.len() / n;
    assert_eq!(
        x_rows.len(),
        rows * d_in,
        "matmul_bias_act_rows_into: x/out row mismatch"
    );
    out.fill(0.0);
    match gemm_path(rows, n, d_in, SMALL_MAX_FLOPS_NN) {
        GemmPath::Scalar => {
            smallgemm::gemm_nn_scalar(x_rows, d_in, d_in, w.d(), n, Some((bias, act)), out);
        }
        GemmPath::Small => {
            smallgemm::gemm_nn_small(x_rows, d_in, d_in, w.d(), n, Some((bias, act)), out);
        }
        GemmPath::Blocked => {
            let pack_b = |k0, kb, j0, jb, bp: &mut _| pack_b_panel(w, k0, kb, j0, jb, bp);
            gemm_blocked(x_rows, d_in, 1, d_in, n, pack_b, Some((bias, act)), out);
        }
    }
}

// ---------------------------------------------------------------------------
// Fused dense-layer backward kernels.
//
// The backward pass of a dense layer `y = act(x·W + b)` needs three
// products of `dZ = dA ⊙ act'(Z)`: the bias gradient (column sums), the
// data gradient `dX = dZ·Wᵀ`, and the weight gradient `dW = Xᵀ·dZ`. The
// unfused tape arms materialize `dZ` as a full matrix first; the entries
// below instead read `dZ` elements through [`DactSrc`] — computed on the
// fly from the upstream gradient `g` and the stored layer output `y`
// (see [`EpiAct::grad_from_output`]) as a prologue on the GEMM read path.
// The per-element multiply happens *before* any accumulation, so every
// accumulation chain is bit-identical to materialize-then-multiply.

/// Fused bias gradient: `out[j] = Σ_r act.grad_from_output(g[r][j],
/// y[r][j])` — the column sums of `dZ`, rows ascending, without
/// materializing `dZ`. Bit-identical to mapping `dZ` elementwise and then
/// calling [`Matrix::col_sums_into`] (same chains, same order).
///
/// # Panics
/// Panics unless `g` and `y` share a shape and `out` is `1 x g.cols()`.
pub fn dense_backward_bias_into(g: &Matrix, y: &Matrix, act: EpiAct, out: &mut Matrix) {
    assert_eq!(
        g.shape(),
        y.shape(),
        "dense_backward_bias_into: g/y shape mismatch"
    );
    assert_eq!(
        out.shape(),
        (1, g.cols),
        "dense_backward_bias_into: bad output shape"
    );
    out.fill(0.0);
    let sums = out.dm();
    for (g_row, y_row) in g.iter_rows().zip(y.iter_rows()) {
        for ((s, &gv), &yv) in sums.iter_mut().zip(g_row).zip(y_row) {
            *s += act.grad_from_output(gv, yv);
        }
    }
}

/// Fused data gradient: `out = dZ · Wᵀ` with `dZ` read through the
/// activation-derivative prologue — the counterpart of
/// `g.matmul_nt_into(w, out)` on a materialized `dZ`, dispatching through
/// the same scalar/small-tile/blocked ladder with identical chains.
///
/// # Panics
/// Panics unless `g` and `y` share a shape, `w.cols() == g.cols()`, and
/// `out` is `g.rows() x w.rows()`.
pub fn dense_backward_data_into(g: &Matrix, y: &Matrix, act: EpiAct, w: &Matrix, out: &mut Matrix) {
    assert_eq!(
        g.shape(),
        y.shape(),
        "dense_backward_data_into: g/y shape mismatch"
    );
    assert_eq!(
        w.cols, g.cols,
        "dense_backward_data_into: column mismatch ({}x{}) * ({}x{})^T",
        g.rows, g.cols, w.rows, w.cols
    );
    assert_eq!(
        out.shape(),
        (g.rows, w.rows),
        "dense_backward_data_into: bad output shape"
    );
    out.fill(0.0);
    let n = w.rows;
    if n == 0 || g.rows == 0 {
        return;
    }
    let dz = DactSrc {
        g: g.d(),
        y: y.d(),
        act,
    };
    let (rows, k) = (g.rows, g.cols);
    let out = out.dm();
    match gemm_path(rows, n, k, SMALL_MAX_FLOPS_NT) {
        GemmPath::Scalar => {
            smallgemm::gemm_nt_scalar(dz, k, k, w.d(), w.cols, n, out);
        }
        GemmPath::Small => {
            smallgemm::gemm_nt_small(dz, k, k, w.d(), w.cols, n, out);
        }
        GemmPath::Blocked => {
            let pack_b = |k0, kb, j0, jb, bp: &mut _| pack_bt_panel(w, k0, kb, j0, jb, bp);
            gemm_blocked(dz, k, 1, k, n, pack_b, None, out);
        }
    }
}

/// Fused weight gradient: `out = Xᵀ · dZ` with `dZ` read through the
/// activation-derivative prologue — the counterpart of
/// `x.matmul_tn_into(g, out)` on a materialized `dZ`, dispatching through
/// the same scalar/small-tile/blocked ladder with identical chains.
///
/// # Panics
/// Panics unless `g` and `y` share a shape, `x.rows() == g.rows()`, and
/// `out` is `x.cols() x g.cols()`.
pub fn dense_backward_weights_into(
    x: &Matrix,
    g: &Matrix,
    y: &Matrix,
    act: EpiAct,
    out: &mut Matrix,
) {
    assert_eq!(
        g.shape(),
        y.shape(),
        "dense_backward_weights_into: g/y shape mismatch"
    );
    assert_eq!(
        x.rows, g.rows,
        "dense_backward_weights_into: row mismatch ({}x{})^T * ({}x{})",
        x.rows, x.cols, g.rows, g.cols
    );
    assert_eq!(
        out.shape(),
        (x.cols, g.cols),
        "dense_backward_weights_into: bad output shape"
    );
    out.fill(0.0);
    let n = g.cols;
    if n == 0 || x.cols == 0 {
        return;
    }
    let dz = DactSrc {
        g: g.d(),
        y: y.d(),
        act,
    };
    let rows = x.cols;
    let out = out.dm();
    match gemm_path(rows, n, x.rows, SMALL_MAX_FLOPS_TN) {
        GemmPath::Scalar => {
            smallgemm::gemm_tn_scalar(x.d(), x.cols, x.rows, dz, n, out);
        }
        GemmPath::Small => {
            smallgemm::gemm_tn_small(x.d(), x.cols, x.rows, dz, n, out);
        }
        GemmPath::Blocked => {
            // B panels are re-packed once per `MC` row-block of the output,
            // so the activation-derivative prologue re-runs `rows / MC`
            // times. Measured against materializing `dZ` once into scratch,
            // the fused re-pack still wins on training shapes: `dZ` is the
            // layer-width-sized operand (a few hundred KB at most), stays
            // cache-resident across re-packs, and skipping the materialize
            // pass beats re-reading it.
            let g_cols = g.cols;
            let pack_b =
                |k0, kb, j0, jb, bp: &mut _| pack_b_panel_src(dz, g_cols, k0, kb, j0, jb, bp);
            gemm_blocked(x.d(), 1, x.cols, x.rows, n, pack_b, None, out);
        }
    }
}

/// The pre-blocking scalar kernels, kept as the test oracle the blocked and
/// tiled implementations are checked against (the odd-shape and
/// degenerate-shape equivalence tests below).
///
/// Values are identical to the blocked path up to the sign of exact zeros:
/// these kernels skip zero multiplicands, which can turn a `-0.0` sum into
/// `0.0`. `PartialEq` on `f64` treats the two as equal, so `assert_eq!`
/// comparisons against the blocked kernels hold.
#[cfg(test)]
mod reference {
    use super::Matrix;

    /// Pre-blocking `a * b` (naive i-k-j with zero-skip).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "reference::matmul: inner mismatch");
        let n = b.cols;
        let mut out = Matrix::zeros(a.rows, n);
        if n == 0 {
            return out;
        }
        let bd = b.d();
        for (r, out_row) in out.dm().chunks_mut(n).enumerate() {
            for (k, &av) in a.row(r).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &bd[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Pre-blocking `a^T * b` (r-outer accumulation with zero-skip).
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "reference::matmul_tn: row mismatch");
        let n = b.cols;
        let mut out = Matrix::zeros(a.cols, n);
        let od = out.dm();
        for r in 0..a.rows {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut od[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Pre-blocking `a * b^T` (scalar dot products).
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols, "reference::matmul_nt: column mismatch");
        let n = b.rows;
        let mut out = Matrix::zeros(a.rows, n);
        if n == 0 {
            return out;
        }
        let od = out.dm();
        for (r, out_row) in od.chunks_mut(n).enumerate() {
            let a_row = a.row(r);
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&av, &bv) in a_row.iter().zip(b.row(j)) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.d()[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        let cols = self.cols;
        &mut self.dm()[r * cols + c]
    }
}

impl PartialEq for Matrix {
    /// Element-wise equality over the logical contents — a borrowed matrix
    /// equals the owned matrix holding the same values.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.d() == other.d()
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.map(|v| -v)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for c in 0..cols {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert_eq!(Matrix::eye(3)[(1, 1)], 1.0);
        assert_eq!(Matrix::eye(3)[(0, 1)], 0.0);
        assert_eq!(Matrix::ones(1, 2).sum(), 2.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.5 - 1.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r + c) as f64 * 0.25);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 - 5.0);
        let b = Matrix::from_fn(2, 4, |r, c| (r as f64 - c as f64) * 0.3);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for r in 0..3 {
            for c in 0..2 {
                assert!((fast[(r, c)] - slow[(r, c)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(a.matmul(&Matrix::eye(3)), a);
        assert_eq!(Matrix::eye(3).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_add_row() {
        let m = Matrix::zeros(2, 3);
        let b = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let out = m.add_row_broadcast(&b);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcast_mul_col() {
        let m = Matrix::ones(3, 2);
        let w = Matrix::col_vector(&[0.0, 1.0, 2.0]);
        let out = m.mul_col_broadcast(&w);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[1.0, 1.0]);
        assert_eq!(out.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.row_sums().as_slice(), &[3.0, 7.0]);
        assert_eq!(m.col_sums().as_slice(), &[4.0, 6.0]);
        assert_eq!(m.row_sq_norms(), vec![5.0, 25.0]);
        assert_eq!(m.sq_norm(), 30.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s[(r, 0)] < s[(r, 1)] && s[(r, 1)] < s[(r, 2)]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 1002.0]);
        let s = m.softmax_rows();
        let t = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]).softmax_rows();
        for c in 0..3 {
            assert!((s[(0, c)] - t[(0, c)]).abs() < 1e-12);
        }
        assert!(s.all_finite());
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let m = Matrix::from_vec(1, 4, vec![0.1, -2.0, 3.0, 0.5]);
        let ls = m.log_softmax_rows();
        let s = m.softmax_rows();
        for c in 0..4 {
            assert!((ls[(0, c)].exp() - s[(0, c)]).abs() < 1e-12);
        }
    }

    #[test]
    fn logsumexp_rows_matches_naive() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 1.0, -3.0, 2.0]);
        let lse = m.logsumexp_rows();
        assert!((lse[(0, 0)] - (1.0f64.exp() + 1.0).ln()).abs() < 1e-12);
        assert!((lse[(1, 0)] - ((-3.0f64).exp() + 2.0f64.exp()).ln()).abs() < 1e-12);
    }

    #[test]
    fn stack_and_take_rows() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let h = b.hstack(&b);
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[3.0, 4.0, 3.0, 4.0]);
        let t = v.take_rows(&[2, 0]);
        assert_eq!(t.row(0), &[5.0, 6.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn argmax_and_distances() {
        let m = Matrix::from_vec(2, 3, vec![0.0, 5.0, 2.0, -1.0, -2.0, -3.0]);
        assert_eq!(m.argmax_row(0), 1);
        assert_eq!(m.argmax_row(1), 0);
        assert_eq!(m.max_row(0), 5.0);
        assert_eq!(m.row_sq_dist(0, &[0.0, 5.0, 2.0]), 0.0);
        assert_eq!(m.row_sq_dist(0, &[1.0, 5.0, 2.0]), 1.0);
    }

    #[test]
    fn operators() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[10.0, 40.0]);
    }

    /// A deterministic dense test matrix with non-trivial values (including
    /// exact zeros so the reference kernels' zero-skip is exercised).
    fn probe(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let i = r * cols + c + seed;
            if i % 17 == 0 {
                0.0
            } else {
                ((i % 23) as f64 - 11.0) * 0.37 + (i % 5) as f64 * 0.011
            }
        })
    }

    /// Shapes chosen to hit every edge of the blocking scheme: degenerate
    /// single elements, below/above the naive-path threshold, non-multiples
    /// of MR/NR/KC/MC, and dimensions straddling exactly one block boundary.
    const ODD_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (17, 9, 23),
        (4, 300, 4),
        (65, 33, 129),
        (100, 1, 100),
        (1, 700, 1),
        (130, 257, 9),
        (96, 256, 64),
    ];

    #[test]
    fn blocked_matmul_matches_reference_on_odd_shapes() {
        for &(m, k, n) in ODD_SHAPES {
            let a = probe(m, k, 1);
            let b = probe(k, n, 2);
            assert_eq!(a.matmul(&b), reference::matmul(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_matmul_tn_matches_reference_on_odd_shapes() {
        for &(m, k, n) in ODD_SHAPES {
            // Contraction runs over the shared row count k.
            let a = probe(k, m, 3);
            let b = probe(k, n, 4);
            assert_eq!(
                a.matmul_tn(&b),
                reference::matmul_tn(&a, &b),
                "({k}x{m})^T * ({k}x{n})"
            );
        }
    }

    #[test]
    fn blocked_matmul_nt_matches_reference_on_odd_shapes() {
        for &(m, k, n) in ODD_SHAPES {
            let a = probe(m, k, 5);
            let b = probe(n, k, 6);
            assert_eq!(
                a.matmul_nt(&b),
                reference::matmul_nt(&a, &b),
                "({m}x{k}) * ({n}x{k})^T"
            );
        }
    }

    const ALL_EPI_ACTS: &[EpiAct] = &[
        EpiAct::None,
        EpiAct::Relu,
        EpiAct::LeakyRelu,
        EpiAct::Sigmoid,
        EpiAct::Tanh,
    ];

    #[test]
    fn fused_bias_act_matches_separate_passes_on_odd_shapes() {
        for &(m, k, n) in ODD_SHAPES {
            let x = probe(m, k, 12);
            let w = probe(k, n, 13);
            let bias = probe(1, n, 14);
            for &act in ALL_EPI_ACTS {
                let mut out = Matrix::full(m, n, f64::NAN);
                matmul_bias_act_rows_into(
                    x.as_slice(),
                    k,
                    &w,
                    bias.as_slice(),
                    act,
                    out.as_mut_slice(),
                );
                let want = x.matmul(&w).add_row_broadcast(&bias).map(|v| act.apply(v));
                assert_eq!(out, want, "{m}x{k}x{n} {act:?}");
            }
        }
    }

    #[test]
    fn fused_bias_act_is_row_block_invariant() {
        // Large enough that the whole problem takes the blocked path while
        // small row blocks fall below the naive threshold — partitioning must
        // not change a single bit even when the kernel changes underneath.
        let (m, k, n) = (130, 257, 9);
        let x = probe(m, k, 15);
        let w = probe(k, n, 16);
        let bias = probe(1, n, 17);
        let mut full = Matrix::full(m, n, f64::NAN);
        matmul_bias_act_rows_into(
            x.as_slice(),
            k,
            &w,
            bias.as_slice(),
            EpiAct::Sigmoid,
            full.as_mut_slice(),
        );
        for block in [1usize, 3, 64, 128] {
            let mut out = Matrix::full(m, n, f64::NAN);
            let mut r0 = 0;
            while r0 < m {
                let rb = (m - r0).min(block);
                matmul_bias_act_rows_into(
                    &x.as_slice()[r0 * k..(r0 + rb) * k],
                    k,
                    &w,
                    bias.as_slice(),
                    EpiAct::Sigmoid,
                    &mut out.as_mut_slice()[r0 * n..(r0 + rb) * n],
                );
                r0 += rb;
            }
            assert_eq!(out, full, "block={block}");
        }
    }

    /// Shapes that all fall below every `SMALL_MAX_FLOPS_*` ceiling, chosen to hit every
    /// edge of the small-GEMM dispatch: empty outputs, `k = 0` (pure zero
    /// store), single elements, sub-tile rows/cols, exact `SMR x SNR`
    /// multiples, and one-off edges on each side of a tile. Areas straddle
    /// the scalar/tiled cutoff so both small arms are exercised.
    const SMALL_SHAPES: &[(usize, usize, usize)] = &[
        (0, 3, 4),
        (2, 0, 9),
        (1, 1, 1),
        (3, 4, 5),
        (4, 6, 8),
        (5, 7, 9),
        (8, 16, 24),
        (31, 11, 13),
        (12, 2, 30),
        (1, 50, 40),
        (40, 50, 1),
    ];

    #[test]
    fn small_gemm_nn_matches_reference_on_degenerate_shapes() {
        for &(m, k, n) in SMALL_SHAPES {
            let a = probe(m, k, 31);
            let b = probe(k, n, 32);
            assert_eq!(a.matmul(&b), reference::matmul(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn small_gemm_tn_matches_reference_on_degenerate_shapes() {
        for &(m, k, n) in SMALL_SHAPES {
            let a = probe(k, m, 33);
            let b = probe(k, n, 34);
            assert_eq!(
                a.matmul_tn(&b),
                reference::matmul_tn(&a, &b),
                "({k}x{m})^T * ({k}x{n})"
            );
        }
    }

    #[test]
    fn small_gemm_nt_matches_reference_on_degenerate_shapes() {
        for &(m, k, n) in SMALL_SHAPES {
            let a = probe(m, k, 35);
            let b = probe(n, k, 36);
            assert_eq!(
                a.matmul_nt(&b),
                reference::matmul_nt(&a, &b),
                "({m}x{k}) * ({n}x{k})^T"
            );
        }
    }

    #[test]
    fn dense_backward_kernels_match_materialized_dz() {
        // Every fused backward kernel must equal "materialize dZ = act'(y)
        // applied to g, then run the plain GEMM / column sum" bit-for-bit,
        // across shapes hitting the scalar, tiled-small, and blocked arms.
        for &(m, k, n) in ODD_SHAPES.iter().chain(SMALL_SHAPES) {
            let x = probe(m, k, 41);
            let w = probe(k, n, 42);
            let bias = probe(1, n, 43);
            let g = probe(m, n, 44);
            for &act in ALL_EPI_ACTS {
                let mut y = Matrix::full(m, n, f64::NAN);
                matmul_bias_act_rows_into(
                    x.as_slice(),
                    k,
                    &w,
                    bias.as_slice(),
                    act,
                    y.as_mut_slice(),
                );
                let dz = g.zip_map(&y, |gv, yv| act.grad_from_output(gv, yv));

                let mut db = Matrix::full(1, n, f64::NAN);
                dense_backward_bias_into(&g, &y, act, &mut db);
                let mut want_db = Matrix::zeros(1, n);
                dz.col_sums_into(&mut want_db);
                assert_eq!(db, want_db, "bias {m}x{k}x{n} {act:?}");

                let mut dx = Matrix::full(m, k, f64::NAN);
                dense_backward_data_into(&g, &y, act, &w, &mut dx);
                assert_eq!(dx, dz.matmul_nt(&w), "data {m}x{k}x{n} {act:?}");

                let mut dw = Matrix::full(k, n, f64::NAN);
                dense_backward_weights_into(&x, &g, &y, act, &mut dw);
                assert_eq!(dw, x.matmul_tn(&dz), "weights {m}x{k}x{n} {act:?}");
            }
        }
    }

    #[test]
    fn dense_backward_kernels_match_on_blocked_scale_shapes() {
        // Above every tiled ceiling (`aᵀ·b`'s is the highest) the fused
        // kernels route through the packed blocked driver (dact on the pack
        // read path) — still bit-equal to the materialized two-pass form.
        let (m, k, n) = (112, 96, 100);
        assert!(m * k * n > SMALL_MAX_FLOPS_TN);
        let x = probe(m, k, 51);
        let w = probe(k, n, 52);
        let bias = probe(1, n, 53);
        let g = probe(m, n, 54);
        for &act in ALL_EPI_ACTS {
            let mut y = Matrix::full(m, n, f64::NAN);
            matmul_bias_act_rows_into(x.as_slice(), k, &w, bias.as_slice(), act, y.as_mut_slice());
            let dz = g.zip_map(&y, |gv, yv| act.grad_from_output(gv, yv));

            let mut dx = Matrix::full(m, k, f64::NAN);
            dense_backward_data_into(&g, &y, act, &w, &mut dx);
            assert_eq!(dx, dz.matmul_nt(&w), "data {act:?}");

            let mut dw = Matrix::full(k, n, f64::NAN);
            dense_backward_weights_into(&x, &g, &y, act, &mut dw);
            assert_eq!(dw, x.matmul_tn(&dz), "weights {act:?}");
        }
    }

    #[test]
    fn matmul_into_family_matches_allocating_kernels() {
        let a = probe(33, 17, 7);
        let b = probe(17, 29, 8);
        // Dirty output buffers must be fully overwritten.
        let mut out = Matrix::full(33, 29, f64::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let c = probe(33, 29, 9);
        let mut out_tn = Matrix::full(17, 29, f64::NAN);
        let at = probe(33, 17, 10);
        at.matmul_tn_into(&c, &mut out_tn);
        assert_eq!(out_tn, at.matmul_tn(&c));

        let d = probe(21, 17, 11);
        let mut out_nt = Matrix::full(33, 21, f64::NAN);
        a.matmul_nt_into(&d, &mut out_nt);
        assert_eq!(out_nt, a.matmul_nt(&d));
    }

    #[test]
    fn into_helpers_match_allocating_counterparts() {
        let a = probe(7, 5, 1);
        let b = probe(7, 5, 2);
        let mut out = Matrix::full(7, 5, f64::NAN);

        a.map_into(|v| v * 2.0 - 1.0, &mut out);
        assert_eq!(out, a.map(|v| v * 2.0 - 1.0));

        a.zip_map_into(&b, |x, y| x * y + 1.0, &mut out);
        assert_eq!(out, a.zip_map(&b, |x, y| x * y + 1.0));

        let mut c = a.clone();
        c.zip_map_inplace(&b, |x, y| x - 2.0 * y);
        assert_eq!(c, a.zip_map(&b, |x, y| x - 2.0 * y));

        let row = probe(1, 5, 3);
        a.add_row_broadcast_into(&row, &mut out);
        assert_eq!(out, a.add_row_broadcast(&row));

        let col = probe(7, 1, 4);
        a.mul_col_broadcast_into(&col, &mut out);
        assert_eq!(out, a.mul_col_broadcast(&col));
        let mut d = a.clone();
        d.mul_col_broadcast_inplace(&col);
        assert_eq!(d, a.mul_col_broadcast(&col));

        let mut tr = Matrix::full(5, 7, f64::NAN);
        a.transpose_into(&mut tr);
        assert_eq!(tr, a.transpose());

        let mut rs = Matrix::full(7, 1, f64::NAN);
        a.row_sums_into(&mut rs);
        assert_eq!(rs, a.row_sums());

        let mut cs = Matrix::full(1, 5, f64::NAN);
        a.col_sums_into(&mut cs);
        assert_eq!(cs, a.col_sums());

        let mut sm = a.clone();
        sm.softmax_rows_inplace();
        assert_eq!(sm, a.softmax_rows());
        let mut lsm = a.clone();
        lsm.log_softmax_rows_inplace();
        assert_eq!(lsm, a.log_softmax_rows());

        let mut taken = Matrix::full(3, 5, f64::NAN);
        a.take_rows_into(&[6, 0, 3], &mut taken);
        assert_eq!(taken, a.take_rows(&[6, 0, 3]));

        let mut copied = Matrix::full(7, 5, f64::NAN);
        copied.copy_from(&a);
        assert_eq!(copied, a);
        copied.fill(2.5);
        assert_eq!(copied, Matrix::full(7, 5, 2.5));
    }

    #[test]
    fn shared_storage_reads_like_owned() {
        let values: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let owned = Matrix::from_vec(3, 4, values.clone());
        let buf = SharedBuffer::from_vec(values);
        let borrowed = Matrix::from_shared(3, 4, buf.clone(), 0);
        assert!(borrowed.is_borrowed());
        assert_eq!(borrowed.owned_bytes(), 0);
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed[(2, 3)], 11.0);
        assert_eq!(borrowed.row(1), owned.row(1));
        assert_eq!(borrowed.as_slice(), owned.as_slice());
        assert_eq!(borrowed.transpose(), owned.transpose());
        let rhs = Matrix::from_vec(4, 2, (0..8).map(|i| 0.5 * i as f64).collect());
        assert_eq!(borrowed.matmul(&rhs), owned.matmul(&rhs));
    }

    #[test]
    fn shared_storage_windows_are_disjoint_views() {
        let buf = SharedBuffer::from_vec((0..10).map(|i| i as f64).collect());
        let a = Matrix::from_shared(2, 2, buf.clone(), 0);
        let b = Matrix::from_shared(2, 3, buf.clone(), 4);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.as_slice(), &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        // Clones of borrowed matrices share the buffer, not copy it.
        let c = b.clone();
        assert!(c.is_borrowed());
        assert!(buf.handle_count() >= 4);
    }

    #[test]
    fn mutation_promotes_to_owned_without_touching_the_buffer() {
        let buf = SharedBuffer::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let mut m = Matrix::from_shared(2, 2, buf.clone(), 0);
        m[(0, 0)] = 9.0;
        assert!(!m.is_borrowed());
        assert!(m.owned_bytes() >= 4 * std::mem::size_of::<f64>());
        assert_eq!(m.as_slice(), &[9.0, 2.0, 3.0, 4.0]);
        // The shared buffer is untouched; other views still see 1.0.
        assert_eq!(buf.as_f64s(), &[1.0, 2.0, 3.0, 4.0]);
        let sibling = Matrix::from_shared(2, 2, buf, 0);
        assert_eq!(sibling[(0, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "from_shared")]
    fn from_shared_rejects_out_of_bounds_window() {
        let buf = SharedBuffer::from_vec(vec![0.0; 5]);
        let _ = Matrix::from_shared(2, 3, buf, 0);
    }

    #[test]
    #[should_panic(expected = "from_shared")]
    fn from_shared_rejects_overflowing_window() {
        let buf = SharedBuffer::from_vec(vec![0.0; 5]);
        let _ = Matrix::from_shared(1, 2, buf, usize::MAX - 1);
    }
}
