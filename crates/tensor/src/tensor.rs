//! The dense row-major [`Tensor`] type.
//!
//! Elementwise ops (`map`, `zip_map`, `axpy`, `scale`, …) fan out to the
//! process-wide worker pool ([`crate::pool`]) above a size threshold. Each
//! element is computed independently, so parallel results are bitwise
//! identical to sequential ones.

use crate::matmul::parallel_under_default;
use crate::{pool, workspace, Result, TensorError};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A dense, row-major, f32 tensor of arbitrary dimensionality.
///
/// The element buffer is a flat `Vec<f32>`; strides are implicit (row-major).
/// All shape-changing operations either copy or, for [`Tensor::reshape`],
/// reuse the buffer.
///
/// Storage comes from the per-thread scratch arenas in
/// [`crate::workspace`]: constructors take recycled buffers when one of a
/// suitable size is free, and `Drop` returns the buffer, so repeated
/// allocation patterns (a steady-state training step) stop touching the
/// heap entirely.
///
/// # Example
///
/// ```
/// use puffer_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = a.map(|x| x * 2.0);
/// assert_eq!(b.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
/// ```
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { data: workspace::take_copied(&self.data), shape: self.shape.clone() }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        workspace::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// # use puffer_tensor::Tensor;
    /// let t = Tensor::zeros(&[3, 4]);
    /// assert_eq!(t.len(), 12);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        let mut data = workspace::take_zeroed(len);
        // Bit-compare against +0.0 so `full(shape, -0.0)` still writes the
        // sign bit instead of keeping the arena's +0.0 fill.
        if value.to_bits() != 0 {
            data.fill(value);
        }
        Tensor { data, shape: shape.to_vec() }
    }

    /// A tensor of the given shape for a kernel that stores every element
    /// before anything reads one ([`workspace::take_unfilled_vec`]: stale
    /// values in release builds, NaN in debug builds).
    pub(crate) fn unfilled(shape: &[usize]) -> Self {
        let data = workspace::take_unfilled_vec(shape.iter().product());
        Tensor { data, shape: shape.to_vec() }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: vec![data.len()],
                op: "from_vec",
            });
        }
        Ok(Tensor { data, shape: shape.to_vec() })
    }

    /// Creates a 2-D identity-like tensor (`n x n` with ones on the diagonal).
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Number of rows; valid for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-dimensional.
    pub fn rows(&self) -> usize {
        assert_eq!(self.ndim(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns; valid for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-dimensional.
    pub fn cols(&self) -> usize {
        assert_eq!(self.ndim(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Immutable view of the flat element buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat element buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element reference at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// Flat offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any coordinate exceeds
    /// the corresponding dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() || index.iter().zip(&self.shape).any(|(i, s)| i >= s) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        let mut off = 0;
        for (i, s) in index.iter().zip(&self.shape) {
            off = off * s + i;
        }
        Ok(off)
    }

    /// Reshapes the tensor in place semantics (returns a new tensor sharing
    /// the element count).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: self.shape.clone(),
                op: "reshape",
            });
        }
        Ok(Tensor { data: workspace::take_copied(&self.data), shape: shape.to_vec() })
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-dimensional.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose() requires a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Applies `f` element-wise, returning a new tensor.
    ///
    /// Fans out to the worker pool for large tensors (hence the `Sync`
    /// bound); results are bitwise identical to the sequential loop.
    pub fn map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Tensor {
        let len = self.data.len();
        let data = if parallel_under_default(len) {
            let mut data = workspace::take_zeroed(len);
            let src = &self.data;
            pool::run_chunked(&mut data, 1, |i0, chunk| {
                let end = i0 + chunk.len();
                for (d, s) in chunk.iter_mut().zip(&src[i0..end]) {
                    *d = f(*s);
                }
            });
            data
        } else {
            let mut data = workspace::take_with_capacity(len);
            data.extend(self.data.iter().map(|&x| f(x)));
            data
        };
        Tensor { data, shape: self.shape.clone() }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        if parallel_under_default(self.data.len()) {
            pool::run_chunked(&mut self.data, 1, |_, chunk| {
                for x in chunk {
                    *x = f(*x);
                }
            });
        } else {
            for x in &mut self.data {
                *x = f(*x);
            }
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32 + Sync>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        self.check_same_shape(other, "zip_map")?;
        let len = self.data.len();
        let data = if parallel_under_default(len) {
            let mut data = workspace::take_zeroed(len);
            let (lhs, rhs) = (&self.data, &other.data);
            pool::run_chunked(&mut data, 1, |i0, chunk| {
                let end = i0 + chunk.len();
                for ((d, a), b) in chunk.iter_mut().zip(&lhs[i0..end]).zip(&rhs[i0..end]) {
                    *d = f(*a, *b);
                }
            });
            data
        } else {
            let mut data = workspace::take_with_capacity(len);
            data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
            data
        };
        Ok(Tensor { data, shape: self.shape.clone() })
    }

    /// `self += alpha * other` (axpy), the workhorse of SGD updates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        if parallel_under_default(self.data.len()) {
            let src = &other.data;
            pool::run_chunked(&mut self.data, 1, |i0, chunk| {
                let end = i0 + chunk.len();
                for (a, b) in chunk.iter_mut().zip(&src[i0..end]) {
                    *a += alpha * b;
                }
            });
        } else {
            for (a, b) in self.data.iter_mut().zip(&other.data) {
                *a += alpha * b;
            }
        }
        Ok(())
    }

    /// Scales every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        if parallel_under_default(self.data.len()) {
            pool::run_chunked(&mut self.data, 1, |_, chunk| {
                for x in chunk {
                    *x *= alpha;
                }
            });
        } else {
            for x in &mut self.data {
                *x *= alpha;
            }
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
                op: "dot",
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Extracts row `i` of a 2-D tensor as a 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        let c = self.cols();
        Tensor { data: workspace::take_copied(&self.data[i * c..(i + 1) * c]), shape: vec![c] }
    }

    /// Immutable slice of row `i` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row_slice(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable slice of row `i` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds.
    pub fn row_slice_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
                op,
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    /// An empty 0-element 1-D tensor.
    fn default() -> Self {
        Tensor { data: Vec::new(), shape: vec![0] }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, …, {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )
        }
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`Tensor::zip_map`] for a fallible add.
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b).expect("tensor add: shape mismatch")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b).expect("tensor sub: shape mismatch")
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// # Panics
    ///
    /// Panics if shapes differ; use [`Tensor::axpy`] for a fallible add.
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs).expect("tensor add_assign: shape mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));
        let f = Tensor::full(&[2, 2], 7.5);
        assert!(f.as_slice().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at2(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.shape(), &[2, 6]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at2(2, 1), t.at2(1, 2));
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn offset_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(t.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(t.offset(&[0, 1, 2]).unwrap(), 6);
        assert!(t.offset(&[2, 0, 0]).is_err());
        assert!(t.offset(&[0, 0]).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
        let bad = Tensor::ones(&[4]);
        assert!(a.axpy(1.0, &bad).is_err());
    }

    #[test]
    fn dot_and_hadamard() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn operators() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn rows_and_row_slices() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(t.row(1).as_slice(), &[3.0, 4.0, 5.0]);
        assert_eq!(t.row_slice(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
    }
}
