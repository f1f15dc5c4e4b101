#ifndef INVARNETX_COMMON_MATRIX_H_
#define INVARNETX_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace invarnetx {

// Dense row-major matrix of doubles. Small and dependency-free; sized for
// the regression problems in this library (tens of columns), not for BLAS
// workloads.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  Matrix Transposed() const;

  // this * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  // this * v for a column vector v of length cols().
  std::vector<double> MultiplyVec(const std::vector<double>& v) const;

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// Solves A x = b in-place via Gaussian elimination with partial pivoting.
// A must be square with A.rows() == b.size(). Fails with kNumericalError
// when A is (numerically) singular.
Result<std::vector<double>> SolveLinearSystem(Matrix a, std::vector<double> b);

// Ordinary least squares: finds beta minimizing ||X beta - y||^2 by solving
// the normal equations (X'X + ridge*I) beta = X'y. A tiny ridge term
// (default 1e-9 relative to the diagonal) keeps near-collinear designs
// solvable, which regression on simulated metrics routinely produces.
Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double ridge = 1e-9);

}  // namespace invarnetx

#endif  // INVARNETX_COMMON_MATRIX_H_
