#include "common/matrix.h"

#include <cmath>
#include <cstdlib>

namespace invarnetx {

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  Matrix out(rows_, other.cols());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols(); ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVec(const std::vector<double>& v) const {
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Result<std::vector<double>> SolveLinearSystem(Matrix a, std::vector<double> b) {
  const size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: shape mismatch");
  }
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude entry in this column.
    size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::NumericalError("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = col; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double ridge) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("LeastSquares: X rows != y length");
  }
  if (x.rows() < x.cols()) {
    return Status::InvalidArgument("LeastSquares: underdetermined system");
  }
  const Matrix xt = x.Transposed();
  Matrix xtx = xt.Multiply(x);
  // Scale the ridge by the mean diagonal so regularization strength is
  // invariant to the overall scale of the regressors.
  double diag_mean = 0.0;
  for (size_t i = 0; i < xtx.rows(); ++i) diag_mean += xtx(i, i);
  diag_mean = xtx.rows() > 0 ? diag_mean / static_cast<double>(xtx.rows()) : 0;
  const double lambda = ridge * (diag_mean > 0 ? diag_mean : 1.0);
  for (size_t i = 0; i < xtx.rows(); ++i) xtx(i, i) += lambda;
  return SolveLinearSystem(std::move(xtx), xt.MultiplyVec(y));
}

}  // namespace invarnetx
