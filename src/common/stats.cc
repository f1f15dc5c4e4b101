#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/matrix.h"

namespace invarnetx {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

Result<double> Percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return Status::InvalidArgument("Percentile: empty series");
  if (p < 0.0 || p > 100.0) {
    return Status::InvalidArgument("Percentile: p outside [0,100]");
  }
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("PearsonCorrelation: length mismatch");
  }
  if (x.size() < 2) {
    return Status::InvalidArgument("PearsonCorrelation: need >= 2 points");
  }
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> AverageRanks(const std::vector<double>& v) {
  const size_t n = v.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&v](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
    // Positions i..j (0-based) share the average 1-based rank.
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

Result<double> SpearmanCorrelation(const std::vector<double>& x,
                                   const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("SpearmanCorrelation: length mismatch");
  }
  if (x.size() < 2) {
    return Status::InvalidArgument("SpearmanCorrelation: need >= 2 points");
  }
  return PearsonCorrelation(AverageRanks(x), AverageRanks(y));
}

Result<std::vector<double>> PolyFit(const std::vector<double>& x,
                                    const std::vector<double>& y, int degree) {
  if (degree < 0) return Status::InvalidArgument("PolyFit: negative degree");
  if (x.size() != y.size()) {
    return Status::InvalidArgument("PolyFit: length mismatch");
  }
  const size_t terms = static_cast<size_t>(degree) + 1;
  if (x.size() < terms) {
    return Status::InvalidArgument("PolyFit: not enough points for degree");
  }
  Matrix design(x.size(), terms);
  for (size_t r = 0; r < x.size(); ++r) {
    double pow_x = 1.0;
    for (size_t c = 0; c < terms; ++c) {
      design(r, c) = pow_x;
      pow_x *= x[r];
    }
  }
  return LeastSquares(design, y);
}

double PolyEval(const std::vector<double>& coeffs, double x) {
  double acc = 0.0;
  for (size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

Result<std::vector<double>> NormalizeToMin(const std::vector<double>& v) {
  if (v.empty()) return Status::InvalidArgument("NormalizeToMin: empty");
  const double lo = Min(v);
  if (lo <= 0.0) {
    return Status::InvalidArgument("NormalizeToMin: min must be positive");
  }
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = v[i] / lo;
  return out;
}

Result<ProportionInterval> WilsonInterval(int successes, int trials,
                                          double z) {
  if (trials <= 0) return Status::InvalidArgument("WilsonInterval: trials<=0");
  if (successes < 0 || successes > trials) {
    return Status::InvalidArgument("WilsonInterval: successes out of range");
  }
  const double n = trials;
  const double p = successes / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  ProportionInterval out;
  out.lo = std::max(0.0, center - margin);
  out.hi = std::min(1.0, center + margin);
  return out;
}

}  // namespace invarnetx
