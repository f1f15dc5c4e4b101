#ifndef INVARNETX_COMMON_STATS_H_
#define INVARNETX_COMMON_STATS_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace invarnetx {

// Descriptive statistics over std::vector<double> series. All functions are
// pure; functions that require non-empty (or same-length) inputs return a
// Result when the requirement could plausibly fail at runtime.

double Mean(const std::vector<double>& v);

// Population variance (divide by n). Returns 0 for series shorter than 2.
double Variance(const std::vector<double>& v);

double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

// Linear-interpolated percentile, p in [0, 100]. Copies & sorts internally.
Result<double> Percentile(const std::vector<double>& v, double p);

// Pearson linear correlation coefficient. Returns 0 when either series has
// zero variance (the association is undefined; 0 is the conservative value
// for an invariant-mining context).
Result<double> PearsonCorrelation(const std::vector<double>& x,
                                  const std::vector<double>& y);

// Spearman rank correlation (Pearson over average ranks, tie-aware).
Result<double> SpearmanCorrelation(const std::vector<double>& x,
                                   const std::vector<double>& y);

// Least-squares polynomial fit of the given degree; returns coefficients
// lowest-order first: y ~ c[0] + c[1] x + ... + c[degree] x^degree.
Result<std::vector<double>> PolyFit(const std::vector<double>& x,
                                    const std::vector<double>& y, int degree);

// Evaluates a PolyFit coefficient vector at x.
double PolyEval(const std::vector<double>& coeffs, double x);

// Divides every element by the minimum of the series (the normalization the
// paper applies in Fig. 4). Requires min > 0.
Result<std::vector<double>> NormalizeToMin(const std::vector<double>& v);

// Average ranks (1-based) with ties sharing the mean rank.
std::vector<double> AverageRanks(const std::vector<double>& v);

// Wilson score interval for a binomial proportion (successes of trials) at
// ~95% confidence (z = 1.96). Returns {lo, hi}; trials must be > 0.
struct ProportionInterval {
  double lo = 0.0;
  double hi = 1.0;
};
Result<ProportionInterval> WilsonInterval(int successes, int trials,
                                          double z = 1.96);

}  // namespace invarnetx

#endif  // INVARNETX_COMMON_STATS_H_
