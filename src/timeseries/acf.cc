#include "timeseries/acf.h"

#include <cstddef>

#include "common/stats.h"

namespace invarnetx::ts {

Result<std::vector<double>> Acf(const std::vector<double>& series,
                                int max_lag) {
  if (max_lag < 0) return Status::InvalidArgument("Acf: max_lag < 0");
  const size_t n = series.size();
  if (n <= static_cast<size_t>(max_lag)) {
    return Status::InvalidArgument("Acf: series shorter than max_lag");
  }
  const double mean = Mean(series);
  double denom = 0.0;
  for (double x : series) denom += (x - mean) * (x - mean);
  std::vector<double> acf(static_cast<size_t>(max_lag) + 1, 0.0);
  acf[0] = 1.0;
  if (denom <= 0.0) return acf;
  for (int lag = 1; lag <= max_lag; ++lag) {
    double acc = 0.0;
    for (size_t t = static_cast<size_t>(lag); t < n; ++t) {
      acc += (series[t] - mean) * (series[t - static_cast<size_t>(lag)] - mean);
    }
    acf[static_cast<size_t>(lag)] = acc / denom;
  }
  return acf;
}

}  // namespace invarnetx::ts
