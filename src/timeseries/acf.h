#ifndef INVARNETX_TIMESERIES_ACF_H_
#define INVARNETX_TIMESERIES_ACF_H_

#include <vector>

#include "common/status.h"

namespace invarnetx::ts {

// Sample autocorrelation function at lags 0..max_lag (acf[0] == 1).
// Zero-variance series return all-zeros beyond lag 0.
Result<std::vector<double>> Acf(const std::vector<double>& series,
                                int max_lag);

}  // namespace invarnetx::ts

#endif  // INVARNETX_TIMESERIES_ACF_H_
