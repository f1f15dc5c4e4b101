#ifndef INVARNETX_XMLSTORE_STORES_H_
#define INVARNETX_XMLSTORE_STORES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace invarnetx::xmlstore {

// Persisted form of a performance model: the paper's five-tuple
// (p, d, q, ip, type) plus the fitted coefficients needed to reuse it.
struct ArimaModelRecord {
  int p = 0;
  int d = 0;
  int q = 0;
  std::string ip;        // Hadoop node address
  std::string workload;  // workload type
  std::vector<double> ar;
  std::vector<double> ma;
  double intercept = 0.0;
  double sigma2 = 0.0;
  // Calibrated residual statistics for the three threshold rules.
  double residual_min = 0.0;
  double residual_max = 0.0;
  double residual_p95 = 0.0;
};

// One likely invariant: the pair of metric indices and the stored MIC value
// I(m, n) (the max over the N training runs, per Algorithm 1).
struct InvariantEntry {
  int metric_a = 0;
  int metric_b = 0;
  double value = 0.0;
};

// Persisted form of the paper's three-tuple (I, ip, type).
struct InvariantSetRecord {
  std::string ip;
  std::string workload;
  int num_metrics = 0;
  std::vector<InvariantEntry> entries;
};

// Persisted form of the paper's four-tuple
// (binary tuple, problem name, ip, workload type).
struct SignatureRecord {
  std::string problem;
  std::string ip;
  std::string workload;
  std::vector<uint8_t> bits;  // one per invariant, 1 = violated
};

// Numeric attribute parsers shared by every store file: Corruption when the
// text does not start with a number.
Result<double> StrToDouble(const std::string& s);
Result<int> StrToInt(const std::string& s);

Status SaveArimaModels(const std::string& path,
                       const std::vector<ArimaModelRecord>& records);
Result<std::vector<ArimaModelRecord>> LoadArimaModels(const std::string& path);

Status SaveInvariantSets(const std::string& path,
                         const std::vector<InvariantSetRecord>& records);
Result<std::vector<InvariantSetRecord>> LoadInvariantSets(
    const std::string& path);

Status SaveSignatures(const std::string& path,
                      const std::vector<SignatureRecord>& records);
Result<std::vector<SignatureRecord>> LoadSignatures(const std::string& path);

}  // namespace invarnetx::xmlstore

#endif  // INVARNETX_XMLSTORE_STORES_H_
