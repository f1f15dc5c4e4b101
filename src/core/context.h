#ifndef INVARNETX_CORE_CONTEXT_H_
#define INVARNETX_CORE_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <string>
#include <tuple>

#include "workload/spec.h"

namespace invarnetx::core {

// The paper's "operation context": performance models, invariants and
// signatures are built per workload type per node, which is what lets
// InvarNet-X adapt to heterogeneous hardware and varying workloads.
struct OperationContext {
  workload::WorkloadType workload = workload::WorkloadType::kWordCount;
  std::string node_ip;

  std::string ToString() const {
    return workload::WorkloadName(workload) + "@" + node_ip;
  }

  friend bool operator==(const OperationContext& a,
                         const OperationContext& b) {
    return a.workload == b.workload && a.node_ip == b.node_ip;
  }
  friend bool operator<(const OperationContext& a, const OperationContext& b) {
    return std::tie(a.workload, a.node_ip) < std::tie(b.workload, b.node_ip);
  }
};

// Hash for unordered containers keyed by OperationContext.
struct OperationContextHash {
  size_t operator()(const OperationContext& context) const {
    return std::hash<std::string>()(context.node_ip) * 31u +
           static_cast<size_t>(context.workload);
  }
};

}  // namespace invarnetx::core

#endif  // INVARNETX_CORE_CONTEXT_H_
