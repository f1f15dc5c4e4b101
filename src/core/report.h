#ifndef INVARNETX_CORE_REPORT_H_
#define INVARNETX_CORE_REPORT_H_

#include <string>

#include "core/cluster_diagnosis.h"
#include "core/pipeline.h"

namespace invarnetx::core {

// Renders an operator-facing incident report (Markdown) for one diagnosis:
// detection summary, ranked causes with confidence, the violated invariant
// pairs grouped by metric family, and known signature conflicts involving
// the top cause (so the operator knows which alternatives to double-check).
//
// `model` must be the context model the diagnosis ran against (for the
// invariant pair names and the conflict scan); `run_ticks` sizes the
// timeline line (pass 0 if unknown).
std::string RenderIncidentReport(const OperationContext& context,
                                 const DiagnosisReport& report,
                                 const ContextModel& model, int run_ticks);

// Renders a cluster-scan summary: one line per node plus the culprit's
// full incident report.
std::string RenderClusterReport(const InvarNetX& pipeline,
                                const ClusterDiagnosis& scan,
                                workload::WorkloadType workload,
                                int run_ticks);

}  // namespace invarnetx::core

#endif  // INVARNETX_CORE_REPORT_H_
