#include "core/monitor.h"

namespace invarnetx::core {

Status OnlineMonitor::StartJob(const OperationContext& context) {
  Result<std::shared_ptr<const ContextModel>> model =
      pipeline_->GetContext(context);
  if (!model.ok()) return model.status();
  context_ = context;
  // Pin the epoch snapshot: the detector copies its ARIMA coefficients and
  // threshold, and Diagnose infers against it across retrains.
  model_ = std::move(model.value());
  detector_.emplace(model_->perf,
                    pipeline_->config().threshold_rule,
                    pipeline_->config().consecutive_required);
  window_.Clear();
  alarm_ = false;
  first_alarm_tick_ = -1;
  return Status::Ok();
}

Result<OnlineMonitor::TickVerdict> OnlineMonitor::Observe(
    double cpi, const std::array<double, telemetry::kNumMetrics>& metrics) {
  if (!detector_.has_value()) {
    return Status::FailedPrecondition("Observe: no active job");
  }
  window_.Push(cpi, metrics);
  TickVerdict verdict;
  verdict.alarm = detector_->Observe(cpi);
  verdict.residual = detector_->last_residual();
  if (verdict.alarm && !alarm_) {
    // Latched in absolute job ticks, so the report still names the right
    // tick after the window has evicted it.
    first_alarm_tick_ = static_cast<int>(window_.total_pushed()) - 1;
  }
  alarm_ = alarm_ || verdict.alarm;
  return verdict;
}

Result<DiagnosisReport> OnlineMonitor::Diagnose() const {
  if (!detector_.has_value()) {
    return Status::FailedPrecondition("Diagnose: no active job");
  }
  if (window_.empty()) {
    return Status::FailedPrecondition("Diagnose: nothing observed yet");
  }
  Result<DiagnosisReport> report = pipeline_->InferCauseForModel(
      *model_, window_.Materialize(context_.node_ip));
  if (!report.ok()) return report.status();
  report.value().anomaly_detected = alarm_;
  report.value().first_alarm_tick = first_alarm_tick_;
  return report;
}

}  // namespace invarnetx::core
