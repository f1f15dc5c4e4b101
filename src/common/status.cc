#include "common/status.h"

namespace invarnetx {
namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNumericalError:
      return "NumericalError";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace invarnetx
