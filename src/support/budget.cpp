#include "support/budget.hpp"

#include <sstream>

namespace pp::support {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kSetup: return "setup";
    case Stage::kVerify: return "verify";
    case Stage::kControl: return "control";
    case Stage::kDdg: return "ddg";
    case Stage::kFold: return "fold";
    case Stage::kFeedback: return "feedback";
  }
  return "?";
}

std::string Diagnostic::str() const {
  std::ostringstream os;
  os << "[" << severity_name(severity) << "] " << stage_name(stage) << ": "
     << reason;
  if (statement >= 0) os << " (statement S" << statement << ")";
  if (!region.empty()) os << " (region " << region << ")";
  return os.str();
}

std::size_t DiagnosticLog::count(Severity sev) const {
  std::size_t n = 0;
  for (const auto& d : records_)
    if (d.severity == sev) ++n;
  return n;
}

std::string DiagnosticLog::render() const {
  std::string out;
  for (const auto& d : records_) {
    out += d.str();
    out += '\n';
  }
  return out;
}

}  // namespace pp::support
