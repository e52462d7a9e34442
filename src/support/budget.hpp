// Run budgets and structured diagnostics — the degrade-don't-die substrate
// (paper §5 extends over-approximation to folding only; the pipeline
// extends it to every stage). A RunBudget caps the resources one profiling
// run may consume (wall clock, VM steps, shadow pages, interned coordinate
// words, folder pieces); exceeding a cap never aborts the run — the owning
// stage records a Diagnostic and degrades to a certified over-approximation
// or a truncated trace. The DiagnosticLog is the run's flight recorder:
// every degradation, trap and validator rejection lands here as a
// structured record that the feedback report renders deterministically.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "support/int_math.hpp"

namespace pp::support {

/// Resource caps for one profiling run. 0 = unlimited. Checked at stage
/// boundaries by the pipeline and inside the stage-2 hot path by the DDG
/// builder; exceeding a cap degrades (it never throws).
struct RunBudget {
  u64 wall_ms = 0;                 ///< wall-clock for the whole run
  u64 vm_steps = 0;                ///< retired instructions per VM replay
  std::size_t shadow_pages = 0;    ///< live shadow-memory pages (32 KiB each)
  std::size_t coord_pool_words = 0;  ///< interned iteration-vector words
  std::size_t folder_pieces = 0;   ///< per-stream folded pieces (fold cap)

  /// Start the wall clock. Checks before arm() never report exhaustion.
  void arm() {
    start_ = std::chrono::steady_clock::now();
    armed_ = true;
  }
  bool armed() const { return armed_; }

  u64 elapsed_ms() const {
    if (!armed()) return 0;
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - start_)
                                .count());
  }

  bool wall_exceeded() const {
    return wall_ms != 0 && armed() && elapsed_ms() >= wall_ms;
  }
  bool steps_exceeded(u64 steps) const {
    return vm_steps != 0 && steps > vm_steps;
  }
  bool shadow_exceeded(std::size_t pages) const {
    return shadow_pages != 0 && pages > shadow_pages;
  }
  bool pool_exceeded(std::size_t words) const {
    return coord_pool_words != 0 && words > coord_pool_words;
  }

  /// Account `n` folded pieces; returns the post-charge total.
  std::size_t charge_pieces(std::size_t n) { return pieces_charged_ += n; }
  std::size_t pieces_charged() const { return pieces_charged_; }
  bool pieces_exceeded(std::size_t used) const {
    return folder_pieces != 0 && used > folder_pieces;
  }

  bool unlimited() const {
    return wall_ms == 0 && vm_steps == 0 && shadow_pages == 0 &&
           coord_pool_words == 0 && folder_pieces == 0;
  }

 private:
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
  std::size_t pieces_charged_ = 0;
};

enum class Severity : std::uint8_t { kInfo, kWarn, kError };
const char* severity_name(Severity s);

/// Pipeline stage a diagnostic originates from.
enum class Stage : std::uint8_t {
  kSetup,     ///< option/entry validation before any replay
  kVerify,    ///< pipeline-entry IR verification (pp::verify)
  kControl,   ///< stage 1: dynamic control structure
  kDdg,       ///< stage 2: DDG construction (VM replay + shadow memory)
  kFold,      ///< stage 3: polyhedral folding
  kFeedback,  ///< stage 4: scheduling/metrics/report
};
const char* stage_name(Stage s);

/// One structured degradation record.
struct Diagnostic {
  Severity severity = Severity::kWarn;
  Stage stage = Stage::kSetup;
  int statement = -1;   ///< statement id when the record is per-statement
  std::string region;   ///< region name when the record is per-region
  std::string reason;

  /// Deterministic one-line rendering, e.g.
  /// "[error] ddg: budget exhausted (statement S3)".
  std::string str() const;
};

/// Append-only log of a run's degradations. Insertion order is the
/// pipeline's deterministic processing order, so render() is golden-
/// testable.
class DiagnosticLog {
 public:
  void add(Severity sev, Stage stage, std::string reason, int statement = -1,
           std::string region = {}) {
    records_.push_back(
        Diagnostic{sev, stage, statement, std::move(region), std::move(reason)});
  }
  void info(Stage stage, std::string reason, int statement = -1) {
    add(Severity::kInfo, stage, std::move(reason), statement);
  }
  void warn(Stage stage, std::string reason, int statement = -1) {
    add(Severity::kWarn, stage, std::move(reason), statement);
  }
  void error(Stage stage, std::string reason, int statement = -1) {
    add(Severity::kError, stage, std::move(reason), statement);
  }

  /// Append another log's records after this log's own, preserving the
  /// donor's internal order.
  void merge_from(DiagnosticLog&& other) {
    records_.insert(records_.end(),
                    std::make_move_iterator(other.records_.begin()),
                    std::make_move_iterator(other.records_.end()));
    other.records_.clear();
  }

  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  const std::vector<Diagnostic>& all() const { return records_; }
  void clear() { records_.clear(); }

  std::size_t count(Severity sev) const;
  bool has_errors() const { return count(Severity::kError) > 0; }

  /// One line per record, insertion order, trailing newline per line.
  std::string render() const;

 private:
  std::vector<Diagnostic> records_;
};

}  // namespace pp::support
