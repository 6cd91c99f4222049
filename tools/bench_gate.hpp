// bench_gate — CI's one bench gate: a checked-in rules file (bench/gates.txt)
// evaluated against the bench-harness JSON reports of the bench-perf job.
//
// Rule grammar, one rule per line, tokens separated by whitespace:
//
//   REPORT[:key] [/ REPORT[:key]] OP BOUND  # reason
//
// OP is `>=`, `<=` or `==`; a bare REPORT reads `trials_per_s`; the
// `# reason` is required. Blank lines and lines that start with `#` are
// comments. A ratio rule needs both reports to carry the same `bench` and
// `trials` and a positive, finite denominator.
//
// Exit codes: 0 every rule passes; 1 some rule fails (a NaN or infinite
// metric fails its rule); 2 a malformed rules file (including a bound that
// is unparsable, has trailing characters or is not finite), a missing
// report or key, or a ratio over mismatched reports.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mmx::tools {

enum class GateOp { kGe, kLe, kEq };

/// One side of a rule: a report path (relative to the working directory)
/// and the numeric key read from it.
struct GateOperand {
  std::string report;
  std::string key;
};

struct GateRule {
  std::size_t line = 0;  // 1-based line in the rules file
  std::string expr;      // the rule as written, without its comment
  std::string reason;
  GateOperand num;
  std::optional<GateOperand> den;
  GateOp op = GateOp::kGe;
  double bound = 0.0;
};

/// Parses a rules file. On any malformed line, returns nullopt and appends
/// one "line N: ..." message per bad line to `errors`.
std::optional<std::vector<GateRule>> parse_gate_rules(std::string_view text,
                                                      std::vector<std::string>& errors);

enum class GateStatus { kPass, kFail, kError };

struct GateResult {
  GateStatus status = GateStatus::kError;
  double value = 0.0;
  std::string error;  // why the rule could not be evaluated (kError only)
};

/// Report contents by path; nullopt when the report cannot be read.
using ReportReader = std::function<std::optional<std::string>(const std::string& path)>;

struct GateOutcome {
  int exit_code = 0;
  std::vector<GateResult> results;       // one per rule, in file order
  std::string table;                     // markdown, empty if the file is malformed
  std::vector<std::string> annotations;  // `::error::` lines
};

/// Parses `rules_text` and evaluates every rule, even after one fails.
/// `source` names the rules file in the table and annotations.
GateOutcome run_bench_gate(std::string_view rules_text, const ReportReader& read,
                           const std::string& source);

/// Whole file as a string; nullopt if it cannot be opened.
std::optional<std::string> read_text_file(const std::string& path);

}  // namespace mmx::tools
