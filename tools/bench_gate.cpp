#include "bench_gate.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mmx::tools {

namespace {

constexpr char kDefaultKey[] = "trials_per_s";

std::string_view trim(std::string_view s) {
  const std::size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::istringstream in{std::string(s)};
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

/// `REPORT[:key]`; the key defaults to trials_per_s.
std::optional<GateOperand> parse_operand(const std::string& tok) {
  const std::size_t colon = tok.rfind(':');
  if (colon == std::string::npos) return GateOperand{tok, kDefaultKey};
  if (colon == 0 || colon + 1 == tok.size()) return std::nullopt;
  return GateOperand{tok.substr(0, colon), tok.substr(colon + 1)};
}

std::optional<GateOp> parse_op(const std::string& tok) {
  if (tok == ">=") return GateOp::kGe;
  if (tok == "<=") return GateOp::kLe;
  if (tok == "==") return GateOp::kEq;
  return std::nullopt;
}

/// The whole token must be a finite number: "typo", "0,80" and "nan" are not.
std::optional<double> parse_bound(const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

// The harness (bench/harness.cpp) writes "bench", "trials", "wall_s",
// "trials_per_s" and the "scalars" block before any free-form text
// ("meta", "obs"), so the first `"key":` is the gated one and a general
// JSON parser is not needed.
std::optional<double> find_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = text.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

std::optional<std::string> find_string(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t begin = pos + needle.size();
  const std::size_t close = text.find('"', begin);
  if (close == std::string::npos) return std::nullopt;
  return text.substr(begin, close - begin);
}

bool holds(double value, GateOp op, double bound) {
  switch (op) {
    case GateOp::kGe: return value >= bound;
    case GateOp::kLe: return value <= bound;
    case GateOp::kEq: return value == bound;
  }
  return false;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

GateResult evaluate_gate_rule(const GateRule& rule, const ReportReader& read) {
  GateResult r;
  auto load = [&](const GateOperand& side, std::string& text) -> std::optional<double> {
    std::optional<std::string> contents = read(side.report);
    if (!contents) {
      r.error = "cannot read report '" + side.report + "'";
      return std::nullopt;
    }
    text = std::move(*contents);
    const auto v = find_number(text, side.key);
    if (!v) r.error = "report '" + side.report + "' has no numeric key '" + side.key + "'";
    return v;
  };
  std::string num_text;
  const auto num = load(rule.num, num_text);
  if (!num) return r;
  r.value = *num;
  if (rule.den) {
    std::string den_text;
    const auto den = load(*rule.den, den_text);
    if (!den) return r;
    const auto num_bench = find_string(num_text, "bench");
    const auto den_bench = find_string(den_text, "bench");
    const auto num_trials = find_number(num_text, "trials");
    const auto den_trials = find_number(den_text, "trials");
    if (!num_bench || !den_bench || !num_trials || !den_trials) {
      r.error = "a ratio needs `bench` and `trials` in both reports";
      return r;
    }
    if (*num_bench != *den_bench || *num_trials != *den_trials) {
      auto trials = [](double t) { return std::to_string(static_cast<long long>(t)); };
      r.error = "reports disagree: '" + *num_bench + "'/" + trials(*num_trials) + " trials vs '" +
                *den_bench + "'/" + trials(*den_trials) + " trials";
      return r;
    }
    if (!(*den > 0.0) || !std::isfinite(*den)) {
      r.error = "denominator " + fmt(*den) + " is not positive and finite";
      return r;
    }
    r.value = *num / *den;
  }
  r.status = std::isfinite(r.value) && holds(r.value, rule.op, rule.bound) ? GateStatus::kPass
                                                                           : GateStatus::kFail;
  return r;
}

}  // namespace

std::optional<std::vector<GateRule>> parse_gate_rules(std::string_view text,
                                                      std::vector<std::string>& errors) {
  std::vector<GateRule> rules;
  const std::size_t errors_before = errors.size();
  std::size_t line_no = 0;
  for (std::size_t begin = 0; begin <= text.size(); ++line_no) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;

    const std::size_t hash = line.find('#');
    GateRule rule;
    rule.line = line_no + 1;
    rule.expr = trim(line.substr(0, hash));
    if (rule.expr.empty()) continue;  // blank or comment-only line
    auto bad = [&](const std::string& why) {
      errors.push_back("line " + std::to_string(rule.line) + ": " + why);
    };
    if (hash != std::string_view::npos) rule.reason = trim(line.substr(hash + 1));
    if (rule.reason.empty()) {
      bad("rule has no `# reason` comment");
      continue;
    }
    const std::vector<std::string> tok = split_ws(rule.expr);
    const bool ratio = tok.size() == 5 && tok[1] == "/";
    if (tok.size() != 3 && !ratio) {
      bad("expected `REPORT[:key] [/ REPORT[:key]] OP BOUND`, got '" + rule.expr + "'");
      continue;
    }
    const auto num = parse_operand(tok[0]);
    const auto den = ratio ? parse_operand(tok[2]) : std::nullopt;
    const auto op = parse_op(tok[tok.size() - 2]);
    const auto bound = parse_bound(tok.back());
    if (!num || (ratio && !den)) {
      bad("malformed operand in '" + rule.expr + "'");
    } else if (!op) {
      bad("unknown operator '" + tok[tok.size() - 2] + "' (want >=, <= or ==)");
    } else if (!bound) {
      bad("bound '" + tok.back() + "' is not a finite number");
    } else {
      rule.num = *num;
      rule.den = den;
      rule.op = *op;
      rule.bound = *bound;
      rules.push_back(std::move(rule));
    }
  }
  if (errors.size() != errors_before) return std::nullopt;
  return rules;
}

GateOutcome run_bench_gate(std::string_view rules_text, const ReportReader& read,
                           const std::string& source) {
  GateOutcome out;
  std::vector<std::string> errors;
  auto rules = parse_gate_rules(rules_text, errors);
  if (!rules) {
    for (const std::string& e : errors)
      out.annotations.push_back("::error file=" + source + "::malformed rules file, " + e);
    out.exit_code = 2;
    return out;
  }

  std::size_t passed = 0;
  std::string rows;
  for (const GateRule& rule : *rules) {
    const GateResult& r = out.results.emplace_back(evaluate_gate_rule(rule, read));
    const std::string where =
        "::error file=" + source + ",line=" + std::to_string(rule.line) + "::";
    std::string status;
    if (r.status == GateStatus::kPass) {
      ++passed;
      status = "✅";
    } else if (r.status == GateStatus::kFail) {
      status = "❌";
      if (out.exit_code == 0) out.exit_code = 1;
      out.annotations.push_back(where + "`" + rule.expr + "` failed at " + fmt(r.value) +
                                " (" + rule.reason + ")");
    } else {
      status = "⚠️ " + r.error;
      out.exit_code = 2;
      out.annotations.push_back(where + "`" + rule.expr + "` not evaluated: " + r.error);
    }
    const std::string value = r.status == GateStatus::kError ? "—" : fmt(r.value);
    rows += "| " + std::to_string(rule.line) + " | `" + rule.expr + "` | " + value + " | " +
            status + " | " + rule.reason + " |\n";
  }
  out.table = "### Bench gate — " + source + " (" + std::to_string(passed) + "/" +
              std::to_string(rules->size()) + " rules pass)\n\n" +
              "| line | rule | value | status | reason |\n|---|---|---|---|---|\n" + rows;
  return out;
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace mmx::tools
