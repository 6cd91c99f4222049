// Tests for the bench_gate rule logic: every rule shape under every
// operator, the exit-code contract (0 pass, 1 fail, 2 malformed file or
// unusable report), and the checked-in bench/gates.txt. Reports are
// in-memory strings in the bench harness's JSON layout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_gate.hpp"

namespace mmx::tools {
namespace {

// %.17g, as bench/harness.cpp writes doubles (so NaN reads back as "nan").
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string report(const std::string& bench, double trials, double trials_per_s,
                   const std::string& scalars = "") {
  return "{\n  \"bench\": \"" + bench + "\",\n  \"trials\": " + num(trials) +
         ",\n  \"threads\": 1,\n  \"wall_s\": 0.5,\n  \"trials_per_s\": " + num(trials_per_s) +
         ",\n  \"scalars\": {" + scalars + "},\n  \"meta\": {\"build_type\": \"Release\"}\n}\n";
}

std::string scalar(const std::string& key, double v) { return "\"" + key + "\": " + num(v); }

class BenchGate : public ::testing::Test {
 protected:
  GateOutcome run(const std::string& rules) {
    return run_bench_gate(
        rules,
        [this](const std::string& path) -> std::optional<std::string> {
          const auto it = files_.find(path);
          if (it == files_.end()) return std::nullopt;
          return it->second;
        },
        "gates.txt");
  }
  int exit_code(const std::string& rules) { return run(rules).exit_code; }

  std::map<std::string, std::string> files_;
};

TEST_F(BenchGate, ParsesEachRuleShape) {
  std::vector<std::string> errors;
  const auto rules = parse_gate_rules(
      "# header comment\n"
      "\n"
      "a.json >= 2  # bare report\n"
      "a.json:delivery_ratio <= 0.5  # keyed\n"
      "a.json / b.json:x == 1e3  # ratio\n",
      errors);
  ASSERT_TRUE(rules.has_value()) << (errors.empty() ? "" : errors[0]);
  ASSERT_EQ(rules->size(), 3u);
  const GateRule& bare = (*rules)[0];
  EXPECT_EQ(bare.line, 3u);
  EXPECT_EQ(bare.num.report, "a.json");
  EXPECT_EQ(bare.num.key, "trials_per_s");
  EXPECT_FALSE(bare.den.has_value());
  EXPECT_EQ(bare.op, GateOp::kGe);
  EXPECT_EQ(bare.bound, 2.0);
  EXPECT_EQ(bare.reason, "bare report");
  EXPECT_EQ((*rules)[1].num.key, "delivery_ratio");
  EXPECT_EQ((*rules)[1].op, GateOp::kLe);
  const GateRule& ratio = (*rules)[2];
  ASSERT_TRUE(ratio.den.has_value());
  EXPECT_EQ(ratio.num.key, "trials_per_s");
  EXPECT_EQ(ratio.den->report, "b.json");
  EXPECT_EQ(ratio.den->key, "x");
  EXPECT_EQ(ratio.op, GateOp::kEq);
  EXPECT_EQ(ratio.bound, 1000.0);
  EXPECT_EQ(ratio.expr, "a.json / b.json:x == 1e3");
}

TEST_F(BenchGate, EveryShapeAndOperatorPassesAndFails) {
  files_["fast.json"] = report("b", 400, 30.0, scalar("delivery_ratio", 0.87));
  files_["ref.json"] = report("b", 400, 10.0);
  struct Case {
    const char* expr;  // value: fast tps 30, delivery 0.87, fast / ref 3
    int want;
  };
  const Case cases[] = {
      {"fast.json >= 30", 0},
      {"fast.json >= 30.5", 1},
      {"fast.json <= 30", 0},
      {"fast.json <= 29", 1},
      {"fast.json == 30", 0},
      {"fast.json == 29", 1},
      {"fast.json:delivery_ratio >= 0.80", 0},
      {"fast.json:delivery_ratio >= 0.90", 1},
      {"fast.json:delivery_ratio <= 0.90", 0},
      {"fast.json:delivery_ratio <= 0.80", 1},
      {"fast.json:delivery_ratio == 0.87", 0},
      {"fast.json:delivery_ratio == 0.8", 1},
      {"fast.json / ref.json >= 3", 0},
      {"fast.json / ref.json >= 3.1", 1},
      {"fast.json / ref.json <= 3", 0},
      {"fast.json / ref.json <= 2.9", 1},
      {"fast.json / ref.json == 3", 0},
      {"fast.json / ref.json == 2", 1},
  };
  for (const Case& c : cases)
    EXPECT_EQ(exit_code(std::string(c.expr) + "  # reason\n"), c.want) << c.expr;
}

// --- Gates the old per-purpose tools passed silently ---------------------

TEST_F(BenchGate, NanTrendMetricFails) {
  files_["BENCH_sweep.json"] = report("fig11", 50000, std::nan(""));
  files_["base/BENCH_sweep.json"] = report("fig11", 50000, 140000.0);
  const GateOutcome o = run("BENCH_sweep.json / base/BENCH_sweep.json >= 0.80  # trend\n");
  EXPECT_EQ(o.exit_code, 1);
  ASSERT_EQ(o.results.size(), 1u);
  EXPECT_EQ(o.results[0].status, GateStatus::kFail);
  EXPECT_NE(o.table.find("❌"), std::string::npos);
}

TEST_F(BenchGate, InfiniteMetricFailsEitherBound) {
  const double inf = std::numeric_limits<double>::infinity();
  files_["r.json"] = report("b", 1, 1.0, scalar("hi", inf) + ", " + scalar("lo", -inf));
  EXPECT_EQ(exit_code("r.json:hi >= 0  # r\n"), 1);
  EXPECT_EQ(exit_code("r.json:lo <= 0  # r\n"), 1);
}

TEST_F(BenchGate, NanBoundIsMalformed) {
  files_["a.json"] = report("b", 1, 1.0);
  files_["b.json"] = report("b", 1, 1.0);
  const GateOutcome o = run("a.json / b.json >= nan  # max regression\n");
  EXPECT_EQ(o.exit_code, 2);
  EXPECT_TRUE(o.table.empty());
  ASSERT_EQ(o.annotations.size(), 1u);
  EXPECT_NE(o.annotations[0].find("line 1"), std::string::npos);
  EXPECT_EQ(exit_code("a.json >= inf  # r\n"), 2);
}

TEST_F(BenchGate, TypoBoundIsMalformed) {
  files_["fast.json"] = report("b", 1, 1.0);
  files_["ref.json"] = report("b", 1, 100.0);
  EXPECT_EQ(exit_code("fast.json / ref.json >= typo  # speedup\n"), 2);
}

TEST_F(BenchGate, CommaDecimalBoundIsMalformed) {
  files_["faults.json"] = report("b", 1, 1.0, scalar("delivery_ratio", 0.10));
  EXPECT_EQ(exit_code("faults.json:delivery_ratio >= 0,80  # floor\n"), 2);
  EXPECT_EQ(exit_code("faults.json:delivery_ratio >= 0.80  # floor\n"), 1);
}

// --- Unusable reports exit 2 ----------------------------------------------

TEST_F(BenchGate, MissingReportIsAnError) {
  const GateOutcome o = run("absent.json >= 1  # r\n");
  EXPECT_EQ(o.exit_code, 2);
  ASSERT_EQ(o.results.size(), 1u);
  EXPECT_EQ(o.results[0].status, GateStatus::kError);
  EXPECT_NE(o.results[0].error.find("absent.json"), std::string::npos);
}

TEST_F(BenchGate, MissingKeyIsAnError) {
  files_["a.json"] = report("b", 1, 1.0, scalar("faults_on", 1));
  EXPECT_EQ(exit_code("a.json:faults_on == 1  # r\n"), 0);
  EXPECT_EQ(exit_code("a.json:fault_recoveries >= 1000  # r\n"), 2);
  EXPECT_EQ(exit_code("a.json:bench >= 1  # a string, not a number\n"), 2);
}

TEST_F(BenchGate, RatioOverDifferentBenchesIsAnError) {
  files_["a.json"] = report("micro_dsp_goertzel", 400, 30.0);
  files_["b.json"] = report("micro_dsp_fig11", 400, 10.0);
  EXPECT_EQ(exit_code("a.json / b.json >= 1  # r\n"), 2);
}

TEST_F(BenchGate, RatioOverDifferentTrialCountsIsAnError) {
  files_["a.json"] = report("b", 400, 30.0);
  files_["b.json"] = report("b", 200, 10.0);
  const GateOutcome o = run("a.json / b.json >= 1  # r\n");
  EXPECT_EQ(o.exit_code, 2);
  EXPECT_NE(o.results[0].error.find("disagree"), std::string::npos);
}

TEST_F(BenchGate, NonPositiveDenominatorIsAnError) {
  files_["a.json"] = report("b", 1, 1.0);
  files_["zero.json"] = report("b", 1, 0.0);
  files_["nan.json"] = report("b", 1, std::nan(""));
  EXPECT_EQ(exit_code("a.json / zero.json >= 1  # r\n"), 2);
  EXPECT_EQ(exit_code("a.json / nan.json >= 1  # r\n"), 2);
}

// --- Whole-file behaviour ---------------------------------------------------

TEST_F(BenchGate, EvaluatesEveryRuleAfterAFailure) {
  files_["a.json"] = report("b", 1, 5.0);
  const GateOutcome o = run(
      "a.json >= 10  # fails first\n"
      "a.json <= 10  # still evaluated, passes\n"
      "a.json == 4  # still evaluated, fails\n");
  EXPECT_EQ(o.exit_code, 1);
  ASSERT_EQ(o.results.size(), 3u);
  EXPECT_EQ(o.results[0].status, GateStatus::kFail);
  EXPECT_EQ(o.results[1].status, GateStatus::kPass);
  EXPECT_EQ(o.results[2].status, GateStatus::kFail);
  ASSERT_EQ(o.annotations.size(), 2u);
  EXPECT_EQ(o.annotations[0].rfind("::error file=gates.txt,line=1::", 0), 0u);
  EXPECT_EQ(o.annotations[1].rfind("::error file=gates.txt,line=3::", 0), 0u);
  EXPECT_NE(o.table.find("(1/3 rules pass)"), std::string::npos);
  EXPECT_NE(o.table.find("still evaluated, passes"), std::string::npos);
}

TEST_F(BenchGate, ErrorOutranksFailureButEveryRuleRuns) {
  files_["a.json"] = report("b", 1, 5.0);
  const GateOutcome o = run(
      "absent.json >= 1  # error\n"
      "a.json >= 10  # fails\n"
      "a.json >= 1  # passes\n");
  EXPECT_EQ(o.exit_code, 2);
  ASSERT_EQ(o.results.size(), 3u);
  EXPECT_EQ(o.results[0].status, GateStatus::kError);
  EXPECT_EQ(o.results[1].status, GateStatus::kFail);
  EXPECT_EQ(o.results[2].status, GateStatus::kPass);
}

TEST_F(BenchGate, MalformedLinesAreAllReported) {
  files_["a.json"] = report("b", 1, 5.0);
  const GateOutcome o = run(
      "a.json >= 1\n"  // no reason
      "a.json > 1  # bad op\n"
      "a.json / >= 1  # bad shape\n"
      "a.json: >= 1  # empty key\n"
      "a.json >= 1  # fine\n");
  EXPECT_EQ(o.exit_code, 2);
  EXPECT_TRUE(o.results.empty());
  ASSERT_EQ(o.annotations.size(), 4u);
  EXPECT_NE(o.annotations[0].find("line 1"), std::string::npos);
  EXPECT_NE(o.annotations[3].find("line 4"), std::string::npos);
}

TEST(BenchGateFile, CheckedInRulesParseAndNameCommittedBaselines) {
  const std::string root = MMX_SOURCE_DIR;
  const auto text = read_text_file(root + "/bench/gates.txt");
  ASSERT_TRUE(text.has_value());
  std::vector<std::string> errors;
  const auto rules = parse_gate_rules(*text, errors);
  ASSERT_TRUE(rules.has_value()) << errors[0];
  EXPECT_EQ(rules->size(), 24u);
  // A trend rule names its baseline, so each one must be committed and
  // carry the key the rule reads.
  std::size_t baselines = 0;
  for (const GateRule& rule : *rules) {
    if (!rule.den || rule.den->report.rfind("bench/baselines/", 0) != 0) continue;
    ++baselines;
    const auto base = read_text_file(root + "/" + rule.den->report);
    ASSERT_TRUE(base.has_value()) << rule.den->report;
    EXPECT_NE(base->find("\"" + rule.den->key + "\":"), std::string::npos) << rule.expr;
  }
  EXPECT_EQ(baselines, 6u);
}

}  // namespace
}  // namespace mmx::tools
