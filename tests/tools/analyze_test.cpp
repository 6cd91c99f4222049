// Fixture-driven tests for the mmx_analyze core: every rule family gets
// positive, suppressed, and tricky-lexing cases. The lexing fixtures pin
// exactly the classes of input the retired regex-based mmx_lint got
// wrong — raw strings with embedded quotes, multi-line raw strings,
// commented-out code, digit separators, and macro bodies.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "include_graph.hpp"
#include "lexer.hpp"
#include "rules.hpp"
#include "sarif.hpp"

namespace mmx::analyze {
namespace {

// Lex + classify + run the per-file rules + apply inline suppressions,
// the way analyze_repo does for one file.
std::vector<Finding> run_rules(const std::string& src, const std::string& rel) {
  LexedFile f = lex(src, rel);
  std::vector<Finding> findings;
  run_file_rules(f, classify(rel), findings);
  std::map<std::string, std::vector<Suppression>> sups;
  if (!f.suppressions.empty()) sups[rel] = f.suppressions;
  apply_inline_suppressions(sups, findings);
  return findings;
}

std::size_t count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(), [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenKindsAndPositions) {
  const LexedFile f = lex("int x = 42;\ndouble y_hz = 1.5e9;\n", "src/sim/a.cpp");
  ASSERT_EQ(f.tokens.size(), 10u);
  EXPECT_TRUE(f.tokens[0].is_id("int"));
  EXPECT_EQ(f.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(f.tokens[3].text, "42");
  EXPECT_EQ(f.tokens[5].line, 2u);
  EXPECT_TRUE(f.tokens[5].is_id("double"));
  EXPECT_EQ(f.tokens[8].text, "1.5e9");
}

TEST(Lexer, CommentsAreNotTokens) {
  const LexedFile f = lex("int a; // trailing float comment\n/* block\nfloat\n*/ int b;\n",
                          "src/dsp/a.cpp");
  for (const Token& t : f.tokens) EXPECT_NE(t.text, "float");
  ASSERT_EQ(f.tokens.size(), 6u);
  EXPECT_EQ(f.tokens[5].text, ";");
  EXPECT_EQ(f.tokens[3].line, 4u);  // `int b` sits after the block comment
}

TEST(Lexer, StringAndCharLiterals) {
  const LexedFile f = lex("auto s = \"float \\\" mt19937\"; char c = 'f';\n", "src/dsp/a.cpp");
  ASSERT_GE(f.tokens.size(), 4u);
  EXPECT_EQ(count_rule(run_rules("const char* s = \"float\";", "src/dsp/a.cpp"), "no-float"), 0u);
  const Token& str = f.tokens[3];
  EXPECT_EQ(str.kind, TokKind::kString);
  EXPECT_NE(str.text.find("mt19937"), std::string::npos);  // content kept, not re-tokenized
}

TEST(Lexer, DigitSeparatorsDoNotOpenCharLiterals) {
  // The regex scanner treated the ' in 1'000'000 as a char-literal open
  // and blanked real code after it. The lexer keeps one number token.
  const LexedFile f = lex("std::size_t n = 1'000'000; float f;\n", "src/dsp/a.cpp");
  bool found = false;
  for (const Token& t : f.tokens)
    if (t.kind == TokKind::kNumber && t.text == "1'000'000") found = true;
  EXPECT_TRUE(found);
  EXPECT_EQ(count_rule(run_rules("std::size_t n = 1'000'000; float f;\n", "src/dsp/a.cpp"),
                       "no-float"),
            1u);
}

TEST(Lexer, RawStringWithEmbeddedQuote) {
  // Regression the old scanner cannot pass: it closed the literal at the
  // embedded quote and saw `mt19937` as code (a false positive).
  const std::string src = "const char* doc = R\"(say \"std::mt19937\" here)\"; int x;\n";
  const LexedFile f = lex(src, "src/sim/a.cpp");
  ASSERT_GE(f.tokens.size(), 3u);
  EXPECT_EQ(count_rule(run_rules(src, "src/sim/a.cpp"), "rng-discipline"), 0u);
  // The identifier after the literal is still lexed as code.
  EXPECT_TRUE(f.tokens[f.tokens.size() - 3].is_id("int"));
}

TEST(Lexer, MultiLineRawString) {
  const std::string src =
      "const char* kDoc = R\"doc(\nstd::mt19937 rng;  // what NOT to do\nfloat f;\n)doc\";\n"
      "int after = 1;\n";
  const LexedFile f = lex(src, "src/dsp/a.cpp");
  const std::vector<Finding> findings = run_rules(src, "src/dsp/a.cpp");
  EXPECT_EQ(count_rule(findings, "rng-discipline"), 0u);
  EXPECT_EQ(count_rule(findings, "no-float"), 0u);
  EXPECT_TRUE(f.tokens[f.tokens.size() - 5].is_id("int"));
  EXPECT_EQ(f.tokens[f.tokens.size() - 5].line, 5u);  // newlines inside the literal counted
}

TEST(Lexer, PreprocessorIncludesExtracted) {
  const LexedFile f = lex("#include \"mmx/dsp/fft.hpp\"\n#include <vector>\nint x;\n",
                          "src/phy/a.cpp");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "mmx/dsp/fft.hpp");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_TRUE(f.includes[1].angled);
  EXPECT_EQ(f.includes[1].line, 2u);
  // Include targets never appear as code tokens.
  for (const Token& t : f.tokens) EXPECT_NE(t.text, "vector");
}

TEST(Lexer, MacroBodiesAreScanned) {
  // #define bodies land in pp_tokens, so token rules still see them; a
  // continuation line keeps the directive's own line number.
  const LexedFile f = lex("#define BAD_SEED() \\\n  std::rand()\nint x;\n", "src/sim/a.cpp");
  bool saw_rand = false;
  for (const Token& t : f.pp_tokens) saw_rand |= t.is_id("rand");
  EXPECT_TRUE(saw_rand);
  EXPECT_EQ(count_rule(run_rules("#define BAD_SEED() std::rand()\n", "src/sim/a.cpp"),
                       "rng-discipline"),
            1u);
}

TEST(Lexer, SuppressionParsing) {
  const LexedFile f = lex(
      "int a;  // mmx-analyze: allow(no-float) -- validated fixture\n"
      "int c;  // mmx-analyze: allow(db-arith)\n",
      "src/dsp/a.cpp");
  ASSERT_EQ(f.suppressions.size(), 2u);
  EXPECT_EQ(f.suppressions[0].rule, "no-float");
  EXPECT_TRUE(f.suppressions[0].reasoned);
  EXPECT_EQ(f.suppressions[1].rule, "db-arith");
  EXPECT_EQ(f.suppressions[1].line, 2u);
  EXPECT_FALSE(f.suppressions[1].reasoned);
}

// ---------------------------------------------------------------------------
// units-suffix
// ---------------------------------------------------------------------------

constexpr const char* kPublicHeader = "src/rf/include/mmx/rf/amp.hpp";

TEST(UnitsSuffix, FlagsMissingSuffix) {
  const auto f = run_rules("struct A { double tx_power; };", kPublicHeader);
  ASSERT_EQ(count_rule(f, "units-suffix"), 1u);
  EXPECT_EQ(f[0].symbol, "tx_power");
}

TEST(UnitsSuffix, AcceptsUnitAndDimensionlessSuffixes) {
  const auto f = run_rules(
      "struct A { double tx_power_dbm; double gain_lin; double freq_hz; double snr_db; };",
      kPublicHeader);
  EXPECT_EQ(count_rule(f, "units-suffix"), 0u);
}

TEST(UnitsSuffix, FunctionNamesExempt) {
  EXPECT_EQ(count_rule(run_rules("double noise_figure(double x_db);", kPublicHeader),
                       "units-suffix"),
            0u);
}

TEST(UnitsSuffix, OnlyPublicHeaders) {
  EXPECT_EQ(count_rule(run_rules("double tx_power;", "src/rf/amp.cpp"), "units-suffix"), 0u);
}

TEST(UnitsSuffix, MemberTrailingUnderscoreAndReferences) {
  const auto f = run_rules("struct A { double& noise_power_; };", kPublicHeader);
  ASSERT_EQ(count_rule(f, "units-suffix"), 1u);
  EXPECT_EQ(f[0].symbol, "noise_power_");
}

// ---------------------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------------------

TEST(RngDiscipline, FlagsEnginesAndSeeds) {
  const auto f = run_rules(
      "void f() { std::mt19937 g; srand(1); auto t = time(nullptr); std::random_device rd; }",
      "src/sim/a.cpp");
  EXPECT_EQ(count_rule(f, "rng-discipline"), 4u);
}

TEST(RngDiscipline, RandRequiresCallOrQualification) {
  EXPECT_EQ(count_rule(run_rules("int rand;", "src/sim/a.cpp"), "rng-discipline"), 0u);
  EXPECT_EQ(count_rule(run_rules("int x = rand();", "src/sim/a.cpp"), "rng-discipline"), 1u);
  EXPECT_EQ(count_rule(run_rules("int x = std::rand ();", "src/sim/a.cpp"), "rng-discipline"),
            1u);
}

TEST(RngDiscipline, RngHppOwnsTheEngine) {
  LexedFile f = lex("std::mt19937 engine_;", "src/common/include/mmx/common/rng.hpp");
  std::vector<Finding> findings;
  run_file_rules(f, classify(f.rel), findings);
  EXPECT_EQ(count_rule(findings, "rng-discipline"), 0u);
}

TEST(RngDiscipline, CommentedOutCodeDoesNotFire) {
  EXPECT_EQ(count_rule(run_rules("// std::mt19937 old_way;\nint x;\n", "src/sim/a.cpp"),
                       "rng-discipline"),
            0u);
}

// ---------------------------------------------------------------------------
// no-float / db-arith
// ---------------------------------------------------------------------------

TEST(NoFloat, HotDirsOnly) {
  EXPECT_EQ(count_rule(run_rules("float x;", "src/dsp/a.cpp"), "no-float"), 1u);
  EXPECT_EQ(count_rule(run_rules("float x;", "src/sim/a.cpp"), "no-float"), 0u);
}

TEST(DbArith, FlagsHandRolledConversions) {
  EXPECT_EQ(count_rule(run_rules("double y = std::pow(10, x / 10);", "tests/a.cpp"), "db-arith"),
            1u);
  EXPECT_EQ(count_rule(run_rules("double y = 20 * log10(v);", "tests/a.cpp"), "db-arith"), 1u);
  EXPECT_EQ(count_rule(run_rules("double y = 10.0 * std::log10(v);", "tests/a.cpp"), "db-arith"),
            1u);
}

TEST(DbArith, StrictPow10InsideSrcOnly) {
  // Any pow(10, ...) is suspect inside src/, but not in tests/.
  EXPECT_EQ(count_rule(run_rules("double y = std::pow(10, z);", "src/mac/a.cpp"), "db-arith"),
            1u);
  EXPECT_EQ(count_rule(run_rules("double y = std::pow(10, z);", "tests/a.cpp"), "db-arith"), 0u);
  EXPECT_EQ(count_rule(run_rules("double y = std::pow(2.0, z);", "src/mac/a.cpp"), "db-arith"),
            0u);
}

TEST(DbArith, UnitsFilesExempt) {
  LexedFile f = lex("double lin = std::pow(10.0, db / 10.0);", "src/common/units.cpp");
  std::vector<Finding> findings;
  run_file_rules(f, classify(f.rel), findings);
  EXPECT_EQ(count_rule(findings, "db-arith"), 0u);
}

// ---------------------------------------------------------------------------
// trig-per-sample
// ---------------------------------------------------------------------------

TEST(TrigPerSample, FlagsLoopTrigOnly) {
  EXPECT_EQ(count_rule(run_rules("void f() { double a = std::sin(x); }", "src/dsp/a.cpp"),
                       "trig-per-sample"),
            0u);
  EXPECT_EQ(count_rule(
                run_rules("void f() { for (int i = 0; i < n; ++i) y[i] = std::sin(i * w); }",
                          "src/dsp/a.cpp"),
                "trig-per-sample"),
            1u);
}

TEST(TrigPerSample, BracelessBodyAndHeader) {
  EXPECT_EQ(count_rule(run_rules("void f() { while (k--) acc += std::cos(k * w); }",
                                 "src/dsp/a.cpp"),
                       "trig-per-sample"),
            1u);
  // After a braceless body's ';' the loop is over.
  EXPECT_EQ(count_rule(run_rules("void f() { for (;;) step(); double a = std::sin(x); }",
                                 "src/dsp/a.cpp"),
                       "trig-per-sample"),
            0u);
}

TEST(TrigPerSample, OnlyDspKernelTus) {
  EXPECT_EQ(count_rule(run_rules("void f() { for (;;) y = std::sin(x); }", "src/phy/a.cpp"),
                       "trig-per-sample"),
            0u);
  EXPECT_EQ(count_rule(
                run_rules("void f() { for (;;) y = std::sin(x); }", "src/dsp/include/a.hpp"),
                "trig-per-sample"),
            0u);
}

TEST(TrigPerSample, CommentedOutLoopDoesNotArmTheTracker) {
  // A `for (...)` inside a comment must not put the scanner in loop
  // state — another regex-era false-positive class.
  const auto f = run_rules("// for (int i = 0; i < n; ++i)\ndouble a = std::sin(x);\n",
                           "src/dsp/a.cpp");
  EXPECT_EQ(count_rule(f, "trig-per-sample"), 0u);
}

TEST(TrigPerSample, ReasonedAllowSuppresses) {
  const auto f = run_rules(
      "void f() { for (int i = 0; i < n; ++i) w[i] = std::cos(i * a); }  // mmx-analyze: "
      "allow(trig-per-sample) -- window design, setup only\n",
      "src/dsp/a.cpp");
  EXPECT_EQ(count_rule(f, "trig-per-sample"), 0u);
  EXPECT_EQ(count_rule(f, "suppression-reason"), 0u);
}

TEST(TrigPerSample, UnreasonedAllowIsItselfAFinding) {
  const auto f = run_rules(
      "void f() { for (;;) w = std::cos(a); }  // mmx-analyze: allow(trig-per-sample)\n",
      "src/dsp/a.cpp");
  EXPECT_EQ(count_rule(f, "trig-per-sample"), 0u);  // still suppressed
  EXPECT_EQ(count_rule(f, "suppression-reason"), 1u);
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

TEST(HotPathAlloc, FlagsAllocationsInIntoKernels) {
  const auto f = run_rules(
      "void ask_into(std::span<int> out) { std::vector<int> tmp; tmp.push_back(1); "
      "auto* p = new int[4]; }",
      "src/phy/a.cpp");
  EXPECT_EQ(count_rule(f, "hot-path-alloc"), 3u);
}

TEST(HotPathAlloc, HotClassMethodsCoveredCtorExempt) {
  const auto f = run_rules(
      "Nco::Nco(double r) { table_.resize(256); }\n"
      "void Nco::retune(double f) { scratch_.resize(9); }\n",
      "src/dsp/a.cpp");
  ASSERT_EQ(count_rule(f, "hot-path-alloc"), 1u);
  EXPECT_EQ(f[0].line, 2u);
}

TEST(HotPathAlloc, InClassInlineMethodsCovered) {
  const auto f = run_rules(
      "class FramePipeline { void warm() { buf_.reserve(64); } };\n"
      "class Cold { void warm() { buf_.reserve(64); } };\n",
      "src/phy/include/mmx/phy/p.hpp");
  EXPECT_EQ(count_rule(f, "hot-path-alloc"), 1u);
}

TEST(HotPathAlloc, CallSitesAndNonHotFunctionsIgnored) {
  const auto f = run_rules(
      "void helper() { std::vector<int> fine; fine.push_back(1); ask_into(fine); }",
      "src/phy/a.cpp");
  EXPECT_EQ(count_rule(f, "hot-path-alloc"), 0u);
}

TEST(HotPathAlloc, ReferencesAndPointersDoNotConstruct) {
  const auto f = run_rules(
      "void fill_into(const Cvec& in, Cvec* out) { const Cvec& alias = in; use(alias, out); }",
      "src/dsp/a.cpp");
  EXPECT_EQ(count_rule(f, "hot-path-alloc"), 0u);
}

TEST(HotPathAlloc, HotFreeFunctionsCovered) {
  const auto f =
      run_rules("const FftPlan& fft_plan(std::size_t n) { cache.resize(n); }", "src/dsp/a.cpp");
  EXPECT_EQ(count_rule(f, "hot-path-alloc"), 1u);
}

TEST(HotPathAlloc, GeometryPlanClassesCoveredCtorExempt) {
  const auto f = run_rules(
      "RoomPlan::RoomPlan(const Room& r) { walls_.reserve(4); }\n"
      "void RoomPlan::rebuild(const Room& r) { walls_.push_back(rec); }\n"
      "void PathList::clear() { spare_.resize(8); }\n",
      "src/channel/room_plan.cpp");
  ASSERT_EQ(count_rule(f, "hot-path-alloc"), 2u);
  EXPECT_EQ(f[0].line, 2u);  // ctor on line 1 is exempt
  EXPECT_EQ(f[1].line, 3u);
}

TEST(HotPathAlloc, GeometryPlanSuppressionHonored) {
  const auto f = run_rules(
      "void PathList::ensure_paths(std::size_t n) {\n"
      "  storage_.resize(n);  // mmx-analyze: allow(hot-path-alloc) -- amortized growth\n"
      "}\n"
      "std::span<const Path> RoomPlan::trace_into(Vec2 a, Vec2 b, PathList& out) {\n"
      "  out.scratch.push_back(1);\n"
      "}\n",
      "src/channel/room_plan.cpp");
  ASSERT_EQ(count_rule(f, "hot-path-alloc"), 1u);  // only the unsuppressed trace_into alloc
  EXPECT_EQ(f[0].line, 5u);
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

TEST(Determinism, FlagsUnorderedContainers) {
  EXPECT_EQ(count_rule(run_rules("std::unordered_map<int, int> m;", "src/sim/a.cpp"),
                       "determinism"),
            1u);
  EXPECT_EQ(count_rule(run_rules("std::unordered_set<int> s;", "bench/a.cpp"), "determinism"),
            1u);
}

TEST(Determinism, FlagsPointerKeysAndAddressValues) {
  EXPECT_EQ(count_rule(run_rules("std::map<Node*, int> by_node;", "src/sim/a.cpp"),
                       "determinism"),
            1u);
  EXPECT_EQ(count_rule(run_rules("auto k = reinterpret_cast<std::uintptr_t>(p);",
                                 "src/sim/a.cpp"),
                       "determinism"),
            1u);
}

TEST(Determinism, CleanConstructsAndScope) {
  EXPECT_EQ(count_rule(run_rules("std::map<int, int> m;", "src/sim/a.cpp"), "determinism"), 0u);
  EXPECT_EQ(count_rule(run_rules("std::map<int, Node*> m;", "src/sim/a.cpp"), "determinism"),
            0u);  // pointer *values* are fine; only keys order output
  EXPECT_EQ(count_rule(run_rules("std::unordered_map<int, int> m;", "src/phy/a.cpp"),
                       "determinism"),
            0u);  // outside src/sim + bench
}

// ---------------------------------------------------------------------------
// mac-rng
// ---------------------------------------------------------------------------

TEST(MacRng, FlagsOwnedAndConstructedRng) {
  EXPECT_EQ(count_rule(run_rules("Rng rng_(42);", "src/mac/init_protocol.cpp"), "mac-rng"), 1u);
  EXPECT_EQ(count_rule(run_rules("auto r = Rng::stream(seed, 3);", "src/mac/arq.cpp"),
                       "mac-rng"),
            1u);
  EXPECT_EQ(count_rule(run_rules("Rng* rng = nullptr;", "src/mac/include/mmx/mac/a.hpp"),
                       "mac-rng"),
            1u);
  // Macro bodies are scanned too.
  EXPECT_EQ(count_rule(run_rules("#define MAKE_RNG() \\\n  Rng(7)\n", "src/mac/a.cpp"),
                       "mac-rng"),
            1u);
}

TEST(MacRng, CallerSuppliedReferencesAndScope) {
  EXPECT_EQ(count_rule(run_rules("double next_delay_s(Rng& rng, double hint_s);",
                                 "src/mac/include/mmx/mac/init_protocol.hpp"),
                       "mac-rng"),
            0u);
  EXPECT_EQ(count_rule(run_rules("void serve(SideChannel& ch, const Rng& rng);",
                                 "src/mac/side_channel.cpp"),
                       "mac-rng"),
            0u);
  // Commented-out construction never fires.
  EXPECT_EQ(count_rule(run_rules("// Rng rng(42);\nint x;\n", "src/mac/a.cpp"), "mac-rng"), 0u);
  // Outside src/mac the scenario layer may build streams freely.
  EXPECT_EQ(count_rule(run_rules("Rng rng = Rng::stream(seed, 2 + i);", "src/sim/a.cpp"),
                       "mac-rng"),
            0u);
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

TEST(Layering, ModuleResolution) {
  EXPECT_EQ(module_of("src/dsp/fft.cpp").value(), "dsp");
  EXPECT_EQ(module_of("bench/harness.cpp").value(), "bench");
  EXPECT_FALSE(module_of("docs/ARCHITECTURE.md").has_value());
  EXPECT_EQ(include_target_module("mmx/phy/ask.hpp").value(), "phy");
  EXPECT_FALSE(include_target_module("vector").has_value());
}

TEST(Layering, DownwardEdgesClean) {
  IncludeGraph g;
  g.add_include("phy", "dsp", "src/phy/a.cpp", 3);
  g.add_include("baseline", "core", "src/baseline/b.cpp", 4);
  g.add_link("phy", "dsp", "src/phy/CMakeLists.txt", 1);
  g.add_link("baseline", "core", "src/baseline/CMakeLists.txt", 1);
  std::vector<Finding> f;
  check_layering(g, f);
  EXPECT_TRUE(f.empty());
}

TEST(Layering, UpwardIncludeFlagged) {
  IncludeGraph g;
  g.add_include("dsp", "sim", "src/dsp/fir.cpp", 12);
  std::vector<Finding> f;
  check_layering(g, f);
  ASSERT_GE(count_rule(f, "layering"), 1u);
  EXPECT_EQ(f[0].file, "src/dsp/fir.cpp");
  EXPECT_EQ(f[0].line, 12u);
  EXPECT_EQ(f[0].symbol, "dsp->sim");
}

TEST(Layering, SiblingEdgeFlagged) {
  IncludeGraph g;
  g.add_link("rf", "antenna", "src/rf/CMakeLists.txt", 9);
  std::vector<Finding> f;
  check_layering(g, f);
  EXPECT_GE(count_rule(f, "layering"), 1u);
}

TEST(Layering, CycleReported) {
  IncludeGraph g;
  g.add_link("sim", "mac", "src/sim/CMakeLists.txt", 1);
  g.add_link("mac", "phy", "src/mac/CMakeLists.txt", 1);
  g.add_link("phy", "sim", "src/phy/CMakeLists.txt", 1);  // illegal back edge
  std::vector<Finding> f;
  check_layering(g, f);
  bool cycle = false;
  for (const Finding& x : f) cycle |= x.symbol == "cycle";
  EXPECT_TRUE(cycle);
}

TEST(Layering, IncludeWithoutLinkFlagged) {
  IncludeGraph g;
  g.add_include("phy", "rf", "src/phy/a.cpp", 2);
  std::vector<Finding> f;
  check_layering(g, f);
  ASSERT_EQ(count_rule(f, "layering"), 1u);
  EXPECT_NE(f[0].message.find("does not link"), std::string::npos);
  // Transitive link coverage counts.
  IncludeGraph g2;
  g2.add_include("phy", "common", "src/phy/a.cpp", 2);
  g2.add_link("phy", "dsp", "src/phy/CMakeLists.txt", 1);
  g2.add_link("dsp", "common", "src/dsp/CMakeLists.txt", 1);
  std::vector<Finding> f2;
  check_layering(g2, f2);
  EXPECT_TRUE(f2.empty());
}

TEST(Layering, UnknownModuleFlagged) {
  IncludeGraph g;
  g.add_include("dsp", "quantum", "src/dsp/a.cpp", 7);
  std::vector<Finding> f;
  check_layering(g, f);
  ASSERT_GE(count_rule(f, "layering"), 1u);
  EXPECT_NE(f[0].message.find("layering table"), std::string::npos);
}

TEST(Layering, CmakeParsing) {
  IncludeGraph g;
  parse_cmake_links(
      "add_library(mmx_phy a.cpp)\n"
      "target_link_libraries(mmx_phy PUBLIC mmx_common mmx_dsp mmx_rf Threads::Threads)\n",
      "src/phy/CMakeLists.txt", g);
  ASSERT_EQ(g.links.count("phy"), 1u);
  EXPECT_EQ(g.links.at("phy").size(), 3u);
  EXPECT_EQ(g.links.at("phy").count("rf"), 1u);
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(Baseline, MatchConsumesFinding) {
  std::vector<Finding> meta;
  std::vector<BaselineEntry> entries = parse_baseline(
      "# comment\n"
      "hot-path-alloc src/dsp/fft_plan.cpp make_unique -- one plan per size\n",
      "tools/analyze/baseline.txt", meta);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(meta.empty());
  std::vector<Finding> findings = {
      {"hot-path-alloc", "src/dsp/fft_plan.cpp", 80, "make_unique", "msg"}};
  const std::size_t n = apply_baseline(entries, "tools/analyze/baseline.txt", findings);
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(findings.empty());
}

TEST(Baseline, StaleEntryReported) {
  std::vector<Finding> meta;
  std::vector<BaselineEntry> entries =
      parse_baseline("no-float src/dsp/gone.cpp float -- obsolete\n", "b.txt", meta);
  std::vector<Finding> findings;
  apply_baseline(entries, "b.txt", findings);
  ASSERT_EQ(count_rule(findings, "stale-baseline"), 1u);
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(Baseline, UnreasonedAndMalformedReported) {
  std::vector<Finding> meta;
  parse_baseline(
      "no-float src/dsp/a.cpp float\n"
      "just two\n",
      "b.txt", meta);
  EXPECT_EQ(count_rule(meta, "baseline-reason"), 2u);
}

// ---------------------------------------------------------------------------
// SARIF
// ---------------------------------------------------------------------------

TEST(Sarif, EscapesAndStructure) {
  const std::vector<Finding> findings = {
      {"no-float", "src/dsp/a.cpp", 7, "float", "uses \"float\"\nbadly"}};
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"no-float\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("uses \\\"float\\\"\\nbadly"), std::string::npos);
  EXPECT_EQ(sarif.find("\nbadly"), std::string::npos);  // newline escaped, not literal
}

TEST(Sarif, EveryRuleHasMetadata) {
  const std::string sarif = to_sarif({});
  for (const RuleInfo& r : rule_table())
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(r.id) + "\""), std::string::npos) << r.id;
}

}  // namespace
}  // namespace mmx::analyze
