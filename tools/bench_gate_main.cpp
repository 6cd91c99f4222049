// bench_gate — evaluates every rule of a rules file against bench-harness
// JSON reports. Prints one markdown table to stdout (and appends it to
// $GITHUB_STEP_SUMMARY when set), then one `::error::` line per failed
// rule. The rule grammar and exit codes are in bench_gate.hpp.
//
// usage: bench_gate RULES_FILE     (CI: bench_gate bench/gates.txt)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_gate.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_gate RULES_FILE\n");
    return 2;
  }
  const std::string source = argv[1];
  const auto text = mmx::tools::read_text_file(source);
  if (!text) {
    std::fprintf(stderr, "bench_gate: cannot read rules file '%s'\n", source.c_str());
    return 2;
  }
  const mmx::tools::GateOutcome outcome =
      mmx::tools::run_bench_gate(*text, mmx::tools::read_text_file, source);
  std::fputs(outcome.table.c_str(), stdout);
  if (const char* summary = std::getenv("GITHUB_STEP_SUMMARY");
      summary != nullptr && *summary != '\0' && !outcome.table.empty()) {
    std::ofstream out(summary, std::ios::app);
    if (out) out << outcome.table << "\n";
  }
  for (const std::string& a : outcome.annotations) std::printf("%s\n", a.c_str());
  return outcome.exit_code;
}
