// ovprof_lint: offline cross-rank trace analyzer.
//
// Consumes the lossless CSV trace a traced run writes (--ovprof-trace=FILE
// produces FILE.csv) and reports ranked diagnostics:
//
//   * RMA race detection — conflicting ARMCI put/get/acc to overlapping
//     remote byte ranges not ordered by any synchronization (vector-clock
//     happens-before over match and barrier records);
//   * deadlock / stall analysis — cycles and head-of-line blocking chains
//     in the cross-rank wait-for graph of blocking send/recv;
//   * overlap advice — serialized transfers, early waits and late waits,
//     each with the recoverable overlap estimated from xfer_time(size).
//
// Exit code: 0 when every trace is clean (Notes allowed), 1 when any trace
// has findings at Warning or above, 2 on tool errors (unreadable trace, bad
// flags).  Output is deterministic: the same trace bytes always produce the
// same findings in the same order.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "tool_main.hpp"
#include "trace/reader.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  // Positional arguments are the trace files.
  const tool::CommandLine cl = tool::parseCommandLine(
      argc, argv,
      util::Flags(
          "usage: ovprof_lint TRACE.csv [TRACE2.csv ...] [flags]\n"
          "Lints trace CSVs written by --ovprof-trace runs: RMA races,\n"
          "wait-for deadlocks and stalls, and ranked overlap advice.\n"
          "Exit code: 0 clean, 1 findings at warning or above, 2 tool "
          "error.\n",
          {util::boolFlag("races", "run the RMA race detector", "true"),
           util::boolFlag("deadlock",
                          "run the wait-for deadlock and stall analysis",
                          "true"),
           util::boolFlag("advisor", "run the overlap advisor", "true"),
           util::frameworkFlag("ovprof-lint-json")}));
  const util::Flags& flags = cl.flags;
  const std::vector<std::string>& inputs = cl.positional;

  analysis::LintConfig cfg;
  cfg.races = flags.getBool("races");
  cfg.deadlock = flags.getBool("deadlock");
  cfg.advisor = flags.getBool("advisor");

  const std::string json_path = flags.getString("ovprof-lint-json");
  if (!json_path.empty() && inputs.size() > 1) {
    std::fprintf(stderr,
                 "--ovprof-lint-json accepts exactly one input trace\n");
    return 2;
  }

  int exit_code = 0;
  for (const std::string& path : inputs) {
    const trace::ReadResult loaded = trace::readCsvFile(path);
    if (!loaded.collector) {
      std::fprintf(stderr, "ovprof_lint: %s: %s\n", path.c_str(),
                   loaded.error.c_str());
      return 2;
    }
    const analysis::LintResult result =
        analysis::runLint(*loaded.collector, cfg);
    if (inputs.size() > 1) std::printf("== %s ==\n", path.c_str());
    analysis::printLintText(result, std::cout);
    if (!json_path.empty()) {
      std::ofstream os(json_path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "ovprof_lint: failed to write %s\n",
                     json_path.c_str());
        return 2;
      }
      analysis::writeDiagnosticsJson(result.diagnostics, os);
    }
    exit_code = std::max(exit_code, result.exitCode());
  }
  return exit_code;
}
