// Shared driver for the NAS SP tuning study (paper Sec. 4.3, Figs. 14-18):
// original vs Iprobe-modified SP, reported either over the monitored
// "solve-overlap" section (Figs. 14/15) or the complete code (Figs. 16/17),
// plus total MPI time (Fig. 18).
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "nas/sp.hpp"
#include "nas_figures.hpp"
#include "trace/export.hpp"

namespace ovp::bench {

inline void runSpFigure(const char* figure, const char* description,
                        nas::Class cls, bool section_scope, int argc,
                        char** argv) {
  const util::Flags flags = parseNasFigureFlags(
      argc, argv, figure, description,
      {util::frameworkFlag("ovprof-trace"), util::frameworkFlag("ovprof-lint")},
      "Each of the six configurations writes its own trace to\n"
      "FILE.p<procs>.<variant>.json and is linted on its own.\n");
  const std::string trace_path = flags.getString("ovprof-trace");
  const bool lint = flags.getBool("ovprof-lint");
  const int iterations = static_cast<int>(flags.getInt("iterations"));
  std::printf("library: %s\n\n", mpi::presetName(mpi::Preset::Mvapich2));
  util::TextTable table({"class", "procs", "variant", "verified", "min_pct",
                         "max_pct", "mpi_time_ms"});
  for (const int p : {4, 9, 16}) {
    for (const bool modified : {false, true}) {
      nas::SpParams params;
      params.cls = cls;
      params.nranks = p;
      params.preset = mpi::Preset::Mvapich2;  // the paper's SP exercise
      params.modified = modified;
      params.iterations = iterations;
      if (!trace_path.empty() || lint) params.trace.enabled = true;
      const nas::NasResult r = nas::runSp(params);
      if (r.trace && !trace_path.empty()) {
        const std::string base = trace_path + ".p" + std::to_string(p) + "." +
                                 (modified ? "modified" : "original") +
                                 ".json";
        if (!trace::writeChromeJsonFile(*r.trace, base) ||
            !trace::writeCsvFile(*r.trace, base + ".csv")) {
          std::fprintf(stderr, "failed to write %s\n", base.c_str());
          std::exit(1);
        }
      }
      if (lint && r.trace) {
        const analysis::LintResult lr = analysis::runLint(*r.trace);
        analysis::printLintText(lr, std::cout);
        if (!lr.clean()) std::exit(1);
      }
      const overlap::OverlapAccum acc =
          section_scope ? nas::aggregateSection(r.reports, "solve-overlap")
                        : nas::aggregateWhole(r.reports);
      table.addRow({nas::className(cls), util::TextTable::integer(p),
                    modified ? "modified" : "original",
                    r.verified ? "yes" : "NO",
                    util::TextTable::num(acc.minPct(), 1),
                    util::TextTable::num(acc.maxPct(), 1),
                    util::TextTable::num(toMsec(r.mpiTime()), 2)});
    }
  }
  table.print(std::cout, flags.getBool("csv"));
}

}  // namespace ovp::bench
