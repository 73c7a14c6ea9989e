#include "nas_figures.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "nas/symbolic.hpp"

namespace ovp::bench {

util::Flags parseNasFigureFlags(int argc, char** argv, const char* figure,
                                const char* description,
                                std::vector<util::FlagSpec> extra,
                                const char* note) {
  extra.insert(
      extra.begin(),
      {util::intFlag("iterations", "0",
                     "outer iterations, 0 for the class default", 0, 1000000),
       util::boolFlag("csv", "print CSV instead of an aligned table")});
  util::Flags flags(
      std::string("usage: ") + figure + " [flags]\n" + description + "\n" +
          note,
      std::move(extra));
  flags.parse(argc, argv);
  std::printf("=== %s ===\n%s\n", figure, description);
  return flags;
}

void requireRankCount(const std::string& context, const std::string& kernel,
                      nas::Class cls, int nranks, int iterations) {
  const std::string why = nas::rankCountError(kernel, cls, nranks, iterations);
  if (!why.empty()) {
    std::fprintf(stderr, "%s: %s\n", context.c_str(), why.c_str());
    std::exit(2);
  }
}

overlap::OverlapAccum aggregateSizeClass(
    const std::vector<overlap::Report>& reports, std::size_t cls) {
  overlap::OverlapAccum acc;
  for (const auto& r : reports) {
    if (cls >= r.whole.by_class.size()) continue;
    const auto& c = r.whole.by_class[cls];
    acc.transfers += c.transfers;
    acc.bytes += c.bytes;
    acc.data_transfer_time += c.data_transfer_time;
    acc.min_overlapped += c.min_overlapped;
    acc.max_overlapped += c.max_overlapped;
  }
  return acc;
}

void runCharacterization(const char* figure, const char* description,
                         const char* kernel_name, const KernelFn& kernel,
                         mpi::Preset preset,
                         const std::vector<nas::Class>& classes,
                         const std::vector<int>& rank_counts, int argc,
                         char** argv) {
  const util::Flags flags =
      parseNasFigureFlags(argc, argv, figure, description);
  const int iterations = static_cast<int>(flags.getInt("iterations"));
  for (const nas::Class cls : classes) {
    for (const int p : rank_counts) {
      requireRankCount(figure, kernel_name, cls, p, iterations);
    }
  }
  std::printf("library: %s\n\n", mpi::presetName(preset));
  util::TextTable table({"class", "procs", "verified", "min_pct", "max_pct",
                         "short_max_pct", "long_max_pct", "mpi_time_ms",
                         "run_time_ms"});
  for (const nas::Class cls : classes) {
    for (const int p : rank_counts) {
      nas::NasParams params;
      params.cls = cls;
      params.nranks = p;
      params.preset = preset;
      params.iterations = iterations;
      const nas::NasResult r = kernel(params);
      const auto short_cls = aggregateSizeClass(r.reports, 0);
      const auto long_cls = aggregateSizeClass(r.reports, 1);
      table.addRow({nas::className(cls), util::TextTable::integer(p),
                    r.verified ? "yes" : "NO",
                    util::TextTable::num(r.minPct(), 1),
                    util::TextTable::num(r.maxPct(), 1),
                    util::TextTable::num(short_cls.maxPct(), 1),
                    util::TextTable::num(long_cls.maxPct(), 1),
                    util::TextTable::num(toMsec(r.mpiTime()), 2),
                    util::TextTable::num(toMsec(r.time), 2)});
    }
  }
  table.print(std::cout, flags.getBool("csv"));
}

}  // namespace ovp::bench
