// Paper Fig. 18: total MPI time of NAS SP, original vs Iprobe-modified,
// classes A and B — the bottom line of the tuning exercise.  The paper's
// best improvement was ~23% (class B, 4 processes); the modified version
// must win in every configuration.
#include <cstdio>
#include <iostream>

#include "nas/sp.hpp"
#include "nas_figures.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  const util::Flags flags = bench::parseNasFigureFlags(
      argc, argv, "fig18_sp_mpi_time",
      "NAS SP mean per-rank MPI time, original vs modified.");
  const int iterations = static_cast<int>(flags.getInt("iterations"));
  std::printf("\n");
  util::TextTable table({"class", "procs", "orig_mpi_ms", "mod_mpi_ms",
                         "improvement_pct"});
  for (const nas::Class cls : {nas::Class::A, nas::Class::B}) {
    for (const int p : {4, 9, 16}) {
      nas::SpParams params;
      params.cls = cls;
      params.nranks = p;
      params.preset = mpi::Preset::Mvapich2;
      params.iterations = iterations;
      const auto orig = nas::runSp(params);
      params.modified = true;
      const auto mod = nas::runSp(params);
      const double o = toMsec(orig.mpiTime());
      const double m = toMsec(mod.mpiTime());
      table.addRow({nas::className(cls), util::TextTable::integer(p),
                    util::TextTable::num(o, 2), util::TextTable::num(m, 2),
                    util::TextTable::num(100.0 * (o - m) / o, 1)});
    }
  }
  table.print(std::cout, flags.getBool("csv"));
  return 0;
}
