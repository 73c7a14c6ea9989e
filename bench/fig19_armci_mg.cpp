// Paper Fig. 19: NAS MG with ARMCI, blocking vs non-blocking one-sided
// updates (class B).  The non-blocking version posts its ghost updates
// before the interior computation and completes them afterwards; once
// posted, the NIC owns the transfer, so its maximum overlap is high while
// the blocking version's is zero.  The MPI version is included for
// reference (the study in the paper's ref. [29]).
#include <cstdio>
#include <iostream>

#include "nas/mg.hpp"
#include "nas_figures.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  const util::Flags flags = bench::parseNasFigureFlags(
      argc, argv, "fig19_armci_mg",
      "NAS MG overlap: ARMCI blocking vs non-blocking (class B).");
  const int iterations = static_cast<int>(flags.getInt("iterations"));
  std::printf("\n");
  util::TextTable table({"class", "procs", "variant", "verified", "min_pct",
                         "max_pct", "run_time_ms"});
  for (const int p : {4, 8, 16}) {
    for (const nas::MgVariant v :
         {nas::MgVariant::ArmciBlocking, nas::MgVariant::ArmciNonBlocking,
          nas::MgVariant::MpiBlocking}) {
      nas::MgParams params;
      params.cls = nas::Class::B;
      params.nranks = p;
      params.variant = v;
      params.iterations = iterations;
      const auto r = nas::runMg(params);
      table.addRow({nas::className(params.cls), util::TextTable::integer(p),
                    nas::mgVariantName(v), r.verified ? "yes" : "NO",
                    util::TextTable::num(r.minPct(), 1),
                    util::TextTable::num(r.maxPct(), 1),
                    util::TextTable::num(toMsec(r.time), 2)});
    }
  }
  table.print(std::cout, flags.getBool("csv"));
  return 0;
}
