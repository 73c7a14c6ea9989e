// Transfer-time calibration: the analog of the paper's a-priori perf_main
// characterization (Sec. 3.1).  Measures one-way transfer times for a
// sweep of message sizes with a ping-pong microbenchmark on the simulated
// fabric and writes the size->time table the instrumentation framework
// reads at startup.
#include <cstdio>
#include <iostream>

#include "mpi/machine.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

/// One-way time for `size`: half the average ping-pong round trip, using
/// an uninstrumented run so calibration does not perturb itself.
DurationNs measureOneWay(Bytes size, int iters) {
  mpi::JobConfig job;
  job.nranks = 2;
  job.mpi.instrument = false;
  // Zero-copy rendezvous for long messages (bounce-buffer copies would
  // inflate the large-message numbers); the registration cache absorbs the
  // one-time pinning cost after the first iteration.
  job.mpi.preset = mpi::Preset::OpenMpiLeavePinned;
  mpi::Machine machine(job);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  TimeNs elapsed = 0;
  machine.run([&](mpi::Mpi& mpi) {
    mpi.barrier();
    const TimeNs t0 = mpi.now();
    for (int i = 0; i < iters; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(buf.data(), size, 1, 0);
        mpi.recv(buf.data(), size, 1, 0);
      } else {
        mpi.recv(buf.data(), size, 0, 0);
        mpi.send(buf.data(), size, 0, 0);
      }
    }
    if (mpi.rank() == 0) elapsed = mpi.now() - t0;
  });
  return elapsed / (2 * iters);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "usage: calibrate_xfer_table [flags]\n"
      "Measures one-way transfer times by ping-pong and writes the a-priori\n"
      "size->time table the instrumentation framework reads.\n",
      {util::stringFlag("out", "FILE", "table file to write",
                        "xfer_table.txt"),
       util::intFlag("iters", "50", "round trips per size", 1, 1000000),
       util::boolFlag("csv", "print CSV instead of an aligned table")});
  flags.parse(argc, argv);
  const int iters = static_cast<int>(flags.getInt("iters"));
  const std::string out = flags.getString("out");

  std::printf("=== calibrate_xfer_table ===\n");
  std::printf("a-priori transfer-time characterization (perf_main analog)\n\n");

  overlap::XferTimeTable table;
  util::TextTable report({"size_bytes", "one_way_ns"});
  for (Bytes size = 8; size <= Bytes{4} * 1024 * 1024; size *= 2) {
    const DurationNs t = measureOneWay(size, iters);
    table.add(size, t);
    report.addRow({util::TextTable::integer(size),
                   util::TextTable::integer(t)});
  }
  report.print(std::cout, flags.getBool("csv"));
  if (!table.saveFile(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu points)\n", out.c_str(), table.points());
  return 0;
}
