// Quickstart: instrument a tiny message-passing program and read its
// overlap report.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
//
// The program runs two simulated processes.  Rank 0 sends a 1 MB message
// with MPI_Isend, computes for a while, then waits — the classic
// latency-hiding attempt.  Because the library preset uses an RDMA-Read
// rendezvous (MVAPICH2-style), the transfer really can proceed during the
// computation, and the framework's per-process report shows a high
// [min, max] overlap band.  Try changing the preset to
// Preset::OpenMpiPipelined to watch the achievable overlap collapse to the
// first-fragment fraction — with no change to the application code.
#include <cstdio>
#include <iostream>
#include <vector>

#include "mpi/machine.hpp"
#include "util/flags.hpp"

using namespace ovp;

int main(int argc, char** argv) {
  util::Flags flags("usage: quickstart [flags]\n"
                    "Two ranks overlap a 1 MB Isend with 2 ms of compute; "
                    "prints rank 0's report.\n",
                    {util::frameworkFlag("ovprof-verify")});
  flags.parse(argc, argv);

  mpi::JobConfig job;
  job.nranks = 2;
  job.mpi.preset = mpi::Preset::Mvapich2;  // try OpenMpiPipelined!
  // --ovprof-verify (or OVPROF_VERIFY=1) attaches the analysis layer.
  job.mpi.verify = flags.getBool("ovprof-verify");

  constexpr Bytes kMessage = 1 << 20;
  constexpr int kIters = 20;

  mpi::Machine machine(job);
  std::vector<std::uint8_t> send_buf(kMessage, 42);
  std::vector<std::uint8_t> recv_buf(kMessage);

  machine.run([&](mpi::Mpi& mpi) {
    for (int i = 0; i < kIters; ++i) {
      if (mpi.rank() == 0) {
        // Initiate the transfer, compute, then complete it.
        mpi::Request req = mpi.isend(send_buf.data(), kMessage, 1, 0);
        mpi.compute(msec(2));  // ~2 ms of "useful work"
        mpi.wait(req);
      } else {
        mpi.recv(recv_buf.data(), kMessage, 0, 0);
      }
      mpi.barrier();
    }
  });

  // Each process got its own report at finalize; print rank 0's.
  const overlap::Report& report = machine.reports()[0];
  report.write(std::cout);

  const overlap::OverlapAccum& total = report.whole.total;
  std::printf(
      "\nInterpretation (paper Sec. 2.3):\n"
      "  at least %.1f%% and at most %.1f%% of the %.2f ms of physical\n"
      "  transfer time was hidden behind computation; at least %.2f ms was\n"
      "  NOT overlapped and is the first place to look for lost time.\n",
      total.minPct(), total.maxPct(), toMsec(total.data_transfer_time),
      toMsec(total.minNonOverlapped()));
  if (job.mpi.verify && !analysis::clean(machine.diagnostics())) return 1;
  return 0;
}
