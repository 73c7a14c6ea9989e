// Tuning walkthrough: use the overlap framework to find and fix a
// latency-hiding failure in a halo-exchange stencil code — the same
// methodology the paper applied to NAS SP (Sec. 4.3), on a self-contained
// 2-D Jacobi example.
//
// The application posts its halo Irecvs, computes the interior (which
// needs no halo), then waits and computes the boundary.  That *looks* like
// perfect overlap, but on a polling MPI with rendezvous messages the
// transfer only starts when the receiver enters MPI_Wait.  The framework's
// section report exposes this: the "halo" section's max overlap bound is
// near zero.  Adding MPI_Iprobe calls inside the interior loop — one line
// of code — lets the library progress the rendezvous mid-computation, and
// the report (and the run time) show the difference.
#include <cstdio>
#include <vector>

#include "mpi/machine.hpp"
#include "util/flags.hpp"

using namespace ovp;

namespace {

constexpr int kNx = 4096;      // global grid columns (32 KB halo rows)
constexpr int kNyLocal = 128;  // rows per rank
constexpr int kIters = 10;
constexpr int kChunks = 8;  // interior compute split for the Iprobe fix

struct Outcome {
  double section_min = 0, section_max = 0;
  TimeNs run_time = 0;
  DurationNs mpi_time = 0;
  double checksum = 0;
};

Outcome runStencil(int nranks, bool with_iprobe) {
  mpi::JobConfig job;
  job.nranks = nranks;
  job.mpi.preset = mpi::Preset::OpenMpiLeavePinned;  // rendezvous = RDMA read

  mpi::Machine machine(job);
  double checksum = 0;
  machine.run([&](mpi::Mpi& mpi) {
    const Rank up = mpi.rank() > 0 ? mpi.rank() - 1 : -1;
    const Rank down = mpi.rank() < mpi.size() - 1 ? mpi.rank() + 1 : -1;
    // Rows 1..kNyLocal are interior; 0 and kNyLocal+1 are halos.
    std::vector<double> grid((kNyLocal + 2) * kNx, 0.0);
    std::vector<double> next(grid.size(), 0.0);
    for (int x = 0; x < kNx; ++x) {
      grid[static_cast<std::size_t>(1 * kNx + x)] =
          mpi.rank() == 0 ? 100.0 : 0.0;  // hot top edge
    }
    auto at = [&](std::vector<double>& g, int y, int x) -> double& {
      return g[static_cast<std::size_t>(y * kNx + x)];
    };

    for (int it = 0; it < kIters; ++it) {
      mpi.sectionBegin("halo");
      // Post halo receives and sends (rendezvous-sized rows).
      std::vector<mpi::Request> reqs;
      if (up >= 0) {
        reqs.push_back(mpi.irecvT(&at(grid, 0, 0), kNx, up, 0));
        reqs.push_back(mpi.isendT(&at(grid, 1, 0), kNx, up, 1));
      }
      if (down >= 0) {
        reqs.push_back(mpi.irecvT(&at(grid, kNyLocal + 1, 0), kNx, down, 1));
        reqs.push_back(mpi.isendT(&at(grid, kNyLocal, 0), kNx, down, 0));
      }
      // Interior sweep (rows 2..kNyLocal-1 need no halo).
      for (int chunk = 0; chunk < kChunks; ++chunk) {
        const int y0 = 2 + (kNyLocal - 3) * chunk / kChunks;
        const int y1 = 2 + (kNyLocal - 3) * (chunk + 1) / kChunks;
        for (int y = y0; y < y1; ++y) {
          for (int x = 1; x < kNx - 1; ++x) {
            at(next, y, x) = 0.25 * (at(grid, y - 1, x) + at(grid, y + 1, x) +
                                     at(grid, y, x - 1) + at(grid, y, x + 1));
          }
        }
        mpi.compute(usec(120));  // cost of this chunk's real work
        if (with_iprobe) {
          (void)mpi.iprobe(mpi::kAnySource, mpi::kAnyTag);  // << THE FIX
        }
      }
      mpi.waitall(reqs.data(), static_cast<int>(reqs.size()));
      mpi.sectionEnd();
      // Boundary rows now that the halos arrived.
      for (const int y : {1, kNyLocal}) {
        for (int x = 1; x < kNx - 1; ++x) {
          at(next, y, x) = 0.25 * (at(grid, y - 1, x) + at(grid, y + 1, x) +
                                   at(grid, y, x - 1) + at(grid, y, x + 1));
        }
      }
      mpi.compute(usec(15));
      std::swap(grid, next);
    }
    double local = 0;
    for (int y = 1; y <= kNyLocal; ++y) {
      for (int x = 0; x < kNx; ++x) local += at(grid, y, x);
    }
    double global = 0;
    mpi.allreduce(&local, &global, 1, mpi::Op::Sum);
    if (mpi.rank() == 0) checksum = global;
  });

  Outcome out;
  const overlap::OverlapAccum halo =
      [&] {
        overlap::OverlapAccum acc;
        for (const auto& r : machine.reports()) {
          if (const auto* s = r.findSection("halo")) {
            acc.transfers += s->total.transfers;
            acc.data_transfer_time += s->total.data_transfer_time;
            acc.min_overlapped += s->total.min_overlapped;
            acc.max_overlapped += s->total.max_overlapped;
          }
        }
        return acc;
      }();
  out.section_min = halo.minPct();
  out.section_max = halo.maxPct();
  out.run_time = machine.finishTime();
  for (const auto& r : machine.reports()) {
    out.mpi_time += r.whole.communication_call_time;
  }
  out.mpi_time /= static_cast<DurationNs>(machine.reports().size());
  out.checksum = checksum;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags("usage: stencil_tuning\n", {}).parse(argc, argv);  // no flags
  constexpr int kRanks = 4;
  std::printf("2-D Jacobi halo exchange on %d ranks, %d iterations\n\n",
              kRanks, kIters);
  const Outcome before = runStencil(kRanks, /*with_iprobe=*/false);
  const Outcome after = runStencil(kRanks, /*with_iprobe=*/true);

  std::printf("%-22s %14s %14s\n", "", "original", "with Iprobe");
  std::printf("%-22s %13.1f%% %13.1f%%\n", "halo section max overlap",
              before.section_max, after.section_max);
  std::printf("%-22s %13.1f%% %13.1f%%\n", "halo section min overlap",
              before.section_min, after.section_min);
  std::printf("%-22s %12.2fms %12.2fms\n", "mean MPI time / rank",
              toMsec(before.mpi_time), toMsec(after.mpi_time));
  std::printf("%-22s %12.2fms %12.2fms\n", "total run time",
              toMsec(before.run_time), toMsec(after.run_time));
  std::printf("\nchecksums: %.6f vs %.6f (identical numerics)\n",
              before.checksum, after.checksum);
  std::printf(
      "\nThe instrumentation pinpointed the same failure the paper found in\n"
      "NAS SP: overlap was *attempted* (Irecv ... compute ... Wait) but the\n"
      "polling library never progressed the rendezvous during the compute.\n");
  return 0;
}
