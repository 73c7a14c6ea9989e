// Shared driver for the paper's microbenchmark study (Sec. 3, Figs. 3-9).
//
// Two processes exchange `iters` messages with a chosen combination of
// blocking/non-blocking point-to-point calls, with increasing computation
// inserted between the initiating call and the wait on the non-blocking
// side(s).  For each computation value the driver reports the min/max
// overlap percentage of the measured rank (from the instrumentation
// framework) and its average wait time — the three series of each figure.
#pragma once

#include <string>
#include <vector>

#include "mpi/machine.hpp"

namespace ovp::bench {

/// Default compute sweeps used by the paper: 0-30 us for the eager study,
/// 0-1.75 ms for the rendezvous study.
[[nodiscard]] std::vector<DurationNs> eagerComputeSweep();
[[nodiscard]] std::vector<DurationNs> rendezvousComputeSweep();

struct MicrobenchConfig {
  mpi::Preset preset = mpi::Preset::OpenMpiPipelined;
  Bytes message = 1 << 20;
  bool sender_nonblocking = true;
  bool recver_nonblocking = false;
  Rank measured_rank = 0;
  int iters = 50;
  std::vector<DurationNs> compute_points = rendezvousComputeSweep();
  /// Optional: path of a transfer-time table (calibrated a priori); the
  /// analytic table is used when empty.
  std::string table_path = {};
};

/// The whole main() of one figure.  Parses the flags every figure shares
/// (--message, defaulting to cfg.message, --iters, --table and --csv),
/// prints the banner, runs the sweep and prints the three-series table for
/// cfg.measured_rank, or for the sender and then the receiver when
/// `both_sides`.  Returns the exit code.
int microbenchMain(int argc, char** argv, const char* figure,
                   const char* description, MicrobenchConfig cfg,
                   bool both_sides = false);

}  // namespace ovp::bench
