#include "microbench.hpp"

#include <cstdio>
#include <iostream>

#include "overlap/xfer_table.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace ovp::bench {

namespace {

struct MicrobenchPoint {
  DurationNs compute = 0;
  double min_pct = 0;
  double max_pct = 0;
  DurationNs avg_wait = 0;
};

/// Runs the sweep and returns one point per compute value.
std::vector<MicrobenchPoint> runMicrobench(const MicrobenchConfig& cfg) {
  std::vector<MicrobenchPoint> points;
  for (const DurationNs compute : cfg.compute_points) {
    mpi::JobConfig job;
    job.nranks = 2;
    job.mpi.preset = cfg.preset;
    // Per size class, like the paper: the tiny barrier messages that keep
    // the two sides in step land in "short"; the measured message in
    // "long".
    job.mpi.monitor.classes = overlap::SizeClasses::shortLong(4096);
    if (!cfg.table_path.empty()) {
      (void)job.mpi.monitor.table.loadFile(cfg.table_path);
    }
    mpi::Machine machine(job);
    std::vector<std::uint8_t> sbuf(static_cast<std::size_t>(cfg.message), 1);
    std::vector<std::uint8_t> rbuf(static_cast<std::size_t>(cfg.message), 0);
    DurationNs wait_total = 0;
    machine.run([&](mpi::Mpi& mpi) {
      for (int i = 0; i < cfg.iters; ++i) {
        if (mpi.rank() == 0) {
          if (cfg.sender_nonblocking) {
            mpi::Request r = mpi.isend(sbuf.data(), cfg.message, 1, 0);
            if (compute > 0) mpi.compute(compute);
            const TimeNs t0 = mpi.now();
            mpi.wait(r);
            if (cfg.measured_rank == 0) wait_total += mpi.now() - t0;
          } else {
            mpi.send(sbuf.data(), cfg.message, 1, 0);
          }
        } else {
          if (cfg.recver_nonblocking) {
            mpi::Request r = mpi.irecv(rbuf.data(), cfg.message, 0, 0);
            if (compute > 0) mpi.compute(compute);
            const TimeNs t0 = mpi.now();
            mpi.wait(r);
            if (cfg.measured_rank == 1) wait_total += mpi.now() - t0;
          } else {
            mpi.recv(rbuf.data(), cfg.message, 0, 0);
          }
        }
        mpi.barrier();
      }
    });
    const overlap::Report& rep =
        machine.reports()[static_cast<std::size_t>(cfg.measured_rank)];
    const overlap::OverlapAccum& cls = rep.whole.by_class[1];
    MicrobenchPoint p;
    p.compute = compute;
    p.min_pct = cls.minPct();
    p.max_pct = cls.maxPct();
    p.avg_wait = wait_total / cfg.iters;
    points.push_back(p);
  }
  return points;
}

/// Renders the standard three-series table for a figure.
util::TextTable microbenchTable(const std::vector<MicrobenchPoint>& points) {
  util::TextTable t({"compute_us", "min_overlap_pct", "max_overlap_pct",
                     "avg_wait_us"});
  for (const MicrobenchPoint& p : points) {
    t.addRow({util::TextTable::num(toUsec(p.compute), 1),
              util::TextTable::num(p.min_pct, 1),
              util::TextTable::num(p.max_pct, 1),
              util::TextTable::num(toUsec(p.avg_wait), 1)});
  }
  return t;
}

}  // namespace

std::vector<DurationNs> eagerComputeSweep() {
  std::vector<DurationNs> v;
  for (int us = 0; us <= 30; us += 3) v.push_back(usec(us));
  return v;
}

std::vector<DurationNs> rendezvousComputeSweep() {
  std::vector<DurationNs> v;
  for (int i = 0; i <= 7; ++i) v.push_back(i * msec(1) / 4);
  return v;
}

int microbenchMain(int argc, char** argv, const char* figure,
                   const char* description, MicrobenchConfig cfg,
                   bool both_sides) {
  util::Flags flags(
      std::string("usage: ") + figure + " [flags]\n" + description + "\n",
      {util::intFlag("message", std::to_string(cfg.message),
                     "message size in bytes", 1, 1 << 28),
       util::intFlag("iters", std::to_string(cfg.iters),
                     "messages per compute point", 1, 1000000),
       util::stringFlag("table", "FILE",
                        "a-priori transfer-time table (default: analytic)"),
       util::boolFlag("csv", "print CSV instead of an aligned table")});
  flags.parse(argc, argv);
  cfg.message = flags.getInt("message");
  cfg.iters = static_cast<int>(flags.getInt("iters"));
  cfg.table_path = flags.getString("table");
  if (!cfg.table_path.empty() &&
      !overlap::XferTimeTable().loadFile(cfg.table_path)) {
    std::fprintf(stderr, "%s: --table=%s: cannot load\n", figure,
                 cfg.table_path.c_str());
    return 2;
  }
  std::printf("=== %s ===\n%s\n\n", figure, description);
  const std::vector<Rank> sides =
      both_sides ? std::vector<Rank>{0, 1} : std::vector{cfg.measured_rank};
  for (const Rank side : sides) {
    cfg.measured_rank = side;
    if (both_sides) std::cout << (side == 0 ? "-- sender (Isend) --\n"
                                            : "-- receiver (Irecv) --\n");
    microbenchTable(runMicrobench(cfg)).print(std::cout, flags.getBool("csv"));
    if (both_sides) std::cout << '\n';
  }
  return 0;
}

}  // namespace ovp::bench
