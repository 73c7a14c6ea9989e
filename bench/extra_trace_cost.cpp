// Extension: profiling vs tracing storage cost (paper Sec. 5), plus the
// virtual-time overhead of the src/trace ring (a Figure-20-style table).
//
// "Trace-based approaches have to deal with problems like ... the overhead
// of storing voluminous trace files.  Unlike tracing, we numerically
// quantify the extent of non-overlapped communication."  This driver runs
// the same ping loop with the overlap framework and a trace collector whose
// cap holds the whole run, and compares one process's trace storage (rank
// 0's ring) with that process's fixed framework event queue.
//
// The second table runs identical jobs with the bounded trace ring off and
// on.  Because every trace record is charged host time (observer cost per
// monitor event, emit cost per library record), the traced job's virtual
// run time is strictly larger; the table reports that dilation the same way
// the paper's Fig. 20 reports the monitor's own overhead.
#include <cstdio>
#include <iostream>
#include <limits>

#include "mpi/machine.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace ovp;

namespace {

/// The 2-rank isend/compute/wait loop all tables share.
void pingLoop(mpi::Mpi& mpi, std::vector<std::uint8_t>& buf, int iters) {
  for (int i = 0; i < iters; ++i) {
    if (mpi.rank() == 0) {
      mpi::Request r = mpi.isend(buf.data(), 32 * 1024, 1, 0);
      mpi.compute(usec(100));
      mpi.wait(r);
    } else {
      mpi.recv(buf.data(), 32 * 1024, 0, 0);
    }
    mpi.barrier();
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "usage: extra_trace_cost [flags]\n"
      "Fixed-memory profiling vs full event tracing, and the virtual-time\n"
      "overhead of the bounded trace ring.\n",
      {util::boolFlag("csv", "print CSV instead of aligned tables")});
  flags.parse(argc, argv);
  const bool csv = flags.getBool("csv");
  std::printf("=== extra_trace_cost ===\n"
              "Fixed-memory profiling (the framework) vs full event tracing "
              "on the same traffic.\n\n");
  util::TextTable table({"iterations", "trace_events", "trace_kb",
                         "framework_queue_kb", "framework_drains"});
  for (const int iters : {10, 40, 160}) {
    mpi::JobConfig cfg;
    cfg.nranks = 2;
    cfg.mpi.monitor.queue_capacity = 1024;
    cfg.trace.enabled = true;
    cfg.trace.ring_capacity = std::numeric_limits<std::size_t>::max();
    mpi::Machine machine(cfg);
    std::vector<std::uint8_t> buf(32 * 1024);
    machine.run([&](mpi::Mpi& mpi) { pingLoop(mpi, buf, iters); });
    const trace::TraceRing& ring = machine.traceCollector()->ring(0);
    if (ring.dropped() != 0) {
      std::fprintf(stderr, "extra_trace_cost: unbounded ring dropped %lld "
                           "records\n",
                   static_cast<long long>(ring.dropped()));
      return 1;
    }
    const double queue_kb =
        static_cast<double>(cfg.mpi.monitor.queue_capacity *
                            sizeof(overlap::Event)) /
        1024.0;
    table.addRow(
        {util::TextTable::integer(iters),
         util::TextTable::integer(static_cast<long long>(ring.size())),
         util::TextTable::num(
             static_cast<double>(ring.reservedBytes()) / 1024.0, 1),
         util::TextTable::num(queue_kb, 1),
         util::TextTable::integer(machine.reports()[0].queue_drains)});
  }
  table.print(std::cout, csv);
  std::printf(
      "\nTrace storage grows linearly with run length; the framework's\n"
      "queue stays fixed and is simply drained more often.\n\n");

  std::printf("Bounded trace ring: virtual-time overhead vs tracing off "
              "(Fig. 20 style).\n\n");
  util::TextTable ring({"iterations", "records", "ring_kb", "dropped",
                        "time_off_ms", "time_on_ms", "overhead_pct"});
  for (const int iters : {10, 40, 160}) {
    std::vector<std::uint8_t> buf(32 * 1024);
    mpi::JobConfig off;
    off.nranks = 2;
    mpi::Machine machine_off(off);
    machine_off.run([&](mpi::Mpi& mpi) { pingLoop(mpi, buf, iters); });

    mpi::JobConfig on = off;
    on.trace.enabled = true;
    mpi::Machine machine_on(on);
    machine_on.run([&](mpi::Mpi& mpi) { pingLoop(mpi, buf, iters); });

    const trace::Collector& tc = *machine_on.traceCollector();
    const double t_off = toMsec(machine_off.finishTime());
    const double t_on = toMsec(machine_on.finishTime());
    ring.addRow(
        {util::TextTable::integer(iters),
         util::TextTable::integer(static_cast<long long>(tc.recordedTotal())),
         util::TextTable::num(
             static_cast<double>(tc.reservedBytes()) / 1024.0, 0),
         util::TextTable::integer(static_cast<long long>(tc.droppedTotal())),
         util::TextTable::num(t_off, 3), util::TextTable::num(t_on, 3),
         util::TextTable::num(t_off > 0 ? 100.0 * (t_on - t_off) / t_off : 0.0,
                              2)});
  }
  ring.print(std::cout, csv);
  std::printf(
      "\nThe ring is capped (drops are counted, never silent) and allocates\n"
      "only for the records it keeps; its host cost is charged in virtual\n"
      "time, so the overhead is visible in the measured run times\n"
      "themselves.\n");
  return 0;
}
