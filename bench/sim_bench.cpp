// Benchmarks the discrete-event core and records the result as a JSON
// artifact (BENCH_sim.json) so CI has an engine-throughput trajectory:
//
//   * run a message-heavy synthetic job (iterated nearest-neighbor halo
//     exchange plus an allreduce, the communication shape of the NAS
//     kernels) on a fixed rank count;
//   * report simulator throughput as engine events per second of host wall
//     time (the one place wall-clock is allowed — this artifact IS the
//     timing record; tool outputs stay clock-free) and the process's peak
//     RSS from getrusage.
//
// With --net-out=FILE the binary additionally sweeps the multi-VCI fabric
// (1/2/4 channels, one rail per channel) over the same workload and writes
// a BENCH_net.json with per-point events/s and achieved wire bandwidth, so
// the channelized arbitrator has its own trajectory artifact.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mpi/machine.hpp"
#include "mpi/mpi.hpp"
#include "net/vci.hpp"
#include "util/flags.hpp"

using namespace ovp;

namespace {

/// The synthetic workload: each rank exchanges a halo with both ring
/// neighbors (nonblocking both sides, compute between post and wait), then
/// joins an allreduce, `iters` times.  Sized so a default run processes a
/// few million engine events.
void rankMain(mpi::Mpi& mpi, int iters, int halo_doubles) {
  const int rank = mpi.rank();
  const int nranks = mpi.size();
  const int left = (rank + nranks - 1) % nranks;
  const int right = (rank + 1) % nranks;
  std::vector<double> send_l(halo_doubles), send_r(halo_doubles);
  std::vector<double> recv_l(halo_doubles), recv_r(halo_doubles);
  double sum = 0.0;
  for (int it = 0; it < iters; ++it) {
    mpi::Request rl = mpi.irecvT(recv_l.data(), halo_doubles, left, 1);
    mpi::Request rr = mpi.irecvT(recv_r.data(), halo_doubles, right, 2);
    mpi::Request sl = mpi.isendT(send_l.data(), halo_doubles, left, 2);
    mpi::Request sr = mpi.isendT(send_r.data(), halo_doubles, right, 1);
    mpi.compute(static_cast<DurationNs>(halo_doubles));
    mpi.wait(rl);
    mpi.wait(rr);
    mpi.wait(sl);
    mpi.wait(sr);
    double total = 0.0;
    mpi.allreduce(&sum, &total, 1, mpi::Op::Sum);
    sum = total;
  }
}

struct RunResult {
  std::int64_t events = 0;
  double wall_s = 0.0;
  TimeNs finish = 0;
  int workers_used = 1;
  std::int64_t wire_bytes = 0;    // summed from per-channel counters
  std::int64_t link_wait = 0;     // contended tx rail time, all ranks
  std::int64_t incast_wait = 0;   // contended rx rail time, all ranks
};

RunResult runOnce(int nranks, int iters, int halo, int workers,
                  const net::VciParams& vci) {
  mpi::JobConfig cfg;
  cfg.nranks = nranks;
  cfg.workers = workers;
  cfg.fabric.vci = vci;
  mpi::Machine machine(cfg);
  const auto start = std::chrono::steady_clock::now();
  machine.run([&](mpi::Mpi& mpi) { rankMain(mpi, iters, halo); });
  RunResult r;
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  r.events = machine.engine().eventsProcessed();
  r.finish = machine.finishTime();
  r.workers_used = machine.engine().workersUsed();
  for (const overlap::Report& rep : machine.reports()) {
    for (const overlap::VciChannelClass& row : rep.vci.rows) {
      r.wire_bytes += row.bytes;
      r.link_wait += row.link_wait;
      r.incast_wait += row.incast_wait;
    }
  }
  return r;
}

/// Achieved wire bandwidth in bytes per virtual second: every byte the
/// NICs put on a rail, divided by the job's virtual makespan.
double achievedGbps(const RunResult& r) {
  if (r.finish <= 0) return 0.0;
  return static_cast<double>(r.wire_bytes) /
         static_cast<double>(r.finish);  // bytes/ns == GB/s
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "usage: sim_bench [flags]\n"
      "Times the discrete-event engine on a synthetic halo-exchange job and\n"
      "records events/sec and peak RSS as a JSON bench artifact.  With\n"
      "--net-out it also sweeps 1/2/4 VCI channels, one rail per channel,\n"
      "and records events/s and achieved wire bandwidth per point.\n",
      {util::intFlag("procs", "16", "ranks", 1, 65536),
       util::intFlag("iters", "400", "halo + allreduce rounds", 1, 1000000),
       util::intFlag("halo", "1024", "doubles per halo message", 1, 1 << 20),
       util::stringFlag("out", "FILE", "bench artifact to write",
                        "BENCH_sim.json"),
       util::stringFlag("net-out", "FILE",
                        "also run the channel sweep and write it to FILE"),
       util::frameworkFlag("ovprof-workers"),
       util::frameworkFlag("ovprof-vci"),
       util::frameworkFlag("ovprof-vci-rails")});
  flags.parse(argc, argv);
  const int nranks = static_cast<int>(flags.getInt("procs"));
  const int iters = static_cast<int>(flags.getInt("iters"));
  const int halo = static_cast<int>(flags.getInt("halo"));
  const int workers = static_cast<int>(flags.getInt("ovprof-workers"));

  net::VciParams vci;  // disabled unless asked for
  const std::string vci_spec = flags.getString("ovprof-vci");
  if (!vci_spec.empty() && !net::VciParams::parse(vci_spec, vci)) {
    std::fprintf(stderr, "sim_bench: bad --ovprof-vci spec '%s'\n",
                 vci_spec.c_str());
    return 2;
  }
  vci.rails = static_cast<int>(flags.getInt("ovprof-vci-rails"));

  std::printf("=== sim_bench ===\n"
              "%d ranks, %d iters, %d-double halo exchange + allreduce, "
              "%d worker(s).\n",
              nranks, iters, halo, workers);
  if (vci.enabled()) {
    std::printf("fabric: %d VCI channel(s), %d rail(s), %s policy.\n",
                vci.channelCount(), vci.railCount(),
                net::VciParams::policyName(vci.policy));
  }
  const RunResult main_run = runOnce(nranks, iters, halo, workers, vci);
  const double events_per_sec =
      main_run.wall_s > 0.0
          ? static_cast<double>(main_run.events) / main_run.wall_s
          : 0.0;
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const std::int64_t peak_rss_kb = usage.ru_maxrss;  // Linux: kilobytes

  const std::string out_path = flags.getString("out");
  {
    std::ofstream os(out_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "sim_bench: failed to write %s\n",
                   out_path.c_str());
      return 1;
    }
    os << "{\n";
    os << "  \"bench\": \"sim\",\n";
    os << "  \"workload\": \"halo+allreduce\",\n";
    os << "  \"ranks\": " << nranks << ",\n";
    os << "  \"iters\": " << iters << ",\n";
    os << "  \"halo_doubles\": " << halo << ",\n";
    os << "  \"workers\": " << main_run.workers_used << ",\n";
    os << "  \"events\": " << main_run.events << ",\n";
    os << "  \"wall_s\": " << main_run.wall_s << ",\n";
    os << "  \"events_per_sec\": "
       << static_cast<std::int64_t>(events_per_sec + 0.5) << ",\n";
    os << "  \"peak_rss_kb\": " << peak_rss_kb << ",\n";
    if (vci.enabled()) {
      os << "  \"vci_channels\": " << vci.channelCount() << ",\n";
      os << "  \"vci_rails\": " << vci.railCount() << ",\n";
    }
    os << "  \"virtual_finish_ns\": " << main_run.finish << "\n";
    os << "}\n";
  }
  std::printf("%lld events in %.3f s -> %.0f events/s, peak RSS %lld kB\n"
              "-> %s\n",
              static_cast<long long>(main_run.events), main_run.wall_s,
              events_per_sec, static_cast<long long>(peak_rss_kb),
              out_path.c_str());

  // Optional channel sweep: 1/2/4 VCI channels with one rail per channel,
  // so the 2- and 4-channel points exercise real multi-rail arbitration.
  const std::string net_path = flags.getString("net-out");
  if (!net_path.empty()) {
    std::ofstream os(net_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "sim_bench: failed to write %s\n",
                   net_path.c_str());
      return 1;
    }
    os << "{\n";
    os << "  \"bench\": \"net\",\n";
    os << "  \"workload\": \"halo+allreduce\",\n";
    os << "  \"ranks\": " << nranks << ",\n";
    os << "  \"iters\": " << iters << ",\n";
    os << "  \"halo_doubles\": " << halo << ",\n";
    os << "  \"points\": [\n";
    const int sweep_channels[] = {1, 2, 4};
    bool first = true;
    for (const int nch : sweep_channels) {
      net::VciParams p;
      p.channels = nch;
      p.rails = nch;  // one rail per channel: the multi-rail datapoint
      const RunResult r = runOnce(nranks, iters, halo, workers, p);
      const double eps =
          r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
      if (!first) os << ",\n";
      first = false;
      os << "    {\"channels\": " << nch << ", \"rails\": " << nch
         << ", \"events\": " << r.events << ", \"events_per_sec\": "
         << static_cast<std::int64_t>(eps + 0.5)
         << ", \"wire_bytes\": " << r.wire_bytes
         << ", \"virtual_finish_ns\": " << r.finish
         << ", \"achieved_gbps\": " << achievedGbps(r)
         << ", \"link_wait_ns\": " << r.link_wait
         << ", \"incast_wait_ns\": " << r.incast_wait << "}";
      std::printf("net sweep: %d ch / %d rail(s): %lld events, "
                  "finish %lld ns, %.3f GB/s achieved\n",
                  nch, nch, static_cast<long long>(r.events),
                  static_cast<long long>(r.finish), achievedGbps(r));
    }
    os << "\n  ]\n";
    os << "}\n";
    std::printf("-> %s\n", net_path.c_str());
  }
  return 0;
}
