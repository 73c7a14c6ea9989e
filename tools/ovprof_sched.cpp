// ovprof_sched: multi-job cluster campaigns with streaming aggregation.
//
// Takes a workload (explicit file or deterministic synthetic spec), runs it
// through the cluster scheduler on one shared simulated fabric
// (src/cluster/), streams the finalized per-job records to a versioned
// ovprof-agg-v1 file as jobs finish, and emits a per-job JSON summary with
// the interference metrics (slowdown vs solo baseline, fabric-contention
// share, overlap delta under co-location).
//
// WORKLOAD is either a workload file (`job <id> <kernel> <class> <nranks>
// <arrival_ns> <priority> <estimate_ns>` lines) or `synth:NJOBS[:SEED
// [:MAXRANKS]]` for the deterministic generator (MAXRANKS defaults to the
// machine size).  The aggregate stream goes to --agg (default
// ovprof-agg.txt); the JSON summary is rebuilt from that file one record at
// a time, so the tool never holds more than one finalized record in memory
// — with --spill it is bounded end to end regardless of campaign size.
// --rss-budget-mb asserts a peak-RSS ceiling after the run (exit 1 when
// exceeded) without touching the deterministic outputs.
//
// Exit code: 0 success, 1 RSS budget exceeded, 2 tool error (unreadable
// workload, bad flags, impossible job).  Scheduling is a pure function of
// the workload, so every output file is byte-identical across reruns and
// across --ovprof-workers counts.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/aggregator.hpp"
#include "cluster/job.hpp"
#include "cluster/runtime.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/workload.hpp"
#include "tool_main.hpp"

using namespace ovp;

namespace {

util::Flags schedFlags() {
  return util::Flags(
      "usage: ovprof_sched WORKLOAD [flags]\n"
      "Runs a multi-job workload through the cluster scheduler on one\n"
      "shared fabric and streams per-job overlap and interference records.\n"
      "WORKLOAD is a file of 'job <id> <kernel> <class> <nranks> <arrival>\n"
      "<prio> <estimate>' lines (kernels cg ep is mg, classes S A B) or\n"
      "synth:NJOBS[:SEED[:MAXRANKS]].  Outputs are byte-identical across\n"
      "reruns and --ovprof-workers counts.\n"
      "Exit code: 0 success, 1 RSS budget exceeded, 2 tool error.\n",
      {util::intFlag("nodes", "8", "machine nodes", 1, 4096),
       util::intFlag("ranks-per-node", "4", "slots per node", 1, 256),
       // Choices in cluster::SchedPolicy order (getChoice).
       util::enumFlag("policy", "fifo|backfill", "backfill",
                      "scheduling policy"),
       util::boolFlag("shared-nodes",
                      "pack jobs slot by slot instead of onto whole nodes"),
       util::boolFlag("no-baselines", "skip the solo baseline runs"),
       util::stringFlag("agg", "FILE", "aggregate stream to write",
                        "ovprof-agg.txt"),
       util::stringFlag("json", "FILE",
                        "write the JSON summary to FILE (default stdout)"),
       util::stringFlag("spill", "PREFIX",
                        "bound memory by spilling record shards to PREFIX.*"),
       util::intFlag("shard-jobs", "64", "records per shard", 1, 1000000),
       util::stringFlag("launch-log", "FILE",
                        "write one line per job launch to FILE"),
       util::stringFlag("write-workload", "FILE",
                        "save the resolved workload to FILE"),
       util::intFlag("rss-budget-mb", "0",
                     "exit 1 when peak RSS exceeds MB; 0 for no budget", 0),
       util::frameworkFlag("ovprof-workers"),
       util::frameworkFlag("ovprof-vci"),
       util::frameworkFlag("ovprof-vci-rails")});
}

/// Parses synth:NJOBS[:SEED[:MAXRANKS]]; false on malformed numbers.
bool parseSynthSpec(const std::string& spec, int machine_ranks,
                    std::vector<cluster::JobSpec>& out) {
  std::string rest = spec.substr(6);
  for (char& c : rest) {
    if (c == ':') c = ' ';
  }
  std::istringstream ss(rest);
  std::int64_t njobs = 0;
  std::uint64_t seed = 1;
  int max_ranks = machine_ranks;
  if (!(ss >> njobs) || njobs < 1) return false;
  if (ss >> seed) {
    if (ss >> max_ranks && (max_ranks < 1 || max_ranks > machine_ranks)) {
      return false;
    }
  }
  ss.clear();
  std::string trailing;
  if (ss >> trailing) return false;
  out = cluster::synthWorkload(static_cast<int>(njobs), seed, max_ranks);
  return true;
}

void putDouble(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  os << buf;
}

/// Streams the per-job JSON summary from the agg file, one record resident
/// at a time.
bool writeJsonSummary(const std::string& agg_path,
                      const cluster::ClusterConfig& cfg,
                      const cluster::CampaignResult& result,
                      std::ostream& os) {
  std::ifstream is(agg_path);
  if (!is) return false;
  std::string word;
  if (!(is >> word) || word != "ovprof-agg-v1") return false;
  os << "{\n";
  os << "  \"ovprof_sched_version\": 1,\n";
  os << "  \"campaign\": {\n";
  os << "    \"nodes\": " << cfg.nodes << ",\n";
  os << "    \"ranks_per_node\": " << cfg.ranks_per_node << ",\n";
  os << "    \"policy\": \""
     << (cfg.policy == cluster::SchedPolicy::Backfill ? "backfill" : "fifo")
     << "\",\n";
  os << "    \"exclusive_nodes\": " << (cfg.exclusive_nodes ? "true" : "false")
     << ",\n";
  os << "    \"jobs\": " << result.jobs << ",\n";
  os << "    \"records_written\": " << result.records_written << ",\n";
  os << "    \"makespan_ns\": " << result.makespan << ",\n";
  os << "    \"backfills\": " << result.backfills << ",\n";
  os << "    \"baseline_runs\": " << result.baselines << ",\n";
  os << "    \"peak_open_jobs\": " << result.peak_open_jobs << "\n";
  os << "  },\n";
  os << "  \"jobs\": [";
  cluster::JobRecord rec;
  bool first = true;
  while (true) {
    const auto pos = is.tellg();
    if (!(is >> word)) return false;
    if (word == "agg.end") break;
    is.clear();
    is.seekg(pos);
    if (!rec.load(is)) return false;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"id\": " << rec.spec.id << ", \"kernel\": \""
       << rec.spec.kernel << "\", \"class\": \"" << rec.spec.klass
       << "\", \"nranks\": " << rec.spec.nranks;
    os << ", \"arrival_ns\": " << rec.spec.arrival
       << ", \"priority\": " << rec.spec.priority;
    os << ", \"start_ns\": " << rec.start << ", \"end_ns\": " << rec.end
       << ", \"duration_ns\": " << rec.duration();
    os << ", \"wait_ns\": " << rec.start - rec.spec.arrival;
    os << ", \"nodes\": [";
    for (std::size_t i = 0; i < rec.nodes.size(); ++i) {
      os << (i > 0 ? "," : "") << rec.nodes[i];
    }
    os << "]";
    os << ", \"data_transfer_ns\": "
       << rec.merged.whole.total.data_transfer_time;
    os << ", \"max_overlap_pct\": ";
    putDouble(os, rec.merged.whole.total.maxPct());
    os << ", \"link_wait_ns\": " << rec.link_wait;
    os << ", \"solo_ns\": " << rec.solo_duration;
    os << ", \"slowdown\": ";
    putDouble(os, rec.slowdown);
    os << ", \"contention_share\": ";
    putDouble(os, rec.contention_share);
    os << ", \"overlap_delta_pct\": ";
    putDouble(os, rec.overlap_delta_pct);
    os << "}";
    rec = cluster::JobRecord{};
  }
  os << "\n  ]\n}\n";
  return true;
}

[[nodiscard]] long peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const tool::CommandLine cl = tool::parseCommandLine(argc, argv, schedFlags());
  const util::Flags& flags = cl.flags;
  if (cl.positional.size() != 1) {
    std::fprintf(stderr, "ovprof_sched: expected exactly one WORKLOAD\n");
    return 2;
  }

  cluster::ClusterConfig cfg;
  cfg.nodes = static_cast<int>(flags.getInt("nodes"));
  cfg.ranks_per_node = static_cast<int>(flags.getInt("ranks-per-node"));
  cfg.policy = static_cast<cluster::SchedPolicy>(flags.getChoice("policy"));
  cfg.exclusive_nodes = !flags.getBool("shared-nodes");
  cfg.baselines = !flags.getBool("no-baselines");
  cfg.workers = static_cast<int>(flags.getInt("ovprof-workers"));
  const std::string vci_spec = flags.getString("ovprof-vci");
  if (!vci_spec.empty()) {
    if (!net::VciParams::parse(vci_spec, cfg.fabric.vci)) {
      std::fprintf(stderr, "ovprof_sched: bad --ovprof-vci spec '%s'\n",
                   vci_spec.c_str());
      return 2;
    }
  }
  cfg.fabric.vci.rails = static_cast<int>(flags.getInt("ovprof-vci-rails"));
  cfg.agg.spill_prefix = flags.getString("spill");
  cfg.agg.shard_jobs = static_cast<int>(flags.getInt("shard-jobs"));

  const std::string& wl = cl.positional[0];
  std::vector<cluster::JobSpec> jobs;
  if (wl.rfind("synth:", 0) == 0) {
    if (!parseSynthSpec(wl, cfg.nodes * cfg.ranks_per_node, jobs)) {
      std::fprintf(stderr,
                   "ovprof_sched: bad synth spec '%s' (want "
                   "synth:NJOBS[:SEED[:MAXRANKS]], MAXRANKS <= machine)\n",
                   wl.c_str());
      return 2;
    }
  } else {
    std::string error;
    if (!cluster::loadWorkloadFile(wl, jobs, &error)) {
      std::fprintf(stderr, "ovprof_sched: %s\n", error.c_str());
      return 2;
    }
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "ovprof_sched: workload has no jobs\n");
    return 2;
  }
  for (const cluster::JobSpec& j : jobs) {
    if (j.nranks > cfg.nodes * cfg.ranks_per_node) {
      std::fprintf(stderr,
                   "ovprof_sched: job %lld needs %d ranks, more than the "
                   "%d-node x %d-slot machine has\n",
                   static_cast<long long>(j.id), j.nranks, cfg.nodes,
                   cfg.ranks_per_node);
      return 2;
    }
  }

  const std::string write_wl = flags.getString("write-workload");
  if (!write_wl.empty()) {
    std::ofstream os(write_wl, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ovprof_sched: failed to write %s\n",
                   write_wl.c_str());
      return 2;
    }
    cluster::saveWorkload(os, jobs);
  }

  const std::string agg_path = flags.getString("agg");
  std::ofstream agg_os(agg_path, std::ios::binary);
  if (!agg_os) {
    std::fprintf(stderr, "ovprof_sched: failed to write %s\n",
                 agg_path.c_str());
    return 2;
  }

  cluster::ClusterRuntime runtime(cfg);
  cluster::CampaignResult result;
  try {
    result = runtime.run(jobs, agg_os);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ovprof_sched: %s\n", e.what());
    return 2;
  }
  agg_os.flush();
  if (!agg_os) {
    std::fprintf(stderr, "ovprof_sched: short write to %s\n",
                 agg_path.c_str());
    return 2;
  }
  agg_os.close();

  const std::string launch_path = flags.getString("launch-log");
  if (!launch_path.empty()) {
    std::ofstream os(launch_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "ovprof_sched: failed to write %s\n",
                   launch_path.c_str());
      return 2;
    }
    for (const cluster::LaunchEvent& l : runtime.launchLog()) {
      os << "launch " << l.job << ' ' << l.time << ' '
         << (l.backfilled ? 1 : 0);
      for (int nd : l.nodes) os << ' ' << nd;
      os << '\n';
    }
  }

  std::ofstream json_file;
  std::ostream* json_os =
      tool::openOutput("ovprof_sched", flags.getString("json"), json_file);
  if (json_os == nullptr) return 2;
  if (!writeJsonSummary(agg_path, cfg, result, *json_os)) {
    std::fprintf(stderr, "ovprof_sched: failed to summarize %s\n",
                 agg_path.c_str());
    return 2;
  }
  json_os->flush();

  const std::int64_t budget_mb = flags.getInt("rss-budget-mb");
  if (budget_mb > 0) {
    const long peak = peakRssMb();
    if (peak > budget_mb) {
      std::fprintf(stderr,
                   "ovprof_sched: peak RSS %ld MiB exceeds budget %lld MiB\n",
                   peak, static_cast<long long>(budget_mb));
      return 1;
    }
    std::fprintf(stderr, "ovprof_sched: peak RSS %ld MiB (budget %lld MiB)\n",
                 peak, static_cast<long long>(budget_mb));
  }
  return 0;
}
